#!/usr/bin/env python3
"""End-to-end engine benchmark: builds perfbench/engine_bench from the
checkout it runs in, then runs one workload.

  python3 perfbench/run.py --workload s2s-local --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The build goes to .bench_build (or to
$CARGO_TARGET_DIR when set) and is reused by later runs. Build output is
shown only when the build fails. The benchmark's own output passes through,
and its last line is one JSON object with the metrics. The exit code is the
benchmark's: nonzero on a build failure or on any failed check.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path.
    Raises RuntimeError with the build log when a step fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no jarvis sources under %s; run from the root "
                           "of a full checkout" % ROOT)
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(out_dir, "engine_bench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "engine_bench",
                  "-j", jobs])
    # One build at a time per build directory.
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                raise RuntimeError("build step failed: %s\n%s" %
                                   (" ".join(cmd), proc.stdout))
    return binary


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args(argv)
    try:
        binary = build(build_dir())
    except (RuntimeError, OSError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 3
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "trace-%s.jsonl" % args.workload)]
    sys.stdout.flush()
    return subprocess.run(cmd + extra).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
