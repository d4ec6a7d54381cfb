// End-to-end benchmark of the BuildingBlock epoch loop:
// generator -> source pipeline -> drain wire frames -> stream processor ->
// results, on one of the named workloads of bench_workloads.h.
//
//   engine_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--trace-out PATH] [--sources N] [--per-source N]
//                [--epochs N] [--repetitions N] [--inject-mismatch]
//
// Every block is built from the same seeded inputs and runs the same epochs:
// warm-up, then timed epochs in whole windows. `S * kTimedEpochsPerSecond`
// timed epochs (at least 200) are split over kRepetitions repetitions.
// Blocks run one after another, each alone. First comes the memory block:
// threads = hardware threads, timings discarded; the process's peak RSS is
// read right after it, before any other block exists, and it takes the
// first-touch cost of the heap. Then each repetition runs
//   1. kParallelBlocks untraced blocks at threads = hardware threads: the
//      end-to-end timings (the shortest blocks, so they are repeated);
//   2. untraced, threads = 1: the single-threaded baseline, and the
//      per-epoch plan schedule the traced block replays;
//   3. traced, threads = 1: the same public calls the block's serial epoch
//      path makes, in the same order, each wrapped in a span.
// After the repetitions, the all-SP reference runs once: every operator on
// the stream processor. The loop is closed: the main thread runs one block's
// epochs back to back, and each epoch's input is generated on the main
// thread before the epoch starts, outside the timed interval. Results are
// folded into a digest per epoch and dropped, so retained output never
// inflates the memory figure. Repeating the blocks spreads each kind's
// timings over the whole run, so a drift in machine speed during the run
// moves every kind alike.
//
// Every metric is printed as "metric NAME VALUE UNIT"; the last line is one
// JSON object with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). The exit code is nonzero when any check fails: an epoch
// error, digests that differ between thread counts, between the traced and
// untraced runs, or from the all-SP reference, or a replay that drifted.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_workloads.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/drain_wire.h"
#include "core/exec_pool.h"
#include "ser/buffer.h"

extern char** environ;

namespace jarvis::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Timed epochs per second of `--seconds`; a run times at least 200 epochs
/// so that ten samples lie beyond epoch_ms_p95.
constexpr double kTimedEpochsPerSecond = 30.0;
/// Repetitions of the timed blocks in one run.
constexpr int kRepetitions = 5;
/// threads = hardware threads blocks per repetition.
constexpr int kParallelBlocks = 3;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (the "linear" method of numpy/statistics).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------
// Result digest
// ---------------------------------------------------------------------------

uint64_t HashBytes(uint64_t h, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

/// Order-independent digest of a result multiset. `exact` hashes every
/// field bit for bit (thread counts and the traced run must agree on it);
/// `keys` hashes everything but doubles, and `weighted` sums each double
/// under a pseudo-random weight drawn from its row's key, so the all-SP
/// reference can be compared up to float reassociation in partial merges.
struct Digest {
  uint64_t rows = 0;
  uint64_t exact = 0;
  uint64_t keys = 0;
  long double weighted = 0;
  long double magnitude = 0;

  void Fold(const stream::RecordBatch& batch) {
    for (const stream::Record& r : batch) {
      uint64_t key = HashBytes(0xcbf29ce484222325ULL, &r.window_start,
                               sizeof(r.window_start));
      uint64_t all = key;
      for (const stream::Value& v : r.fields) {
        if (const auto* i = std::get_if<int64_t>(&v)) {
          key = HashBytes(key, i, sizeof(*i));
          all = HashBytes(all, i, sizeof(*i));
        } else if (const auto* s = std::get_if<std::string>(&v)) {
          key = HashBytes(key, s->data(), s->size()) * 31 + s->size();
          all = HashBytes(all, s->data(), s->size()) * 31 + s->size();
        } else {
          const double d = std::get<double>(v);
          all = HashBytes(all, &d, sizeof(d));
        }
      }
      size_t field = 0;
      for (const stream::Value& v : r.fields) {
        ++field;
        if (const auto* d = std::get_if<double>(&v)) {
          const uint64_t h = SplitMix64(key ^ field);
          const long double w =
              1.0L + static_cast<long double>(h >> 11) * 0x1.0p-53L;
          weighted += w * *d;
          magnitude += w * std::fabs(*d);
        }
      }
      ++rows;
      exact += SplitMix64(all);
      keys += SplitMix64(key);
    }
  }

  bool SameExact(const Digest& o) const {
    return rows == o.rows && exact == o.exact;
  }
  bool SameUpToFloatOrder(const Digest& o) const {
    const long double scale = std::max<long double>(
        1.0L, std::max(magnitude, o.magnitude));
    return rows == o.rows && keys == o.keys &&
           std::fabs(weighted - o.weighted) <= 1e-12L * scale;
  }
  std::string Describe() const {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "rows=%llu exact=%016llx keys=%016llx",
                  static_cast<unsigned long long>(rows),
                  static_cast<unsigned long long>(exact),
                  static_cast<unsigned long long>(keys));
    return buf;
  }
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

enum Layer : uint8_t {
  kEpoch,
  kGenerate,
  kIngest,
  kRunEpoch,
  kEncode,
  kDecode,
  kConsume,
  kConsumeFrame,
  kEndEpoch,
  kDecide,
  kCheckpoint,
  kNumLayers,
};

constexpr const char* kLayerNames[kNumLayers] = {
    "epoch",
    "workloads.generate",
    "SourceExecutor::Ingest",
    "SourceExecutor::RunEpoch",
    "SerializeDrain",
    "DecodeDrain",
    "SpExecutor::Consume",
    "SpExecutor::ConsumeFrame",
    "SpExecutor::EndEpoch",
    "JarvisRuntime::OnEpochEnd",
    "ExportCheckpointBody+SealCheckpointPayload+MakeCheckpointFrame",
};

/// One timed call. Child spans name their epoch span as parent; generate
/// spans sit outside every epoch (parent -1).
struct Span {
  Layer layer = kEpoch;
  int32_t rep = 0;
  int32_t epoch = 0;
  int32_t source = -1;
  int32_t parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span log, written out once when the run ends.
class Tracer {
 public:
  /// Tags the spans that follow with repetition `rep`.
  void SetRepetition(int32_t rep) { rep_ = rep; }
  int32_t OpenEpoch(int32_t epoch, Clock::time_point start) {
    spans_.push_back(Span{kEpoch, rep_, epoch, -1, -1, start, start});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void CloseEpoch(int32_t index, Clock::time_point end) {
    spans_[static_cast<size_t>(index)].end = end;
  }
  void Add(Layer layer, int32_t epoch, int32_t source, int32_t parent,
           Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{layer, rep_, epoch, source, parent, start, end});
  }
  /// Runs `f` inside a span.
  template <typename F>
  decltype(auto) Time(Layer layer, int32_t epoch, int32_t source,
                      int32_t parent, F&& f) {
    const Clock::time_point t0 = Clock::now();
    struct Closer {
      Tracer* tr;
      Layer layer;
      int32_t epoch, source, parent;
      Clock::time_point t0;
      ~Closer() { tr->Add(layer, epoch, source, parent, t0, Clock::now()); }
    } closer{this, layer, epoch, source, parent, t0};
    return f();
  }
  const std::vector<Span>& spans() const { return spans_; }

  bool WriteJsonl(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const Clock::time_point origin =
        spans_.empty() ? Clock::time_point() : spans_.front().start;
    for (const Span& s : spans_) {
      std::fprintf(
          f,
          "{\"name\":\"%s\",\"rep\":%d,\"epoch\":%d,\"source\":%d,"
          "\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n",
          kLayerNames[s.layer], s.rep, s.epoch, s.source, s.parent,
          MsBetween(origin, s.start) * 1e3, MsBetween(origin, s.end) * 1e3);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  int32_t rep_ = 0;
};

// ---------------------------------------------------------------------------
// Block runners
// ---------------------------------------------------------------------------

/// Epoch counts of every block: warm-up (untimed, part of set-up) and timed.
struct Plan {
  int warmup = 0;
  int timed = 0;
  int total() const { return warmup + timed; }
  bool Timed(int e) const { return e >= warmup; }
  /// Epochs whose interval ends on a window boundary close a window.
  static bool Closes(int e) { return (e + 1) % kWindowEpochs == 0; }
};

/// What the untraced threads=1 block decided for one source after one epoch,
/// plus what that epoch shipped — the traced block replays the decision and
/// checks it shipped the same.
struct SourceStep {
  std::vector<double> lfs;
  bool profile_next = false;
  bool flush = false;
  bool profiled = false;     // this epoch ran in profiling mode
  uint64_t drained = 0;      // records shipped (default path)
  uint64_t modeled = 0;      // modeled drain bytes (default path)
  uint64_t wire_bytes = 0;   // frame bytes delivered (fault-tolerant path)
};
using Schedule = std::vector<std::vector<SourceStep>>;  // [epoch][source]

struct BlockOutcome {
  Digest digest;
  std::string error;
  double setup_s = 0;
  std::vector<double> epoch_ms;    // timed epochs
  std::vector<double> result_ms;   // closed windows of timed epochs
  double timed_ms = 0;
  uint64_t timed_records = 0;
  uint64_t epochs_attempted = 0;
  uint64_t epochs_failed = 0;
  uint64_t feed_misses = 0;
  // Fault-tolerant path only (fault_stats of the block).
  core::FaultStats ft;
  uint64_t ft_wire_bytes_timed = 0;
  uint64_t in_flight = 0;
  int adaptations = 0;
  // Traced block only.
  uint64_t wire_bytes_all = 0;     // every frame, all epochs
  uint64_t wire_bytes_timed = 0;
  uint64_t ckpt_bytes_timed = 0;
  uint64_t frames_timed = 0;
  uint64_t modeled_timed = 0;      // modeled bytes of data frames
  uint64_t data_wire_timed = 0;    // wire bytes of data frames
  uint64_t drained_timed = 0;
  uint64_t profile_epochs = 0;
  uint64_t replay_mismatches = 0;
};

void ApplyBudget(const WorkloadDef& w, const Plan& plan, int e,
                 core::BuildingBlock* b) {
  const double budget = BudgetAt(w, e - plan.warmup, plan.timed);
  for (size_t s = 0; s < b->num_sources(); ++s) {
    if (b->source(s).cpu_budget_fraction() != budget) {
      b->source(s).SetCpuBudget(budget);
    }
  }
}

/// One block driven epoch by epoch, alone, its epochs back to back. Set-up
/// is the block's construction plus its warm-up epochs, each timed on its
/// own.
class Runner {
 public:
  Runner(const WorkloadDef& w, uint64_t seed, const Plan& plan, int threads,
         Placement placement)
      : w_(w), plan_(plan) {
    const Clock::time_point t0 = Clock::now();
    Result<Instance> built = BuildInstance(w, seed, threads, placement);
    setup_ms_ = MsBetween(t0, Clock::now());
    if (!built.ok()) {
      po_.error = "set-up: " + built.status().ToString();
      return;
    }
    inst_ = std::move(built).value();
    epoch_start_.resize(static_cast<size_t>(plan.total()));
  }
  virtual ~Runner() = default;
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  bool ok() const { return po_.error.empty(); }

  /// Runs every epoch, then the end-of-run flush; returns the outcome.
  BlockOutcome Run() {
    for (int e = 0; e < plan_.total() && ok(); ++e) Step(e);
    Finish();
    return std::move(po_);
  }

 protected:
  /// Runs epoch `e`: input generation (untimed), then the timed epoch.
  void Step(int e) {
    core::BuildingBlock& b = *inst_.block;
    ApplyBudget(w_, plan_, e, &b);
    gen_start_ = Clock::now();
    const uint64_t records = inst_.feed->Prepare(Seconds(e), Seconds(e + 1));
    gen_end_ = Clock::now();
    ++po_.epochs_attempted;
    Clock::time_point start, end;
    const Status st = RunOne(e, &start, &end);
    if (!st.ok()) {
      ++po_.epochs_failed;
      po_.error = "epoch " + std::to_string(e) + ": " + st.ToString();
      return;
    }
    epoch_start_[static_cast<size_t>(e)] = start;
    const double ms = MsBetween(start, end);
    if (!plan_.Timed(e)) {
      setup_ms_ += ms;
    } else {
      if (e == plan_.warmup) po_.setup_s = setup_ms_ / 1e3;
      po_.epoch_ms.push_back(ms);
      po_.timed_ms += ms;
      po_.timed_records += records;
      NoteWindows(end);
    }
    po_.digest.Fold(results_);
    results_.clear();
  }

  /// End-of-run flush (untimed) and final counters.
  void Finish() {
    if (ok()) {
      const Status st = FinishBlock();
      if (!st.ok()) po_.error = "finish: " + st.ToString();
      po_.digest.Fold(results_);
      results_.clear();
    }
    if (inst_.block == nullptr) return;
    core::BuildingBlock& b = *inst_.block;
    po_.feed_misses = inst_.feed->misses();
    po_.ft = b.fault_stats();
    po_.ft_wire_bytes_timed = po_.ft.wire_bytes_sent - ft_bytes_at_timing_;
    po_.in_flight = b.records_in_flight();
    for (size_t s = 0; s < b.num_sources(); ++s) {
      po_.adaptations += b.runtime(s).adaptations_completed();
    }
  }

  /// Runs the epoch proper, appending results to results_.
  virtual Status RunOne(int e, Clock::time_point* start,
                        Clock::time_point* end) = 0;
  virtual Status FinishBlock() { return inst_.block->Finish(&results_); }

  /// One closed-window latency sample per distinct window in results_:
  /// from the start of the epoch holding the window's last event time to
  /// the return of the epoch that emitted it.
  void NoteWindows(Clock::time_point emitted) {
    std::set<Micros> windows;
    for (const stream::Record& r : results_) windows.insert(r.window_start);
    for (const Micros ws : windows) {
      if (ws < 0) continue;
      const int64_t last = (ws + Seconds(kWindowEpochs)) / Seconds(1) - 1;
      if (last < plan_.warmup || last >= plan_.total()) continue;
      po_.result_ms.push_back(
          MsBetween(epoch_start_[static_cast<size_t>(last)], emitted));
    }
  }

  const WorkloadDef& w_;
  const Plan plan_;
  Instance inst_;
  BlockOutcome po_;
  stream::RecordBatch results_;
  uint64_t ft_bytes_at_timing_ = 0;
  /// The last input generation, which runs outside every epoch.
  Clock::time_point gen_start_, gen_end_;

 private:
  double setup_ms_ = 0;
  std::vector<Clock::time_point> epoch_start_;
};

/// The real block: one BuildingBlock::RunEpoch per epoch. With `record`
/// set, every source's decision is captured through the public getters for
/// the traced block's replay.
class BlockRunner : public Runner {
 public:
  BlockRunner(const WorkloadDef& w, uint64_t seed, const Plan& plan,
              int threads, Placement placement, Schedule* record,
              bool drop_first_row)
      : Runner(w, seed, plan, threads, placement),
        record_(record),
        drop_first_row_(drop_first_row) {
    if (!ok() || record_ == nullptr) return;
    const size_t n = inst_.block->num_sources();
    record_->assign(static_cast<size_t>(plan.total()),
                    std::vector<SourceStep>(n));
    inst_.block->SetEpochTap([this](size_t s,
                                    const core::SourceEpochOutput& o) {
      SourceStep& st = (*record_)[static_cast<size_t>(cur_)][s];
      st.profiled = o.observation.profiles_valid;
      st.drained = o.DrainedRecords();
      st.modeled = o.drained_bytes;
    });
    inst_.block->SetWireTap(
        [this](size_t s, uint32_t, const std::vector<uint8_t>& bytes) {
          (*record_)[static_cast<size_t>(cur_)][s].wire_bytes += bytes.size();
        });
  }

 private:
  Status RunOne(int e, Clock::time_point* start,
                Clock::time_point* end) override {
    core::BuildingBlock& b = *inst_.block;
    const size_t n = b.num_sources();
    cur_ = e;
    if (e == plan_.warmup) {
      ft_bytes_at_timing_ = b.fault_stats().wire_bytes_sent;
    }
    before_.resize(n);
    for (size_t s = 0; s < n; ++s) before_[s] = b.runtime(s).phase();
    *start = Clock::now();
    const Status st = b.RunEpoch(&results_);
    *end = Clock::now();
    JARVIS_RETURN_IF_ERROR(st);
    if (!inst_.pinned.empty()) {
      for (size_t s = 0; s < n; ++s) b.source(s).SetLoadFactors(inst_.pinned);
    }
    if (record_ != nullptr) {
      for (size_t s = 0; s < n; ++s) {
        // The runtime's decision, recovered from its public state:
        // profiling is requested exactly when it entered Profile, and a new
        // plan (flush) is installed when it is adapting after a profile or
        // a non-stable epoch.
        const core::JarvisRuntime& rt = b.runtime(s);
        SourceStep& step = (*record_)[static_cast<size_t>(e)][s];
        for (size_t i = 0; i < b.source(s).num_ops(); ++i) {
          step.lfs.push_back(b.source(s).proxy(i).load_factor());
        }
        step.profile_next = rt.phase() == core::Phase::kProfile;
        step.flush = rt.phase() == core::Phase::kAdapt &&
                     (before_[s] == core::Phase::kProfile ||
                      rt.last_state() != core::QueryState::kStable);
      }
    }
    if (drop_first_row_ && !results_.empty()) {
      results_.erase(results_.begin());
      drop_first_row_ = false;
    }
    return Status::OK();
  }

  Schedule* record_;
  bool drop_first_row_;
  int cur_ = 0;
  std::vector<core::Phase> before_;
};

/// The traced block, threads=1: drives the block's parts through the public
/// calls its serial epoch path makes (RunEpochSerial on the default path;
/// the inline schedule-then-collect loop of RunEpochFaultTolerant with
/// checkpointing), with a span around each call. The plan is replayed from
/// the threads=1 block's schedule, so the runtime's decisions are timed but
/// not applied: the block folds measured wire ratios into profiles
/// privately before deciding, and a plan decided here without them could
/// drift.
class TracedRunner : public Runner {
 public:
  TracedRunner(const WorkloadDef& w, uint64_t seed, const Plan& plan,
               const Schedule* sched, Tracer* tr)
      : Runner(w, seed, plan, 1, Placement::kWorkload),
        sched_(sched),
        tr_(tr) {
    if (!ok()) return;
    const size_t n = inst_.block->num_sources();
    next_seq_.assign(n, 0);
    profile_.assign(n, false);
    shipped_.resize(n);
  }

 private:
  struct Shipped {
    core::WireDrain wire;
    Micros watermark = -1;
  };

  Status RunOne(int e, Clock::time_point* start,
                Clock::time_point* end) override {
    tr_->Add(kGenerate, e, -1, -1, gen_start_, gen_end_);
    *start = Clock::now();
    const int32_t ep = tr_->OpenEpoch(e, *start);
    const Status st = Epoch(e, ep);
    *end = Clock::now();
    tr_->CloseEpoch(ep, *end);
    return st;
  }

  Status Epoch(int e, int32_t ep) {
    core::BuildingBlock& b = *inst_.block;
    core::SpExecutor& sp = b.stream_processor();
    const size_t n = b.num_sources();
    const core::WireCodecOptions& codec = b.wire_codec();
    const bool ft = b.fault_tolerance().enabled;
    const int interval = b.fault_tolerance().checkpoint_interval;
    const int retain = std::max(1, b.fault_tolerance().checkpoint_retain);
    const bool timed = plan_.Timed(e);
    const Micros from = Seconds(e);
    const Micros to = Seconds(e + 1);
    last_to_ = to;
    if (ft) sp.SetCheckpointRetain(static_cast<size_t>(retain));
    for (size_t s = 0; s < n; ++s) {
      const int32_t src = static_cast<int32_t>(s);
      core::SourceExecutor& ex = b.source(s);
      const SourceStep& step = (*sched_)[static_cast<size_t>(e)][s];
      if (ft) ex.SetIngressLimits(core::IngressLimits());
      stream::RecordBatch in = inst_.feed->Take(s, from, to);
      tr_->Time(kIngest, e, src, ep, [&] { ex.Ingest(std::move(in)); });
      Result<core::SourceEpochOutput> out =
          tr_->Time(kRunEpoch, e, src, ep,
                    [&] { return ex.RunEpoch(to, profile_[s]); });
      JARVIS_RETURN_IF_ERROR(out.status());
      const bool profiled = out->observation.profiles_valid;
      const uint64_t drained = out->DrainedRecords();
      const uint64_t modeled = out->drained_bytes;
      core::WireByteProfile wire_profile;
      core::WireDrain wire = tr_->Time(kEncode, e, src, ep, [&] {
        return core::SerializeDrain(&*out, &next_seq_[s], codec,
                                    profiled ? &wire_profile : nullptr);
      });
      const uint64_t data_bytes = wire.wire_bytes;
      uint64_t ckpt_bytes = 0;
      if (ft && interval > 0 && (e + 1) % interval == 0) {
        JARVIS_RETURN_IF_ERROR(tr_->Time(kCheckpoint, e, src, ep, [&] {
          return BuildCheckpoint(e, interval, retain, s, codec, &wire,
                                 &ckpt_bytes);
        }));
      }
      po_.wire_bytes_all += wire.wire_bytes;
      if (timed) {
        po_.wire_bytes_timed += wire.wire_bytes;
        po_.ckpt_bytes_timed += ckpt_bytes;
        po_.data_wire_timed += data_bytes;
        po_.modeled_timed += modeled;
        po_.frames_timed += wire.frame_count;
        po_.drained_timed += drained;
        po_.profile_epochs += profiled ? 1 : 0;
      }
      const bool same =
          profiled == step.profiled &&
          (ft ? wire.wire_bytes == step.wire_bytes
              : drained == step.drained && modeled == step.modeled);
      if (!same) ++po_.replay_mismatches;

      core::EpochObservation obs;
      if (ft) {
        shipped_[s].wire = std::move(wire);
        shipped_[s].watermark = out->watermark;
        obs = std::move(out->observation);
      } else {
        JARVIS_RETURN_IF_ERROR(tr_->Time(kDecode, e, src, ep, [&] {
          return core::DecodeDrain(wire, &out->to_sp);
        }));
        obs = out->observation;
        JARVIS_RETURN_IF_ERROR(tr_->Time(kConsume, e, src, ep, [&] {
          return sp.Consume(s, std::move(*out), &results_);
        }));
      }
      tr_->Time(kDecide, e, src, ep,
                [&] { return b.runtime(s).OnEpochEnd(obs); });
      ex.SetLoadFactors(step.lfs);
      if (step.flush) ex.RequestFlush();
      profile_[s] = step.profile_next;
    }
    // Fault-tolerant path: the consumer collects in ascending source order
    // after every source produced, verifying and consuming frame by frame.
    for (size_t s = 0; ft && s < n; ++s) {
      JARVIS_RETURN_IF_ERROR(tr_->Time(
          kConsumeFrame, e, static_cast<int32_t>(s), ep, [&]() -> Status {
            for (const core::WireFrame& f : shipped_[s].wire.frames) {
              JARVIS_ASSIGN_OR_RETURN(core::FrameDisposition d,
                                      sp.ConsumeFrame(s, f, &results_));
              if (d != core::FrameDisposition::kDelivered) {
                return Status::Internal("frame " + std::to_string(f.seq) +
                                        " not delivered");
              }
            }
            sp.ConsumeWatermark(s, shipped_[s].watermark);
            return Status::OK();
          }));
      shipped_[s] = Shipped();
    }
    return tr_->Time(kEndEpoch, e, -1, ep,
                     [&] { return sp.EndEpoch(&results_); });
  }

  /// MaybeBuildCheckpointFrame of the block: export source `s`'s state
  /// (a keyframe every `retain`th barrier), seal it, and append it as the
  /// epoch's last wire frame.
  Status BuildCheckpoint(int e, int interval, int retain, size_t s,
                         const core::WireCodecOptions& codec,
                         core::WireDrain* wire, uint64_t* bytes) {
    const bool full = ((e + 1) / interval - 1) % retain == 0;
    ser::BufferWriter body;
    JARVIS_RETURN_IF_ERROR(inst_.block->source(s).ExportCheckpointBody(
        &body,
        full ? stream::StateExport::kFull : stream::StateExport::kDelta));
    const uint32_t seq = next_seq_[s]++;
    core::WireFrame frame = core::MakeCheckpointFrame(
        seq, core::SealCheckpointPayload(full, e, seq + 1, body.data()),
        codec);
    *bytes = frame.bytes.size();
    wire->wire_bytes += *bytes;
    ++wire->frame_count;
    wire->frames.push_back(std::move(frame));
    return Status::OK();
  }

  /// BuildingBlock::Finish with nothing in flight: lift ingress caps, run a
  /// far-future epoch on every source, consume it, then flush the SP.
  Status FinishBlock() override {
    core::BuildingBlock& b = *inst_.block;
    core::SpExecutor& sp = b.stream_processor();
    const Micros far = last_to_ + Seconds(3600);
    for (size_t s = 0; s < b.num_sources(); ++s) {
      b.source(s).SetIngressLimits(core::IngressLimits());
      JARVIS_ASSIGN_OR_RETURN(core::SourceEpochOutput out,
                              b.source(s).RunEpoch(far, false));
      JARVIS_RETURN_IF_ERROR(sp.Consume(s, std::move(out), &results_));
    }
    JARVIS_RETURN_IF_ERROR(sp.EndEpoch(&results_));
    return sp.Flush(&results_);
  }

  const Schedule* sched_;
  Tracer* tr_;
  std::vector<uint32_t> next_seq_;
  std::vector<bool> profile_;
  std::vector<Shipped> shipped_;
  Micros last_to_ = 0;
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetric(const Metric& m) {
  std::printf("metric %s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string JsonLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    // A block that failed early can leave a ratio without a denominator;
    // JSON has no NaN, and such a run already reports correct=false.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, "
                  "\"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

double PeakRssMiB() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Per-layer time from the traced blocks: ms per epoch over the timed
/// epochs, and over the timed window-closing epochs.
struct LayerTimes {
  double total_ms[kNumLayers] = {};
  double close_ms[kNumLayers] = {};
  int epochs = 0;
  int close_epochs = 0;
};

LayerTimes SumLayers(const std::vector<Span>& spans, const Plan& plan) {
  LayerTimes lt;
  for (const Span& s : spans) {
    if (!plan.Timed(s.epoch)) continue;
    const double ms = MsBetween(s.start, s.end);
    lt.total_ms[s.layer] += ms;
    if (Plan::Closes(s.epoch)) lt.close_ms[s.layer] += ms;
    if (s.layer == kEpoch) {
      ++lt.epochs;
      if (Plan::Closes(s.epoch)) ++lt.close_epochs;
    }
  }
  return lt;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  int sources = 0;
  int per_source = 0;
  int epochs = 0;
  int repetitions = kRepetitions;
  bool inject_mismatch = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--inject-mismatch") {
      a->inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a->trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (k == "--sources") {
      a->sources = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (k == "--per-source") {
      a->per_source = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (k == "--epochs") {
      a->epochs = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (k == "--repetitions") {
      a->repetitions = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1) && a->sources >= 0 &&
         a->per_source >= 0 && a->epochs >= 0 && a->repetitions >= 1;
}

/// Engine settings come only from the API here: the BuildingBlock
/// constructor reads several JARVIS_* variables, and one left set (a chaos
/// plan, a thread count) would silently change the workload.
bool RefuseJarvisEnvironment() {
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "JARVIS_", 7) == 0) {
      const char* eq = std::strchr(*e, '=');
      const std::string name =
          eq ? std::string(*e, static_cast<size_t>(eq - *e)) : *e;
      std::fprintf(stderr,
                   "engine_bench: refusing to start: environment variable "
                   "%s is set; unset every JARVIS_* variable (engine "
                   "settings come from the workload definition)\n",
                   name.c_str());
      return true;
    }
  }
  return false;
}

int Main(int argc, char** argv) {
  if (RefuseJarvisEnvironment()) return 2;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: engine_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH] [--sources N] "
                 "[--per-source N] [--epochs N] [--repetitions N] "
                 "[--inject-mismatch]\n");
    return 2;
  }
  const WorkloadDef* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "engine_bench: unknown workload '%s'; one of:",
                 args.workload.c_str());
    for (const WorkloadDef& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  WorkloadDef w = *found;
  if (args.sources > 0) w.sources = args.sources;
  if (args.per_source > 0) w.per_source = args.per_source;

  Plan plan;
  plan.warmup = w.warmup_epochs;
  const int run_timed =
      args.epochs > 0 ? args.epochs
                      : std::max(200, static_cast<int>(std::ceil(
                                          args.seconds *
                                          kTimedEpochsPerSecond)));
  // Per block, whole windows only, so every block has the same share of
  // closing epochs.
  const int per_block = (run_timed + args.repetitions - 1) / args.repetitions;
  plan.timed = (per_block + kWindowEpochs - 1) / kWindowEpochs * kWindowEpochs;
  const int nproc = core::HardwareThreads();
  std::printf("workload %s seed %llu sources %d per_source %d warmup_epochs "
              "%d timed_epochs %d repetitions %d threads 1,%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.sources, w.per_source, plan.warmup, plan.timed,
              args.repetitions, nproc);
  std::fflush(stdout);

  struct Repetition {
    std::vector<BlockOutcome> par;  // untraced, threads=nproc
    BlockOutcome one;               // untraced, threads=1
    BlockOutcome tr;                // traced, threads=1
  };
  const BlockOutcome mem = BlockRunner(w, args.seed, plan, nproc,
                                       Placement::kWorkload, nullptr, false)
                               .Run();
  const double peak_rss = PeakRssMiB();
  std::vector<Repetition> reps(static_cast<size_t>(args.repetitions));
  Schedule sched;
  Tracer tracer;
  for (size_t r = 0; r < reps.size(); ++r) {
    Repetition& rep = reps[r];
    for (int k = 0; k < kParallelBlocks; ++k) {
      rep.par.push_back(
          BlockRunner(w, args.seed, plan, nproc, Placement::kWorkload, nullptr,
                      args.inject_mismatch && rep.par.empty() && r == 0)
              .Run());
    }
    rep.one = BlockRunner(w, args.seed, plan, 1, Placement::kWorkload,
                          &sched, false)
                  .Run();
    // The replay needs the threads=1 block's decision for every epoch.
    tracer.SetRepetition(static_cast<int32_t>(r));
    if (rep.one.error.empty()) {
      rep.tr = TracedRunner(w, args.seed, plan, &sched, &tracer).Run();
    } else {
      rep.tr.error = "skipped: the threads=1 block failed";
    }
  }
  const BlockOutcome ref =
      BlockRunner(w, args.seed, plan, nproc, Placement::kAllSp, nullptr, false)
          .Run();
  if (!args.trace_out.empty() && !tracer.WriteJsonl(args.trace_out)) {
    std::fprintf(stderr, "engine_bench: cannot write %s\n",
                 args.trace_out.c_str());
  }
  const Repetition& first = reps.front();

  // --- checks ---
  uint64_t failed = 0;
  uint64_t attempted = 0;
  std::vector<std::string> problems;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("check %-44s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) {
      ++failed;
      problems.push_back(what);
    }
  };
  // Every block of one kind, across the repetitions.
  struct Kind {
    const char* name;
    std::vector<const BlockOutcome*> blocks;
  };
  std::vector<Kind> kinds = {{"threads=nproc", {&mem}},
                             {"threads=1", {}},
                             {"traced threads=1", {}},
                             {"all-SP reference", {&ref}}};
  for (const Repetition& rep : reps) {
    for (const BlockOutcome& p : rep.par) kinds[0].blocks.push_back(&p);
    kinds[1].blocks.push_back(&rep.one);
    kinds[2].blocks.push_back(&rep.tr);
  }
  for (const Kind& k : kinds) {
    uint64_t epochs_failed = 0;
    bool completed = true;
    bool fed = true;
    for (const BlockOutcome* p : k.blocks) {
      attempted += p->epochs_attempted;
      epochs_failed += p->epochs_failed;
      if (!p->error.empty()) {
        std::printf("error %s: %s\n", k.name, p->error.c_str());
        completed = false;
      }
      fed = fed && p->feed_misses == 0;
    }
    // A failed epoch is counted once, as itself; any other error (set-up,
    // finish) counts as one failed check.
    failed += epochs_failed;
    if (epochs_failed > 0) {
      const std::string what = std::string(k.name) + " epochs";
      std::printf("check %-44s FAILED\n", what.c_str());
      problems.push_back(what);
    } else {
      check(completed, std::string(k.name) + " ran to completion");
    }
    check(fed, std::string(k.name) + " input feed hit");
  }
  // Run-level mismatches are counted on top of failed epochs. Every block
  // running the workload's plan must match the first threads=1 block.
  const Digest& want = first.one.digest;
  bool same_threads = mem.digest.SameExact(want);
  bool same_traced = true;
  bool replayed = true;
  for (const Repetition& rep : reps) {
    for (const BlockOutcome& p : rep.par) {
      same_threads = same_threads && p.digest.SameExact(want);
    }
    same_threads = same_threads && rep.one.digest.SameExact(want);
    same_traced = same_traced && rep.tr.digest.SameExact(want);
    replayed = replayed && rep.tr.replay_mismatches == 0;
  }
  check(want.rows > 0, "results not empty");
  check(same_threads, "digest threads=nproc == threads=1");
  check(same_traced, "digest traced == untraced");
  check(want.SameUpToFloatOrder(ref.digest), "digest == all-SP reference");
  check(replayed, "traced replay shipped the same drains");
  if (w.fault_tolerant) {
    for (size_t k = 0; k < 2; ++k) {  // the blocks on the fault-tolerant path
      bool conserved = true;
      for (const BlockOutcome* p : kinds[k].blocks) {
        const core::FaultStats& f = p->ft;
        conserved = conserved && f.records_lost == 0 && f.crashes == 0 &&
                    f.retransmits == 0 &&
                    f.records_sent == f.records_delivered + f.records_lost +
                                          f.records_shed + p->in_flight;
      }
      check(conserved, std::string(kinds[k].name) + " conserved, nothing lost");
    }
    bool wire_same = true;
    for (const Repetition& rep : reps) {
      wire_same =
          wire_same && rep.tr.wire_bytes_all == rep.one.ft.wire_bytes_sent;
    }
    check(wire_same, "traced wire bytes == fault_stats");
  }
  std::printf("digest threads=1     %s\n", want.Describe().c_str());
  std::printf("digest reference     %s\n", ref.digest.Describe().c_str());

  // --- end-to-end metrics ---
  // Rates and latencies pool every timed epoch (window) of every block of a
  // kind; set-up is the median over the threads=nproc blocks.
  auto rate = [](const BlockOutcome& o) {
    return static_cast<double>(o.timed_records) / (o.timed_ms / 1e3);
  };
  std::vector<double> setups, epoch_ms, result_ms;
  double par_records = 0, par_ms = 0, one_records = 0, one_ms = 0, tr_ms = 0;
  for (const Repetition& rep : reps) {
    for (const BlockOutcome& p : rep.par) {
      par_records += static_cast<double>(p.timed_records);
      par_ms += p.timed_ms;
      setups.push_back(p.setup_s);
      epoch_ms.insert(epoch_ms.end(), p.epoch_ms.begin(), p.epoch_ms.end());
      result_ms.insert(result_ms.end(), p.result_ms.begin(),
                       p.result_ms.end());
    }
    one_records += static_cast<double>(rep.one.timed_records);
    one_ms += rep.one.timed_ms;
    tr_ms += rep.tr.timed_ms;
  }
  const double rps = par_records / (par_ms / 1e3);
  const double rps_1t = one_records / (one_ms / 1e3);
  const BlockOutcome& tr = first.tr;
  const double wire_per_rec =
      w.fault_tolerant
          ? static_cast<double>(first.par.front().ft_wire_bytes_timed) /
                static_cast<double>(first.par.front().timed_records)
          : static_cast<double>(tr.wire_bytes_timed) /
                static_cast<double>(tr.timed_records);
  const std::vector<Metric> e2e = {
      {"records_per_s", rps, "records/s"},
      {"records_per_s_1t", rps_1t, "records/s"},
      {"epoch_ms_p50", Quantile(epoch_ms, 0.5), "ms"},
      {"epoch_ms_p95", Quantile(epoch_ms, 0.95), "ms"},
      {"result_ms_p50", Quantile(result_ms, 0.5), "ms"},
      {"wire_bytes_per_rec", wire_per_rec, "bytes/record"},
      {"peak_rss_mb", peak_rss, "MiB"},
      {"setup_s", Quantile(setups, 0.5), "s"},
  };
  std::printf("samples epoch_ms %zu result_ms %zu setup_s %zu\n",
              epoch_ms.size(), result_ms.size(), setups.size());
  for (size_t r = 0; r < reps.size(); ++r) {
    std::printf("repetition %zu records_per_s", r);
    for (const BlockOutcome& p : reps[r].par) std::printf(" %.6g", rate(p));
    std::printf(" records_per_s_1t %.6g\n", rate(reps[r].one));
  }
  for (const Metric& m : e2e) PrintMetric(m);
  const double failed_share =
      attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
  PrintMetric({"failed_share", failed_share, "fraction"});

  // --- per-layer metrics (traced blocks) ---
  // Timings pool every traced block; counts come from the first one, as
  // every repetition ships the same.
  const LayerTimes lt = SumLayers(tracer.spans(), plan);
  const double epochs = std::max(1, lt.epochs);
  const double close_epochs = std::max(1, lt.close_epochs);
  const double block_epochs = plan.timed;
  double covered = 0;
  for (int l = kGenerate + 1; l < kNumLayers; ++l) covered += lt.total_ms[l];
  const double traced_wall = lt.total_ms[kEpoch];
  std::vector<Metric> layers;
  auto timing = [&](const std::string& name,
                    std::initializer_list<Layer> parts) {
    double total = 0, close = 0;
    for (const Layer l : parts) {
      total += lt.total_ms[l];
      close += lt.close_ms[l];
    }
    layers.push_back({name, total / epochs, "ms"});
    layers.push_back({name + ".close", close / close_epochs, "ms"});
  };
  timing("source_executor.run_epoch_ms", {kRunEpoch});
  timing("source_executor.ingest_ms", {kIngest});
  timing("drain_wire.encode_ms", {kEncode});
  timing("drain_wire.decode_ms", {kDecode});
  timing("sp_executor.consume_ms", {kConsume, kConsumeFrame});
  timing("sp_executor.end_epoch_ms", {kEndEpoch});
  timing("runtime.decide_ms", {kDecide});
  timing("checkpoint.export_ms", {kCheckpoint});
  timing("workloads.generate_ms", {kGenerate});
  const double traced_records = static_cast<double>(tr.timed_records);
  layers.push_back({"checkpoint.bytes_share",
                    tr.wire_bytes_timed > 0
                        ? static_cast<double>(tr.ckpt_bytes_timed) /
                              static_cast<double>(tr.wire_bytes_timed)
                        : 0.0,
                    "fraction"});
  layers.push_back({"drain_wire.bytes_per_rec",
                    static_cast<double>(tr.wire_bytes_timed) / traced_records,
                    "bytes/record"});
  layers.push_back({"drain_wire.wire_to_modeled",
                    tr.modeled_timed > 0
                        ? static_cast<double>(tr.data_wire_timed) /
                              static_cast<double>(tr.modeled_timed)
                        : 0.0,
                    "bytes/byte"});
  layers.push_back({"drain_wire.frames_per_epoch",
                    static_cast<double>(tr.frames_timed) / block_epochs,
                    "frames/epoch"});
  layers.push_back({"source_executor.drained_share",
                    static_cast<double>(tr.drained_timed) / traced_records,
                    "records/record"});
  layers.push_back({"sp_executor.records_per_epoch",
                    static_cast<double>(tr.drained_timed) / block_epochs,
                    "records/epoch"});
  layers.push_back({"runtime.adaptations",
                    static_cast<double>(first.one.adaptations), "count"});
  layers.push_back({"runtime.profile_epochs",
                    static_cast<double>(tr.profile_epochs), "count"});
  layers.push_back({"exec_pool.speedup", rps / rps_1t, "x"});
  layers.push_back(
      {"exec_pool.serial_share",
       traced_wall > 0 ? (lt.total_ms[kConsume] + lt.total_ms[kConsumeFrame] +
                          lt.total_ms[kEndEpoch]) /
                             traced_wall
                       : 0.0,
       "fraction"});
  layers.push_back({"trace.coverage",
                    traced_wall > 0 ? covered / traced_wall : 0.0,
                    "fraction"});
  // Each traced block runs right after the threads=1 block it replays, so
  // both see the same machine speed.
  layers.push_back({"trace.overhead",
                    one_ms > 0 ? tr_ms / one_ms - 1.0 : 0.0, "fraction"});
  for (const Metric& m : layers) PrintMetric(m);

  const bool correct = failed == 0;
  if (!correct) {
    std::printf("FAILED checks:");
    for (const std::string& p : problems) std::printf(" [%s]", p.c_str());
    std::printf("\n");
  }
  std::printf("%s\n",
              JsonLine(correct, attempted, failed, args.trace ? layers : e2e)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace jarvis::perfbench

int main(int argc, char** argv) { return jarvis::perfbench::Main(argc, argv); }
