#ifndef JARVIS_PERFBENCH_BENCH_WORKLOADS_H_
#define JARVIS_PERFBENCH_BENCH_WORKLOADS_H_

// The benchmark's workloads and the harness pieces every block shares: the
// pre-generated input feed and the BuildingBlock factory.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "core/building_block.h"
#include "query/compile.h"
#include "stream/record.h"

namespace jarvis::perfbench {

/// One named workload: a query, its sources and the knobs that steer the
/// engine onto the layer mix the workload exists to stress.
struct WorkloadDef {
  std::string name;
  enum class Query { kS2SProbe, kT2TProbe, kLogAnalytics } query;
  int sources = 16;
  /// Pingmesh probe pairs (= records) or log lines per source per epoch.
  int per_source = 0;
  /// Untimed epochs run before timing starts (part of set-up).
  int warmup_epochs = 10;
  /// Pinned load factors, re-applied after every epoch; empty lets the
  /// JarvisRuntime plan (LP init + stepwise adapt).
  std::vector<double> pinned;
  /// Modeled per-record operator costs (cpu-seconds) and the CPU budget
  /// schedule: budgets[0] from the start, budgets[k] from timed epoch
  /// k * E / budgets.size().
  std::vector<double> costs;
  std::vector<double> budgets = {1.0};
  /// Fault-tolerant epoch path with checkpointing every epoch.
  bool fault_tolerant = false;
  /// LZ4 drain wire.
  bool compress = false;
};

/// Every workload `--workload` accepts.
const std::vector<WorkloadDef>& Workloads();
const WorkloadDef* FindWorkload(const std::string& name);

/// Event-time window of all three queries, in epochs (10 s / 1 s).
inline constexpr int kWindowEpochs = 10;

/// Holds one epoch of every source's input, generated on the calling thread
/// before the epoch starts so generation stays outside the timed interval
/// and off the block's worker threads. The block's
/// `generate` callback only hands over the batch built for the requested
/// interval; a request for any other interval is answered by generating on
/// the spot and recorded as a feed miss (the run is then not correct).
class InputFeed {
 public:
  using Generator = std::function<stream::RecordBatch(Micros, Micros)>;

  explicit InputFeed(std::vector<Generator> generators);

  /// Builds every source's batch for [from, to). Returns the records made.
  uint64_t Prepare(Micros from, Micros to);

  /// Hands source `s` its prepared batch. Safe to call from source `s`'s
  /// pool task: each slot is touched by one source only between Prepare
  /// calls, and Prepare runs while the pool is idle.
  stream::RecordBatch Take(size_t s, Micros from, Micros to);

  uint64_t misses() const { return misses_.load(); }

 private:
  struct Slot {
    Generator generate;
    Micros from = -1;
    Micros to = -1;
    stream::RecordBatch batch;
  };
  std::vector<Slot> slots_;
  std::atomic<uint64_t> misses_{0};
};

/// Which plan a block instance runs: the workload's own (pinned or
/// adaptive), or every operator on the stream processor (the reference).
enum class Placement { kWorkload, kAllSp };

/// A constructed block plus the feed its sources read from.
struct Instance {
  std::shared_ptr<InputFeed> feed;
  std::unique_ptr<core::BuildingBlock> block;
  /// Load factors re-applied after every epoch; empty when the runtime
  /// plans.
  std::vector<double> pinned;
};

/// Compiles the workload's query, builds its static tables and sources, and
/// constructs the block with every engine setting set through the API.
Result<Instance> BuildInstance(const WorkloadDef& w, uint64_t seed,
                               int threads, Placement placement);

/// CPU budget in force at timed epoch `k` of `timed_epochs`.
double BudgetAt(const WorkloadDef& w, int k, int timed_epochs);

}  // namespace jarvis::perfbench

#endif  // JARVIS_PERFBENCH_BENCH_WORKLOADS_H_
