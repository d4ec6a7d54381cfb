#include "bench_workloads.h"

#include <utility>

#include "common/rng.h"
#include "core/cost_model.h"
#include "workloads/loganalytics.h"
#include "workloads/pingmesh.h"
#include "workloads/queries.h"

namespace jarvis::perfbench {

namespace {

/// Server IPs of consecutive sources are this far apart; each source probes
/// the `per_source` IPs right after its own.
constexpr int64_t kIpStride = 2048;
/// Servers per ToR switch in the T2TProbe mapping tables.
constexpr int64_t kServersPerTor = 40;
/// Modeled cost that never binds: pinned workloads measure the engine, not
/// the modeled admission control.
constexpr double kFreeCost = 1e-9;
/// Checkpoint ring size of the fault-tolerant workload: every 4th
/// checkpoint is a keyframe.
constexpr int kCheckpointRetain = 4;

std::vector<WorkloadDef> MakeWorkloads() {
  std::vector<WorkloadDef> out;

  WorkloadDef s2s;
  s2s.name = "s2s-local";
  s2s.query = WorkloadDef::Query::kS2SProbe;
  s2s.per_source = 2000;
  s2s.pinned = {1, 1, 1};
  s2s.costs.assign(3, kFreeCost);
  out.push_back(s2s);

  // T2TProbe's operators at the paper's CPU shares for 2000 probes/s
  // (workloads::MakeT2TModel): window 2%, filter 13%, the two joins 95% and
  // 55% of the filtered stream, project 2%, group+reduce 18%. The whole
  // query needs ~1.85 cores, so every budget below binds and the LP splits
  // the joins' input between the source and the stream processor.
  WorkloadDef t2t;
  t2t.name = "t2t-adaptive";
  t2t.query = WorkloadDef::Query::kT2TProbe;
  t2t.per_source = 2000;
  t2t.warmup_epochs = 30;
  {
    const double in = 2000.0;
    const double filtered = in * 0.86;
    t2t.costs = {0.02 / in,       0.13 / in,       0.95 / filtered,
                 0.55 / filtered, 0.02 / filtered, 0.18 / filtered};
  }
  t2t.budgets = {1.0, 0.5, 1.5};
  out.push_back(t2t);

  WorkloadDef logs;
  logs.name = "logs-ft";
  logs.query = WorkloadDef::Query::kLogAnalytics;
  logs.per_source = 500;
  logs.pinned = {1, 1, 1, 1, 0.5, 0.5};
  logs.costs.assign(6, kFreeCost);
  logs.fault_tolerant = true;
  logs.compress = true;
  out.push_back(logs);
  return out;
}

uint64_t SourceSeed(uint64_t seed, size_t s) {
  return SplitMix64(SplitMix64(seed) ^ (0x9e3779b97f4a7c15ULL * (s + 1)));
}

Result<query::CompiledQuery> CompileQuery(const WorkloadDef& w) {
  Result<query::LogicalPlan> plan = Status::Internal("unknown query");
  switch (w.query) {
    case WorkloadDef::Query::kS2SProbe:
      plan = workloads::MakeS2SProbeQuery();
      break;
    case WorkloadDef::Query::kT2TProbe: {
      // Both tables cover every server IP any source probes.
      const int64_t servers = kIpStride * w.sources + w.per_source + 2;
      plan = workloads::MakeT2TProbeQuery(
          workloads::MakeIpToTorTable(0, servers, kServersPerTor, "srcToR"),
          workloads::MakeIpToTorTable(0, servers, kServersPerTor, "dstToR"));
      break;
    }
    case WorkloadDef::Query::kLogAnalytics:
      plan = workloads::MakeLogAnalyticsQuery();
      break;
  }
  if (!plan.ok()) return plan.status();
  return query::Compile(std::move(plan).value());
}

InputFeed::Generator MakeGenerator(const WorkloadDef& w, uint64_t seed,
                                   size_t s) {
  if (w.query == WorkloadDef::Query::kLogAnalytics) {
    workloads::LogAnalyticsConfig cfg;
    cfg.seed = SourceSeed(seed, s);
    cfg.lines_per_sec = w.per_source;
    auto gen = std::make_shared<workloads::LogAnalyticsGenerator>(cfg);
    return [gen](Micros from, Micros to) { return gen->Generate(from, to); };
  }
  workloads::PingmeshConfig cfg;
  cfg.seed = SourceSeed(seed, s);
  cfg.source_ip = 1 + kIpStride * static_cast<int64_t>(s);
  cfg.num_pairs = w.per_source;
  cfg.probe_interval = Seconds(1);
  auto gen = std::make_shared<workloads::PingmeshGenerator>(cfg);
  return [gen](Micros from, Micros to) { return gen->Generate(from, to); };
}

}  // namespace

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> kWorkloads = MakeWorkloads();
  return kWorkloads;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

InputFeed::InputFeed(std::vector<Generator> generators)
    : slots_(generators.size()) {
  for (size_t s = 0; s < generators.size(); ++s) {
    slots_[s].generate = std::move(generators[s]);
  }
}

uint64_t InputFeed::Prepare(Micros from, Micros to) {
  uint64_t records = 0;
  for (Slot& slot : slots_) {
    slot.from = from;
    slot.to = to;
    slot.batch = slot.generate(from, to);
    records += slot.batch.size();
  }
  return records;
}

stream::RecordBatch InputFeed::Take(size_t s, Micros from, Micros to) {
  Slot& slot = slots_[s];
  if (slot.from != from || slot.to != to) {
    misses_.fetch_add(1);
    return slot.generate(from, to);
  }
  slot.from = slot.to = -1;
  return std::move(slot.batch);
}

Result<Instance> BuildInstance(const WorkloadDef& w, uint64_t seed,
                               int threads, Placement placement) {
  JARVIS_ASSIGN_OR_RETURN(query::CompiledQuery query, CompileQuery(w));
  Instance inst;
  const size_t num_ops = query.num_source_ops();
  if (w.costs.size() != num_ops) {
    return Status::InvalidArgument("workload " + w.name +
                                   ": cost count != source operators");
  }
  std::vector<InputFeed::Generator> gens;
  for (int s = 0; s < w.sources; ++s) {
    gens.push_back(MakeGenerator(w, seed, static_cast<size_t>(s)));
  }
  inst.feed = std::make_shared<InputFeed>(std::move(gens));

  const bool reference = placement == Placement::kAllSp;
  auto costs = std::make_shared<core::FixedCostModel>(w.costs);
  std::vector<core::BuildingBlock::SourceSpec> specs;
  for (int s = 0; s < w.sources; ++s) {
    core::BuildingBlock::SourceSpec spec;
    spec.cost_model = costs;
    spec.options.cpu_budget_fraction = w.budgets.front();
    spec.options.epoch_seconds = 1.0;
    std::shared_ptr<InputFeed> feed = inst.feed;
    const size_t id = static_cast<size_t>(s);
    spec.generate = [feed, id](Micros from, Micros to) {
      return feed->Take(id, from, to);
    };
    specs.push_back(std::move(spec));
  }

  core::RuntimeConfig rc;
  if (reference) {
    inst.pinned.assign(num_ops, 0.0);
  } else {
    inst.pinned = w.pinned;
  }
  // A pinned plan never adapts: the runtime stays in Probe and its decision
  // is overwritten by the pinned factors after every epoch.
  if (!inst.pinned.empty()) rc.detect_epochs = 1 << 30;

  inst.block = std::make_unique<core::BuildingBlock>(query, std::move(specs),
                                                     rc, threads);
  JARVIS_RETURN_IF_ERROR(inst.block->Init());
  core::WireCodecOptions codec;
  codec.compress = !reference && w.compress;
  inst.block->SetWireCodec(codec);
  if (!reference && w.fault_tolerant) {
    core::FaultToleranceOptions ft;
    ft.checkpoint_interval = 1;
    ft.checkpoint_retain = kCheckpointRetain;
    inst.block->EnableFaultTolerance(ft);
  }
  for (size_t s = 0; s < inst.block->num_sources(); ++s) {
    inst.block->source(s).SetLoadFactors(inst.pinned);
  }
  return inst;
}

double BudgetAt(const WorkloadDef& w, int k, int timed_epochs) {
  if (k < 0 || timed_epochs <= 0) return w.budgets.front();
  const size_t n = w.budgets.size();
  const size_t step = static_cast<size_t>(k) * n /
                      static_cast<size_t>(timed_epochs);
  return w.budgets[step < n ? step : n - 1];
}

}  // namespace jarvis::perfbench
