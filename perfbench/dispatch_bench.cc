// dispatch_bench — the measuring half of the repository benchmark
// (perfbench/run.py builds it, runs it and turns its output into metrics).
//
// Runs one named City B workload through the public library API:
// GenerateWorkload → DistanceOracle + WarmSlots → PolicyRegistry →
// DispatchEngine, or ShardedDispatchEngine behind a WindowExecutor →
// Simulator. Each intake window is paced open-loop on a compressed event
// clock: window k is due at t0 + k·∆/S wall seconds, and the Simulator's
// after_window hook sleeps until the next window is due (or returns at once
// when that time has passed, so a slow window delays every later one).
// Drain windows after the intake horizon run unpaced and are not measured.
//
// With --trace 1 the process runs the workload once untraced and once
// traced. The traced pass wraps the dispatch core (every Handle) and every
// policy instance (every Assign, registered through PolicyRegistry so each
// shard of the sharded engine gets one) in timing decorators, keeps the
// spans in memory, derives the per-layer figures from them and from the
// library's existing public outputs, and writes the spans at exit.
//
// Usage:
//   dispatch_bench --workload NAME --seed N --seconds T --trace 0|1
//                  --out-dir DIR
// Prints progress on stderr and one JSON object of raw measurements as the
// last line of stdout; exits 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "foodmatch/foodmatch.h"

namespace fm::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Workloads ----
//
// Why each exists (perfbench/README.md has the full table):
//   b20-lunch   City B 1/20 over the lunch peak: batching is about half of
//               the work (the "batching wall"), and the serving layers are
//               bypassed.
//   b80-shard4  City B 1/80 over the paper's default day through the
//               sharded, streaming, durable serving path: K=4 shards behind
//               a WindowExecutor, per-shard WAL and snapshots. The FOODGRAPH
//               fill dominates and batching is small.
struct WorkloadDef {
  const char* name;
  double scale;       // City B Table II divisor
  double start_hour;  // order-intake horizon
  double end_hour;
  int shards;         // 1 = one DispatchEngine; >1 = sharded serving stack
  // Fixed compressed-clock speedup S: 40-50% busy on 4 lanes at the
  // commit that defined the benchmark.
  double speedup;
  // Every seed's day is thinned to this many orders (see MakeWorkload).
  std::size_t orders;
  // Fingerprint of the finished simulation for kDefaultSeed.
  std::uint64_t pinned_fingerprint;
};

constexpr WorkloadDef kWorkloads[] = {
    {"b20-lunch", 20.0, 12.0, 14.0, 1, 160.0, 1750, 0x3955c9621d9aab2full},
    {"b80-shard4", 80.0, 10.0, 15.0, 4, 1060.0, 650, 0x03413174f54f2a47ull},
};

// Execution lanes for the oracle warm-up and the dispatch pipeline.
constexpr int kLanes = 4;
// The seed whose fingerprint is pinned; any other seed is held out.
constexpr std::uint64_t kDefaultSeed = 0;
// Full set-ups timed per run; setup_s is their median.
constexpr int kMinSetups = 3;

// The inputs for `seed`: generator day `seed` of the workload's city and
// horizon, thinned by a seeded uniform draw to def.orders orders. Window
// cost grows faster than the order count (batching is superlinear), so
// unthinned days would spread the timing metrics by their order counts
// alone. Kept orders are re-numbered so ids stay dense in placement order,
// as the Simulator expects.
Workload MakeWorkload(const WorkloadDef& def, std::uint64_t seed) {
  WorkloadOptions options;
  options.start_time = def.start_hour * 3600.0;
  options.end_time = def.end_hour * 3600.0;
  options.day = seed;
  Workload workload = GenerateWorkload(CityBProfile(def.scale), options);
  std::vector<Order>& orders = workload.orders;
  if (orders.size() <= def.orders) return workload;
  Rng rng(seed);
  for (std::size_t i = 0; i < def.orders; ++i) {
    std::swap(orders[i], orders[i + rng.UniformInt(orders.size() - i)]);
  }
  orders.resize(def.orders);
  std::sort(orders.begin(), orders.end(),
            [](const Order& a, const Order& b) { return a.id < b.id; });
  for (std::size_t i = 0; i < orders.size(); ++i) {
    orders[i].id = static_cast<OrderId>(i);
  }
  return workload;
}

// ---- Fingerprint ----
//
// FNV-1a over everything deterministic in a SimulationResult (every metric
// accumulator, per-slot bucket and per-order outcome) — the field walk of
// fmsim's --verify fingerprints.
std::uint64_t HashU64(std::uint64_t h, std::uint64_t v) {
  return Fnv1a(&v, sizeof(v), h);
}
std::uint64_t HashDouble(std::uint64_t h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return HashU64(h, bits);
}

std::uint64_t FingerprintResult(const SimulationResult& r) {
  std::uint64_t h = kFnv1aOffsetBasis;
  const Metrics& m = r.metrics;
  h = HashU64(h, m.orders_total);
  h = HashU64(h, m.orders_delivered);
  h = HashU64(h, m.orders_rejected);
  h = HashU64(h, m.orders_pending_at_end);
  h = HashDouble(h, m.total_xdt_seconds);
  h = HashDouble(h, m.total_delivery_seconds);
  h = HashDouble(h, m.total_wait_seconds);
  for (double d : m.distance_by_load_m) h = HashDouble(h, d);
  h = HashU64(h, m.windows);
  h = HashU64(h, m.cost_evaluations);
  for (const SlotMetrics& s : m.per_slot) {
    h = HashU64(h, s.orders_placed);
    h = HashU64(h, s.orders_delivered);
    h = HashDouble(h, s.xdt_seconds);
    h = HashDouble(h, s.wait_seconds);
    h = HashDouble(h, s.distance_m);
    h = HashDouble(h, s.load_distance_m);
    h = HashU64(h, s.windows);
  }
  for (const OrderOutcome& o : r.outcomes) {
    h = HashU64(h, static_cast<std::uint64_t>(o.state));
    h = HashU64(h, o.id);
    h = HashU64(h, o.vehicle);
    h = HashDouble(h, o.delivered_at);
    h = HashDouble(h, o.xdt);
    h = HashU64(h, static_cast<std::uint64_t>(o.times_assigned));
  }
  return h;
}

// ---- Spans ----

struct Span {
  const char* name = "";
  std::int64_t window = 0;  // shared id of every span of one window
  int lane = 0;             // 0 for the core; shard index for policies
  Clock::time_point start;
  Clock::time_point end;
};

// The traced pass's spans, kept in memory until the pass ends. Core spans
// are appended by the thread driving the simulator; each policy instance
// appends only to its own lane, from whichever worker runs its shard.
struct SpanLog {
  Seconds start_time = 0.0;
  Seconds delta = 0.0;
  std::vector<Span> core;
  std::vector<std::unique_ptr<std::vector<Span>>> policy_lanes;
  std::vector<const AssignmentPolicy*> policies;

  std::int64_t WindowOf(Seconds now) const {
    return std::llround((now - start_time) / delta) - 1;
  }
};

// The log the registered timed policy records into; set for the traced
// pass only (policies are created on the main thread before it starts).
SpanLog* g_span_log = nullptr;

// Decorator over one policy instance: one span per Assign.
class TimedPolicy final : public AssignmentPolicy {
 public:
  TimedPolicy(std::unique_ptr<AssignmentPolicy> inner, const SpanLog* log,
              std::vector<Span>* spans, int lane)
      : inner_(std::move(inner)), log_(log), spans_(spans), lane_(lane) {}

  std::string name() const override { return inner_->name(); }
  bool wants_reshuffle() const override { return inner_->wants_reshuffle(); }
  AssignmentDecision Assign(const std::vector<Order>& unassigned,
                            const std::vector<VehicleSnapshot>& vehicles,
                            Seconds now) override {
    const Clock::time_point start = Clock::now();
    AssignmentDecision decision = inner_->Assign(unassigned, vehicles, now);
    spans_->push_back(
        {"policy.assign", log_->WindowOf(now), lane_, start, Clock::now()});
    return decision;
  }
  ThreadPool* thread_pool() const override { return inner_->thread_pool(); }
  void OnVehicleChanged(VehicleId vehicle) override {
    inner_->OnVehicleChanged(vehicle);
  }
  void OnVehicleRetired(VehicleId vehicle) override {
    inner_->OnVehicleRetired(vehicle);
  }

  const AssignmentPolicy& inner() const { return *inner_; }

 private:
  std::unique_ptr<AssignmentPolicy> inner_;
  const SpanLog* log_;
  std::vector<Span>* spans_;
  int lane_;
};

constexpr const char* kTimedPolicyName = "bench.timed-foodmatch";

void RegisterTimedPolicy() {
  PolicyRegistry::Global().Register(
      kTimedPolicyName,
      [](const DistanceOracle* oracle, const Config& config,
         const PolicyOptions& options) -> std::unique_ptr<AssignmentPolicy> {
        SpanLog* log = g_span_log;
        FM_CHECK(log != nullptr);
        log->policy_lanes.push_back(std::make_unique<std::vector<Span>>());
        auto policy = std::make_unique<TimedPolicy>(
            PolicyRegistry::Global().Create("foodmatch", oracle, config,
                                            options),
            log, log->policy_lanes.back().get(),
            static_cast<int>(log->policy_lanes.size()) - 1);
        log->policies.push_back(&policy->inner());
        return policy;
      });
}

// Decorator over the dispatch core: one span per Handle.
class TimedCore final : public DispatchCore {
 public:
  TimedCore(DispatchCore* inner, SpanLog* log) : inner_(inner), log_(log) {}

  void Handle(OrderPlaced event) override {
    const Clock::time_point start = Clock::now();
    inner_->Handle(std::move(event));
    Record("core.order_placed", start);
  }
  void Handle(VehicleStateUpdate event) override {
    const Clock::time_point start = Clock::now();
    inner_->Handle(std::move(event));
    Record("core.vehicle_update", start);
  }
  void Handle(OrderDelivered event) override {
    const Clock::time_point start = Clock::now();
    inner_->Handle(event);
    Record("core.order_delivered", start);
  }
  void Handle(VehicleRetired event) override {
    const Clock::time_point start = Clock::now();
    inner_->Handle(event);
    Record("core.vehicle_retired", start);
  }
  WindowResult Handle(const WindowClosed& event) override {
    const Clock::time_point start = Clock::now();
    WindowResult result = inner_->Handle(event);
    Record("core.window_closed", start);
    ++window_;
    return result;
  }
  void set_observer(WindowObserver observer) override {
    inner_->set_observer(std::move(observer));
  }
  std::size_t pending_orders() const override {
    return inner_->pending_orders();
  }
  ThreadPool* thread_pool() const override { return inner_->thread_pool(); }

 private:
  void Record(const char* name, Clock::time_point start) {
    log_->core.push_back({name, window_, 0, start, Clock::now()});
  }

  DispatchCore* inner_;
  SpanLog* log_;
  std::int64_t window_ = 0;
};

// ---- One pass: set-up plus a paced replay ----

// Per-window pacing record of the intake horizon. A window starts when
// the pacer wakes up for it, or — when it is already due — as soon as the
// previous window completes, so lag_k = max(0, lag_{k-1} - budget) + s_k
// holds up to the pacer's lateness in waking.
struct Pacer {
  Clock::time_point t0;
  double budget = 0.0;             // ∆/S wall seconds per window
  std::uint64_t intake_windows = 0;
  Clock::time_point window_start;  // when the current window started
  std::vector<double> service_s;   // window start → completion
  std::vector<double> lag_s;       // completion − due time
  std::vector<double> late_s;      // wake-up past the due time (0 if none)
  double sleep_s = 0.0;            // total time spent waiting to be due

  void AfterWindow(std::uint64_t k) {
    const Clock::time_point done = Clock::now();
    if (k >= intake_windows) return;  // drain windows run unpaced
    service_s.push_back(SecondsBetween(k == 0 ? t0 : window_start, done));
    lag_s.push_back(SecondsBetween(t0, done) -
                    static_cast<double>(k) * budget);
    if (k + 1 == intake_windows) return;
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(
                     static_cast<double>(k + 1) * budget));
    if (done < due) {
      std::this_thread::sleep_until(due);
      window_start = Clock::now();
      late_s.push_back(SecondsBetween(due, window_start));
      sleep_s += SecondsBetween(done, window_start);
    } else {
      window_start = done;
      late_s.push_back(0.0);
    }
  }
};

// The workload's inputs: generated once per set-up and shared by every
// pass of a run (the warmed oracle is read-only from then on).
struct Inputs {
  Workload workload;
  std::unique_ptr<DistanceOracle> oracle;
};

// One pass's dispatch stack, built fresh for every pass. Members are
// declared in dependency order so destruction runs consumers first (the
// simulator before its core, the engines before the registry and profile
// they write to).
struct Stack {
  PhaseProfile serving_profile;
  obs::MetricsRegistry registry;
  std::unique_ptr<AssignmentPolicy> policy;
  std::unique_ptr<DispatchEngine> engine;
  std::unique_ptr<GridRegionPartitioner> partitioner;
  std::unique_ptr<ShardedDispatchEngine> sharded;
  std::unique_ptr<WindowExecutor> executor;
  std::unique_ptr<TimedCore> timed_core;
  Pacer pacer;
  std::unique_ptr<Simulator> sim;
};

struct PassResult {
  bool traced = false;
  std::uint64_t fingerprint = 0;
  std::vector<double> service_s, lag_s, late_s;
  std::uint64_t placed = 0, delivered = 0, rejected = 0, pending = 0;
  std::uint64_t outcome_delivered = 0, outcome_rejected = 0,
                outcome_pending = 0;
  double xdt_mean_s = 0.0, orders_per_km = 0.0, wait_mean_s = 0.0;
  std::map<std::string, double> layers;  // traced pass only
};

std::unique_ptr<Inputs> MakeInputs(const WorkloadDef& def,
                                   std::uint64_t seed, double* gen_s) {
  auto inputs = std::make_unique<Inputs>();
  const Clock::time_point t0 = Clock::now();
  inputs->workload = MakeWorkload(def, seed);
  *gen_s = SecondsBetween(t0, Clock::now());
  inputs->oracle = std::make_unique<DistanceOracle>(
      &inputs->workload.network, OracleBackend::kHubLabels);
  ThreadPool warm_pool(kLanes);
  inputs->oracle->WarmSlots(
      HourSlot(def.start_hour * 3600.0),
      std::min(kSlotsPerDay - 1, HourSlot(def.end_hour * 3600.0) + 2),
      &warm_pool);
  return inputs;
}

std::unique_ptr<Stack> MakeStack(const WorkloadDef& def, const Inputs& inputs,
                               bool traced, const std::string& wal_dir) {
  auto stack = std::make_unique<Stack>();
  Config config;
  config.accumulation_window = inputs.workload.profile.default_delta;
  config.threads = kLanes;
  config.shards = def.shards;
  config.Validate();
  const std::string policy_name = traced ? kTimedPolicyName : "foodmatch";

  SimulationInput input;
  input.network = &inputs.workload.network;
  input.oracle = inputs.oracle.get();
  input.config = config;
  input.fleet = inputs.workload.fleet;
  input.orders = inputs.workload.orders;
  input.start_time = def.start_hour * 3600.0;
  input.end_time = def.end_hour * 3600.0;
  stack->pacer.budget = config.accumulation_window / def.speedup;
  stack->pacer.intake_windows = static_cast<std::uint64_t>(std::llround(
      (input.end_time - input.start_time) / config.accumulation_window));
  input.after_window = [pacer = &stack->pacer](Seconds, std::uint64_t k) {
    pacer->AfterWindow(k);
  };

  DispatchCore* core = nullptr;
  if (def.shards == 1) {
    stack->policy = PolicyRegistry::Global().Create(
        policy_name, inputs.oracle.get(), config);
    stack->engine =
        std::make_unique<DispatchEngine>(stack->policy.get(), config);
    core = stack->engine.get();
  } else {
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);
    stack->partitioner = std::make_unique<GridRegionPartitioner>(
        &inputs.workload.network, def.shards);
    ShardedEngineOptions sharded_options;
    sharded_options.durability.dir = wal_dir;
    sharded_options.durability.snapshot_every_windows =
        config.snapshot_every_windows;
    if (traced) {
      sharded_options.profile = &stack->serving_profile;
      sharded_options.metrics = &stack->registry;
    }
    stack->sharded = std::make_unique<ShardedDispatchEngine>(
        stack->partitioner.get(), policy_name, inputs.oracle.get(), config,
        PolicyOptions{}, sharded_options);
    WindowExecutorOptions executor_options;
    executor_options.stages = def.shards;
    executor_options.queue_capacity =
        static_cast<std::size_t>(config.intake_queue_capacity);
    executor_options.prestage = config.intake_prestage;
    executor_options.oracle = inputs.oracle.get();
    executor_options.router =
        MakeRegionStageRouter(stack->partitioner.get());
    if (traced) executor_options.profile = &stack->serving_profile;
    stack->executor = std::make_unique<WindowExecutor>(stack->sharded.get(),
                                                       executor_options);
    core = stack->executor.get();
  }
  if (traced) {
    stack->timed_core = std::make_unique<TimedCore>(core, g_span_log);
    core = stack->timed_core.get();
  }
  stack->sim = std::make_unique<Simulator>(std::move(input), core);
  return stack;
}

double PhaseSeconds(const PhaseProfile& profile, const std::string& phase) {
  const auto it = profile.phases().find(phase);
  return it == profile.phases().end() ? 0.0 : it->second.seconds;
}

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

// Length of the union of [start, end) intervals.
double UnionSeconds(std::vector<std::pair<Clock::time_point,
                                          Clock::time_point>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  Clock::time_point covered = Clock::time_point::min();
  for (const auto& [start, end] : intervals) {
    const Clock::time_point from = std::max(start, covered);
    if (end > from) total += SecondsBetween(from, end);
    covered = std::max(covered, end);
  }
  return total;
}

// Per-layer figures of a traced pass (whole pass: intake and drain
// windows). Self time is a span's duration minus the part of it that its
// children cover: policy.assign spans are the children of a window's
// core.window_closed span, and the decision's own phase timers
// (batching, FOODGRAPH, KM) are the children of policy.assign.
void CollectLayers(const Inputs& inputs, const Stack& stack,
                   const SpanLog& log, const SimulationResult& result,
                   double run_s, std::uint64_t queries_before,
                   const Pacer& pacer, PassResult& pass) {
  const Metrics& m = result.metrics;
  auto& out = pass.layers;
  out["core.batching.s"] = m.phase_batching_seconds;
  out["core.batching.order_graph_s"] =
      PhaseSeconds(m.phases, "batching.order_graph");
  out["core.batching.merge_loop_s"] =
      PhaseSeconds(m.phases, "batching.merge_loop");
  out["core.food_graph.s"] = m.phase_graph_seconds;
  out["core.food_graph.delta_s"] = PhaseSeconds(m.phases, "graph.delta");
  out["core.food_graph.cost_evals"] =
      static_cast<double>(m.cost_evaluations);
  out["matching.km_s"] = PhaseSeconds(m.phases, "matching.km");
  out["sim.rebuild_s"] = PhaseSeconds(m.phases, "rebuild.plans");
  out["graph.queries"] =
      static_cast<double>(inputs.oracle->query_count() - queries_before);

  EdgeCacheStats cache;
  for (const AssignmentPolicy* policy : log.policies) {
    const auto* matching = dynamic_cast<const MatchingPolicy*>(policy);
    if (matching == nullptr || matching->edge_cache() == nullptr) continue;
    const EdgeCacheStats s = matching->edge_cache()->AggregatedStats();
    cache.duration_memo_hits += s.duration_memo_hits;
    cache.duration_memo_misses += s.duration_memo_misses;
    cache.footprint_replays += s.footprint_replays;
    cache.footprint_resumes += s.footprint_resumes;
    cache.footprint_rebuilds += s.footprint_rebuilds;
  }
  out["core.edge_cache.memo_hit_ratio"] =
      Ratio(cache.duration_memo_hits,
            cache.duration_memo_hits + cache.duration_memo_misses);
  out["core.edge_cache.footprint_replay_ratio"] = Ratio(
      cache.footprint_replays, cache.footprint_replays +
                                   cache.footprint_resumes +
                                   cache.footprint_rebuilds);

  // Assign spans grouped by window, for the engine's self time and the
  // per-window shard skew.
  std::map<std::int64_t,
           std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      assign_by_window;
  double assign_total = 0.0;
  for (const auto& lane : log.policy_lanes) {
    for (const Span& span : *lane) {
      assign_by_window[span.window].emplace_back(span.start, span.end);
      assign_total += SecondsBetween(span.start, span.end);
    }
  }
  double core_total = 0.0;
  for (const Span& span : log.core) {
    core_total += SecondsBetween(span.start, span.end);
  }
  double assign_union = 0.0;
  double skew_sum = 0.0;
  std::size_t skew_windows = 0;
  for (const auto& [window, intervals] : assign_by_window) {
    assign_union += UnionSeconds(intervals);
    double max_s = 0.0;
    double sum_s = 0.0;
    for (const auto& [start, end] : intervals) {
      const double s = SecondsBetween(start, end);
      max_s = std::max(max_s, s);
      sum_s += s;
    }
    if (sum_s > 0.0) {
      skew_sum += max_s * static_cast<double>(intervals.size()) / sum_s;
      ++skew_windows;
    }
  }
  out["core.policy.self_s"] =
      assign_total - (m.phase_batching_seconds + m.phase_graph_seconds +
                      m.phase_matching_seconds);
  out["core.engine.self_s"] = core_total - assign_union;
  out["sim.self_s"] =
      run_s - pacer.sleep_s - core_total - out["sim.rebuild_s"];
  out["serving.shard_skew"] =
      skew_windows == 0 ? 1.0 : skew_sum / static_cast<double>(skew_windows);

  out["serving.shard_window_s"] =
      PhaseSeconds(stack.serving_profile, "serving.shard_window");
  out["serving.migrations"] =
      stack.sharded ? static_cast<double>(stack.sharded->migrations()) : 0.0;
  out["core.intake.drain_s"] =
      PhaseSeconds(stack.serving_profile, "intake.drain");
  out["core.intake.events"] =
      stack.executor ? static_cast<double>(stack.executor->absorbed()) : 0.0;
  out["core.intake.blocked_pushes"] =
      stack.executor ? static_cast<double>(stack.executor->blocked_pushes())
                     : 0.0;
  out["durability.wal_bytes"] = 0.0;
  out["durability.fsync_p50_ms"] = 0.0;
  for (const obs::InstrumentValue& v : stack.registry.Snapshot().instruments) {
    if (v.name == "wal.bytes_written") {
      out["durability.wal_bytes"] = static_cast<double>(v.counter);
    } else if (v.name == "wal.fsync_seconds" && v.histogram.count > 0) {
      // Upper boundary of the bucket holding the median sync.
      const obs::HistogramValue& h = v.histogram;
      std::uint64_t seen = 0;
      for (std::size_t b = 0; b < h.counts.size(); ++b) {
        seen += h.counts[b];
        if (2 * seen >= h.count) {
          const double bound = b < h.boundaries.size()
                                   ? h.boundaries[b]
                                   : h.boundaries.back();
          out["durability.fsync_p50_ms"] = bound * 1e3;
          break;
        }
      }
    }
  }
}

void WriteSpans(const std::string& path, const SpanLog& log,
                Clock::time_point t0) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  bool first = true;
  const auto write = [&](const Span& s, const char* parent) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"parent\": \"%s\", \"window\": "
                 "%" PRId64 ", \"lane\": %d, \"start_s\": %.9f, "
                 "\"end_s\": %.9f}",
                 first ? "" : ",\n", s.name, parent, s.window, s.lane,
                 SecondsBetween(t0, s.start), SecondsBetween(t0, s.end));
    first = false;
  };
  for (const Span& s : log.core) write(s, "");
  for (const auto& lane : log.policy_lanes) {
    for (const Span& s : *lane) write(s, "core.window_closed");
  }
  std::fprintf(f, "\n]\n");
  std::fclose(f);
}

PassResult RunPass(const Inputs& inputs, Stack& stack, bool traced) {
  PassResult pass;
  pass.traced = traced;
  Pacer& pacer = stack.pacer;
  // The oracle is shared by every pass of a run: count this pass only.
  const std::uint64_t queries_before = inputs.oracle->query_count();
  pacer.t0 = Clock::now();
  const SimulationResult result = stack.sim->Run();
  const double run_s = SecondsBetween(pacer.t0, Clock::now());

  pass.fingerprint = FingerprintResult(result);
  pass.service_s = pacer.service_s;
  pass.lag_s = pacer.lag_s;
  pass.late_s = pacer.late_s;
  const Metrics& m = result.metrics;
  pass.placed = inputs.workload.orders.size();
  pass.delivered = m.orders_delivered;
  pass.rejected = m.orders_rejected;
  pass.pending = m.orders_pending_at_end;
  for (const OrderOutcome& o : result.outcomes) {
    switch (o.state) {
      case OrderOutcome::State::kDelivered: ++pass.outcome_delivered; break;
      case OrderOutcome::State::kRejected: ++pass.outcome_rejected; break;
      case OrderOutcome::State::kPendingAtEnd: ++pass.outcome_pending; break;
    }
  }
  pass.xdt_mean_s = m.MeanXdtSeconds();
  pass.orders_per_km = m.OrdersPerKm();
  pass.wait_mean_s =
      m.orders_delivered == 0
          ? 0.0
          : m.total_wait_seconds / static_cast<double>(m.orders_delivered);
  if (traced) {
    CollectLayers(inputs, stack, *g_span_log, result, run_s, queries_before,
                  pacer, pass);
  }
  return pass;
}

// ---- Output ----

void PrintArray(const char* key, const std::vector<double>& values) {
  std::printf("\"%s\": [", key);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ", ", values[i]);
  }
  std::printf("]");
}

void PrintPass(const PassResult& p) {
  std::printf("{\"traced\": %s, \"fingerprint\": \"%016" PRIx64 "\", ",
              p.traced ? "true" : "false", p.fingerprint);
  std::printf(
      "\"accounting\": {\"placed\": %" PRIu64 ", \"delivered\": %" PRIu64
      ", \"rejected\": %" PRIu64 ", \"pending\": %" PRIu64
      ", \"outcome_delivered\": %" PRIu64 ", \"outcome_rejected\": %" PRIu64
      ", \"outcome_pending\": %" PRIu64 "}, ",
      p.placed, p.delivered, p.rejected, p.pending, p.outcome_delivered,
      p.outcome_rejected, p.outcome_pending);
  std::printf(
      "\"quality\": {\"sim.xdt_mean_s\": %.17g, \"orders_per_km\": %.17g, "
      "\"wait_mean_s\": %.17g}, ",
      p.xdt_mean_s, p.orders_per_km, p.wait_mean_s);
  PrintArray("service_s", p.service_s);
  std::printf(", ");
  PrintArray("lag_s", p.lag_s);
  std::printf(", ");
  PrintArray("late_s", p.late_s);
  std::printf(", \"layers\": {");
  bool first = true;
  for (const auto& [name, value] : p.layers) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}");
}

int Main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return 2;
  }
  const std::string name = flags.GetString("workload");
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) def = &w;
  }
  const std::string seed_flag = flags.GetString("seed");
  char* seed_end = nullptr;
  const unsigned long long seed =
      std::strtoull(seed_flag.c_str(), &seed_end, 10);
  const double seconds = flags.GetDouble("seconds", 0.0);
  const int trace = flags.GetInt("trace", -1);
  const std::string out_dir = flags.GetString("out-dir");
  if (def == nullptr || seed_flag.empty() || *seed_end != '\0' ||
      seconds <= 0.0 ||
      (trace != 0 && trace != 1) || out_dir.empty()) {
    std::fprintf(stderr,
                 "usage: dispatch_bench --workload=b20-lunch|b80-shard4 "
                 "--seed=N --seconds=T --trace=0|1 "
                 "--out-dir=DIR\n");
    return 2;
  }
  std::filesystem::create_directories(out_dir);
  const std::string wal_dir = out_dir + "/wal-" + def->name;
  RegisterTimedPolicy();

  // Set-up — generating the inputs, building and warming the oracle, and
  // building the first pass's dispatch stack — is timed kMinSetups times,
  // holding one set-up at a time; the last one serves the run. Untraced:
  // as many paced passes as fit in --seconds (at least one), each on a
  // fresh dispatch stack. Traced: one untraced pass, then one traced pass.
  const Seconds delta = CityBProfile(def->scale).default_delta;
  const double pass_wall = (def->end_hour - def->start_hour) * 3600.0 /
                           def->speedup;
  const int passes =
      trace == 1 ? 2
                 : std::max(1, static_cast<int>(std::floor(seconds /
                                                           pass_wall)));

  std::vector<double> setup_s, gen_s, warm_s;
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<Stack> first_stack;
  for (int i = 0; i < kMinSetups; ++i) {
    first_stack.reset();
    inputs.reset();
    const Clock::time_point t0 = Clock::now();
    double gen = 0.0;
    inputs = MakeInputs(*def, seed, &gen);
    const Clock::time_point t1 = Clock::now();
    first_stack = MakeStack(*def, *inputs, /*traced=*/false, wal_dir);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    gen_s.push_back(gen);
    warm_s.push_back(SecondsBetween(t0, t1) - gen);
    std::fprintf(stderr, "%s seed %llu: set-up %.3f s\n", def->name, seed,
                 setup_s.back());
  }

  std::vector<PassResult> results;
  SpanLog span_log;
  span_log.start_time = def->start_hour * 3600.0;
  span_log.delta = delta;
  Clock::time_point traced_t0;
  for (int i = 0; i < passes; ++i) {
    const bool traced = trace == 1 && i == passes - 1;
    g_span_log = traced ? &span_log : nullptr;
    std::unique_ptr<Stack> stack =
        i == 0 ? std::move(first_stack)
               : MakeStack(*def, *inputs, traced, wal_dir);
    results.push_back(RunPass(*inputs, *stack, traced));
    if (traced) traced_t0 = stack->pacer.t0;
    const PassResult& r = results.back();
    std::fprintf(stderr,
                 "%s seed %llu: pass %zu%s fingerprint %016" PRIx64
                 " windows %zu\n",
                 def->name, seed, results.size(), traced ? " (traced)" : "",
                 r.fingerprint, r.service_s.size());
  }
  g_span_log = nullptr;
  std::filesystem::remove_all(wal_dir);
  if (trace == 1) {
    const std::string spans_path = out_dir + "/spans-" + def->name +
                                   "-seed" + std::to_string(seed) + ".json";
    WriteSpans(spans_path, span_log, traced_t0);
    std::fprintf(stderr, "spans: %s\n", spans_path.c_str());
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"default_seed\": %" PRIu64
      ", \"pinned_fingerprint\": \"%016" PRIx64
      "\", \"speedup\": %.17g, \"delta_s\": %.17g, \"horizon_s\": %.17g, "
      "\"peak_rss_mb\": %.17g, ",
      def->name, seed, kDefaultSeed, def->pinned_fingerprint, def->speedup,
      delta, (def->end_hour - def->start_hour) * 3600.0, peak_rss_mb);
  PrintArray("setup_s", setup_s);
  std::printf(", ");
  PrintArray("gen_s", gen_s);
  std::printf(", ");
  PrintArray("warm_s", warm_s);
  std::printf(", \"passes\": [");
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i > 0) std::printf(", ");
    PrintPass(results[i]);
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace
}  // namespace fm::bench

int main(int argc, char** argv) { return fm::bench::Main(argc, argv); }
