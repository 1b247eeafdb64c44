// fmsim — command-line driver for the FoodMatch simulator.
//
// Runs one city/policy configuration end to end and prints the metrics;
// optionally dumps CSV traces and a GeoJSON of the network.
//
// Usage:
//   fmsim [--city=A|B|C|grubhub] [--scale=80] [--policy=foodmatch|greedy|
//          km|br|br-bfs|reyes] [--start=10] [--end=15] [--fleet=1.0] [--day=0]
//          [--delta=SECONDS] [--eta=SECONDS] [--gamma=0.5] [--k=0]
//          [--threads=N] [--shards=K] [--stream] [--intake-capacity=N]
//          [--no-prestage] [--no-incremental] [--verify-no-incremental]
//          [--wal-dir=PATH] [--snapshot-every=N] [--verify-restore]
//          [--profile] [--profile-out=PATH] [--trace-out=PATH]
//          [--trace-prefix=PATH] [--geojson=PATH] [--per-slot]
//
// With --scenario=NAME the tool switches to stress mode: a named scenario
// (src/stress/) deterministically generates a surge/burst/shift-churn event
// stream over the city, replays it through a dispatch core (synchronously,
// or through the streaming intake with --stream), and reports tail
// latencies plus the WindowResult fingerprint:
//   fmsim --scenario=NAME [--stress-seed=N] [--scenario-log=PATH]
//         [--producers=P] [--verify] [--city] [--scale] [--start] [--end]
//         [--day] [--delta] [--threads] [--shards] [--intake-capacity]
//         [--no-prestage] [--no-incremental] [--policy] [--k] [--stream]
//         [--trace-out]
//
// Any other flag is an error (exit 2) naming the flag; the accepted lists
// are in known_flags.h.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "foodmatch/foodmatch.h"
#include "known_flags.h"

namespace fm {
namespace {

// FNV-1a over everything deterministic in a SimulationResult — the same
// scheme (and the same field walk) as the engine-equivalence goldens in
// tests/dispatch_engine_test.cc, kept local because tools link only the
// library.
std::uint64_t HashBytes(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
std::uint64_t HashU64(std::uint64_t h, std::uint64_t v) {
  return HashBytes(h, &v, sizeof(v));
}
std::uint64_t HashDouble(std::uint64_t h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return HashU64(h, bits);
}

std::uint64_t FingerprintResult(const SimulationResult& r) {
  std::uint64_t h = 1469598103934665603ull;
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

// Stops the global tracer and writes its events as Chrome trace-event
// JSON. Returns false (after reporting) on IO error.
bool FinishTrace(const std::string& path) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Disable();
  const std::size_t events = tracer.SortedEvents().size();
  if (!tracer.WriteJson(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("trace json: %s (%zu events, %llu overwritten)\n", path.c_str(),
              events, static_cast<unsigned long long>(tracer.dropped()));
  return true;
}

void PrintUsage() {
  std::printf(
      "fmsim — FoodMatch delivery simulator\n\n"
      "  --city=A|B|C|grubhub   city profile (default A)\n"
      "  --scale=N              Table II scale divisor (default 80)\n"
      "  --policy=NAME          one of: %s (default foodmatch)\n",
      PolicyRegistry::Global().NamesString().c_str());
  std::printf(
      "  --start=H --end=H      order-intake horizon, hours (default 10..15)\n"
      "  --fleet=F              fleet fraction (default 1.0)\n"
      "  --day=N                workload day / fold (default 0)\n"
      "  --delta=S              accumulation window override, seconds\n"
      "  --eta=S                batching cutoff override, seconds\n"
      "  --gamma=G              angular weight override\n"
      "  --k=K                  fixed FOODGRAPH degree (0 = auto)\n"
      "  --threads=N            assignment-pipeline lanes (1 = serial,\n"
      "                         0 = hardware; results identical for any N)\n"
      "  --shards=K             region shards: K grid-partitioned dispatch\n"
      "                         engines behind one router (default 1; K=1\n"
      "                         is bit-identical to the unsharded engine;\n"
      "                         shard windows run in parallel on --threads)\n"
      "  --stream               route all engine events through the\n"
      "                         streaming intake (WindowExecutor over\n"
      "                         staging rings) — bit-identical results,\n"
      "                         exercises the serving event path end to end\n"
      "  --intake-capacity=N    staging-ring capacity with --stream\n"
      "                         (default 4096)\n"
      "  --no-prestage          disable producer-side order pre-routing\n"
      "                         with --stream\n"
      "  --no-incremental       start every window from a cold EdgeCache\n"
      "                         (results are bit-identical either way)\n"
      "  --verify-no-incremental\n"
      "                         run the day twice — persistent and cold\n"
      "                         EdgeCache — and fail unless the results\n"
      "                         are bit-identical (single engine only)\n"
      "  --wal-dir=PATH         per-shard write-ahead log + snapshots under\n"
      "                         PATH (forces the sharded core; K=1 is\n"
      "                         bit-identical to the plain engine)\n"
      "  --snapshot-every=N     snapshot cadence in closed windows\n"
      "                         (default 8; requires --wal-dir)\n"
      "  --verify-restore       kill shard 0 at the mid-run window, restore\n"
      "                         it from snapshot + WAL, and fail unless the\n"
      "                         finished run is bit-identical to an\n"
      "                         uninterrupted one (requires --wal-dir, no\n"
      "                         --stream)\n"
      "  --profile              print the per-phase wall-clock profile\n"
      "                         (batching sub-phases, graph, KM, rebuilds,\n"
      "                         warm-up), ranked by what remains serial\n"
      "  --profile-out=PATH     also write the profile as JSON\n"
      "  --trace-out=PATH       record spans (every profiled phase, window\n"
      "                         closes, shard fan-outs, order lifecycles)\n"
      "                         and write Chrome trace-event JSON — open in\n"
      "                         Perfetto (ui.perfetto.dev) or chrome://tracing\n"
      "  --trace-prefix=PATH    write PATH.windows.csv / PATH.assignments.csv\n"
      "  --geojson=PATH         write the road network as GeoJSON\n"
      "  --per-slot             print the per-timeslot breakdown\n"
      "  --scenario=NAME        stress mode: generate and replay a named\n"
      "                         stress scenario's event stream instead of\n"
      "                         simulating (see docs/STRESS.md)\n"
      "  --stress-seed=N        extra scenario-generator seed (default 0)\n"
      "  --scenario-log=PATH    write the generated stream as an event log\n"
      "  --producers=P          ingest threads with --scenario --stream\n"
      "  --verify               with --scenario: replay the same stream\n"
      "                         synchronously on a fresh core and require\n"
      "                         bit-identical window results\n"
      "  --help                 this text\n\n"
      "Any other flag is an error, and so is a day-replay flag (such as\n"
      "--profile) given with --scenario.\n");
}

// ---- Stress mode (--scenario) ----
//
// Replays a deterministic stress stream (stress/stress_gen.h) through a
// dispatch core — the serving-side event path, not the simulator, because
// the stream carries its own vehicle lifecycle (shift announcements, pings,
// retirements) that the simulator would otherwise synthesize itself.

struct StressCore {
  std::unique_ptr<AssignmentPolicy> policy;
  std::unique_ptr<DispatchEngine> engine;
  std::unique_ptr<GridRegionPartitioner> partitioner;
  std::unique_ptr<ShardedDispatchEngine> sharded;
  DispatchCore* core = nullptr;
};

StressCore MakeStressCore(const RoadNetwork& network,
                          const DistanceOracle& oracle, const Config& config,
                          const std::string& policy_name,
                          const PolicyOptions& policy_options) {
  StressCore bundle;
  DispatchEngineOptions engine_options;
  // Per-window decision wall-clock feeds the tail summary; --verify is safe
  // because fm::FingerprintWindowResults excludes decision_seconds.
  engine_options.measure_wall_clock = true;
  if (config.shards > 1) {
    bundle.partitioner =
        std::make_unique<GridRegionPartitioner>(&network, config.shards);
    ShardedEngineOptions sharded_options;
    sharded_options.engine = engine_options;
    bundle.sharded = std::make_unique<ShardedDispatchEngine>(
        bundle.partitioner.get(), policy_name, &oracle, config,
        policy_options, sharded_options);
    bundle.core = bundle.sharded.get();
  } else {
    bundle.policy = PolicyRegistry::Global().Create(policy_name, &oracle,
                                                    config, policy_options);
    bundle.engine = std::make_unique<DispatchEngine>(bundle.policy.get(),
                                                     config, engine_options);
    bundle.core = bundle.engine.get();
  }
  return bundle;
}

int RunScenario(const FlagParser& flags) {
  const std::string scenario_name = flags.GetString("scenario");
  if (!IsStressScenario(scenario_name)) {
    std::string joined;
    for (const std::string& name : StressScenarioNames()) {
      if (!joined.empty()) joined += ", ";
      joined += name;
    }
    std::fprintf(stderr, "unknown --scenario=%s (scenarios: %s)\n",
                 scenario_name.c_str(), joined.c_str());
    return 2;
  }

  const std::string city = flags.GetString("city", "A");
  const double scale = flags.GetDouble("scale", 80.0);
  const std::optional<CityProfile> city_profile =
      CityProfileByName(city, scale);
  if (!city_profile.has_value()) {
    std::fprintf(stderr, "unknown --city=%s (cities: %s)\n", city.c_str(),
                 kCityProfileNames);
    return 2;
  }
  const CityProfile& profile = *city_profile;

  StressGenOptions gen_options;
  gen_options.seed = static_cast<std::uint64_t>(flags.GetInt("stress-seed", 0));
  gen_options.start_time = flags.GetDouble("start", 10.0) * 3600.0;
  gen_options.end_time = flags.GetDouble("end", 15.0) * 3600.0;
  gen_options.day = static_cast<std::uint64_t>(flags.GetInt("day", 0));
  const StressWorkload stress = GenerateStressWorkload(
      profile, StressScenario(scenario_name), gen_options);

  std::printf(
      "scenario %s over %s (1/%.0f): %zu nodes, %zu events "
      "(%llu orders, %llu burst, %llu vehicle updates, %llu retirements)\n",
      scenario_name.c_str(), profile.name.c_str(), scale,
      stress.base.network.num_nodes(), stress.events.size(),
      static_cast<unsigned long long>(stress.order_events),
      static_cast<unsigned long long>(stress.burst_orders),
      static_cast<unsigned long long>(stress.vehicle_updates),
      static_cast<unsigned long long>(stress.retirements));

  const std::string scenario_log = flags.GetString("scenario-log");
  if (!scenario_log.empty()) {
    WriteEventLog(scenario_log, stress.events);
    std::printf("event log: %s (%zu events)\n", scenario_log.c_str(),
                stress.events.size());
  }

  Config config;
  config.accumulation_window =
      flags.GetDouble("delta", profile.default_delta);
  config.threads = flags.GetInt("threads", config.threads);
  config.shards = flags.GetInt("shards", config.shards);
  config.intake_queue_capacity =
      flags.GetInt("intake-capacity", config.intake_queue_capacity);
  if (flags.HasFlag("no-prestage")) config.intake_prestage = false;
  if (flags.HasFlag("no-incremental")) config.incremental_graph = false;
  config.Validate();

  const std::string policy_name = flags.GetString("policy", "foodmatch");
  if (!PolicyRegistry::Global().Contains(policy_name)) {
    std::fprintf(stderr, "unknown --policy=%s (registered: %s)\n",
                 policy_name.c_str(),
                 PolicyRegistry::Global().NamesString().c_str());
    return 2;
  }
  PolicyOptions policy_options;
  policy_options.fixed_k = flags.GetInt("k", 0);

  DistanceOracle oracle(&stress.base.network, OracleBackend::kHubLabels);
  {
    const int first = HourSlot(gen_options.start_time);
    const int last =
        std::min(kSlotsPerDay - 1, HourSlot(gen_options.end_time) + 2);
    ThreadPool warm_pool(ThreadPool::ResolveThreadCount(config.threads));
    oracle.WarmSlots(first, last, &warm_pool);
  }

  StressCore serving = MakeStressCore(stress.base.network, oracle, config,
                                      policy_name, policy_options);

  const Seconds start = gen_options.start_time;
  const Seconds end = gen_options.end_time;
  const Seconds delta = config.accumulation_window;
  const bool stream = flags.HasFlag("stream");

  const std::string trace_out = flags.GetString("trace-out");
  if (!trace_out.empty()) obs::Tracer::Global().Enable();

  StreamReplayStats stats;
  std::vector<WindowResult> results;
  if (stream) {
    StreamReplayOptions stream_options;
    stream_options.producers = flags.GetInt("producers", 1);
    stream_options.stages = config.shards;
    stream_options.queue_capacity =
        static_cast<std::size_t>(config.intake_queue_capacity);
    stream_options.prestage = config.intake_prestage;
    stream_options.oracle = &oracle;
    if (serving.sharded != nullptr) {
      stream_options.router =
          MakeRegionStageRouter(&serving.sharded->partitioner());
    }
    stream_options.stats = &stats;
    results = StreamReplay(*serving.core, stress.events, start, end, delta,
                           stream_options);
  } else {
    VectorEventSource source(stress.events);
    results = ReplayEventStream(*serving.core, source, start, end, delta);
  }
  const std::uint64_t fingerprint = FingerprintWindowResults(results);

  LatencyRecorder recorder;
  recorder.RecordWindows(results);
  recorder.RecordOrderLatencies(stats.order_latency_seconds);
  const TailSummary decision_tails = recorder.DecisionTails();

  std::printf("windows=%zu decision p50=%.1f ms p95=%.1f ms p99=%.1f ms "
              "p99.9=%.1f ms max=%.1f ms\n",
              results.size(), decision_tails.p50 * 1e3,
              decision_tails.p95 * 1e3, decision_tails.p99 * 1e3,
              decision_tails.p999 * 1e3, decision_tails.max * 1e3);
  if (stream) {
    const TailSummary order_tails = recorder.OrderTails();
    std::printf(
        "intake→decision p50=%.1f ms p95=%.1f ms p99=%.1f ms p99.9=%.1f ms; "
        "blocked=%llu\n",
        order_tails.p50 * 1e3, order_tails.p95 * 1e3, order_tails.p99 * 1e3,
        order_tails.p999 * 1e3,
        static_cast<unsigned long long>(stats.blocked_pushes));
  }
  if (serving.sharded != nullptr) {
    std::printf("shards=%d routed_orders=%llu migrations=%llu\n",
                config.shards,
                static_cast<unsigned long long>(
                    serving.sharded->routed_orders()),
                static_cast<unsigned long long>(
                    serving.sharded->migrations()));
  }
  std::printf("window-results fingerprint: %016llx\n",
              static_cast<unsigned long long>(fingerprint));

  // Stop tracing before the verify replay so the trace covers exactly the
  // measured run.
  if (!trace_out.empty() && !FinishTrace(trace_out)) return 1;

  if (flags.HasFlag("verify")) {
    StressCore batch = MakeStressCore(stress.base.network, oracle, config,
                                      policy_name, policy_options);
    VectorEventSource source(stress.events);
    const std::vector<WindowResult> batch_results =
        ReplayEventStream(*batch.core, source, start, end, delta);
    const std::uint64_t batch_fingerprint =
        FingerprintWindowResults(batch_results);
    if (batch_fingerprint != fingerprint) {
      std::fprintf(stderr,
                   "VERIFY FAILED: replay fingerprint %016llx != fresh "
                   "synchronous %016llx\n",
                   static_cast<unsigned long long>(fingerprint),
                   static_cast<unsigned long long>(batch_fingerprint));
      return 1;
    }
    std::printf("verify: replay == fresh synchronous (%016llx)\n",
                static_cast<unsigned long long>(fingerprint));
  }
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return 2;
  }
  const bool scenario = flags.HasFlag("scenario");
  if (!flags.CheckKnown(
          scenario ? std::span<const std::string_view>(kFmsimScenarioFlags)
                   : std::span<const std::string_view>(kFmsimFlags))) {
    std::fprintf(stderr, "error: %s%s (see --help)\n", flags.error().c_str(),
                 scenario ? " with --scenario" : "");
    return 2;
  }
  if (flags.HasFlag("help")) {
    PrintUsage();
    return 0;
  }
  if (scenario) return RunScenario(flags);

  const std::string city = flags.GetString("city", "A");
  const double scale = flags.GetDouble("scale", 80.0);
  const std::optional<CityProfile> city_profile =
      CityProfileByName(city, scale);
  if (!city_profile.has_value()) {
    std::fprintf(stderr, "unknown --city=%s (cities: %s)\n", city.c_str(),
                 kCityProfileNames);
    return 2;
  }
  const CityProfile& profile = *city_profile;

  WorkloadOptions options;
  options.start_time = flags.GetDouble("start", 10.0) * 3600.0;
  options.end_time = flags.GetDouble("end", 15.0) * 3600.0;
  options.day = static_cast<std::uint64_t>(flags.GetInt("day", 0));
  const Workload workload = GenerateWorkload(profile, options);

  Config config;
  config.accumulation_window =
      flags.GetDouble("delta", profile.default_delta);
  config.batching_cutoff = flags.GetDouble("eta", config.batching_cutoff);
  config.gamma = flags.GetDouble("gamma", config.gamma);
  config.threads = flags.GetInt("threads", config.threads);
  config.shards = flags.GetInt("shards", config.shards);
  config.intake_queue_capacity =
      flags.GetInt("intake-capacity", config.intake_queue_capacity);
  if (flags.HasFlag("no-prestage")) config.intake_prestage = false;
  if (flags.HasFlag("no-incremental")) config.incremental_graph = false;
  config.snapshot_every_windows =
      flags.GetInt("snapshot-every", config.snapshot_every_windows);
  config.Validate();

  const std::string wal_dir = flags.GetString("wal-dir");
  const bool verify_restore = flags.HasFlag("verify-restore");
  if (verify_restore && (wal_dir.empty() || flags.HasFlag("stream"))) {
    std::fprintf(stderr,
                 "--verify-restore requires --wal-dir and no --stream\n");
    return 2;
  }
  if (flags.HasFlag("snapshot-every") && wal_dir.empty()) {
    std::fprintf(stderr, "--snapshot-every requires --wal-dir\n");
    return 2;
  }

  // --verify-no-incremental reruns the whole day with the persistent
  // EdgeCache toggled (on: kept across windows; off: cold every window) and
  // insists on a bit-identical SimulationResult. Only meaningful on the
  // classic single-engine path: sharded/streaming runs are gated by their
  // own equivalence machinery.
  const bool verify_no_incremental = flags.HasFlag("verify-no-incremental");
  if (verify_no_incremental &&
      (config.shards > 1 || flags.HasFlag("stream"))) {
    std::fprintf(stderr,
                 "--verify-no-incremental requires --shards=1 and no "
                 "--stream\n");
    return 2;
  }

  // Warm the hub-label slots over the simulated horizon before any policy
  // queries them (lock-free hot path). Per-slot builds are independent, so
  // the warm-up shards across --threads lanes via a scoped pool (the policy
  // and simulator spawn their own workers afterwards); the warmed indices
  // are identical for any lane count. --profile records the phase.
  PhaseProfile warm_profile;
  DistanceOracle oracle(&workload.network, OracleBackend::kHubLabels);
  {
    const int first = HourSlot(options.start_time);
    const int last =
        std::min(kSlotsPerDay - 1, HourSlot(options.end_time) + 2);
    const auto warm_t0 = std::chrono::steady_clock::now();
    // A 1-lane pool spawns no workers and runs inline, so no serial branch.
    ThreadPool warm_pool(ThreadPool::ResolveThreadCount(config.threads));
    oracle.WarmSlots(first, last, &warm_pool);
    warm_profile.Record(
        "oracle.warm",
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      warm_t0)
            .count());
  }

  // Policies are constructed exclusively through the registry; --policy
  // accepts any registered name. With --shards>1 the sharded engine builds
  // one policy per shard itself, so only the name is validated here.
  const std::string policy_name = flags.GetString("policy", "foodmatch");
  PolicyOptions policy_options;
  policy_options.fixed_k = flags.GetInt("k", 0);
  if (!PolicyRegistry::Global().Contains(policy_name)) {
    std::fprintf(stderr, "unknown --policy=%s (registered: %s)\n",
                 policy_name.c_str(),
                 PolicyRegistry::Global().NamesString().c_str());
    return 2;
  }
  // Durability lives in the sharded serving layer, so --wal-dir forces the
  // sharded core even at K=1 (proven bit-identical to the plain engine).
  const bool use_sharded = config.shards > 1 || !wal_dir.empty();
  std::unique_ptr<AssignmentPolicy> policy;
  if (!use_sharded) {
    policy = PolicyRegistry::Global().Create(policy_name, &oracle, config,
                                             policy_options);
  }

  SimulationInput input;
  input.network = &workload.network;
  input.oracle = &oracle;
  input.config = config;
  input.fleet = SubsampleFleet(workload.fleet, flags.GetDouble("fleet", 1.0));
  input.orders = workload.orders;
  input.start_time = options.start_time;
  input.end_time = options.end_time;
  // Synthetic (zero) decision times keep window overflow accounting
  // identical across the two verification runs.
  if (verify_no_incremental || verify_restore) {
    input.measure_wall_clock = false;
  }
  SimulationInput verify_input;
  if (verify_no_incremental) verify_input = input;
  SimulationInput golden_input;
  if (verify_restore) golden_input = input;

  std::printf(
      "%s (1/%.0f): %zu nodes, %zu orders, %zu vehicles, policy=%s, "
      "shards=%d\n",
      profile.name.c_str(), scale, workload.network.num_nodes(),
      workload.orders.size(), input.fleet.size(),
      policy != nullptr ? policy->name().c_str() : policy_name.c_str(),
      config.shards);

  // --shards=K routes the replay through a ShardedDispatchEngine: K
  // grid-partitioned engines (each building its own policy by name through
  // the registry), windows fanned out across --threads lanes, results
  // merged in shard order. K=1 keeps the classic single-engine path.
  const bool want_profile =
      flags.HasFlag("profile") || flags.HasFlag("profile-out");
  // --stream interposes a WindowExecutor between the simulator and the
  // core: every event takes the staging-ring + drain-sort path a live
  // gateway uses (core/window_executor.h). The executor's decorator stamps
  // preserve submission order, so results stay bit-identical — this mode
  // exists to exercise (and profile: intake.*) the serving event path
  // inside the full simulator.
  const bool stream = flags.HasFlag("stream");
  PhaseProfile serving_profile;
  std::unique_ptr<GridRegionPartitioner> partitioner;
  std::unique_ptr<ShardedDispatchEngine> sharded;
  std::unique_ptr<DispatchEngine> engine;
  std::unique_ptr<WindowExecutor> executor;
  std::unique_ptr<Simulator> sim;
  WindowExecutorOptions executor_options;
  executor_options.queue_capacity =
      static_cast<std::size_t>(config.intake_queue_capacity);
  executor_options.prestage = config.intake_prestage;
  executor_options.oracle = &oracle;
  executor_options.profile = want_profile ? &serving_profile : nullptr;
  if (use_sharded) {
    // (An undersized fleet — fewer vehicles than shards — is warned about
    // by the sharded engine itself at the first window.)
    partitioner = std::make_unique<GridRegionPartitioner>(&workload.network,
                                                          config.shards);
    ShardedEngineOptions sharded_options;
    sharded_options.profile = want_profile ? &serving_profile : nullptr;
    if (!wal_dir.empty()) {
      sharded_options.durability.dir = wal_dir;
      sharded_options.durability.snapshot_every_windows =
          config.snapshot_every_windows;
    }
    sharded = std::make_unique<ShardedDispatchEngine>(
        partitioner.get(), policy_name, &oracle, config, policy_options,
        sharded_options);
    if (verify_restore) {
      // Kill + restore shard 0 once, at the first window past the midpoint
      // of the intake horizon — a quiescent point (after_window).
      const Seconds mid = (options.start_time + options.end_time) / 2.0;
      ShardedDispatchEngine* core = sharded.get();
      input.after_window = [core, mid, restored = false](
                               Seconds now, std::uint64_t) mutable {
        if (restored || now < mid) return;
        restored = true;
        const RecoveryReport report = core->RestoreShard(0);
        std::printf(
            "restore: shard 0 at t=%.0f — snapshot %s (%llu windows), "
            "%llu/%llu records replayed, %llu windows replayed, "
            "state fingerprint %016llx\n",
            now, report.snapshot_loaded ? "loaded" : "absent",
            static_cast<unsigned long long>(report.snapshot_windows),
            static_cast<unsigned long long>(report.records_replayed),
            static_cast<unsigned long long>(report.records_valid),
            static_cast<unsigned long long>(report.windows_replayed),
            static_cast<unsigned long long>(report.state_fingerprint));
      };
    }
    if (stream) {
      executor_options.stages = config.shards;
      executor_options.router = MakeRegionStageRouter(partitioner.get());
      executor =
          std::make_unique<WindowExecutor>(sharded.get(), executor_options);
      sim = std::make_unique<Simulator>(std::move(input), executor.get());
    } else {
      sim = std::make_unique<Simulator>(std::move(input), sharded.get());
    }
  } else if (stream) {
    engine = std::make_unique<DispatchEngine>(policy.get(), config,
                                              DispatchEngineOptions{});
    executor = std::make_unique<WindowExecutor>(engine.get(), executor_options);
    sim = std::make_unique<Simulator>(std::move(input), executor.get());
  } else {
    sim = std::make_unique<Simulator>(std::move(input), policy.get());
  }
  TraceRecorder recorder;
  const std::string trace_prefix = flags.GetString("trace-prefix");
  if (!trace_prefix.empty()) {
    sim->set_window_observer(recorder.MakeObserver());
  }
  const std::string trace_out = flags.GetString("trace-out");
  if (!trace_out.empty()) obs::Tracer::Global().Enable();
  const SimulationResult result = sim->Run();

  std::printf("%s\n", result.metrics.Summary().c_str());

  // Stop tracing before any verify rerun so the trace covers exactly the
  // measured simulation.
  if (!trace_out.empty() && !FinishTrace(trace_out)) return 1;

  if (verify_restore) {
    // Golden: the same sharded configuration, uninterrupted and with
    // durability off — the restore run above must be bit-identical.
    GridRegionPartitioner golden_partitioner(&workload.network,
                                             config.shards);
    ShardedDispatchEngine golden_core(&golden_partitioner, policy_name,
                                      &oracle, config, policy_options,
                                      ShardedEngineOptions{});
    Simulator golden_sim(std::move(golden_input), &golden_core);
    const std::uint64_t got = FingerprintResult(result);
    const std::uint64_t want = FingerprintResult(golden_sim.Run());
    if (got != want) {
      std::fprintf(stderr,
                   "VERIFY FAILED: killed+restored run fingerprint %016llx "
                   "!= uninterrupted fingerprint %016llx\n",
                   static_cast<unsigned long long>(got),
                   static_cast<unsigned long long>(want));
      return 1;
    }
    std::printf("verify: killed+restored == uninterrupted (%016llx)\n",
                static_cast<unsigned long long>(got));
  }

  if (verify_no_incremental) {
    Config alt_config = config;
    alt_config.incremental_graph = !config.incremental_graph;
    std::unique_ptr<AssignmentPolicy> alt_policy =
        PolicyRegistry::Global().Create(policy_name, &oracle, alt_config,
                                        policy_options);
    verify_input.config = alt_config;
    Simulator alt_sim(std::move(verify_input), alt_policy.get());
    const std::uint64_t got = FingerprintResult(result);
    const std::uint64_t want = FingerprintResult(alt_sim.Run());
    if (got != want) {
      std::fprintf(stderr,
                   "VERIFY FAILED: incremental_graph=%s fingerprint %016llx "
                   "!= incremental_graph=%s fingerprint %016llx\n",
                   config.incremental_graph ? "on" : "off",
                   static_cast<unsigned long long>(got),
                   config.incremental_graph ? "off" : "on",
                   static_cast<unsigned long long>(want));
      return 1;
    }
    std::printf("verify: persistent == cold EdgeCache (%016llx)\n",
                static_cast<unsigned long long>(got));
  }

  if (want_profile) {
    // Simulation phases plus the pre-run warm-up (and, with --shards>1, the
    // serving router's route/shard_window/merge phases), ranked by total
    // seconds — the serial remainder rises to the top as --threads grows.
    PhaseProfile profile = warm_profile;
    profile.Merge(result.metrics.phases);
    profile.Merge(serving_profile);
    if (flags.HasFlag("profile")) {
      std::printf("\nper-phase wall-clock profile (threads=%d):\n%s",
                  config.threads, profile.FormatTable().c_str());
    }
    const std::string profile_out = flags.GetString("profile-out");
    if (!profile_out.empty()) {
      std::FILE* f = std::fopen(profile_out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "failed to write %s\n", profile_out.c_str());
        return 1;
      }
      std::fprintf(f,
                   "{\n"
                   "  \"schema\": \"foodmatch-fmsim-profile-v1\",\n"
                   "  \"threads\": %d,\n"
                   "  \"breakdown\": %s\n"
                   "}\n",
                   config.threads, profile.ToJson(2).c_str());
      std::fclose(f);
      std::printf("profile json: %s\n", profile_out.c_str());
    }
  }

  if (flags.GetBool("per-slot")) {
    std::printf("\nslot  placed  delivered  XDT(h)  WT(h)  O/Km\n");
    for (int s = 0; s < kSlotsPerDay; ++s) {
      const SlotMetrics& m = result.metrics.per_slot[s];
      if (m.orders_placed == 0 && m.distance_m == 0) continue;
      std::printf("%4d  %6llu  %9llu  %6.2f  %5.2f  %5.3f\n", s,
                  static_cast<unsigned long long>(m.orders_placed),
                  static_cast<unsigned long long>(m.orders_delivered),
                  m.xdt_seconds / 3600.0, m.wait_seconds / 3600.0,
                  result.metrics.SlotOrdersPerKm(s));
    }
  }

  if (!trace_prefix.empty()) {
    recorder.WriteWindowsCsv(trace_prefix + ".windows.csv");
    recorder.WriteAssignmentsCsv(trace_prefix + ".assignments.csv");
    std::printf("traces: %s.windows.csv, %s.assignments.csv\n",
                trace_prefix.c_str(), trace_prefix.c_str());
  }
  const std::string geojson = flags.GetString("geojson");
  if (!geojson.empty()) {
    WriteGeoJsonFile(geojson, NetworkToGeoJson(workload.network));
    std::printf("network geojson: %s\n", geojson.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace fm

int main(int argc, char** argv) { return fm::Main(argc, argv); }
