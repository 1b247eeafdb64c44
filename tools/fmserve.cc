// fmserve — streaming serving driver for the dispatch engine.
//
// Where fmsim replays a recorded day synchronously through the full
// simulator (kinematics, metrics), fmserve exercises the *serving* shape of
// the system: producer threads push a timestamped event log through the
// lock-free intake stages (core/intake_stage.h) while the consumer closes
// accumulation windows behind a WindowExecutor — optionally over a
// region-sharded core. It reports the numbers a capacity planner wants:
// sustained orders/second through intake, intake→decision latency
// percentiles, and backpressure counts.
//
// The stream is the canonical static-fleet batch-replay stream (every
// vehicle announced at start, one OrderPlaced per order) — either
// synthesized from a generated city workload, read back from an event log
// written by --write-log (serving/event_log.h), or generated by a named
// stress scenario (--scenario, src/stress/) with demand surges, flash
// crowds, and vehicle shift churn folded into the stream. --verify replays
// the same stream synchronously on a fresh core and insists the
// WindowResult fingerprints match bit-for-bit.
//
// Usage:
//   fmserve [--city=A|B|C|grubhub] [--scale=80] [--policy=NAME]
//           [--start=10] [--end=15] [--fleet=1.0] [--day=0] [--delta=S]
//           [--scenario=NAME] [--stress-seed=N]
//           [--threads=N] [--shards=K] [--producers=P]
//           [--intake-capacity=N] [--no-prestage] [--no-incremental]
//           [--speedup=S] [--wal-dir=PATH] [--snapshot-every=N] [--restore]
//           [--log=PATH] [--write-log=PATH] [--out=PATH] [--profile]
//           [--trace-out=PATH] [--metrics-out=PATH] [--metrics-every=S]
//           [--verify]
//
// Any other flag is an error (exit 2) naming the flag.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "foodmatch/foodmatch.h"
#include "known_flags.h"

namespace fm {
namespace {

std::string JoinedScenarioNames() {
  std::string joined;
  for (const std::string& name : StressScenarioNames()) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

void PrintUsage() {
  std::printf(
      "fmserve — FoodMatch streaming intake driver\n\n"
      "  --city=A|B|C|grubhub   city profile (default A)\n"
      "  --scale=N              Table II scale divisor (default 80)\n"
      "  --policy=NAME          one of: %s (default foodmatch)\n",
      PolicyRegistry::Global().NamesString().c_str());
  std::printf(
      "  --start=H --end=H      order-intake horizon, hours (default 10..15)\n"
      "  --fleet=F              fleet fraction (default 1.0; ignored under\n"
      "                         --scenario, whose shift plan owns the fleet)\n"
      "  --day=N                workload day / fold (default 0)\n"
      "  --delta=S              accumulation window override, seconds\n"
      "  --scenario=NAME        stress scenario overlaying the city profile\n"
      "                         (%s);\n"
      "                         replaces the synthesized stream with the\n"
      "                         scenario's surge/burst/shift event stream\n"
      "  --stress-seed=N        extra seed folded into the scenario\n"
      "                         generator (default 0)\n",
      JoinedScenarioNames().c_str());
  std::printf(
      "  --threads=N            assignment-pipeline lanes per window\n"
      "  --shards=K             region shards (one intake stage per shard)\n"
      "  --producers=P          ingest threads pushing the event stream\n"
      "                         (default 1; results identical for any P)\n"
      "  --intake-capacity=N    per-stage staging-ring capacity (default\n"
      "                         4096; full rings backpressure, never drop)\n"
      "  --no-prestage          disable producer-side order pre-routing\n"
      "  --no-incremental       start every window from a cold EdgeCache\n"
      "  --speedup=S            replay pacing: S event-seconds per\n"
      "                         wall-second (1 = real time; default 0 =\n"
      "                         flat out, the throughput mode)\n"
      "  --wal-dir=PATH         per-shard write-ahead log + snapshots under\n"
      "                         PATH (forces the sharded core; K=1 is\n"
      "                         bit-identical to the plain engine)\n"
      "  --snapshot-every=N     snapshot cadence in closed windows\n"
      "                         (default 8; requires --wal-dir)\n"
      "  --restore              kill shard 0 at the mid-stream window and\n"
      "                         restore it from snapshot + WAL while the\n"
      "                         other shards keep serving (requires\n"
      "                         --wal-dir; pair with --verify to prove the\n"
      "                         restored run bit-identical)\n"
      "  --log=PATH             replay this event log instead of\n"
      "                         synthesizing the stream (ids must match the\n"
      "                         generated city — pair with --write-log)\n"
      "  --write-log=PATH       write the replayed stream as an event log\n"
      "  --out=PATH             write the serving report as JSON\n"
      "  --profile              print the per-phase profile (intake.absorb /\n"
      "                         intake.prestage / intake.drain + core)\n"
      "  --trace-out=PATH       record spans (every profiled phase, window\n"
      "                         closes, shard fan-outs, order lifecycles)\n"
      "                         and write Chrome trace-event JSON — open in\n"
      "                         Perfetto (ui.perfetto.dev)\n"
      "  --metrics-out=PATH     live telemetry: register the full metrics\n"
      "                         set (docs/OBSERVABILITY.md) and append one\n"
      "                         JSONL registry snapshot per cadence tick\n"
      "  --metrics-every=S      telemetry cadence in wall seconds (default\n"
      "                         5.0; 0 samples at every window close)\n"
      "  --verify               also replay synchronously on a fresh core\n"
      "                         and require bit-identical window results\n"
      "  --help                 this text\n");
}

// A dispatch core plus everything that must stay alive behind it.
struct CoreBundle {
  std::unique_ptr<AssignmentPolicy> policy;
  std::unique_ptr<DispatchEngine> engine;
  std::unique_ptr<GridRegionPartitioner> partitioner;
  std::unique_ptr<ShardedDispatchEngine> sharded;
  DispatchCore* core = nullptr;
};

// `metrics` (nullable) reaches the sharded router, which registers the
// serving/WAL/oracle/EdgeCache instrument set; the intake/executor/core set
// is registered by the WindowExecutor via StreamReplayOptions::metrics.
// Verify cores must pass null — a registry rejects duplicate names.
CoreBundle MakeCore(const RoadNetwork& network, const DistanceOracle& oracle,
                    const Config& config, const std::string& policy_name,
                    const PolicyOptions& policy_options,
                    const std::string& wal_dir = "",
                    obs::MetricsRegistry* metrics = nullptr) {
  CoreBundle bundle;
  DispatchEngineOptions engine_options;
  // Per-window decision wall-clock feeds the tail summary; safe under
  // --verify because fm::FingerprintWindowResults excludes decision_seconds.
  engine_options.measure_wall_clock = true;
  // Durability lives in the sharded serving layer, so --wal-dir forces the
  // sharded core even at K=1 (bit-identical to the plain engine).
  if (config.shards > 1 || !wal_dir.empty()) {
    bundle.partitioner =
        std::make_unique<GridRegionPartitioner>(&network, config.shards);
    ShardedEngineOptions sharded_options;
    sharded_options.engine = engine_options;
    sharded_options.metrics = metrics;
    if (!wal_dir.empty()) {
      sharded_options.durability.dir = wal_dir;
      sharded_options.durability.snapshot_every_windows =
          config.snapshot_every_windows;
    }
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

int Main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv) || !flags.CheckKnown(kFmserveFlags)) {
    std::fprintf(stderr, "error: %s (see --help)\n", flags.error().c_str());
    return 2;
  }
  if (flags.HasFlag("help")) {
    PrintUsage();
    return 0;
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

  const std::string scenario_name = flags.GetString("scenario");
  if (!scenario_name.empty() && !IsStressScenario(scenario_name)) {
    std::fprintf(stderr, "unknown --scenario=%s (scenarios: %s)\n",
                 scenario_name.c_str(), JoinedScenarioNames().c_str());
    return 2;
  }

  WorkloadOptions options;
  options.start_time = flags.GetDouble("start", 10.0) * 3600.0;
  options.end_time = flags.GetDouble("end", 15.0) * 3600.0;
  options.day = static_cast<std::uint64_t>(flags.GetInt("day", 0));

  Workload workload;
  std::vector<StampedEvent> stress_events;
  if (scenario_name.empty()) {
    workload = GenerateWorkload(profile, options);
  } else {
    StressGenOptions stress_options;
    stress_options.seed =
        static_cast<std::uint64_t>(flags.GetInt("stress-seed", 0));
    stress_options.start_time = options.start_time;
    stress_options.end_time = options.end_time;
    stress_options.day = options.day;
    StressWorkload stress = GenerateStressWorkload(
        profile, StressScenario(scenario_name), stress_options);
    std::printf(
        "scenario %s: %llu order events (%llu burst), %llu vehicle "
        "updates, %llu retirements\n",
        scenario_name.c_str(),
        static_cast<unsigned long long>(stress.order_events),
        static_cast<unsigned long long>(stress.burst_orders),
        static_cast<unsigned long long>(stress.vehicle_updates),
        static_cast<unsigned long long>(stress.retirements));
    workload = std::move(stress.base);
    stress_events = std::move(stress.events);
  }

  Config config;
  config.accumulation_window = flags.GetDouble("delta", profile.default_delta);
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
  const bool restore = flags.HasFlag("restore");
  if (restore && wal_dir.empty()) {
    std::fprintf(stderr, "--restore requires --wal-dir\n");
    return 2;
  }
  if (flags.HasFlag("snapshot-every") && wal_dir.empty()) {
    std::fprintf(stderr, "--snapshot-every requires --wal-dir\n");
    return 2;
  }

  const std::string policy_name = flags.GetString("policy", "foodmatch");
  if (!PolicyRegistry::Global().Contains(policy_name)) {
    std::fprintf(stderr, "unknown --policy=%s (registered: %s)\n",
                 policy_name.c_str(),
                 PolicyRegistry::Global().NamesString().c_str());
    return 2;
  }
  PolicyOptions policy_options;
  policy_options.fixed_k = flags.GetInt("k", 0);

  // Warm the hub-label slots over the horizon before serving, exactly as
  // fmsim does — intake prestaging keeps them warm afterwards.
  PhaseProfile profile_sink;
  DistanceOracle oracle(&workload.network, OracleBackend::kHubLabels);
  {
    const int first = HourSlot(options.start_time);
    const int last = std::min(kSlotsPerDay - 1, HourSlot(options.end_time) + 2);
    const auto warm_t0 = std::chrono::steady_clock::now();
    ThreadPool warm_pool(ThreadPool::ResolveThreadCount(config.threads));
    oracle.WarmSlots(first, last, &warm_pool);
    profile_sink.Record(
        "oracle.warm",
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      warm_t0)
            .count());
  }

  const std::vector<Vehicle> fleet =
      scenario_name.empty()
          ? SubsampleFleet(workload.fleet, flags.GetDouble("fleet", 1.0))
          : workload.fleet;
  const Seconds start = options.start_time;
  const Seconds end = options.end_time;
  const Seconds delta = config.accumulation_window;

  const std::string log_path = flags.GetString("log");
  if (!log_path.empty() && !scenario_name.empty()) {
    std::fprintf(stderr,
                 "--log and --scenario both name a stream; pick one\n");
    return 2;
  }
  std::vector<StampedEvent> events =
      !scenario_name.empty() ? std::move(stress_events)
      : log_path.empty()
          ? MakeBatchReplayEvents(fleet, workload.orders, start)
          : ReadEventLog(log_path);
  const std::string write_log = flags.GetString("write-log");
  if (!write_log.empty()) {
    WriteEventLog(write_log, events);
    std::printf("event log: %s (%zu events)\n", write_log.c_str(),
                events.size());
  }

  const bool want_profile = flags.HasFlag("profile");
  const int producers = flags.GetInt("producers", 1);

  // Observability: --metrics-out builds one registry for the serving run
  // (the verify core below deliberately gets none) and tails it to JSONL;
  // --trace-out records spans + order lifecycles for Perfetto.
  const std::string metrics_out = flags.GetString("metrics-out");
  const double metrics_every = flags.GetDouble("metrics-every", 5.0);
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics = metrics_out.empty() ? nullptr : &registry;

  CoreBundle serving = MakeCore(workload.network, oracle, config, policy_name,
                                policy_options, wal_dir, metrics);

  StreamReplayStats stats;
  StreamReplayOptions stream_options;
  stream_options.producers = producers;
  stream_options.stages = config.shards;
  stream_options.queue_capacity =
      static_cast<std::size_t>(config.intake_queue_capacity);
  stream_options.prestage = config.intake_prestage;
  stream_options.oracle = &oracle;
  if (serving.sharded != nullptr) {
    stream_options.router = MakeRegionStageRouter(&serving.sharded->partitioner());
  }
  stream_options.profile = want_profile ? &profile_sink : nullptr;
  stream_options.metrics = metrics;
  stream_options.speedup = flags.GetDouble("speedup", 0.0);
  stream_options.stats = &stats;
  if (restore) {
    // Kill + restore shard 0 once, at the first window past the midpoint of
    // the stream. The callback runs on the consumer thread after the close
    // — the core is quiescent there, and the other shards' engines are
    // untouched (they keep serving from their own WALs).
    const Seconds mid = (start + end) / 2.0;
    ShardedDispatchEngine* core = serving.sharded.get();
    stream_options.on_window_closed = [core, mid, restored = false](
                                          Seconds now, std::size_t) mutable {
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

  // Telemetry samples ride the consumer thread's window-close callback,
  // composing with (after) the restore hook when both are set. The logger's
  // destructor writes one final line, so even a short run yields a sample.
  std::unique_ptr<obs::TelemetryLogger> telemetry;
  if (metrics != nullptr) {
    telemetry = std::make_unique<obs::TelemetryLogger>(metrics_out, metrics,
                                                       metrics_every);
    if (!telemetry->ok()) {
      std::fprintf(stderr, "failed to write %s\n", metrics_out.c_str());
      return 1;
    }
    stream_options.on_window_closed =
        [logger = telemetry.get(),
         inner = std::move(stream_options.on_window_closed)](
            Seconds now, std::size_t window) {
          if (inner) inner(now, window);
          logger->MaybeSample();
        };
  }

  const std::string trace_out = flags.GetString("trace-out");
  if (!trace_out.empty()) obs::Tracer::Global().Enable();

  std::printf(
      "%s (1/%.0f): %zu nodes, %zu events, %zu vehicles, policy=%s, "
      "shards=%d, producers=%d, capacity=%d, prestage=%s, speedup=%s\n",
      profile.name.c_str(), scale, workload.network.num_nodes(),
      events.size(), fleet.size(), policy_name.c_str(), config.shards,
      producers, config.intake_queue_capacity,
      config.intake_prestage ? "on" : "off",
      stream_options.speedup > 0.0 ? "throttled" : "max");

  const std::vector<WindowResult> results =
      StreamReplay(*serving.core, events, start, end, delta, stream_options);
  const std::uint64_t fingerprint = FingerprintWindowResults(results);

  LatencyRecorder recorder;
  recorder.RecordWindows(results);
  recorder.RecordOrderLatencies(stats.order_latency_seconds);
  const TailSummary order_tails = recorder.OrderTails();
  const TailSummary decision_tails = recorder.DecisionTails();
  const double orders_per_second =
      stats.wall_seconds > 0.0
          ? static_cast<double>(stats.orders_submitted) / stats.wall_seconds
          : 0.0;

  std::printf(
      "windows=%zu orders=%llu events=%llu dropped=%llu blocked=%llu\n",
      results.size(),
      static_cast<unsigned long long>(stats.orders_submitted),
      static_cast<unsigned long long>(stats.events_submitted),
      static_cast<unsigned long long>(stats.dropped_invalid),
      static_cast<unsigned long long>(stats.blocked_pushes));
  std::printf(
      "sustained %.0f orders/s over %.3f s; intake→decision latency "
      "p50=%.1f ms p95=%.1f ms p99=%.1f ms p99.9=%.1f ms\n",
      orders_per_second, stats.wall_seconds, order_tails.p50 * 1e3,
      order_tails.p95 * 1e3, order_tails.p99 * 1e3, order_tails.p999 * 1e3);
  std::printf(
      "window decision time p50=%.1f ms p95=%.1f ms p99=%.1f ms "
      "p99.9=%.1f ms max=%.1f ms\n",
      decision_tails.p50 * 1e3, decision_tails.p95 * 1e3,
      decision_tails.p99 * 1e3, decision_tails.p999 * 1e3,
      decision_tails.max * 1e3);
  std::printf("window-results fingerprint: %016llx\n",
              static_cast<unsigned long long>(fingerprint));

  // Close the observability outputs before the verify replay: the trace
  // and the telemetry tail should cover exactly the serving run.
  if (telemetry != nullptr) {
    const std::uint64_t samples = telemetry->samples() + 1;  // +1: final line
    telemetry.reset();
    std::printf("telemetry jsonl: %s (%llu samples, every %.1f s)\n",
                metrics_out.c_str(),
                static_cast<unsigned long long>(samples), metrics_every);
  }
  if (!trace_out.empty()) {
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Disable();
    const std::size_t trace_events = tracer.SortedEvents().size();
    if (!tracer.WriteJson(trace_out)) {
      std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("trace json: %s (%zu events, %llu overwritten)\n",
                trace_out.c_str(), trace_events,
                static_cast<unsigned long long>(tracer.dropped()));
  }

  if (flags.HasFlag("verify")) {
    CoreBundle batch = MakeCore(workload.network, oracle, config, policy_name,
                                policy_options);
    VectorEventSource source(events);
    const std::vector<WindowResult> batch_results =
        ReplayEventStream(*batch.core, source, start, end, delta);
    const std::uint64_t batch_fingerprint =
        FingerprintWindowResults(batch_results);
    if (batch_fingerprint != fingerprint) {
      std::fprintf(stderr,
                   "VERIFY FAILED: streaming fingerprint %016llx != "
                   "synchronous %016llx\n",
                   static_cast<unsigned long long>(fingerprint),
                   static_cast<unsigned long long>(batch_fingerprint));
      return 1;
    }
    std::printf("verify: streaming == synchronous (%016llx)\n",
                static_cast<unsigned long long>(fingerprint));
  }

  if (want_profile) {
    std::printf("\nper-phase wall-clock profile (threads=%d):\n%s",
                config.threads, profile_sink.FormatTable().c_str());
  }

  const std::string out = flags.GetString("out");
  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "failed to write %s\n", out.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"schema\": \"foodmatch-fmserve-v2\",\n"
        "  \"city\": \"%s\", \"scale\": %.0f, \"policy\": \"%s\",\n"
        "  \"scenario\": \"%s\",\n"
        "  \"shards\": %d, \"threads\": %d, \"producers\": %d,\n"
        "  \"intake_capacity\": %d, \"prestage\": %s, \"speedup\": %.3f,\n"
        "  \"windows\": %zu, \"orders_submitted\": %llu,\n"
        "  \"events_submitted\": %llu, \"dropped_invalid\": %llu,\n"
        "  \"blocked_pushes\": %llu,\n"
        "  \"wall_seconds\": %.6f, \"orders_per_second\": %.3f,\n"
        "  \"order_latency_ms\": %s,\n"
        "  \"decision_ms\": %s,\n"
        "  \"fingerprint\": \"%016llx\"\n"
        "}\n",
        profile.name.c_str(), scale, policy_name.c_str(),
        scenario_name.c_str(), config.shards, config.threads, producers,
        config.intake_queue_capacity,
        config.intake_prestage ? "true" : "false", stream_options.speedup,
        results.size(),
        static_cast<unsigned long long>(stats.orders_submitted),
        static_cast<unsigned long long>(stats.events_submitted),
        static_cast<unsigned long long>(stats.dropped_invalid),
        static_cast<unsigned long long>(stats.blocked_pushes),
        stats.wall_seconds, orders_per_second,
        TailSummaryJson(order_tails).c_str(),
        TailSummaryJson(decision_tails).c_str(),
        static_cast<unsigned long long>(fingerprint));
    std::fclose(f);
    std::printf("report json: %s\n", out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace fm

int main(int argc, char** argv) { return fm::Main(argc, argv); }
