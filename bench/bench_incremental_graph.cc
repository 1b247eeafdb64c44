// Measures the FOODGRAPH build with its EdgeCache (core/edge_cache.h) kept
// across windows against the same build on a cold cache every window, and
// hard-gates their bit-identity.
//
// The graph phases dominate FoodMatch/KM decision time (BENCH_profile.json);
// a persistent cache cuts that share by replaying recorded best-first search
// footprints and memoized SP legs. This bench runs each city/policy with the
// cache cold, then persistent, and
//
//   1. FAILS (exit 1) unless the two SimulationResults are bit-identical,
//      and again unless the 4-lane persistent run matches the 1-lane one —
//      the cache may only ever change the clock, never a number;
//   2. reports the graph-phase share of each run plus the cache's replay and
//      memo counters, written to BENCH_incremental.json (--out=PATH) so CI
//      archives the trajectory of the graph share next to BENCH_profile.json.
//
// Comparability with BENCH_profile.json: the runs use the same 11h–14h
// horizon as the profiled bench_fig6fgh rows, and `graph_share` is computed
// the same way — graph-phase seconds over the phase profile's total (which
// includes rebuild.plans), not over decision_seconds_total. Each case starts
// with one untimed warm-up run so the cold-cache baseline is not billed for
// the lazily warmed oracle caches the later passes then get for free.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/support.h"
#include "common/flags.h"
#include "common/strings.h"
#include "core/edge_cache.h"
#include "core/matching_policy.h"

namespace fm::bench {
namespace {

// FNV-1a over everything deterministic in a SimulationResult (the same field
// walk as the engine-equivalence goldens in tests/dispatch_engine_test.cc).
// Wall-clock-derived fields (overflow counts, decision seconds) are
// deliberately excluded: the runs here measure time, and time is the one
// thing allowed to differ.
std::uint64_t HashU64(std::uint64_t h, std::uint64_t v) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(&v);
  for (std::size_t i = 0; i < sizeof(v); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
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

struct RunOutcome {
  SimulationResult result;
  std::uint64_t fingerprint = 0;
  EdgeCacheStats cache;  // zeros for cold-cache runs
  bool has_cache = false;
};

// Lab::Run keeps its policy private; this clone of its run loop retains the
// policy so the EdgeCache counters survive the simulation.
RunOutcome RunSpecOnce(Lab& lab, const RunSpec& spec) {
  const Lab::Entry& entry = lab.Get(spec);
  const Config config = EffectiveConfig(spec);
  std::unique_ptr<AssignmentPolicy> policy = MakePolicy(spec, entry, config);

  SimulationInput input;
  input.network = &entry.workload.network;
  input.oracle = entry.oracle.get();
  input.config = config;
  input.fleet = SubsampleFleet(entry.workload.fleet, spec.fleet_fraction);
  input.orders = entry.workload.orders;
  input.start_time = spec.start_time;
  input.end_time = spec.end_time;
  input.drain_time = 7200.0;
  input.measure_wall_clock = spec.measure_wall_clock;

  Simulator sim(std::move(input), policy.get());
  RunOutcome out;
  out.result = sim.Run();
  out.fingerprint = FingerprintResult(out.result);
  if (const auto* matching = dynamic_cast<const MatchingPolicy*>(policy.get());
      matching != nullptr && matching->edge_cache() != nullptr) {
    out.cache = matching->edge_cache()->AggregatedStats();
    out.has_cache = true;
  }
  return out;
}

struct ReportEntry {
  std::string label;
  std::string mode;  // "cold" or "persistent" EdgeCache
  int threads = 1;
  std::uint64_t windows = 0;
  double graph_seconds = 0.0;    // sum of the graph.* profile phases
  double profile_seconds = 0.0;  // phase-profile total (BENCH_profile basis)
  double decision_seconds = 0.0;
  double graph_share = 0.0;      // graph_seconds / profile_seconds
  double graph_speedup = 1.0;    // cold-cache graph seconds / this run's
  std::uint64_t fingerprint = 0;
  EdgeCacheStats cache;
  bool has_cache = false;
};

// Graph-phase seconds of one run: `graph.prepare` + `graph.delta`.
double GraphPhaseSeconds(const PhaseProfile& phases) {
  double total = 0.0;
  for (const auto& [name, stat] : phases.Ranked()) {
    if (name.rfind("graph.", 0) == 0) total += stat.seconds;
  }
  return total;
}

bool WriteReport(const std::string& path,
                 const std::vector<ReportEntry>& entries) {
  BenchJsonDoc doc("foodmatch-incremental-graph-v2",
                   "bench_incremental_graph");
  for (const ReportEntry& e : entries) {
    std::string entry = StrFormat(
        "{\n"
        "      \"label\": \"%s\", \"mode\": \"%s\", \"threads\": %d,\n"
        "      \"windows\": %llu, \"graph_seconds\": %.6f,\n"
        "      \"profile_seconds\": %.6f,\n"
        "      \"decision_seconds\": %.6f, \"graph_share\": %.4f,\n"
        "      \"graph_speedup\": %.3f,\n"
        "      \"fingerprint\": \"%016llx\"",
        e.label.c_str(), e.mode.c_str(), e.threads,
        static_cast<unsigned long long>(e.windows), e.graph_seconds,
        e.profile_seconds, e.decision_seconds, e.graph_share, e.graph_speedup,
        static_cast<unsigned long long>(e.fingerprint));
    if (e.has_cache) {
      const EdgeCacheStats& c = e.cache;
      entry += StrFormat(
          ",\n      \"cache\": {\n"
          "        \"footprint_replays\": %llu, \"footprint_resumes\": %llu,\n"
          "        \"footprint_rebuilds\": %llu,\n"
          "        \"duration_memo_hits\": %llu,\n"
          "        \"duration_memo_misses\": %llu\n"
          "      }",
          static_cast<unsigned long long>(c.footprint_replays),
          static_cast<unsigned long long>(c.footprint_resumes),
          static_cast<unsigned long long>(c.footprint_rebuilds),
          static_cast<unsigned long long>(c.duration_memo_hits),
          static_cast<unsigned long long>(c.duration_memo_misses));
    }
    entry += "\n    }";
    doc.AddEntry(std::move(entry));
  }
  return doc.Write(path);
}

int Main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return 2;
  }
  const std::string out_path = flags.GetString("out", "BENCH_incremental.json");
  PrintBanner(
      "Persistent FOODGRAPH EdgeCache — graph share & bit-identity gate",
      "the graph phases dominate decision time; keeping the EdgeCache "
      "across windows must cut them without moving a single number");

  struct Case {
    CityProfile profile;
    PolicyKind kind;
  };
  const std::vector<Case> cases = {
      {BenchCityB(), PolicyKind::kFoodMatch},
      {BenchCityB(), PolicyKind::kKM},
      {BenchCityC(), PolicyKind::kFoodMatch},
  };

  Lab lab;
  std::vector<ReportEntry> entries;
  TablePrinter table({"City/Policy", "mode", "threads", "graph(s)",
                      "decision(s)", "graph-share", "graph-speedup",
                      "memo-hit%", "replays"});
  for (const Case& c : cases) {
    const std::string label = c.profile.name + "/" + PolicyName(c.kind);
    RunSpec spec;
    spec.profile = c.profile;
    spec.kind = c.kind;
    // The exact horizon the BENCH_profile.json rows were profiled on, so the
    // shares below are comparable to the committed graph-phase anchor.
    spec.start_time = 11.0 * 3600.0;
    spec.end_time = 14.0 * 3600.0;
    spec.measure_wall_clock = true;

    // Pass 0 (untimed): warm the lab's shared oracle caches so the cold
    // baseline is not billed for one-time lazy warm-up the later passes
    // would inherit for free.
    spec.config.incremental_graph = false;
    spec.config.threads = 1;
    (void)RunSpecOnce(lab, spec);

    // Pass 1: cold-cache reference.
    const RunOutcome cold = RunSpecOnce(lab, spec);

    // Pass 2: persistent cache, 1 lane. Pass 3: persistent cache, 4 lanes.
    spec.config.incremental_graph = true;
    const RunOutcome kept1 = RunSpecOnce(lab, spec);
    spec.config.threads = 4;
    const RunOutcome kept4 = RunSpecOnce(lab, spec);

    // The hard gate: identical results, or the cache is wrong.
    if (kept1.fingerprint != cold.fingerprint ||
        kept4.fingerprint != cold.fingerprint) {
      std::fprintf(stderr,
                   "BIT-IDENTITY VIOLATION (%s): cold %016llx, "
                   "persistent@1 %016llx, persistent@4 %016llx\n",
                   label.c_str(),
                   static_cast<unsigned long long>(cold.fingerprint),
                   static_cast<unsigned long long>(kept1.fingerprint),
                   static_cast<unsigned long long>(kept4.fingerprint));
      return 1;
    }

    const auto add = [&](const char* mode, int threads, const RunOutcome& run,
                         double cold_graph) {
      const Metrics& m = run.result.metrics;
      ReportEntry e;
      e.label = label;
      e.mode = mode;
      e.threads = threads;
      e.windows = m.windows;
      e.graph_seconds = GraphPhaseSeconds(m.phases);
      e.profile_seconds = m.phases.TotalSeconds();
      e.decision_seconds = m.decision_seconds_total;
      e.graph_share =
          e.profile_seconds > 0.0 ? e.graph_seconds / e.profile_seconds : 0.0;
      e.graph_speedup =
          e.graph_seconds > 0.0 ? cold_graph / e.graph_seconds : 1.0;
      e.fingerprint = run.fingerprint;
      e.cache = run.cache;
      e.has_cache = run.has_cache;
      const std::uint64_t lookups =
          e.cache.duration_memo_hits + e.cache.duration_memo_misses;
      table.AddRow(
          {label, mode, Fmt(threads, 0), Fmt(e.graph_seconds, 3),
           Fmt(e.decision_seconds, 3), FmtPercent(100.0 * e.graph_share),
           Fmt(e.graph_speedup, 2) + "x",
           run.has_cache && lookups > 0
               ? FmtPercent(
                     100.0 * static_cast<double>(e.cache.duration_memo_hits) /
                     static_cast<double>(lookups))
               : "-",
           run.has_cache ? Fmt(static_cast<double>(e.cache.footprint_replays),
                               0)
                         : "-"});
      entries.push_back(std::move(e));
    };
    const double cold_graph =
        GraphPhaseSeconds(cold.result.metrics.phases);
    add("cold", 1, cold, cold_graph);
    add("persistent", 1, kept1, cold_graph);
    add("persistent", 4, kept4, cold_graph);
    std::printf("%s: bit-identity gate passed (%016llx)\n", label.c_str(),
                static_cast<unsigned long long>(cold.fingerprint));
  }
  std::printf("\n");
  table.Print();

  if (!WriteReport(out_path, entries)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nincremental-graph report: %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace fm::bench

int main(int argc, char** argv) { return fm::bench::Main(argc, argv); }
