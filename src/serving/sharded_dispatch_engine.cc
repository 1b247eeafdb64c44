#include "serving/sharded_dispatch_engine.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/check.h"
#include "core/edge_cache.h"
#include "core/matching_policy.h"
#include "obs/trace.h"

namespace fm {

ShardedDispatchEngine::ShardedDispatchEngine(
    const RegionPartitioner* partitioner, const std::string& policy_name,
    const DistanceOracle* oracle, const Config& config,
    const PolicyOptions& policy_options, ShardedEngineOptions options)
    : partitioner_(partitioner), options_(std::move(options)),
      policy_name_(policy_name), oracle_(oracle),
      policy_options_(policy_options) {
  FM_CHECK(partitioner_ != nullptr);
  FM_CHECK(oracle != nullptr);
  config.Validate();
  const int shards = partitioner_->num_shards();
  FM_CHECK_GE(shards, 1);
  FM_CHECK_MSG(config.shards == shards,
               "Config::shards must match the partitioner's shard count");

  // With K > 1 the parallelism budget is spent across shards: each shard
  // pipeline runs serially and the window fork-join shards on
  // Config::threads lanes. With K = 1 the single engine inherits the lanes
  // and parallelizes within the pipeline as usual.
  Config shard_config = config;
  shard_config.shards = 1;
  if (shards > 1) shard_config.threads = 1;
  shard_config_ = shard_config;

  policies_.reserve(shards);
  engines_.reserve(shards);
  for (int s = 0; s < shards; ++s) {
    policies_.push_back(PolicyRegistry::Global().Create(
        policy_name, oracle, shard_config, policy_options));
    engines_.push_back(std::make_unique<DispatchEngine>(
        policies_.back().get(), shard_config, options_.engine));
  }

  if (!options_.durability.dir.empty()) {
    durability_.reserve(shards);
    for (int s = 0; s < shards; ++s) {
      // A fresh run must not replay a previous run's log; restore-from-disk
      // goes through RestoreShard, which never takes this path.
      RemoveShardDurabilityFiles(options_.durability.dir, s);
      durability_.push_back(
          std::make_unique<ShardDurability>(options_.durability, s));
    }
  }

  if (shards > 1) {
    const int lanes = ThreadPool::ResolveThreadCount(config.threads);
    if (lanes > 1) cross_shard_pool_ = std::make_unique<ThreadPool>(lanes);
  }

  if (options_.metrics != nullptr) RegisterMetrics();
}

ShardedDispatchEngine::~ShardedDispatchEngine() {
  // The router's callbacks read engine state; freeze their last values so a
  // registry that outlives this engine keeps exposing them safely.
  if (options_.metrics != nullptr) options_.metrics->FreezeCallbacks(this);
}

void ShardedDispatchEngine::RegisterMetrics() {
  obs::MetricsRegistry& reg = *options_.metrics;
  // Serving: the router's pre-existing counters stay the source of truth;
  // the registry samples them through callbacks (thin reads).
  reg.RegisterCallbackCounter(
      "serving.migrations",
      "empty vehicles re-homed after crossing a region boundary",
      [this] { return migrations(); }, this);
  reg.RegisterCallbackCounter("serving.retirements",
                              "vehicle retirements routed",
                              [this] { return retirements(); }, this);
  reg.RegisterCallbackGauge(
      "serving.routed_orders", "live orders in the router's table",
      [this] { return static_cast<double>(routed_orders()); }, this);
  reg.RegisterCallbackGauge(
      "serving.routed_vehicles", "vehicles with a home shard",
      [this] { return static_cast<double>(vehicle_shard_.size()); }, this);
  makespan_seconds_ = &reg.RegisterHistogram(
      "serving.window_makespan_seconds",
      "slowest shard's decision wall clock per window (0 unless measured)",
      obs::LatencyBoundaries());
  makespan_imbalance_ = &reg.RegisterGauge(
      "serving.makespan_imbalance",
      "last window's max/mean shard decision time (1 = balanced)");
  // Oracle + EdgeCache hit rates. Policies are rebuilt by RestoreShard, so
  // the callbacks walk policies_ at sample time instead of caching cache
  // pointers.
  reg.RegisterCallbackCounter("oracle.queries",
                              "distance oracle queries answered",
                              [this] { return oracle_->query_count(); },
                              this);
  const auto sum_edge_stats =
      [this](std::uint64_t EdgeCacheStats::* field) -> std::uint64_t {
    std::uint64_t total = 0;
    for (const auto& policy : policies_) {
      const auto* matching = dynamic_cast<const MatchingPolicy*>(policy.get());
      if (matching == nullptr || matching->edge_cache() == nullptr) continue;
      total += matching->edge_cache()->AggregatedStats().*field;
    }
    return total;
  };
  reg.RegisterCallbackCounter(
      "graph.edge_cache.footprint_replays",
      "best-first searches served from recorded footprints",
      [sum_edge_stats] {
        return sum_edge_stats(&EdgeCacheStats::footprint_replays);
      },
      this);
  reg.RegisterCallbackCounter(
      "graph.edge_cache.memo_hits", "duration memo hits",
      [sum_edge_stats] {
        return sum_edge_stats(&EdgeCacheStats::duration_memo_hits);
      },
      this);
  reg.RegisterCallbackCounter(
      "graph.edge_cache.memo_misses", "duration memo misses",
      [sum_edge_stats] {
        return sum_edge_stats(&EdgeCacheStats::duration_memo_misses);
      },
      this);
  // Durability: WAL byte/rotation/sync counters (thin reads of the
  // writers' own instruments) plus the shared fsync-latency histogram.
  if (!durability_.empty()) {
    const auto sum_wal = [this](std::uint64_t (WalWriter::*getter)() const) {
      std::uint64_t total = 0;
      for (const auto& d : durability_) total += (d->writer().*getter)();
      return total;
    };
    reg.RegisterCallbackCounter(
        "wal.records", "durable records appended across shards",
        [this] {
          std::uint64_t total = 0;
          for (const auto& d : durability_) total += d->records_logged();
          return total;
        },
        this);
    reg.RegisterCallbackCounter(
        "wal.bytes_written", "WAL bytes written across shards",
        [sum_wal] { return sum_wal(&WalWriter::bytes_written); }, this);
    reg.RegisterCallbackCounter(
        "wal.rotations", "WAL segment rotations across shards",
        [sum_wal] { return sum_wal(&WalWriter::rotations); }, this);
    reg.RegisterCallbackCounter(
        "wal.syncs", "WAL fflush+fsync calls across shards",
        [sum_wal] { return sum_wal(&WalWriter::syncs); }, this);
    fsync_seconds_ = &reg.RegisterHistogram(
        "wal.fsync_seconds", "per-sync fsync wall-clock latency",
        obs::LatencyBoundaries());
    for (const auto& d : durability_) {
      d->writer().set_fsync_histogram(fsync_seconds_);
    }
  }
}

void ShardedDispatchEngine::RecordCarriedOrders(const VehicleSnapshot& snapshot,
                                                int shard) {
  // Orders a snapshot carries belong to the shard that owns the vehicle —
  // this is how warm-start orders (announced only inside a snapshot, never
  // via OrderPlaced) become routable for their eventual OrderDelivered.
  // For orders this router placed itself the entry already exists and the
  // write is an idempotent overwrite: pinning keeps a loaded vehicle in the
  // shard its orders live in.
  for (const Order& o : snapshot.picked) order_shard_[o.id] = shard;
  for (const Order& o : snapshot.unpicked) order_shard_[o.id] = shard;
}

void ShardedDispatchEngine::Handle(OrderPlaced event) {
  ScopedPhaseTimer timer(options_.profile, "serving.route");
  const int shard = partitioner_->ShardOfNode(event.order.restaurant);
  order_shard_[event.order.id] = shard;
  if (!durability_.empty()) durability_[shard]->LogEvent(event);
  engines_[shard]->Handle(std::move(event));
}

void ShardedDispatchEngine::Handle(VehicleStateUpdate event) {
  ScopedPhaseTimer timer(options_.profile, "serving.route");
  const int home = partitioner_->ShardOfNode(event.snapshot.location);
  auto it = vehicle_shard_.find(event.snapshot.id);
  if (it == vehicle_shard_.end()) {
    vehicle_shard_.emplace(event.snapshot.id, home);
    RecordCarriedOrders(event.snapshot, home);
    if (!durability_.empty()) durability_[home]->LogEvent(event);
    engines_[home]->Handle(std::move(event));
    return;
  }
  // In-flight assignments pin the vehicle to its current shard: its orders
  // live in that shard's pool and records until delivered. The owning
  // engine's record is consulted too: a bare position ping (a gateway-style
  // update that carries no lists — see core/engine_event.h) must never
  // migrate a vehicle whose engine-side record is loaded.
  const bool in_flight = !event.snapshot.picked.empty() ||
                         !event.snapshot.unpicked.empty() ||
                         engines_[it->second]->VehicleHasInFlight(
                             event.snapshot.id);
  if (it->second == home || in_flight) {
    RecordCarriedOrders(event.snapshot, it->second);
    if (!durability_.empty()) durability_[it->second]->LogEvent(event);
    engines_[it->second]->Handle(std::move(event));
    return;
  }
  // Empty vehicle crossed a region boundary: migrate. The retirement is
  // clean — pinning guarantees the old record holds no in-flight orders
  // (delivered ones were pruned by OrderDelivered), so nothing returns to
  // the old shard's pool.
  if (!durability_.empty()) {
    durability_[it->second]->LogEvent(VehicleRetired{event.snapshot.id});
    durability_[home]->LogEvent(event);
  }
  engines_[it->second]->Handle(VehicleRetired{event.snapshot.id});
  it->second = home;
  migrations_.Increment();
  retirements_.Increment();
  engines_[home]->Handle(std::move(event));
}

void ShardedDispatchEngine::Handle(OrderDelivered event) {
  ScopedPhaseTimer timer(options_.profile, "serving.route");
  auto it = order_shard_.find(event.order);
  if (it == order_shard_.end()) return;  // unknown or already delivered
  if (!durability_.empty()) durability_[it->second]->LogEvent(event);
  engines_[it->second]->Handle(event);
  order_shard_.erase(it);
}

void ShardedDispatchEngine::Handle(VehicleRetired event) {
  ScopedPhaseTimer timer(options_.profile, "serving.route");
  auto it = vehicle_shard_.find(event.vehicle);
  FM_CHECK_MSG(it != vehicle_shard_.end(), "retirement of unknown vehicle");
  if (!durability_.empty()) durability_[it->second]->LogEvent(event);
  retirements_.Increment();
  engines_[it->second]->Handle(event);
  vehicle_shard_.erase(it);
}

WindowResult ShardedDispatchEngine::Handle(const WindowClosed& event) {
  FleetWindowResult fleet = RunWindow(event);
  return std::move(fleet.merged);
}

FleetWindowResult ShardedDispatchEngine::RunWindow(const WindowClosed& event) {
  const int shards = num_shards();
  if (!warned_small_fleet_ && !vehicle_shard_.empty() &&
      vehicle_shard_.size() < static_cast<std::size_t>(shards)) {
    warned_small_fleet_ = true;
    std::fprintf(stderr,
                 "warning: %d shards but only %zu vehicles announced — "
                 "shards without vehicles can never assign\n",
                 shards, vehicle_shard_.size());
  }

  FleetWindowResult fleet;
  fleet.now = event.now;
  fleet.shards.resize(shards);
  {
    ScopedPhaseTimer timer(options_.profile, "serving.shard_window");
    // Each worker touches exactly its own shard's durability instance, so
    // the marker append + fsync rides inside the fork-join with no extra
    // synchronization.
    auto run_shard = [&](std::size_t s) {
      // Per-shard span: the tracer's rings are per-thread, so concurrent
      // shard workers emit without contention.
      obs::ScopedSpan span("serving.shard", "shard");
      fleet.shards[s] = engines_[s]->Handle(event);
      if (!durability_.empty()) {
        durability_[s]->OnWindowClosed(event.now, *engines_[s]);
      }
    };
    if (cross_shard_pool_ != nullptr && !observer_installed_) {
      ParallelFor(cross_shard_pool_.get(), static_cast<std::size_t>(shards),
                  run_shard);
    } else {
      // Serial path: K = 1, 1 lane, or an installed observer (the observer
      // must see shard views in one deterministic sequence).
      for (int s = 0; s < shards; ++s) run_shard(static_cast<std::size_t>(s));
    }
  }

  {
    ScopedPhaseTimer timer(options_.profile, "serving.merge");
    WindowResult& merged = fleet.merged;
    merged.now = event.now;
    for (const WindowResult& r : fleet.shards) {
      merged.rejected.insert(merged.rejected.end(), r.rejected.begin(),
                             r.rejected.end());
      merged.reshuffled_vehicles.insert(merged.reshuffled_vehicles.end(),
                                        r.reshuffled_vehicles.begin(),
                                        r.reshuffled_vehicles.end());
      merged.decision.assignments.insert(merged.decision.assignments.end(),
                                         r.decision.assignments.begin(),
                                         r.decision.assignments.end());
      merged.reinstatements.insert(merged.reinstatements.end(),
                                   r.reinstatements.begin(),
                                   r.reinstatements.end());
      merged.decision.cost_evaluations += r.decision.cost_evaluations;
      merged.decision.batching_seconds += r.decision.batching_seconds;
      merged.decision.graph_seconds += r.decision.graph_seconds;
      merged.decision.matching_seconds += r.decision.matching_seconds;
      merged.decision.profile.Merge(r.decision.profile);
      // Shards run concurrently: the fleet's decision time is the slowest
      // shard (the makespan that must fit inside ∆), not the sum.
      merged.decision_seconds =
          std::max(merged.decision_seconds, r.decision_seconds);
    }
    // Rejected orders left their shard's pool for good; drop their routing
    // entries so the router's order table — like the engines it fronts —
    // tracks only live orders (delivered ones are dropped in
    // Handle(OrderDelivered)).
    for (OrderId id : merged.rejected) order_shard_.erase(id);
  }
  if (makespan_seconds_ != nullptr) {
    // Makespan + imbalance over the shard decision times (all zero unless
    // DispatchEngineOptions::measure_wall_clock is on). max/mean == 1 is a
    // perfectly balanced window; the gap to it is the parallel headroom
    // the cross-shard partitioning leaves on the table.
    double max_seconds = 0.0;
    double sum_seconds = 0.0;
    for (const WindowResult& r : fleet.shards) {
      max_seconds = std::max(max_seconds, r.decision_seconds);
      sum_seconds += r.decision_seconds;
    }
    makespan_seconds_->Observe(max_seconds);
    const double mean = sum_seconds / static_cast<double>(shards);
    makespan_imbalance_->Set(mean > 0.0 ? max_seconds / mean : 1.0);
  }
  return fleet;
}

void ShardedDispatchEngine::set_observer(WindowObserver observer) {
  observer_installed_ = static_cast<bool>(observer);
  observer_ = observer;  // kept so RestoreShard can re-install it
  for (std::size_t s = 0; s < engines_.size(); ++s) {
    engines_[s]->set_observer(observer);
  }
}

RecoveryReport ShardedDispatchEngine::RestoreShard(int s) {
  FM_CHECK_MSG(!durability_.empty(),
               "RestoreShard requires durability (set durability.dir)");
  FM_CHECK_GE(s, 0);
  FM_CHECK_LT(s, num_shards());
  // Close the shard's writer first: recovery reads the log it was
  // appending, and the reopened writer must start a fresh segment past it.
  durability_[s].reset();
  // Destroy the engine before its policy (engines borrow their policy),
  // then rebuild both exactly as the ctor did.
  engines_[s].reset();
  policies_[s] = PolicyRegistry::Global().Create(policy_name_, oracle_,
                                                 shard_config_,
                                                 policy_options_);
  engines_[s] = std::make_unique<DispatchEngine>(
      policies_[s].get(), shard_config_, options_.engine);
  if (observer_) engines_[s]->set_observer(observer_);
  RecoveryReport report = RecoverShard(options_.durability, s, *engines_[s]);
  durability_[s] = std::make_unique<ShardDurability>(options_.durability, s,
                                                     report.ResumeCursor());
  // The reopened writer keeps feeding the shared fsync histogram.
  if (fsync_seconds_ != nullptr) {
    durability_[s]->writer().set_fsync_histogram(fsync_seconds_);
  }
  return report;
}

std::uint64_t ShardedDispatchEngine::durable_records(int s) const {
  if (durability_.empty()) return 0;
  return durability_[s]->records_logged();
}

std::size_t ShardedDispatchEngine::pending_orders() const {
  std::size_t total = 0;
  for (const auto& engine : engines_) total += engine->pending_orders();
  return total;
}

ThreadPool* ShardedDispatchEngine::thread_pool() const {
  if (num_shards() == 1) return engines_[0]->thread_pool();
  return cross_shard_pool_.get();
}

int ShardedDispatchEngine::shard_of_order(OrderId id) const {
  auto it = order_shard_.find(id);
  return it == order_shard_.end() ? -1 : it->second;
}

int ShardedDispatchEngine::shard_of_vehicle(VehicleId id) const {
  auto it = vehicle_shard_.find(id);
  return it == vehicle_shard_.end() ? -1 : it->second;
}

}  // namespace fm
