// Operational constraints and algorithm parameters (paper Table I and §V-B).
#ifndef FOODMATCH_MODEL_CONFIG_H_
#define FOODMATCH_MODEL_CONFIG_H_

#include "common/types.h"

namespace fm {

struct Config {
  // MAXO: maximum number of orders per vehicle (paper: 3).
  int max_orders_per_vehicle = 3;
  // MAXI: maximum item capacity per vehicle (paper: 10).
  int max_items_per_vehicle = 10;
  // Ω: rejection penalty in seconds (paper: 7200 = 2 hours).
  Seconds rejection_penalty = 7200.0;
  // ∆: accumulation window length (paper default: 180 s for large cities,
  // 60 s for City A).
  Seconds accumulation_window = 180.0;
  // η: batching quality cutoff in seconds (paper: 60 s).
  Seconds batching_cutoff = 60.0;
  // γ: weight between travel time and angular distance in Eq. 8
  // (paper: 0.5).
  double gamma = 0.5;
  // Degree bound of the sparsified FOODGRAPH (§IV-C1/§V-B):
  // k = max(k_min, k_scale · |Π| / |V|). The paper sets k_scale = 200; the
  // k_min floor guards coverage on small instances (a batch with no
  // incident true edge can never be assigned that window).
  double k_scale = 200.0;
  int k_min = 10;
  // Orders unassigned for longer than this are rejected (paper: 30 min).
  Seconds max_unassigned_age = 1800.0;
  // Promised maximum delivery time; vehicles farther than this from a
  // batch's first pickup get an Ω edge (paper: 45 min).
  Seconds max_first_mile = 2700.0;
  // Execution lanes for the batch-assignment pipeline (FOODGRAPH edge fill
  // and route rebuilds; PlanRouteByInsertion also shards when a caller
  // hands it a pool). 1 = fully serial (default); 0 = use the hardware
  // concurrency. Results are bit-identical for any value — parallelism is
  // statically sharded (see common/thread_pool.h).
  int threads = 1;
  // Region shards for the serving layer: the number of independent
  // DispatchEngines a ShardedDispatchEngine partitions the fleet across
  // (serving/sharded_dispatch_engine.h). 1 = one city-wide engine
  // (default, bit-identical to running DispatchEngine directly). Must be
  // >= 1; more shards than vehicles leaves shards idle (warned at runtime,
  // not fatal).
  int shards = 1;
  // Per-stage capacity of the streaming intake rings
  // (core/intake_stage.h); rounded up to a power of two. Must be >= 1.
  // Sizing note: the ring only needs to cover the intake burst between two
  // consumer pumps — backpressure (blocking, counted) handles overflow
  // without dropping events, so results never depend on this value.
  int intake_queue_capacity = 4096;
  // Pre-route each accepted order's restaurant→customer leg on the
  // producer thread (warms oracle caches; never changes results — see
  // core/intake_stage.h).
  bool intake_prestage = true;
  // Keep the FOODGRAPH's EdgeCache (core/edge_cache.h) across windows, so
  // recorded search footprints replay and memoized SP legs carry over.
  // When false every window starts from a cold EdgeCache. Results are
  // bit-identical either way (enforced by food_graph_incremental_test and
  // bench_incremental_graph); this knob is the escape hatch
  // (`--no-incremental` in fmsim/fmserve).
  bool incremental_graph = true;
  // With durability enabled (a WAL directory configured — see
  // durability/recovery.h), write an engine-state snapshot every this many
  // closed windows per shard; recovery loads the latest snapshot and
  // replays only the WAL suffix. Must be >= 1. Smaller values bound replay
  // work tighter at the cost of more snapshot IO per window.
  int snapshot_every_windows = 8;

  // Validates internal consistency (aborts on violation) and returns *this.
  const Config& Validate() const;
};

}  // namespace fm

#endif  // FOODMATCH_MODEL_CONFIG_H_
