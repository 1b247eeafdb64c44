// FOODGRAPH construction (paper §IV-A, §IV-C, §IV-D1).
//
// The FOODGRAPH is the weighted bipartite graph between order batches (U1)
// and vehicles (U2); the edge weight of (π, v) is min(mCost(π, v), Ω), with
// Ω for pairs violating the Def. 4 capacity constraints or the 45-minute
// first-mile bound. One builder, BuildFoodGraph, fills it in one of two
// ways (FoodGraphOptions::best_first):
//
//   * full — every capacity-feasible batch×vehicle weight (the vanilla
//     Kuhn–Munkres baseline of §V; quadratic cost).
//   * sparsified — Algorithm 2: for each vehicle, a best-first search over
//     the road network visits candidate first-pickup nodes in ascending
//     order of the vehicle-sensitive edge weight
//
//       α(v, e, t) = (1−γ)·adist(v, u′, t) + γ·β(e, t)/max β(·, t)   (Eq. 8)
//
//     and only the first k batches discovered get true mCost edges; the
//     rest get Ω. With angular distance disabled the search degenerates to
//     plain Dijkstra order on normalized β, i.e. Lemma 1's top-k guarantee.
//
// Both fills run through an EdgeCache (core/edge_cache.h): the sparsified
// search replays and extends the vehicle's recorded search footprint, and
// every SP leg is answered through the shard's DurationMemo. A caller that
// keeps the cache across windows saves the repeated work; a caller that
// passes none gets a cold cache local to the call. The result is the same
// either way.
//
// With a ThreadPool the fill is sharded over vehicles (columns). Each shard
// writes a disjoint slice of the cost matrix and its own counters, which are
// reduced in fixed shard order, so the resulting FoodGraph is bit-identical
// for 1 vs N threads and for a persistent vs a cold cache (enforced by
// tests/food_graph_test.cc, tests/food_graph_incremental_test.cc and
// bench_incremental_graph).
#ifndef FOODMATCH_CORE_FOOD_GRAPH_H_
#define FOODMATCH_CORE_FOOD_GRAPH_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "core/batching.h"
#include "graph/distance_oracle.h"
#include "matching/bipartite.h"
#include "model/config.h"
#include "model/vehicle.h"

namespace fm {

class EdgeCache;     // core/edge_cache.h
class PhaseProfile;  // common/profiler.h

struct FoodGraphOptions {
  // Use the best-first sparsified construction (Alg. 2) instead of the full
  // quadratic one.
  bool best_first = true;
  // Mix angular distance into the search weight (Eq. 8). When false the
  // best-first search uses pure normalized travel time (γ = 1 behaviour).
  bool angular = true;
  // Degree bound k for the sparsified construction. <= 0 derives k from
  // Config::k_scale as max(k_min, k_scale · |batches| / |vehicles|)
  // (paper §V-B).
  int fixed_k = 0;
};

struct FoodGraph {
  // cost(i, j): weight of batch i → vehicle j, clamped at Ω.
  CostMatrix cost;
  // Number of true mCost evaluations performed (instrumentation for the
  // scalability experiments; Ω edges are free).
  std::uint64_t mcost_evaluations = 0;
  // Number of road-network nodes expanded by the best-first searches.
  std::uint64_t nodes_expanded = 0;

  FoodGraph(std::size_t batches, std::size_t vehicles, double omega)
      : cost(batches, vehicles, omega) {}
};

/// The Def. 4 feasibility test for assigning `batch` to `vehicle`.
/// Thread-safe (pure). O(|batch|) time.
bool SatisfiesCapacity(const Config& config, const Batch& batch,
                       const VehicleSnapshot& vehicle);

/// \brief Builds the FOODGRAPH (full or sparsified per `options`).
///
/// Complexity: full — O(|batches| · |vehicles|) mCost evaluations, each an
/// optimal route plan over ≤ MAXO orders; sparsified — O(|vehicles| ·
/// (E_k log V_k + k)) where E_k/V_k are the edges/nodes expanded before k
/// batches are discovered (bounded by the first-mile ball), plus O(k) mCost
/// evaluations per vehicle, less whatever a persistent cache replays.
///
/// `cache` == nullptr means a cold EdgeCache local to this call. A
/// persistent cache must serve one (oracle, config, options) policy
/// instance — footprint validity assumes γ, the angular flag and the
/// first-mile bound never change between calls on the same cache.
///
/// When `profile` is non-null, records the leaf phases `graph.prepare`
/// (cache registration and the start index) and `graph.delta` (the sharded
/// fill).
///
/// Thread-safety: requires `oracle` to be safe for concurrent Duration()
/// calls (all backends are; warm hub labels first for a lock-free path).
FoodGraph BuildFoodGraph(const DistanceOracle& oracle, const Config& config,
                         const FoodGraphOptions& options,
                         const std::vector<Batch>& batches,
                         const std::vector<VehicleSnapshot>& vehicles,
                         Seconds now, ThreadPool* pool = nullptr,
                         EdgeCache* cache = nullptr,
                         PhaseProfile* profile = nullptr);

}  // namespace fm

#endif  // FOODMATCH_CORE_FOOD_GRAPH_H_
