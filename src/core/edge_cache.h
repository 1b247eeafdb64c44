// Cross-window FOODGRAPH state: the EdgeCache that BuildFoodGraph
// (core/food_graph.h) fills the graph through.
//
// Every build runs through an EdgeCache. A policy that keeps its cache
// across windows (Config::incremental_graph, the default) gets the saving;
// a build handed no cache runs on a cold one local to the call. The cache
// holds two things:
//
//   1. Search footprints — the best-first discovery order of Alg. 2 for one
//      vehicle depends only on (source, next-destination, hour slot): the
//      queue is driven by the α-weights of Eq. 8, which never look at the
//      batch set, and the batch set / degree bound k only decide where the
//      search *stops*. The cache therefore records the visit sequence (and
//      keeps the live frontier: queue + distance labels) and replays it on
//      the next window, resuming the real search only when a deeper prefix
//      is needed. A replayed prefix yields bit-identical visits, β-bounds
//      and therefore edges and `nodes_expanded` counts.
//
//   2. Duration memos — exact per-shard memos of oracle answers keyed
//      (u, v, slot) (see DurationMemo), shared by every planner call the
//      build issues. A memo replays the oracle's own answers, so it is
//      invisible in results.
//
// Pair weights are recomputed every window. Footprints carry their own
// validity key (source, dest, slot) and survive order-set changes; a
// retired vehicle's footprint is freed by OnVehicleRetired, and entries
// unused for kRetainBuilds builds are collected.
//
// Determinism: entries are keyed per vehicle and each vehicle is owned by
// exactly one shard of the statically sharded build, so cache state after
// any window is independent of the thread count; with the per-shard memos
// value-transparent, a persistent cache yields graphs bit-identical to a
// cold one for 1 vs N lanes (enforced by tests/food_graph_incremental_test.cc
// and bench_incremental_graph).
#ifndef FOODMATCH_CORE_EDGE_CACHE_H_
#define FOODMATCH_CORE_EDGE_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "graph/distance_oracle.h"
#include "model/vehicle.h"

namespace fm {

// Counters the build accumulates, surfaced by `bench_incremental_graph` /
// BENCH_incremental.json.
struct EdgeCacheStats {
  std::uint64_t footprint_replays = 0;    // searches served from the record
  std::uint64_t footprint_resumes = 0;    // recorded prefix extended live
  std::uint64_t footprint_rebuilds = 0;   // key mismatch, search restarted
  std::uint64_t duration_memo_hits = 0;
  std::uint64_t duration_memo_misses = 0;
};

// One settled node of a recorded best-first search, in visit order. `beta`
// is the β-distance label at settlement time — frozen from then on, and
// exactly the value the starts-scan of Alg. 2 compares against the
// first-mile bound.
struct SearchVisit {
  NodeId node = kInvalidNode;
  Seconds beta = 0.0;
};

// The (α, β) labels of one node touched by a recorded search — the
// persistent, compact form of the frontier's distance state.
struct FootprintLabel {
  NodeId node = kInvalidNode;
  double alpha = 0.0;
  Seconds beta = 0.0;
};

// The recorded state of one vehicle's best-first search, replayable and
// resumable. Valid only for the exact (source, dest, slot) it was built
// for — everything else the search reads (network, γ, the first-mile
// bound) is fixed per policy instance.
struct SearchFootprint {
  NodeId source = kInvalidNode;
  NodeId dest = kInvalidNode;
  int slot = -1;
  // True when the frontier drained: the visit list is the complete
  // reachable-within-bound set and can never be extended.
  bool exhausted = false;
  std::vector<SearchVisit> visits;

  // Live frontier, kept verbatim so a resume continues exactly where an
  // uninterrupted search would be after `visits.size()` settlements.
  // `queue` is the raw binary-heap array of the lazy-deletion priority
  // queue, maintained with std::push_heap / std::pop_heap under
  // std::greater. `labels` holds the (α, β) of every touched node; an
  // extension session loads them into flat per-shard stamp arrays and
  // writes the touched set back on close (see food_graph.cc), which keeps
  // the hot relax loop at flat-array speed. Pure replays never read the
  // labels at all.
  using QueueEntry = std::pair<double, NodeId>;
  std::vector<QueueEntry> queue;
  std::vector<FootprintLabel> labels;

  void Reset(NodeId new_source, NodeId new_dest, int new_slot);
  bool Matches(NodeId s, NodeId d, int sl) const {
    return source == s && dest == d && slot == sl;
  }
};

// Everything cached for one vehicle. Stable address (held by unique_ptr in
// the registry) so the sharded build can use pre-fetched pointers.
struct VehicleCacheEntry {
  SearchFootprint footprint;
  std::uint64_t last_used_build = 0;
};

/// \brief Per-policy registry of VehicleCacheEntry + per-shard DurationMemos.
///
/// Thread safety: all mutating registry operations (OnVehicleRetired,
/// BeginWindow, EnsureShards) run on the policy thread between builds.
/// During a build, shards touch only the entries of vehicles they own
/// (pointers pre-fetched by BeginWindow) and their own memo — no shared
/// mutable state.
///
/// Complexity: BeginWindow is O(|vehicles|) hash lookups plus amortized GC.
class EdgeCache {
 public:
  // The vehicle left the fleet: free everything it cached.
  void OnVehicleRetired(VehicleId vehicle);

  // Registers this window's vehicles: creates missing entries and
  // garbage-collects entries unused for kRetainBuilds builds. Returns one
  // stable entry pointer per snapshot (index-aligned), safe to hand to the
  // sharded build.
  std::vector<VehicleCacheEntry*> BeginWindow(
      const std::vector<VehicleSnapshot>& vehicles);

  // Pre-sizes the per-shard memo set; call before the parallel region.
  void EnsureShards(int shards);
  DurationMemo& memo_for_shard(int shard) { return *memos_[shard]; }

  EdgeCacheStats& stats() { return stats_; }
  // Stats with the per-shard memo counters folded in.
  EdgeCacheStats AggregatedStats() const;

  std::size_t entry_count() const { return entries_.size(); }

  static constexpr std::uint64_t kRetainBuilds = 256;

 private:
  std::uint64_t builds_ = 0;
  EdgeCacheStats stats_;
  std::unordered_map<VehicleId, std::unique_ptr<VehicleCacheEntry>> entries_;
  std::vector<std::unique_ptr<DurationMemo>> memos_;
};

}  // namespace fm

#endif  // FOODMATCH_CORE_EDGE_CACHE_H_
