// Unified quickest-path query facade used by every assignment policy.
//
// SP(u, v, t) (paper notation) is answered against the hour slot of t. Three
// backends:
//   * kHubLabels — lazily builds one HubLabels index per hour slot on first
//     use (the paper's hub-labeling index [18]); fastest for simulation.
//   * kDijkstra  — exact per-query Dijkstra with a bounded memo cache;
//     reference backend for tests and small instances.
//   * kHaversine — straight-line distance divided by a constant speed; this
//     is the distance model of Reyes et al. [5] and of the GrubHub profile
//     (no road network available).
#ifndef FOODMATCH_GRAPH_DISTANCE_ORACLE_H_
#define FOODMATCH_GRAPH_DISTANCE_ORACLE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "graph/hub_labels.h"
#include "graph/road_network.h"

namespace fm {

class ThreadPool;

enum class OracleBackend {
  kHubLabels,
  kDijkstra,
  kHaversine,
};

/// \brief Quickest-path query facade over a RoadNetwork.
///
/// Thread safety: Duration() is safe to call concurrently from any number of
/// threads for every backend. The guarantees per backend are:
///   * kHaversine — pure computation, wait-free.
///   * kHubLabels — warmed slots (see WarmSlots) are answered by a lock-free
///     read of an immutable index; a cold slot is built exactly once under a
///     mutex (double-checked), other threads querying that slot block until
///     the build completes. Warm the simulated horizon up front to keep the
///     hot path lock-free.
///   * kDijkstra  — the per-slot memo cache is guarded by a mutex; queries
///     serialize on it. This backend is the *reference* implementation for
///     tests, not a performance path.
/// Results are deterministic: the answer to Duration(u, v, t) never depends
/// on thread interleaving (the memo cache only memoizes exact results).
///
/// Complexity per query: O(label size) merge-join for hub labels
/// (sub-microsecond in practice), O((m + n) log n) for uncached Dijkstra,
/// O(1) for haversine.
class DistanceOracle {
 public:
  /// `net` must outlive the oracle. `haversine_speed_mps` is only used by
  /// the kHaversine backend.
  DistanceOracle(const RoadNetwork* net, OracleBackend backend,
                 double haversine_speed_mps = 7.0);
  ~DistanceOracle();

  /// SP(u, v, t): quickest-path travel time in seconds at time-of-day `t`.
  /// kInfiniteTime if unreachable. Safe for concurrent callers (see class
  /// comment).
  Seconds Duration(NodeId u, NodeId v, Seconds time_of_day) const;

  /// \brief Eagerly builds the hub-label index for every slot in
  /// [first, last]. No-op for other backends. Call before issuing concurrent
  /// queries so the hot path stays lock-free.
  ///
  /// Parallelism: per-slot HubLabels builds are independent functions of
  /// (network, slot), so cold slots are sharded across `pool` lanes; each
  /// build runs lock-free into shard-private storage and is published with a
  /// release store under `build_mutex_` (the same slot-once discipline
  /// LabelsForSlot uses). Duplicate builds raced by concurrent Duration()
  /// callers are discarded, and the published index for a slot is always the
  /// deterministic HubLabels::Build result — so a warmed oracle serves
  /// durations bit-identical to a serially warmed one for any lane count.
  ///
  /// Thread safety: safe to call concurrently with Duration() on any thread;
  /// do not call WarmSlots itself from inside one of `pool`'s jobs (the pool
  /// is a non-reentrant fork-join primitive).
  ///
  /// Complexity: one HubLabels::Build per cold slot — the dominant term, and
  /// the reason warm-up wall-clock scales ~1/lanes; warm slots cost one
  /// acquire load each.
  void WarmSlots(int first_slot, int last_slot, ThreadPool* pool = nullptr);

  OracleBackend backend() const { return backend_; }
  const RoadNetwork& network() const { return *net_; }

  /// Assumed constant speed of the kHaversine backend (meters/second);
  /// meaningless for the other backends.
  double haversine_speed_mps() const { return haversine_speed_mps_; }

  /// Number of Duration() calls served (for instrumentation). The count is
  /// exact under concurrency (relaxed atomic increments).
  std::uint64_t query_count() const {
    return query_count_.load(std::memory_order_relaxed);
  }

 private:
  const HubLabels& LabelsForSlot(int slot) const;

  const RoadNetwork* net_;
  OracleBackend backend_;
  double haversine_speed_mps_;

  // Per-slot hub-label indices. Published via release stores so concurrent
  // readers of a warmed slot never take build_mutex_. Owned raw pointers
  // (deleted in the destructor) because std::atomic<unique_ptr> is not a
  // thing.
  mutable std::array<std::atomic<HubLabels*>, kSlotsPerDay> labels_ = {};
  mutable std::mutex build_mutex_;
  // Per-slot memo for the Dijkstra backend, keyed by (u, v) packed into 64
  // bits. Cleared when it exceeds kDijkstraCacheCap entries. Guarded by
  // dijkstra_mutex_.
  mutable std::array<std::unordered_map<std::uint64_t, Seconds>, kSlotsPerDay>
      dijkstra_cache_;
  mutable std::mutex dijkstra_mutex_;
  mutable std::atomic<std::uint64_t> query_count_ = 0;

  static constexpr std::size_t kDijkstraCacheCap = 1u << 22;
};

/// \brief Single-owner memo of exact Duration() answers keyed (u, v, slot).
///
/// A memo never changes a result — it stores the oracle's own answer for a
/// key and replays it bit-for-bit — so plugging one into a planner call is
/// purely an optimization. Because a query's answer depends on the time of
/// day only through HourSlot(t), one entry per (u, v, slot) is exact.
///
/// Storage is a flat open-addressing table: a power-of-two array of
/// (key, duration) slots, probed linearly from a multiplicative (Fibonacci)
/// hash of the 64-bit key. The all-ones key marks an empty slot; real keys
/// are < num_nodes² · kSlotsPerDay, which stays below it for any network of
/// fewer than 2^29 nodes. The table doubles before its load would pass 3/4,
/// so a grown table is 3/8 to 3/4 full and an entry costs 21–43 bytes of
/// 16-byte slots. The more common 1/2 bound would cost 32–64 bytes, more
/// than a std::unordered_map node; peak memory is a benchmarked metric.
/// When the table already holds `kCap` entries, the next miss clears it
/// (capacity is kept), so long services stay bounded.
///
/// Thread safety: none. Callers in sharded loops keep one memo per shard
/// (determinism is unaffected either way: hit or miss, the value returned
/// is the oracle's).
///
/// Complexity: O(1) expected per query (one hash multiply, a short linear
/// probe); a growth step rehashes every entry once, amortized O(1).
class DurationMemo {
 public:
  DurationMemo() { Rehash(kMinCapacity); }

  Seconds Duration(const DistanceOracle& oracle, NodeId u, NodeId v,
                   Seconds time_of_day) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(u) * oracle.network().num_nodes() +
         static_cast<std::uint64_t>(v)) *
            kSlotsPerDay +
        static_cast<std::uint64_t>(HourSlot(time_of_day));
    for (std::size_t i = Home(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.key == key) {
        ++hits_;
        return slot.value;
      }
      if (slot.key == kEmptyKey) break;
    }
    ++misses_;
    const Seconds d = oracle.Duration(u, v, time_of_day);
    Insert(key, d);
    return d;
  }

  /// Drops every entry; the table keeps its capacity.
  void Clear();
  std::size_t size() const { return size_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  struct Slot {
    std::uint64_t key = kEmptyKey;
    Seconds value = 0.0;
  };

  static constexpr std::size_t kMinCapacity = 1u << 10;
  static constexpr std::size_t kCap = 1u << 22;

  std::size_t Home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  // Stores a key known to be absent, growing or self-clearing first.
  void Insert(std::uint64_t key, Seconds value);
  // Reallocates to `capacity` slots (a power of two) and reinserts every
  // entry.
  void Rehash(std::size_t capacity);

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 0;
  std::size_t size_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace fm

#endif  // FOODMATCH_GRAPH_DISTANCE_ORACLE_H_
