#include "core/food_graph.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "common/profiler.h"
#include "common/time.h"
#include "core/edge_cache.h"
#include "geo/geo.h"
#include "routing/route_planner.h"

namespace fm {
namespace {

// Per-vehicle lazily computed base-route cost: mCost(π, v) = cost(plan with
// π) − cost(plan without), and the "without" term depends only on (v, now),
// so one evaluation serves every candidate batch of the vehicle. Computing
// it lazily (on the first pair that passes the first-mile gate) issues
// exactly the planner calls an unhoisted per-pair evaluation would.
struct LazyBase {
  bool computed = false;
  Seconds value = kInfiniteTime;
};

// VΠ as a CSR index: the batch rows starting at each candidate first-pickup
// node, ascending, with an O(1) node → slot lookup. Built serially in
// O(|batches| log |batches| + |V|), read lock-free by every shard.
struct StartIndex {
  std::vector<std::int32_t> slot_of;   // node → index into offsets, or -1
  std::vector<std::uint32_t> offsets;  // per start node, plus one end offset
  std::vector<std::uint32_t> rows;     // batch indices, ascending per node

  bool empty() const { return rows.empty(); }

  // [begin, end) into `rows` for `node`; empty when no batch starts there.
  std::pair<const std::uint32_t*, const std::uint32_t*> RowsAt(
      NodeId node) const {
    const std::int32_t idx = slot_of[node];
    if (idx < 0) return {nullptr, nullptr};
    return {rows.data() + offsets[idx], rows.data() + offsets[idx + 1]};
  }
};

StartIndex BuildStartIndex(const std::vector<Batch>& batches,
                           std::size_t num_nodes) {
  StartIndex index;
  std::vector<std::pair<NodeId, std::uint32_t>> pairs;
  pairs.reserve(batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    if (batches[i].cost == kInfiniteTime) continue;  // unroutable batch
    pairs.emplace_back(batches[i].first_pickup, static_cast<std::uint32_t>(i));
  }
  // Lexicographic sort keeps rows ascending per node.
  std::sort(pairs.begin(), pairs.end());
  index.slot_of.assign(num_nodes, -1);
  index.rows.reserve(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const NodeId node = pairs[p].first;
    if (p == 0 || pairs[p - 1].first != node) {
      index.slot_of[node] = static_cast<std::int32_t>(index.offsets.size());
      index.offsets.push_back(static_cast<std::uint32_t>(index.rows.size()));
    }
    index.rows.push_back(pairs[p].second);
  }
  index.offsets.push_back(static_cast<std::uint32_t>(index.rows.size()));
  return index;
}

// Counters one shard accumulates privately; reduced over shards in fixed
// order so totals are identical for any thread count.
struct ShardCounters {
  std::uint64_t mcost_evaluations = 0;
  std::uint64_t nodes_expanded = 0;
  std::uint64_t footprint_replays = 0;
  std::uint64_t footprint_resumes = 0;
  std::uint64_t footprint_rebuilds = 0;
};

// The derived degree bound k (§V-B, with a coverage floor).
int DeriveK(const Config& config, const FoodGraphOptions& options,
            std::size_t num_batches, std::size_t num_vehicles) {
  int k = options.fixed_k;
  if (k <= 0) {
    k = std::max(config.k_min,
                 static_cast<int>(config.k_scale *
                                  static_cast<double>(num_batches) /
                                  static_cast<double>(num_vehicles)));
  }
  return std::max(k, 1);
}

// Inputs shared by every column of one build.
struct BuildContext {
  const DistanceOracle& oracle;
  const Config& config;
  const std::vector<Batch>& batches;
  const StartIndex& starts;  // empty for the full build
  Seconds now;
  int slot;
  int k;             // sparsified degree bound
  Seconds max_beta;  // max β over the slot's edges (Eq. 8 normalizer)
  double gamma;
  bool angular;
};

// Edge weight for one batch-vehicle pair that passed the Def. 4 capacity
// test: min(mCost, Ω), or Ω when the pair is infeasible (unreachable stops,
// or the 45-minute first-mile bound of §V-B). Every leg is answered through
// the shard's memo; `base` carries the vehicle's base-route cost across its
// pairs.
Seconds PairWeight(const BuildContext& ctx, const Batch& batch,
                   const VehicleSnapshot& vehicle, DurationMemo& memo,
                   LazyBase& base) {
  const Seconds omega = ctx.config.rejection_penalty;
  const Seconds first_mile =
      memo.Duration(ctx.oracle, vehicle.location, batch.first_pickup, ctx.now);
  if (first_mile > ctx.config.max_first_mile) return omega;
  if (!base.computed) {
    base.value = BaseRouteCost(ctx.oracle, vehicle, ctx.now, &memo);
    base.computed = true;
  }
  const Seconds mcost = MarginalCostWithBase(ctx.oracle, vehicle, ctx.now,
                                             batch.orders, base.value, &memo);
  if (mcost == kInfiniteTime) return omega;
  return mcost < omega ? mcost : omega;
}

// One vehicle's full column (§IV-A): every capacity-feasible batch gets its
// true weight.
void FillFullColumn(const BuildContext& ctx, const VehicleSnapshot& vehicle,
                    std::size_t j, DurationMemo& memo, FoodGraph& graph,
                    ShardCounters& counters) {
  LazyBase base;
  for (std::size_t i = 0; i < ctx.batches.size(); ++i) {
    const Batch& batch = ctx.batches[i];
    if (batch.cost == kInfiniteTime) continue;  // unroutable batch
    if (!SatisfiesCapacity(ctx.config, batch, vehicle)) continue;
    ++counters.mcost_evaluations;
    graph.cost.set(i, j, PairWeight(ctx, batch, vehicle, memo, base));
  }
}

// Flat per-shard scratch an extension session runs on. The footprint's
// persistent label list is loaded into stamped arrays when a window first
// needs to extend the recorded search (pure replays never open a session),
// the extension loop then relaxes at flat-array speed, and the touched set
// is written back on close. Stamps make reuse across sessions O(touched)
// instead of O(|V|) fills.
struct FootprintScratch {
  std::uint64_t session = 0;
  std::vector<std::uint64_t> label_stamp;  // == session: alpha/beta valid
  std::vector<std::uint64_t> visit_stamp;  // == session: node settled
  std::vector<double> alpha;
  std::vector<Seconds> beta;
  std::vector<NodeId> touched;  // labelled nodes, first-touch order

  explicit FootprintScratch(std::size_t nodes)
      : label_stamp(nodes, 0), visit_stamp(nodes, 0), alpha(nodes),
        beta(nodes) {}

  void Open(const SearchFootprint& fp) {
    ++session;
    touched.clear();
    touched.reserve(fp.labels.size());
    for (const FootprintLabel& label : fp.labels) {
      label_stamp[label.node] = session;
      alpha[label.node] = label.alpha;
      beta[label.node] = label.beta;
      touched.push_back(label.node);
    }
    for (const SearchVisit& visit : fp.visits) {
      visit_stamp[visit.node] = session;
    }
  }

  void Close(SearchFootprint& fp) const {
    fp.labels.clear();
    fp.labels.reserve(touched.size());
    for (NodeId node : touched) {
      fp.labels.push_back({node, alpha[node], beta[node]});
    }
  }
};

// Settles the next node of `fp`'s recorded search live: pops the frontier
// until a fresh node settles (appending it to the visit record) or the
// queue drains (marking the footprint exhausted). One iteration of the
// Alg. 2 search loop (lines 2–20), operating on the session's flat arrays;
// the heap ops are std::priority_queue's push/pop, so the settle order is a
// deterministic function of (source, dest, slot).
bool ExtendOneVisit(SearchFootprint& fp, FootprintScratch& scratch,
                    const RoadNetwork& net, const BuildContext& ctx,
                    const LatLon& source_pos, const LatLon& dest_pos) {
  const std::uint64_t session = scratch.session;
  const auto greater = std::greater<SearchFootprint::QueueEntry>{};
  while (!fp.queue.empty()) {
    const auto [d, u] = fp.queue.front();
    std::pop_heap(fp.queue.begin(), fp.queue.end(), greater);
    fp.queue.pop_back();
    if (scratch.visit_stamp[u] == session) continue;  // lazy-deletion dup
    scratch.visit_stamp[u] = session;
    const Seconds ubeta = scratch.beta[u];
    fp.visits.push_back({u, ubeta});

    // Expand neighbours with the vehicle-sensitive weight α (Eq. 8).
    for (EdgeId e : net.OutEdges(u)) {
      const NodeId v = net.edge_head(e);
      if (scratch.visit_stamp[v] == session) continue;
      const Seconds beta = net.EdgeTime(e, ctx.slot);
      // Bound exploration by the promised first-mile limit: nodes beyond
      // it can only yield Ω edges anyway.
      const Seconds nbeta = ubeta + beta;
      if (nbeta > ctx.config.max_first_mile) continue;
      double alpha = ctx.gamma * beta / ctx.max_beta;
      if (ctx.angular) {
        alpha += (1.0 - ctx.gamma) *
                 AngularDistance(source_pos, dest_pos, net.node_position(v));
      }
      const double nd = d + alpha;
      if (scratch.label_stamp[v] != session) {
        scratch.label_stamp[v] = session;
        scratch.alpha[v] = nd;
        scratch.beta[v] = nbeta;
        scratch.touched.push_back(v);
        fp.queue.push_back({nd, v});
        std::push_heap(fp.queue.begin(), fp.queue.end(), greater);
      } else if (nd < scratch.alpha[v]) {
        scratch.alpha[v] = nd;
        scratch.beta[v] = nbeta;
        fp.queue.push_back({nd, v});
        std::push_heap(fp.queue.begin(), fp.queue.end(), greater);
      }
    }
    return true;
  }
  fp.exhausted = true;
  return false;
}

// One vehicle's sparsified column (Alg. 2) through its search footprint:
// replay the recorded visit sequence (the visit order never depends on the
// batch set or k), extending it live only when this window needs a deeper
// prefix, and give the first k capacity-feasible batches discovered their
// true weights. Batches not discovered keep their Ω initialization
// (line 19).
void RunFootprintSearch(const BuildContext& ctx, SearchFootprint& fp,
                        const VehicleSnapshot& vehicle, std::size_t j,
                        DurationMemo& memo, FootprintScratch& scratch,
                        FoodGraph& graph, ShardCounters& counters) {
  const RoadNetwork& net = ctx.oracle.network();
  const LatLon& source_pos = net.node_position(vehicle.location);
  const LatLon& dest_pos = net.node_position(vehicle.next_destination);

  const bool fresh =
      !fp.Matches(vehicle.location, vehicle.next_destination, ctx.slot);
  if (fresh) {
    fp.Reset(vehicle.location, vehicle.next_destination, ctx.slot);
    ++counters.footprint_rebuilds;
  } else {
    ++counters.footprint_replays;
  }

  LazyBase base;
  int degree = 0;
  std::size_t next_visit = 0;
  bool resumed = false;
  bool session_open = false;  // flat arrays loaded — only once extending
  while (degree < ctx.k) {
    if (next_visit == fp.visits.size()) {
      if (fp.exhausted) break;
      if (!fresh && !resumed) {
        resumed = true;
        ++counters.footprint_resumes;
      }
      if (!session_open) {
        scratch.Open(fp);
        session_open = true;
      }
      if (!ExtendOneVisit(fp, scratch, net, ctx, source_pos, dest_pos)) break;
    }
    const SearchVisit visit = fp.visits[next_visit++];
    ++counters.nodes_expanded;

    // Add true edges to every batch whose route starts here (lines 13–15).
    const auto [row_begin, row_end] = ctx.starts.RowsAt(visit.node);
    for (const std::uint32_t* it = row_begin; it != row_end; ++it) {
      const std::size_t i = *it;
      if (degree >= ctx.k) break;
      if (!SatisfiesCapacity(ctx.config, ctx.batches[i], vehicle)) continue;
      // Beyond the promised first-mile bound no true edge is needed;
      // β-distance along the search tree is a (close) upper proxy.
      if (visit.beta > ctx.config.max_first_mile) continue;
      ++counters.mcost_evaluations;
      graph.cost.set(i, j,
                     PairWeight(ctx, ctx.batches[i], vehicle, memo, base));
      ++degree;
    }
  }
  if (session_open) scratch.Close(fp);
}

}  // namespace

bool SatisfiesCapacity(const Config& config, const Batch& batch,
                       const VehicleSnapshot& vehicle) {
  const int orders_after =
      vehicle.TotalAssignedOrders() + static_cast<int>(batch.orders.size());
  if (orders_after > config.max_orders_per_vehicle) return false;
  const int items_after = vehicle.TotalAssignedItems() + batch.TotalItemCount();
  return items_after <= config.max_items_per_vehicle;
}

FoodGraph BuildFoodGraph(const DistanceOracle& oracle, const Config& config,
                         const FoodGraphOptions& options,
                         const std::vector<Batch>& batches,
                         const std::vector<VehicleSnapshot>& vehicles,
                         Seconds now, ThreadPool* pool, EdgeCache* cache,
                         PhaseProfile* profile) {
  FoodGraph graph(batches.size(), vehicles.size(), config.rejection_penalty);
  if (batches.empty() || vehicles.empty()) return graph;
  std::optional<EdgeCache> cold;
  if (cache == nullptr) cache = &cold.emplace();

  const RoadNetwork& net = oracle.network();
  const int slot = HourSlot(now);
  std::vector<VehicleCacheEntry*> entries;
  StartIndex starts;
  {
    ScopedPhaseTimer timer(profile, "graph.prepare");
    if (options.best_first) {
      entries = cache->BeginWindow(vehicles);
      starts = BuildStartIndex(batches, net.num_nodes());
    }
  }
  if (options.best_first && starts.empty()) return graph;

  const BuildContext ctx{
      .oracle = oracle,
      .config = config,
      .batches = batches,
      .starts = starts,
      .now = now,
      .slot = slot,
      .k = DeriveK(config, options, batches.size(), vehicles.size()),
      .max_beta = net.MaxEdgeTime(slot),
      .gamma = options.angular ? config.gamma : 1.0,
      .angular = options.angular};

  // Vehicles (columns) are sharded: column j is written only by the shard
  // owning vehicle j, through that shard's memo and scratch.
  const int shards = std::max(ShardCount(pool, vehicles.size()), 1);
  cache->EnsureShards(shards);
  std::vector<ShardCounters> counters(static_cast<std::size_t>(shards));
  {
    ScopedPhaseTimer timer(profile, "graph.delta");
    ParallelForShards(
        pool, vehicles.size(),
        [&](int shard, std::size_t begin, std::size_t end) {
          ShardCounters& local = counters[static_cast<std::size_t>(shard)];
          DurationMemo& memo = cache->memo_for_shard(shard);
          if (!options.best_first) {
            for (std::size_t j = begin; j < end; ++j) {
              FillFullColumn(ctx, vehicles[j], j, memo, graph, local);
            }
            return;
          }
          FootprintScratch scratch(net.num_nodes());
          for (std::size_t j = begin; j < end; ++j) {
            RunFootprintSearch(ctx, entries[j]->footprint, vehicles[j], j,
                               memo, scratch, graph, local);
          }
        });
  }
  EdgeCacheStats& stats = cache->stats();
  for (const ShardCounters& c : counters) {
    graph.mcost_evaluations += c.mcost_evaluations;
    graph.nodes_expanded += c.nodes_expanded;
    stats.footprint_replays += c.footprint_replays;
    stats.footprint_resumes += c.footprint_resumes;
    stats.footprint_rebuilds += c.footprint_rebuilds;
  }
  return graph;
}

}  // namespace fm
