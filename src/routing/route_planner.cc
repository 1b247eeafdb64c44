#include "routing/route_planner.h"

#include <algorithm>

#include "common/check.h"
#include "routing/costs.h"

namespace fm {
namespace {

// Shared enumeration state for the DFS planner.
//
// Minimizing Σ XDT over stop sequences is equivalent to minimizing the sum
// of drop-off *arrival times*: XDT(o) = arrive_o − (o^t + SDT(o)) and the
// subtracted term is a sequence-independent constant. Arrival times are
// times of day (nonnegative) and each drop adds one, so the partial sum is
// monotone in the number of placed drops — which makes "partial Σ arrivals
// ≥ best Σ arrivals" a sound branch-and-bound prune even when individual
// XDT values are negative (possible under time-varying slot weights).
struct SearchContext {
  const DistanceOracle* oracle;
  DurationMemo* memo = nullptr;
  // All orders indexed: onboard first, then to_pick.
  std::vector<const Order*> orders;
  std::size_t num_onboard;

  // Current partial sequence.
  std::vector<Stop> stops;
  // picked[i] / dropped[i] refer to orders[i].
  std::vector<bool> picked;
  std::vector<bool> dropped;

  // Best complete sequence found, keyed by Σ drop arrivals.
  bool prune;
  Seconds best_arrival_sum = kInfiniteTime;
  std::vector<Stop> best_stops;
};

// One leg's SP query, through the memo when the caller supplied one. The
// memo replays the oracle's own answers, so the planner's results are
// bit-identical either way.
Seconds Leg(const DistanceOracle& oracle, DurationMemo* memo, NodeId u,
            NodeId v, Seconds t) {
  return memo != nullptr ? memo->Duration(oracle, u, v, t)
                         : oracle.Duration(u, v, t);
}

void Dfs(SearchContext& ctx, NodeId at, Seconds now, Seconds arrival_sum,
         std::size_t placed) {
  const std::size_t total_stops =
      ctx.num_onboard + 2 * (ctx.orders.size() - ctx.num_onboard);
  if (placed == total_stops) {
    if (arrival_sum < ctx.best_arrival_sum) {
      ctx.best_arrival_sum = arrival_sum;
      ctx.best_stops = ctx.stops;
    }
    return;
  }
  if (ctx.prune && arrival_sum >= ctx.best_arrival_sum) return;

  for (std::size_t i = 0; i < ctx.orders.size(); ++i) {
    const Order& order = *ctx.orders[i];
    const bool needs_pickup = i >= ctx.num_onboard;

    // Option A: pick up order i.
    if (needs_pickup && !ctx.picked[i]) {
      Seconds arrive;
      if (at == kInvalidNode) {
        // Free start: vehicle materializes at this pickup.
        arrive = now;
      } else {
        const Seconds leg =
            Leg(*ctx.oracle, ctx.memo, at, order.restaurant, now);
        if (leg == kInfiniteTime) continue;
        arrive = now + leg;
      }
      const Seconds depart = std::max(arrive, order.ready_at());
      ctx.picked[i] = true;
      ctx.stops.push_back({order.restaurant, order.id, StopType::kPickup});
      Dfs(ctx, order.restaurant, depart, arrival_sum, placed + 1);
      ctx.stops.pop_back();
      ctx.picked[i] = false;
    }

    // Option B: drop off order i (if on board).
    const bool on_board = !needs_pickup || ctx.picked[i];
    if (on_board && !ctx.dropped[i]) {
      if (at == kInvalidNode) continue;  // free start must begin at a pickup
      const Seconds leg = Leg(*ctx.oracle, ctx.memo, at, order.customer, now);
      if (leg == kInfiniteTime) continue;
      const Seconds arrive = now + leg;
      ctx.dropped[i] = true;
      ctx.stops.push_back({order.customer, order.id, StopType::kDropoff});
      Dfs(ctx, order.customer, arrive, arrival_sum + arrive, placed + 1);
      ctx.stops.pop_back();
      ctx.dropped[i] = false;
    }
  }
}

PlanResult RunPlanner(const DistanceOracle& oracle, const PlanRequest& request,
                      bool prune, DurationMemo* memo = nullptr) {
  const bool free_start = request.start == kInvalidNode;
  if (free_start) {
    FM_CHECK_MSG(request.onboard.empty(),
                 "free-start plans require an empty onboard set");
  }
  PlanResult result;
  if (request.onboard.empty() && request.to_pick.empty()) {
    // Nothing to do: an empty plan with zero cost.
    result.feasible = true;
    result.cost = 0.0;
    result.completion_time = request.start_time;
    return result;
  }

  SearchContext ctx;
  ctx.oracle = &oracle;
  ctx.memo = memo;
  ctx.num_onboard = request.onboard.size();
  ctx.prune = prune;
  for (const Order& o : request.onboard) ctx.orders.push_back(&o);
  for (const Order& o : request.to_pick) ctx.orders.push_back(&o);
  ctx.picked.assign(ctx.orders.size(), false);
  ctx.dropped.assign(ctx.orders.size(), false);

  Dfs(ctx, request.start, request.start_time, 0.0, 0);

  if (ctx.best_arrival_sum == kInfiniteTime) {
    return result;  // infeasible
  }
  RoutePlan plan;
  plan.stops = std::move(ctx.best_stops);
  return EvaluatePlan(oracle, request, plan, memo);
}

}  // namespace

PlanResult EvaluatePlan(const DistanceOracle& oracle,
                        const PlanRequest& request, const RoutePlan& plan,
                        DurationMemo* memo) {
  FM_CHECK_MSG(IsValidPlan(plan, request.onboard, request.to_pick),
               "plan does not fulfil the request");
  PlanResult result;
  result.plan = plan;
  result.cost = 0.0;

  // Order lookup by id.
  auto find_order = [&](OrderId id) -> const Order& {
    for (const Order& o : request.onboard) {
      if (o.id == id) return o;
    }
    for (const Order& o : request.to_pick) {
      if (o.id == id) return o;
    }
    FM_CHECK_MSG(false, "stop references unknown order");
    static Order dummy;
    return dummy;
  };

  NodeId at = request.start;
  Seconds now = request.start_time;
  for (const Stop& stop : plan.stops) {
    Seconds arrive;
    if (at == kInvalidNode) {
      FM_CHECK(stop.type == StopType::kPickup);
      arrive = now;
    } else {
      const Seconds leg = Leg(oracle, memo, at, stop.node, now);
      if (leg == kInfiniteTime) {
        result.feasible = false;
        result.cost = kInfiniteTime;
        return result;
      }
      arrive = now + leg;
    }
    result.arrival_times.push_back(arrive);
    const Order& order = find_order(stop.order);
    if (stop.type == StopType::kPickup) {
      const Seconds depart = std::max(arrive, order.ready_at());
      result.wait_time += depart - arrive;
      now = depart;
    } else {
      result.cost += ExtraDeliveryTime(oracle, order, arrive, memo);
      now = arrive;
    }
    result.departure_times.push_back(now);
    at = stop.node;
  }
  result.feasible = true;
  result.completion_time = now;
  return result;
}

PlanResult PlanOptimalRoute(const DistanceOracle& oracle,
                            const PlanRequest& request, DurationMemo* memo) {
  return RunPlanner(oracle, request, /*prune=*/true, memo);
}

PlanResult PlanOptimalRouteBruteForce(const DistanceOracle& oracle,
                                      const PlanRequest& request) {
  return RunPlanner(oracle, request, /*prune=*/false);
}

Seconds MarginalCost(const DistanceOracle& oracle, const VehicleSnapshot& v,
                     Seconds now, const std::vector<Order>& extra) {
  return MarginalCostWithBase(oracle, v, now, extra,
                              BaseRouteCost(oracle, v, now));
}

Seconds BaseRouteCost(const DistanceOracle& oracle, const VehicleSnapshot& v,
                      Seconds now, DurationMemo* memo) {
  PlanRequest base;
  base.start = v.location;
  base.start_time = now;
  base.onboard = v.picked;
  base.to_pick = v.unpicked;
  const PlanResult before = PlanOptimalRoute(oracle, base, memo);
  if (!before.feasible) return kInfiniteTime;
  return before.cost;
}

Seconds MarginalCostWithBase(const DistanceOracle& oracle,
                             const VehicleSnapshot& v, Seconds now,
                             const std::vector<Order>& extra, Seconds base_cost,
                             DurationMemo* memo) {
  if (base_cost == kInfiniteTime) return kInfiniteTime;

  PlanRequest with;
  with.start = v.location;
  with.start_time = now;
  with.onboard = v.picked;
  with.to_pick = v.unpicked;
  with.to_pick.insert(with.to_pick.end(), extra.begin(), extra.end());
  const PlanResult after = PlanOptimalRoute(oracle, with, memo);
  if (!after.feasible) return kInfiniteTime;

  return after.cost - base_cost;
}

}  // namespace fm
