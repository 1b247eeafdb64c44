#include "core/greedy_policy.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/profiler.h"
#include "routing/route_planner.h"

namespace fm {
namespace {

// Feasibility of adding one order to a vehicle (Def. 4) including the
// 45-minute first-mile bound used operationally (§V-B).
bool Feasible(const DistanceOracle& oracle, const Config& config,
              const Order& order, const VehicleSnapshot& vehicle,
              Seconds now) {
  if (vehicle.TotalAssignedOrders() + 1 > config.max_orders_per_vehicle) {
    return false;
  }
  if (vehicle.TotalAssignedItems() + order.items >
      config.max_items_per_vehicle) {
    return false;
  }
  return oracle.Duration(vehicle.location, order.restaurant, now) <=
         config.max_first_mile;
}

}  // namespace

GreedyPolicy::GreedyPolicy(const DistanceOracle* oracle, const Config& config)
    : oracle_(oracle), config_(config) {
  FM_CHECK(oracle != nullptr);
  config_.Validate();
}

AssignmentDecision GreedyPolicy::Assign(
    const std::vector<Order>& unassigned,
    const std::vector<VehicleSnapshot>& vehicles, Seconds now) {
  AssignmentDecision decision;
  const std::size_t n = unassigned.size();
  const std::size_t m = vehicles.size();
  if (n == 0 || m == 0) return decision;

  // One phase covers the whole decision, so the profile accounts for all of
  // Greedy's decision time.
  {
    ScopedPhaseTimer timer(&decision.profile, "greedy.assign");
    // Working copy of vehicle states: greedy mutates order sets as it assigns.
    std::vector<VehicleSnapshot> state = vehicles;

    constexpr double kInf = std::numeric_limits<double>::infinity();
    // cost[o][v] = mCost(o, v); recomputed per column after each assignment.
    std::vector<std::vector<double>> cost(n, std::vector<double>(m, kInf));
    std::vector<bool> order_done(n, false);

    auto evaluate = [&](std::size_t o, std::size_t v) {
      if (!Feasible(*oracle_, config_, unassigned[o], state[v], now)) {
        cost[o][v] = kInf;
        return;
      }
      ++decision.cost_evaluations;
      const Seconds mc =
          MarginalCost(*oracle_, state[v], now, {unassigned[o]});
      cost[o][v] = (mc == kInfiniteTime || mc >= config_.rejection_penalty)
                       ? kInf
                       : mc;
    };

    for (std::size_t o = 0; o < n; ++o) {
      for (std::size_t v = 0; v < m; ++v) evaluate(o, v);
    }

    // Map from assigned vehicle index to its decision item (so multiple
    // orders assigned to one vehicle emit separate single-order items, as the
    // greedy algorithm assigns orders one at a time).
    while (true) {
      double best = kInf;
      std::size_t best_o = 0;
      std::size_t best_v = 0;
      for (std::size_t o = 0; o < n; ++o) {
        if (order_done[o]) continue;
        for (std::size_t v = 0; v < m; ++v) {
          if (cost[o][v] < best) {
            best = cost[o][v];
            best_o = o;
            best_v = v;
          }
        }
      }
      if (best == kInf) break;  // no further feasible assignment

      order_done[best_o] = true;
      state[best_v].unpicked.push_back(unassigned[best_o]);
      decision.assignments.push_back(
          {{unassigned[best_o]}, state[best_v].id});

      // Re-evaluate the chosen vehicle's column for the remaining orders.
      for (std::size_t o = 0; o < n; ++o) {
        if (!order_done[o]) evaluate(o, best_v);
      }
    }
  }
  return decision;
}

}  // namespace fm
