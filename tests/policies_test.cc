#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/greedy_policy.h"
#include "core/matching_policy.h"
#include "core/reyes_policy.h"
#include "graph/distance_oracle.h"
#include "routing/route_planner.h"
#include "tests/test_util.h"

namespace fm {
namespace {

Order MakeOrder(OrderId id, NodeId r, NodeId c, Seconds placed = 0.0,
                Seconds prep = 0.0, int items = 1) {
  Order o;
  o.id = id;
  o.restaurant = r;
  o.customer = c;
  o.placed_at = placed;
  o.prep_time = prep;
  o.items = items;
  return o;
}

VehicleSnapshot MakeVehicle(VehicleId id, NodeId at) {
  VehicleSnapshot v;
  v.id = id;
  v.location = at;
  v.next_destination = at;
  return v;
}

// No order may be assigned twice, no vehicle beyond capacity.
void CheckDecisionSane(const AssignmentDecision& d, const Config& config) {
  std::set<OrderId> orders_seen;
  std::map<VehicleId, int> orders_per_vehicle;
  for (const auto& item : d.assignments) {
    EXPECT_NE(item.vehicle, kInvalidVehicle);
    for (const Order& o : item.orders) {
      EXPECT_TRUE(orders_seen.insert(o.id).second)
          << "order " << o.id << " assigned twice";
      orders_per_vehicle[item.vehicle] += 1;
    }
  }
  for (const auto& [v, n] : orders_per_vehicle) {
    EXPECT_LE(n, config.max_orders_per_vehicle);
  }
}

class PoliciesTest : public ::testing::Test {
 protected:
  PoliciesTest()
      : net_(testing::LineNetwork(30, 60.0)),
        oracle_(&net_, OracleBackend::kDijkstra) {}

  RoadNetwork net_;
  DistanceOracle oracle_;
  Config config_;
};

// ---------- Greedy ----------

TEST_F(PoliciesTest, GreedyAssignsNearestVehicle) {
  GreedyPolicy greedy(&oracle_, config_);
  std::vector<Order> orders = {MakeOrder(0, 10, 12)};
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 0),
                                           MakeVehicle(1, 9)};
  auto d = greedy.Assign(orders, vehicles, 0.0);
  CheckDecisionSane(d, config_);
  ASSERT_EQ(d.assignments.size(), 1u);
  EXPECT_EQ(d.assignments[0].vehicle, 1u);
}

TEST_F(PoliciesTest, GreedyAssignsAllWhenCapacityAllows) {
  GreedyPolicy greedy(&oracle_, config_);
  std::vector<Order> orders = {MakeOrder(0, 5, 6), MakeOrder(1, 7, 8),
                               MakeOrder(2, 9, 10)};
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 5)};
  auto d = greedy.Assign(orders, vehicles, 0.0);
  CheckDecisionSane(d, config_);
  EXPECT_EQ(d.assignments.size(), 3u);  // MAXO=3 on one vehicle
}

// Greedy's decision time is covered by its phase profile, like every other
// policy's (the profile is the only per-phase view of decision time).
TEST_F(PoliciesTest, GreedyRecordsItsDecisionPhase) {
  GreedyPolicy greedy(&oracle_, config_);
  std::vector<Order> orders = {MakeOrder(0, 5, 6), MakeOrder(1, 7, 8)};
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 5),
                                           MakeVehicle(1, 9)};
  auto d = greedy.Assign(orders, vehicles, 0.0);
  ASSERT_FALSE(d.profile.empty());
  ASSERT_EQ(d.profile.phases().count("greedy.assign"), 1u);
  EXPECT_EQ(d.profile.phases().at("greedy.assign").calls, 1u);
  EXPECT_GE(d.profile.phases().at("greedy.assign").seconds, 0.0);
}

TEST_F(PoliciesTest, GreedyRespectsMaxOrders) {
  Config config = config_;
  config.max_orders_per_vehicle = 1;
  GreedyPolicy greedy(&oracle_, config);
  std::vector<Order> orders = {MakeOrder(0, 5, 6), MakeOrder(1, 7, 8)};
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 5)};
  auto d = greedy.Assign(orders, vehicles, 0.0);
  CheckDecisionSane(d, config);
  EXPECT_EQ(d.assignments.size(), 1u);
}

TEST_F(PoliciesTest, GreedyEmptyInputs) {
  GreedyPolicy greedy(&oracle_, config_);
  EXPECT_TRUE(greedy.Assign({}, {MakeVehicle(0, 0)}, 0.0).assignments.empty());
  EXPECT_TRUE(greedy.Assign({MakeOrder(0, 1, 2)}, {}, 0.0).assignments.empty());
  EXPECT_FALSE(greedy.wants_reshuffle());
}

// ---------- MatchingPolicy ----------

TEST_F(PoliciesTest, VanillaKMDoesOneToOneAssignment) {
  MatchingPolicy km(&oracle_, config_, MatchingPolicyOptions::VanillaKM());
  EXPECT_EQ(km.name(), "KM");
  EXPECT_FALSE(km.wants_reshuffle());
  std::vector<Order> orders = {MakeOrder(0, 5, 6), MakeOrder(1, 7, 8)};
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 5),
                                           MakeVehicle(1, 7)};
  auto d = km.Assign(orders, vehicles, 0.0);
  CheckDecisionSane(d, config_);
  ASSERT_EQ(d.assignments.size(), 2u);
  // No batching: one order per item.
  for (const auto& item : d.assignments) {
    EXPECT_EQ(item.orders.size(), 1u);
  }
}

TEST_F(PoliciesTest, MatchingBeatsGreedyOnAdversarialInstance) {
  // The §III limitation: greedy's locally optimal first pick forces a bad
  // global outcome. With prep = 0 and MAXO = 1, mCost(o, v) is the first
  // mile. Restaurants at nodes 9 and 12; vehicles at 11 and 14:
  //   mCost(o0, v0)=120  mCost(o0, v1)=300
  //   mCost(o1, v0)= 60  mCost(o1, v1)=120
  // Greedy grabs (o1, v0)=60 and must pay (o0, v1)=300 → 360.
  // Matching: o0→v0 (120) + o1→v1 (120) → 240.
  Config config = config_;
  config.max_orders_per_vehicle = 1;
  std::vector<Order> orders = {MakeOrder(0, 9, 8), MakeOrder(1, 12, 13)};
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 11),
                                           MakeVehicle(1, 14)};

  GreedyPolicy greedy(&oracle_, config);
  MatchingPolicy km(&oracle_, config, MatchingPolicyOptions::VanillaKM());

  auto total_cost = [&](const AssignmentDecision& d) {
    Seconds total = 0.0;
    std::map<VehicleId, VehicleSnapshot> state;
    for (const auto& v : vehicles) state[v.id] = v;
    for (const auto& item : d.assignments) {
      total += MarginalCost(oracle_, state[item.vehicle], 0.0, item.orders);
      for (const Order& o : item.orders) {
        state[item.vehicle].unpicked.push_back(o);
      }
    }
    return total;
  };

  const Seconds g = total_cost(greedy.Assign(orders, vehicles, 0.0));
  const Seconds m = total_cost(km.Assign(orders, vehicles, 0.0));
  EXPECT_DOUBLE_EQ(g, 360.0);
  EXPECT_DOUBLE_EQ(m, 240.0);
}

TEST_F(PoliciesTest, FoodMatchBatchesCoLocatedOrders) {
  MatchingPolicy fm_policy(&oracle_, config_,
                           MatchingPolicyOptions::FoodMatch());
  EXPECT_EQ(fm_policy.name(), "FoodMatch");
  EXPECT_TRUE(fm_policy.wants_reshuffle());
  std::vector<Order> orders = {MakeOrder(0, 5, 10), MakeOrder(1, 5, 11)};
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 4)};
  auto d = fm_policy.Assign(orders, vehicles, 0.0);
  CheckDecisionSane(d, config_);
  ASSERT_EQ(d.assignments.size(), 1u);
  EXPECT_EQ(d.assignments[0].orders.size(), 2u);  // batched
}

TEST_F(PoliciesTest, MoreOrdersThanVehiclesLeavesSomeUnassigned) {
  MatchingPolicy km(&oracle_, config_, MatchingPolicyOptions::VanillaKM());
  std::vector<Order> orders = {MakeOrder(0, 5, 6), MakeOrder(1, 7, 8),
                               MakeOrder(2, 9, 10)};
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 5)};
  auto d = km.Assign(orders, vehicles, 0.0);
  CheckDecisionSane(d, config_);
  // KM matches min(|U1|, |U2|) = 1 pair (no batching).
  EXPECT_EQ(d.assignments.size(), 1u);
}

TEST_F(PoliciesTest, AblationNames) {
  MatchingPolicy br(&oracle_, config_,
                    MatchingPolicyOptions::BatchingAndReshuffle());
  EXPECT_EQ(br.name(), "KM+B&R");
  MatchingPolicy brb(&oracle_, config_,
                     MatchingPolicyOptions::BatchingReshuffleBestFirst());
  EXPECT_EQ(brb.name(), "KM+B&R+BFS");
}

TEST_F(PoliciesTest, OmegaEdgesAreNeverAssigned) {
  // Vehicle too far (over the 45-minute promise): no assignment results.
  Config config = config_;
  config.max_first_mile = 120.0;
  MatchingPolicy km(&oracle_, config, MatchingPolicyOptions::VanillaKM());
  std::vector<Order> orders = {MakeOrder(0, 20, 22)};
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 0)};
  auto d = km.Assign(orders, vehicles, 0.0);
  EXPECT_TRUE(d.assignments.empty());
}

// ---------- Reyes ----------

TEST_F(PoliciesTest, ReyesBatchesOnlySameRestaurant) {
  ReyesPolicy reyes(&net_, config_);
  EXPECT_EQ(reyes.name(), "Reyes");
  EXPECT_FALSE(reyes.wants_reshuffle());
  std::vector<Order> orders = {
      MakeOrder(0, 5, 10), MakeOrder(1, 5, 11),  // same restaurant
      MakeOrder(2, 6, 12),                        // different restaurant
  };
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 4),
                                           MakeVehicle(1, 6)};
  auto d = reyes.Assign(orders, vehicles, 0.0);
  CheckDecisionSane(d, config_);
  // Orders 0 and 1 must travel together or not at all; order 2 alone.
  for (const auto& item : d.assignments) {
    std::set<NodeId> restaurants;
    for (const Order& o : item.orders) restaurants.insert(o.restaurant);
    EXPECT_EQ(restaurants.size(), 1u);
  }
}

TEST_F(PoliciesTest, ReyesRespectsCapacityWhenChunking) {
  Config config = config_;
  config.max_orders_per_vehicle = 2;
  ReyesPolicy reyes(&net_, config);
  std::vector<Order> orders;
  for (int i = 0; i < 5; ++i) orders.push_back(MakeOrder(i, 5, 10 + i));
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 4),
                                           MakeVehicle(1, 5),
                                           MakeVehicle(2, 6)};
  auto d = reyes.Assign(orders, vehicles, 0.0);
  CheckDecisionSane(d, config);
  for (const auto& item : d.assignments) {
    EXPECT_LE(item.orders.size(), 2u);
  }
}

}  // namespace
}  // namespace fm
