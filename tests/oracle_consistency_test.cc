// Cross-index consistency: the exact shortest-path engines (Dijkstra and hub
// labels) must agree on every slot of a generated city, and the planner
// stack must produce identical decisions on top of either of them.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/city_gen.h"
#include "graph/dijkstra.h"
#include "graph/distance_oracle.h"
#include "graph/hub_labels.h"
#include "routing/route_planner.h"

namespace fm {
namespace {

class OracleConsistencyTest : public ::testing::TestWithParam<int> {
 protected:
  OracleConsistencyTest() {
    CityGenParams params;
    params.grid_width = 9;
    params.grid_height = 9;
    params.congestion = UrbanCongestion(2.1);
    params.congestion_noise = 0.2;
    Rng rng(505);
    net_ = GenerateGridCity(params, rng);
  }

  RoadNetwork net_;
};

TEST_P(OracleConsistencyTest, AllEnginesAgreeOnSlot) {
  const int slot = GetParam() * 4 + 1;  // slots 1, 5, 9, 13, 17, 21
  HubLabels labels = HubLabels::Build(net_, slot);
  Rng pick(600 + slot);
  for (int trial = 0; trial < 50; ++trial) {
    const NodeId s = static_cast<NodeId>(pick.UniformInt(net_.num_nodes()));
    const NodeId t = static_cast<NodeId>(pick.UniformInt(net_.num_nodes()));
    const Seconds reference = PointToPointTime(net_, s, t, slot);
    EXPECT_NEAR(labels.Query(s, t), reference, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Slots, OracleConsistencyTest, ::testing::Range(0, 6));

TEST(OracleConsistencyPlannerTest, PlansIdenticalUnderBothBackends) {
  CityGenParams params;
  params.grid_width = 8;
  params.grid_height = 8;
  params.congestion = UrbanCongestion(1.7);
  Rng rng(510);
  RoadNetwork net = GenerateGridCity(params, rng);
  DistanceOracle hub(&net, OracleBackend::kHubLabels);
  DistanceOracle dij(&net, OracleBackend::kDijkstra);

  Rng orders_rng(511);
  for (int trial = 0; trial < 15; ++trial) {
    PlanRequest req;
    req.start = static_cast<NodeId>(orders_rng.UniformInt(net.num_nodes()));
    req.start_time = orders_rng.UniformRange(0.0, kSecondsPerDay - 7200.0);
    const int n = orders_rng.UniformIntRange(1, 3);
    for (int i = 0; i < n; ++i) {
      Order o;
      o.id = static_cast<OrderId>(i);
      o.restaurant =
          static_cast<NodeId>(orders_rng.UniformInt(net.num_nodes()));
      o.customer =
          static_cast<NodeId>(orders_rng.UniformInt(net.num_nodes()));
      o.placed_at = req.start_time - 60.0;
      o.prep_time = orders_rng.UniformRange(0.0, 900.0);
      req.to_pick.push_back(o);
    }
    const PlanResult a = PlanOptimalRoute(hub, req);
    const PlanResult b = PlanOptimalRoute(dij, req);
    ASSERT_EQ(a.feasible, b.feasible);
    if (a.feasible) {
      EXPECT_NEAR(a.cost, b.cost, 1e-9) << "trial " << trial;
      EXPECT_EQ(a.plan.stops, b.plan.stops) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace fm
