#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/time.h"
#include "core/batching.h"
#include "core/food_graph.h"
#include "geo/geo.h"
#include "graph/distance_oracle.h"
#include "routing/route_planner.h"
#include "tests/test_util.h"

namespace fm {
namespace {

Order MakeOrder(OrderId id, NodeId r, NodeId c, int items = 1) {
  Order o;
  o.id = id;
  o.restaurant = r;
  o.customer = c;
  o.placed_at = 0.0;
  o.prep_time = 0.0;
  o.items = items;
  return o;
}

FoodGraphOptions Full() {
  FoodGraphOptions options;
  options.best_first = false;
  return options;
}

VehicleSnapshot MakeVehicle(VehicleId id, NodeId at) {
  VehicleSnapshot v;
  v.id = id;
  v.location = at;
  v.next_destination = at;
  return v;
}

class FoodGraphTest : public ::testing::Test {
 protected:
  FoodGraphTest()
      : net_(testing::LineNetwork(30, 60.0)),
        oracle_(&net_, OracleBackend::kDijkstra) {}

  std::vector<Batch> Singletons(const std::vector<Order>& orders) {
    std::vector<Batch> batches;
    for (const Order& o : orders) {
      batches.push_back(MakeSingletonBatch(oracle_, o, 0.0));
    }
    return batches;
  }

  RoadNetwork net_;
  DistanceOracle oracle_;
  Config config_;
};

TEST_F(FoodGraphTest, SatisfiesCapacityChecks) {
  Batch b = MakeSingletonBatch(oracle_, MakeOrder(0, 1, 2, /*items=*/4), 0.0);
  VehicleSnapshot v = MakeVehicle(0, 0);
  EXPECT_TRUE(SatisfiesCapacity(config_, b, v));

  v.picked = {MakeOrder(1, 1, 2, 4), MakeOrder(2, 1, 2, 4)};
  // items 4+4+4 = 12 > MAXI=10.
  EXPECT_FALSE(SatisfiesCapacity(config_, b, v));

  VehicleSnapshot full = MakeVehicle(1, 0);
  full.picked = {MakeOrder(3, 1, 2), MakeOrder(4, 1, 2), MakeOrder(5, 1, 2)};
  EXPECT_FALSE(SatisfiesCapacity(config_, b, full));  // MAXO=3 reached
}

TEST_F(FoodGraphTest, FullGraphWeightsAreMarginalCosts) {
  std::vector<Order> orders = {MakeOrder(0, 10, 12)};
  auto batches = Singletons(orders);
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 0),
                                           MakeVehicle(1, 10)};
  FoodGraph g =
      BuildFoodGraph(oracle_, config_, Full(), batches, vehicles, 0.0);
  // Vehicle at node 10 is at the restaurant: mCost = XDT = 0.
  EXPECT_NEAR(g.cost.at(0, 1), 0.0, 1e-9);
  // Vehicle at node 0: first mile 600 s, prep 0 → XDT = 600.
  EXPECT_NEAR(g.cost.at(0, 0), 600.0, 1e-9);
  EXPECT_EQ(g.mcost_evaluations, 2u);
}

TEST_F(FoodGraphTest, CapacityViolationsGetOmega) {
  std::vector<Order> orders = {MakeOrder(0, 10, 12)};
  auto batches = Singletons(orders);
  VehicleSnapshot full = MakeVehicle(0, 10);
  full.picked = {MakeOrder(1, 1, 2), MakeOrder(2, 1, 2), MakeOrder(3, 1, 2)};
  FoodGraph g =
      BuildFoodGraph(oracle_, config_, Full(), batches, {full}, 0.0);
  EXPECT_DOUBLE_EQ(g.cost.at(0, 0), config_.rejection_penalty);
  EXPECT_EQ(g.mcost_evaluations, 0u);  // pruned before evaluation
}

TEST_F(FoodGraphTest, FirstMileBeyondPromiseGetsOmega) {
  Config config = config_;
  config.max_first_mile = 120.0;  // only 2 nodes away
  std::vector<Order> orders = {MakeOrder(0, 10, 12)};
  auto batches = Singletons(orders);
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 0),   // 600 s away
                                           MakeVehicle(1, 9)};  // 60 s away
  FoodGraph g =
      BuildFoodGraph(oracle_, config, Full(), batches, vehicles, 0.0);
  EXPECT_DOUBLE_EQ(g.cost.at(0, 0), config.rejection_penalty);
  EXPECT_LT(g.cost.at(0, 1), config.rejection_penalty);
}

TEST_F(FoodGraphTest, SparsifiedKeepsKNearest) {
  // 5 batches at increasing distance from the vehicle; k=2 must keep only
  // the two nearest with true weights (Lemma 1, angular off).
  std::vector<Order> orders;
  for (int i = 0; i < 5; ++i) {
    orders.push_back(MakeOrder(i, static_cast<NodeId>(4 + 5 * i),
                               static_cast<NodeId>(5 + 5 * i)));
  }
  auto batches = Singletons(orders);
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 0)};
  FoodGraphOptions options;
  options.best_first = true;
  options.angular = false;
  options.fixed_k = 2;
  FoodGraph g =
      BuildFoodGraph(oracle_, config_, options, batches, vehicles, 0.0);
  int true_edges = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    if (g.cost.at(i, 0) < config_.rejection_penalty) ++true_edges;
  }
  EXPECT_EQ(true_edges, 2);
  // The nearest two batches (restaurants at nodes 4 and 9) hold the edges.
  EXPECT_LT(g.cost.at(0, 0), config_.rejection_penalty);
  EXPECT_LT(g.cost.at(1, 0), config_.rejection_penalty);
  EXPECT_DOUBLE_EQ(g.cost.at(4, 0), config_.rejection_penalty);
}

TEST_F(FoodGraphTest, SparsifiedMatchesFullOnKeptEdges) {
  // Wherever the sparsified graph has a true edge, its weight must equal
  // the full graph's weight (Alg. 2 computes the same mCost).
  Rng rng(21);
  std::vector<Order> orders;
  for (int i = 0; i < 8; ++i) {
    orders.push_back(MakeOrder(i, static_cast<NodeId>(rng.UniformInt(30)),
                               static_cast<NodeId>(rng.UniformInt(30))));
  }
  auto batches = Singletons(orders);
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 3),
                                           MakeVehicle(1, 20)};
  FoodGraphOptions options;
  options.best_first = true;
  options.angular = false;
  options.fixed_k = 4;
  FoodGraph sparse =
      BuildFoodGraph(oracle_, config_, options, batches, vehicles, 0.0);
  FoodGraph full =
      BuildFoodGraph(oracle_, config_, Full(), batches, vehicles, 0.0);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    for (std::size_t j = 0; j < vehicles.size(); ++j) {
      if (sparse.cost.at(i, j) < config_.rejection_penalty) {
        EXPECT_NEAR(sparse.cost.at(i, j), full.cost.at(i, j), 1e-9);
      }
    }
  }
  EXPECT_LE(sparse.mcost_evaluations, full.mcost_evaluations);
}

TEST_F(FoodGraphTest, LargeKDegradesToFullCoverage) {
  std::vector<Order> orders = {MakeOrder(0, 4, 6), MakeOrder(1, 8, 9)};
  auto batches = Singletons(orders);
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 5)};
  FoodGraphOptions options;
  options.best_first = true;
  options.angular = false;
  options.fixed_k = 100;
  FoodGraph g =
      BuildFoodGraph(oracle_, config_, options, batches, vehicles, 0.0);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_LT(g.cost.at(i, 0), config_.rejection_penalty);
  }
}

TEST_F(FoodGraphTest, AngularDistanceSteersSearch) {
  // Vehicle at the middle of the line heading toward node 29 (east). With
  // angular on and k=1, the discovered batch should be the one ahead, even
  // though the one behind is nearer in travel time.
  std::vector<Order> orders = {
      MakeOrder(0, 12, 11),  // behind (3 hops west)
      MakeOrder(1, 19, 20),  // ahead (4 hops east)
  };
  auto batches = Singletons(orders);
  VehicleSnapshot v = MakeVehicle(0, 15);
  v.next_destination = 29;
  FoodGraphOptions options;
  options.best_first = true;
  options.angular = true;
  options.fixed_k = 1;
  Config config = config_;
  config.gamma = 0.1;  // emphasize direction
  FoodGraph g =
      BuildFoodGraph(oracle_, config, options, batches, {v}, 0.0);
  EXPECT_LT(g.cost.at(1, 0), config.rejection_penalty);   // ahead: kept
  EXPECT_DOUBLE_EQ(g.cost.at(0, 0), config.rejection_penalty);  // behind: Ω
}

TEST_F(FoodGraphTest, DispatchRespectsOptions) {
  std::vector<Order> orders = {MakeOrder(0, 4, 6)};
  auto batches = Singletons(orders);
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 5)};
  FoodGraphOptions full_options;
  full_options.best_first = false;
  FoodGraph full = BuildFoodGraph(oracle_, config_, full_options, batches,
                                  vehicles, 0.0);
  EXPECT_EQ(full.nodes_expanded, 0u);
  FoodGraphOptions sparse_options;
  sparse_options.best_first = true;
  FoodGraph sparse = BuildFoodGraph(oracle_, config_, sparse_options, batches,
                                    vehicles, 0.0);
  EXPECT_GT(sparse.nodes_expanded, 0u);
}

TEST_F(FoodGraphTest, ParallelFillIsBitIdenticalToSerial) {
  // The tentpole determinism contract: both constructions must produce the
  // same matrix and counters for any thread count.
  Rng rng(99);
  std::vector<Order> orders;
  for (int i = 0; i < 18; ++i) {
    orders.push_back(MakeOrder(i, static_cast<NodeId>(rng.UniformInt(30)),
                               static_cast<NodeId>(rng.UniformInt(30))));
  }
  std::vector<Batch> batches = Singletons(orders);
  std::vector<VehicleSnapshot> vehicles;
  for (int i = 0; i < 11; ++i) {
    vehicles.push_back(
        MakeVehicle(i, static_cast<NodeId>(rng.UniformInt(30))));
  }

  for (bool best_first : {false, true}) {
    FoodGraphOptions options;
    options.best_first = best_first;
    const FoodGraph serial =
        BuildFoodGraph(oracle_, config_, options, batches, vehicles, 0.0);
    for (int threads : {2, 4, 7}) {
      ThreadPool pool(threads);
      const FoodGraph parallel = BuildFoodGraph(oracle_, config_, options,
                                                batches, vehicles, 0.0, &pool);
      EXPECT_EQ(parallel.mcost_evaluations, serial.mcost_evaluations)
          << "best_first=" << best_first << " threads=" << threads;
      EXPECT_EQ(parallel.nodes_expanded, serial.nodes_expanded);
      ASSERT_EQ(parallel.cost.rows(), serial.cost.rows());
      ASSERT_EQ(parallel.cost.cols(), serial.cost.cols());
      for (std::size_t i = 0; i < serial.cost.rows(); ++i) {
        for (std::size_t j = 0; j < serial.cost.cols(); ++j) {
          // Bit-identical, not approximately equal.
          EXPECT_EQ(parallel.cost.at(i, j), serial.cost.at(i, j))
              << "(" << i << "," << j << ") best_first=" << best_first
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST_F(FoodGraphTest, EmptyInputs) {
  FoodGraph g1 = BuildFoodGraph(oracle_, config_, Full(), {}, {}, 0.0);
  EXPECT_EQ(g1.cost.rows(), 0u);
  FoodGraphOptions options;
  FoodGraph g2 =
      BuildFoodGraph(oracle_, config_, options, {}, {MakeVehicle(0, 0)}, 0.0);
  EXPECT_EQ(g2.cost.rows(), 0u);
  EXPECT_EQ(g2.cost.cols(), 1u);
}

// The FOODGRAPH written straight from the paper — §IV-A for the full graph,
// Alg. 2 with a plain priority-queue search for the sparsified one — with
// no cache, memo or sharding: the independent reference BuildFoodGraph is
// compared against. Requires options.fixed_k > 0.
FoodGraph ReferenceFoodGraph(const DistanceOracle& oracle,
                             const Config& config,
                             const FoodGraphOptions& options,
                             const std::vector<Batch>& batches,
                             const std::vector<VehicleSnapshot>& vehicles,
                             Seconds now) {
  const Seconds omega = config.rejection_penalty;
  FoodGraph graph(batches.size(), vehicles.size(), omega);
  const auto weight = [&](const Batch& batch, const VehicleSnapshot& v) {
    if (oracle.Duration(v.location, batch.first_pickup, now) >
        config.max_first_mile) {
      return omega;
    }
    const Seconds mcost = MarginalCost(oracle, v, now, batch.orders);
    return mcost < omega ? mcost : omega;
  };
  if (!options.best_first) {
    for (std::size_t i = 0; i < batches.size(); ++i) {
      if (batches[i].cost == kInfiniteTime) continue;
      for (std::size_t j = 0; j < vehicles.size(); ++j) {
        if (!SatisfiesCapacity(config, batches[i], vehicles[j])) continue;
        ++graph.mcost_evaluations;
        graph.cost.set(i, j, weight(batches[i], vehicles[j]));
      }
    }
    return graph;
  }

  const RoadNetwork& net = oracle.network();
  const int slot = HourSlot(now);
  const Seconds max_beta = net.MaxEdgeTime(slot);
  const double gamma = options.angular ? config.gamma : 1.0;
  for (std::size_t j = 0; j < vehicles.size(); ++j) {
    const VehicleSnapshot& v = vehicles[j];
    const LatLon& source_pos = net.node_position(v.location);
    const LatLon& dest_pos = net.node_position(v.next_destination);
    std::vector<double> alpha_dist(net.num_nodes(),
                                   std::numeric_limits<double>::infinity());
    std::vector<Seconds> beta_dist(net.num_nodes(), kInfiniteTime);
    std::vector<bool> visited(net.num_nodes(), false);
    using Entry = std::pair<double, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
    alpha_dist[v.location] = 0.0;
    beta_dist[v.location] = 0.0;
    queue.push({0.0, v.location});
    int degree = 0;
    while (!queue.empty() && degree < options.fixed_k) {
      const auto [d, u] = queue.top();
      queue.pop();
      if (visited[u]) continue;
      visited[u] = true;
      ++graph.nodes_expanded;
      for (std::size_t i = 0; i < batches.size(); ++i) {
        if (degree >= options.fixed_k) break;
        if (batches[i].cost == kInfiniteTime) continue;
        if (batches[i].first_pickup != u) continue;
        if (!SatisfiesCapacity(config, batches[i], v)) continue;
        if (beta_dist[u] > config.max_first_mile) continue;
        ++graph.mcost_evaluations;
        graph.cost.set(i, j, weight(batches[i], v));
        ++degree;
      }
      for (EdgeId e : net.OutEdges(u)) {
        const NodeId w = net.edge_head(e);
        if (visited[w]) continue;
        const Seconds beta = net.EdgeTime(e, slot);
        const Seconds nbeta = beta_dist[u] + beta;
        if (nbeta > config.max_first_mile) continue;
        double alpha = gamma * beta / max_beta;
        if (options.angular) {
          alpha += (1.0 - gamma) *
                   AngularDistance(source_pos, dest_pos, net.node_position(w));
        }
        if (d + alpha < alpha_dist[w]) {
          alpha_dist[w] = d + alpha;
          beta_dist[w] = nbeta;
          queue.push({d + alpha, w});
        }
      }
    }
  }
  return graph;
}

TEST(FoodGraphReferenceTest, MatchesPaperReferenceOnRandomInstances) {
  for (std::uint64_t seed : {41ull, 42ull, 43ull}) {
    Rng rng(seed);
    RoadNetwork net =
        testing::RandomConnectedNetwork(rng, 50, 120, /*time_varying=*/true);
    const auto node = [&] {
      return static_cast<NodeId>(rng.UniformInt(net.num_nodes()));
    };
    const Seconds now = 12 * 3600.0 + 600.0;
    OrderId next_id = 0;
    const auto order = [&] {
      Order o = MakeOrder(next_id++, node(), node(),
                          static_cast<int>(rng.UniformIntRange(1, 4)));
      o.placed_at = now - 300.0;
      o.prep_time = rng.UniformRange(0.0, 900.0);
      return o;
    };
    for (OracleBackend backend :
         {OracleBackend::kDijkstra, OracleBackend::kHaversine}) {
      DistanceOracle oracle(&net, backend);
      Config config;
      // A first-mile bound tight enough to cut searches and pairs short.
      config.max_first_mile = 400.0;
      std::vector<Batch> batches;
      for (int b = 0; b < 12; ++b) {
        batches.push_back(b % 4 == 0
                              ? MakeBatchFromOrders(oracle, {order(), order()},
                                                    now)
                              : MakeSingletonBatch(oracle, order(), now));
      }
      std::vector<VehicleSnapshot> vehicles;
      for (int v = 0; v < 9; ++v) {
        VehicleSnapshot snap = MakeVehicle(v, node());
        snap.next_destination = node();
        if (v % 3 == 1) snap.unpicked.push_back(order());
        if (v % 3 == 2) snap.picked.push_back(order());
        vehicles.push_back(snap);
      }
      for (bool best_first : {false, true}) {
        for (bool angular : {false, true}) {
          FoodGraphOptions options;
          options.best_first = best_first;
          options.angular = angular;
          options.fixed_k = 3;
          const FoodGraph want = ReferenceFoodGraph(oracle, config, options,
                                                    batches, vehicles, now);
          int true_edges = 0;  // the instance must not be all-Ω
          for (std::size_t i = 0; i < batches.size(); ++i) {
            for (std::size_t j = 0; j < vehicles.size(); ++j) {
              true_edges += want.cost.at(i, j) < config.rejection_penalty;
            }
          }
          EXPECT_GT(true_edges, 0);
          ThreadPool pool(3);
          for (ThreadPool* lanes : {static_cast<ThreadPool*>(nullptr),
                                    &pool}) {
            const FoodGraph got = BuildFoodGraph(oracle, config, options,
                                                 batches, vehicles, now, lanes);
            EXPECT_EQ(got.mcost_evaluations, want.mcost_evaluations);
            EXPECT_EQ(got.nodes_expanded, want.nodes_expanded);
            for (std::size_t i = 0; i < batches.size(); ++i) {
              for (std::size_t j = 0; j < vehicles.size(); ++j) {
                // Bit-identical, not approximately equal.
                ASSERT_EQ(got.cost.at(i, j), want.cost.at(i, j))
                    << "seed=" << seed << " best_first=" << best_first
                    << " angular=" << angular << " (" << i << "," << j << ")";
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fm
