// Differential window-replay harness for the EdgeCache (core/edge_cache.h)
// that BuildFoodGraph fills the FOODGRAPH through: randomized multi-window
// scenarios with interleaved order arrivals, vehicle movement, assignments
// and retirements must yield bit-for-bit the same FoodGraph (weights,
// mcost_evaluations, nodes_expanded) and the same engine WindowResults
// with a cache kept across windows as with a cold cache every window, at 1
// and N threads, for both the sparsified (FoodMatch) and full (KM)
// constructions and for the road-network and haversine oracles — plus
// property tests for footprint resume and vehicle retirement.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/batching.h"
#include "core/dispatch_engine.h"
#include "core/edge_cache.h"
#include "core/food_graph.h"
#include "core/matching_policy.h"
#include "gen/city_gen.h"
#include "graph/distance_oracle.h"
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

VehicleSnapshot MakeVehicle(VehicleId id, NodeId at, NodeId dest) {
  VehicleSnapshot v;
  v.id = id;
  v.location = at;
  v.next_destination = dest;
  return v;
}

void ExpectGraphsEqual(const FoodGraph& got, const FoodGraph& want,
                       const char* label, int window) {
  EXPECT_EQ(got.mcost_evaluations, want.mcost_evaluations)
      << label << " window=" << window;
  EXPECT_EQ(got.nodes_expanded, want.nodes_expanded)
      << label << " window=" << window;
  ASSERT_EQ(got.cost.rows(), want.cost.rows());
  ASSERT_EQ(got.cost.cols(), want.cost.cols());
  for (std::size_t i = 0; i < want.cost.rows(); ++i) {
    for (std::size_t j = 0; j < want.cost.cols(); ++j) {
      // Bit-identical, not approximately equal.
      ASSERT_EQ(got.cost.at(i, j), want.cost.at(i, j))
          << label << " window=" << window << " cell(" << i << "," << j << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Builder-level differential replay: randomized multi-window scenarios.
// ---------------------------------------------------------------------------

// Drives seven accumulation windows over one persistent fleet: each window
// mutates random vehicles (movement, pickups, deliveries, strips,
// retirement + id reuse), draws a fresh batch set, and builds the FOODGRAPH
// three ways — persistent cache serial, persistent cache 4-lane, cold
// cache — which must agree bitwise.
void RunDifferentialScenario(std::uint64_t seed, bool time_varying,
                             bool best_first,
                             OracleBackend backend = OracleBackend::kDijkstra) {
  Rng rng(seed);
  RoadNetwork net =
      testing::RandomConnectedNetwork(rng, 60, 140, time_varying);
  DistanceOracle oracle(&net, backend);
  Config config;
  config.threads = 1;
  FoodGraphOptions options;
  options.best_first = best_first;
  options.angular = best_first;
  options.fixed_k = 5;

  // Two independent caches so the serial and 4-lane builds evolve their own
  // state; determinism requires them to stay identical anyway.
  EdgeCache cache_serial;
  EdgeCache cache_pooled;
  ThreadPool pool(4);

  const auto rand_node = [&] {
    return static_cast<NodeId>(rng.UniformInt(net.num_nodes()));
  };

  std::vector<VehicleSnapshot> vehicles;
  for (VehicleId v = 0; v < 9; ++v) {
    vehicles.push_back(MakeVehicle(v, rand_node(), rand_node()));
  }

  OrderId next_order = 1000;
  VehicleId next_vehicle = 100;
  for (int window = 0; window < 7; ++window) {
    const Seconds now = 12 * 3600.0 + 180.0 * window;

    // Mutate the fleet.
    for (VehicleSnapshot& v : vehicles) {
      switch (rng.UniformInt(6)) {
        case 0:  // movement commit
          v.location = rand_node();
          v.next_destination = rand_node();
          break;
        case 1:  // assignment
          if (v.TotalAssignedOrders() < config.max_orders_per_vehicle) {
            v.unpicked.push_back(
                MakeOrder(next_order++, rand_node(), rand_node(), now));
          }
          break;
        case 2:  // pickup
          if (!v.unpicked.empty()) {
            v.picked.push_back(v.unpicked.back());
            v.unpicked.pop_back();
          }
          break;
        case 3:  // delivery
          if (!v.picked.empty()) {
            v.picked.pop_back();
          }
          break;
        case 4:  // reshuffle strip
          if (!v.unpicked.empty()) {
            v.unpicked.clear();
          }
          break;
        default:  // untouched
          break;
      }
    }

    // Occasionally retire a vehicle; a fresh one may reuse the id (the PR-5
    // regression shape: retirement + re-announcement must never serve stale
    // cached state for the reused id).
    if (window == 3 || window == 5) {
      const std::size_t victim = rng.UniformInt(vehicles.size());
      const VehicleId retired_id = vehicles[victim].id;
      cache_serial.OnVehicleRetired(retired_id);
      cache_pooled.OnVehicleRetired(retired_id);
      const VehicleId new_id =
          (window == 3) ? retired_id : next_vehicle++;  // reuse once
      vehicles[victim] = MakeVehicle(new_id, rand_node(), rand_node());
    }

    // Fresh batch set: singletons plus an occasional multi-order batch.
    std::vector<Batch> batches;
    const int num_batches = 6 + static_cast<int>(rng.UniformInt(6));
    for (int b = 0; b < num_batches; ++b) {
      if (rng.UniformInt(4) == 0) {
        std::vector<Order> pair_orders = {
            MakeOrder(next_order++, rand_node(), rand_node(), now,
                      rng.UniformRange(0.0, 900.0)),
            MakeOrder(next_order++, rand_node(), rand_node(), now,
                      rng.UniformRange(0.0, 900.0))};
        batches.push_back(MakeBatchFromOrders(oracle, pair_orders, now));
      } else {
        batches.push_back(MakeSingletonBatch(
            oracle,
            MakeOrder(next_order++, rand_node(), rand_node(), now,
                      rng.UniformRange(0.0, 900.0)),
            now));
      }
    }

    const FoodGraph cold =
        BuildFoodGraph(oracle, config, options, batches, vehicles, now);
    const FoodGraph kept_serial =
        BuildFoodGraph(oracle, config, options, batches, vehicles, now,
                       nullptr, &cache_serial);
    const FoodGraph kept_pooled = BuildFoodGraph(
        oracle, config, options, batches, vehicles, now, &pool, &cache_pooled);
    ExpectGraphsEqual(kept_serial, cold, "persistent-serial", window);
    ExpectGraphsEqual(kept_pooled, cold, "persistent-4lane", window);
  }
}

TEST(FoodGraphIncrementalTest, SparsifiedMatchesColdCacheOnRandomWindows) {
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    for (bool time_varying : {false, true}) {
      RunDifferentialScenario(seed, time_varying, /*best_first=*/true);
    }
  }
}

TEST(FoodGraphIncrementalTest, FullGraphMatchesColdCacheOnRandomWindows) {
  for (std::uint64_t seed : {21ull, 22ull}) {
    for (bool time_varying : {false, true}) {
      RunDifferentialScenario(seed, time_varying, /*best_first=*/false);
    }
  }
}

// The haversine backend (GrubHub, §V-C) answers every query independently
// of the hour slot, unlike the road-network oracles above.
TEST(FoodGraphIncrementalTest, HaversineMatchesColdCacheOnRandomWindows) {
  for (bool best_first : {true, false}) {
    RunDifferentialScenario(31, /*time_varying=*/false, best_first,
                            OracleBackend::kHaversine);
  }
}

// ---------------------------------------------------------------------------
// Engine-level differential replay: full windows through DispatchEngine.
// ---------------------------------------------------------------------------

struct Scenario {
  RoadNetwork network;
  std::vector<Vehicle> fleet;
  std::vector<Order> orders;
};

Scenario MakeScenario(std::uint64_t seed, int num_vehicles, int num_orders) {
  Rng rng(seed);
  CityGenParams params;
  params.grid_width = 12;
  params.grid_height = 12;
  params.congestion = UrbanCongestion(1.8);
  Scenario s;
  s.network = GenerateGridCity(params, rng);
  for (int i = 0; i < num_vehicles; ++i) {
    Vehicle v;
    v.id = static_cast<VehicleId>(i);
    v.start_node = static_cast<NodeId>(rng.UniformInt(s.network.num_nodes()));
    s.fleet.push_back(v);
  }
  for (int i = 0; i < num_orders; ++i) {
    Order o;
    o.id = static_cast<OrderId>(i);
    o.restaurant = static_cast<NodeId>(rng.UniformInt(s.network.num_nodes()));
    o.customer = static_cast<NodeId>(rng.UniformInt(s.network.num_nodes()));
    o.placed_at = 12 * 3600.0 + rng.UniformRange(0.0, 1800.0);
    o.prep_time = rng.UniformRange(120.0, 1200.0);
    o.items = rng.UniformIntRange(1, 4);
    s.orders.push_back(o);
  }
  std::sort(s.orders.begin(), s.orders.end(),
            [](const Order& a, const Order& b) {
              return a.placed_at < b.placed_at;
            });
  for (std::size_t i = 0; i < s.orders.size(); ++i) {
    s.orders[i].id = static_cast<OrderId>(i);
  }
  return s;
}

void ExpectWindowResultsEqual(const std::vector<WindowResult>& got,
                              const std::vector<WindowResult>& want,
                              const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t w = 0; w < want.size(); ++w) {
    const WindowResult& a = got[w];
    const WindowResult& b = want[w];
    EXPECT_EQ(a.rejected, b.rejected) << label << " window " << w;
    EXPECT_EQ(a.reshuffled_vehicles, b.reshuffled_vehicles)
        << label << " window " << w;
    EXPECT_EQ(a.decision.cost_evaluations, b.decision.cost_evaluations)
        << label << " window " << w;
    ASSERT_EQ(a.decision.assignments.size(), b.decision.assignments.size())
        << label << " window " << w;
    for (std::size_t i = 0; i < a.decision.assignments.size(); ++i) {
      EXPECT_EQ(a.decision.assignments[i].vehicle,
                b.decision.assignments[i].vehicle);
      ASSERT_EQ(a.decision.assignments[i].orders.size(),
                b.decision.assignments[i].orders.size());
      for (std::size_t j = 0; j < a.decision.assignments[i].orders.size();
           ++j) {
        EXPECT_EQ(a.decision.assignments[i].orders[j],
                  b.decision.assignments[i].orders[j]);
      }
    }
    ASSERT_EQ(a.reinstatements.size(), b.reinstatements.size())
        << label << " window " << w;
    for (std::size_t i = 0; i < a.reinstatements.size(); ++i) {
      EXPECT_EQ(a.reinstatements[i].order, b.reinstatements[i].order);
      EXPECT_EQ(a.reinstatements[i].vehicle, b.reinstatements[i].vehicle);
    }
  }
}

TEST(FoodGraphIncrementalTest, EngineWindowsIdenticalWithIncrementalOnOff) {
  Scenario s = MakeScenario(5151, 6, 48);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);

  const auto run = [&](bool incremental, int threads,
                       const MatchingPolicyOptions& policy_options) {
    Config config;
    config.accumulation_window = 120.0;
    config.threads = threads;
    config.incremental_graph = incremental;
    MatchingPolicy policy(&oracle, config, policy_options);
    DispatchEngine engine(&policy, config,
                          DispatchEngineOptions{.measure_wall_clock = false});
    for (const Vehicle& v : s.fleet) {
      VehicleSnapshot snap;
      snap.id = v.id;
      snap.location = v.start_node;
      snap.next_destination = v.start_node;
      engine.Handle(VehicleStateUpdate{snap, true});
    }
    std::vector<WindowResult> results;
    std::size_t next = 0;
    for (Seconds now = 12 * 3600.0 + 120.0; now <= 12 * 3600.0 + 2400.0;
         now += 120.0) {
      while (next < s.orders.size() && s.orders[next].placed_at <= now) {
        engine.Handle(OrderPlaced{s.orders[next]});
        ++next;
      }
      results.push_back(engine.Handle(WindowClosed{now}));
    }
    return results;
  };

  for (const MatchingPolicyOptions& policy_options :
       {MatchingPolicyOptions::FoodMatch(),
        MatchingPolicyOptions::VanillaKM()}) {
    const std::vector<WindowResult> baseline =
        run(/*incremental=*/false, /*threads=*/1, policy_options);
    ExpectWindowResultsEqual(run(true, 1, policy_options), baseline,
                             "incremental threads=1");
    ExpectWindowResultsEqual(run(true, 4, policy_options), baseline,
                             "incremental threads=4");
    ExpectWindowResultsEqual(run(false, 4, policy_options), baseline,
                             "cold threads=4");
  }
}

// ---------------------------------------------------------------------------
// EdgeCache property tests: footprint resume and retirement.
// ---------------------------------------------------------------------------

class EdgeCachePropertyTest : public ::testing::Test {
 protected:
  EdgeCachePropertyTest()
      : net_(testing::LineNetwork(30, 60.0)),
        oracle_(&net_, OracleBackend::kDijkstra) {
    options_.best_first = true;
    options_.angular = false;
    options_.fixed_k = 4;
  }

  std::vector<Batch> SomeBatches(Seconds now) {
    std::vector<Batch> batches;
    for (int i = 0; i < 4; ++i) {
      batches.push_back(MakeSingletonBatch(
          oracle_,
          MakeOrder(static_cast<OrderId>(i), static_cast<NodeId>(4 + 6 * i),
                    static_cast<NodeId>(5 + 6 * i), now),
          now));
    }
    return batches;
  }

  FoodGraph BuildIncremental(EdgeCache& cache,
                             const std::vector<Batch>& batches,
                             const std::vector<VehicleSnapshot>& vehicles,
                             Seconds now) {
    return BuildFoodGraph(oracle_, config_, options_, batches, vehicles, now,
                          nullptr, &cache);
  }

  RoadNetwork net_;
  DistanceOracle oracle_;
  Config config_;
  FoodGraphOptions options_;
};

TEST_F(EdgeCachePropertyTest, RetirementErasesEntryAndIdReuseIsFresh) {
  EdgeCache cache;
  const auto batches = SomeBatches(1000.0);
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(7, 0, 0)};
  BuildIncremental(cache, batches, vehicles, 1000.0);
  EXPECT_EQ(cache.entry_count(), 1u);

  cache.OnVehicleRetired(7);
  EXPECT_EQ(cache.entry_count(), 0u);

  // A new vehicle reusing id 7 at a different node searches afresh.
  vehicles[0] = MakeVehicle(7, 12, 12);
  const FoodGraph fresh = BuildIncremental(cache, batches, vehicles, 1000.0);
  EXPECT_EQ(cache.stats().footprint_rebuilds, 2u);
  EXPECT_EQ(cache.stats().footprint_replays, 0u);
  const FoodGraph cold =
      BuildFoodGraph(oracle_, config_, options_, batches, vehicles, 1000.0);
  ExpectGraphsEqual(fresh, cold, "id-reuse", 0);
}

TEST_F(EdgeCachePropertyTest, DeeperKResumesTheRecordedSearch) {
  EdgeCache cache;
  const auto batches = SomeBatches(1000.0);
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 0, 0)};
  FoodGraphOptions shallow = options_;
  shallow.fixed_k = 1;
  BuildFoodGraph(oracle_, config_, shallow, batches, vehicles, 1000.0,
                 nullptr, &cache);
  EXPECT_EQ(cache.stats().footprint_rebuilds, 1u);

  // Same vehicle, deeper degree bound: the recorded prefix replays and the
  // live frontier extends — no rebuild — and the result still matches a
  // cold-cache build at the deeper k.
  FoodGraphOptions deep = options_;
  deep.fixed_k = 4;
  const FoodGraph resumed = BuildFoodGraph(oracle_, config_, deep, batches,
                                           vehicles, 1000.0, nullptr, &cache);
  EXPECT_EQ(cache.stats().footprint_rebuilds, 1u);
  EXPECT_EQ(cache.stats().footprint_replays, 1u);
  EXPECT_GE(cache.stats().footprint_resumes, 1u);
  const FoodGraph cold =
      BuildFoodGraph(oracle_, config_, deep, batches, vehicles, 1000.0);
  ExpectGraphsEqual(resumed, cold, "resume", 0);
}

}  // namespace
}  // namespace fm
