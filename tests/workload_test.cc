#include <cmath>
#include <algorithm>
#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "gen/city_gen.h"
#include "gen/profiles.h"
#include "gen/workload.h"
#include "graph/dijkstra.h"

namespace fm {
namespace {

CityProfile TinyProfile() {
  CityProfile p = CityAProfile(/*scale=*/200.0);
  p.city.grid_width = 14;
  p.city.grid_height = 14;
  return p;
}

TEST(CityGenTest, GridIsStronglyConnected) {
  CityGenParams params;
  params.grid_width = 8;
  params.grid_height = 6;
  Rng rng(1);
  RoadNetwork net = GenerateGridCity(params, rng);
  EXPECT_EQ(net.num_nodes(), 48u);
  // Every node reaches every other node.
  auto dist = SingleSourceTimes(net, 0, 12);
  for (NodeId u = 0; u < net.num_nodes(); ++u) {
    EXPECT_LT(dist[u], kInfiniteTime);
  }
  auto rdist = SingleDestinationTimes(net, 0, 12);
  for (NodeId u = 0; u < net.num_nodes(); ++u) {
    EXPECT_LT(rdist[u], kInfiniteTime);
  }
}

TEST(CityGenTest, EdgeCountMatchesGridFormula) {
  CityGenParams params;
  params.grid_width = 7;
  params.grid_height = 5;
  Rng rng(2);
  RoadNetwork net = GenerateGridCity(params, rng);
  // Undirected roads: (w-1)h + w(h-1); two directed edges each.
  const std::size_t roads = 6 * 5 + 7 * 4;
  EXPECT_EQ(net.num_edges(), 2 * roads);
}

TEST(CityGenTest, CongestionRaisesPeakTravelTimes) {
  CityGenParams params;
  params.grid_width = 6;
  params.grid_height = 6;
  params.congestion = UrbanCongestion(2.5);
  params.congestion_noise = 0.0;
  Rng rng(3);
  RoadNetwork net = GenerateGridCity(params, rng);
  // Slot 19 (dinner peak) strictly slower than slot 3 (night) on every edge.
  for (EdgeId e = 0; e < net.num_edges(); ++e) {
    EXPECT_GT(net.EdgeTime(e, 19), net.EdgeTime(e, 3));
  }
}

TEST(CityGenTest, UrbanCongestionBounds) {
  auto c = UrbanCongestion(2.0);
  for (double v : c) {
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 2.0);
  }
  EXPECT_DOUBLE_EQ(*std::max_element(c.begin(), c.end()), 2.0);
}

TEST(WorkloadTest, DeterministicForSameSeedAndDay) {
  const CityProfile p = TinyProfile();
  Workload a = GenerateWorkload(p, {.day = 2});
  Workload b = GenerateWorkload(p, {.day = 2});
  ASSERT_EQ(a.orders.size(), b.orders.size());
  for (std::size_t i = 0; i < a.orders.size(); ++i) {
    EXPECT_EQ(a.orders[i].restaurant, b.orders[i].restaurant);
    EXPECT_EQ(a.orders[i].customer, b.orders[i].customer);
    EXPECT_DOUBLE_EQ(a.orders[i].placed_at, b.orders[i].placed_at);
  }
}

TEST(WorkloadTest, DifferentDaysDifferButShareCity) {
  const CityProfile p = TinyProfile();
  Workload a = GenerateWorkload(p, {.day = 0});
  Workload b = GenerateWorkload(p, {.day = 1});
  EXPECT_EQ(a.network.num_nodes(), b.network.num_nodes());
  EXPECT_EQ(a.restaurants, b.restaurants);  // placement is day-independent
  ASSERT_FALSE(a.orders.empty());
  ASSERT_FALSE(b.orders.empty());
  // Order streams differ.
  bool differs = a.orders.size() != b.orders.size();
  if (!differs) {
    for (std::size_t i = 0; i < a.orders.size(); ++i) {
      if (a.orders[i].placed_at != b.orders[i].placed_at) {
        differs = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differs);
}

TEST(WorkloadTest, OrdersSortedDenseIdsValidNodes) {
  Workload w = GenerateWorkload(TinyProfile());
  EXPECT_TRUE(std::is_sorted(
      w.orders.begin(), w.orders.end(),
      [](const Order& a, const Order& b) { return a.placed_at < b.placed_at; }));
  for (std::size_t i = 0; i < w.orders.size(); ++i) {
    const Order& o = w.orders[i];
    EXPECT_EQ(o.id, i);
    EXPECT_LT(o.restaurant, w.network.num_nodes());
    EXPECT_LT(o.customer, w.network.num_nodes());
    EXPECT_GE(o.items, 1);
    EXPECT_LE(o.items, 4);
    EXPECT_GE(o.prep_time, 60.0);
  }
}

TEST(WorkloadTest, OrderVolumeNearProfileTarget) {
  CityProfile p = TinyProfile();
  p.orders_per_day = 400;
  Workload w = GenerateWorkload(p);
  // Poisson total: within ±20 % of target with overwhelming probability.
  EXPECT_GT(w.orders.size(), 320u);
  EXPECT_LT(w.orders.size(), 480u);
}

TEST(WorkloadTest, HorizonRestrictsOrders) {
  CityProfile p = TinyProfile();
  p.orders_per_day = 500;
  WorkloadOptions options;
  options.start_time = 12 * 3600.0;
  options.end_time = 14 * 3600.0;
  Workload w = GenerateWorkload(p, options);
  for (const Order& o : w.orders) {
    EXPECT_GE(o.placed_at, options.start_time);
    EXPECT_LT(o.placed_at, options.end_time);
  }
  // The 12–14 lunch window is a demand peak: should hold a sizable share.
  EXPECT_GT(w.orders.size(), 25u);
}

TEST(WorkloadTest, DemandShapePeaksAtLunchAndDinner) {
  const CityProfile p = CityBProfile();
  const auto per_slot = ExpectedOrdersPerSlot(p);
  double total = 0;
  for (double e : per_slot) total += e;
  EXPECT_NEAR(total, p.orders_per_day, 1e-6);
  // Peaks dominate 3 AM by an order of magnitude.
  EXPECT_GT(per_slot[13], 10 * per_slot[3]);
  EXPECT_GT(per_slot[20], 10 * per_slot[3]);
}

TEST(WorkloadTest, FleetWithinNetworkAndDenseIds) {
  Workload w = GenerateWorkload(TinyProfile());
  for (std::size_t i = 0; i < w.fleet.size(); ++i) {
    EXPECT_EQ(w.fleet[i].id, i);
    EXPECT_LT(w.fleet[i].start_node, w.network.num_nodes());
  }
  EXPECT_EQ(static_cast<int>(w.fleet.size()), w.profile.num_vehicles);
}

TEST(WorkloadTest, SubsampleFleetNestedPrefix) {
  Workload w = GenerateWorkload(TinyProfile());
  auto half = SubsampleFleet(w.fleet, 0.5);
  auto fifth = SubsampleFleet(w.fleet, 0.2);
  EXPECT_EQ(half.size(),
            static_cast<std::size_t>(std::lround(w.fleet.size() * 0.5)));
  // Nested: the 20 % fleet is a prefix of the 50 % fleet.
  for (std::size_t i = 0; i < fifth.size(); ++i) {
    EXPECT_EQ(fifth[i].id, half[i].id);
  }
}

TEST(WorkloadTest, RestaurantsClusterInHotspots) {
  // Restaurant spatial spread should be far below the city extent.
  Workload w = GenerateWorkload(TinyProfile());
  ASSERT_GE(w.restaurants.size(), 2u);
  std::set<NodeId> unique(w.restaurants.begin(), w.restaurants.end());
  EXPECT_GE(unique.size(), 1u);
}

TEST(ProfilesTest, TableIIRelativeOrdering) {
  const CityProfile a = CityAProfile();
  const CityProfile b = CityBProfile();
  const CityProfile c = CityCProfile();
  // City B fulfills the most orders and has the most vehicles; City C has
  // the most restaurants (Table II).
  EXPECT_GT(b.orders_per_day, c.orders_per_day);
  EXPECT_GT(c.orders_per_day, a.orders_per_day);
  EXPECT_GT(b.num_vehicles, c.num_vehicles);
  EXPECT_GT(c.num_restaurants, b.num_restaurants);
  EXPECT_GT(b.num_restaurants, a.num_restaurants);
  // Prep time means (minutes): Grubhub ≫ City C > City B > City A.
  const CityProfile g = GrubhubProfile();
  EXPECT_GT(g.prep_mean, c.prep_mean);
  EXPECT_GT(c.prep_mean, b.prep_mean);
  EXPECT_GT(b.prep_mean, a.prep_mean);
  EXPECT_TRUE(g.haversine_only);
  EXPECT_FALSE(b.haversine_only);
}

TEST(ProfilesTest, CityProfileByNameResolvesKnownNamesOnly) {
  const struct {
    const char* name;
    CityProfile want;
  } known[] = {{"A", CityAProfile(80.0)},
               {"B", CityBProfile(80.0)},
               {"C", CityCProfile(80.0)},
               {"grubhub", GrubhubProfile(80.0)}};
  for (const auto& [name, want] : known) {
    const std::optional<CityProfile> got = CityProfileByName(name, 80.0);
    ASSERT_TRUE(got.has_value()) << name;
    EXPECT_EQ(got->name, want.name);
    EXPECT_EQ(got->orders_per_day, want.orders_per_day);
    EXPECT_EQ(got->num_vehicles, want.num_vehicles);
  }
  for (const char* unknown : {"Z", "a", "", "GrubHub", "B "}) {
    EXPECT_FALSE(CityProfileByName(unknown, 80.0).has_value()) << unknown;
  }
}

}  // namespace
}  // namespace fm
