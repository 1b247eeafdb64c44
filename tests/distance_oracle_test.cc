#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "geo/geo.h"
#include "graph/dijkstra.h"
#include "graph/distance_oracle.h"
#include "tests/test_util.h"

namespace fm {
namespace {

TEST(DistanceOracleTest, HubLabelsMatchDijkstraBackend) {
  Rng rng(55);
  RoadNetwork net =
      testing::RandomConnectedNetwork(rng, 50, 150, /*time_varying=*/true);
  DistanceOracle hub(&net, OracleBackend::kHubLabels);
  DistanceOracle dij(&net, OracleBackend::kDijkstra);
  Rng pick(56);
  for (int trial = 0; trial < 100; ++trial) {
    NodeId s = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
    NodeId t = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
    const Seconds time = pick.UniformRange(0.0, kSecondsPerDay);
    EXPECT_NEAR(hub.Duration(s, t, time), dij.Duration(s, t, time), 1e-9);
  }
}

TEST(DistanceOracleTest, SlotSelectionByTimeOfDay) {
  RoadNetwork::Builder builder;
  builder.AddNode({0, 0});
  builder.AddNode({0, 0.01});
  std::array<double, kSlotsPerDay> slots;
  for (int s = 0; s < kSlotsPerDay; ++s) slots[s] = 100.0 + s;
  builder.AddEdge(0, 1, 500, slots);
  builder.AddEdgeConstant(1, 0, 500, 100);
  RoadNetwork net = builder.Build();
  DistanceOracle oracle(&net, OracleBackend::kHubLabels);
  EXPECT_DOUBLE_EQ(oracle.Duration(0, 1, 0.5 * 3600.0), 100.0);
  EXPECT_DOUBLE_EQ(oracle.Duration(0, 1, 13.5 * 3600.0), 113.0);
  EXPECT_DOUBLE_EQ(oracle.Duration(0, 1, 23.5 * 3600.0), 123.0);
}

TEST(DistanceOracleTest, HaversineBackendIgnoresNetworkTopology) {
  // Two nodes connected only through a long detour; haversine sees the
  // straight line.
  RoadNetwork::Builder builder;
  NodeId a = builder.AddNode({0.0, 0.0});
  builder.AddNode({1.0, 1.0});  // detour node far away
  NodeId b = builder.AddNode({0.0, 0.009});  // ~1 km east
  builder.AddEdgeConstant(a, 1, 300000, 10000);
  builder.AddEdgeConstant(1, b, 300000, 10000);
  builder.AddEdgeConstant(b, 1, 300000, 10000);
  builder.AddEdgeConstant(1, a, 300000, 10000);
  RoadNetwork net = builder.Build();

  DistanceOracle hav(&net, OracleBackend::kHaversine, /*speed=*/10.0);
  const Meters straight = Haversine(net.node_position(a), net.node_position(b));
  EXPECT_NEAR(hav.Duration(a, b, 0), straight / 10.0, 1e-9);
  EXPECT_LT(hav.Duration(a, b, 0), 150.0);  // ~100 s, not the 20000 s detour
}

TEST(DistanceOracleTest, ZeroForSameNode) {
  RoadNetwork net = testing::LineNetwork(3);
  for (auto backend : {OracleBackend::kHubLabels, OracleBackend::kDijkstra,
                       OracleBackend::kHaversine}) {
    DistanceOracle oracle(&net, backend);
    EXPECT_DOUBLE_EQ(oracle.Duration(1, 1, 0.0), 0.0);
  }
}

TEST(DistanceOracleTest, QueryCountIncrements) {
  RoadNetwork net = testing::LineNetwork(3);
  DistanceOracle oracle(&net, OracleBackend::kDijkstra);
  EXPECT_EQ(oracle.query_count(), 0u);
  oracle.Duration(0, 2, 0.0);
  oracle.Duration(0, 2, 0.0);  // cached, still counted
  EXPECT_EQ(oracle.query_count(), 2u);
}

TEST(DistanceOracleTest, WarmSlotsPrebuildsLabels) {
  RoadNetwork net = testing::LineNetwork(10);
  DistanceOracle oracle(&net, OracleBackend::kHubLabels);
  oracle.WarmSlots(10, 14);
  // Queries in the warmed range work (behavioural check: exactness).
  EXPECT_DOUBLE_EQ(oracle.Duration(0, 9, 12 * 3600.0), 9 * 60.0);
}

// Warming with a pool must be a pure speed change: the per-slot indices are
// deterministic functions of (network, slot), so a concurrently warmed
// oracle serves durations bit-identical to a serially warmed one.
TEST(DistanceOracleTest, ParallelWarmSlotsServesIdenticalDurations) {
  Rng rng(78);
  RoadNetwork net =
      testing::RandomConnectedNetwork(rng, 60, 180, /*time_varying=*/true);
  DistanceOracle serial(&net, OracleBackend::kHubLabels);
  serial.WarmSlots(9, 16);

  for (int threads : {2, 4}) {
    DistanceOracle warmed(&net, OracleBackend::kHubLabels);
    ThreadPool pool(threads);
    warmed.WarmSlots(9, 16, &pool);
    Rng pick(79);
    for (int trial = 0; trial < 200; ++trial) {
      const NodeId u = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
      const NodeId v = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
      const Seconds t = pick.UniformRange(9.0 * 3600.0, 17.0 * 3600.0 - 1.0);
      // Exact equality, not NEAR: the build is deterministic.
      EXPECT_EQ(warmed.Duration(u, v, t), serial.Duration(u, v, t))
          << threads << " threads, pair (" << u << ", " << v << ")";
    }
  }
}

TEST(DistanceOracleTest, WarmSlotsIsIdempotentAndRaceSafeWithQueries) {
  // Warming an already-warm range is a no-op, and warming concurrently with
  // queriers that lazily build the same slots keeps every answer exact: the
  // querier thread below races the pool's warm-up into the same cold slots,
  // exercising the first-publisher-wins re-check under build_mutex_.
  Rng rng(80);
  RoadNetwork net = testing::RandomConnectedNetwork(rng, 40, 120);
  DistanceOracle oracle(&net, OracleBackend::kHubLabels);
  DistanceOracle reference(&net, OracleBackend::kDijkstra);
  // Touch a slot first so WarmSlots meets a mix of warm and cold slots.
  oracle.Duration(0, 1, 12.5 * 3600.0);
  std::thread querier([&] {
    Rng pick(82);
    for (int trial = 0; trial < 30; ++trial) {
      const NodeId u = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
      const NodeId v = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
      const Seconds t =
          pick.UniformRange(10.0 * 3600.0, 16.0 * 3600.0 - 1.0);
      oracle.Duration(u, v, t);  // may lazily build a slot WarmSlots races
    }
  });
  ThreadPool pool(4);
  oracle.WarmSlots(10, 15, &pool);
  querier.join();
  oracle.WarmSlots(10, 15, &pool);  // idempotent
  Rng pick(81);
  for (int trial = 0; trial < 50; ++trial) {
    const NodeId u = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
    const NodeId v = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
    const Seconds t = pick.UniformRange(10.0 * 3600.0, 16.0 * 3600.0 - 1.0);
    EXPECT_NEAR(oracle.Duration(u, v, t), reference.Duration(u, v, t), 1e-9);
  }
}

TEST(DistanceOracleTest, DijkstraCacheIsConsistent) {
  Rng rng(77);
  RoadNetwork net = testing::RandomConnectedNetwork(rng, 30, 90);
  DistanceOracle oracle(&net, OracleBackend::kDijkstra);
  const Seconds first = oracle.Duration(3, 17, 1000.0);
  const Seconds second = oracle.Duration(3, 17, 1000.0);
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_DOUBLE_EQ(first, PointToPointTime(net, 3, 17, 0));
}

// A DurationMemo must replay the oracle's own answer bit for bit, including
// at hour-slot boundaries and for times outside one day (the slot, not the
// raw time, is part of the key), and must keep every entry across growth.
TEST(DurationMemoTest, ReplaysOracleExactlyAcrossSlotsAndGrowth) {
  Rng rng(90);
  RoadNetwork net = testing::RandomConnectedNetwork(rng, 60, 240,
                                                    /*time_varying=*/true);
  DistanceOracle oracle(&net, OracleBackend::kHubLabels);
  oracle.WarmSlots(0, kSlotsPerDay - 1);

  // Every answer comes back identical: first as a miss, then as a hit.
  struct Query {
    NodeId u;
    NodeId v;
    Seconds t;
  };
  const Seconds kOffsets[] = {-1.0, -1e-6, 0.0, 1e-6, 1.0, 1799.5};
  std::vector<Query> queries;
  for (int i = 0; i < 24000; ++i) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(net.num_nodes()));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(net.num_nodes()));
    const int hour = static_cast<int>(rng.UniformInt(kSlotsPerDay + 2)) - 1;
    const Seconds t = hour * 3600.0 + kOffsets[rng.UniformInt(6)];
    queries.push_back({u, v, t});
  }

  DurationMemo memo;
  std::set<std::tuple<NodeId, NodeId, int>> keys;
  std::uint64_t expected_hits = 0;
  const std::uint64_t oracle_queries_before = oracle.query_count();
  for (const Query& q : queries) {
    const bool seen = !keys.insert({q.u, q.v, HourSlot(q.t)}).second;
    if (seen) ++expected_hits;
    const Seconds reference = oracle.Duration(q.u, q.v, q.t);
    EXPECT_EQ(memo.Duration(oracle, q.u, q.v, q.t), reference)
        << q.u << "->" << q.v << " at " << q.t;
  }
  EXPECT_EQ(memo.size(), keys.size());
  EXPECT_EQ(memo.misses(), keys.size());
  EXPECT_EQ(memo.hits(), expected_hits);
  // Each miss asked the oracle once, on top of the reference queries.
  EXPECT_EQ(oracle.query_count() - oracle_queries_before,
            queries.size() + keys.size());
  // Well past the initial capacity, so the table rehashed several times.
  ASSERT_GT(keys.size(), 16000u);

  // Every entry survived the rehashes: replaying all queries is all hits.
  const std::uint64_t misses = memo.misses();
  for (const Query& q : queries) {
    EXPECT_EQ(memo.Duration(oracle, q.u, q.v, q.t),
              oracle.Duration(q.u, q.v, q.t));
  }
  EXPECT_EQ(memo.misses(), misses);
  EXPECT_EQ(memo.hits(), expected_hits + queries.size());

  // Clear drops every entry but keeps the counters; the next query misses.
  memo.Clear();
  EXPECT_EQ(memo.size(), 0u);
  const Query& q = queries.front();
  EXPECT_EQ(memo.Duration(oracle, q.u, q.v, q.t),
            oracle.Duration(q.u, q.v, q.t));
  EXPECT_EQ(memo.misses(), misses + 1);
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.Duration(oracle, q.u, q.v, q.t),
            oracle.Duration(q.u, q.v, q.t));
  EXPECT_EQ(memo.hits(), expected_hits + queries.size() + 1);
}

// The slot is part of the key: the same (u, v) on either side of an hour
// boundary is two entries with the two slots' different answers.
TEST(DurationMemoTest, SlotBoundarySplitsKeys) {
  Rng rng(91);
  RoadNetwork net = testing::RandomConnectedNetwork(rng, 20, 40,
                                                    /*time_varying=*/true);
  DistanceOracle oracle(&net, OracleBackend::kHubLabels);
  const Seconds boundary = 11.0 * 3600.0;
  NodeId u = 0;
  NodeId v = 0;
  for (NodeId a = 0; a < 20 && u == v; ++a) {
    for (NodeId b = 0; b < 20; ++b) {
      if (a != b && oracle.Duration(a, b, boundary - 1.0) !=
                        oracle.Duration(a, b, boundary)) {
        u = a;
        v = b;
        break;
      }
    }
  }
  ASSERT_NE(u, v) << "test network has no slot-dependent pair";
  DurationMemo memo;
  const Seconds before = memo.Duration(oracle, u, v, boundary - 1.0);
  const Seconds after = memo.Duration(oracle, u, v, boundary);
  EXPECT_EQ(before, oracle.Duration(u, v, boundary - 1.0));
  EXPECT_EQ(after, oracle.Duration(u, v, boundary));
  EXPECT_NE(before, after);
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.Duration(oracle, u, v, boundary - 3599.0), before);
  EXPECT_EQ(memo.hits(), 1u);
}

}  // namespace
}  // namespace fm
