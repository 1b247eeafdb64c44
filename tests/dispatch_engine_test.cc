// DispatchEngine: event ordering, pool ageing and rejection, the reshuffle
// round-trip, the OrderDelivered/VehicleRetired retirement events (bounded
// resident state on rolling horizons), 1-vs-N-thread determinism, and the
// engine-equivalence gate asserting the engine/driver split reproduces the
// pre-refactor monolithic Simulator bit-for-bit (fingerprints captured from
// the seed path).
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>

#include <gtest/gtest.h>

#include "core/dispatch_engine.h"
#include "core/greedy_policy.h"
#include "core/matching_policy.h"
#include "core/reyes_policy.h"
#include "gen/city_gen.h"
#include "graph/distance_oracle.h"
#include "sim/simulator.h"

namespace fm {
namespace {

Order MakeOrder(OrderId id, Seconds placed, int items = 1) {
  Order o;
  o.id = id;
  o.restaurant = 0;
  o.customer = 1;
  o.placed_at = placed;
  o.items = items;
  return o;
}

VehicleSnapshot MakeSnapshot(VehicleId id, NodeId at = 0) {
  VehicleSnapshot v;
  v.id = id;
  v.location = at;
  v.next_destination = at;
  return v;
}

// A policy whose decisions are scripted per window, recording every Assign
// call so tests can assert exactly what the engine showed it.
class ScriptedPolicy : public AssignmentPolicy {
 public:
  struct Call {
    std::vector<Order> pool;
    std::vector<VehicleSnapshot> vehicles;
    Seconds now = 0.0;
  };

  std::string name() const override { return "scripted"; }
  bool wants_reshuffle() const override { return reshuffle; }

  AssignmentDecision Assign(const std::vector<Order>& unassigned,
                            const std::vector<VehicleSnapshot>& vehicles,
                            Seconds now) override {
    calls.push_back({unassigned, vehicles, now});
    AssignmentDecision decision;
    if (!script.empty()) {
      decision = std::move(script.front());
      script.pop_front();
    }
    return decision;
  }

  bool reshuffle = false;
  std::deque<AssignmentDecision> script;
  std::vector<Call> calls;
};

AssignmentDecision AssignTo(VehicleId vehicle, std::vector<Order> orders) {
  AssignmentDecision d;
  d.assignments.push_back({std::move(orders), vehicle});
  return d;
}

Config TestConfig() {
  Config config;
  config.accumulation_window = 60.0;
  return config;
}

TEST(DispatchEngineTest, PoolPreservesEventOrderAndPolicySeesIt) {
  ScriptedPolicy policy;
  DispatchEngine engine(&policy, TestConfig());

  engine.Handle(OrderPlaced{MakeOrder(7, 10.0)});
  engine.Handle(OrderPlaced{MakeOrder(3, 20.0)});
  engine.Handle(OrderPlaced{MakeOrder(5, 30.0)});
  engine.Handle(VehicleStateUpdate{MakeSnapshot(0), true});

  ASSERT_EQ(engine.pool().size(), 3u);
  EXPECT_EQ(engine.pool()[0].id, 7u);
  EXPECT_EQ(engine.pool()[1].id, 3u);
  EXPECT_EQ(engine.pool()[2].id, 5u);

  engine.Handle(WindowClosed{60.0});
  ASSERT_EQ(policy.calls.size(), 1u);
  const ScriptedPolicy::Call& call = policy.calls[0];
  EXPECT_EQ(call.now, 60.0);
  ASSERT_EQ(call.pool.size(), 3u);
  EXPECT_EQ(call.pool[0].id, 7u);  // arrival order, not id order
  EXPECT_EQ(call.pool[1].id, 3u);
  EXPECT_EQ(call.pool[2].id, 5u);
  ASSERT_EQ(call.vehicles.size(), 1u);
  EXPECT_EQ(call.vehicles[0].id, 0u);
}

TEST(DispatchEngineTest, SnapshotsFollowAnnouncementOrderAndDutyFlag) {
  ScriptedPolicy policy;
  DispatchEngine engine(&policy, TestConfig());

  engine.Handle(VehicleStateUpdate{MakeSnapshot(9), true});
  engine.Handle(VehicleStateUpdate{MakeSnapshot(2), true});
  engine.Handle(VehicleStateUpdate{MakeSnapshot(4), /*on_duty=*/false});
  // Re-announcing an existing vehicle updates in place (no reordering).
  engine.Handle(VehicleStateUpdate{MakeSnapshot(9, 5), true});

  engine.Handle(WindowClosed{60.0});
  ASSERT_EQ(policy.calls.size(), 1u);
  const auto& vehicles = policy.calls[0].vehicles;
  ASSERT_EQ(vehicles.size(), 2u);  // off-duty vehicle 4 hidden
  EXPECT_EQ(vehicles[0].id, 9u);
  EXPECT_EQ(vehicles[0].location, 5u);  // the later update won
  EXPECT_EQ(vehicles[1].id, 2u);
}

TEST(DispatchEngineTest, AgeingRejectsOnlyNeverAssignedOrders) {
  Config config = TestConfig();
  config.max_unassigned_age = 1800.0;
  ScriptedPolicy policy;
  DispatchEngine engine(&policy, config);
  engine.Handle(VehicleStateUpdate{MakeSnapshot(0), true});

  engine.Handle(OrderPlaced{MakeOrder(0, 0.0)});
  engine.Handle(OrderPlaced{MakeOrder(1, 0.0)});

  // Assign order 0 early; order 1 stays in the pool.
  policy.script.push_back(AssignTo(0, {MakeOrder(0, 0.0)}));
  engine.Handle(WindowClosed{1000.0});
  EXPECT_TRUE(engine.ever_assigned(0));
  EXPECT_FALSE(engine.ever_assigned(1));
  ASSERT_EQ(engine.pool().size(), 1u);

  // Exactly at the limit: now - placed_at == max_unassigned_age is kept
  // (the rejection test is strictly greater).
  WindowResult at_limit = engine.Handle(WindowClosed{1800.0});
  EXPECT_TRUE(at_limit.rejected.empty());
  EXPECT_EQ(engine.pool().size(), 1u);

  // Past the limit: the never-assigned order is rejected and dropped.
  WindowResult over = engine.Handle(WindowClosed{1900.0});
  ASSERT_EQ(over.rejected.size(), 1u);
  EXPECT_EQ(over.rejected[0], 1u);
  EXPECT_TRUE(engine.pool().empty());
}

TEST(DispatchEngineTest, ReshuffledAllocatedOrderIsNeverRejected) {
  Config config = TestConfig();
  config.max_unassigned_age = 1800.0;
  ScriptedPolicy policy;
  policy.reshuffle = true;
  DispatchEngine engine(&policy, config);
  engine.Handle(VehicleStateUpdate{MakeSnapshot(0), true});

  engine.Handle(OrderPlaced{MakeOrder(0, 0.0)});
  policy.script.push_back(AssignTo(0, {MakeOrder(0, 0.0)}));
  engine.Handle(WindowClosed{60.0});
  EXPECT_TRUE(engine.pool().empty());

  // Keep the vehicle stuck with the order unpicked for hours: every window
  // strips it into the pool, but it is allocated, so it never ages out.
  VehicleSnapshot stuck = MakeSnapshot(0);
  stuck.unpicked.push_back(MakeOrder(0, 0.0));
  engine.Handle(VehicleStateUpdate{stuck, true});
  WindowResult late = engine.Handle(WindowClosed{4.0 * 3600.0});
  EXPECT_TRUE(late.rejected.empty());
  ASSERT_EQ(late.reshuffled_vehicles.size(), 1u);
  ASSERT_EQ(late.reinstatements.size(), 1u);
  EXPECT_EQ(late.reinstatements[0].order.id, 0u);
}

TEST(DispatchEngineTest, ReshuffleRoundTripReturnsUnmatchedToIncumbent) {
  ScriptedPolicy policy;
  policy.reshuffle = true;
  DispatchEngine engine(&policy, TestConfig());

  VehicleSnapshot incumbent = MakeSnapshot(0);
  incumbent.unpicked.push_back(MakeOrder(0, 10.0));
  engine.Handle(VehicleStateUpdate{incumbent, true});
  engine.Handle(VehicleStateUpdate{MakeSnapshot(1), true});

  // The policy leaves the stripped order unmatched.
  WindowResult result = engine.Handle(WindowClosed{60.0});

  // The strip was visible to the policy: snapshot 0's unpicked list empty,
  // the order in the pool.
  ASSERT_EQ(policy.calls.size(), 1u);
  EXPECT_TRUE(policy.calls[0].vehicles[0].unpicked.empty());
  ASSERT_EQ(policy.calls[0].pool.size(), 1u);
  EXPECT_EQ(policy.calls[0].pool[0].id, 0u);

  ASSERT_EQ(result.reshuffled_vehicles.size(), 1u);
  EXPECT_EQ(result.reshuffled_vehicles[0], 0u);
  ASSERT_EQ(result.reinstatements.size(), 1u);
  EXPECT_EQ(result.reinstatements[0].order.id, 0u);
  EXPECT_EQ(result.reinstatements[0].vehicle, 0u);
  EXPECT_TRUE(engine.pool().empty());
}

TEST(DispatchEngineTest, ReshuffleKeepsOrderInPoolWhenIncumbentIsFull) {
  Config config = TestConfig();
  config.max_orders_per_vehicle = 1;
  ScriptedPolicy policy;
  policy.reshuffle = true;
  DispatchEngine engine(&policy, config);

  VehicleSnapshot incumbent = MakeSnapshot(0);
  incumbent.unpicked.push_back(MakeOrder(0, 10.0));
  engine.Handle(VehicleStateUpdate{incumbent, true});
  engine.Handle(OrderPlaced{MakeOrder(1, 20.0)});

  // The matching hands the incumbent a NEW order, taking its only slot; the
  // stripped order must stay in the pool (still allocated, not rejected).
  policy.script.push_back(AssignTo(0, {MakeOrder(1, 20.0)}));
  WindowResult result = engine.Handle(WindowClosed{60.0});

  EXPECT_TRUE(result.reinstatements.empty());
  ASSERT_EQ(engine.pool().size(), 1u);
  EXPECT_EQ(engine.pool()[0].id, 0u);
  EXPECT_TRUE(engine.ever_assigned(0));
}

// ---- Retirement events: bounded state for long-running serving ----

TEST(DispatchEngineTest, OrderDeliveredPrunesEverAssignedAndRecordLists) {
  ScriptedPolicy policy;
  DispatchEngine engine(&policy, TestConfig());
  engine.Handle(VehicleStateUpdate{MakeSnapshot(0), true});
  engine.Handle(OrderPlaced{MakeOrder(0, 10.0)});
  policy.script.push_back(AssignTo(0, {MakeOrder(0, 10.0)}));
  engine.Handle(WindowClosed{60.0});
  EXPECT_TRUE(engine.ever_assigned(0));
  EXPECT_EQ(engine.ever_assigned_count(), 1u);

  engine.Handle(OrderDelivered{0, 0});
  EXPECT_FALSE(engine.ever_assigned(0));
  EXPECT_EQ(engine.ever_assigned_count(), 0u);
  // The record's unpicked list was pruned immediately: a reshuffle window
  // right after finds nothing to strip.
  policy.reshuffle = true;
  const WindowResult after = engine.Handle(WindowClosed{120.0});
  EXPECT_TRUE(after.reshuffled_vehicles.empty());
}

TEST(DispatchEngineTest, VehicleRetiredReturnsUnpickedAndRemovesRecord) {
  ScriptedPolicy policy;
  DispatchEngine engine(&policy, TestConfig());
  VehicleSnapshot loaded = MakeSnapshot(7);
  loaded.unpicked.push_back(MakeOrder(3, 10.0));
  engine.Handle(VehicleStateUpdate{loaded, true});
  engine.Handle(VehicleStateUpdate{MakeSnapshot(9), true});
  EXPECT_EQ(engine.vehicle_count(), 2u);

  engine.Handle(VehicleRetired{7});
  EXPECT_EQ(engine.vehicle_count(), 1u);
  // The not-yet-picked-up order returned to the pool, allocated (so it can
  // never age out), exactly like a reshuffle strip.
  ASSERT_EQ(engine.pending_orders(), 1u);
  EXPECT_EQ(engine.pool()[0].id, 3u);
  EXPECT_TRUE(engine.ever_assigned(3));
  engine.Handle(WindowClosed{60.0});
  ASSERT_EQ(policy.calls.size(), 1u);
  ASSERT_EQ(policy.calls[0].vehicles.size(), 1u);
  EXPECT_EQ(policy.calls[0].vehicles[0].id, 9u);
}

TEST(DispatchEngineTest, RetirementPreservesAnnouncementOrderAndIndices) {
  ScriptedPolicy policy;
  DispatchEngine engine(&policy, TestConfig());
  engine.Handle(VehicleStateUpdate{MakeSnapshot(2), true});
  engine.Handle(VehicleStateUpdate{MakeSnapshot(5), true});
  engine.Handle(VehicleStateUpdate{MakeSnapshot(8), true});
  engine.Handle(VehicleRetired{5});

  // Assignments to the shifted-down vehicle still resolve, and snapshots
  // keep announcement order minus the retiree.
  engine.Handle(OrderPlaced{MakeOrder(0, 0.0)});
  policy.script.push_back(AssignTo(8, {MakeOrder(0, 0.0)}));
  const WindowResult result = engine.Handle(WindowClosed{60.0});
  ASSERT_EQ(result.decision.assignments.size(), 1u);
  EXPECT_TRUE(engine.pool().empty());
  ASSERT_EQ(policy.calls[0].vehicles.size(), 2u);
  EXPECT_EQ(policy.calls[0].vehicles[0].id, 2u);
  EXPECT_EQ(policy.calls[0].vehicles[1].id, 8u);

  // A retired vehicle that comes back is a fresh announcement, at the end.
  engine.Handle(VehicleStateUpdate{MakeSnapshot(5), true});
  engine.Handle(WindowClosed{120.0});
  ASSERT_EQ(policy.calls[1].vehicles.size(), 3u);
  EXPECT_EQ(policy.calls[1].vehicles[2].id, 5u);
}

TEST(DispatchEngineTest, RollingHorizonWithRetirementEventsStaysBounded) {
  ScriptedPolicy policy;
  DispatchEngine engine(&policy, TestConfig());
  engine.Handle(VehicleStateUpdate{MakeSnapshot(0), true});

  // A rolling service: every window takes in a fresh batch, assigns it,
  // delivers it, and retires it via OrderDelivered. Total processed orders
  // grow unboundedly; resident engine state must not.
  constexpr int kWindows = 200;
  constexpr int kPerWindow = 3;  // == Config::max_orders_per_vehicle
  OrderId next_id = 0;
  std::size_t max_pool = 0;
  std::size_t max_ever = 0;
  for (int w = 1; w <= kWindows; ++w) {
    const Seconds now = 60.0 * w;
    std::vector<Order> batch;
    for (int i = 0; i < kPerWindow; ++i) {
      batch.push_back(MakeOrder(next_id++, now - 30.0));
      engine.Handle(OrderPlaced{batch.back()});
    }
    policy.script.push_back(AssignTo(0, batch));
    const WindowResult result = engine.Handle(WindowClosed{now});
    ASSERT_EQ(result.decision.assignments.size(), 1u);
    for (const Order& o : batch) engine.Handle(OrderDelivered{o.id, 0});
    engine.Handle(VehicleStateUpdate{MakeSnapshot(0), true});
    max_pool = std::max(max_pool, engine.pending_orders());
    max_ever = std::max(max_ever, engine.ever_assigned_count());
  }

  EXPECT_EQ(next_id, static_cast<OrderId>(kWindows * kPerWindow));
  EXPECT_EQ(engine.pending_orders(), 0u);
  EXPECT_EQ(engine.ever_assigned_count(), 0u);
  EXPECT_EQ(engine.vehicle_count(), 1u);
  EXPECT_LE(max_pool, static_cast<std::size_t>(kPerWindow));
  EXPECT_LE(max_ever, static_cast<std::size_t>(kPerWindow));
}

TEST(DispatchEngineTest, ObserverSeesPoolBeforeAssignmentsAreApplied) {
  ScriptedPolicy policy;
  DispatchEngine engine(&policy, TestConfig());
  engine.Handle(VehicleStateUpdate{MakeSnapshot(0), true});
  engine.Handle(OrderPlaced{MakeOrder(0, 10.0)});
  policy.script.push_back(AssignTo(0, {MakeOrder(0, 10.0)}));

  std::size_t observed_pool = 0;
  std::size_t observed_assignments = 0;
  engine.set_observer([&](const WindowView& view) {
    observed_pool = view.pool->size();
    observed_assignments = view.decision->assignments.size();
  });
  engine.Handle(WindowClosed{60.0});
  EXPECT_EQ(observed_pool, 1u);  // still in the pool at observation time
  EXPECT_EQ(observed_assignments, 1u);
  EXPECT_TRUE(engine.pool().empty());  // applied after the observer ran
}

TEST(DispatchEngineTest, MeasureWallClockOffReportsZeroDecisionSeconds) {
  ScriptedPolicy policy;
  DispatchEngine engine(&policy, TestConfig(),
                        DispatchEngineOptions{.measure_wall_clock = false});
  engine.Handle(VehicleStateUpdate{MakeSnapshot(0), true});
  const WindowResult result = engine.Handle(WindowClosed{60.0});
  EXPECT_EQ(result.decision_seconds, 0.0);
}

// ---- Position pings and retirement under churn (stress-stream events) ----

TEST(DispatchEngineTest, BarePingPreservesInFlightListsUntilRetirement) {
  ScriptedPolicy policy;
  DispatchEngine engine(&policy, TestConfig());
  engine.Handle(VehicleStateUpdate{MakeSnapshot(7), true});
  engine.Handle(OrderPlaced{MakeOrder(0, 10.0)});
  policy.script.push_back(AssignTo(7, {MakeOrder(0, 10.0)}));
  engine.Handle(WindowClosed{60.0});
  EXPECT_TRUE(engine.VehicleHasInFlight(7));

  // A gateway-style position ping carries no lists; the engine's own
  // picked/unpicked bookkeeping must survive it, with the new position
  // adopted.
  engine.Handle(VehicleStateUpdate{MakeSnapshot(7, /*at=*/1), true});
  EXPECT_TRUE(engine.VehicleHasInFlight(7));
  engine.Handle(WindowClosed{120.0});
  ASSERT_EQ(policy.calls.size(), 2u);
  ASSERT_EQ(policy.calls[1].vehicles.size(), 1u);
  const VehicleSnapshot& seen = policy.calls[1].vehicles[0];
  EXPECT_EQ(seen.location, 1u);
  ASSERT_EQ(seen.unpicked.size(), 1u);
  EXPECT_EQ(seen.unpicked[0].id, 0u);

  // Retirement after the ping still returns the preserved unpicked order.
  engine.Handle(VehicleRetired{7});
  EXPECT_FALSE(engine.VehicleHasInFlight(7));
  ASSERT_EQ(engine.pending_orders(), 1u);
  EXPECT_EQ(engine.pool()[0].id, 0u);
  EXPECT_TRUE(engine.ever_assigned(0));
}

TEST(DispatchEngineTest, MidShiftRetirementSplitsPickedFromUnpicked) {
  ScriptedPolicy policy;
  DispatchEngine engine(&policy, TestConfig());
  // A vehicle mid-shift: order 1 on board, order 2 accepted but not yet
  // picked up (announced by a full-state driver update).
  VehicleSnapshot loaded = MakeSnapshot(3);
  loaded.picked.push_back(MakeOrder(1, 5.0));
  loaded.unpicked.push_back(MakeOrder(2, 8.0));
  engine.Handle(VehicleStateUpdate{loaded, true});
  EXPECT_TRUE(engine.VehicleHasInFlight(3));

  // Retiring mid-shift: the on-board order leaves with the vehicle, only
  // the unpicked one returns to the pool (allocated, so never rejected).
  engine.Handle(VehicleRetired{3});
  EXPECT_EQ(engine.vehicle_count(), 0u);
  ASSERT_EQ(engine.pending_orders(), 1u);
  EXPECT_EQ(engine.pool()[0].id, 2u);
  EXPECT_TRUE(engine.ever_assigned(2));
  EXPECT_FALSE(engine.ever_assigned(1));
}

TEST(DispatchEngineTest, ShiftChurnWithIdReuseKeepsStateBounded) {
  ScriptedPolicy policy;
  DispatchEngine engine(&policy, TestConfig());
  // Shift-change churn as stress_gen emits it with reuse_ids: the same
  // vehicle id cycles announce → assign → ping → retire, every cycle
  // leaving one unpicked order behind. Resident state must track the
  // (bounded) in-flight load, not the (unbounded) shift count.
  constexpr int kShifts = 50;
  OrderId next_id = 0;
  for (int shift = 0; shift < kShifts; ++shift) {
    const Seconds base = 600.0 * shift;
    // Re-announcement of a reused id is a fresh vehicle: no lists carried
    // over from the previous shift's record.
    engine.Handle(VehicleStateUpdate{MakeSnapshot(4), true});
    EXPECT_FALSE(engine.VehicleHasInFlight(4));
    EXPECT_EQ(engine.vehicle_count(), 1u);

    const OrderId delivered_id = next_id++;
    const OrderId stranded_id = next_id++;
    engine.Handle(OrderPlaced{MakeOrder(delivered_id, base + 10.0)});
    engine.Handle(OrderPlaced{MakeOrder(stranded_id, base + 20.0)});
    policy.script.push_back(AssignTo(4, {MakeOrder(delivered_id, base + 10.0),
                                         MakeOrder(stranded_id, base + 20.0)}));
    engine.Handle(WindowClosed{base + 60.0});
    engine.Handle(VehicleStateUpdate{MakeSnapshot(4, /*at=*/1), true});
    EXPECT_TRUE(engine.VehicleHasInFlight(4));
    engine.Handle(OrderDelivered{delivered_id, 4});

    engine.Handle(VehicleRetired{4});
    EXPECT_EQ(engine.vehicle_count(), 0u);
    // Exactly the stranded order came back; next window hands it to the
    // next shift's vehicle so the pool drains before the cycle repeats.
    ASSERT_EQ(engine.pending_orders(), 1u);
    EXPECT_EQ(engine.pool()[0].id, stranded_id);
    engine.Handle(VehicleStateUpdate{MakeSnapshot(4), true});
    policy.script.push_back(AssignTo(4, {MakeOrder(stranded_id, base + 20.0)}));
    engine.Handle(WindowClosed{base + 120.0});
    engine.Handle(OrderDelivered{stranded_id, 4});
    engine.Handle(VehicleRetired{4});
    EXPECT_EQ(engine.pending_orders(), 0u);
    EXPECT_EQ(engine.ever_assigned_count(), 0u);
  }
  EXPECT_EQ(next_id, static_cast<OrderId>(2 * kShifts));
  EXPECT_EQ(engine.vehicle_count(), 0u);
}

// ---- Determinism and the engine-equivalence gate ----

struct Scenario {
  RoadNetwork network;
  std::vector<Vehicle> fleet;
  std::vector<Order> orders;
};

Scenario MakeScenario(std::uint64_t seed, int num_vehicles, int num_orders,
                      Seconds horizon) {
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
    o.restaurant = static_cast<NodeId>(rng.UniformInt(s.network.num_nodes()));
    o.customer = static_cast<NodeId>(rng.UniformInt(s.network.num_nodes()));
    o.placed_at = 12 * 3600.0 + rng.UniformRange(0.0, horizon);
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

std::uint64_t HashBytes(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t HashU64(std::uint64_t h, std::uint64_t v) {
  return HashBytes(h, &v, sizeof(v));
}

std::uint64_t HashDouble(std::uint64_t h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return HashU64(h, bits);
}

// Bitwise fingerprint of everything deterministic in a SimulationResult.
// Must stay in sync with the capture harness that produced the golden
// constants below.
std::uint64_t Fingerprint(const SimulationResult& r) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  const Metrics& m = r.metrics;
  h = HashU64(h, m.orders_total);
  h = HashU64(h, m.orders_delivered);
  h = HashU64(h, m.orders_rejected);
  h = HashU64(h, m.orders_pending_at_end);
  h = HashDouble(h, m.total_xdt_seconds);
  h = HashDouble(h, m.total_delivery_seconds);
  h = HashDouble(h, m.total_wait_seconds);
  for (double d : m.distance_by_load_m) h = HashDouble(h, d);
  h = HashU64(h, m.windows);
  h = HashU64(h, m.cost_evaluations);
  for (const SlotMetrics& s : m.per_slot) {
    h = HashU64(h, s.orders_placed);
    h = HashU64(h, s.orders_delivered);
    h = HashDouble(h, s.xdt_seconds);
    h = HashDouble(h, s.wait_seconds);
    h = HashDouble(h, s.distance_m);
    h = HashDouble(h, s.load_distance_m);
    h = HashU64(h, s.windows);
  }
  for (const OrderOutcome& o : r.outcomes) {
    h = HashU64(h, static_cast<std::uint64_t>(o.state));
    h = HashU64(h, o.id);
    h = HashU64(h, o.vehicle);
    h = HashDouble(h, o.delivered_at);
    h = HashDouble(h, o.xdt);
    h = HashU64(h, static_cast<std::uint64_t>(o.times_assigned));
  }
  return h;
}

std::uint64_t RunFingerprint(const Scenario& s, const DistanceOracle& oracle,
                             AssignmentPolicy* policy, const Config& config) {
  SimulationInput input;
  input.network = &s.network;
  input.oracle = &oracle;
  input.config = config;
  input.fleet = s.fleet;
  input.orders = s.orders;
  input.start_time = 12 * 3600.0;
  input.end_time = 13 * 3600.0;
  input.drain_time = 7200.0;
  input.measure_wall_clock = false;
  Simulator sim(std::move(input), policy);
  return Fingerprint(sim.Run());
}

class EngineEquivalenceTest : public ::testing::Test {
 protected:
  EngineEquivalenceTest()
      : scenario_(MakeScenario(7777, 6, 60, 3600.0)),
        oracle_(&scenario_.network, OracleBackend::kDijkstra) {}

  Config ConfigWithThreads(int threads) {
    Config config;
    config.accumulation_window = 90.0;
    config.threads = threads;
    return config;
  }

  Scenario scenario_;
  DistanceOracle oracle_;
};

// Golden fingerprints captured from the pre-refactor monolithic
// Simulator::Run (commit b319db6, before the DispatchEngine split) on the
// exact scenario above. The refactored engine/driver path must reproduce
// the seed path's SimulationResult bit-for-bit — every metric accumulator,
// per-slot bucket, and per-order outcome — at 1 and N threads.
constexpr std::uint64_t kGoldenFoodMatch = 0x26a143c51e16d12aull;
constexpr std::uint64_t kGoldenGreedy = 0xd543f5fb2b531d57ull;
constexpr std::uint64_t kGoldenKM = 0x9f48a05412a5fe5eull;
constexpr std::uint64_t kGoldenReyes = 0x97b2e2a84ff4939full;

TEST_F(EngineEquivalenceTest, FoodMatchMatchesSeedPathAt1AndNThreads) {
  // The golden must hold with the FOODGRAPH's EdgeCache both cold every
  // window and kept across windows, at 1 and N threads.
  for (bool incremental : {false, true}) {
    for (int threads : {1, 4}) {
      Config config = ConfigWithThreads(threads);
      config.incremental_graph = incremental;
      MatchingPolicy policy(&oracle_, config,
                            MatchingPolicyOptions::FoodMatch());
      EXPECT_EQ(RunFingerprint(scenario_, oracle_, &policy, config),
                kGoldenFoodMatch)
          << "threads=" << threads << " incremental=" << incremental;
    }
  }
}

TEST_F(EngineEquivalenceTest, BaselinePoliciesMatchSeedPath) {
  const Config config = ConfigWithThreads(1);
  GreedyPolicy greedy(&oracle_, config);
  EXPECT_EQ(RunFingerprint(scenario_, oracle_, &greedy, config),
            kGoldenGreedy);
  ReyesPolicy reyes(&scenario_.network, config);
  EXPECT_EQ(RunFingerprint(scenario_, oracle_, &reyes, config), kGoldenReyes);
  // KM exercises the full (quadratic) fill; gate it with the EdgeCache
  // cold and persistent, at 1 and N threads, as well.
  for (bool incremental : {false, true}) {
    for (int threads : {1, 4}) {
      Config km_config = ConfigWithThreads(threads);
      km_config.incremental_graph = incremental;
      MatchingPolicy km(&oracle_, km_config,
                        MatchingPolicyOptions::VanillaKM());
      EXPECT_EQ(RunFingerprint(scenario_, oracle_, &km, km_config), kGoldenKM)
          << "threads=" << threads << " incremental=" << incremental;
    }
  }
  // Reyes fills its graph serially; its golden holds at N configured
  // threads too.
  const Config reyes_config = ConfigWithThreads(4);
  ReyesPolicy reyes4(&scenario_.network, reyes_config);
  EXPECT_EQ(RunFingerprint(scenario_, oracle_, &reyes4, reyes_config),
            kGoldenReyes);
}

TEST(DispatchEngineDeterminismTest, WindowResultsIdenticalFor1AndNThreads) {
  // Drive the engine directly (no simulator) with an identical event stream
  // at 1 and 4 lanes; every WindowResult must match field-for-field.
  Scenario s = MakeScenario(4242, 5, 40, 1800.0);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);

  auto run = [&](int threads) {
    Config config;
    config.accumulation_window = 120.0;
    config.threads = threads;
    MatchingPolicy policy(&oracle, config,
                          MatchingPolicyOptions::FoodMatch());
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
    for (Seconds now = 12 * 3600.0 + 120.0; now <= 12 * 3600.0 + 1800.0;
         now += 120.0) {
      while (next < s.orders.size() && s.orders[next].placed_at <= now) {
        engine.Handle(OrderPlaced{s.orders[next]});
        ++next;
      }
      results.push_back(engine.Handle(WindowClosed{now}));
    }
    return results;
  };

  const std::vector<WindowResult> serial = run(1);
  const std::vector<WindowResult> threaded = run(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t w = 0; w < serial.size(); ++w) {
    const WindowResult& a = serial[w];
    const WindowResult& b = threaded[w];
    EXPECT_EQ(a.rejected, b.rejected) << "window " << w;
    EXPECT_EQ(a.reshuffled_vehicles, b.reshuffled_vehicles) << "window " << w;
    ASSERT_EQ(a.decision.assignments.size(), b.decision.assignments.size())
        << "window " << w;
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
        << "window " << w;
    for (std::size_t i = 0; i < a.reinstatements.size(); ++i) {
      EXPECT_EQ(a.reinstatements[i].order, b.reinstatements[i].order);
      EXPECT_EQ(a.reinstatements[i].vehicle, b.reinstatements[i].vehicle);
    }
    EXPECT_EQ(a.decision.cost_evaluations, b.decision.cost_evaluations)
        << "window " << w;
  }
}

}  // namespace
}  // namespace fm
