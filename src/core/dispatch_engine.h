// The online dispatch core of the paper's §IV-E pipeline, carved out of the
// batch simulator so the same decision loop can serve live traffic.
//
// A DispatchEngine is an incremental, event-driven object. Callers feed it
// typed events —
//
//   OrderPlaced         a new order enters the unassigned pool O(ℓ),
//   VehicleStateUpdate  the latest known state of one vehicle,
//   WindowClosed(now)   an accumulation window ∆ ended at `now`,
//
// — and each WindowClosed returns a WindowResult: the policy's
// AssignmentDecision plus every pool transition the engine performed
// (rejections of orders that aged past the 30-minute limit, the reshuffle
// strip of §IV-D2, and reinstatements of stripped orders the matching did
// not re-place). The engine owns the unassigned pool, order ageing, the
// reshuffle bookkeeping, and the policy + thread-pool plumbing; it knows
// nothing about kinematics, itineraries, or metrics. Anything that moves a
// vehicle or scores an outcome lives in the driver (`sim/simulator.h` for
// offline replay).
//
// Determinism: the engine is a deterministic function of its event stream.
// Two engines fed identical events in identical order produce bit-identical
// WindowResults for any Config::threads (the policy's parallelism is
// statically sharded; see common/thread_pool.h), which is what lets the
// replay driver reproduce a recorded day exactly.
//
// Long-running serving is kept bounded by two retirement events:
//
//   OrderDelivered      the order left the system — prune it from the
//                       ever-assigned set (and its record's lists),
//   VehicleRetired      the vehicle departed — drop its record, returning
//                       any not-yet-picked-up orders to the pool,
//
// so resident state (pool + vehicle records + ever-assigned set) scales
// with the *in-flight* workload, not with the total orders ever processed.
// Drivers that replay bounded horizons may skip them; a rolling service
// must emit them (the replay driver in sim/simulator.h emits
// OrderDelivered at each drop-off).
//
// The engine also implements DispatchCore, the event-intake interface
// drivers program against, so the same replay loop can serve one city-wide
// engine or a region-sharded fleet (serving/sharded_dispatch_engine.h).
#ifndef FOODMATCH_CORE_DISPATCH_ENGINE_H_
#define FOODMATCH_CORE_DISPATCH_ENGINE_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.h"
#include "core/assignment_policy.h"
#include "core/engine_event.h"
#include "model/config.h"
#include "model/order.h"
#include "model/vehicle.h"

namespace fm {

// ---- Events ----
//
// The typed event structs (OrderPlaced, VehicleStateUpdate, WindowClosed,
// OrderDelivered, VehicleRetired) and the EngineEvent variant over the four
// intake events live in core/engine_event.h, re-exported here — event
// consumers only ever include this header.

// ---- Window output ----

// Observer invoked after the window's assignment decision, before the
// engine applies it to the pool. Used by analysis benches (e.g. the
// Fig. 4(a) percentile ranks) and CSV tracing.
struct WindowView {
  Seconds now = 0.0;
  const std::vector<Order>* pool = nullptr;
  const std::vector<VehicleSnapshot>* snapshots = nullptr;
  const AssignmentDecision* decision = nullptr;
};
using WindowObserver = std::function<void(const WindowView&)>;

// Everything one WindowClosed event did, in the order it happened. A driver
// replaying against its own vehicle state must mirror the transitions in
// this order: strip `reshuffled_vehicles`, apply `decision.assignments`,
// then apply `reinstatements`.
struct WindowResult {
  Seconds now = 0.0;

  // Orders that stayed unallocated beyond Config::max_unassigned_age and
  // were dropped from the pool this window. An order that was assigned at
  // least once is "allocated" in the paper's sense — even if reshuffling
  // has put it back into the pool — and is never rejected.
  std::vector<OrderId> rejected;

  // Vehicles whose not-yet-picked-up orders were stripped back into the
  // pool before the decision (reshuffling, §IV-D2). Empty unless the policy
  // wants_reshuffle(). Drivers must clear their own unpicked lists for
  // these vehicles.
  std::vector<VehicleId> reshuffled_vehicles;

  // The policy's decision. `decision.assignments` have already been removed
  // from the engine's pool; the driver hands them to its vehicles.
  AssignmentDecision decision;

  // Stripped orders the matching did not re-place, returned to their
  // incumbent vehicle — capacity permitting; an order whose slot was taken
  // by a new batch stays in the pool, still counted as allocated.
  struct Reinstatement {
    Order order;
    VehicleId vehicle = kInvalidVehicle;
  };
  std::vector<Reinstatement> reinstatements;

  // Wall-clock seconds the policy took (the overflow measurement of §V-E).
  // Exactly 0.0 when DispatchEngineOptions::measure_wall_clock is false.
  double decision_seconds = 0.0;
};

// ---- Resident state ----

// The full event-sourced state of one DispatchEngine between windows:
// everything a restored engine needs to continue bit-identically to the
// original. Captured by snapshots (durability/snapshot.h) and compared by
// the crash-recovery gates. Deliberately excludes derived state — the
// vehicle index is rebuilt on restore, the snapshot scratch is repopulated
// at the next window, and policy caches (e.g. the EdgeCache) start cold,
// which is bit-neutral: a cold EdgeCache builds the same FOODGRAPH as a
// persistent one (core/edge_cache.h).
struct EngineResidentState {
  struct VehicleEntry {
    VehicleSnapshot snapshot;
    bool on_duty = true;
    friend bool operator==(const VehicleEntry&, const VehicleEntry&) = default;
  };
  // The unassigned pool, in pool order.
  std::vector<Order> pool;
  // Vehicle records in first-announcement order (the order the policy sees).
  std::vector<VehicleEntry> vehicles;
  // In-flight allocated orders, sorted by id (the set has no inherent
  // order; sorting makes the capture canonical and byte-stable).
  std::vector<OrderId> ever_assigned;

  friend bool operator==(const EngineResidentState&,
                         const EngineResidentState&) = default;
};

struct DispatchEngineOptions {
  // When false, decision_seconds is reported as 0.0 so downstream overflow
  // accounting stays deterministic (tests, recorded replays). The phase
  // fields inside AssignmentDecision are the policy's own measurements and
  // are not affected.
  bool measure_wall_clock = true;
};

// ---- The intake interface ----

// What a dispatch driver programs against: typed event intake plus the two
// hooks the replay loop needs (the observer and the shared thread pool).
// Implemented by DispatchEngine (one city-wide engine) and by
// ShardedDispatchEngine (serving/sharded_dispatch_engine.h, K
// region-partitioned engines behind one router), so the same driver can
// replay against either topology.
class DispatchCore {
 public:
  virtual ~DispatchCore() = default;

  virtual void Handle(OrderPlaced event) = 0;
  virtual void Handle(VehicleStateUpdate event) = 0;
  virtual void Handle(OrderDelivered event) = 0;
  virtual void Handle(VehicleRetired event) = 0;
  virtual WindowResult Handle(const WindowClosed& event) = 0;

  // Observer called between each window's decision and its application to
  // the pool (per shard, in shard order, for sharded implementations).
  virtual void set_observer(WindowObserver observer) = 0;

  // Orders currently waiting for assignment (summed over shards).
  virtual std::size_t pending_orders() const = 0;

  // Execution lanes shared with the driver for its rebuild phase; null when
  // running serially.
  virtual ThreadPool* thread_pool() const = 0;
};

// Feeds one type-erased intake event to `core` (std::visit over the
// variant's Handle overloads). The bridge between the streaming intake path
// — which stages EngineEvents — and the typed DispatchCore interface.
void ApplyEvent(DispatchCore& core, EngineEvent event);

// ---- The engine ----

class DispatchEngine : public DispatchCore {
 public:
  // `policy` must outlive the engine. `config` supplies the ageing limit,
  // the capacity bounds used for reinstatement, and the thread-lane count.
  // When `config.threads` resolves to more than one lane the engine borrows
  // the policy's pool if it owns one (decision and driver phases never
  // overlap) and spawns its own only otherwise.
  DispatchEngine(AssignmentPolicy* policy, const Config& config,
                 DispatchEngineOptions options = {});

  DispatchEngine(const DispatchEngine&) = delete;
  DispatchEngine& operator=(const DispatchEngine&) = delete;

  // Event intake. Handle(WindowClosed) runs reject → reshuffle-strip →
  // snapshot → decide → apply → reinstate and returns the transitions.
  // Handle(OrderDelivered) / Handle(VehicleRetired) prune resident state
  // (see the event comments above) so a rolling service stays bounded.
  void Handle(OrderPlaced event) override;
  void Handle(VehicleStateUpdate event) override;
  void Handle(OrderDelivered event) override;
  void Handle(VehicleRetired event) override;
  WindowResult Handle(const WindowClosed& event) override;

  // Observer called between the decision and its application to the pool
  // (the classic window-trace hook).
  void set_observer(WindowObserver observer) override {
    observer_ = std::move(observer);
  }

  // The unassigned pool O(ℓ): orders placed or stripped but not currently
  // assigned to any vehicle. Ordered by arrival into the pool.
  const std::vector<Order>& pool() const { return pool_; }

  // Snapshot list handed to the policy at the last WindowClosed (on-duty
  // vehicles in announcement order). Valid until the next event.
  const std::vector<VehicleSnapshot>& last_snapshots() const {
    return snapshots_;
  }

  // Whether `order_id` was part of an emitted assignment and is still in
  // flight (exempt from rejection). OrderDelivered removes it.
  bool ever_assigned(OrderId order_id) const {
    return ever_assigned_.count(order_id) > 0;
  }

  // Resident-state sizes, for bounded-memory assertions in rolling tests.
  std::size_t pending_orders() const override { return pool_.size(); }
  std::size_t ever_assigned_count() const { return ever_assigned_.size(); }
  std::size_t vehicle_count() const { return vehicles_.size(); }

  // Whether the engine's record of `vehicle` carries picked or unpicked
  // orders (false for unknown vehicles). The sharded router consults this
  // so a bare position ping can never migrate a loaded vehicle.
  bool VehicleHasInFlight(VehicleId vehicle) const;

  // Captures the full resident state in canonical form (see
  // EngineResidentState). Valid between events; cheap relative to a window.
  EngineResidentState CaptureResidentState() const;

  // Restores a captured state into a *fresh* engine (aborts if any events
  // were already applied). The vehicle index is rebuilt; no policy hooks
  // fire — a restored engine behaves like one that was handed the same
  // state through events, with cold policy caches (bit-neutral, see
  // EngineResidentState).
  void RestoreResidentState(EngineResidentState state);

  AssignmentPolicy* policy() const { return policy_; }
  const Config& config() const { return config_; }

  // Execution lanes shared with the driver (rebuild phases never overlap
  // with decisions). Null when running serially.
  ThreadPool* thread_pool() const override { return thread_pool_; }

 private:
  // The engine's view of one vehicle: the latest snapshot plus duty status.
  struct VehicleRecord {
    VehicleSnapshot snapshot;
    bool on_duty = true;
  };

  // Capacity check for assigning/reinstating `order` onto `record`'s
  // vehicle given the orders already tracked against it.
  bool Fits(const VehicleRecord& record, const Order& order) const;

  AssignmentPolicy* policy_;
  Config config_;
  DispatchEngineOptions options_;
  WindowObserver observer_;

  // Lanes for the decision pipeline, shared with the driver. Borrowed from
  // the policy when it owns one; owned here only otherwise. Null when
  // serial.
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* thread_pool_ = nullptr;

  std::vector<Order> pool_;
  std::vector<VehicleRecord> vehicles_;  // in first-announcement order
  std::unordered_map<VehicleId, std::size_t> vehicle_index_;
  std::unordered_set<OrderId> ever_assigned_;
  // Scratch reused across windows (contents valid until the next event).
  std::vector<VehicleSnapshot> snapshots_;
};

}  // namespace fm

#endif  // FOODMATCH_CORE_DISPATCH_ENGINE_H_
