// Umbrella header: the full public API of the FoodMatch library.
//
// Typical usage (see examples/quickstart.cpp):
//
//   fm::Workload w = fm::GenerateWorkload(fm::CityAProfile());
//   fm::DistanceOracle oracle(&w.network, fm::OracleBackend::kHubLabels);
//   fm::Config config;
//   auto policy = fm::PolicyRegistry::Global().Create("foodmatch", &oracle,
//                                                     config);
//   fm::SimulationInput input{.network = &w.network, .oracle = &oracle,
//                             .config = config, .fleet = w.fleet,
//                             .orders = w.orders};
//   fm::Simulator sim(std::move(input), policy.get());
//   fm::SimulationResult result = sim.Run();
//
// For online serving (no replay), drive a fm::DispatchEngine directly with
// OrderPlaced / VehicleStateUpdate / WindowClosed events (plus the
// OrderDelivered / VehicleRetired retirement events on rolling horizons) —
// see core/dispatch_engine.h. To scale dispatch horizontally, put a
// fm::ShardedDispatchEngine behind the same DispatchCore interface: K
// region-partitioned engines, one router — see
// serving/sharded_dispatch_engine.h.
#ifndef FOODMATCH_FOODMATCH_FOODMATCH_H_
#define FOODMATCH_FOODMATCH_FOODMATCH_H_

#include "common/binary_io.h"  // IWYU pragma: export
#include "common/check.h"      // IWYU pragma: export
#include "common/checksum.h"   // IWYU pragma: export
#include "common/mpsc_queue.h"   // IWYU pragma: export
#include "common/profiler.h"   // IWYU pragma: export
#include "common/rng.h"        // IWYU pragma: export
#include "common/stats.h"      // IWYU pragma: export
#include "common/thread_pool.h"  // IWYU pragma: export
#include "common/time.h"       // IWYU pragma: export
#include "common/types.h"      // IWYU pragma: export
#include "core/assignment_policy.h"  // IWYU pragma: export
#include "core/batching.h"     // IWYU pragma: export
#include "core/dispatch_engine.h"  // IWYU pragma: export
#include "core/engine_event.h"     // IWYU pragma: export
#include "core/fingerprint.h"      // IWYU pragma: export
#include "core/food_graph.h"   // IWYU pragma: export
#include "core/greedy_policy.h"    // IWYU pragma: export
#include "core/intake_stage.h"     // IWYU pragma: export
#include "core/matching_policy.h"  // IWYU pragma: export
#include "core/policy_registry.h"  // IWYU pragma: export
#include "core/window_executor.h"  // IWYU pragma: export
#include "core/reyes_policy.h"     // IWYU pragma: export
#include "durability/recovery.h"   // IWYU pragma: export
#include "durability/snapshot.h"   // IWYU pragma: export
#include "durability/wal.h"        // IWYU pragma: export
#include "gen/city_gen.h"      // IWYU pragma: export
#include "gen/profiles.h"      // IWYU pragma: export
#include "gen/workload.h"      // IWYU pragma: export
#include "geo/geo.h"           // IWYU pragma: export
#include "graph/dijkstra.h"    // IWYU pragma: export
#include "graph/distance_oracle.h"  // IWYU pragma: export
#include "graph/hub_labels.h"  // IWYU pragma: export
#include "graph/road_network.h"     // IWYU pragma: export
#include "graph/spatial_index.h"    // IWYU pragma: export
#include "io/csv.h"            // IWYU pragma: export
#include "io/geojson.h"        // IWYU pragma: export
#include "io/table_printer.h"  // IWYU pragma: export
#include "io/workload_io.h"    // IWYU pragma: export
#include "matching/brute_force.h"   // IWYU pragma: export
#include "matching/hungarian.h"     // IWYU pragma: export
#include "model/config.h"      // IWYU pragma: export
#include "model/order.h"       // IWYU pragma: export
#include "model/vehicle.h"     // IWYU pragma: export
#include "obs/instruments.h"       // IWYU pragma: export
#include "obs/metrics_registry.h"  // IWYU pragma: export
#include "obs/telemetry.h"         // IWYU pragma: export
#include "obs/trace.h"             // IWYU pragma: export
#include "routing/costs.h"     // IWYU pragma: export
#include "routing/insertion_planner.h"  // IWYU pragma: export
#include "routing/route_plan.h"     // IWYU pragma: export
#include "routing/route_planner.h"  // IWYU pragma: export
#include "serving/event_log.h"                // IWYU pragma: export
#include "serving/event_replay.h"             // IWYU pragma: export
#include "serving/event_source.h"             // IWYU pragma: export
#include "serving/region_partitioner.h"       // IWYU pragma: export
#include "serving/sharded_dispatch_engine.h"  // IWYU pragma: export
#include "serving/streaming_replay.h"         // IWYU pragma: export
#include "sim/metrics.h"       // IWYU pragma: export
#include "sim/simulator.h"     // IWYU pragma: export
#include "sim/trace.h"         // IWYU pragma: export
#include "stress/latency_recorder.h"  // IWYU pragma: export
#include "stress/scenario.h"          // IWYU pragma: export
#include "stress/stress_gen.h"        // IWYU pragma: export

#endif  // FOODMATCH_FOODMATCH_FOODMATCH_H_
