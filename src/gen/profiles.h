// City profiles: the Table II datasets, scaled ~40× down so a full day
// simulates in seconds-to-minutes on one machine while preserving the
// distributional properties the evaluation depends on (order:vehicle ratio
// per slot, prep-time means, relative city sizes).
//
//   paper City A:  23,442 orders/day,  2,454 vehicles, 2,085 rest., 39k nodes
//   paper City B: 159,160 orders/day, 13,429 vehicles, 6,777 rest., 116k nodes
//   paper City C: 112,745 orders/day, 10,608 vehicles, 8,116 rest., 183k nodes
//   GrubHub:        1,046 orders/day,    183 vehicles,   159 rest., no network
#ifndef FOODMATCH_GEN_PROFILES_H_
#define FOODMATCH_GEN_PROFILES_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "common/time.h"
#include "common/types.h"
#include "gen/city_gen.h"

namespace fm {

struct CityProfile {
  std::string name;
  CityGenParams city;
  int num_restaurants = 0;
  int num_vehicles = 0;
  int orders_per_day = 0;
  // Mean/stddev of restaurant-level mean preparation time.
  Seconds prep_mean = 8.0 * 60.0;
  Seconds prep_restaurant_std = 2.0 * 60.0;
  // Per-order prep stddev around the restaurant mean.
  Seconds prep_order_std = 60.0;
  // Relative order intensity per hour slot (normalized internally); the
  // bimodal lunch/dinner shape of Fig. 6(a).
  std::array<double, kSlotsPerDay> demand_shape;
  // Number of restaurant hotspots.
  int hotspots = 4;
  // Default accumulation window ∆ (paper: 180 s for B/C, 60 s for A).
  Seconds default_delta = 180.0;
  // Base RNG seed for this profile.
  std::uint64_t seed = 1;

  // True for the GrubHub profile: policies should use haversine distances
  // (no road network is available in the original dataset).
  bool haversine_only = false;
};

// The bimodal lunch/dinner demand shape (Fig. 6(a)); `peak_sharpness`
// accentuates the lunch/dinner peaks relative to off-peak hours.
std::array<double, kSlotsPerDay> BimodalDemandShape(double peak_sharpness);

// Scaled Table II profiles. `scale` divides order/vehicle/restaurant counts
// (default 40). Node counts are scaled separately to keep simulation and
// index construction laptop-fast.
CityProfile CityAProfile(double scale = 40.0);
CityProfile CityBProfile(double scale = 40.0);
CityProfile CityCProfile(double scale = 40.0);
CityProfile GrubhubProfile(double scale = 4.0);

// The names CityProfileByName accepts, as a CLI usage string.
inline constexpr const char* kCityProfileNames = "A|B|C|grubhub";

// The profile named "A", "B", "C" or "grubhub" at `scale`; std::nullopt for
// any other name.
std::optional<CityProfile> CityProfileByName(const std::string& name,
                                             double scale);

}  // namespace fm

#endif  // FOODMATCH_GEN_PROFILES_H_
