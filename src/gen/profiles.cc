#include "gen/profiles.h"

#include <cmath>

#include "common/check.h"

namespace fm {

std::array<double, kSlotsPerDay> BimodalDemandShape(double peak_sharpness) {
  FM_CHECK_GE(peak_sharpness, 1.0);
  // Base hourly weights: quiet nights, small breakfast bump, lunch peak
  // (12–14), dinner peak (19–21). Matches the two-peak ratio curves of
  // Fig. 6(a).
  static constexpr double kBase[kSlotsPerDay] = {
      0.25, 0.12, 0.06, 0.04, 0.04, 0.06,  // 00–05
      0.10, 0.22, 0.45, 0.60, 0.55, 0.80,  // 06–11
      1.50, 1.70, 0.90, 0.50, 0.45, 0.60,  // 12–17
      1.00, 1.80, 2.00, 1.20, 0.70, 0.40,  // 18–23
  };
  std::array<double, kSlotsPerDay> shape;
  for (int s = 0; s < kSlotsPerDay; ++s) {
    // Sharpen by exponentiation: off-peak hours shrink relative to peaks.
    shape[s] = std::pow(kBase[s], peak_sharpness);
  }
  return shape;
}

CityProfile CityAProfile(double scale) {
  FM_CHECK_GT(scale, 0.0);
  CityProfile p;
  p.name = "CityA";
  p.city.grid_width = 38;
  p.city.grid_height = 38;
  p.city.spacing_m = 165.0;
  p.city.base_lat_deg = 17.40;  // smaller metro
  p.city.base_lon_deg = 78.45;
  p.city.congestion = UrbanCongestion(1.8);
  p.num_restaurants = static_cast<int>(2085 / scale);
  p.num_vehicles = static_cast<int>(2454 / scale);
  p.orders_per_day = static_cast<int>(23442 / scale);
  p.prep_mean = 8.45 * 60.0;
  p.demand_shape = BimodalDemandShape(1.0);  // flattest ratio curve (Fig 6a)
  p.hotspots = 3;
  p.default_delta = 60.0;
  p.seed = 0xA11CE;
  return p;
}

CityProfile CityBProfile(double scale) {
  FM_CHECK_GT(scale, 0.0);
  CityProfile p;
  p.name = "CityB";
  p.city.grid_width = 66;
  p.city.grid_height = 66;
  p.city.spacing_m = 180.0;
  p.city.base_lat_deg = 12.95;  // large metro
  p.city.base_lon_deg = 77.55;
  p.city.congestion = UrbanCongestion(2.2);
  p.num_restaurants = static_cast<int>(6777 / scale);
  p.num_vehicles = static_cast<int>(13429 / scale);
  p.orders_per_day = static_cast<int>(159160 / scale);
  p.prep_mean = 9.34 * 60.0;
  // City B has the highest peak order:vehicle ratio in Fig. 6(a).
  p.demand_shape = BimodalDemandShape(1.35);
  p.hotspots = 6;
  p.default_delta = 180.0;
  p.seed = 0xB0B;
  return p;
}

CityProfile CityCProfile(double scale) {
  FM_CHECK_GT(scale, 0.0);
  CityProfile p;
  p.name = "CityC";
  p.city.grid_width = 70;
  p.city.grid_height = 70;
  p.city.spacing_m = 185.0;
  p.city.base_lat_deg = 28.55;  // large metro, more spread out
  p.city.base_lon_deg = 77.20;
  p.city.congestion = UrbanCongestion(2.0);
  p.num_restaurants = static_cast<int>(8116 / scale);
  p.num_vehicles = static_cast<int>(10608 / scale);
  p.orders_per_day = static_cast<int>(112745 / scale);
  p.prep_mean = 10.22 * 60.0;
  p.demand_shape = BimodalDemandShape(1.2);
  p.hotspots = 7;
  p.default_delta = 180.0;
  p.seed = 0xC0C0;
  return p;
}

CityProfile GrubhubProfile(double scale) {
  FM_CHECK_GT(scale, 0.0);
  CityProfile p;
  p.name = "Grubhub";
  p.city.grid_width = 20;
  p.city.grid_height = 20;
  p.city.spacing_m = 220.0;
  p.city.base_lat_deg = 41.88;  // US city
  p.city.base_lon_deg = -87.63;
  p.city.congestion = UrbanCongestion(1.4);
  p.num_restaurants = static_cast<int>(159 / scale);
  p.num_vehicles = static_cast<int>(183 / scale);
  p.orders_per_day = static_cast<int>(1046 / scale);
  p.prep_mean = 19.55 * 60.0;
  p.demand_shape = BimodalDemandShape(1.0);
  p.hotspots = 2;
  p.default_delta = 180.0;
  p.seed = 0x6e4b;
  p.haversine_only = true;
  return p;
}

std::optional<CityProfile> CityProfileByName(const std::string& name,
                                             double scale) {
  if (name == "A") return CityAProfile(scale);
  if (name == "B") return CityBProfile(scale);
  if (name == "C") return CityCProfile(scale);
  if (name == "grubhub") return GrubhubProfile(scale);
  return std::nullopt;
}

}  // namespace fm
