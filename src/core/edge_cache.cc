#include "core/edge_cache.h"

#include <algorithm>

namespace fm {

void SearchFootprint::Reset(NodeId new_source, NodeId new_dest, int new_slot) {
  source = new_source;
  dest = new_dest;
  slot = new_slot;
  exhausted = false;
  visits.clear();
  queue.clear();
  labels.clear();
  // Seed the search: the source labelled at α = 0, β = 0, alone on the
  // frontier (a one-element array is trivially a heap).
  labels.push_back({source, 0.0, 0.0});
  queue.push_back({0.0, source});
}

void EdgeCache::OnVehicleRetired(VehicleId vehicle) {
  entries_.erase(vehicle);
}

std::vector<VehicleCacheEntry*> EdgeCache::BeginWindow(
    const std::vector<VehicleSnapshot>& vehicles) {
  ++builds_;
  std::vector<VehicleCacheEntry*> slots(vehicles.size(), nullptr);
  for (std::size_t j = 0; j < vehicles.size(); ++j) {
    auto [it, inserted] = entries_.try_emplace(vehicles[j].id);
    if (inserted) it->second = std::make_unique<VehicleCacheEntry>();
    VehicleCacheEntry& entry = *it->second;
    entry.last_used_build = builds_;
    slots[j] = &entry;
  }
  // GC entries whose vehicle has not appeared for kRetainBuilds builds
  // (disappeared without a VehicleRetired event).
  if (entries_.size() > vehicles.size()) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (builds_ - it->second->last_used_build > kRetainBuilds) {
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return slots;
}

void EdgeCache::EnsureShards(int shards) {
  while (memos_.size() < static_cast<std::size_t>(std::max(shards, 1))) {
    memos_.push_back(std::make_unique<DurationMemo>());
  }
}

EdgeCacheStats EdgeCache::AggregatedStats() const {
  EdgeCacheStats out = stats_;
  for (const auto& memo : memos_) {
    out.duration_memo_hits += memo->hits();
    out.duration_memo_misses += memo->misses();
  }
  return out;
}

}  // namespace fm
