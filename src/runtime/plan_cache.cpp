// detlint:ordered-output — fingerprint canonicalization must be order-stable.
#include "runtime/plan_cache.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

namespace psf::runtime {

std::uint64_t plan_rate_bucket(double rps) {
  if (rps <= 0.0) return 0;
  std::uint64_t bucket = 1;
  while (static_cast<double>(bucket) < rps && bucket < (1ull << 62)) {
    bucket <<= 1;
  }
  return bucket;
}

std::string plan_fingerprint(const planner::PlanRequest& request) {
  // Unit separator: property values may contain printable punctuation.
  constexpr char kSep = '\x1f';
  std::vector<std::pair<std::string, std::string>> props;
  props.reserve(request.required_properties.size());
  for (const auto& [name, value] : request.required_properties) {
    props.emplace_back(name, value.to_string());
  }
  std::sort(props.begin(), props.end());

  std::ostringstream oss;
  oss << request.interface_name << kSep << "client:"
      << (request.client_node.valid()
              ? std::to_string(request.client_node.value)
              : "-")
      << kSep << "origin:"
      << (request.code_origin.valid()
              ? std::to_string(request.code_origin.value)
              : "-")
      << kSep << "rate:" << plan_rate_bucket(request.request_rate_rps) << kSep
      << "pin:" << (request.pin_entry_to_client ? 1 : 0) << kSep
      << "depth:" << request.max_depth;
  for (const auto& [name, value] : props) {
    oss << kSep << name << '=' << value;
  }
  return oss.str();
}

PlanCache::Entry* PlanCache::find(const std::string& fingerprint,
                                  std::uint64_t epoch,
                                  PlanCacheTelemetry& telemetry) {
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return nullptr;
  if (it->second.epoch != epoch) {
    ++telemetry.stale_epoch_evictions;
    ++telemetry.invalidations;
    entries_.erase(it);
    return nullptr;
  }
  it->second.last_used = ++tick_;
  return &it->second;
}

void PlanCache::insert(const std::string& fingerprint, std::uint64_t epoch,
                       CachedAccess access, PlanCacheTelemetry& telemetry) {
  if (entries_.size() >= max_entries_ &&
      entries_.count(fingerprint) == 0) {
    // Evict the least-recently-used entry to stay within the budget.
    auto lru = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < lru->second.last_used) lru = it;
    }
    ++telemetry.invalidations;
    entries_.erase(lru);
  }
  Entry& entry = entries_[fingerprint];
  entry.access = std::move(access);
  entry.epoch = epoch;
  entry.hits = 0;
  entry.last_used = ++tick_;
}

void PlanCache::erase(const std::string& fingerprint,
                      PlanCacheTelemetry& telemetry) {
  if (entries_.erase(fingerprint) != 0) ++telemetry.invalidations;
}

std::size_t PlanCache::evict_referencing(RuntimeInstanceId id,
                                         PlanCacheTelemetry& telemetry) {
  std::size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const CachedAccess& access = it->second.access;
    const bool references =
        access.entry == id ||
        std::find(access.instances.begin(), access.instances.end(), id) !=
            access.instances.end();
    if (references) {
      it = entries_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  telemetry.invalidations += dropped;
  return dropped;
}

}  // namespace psf::runtime
