// Access-path plan cache (DESIGN.md "Access-path caching & coalescing").
//
// GenericServer::request_access keys completed access outcomes by a
// canonical fingerprint of the plan-affecting request fields (interface,
// client node, translated property requirements, power-of-two request-rate
// bucket and search shape) plus a per-service environment epoch.
// A later identical request under the same epoch replays the stored outcome:
// the client shares the cached entry binding and pays neither planning nor
// deployment. Invalidation is epoch-based and lazy — refresh_environment and
// monitor-reported changes bump the epoch, which makes stale entries
// unfindable; the next lookup that touches one erases it, so invalidation
// never scans the cache. Liveness and capacity headroom are re-checked by
// the generic server on every hit (a cached plan must not hand out a
// binding to a crashed, retired, or saturated instance).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "planner/plan.hpp"
#include "planner/planner.hpp"
#include "runtime/component.hpp"

namespace psf::runtime {

// Cache behavior counters, owned by the GenericServer.
struct PlanCacheTelemetry {
  std::uint64_t hits = 0;
  // Accesses that found no usable entry (absent, stale epoch, or evicted by
  // the hit-time liveness/capacity validation) and ran the cold path.
  // Coalesced waiters ride an in-flight cold plan and count only below.
  std::uint64_t misses = 0;
  // Requests that attached as waiters to an identical in-flight access.
  std::uint64_t coalesced = 0;
  // Entries discarded for any reason (sum of the eviction breakdown plus
  // instance-retirement evictions).
  std::uint64_t invalidations = 0;
  std::uint64_t stale_epoch_evictions = 0;
  std::uint64_t liveness_evictions = 0;
  std::uint64_t capacity_evictions = 0;
  std::uint64_t epoch_bumps = 0;
};

// Request-rate bucketing for the fingerprint: rates within the same
// power-of-two ceiling share a cache entry (a 40 rps and a 60 rps client
// both plan as "<= 64"), so the cache is not defeated by jittery rates
// while order-of-magnitude differences still plan separately.
std::uint64_t plan_rate_bucket(double rps);

// Canonical fingerprint of the plan-affecting request fields. Property
// requirements are sorted, so declaration order does not split the cache.
// search_threads and objective (both ignored) and bound_pruning are
// deliberately excluded: the planner's result is bit-identical regardless
// of any of them (see DESIGN.md "Planner search strategy"). search_mode is
// excluded too: it changes how hard the planner works, not what the request
// asks for.
std::string plan_fingerprint(const planner::PlanRequest& request);

// What a hit replays: the plan and the runtime instances backing each
// placement (index-aligned), plus the shared entry binding.
struct CachedAccess {
  planner::DeploymentPlan plan;
  std::vector<RuntimeInstanceId> instances;
  RuntimeInstanceId entry = 0;
};

class PlanCache {
 public:
  struct Entry {
    CachedAccess access;
    std::uint64_t epoch = 0;
    std::uint64_t hits = 0;
    std::uint64_t last_used = 0;  // LRU tick
  };

  explicit PlanCache(std::size_t max_entries = 256)
      : max_entries_(max_entries) {}

  // nullptr when no entry exists for `fingerprint` under `epoch`. An entry
  // created under an older epoch is erased here — lazy invalidation.
  Entry* find(const std::string& fingerprint, std::uint64_t epoch,
              PlanCacheTelemetry& telemetry);

  void insert(const std::string& fingerprint, std::uint64_t epoch,
              CachedAccess access, PlanCacheTelemetry& telemetry);

  // Drops one entry (hit-time validation failed). The caller counts the
  // specific eviction cause; this only maintains the aggregate.
  void erase(const std::string& fingerprint, PlanCacheTelemetry& telemetry);

  // Drops every entry whose outcome references `id` (the instance was
  // retired by redeployment or forgotten). Returns the number dropped.
  std::size_t evict_referencing(RuntimeInstanceId id,
                                PlanCacheTelemetry& telemetry);

  std::size_t size() const { return entries_.size(); }

 private:
  std::size_t max_entries_;
  std::uint64_t tick_ = 0;
  std::map<std::string, Entry> entries_;
};

}  // namespace psf::runtime
