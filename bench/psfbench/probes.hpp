// The one place psfbench reads framework stats structs (RuntimeStats,
// PlanCacheTelemetry, RetryTelemetry, RepairTelemetry, AdaptationStats,
// ReplicaStats/DirectoryStats, TunnelStats, ViewServerStats, SearchStats,
// AccessCosts, lease and lookup counters). When the framework's telemetry
// is consolidated, this file is what gets re-pointed; the generator and the
// end-to-end metrics never touch these structs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "runtime/adaptation.hpp"
#include "trace.hpp"

namespace psf::bench {

// A metric value; `n` is the sample count behind a percentile (0 for
// counters and ratios).
struct Reading {
  double value = 0.0;
  std::uint64_t n = 0;
};

using Readings = std::map<std::string, Reading>;

// Percentile by linear interpolation, reported only when at least ten
// samples lie beyond it (so p50 needs 20 samples and p99 needs 1000).
std::optional<Reading> percentile(std::vector<double> samples, double p);

// Adds sim-time spans for one bind: `access` from bind() to its callback,
// with lookup -> planning -> deployment children laid out back to back from
// the outcome's AccessCosts (planning and deployment only for the client
// whose bind ran the cold path). The access span's self time is request and
// acknowledgement transit plus any wait on a coalesced plan.
void trace_access(Tracer& tracer, const runtime::AccessOutcome& outcome,
                  std::uint32_t lane, double start_s, double end_s);

// Adds one instant per AdaptationController event.
void trace_adaptation(Tracer& tracer,
                      const runtime::AdaptationController& controller);

// True when the bind ran the planner itself (not a cache hit, not coalesced
// onto another client's plan).
bool ran_cold_path(const runtime::AccessOutcome& outcome);

// Layer counters at the end of a repetition. Counters cover the whole
// repetition, set-up included; `ops` (binds + sends + receives completed)
// is the per-op denominator. Metrics whose sample rule fails, or whose
// layer the workload never exercised (lease, repair), are left out.
Readings probe_layers(core::Framework& fw,
                      const std::vector<const runtime::AccessOutcome*>& binds,
                      const runtime::AdaptationController* controller,
                      std::uint64_t ops);

// Sum of the declared load every pooled instance still carries; returns to
// zero once every client that bound has released its load.
double pooled_load_rps(core::Framework& fw);

}  // namespace psf::bench
