// E3 — Figure 7: average client-perceived send latency for the nine
// deployment scenarios, 1..5 clients. Each client sends 100 messages and
// receives 10 times (see core::WorkloadParams for the exact mix).
//
// The paper's figure clusters into four groups (log-scale y axis):
//   Group 1 (best):  SF, SS0, DF, DS0
//   Group 2:         SS1000, DS1000
//   Group 3:         SS500, DS500
//   Group 4 (worst): SS — the naive static deployment over the slow link
// with dynamic deployments indistinguishable from their static mirrors.
// This harness prints the same series and validates the grouping. A second
// table reports the coherence data-path cost behind each scenario at the
// largest client count (flushes, directory push RPCs and the RPCs batching
// saved against one push per update, time clients spent blocked on an
// in-flight flush).
#include <cstdio>
#include <map>
#include <string>

#include "bench_json.hpp"
#include "core/scenarios.hpp"

int main() {
  using psf::core::Scenario;
  constexpr std::size_t kMaxClients = 5;

  std::printf("=== Figure 7: average client-perceived send latency [ms] ===\n");
  std::printf("%-8s", "scenario");
  for (std::size_t c = 1; c <= kMaxClients; ++c) {
    std::printf(" %9zu", c);
  }
  std::printf("   (columns: number of clients)\n");

  std::map<Scenario, std::map<std::size_t, double>> series;
  std::map<Scenario, psf::core::CoherenceSummary> coherence;
  for (Scenario s : psf::core::kAllScenarios) {
    std::printf("%-8s", psf::core::scenario_name(s));
    for (std::size_t c = 1; c <= kMaxClients; ++c) {
      const auto result = psf::core::run_scenario(s, c);
      series[s][c] = result.mean_send_ms;
      if (c == kMaxClients) coherence[s] = result.coherence;
      std::printf(" %9.3f", result.mean_send_ms);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  std::printf("\n=== coherence data path at %zu clients ===\n", kMaxClients);
  std::printf("%-8s %8s %11s %9s %10s %10s %7s\n", "scenario", "flushes",
              "sync bytes", "pushRPCs", "rpcsSaved", "blockedMs", "stale");
  for (Scenario s : psf::core::kAllScenarios) {
    const auto& co = coherence[s];
    std::printf("%-8s %8llu %11llu %9llu %10llu %10.1f %7zu\n",
                psf::core::scenario_name(s),
                static_cast<unsigned long long>(co.flushes),
                static_cast<unsigned long long>(co.bytes_flushed),
                static_cast<unsigned long long>(co.push_rpcs),
                static_cast<unsigned long long>(co.push_updates -
                                                co.push_rpcs),
                co.blocked_on_flush_ms, co.residual_pending);
  }

  // Validate the four-group structure at every client count.
  bool ok = true;
  auto at = [&](Scenario s, std::size_t c) { return series[s][c]; };
  for (std::size_t c = 1; c <= kMaxClients; ++c) {
    for (Scenario fast :
         {Scenario::kSF, Scenario::kSS0, Scenario::kDF, Scenario::kDS0}) {
      ok &= at(fast, c) < at(Scenario::kSS1000, c);
      ok &= at(fast, c) < at(Scenario::kDS1000, c);
      ok &= at(fast, c) * 10.0 < at(Scenario::kSS, c);
    }
    ok &= at(Scenario::kDS1000, c) < at(Scenario::kDS500, c);
    ok &= at(Scenario::kSS1000, c) < at(Scenario::kSS500, c);
    ok &= at(Scenario::kDS500, c) < at(Scenario::kSS, c);
    ok &= at(Scenario::kSS500, c) < at(Scenario::kSS, c);
  }

  // Dynamic ≈ static within each group (50% tolerance across the 10x+ gaps
  // between groups).
  auto close = [&](Scenario a, Scenario b) {
    for (std::size_t c = 1; c <= kMaxClients; ++c) {
      const double hi = std::max(at(a, c), at(b, c));
      if (std::abs(at(a, c) - at(b, c)) > 0.5 * hi) return false;
    }
    return true;
  };
  const bool dynamic_matches_static =
      close(Scenario::kDF, Scenario::kSF) &&
      close(Scenario::kDS0, Scenario::kSS0) &&
      close(Scenario::kDS500, Scenario::kSS500) &&
      close(Scenario::kDS1000, Scenario::kSS1000);

  psf::bench::JsonResult json("fig7_latency");
  json.add("max_clients", static_cast<int>(kMaxClients));
  for (Scenario s : psf::core::kAllScenarios) {
    const std::string key = psf::core::scenario_name(s);
    json.add(key + "_mean_ms", at(s, kMaxClients));
    const auto& co = coherence[s];
    json.add(key + "_flushes", co.flushes);
    json.add(key + "_push_rpcs", co.push_rpcs);
    json.add(key + "_push_rpcs_saved", co.push_updates - co.push_rpcs);
    json.add(key + "_blocked_ms", co.blocked_on_flush_ms);
  }
  json.add("grouping_ok", ok);
  json.add("dynamic_matches_static", dynamic_matches_static);
  json.write();

  std::printf("\npaper grouping {SF,SS0,DF,DS0} < {*1000} < {*500} << {SS}: "
              "%s\n",
              ok ? "HOLDS" : "VIOLATED");
  std::printf("dynamic deployments track static counterparts: %s\n",
              dynamic_matches_static ? "HOLDS" : "VIOLATED");
  return ok && dynamic_matches_static ? 0 : 1;
}
