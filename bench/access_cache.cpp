// Access-path plan cache under fleet load (DESIGN.md "Access-path caching &
// coalescing"): on the Fig. 5 three-site topology, the first client of each
// site pays the full cold access (planner search + deployment) while every
// later identical client replays the cached path — zero planner candidates,
// zero simulated planning/deployment time, and host wall time at least an
// order of magnitude below the cold search. A 32-wide burst of identical
// concurrent requests exercises coalescing: the planner runs exactly once
// for the whole herd.
//
// Exits nonzero when any of those acceptance properties fails, so the bench
// doubles as a regression gate. Results land in BENCH_access_cache.json.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "core/case_study.hpp"
#include "core/framework.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"

using namespace psf;

namespace {

constexpr int kWarmClientsPerSite = 8;  // after the cold one; see note below
constexpr int kBurst = 32;
constexpr double kRateRps = 10.0;   // per client; keeps shared views unsaturated
constexpr double kBurstRps = 3.0;   // different rate bucket => own cache entry

planner::PlanRequest request_for(std::int64_t trust, double rate) {
  planner::PlanRequest d;
  d.interface_name = "ClientInterface";
  d.required_properties.emplace_back("TrustLevel",
                                     spec::PropertyValue::integer(trust));
  d.request_rate_rps = rate;
  return d;
}

runtime::AccessOutcome bind_or_die(core::Framework& fw, net::NodeId node,
                                   const planner::PlanRequest& defaults) {
  auto proxy = fw.make_proxy(node, "SecureMail", defaults);
  util::Status status = util::internal_error("incomplete");
  bool done = false;
  proxy->bind([&](util::Status st) {
    status = st;
    done = true;
  });
  fw.run_until_condition([&done]() { return done; },
                         sim::Duration::from_seconds(300));
  PSF_CHECK_MSG(status.is_ok(), status.to_string());
  return proxy->outcome();
}

}  // namespace

int main() {
  core::CaseStudySites sites;
  net::Network network = core::case_study_network(&sites);
  core::FrameworkOptions options;
  options.lookup_node = sites.new_york[0];
  options.server_node = sites.new_york[0];
  core::Framework fw(std::move(network), options);
  auto config = std::make_shared<mail::MailServiceConfig>();
  PSF_CHECK(
      mail::register_mail_factories(fw.runtime().factories(), config).is_ok());
  PSF_CHECK(fw.register_service(mail::mail_registration(sites.mail_home),
                                mail::mail_translator())
                .is_ok());

  struct Site {
    const char* name;
    net::NodeId node;
    std::int64_t trust;
  };
  const Site site_list[] = {{"New York", sites.ny_client, 4},
                            {"San Diego", sites.sd_client, 4},
                            {"Seattle", sites.sea_client, 2}};

  bool ok = true;
  auto require = [&ok](bool condition, const char* what) {
    if (!condition) {
      std::printf("FAIL: %s\n", what);
      ok = false;
    }
  };

  // ---- cold vs warm, per site ----------------------------------------------
  // Rates are sized so even a view shared by every site's fleet stays under
  // its capacity: (1 + kWarmClientsPerSite) * 3 sites * kRateRps < 500 rps.
  std::printf("=== Access-path cache: cold vs warm (%d warm clients/site) ===\n",
              kWarmClientsPerSite);
  std::printf("%-10s %12s %14s %12s %14s\n", "site", "cold wall ms",
              "cold sim s", "warm wall ms", "warm candidates");

  double cold_wall_s = 0.0, warm_wall_s = 0.0, cold_sim_s = 0.0;
  std::uint64_t cold_candidates = 0, warm_candidates = 0;
  int warm_accesses = 0;

  for (const Site& site : site_list) {
    const planner::PlanRequest defaults = request_for(site.trust, kRateRps);
    const runtime::AccessOutcome cold = bind_or_die(fw, site.node, defaults);
    require(!cold.cache_hit, "first client of a site must plan cold");
    require(cold.search.candidates_examined > 0,
            "cold plan must examine candidates");
    cold_wall_s += cold.costs.planning_wall_seconds;
    cold_sim_s += (cold.costs.planning + cold.costs.deployment).seconds();
    cold_candidates += cold.search.candidates_examined;

    double site_warm_wall = 0.0;
    for (int i = 0; i < kWarmClientsPerSite; ++i) {
      const runtime::AccessOutcome warm = bind_or_die(fw, site.node, defaults);
      require(warm.cache_hit, "repeat client must hit the plan cache");
      require(warm.search.candidates_examined == 0,
              "warm access must examine zero planner candidates");
      require(warm.costs.planning.nanos() == 0 &&
                  warm.costs.deployment.nanos() == 0,
              "warm access must pay no simulated planning/deployment");
      require(warm.entry == cold.entry,
              "warm access must share the cold client's entry binding");
      site_warm_wall += warm.costs.planning_wall_seconds;
      warm_candidates += warm.search.candidates_examined;
      ++warm_accesses;
    }
    warm_wall_s += site_warm_wall;
    std::printf("%-10s %12.3f %14.3f %12.5f %14llu\n", site.name,
                cold.costs.planning_wall_seconds * 1e3, cold_sim_s,
                site_warm_wall / kWarmClientsPerSite * 1e3,
                static_cast<unsigned long long>(warm_candidates));
  }

  const double cold_mean_wall = cold_wall_s / 3.0;
  const double warm_mean_wall = warm_wall_s / warm_accesses;
  const double speedup =
      warm_mean_wall > 0.0 ? cold_mean_wall / warm_mean_wall : 1e9;
  std::printf("cold mean wall %.3f ms, warm mean wall %.5f ms, speedup %.0fx\n",
              cold_mean_wall * 1e3, warm_mean_wall * 1e3, speedup);
  require(speedup >= 10.0, "warm access must be >= 10x faster (wall) than cold");

  // ---- coalescing burst ----------------------------------------------------
  const runtime::PlanCacheTelemetry& telemetry = fw.server().access_telemetry();
  const std::uint64_t misses_before = telemetry.misses;
  const std::uint64_t coalesced_before = telemetry.coalesced;

  planner::PlanRequest burst = request_for(4, kBurstRps);
  burst.client_node = sites.ny_client;
  int burst_ok = 0, burst_cold = 0, burst_coalesced = 0;
  for (int i = 0; i < kBurst; ++i) {
    fw.server().request_access(
        "SecureMail", burst,
        [&](util::Expected<runtime::AccessOutcome> outcome) {
          if (!outcome) return;
          ++burst_ok;
          if (outcome->coalesced) {
            ++burst_coalesced;
          } else {
            ++burst_cold;
          }
        });
  }
  fw.run();

  std::printf("burst of %d identical concurrent accesses: %d bound, "
              "%d planned cold, %d coalesced\n",
              kBurst, burst_ok, burst_cold, burst_coalesced);
  require(burst_ok == kBurst, "every burst access must bind successfully");
  require(burst_cold == 1, "the burst must run the planner exactly once");
  require(burst_coalesced == kBurst - 1,
          "every other burst access must coalesce");
  require(telemetry.misses - misses_before == 1,
          "telemetry must count one miss for the burst");
  require(telemetry.coalesced - coalesced_before ==
              static_cast<std::uint64_t>(kBurst - 1),
          "telemetry must count the burst waiters as coalesced");

  // ---- machine-readable result ---------------------------------------------
  bench::JsonResult json("access_cache");
  json.add("sites", 3);
  json.add("warm_clients_per_site", kWarmClientsPerSite);
  json.add("burst", kBurst);
  json.add("request_rate_rps", kRateRps);
  json.add("cold_mean_wall_seconds", cold_mean_wall);
  json.add("warm_mean_wall_seconds", warm_mean_wall);
  json.add("warm_speedup", speedup);
  json.add("cold_mean_sim_seconds", cold_sim_s / 3.0);
  json.add("cold_candidates", cold_candidates);
  json.add("warm_candidates", warm_candidates);
  json.add("warm_accesses_per_second",
           warm_wall_s > 0.0 ? warm_accesses / warm_wall_s : 0.0);
  json.add("cache_hits", telemetry.hits);
  json.add("cache_misses", telemetry.misses);
  json.add("coalesced", telemetry.coalesced);
  json.add("passed", ok);
  json.write();

  std::printf("access_cache acceptance: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
