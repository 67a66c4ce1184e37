// E12 (adaptation) — the closed monitor -> repair -> live-cutover loop under
// three reference disturbance schedules, each exercising a different
// violation class against the tracked San Diego mail deployment:
//
//   flash-crowd          extra clients pile onto the shared view, then the
//                        host's capacity is squeezed below the view's
//                        footprint (load-over-capacity) while a FaultPlan
//                        partition window stresses the retry layer;
//   rolling-maintenance  nodes are drained one after another (synthetic
//                        node-death violations) and the deployment walks off
//                        each before being allowed back;
//   link-brownout        the SD<->NY WAN link's latency creeps up in steps —
//                        the first within the controller's slack (no churn),
//                        the later ones past it (link-degradation repairs).
//
// Acceptance gates (exit nonzero on failure):
//   1. every workload run finishes and delivers ALL requests (ratio 1.0,
//      retries bridging each cutover);
//   2. every scenario repairs at least once; flash-crowd and
//      rolling-maintenance move component state live (sync-then-cutover);
//   3. p50 incremental-repair planning wall <= 25% of the p50 cold-plan
//      wall measured on the same host;
//   4. p50 candidates examined per repair <= 25% of the cold plan's (the
//      seed bind's) — the deterministic form of gate 3;
//   5. each scenario is bit-identical across two executions with the same
//      FaultPlan seed (every simulation-domain counter and candidate count
//      compared; host wall-clock samples excluded).
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "core/case_study.hpp"
#include "core/fault_plan.hpp"
#include "core/framework.hpp"
#include "core/workload.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "runtime/adaptation.hpp"

using namespace psf;

namespace {

constexpr std::uint64_t kPlanSeed = 0xADA975EEDULL;

enum class Scenario { kFlashCrowd, kRollingMaintenance, kLinkBrownout };

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kFlashCrowd: return "flash_crowd";
    case Scenario::kRollingMaintenance: return "rolling_maintenance";
    case Scenario::kLinkBrownout: return "link_brownout";
  }
  return "unknown";
}

struct ScenarioResult {
  std::uint64_t ops_ok = 0;
  std::uint64_t ops_failed = 0;
  // Counters compared for bit-identity between same-seed runs.
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_unroutable = 0;
  std::uint64_t invoke_timeouts = 0;
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t rebinds = 0;
  std::uint64_t events_observed = 0;
  std::uint64_t checks = 0;
  std::uint64_t repairs_triggered = 0;
  std::uint64_t repaired = 0;
  std::uint64_t unsatisfiable = 0;
  std::uint64_t controller_failed = 0;
  std::uint64_t state_transfers = 0;
  std::uint64_t instances_retired = 0;
  std::uint64_t state_transfer_bytes = 0;
  // Planner candidates examined, and subtrees completed, by the seed bind's
  // cold plan and by each repair, in repair order.
  std::uint64_t cold_plan_candidates = 0;
  std::uint64_t cold_plan_completions = 0;
  std::vector<double> repair_candidates;
  std::vector<double> repair_completions;
  bool all_finished = false;
  // Host wall-clock (NOT part of the determinism comparison).
  double cold_plan_wall_ms = 0.0;
  std::vector<double> repair_wall_ms;

  double delivered_ratio() const {
    const std::uint64_t total = ops_ok + ops_failed;
    return total == 0 ? 0.0 : static_cast<double>(ops_ok) /
                                  static_cast<double>(total);
  }
  bool identical_to(const ScenarioResult& o) const {
    return ops_ok == o.ops_ok && ops_failed == o.ops_failed &&
           messages_sent == o.messages_sent &&
           messages_dropped == o.messages_dropped &&
           messages_unroutable == o.messages_unroutable &&
           invoke_timeouts == o.invoke_timeouts && attempts == o.attempts &&
           retries == o.retries && rebinds == o.rebinds &&
           events_observed == o.events_observed && checks == o.checks &&
           repairs_triggered == o.repairs_triggered &&
           repaired == o.repaired && unsatisfiable == o.unsatisfiable &&
           controller_failed == o.controller_failed &&
           state_transfers == o.state_transfers &&
           instances_retired == o.instances_retired &&
           state_transfer_bytes == o.state_transfer_bytes &&
           cold_plan_candidates == o.cold_plan_candidates &&
           cold_plan_completions == o.cold_plan_completions &&
           repair_candidates == o.repair_candidates &&
           repair_completions == o.repair_completions;
  }
};

struct Client {
  std::unique_ptr<runtime::GenericProxy> proxy;
  std::unique_ptr<core::WorkloadClient> workload;
};

ScenarioResult run_scenario(Scenario which, std::uint64_t seed) {
  core::CaseStudySites sites;
  net::Network network = core::case_study_network(&sites);
  core::FrameworkOptions options;
  options.lookup_node = sites.new_york[0];
  options.server_node = sites.new_york[0];
  core::Framework fw(std::move(network), options);
  auto config = std::make_shared<mail::MailServiceConfig>();
  if (!mail::register_mail_factories(fw.runtime().factories(), config)
           .is_ok() ||
      !fw.register_service(mail::mail_registration(sites.mail_home),
                           mail::mail_translator())
           .is_ok()) {
    std::fprintf(stderr, "adaptation_sweep: service registration failed\n");
    return {};
  }
  runtime::AdaptationParams params;
  params.drain = sim::Duration::from_millis(300);
  runtime::AdaptationController ctl(fw.runtime(), fw.server(), fw.monitor(),
                                    "SecureMail", params);

  auto bind_proxy = [&fw](net::NodeId node, std::int64_t trust,
                          double rate_rps,
                          planner::PlanRequest* out_request = nullptr) {
    planner::PlanRequest request;
    request.interface_name = "ClientInterface";
    request.required_properties.emplace_back(
        "TrustLevel", spec::PropertyValue::integer(trust));
    request.request_rate_rps = rate_rps;
    if (out_request != nullptr) *out_request = request;
    auto proxy = fw.make_proxy(node, "SecureMail", request);
    bool done = false;
    bool ok = false;
    proxy->bind([&](util::Status st) {
      ok = st.is_ok();
      done = true;
    });
    fw.run_until_condition([&done]() { return done; },
                           sim::Duration::from_seconds(300));
    if (!ok) proxy.reset();
    return proxy;
  };

  // Seed bind from the SD client at the reference 50 rps (entry 1000 +
  // co-located view 3000 cpu units): pool is still empty (only the static
  // MailServer), so its planning wall is the cold-plan reference sample.
  planner::PlanRequest seed_request;
  auto seed_proxy = bind_proxy(sites.sd_client, 4, 50.0, &seed_request);
  if (!seed_proxy) {
    std::fprintf(stderr, "adaptation_sweep: seed bind failed\n");
    return {};
  }
  ScenarioResult result;
  result.cold_plan_wall_ms =
      seed_proxy->outcome().costs.planning_wall_seconds * 1e3;
  result.cold_plan_candidates =
      seed_proxy->outcome().search.candidates_examined;
  result.cold_plan_completions = seed_proxy->outcome().search.completions;
  seed_request.client_node = sites.sd_client;
  ctl.track(seed_proxy->outcome(), seed_request);

  struct Spec {
    net::NodeId node;
    std::int64_t trust;
    const char* user;
  };
  std::vector<Spec> specs = {{sites.san_diego[0], 4, "u-sd0"}};
  if (which != Scenario::kLinkBrownout) {
    specs.push_back({sites.san_diego[1], 4, "u-sd1"});
  }
  if (which == Scenario::kFlashCrowd) {
    specs.push_back({sites.sea_client, 2, "u-sea"});
  }

  std::vector<Client> clients;
  for (const Spec& spec : specs) {
    Client client;
    client.proxy = bind_proxy(spec.node, spec.trust, 25.0);
    if (!client.proxy) {
      std::fprintf(stderr, "adaptation_sweep: bind for %s failed\n",
                   spec.user);
      return {};
    }
    clients.push_back(std::move(client));
  }

  // Retries bridge every cutover window; the generous attempt timeout keeps
  // the browned-out WAN from turning slowness into spurious failures.
  runtime::RetryPolicy policy;
  policy.attempt_timeout = sim::Duration::from_seconds(5);
  policy.backoff_base = sim::Duration::from_millis(200);
  policy.backoff_cap = sim::Duration::from_seconds(1);
  policy.max_attempts = 10;
  policy.rebind_on_unreachable = true;
  for (Client& client : clients) {
    client.proxy->enable_retries(policy, &fw.retry_telemetry());
  }

  core::WorkloadParams wl_params;
  wl_params.sends = 40;
  wl_params.receives = 8;
  wl_params.think = sim::Duration::from_millis(150);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const Spec& spec = specs[i];
    config->keys->provision_user(spec.user, mail::kMaxSensitivity);
    runtime::GenericProxy* proxy = clients[i].proxy.get();
    clients[i].workload = std::make_unique<core::WorkloadClient>(
        fw.runtime(), spec.user, config,
        [proxy](runtime::Request request, runtime::ResponseCallback done) {
          proxy->invoke(std::move(request), std::move(done));
        },
        wl_params);
  }

  switch (which) {
    case Scenario::kFlashCrowd: {
      // The crowd is already bound; squeeze the view's host below the
      // view's footprint, then stress the repaired deployment with a
      // partition window from the reference fault plan.
      fw.monitor().schedule_change(
          sim::Duration::from_seconds(2),
          [&sites](runtime::NetworkMonitor& m) {
            m.set_node_capacity(sites.sd_client, 3.5e3);
          });
      std::vector<net::NodeId> others = sites.new_york;
      others.insert(others.end(), sites.seattle.begin(),
                    sites.seattle.end());
      core::FaultPlan plan(seed);
      plan.partition_window(sim::Duration::from_seconds(4),
                            sim::Duration::from_millis(800), sites.san_diego,
                            others);
      plan.arm(fw);
      break;
    }
    case Scenario::kRollingMaintenance: {
      // Drain the client node (view + encryptor walk off), let it back in,
      // then drain wherever the view landed.
      fw.simulator().schedule(sim::Duration::from_seconds(2),
                              [&ctl, &sites] {
                                ctl.drain_node(sites.sd_client);
                              });
      fw.simulator().schedule(sim::Duration::from_seconds(5),
                              [&ctl, &sites] {
                                ctl.undrain_node(sites.sd_client);
                              });
      fw.simulator().schedule(sim::Duration::from_seconds(6), [&ctl, &sites] {
        const auto& outcome = ctl.current_outcome(0);
        for (const auto& p : outcome.plan.placements) {
          if (p.component->name == "ViewMailServer" &&
              p.node != sites.sd_client) {
            ctl.drain_node(p.node);
            return;
          }
        }
      });
      break;
    }
    case Scenario::kLinkBrownout: {
      auto lid = fw.network().link_between(sites.san_diego[0],
                                           sites.new_york[0]);
      if (!lid.has_value()) {
        std::fprintf(stderr, "adaptation_sweep: no SD<->NY WAN link\n");
        return {};
      }
      const net::LinkId wan = *lid;
      auto step = [&fw, wan](double at_s, std::int64_t ms) {
        fw.monitor().schedule_change(
            sim::Duration::from_millis(static_cast<std::int64_t>(at_s * 1e3)),
            [wan, ms](runtime::NetworkMonitor& m) {
              m.set_link_latency(wan, sim::Duration::from_millis(ms));
            });
      };
      step(2.0, 120);   // within the 1.5x slack: still-valid, no churn
      step(3.0, 200);   // past slack vs the 100 ms plan: first repair
      step(4.5, 450);   // past slack vs the repaired assumption: second
      break;
    }
  }

  for (Client& client : clients) client.workload->start();
  const bool all_finished = fw.run_until_condition(
      [&clients]() {
        for (const Client& client : clients) {
          if (!client.workload->finished()) return false;
        }
        return true;
      },
      sim::Duration::from_seconds(300));

  for (const Client& client : clients) {
    const core::WorkloadStats& wl = client.workload->stats();
    result.ops_ok += wl.sends_ok + wl.receives_ok;
    result.ops_failed += wl.sends_failed + wl.receives_failed;
  }
  const runtime::RuntimeStats& stats = fw.runtime().stats();
  result.messages_sent = stats.messages_sent;
  result.messages_dropped = stats.messages_dropped;
  result.messages_unroutable = stats.messages_unroutable;
  result.invoke_timeouts = stats.invoke_timeouts;
  result.state_transfer_bytes = stats.state_transfer_bytes;
  result.attempts = fw.retry_telemetry().attempts;
  result.retries = fw.retry_telemetry().retries;
  result.rebinds = fw.retry_telemetry().rebinds;
  const runtime::AdaptationStats& cs = ctl.stats();
  result.events_observed = cs.events_observed;
  result.checks = cs.checks;
  result.repairs_triggered = cs.repairs_triggered;
  result.repaired = cs.repaired;
  result.unsatisfiable = cs.unsatisfiable;
  result.controller_failed = cs.failed;
  result.state_transfers = cs.state_transfers;
  result.instances_retired = cs.instances_retired;
  const runtime::RepairTelemetry& repairs = fw.server().repair_telemetry();
  result.repair_wall_ms = repairs.repair_wall_ms.samples();
  result.repair_candidates = repairs.repair_candidates.samples();
  result.repair_completions = repairs.repair_completions.samples();
  result.all_finished = all_finished;
  return result;
}

}  // namespace

int main() {
  std::printf(
      "=== Adaptation sweep (flash crowd / rolling maintenance / "
      "link brownout, seed %llu) ===\n",
      static_cast<unsigned long long>(kPlanSeed));

  const Scenario scenarios[] = {Scenario::kFlashCrowd,
                                Scenario::kRollingMaintenance,
                                Scenario::kLinkBrownout};
  // Untimed warm-up: first-touch page faults and allocator growth would
  // otherwise land in the first run's wall samples.
  (void)run_scenario(Scenario::kFlashCrowd, kPlanSeed);
  ScenarioResult first[3];
  ScenarioResult replay[3];
  util::SampleSet repair_walls;
  util::SampleSet cold_walls;
  // Host cost per examined candidate: what the wall ratio gate compares,
  // with the searches' sizes divided out.
  util::SampleSet repair_ns_per_candidate;
  util::SampleSet cold_ns_per_candidate;
  const auto collect = [&](const ScenarioResult& r) {
    for (double w : r.repair_wall_ms) repair_walls.add(w);
    cold_walls.add(r.cold_plan_wall_ms);
    for (std::size_t k = 0; k < r.repair_wall_ms.size(); ++k) {
      if (r.repair_candidates[k] > 0.0) {
        repair_ns_per_candidate.add(r.repair_wall_ms[k] * 1e6 /
                                    r.repair_candidates[k]);
      }
    }
    if (r.cold_plan_candidates > 0) {
      cold_ns_per_candidate.add(r.cold_plan_wall_ms * 1e6 /
                                static_cast<double>(r.cold_plan_candidates));
    }
  };
  for (int i = 0; i < 3; ++i) {
    first[i] = run_scenario(scenarios[i], kPlanSeed);
    collect(first[i]);
  }
  // Three replay rounds: round 0 doubles as the bit-identical check, and
  // every round contributes wall samples — individual repair searches are
  // sub-millisecond, so the p50 needs more than a handful of samples to
  // resist scheduler noise on a single-CPU host.
  constexpr int kReplayRounds = 3;
  for (int round = 0; round < kReplayRounds; ++round) {
    for (int i = 0; i < 3; ++i) {
      ScenarioResult r = run_scenario(scenarios[i], kPlanSeed);
      collect(r);
      if (round == 0) replay[i] = std::move(r);
    }
  }
  const double repair_p50_ms = repair_walls.percentile(50.0);
  const double cold_p50_ms = cold_walls.percentile(50.0);
  const double repair_to_cold =
      cold_p50_ms > 0.0 ? repair_p50_ms / cold_p50_ms : 1.0;
  // Candidate counts are deterministic: the first run of each scenario
  // holds them all (its replay is checked identical below).
  util::SampleSet repair_candidates;
  util::SampleSet cold_candidates;
  // Completed subtrees per candidate: a completion costs more host time
  // than a rejection, and repairs complete far more often than cold plans.
  util::SampleSet repair_completion_rate;
  util::SampleSet cold_completion_rate;
  for (const ScenarioResult& r : first) {
    for (double c : r.repair_candidates) repair_candidates.add(c);
    cold_candidates.add(static_cast<double>(r.cold_plan_candidates));
    for (std::size_t k = 0; k < r.repair_candidates.size(); ++k) {
      if (r.repair_candidates[k] > 0.0) {
        repair_completion_rate.add(r.repair_completions[k] /
                                   r.repair_candidates[k]);
      }
    }
    if (r.cold_plan_candidates > 0) {
      cold_completion_rate.add(static_cast<double>(r.cold_plan_completions) /
                               static_cast<double>(r.cold_plan_candidates));
    }
  }
  const auto p50 = [](util::SampleSet& s) {
    return s.count() > 0 ? s.percentile(50.0) : 0.0;
  };
  const double repair_candidates_p50 =
      repair_candidates.count() > 0 ? repair_candidates.percentile(50.0)
                                    : 0.0;
  const double cold_candidates_p50 = cold_candidates.percentile(50.0);
  const double repair_to_cold_candidates =
      cold_candidates_p50 > 0.0 ? repair_candidates_p50 / cold_candidates_p50
                                : 1.0;

  for (int i = 0; i < 3; ++i) {
    const ScenarioResult& r = first[i];
    std::printf(
        "%-20s ok %4llu fail %3llu ratio %.3f | repairs %llu/%llu "
        "transfers %llu bytes %llu retired %llu | retries %llu rebinds "
        "%llu\n",
        scenario_name(scenarios[i]),
        static_cast<unsigned long long>(r.ops_ok),
        static_cast<unsigned long long>(r.ops_failed), r.delivered_ratio(),
        static_cast<unsigned long long>(r.repaired),
        static_cast<unsigned long long>(r.repairs_triggered),
        static_cast<unsigned long long>(r.state_transfers),
        static_cast<unsigned long long>(r.state_transfer_bytes),
        static_cast<unsigned long long>(r.instances_retired),
        static_cast<unsigned long long>(r.retries),
        static_cast<unsigned long long>(r.rebinds));
  }
  std::printf("repair walls (ms):");
  for (std::size_t i = 0; i < repair_walls.count(); ++i) {
    std::printf(" %.3f", repair_walls.samples()[i]);
  }
  std::printf("\ncold walls (ms):");
  for (std::size_t i = 0; i < cold_walls.count(); ++i) {
    std::printf(" %.3f", cold_walls.samples()[i]);
  }
  std::printf("\nrepair p50 %.3fms cold p50 %.3fms ratio %.3f\n",
              repair_p50_ms, cold_p50_ms, repair_to_cold);
  std::printf(
      "ns per candidate: repair p50 %.1f cold p50 %.1f | completions per "
      "candidate: repair p50 %.4f cold p50 %.4f\n",
      p50(repair_ns_per_candidate), p50(cold_ns_per_candidate),
      p50(repair_completion_rate), p50(cold_completion_rate));
  std::printf("repair candidates:");
  for (double c : repair_candidates.samples()) std::printf(" %.0f", c);
  std::printf("\nrepair candidates p50 %.1f cold %.0f ratio %.3f\n",
              repair_candidates_p50, cold_candidates_p50,
              repair_to_cold_candidates);

  bool deterministic = true;
  for (int i = 0; i < 3; ++i) {
    deterministic = deterministic && first[i].identical_to(replay[i]);
  }

  bool pass = true;
  auto gate = [&pass](bool ok, const char* what) {
    std::printf("gate %-40s %s\n", what, ok ? "PASS" : "FAIL");
    pass = pass && ok;
  };
  for (int i = 0; i < 3; ++i) {
    std::string label = scenario_name(scenarios[i]);
    gate(first[i].all_finished && replay[i].all_finished,
         (label + " ran to completion").c_str());
    gate(first[i].delivered_ratio() == 1.0,
         (label + " delivered ratio == 1.0").c_str());
    gate(first[i].repaired >= 1, (label + " repaired >= 1").c_str());
  }
  gate(first[0].state_transfers >= 1 && first[0].state_transfer_bytes > 0,
       "flash crowd migrated live state");
  gate(first[1].state_transfers >= 1,
       "rolling maintenance migrated live state");
  gate(repair_walls.count() > 0 && repair_to_cold <= 0.25,
       "repair p50 <= 25% of cold-plan p50");
  gate(repair_candidates.count() > 0 && repair_to_cold_candidates <= 0.25,
       "repair candidates p50 <= 25% of cold plan");
  gate(deterministic, "same seed is bit-identical");

  bench::JsonResult json("adaptation_sweep");
  json.add("plan_seed", static_cast<std::uint64_t>(kPlanSeed));
  for (int i = 0; i < 3; ++i) {
    const std::string prefix = scenario_name(scenarios[i]);
    const ScenarioResult& r = first[i];
    json.add(prefix + "_ops_ok", r.ops_ok);
    json.add(prefix + "_ops_failed", r.ops_failed);
    json.add(prefix + "_delivered_ratio", r.delivered_ratio());
    json.add(prefix + "_repairs_triggered", r.repairs_triggered);
    json.add(prefix + "_repaired", r.repaired);
    json.add(prefix + "_unsatisfiable", r.unsatisfiable);
    json.add(prefix + "_state_transfers", r.state_transfers);
    json.add(prefix + "_state_transfer_bytes", r.state_transfer_bytes);
    json.add(prefix + "_instances_retired", r.instances_retired);
    json.add(prefix + "_retries", r.retries);
    json.add(prefix + "_rebinds", r.rebinds);
  }
  json.add("repair_p50_ms", repair_p50_ms);
  json.add("cold_plan_p50_ms", cold_p50_ms);
  json.add("repair_to_cold_ratio", repair_to_cold);
  json.add("repair_ns_per_candidate_p50", p50(repair_ns_per_candidate));
  json.add("cold_plan_ns_per_candidate_p50", p50(cold_ns_per_candidate));
  json.add("repair_completions_per_candidate_p50",
           p50(repair_completion_rate));
  json.add("cold_plan_completions_per_candidate_p50",
           p50(cold_completion_rate));
  json.add("repair_samples", static_cast<std::uint64_t>(repair_walls.count()));
  json.add("cold_plan_candidates", cold_candidates_p50);
  json.add("repair_candidates_p50", repair_candidates_p50);
  json.add("repair_to_cold_candidates_ratio", repair_to_cold_candidates);
  json.add("deterministic", deterministic);
  json.add("gates_pass", pass);
  json.write();

  return pass ? 0 : 1;
}
