// E6 (ablation) — the coherence policy design space of §3.2: how the
// view's consistency policy trades client-perceived send latency against
// staleness (updates waiting at the replica) and WAN traffic.
//
// Deployment under test (hand-wired, mirroring the SS scenarios plus the
// Seattle partner site): MailClient×3 @SD -> ViewMailServer@SD (trust 4) ->
// Encryptor@SD -> Decryptor@NY -> MailServer@NY, with a second
// ViewMailServer@Seattle (trust 2) hanging off the San Diego view. The
// Seattle replica is what gives the home directory real fan-out work: every
// sync batch the SD view writes back is re-pushed to Seattle as one
// multi-update push.
//
// 20% of sends are high-sensitivity (forwarded past the views to the home),
// so the home also pushes direct traffic back out to both replicas.
//
// Acceptance gate (exit nonzero on failure), one per row: once in-flight
// flushes have landed, every acknowledged send is either in a home inbox or
// still queued at a replica (home messages + pending updates = sends
// acknowledged). Write-back must lose no mail.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "core/case_study.hpp"
#include "core/framework.hpp"
#include "core/scenarios.hpp"
#include "core/workload.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "mail/server.hpp"
#include "mail/view_server.hpp"

using namespace psf;

namespace {

struct SweepResult {
  double mean_send_ms = 0.0;
  double p95_send_ms = 0.0;
  core::CoherenceSummary coherence;
  // Conservation, read once in-flight flushes have landed.
  std::uint64_t sends_acked = 0;
  std::uint64_t home_messages = 0;
  std::size_t settled_pending = 0;
};

SweepResult run_config(const coherence::CoherencePolicy& policy,
                       std::size_t clients) {
  core::CaseStudySites sites;
  net::Network network = core::case_study_network(&sites);
  core::FrameworkOptions options;
  options.lookup_node = sites.new_york[0];
  options.server_node = sites.new_york[0];
  core::Framework fw(std::move(network), options);
  auto config = std::make_shared<mail::MailServiceConfig>();
  config->view_policy = policy;
  PSF_CHECK(
      mail::register_mail_factories(fw.runtime().factories(), config).is_ok());
  PSF_CHECK(fw.register_service(mail::mail_registration(sites.mail_home),
                                mail::mail_translator())
                .is_ok());

  runtime::SmockRuntime& rt = fw.runtime();
  const spec::ServiceSpec* spec = fw.server().service_spec("SecureMail");
  PSF_CHECK(spec != nullptr);
  const auto& existing = fw.server().existing_instances("SecureMail");
  PSF_CHECK(existing.size() == 1);
  const runtime::RuntimeInstanceId mail_server = existing[0].runtime_id;

  auto install = [&](const std::string& component, net::NodeId node,
                     planner::FactorBindings factors =
                         {}) -> runtime::RuntimeInstanceId {
    const spec::ComponentDef* def = spec->find_component(component);
    PSF_CHECK(def != nullptr);
    runtime::RuntimeInstanceId out = 0;
    rt.install(*def, node, std::move(factors), node,
               [&out](util::Expected<runtime::RuntimeInstanceId> id) {
                 PSF_CHECK_MSG(id.has_value(), id.status().to_string());
                 out = *id;
               });
    fw.run_until_condition([&out]() { return out != 0; },
                           sim::Duration::from_seconds(60));
    PSF_CHECK(out != 0);
    return out;
  };

  // Server-side chain + the two view replicas.
  const runtime::RuntimeInstanceId decryptor =
      install("Decryptor", sites.mail_home);
  const runtime::RuntimeInstanceId encryptor =
      install("Encryptor", sites.sd_client);
  planner::FactorBindings sd_factors;
  sd_factors.values["TrustLevel"] = spec::PropertyValue::integer(4);
  const runtime::RuntimeInstanceId view_sd =
      install("ViewMailServer", sites.sd_client, sd_factors);
  planner::FactorBindings sea_factors;
  sea_factors.values["TrustLevel"] = spec::PropertyValue::integer(2);
  const runtime::RuntimeInstanceId view_sea =
      install("ViewMailServer", sites.sea_client, sea_factors);

  PSF_CHECK(rt.wire(decryptor, "ServerInterface", mail_server).is_ok());
  PSF_CHECK(rt.wire(encryptor, "DecryptorInterface", decryptor).is_ok());
  PSF_CHECK(rt.wire(view_sd, "ServerInterface", encryptor).is_ok());
  PSF_CHECK(rt.wire(view_sea, "ServerInterface", view_sd).is_ok());
  PSF_CHECK(rt.start(decryptor).is_ok());
  PSF_CHECK(rt.start(encryptor).is_ok());
  PSF_CHECK(rt.start(view_sd).is_ok());
  PSF_CHECK(rt.start(view_sea).is_ok());
  // Let both replica registrations round-trip (Seattle's relays through the
  // San Diego view to the home).
  fw.run_for(sim::Duration::from_seconds(5));

  std::vector<runtime::RuntimeInstanceId> entries;
  for (std::size_t c = 0; c < clients; ++c) {
    const runtime::RuntimeInstanceId mc =
        install("MailClient", sites.sd_client);
    PSF_CHECK(rt.wire(mc, "ServerInterface", view_sd).is_ok());
    PSF_CHECK(rt.start(mc).is_ok());
    entries.push_back(mc);
  }
  fw.run_for(sim::Duration::from_seconds(1));

  core::WorkloadParams params;
  params.high_send_every = 5;  // 20% of sends forwarded to the home
  std::vector<std::unique_ptr<core::WorkloadClient>> workers;
  for (std::size_t c = 0; c < clients; ++c) {
    const runtime::RuntimeInstanceId entry = entries[c];
    runtime::SmockRuntime* rtp = &rt;
    const net::NodeId from = sites.sd_client;
    workers.push_back(std::make_unique<core::WorkloadClient>(
        rt, "sweep-user-" + std::to_string(c), config,
        [rtp, from, entry](runtime::Request request,
                           runtime::ResponseCallback done) {
          rtp->invoke_from_node(from, entry, std::move(request),
                                std::move(done));
        },
        params));
  }
  for (auto& w : workers) w->start();
  auto all_done = [&workers]() {
    for (const auto& w : workers) {
      if (!w->finished()) return false;
    }
    return true;
  };
  PSF_CHECK(fw.run_until_condition(all_done, sim::Duration::from_seconds(600)));

  SweepResult result;
  double weighted = 0.0;
  std::size_t total = 0;
  double p95 = 0.0;
  for (auto& w : workers) {
    auto& s = w->send_latency_ms();
    weighted += s.mean() * static_cast<double>(s.count());
    total += s.count();
    p95 += s.percentile(95);
  }
  result.mean_send_ms = weighted / static_cast<double>(total);
  result.p95_send_ms = p95 / static_cast<double>(workers.size());
  result.coherence = core::collect_coherence_summary(rt);

  // Let in-flight flushes land: with no batch on the wire, every
  // acknowledged send is either in a home inbox or queued at a replica.
  auto flushes_landed = [&rt, view_sd, view_sea]() {
    for (runtime::RuntimeInstanceId id : {view_sd, view_sea}) {
      auto* view = dynamic_cast<mail::ViewMailServerComponent*>(
          rt.instance(id).component.get());
      PSF_CHECK(view != nullptr);
      if (view->replica_coherence()->flushing()) return false;
    }
    return true;
  };
  PSF_CHECK(fw.run_until_condition(flushes_landed,
                                   sim::Duration::from_seconds(60)));
  const auto* home = dynamic_cast<mail::MailServerComponent*>(
      rt.instance(mail_server).component.get());
  PSF_CHECK(home != nullptr);
  for (std::size_t c = 0; c < clients; ++c) {
    result.sends_acked += workers[c]->stats().sends_ok;
    result.home_messages += home->inbox_size("sweep-user-" + std::to_string(c));
  }
  result.settled_pending = core::collect_coherence_summary(rt).residual_pending;
  return result;
}

// JSON key prefix for a row label ("count-25" -> "count_25").
std::string json_key(std::string label) {
  for (char& ch : label) {
    if (ch == '-') ch = '_';
  }
  return label;
}

}  // namespace

int main() {
  struct Row {
    const char* label;
    coherence::CoherencePolicy policy;
  };
  const Row rows[] = {
      {"none", coherence::CoherencePolicy::none()},
      {"wt", coherence::CoherencePolicy::write_through()},
      {"count-25", coherence::CoherencePolicy::count_based(25)},
      {"count-100", coherence::CoherencePolicy::count_based(100)},
      {"t500",
       coherence::CoherencePolicy::time_based(sim::Duration::from_millis(500))},
      {"t1000", coherence::CoherencePolicy::time_based(
                    sim::Duration::from_millis(1000))},
      {"t2000", coherence::CoherencePolicy::time_based(
                    sim::Duration::from_millis(2000))},
  };

  std::printf("=== Coherence data-path sweep (SD deployment + Seattle "
              "replica, 3 clients, 300 sends, 20%% high-sensitivity) ===\n");
  std::printf("%-14s %11s %11s %8s %11s %6s %8s %10s %10s\n", "policy",
              "mean send", "p95 send", "flushes", "sync bytes", "stale",
              "pushRPCs", "rpcsSaved", "blockedMs");
  std::vector<std::pair<std::string, SweepResult>> results;
  bench::JsonResult json("coherence_sweep");
  json.add("clients", 3);
  json.add("sends_per_client", std::uint64_t{100});
  for (const Row& row : rows) {
    const SweepResult r = run_config(row.policy, 3);
    results.emplace_back(row.label, r);
    const auto& co = r.coherence;
    const std::uint64_t rpcs_saved = co.push_updates - co.push_rpcs;
    std::printf("%-14s %9.3fms %9.3fms %8llu %11llu %6zu %8llu %10llu "
                "%9.1f\n",
                row.label, r.mean_send_ms, r.p95_send_ms,
                static_cast<unsigned long long>(co.flushes),
                static_cast<unsigned long long>(co.bytes_flushed),
                co.residual_pending,
                static_cast<unsigned long long>(co.push_rpcs),
                static_cast<unsigned long long>(rpcs_saved),
                co.blocked_on_flush_ms);
    std::fflush(stdout);
    const std::string key = json_key(row.label);
    json.add(key + "_mean_ms", r.mean_send_ms);
    json.add(key + "_p95_ms", r.p95_send_ms);
    json.add(key + "_flushes", co.flushes);
    json.add(key + "_bytes_flushed", co.bytes_flushed);
    json.add(key + "_push_rpcs", co.push_rpcs);
    json.add(key + "_push_rpcs_saved", rpcs_saved);
    json.add(key + "_blocked_ms", co.blocked_on_flush_ms);
    json.add(key + "_sends_acked", r.sends_acked);
    json.add(key + "_home_messages", r.home_messages);
    json.add(key + "_settled_pending", r.settled_pending);
  }

  // ---- acceptance gates ---------------------------------------------------
  bool ok = true;
  std::printf("\n");
  for (const auto& [label, r] : results) {
    const bool held = r.home_messages + r.settled_pending == r.sends_acked;
    std::printf("gate conservation %-10s home %llu + pending %zu == acked "
                "%llu: %s\n",
                label.c_str(), static_cast<unsigned long long>(r.home_messages),
                r.settled_pending,
                static_cast<unsigned long long>(r.sends_acked),
                held ? "HOLDS" : "VIOLATED");
    json.add("gate_conservation_" + json_key(label), held);
    ok &= held;
  }
  json.add("gates_ok", ok);
  json.write();

  std::printf("\nreading: tighter consistency (write-through, short periods) "
              "raises send latency; looser policies leave more unpropagated "
              "state at the replica. Fan-out batching ships each sync batch's "
              "re-push to Seattle as one RPC; rpcsSaved counts the pushes "
              "that one push per update would have added.\n");
  return ok ? 0 : 1;
}
