#include "core/scenarios.hpp"

#include <memory>

#include "core/case_study.hpp"
#include "core/framework.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "mail/server.hpp"
#include "mail/view_server.hpp"
#include "util/logging.hpp"

namespace psf::core {

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kDF: return "DF";
    case Scenario::kDS0: return "DS0";
    case Scenario::kDS500: return "DS500";
    case Scenario::kDS1000: return "DS1000";
    case Scenario::kSF: return "SF";
    case Scenario::kSS0: return "SS0";
    case Scenario::kSS500: return "SS500";
    case Scenario::kSS1000: return "SS1000";
    case Scenario::kSS: return "SS";
  }
  return "?";
}

bool scenario_is_dynamic(Scenario s) {
  switch (s) {
    case Scenario::kDF:
    case Scenario::kDS0:
    case Scenario::kDS500:
    case Scenario::kDS1000:
      return true;
    default:
      return false;
  }
}

namespace {

coherence::CoherencePolicy scenario_policy(Scenario s) {
  switch (s) {
    case Scenario::kDS500:
    case Scenario::kSS500:
      return coherence::CoherencePolicy::time_based(
          sim::Duration::from_millis(500));
    case Scenario::kDS1000:
    case Scenario::kSS1000:
      return coherence::CoherencePolicy::time_based(
          sim::Duration::from_millis(1000));
    default:
      return coherence::CoherencePolicy::none();
  }
}

bool scenario_in_san_diego(Scenario s) {
  return s != Scenario::kDF && s != Scenario::kSF;
}

// Hand-wires the static baselines. Returns one entry instance per client.
std::vector<runtime::RuntimeInstanceId> deploy_static(
    Framework& fw, Scenario scenario, std::size_t num_clients,
    const CaseStudySites& sites, const mail::MailConfigPtr& /*config*/) {
  runtime::SmockRuntime& rt = fw.runtime();
  const spec::ServiceSpec* spec = fw.server().service_spec("SecureMail");
  PSF_CHECK(spec != nullptr);

  const auto& existing = fw.server().existing_instances("SecureMail");
  PSF_CHECK_MSG(existing.size() == 1, "expected exactly the home MailServer");
  const runtime::RuntimeInstanceId mail_server = existing[0].runtime_id;

  auto install_sync = [&](const std::string& component, net::NodeId node,
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

  const net::NodeId client_node =
      scenario_in_san_diego(scenario) ? sites.sd_client : sites.ny_client;

  // Shared server-side chain.
  runtime::RuntimeInstanceId chain_head = mail_server;
  if (scenario == Scenario::kSS0 || scenario == Scenario::kSS500 ||
      scenario == Scenario::kSS1000) {
    const runtime::RuntimeInstanceId decryptor =
        install_sync("Decryptor", sites.mail_home);
    const runtime::RuntimeInstanceId encryptor =
        install_sync("Encryptor", sites.sd_client);
    planner::FactorBindings vms_factors;
    vms_factors.values["TrustLevel"] = spec::PropertyValue::integer(4);
    const runtime::RuntimeInstanceId view =
        install_sync("ViewMailServer", sites.sd_client, vms_factors);

    PSF_CHECK(rt.wire(decryptor, "ServerInterface", mail_server).is_ok());
    PSF_CHECK(rt.wire(encryptor, "DecryptorInterface", decryptor).is_ok());
    PSF_CHECK(rt.wire(view, "ServerInterface", encryptor).is_ok());
    PSF_CHECK(rt.start(decryptor).is_ok());
    PSF_CHECK(rt.start(encryptor).is_ok());
    PSF_CHECK(rt.start(view).is_ok());
    // Let the replica registration round-trip settle (bounded: time-based
    // coherence timers keep the event queue non-empty forever).
    fw.run_for(sim::Duration::from_seconds(5));
    chain_head = view;
  }

  std::vector<runtime::RuntimeInstanceId> entries;
  for (std::size_t c = 0; c < num_clients; ++c) {
    const runtime::RuntimeInstanceId mc =
        install_sync("MailClient", client_node);
    PSF_CHECK(rt.wire(mc, "ServerInterface", chain_head).is_ok());
    PSF_CHECK(rt.start(mc).is_ok());
    entries.push_back(mc);
  }
  fw.run_for(sim::Duration::from_seconds(1));
  return entries;
}

}  // namespace

CoherenceSummary collect_coherence_summary(runtime::SmockRuntime& rt) {
  CoherenceSummary out;
  auto add_directory = [&out](const coherence::CoherenceDirectory* dir) {
    if (dir == nullptr) return;
    const coherence::DirectoryStats& d = dir->stats();
    out.push_rpcs += d.pushes;
    out.push_updates += d.push_updates;
    out.push_rpcs_saved += d.push_rpcs_saved;
    out.replicas_evicted += d.replicas_evicted;
  };
  for (runtime::RuntimeInstanceId id : rt.instance_ids()) {
    runtime::Component* component = rt.instance(id).component.get();
    if (auto* view = dynamic_cast<mail::ViewMailServerComponent*>(component)) {
      if (const coherence::ReplicaCoherence* rc = view->replica_coherence()) {
        const coherence::ReplicaStats& s = rc->stats();
        out.flushes += s.flushes;
        out.updates_flushed += s.updates_flushed;
        out.bytes_flushed += s.bytes_flushed;
        out.updates_coalesced += s.updates_coalesced;
        out.coalesced_bytes_saved += s.coalesced_bytes_saved;
        out.blocked_on_flush_ms += s.blocked_on_flush_ms;
        out.residual_pending += rc->pending();
      }
      add_directory(view->directory());
    } else if (auto* home = dynamic_cast<mail::MailServerComponent*>(component)) {
      add_directory(home->directory());
    }
  }
  return out;
}

ScenarioResult run_scenario(Scenario scenario, std::size_t num_clients,
                            const WorkloadParams& params) {
  PSF_CHECK(num_clients >= 1);

  CaseStudySites sites;
  net::Network network = case_study_network(&sites);
  FrameworkOptions options;
  options.lookup_node = sites.new_york[0];
  options.server_node = sites.new_york[0];
  Framework fw(std::move(network), options);

  auto config = std::make_shared<mail::MailServiceConfig>();
  config->view_policy = scenario_policy(scenario);
  PSF_CHECK(
      mail::register_mail_factories(fw.runtime().factories(), config).is_ok());
  {
    auto st = fw.register_service(mail::mail_registration(sites.mail_home),
                                  mail::mail_translator());
    PSF_CHECK_MSG(st.is_ok(), st.to_string());
  }

  ScenarioResult result;
  result.scenario = scenario;
  result.clients = num_clients;

  const net::NodeId client_node =
      scenario_in_san_diego(scenario) ? sites.sd_client : sites.ny_client;

  // ---- deployment ---------------------------------------------------------
  std::vector<std::unique_ptr<runtime::GenericProxy>> proxies;
  std::vector<runtime::RuntimeInstanceId> entries;

  if (scenario_is_dynamic(scenario)) {
    planner::PlanRequest defaults;
    defaults.interface_name = "ClientInterface";
    defaults.required_properties.emplace_back(
        "TrustLevel", spec::PropertyValue::integer(4));
    defaults.request_rate_rps = 50.0;

    for (std::size_t c = 0; c < num_clients; ++c) {
      auto proxy = fw.make_proxy(client_node, "SecureMail", defaults);
      util::Status bind_status = util::internal_error("bind incomplete");
      bool bound = false;
      proxy->bind([&bind_status, &bound](util::Status st) {
        bind_status = st;
        bound = true;
      });
      fw.run_until_condition([&bound]() { return bound; },
                             sim::Duration::from_seconds(120));
      PSF_CHECK_MSG(bind_status.is_ok(), bind_status.to_string());
      if (c == 0) {
        result.one_time = proxy->outcome().costs;
        result.plan_description =
            proxy->outcome().plan.to_string(fw.network());
      }
      proxies.push_back(std::move(proxy));
    }
  } else {
    entries = deploy_static(fw, scenario, num_clients, sites, config);
  }

  // ---- workload ----------------------------------------------------------
  std::vector<std::unique_ptr<WorkloadClient>> clients;
  for (std::size_t c = 0; c < num_clients; ++c) {
    WorkloadClient::Transport transport;
    if (scenario_is_dynamic(scenario)) {
      runtime::GenericProxy* proxy = proxies[c].get();
      transport = [proxy](runtime::Request request,
                          runtime::ResponseCallback done) {
        proxy->invoke(std::move(request), std::move(done));
      };
    } else {
      runtime::SmockRuntime* rt = &fw.runtime();
      const runtime::RuntimeInstanceId entry = entries[c];
      transport = [rt, client_node, entry](runtime::Request request,
                                           runtime::ResponseCallback done) {
        rt->invoke_from_node(client_node, entry, std::move(request),
                             std::move(done));
      };
    }
    clients.push_back(std::make_unique<WorkloadClient>(
        fw.runtime(), scenario_name(scenario) + std::string("-user-") +
                          std::to_string(c),
        config, std::move(transport), params));
  }
  for (auto& client : clients) client->start();

  // Time-based coherence timers tick forever; run until all clients finish
  // rather than until the event queue drains.
  const sim::Duration step = sim::Duration::from_millis(250);
  std::size_t guard = 1000000;
  auto all_done = [&clients]() {
    for (const auto& c : clients) {
      if (!c->finished()) return false;
    }
    return true;
  };
  while (!all_done() && guard-- > 0) {
    fw.run_for(step);
  }
  PSF_CHECK_MSG(all_done(), "workload did not converge");

  // ---- aggregation -----------------------------------------------------
  double weighted_mean = 0.0;
  std::size_t total_samples = 0;
  double p50_sum = 0.0, p95_sum = 0.0, max_ms = 0.0;
  for (auto& client : clients) {
    const WorkloadStats& ws = client->stats();
    result.workload.sends_ok += ws.sends_ok;
    result.workload.sends_failed += ws.sends_failed;
    result.workload.receives_ok += ws.receives_ok;
    result.workload.receives_failed += ws.receives_failed;
    result.workload.messages_received += ws.messages_received;
    result.workload.plaintext_mismatches += ws.plaintext_mismatches;

    auto& s = client->send_latency_ms();
    weighted_mean += s.mean() * static_cast<double>(s.count());
    total_samples += s.count();
    p50_sum += s.percentile(50.0);
    p95_sum += s.percentile(95.0);
    max_ms = std::max(max_ms, s.max());
  }
  result.mean_send_ms =
      total_samples == 0 ? 0.0
                         : weighted_mean / static_cast<double>(total_samples);
  result.p50_send_ms = p50_sum / static_cast<double>(clients.size());
  result.p95_send_ms = p95_sum / static_cast<double>(clients.size());
  result.max_send_ms = max_ms;
  result.coherence = collect_coherence_summary(fw.runtime());
  return result;
}

}  // namespace psf::core
