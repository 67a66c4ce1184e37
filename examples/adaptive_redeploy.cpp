// §6 future work, implemented: adapting a deployment to *changing* network
// properties. A San Diego mail deployment initially needs an encrypted
// tunnel; when operations brings up a VPN (the WAN link becomes secure),
// the network monitor event re-translates the planner's environment, a
// replan drops the Encryptor/Decryptor pair — and the stateful
// ViewMailServer is *reused*, so its cached mail survives the
// reconfiguration (the paper's "service redeployment needs to preserve
// state compatibility").
//
// Run: ./build/examples/adaptive_redeploy
#include <cstdio>
#include <memory>
#include <set>

#include "core/case_study.hpp"
#include "core/framework.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "mail/types.hpp"
#include "mail/view_server.hpp"

using namespace psf;

namespace {

runtime::AccessOutcome bind_client(core::Framework& fw, net::NodeId node) {
  planner::PlanRequest wants;
  wants.interface_name = "ClientInterface";
  wants.required_properties.emplace_back("TrustLevel",
                                         spec::PropertyValue::integer(4));
  wants.request_rate_rps = 50.0;
  auto proxy = fw.make_proxy(node, "SecureMail", wants);
  util::Status status = util::internal_error("");
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

std::set<std::string> component_names(const planner::DeploymentPlan& plan) {
  std::set<std::string> out;
  for (const auto& p : plan.placements) out.insert(p.component->name);
  return out;
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

  // The §6 wiring: monitor events re-translate the service's environment
  // (through the framework-owned AdaptationController).
  fw.enable_adaptation("SecureMail");

  // --- phase 1: insecure WAN, tunnel required -----------------------------
  std::printf("=== phase 1: insecure WAN ===\n");
  auto before = bind_client(fw, sites.sd_client);
  std::printf("%s\n", before.plan.to_string(fw.network()).c_str());
  PSF_CHECK(component_names(before.plan).count("Encryptor") == 1);

  // Put some state into the San Diego view so we can observe it surviving.
  runtime::RuntimeInstanceId view_id = 0;
  for (const auto& inst : fw.server().existing_instances("SecureMail")) {
    if (inst.component->name == "ViewMailServer") view_id = inst.runtime_id;
  }
  PSF_CHECK(view_id != 0);
  {
    config->keys->provision_user("sam", mail::kMaxSensitivity);
    auto body = std::make_shared<mail::SendBody>();
    body->message.id = 1;
    body->message.from = "sam";
    body->message.to = "sam";
    body->message.sensitivity = 2;
    body->message.plaintext = {'h', 'i'};
    runtime::Request request;
    request.op = mail::ops::kSend;
    request.body = body;
    request.wire_bytes = mail::send_wire_bytes(body->message);
    bool done = false;
    fw.runtime().invoke_from_node(sites.sd_client, before.entry,
                                  std::move(request),
                                  [&done](runtime::Response response) {
                                    PSF_CHECK_MSG(response.ok, response.error);
                                    done = true;
                                  });
    fw.run_until_condition([&done]() { return done; },
                           sim::Duration::from_seconds(30));
  }
  auto* view = dynamic_cast<mail::ViewMailServerComponent*>(
      fw.runtime().instance(view_id).component.get());
  std::printf("view cache before change: %zu message(s) for sam\n\n",
              view->cached_inbox_size("sam"));

  // --- phase 2: ops deploys a VPN at t+60s ---------------------------------
  std::printf("=== phase 2: the SD<->NY link becomes secure (VPN) ===\n");
  auto lid = fw.network().link_between(sites.san_diego[0], sites.new_york[0]);
  PSF_CHECK(lid.has_value());
  fw.monitor().schedule_change(sim::Duration::from_seconds(60),
                               [lid](runtime::NetworkMonitor& monitor) {
                                 monitor.set_link_credential(*lid, "secure",
                                                             true);
                               });
  fw.run_for(sim::Duration::from_seconds(61));

  // --- phase 3: replanning after the change ------------------------------
  std::printf("=== phase 3: a new client plans against the fresh "
              "environment ===\n");
  auto after = bind_client(fw, sites.sd_client);
  std::printf("%s\n", after.plan.to_string(fw.network()).c_str());

  const auto names = component_names(after.plan);
  PSF_CHECK_MSG(names.count("Encryptor") == 0 && names.count("Decryptor") == 0,
                "tunnel should be gone after securing the link");

  bool reused_view = false;
  for (const auto& p : after.plan.placements) {
    if (p.component->name == "ViewMailServer" && p.reuse_existing) {
      reused_view = true;
    }
  }
  PSF_CHECK_MSG(reused_view, "the stateful view must be reused, not rebuilt");
  std::printf("tunnel components dropped; stateful ViewMailServer reused — "
              "cache still holds %zu message(s) for sam\n",
              view->cached_inbox_size("sam"));

  // --- phase 4: garbage-collect the now-orphaned tunnel --------------------
  // The old client still runs through E/D (they keep working over the now-
  // secure link). The framework migrates deployments tracked on the
  // AdaptationController that enable_adaptation returns, but only when they
  // violate their constraints; a link that became secure is an improvement,
  // not a violation, so the controller would leave the old chain alone. Here
  // the old entry is rewired to the view by hand and the tunnel retired,
  // completing the incremental redeployment.
  std::printf("\n=== phase 4: rewire the old client and retire the tunnel "
              "===\n");
  runtime::RuntimeInstanceId old_enc = 0, old_dec = 0;
  for (auto id : fw.runtime().instances_on(sites.sd_client)) {
    if (fw.runtime().instance(id).def->name == "Encryptor") old_enc = id;
  }
  for (auto id : fw.runtime().instances_on(sites.mail_home)) {
    if (fw.runtime().instance(id).def->name == "Decryptor") old_dec = id;
  }
  PSF_CHECK(old_enc != 0 && old_dec != 0);

  // The view currently forwards through the encryptor; point it straight at
  // the MailServer.
  runtime::RuntimeInstanceId mail_server = 0;
  for (const auto& inst : fw.server().existing_instances("SecureMail")) {
    if (inst.component->name == "MailServer") mail_server = inst.runtime_id;
  }
  PSF_CHECK(fw.runtime().wire(view_id, "ServerInterface", mail_server).is_ok());
  PSF_CHECK(fw.runtime().uninstall(old_enc).is_ok());
  PSF_CHECK(fw.runtime().uninstall(old_dec).is_ok());

  // Prove the rewired path works end to end.
  {
    auto body = std::make_shared<mail::ReceiveBody>();
    body->user = "sam";
    runtime::Request request;
    request.op = mail::ops::kReceive;
    request.body = body;
    request.wire_bytes = 256;
    bool done = false;
    fw.runtime().invoke_from_node(
        sites.sd_client, before.entry, std::move(request),
        [&done](runtime::Response response) {
          PSF_CHECK_MSG(response.ok, response.error);
          const auto* result =
              runtime::body_as<mail::ReceiveResultBody>(response);
          PSF_CHECK(result != nullptr && !result->messages.empty());
          std::printf("old client receives over the rewired path: %zu "
                      "message(s), state intact\n",
                      result->messages.size());
          done = true;
        });
    fw.run_until_condition([&done]() { return done; },
                           sim::Duration::from_seconds(30));
  }

  std::printf("\nadaptive redeployment complete at t=%.1f s\n",
              fw.simulator().now().seconds());
  return 0;
}
