// Plan validation: accepts planner output, rejects hand-corrupted plans of
// every violation class.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/case_study.hpp"
#include "mail/mail_spec.hpp"
#include "planner/validate.hpp"
#include "spec/builder.hpp"

namespace psf::planner {
namespace {

using spec::PropertyValue;

struct ValidateFixture : public ::testing::Test {
  ValidateFixture() {
    net::Credentials edge_creds;
    edge_creds.set("trust", std::int64_t{3});
    edge_creds.set("secure", true);
    edge = network.add_node("edge", 1e6, edge_creds);
    net::Credentials origin_creds;
    origin_creds.set("trust", std::int64_t{5});
    origin_creds.set("secure", true);
    origin = network.add_node("origin", 1e6, origin_creds);
    net::Credentials secure;
    secure.set("secure", true);
    network.add_link(edge, origin, 10e6, sim::Duration::from_millis(40),
                     secure);

    translator.map_node({"TrustLevel", "trust", spec::PropertyType::kInterval,
                         PropertyValue::integer(1)});
    translator.map_node({"Confidentiality", "secure",
                         spec::PropertyType::kBoolean,
                         PropertyValue::boolean(false)});
    translator.map_link({"Confidentiality", "secure",
                         spec::PropertyType::kBoolean,
                         PropertyValue::boolean(false)});

    service = spec::SpecBuilder("V")
                  .interval_property("TrustLevel", 1, 5)
                  .interface("Api", {"TrustLevel"})
                  .interface("Entry", {"TrustLevel"})
                  .component("Client")
                  .implements("Entry", {{"TrustLevel", spec::lit_int(3)}})
                  .requires_iface("Api", {{"TrustLevel", spec::lit_int(4)}})
                  .done()
                  .component("Origin")
                  .implements("Api", {{"TrustLevel", spec::lit_int(5)}})
                  .condition_ge("TrustLevel", PropertyValue::integer(5))
                  .capacity(100)
                  .done()
                  .build();

    request.interface_name = "Entry";
    request.client_node = edge;
    request.request_rate_rps = 2.0;
  }

  DeploymentPlan make_plan() {
    EnvironmentView env(network, translator);
    Planner planner(service, env);
    auto plan = planner.plan(request);
    PSF_CHECK_MSG(plan.has_value(), plan.status().to_string());
    return std::move(plan).value();
  }

  ValidationReport validate(const DeploymentPlan& plan) {
    EnvironmentView env(network, translator);
    return validate_plan(service, env, request, plan);
  }

  net::Network network;
  net::NodeId edge, origin;
  CredentialMapTranslator translator;
  spec::ServiceSpec service;
  PlanRequest request;
};

TEST_F(ValidateFixture, AcceptsPlannerOutput) {
  auto plan = make_plan();
  auto report = validate(plan);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(ValidateFixture, DetectsEntryNotPinned) {
  auto plan = make_plan();
  plan.placements[plan.entry].node = origin;  // move the entry away
  auto report = validate(plan);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations) {
    found |= v.kind == Violation::Kind::kPolicy;
  }
  EXPECT_TRUE(found) << report.to_string();
}

TEST_F(ValidateFixture, DetectsConditionViolation) {
  auto plan = make_plan();
  // Drag the Origin onto the untrusted edge node.
  for (auto& p : plan.placements) {
    if (p.component->name == "Origin") p.node = edge;
  }
  auto report = validate(plan);
  ASSERT_FALSE(report.ok());
  bool condition = false, compatibility = false;
  for (const auto& v : report.violations) {
    condition |= v.kind == Violation::Kind::kCondition;
    compatibility |= v.kind == Violation::Kind::kCompatibility;
  }
  EXPECT_TRUE(condition) << report.to_string();
  (void)compatibility;  // moving also breaks nothing else in this spec
}

TEST_F(ValidateFixture, DetectsMissingWire) {
  auto plan = make_plan();
  plan.wires.clear();
  auto report = validate(plan);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::kStructure);
}

TEST_F(ValidateFixture, DetectsCapacityViolation) {
  auto plan = make_plan();
  request.request_rate_rps = 500.0;  // Origin capacity is 100 rps
  auto report = validate(plan);
  ASSERT_FALSE(report.ok());
  bool capacity = false;
  for (const auto& v : report.violations) {
    capacity |= v.kind == Violation::Kind::kCapacity;
  }
  EXPECT_TRUE(capacity) << report.to_string();
}

TEST_F(ValidateFixture, DetectsIncompatibleRequirement) {
  auto plan = make_plan();
  // Demand more than the entry offers.
  request.required_properties.emplace_back("TrustLevel",
                                           PropertyValue::integer(5));
  auto report = validate(plan);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::kCompatibility);
}

TEST_F(ValidateFixture, DetectsBrokenFactorBinding) {
  // Use the mail spec: corrupt the view's bound factor.
  spec::ServiceSpec mail = mail::mail_service_spec();
  net::Network net2;
  net::Credentials sd;
  sd.set("trust", std::int64_t{4});
  sd.set("secure", true);
  const net::NodeId client = net2.add_node("sd-0", 1e6, sd);
  net::Credentials ny;
  ny.set("trust", std::int64_t{5});
  ny.set("secure", true);
  const net::NodeId home = net2.add_node("ny-0", 1e6, ny);
  net::Credentials insecure;
  insecure.set("secure", false);
  net2.add_link(client, home, 50e6, sim::Duration::from_millis(100), insecure);

  auto mail_tr = mail::mail_translator();
  EnvironmentView env(net2, *mail_tr);

  ExistingInstance server;
  server.runtime_id = 1;
  server.component = mail.find_component("MailServer");
  server.node = home;
  server.effective["ServerInterface"]["Confidentiality"] =
      PropertyValue::boolean(true);
  server.effective["ServerInterface"]["TrustLevel"] = PropertyValue::integer(5);
  server.downstream_latency_s = 1e-4;

  PlanRequest req;
  req.interface_name = "ClientInterface";
  req.required_properties.emplace_back("TrustLevel", PropertyValue::integer(4));
  req.client_node = client;
  req.request_rate_rps = 10.0;

  Planner planner(mail, env);
  auto plan = planner.plan(req, {server});
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  ASSERT_TRUE(validate_plan(mail, env, req, *plan, {server}).ok());

  for (auto& p : plan->placements) {
    if (p.component->name == "ViewMailServer") {
      p.factors.values["TrustLevel"] = PropertyValue::integer(5);  // lie
    }
  }
  auto report = validate_plan(mail, env, req, *plan, {server});
  ASSERT_FALSE(report.ok());
  bool factor_violation = false;
  for (const auto& v : report.violations) {
    factor_violation |= v.kind == Violation::Kind::kCondition &&
                        v.detail.find("factor") != std::string::npos;
  }
  EXPECT_TRUE(factor_violation) << report.to_string();
}

TEST(ValidateUnroutableTest, SeveredSeattleWireIsUnroutable) {
  // Seattle's TrustLevel-2 plan tunnels from an Encryptor at sea-2 to a
  // Decryptor at New York's gateway, ny-0.
  core::CaseStudySites sites;
  net::Network network = core::case_study_network(&sites);
  const spec::ServiceSpec mail = mail::mail_service_spec();
  auto mail_tr = mail::mail_translator();
  EnvironmentView env(network, *mail_tr);

  ExistingInstance server;
  server.runtime_id = 1;
  server.component = mail.find_component("MailServer");
  server.node = sites.mail_home;
  server.effective["ServerInterface"]["Confidentiality"] =
      PropertyValue::boolean(true);
  server.effective["ServerInterface"]["TrustLevel"] = PropertyValue::integer(5);
  server.downstream_latency_s = 1e-4;

  PlanRequest req;
  req.interface_name = "ClientInterface";
  req.required_properties.emplace_back("TrustLevel", PropertyValue::integer(2));
  req.client_node = sites.sea_client;
  req.request_rate_rps = 25.0;

  Planner planner(mail, env);
  auto plan = planner.plan(req, {server});
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  ASSERT_TRUE(validate_plan(mail, env, req, *plan, {server}).ok());

  const auto in_seattle = [&sites](net::NodeId n) {
    return std::find(sites.seattle.begin(), sites.seattle.end(), n) !=
           sites.seattle.end();
  };
  const Wire* tunnel = nullptr;
  for (const Wire& w : plan->wires) {
    const Placement& client = plan->placements[w.client];
    const Placement& server_side = plan->placements[w.server];
    if (in_seattle(client.node) && !in_seattle(server_side.node)) tunnel = &w;
  }
  ASSERT_NE(tunnel, nullptr) << plan->to_string(network);
  EXPECT_EQ(plan->placements[tunnel->client].component->name, "Encryptor");
  EXPECT_EQ(network.node(plan->placements[tunnel->client].node).name, "sea-2");
  EXPECT_EQ(plan->placements[tunnel->server].component->name, "Decryptor");
  EXPECT_EQ(network.node(plan->placements[tunnel->server].node).name, "ny-0");

  // Sever both of Seattle's WAN links.
  for (net::LinkId id : network.all_links()) {
    const net::Link& link = network.link(id);
    if (in_seattle(link.a) != in_seattle(link.b)) network.set_link_up(id, false);
  }
  ASSERT_FALSE(
      network.route(sites.new_york[0], sites.sea_client).has_value());

  const ValidationReport report =
      validate_plan(mail, env, req, *plan, {server});
  std::size_t unroutable = 0;
  for (const Violation& v : report.violations) {
    if (v.kind != Violation::Kind::kUnroutable) continue;
    ++unroutable;
    EXPECT_EQ(v.instance, tunnel->client) << v.to_string();
  }
  EXPECT_EQ(unroutable, 1u) << report.to_string();
}

TEST_F(ValidateFixture, DetectsStaticComponentCloning) {
  auto plan = make_plan();
  // Pretend the spec marks Origin static; the plan deployed it anew.
  for (auto& comp : service.components) {
    if (comp.name == "Origin") comp.static_placement = true;
  }
  auto report = validate(plan);
  ASSERT_FALSE(report.ok());
  bool policy = false;
  for (const auto& v : report.violations) {
    policy |= v.kind == Violation::Kind::kPolicy &&
              v.detail.find("static") != std::string::npos;
  }
  EXPECT_TRUE(policy) << report.to_string();
}

TEST_F(ValidateFixture, ReportFormatting) {
  auto plan = make_plan();
  EXPECT_EQ(validate(plan).to_string(), "plan valid");
  plan.wires.clear();
  const std::string text = validate(plan).to_string();
  EXPECT_NE(text.find("violation"), std::string::npos);
  EXPECT_NE(text.find("structure"), std::string::npos);
}

}  // namespace
}  // namespace psf::planner
