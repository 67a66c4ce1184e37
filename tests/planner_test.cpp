// Planner tests: the three §3.3 constraint classes, factor binding,
// transparent pass-through, reuse of existing instances, request
// validation and chains on path topologies — on small synthetic services
// where the right answer is obvious.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "planner/planner.hpp"
#include "spec/builder.hpp"

namespace psf {
namespace {

using planner::CredentialMapTranslator;
using planner::EnvironmentView;
using planner::Planner;
using planner::PlanRequest;
using spec::PropertyValue;

// Two-node world: "edge" (client side) and "origin" (server side), joined by
// one configurable link.
struct TwoNodeWorld {
  net::Network network;
  net::NodeId edge;
  net::NodeId origin;
  net::LinkId link;

  explicit TwoNodeWorld(double bandwidth_bps = 10e6,
                        sim::Duration latency = sim::Duration::from_millis(50),
                        bool secure = true) {
    net::Credentials edge_creds;
    edge_creds.set("trust", std::int64_t{3});
    edge_creds.set("secure", true);
    edge = network.add_node("edge", 1e6, edge_creds);

    net::Credentials origin_creds;
    origin_creds.set("trust", std::int64_t{5});
    origin_creds.set("secure", true);
    origin = network.add_node("origin", 1e6, origin_creds);

    net::Credentials link_creds;
    link_creds.set("secure", secure);
    link = network.add_link(edge, origin, bandwidth_bps, latency, link_creds);
  }
};

CredentialMapTranslator standard_translator() {
  CredentialMapTranslator t;
  t.map_node({"TrustLevel", "trust", spec::PropertyType::kInterval,
              PropertyValue::integer(1)});
  t.map_node({"Confidentiality", "secure", spec::PropertyType::kBoolean,
              PropertyValue::boolean(false)});
  t.map_link({"Confidentiality", "secure", spec::PropertyType::kBoolean,
              PropertyValue::boolean(false)});
  return t;
}

// Client -> Origin, no views: the simplest linkage.
spec::ServiceSpec direct_spec() {
  return spec::SpecBuilder("Direct")
      .boolean_property("Confidentiality")
      .interval_property("TrustLevel", 1, 5)
      .interface("Api", {"Confidentiality", "TrustLevel"})
      .interface("Entry", {"Confidentiality", "TrustLevel"})
      .confidentiality_rule("Confidentiality")
      .component("Client")
      .implements("Entry", {{"TrustLevel", spec::lit_int(3)}})
      .requires_iface("Api", {{"TrustLevel", spec::lit_int(2)}})
      .cpu_per_request(10)
      .done()
      .component("Origin")
      .implements("Api", {{"Confidentiality", spec::lit_bool(true)},
                          {"TrustLevel", spec::lit_int(5)}})
      // Pinned by trust to the "origin" node so the link is always crossed.
      .condition_ge("TrustLevel", PropertyValue::integer(5))
      .capacity(100)
      .cpu_per_request(50)
      .done()
      .build();
}

TEST(PlannerTest, PlansDirectChain) {
  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec spec = direct_spec();
  Planner planner(spec, env);

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;
  request.request_rate_rps = 1.0;

  auto plan = planner.plan(request);
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  EXPECT_EQ(plan->placements.size(), 2u);
  EXPECT_EQ(plan->entry_placement().component->name, "Client");
  EXPECT_EQ(plan->entry_placement().node, world.edge);
  EXPECT_EQ(plan->wires.size(), 1u);
  EXPECT_GT(plan->metrics.expected_latency_s, 0.0);
}

TEST(PlannerTest, EntryPinnedToClientNode) {
  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec spec = direct_spec();
  Planner planner(spec, env);

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.origin;
  auto plan = planner.plan(request);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->entry_placement().node, world.origin);
}

TEST(PlannerTest, UnknownInterfaceIsNotFound) {
  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec spec = direct_spec();
  Planner planner(spec, env);

  PlanRequest request;
  request.interface_name = "NoSuchInterface";
  request.client_node = world.edge;
  auto plan = planner.plan(request);
  ASSERT_FALSE(plan.has_value());
  EXPECT_EQ(plan.status().code(), util::ErrorCode::kNotFound);
}

TEST(PlannerTest, ConditionBlocksUntrustedNode) {
  // Origin demands trust >= 5; only the "origin" node qualifies, and when
  // that requirement rises above every node the plan is unsatisfiable.
  auto make = [](std::int64_t required_trust) {
    return spec::SpecBuilder("Cond")
        .interval_property("TrustLevel", 1, 9)
        .interface("Api", {"TrustLevel"})
        .interface("Entry", {"TrustLevel"})
        .component("Client")
        .implements("Entry", {})
        .requires_iface("Api", {})
        .done()
        .component("Origin")
        .implements("Api", {{"TrustLevel", spec::lit_int(5)}})
        .condition_ge("TrustLevel", PropertyValue::integer(required_trust))
        .done()
        .build();
  };

  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;

  {
    spec::ServiceSpec spec = make(5);
    Planner planner(spec, env);
    auto plan = planner.plan(request);
    ASSERT_TRUE(plan.has_value());
    // The server must have landed on the trusted node.
    ASSERT_EQ(plan->placements.size(), 2u);
    EXPECT_EQ(plan->placements[1].node, world.origin);
  }
  {
    spec::ServiceSpec spec = make(6);  // nobody has trust 6
    Planner planner(spec, env);
    auto plan = planner.plan(request);
    ASSERT_FALSE(plan.has_value());
    EXPECT_EQ(plan.status().code(), util::ErrorCode::kUnsatisfiable);
  }
}

TEST(PlannerTest, ConfidentialityRuleRejectsInsecureLink) {
  // Client requires Confidentiality=T of Api; the only implementer sits
  // across an insecure link, so the requirement degrades to F and planning
  // fails. (No encryptor exists in this spec.)
  spec::ServiceSpec spec =
      spec::SpecBuilder("Conf")
          .boolean_property("Confidentiality")
          .interface("Api", {"Confidentiality"})
          .interface("Entry", {"Confidentiality"})
          .confidentiality_rule("Confidentiality")
          .component("Client")
          .implements("Entry", {})
          .requires_iface("Api",
                          {{"Confidentiality", spec::lit_bool(true)}})
          .done()
          .component("Origin")
          .implements("Api", {{"Confidentiality", spec::lit_bool(true)}})
          // Pin the origin away from the client so the link is crossed.
          .condition_ge("TrustLevel", PropertyValue::integer(5))
          .done()
          .interval_property("TrustLevel", 1, 5)
          .build();

  PlanRequest request;
  request.interface_name = "Entry";

  {
    TwoNodeWorld world(10e6, sim::Duration::from_millis(50), /*secure=*/true);
    auto translator = standard_translator();
    EnvironmentView env(world.network, translator);
    Planner planner(spec, env);
    request.client_node = world.edge;
    EXPECT_TRUE(planner.plan(request).has_value());
  }
  {
    TwoNodeWorld world(10e6, sim::Duration::from_millis(50),
                       /*secure=*/false);
    auto translator = standard_translator();
    EnvironmentView env(world.network, translator);
    Planner planner(spec, env);
    request.client_node = world.edge;
    auto plan = planner.plan(request);
    ASSERT_FALSE(plan.has_value());
    EXPECT_EQ(plan.status().code(), util::ErrorCode::kUnsatisfiable);
  }
}

TEST(PlannerTest, TransparentComponentRestoresConfidentiality) {
  // Same as above but with a transparent Encryptor/Decryptor pair in the
  // spec: the insecure link becomes crossable inside the tunnel.
  spec::ServiceSpec spec =
      spec::SpecBuilder("Tunnel")
          .boolean_property("Confidentiality")
          .interval_property("TrustLevel", 1, 5)
          .interface("Api", {"Confidentiality", "TrustLevel"})
          .interface("Entry", {"Confidentiality"})
          .interface("Tunnel", {"Confidentiality", "TrustLevel"})
          .confidentiality_rule("Confidentiality")
          .component("Client")
          .implements("Entry", {})
          .requires_iface("Api", {{"Confidentiality", spec::lit_bool(true)},
                                  {"TrustLevel", spec::lit_int(4)}})
          .done()
          .component("Origin")
          .implements("Api", {{"Confidentiality", spec::lit_bool(true)},
                              {"TrustLevel", spec::lit_int(5)}})
          .condition_ge("TrustLevel", PropertyValue::integer(5))
          .done()
          .component("Enc")
          .transparent()
          .implements("Api", {{"Confidentiality", spec::lit_bool(true)}})
          .requires_iface("Tunnel", {})
          .done()
          .component("Dec")
          .transparent()
          .implements("Tunnel", {})
          .requires_iface("Api", {{"Confidentiality", spec::lit_bool(true)}})
          .done()
          .build();

  TwoNodeWorld world(10e6, sim::Duration::from_millis(50), /*secure=*/false);
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  Planner planner(spec, env);

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;
  auto plan = planner.plan(request);
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();

  // Client -> Enc -> Dec -> Origin, with Enc on the edge and Dec with the
  // origin (the only arrangement whose plaintext segments stay secure).
  ASSERT_EQ(plan->placements.size(), 4u);
  std::map<std::string, std::string> where;
  for (const auto& p : plan->placements) {
    where[p.component->name] = world.network.node(p.node).name;
  }
  EXPECT_EQ(where["Client"], "edge");
  EXPECT_EQ(where["Enc"], "edge");
  EXPECT_EQ(where["Dec"], "origin");
  EXPECT_EQ(where["Origin"], "origin");

  // Pass-through: the Enc placement's effective Api must carry the origin's
  // TrustLevel=5.
  for (const auto& p : plan->placements) {
    if (p.component->name != "Enc") continue;
    auto it = p.effective.find("Api");
    ASSERT_NE(it, p.effective.end());
    auto trust = it->second.find("TrustLevel");
    ASSERT_NE(trust, it->second.end());
    EXPECT_EQ(trust->second, PropertyValue::integer(5));
  }
}

TEST(PlannerTest, FactorBindingConfiguresView) {
  // A view whose Quality factor binds from the node env; the client demands
  // Quality >= 3, the edge node offers 3.
  spec::ServiceSpec spec =
      spec::SpecBuilder("Factors")
          .interval_property("Quality", 1, 5)
          .interface("Api", {"Quality"})
          .interface("Entry", {"Quality"})
          .component("Client")
          .implements("Entry", {})
          .requires_iface("Api", {{"Quality", spec::lit_int(3)}})
          .done()
          .component("Origin")
          .implements("Api", {{"Quality", spec::lit_int(5)}})
          .condition_ge("Quality", PropertyValue::integer(5))
          .done()
          .data_view("CacheView", "Origin")
          .factor("Quality", spec::node_ref("Quality"))
          .implements("Api", {{"Quality", spec::factor_ref("Quality")}})
          .requires_iface("Api", {{"Quality", spec::factor_ref("Quality")}})
          .rrf(0.1)
          .done()
          .build();

  // Map node trust into "Quality".
  CredentialMapTranslator translator;
  translator.map_node({"Quality", "trust", spec::PropertyType::kInterval,
                       PropertyValue::integer(1)});

  // Slow link makes the cache view worthwhile.
  TwoNodeWorld world(1e6, sim::Duration::from_millis(200));
  EnvironmentView env(world.network, translator);
  Planner planner(spec, env);

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;
  auto plan = planner.plan(request);
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();

  bool found_view = false;
  for (const auto& p : plan->placements) {
    if (p.component->name != "CacheView") continue;
    found_view = true;
    EXPECT_EQ(p.node, world.edge);
    auto bound = p.factors.values.find("Quality");
    ASSERT_NE(bound, p.factors.values.end());
    EXPECT_EQ(bound->second, PropertyValue::integer(3));
  }
  EXPECT_TRUE(found_view)
      << "min-latency planning should cache before the slow link:\n"
      << plan->to_string(world.network);
}

TEST(PlannerTest, ReusesExistingInstanceWhenCheaper) {
  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec spec = direct_spec();
  Planner planner(spec, env);

  planner::ExistingInstance existing;
  existing.runtime_id = 42;
  existing.component = spec.find_component("Origin");
  existing.node = world.origin;
  existing.effective["Api"]["Confidentiality"] = PropertyValue::boolean(true);
  existing.effective["Api"]["TrustLevel"] = PropertyValue::integer(5);
  existing.downstream_latency_s = 50e-6;
  existing.current_load_rps = 10.0;

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;
  auto plan = planner.plan(request, {existing});
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->placements.size(), 2u);
  EXPECT_TRUE(plan->placements[1].reuse_existing);
  EXPECT_EQ(plan->placements[1].existing_runtime_id, 42u);
  EXPECT_EQ(plan->metrics.reused_components, 1u);
  EXPECT_EQ(plan->metrics.new_components, 1u);
}

TEST(PlannerTest, CapacityExhaustionFallsBackToNewInstance) {
  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec spec = direct_spec();
  Planner planner(spec, env);

  planner::ExistingInstance existing;
  existing.runtime_id = 42;
  existing.component = spec.find_component("Origin");
  existing.node = world.origin;
  existing.effective["Api"]["Confidentiality"] = PropertyValue::boolean(true);
  existing.effective["Api"]["TrustLevel"] = PropertyValue::integer(5);
  existing.current_load_rps = 99.5;  // capacity is 100

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;
  request.request_rate_rps = 5.0;  // would overflow the existing instance
  auto plan = planner.plan(request, {existing});
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->placements.size(), 2u);
  EXPECT_FALSE(plan->placements[1].reuse_existing);
}

TEST(PlannerTest, NonFiniteRateIsInvalid) {
  // `rate < 0` is false for NaN, and NaN passes every capacity comparison:
  // a NaN-rate request would reuse an Origin already at 99.5 of its 100 rps.
  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec spec = direct_spec();
  Planner planner(spec, env);

  planner::ExistingInstance existing;
  existing.runtime_id = 42;
  existing.component = spec.find_component("Origin");
  existing.node = world.origin;
  existing.effective["Api"]["Confidentiality"] = PropertyValue::boolean(true);
  existing.effective["Api"]["TrustLevel"] = PropertyValue::integer(5);
  existing.current_load_rps = 99.5;  // capacity is 100

  for (const double rate : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    PlanRequest request;
    request.interface_name = "Entry";
    request.client_node = world.edge;
    request.request_rate_rps = rate;
    auto plan = planner.plan(request, {existing});
    ASSERT_FALSE(plan.has_value()) << "rate " << rate;
    EXPECT_EQ(plan.status().code(), util::ErrorCode::kInvalidArgument)
        << "rate " << rate;
  }
}

TEST(PlannerTest, OutOfRangeNodesAreInvalid) {
  // Every node id in a request is range-checked: an out-of-range candidate
  // node would index past the per-plan tables, and an out-of-range code
  // origin would reach the network's route lookup.
  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec spec = direct_spec();
  Planner planner(spec, env);

  PlanRequest base;
  base.interface_name = "Entry";
  base.client_node = world.edge;
  const net::NodeId beyond{2};  // the world has nodes 0 and 1

  PlanRequest origin = base;
  origin.code_origin = beyond;
  PlanRequest candidate = base;
  candidate.candidate_nodes = {world.edge, beyond};
  PlanRequest unset_candidate = base;
  unset_candidate.candidate_nodes = {world.edge, net::NodeId{}};
  for (const PlanRequest* request : {&origin, &candidate, &unset_candidate}) {
    auto plan = planner.plan(*request);
    ASSERT_FALSE(plan.has_value());
    EXPECT_EQ(plan.status().code(), util::ErrorCode::kInvalidArgument)
        << plan.status().to_string();
  }

  // In range, both still plan.
  PlanRequest valid = base;
  valid.code_origin = world.origin;
  valid.candidate_nodes = {world.edge, world.origin};
  EXPECT_TRUE(planner.plan(valid).has_value());
}

// Front -> Back, no views, factors or transparency: a chain.
spec::ServiceSpec front_back_spec(double front_rrf) {
  return spec::SpecBuilder("ChainSvc")
      .interface("Api", {})
      .interface("Store", {})
      .component("Front")
      .implements("Api")
      .requires_iface("Store")
      .rrf(front_rrf)
      .cpu_per_request(200.0)
      .message_bytes(2048, 8192)
      .code_size(64 * 1024)
      .done()
      .component("Back")
      .implements("Store")
      .cpu_per_request(500.0)
      .message_bytes(1024, 4096)
      .code_size(128 * 1024)
      .done()
      .build();
}

// n0 - n1 - ... - n(n-1), with latencies varied so placement matters.
net::Network path_network(std::size_t n) {
  net::Network network;
  for (std::size_t i = 0; i < n; ++i) {
    network.add_node("n" + std::to_string(i), 1e6);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    network.add_link(net::NodeId{static_cast<std::uint32_t>(i)},
                     net::NodeId{static_cast<std::uint32_t>(i + 1)}, 50e6,
                     sim::Duration::from_micros(100 + 150 * (i % 3)));
  }
  return network;
}

// Every field of both plans, compared with ==.
void expect_identical(const planner::DeploymentPlan& a,
                      const planner::DeploymentPlan& b,
                      const std::string& label) {
  EXPECT_EQ(a.entry, b.entry) << label;
  ASSERT_EQ(a.placements.size(), b.placements.size()) << label;
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    const planner::Placement& x = a.placements[i];
    const planner::Placement& y = b.placements[i];
    EXPECT_EQ(x.id, y.id) << label;
    EXPECT_EQ(x.component, y.component) << label;
    EXPECT_EQ(x.node, y.node) << label;
    EXPECT_EQ(x.factors, y.factors) << label;
    EXPECT_EQ(x.effective, y.effective) << label;
    EXPECT_EQ(x.expected_latency_s, y.expected_latency_s) << label;
    EXPECT_EQ(x.inbound_rate_rps, y.inbound_rate_rps) << label;
    EXPECT_EQ(x.reuse_existing, y.reuse_existing) << label;
    EXPECT_EQ(x.existing_runtime_id, y.existing_runtime_id) << label;
  }
  ASSERT_EQ(a.wires.size(), b.wires.size()) << label;
  for (std::size_t i = 0; i < a.wires.size(); ++i) {
    const planner::Wire& x = a.wires[i];
    const planner::Wire& y = b.wires[i];
    EXPECT_EQ(x.client, y.client) << label;
    EXPECT_EQ(x.interface_name, y.interface_name) << label;
    EXPECT_EQ(x.server, y.server) << label;
    EXPECT_EQ(x.route.links, y.route.links) << label;
    EXPECT_EQ(x.route.total_latency, y.route.total_latency) << label;
    EXPECT_EQ(x.route.bottleneck_bandwidth_bps,
              y.route.bottleneck_bandwidth_bps)
        << label;
    EXPECT_EQ(x.rate_rps, y.rate_rps) << label;
  }
  EXPECT_EQ(a.metrics.expected_latency_s, b.metrics.expected_latency_s)
      << label;
  EXPECT_EQ(a.metrics.deployment_cost_s, b.metrics.deployment_cost_s)
      << label;
  EXPECT_EQ(a.metrics.new_components, b.metrics.new_components) << label;
  EXPECT_EQ(a.metrics.reused_components, b.metrics.reused_components)
      << label;
}

TEST(PlannerTest, PathLatencyTieKeepsCheapestDeployment) {
  CredentialMapTranslator translator;

  // Front at rrf 0 sends Back no traffic, so every placement of Back ties
  // on latency and deployment cost decides: Back's code is already at the
  // far end of the path.
  {
    const spec::ServiceSpec spec = front_back_spec(0.0);
    const net::Network network = path_network(4);
    EnvironmentView env(network, translator);
    Planner planner(spec, env);
    PlanRequest request;
    request.interface_name = "Api";
    request.client_node = net::NodeId{0};
    request.code_origin = net::NodeId{3};
    auto plan = planner.plan(request);
    ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
    ASSERT_EQ(plan->placements.size(), 2u);
    EXPECT_EQ(plan->placements[0].component->name, "Front");
    EXPECT_EQ(plan->placements[0].node, net::NodeId{0});
    EXPECT_EQ(plan->placements[1].component->name, "Back");
    EXPECT_EQ(plan->placements[1].node, net::NodeId{3})
        << plan->to_string(network);
  }

  // Every path shape plans exactly as the unpruned reference search.
  for (const double rrf : {0.0, 0.2, 0.6, 1.0}) {
    const spec::ServiceSpec spec = front_back_spec(rrf);
    for (std::uint32_t n = 2; n <= 32; ++n) {
      const net::Network network = path_network(n);
      EnvironmentView env(network, translator);
      Planner planner(spec, env);
      for (const net::NodeId origin : {net::NodeId{0}, net::NodeId{n - 1}}) {
        PlanRequest request;
        request.interface_name = "Api";
        request.client_node = net::NodeId{0};
        request.code_origin = origin;
        request.request_rate_rps = 10.0;
        PlanRequest reference = request;
        reference.bound_pruning = false;

        const std::string label = "rrf=" + std::to_string(rrf) +
                                  " n=" + std::to_string(n) +
                                  " origin=" + std::to_string(origin.value);
        auto plan = planner.plan(request);
        auto expected = planner.plan(reference);
        ASSERT_TRUE(plan.has_value()) << label;
        ASSERT_TRUE(expected.has_value()) << label;
        expect_identical(*plan, *expected, label);
      }
    }
  }
}

TEST(PlannerTest, StaticComponentRequiresPreplacedInstance) {
  spec::ServiceSpec spec =
      spec::SpecBuilder("Static")
          .interval_property("TrustLevel", 1, 5)
          .interface("Api", {"TrustLevel"})
          .interface("Entry", {"TrustLevel"})
          .component("Client")
          .implements("Entry", {})
          .requires_iface("Api", {})
          .done()
          .component("Origin")
          .static_placement()
          .implements("Api", {{"TrustLevel", spec::lit_int(5)}})
          .done()
          .build();

  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  Planner planner(spec, env);

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;

  // Without a pre-placed Origin, unsatisfiable.
  auto plan = planner.plan(request);
  ASSERT_FALSE(plan.has_value());
  EXPECT_EQ(plan.status().code(), util::ErrorCode::kUnsatisfiable);

  // With one, the plan binds to it.
  planner::ExistingInstance existing;
  existing.runtime_id = 7;
  existing.component = spec.find_component("Origin");
  existing.node = world.origin;
  existing.effective["Api"]["TrustLevel"] = PropertyValue::integer(5);
  auto plan2 = planner.plan(request, {existing});
  ASSERT_TRUE(plan2.has_value());
  EXPECT_TRUE(plan2->placements[1].reuse_existing);
}

TEST(PlannerTest, LinkBandwidthConstraintRejectsOverload) {
  // A 9600-baud link cannot carry the requested rate.
  TwoNodeWorld world(/*bandwidth_bps=*/9600.0);
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec spec = direct_spec();
  Planner planner(spec, env);

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;
  request.request_rate_rps = 100.0;  // 100 * (1024+1024)*8 bits >> 9600
  auto plan = planner.plan(request);
  ASSERT_FALSE(plan.has_value());
  EXPECT_EQ(plan.status().code(), util::ErrorCode::kUnsatisfiable);
}

TEST(PlannerTest, PlanRendersToDot) {
  TwoNodeWorld world;
  auto translator = standard_translator();
  EnvironmentView env(world.network, translator);
  spec::ServiceSpec spec = direct_spec();
  Planner planner(spec, env);

  PlanRequest request;
  request.interface_name = "Entry";
  request.client_node = world.edge;
  auto plan = planner.plan(request);
  ASSERT_TRUE(plan.has_value());

  const std::string dot = plan->to_dot(world.network);
  EXPECT_NE(dot.find("digraph deployment"), std::string::npos);
  EXPECT_NE(dot.find("cluster_"), std::string::npos);
  EXPECT_NE(dot.find("Client"), std::string::npos);
  EXPECT_NE(dot.find("Origin"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  // Balanced braces (cheap well-formedness proxy).
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

}  // namespace
}  // namespace psf
