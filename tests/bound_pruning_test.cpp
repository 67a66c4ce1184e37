// Branch-and-bound planner: the bounded search must return plans identical
// to the exhaustive search (same placements, same wires, same metrics) — the
// admissible bound is a pure search acceleration, never a result change.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "core/case_study.hpp"
#include "mail/mail_spec.hpp"
#include "net/topology.hpp"
#include "planner/planner.hpp"
#include "planner/validate.hpp"
#include "spec/builder.hpp"

namespace {

using namespace psf;

// The mail service on a seeded Waxman topology — the same world as the
// planner scaling benchmark, shrunk to test-friendly sizes.
struct WaxmanWorld {
  net::Network network;
  spec::ServiceSpec spec;
  std::shared_ptr<planner::CredentialMapTranslator> translator;
  std::unique_ptr<planner::EnvironmentView> env;
  std::unique_ptr<planner::Planner> planner;
  std::vector<planner::ExistingInstance> existing;

  WaxmanWorld(std::size_t num_nodes, std::uint64_t seed) {
    net::WaxmanParams params;
    params.num_nodes = num_nodes;
    util::Rng rng(seed);
    network = net::generate_waxman(params, rng);
    for (net::NodeId id : network.all_nodes()) {
      network.node(id).credentials.set(
          "trust", static_cast<std::int64_t>(2 + id.value % 3));
      network.node(id).credentials.set("secure", true);
    }
    network.node(net::NodeId{0}).credentials.set("trust", std::int64_t{5});
    for (net::LinkId id : network.all_links()) {
      network.link(id).credentials.set("secure", (id.value % 3) != 0);
    }

    spec = mail::mail_service_spec();
    translator = mail::mail_translator();
    env = std::make_unique<planner::EnvironmentView>(network, *translator);
    planner = std::make_unique<planner::Planner>(spec, *env);

    planner::ExistingInstance home;
    home.runtime_id = 1;
    home.component = spec.find_component("MailServer");
    home.node = net::NodeId{0};
    home.effective["ServerInterface"]["Confidentiality"] =
        spec::PropertyValue::boolean(true);
    home.effective["ServerInterface"]["TrustLevel"] =
        spec::PropertyValue::integer(5);
    home.downstream_latency_s = 1e-4;
    existing.push_back(home);
  }

  planner::PlanRequest request() const {
    planner::PlanRequest req;
    req.interface_name = "ClientInterface";
    req.required_properties.emplace_back("TrustLevel",
                                         spec::PropertyValue::integer(2));
    req.client_node =
        net::NodeId{static_cast<std::uint32_t>(network.node_count() - 1)};
    req.max_depth = 4;
    return req;
  }
};

std::string describe_plan(const planner::DeploymentPlan& plan) {
  std::ostringstream oss;
  oss << "entry=" << plan.entry << "\n";
  for (const planner::Placement& p : plan.placements) {
    oss << "placement " << p.id << " " << p.component->name << "@"
        << p.node.value << " factors=" << p.factors.to_string()
        << " rate=" << p.inbound_rate_rps << " reuse=" << p.reuse_existing
        << "/" << p.existing_runtime_id << "\n";
  }
  for (const planner::Wire& w : plan.wires) {
    oss << "wire " << w.client << " -[" << w.interface_name << "]-> "
        << w.server << " rate=" << w.rate_rps << " hops=" << w.route.links.size()
        << "\n";
  }
  return oss.str();
}

// Exact structural equality: bound pruning promises bit-identical plans, so
// latency/cost compare with == rather than tolerances.
void expect_same_plan(const planner::DeploymentPlan& a,
                      const planner::DeploymentPlan& b,
                      const std::string& label) {
  EXPECT_EQ(describe_plan(a), describe_plan(b)) << label;
  EXPECT_EQ(a.metrics.expected_latency_s, b.metrics.expected_latency_s)
      << label;
  EXPECT_EQ(a.metrics.deployment_cost_s, b.metrics.deployment_cost_s)
      << label;
  EXPECT_EQ(a.metrics.new_components, b.metrics.new_components) << label;
  EXPECT_EQ(a.metrics.reused_components, b.metrics.reused_components)
      << label;
}

TEST(BoundPruningTest, BoundPruningDoesNotChangeThePlan) {
  const std::pair<std::size_t, std::uint64_t> worlds[] = {
      {10, 2026}, {10, 7}, {12, 2026}};
  for (const auto& [nodes, seed] : worlds) {
    WaxmanWorld world(nodes, seed);
    planner::PlanRequest pruned = world.request();
    pruned.bound_pruning = true;

    planner::PlanRequest exhaustive = world.request();
    exhaustive.bound_pruning = false;

    planner::SearchStats pruned_stats, exhaustive_stats;
    auto a = world.planner->plan(pruned, world.existing, &pruned_stats);
    auto b =
        world.planner->plan(exhaustive, world.existing, &exhaustive_stats);

    const std::string label =
        "nodes=" + std::to_string(nodes) + " seed=" + std::to_string(seed);
    ASSERT_EQ(a.has_value(), b.has_value()) << label;
    if (!a.has_value()) continue;
    expect_same_plan(*a, *b, label);
    EXPECT_EQ(exhaustive_stats.pruned_by_bound, 0u) << label;
    // Pruning must make the search cheaper, never costlier.
    EXPECT_LE(pruned_stats.candidates_examined,
              exhaustive_stats.candidates_examined)
        << label;
  }
}

TEST(BoundPruningTest, BoundActuallyPrunes) {
  // On a topology large enough to have many dominated placements the bound
  // must cut a non-trivial part of the search.
  WaxmanWorld world(12, 2026);
  planner::PlanRequest request = world.request();
  planner::SearchStats stats;
  auto plan = world.planner->plan(request, world.existing, &stats);
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  EXPECT_GT(stats.pruned_by_bound, 0u);
}

TEST(BoundPruningTest, StatsMergeAddsCountersAndOrsFlags) {
  planner::SearchStats a;
  a.candidates_examined = 10;
  a.plans_scored = 2;
  a.pruned_by_bound = 3;
  a.rejected_condition = 4;
  a.rejected_unroutable = 1;

  planner::SearchStats b;
  b.candidates_examined = 5;
  b.plans_scored = 1;
  b.pruned_by_bound = 2;
  b.rejected_condition = 1;
  b.rejected_link_capacity = 7;
  b.used_hierarchy = true;

  a += b;
  EXPECT_EQ(a.candidates_examined, 15u);
  EXPECT_EQ(a.plans_scored, 3u);
  EXPECT_EQ(a.pruned_by_bound, 5u);
  EXPECT_EQ(a.rejected_condition, 5u);
  EXPECT_EQ(a.rejected_unroutable, 1u);
  EXPECT_EQ(a.rejected_link_capacity, 7u);
  EXPECT_TRUE(a.used_hierarchy);

  const std::string text = a.to_string();
  EXPECT_NE(text.find("pruned 5"), std::string::npos) << text;
  EXPECT_NE(text.find("condition=5"), std::string::npos) << text;
  EXPECT_EQ(text.find("worker"), std::string::npos) << text;
}

// ---- Pinned search counters -------------------------------------------
//
// Every SearchStats field and the plan, as literal constants. The search's
// host implementation may change how fast a candidate is examined, never
// which candidates are examined or in what order: candidates_examined is
// the simulated planning charge (GenericServer::deploy_plan), so a changed
// count moves simulated time. The worlds are shaped like psfbench's
// access_storm: the case-study sites with a reuse pool that mixes
// ServerInterface and DecryptorInterface implementers with instances
// implementing neither.

std::string counters(const planner::SearchStats& s) {
  std::ostringstream oss;
  oss << "examined=" << s.candidates_examined << " scored=" << s.plans_scored
      << " bound=" << s.pruned_by_bound << " static=" << s.rejected_static
      << " cycle=" << s.rejected_cycle
      << " dup-view=" << s.rejected_duplicate_view
      << " condition=" << s.rejected_condition
      << " factor=" << s.rejected_factor
      << " compat=" << s.rejected_compatibility
      << " node-cap=" << s.rejected_node_capacity
      << " link-cap=" << s.rejected_link_capacity
      << " inst-cap=" << s.rejected_instance_capacity
      << " unroutable=" << s.rejected_unroutable
      << " down=" << s.rejected_node_down
      << " clusters=" << s.clusters_total << "/" << s.clusters_pruned << "/"
      << s.clusters_refined << " hier=" << s.used_hierarchy;
  return oss.str();
}

struct CaseStudyWorld {
  core::CaseStudySites sites;
  net::Network network;
  spec::ServiceSpec spec;
  std::shared_ptr<planner::CredentialMapTranslator> translator;
  std::unique_ptr<planner::EnvironmentView> env;
  std::unique_ptr<planner::Planner> planner;
  std::vector<planner::ExistingInstance> pool;

  explicit CaseStudyWorld(std::size_t nodes_per_site,
                          spec::ServiceSpec service = mail::mail_service_spec())
      : spec(std::move(service)) {
    core::CaseStudyOptions options;
    options.nodes_per_site = nodes_per_site;
    network = core::case_study_network(&sites, options);
    translator = mail::mail_translator();
    env = std::make_unique<planner::EnvironmentView>(network, *translator);
    planner = std::make_unique<planner::Planner>(spec, *env);
  }

  // Pools an instance of `component` at `node` offering `iface` with the
  // given TrustLevel (and Confidentiality = T where the service has it); a
  // view's TrustLevel factor binds to the same level.
  void pool_instance(const char* component, net::NodeId node,
                     const char* iface, std::int64_t trust,
                     double downstream_s, double load_rps = 0.0) {
    planner::ExistingInstance inst;
    inst.runtime_id = pool.size() + 1;
    inst.component = spec.find_component(component);
    inst.node = node;
    if (inst.component->is_view() && !inst.component->factors.empty()) {
      inst.factors.values["TrustLevel"] = spec::PropertyValue::integer(trust);
    }
    if (spec.find_property("Confidentiality") != nullptr) {
      inst.effective[iface]["Confidentiality"] =
          spec::PropertyValue::boolean(true);
    }
    inst.effective[iface]["TrustLevel"] = spec::PropertyValue::integer(trust);
    inst.downstream_latency_s = downstream_s;
    inst.current_load_rps = load_rps;
    pool.push_back(std::move(inst));
  }

  // access_storm's pool after a few cold plans: the home MailServer, views,
  // and tunnel ends, with a pooled client-side view that implements no
  // interface a requirement edge asks for.
  void storm_pool() {
    const auto& ny = sites.new_york;
    const auto& sd = sites.san_diego;
    const auto& sea = sites.seattle;
    pool_instance("MailServer", sites.mail_home, "ServerInterface", 5, 1e-4);
    pool_instance("Decryptor", ny[2], "DecryptorInterface", 5, 2e-4);
    pool_instance("ViewMailClient", sea[3], "ClientInterface", 2, 0.0);
    pool_instance("Encryptor", sd[0], "ServerInterface", 5, 0.2);
    pool_instance("ViewMailServer", sd[2], "ServerInterface", 4, 0.05, 10.0);
    pool_instance("Decryptor", ny[0], "DecryptorInterface", 5, 2e-4);
    pool_instance("ViewMailClient", sd[1], "ClientInterface", 4, 0.0);
    pool_instance("ViewMailServer", sea[1], "ServerInterface", 2, 0.08);
    pool_instance("Encryptor", sea[0], "ServerInterface", 5, 0.4);
    pool_instance("ViewMailServer", sd[4], "ServerInterface", 4, 0.05, 495.0);
    pool_instance("Decryptor", ny[4], "DecryptorInterface", 5, 2e-4);
  }

  planner::PlanRequest request(net::NodeId client, std::int64_t trust,
                               double rate_rps) const {
    planner::PlanRequest req;
    req.interface_name = "ClientInterface";
    req.required_properties.emplace_back(
        "TrustLevel", spec::PropertyValue::integer(trust));
    req.client_node = client;
    req.request_rate_rps = rate_rps;
    return req;
  }

  // counters, the route rows the search filled (psfbench counts them as
  // work) and the plan (or the error), for one EXPECT_EQ per case.
  std::string run(const planner::PlanRequest& req) const {
    planner::SearchStats stats;
    auto plan = planner->plan(req, pool, &stats);
    return counters(stats) + " route-rows=" +
           std::to_string(network.route_rows_materialized()) + "\n" +
           (plan ? plan->to_string(network) : plan.status().to_string());
  }
};

TEST(SearchCountersTest, StormPoolFromSanDiego) {
  CaseStudyWorld world(6);
  world.storm_pool();
  EXPECT_EQ(world.run(world.request(world.sites.sd_client, 4, 8.0)),
            "examined=158455 scored=2 bound=61452 static=24750 cycle=5046 "
            "dup-view=3066 condition=8250 factor=0 compat=5464 node-cap=0 "
            "link-cap=0 inst-cap=937 unroutable=0 down=0 clusters=0/0/0 "
            "hier=0 route-rows=18\n"
            "DeploymentPlan (expected latency 50.46 ms, 1 new / 1 reused "
            "components)\n"
            "  #0 MailClient @ sd-5 (entry)\n"
            "  #1 ViewMailServer[TrustLevel=4] @ sd-2 (existing)\n"
            "  #0 --ServerInterface--> #1 (1 hop(s), 0 ms)\n");
}

TEST(SearchCountersTest, StormPoolFromSeattle) {
  CaseStudyWorld world(6);
  world.storm_pool();
  EXPECT_EQ(world.run(world.request(world.sites.sea_client, 2, 4.0)),
            "examined=158455 scored=1 bound=62791 static=24750 cycle=5046 "
            "dup-view=2628 condition=8251 factor=0 compat=5500 node-cap=0 "
            "link-cap=0 inst-cap=0 unroutable=0 down=0 clusters=0/0/0 hier=0 "
            "route-rows=18\n"
            "DeploymentPlan (expected latency 80.455 ms, 1 new / 1 reused "
            "components)\n"
            "  #0 ViewMailClient @ sea-5 (entry)\n"
            "  #1 ViewMailServer[TrustLevel=2] @ sea-1 (existing)\n"
            "  #0 --ServerInterface--> #1 (1 hop(s), 0 ms)\n");
}

TEST(SearchCountersTest, PooledInstanceOnDownedNode) {
  CaseStudyWorld world(6);
  world.storm_pool();
  // sd-2 hosts a pooled ViewMailServer: the pool walk counts it as a
  // node-down rejection on every requirement edge that visits it.
  world.network.set_node_up(world.sites.san_diego[2], false);
  EXPECT_EQ(world.run(world.request(world.sites.sd_client, 2, 8.0)),
            "examined=154072 scored=4 bound=58208 static=23154 cycle=4860 "
            "dup-view=2550 condition=8172 factor=0 compat=5652 node-cap=0 "
            "link-cap=0 inst-cap=852 unroutable=0 down=9968 clusters=0/0/0 "
            "hier=0 route-rows=17\n"
            "DeploymentPlan (expected latency 40.1645 ms, 2 new / 1 reused "
            "components)\n"
            "  #0 ViewMailClient @ sd-5 (entry)\n"
            "  #1 ViewMailServer[TrustLevel=4] @ sd-5\n"
            "  #2 Encryptor @ sd-0 (existing)\n"
            "  #1 --ServerInterface--> #2 (1 hop(s), 0 ms)\n"
            "  #0 --ServerInterface--> #1 (local)\n");
}

// Seattle cut off by both of its WAN links: the route cache marks every pair
// across the partition unreachable, and no candidate may sit behind one.
// San Diego's client then has to plan inside San Diego and New York (the
// Seattle nodes stay up, and their rows are never built).
TEST(SearchCountersTest, PartitionedSeattleFromSanDiego) {
  CaseStudyWorld world(6);
  world.storm_pool();
  const auto& sea = world.sites.seattle;
  for (net::NodeId gateway :
       {world.sites.san_diego[0], world.sites.new_york[0]}) {
    const auto link = world.network.link_between(sea[0], gateway);
    ASSERT_TRUE(link.has_value());
    world.network.set_link_up(*link, false);
  }
  const planner::PlanRequest req =
      world.request(world.sites.sd_client, 2, 4.0);
  EXPECT_EQ(world.run(req),
            "examined=316908 scored=5 bound=65869 static=49500 cycle=10092 "
            "dup-view=6132 condition=16500 factor=0 compat=2750 node-cap=0 "
            "link-cap=0 inst-cap=0 unroutable=67084 down=0 clusters=0/0/0 "
            "hier=0 route-rows=12\n"
            "DeploymentPlan (expected latency 50.455 ms, 1 new / 1 reused "
            "components)\n"
            "  #0 ViewMailClient @ sd-5 (entry)\n"
            "  #1 ViewMailServer[TrustLevel=4] @ sd-2 (existing)\n"
            "  #0 --ServerInterface--> #1 (1 hop(s), 0 ms)\n");
  auto plan = world.planner->plan(req, world.pool);
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  const planner::ValidationReport report = planner::validate_plan(
      world.spec, *world.env, req, *plan, world.pool);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// A front end with two requirement edges, each walking a pool that mixes
// its interface's implementers with instances implementing neither.
spec::ServiceSpec fanout_spec() {
  return spec::SpecBuilder("Fanout")
      .interval_property("TrustLevel", 1, 5)
      .interface("Entry", {"TrustLevel"})
      .interface("Store", {"TrustLevel"})
      .interface("Index", {"TrustLevel"})
      .interface("Audit", {"TrustLevel"})
      .component("Front")
      .implements("Entry", {})
      .requires_iface("Store", {{"TrustLevel", spec::lit_int(3)}})
      .requires_iface("Index", {})
      .done()
      .component("StoreServer")
      .implements("Store", {{"TrustLevel", spec::node_ref("TrustLevel")}})
      .done()
      .component("IndexServer")
      .implements("Index", {{"TrustLevel", spec::lit_int(5)}})
      .done()
      .component("AuditLog")
      .implements("Audit", {{"TrustLevel", spec::lit_int(5)}})
      .done()
      .build();
}

TEST(SearchCountersTest, TwoEdgePoolWalkOverNonImplementers) {
  CaseStudyWorld world(6, fanout_spec());
  const auto& ny = world.sites.new_york;
  const auto& sd = world.sites.san_diego;
  // Implementers of each requirement edge's interface, with instances
  // implementing neither between and after them.
  world.pool_instance("AuditLog", ny[0], "Audit", 5, 0.0);
  world.pool_instance("StoreServer", ny[2], "Store", 5, 0.01);
  world.pool_instance("AuditLog", ny[3], "Audit", 5, 0.0);
  world.pool_instance("AuditLog", sd[1], "Audit", 5, 0.0);
  world.pool_instance("IndexServer", sd[2], "Index", 5, 0.02);
  world.pool_instance("StoreServer", sd[3], "Store", 4, 0.001);
  world.pool_instance("AuditLog", sd[4], "Audit", 5, 0.0);
  world.pool_instance("IndexServer", ny[4], "Index", 5, 0.002);
  world.pool_instance("AuditLog", ny[5], "Audit", 5, 0.0);
  planner::PlanRequest req;
  req.interface_name = "Entry";
  req.client_node = world.sites.sd_client;
  EXPECT_EQ(world.run(req),
            "examined=244 scored=30 bound=136 static=0 cycle=0 dup-view=0 "
            "condition=0 factor=0 compat=6 node-cap=0 link-cap=0 inst-cap=0 "
            "unroutable=0 down=0 clusters=0/0/0 hier=0 route-rows=18\n"
            "DeploymentPlan (expected latency 0.3 ms, 3 new / 0 reused "
            "components)\n"
            "  #0 Front @ sd-5 (entry)\n"
            "  #1 StoreServer @ sd-5\n"
            "  #2 IndexServer @ sd-5\n"
            "  #0 --Store--> #1 (local)\n"
            "  #0 --Index--> #2 (local)\n");
}

// The last depth level: an entry that requires anything is dead there, so a
// one-level search examines the entry candidates and finds nothing.
TEST(SearchCountersTest, FanoutEntryDeadAtLastLevel) {
  CaseStudyWorld world(6, fanout_spec());
  planner::PlanRequest req;
  req.interface_name = "Entry";
  req.client_node = world.sites.sd_client;
  req.pin_entry_to_client = false;
  req.max_depth = 1;
  EXPECT_EQ(world.run(req),
            "examined=18 scored=0 bound=0 static=0 cycle=0 dup-view=0 "
            "condition=0 factor=0 compat=0 node-cap=0 link-cap=0 inst-cap=0 "
            "unroutable=0 down=0 clusters=0/0/0 hier=0 route-rows=18\n"
            "unsatisfiable: no deployment of 'Fanout' satisfies interface "
            "'Entry' from node 'sd-5'");
}

// Two levels: the leaves StoreServer and IndexServer complete at the last
// level, beside the dead entry candidates of level one.
TEST(SearchCountersTest, FanoutLeavesCompleteAtLastLevel) {
  CaseStudyWorld world(6, fanout_spec());
  planner::PlanRequest req;
  req.interface_name = "Entry";
  req.client_node = world.sites.sd_client;
  req.pin_entry_to_client = false;
  req.max_depth = 2;
  EXPECT_EQ(world.run(req),
            "examined=468 scored=19 bound=352 static=0 cycle=0 dup-view=0 "
            "condition=0 factor=0 compat=72 node-cap=0 link-cap=0 "
            "inst-cap=0 unroutable=0 down=0 clusters=0/0/0 hier=0 "
            "route-rows=18\n"
            "DeploymentPlan (expected latency 0.3 ms, 3 new / 0 reused "
            "components)\n"
            "  #0 Front @ sd-5 (entry)\n"
            "  #1 StoreServer @ sd-5\n"
            "  #2 IndexServer @ sd-5\n"
            "  #0 --Store--> #1 (local)\n"
            "  #0 --Index--> #2 (local)\n");
}

TEST(SearchCountersTest, StormPoolAtDepthThree) {
  CaseStudyWorld world(6);
  world.storm_pool();
  planner::PlanRequest req = world.request(world.sites.sd_client, 4, 8.0);
  req.max_depth = 3;
  EXPECT_EQ(world.run(req),
            "examined=631 scored=2 bound=180 static=126 cycle=6 dup-view=42 "
            "condition=42 factor=0 compat=64 node-cap=0 link-cap=0 "
            "inst-cap=1 unroutable=0 down=0 clusters=0/0/0 hier=0 "
            "route-rows=18\n"
            "DeploymentPlan (expected latency 50.46 ms, 1 new / 1 reused "
            "components)\n"
            "  #0 MailClient @ sd-5 (entry)\n"
            "  #1 ViewMailServer[TrustLevel=4] @ sd-2 (existing)\n"
            "  #0 --ServerInterface--> #1 (1 hop(s), 0 ms)\n");
}

TEST(SearchCountersTest, StormPoolAtDepthFour) {
  CaseStudyWorld world(6);
  world.storm_pool();
  planner::PlanRequest req = world.request(world.sites.sd_client, 4, 8.0);
  req.max_depth = 4;
  EXPECT_EQ(world.run(req),
            "examined=4015 scored=2 bound=1440 static=774 cycle=42 "
            "dup-view=42 condition=258 factor=0 compat=172 node-cap=0 "
            "link-cap=0 inst-cap=37 unroutable=0 down=0 clusters=0/0/0 "
            "hier=0 route-rows=18\n"
            "DeploymentPlan (expected latency 50.46 ms, 1 new / 1 reused "
            "components)\n"
            "  #0 MailClient @ sd-5 (entry)\n"
            "  #1 ViewMailServer[TrustLevel=4] @ sd-2 (existing)\n"
            "  #0 --ServerInterface--> #1 (1 hop(s), 0 ms)\n");
}

TEST(SearchCountersTest, StormPoolAtDepthFive) {
  CaseStudyWorld world(6);
  world.storm_pool();
  planner::PlanRequest req = world.request(world.sites.sea_client, 2, 4.0);
  req.max_depth = 5;
  EXPECT_EQ(world.run(req),
            "examined=37315 scored=1 bound=12391 static=8550 cycle=1086 "
            "dup-view=2628 condition=2851 factor=0 compat=1900 node-cap=0 "
            "link-cap=0 inst-cap=0 unroutable=0 down=0 clusters=0/0/0 "
            "hier=0 route-rows=18\n"
            "DeploymentPlan (expected latency 80.455 ms, 1 new / 1 reused "
            "components)\n"
            "  #0 ViewMailClient @ sea-5 (entry)\n"
            "  #1 ViewMailServer[TrustLevel=2] @ sea-1 (existing)\n"
            "  #0 --ServerInterface--> #1 (1 hop(s), 0 ms)\n");
}

// A directory whose cache view factors on the string node property User
// (which some nodes lack: mail_translator gives it no default), whose entry
// requires a string value, and whose transparent Relay sits in front of a
// Store implementing two interfaces with different values of one property.
// A transparent component inherits each property from its child's first
// implemented interface, in interface-name order, that holds it: Relay
// offers Archive's User and TrustLevel, though it is wired to Backend.
spec::ServiceSpec directory_spec() {
  return spec::SpecBuilder("Directory")
      .interval_property("TrustLevel", 1, 5)
      .string_property("User")
      .interface("Entry", {"TrustLevel"})
      .interface("Lookup", {"User", "TrustLevel"})
      .interface("Backend", {"User", "TrustLevel"})
      .interface("Archive", {"User", "TrustLevel"})
      .component("Front")
      .implements("Entry", {})
      .requires_iface("Lookup", {{"User", spec::lit_string("alice")},
                                 {"TrustLevel", spec::lit_int(3)}})
      .done()
      .data_view("UserCache", "Store")
      .factor("User", spec::node_ref("User"))
      .implements("Lookup", {{"User", spec::factor_ref("User")},
                             {"TrustLevel", spec::node_ref("TrustLevel")}})
      .requires_iface("Lookup", {{"User", spec::factor_ref("User")}})
      .rrf(0.2)
      .done()
      .component("Relay")
      .transparent()
      .implements("Lookup", {})
      .requires_iface("Backend", {})
      .done()
      .component("Store")
      .implements("Backend", {{"User", spec::lit_string("bob")},
                              {"TrustLevel", spec::lit_int(2)}})
      .implements("Archive", {{"User", spec::lit_string("alice")},
                              {"TrustLevel", spec::lit_int(4)}})
      .condition_ge("TrustLevel", spec::PropertyValue::integer(5))
      .done()
      .build();
}

struct DirectoryWorld : CaseStudyWorld {
  DirectoryWorld() : CaseStudyWorld(6, directory_spec()) {
    const auto& sd = sites.san_diego;
    network.node(sd[0]).credentials.set("user", std::string("alice"));
    network.node(sd[2]).credentials.set("user", std::string("alice"));
    network.node(sd[3]).credentials.set("user", std::string("bob"));
    network.node(sites.seattle[1]).credentials.set("user",
                                                   std::string("alice"));
    env = std::make_unique<planner::EnvironmentView>(network, *translator);
    planner = std::make_unique<planner::Planner>(spec, *env);
  }

  void pool_store(net::NodeId node) {
    planner::ExistingInstance inst;
    inst.runtime_id = pool.size() + 1;
    inst.component = spec.find_component("Store");
    inst.node = node;
    inst.effective["Backend"]["User"] = spec::PropertyValue::string("bob");
    inst.effective["Backend"]["TrustLevel"] = spec::PropertyValue::integer(2);
    inst.effective["Archive"]["User"] = spec::PropertyValue::string("alice");
    inst.effective["Archive"]["TrustLevel"] = spec::PropertyValue::integer(4);
    inst.downstream_latency_s = 1e-4;
    pool.push_back(std::move(inst));
  }

  void pool_cache(net::NodeId node, const char* user, std::int64_t trust,
                  double downstream_s) {
    planner::ExistingInstance inst;
    inst.runtime_id = pool.size() + 1;
    inst.component = spec.find_component("UserCache");
    inst.node = node;
    inst.factors.values["User"] = spec::PropertyValue::string(user);
    inst.effective["Lookup"]["User"] = spec::PropertyValue::string(user);
    inst.effective["Lookup"]["TrustLevel"] =
        spec::PropertyValue::integer(trust);
    inst.downstream_latency_s = downstream_s;
    pool.push_back(std::move(inst));
  }

  planner::PlanRequest entry_request(net::NodeId client) const {
    planner::PlanRequest req;
    req.interface_name = "Entry";
    req.client_node = client;
    req.request_rate_rps = 8.0;
    return req;
  }
};

TEST(SearchCountersTest, StringFactorsAndTransparentInheritance) {
  DirectoryWorld world;
  EXPECT_EQ(world.run(world.entry_request(world.sites.sd_client)),
            "examined=451 scored=2 bound=147 static=0 cycle=2 dup-view=4 "
            "condition=228 factor=42 compat=4 node-cap=0 link-cap=0 "
            "inst-cap=0 unroutable=0 down=0 clusters=0/0/0 hier=0 "
            "route-rows=18\n"
            "DeploymentPlan (expected latency 40.4694 ms, 4 new / 0 reused "
            "components)\n"
            "  #0 Front @ sd-5 (entry)\n"
            "  #1 UserCache[User=\"alice\"] @ sd-0\n"
            "  #2 Relay @ sd-0\n"
            "  #3 Store @ ny-0\n"
            "  #2 --Backend--> #3 (1 hop(s), 100 ms)\n"
            "  #1 --Lookup--> #2 (local)\n"
            "  #0 --Lookup--> #1 (1 hop(s), 0 ms)\n");
}

TEST(SearchCountersTest, StringFactorsWithPooledStoreAndCaches) {
  DirectoryWorld world;
  world.pool_store(world.sites.mail_home);
  world.pool_cache(world.sites.san_diego[2], "alice", 4, 0.05);
  world.pool_cache(world.sites.san_diego[3], "bob", 4, 0.05);
  world.pool_cache(world.sites.seattle[1], "alice", 2, 0.08);
  EXPECT_EQ(world.run(world.entry_request(world.sites.sd_client)),
            "examined=517 scored=1 bound=162 static=0 cycle=2 dup-view=8 "
            "condition=216 factor=42 compat=8 node-cap=0 link-cap=0 "
            "inst-cap=0 unroutable=0 down=0 clusters=0/0/0 hier=0 "
            "route-rows=18\n"
            "DeploymentPlan (expected latency 50.2638 ms, 1 new / 1 reused "
            "components)\n"
            "  #0 Front @ sd-5 (entry)\n"
            "  #1 UserCache[User=\"alice\"] @ sd-2 (existing)\n"
            "  #0 --Lookup--> #1 (1 hop(s), 0 ms)\n");
  EXPECT_EQ(world.run(world.entry_request(world.sites.sea_client)),
            "examined=649 scored=1 bound=198 static=0 cycle=2 dup-view=8 "
            "condition=288 factor=42 compat=8 node-cap=0 link-cap=0 "
            "inst-cap=0 unroutable=0 down=0 clusters=0/0/0 hier=0 "
            "route-rows=18\n"
            "DeploymentPlan (expected latency 451.247 ms, 1 new / 1 reused "
            "components)\n"
            "  #0 Front @ sea-5 (entry)\n"
            "  #1 UserCache[User=\"alice\"] @ sd-2 (existing)\n"
            "  #0 --Lookup--> #1 (3 hop(s), 200 ms)\n");
}

TEST(SearchCountersTest, HierarchicalCaseStudy) {
  CaseStudyWorld world(22);  // 66 nodes: kAuto searches hierarchically
  const auto& sd = world.sites.san_diego;
  world.pool_instance("MailServer", world.sites.mail_home, "ServerInterface",
                      5, 1e-4);
  world.pool_instance("ViewMailClient", sd[3], "ClientInterface", 4, 0.0);
  world.pool_instance("ViewMailServer", sd[7], "ServerInterface", 4, 0.05);
  world.pool_instance("Decryptor", world.sites.new_york[3],
                      "DecryptorInterface", 5, 2e-4);
  planner::PlanRequest req = world.request(world.sites.sea_client, 2, 4.0);
  req.max_depth = 4;  // keeps the exhaustive refinements test-sized
  EXPECT_EQ(world.run(req),
            "examined=75812 scored=10 bound=16706 static=16851 cycle=942 "
            "dup-view=3780 condition=6309 factor=0 compat=1262 node-cap=0 "
            "link-cap=0 inst-cap=0 unroutable=0 down=0 clusters=8/0/8 hier=1 "
            "route-rows=66\n"
            "DeploymentPlan (expected latency 120.909 ms, 3 new / 1 reused "
            "components)\n"
            "  #0 ViewMailClient @ sea-21 (entry)\n"
            "  #1 ViewMailServer[TrustLevel=2] @ sea-21\n"
            "  #2 Encryptor @ sea-21\n"
            "  #3 Decryptor @ ny-3 (existing)\n"
            "  #2 --DecryptorInterface--> #3 (4 hop(s), 300 ms)\n"
            "  #1 --ServerInterface--> #2 (local)\n"
            "  #0 --ServerInterface--> #1 (local)\n");
}

TEST(SearchCountersTest, RepairAroundDrainedView) {
  CaseStudyWorld world(6);
  world.storm_pool();
  const planner::PlanRequest req =
      world.request(world.sites.sd_client, 4, 8.0);
  auto old_plan = world.planner->plan(req, world.pool);
  ASSERT_TRUE(old_plan.has_value()) << old_plan.status().to_string();
  // Drain the node of the plan's ViewMailServer: nothing may stay there.
  net::NodeId drained;
  for (const planner::Placement& p : old_plan->placements) {
    if (p.component->name == "ViewMailServer") drained = p.node;
  }
  ASSERT_TRUE(drained.valid()) << old_plan->to_string(world.network);
  planner::RepairViolation violation;
  violation.kind = planner::RepairViolation::Kind::kNodeDeath;
  violation.node = drained;
  planner::RepairOutcome outcome;
  auto repaired = world.planner->repair(req, *old_plan, {violation},
                                        world.pool, &outcome);
  ASSERT_TRUE(repaired.has_value()) << repaired.status().to_string();
  EXPECT_EQ(counters(outcome.stats) + " route-rows=" +
                std::to_string(world.network.route_rows_materialized()) +
                "\n" + repaired->to_string(world.network),
            "examined=37150 scored=3 bound=6429 static=4086 cycle=2430 "
            "dup-view=1275 condition=0 factor=0 compat=2175 node-cap=0 "
            "link-cap=0 inst-cap=426 unroutable=0 down=0 clusters=0/0/0 "
            "hier=0 route-rows=18\n"
            "DeploymentPlan (expected latency 40.1695 ms, 2 new / 1 reused "
            "components)\n"
            "  #0 MailClient @ sd-5 (entry)\n"
            "  #1 ViewMailServer[TrustLevel=4] @ sd-5\n"
            "  #2 Encryptor @ sd-0 (existing)\n"
            "  #1 --ServerInterface--> #2 (1 hop(s), 0 ms)\n"
            "  #0 --ServerInterface--> #1 (local)\n");
  EXPECT_FALSE(outcome.fell_back_to_full);
}

// ---- Bounded vs exhaustive search on the pool world ------------------------

// The access_storm-shaped worlds with their reuse pool: the bound prunes
// around pooled instances whose downstream latency is known exactly, which
// the Waxman worlds above (one pooled home) barely exercise. Depth 6, the
// default, is left out only for time: its exhaustive searches take seconds.
TEST(BoundPruningTest, StormPoolMatchesExhaustiveSearch) {
  for (std::size_t nodes_per_site : {5u, 6u}) {
    CaseStudyWorld world(nodes_per_site);
    world.storm_pool();
    for (net::NodeId client :
         {world.sites.sd_client, world.sites.sea_client}) {
      for (std::int64_t trust = 1; trust <= 4; ++trust) {
        for (double rate : {1.0, 8.0, 64.0}) {
          for (std::size_t depth = 3; depth <= 5; ++depth) {
            planner::PlanRequest bounded = world.request(client, trust, rate);
            bounded.max_depth = depth;
            planner::PlanRequest exhaustive = bounded;
            exhaustive.bound_pruning = false;

            planner::SearchStats exhaustive_stats;
            auto a = world.planner->plan(bounded, world.pool);
            auto b = world.planner->plan(exhaustive, world.pool,
                                         &exhaustive_stats);

            const std::string label =
                "nodes_per_site=" + std::to_string(nodes_per_site) +
                " client=" + world.network.node(client).name +
                " trust=" + std::to_string(trust) +
                " rate=" + std::to_string(rate) +
                " depth=" + std::to_string(depth);
            ASSERT_EQ(a.has_value(), b.has_value()) << label;
            EXPECT_EQ(exhaustive_stats.pruned_by_bound, 0u) << label;
            if (a.has_value()) expect_same_plan(*a, *b, label);
          }
        }
      }
    }
  }
}

}  // namespace
