// Hierarchical planner: shared graph partitioning, the quotient cluster
// index and its admissible bounds, hierarchical-vs-flat optimality on small
// topologies, exact replay of flat and hierarchical plans, lazy route-row
// materialization, and a cold access racing an environment refresh.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>

#include "core/framework.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "mail/types.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "planner/cluster.hpp"
#include "planner/hierarchy.hpp"
#include "planner/planner.hpp"
#include "spec/builder.hpp"

namespace {

using namespace psf;

net::Network waxman(std::size_t num_nodes, std::uint64_t seed) {
  net::WaxmanParams params;
  params.num_nodes = num_nodes;
  util::Rng rng(seed);
  return net::generate_waxman(params, rng);
}

// The mail service on a seeded Waxman topology with the planner_test trust
// pattern: node 0 is the trusted home, everyone else cycles trust 2..4.
struct WaxmanWorld {
  net::Network network;
  spec::ServiceSpec spec;
  std::shared_ptr<planner::CredentialMapTranslator> translator;
  std::unique_ptr<planner::EnvironmentView> env;
  std::unique_ptr<planner::Planner> planner;
  std::vector<planner::ExistingInstance> existing;

  WaxmanWorld(std::size_t num_nodes, std::uint64_t seed) {
    network = waxman(num_nodes, seed);
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
    oss << p.component->name << "@" << p.node.value << " reuse="
        << p.reuse_existing << "\n";
  }
  return oss.str();
}

// ---- Shared graph partitioning ---------------------------------------------

TEST(PartitionGraphTest, CoversEveryNodeWithinCapacity) {
  const net::Network network = waxman(64, 11);
  const std::size_t parts = 8;
  const net::GraphPartition part = net::partition_graph(network, parts);

  ASSERT_EQ(part.part_of_node.size(), network.node_count());
  ASSERT_EQ(part.num_parts, parts);
  ASSERT_EQ(part.part_sizes.size(), parts);

  const std::size_t capacity =
      (network.node_count() + parts - 1) / parts;
  std::size_t total = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    EXPECT_LE(part.part_sizes[p], capacity) << "part " << p;
    total += part.part_sizes[p];
  }
  EXPECT_EQ(total, network.node_count());
  for (net::NodeId id : network.all_nodes()) {
    ASSERT_LT(part.part_of(id), parts);
  }
}

TEST(PartitionGraphTest, DeterministicAndCutStatsConsistent) {
  const net::Network network = waxman(48, 7);
  const net::GraphPartition a = net::partition_graph(network, 6);
  const net::GraphPartition b = net::partition_graph(network, 6);
  EXPECT_EQ(a.part_of_node, b.part_of_node);
  EXPECT_EQ(a.cut_links, b.cut_links);

  // Recompute the cut from scratch and compare.
  std::size_t cut = 0;
  for (net::LinkId id : network.all_links()) {
    const net::Link& link = network.link(id);
    if (a.part_of(link.a) != a.part_of(link.b)) ++cut;
  }
  EXPECT_EQ(a.cut_links, cut);
}

TEST(PartitionGraphTest, PartOfAgreesWithNodeTable) {
  // The part_of() accessor and the raw per-node table are two views of the
  // same assignment; they must agree exactly.
  const net::Network network = waxman(40, 3);
  const net::GraphPartition part = net::partition_graph(network, 5);
  for (net::NodeId id : network.all_nodes()) {
    ASSERT_EQ(part.part_of(id), part.part_of_node[id.value]);
  }
}

// ---- ClusterIndex ----------------------------------------------------------

TEST(ClusterIndexTest, BorderNodesAreExactlyCutEndpoints) {
  const net::Network network = waxman(64, 21);
  const planner::ClusterIndex index(network, 8);

  std::vector<std::vector<net::NodeId>> expected(index.num_clusters());
  for (net::LinkId id : network.all_links()) {
    const net::Link& link = network.link(id);
    const auto ca = index.cluster_of(link.a);
    const auto cb = index.cluster_of(link.b);
    if (ca == cb) continue;
    expected[ca].push_back(link.a);
    expected[cb].push_back(link.b);
  }
  for (std::size_t c = 0; c < index.num_clusters(); ++c) {
    std::sort(expected[c].begin(), expected[c].end());
    expected[c].erase(std::unique(expected[c].begin(), expected[c].end()),
                      expected[c].end());
    EXPECT_EQ(index.border_nodes(c), expected[c]) << "cluster " << c;
  }
}

TEST(ClusterIndexTest, QuotientBoundsAreAdmissible) {
  const net::Network network = waxman(64, 21);
  const planner::ClusterIndex index(network, 8);

  // For every node pair, the quotient latency lower bound must not exceed
  // the true shortest-route latency — otherwise hierarchical pruning could
  // discard optimal plans.
  for (net::NodeId u : network.all_nodes()) {
    for (net::NodeId v : network.all_nodes()) {
      const auto cu = index.cluster_of(u);
      const auto cv = index.cluster_of(v);
      if (cu == cv) continue;
      const net::Route* route = network.cached_route(u, v);
      ASSERT_NE(route, nullptr);
      EXPECT_LE(index.latency_lb_s(cu, cv),
                route->total_latency.seconds() + 1e-12)
          << u.value << " -> " << v.value;
    }
  }
}

TEST(ClusterIndexTest, MembersPartitionTheTopology) {
  const net::Network network = waxman(50, 5);
  const planner::ClusterIndex index(network, 0 /* unused */ + 7);
  std::vector<bool> seen(network.node_count(), false);
  for (std::size_t c = 0; c < index.num_clusters(); ++c) {
    for (net::NodeId id : index.members(c)) {
      EXPECT_EQ(index.cluster_of(id), c);
      EXPECT_FALSE(seen[id.value]) << "node in two clusters";
      seen[id.value] = true;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(ClusterIndexTest, DefaultClusterCountIsSqrtish) {
  EXPECT_EQ(planner::ClusterIndex::default_cluster_count(0), 1u);
  EXPECT_EQ(planner::ClusterIndex::default_cluster_count(1), 1u);
  EXPECT_EQ(planner::ClusterIndex::default_cluster_count(4), 2u);
  EXPECT_EQ(planner::ClusterIndex::default_cluster_count(100), 10u);
  EXPECT_EQ(planner::ClusterIndex::default_cluster_count(1000), 32u);
}

// ---- Refinement schedule ---------------------------------------------------

TEST(HierarchyScheduleTest, ClientClusterFirstWithZeroBound) {
  WaxmanWorld world(64, 21);
  const planner::ClusterIndex index(world.network, 8);
  const planner::PlanRequest request = world.request();
  const auto refinements = planner::build_refinements(
      index, world.spec, request, world.existing);

  ASSERT_EQ(refinements.size(), index.num_clusters());
  EXPECT_EQ(refinements[0].cluster, index.cluster_of(request.client_node));
  EXPECT_EQ(refinements[0].lower_bound, 0.0);
  for (std::size_t r = 2; r < refinements.size(); ++r) {
    EXPECT_LE(refinements[r - 1].lower_bound, refinements[r].lower_bound);
  }
  // Every refinement carries the fixed nodes: client + existing instances.
  for (const auto& ref : refinements) {
    EXPECT_TRUE(std::binary_search(ref.candidates.begin(),
                                   ref.candidates.end(),
                                   request.client_node));
    EXPECT_TRUE(std::binary_search(ref.candidates.begin(),
                                   ref.candidates.end(), net::NodeId{0}));
  }
  // And all candidate sets together cover the topology.
  std::vector<bool> covered(world.network.node_count(), false);
  for (const auto& ref : refinements) {
    for (net::NodeId id : ref.candidates) covered[id.value] = true;
  }
  EXPECT_TRUE(
      std::all_of(covered.begin(), covered.end(), [](bool b) { return b; }));
}

TEST(HierarchyScheduleTest, DiscountFloorUsesDepthAndMinRrf) {
  spec::ServiceSpec spec =
      spec::SpecBuilder("Chain")
          .interface("Api", {})
          .interface("Store", {})
          .component("Front")
              .implements("Api")
              .requires_iface("Store")
              .rrf(0.5)
              .done()
          .component("Back").implements("Store").done()
          .build();
  planner::PlanRequest request;
  request.max_depth = 3;
  // floor = min_rrf^(depth-1) = 0.5^2
  EXPECT_NEAR(planner::discount_floor(spec, request), 0.25, 1e-12);
  request.max_depth = 1;
  EXPECT_NEAR(planner::discount_floor(spec, request), 1.0, 1e-12);
}

// ---- Hierarchical search vs flat -------------------------------------------

TEST(HierarchicalSearchTest, MatchesFlatOptimalityOnSmallTopologies) {
  for (std::size_t nodes : {16u, 24u}) {
    for (std::uint64_t seed : {2026ull, 7ull, 99ull, 13ull}) {
      WaxmanWorld world(nodes, seed);
      planner::PlanRequest flat = world.request();
      flat.search_mode = planner::SearchMode::kFlat;

      planner::PlanRequest hier = world.request();
      hier.search_mode = planner::SearchMode::kHierarchical;
      // bound_pruning promises never to change the returned plan, and
      // skipping a cluster is part of that pruning.
      planner::PlanRequest exhaustive = hier;
      exhaustive.bound_pruning = false;

      planner::SearchStats flat_stats, hier_stats;
      auto a = world.planner->plan(flat, world.existing, &flat_stats);
      auto b = world.planner->plan(hier, world.existing, &hier_stats);
      auto c = world.planner->plan(exhaustive, world.existing);

      const std::string label =
          "nodes=" + std::to_string(nodes) + " seed=" + std::to_string(seed);
      ASSERT_EQ(a.has_value(), b.has_value()) << label;
      ASSERT_EQ(b.has_value(), c.has_value()) << label;
      if (!a.has_value()) continue;
      EXPECT_FALSE(flat_stats.used_hierarchy) << label;
      EXPECT_TRUE(hier_stats.used_hierarchy) << label;
      EXPECT_GE(hier_stats.clusters_total, 2u) << label;

      const double fa = a->metrics.expected_latency_s;
      const double fb = b->metrics.expected_latency_s;
      // Hierarchical search is exact within its restricted plan space, so
      // it can never beat flat; the gap gate is the bench's 5% bound.
      EXPECT_GE(fb, fa - 1e-12) << label;
      EXPECT_LE(fb, fa + 0.05 * std::max(1e-9, std::abs(fa))) << label;
      EXPECT_EQ(describe_plan(*b), describe_plan(*c)) << label;
      EXPECT_EQ(fb, c->metrics.expected_latency_s) << label;
    }
  }
}

TEST(HierarchicalSearchTest, AutoThresholdSelectsMode) {
  WaxmanWorld small(16, 2026);
  planner::SearchStats stats;
  auto plan = small.planner->plan(small.request(), small.existing, &stats);
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(stats.used_hierarchy);

  WaxmanWorld large(72, 2026);
  auto plan2 = large.planner->plan(large.request(), large.existing, &stats);
  ASSERT_TRUE(plan2.has_value());
  EXPECT_TRUE(stats.used_hierarchy);
}

TEST(HierarchicalSearchTest, FlatAndHierarchicalPlansReplayExactly) {
  // The search is a plain function of its inputs: planning the same request
  // again returns the same plan after the same search, flat or hierarchical.
  const std::pair<std::size_t, planner::SearchMode> worlds[] = {
      {32, planner::SearchMode::kFlat},
      {72, planner::SearchMode::kHierarchical}};
  for (const auto& [nodes, mode] : worlds) {
    WaxmanWorld world(nodes, 17);
    planner::PlanRequest request = world.request();
    request.search_mode = mode;
    planner::SearchStats stats, replay_stats;
    auto plan = world.planner->plan(request, world.existing, &stats);
    auto replay = world.planner->plan(request, world.existing, &replay_stats);
    const std::string label = "nodes=" + std::to_string(nodes);
    ASSERT_TRUE(plan.has_value()) << label << ": " << plan.status().to_string();
    ASSERT_TRUE(replay.has_value()) << label;
    EXPECT_EQ(stats.used_hierarchy, mode == planner::SearchMode::kHierarchical)
        << label;
    EXPECT_EQ(describe_plan(*plan), describe_plan(*replay)) << label;
    EXPECT_EQ(stats.to_string(), replay_stats.to_string()) << label;
  }
}

// ---- Lazy route rows -------------------------------------------------------

TEST(LazyRouteRowTest, RowsMaterializePerSourceOnDemand) {
  net::Network network = waxman(24, 9);
  EXPECT_EQ(network.route_rows_materialized(), 0u);

  const net::Route* r = network.cached_route(net::NodeId{3}, net::NodeId{17});
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(network.route_rows_materialized(), 1u);

  // Same source, different target: no new row.
  network.cached_route(net::NodeId{3}, net::NodeId{5});
  EXPECT_EQ(network.route_rows_materialized(), 1u);

  network.cached_route(net::NodeId{4}, net::NodeId{5});
  EXPECT_EQ(network.route_rows_materialized(), 2u);

  network.precompute_routes();
  EXPECT_EQ(network.route_rows_materialized(), network.node_count());

  // Topology mutation invalidates every row.
  network.set_node_up(net::NodeId{7}, false);
  EXPECT_EQ(network.route_rows_materialized(), 0u);
  const net::Route* after =
      network.cached_route(net::NodeId{3}, net::NodeId{17});
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(network.route_rows_materialized(), 1u);
}

// Every pair's cached row entry is the route route() finds: the same links,
// latency and bottleneck, or the unreachable marker where it finds none.
void expect_rows_match_direct(const net::Network& network) {
  for (net::NodeId from : network.all_nodes()) {
    for (net::NodeId to : network.all_nodes()) {
      const net::Route* cached = network.cached_route(from, to);
      ASSERT_NE(cached, nullptr);
      const std::optional<net::Route> direct = network.route(from, to);
      ASSERT_EQ(cached->reachable(), direct.has_value())
          << from.value << "->" << to.value;
      if (!direct) continue;
      EXPECT_EQ(cached->links, direct->links) << from.value << "->" << to.value;
      EXPECT_EQ(cached->total_latency.nanos(), direct->total_latency.nanos());
      EXPECT_EQ(cached->bottleneck_bandwidth_bps,
                direct->bottleneck_bandwidth_bps);
    }
  }
}

TEST(LazyRouteRowTest, CachedRowsMatchDirectRouting) {
  expect_rows_match_direct(waxman(24, 9));

  // Three 20 ms paths from node 0 to node 5: via node 2, via node 1 (both
  // two hops) and via nodes 3 and 4 (three hops). The links to node 2 come
  // first, so adjacency order alone would pick it.
  net::Network ties;
  for (int i = 0; i < 6; ++i) ties.add_node("n" + std::to_string(i));
  const auto link = [&ties](std::uint32_t a, std::uint32_t b, int ms) {
    return ties.add_link(net::NodeId{a}, net::NodeId{b}, 10e6,
                         sim::Duration::from_millis(ms));
  };
  const net::LinkId l02 = link(0, 2, 10);
  const net::LinkId l25 = link(2, 5, 10);
  const net::LinkId l01 = link(0, 1, 10);
  const net::LinkId l15 = link(1, 5, 10);
  const net::LinkId l03 = link(0, 3, 5);
  const net::LinkId l34 = link(3, 4, 5);
  const net::LinkId l45 = link(4, 5, 10);
  const net::NodeId n0{0};
  const net::NodeId n5{5};

  // Equal latency: fewer hops win, then the lower node id.
  expect_rows_match_direct(ties);
  EXPECT_EQ(ties.cached_route(n0, n5)->links,
            (std::vector<net::LinkId>{l01, l15}));

  // A down intermediate node: the other two-hop path.
  ties.set_node_up(net::NodeId{1}, false);
  expect_rows_match_direct(ties);
  EXPECT_EQ(ties.cached_route(n0, n5)->links,
            (std::vector<net::LinkId>{l02, l25}));

  // A down link as well: the three-hop path is all that is left.
  ties.set_link_up(l25, false);
  expect_rows_match_direct(ties);
  EXPECT_EQ(ties.cached_route(n0, n5)->links,
            (std::vector<net::LinkId>{l03, l34, l45}));
}

// ---- A cold access racing an environment refresh ----------------------------

TEST(ColdAccessRaceTest, RefreshDuringColdAccessDeployPoolsNothingStale) {
  // The mail service behind a Framework on a 48-node Waxman world.
  net::Network network = waxman(48, 41);
  for (net::NodeId id : network.all_nodes()) {
    network.node(id).credentials.set(
        "trust", static_cast<std::int64_t>(2 + id.value % 3));
    network.node(id).credentials.set("secure", true);
  }
  network.node(net::NodeId{0}).credentials.set("trust", std::int64_t{5});
  for (net::LinkId id : network.all_links()) {
    network.link(id).credentials.set("secure", true);
  }
  core::Framework fw(std::move(network));
  auto config = std::make_shared<mail::MailServiceConfig>();
  ASSERT_TRUE(
      mail::register_mail_factories(fw.runtime().factories(), config).is_ok());
  auto st = fw.register_service(mail::mail_registration(net::NodeId{0}),
                                mail::mail_translator());
  ASSERT_TRUE(st.is_ok()) << st.to_string();

  // The cold access is planned, and its planning CPU and deployment are
  // queued, when every node but the home loses one trust level and the
  // environment is refreshed. The pool must then hold only instances the
  // new environment justifies: no view whose trust factor no longer
  // re-derives from its demoted node.
  planner::PlanRequest request;
  request.interface_name = "ClientInterface";
  request.required_properties.emplace_back("TrustLevel",
                                           spec::PropertyValue::integer(2));
  request.request_rate_rps = 20.0;
  request.client_node = net::NodeId{47};
  request.search_mode = planner::SearchMode::kFlat;
  runtime::AccessOutcome outcome;
  bool done = false;
  fw.server().request_access(
      "SecureMail", request,
      [&](util::Expected<runtime::AccessOutcome> result) {
        ASSERT_TRUE(result.has_value()) << result.status().to_string();
        outcome = std::move(result).value();
        done = true;
      });
  for (net::NodeId id : fw.network().all_nodes()) {
    if (id == net::NodeId{0}) continue;
    const std::int64_t trust =
        fw.network().node(id).credentials.get_int("trust", 1);
    fw.monitor().set_node_credential(id, "trust", trust - 1);
  }
  ASSERT_TRUE(fw.server().refresh_environment("SecureMail").is_ok());
  fw.run();
  ASSERT_TRUE(done);

  // The plan, made against the old environment, deployed a new shared view.
  const planner::DeploymentPlan& plan = outcome.plan;
  EXPECT_TRUE(std::any_of(plan.placements.begin(), plan.placements.end(),
                          [&plan](const planner::Placement& p) {
                            return !p.reuse_existing && p.id != plan.entry &&
                                   p.component->is_view();
                          }))
      << describe_plan(plan);

  const planner::EnvironmentView* env = fw.server().environment("SecureMail");
  ASSERT_NE(env, nullptr);
  const auto& pool = fw.server().existing_instances("SecureMail");
  ASSERT_FALSE(pool.empty());  // the home's MailServer stays justified
  for (const planner::ExistingInstance& inst : pool) {
    const spec::Environment& node_env = env->node_env(inst.node);
    const std::string label =
        inst.component->name + " #" + std::to_string(inst.runtime_id);
    for (const spec::Condition& cond : inst.component->conditions) {
      EXPECT_TRUE(cond.holds(node_env)) << label;
    }
    for (const spec::PropertyAssignment& f : inst.component->factors) {
      ASSERT_EQ(inst.factors.values.count(f.property), 1u) << label;
      const spec::PropertyValue& bound = inst.factors.values.at(f.property);
      const spec::PropertyValue derived =
          planner::resolve_value(f.value, node_env, inst.factors);
      EXPECT_TRUE(bound == derived)
          << label << " factor " << f.property << ": bound "
          << bound.to_string() << ", re-derives " << derived.to_string();
    }
  }
}

}  // namespace
