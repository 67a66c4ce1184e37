// Branch-and-bound planner: the bounded search must return plans identical
// to the exhaustive search (same placements, same wires, same metrics) for
// every objective — the admissible bound is a pure search acceleration,
// never a result change.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <utility>

#include "mail/mail_spec.hpp"
#include "net/topology.hpp"
#include "planner/planner.hpp"

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

  planner::PlanRequest request(planner::Objective objective) const {
    planner::PlanRequest req;
    req.interface_name = "ClientInterface";
    req.required_properties.emplace_back("TrustLevel",
                                         spec::PropertyValue::integer(2));
    req.client_node =
        net::NodeId{static_cast<std::uint32_t>(network.node_count() - 1)};
    req.max_depth = 4;
    req.objective = objective;
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
  EXPECT_EQ(a.metrics.min_headroom, b.metrics.min_headroom) << label;
}

constexpr planner::Objective kObjectives[] = {
    planner::Objective::kMinLatency, planner::Objective::kMinDeploymentCost,
    planner::Objective::kMaxCapacity};

TEST(BoundPruningTest, BoundPruningDoesNotChangeThePlan) {
  const std::pair<std::size_t, std::uint64_t> worlds[] = {
      {10, 2026}, {10, 7}, {12, 2026}};
  for (const auto& [nodes, seed] : worlds) {
    WaxmanWorld world(nodes, seed);
    for (planner::Objective objective : kObjectives) {
      planner::PlanRequest pruned = world.request(objective);
      pruned.bound_pruning = true;

      planner::PlanRequest exhaustive = world.request(objective);
      exhaustive.bound_pruning = false;

      planner::SearchStats pruned_stats, exhaustive_stats;
      auto a = world.planner->plan(pruned, world.existing, &pruned_stats);
      auto b =
          world.planner->plan(exhaustive, world.existing, &exhaustive_stats);

      const std::string label = "nodes=" + std::to_string(nodes) +
                                " seed=" + std::to_string(seed) +
                                " objective=" +
                                planner::objective_name(objective);
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
}

TEST(BoundPruningTest, BoundActuallyPrunes) {
  // On a topology large enough to have many dominated placements the bound
  // must cut a non-trivial part of the search.
  WaxmanWorld world(12, 2026);
  planner::PlanRequest request =
      world.request(planner::Objective::kMinLatency);
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
  b.deadline_hit = true;

  a += b;
  EXPECT_EQ(a.candidates_examined, 15u);
  EXPECT_EQ(a.plans_scored, 3u);
  EXPECT_EQ(a.pruned_by_bound, 5u);
  EXPECT_EQ(a.rejected_condition, 5u);
  EXPECT_EQ(a.rejected_unroutable, 1u);
  EXPECT_EQ(a.rejected_link_capacity, 7u);
  EXPECT_TRUE(a.deadline_hit);

  const std::string text = a.to_string();
  EXPECT_NE(text.find("pruned 5"), std::string::npos) << text;
  EXPECT_NE(text.find("condition=5"), std::string::npos) << text;
  EXPECT_EQ(text.find("worker"), std::string::npos) << text;
}

}  // namespace
