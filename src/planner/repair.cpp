// Incremental plan repair (ROADMAP item 2).
//
// A violation invalidates part of a running deployment; everything else is
// worth keeping. Repair classifies the old plan's placements into surviving
// vs broken, then re-runs the search over a restricted candidate set built
// from the survivors' nodes plus the ClusterIndex neighborhoods of the
// broken pieces — the same locality machinery hierarchical search uses, so
// the repair search is cluster-sized no matter how large the topology is.
// Survivors are "pinned" through the reuse mechanism: the caller offers the
// live deployment as ExistingInstances, and with the candidate set shrunk to
// (mostly) their own nodes, rebinding them is both the cheapest and usually
// the only feasible completion. Exactness within the restricted set comes
// for free from flat BnB; global optimality is deliberately traded for
// locality, with a full replan as the safety net.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "planner/cluster.hpp"
#include "planner/planner.hpp"

namespace psf::planner {

const char* repair_violation_kind_name(RepairViolation::Kind kind) {
  switch (kind) {
    case RepairViolation::Kind::kNodeDeath: return "node-death";
    case RepairViolation::Kind::kLinkDegradation: return "link-degradation";
    case RepairViolation::Kind::kLoadOverCapacity: return "load-over-capacity";
    case RepairViolation::Kind::kPropertyDrift: return "property-drift";
  }
  return "unknown";
}

util::Expected<DeploymentPlan> Planner::repair(
    const PlanRequest& request, const DeploymentPlan& old_plan,
    const std::vector<RepairViolation>& violations,
    const std::vector<ExistingInstance>& existing,
    RepairOutcome* outcome) const {
  const net::Network& network = env_.network();
  const std::size_t node_count = network.node_count();
  if (outcome != nullptr) *outcome = RepairOutcome{};
  if (!request.client_node.valid() ||
      request.client_node.value >= node_count) {
    // Let plan() produce its usual validation error.
    return plan(request, existing, outcome ? &outcome->stats : nullptr);
  }

  // Nodes nothing new may land on. All node-scoped violation kinds exclude
  // the node: a dead node cannot host, an over-capacity node must shed, and
  // a drifted node must not be re-chosen until the next full plan validates
  // it. Draining a live node works by feeding a kNodeDeath violation without
  // crashing it.
  std::vector<char> excluded(node_count, 0);
  std::vector<net::LinkId> degraded_links;
  for (const RepairViolation& v : violations) {
    switch (v.kind) {
      case RepairViolation::Kind::kNodeDeath:
      case RepairViolation::Kind::kLoadOverCapacity:
      case RepairViolation::Kind::kPropertyDrift:
        if (v.node.valid() && v.node.value < node_count) {
          excluded[v.node.value] = 1;
        }
        break;
      case RepairViolation::Kind::kLinkDegradation:
        if (v.link.valid() && v.link.value < network.link_count()) {
          degraded_links.push_back(v.link);
        }
        break;
    }
  }

  const auto usable = [&](net::NodeId n) {
    return n.valid() && n.value < node_count && excluded[n.value] == 0 &&
           network.node(n).up;
  };
  const auto wire_degraded = [&](const Wire& w) {
    for (net::LinkId l : w.route.links) {
      for (net::LinkId d : degraded_links) {
        if (l == d) return true;
      }
    }
    return false;
  };

  // Classify the old placements. A placement breaks when its node is
  // excluded or down, or when a wire it *serves* rides a degraded link (the
  // client side of such a wire may be the entry, which is pinned — moving
  // the server side is what re-routes the traffic).
  std::vector<char> broken(old_plan.placements.size(), 0);
  for (std::size_t i = 0; i < old_plan.placements.size(); ++i) {
    if (!usable(old_plan.placements[i].node)) broken[i] = 1;
  }
  for (const Wire& w : old_plan.wires) {
    if (!wire_degraded(w)) continue;
    for (std::size_t i = 0; i < old_plan.placements.size(); ++i) {
      if (old_plan.placements[i].id == w.server) broken[i] = 1;
    }
  }

  // Candidate set: the survivors' nodes and the client node, widened by the
  // cluster neighborhoods of every broken node / degraded link so the search
  // can place replacements near where the casualties were.
  std::vector<char> candidate(node_count, 0);
  if (request.client_node.valid() && request.client_node.value < node_count) {
    candidate[request.client_node.value] = 1;
  }
  std::size_t broken_count = 0;
  std::vector<net::NodeId> node_seeds;
  std::vector<net::NodeId> link_seeds;
  for (std::size_t i = 0; i < old_plan.placements.size(); ++i) {
    const net::NodeId n = old_plan.placements[i].node;
    if (broken[i] != 0) {
      ++broken_count;
      if (n.valid() && n.value < node_count) node_seeds.push_back(n);
    } else if (n.valid() && n.value < node_count) {
      candidate[n.value] = 1;
    }
  }
  for (net::LinkId l : degraded_links) {
    link_seeds.push_back(network.link(l).a);
    link_seeds.push_back(network.link(l).b);
  }

  const std::size_t cluster_count =
      ClusterIndex::default_cluster_count(node_count);
  if (cluster_count >= 2 && node_count > cluster_count) {
    ClusterIndex index(network, cluster_count);
    const ClusterIndex::ClusterId home =
        index.cluster_of(request.client_node);
    const auto widen = [&](net::NodeId seed) {
      const ClusterIndex::ClusterId c = index.cluster_of(seed);
      for (net::NodeId m : index.members(c)) candidate[m.value] = 1;
      for (net::NodeId m : index.path_border_nodes(home, c)) {
        candidate[m.value] = 1;
      }
    };
    for (net::NodeId seed : link_seeds) widen(seed);
    for (net::NodeId seed : node_seeds) {
      widen(seed);
      // A replacement usually lands one hop from the casualty, and the
      // partition may split a well-connected site across clusters — admit
      // the seed's direct neighbors too (the nodes themselves, not their
      // whole clusters: the repair search must stay cluster-sized).
      for (net::LinkId l : network.links_of(seed)) {
        const net::NodeId n = network.link(l).other(seed);
        if (n.valid() && n.value < node_count) candidate[n.value] = 1;
      }
    }
  } else {
    // Too small to partition meaningfully: the whole network is one
    // neighborhood.
    std::fill(candidate.begin(), candidate.end(), 1);
  }

  std::vector<net::NodeId> candidate_nodes;
  for (std::uint32_t v = 0; v < node_count; ++v) {
    const net::NodeId n{v};
    if (candidate[v] != 0 && usable(n)) candidate_nodes.push_back(n);
  }

  // Reuse pool: the live deployment minus anything stranded on an excluded
  // or down node.
  std::vector<ExistingInstance> pool;
  pool.reserve(existing.size());
  for (const ExistingInstance& e : existing) {
    if (usable(e.node)) pool.push_back(e);
  }

  if (outcome != nullptr) {
    outcome->surviving_placements = old_plan.placements.size() - broken_count;
    outcome->broken_placements = broken_count;
    outcome->candidate_nodes = candidate_nodes;
  }

  PlanRequest restricted = request;
  restricted.candidate_nodes = candidate_nodes;
  SearchStats stats;
  auto repaired = plan(restricted, pool, &stats);
  if (outcome != nullptr) outcome->stats = stats;
  if (repaired.has_value()) return repaired;

  // Restricted search came up empty — fall back to a full replan, still
  // excluding violation nodes. With nothing excluded the candidate list is
  // cleared entirely so hierarchical search stays available at scale.
  PlanRequest full = request;
  full.candidate_nodes.clear();
  for (std::uint32_t v = 0; v < node_count; ++v) {
    if (excluded[v] != 0) {
      for (std::uint32_t w = 0; w < node_count; ++w) {
        const net::NodeId n{w};
        if (usable(n)) full.candidate_nodes.push_back(n);
      }
      break;
    }
  }
  SearchStats full_stats;
  auto cold = plan(full, pool, &full_stats);
  if (outcome != nullptr) {
    outcome->fell_back_to_full = true;
    outcome->stats += full_stats;
  }
  return cold;
}

}  // namespace psf::planner
