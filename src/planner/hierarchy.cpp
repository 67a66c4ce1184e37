// detlint:ordered-output — refinement reduction order decides plan tie-breaks.
#include "planner/hierarchy.hpp"

#include <algorithm>
#include <cmath>

namespace psf::planner {

double discount_floor(const spec::ServiceSpec& spec,
                      const PlanRequest& request) {
  double min_rrf = 1.0;
  for (const spec::ComponentDef& comp : spec.components) {
    min_rrf = std::min(min_rrf, comp.behaviors.rrf);
  }
  min_rrf = std::clamp(min_rrf, 0.0, 1.0);
  const std::size_t exponent =
      request.max_depth >= 1 ? request.max_depth - 1 : 0;
  return std::pow(min_rrf, static_cast<double>(exponent));
}

std::vector<ClusterRefinement> build_refinements(
    const ClusterIndex& index, const spec::ServiceSpec& spec,
    const PlanRequest& request,
    const std::vector<ExistingInstance>& existing) {
  const std::size_t k = index.num_clusters();
  const ClusterIndex::ClusterId home = index.cluster_of(request.client_node);

  // Nodes every refinement must contain: the client, the code origin (its
  // routes price deployment cost), and every reusable instance's host.
  std::vector<net::NodeId> fixed;
  fixed.push_back(request.client_node);
  if (request.code_origin.valid()) fixed.push_back(request.code_origin);
  for (const ExistingInstance& inst : existing) fixed.push_back(inst.node);

  const double floor = discount_floor(spec, request);

  std::vector<ClusterRefinement> out;
  out.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    ClusterRefinement ref;
    ref.cluster = static_cast<ClusterIndex::ClusterId>(c);

    std::vector<net::NodeId>& cand = ref.candidates;
    const std::vector<net::NodeId>& home_members = index.members(home);
    cand.insert(cand.end(), home_members.begin(), home_members.end());
    if (ref.cluster != home) {
      const std::vector<net::NodeId>& own = index.members(ref.cluster);
      cand.insert(cand.end(), own.begin(), own.end());
      const std::vector<net::NodeId> relays =
          index.path_border_nodes(home, ref.cluster);
      cand.insert(cand.end(), relays.begin(), relays.end());
    }
    cand.insert(cand.end(), fixed.begin(), fixed.end());
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());

    if (ref.cluster != home) {
      // Any plan placing a new component in c carries at least one wire
      // crossing from the home side, whose RTT is >= 2 * one-way quotient
      // LB; the floor converts it into score units (see header).
      ref.lower_bound = 2.0 * index.latency_lb_s(home, ref.cluster) * floor;
    }
    out.push_back(std::move(ref));
  }

  std::sort(out.begin(), out.end(),
            [home](const ClusterRefinement& a, const ClusterRefinement& b) {
              const bool a_home = a.cluster == home;
              const bool b_home = b.cluster == home;
              if (a_home != b_home) return a_home;
              if (a.lower_bound != b.lower_bound) {
                return a.lower_bound < b.lower_bound;
              }
              return a.cluster < b.cluster;
            });
  return out;
}

}  // namespace psf::planner
