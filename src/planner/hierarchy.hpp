// Refinement schedule for the hierarchical (two-level) mapping search.
//
// The search driver in planner.cpp searches one ClusterRefinement at a
// time, in rank order: an exact BnB search restricted to the refinement's
// candidate node set. Candidate sets are built so that
//  - the client cluster's refinement (always rank 0) can express every plan
//    confined to the client's own cluster plus existing instances, and
//  - cluster c's refinement can express every plan that stages components
//    in c, along the quotient path back to the client, or in the client
//    cluster itself.
// Every node of the topology appears in at least one refinement, so a
// satisfiable request is never missed; what hierarchical search gives up is
// plans spanning two non-client clusters that are not on each other's
// quotient path (the measured optimality gap, gated <= 5% in the bench).
//
// lower_bound is an admissible bound on the primary score of any plan that
// places a NEW component inside cluster c (the plans unique to refinement
// c): such a plan routes at least once from the client cluster to c, paying
// >= 2 * quotient latency LB on that wire, discounted by no less than
// discount_floor(spec, request). Plans that avoid c's members entirely are
// expressible at some lower-bound-smaller rank, so skipping refinement c
// when lower_bound exceeds the incumbent never discards the optimum over
// the hierarchical plan space.
#pragma once

#include <vector>

#include "planner/cluster.hpp"
#include "planner/planner.hpp"

namespace psf::planner {

struct ClusterRefinement {
  ClusterIndex::ClusterId cluster = 0;
  // Admissible lower bound on the primary score of plans unique to this
  // refinement. 0 for the client cluster.
  double lower_bound = 0.0;
  std::vector<net::NodeId> candidates;  // id-sorted, duplicate-free
};

// Conservative floor on the RRF discount any plan edge can carry: (min over
// components of its RRF, clamped to <= 1) ^ (max_depth - 1). A new view's
// cold-padded RRF is never below its warm one, so the warm RRF is the floor.
// Multiplying a raw latency bound by this keeps it admissible for *scores*,
// where deep edges are discounted by ancestor RRF products.
double discount_floor(const spec::ServiceSpec& spec,
                      const PlanRequest& request);

// One refinement per cluster, ordered client cluster first, then ascending
// (lower_bound, cluster id). Deterministic for a fixed network and request.
std::vector<ClusterRefinement> build_refinements(
    const ClusterIndex& index, const spec::ServiceSpec& spec,
    const PlanRequest& request,
    const std::vector<ExistingInstance>& existing);

}  // namespace psf::planner
