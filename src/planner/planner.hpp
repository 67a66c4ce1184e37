// The planning module (paper §3.3).
//
// Given a service specification, the translated environment view of the
// network, and a client request for an interface (with required property
// values), the planner searches for the deployment that best satisfies the
// request: which components (and view configurations) to instantiate, where,
// and how to wire them. The search fuses linkage enumeration with network
// mapping, exactly as the paper's implementation does, validating the three
// §3.3 conditions for every linked pair:
//
//   1. each component's installation Conditions hold in its node's
//      environment;
//   2. the server side's *effective* interface properties — after factor
//      binding, transparent pass-through, and modification-rule degradation
//      along the connecting route — satisfy the client side's requirements;
//   3. the traffic implied by the request rate (scaled by RRF through the
//      component graph) fits within node CPU, link bandwidth, and component
//      capacity limits.
//
// Plans may bind to already-deployed instances (ExistingInstance), which is
// how a Seattle request reuses the San Diego ViewMailServer in the paper's
// case study.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "planner/environment.hpp"
#include "planner/plan.hpp"
#include "spec/model.hpp"
#include "util/status.hpp"

namespace psf::planner {

// A component instance that is already running, offered for reuse.
struct ExistingInstance {
  std::uint64_t runtime_id = 0;
  const spec::ComponentDef* component = nullptr;
  net::NodeId node;
  FactorBindings factors;
  EffectiveProps effective;
  double downstream_latency_s = 0.0;  // expected latency behind this instance
  double current_load_rps = 0.0;
};

// The planner's one objective: client-perceived expected latency per
// request. Kept only for PlanRequest::objective.
enum class Objective { kMinLatency };

// How the mapping search traverses the topology.
//
//   kFlat          — PR 1 branch-and-bound over every node (exact).
//   kHierarchical  — two-level search: partition the topology into ~sqrt(n)
//                    clusters (ClusterIndex), search the client's cluster
//                    first (quotient rank 0, lower bound 0 — its result
//                    seeds the incumbent), then refine the remaining
//                    clusters in quotient lower-bound order, each restricted
//                    to its own members + the client cluster + the border
//                    nodes along the quotient path + existing instances.
//                    Clusters whose admissible quotient bound exceeds the
//                    incumbent are pruned without being searched.
//                    Heuristic: exact within every refinement, but a plan
//                    spanning two non-client clusters that are not on each
//                    other's quotient path is out of reach (measured gap
//                    vs kFlat is gated <= 5% in bench/planner_scaling).
//   kAuto          — kHierarchical at >= kHierarchyAutoThreshold nodes,
//                    kFlat below.
enum class SearchMode { kAuto, kFlat, kHierarchical };

const char* search_mode_name(SearchMode m);

// Node count at which kAuto switches to hierarchical search. Below a few
// dozen nodes flat BnB is already sub-millisecond and exact — no reason to
// give up optimality.
inline constexpr std::size_t kHierarchyAutoThreshold = 64;

struct PlanRequest {
  std::string interface_name;
  // Required property values (the client's QoS/security expectations).
  std::vector<std::pair<std::string, spec::PropertyValue>> required_properties;
  net::NodeId client_node;
  double request_rate_rps = 1.0;
  // Where component code is downloaded from when computing deployment cost;
  // defaults to the client node when invalid. A valid id outside the
  // network is invalid_argument, like every node id in a request.
  net::NodeId code_origin;
  // Ignored: expected latency is the planner's one objective. Kept only
  // because bench/psfbench/generator.cpp assigns it; delete it together
  // with that line.
  Objective objective = Objective::kMinLatency;
  // The entry component is normally instantiated at the client's own node
  // (the paper's MailClient always runs beside the requesting application).
  bool pin_entry_to_client = true;
  std::size_t max_depth = 6;
  // Ignored: the planner is one serial search. Kept only because
  // bench/psfbench/generator.cpp assigns it; delete it together with that
  // line. It never changed a plan, only how fast the search ran.
  std::size_t search_threads = 1;
  // Admissible lower-bound pruning of the mapping search. Disabling it never
  // changes the returned plan, only the search cost — the toggle exists for
  // benchmarks and for isolating planner bugs from pruning bugs.
  bool bound_pruning = true;
  // Topology traversal strategy; see SearchMode.
  SearchMode search_mode = SearchMode::kAuto;
  // Restricts where NEW components may be placed. Empty = every node (the
  // normal case). Plan repair populates this with the surviving placement
  // nodes plus the affected cluster's members so the search touches only the
  // broken suffix of the deployment; existing instances offered for reuse
  // are still considered wherever they live. Excluded from the plan-cache
  // fingerprint: a restricted repair answers the same logical request, just
  // with a smaller search space.
  std::vector<net::NodeId> candidate_nodes;
};

struct SearchStats {
  std::uint64_t candidates_examined = 0;
  std::uint64_t plans_scored = 0;
  // New placements whose every requirement edge was solved, so that §3.3
  // condition 2 was checked in full against their effective properties. A
  // host-cost diagnostic, not part of the planning charge.
  std::uint64_t completions = 0;
  // Subtrees cut because the admissible lower bound of every completion was
  // already worse than the incumbent plan's score.
  std::uint64_t pruned_by_bound = 0;

  // Rejection breakdown — why candidates fell out of the search. The
  // dominant cause is the first place to look when a request comes back
  // kUnsatisfiable ("everything failed the trust condition" reads very
  // differently from "every link was over capacity").
  std::uint64_t rejected_static = 0;        // static component, no instance
  std::uint64_t rejected_cycle = 0;         // same (component,node) on path
  std::uint64_t rejected_duplicate_view = 0;
  std::uint64_t rejected_condition = 0;     // §3.3 condition 1
  std::uint64_t rejected_factor = 0;        // unbindable factor
  std::uint64_t rejected_compatibility = 0; // §3.3 condition 2
  std::uint64_t rejected_node_capacity = 0; // §3.3 condition 3 (cpu)
  std::uint64_t rejected_link_capacity = 0; // §3.3 condition 3 (bandwidth)
  std::uint64_t rejected_instance_capacity = 0;
  std::uint64_t rejected_unroutable = 0;
  std::uint64_t rejected_node_down = 0;     // candidate node is down/crashed

  // Hierarchical-search breakdown (zero for flat searches).
  std::uint64_t clusters_total = 0;    // refinements scheduled
  std::uint64_t clusters_pruned = 0;   // skipped: quotient bound > incumbent
  std::uint64_t clusters_refined = 0;  // actually searched
  bool used_hierarchy = false;

  // Merges another search's stats into this one: counters add, flags OR.
  SearchStats& operator+=(const SearchStats& other);

  std::string to_string() const;
};

// A constraint violation detected against a running deployment — the input
// to incremental plan repair. Produced by the runtime's AdaptationController
// from monitor change events; the planner only cares about which nodes/links
// it can no longer rely on.
struct RepairViolation {
  enum class Kind {
    kNodeDeath,        // node crashed or is being drained: nothing may stay
    kLinkDegradation,  // link latency/bandwidth/loss drifted past the plan's
                       // assumptions; wires routed over it must be replaced
    kLoadOverCapacity, // node capacity shrank (or load grew) past headroom
    kPropertyDrift,    // node credential/property changed; placements there
                       // must re-validate and may need to move
  };
  Kind kind = Kind::kNodeDeath;
  net::NodeId node;  // kNodeDeath / kLoadOverCapacity / kPropertyDrift
  net::LinkId link;  // kLinkDegradation
  std::string detail;
};

const char* repair_violation_kind_name(RepairViolation::Kind kind);

// The spec as the search reads it, with property names interned; planner.cpp.
struct CompiledSpec;

// What Planner::repair actually did, for telemetry and tests.
struct RepairOutcome {
  // Repair could not satisfy the request within the restricted candidate
  // set; the result came from an unrestricted full replan instead.
  bool fell_back_to_full = false;
  std::size_t surviving_placements = 0;  // placements untouched by violations
  std::size_t broken_placements = 0;     // placements invalidated
  // The restricted node set the repair searched (before any fallback).
  std::vector<net::NodeId> candidate_nodes;
  SearchStats stats;
};

class Planner {
 public:
  Planner(const spec::ServiceSpec& spec, const EnvironmentView& env);

  // Finds the best deployment; kUnsatisfiable when no mapping meets all
  // constraints. Every request, whatever the shape of the linkage graph or
  // the topology, runs the one search driver with flat or hierarchical
  // units. A plain serial function of (spec, environment, request, reuse
  // pool): the same inputs always return the same plan and stats.
  // Not safe to call concurrently: the search fills the network's route
  // cache without a lock.
  util::Expected<DeploymentPlan> plan(
      const PlanRequest& request,
      const std::vector<ExistingInstance>& existing = {},
      SearchStats* stats = nullptr) const;

  // Incremental plan repair (ROADMAP item 2, after Dearle/Kirby's autonomic
  // management loop). Classifies old_plan's placements into surviving vs
  // broken under the given violations, pins the survivors by offering them
  // as reuse candidates, and re-searches only a restricted candidate set:
  // the survivors' nodes, the client node, and the members + path border
  // nodes of the clusters containing the broken placements (ClusterIndex —
  // the same locality machinery hierarchical search uses). Violation nodes
  // are excluded outright, which is also how drains work: the node is alive
  // but nothing new may land on it. Falls back to a full replan (still
  // excluding violation nodes) when the restricted search is unsatisfiable.
  // kUnsatisfiable only when even the full replan fails. `existing` is the
  // caller's reuse pool; repair filters out instances on violation nodes.
  util::Expected<DeploymentPlan> repair(
      const PlanRequest& request, const DeploymentPlan& old_plan,
      const std::vector<RepairViolation>& violations,
      const std::vector<ExistingInstance>& existing = {},
      RepairOutcome* outcome = nullptr) const;

  const spec::ServiceSpec& spec() const { return spec_; }
  const EnvironmentView& environment() const { return env_; }

 private:
  // Both feed the one search driver (planner.cpp) restricted-search units:
  // flat search is one unit over every node (or request.candidate_nodes),
  // hierarchical search one unit per cluster refinement (hierarchy.hpp).
  util::Expected<DeploymentPlan> plan_flat(
      const PlanRequest& request,
      const std::vector<ExistingInstance>& existing, SearchStats* stats) const;
  util::Expected<DeploymentPlan> plan_hierarchical(
      const PlanRequest& request,
      const std::vector<ExistingInstance>& existing, SearchStats* stats) const;

  const spec::ServiceSpec& spec_;
  const EnvironmentView& env_;
  // interface → implementing components, built once so the search does not
  // rescan the component list for every candidate edge.
  spec::ImplementerIndex iface_index_;
  // Property ids and the per-declaration tables built from them, once per
  // Planner, so no plan re-interns the spec's vocabulary.
  std::shared_ptr<const CompiledSpec> compiled_;
};

}  // namespace psf::planner
