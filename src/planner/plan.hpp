// detlint:ordered-output — plan content is fingerprinted and compared bit-for-bit.
// Deployment plans: the planner's output, consumed by the Smock runtime's
// deployment engine.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "spec/model.hpp"

namespace psf::planner {

using InstanceId = std::uint32_t;

struct FactorBindings {
  std::map<std::string, spec::PropertyValue> values;

  bool operator==(const FactorBindings&) const = default;
  std::string to_string() const;
};

// Effective property values of the interfaces a placed component offers,
// after factor binding and transparent pass-through resolution.
using EffectiveProps =
    std::map<std::string, std::map<std::string, spec::PropertyValue>>;

struct Placement {
  InstanceId id = 0;
  const spec::ComponentDef* component = nullptr;
  net::NodeId node;
  FactorBindings factors;
  EffectiveProps effective;
  // Expected downstream latency of a request entering this component
  // (seconds) — the planner's objective value at this subtree.
  double expected_latency_s = 0.0;
  // Request rate entering this instance under the plan (requests/second).
  double inbound_rate_rps = 0.0;

  // Set when the plan binds to an already-running instance instead of
  // deploying a new component.
  bool reuse_existing = false;
  std::uint64_t existing_runtime_id = 0;
};

struct Wire {
  InstanceId client = 0;
  std::string interface_name;
  InstanceId server = 0;
  net::Route route;  // from client placement's node to server's node
  double rate_rps = 0.0;
};

struct PlanMetrics {
  double expected_latency_s = 0.0;   // client-perceived, per request
  double deployment_cost_s = 0.0;    // total code-transfer time
  std::size_t new_components = 0;
  std::size_t reused_components = 0;
};

struct DeploymentPlan {
  std::vector<Placement> placements;
  std::vector<Wire> wires;
  InstanceId entry = 0;
  PlanMetrics metrics;

  const Placement& entry_placement() const { return placements.at(entry); }

  // Human-readable rendering in the style of the paper's Fig. 6 narrative.
  std::string to_string(const net::Network& network) const;

  // Graphviz DOT rendering: components clustered by hosting node, wires as
  // edges labeled with interface and route latency. Pipe through
  // `dot -Tpng` to draw the paper's Fig. 6 boxes.
  std::string to_dot(const net::Network& network) const;
};

// Binds one declared value expression at a node: literals as written, node
// environment references from `node_env`, factor references from `factors`.
// Link references and `any` bind to nothing (unset) at placement time.
spec::PropertyValue resolve_value(const spec::ValueExpr& expr,
                                  const spec::Environment& node_env,
                                  const FactorBindings& factors);

// The properties `comp` declares for each interface it implements, bound at
// a node through resolve_value; values that bind to nothing are left out.
// Transparent inheritance from downstream is the search's business, not
// this function's.
EffectiveProps declared_effective(const spec::ServiceSpec& spec,
                                  const spec::ComponentDef& comp,
                                  const spec::Environment& node_env,
                                  const FactorBindings& factors);

}  // namespace psf::planner
