// detlint:ordered-output — plan content is fingerprinted and compared bit-for-bit.
#include "planner/plan.hpp"

#include <map>
#include <sstream>
#include <vector>

#include "util/assert.hpp"

namespace psf::planner {

std::string FactorBindings::to_string() const {
  if (values.empty()) return "";
  std::ostringstream oss;
  oss << "[";
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) oss << ", ";
    first = false;
    oss << name << "=" << value.to_string();
  }
  oss << "]";
  return oss.str();
}

std::string DeploymentPlan::to_string(const net::Network& network) const {
  std::ostringstream oss;
  oss << "DeploymentPlan (expected latency "
      << metrics.expected_latency_s * 1e3 << " ms, " << metrics.new_components
      << " new / " << metrics.reused_components << " reused components)\n";
  for (const Placement& p : placements) {
    oss << "  #" << p.id << " " << p.component->name
        << p.factors.to_string() << " @ " << network.node(p.node).name;
    if (p.reuse_existing) oss << " (existing)";
    if (p.id == entry) oss << " (entry)";
    oss << "\n";
  }
  for (const Wire& w : wires) {
    oss << "  #" << w.client << " --" << w.interface_name << "--> #"
        << w.server;
    if (w.route.local()) {
      oss << " (local)";
    } else {
      oss << " (" << w.route.links.size() << " hop(s), "
          << w.route.total_latency.millis() << " ms)";
    }
    oss << "\n";
  }
  return oss.str();
}

std::string DeploymentPlan::to_dot(const net::Network& network) const {
  std::ostringstream oss;
  oss << "digraph deployment {\n  rankdir=LR;\n  node [shape=box];\n";

  std::map<std::uint32_t, std::vector<const Placement*>> by_node;
  for (const Placement& p : placements) {
    by_node[p.node.value].push_back(&p);
  }
  for (const auto& [node, members] : by_node) {
    oss << "  subgraph cluster_" << node << " {\n"
        << "    label=\"" << network.node(net::NodeId{node}).name
        << "\";\n";
    for (const Placement* p : members) {
      oss << "    p" << p->id << " [label=\"" << p->component->name;
      const std::string factors = p->factors.to_string();
      if (!factors.empty()) oss << "\\n" << factors;
      if (p->reuse_existing) oss << "\\n(existing)";
      oss << "\"";
      if (p->id == entry) oss << ", style=bold";
      if (p->reuse_existing) oss << ", style=dashed";
      oss << "];\n";
    }
    oss << "  }\n";
  }
  for (const Wire& w : wires) {
    oss << "  p" << w.client << " -> p" << w.server << " [label=\""
        << w.interface_name;
    if (!w.route.local()) {
      oss << "\\n" << w.route.total_latency.millis() << " ms";
    }
    oss << "\"];\n";
  }
  oss << "}\n";
  return oss.str();
}

spec::PropertyValue resolve_value(const spec::ValueExpr& expr,
                                  const spec::Environment& node_env,
                                  const FactorBindings& factors) {
  switch (expr.kind) {
    case spec::ValueExpr::Kind::kLiteral:
      return expr.literal;
    case spec::ValueExpr::Kind::kEnvRef:
      if (expr.env_scope == spec::EnvScope::kNode) {
        return node_env.get(expr.ref_name).value_or(spec::PropertyValue());
      }
      return {};  // link refs are not meaningful at placement time
    case spec::ValueExpr::Kind::kFactorRef: {
      auto it = factors.values.find(expr.ref_name);
      return it == factors.values.end() ? spec::PropertyValue() : it->second;
    }
    case spec::ValueExpr::Kind::kAny:
      return {};
  }
  return {};
}

EffectiveProps declared_effective(const spec::ServiceSpec& spec,
                                  const spec::ComponentDef& comp,
                                  const spec::Environment& node_env,
                                  const FactorBindings& factors) {
  EffectiveProps out;
  for (const spec::LinkageDecl& decl : comp.implements) {
    const spec::InterfaceDef* iface = spec.find_interface(decl.interface_name);
    PSF_CHECK(iface != nullptr);
    auto& props = out[decl.interface_name];
    for (const std::string& prop : iface->properties) {
      auto expr = decl.value_of(prop);
      if (!expr) continue;
      spec::PropertyValue value = resolve_value(*expr, node_env, factors);
      if (value.is_set()) props[prop] = std::move(value);
    }
  }
  return out;
}

}  // namespace psf::planner
