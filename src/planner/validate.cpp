#include "planner/validate.hpp"

#include <map>
#include <set>
#include <sstream>

namespace psf::planner {

namespace {

const char* kind_name(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::kStructure: return "structure";
    case Violation::Kind::kCondition: return "condition";
    case Violation::Kind::kCompatibility: return "compatibility";
    case Violation::Kind::kCapacity: return "capacity";
    case Violation::Kind::kPolicy: return "policy";
    case Violation::Kind::kUnroutable: return "unroutable";
  }
  return "?";
}

class Validator {
 public:
  Validator(const spec::ServiceSpec& spec, const EnvironmentView& env,
            const PlanRequest& request, const DeploymentPlan& plan,
            const std::vector<ExistingInstance>& existing,
            ValidationReport& report)
      : spec_(spec),
        env_(env),
        request_(request),
        plan_(plan),
        existing_(existing),
        report_(report) {}

  void run() {
    if (!check_structure()) return;  // later checks need sane structure
    check_policy();
    check_conditions();
    compute_rates();
    check_compatibility();
    check_capacity();
  }

 private:
  void add(Violation::Kind kind, InstanceId instance, std::string detail) {
    report_.violations.push_back(Violation{kind, instance, std::move(detail)});
  }

  const ExistingInstance* find_existing(std::uint64_t runtime_id) const {
    for (const auto& e : existing_) {
      if (e.runtime_id == runtime_id) return &e;
    }
    return nullptr;
  }

  // ---- structure ----------------------------------------------------------

  bool check_structure() {
    bool ok = true;
    if (plan_.placements.empty()) {
      add(Violation::Kind::kStructure, 0, "plan has no placements");
      return false;
    }
    for (std::size_t i = 0; i < plan_.placements.size(); ++i) {
      const Placement& p = plan_.placements[i];
      if (p.id != i) {
        add(Violation::Kind::kStructure, p.id, "placement id != index");
        ok = false;
      }
      if (p.component == nullptr) {
        add(Violation::Kind::kStructure, p.id, "null component");
        return false;
      }
      if (!p.node.valid() || p.node.value >= env_.network().node_count()) {
        add(Violation::Kind::kStructure, p.id, "invalid node");
        ok = false;
      }
      if (p.reuse_existing && find_existing(p.existing_runtime_id) == nullptr) {
        add(Violation::Kind::kStructure, p.id,
            "reused placement references unknown runtime instance " +
                std::to_string(p.existing_runtime_id));
        ok = false;
      }
    }
    if (plan_.entry >= plan_.placements.size()) {
      add(Violation::Kind::kStructure, plan_.entry, "entry index out of range");
      return false;
    }
    for (const Wire& w : plan_.wires) {
      if (w.client >= plan_.placements.size() ||
          w.server >= plan_.placements.size()) {
        add(Violation::Kind::kStructure, w.client,
            "wire references out-of-range placement");
        ok = false;
        continue;
      }
      wires_of_[w.client].push_back(&w);
    }
    // Every new placement must have exactly one wire per required interface.
    for (const Placement& p : plan_.placements) {
      if (p.reuse_existing) continue;
      std::multiset<std::string> wired;
      for (const Wire* w : wires_of_[p.id]) wired.insert(w->interface_name);
      for (const spec::LinkageDecl& req : p.component->requires_) {
        if (wired.count(req.interface_name) != 1) {
          add(Violation::Kind::kStructure, p.id,
              p.component->name + " has " +
                  std::to_string(wired.count(req.interface_name)) +
                  " wires for required interface '" + req.interface_name +
                  "' (want 1)");
          ok = false;
        }
      }
    }
    // The entry must implement the requested interface.
    if (plan_.entry_placement().component->find_implements(
            request_.interface_name) == nullptr) {
      add(Violation::Kind::kStructure, plan_.entry,
          "entry component does not implement '" + request_.interface_name +
              "'");
      ok = false;
    }
    return ok;
  }

  // ---- policy ------------------------------------------------------------

  void check_policy() {
    const Placement& entry = plan_.entry_placement();
    if (request_.pin_entry_to_client && entry.node != request_.client_node) {
      add(Violation::Kind::kPolicy, entry.id,
          "entry not pinned to the client node");
    }
    for (const Placement& p : plan_.placements) {
      if (!p.reuse_existing && p.component->static_placement) {
        add(Violation::Kind::kPolicy, p.id,
            "static component '" + p.component->name + "' deployed anew");
      }
    }
    // No identically-configured view twice along any entry-to-leaf path.
    std::vector<std::pair<const spec::ComponentDef*, const FactorBindings*>>
        path;
    walk_for_duplicates(plan_.entry, path);
  }

  void walk_for_duplicates(
      InstanceId id,
      std::vector<std::pair<const spec::ComponentDef*, const FactorBindings*>>&
          path) {
    const Placement& p = plan_.placements[id];
    if (p.component->is_view()) {
      for (const auto& [comp, factors] : path) {
        if (comp == p.component && *factors == p.factors) {
          add(Violation::Kind::kPolicy, id,
              "view configuration '" + comp->name +
                  "' duplicated along a requirement path");
        }
      }
      path.emplace_back(p.component, &p.factors);
    }
    for (const Wire* w : wires_of_[id]) {
      walk_for_duplicates(w->server, path);
    }
    if (p.component->is_view()) path.pop_back();
  }

  // ---- conditions & factors -------------------------------------------

  void check_conditions() {
    for (const Placement& p : plan_.placements) {
      if (p.reuse_existing) continue;  // validated when originally deployed
      const spec::Environment& node_env = env_.node_env(p.node);
      for (const spec::Condition& cond : p.component->conditions) {
        if (!cond.holds(node_env)) {
          add(Violation::Kind::kCondition, p.id,
              p.component->name + " at " +
                  env_.network().node(p.node).name + ": condition " +
                  cond.to_string() + " violated");
        }
      }
      // Factors must re-derive from the environment.
      for (const spec::PropertyAssignment& f : p.component->factors) {
        const spec::PropertyValue derived =
            resolve(f.value, node_env, p.factors);
        auto it = p.factors.values.find(f.property);
        if (it == p.factors.values.end() || !(it->second == derived)) {
          add(Violation::Kind::kCondition, p.id,
              "factor '" + f.property + "' does not re-derive from the node "
              "environment");
        }
      }
    }
  }

  spec::PropertyValue resolve(const spec::ValueExpr& expr,
                              const spec::Environment& node_env,
                              const FactorBindings& factors) const {
    switch (expr.kind) {
      case spec::ValueExpr::Kind::kLiteral:
        return expr.literal;
      case spec::ValueExpr::Kind::kEnvRef:
        if (expr.env_scope == spec::EnvScope::kNode) {
          return node_env.get(expr.ref_name).value_or(spec::PropertyValue());
        }
        return {};
      case spec::ValueExpr::Kind::kFactorRef: {
        auto it = factors.values.find(expr.ref_name);
        return it == factors.values.end() ? spec::PropertyValue()
                                          : it->second;
      }
      case spec::ValueExpr::Kind::kAny:
        return {};
    }
    return {};
  }

  // ---- rates ------------------------------------------------------------

  void compute_rates() {
    rate_.assign(plan_.placements.size(), 0.0);
    propagate_rate(plan_.entry, request_.request_rate_rps);
  }

  void propagate_rate(InstanceId id, double rate) {
    rate_[id] += rate;
    const Placement& p = plan_.placements[id];
    const double child_rate = rate * p.component->behaviors.rrf;
    for (const Wire* w : wires_of_[id]) propagate_rate(w->server, child_rate);
  }

  // ---- effective properties (independent bottom-up computation) -----------

  const std::map<std::string, std::map<std::string, spec::PropertyValue>>&
  effective_of(InstanceId id) {
    auto memo = effective_.find(id);
    if (memo != effective_.end()) return memo->second;
    const Placement& p = plan_.placements[id];
    EffectiveProps out;
    if (p.reuse_existing) {
      if (const ExistingInstance* e = find_existing(p.existing_runtime_id)) {
        out = e->effective;
      }
    } else {
      for (const spec::LinkageDecl& decl : p.component->implements) {
        const spec::InterfaceDef* iface =
            spec_.find_interface(decl.interface_name);
        if (iface == nullptr) continue;
        auto& props = out[decl.interface_name];
        for (const std::string& prop : iface->properties) {
          spec::PropertyValue value;
          if (auto expr = decl.value_of(prop)) {
            value = resolve(*expr, env_.node_env(p.node), p.factors);
          } else if (p.component->transparent) {
            spec::PropertyValue inherited;
            bool first = true;
            for (const Wire* w : wires_of_[id]) {
              const auto& child_eff = effective_of(w->server);
              spec::PropertyValue cv;
              for (const auto& [ciface, cprops] : child_eff) {
                auto pit = cprops.find(prop);
                if (pit != cprops.end()) {
                  cv = pit->second;
                  break;
                }
              }
              // A wire without a route is reported by check_requirements;
              // its value is read as offered.
              auto back = env_.network().route(
                  plan_.placements[w->server].node, p.node);
              if (back) {
                cv = env_.transform_along(spec_.rules, prop, cv, *back,
                                          plan_.placements[w->server].node);
              }
              if (first) {
                inherited = cv;
                first = false;
              } else {
                inherited = spec::PropertyValue::min_of(inherited, cv);
              }
            }
            value = inherited;
          }
          if (value.is_set()) props[prop] = value;
        }
      }
    }
    return effective_.emplace(id, std::move(out)).first->second;
  }

  // ---- compatibility ------------------------------------------------------

  void check_requirements(
      InstanceId server, const std::string& iface, net::NodeId consumer_node,
      const std::vector<std::pair<std::string, spec::PropertyValue>>& reqs,
      InstanceId blame) {
    const auto& eff = effective_of(server);
    auto eff_it = eff.find(iface);
    const net::NodeId server_node = plan_.placements[server].node;
    auto back = env_.network().route(server_node, consumer_node);
    if (!back) {
      // The other checks still read the offered values untransformed.
      add(Violation::Kind::kUnroutable, blame,
          "interface '" + iface + "': no route from " +
              env_.network().node(server_node).name + " to " +
              env_.network().node(consumer_node).name);
    }
    for (const auto& [prop, required] : reqs) {
      spec::PropertyValue v;
      if (eff_it != eff.end()) {
        auto vit = eff_it->second.find(prop);
        if (vit != eff_it->second.end()) v = vit->second;
      }
      if (back) {
        v = env_.transform_along(spec_.rules, prop, v, *back, server_node);
      }
      if (!v.satisfies(required)) {
        add(Violation::Kind::kCompatibility, blame,
            "interface '" + iface + "' property '" + prop + "': offered " +
                v.to_string() + " does not satisfy required " +
                required.to_string());
      }
    }
  }

  void check_compatibility() {
    // The client's own requirements against the entry placement.
    check_requirements(plan_.entry, request_.interface_name,
                       request_.client_node, request_.required_properties,
                       plan_.entry);

    // Every wire: the client placement's requires against the server's
    // effective properties.
    for (const Wire& w : plan_.wires) {
      const Placement& client = plan_.placements[w.client];
      for (const spec::LinkageDecl& req : client.component->requires_) {
        if (req.interface_name != w.interface_name) continue;
        std::vector<std::pair<std::string, spec::PropertyValue>> reqs;
        for (const spec::PropertyAssignment& pa : req.properties) {
          spec::PropertyValue v =
              resolve(pa.value, env_.node_env(client.node), client.factors);
          if (v.is_set()) reqs.emplace_back(pa.property, std::move(v));
        }
        check_requirements(w.server, w.interface_name, client.node, reqs,
                           w.client);
      }
    }
  }

  // ---- capacity --------------------------------------------------------

  void check_capacity() {
    // Component capacity (including pre-existing load on reused instances).
    for (const Placement& p : plan_.placements) {
      const double capacity = p.component->behaviors.capacity_rps;
      if (capacity <= 0.0) continue;
      double load = rate_[p.id];
      if (p.reuse_existing) {
        if (const ExistingInstance* e = find_existing(p.existing_runtime_id)) {
          load += e->current_load_rps;
        }
      }
      if (load > capacity * (1.0 + 1e-9)) {
        add(Violation::Kind::kCapacity, p.id,
            p.component->name + ": load " + std::to_string(load) +
                " rps exceeds capacity " + std::to_string(capacity));
      }
    }
    // Node CPU.
    std::map<std::uint32_t, double> node_load;
    for (const Placement& p : plan_.placements) {
      if (p.reuse_existing) continue;
      node_load[p.node.value] +=
          rate_[p.id] * p.component->behaviors.cpu_per_request;
    }
    for (const auto& [node, load] : node_load) {
      const net::Node& n = env_.network().node(net::NodeId{node});
      if (load > n.cpu_available() * (1.0 + 1e-9)) {
        add(Violation::Kind::kCapacity, plan_.entry,
            "node " + n.name + ": cpu load " + std::to_string(load) +
                " exceeds available " + std::to_string(n.cpu_available()));
      }
    }
    // Link bandwidth.
    std::map<std::uint32_t, double> link_load;
    for (const Wire& w : plan_.wires) {
      const Placement& server = plan_.placements[w.server];
      const double bps =
          rate_[w.server] *
          static_cast<double>(server.component->behaviors.bytes_per_request +
                              server.component->behaviors.bytes_per_response) *
          8.0;
      for (net::LinkId lid : w.route.links) link_load[lid.value] += bps;
    }
    for (const auto& [link, load] : link_load) {
      const net::Link& l = env_.network().link(net::LinkId{link});
      if (load > l.bandwidth_available_bps() * (1.0 + 1e-9)) {
        add(Violation::Kind::kCapacity, plan_.entry,
            "link " + std::to_string(link) + ": load " +
                std::to_string(load / 1e6) + " Mbps exceeds available " +
                std::to_string(l.bandwidth_available_bps() / 1e6) + " Mbps");
      }
    }
  }

  const spec::ServiceSpec& spec_;
  const EnvironmentView& env_;
  const PlanRequest& request_;
  const DeploymentPlan& plan_;
  const std::vector<ExistingInstance>& existing_;
  ValidationReport& report_;

  std::map<InstanceId, std::vector<const Wire*>> wires_of_;
  std::vector<double> rate_;
  std::map<InstanceId, EffectiveProps> effective_;
};

}  // namespace

std::string Violation::to_string() const {
  std::ostringstream oss;
  oss << "[" << kind_name(kind) << "] placement #" << instance << ": "
      << detail;
  return oss.str();
}

std::string ValidationReport::to_string() const {
  if (ok()) return "plan valid";
  std::ostringstream oss;
  oss << violations.size() << " violation(s):\n";
  for (const Violation& v : violations) oss << "  " << v.to_string() << "\n";
  return oss.str();
}

ValidationReport validate_plan(const spec::ServiceSpec& spec,
                               const EnvironmentView& env,
                               const PlanRequest& request,
                               const DeploymentPlan& plan,
                               const std::vector<ExistingInstance>& existing) {
  ValidationReport report;
  Validator validator(spec, env, request, plan, existing, report);
  validator.run();
  return report;
}

}  // namespace psf::planner
