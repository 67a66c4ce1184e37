// detlint:ordered-output — search visit order decides plan tie-breaks.
#include "planner/planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <type_traits>
#include <unordered_map>

#include "planner/cluster.hpp"
#include "planner/hierarchy.hpp"
#include "util/logging.hpp"

namespace psf::planner {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// A freshly deployed view starts with a cold cache, so at plan time its
// request-reduction factor is discounted: rrf' = rrf + penalty*(1 - rrf).
// This is what makes the planner attach to an existing warm replica when
// one is equally placed, instead of conjuring an identical cold twin, while
// still preferring a *local* new cache over a remote warm one when the WAN
// savings dominate.
constexpr double kColdViewPenalty = 0.1;

// Round-trip cost of one request/response exchange over a route.
double edge_rtt_seconds(const net::Network& network, const net::Route& route,
                        std::uint64_t bytes_request,
                        std::uint64_t bytes_response) {
  double total = 0.0;
  for (net::LinkId lid : route.links) {
    const net::Link& link = network.link(lid);
    total += 2.0 * link.latency.seconds();
    total += static_cast<double>(bytes_request) * 8.0 / link.bandwidth_bps;
    total += static_cast<double>(bytes_response) * 8.0 / link.bandwidth_bps;
  }
  return total;
}

// Lexicographic plan score: lower is better on every field. The primary
// is the cold-padded expected latency, the secondary the deployment cost,
// the tertiary the number of new components.
struct Score {
  double primary = kInfinity;
  double secondary = kInfinity;
  double tertiary = kInfinity;

  bool operator<(const Score& other) const {
    if (primary != other.primary) return primary < other.primary;
    if (secondary != other.secondary) return secondary < other.secondary;
    return tertiary < other.tertiary;
  }
};

// The strict bound test shared by the in-search prune and the driver's
// unit skip: true when `bound` exceeds the incumbent primary `inc` by more
// than a small relative margin. The margin absorbs floating-point
// reassociation between an incrementally accumulated bound and the final
// score computation, so a mathematical tie on the primary is never cut: a
// tied plan can still win on the secondary field, and pruning must never
// change the returned plan.
bool beyond_incumbent(double bound, double inc) {
  if (inc == kInfinity) return false;
  return bound > inc + 1e-9 * std::max(1.0, std::abs(inc));
}

// A non-owning reference to a callable: an object pointer and a call thunk,
// two words, never allocating (a std::function holding one of the search's
// lambdas would heap-allocate on every edge). Every search callback runs
// synchronously inside the call it is passed to, so a lambda written in the
// argument list outlives the reference.
template <typename Signature>
class CallbackRef;

template <typename R, typename... Args>
class CallbackRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, CallbackRef>)
  CallbackRef(F&& f)  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(args...);
        }) {}

  R operator()(Args... args) const { return call_(object_, args...); }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

// Property names as the search sees them: dense ids (CompiledSpec).
using PropId = std::uint32_t;

// What a slot array holds past its end: nothing.
const spec::PropertyValue kUnset{};

const spec::PropertyValue& slot(const std::vector<spec::PropertyValue>& slots,
                                PropId id) {
  return id < slots.size() ? slots[id] : kUnset;
}

using Requirements = std::vector<std::pair<PropId, spec::PropertyValue>>;

}  // namespace

// The spec as the search reads it, compiled once per Planner — what a
// constraint-based deployer compiles into its solver domains before it
// searches. Property names become dense ids: the declared properties first,
// in declaration order, then any other name the search reads, as met. A
// plan gives further ids to names only its request or reuse pool uses
// (PlanTables::intern). Values stay spec::PropertyValue; strings are only
// ever compared for equality, so comparing them as they are is exact.
struct CompiledSpec {
  // One property assignment of a declaration, its property interned.
  struct Assignment {
    PropId prop = 0;
    const spec::ValueExpr* value = nullptr;  // null: nothing declared
  };

  // One interface a component implements. A component's rows are its
  // distinct implemented interfaces in name order: the order EffectiveProps
  // (a std::map keyed by interface name) iterates in, which the transparent
  // inheritance rule follows.
  struct Row {
    const std::string* interface_name = nullptr;
    const spec::InterfaceDef* def = nullptr;  // null: no such interface
    std::vector<PropId> props;                // def's properties
  };

  struct Component {
    std::vector<Row> rows;
    // Per Implements entry: its row; each property of its interface with
    // the entry's first declaration of it (the value is null when there is
    // none, and a transparent component then inherits it); and its fixed
    // values — first declarations of properties no modification rule can
    // change, which a requirement is checked against before the search
    // recurses.
    std::vector<std::uint32_t> row_of;
    std::vector<std::vector<Assignment>> effective;
    std::vector<std::vector<Assignment>> fixed;
    // Per Requires entry: its interface (an index into edge_interfaces) and
    // its assignments, in declaration order.
    std::vector<std::uint32_t> edge_interface;
    std::vector<std::vector<Assignment>> requirements;
  };

  std::map<std::string, PropId> ids;
  std::vector<const std::string*> names;                     // by id
  std::vector<const spec::PropertyModificationRule*> rules;  // by id
  std::vector<std::string> edge_interfaces;  // named by a Requires entry
  std::vector<Component> components;         // in spec order
};

namespace {

std::shared_ptr<const CompiledSpec> compile_spec(const spec::ServiceSpec& spec) {
  auto out = std::make_shared<CompiledSpec>();
  CompiledSpec& cs = *out;
  const auto intern = [&cs](const std::string& name) {
    auto [it, inserted] =
        cs.ids.try_emplace(name, static_cast<PropId>(cs.names.size()));
    if (inserted) cs.names.push_back(&it->first);
    return it->second;
  };
  for (const spec::PropertyDef& p : spec.properties) intern(p.name);

  std::map<std::string, std::uint32_t> edge_ids;
  for (const spec::ComponentDef& comp : spec.components) {
    CompiledSpec::Component& cc = cs.components.emplace_back();

    std::vector<const std::string*> row_names;
    for (const spec::LinkageDecl& decl : comp.implements) {
      row_names.push_back(&decl.interface_name);
    }
    std::stable_sort(
        row_names.begin(), row_names.end(),
        [](const std::string* a, const std::string* b) { return *a < *b; });
    row_names.erase(
        std::unique(row_names.begin(), row_names.end(),
                    [](const std::string* a, const std::string* b) {
                      return *a == *b;
                    }),
        row_names.end());
    for (const std::string* name : row_names) {
      CompiledSpec::Row& row = cc.rows.emplace_back();
      row.interface_name = name;
      row.def = spec.find_interface(*name);
      if (row.def == nullptr) continue;
      for (const std::string& p : row.def->properties) {
        row.props.push_back(intern(p));
      }
    }

    for (const spec::LinkageDecl& decl : comp.implements) {
      std::uint32_t r = 0;
      while (*cc.rows[r].interface_name != decl.interface_name) ++r;
      cc.row_of.push_back(r);

      std::vector<CompiledSpec::Assignment>& effective =
          cc.effective.emplace_back();
      const CompiledSpec::Row& row = cc.rows[r];
      for (std::size_t i = 0; i < row.props.size(); ++i) {
        CompiledSpec::Assignment& a = effective.emplace_back();
        a.prop = row.props[i];
        for (const spec::PropertyAssignment& pa : decl.properties) {
          if (pa.property != row.def->properties[i]) continue;
          a.value = &pa.value;  // the first declaration (value_of)
          break;
        }
      }

      std::vector<CompiledSpec::Assignment>& fixed = cc.fixed.emplace_back();
      for (auto it = decl.properties.begin(); it != decl.properties.end();
           ++it) {
        // Only a property's first declaration counts (LinkageDecl::value_of).
        const bool shadowed =
            std::any_of(decl.properties.begin(), it,
                        [&it](const spec::PropertyAssignment& earlier) {
                          return earlier.property == it->property;
                        });
        if (shadowed || spec.rules.find(it->property) != nullptr) continue;
        fixed.push_back({intern(it->property), &it->value});
      }
    }

    for (const spec::LinkageDecl& decl : comp.requires_) {
      auto [it, inserted] = edge_ids.try_emplace(
          decl.interface_name,
          static_cast<std::uint32_t>(cs.edge_interfaces.size()));
      if (inserted) cs.edge_interfaces.push_back(decl.interface_name);
      cc.edge_interface.push_back(it->second);
      std::vector<CompiledSpec::Assignment>& reqs =
          cc.requirements.emplace_back();
      for (const spec::PropertyAssignment& pa : decl.properties) {
        reqs.push_back({intern(pa.property), &pa.value});
      }
    }
  }
  // A rule's property gets an id here even when nothing above reads it, so
  // a name only a request or pool uses never has a rule.
  for (const spec::PropertyModificationRule& r : spec.rules.all()) {
    intern(r.property);
  }
  for (const std::string* name : cs.names) {
    cs.rules.push_back(spec.rules.find(*name));
  }
  return out;
}

// The reuse pool as the requirement edges for one interface see it, built
// once per plan. The search's pool walk visits every pooled instance and
// counts each as an examined candidate, implementer or not (the charge
// docs/COSTMODEL.md describes); this index lets it count the
// non-implementers in one step, and those on down nodes as node-down
// rejections (a down instance is rejected before its interfaces are looked
// at).
struct PoolInterface {
  struct Implementer {
    std::size_t index = 0;  // position in the pool
    bool node_down = false;
    std::uint32_t factors_id = 0;  // PlanTables::factors_id
    // The instance's effective values for this interface, by property id.
    std::vector<spec::PropertyValue> props;
  };

  bool indexed = false;
  std::uint32_t id = 0;  // its CompiledSpec edge interface
  const std::string* name = nullptr;
  // Components that implement the interface, in declaration order (the
  // spec's ImplementerIndex entry); null when none does.
  const std::vector<spec::ImplementerRef>* components = nullptr;
  std::vector<Implementer> pooled;
  std::uint64_t non_implementers = 0;
  std::uint64_t non_implementers_down = 0;  // of those, on down nodes
};

// What the checks that depend only on (component, node) conclude, worked
// out once per plan on the pair's first touch — the node-consistency step a
// constraint-based deployer runs before its search — so that examining a
// candidate costs a table lookup instead of a walk over string-keyed maps.
struct Candidate {
  // The first static check that fails, in the search's rejection order
  // (the dynamic cycle guard sits between kStatic and kCondition).
  enum class Verdict : std::uint8_t {
    kNodeDown,
    kStatic,
    kCondition,
    kFactor,
    kOk,
  };

  // One Requires entry: its interface's pool view and its requirements
  // bound to literals (factor and node references bind in the requiring
  // component's context).
  struct Edge {
    const PoolInterface* iface = nullptr;
    Requirements reqs;
  };

  // A declared value of an implemented interface that binds to a literal
  // and that no modification rule can change along a route: a requirement
  // it fails rejects the candidate before the search recurses.
  struct FixedValue {
    PropId property = 0;
    spec::PropertyValue value;
  };

  bool filled = false;
  Verdict verdict = Verdict::kOk;
  // Set while the pair is placed on the search's current requirement path:
  // the cycle guard.
  bool on_path = false;
  // Set when the verdict is kOk:
  const spec::Environment* env = nullptr;
  double cpu_capacity = 0.0;   // the node's
  double cpu_available = 0.0;  // the node's, after reservations
  FactorBindings factors;
  std::uint32_t factors_id = 0;                // PlanTables::factors_id
  std::vector<Edge> edges;                     // per Requires entry
  std::vector<std::vector<FixedValue>> fixed;  // per Implements entry
  // A non-transparent placement's effective values depend on nothing else,
  // so they are worked out on the pair's first completion: one row of slots
  // per CompiledSpec row.
  bool effective_built = false;
  std::vector<spec::PropertyValue> effective;
};

// Everything one Planner::plan call works out once and every search unit
// shares: the candidate table, the pool index, the plan's further property
// ids, the interned factor bindings and the transform memo.
class PlanTables {
 public:
  PlanTables(const CompiledSpec& compiled, const spec::ServiceSpec& spec,
             const EnvironmentView& env, const spec::ImplementerIndex& index,
             const std::vector<ExistingInstance>& pool)
      : compiled_(compiled),
        spec_(spec),
        env_(env),
        network_(env.network()),
        index_(index),
        pool_(pool),
        rows_(network_.node_count()),
        interfaces_(compiled.edge_interfaces.size()) {}

  // The (component, node) entry, filled on first touch. A node's row is
  // allocated on the node's first touch and never resized, so references
  // stay valid for the whole plan.
  Candidate& candidate(const spec::ComponentDef& comp, net::NodeId node) {
    std::vector<Candidate>& row = rows_[node.value];
    if (row.empty()) row.resize(spec_.components.size());
    const std::size_t ci = component_index(comp);
    Candidate& c = row[ci];
    if (!c.filled) fill(c, comp, ci, node);
    return c;
  }

  // `comp`'s position in the spec; pooled instances are of spec components
  // too.
  std::size_t component_index(const spec::ComponentDef& comp) const {
    const std::size_t i =
        static_cast<std::size_t>(&comp - spec_.components.data());
    PSF_CHECK(i < spec_.components.size());
    return i;
  }

  // The id of a property name: the spec's, else one this plan assigns.
  PropId intern(const std::string& name) {
    if (auto it = compiled_.ids.find(name); it != compiled_.ids.end()) {
      return it->second;
    }
    auto [it, inserted] = extra_ids_.try_emplace(
        name,
        static_cast<PropId>(compiled_.names.size() + extra_names_.size()));
    if (inserted) extra_names_.push_back(&it->first);
    return it->second;
  }

  Requirements requirements(
      const std::vector<std::pair<std::string, spec::PropertyValue>>& reqs) {
    Requirements out;
    out.reserve(reqs.size());
    for (const auto& [name, value] : reqs) out.emplace_back(intern(name), value);
    return out;
  }

  // EnvironmentView::transform_along, memoized for the plan by (route
  // origin, route end, property id, input value): the search re-applies the
  // same transform every time it revisits an edge under a different partial
  // plan. `route` is the cached route from `from` to `to`, fixed for the
  // plan. A property no rule modifies crosses every environment unchanged.
  // The result is `value` itself or a memo entry: valid until the next call.
  const spec::PropertyValue& transform(PropId prop,
                                       const spec::PropertyValue& value,
                                       const net::Route& route,
                                       net::NodeId from, net::NodeId to) {
    if (route.local() || prop >= compiled_.rules.size() ||
        compiled_.rules[prop] == nullptr) {
      return value;
    }
    // Distinct (property, input) pairs per route are few: a linear scan.
    std::vector<TransformEntry>& entries =
        transforms_
            .try_emplace((std::uint64_t{from.value} << 32) | to.value)
            .first->second;
    for (const TransformEntry& e : entries) {
      if (e.prop == prop && e.in == value) return e.out;
    }
    spec::PropertyValue out = env_.transform_along(
        spec_.rules, *compiled_.names[prop], value, route, from);
    return entries.emplace_back(TransformEntry{prop, value, std::move(out)})
        .out;
  }

  // A pooled instance's value of each property from its first interface, in
  // interface-name order, that holds it — what a transparent parent
  // inherits. Built on first use.
  const std::vector<spec::PropertyValue>& pool_inherited(std::size_t index) {
    if (pool_inherited_.empty()) {
      pool_inherited_.resize(pool_.size());
      pool_inherited_built_.assign(pool_.size(), false);
    }
    std::vector<spec::PropertyValue>& out = pool_inherited_[index];
    if (!pool_inherited_built_[index]) {
      pool_inherited_built_[index] = true;
      // Last interface first, so the first holder's value is written last.
      const EffectiveProps& effective = pool_[index].effective;
      for (auto it = effective.rbegin(); it != effective.rend(); ++it) {
        for (const auto& [name, value] : it->second) {
          const PropId id = intern(name);
          if (id >= out.size()) out.resize(id + 1);
          out[id] = value;
        }
      }
    }
    return out;
  }

 private:
  struct TransformEntry {
    PropId prop = 0;
    spec::PropertyValue in;
    spec::PropertyValue out;
  };

  void fill(Candidate& c, const spec::ComponentDef& comp, std::size_t ci,
            net::NodeId node) {
    c.filled = true;
    if (!network_.node_up(node)) {
      c.verdict = Candidate::Verdict::kNodeDown;
      return;
    }
    if (comp.static_placement) {
      c.verdict = Candidate::Verdict::kStatic;
      return;
    }
    const spec::Environment& node_env = env_.node_env(node);
    // §3.3 condition 1: installation conditions.
    for (const spec::Condition& cond : comp.conditions) {
      if (!cond.holds(node_env)) {
        c.verdict = Candidate::Verdict::kCondition;
        return;
      }
    }
    // Bind factors against the node environment (a factor may refer to an
    // earlier one).
    for (const spec::PropertyAssignment& f : comp.factors) {
      spec::PropertyValue v = resolve_value(f.value, node_env, c.factors);
      if (!v.is_set()) {
        c.verdict = Candidate::Verdict::kFactor;
        return;
      }
      c.factors.values[f.property] = std::move(v);
    }
    c.verdict = Candidate::Verdict::kOk;
    c.env = &node_env;
    c.cpu_capacity = network_.node(node).cpu_capacity;
    c.cpu_available = network_.node(node).cpu_available();
    c.factors_id = factors_id(c.factors);

    const CompiledSpec::Component& cc = compiled_.components[ci];
    c.edges.reserve(cc.requirements.size());
    for (std::size_t e = 0; e < cc.requirements.size(); ++e) {
      Candidate::Edge& edge = c.edges.emplace_back();
      edge.iface = &interface(cc.edge_interface[e]);
      for (const CompiledSpec::Assignment& a : cc.requirements[e]) {
        spec::PropertyValue v = resolve_value(*a.value, node_env, c.factors);
        if (v.is_set()) edge.reqs.emplace_back(a.prop, std::move(v));
      }
    }

    c.fixed.reserve(cc.fixed.size());
    for (const std::vector<CompiledSpec::Assignment>& decl : cc.fixed) {
      std::vector<Candidate::FixedValue>& fixed = c.fixed.emplace_back();
      for (const CompiledSpec::Assignment& a : decl) {
        spec::PropertyValue v = resolve_value(*a.value, node_env, c.factors);
        if (v.is_set()) fixed.push_back({a.prop, std::move(v)});
      }
    }
  }

  // Equal bindings get equal ids, so the duplicate-view checks compare
  // integers. A plan binds few distinct sets: a linear scan.
  std::uint32_t factors_id(const FactorBindings& factors) {
    for (std::size_t i = 0; i < factor_sets_.size(); ++i) {
      if (*factor_sets_[i] == factors) return static_cast<std::uint32_t>(i);
    }
    factor_sets_.push_back(&factors);
    return static_cast<std::uint32_t>(factor_sets_.size() - 1);
  }

  const PoolInterface& interface(std::uint32_t edge_interface) {
    PoolInterface& out = interfaces_[edge_interface];
    if (!out.indexed) {
      out.id = edge_interface;
      index_pool(compiled_.edge_interfaces[edge_interface], out);
    }
    return out;
  }

  void index_pool(const std::string& name, PoolInterface& out) {
    out.indexed = true;
    out.name = &name;
    auto it = index_.find(name);
    if (it != index_.end()) out.components = &it->second;
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      const ExistingInstance& inst = pool_[i];
      const bool down = !network_.node_up(inst.node);
      auto eff = inst.effective.find(name);
      if (eff == inst.effective.end()) {
        ++out.non_implementers;
        if (down) ++out.non_implementers_down;
        continue;
      }
      PoolInterface::Implementer& impl = out.pooled.emplace_back();
      impl.index = i;
      impl.node_down = down;
      impl.factors_id = factors_id(inst.factors);
      for (const auto& [prop, value] : eff->second) {
        const PropId id = intern(prop);
        if (id >= impl.props.size()) impl.props.resize(id + 1);
        impl.props[id] = value;
      }
    }
  }

  const CompiledSpec& compiled_;
  const spec::ServiceSpec& spec_;
  const EnvironmentView& env_;
  const net::Network& network_;
  const spec::ImplementerIndex& index_;
  const std::vector<ExistingInstance>& pool_;
  // By node id: one Candidate per component, in spec order.
  std::vector<std::vector<Candidate>> rows_;
  // By CompiledSpec edge interface, indexed on first use.
  std::vector<PoolInterface> interfaces_;
  // Names neither the spec nor an earlier id of this plan holds.
  std::map<std::string, PropId> extra_ids_;
  std::vector<const std::string*> extra_names_;
  std::vector<const FactorBindings*> factor_sets_;  // by factors id
  // By (route origin << 32 | route end); sized by the routes a plan
  // transforms over, not by node pairs.
  std::unordered_map<std::uint64_t, std::vector<TransformEntry>> transforms_;
  std::vector<std::vector<spec::PropertyValue>> pool_inherited_;
  std::vector<bool> pool_inherited_built_;
};

class Search {
 public:
  // `candidate_nodes` restricts where NEW components may be placed (existing
  // instances are reachable regardless). The flat search passes every node;
  // a hierarchical refinement passes its cluster's candidate set.
  // `incumbent` is the best primary score earlier units found (kInfinity
  // when none); `stats` carries the counters of those units too.
  Search(const CompiledSpec& compiled, const spec::ServiceSpec& spec,
         const EnvironmentView& env, const spec::ImplementerIndex& index,
         PlanTables& tables, const PlanRequest& request,
         const Requirements& entry_reqs,
         const std::vector<ExistingInstance>& existing, double incumbent,
         SearchStats& stats, const std::vector<net::NodeId>& candidate_nodes)
      : compiled_(compiled),
        width_(compiled.names.size()),
        spec_(spec),
        network_(env.network()),
        index_(index),
        tables_(tables),
        request_(request),
        entry_reqs_(entry_reqs),
        existing_(existing),
        incumbent_(incumbent),
        stats_(stats),
        bound_pruning_(request.bound_pruning),
        candidate_nodes_(candidate_nodes),
        row_keys_(spec.components.size() + compiled.edge_interfaces.size()) {
    node_load_.assign(network_.node_count(), 0.0);
    link_load_.assign(network_.link_count(), 0.0);
    existing_added_rps_.assign(existing.size(), 0.0);
    placed_existing_.assign(existing.size(), kNotPlaced);
    edge_rows_.assign(network_.node_count() * row_keys_, kNoRow);
    summaries_.resize(spec.components.size());
  }

  // Explores the entry-level candidates in order: implementing components
  // in declaration order, each at the client node when the entry is pinned
  // there, else at every candidate node in the given order.
  void run() {
    if (request_.max_depth < 1) return;
    auto it = index_.find(request_.interface_name);
    if (it == index_.end()) return;
    const std::span<const net::NodeId> nodes =
        request_.pin_entry_to_client
            ? std::span<const net::NodeId>(&request_.client_node, 1)
            : std::span<const net::NodeId>(candidate_nodes_);
    for (const spec::ImplementerRef& ref : it->second) {
      const std::size_t ci = tables_.component_index(*ref.component);
      for (net::NodeId node : nodes) {
        Candidate& c = tables_.candidate(*ref.component, node);
        if (rejected_by_verdict(c)) continue;
        // An entry candidate is visited once per unit: its edge needs no row.
        EdgeEntry edge;
        try_new(*ref.component, ci, *ref.linkage, node, c, edge, entry_reqs_,
                request_.client_node, request_.request_rate_rps,
                /*depth=*/1, kNoParent, /*discount=*/1.0, /*committed=*/0.0,
                [this](InstanceId root, double padded_s, double warm_s,
                       const net::Route&) {
                  finish_plan(root, padded_s, warm_s);
                });
      }
    }
  }

  std::optional<DeploymentPlan> take_best() { return std::move(best_); }
  const Score& best_score() const { return best_score_; }

 private:
  // sink(root, padded, warm, route): both values are the edge RTT + subtree
  // latency as seen from the caller. `padded` applies the cold-view discount
  // to newly deployed views and drives plan *scoring*; `warm` uses true RRFs
  // and is what gets recorded (and later reused as an existing instance's
  // downstream latency once its cache is warm). `route` runs from the
  // caller's node to the root's: the wire's.
  using Sink = CallbackRef<void(InstanceId, double, double, const net::Route&)>;
  // done(padded, warm): every requirement edge of a placement is solved.
  using Done = CallbackRef<void(double, double)>;

  // One placement of the partial plan. It refers to its factor bindings
  // (in the candidate table or the reuse pool) and, once it completes, to
  // its effective values (in the candidate table, or in the try_new frame
  // of a transparent placement, which outlives every use of the placement)
  // instead of copying them; finish_plan copies them into a Placement only
  // for a plan that becomes the incumbent.
  struct Working {
    const spec::ComponentDef* component = nullptr;
    net::NodeId node;
    std::uint32_t factors_id = 0;
    const FactorBindings* factors = nullptr;
    // A new placement's effective values, one row of slots per CompiledSpec
    // row; a reused instance's are its ExistingInstance's.
    const spec::PropertyValue* effective = nullptr;
    double expected_latency_s = 0.0;
    double inbound_rate_rps = 0.0;
    const ExistingInstance* existing = nullptr;  // set when reused
  };

  // A wire of the partial plan; finish_plan materializes it as a Wire.
  struct WorkingWire {
    InstanceId client = 0;
    const std::string* interface_name = nullptr;
    InstanceId server = 0;
    const net::Route* route = nullptr;
    double rate_rps = 0.0;
  };

  // What this unit's candidate nodes hold for one component (index
  // `component` in the spec) in the candidate table: how many of them each
  // fixed rejection verdict covers, and the nodes whose verdict is ok, in
  // candidate order.
  struct NodeSummary {
    bool built = false;
    std::uint32_t component = 0;
    std::uint64_t node_down = 0;
    std::uint64_t fixed_static = 0;
    std::uint64_t condition = 0;
    std::uint64_t factor = 0;
    std::vector<std::pair<net::NodeId, Candidate*>> ok;
  };

  // The edge from a consumer node to one candidate: the route in, the route
  // back and the round-trip time, which depend only on the two nodes and
  // the candidate's component. Filled on the first visit that reaches the
  // route check, by the cached_route and edge_rtt_seconds calls a lookup
  // per candidate would make, so the same route rows and the same doubles.
  struct EdgeEntry {
    const net::Route* in = nullptr;    // null until the first visit
    const net::Route* back = nullptr;  // null while `in` is unroutable
    double rtt_s = 0.0;
  };

  static constexpr InstanceId kNotPlaced = UINT32_MAX;
  static constexpr std::uint32_t kNoRow = UINT32_MAX;

  // ---- branch-and-bound ---------------------------------------------------

  // The incumbent primary score to beat: the better of this unit's best and
  // the earlier units' best.
  double incumbent_primary() const {
    if (best_.has_value() && best_score_.primary < incumbent_) {
      return best_score_.primary;
    }
    return incumbent_;
  }

  bool should_prune(double bound) const {
    return beyond_incumbent(bound, incumbent_primary());
  }

  // Code-transfer time for deploying `comp` at `node` (the deployment-cost
  // metric's per-placement term).
  double code_transfer_cost(const spec::ComponentDef& comp,
                            net::NodeId node) const {
    const net::NodeId origin = request_.code_origin.valid()
                                   ? request_.code_origin
                                   : request_.client_node;
    const net::Route* route = network_.cached_route(origin, node);
    double cost = 0.0;
    for (net::LinkId lid : route->links) {
      const net::Link& link = network_.link(lid);
      cost += link.latency.seconds() +
              static_cast<double>(comp.behaviors.code_size_bytes) * 8.0 /
                  link.bandwidth_bps;
    }
    return cost;
  }

  // The arena offset of the edge row of consumer node `from` and key `key`
  // (a component index, or the spec's component count plus an edge
  // interface id), `count` entries long, appended on first use.
  std::size_t edge_row(net::NodeId from, std::size_t key, std::size_t count) {
    std::uint32_t& row = edge_rows_[from.value * row_keys_ + key];
    if (row == kNoRow) {
      row = static_cast<std::uint32_t>(edge_arena_.size());
      edge_arena_.resize(edge_arena_.size() + count);
    }
    return row;
  }

  // `entry`, the edge from `from` to `to` for messages of `b`, filled on
  // its first visit; a copy, because the arena can grow once the caller
  // recurses.
  EdgeEntry visit(EdgeEntry& entry, net::NodeId from, net::NodeId to,
                  const spec::Behaviors& b) const {
    if (entry.in == nullptr) {
      entry.in = network_.cached_route(from, to);
      if (entry.in->reachable()) {
        entry.back = network_.cached_route(to, from);
        entry.rtt_s = edge_rtt_seconds(network_, *entry.in, b.bytes_per_request,
                                       b.bytes_per_response);
      }
    }
    return entry;
  }

  // ---- search ---------------------------------------------------------

  // Explores every feasible way to provide `iface` (meeting `reqs`) to a
  // consumer at `from`; for each, invokes `sink` with the working state
  // extended by the candidate subtree, then undoes the extension.
  //
  // `discount` and `committed` carry the admissible lower bound through the
  // recursion: `committed` is the padded latency already locked into the
  // partial plan (in final-plan seconds); `discount` is the product of the
  // padded RRFs of the ancestors, i.e. the factor that converts an edge cost
  // at this depth into final-plan seconds.
  static constexpr InstanceId kNoParent = UINT32_MAX;

  // True when linking `parent` to a candidate that is the *same component
  // with the same factor bindings*. Two identically-configured instances of
  // one view hold the same data, so chaining them yields no additional
  // request reduction — permitting it would let the search stack caches to
  // multiply RRF for free (a degenerate optimum the paper's case study
  // never exhibits; Seattle's view chains to San Diego's because their
  // trust factors differ).
  bool duplicates_parent(InstanceId parent, const spec::ComponentDef* comp,
                         std::uint32_t factors_id) const {
    if (parent == kNoParent) return false;
    const Working& p = placements_[parent];
    return p.component == comp && p.factors_id == factors_id;
  }

  // Views extend the duplicate check to the entire requirement path: a
  // second identically-configured instance of one data view anywhere in the
  // chain holds the same cached contents, so it contributes no real request
  // reduction — even when a transparent tunnel sits between the two copies.
  bool view_duplicated_on_path(const spec::ComponentDef* comp,
                               std::uint32_t factors_id) const {
    if (!comp->is_view()) return false;
    for (const auto& [path_comp, path_factors_id] : view_path_) {
      if (path_comp == comp && path_factors_id == factors_id) return true;
    }
    return false;
  }

  // The candidate table's summary of `comp` over this unit's candidate
  // nodes, built on first use.
  const NodeSummary& summary(const spec::ComponentDef& comp) {
    const std::size_t ci = tables_.component_index(comp);
    NodeSummary& s = summaries_[ci];
    if (s.built) return s;
    s.built = true;
    s.component = static_cast<std::uint32_t>(ci);
    for (net::NodeId node : candidate_nodes_) {
      Candidate& c = tables_.candidate(comp, node);
      switch (c.verdict) {
        case Candidate::Verdict::kNodeDown: ++s.node_down; break;
        case Candidate::Verdict::kStatic: ++s.fixed_static; break;
        case Candidate::Verdict::kCondition: ++s.condition; break;
        case Candidate::Verdict::kFactor: ++s.factor; break;
        case Candidate::Verdict::kOk: s.ok.emplace_back(node, &c); break;
      }
    }
    return s;
  }

  // Counts an examined candidate that its fixed verdict rejects; false when
  // the verdict is ok.
  bool rejected_by_verdict(const Candidate& c) {
    if (c.verdict == Candidate::Verdict::kOk) return false;
    ++stats_.candidates_examined;
    switch (c.verdict) {
      case Candidate::Verdict::kNodeDown: ++stats_.rejected_node_down; break;
      case Candidate::Verdict::kStatic: ++stats_.rejected_static; break;
      case Candidate::Verdict::kCondition: ++stats_.rejected_condition; break;
      case Candidate::Verdict::kFactor: ++stats_.rejected_factor; break;
      case Candidate::Verdict::kOk: break;
    }
    return true;
  }

  void satisfy(const PoolInterface& iface, const Requirements& reqs,
               net::NodeId from, double rate, std::size_t depth,
               InstanceId parent, double discount, double committed,
               Sink sink) {
    if (depth > request_.max_depth) return;

    // (a) Reuse an already-running instance. The walk counts every pooled
    // instance; the non-implementers in one step.
    stats_.candidates_examined += iface.non_implementers;
    stats_.rejected_node_down += iface.non_implementers_down;
    const std::size_t pool_row = edge_row(
        from, spec_.components.size() + iface.id, iface.pooled.size());
    for (std::size_t i = 0; i < iface.pooled.size(); ++i) {
      try_existing(iface.pooled[i], edge_arena_[pool_row + i], reqs, from,
                   rate, parent, discount, committed, sink);
    }

    // (b) Deploy a new component. The candidates a fixed verdict rejects are
    // counted in one step: node-down and static come before the cycle guard
    // in try_new's order, and a pair with a condition or factor verdict is
    // never on the requirement path (only ok pairs get there), so no cycle
    // rejection would have preceded theirs.
    if (iface.components == nullptr) return;
    for (const spec::ImplementerRef& ref : *iface.components) {
      const NodeSummary& s = summary(*ref.component);
      stats_.candidates_examined +=
          s.node_down + s.fixed_static + s.condition + s.factor;
      stats_.rejected_node_down += s.node_down;
      stats_.rejected_static += s.fixed_static;
      stats_.rejected_condition += s.condition;
      stats_.rejected_factor += s.factor;
      const std::size_t row = edge_row(from, s.component, s.ok.size());
      for (std::size_t i = 0; i < s.ok.size(); ++i) {
        const auto& [node, c] = s.ok[i];
        try_new(*ref.component, s.component, *ref.linkage, node, *c,
                edge_arena_[row + i], reqs, from, rate, depth, parent,
                discount, committed, sink);
      }
    }
  }

  // `entry` is the pooled instance's edge from `from`: it is read before
  // anything recurses.
  void try_existing(const PoolInterface::Implementer& pooled,
                    EdgeEntry& entry, const Requirements& reqs,
                    net::NodeId from, double rate, InstanceId parent,
                    double discount, double committed, Sink sink) {
    const ExistingInstance& inst = existing_[pooled.index];
    ++stats_.candidates_examined;
    if (pooled.node_down) {
      ++stats_.rejected_node_down;
      return;
    }
    if (duplicates_parent(parent, inst.component, pooled.factors_id) ||
        view_duplicated_on_path(inst.component, pooled.factors_id)) {
      ++stats_.rejected_duplicate_view;
      return;
    }

    const double capacity = inst.component->behaviors.capacity_rps;
    if (capacity > 0.0 &&
        inst.current_load_rps + existing_added_rps_[pooled.index] + rate >
            capacity) {
      ++stats_.rejected_instance_capacity;
      return;
    }

    const EdgeEntry edge =
        visit(entry, from, inst.node, inst.component->behaviors);
    if (!edge.in->reachable()) {
      ++stats_.rejected_unroutable;
      return;
    }
    // The response path must be routable too: on an asymmetric topology a
    // candidate whose return route is severed would otherwise slip through
    // to property transformation over a dead route.
    if (!edge.back->reachable()) {
      ++stats_.rejected_unroutable;
      return;
    }

    // §3.3 condition 2 against the instance's stored effective properties.
    for (const auto& [prop, required] : reqs) {
      if (!tables_
               .transform(prop, slot(pooled.props, prop), *edge.back,
                          inst.node, from)
               .satisfies(required)) {
        ++stats_.rejected_compatibility;
        return;
      }
    }

    const double rtt = edge.rtt_s;

    // Bound: reusing an instance commits this edge's RTT plus the instance's
    // (exactly known) downstream latency.
    const double bound =
        committed + discount * (rtt + inst.downstream_latency_s);
    if (bound_pruning_ && should_prune(bound)) {
      ++stats_.pruned_by_bound;
      return;
    }

    // §3.3 condition 3 for the new edge.
    if (!reserve_route(*edge.in, inst.component->behaviors, rate)) {
      ++stats_.rejected_link_capacity;
      return;
    }

    const bool created = placed_existing_[pooled.index] == kNotPlaced;
    if (created) {
      placed_existing_[pooled.index] =
          static_cast<InstanceId>(placements_.size());
      placements_.push_back(Working{inst.component, inst.node,
                                    pooled.factors_id, &inst.factors, nullptr,
                                    inst.downstream_latency_s, 0.0, &inst});
    }
    const InstanceId pid = placed_existing_[pooled.index];
    placements_[pid].inbound_rate_rps += rate;
    existing_added_rps_[pooled.index] += rate;

    // An existing instance is warm on both tracks.
    sink(pid, rtt + inst.downstream_latency_s,
         rtt + inst.downstream_latency_s, *edge.in);

    // Undo.
    existing_added_rps_[pooled.index] -= rate;
    placements_[pid].inbound_rate_rps -= rate;
    if (created) {
      placed_existing_[pooled.index] = kNotPlaced;
      placements_.pop_back();
    }
    release_route(*edge.in, inst.component->behaviors, rate);
  }

  // A new placement of `comp` (index `ci` in the spec) at `node`, whose
  // candidate-table entry `c` has an ok verdict (callers count the others).
  // `entry` is its edge from `from`: it is read before anything recurses.
  void try_new(const spec::ComponentDef& comp, std::size_t ci,
               const spec::LinkageDecl& impl, net::NodeId node, Candidate& c,
               EdgeEntry& entry, const Requirements& reqs, net::NodeId from,
               double rate, std::size_t depth, InstanceId parent,
               double discount, double committed, Sink sink) {
    ++stats_.candidates_examined;

    // Cycle guard: never place the same component twice on the same node
    // along one requirement path.
    if (c.on_path) {
      ++stats_.rejected_cycle;
      return;
    }

    if (duplicates_parent(parent, &comp, c.factors_id) ||
        view_duplicated_on_path(&comp, c.factors_id)) {
      ++stats_.rejected_duplicate_view;
      return;
    }

    const EdgeEntry edge = visit(entry, from, node, comp.behaviors);
    if (!edge.in->reachable()) {
      ++stats_.rejected_unroutable;
      return;
    }
    const net::Route& route_in = *edge.in;
    const net::Route& route_back = *edge.back;

    // Early filter for §3.3 condition 2: a *declared* value that fails its
    // requirement can only be rescued by a modification rule; without a rule
    // for the property, prune before recursing.
    const std::size_t impl_index =
        static_cast<std::size_t>(&impl - comp.implements.data());
    const std::vector<Candidate::FixedValue>& fixed = c.fixed[impl_index];
    for (const auto& [prop, required] : reqs) {
      for (const Candidate::FixedValue& declared : fixed) {
        if (declared.property != prop) continue;
        if (!declared.value.satisfies(required)) {
          ++stats_.rejected_compatibility;
          return;
        }
        break;
      }
    }

    // §3.3 condition 3: node CPU, component capacity, inbound link load.
    const double cpu_add = rate * comp.behaviors.cpu_per_request;
    if (node_load_[node.value] + cpu_add > c.cpu_available) {
      ++stats_.rejected_node_capacity;
      return;
    }
    if (comp.behaviors.capacity_rps > 0.0 &&
        rate > comp.behaviors.capacity_rps) {
      ++stats_.rejected_instance_capacity;
      return;
    }

    const double cpu_time_s = comp.behaviors.cpu_per_request / c.cpu_capacity;
    const double rtt = edge.rtt_s;
    // Cold-cache discount for newly deployed views (kColdViewPenalty).
    const double warm_rrf = comp.behaviors.rrf;
    double padded_rrf = warm_rrf;
    if (comp.is_view()) {
      padded_rrf =
          std::min(1.0, warm_rrf + kColdViewPenalty * (1.0 - warm_rrf));
    }

    // Bound: every completion through this candidate pays at least the work
    // already committed plus this edge's RTT and CPU time — all remaining
    // contributions are non-negative, so pruning here is admissible.
    const double child_committed = committed + discount * (rtt + cpu_time_s);
    if (bound_pruning_ && should_prune(child_committed)) {
      ++stats_.pruned_by_bound;
      return;
    }

    if (!reserve_route(route_in, comp.behaviors, rate)) {
      ++stats_.rejected_link_capacity;
      return;
    }
    node_load_[node.value] += cpu_add;

    // At the last depth level a component that requires anything cannot
    // complete: satisfy() returns for the level below before it counts a
    // candidate, so only the link-capacity verdict above is observable.
    // The loads are still added and taken back: `(v + x) - x` need not
    // equal `v` in floating point, and the residue a recursing walk leaves
    // reaches later capacity checks.
    if (depth >= request_.max_depth && !comp.requires_.empty()) {
      node_load_[node.value] -= cpu_add;
      release_route(route_in, comp.behaviors, rate);
      return;
    }
    c.on_path = true;
    if (comp.is_view()) view_path_.emplace_back(&comp, c.factors_id);

    const InstanceId pid = static_cast<InstanceId>(placements_.size());
    placements_.push_back(Working{&comp, node, c.factors_id, &c.factors,
                                  nullptr, 0.0, rate, nullptr});
    const CompiledSpec::Component& compiled = compiled_.components[ci];
    const std::size_t offset = compiled.row_of[impl_index] * width_;
    // A transparent placement's effective values, rewritten on each
    // completion (they depend on the children).
    std::vector<spec::PropertyValue> transparent;

    satisfy_children(
        c, comp, pid, node, rate * padded_rrf, depth, 0, 0.0, 0.0,
        discount * padded_rrf, child_committed,
        [&](double children_padded_s, double children_warm_s) {
          ++stats_.completions;
          Working& self = placements_[pid];
          self.expected_latency_s = cpu_time_s + warm_rrf * children_warm_s;
          const double padded_latency_s =
              cpu_time_s + padded_rrf * children_padded_s;
          if (comp.transparent) {
            effective_values(c, comp, compiled, pid, transparent);
            self.effective = transparent.data();
          } else {
            if (!c.effective_built) {
              effective_values(c, comp, compiled, pid, c.effective);
              c.effective_built = true;
            }
            self.effective = c.effective.data();
          }

          // §3.3 condition 2 in full: effective properties, degraded along
          // the route back to the consumer, must satisfy the requirements.
          for (const auto& [prop, required] : reqs) {
            const spec::PropertyValue& v =
                prop < width_ ? self.effective[offset + prop] : kUnset;
            if (!tables_.transform(prop, v, route_back, node, from)
                     .satisfies(required)) {
              ++stats_.rejected_compatibility;
              return;
            }
          }

          sink(pid, rtt + padded_latency_s, rtt + self.expected_latency_s,
               route_in);
        });

    // Undo (children are fully undone by their own frames).
    PSF_CHECK(placements_.size() == static_cast<std::size_t>(pid) + 1);
    placements_.pop_back();
    if (comp.is_view()) view_path_.pop_back();
    c.on_path = false;
    node_load_[node.value] -= cpu_add;
    release_route(route_in, comp.behaviors, rate);
  }

  // Satisfies comp.requires_[index..) in declaration order; when all are
  // placed, calls done(total_cost) where total_cost = Σ over children of
  // (edge rtt + child subtree latency). `child_discount` / `base_committed`
  // carry the bound (see satisfy); completed sibling edges enter the
  // committed value as they accumulate in `padded_so_far`.
  // Kept out of line. With the attribute, GCC 12 -O3 keeps try_new and this
  // function out of line and inlines satisfy, with try_existing (the pool
  // walk), into it. Without it, this function is inlined into try_new and
  // satisfy goes out of line instead, and access_storm's ops_per_wall_s
  // read 0.971x and planner.wall_ms_p50 1.045x (6 alternating 10 s pairs
  // at seed 1 on a 4-vCPU host, 0/6 better).
  [[gnu::noinline]]
  void satisfy_children(const Candidate& c, const spec::ComponentDef& comp,
                        InstanceId parent, net::NodeId node, double child_rate,
                        std::size_t depth, std::size_t index,
                        double padded_so_far, double warm_so_far,
                        double child_discount, double base_committed,
                        Done done) {
    if (index == comp.requires_.size()) {
      done(padded_so_far, warm_so_far);
      return;
    }
    const Candidate::Edge& edge = c.edges[index];
    satisfy(*edge.iface, edge.reqs, node, child_rate, depth + 1, parent,
            child_discount, base_committed + child_discount * padded_so_far,
            [&](InstanceId child_root, double edge_padded_s,
                double edge_warm_s, const net::Route& route) {
              wires_.push_back(WorkingWire{parent, edge.iface->name,
                                           child_root, &route, child_rate});
              satisfy_children(c, comp, parent, node, child_rate, depth,
                               index + 1, padded_so_far + edge_padded_s,
                               warm_so_far + edge_warm_s, child_discount,
                               base_committed, done);
              wires_.pop_back();
            });
  }

  // ---- constraint helpers -------------------------------------------------

  bool reserve_route(const net::Route& route, const spec::Behaviors& b,
                     double rate) {
    const double add_bps =
        rate *
        static_cast<double>(b.bytes_per_request + b.bytes_per_response) * 8.0;
    for (net::LinkId lid : route.links) {
      const net::Link& link = network_.link(lid);
      if (link_load_[lid.value] + add_bps > link.bandwidth_available_bps()) {
        return false;
      }
    }
    for (net::LinkId lid : route.links) link_load_[lid.value] += add_bps;
    return true;
  }

  void release_route(const net::Route& route, const spec::Behaviors& b,
                     double rate) {
    const double add_bps =
        rate *
        static_cast<double>(b.bytes_per_request + b.bytes_per_response) * 8.0;
    for (net::LinkId lid : route.links) link_load_[lid.value] -= add_bps;
  }

  // The effective values of new placement `self` of `comp` (entry `c`) into
  // `out`, one row of slots per CompiledSpec row: declared values, and for a
  // transparent component each undeclared property inherited from its
  // children (the servers of its wires, in requirement order) as the
  // minimum of the child's offered value transformed along the route to
  // `self`. An unset value leaves its slot unset.
  void effective_values(const Candidate& c, const spec::ComponentDef& comp,
                        const CompiledSpec::Component& compiled,
                        InstanceId self,
                        std::vector<spec::PropertyValue>& out) {
    const net::NodeId node = placements_[self].node;
    out.assign(compiled.rows.size() * width_, spec::PropertyValue());
    for (std::size_t i = 0; i < compiled.effective.size(); ++i) {
      PSF_CHECK(compiled.rows[compiled.row_of[i]].def != nullptr);
      spec::PropertyValue* row = out.data() + compiled.row_of[i] * width_;
      for (const CompiledSpec::Assignment& a : compiled.effective[i]) {
        spec::PropertyValue value;
        if (a.value != nullptr) {
          value = resolve_value(*a.value, *c.env, c.factors);
        } else if (comp.transparent) {
          value = inherited(self, node, a.prop);
        }
        if (value.is_set()) row[a.prop] = std::move(value);
      }
    }
  }

  spec::PropertyValue inherited(InstanceId self, net::NodeId node,
                                PropId prop) {
    spec::PropertyValue out;
    bool first = true;
    for (const WorkingWire& wire : wires_) {
      if (wire.client != self) continue;
      const Working& child = placements_[wire.server];
      spec::PropertyValue cv = tables_.transform(
          prop, offered(child, prop),
          *network_.cached_route(child.node, node), child.node, node);
      if (first) {
        out = std::move(cv);
        first = false;
      } else {
        out = spec::PropertyValue::min_of(out, cv);
      }
    }
    return out;
  }

  // What a placement offers a transparent parent of property `prop`: the
  // value of its first interface, in interface-name order, that holds it.
  const spec::PropertyValue& offered(const Working& w, PropId prop) {
    if (w.existing != nullptr) {
      return slot(tables_.pool_inherited(
                      static_cast<std::size_t>(w.existing - existing_.data())),
                  prop);
    }
    if (prop >= width_) return kUnset;
    const std::size_t rows =
        compiled_.components[tables_.component_index(*w.component)]
            .rows.size();
    for (std::size_t r = 0; r < rows; ++r) {
      const spec::PropertyValue& v = w.effective[r * width_ + prop];
      if (v.is_set()) return v;
    }
    return kUnset;
  }

  // A new placement's effective values as the plan's string-keyed map.
  EffectiveProps effective_props(const Working& w) const {
    const CompiledSpec::Component& compiled =
        compiled_.components[tables_.component_index(*w.component)];
    EffectiveProps out;
    for (std::size_t r = 0; r < compiled.rows.size(); ++r) {
      const CompiledSpec::Row& row = compiled.rows[r];
      auto& props = out[*row.interface_name];
      for (PropId p : row.props) {
        const spec::PropertyValue& v = w.effective[r * width_ + p];
        if (v.is_set()) props[*compiled_.names[p]] = v;
      }
    }
    return out;
  }

  // ---- plan completion ------------------------------------------------

  void finish_plan(InstanceId root, double padded_s, double warm_s) {
    ++stats_.plans_scored;
    PlanMetrics metrics;
    // Report the warm (steady-state) expectation; score with the padded
    // value so cold-cache effects influence the choice.
    metrics.expected_latency_s = warm_s;
    for (const Working& p : placements_) {
      if (p.existing != nullptr) {
        ++metrics.reused_components;
        continue;
      }
      ++metrics.new_components;
      metrics.deployment_cost_s += code_transfer_cost(*p.component, p.node);
    }

    const Score score{padded_s, metrics.deployment_cost_s,
                      static_cast<double>(metrics.new_components)};
    if (best_ && !(score < best_score_)) return;

    DeploymentPlan plan;
    plan.placements.reserve(placements_.size());
    for (const Working& w : placements_) {
      Placement& p = plan.placements.emplace_back();
      p.id = static_cast<InstanceId>(plan.placements.size() - 1);
      p.component = w.component;
      p.node = w.node;
      p.factors = *w.factors;
      p.expected_latency_s = w.expected_latency_s;
      p.inbound_rate_rps = w.inbound_rate_rps;
      if (w.existing != nullptr) {
        p.effective = w.existing->effective;
        p.reuse_existing = true;
        p.existing_runtime_id = w.existing->runtime_id;
      } else {
        p.effective = effective_props(w);
      }
    }
    plan.wires.reserve(wires_.size());
    for (const WorkingWire& w : wires_) {
      plan.wires.push_back(
          Wire{w.client, *w.interface_name, w.server, *w.route, w.rate_rps});
    }
    plan.entry = root;
    plan.metrics = metrics;
    best_ = std::move(plan);
    best_score_ = score;
  }

  const CompiledSpec& compiled_;
  const std::size_t width_;  // the spec's property ids: a row's slot count
  const spec::ServiceSpec& spec_;
  const net::Network& network_;
  const spec::ImplementerIndex& index_;
  PlanTables& tables_;
  const PlanRequest& request_;
  const Requirements& entry_reqs_;
  const std::vector<ExistingInstance>& existing_;
  const double incumbent_;
  SearchStats& stats_;
  const bool bound_pruning_;
  const std::vector<net::NodeId>& candidate_nodes_;
  std::vector<NodeSummary> summaries_;  // by component index

  // Working state (mutated along the DFS, undone on backtrack).
  std::vector<Working> placements_;
  std::vector<WorkingWire> wires_;
  std::vector<double> node_load_;  // added cpu units/s per node
  std::vector<double> link_load_;  // added bps per link
  std::vector<double> existing_added_rps_;
  // By pool position: the placement reusing that instance, or kNotPlaced.
  std::vector<InstanceId> placed_existing_;
  // Views along the current requirement path, with their factors ids.
  std::vector<std::pair<const spec::ComponentDef*, std::uint32_t>> view_path_;

  // The edge rows: by (consumer node, row key) the arena offset of the row,
  // or kNoRow. A component's row has an entry per ok node of its
  // NodeSummary, an interface's an entry per pooled implementer, in their
  // orders. Offsets, not pointers: the arena grows as the search visits
  // new consumer nodes.
  const std::size_t row_keys_;  // spec components + edge interfaces
  std::vector<std::uint32_t> edge_rows_;
  std::vector<EdgeEntry> edge_arena_;

  std::optional<DeploymentPlan> best_;
  Score best_score_;
};

// One restricted search the driver runs: NEW components land only on
// `candidates` (existing instances are reachable wherever they live).
// `lower_bound` is admissible for the primary score of every plan only this
// unit can express.
struct SearchUnit {
  std::vector<net::NodeId> candidates;
  double lower_bound = 0.0;
};

struct DriveResult {
  std::optional<DeploymentPlan> plan;
  SearchStats stats;  // summed over every unit
  std::uint64_t units_skipped = 0;   // lower bound above the incumbent
  std::uint64_t units_searched = 0;  // actually ran a Search
};

// The one search driver: runs `units` in order, carrying one incumbent and
// one SearchStats across them. A unit whose lower bound exceeds the
// incumbent (the in-search margin) is skipped — it can only hold plans
// strictly worse than one already found. A unit's plan replaces the
// incumbent only when its score is strictly lower, so ties keep the earliest
// (unit, entry candidate), the first-best-kept rule each Search applies
// within a unit.
DriveResult drive_search(const CompiledSpec& compiled,
                         const spec::ServiceSpec& spec,
                         const EnvironmentView& env,
                         const spec::ImplementerIndex& index,
                         const PlanRequest& request,
                         const std::vector<ExistingInstance>& existing,
                         const std::vector<SearchUnit>& units) {
  DriveResult out;
  PlanTables tables(compiled, spec, env, index, existing);
  const Requirements entry_reqs =
      tables.requirements(request.required_properties);
  Score incumbent;
  for (const SearchUnit& unit : units) {
    if (request.bound_pruning &&
        beyond_incumbent(unit.lower_bound, incumbent.primary)) {
      ++out.units_skipped;
      continue;
    }
    ++out.units_searched;
    Search search(compiled, spec, env, index, tables, request, entry_reqs,
                  existing, incumbent.primary, out.stats, unit.candidates);
    search.run();
    std::optional<DeploymentPlan> plan = search.take_best();
    if (plan.has_value() &&
        (!out.plan.has_value() || search.best_score() < incumbent)) {
      out.plan = std::move(plan);
      incumbent = search.best_score();
    }
  }
  return out;
}


util::Status no_plan(const spec::ServiceSpec& spec, const EnvironmentView& env,
                     const PlanRequest& request, const std::string& detail) {
  return util::unsatisfiable(
      "no deployment of '" + spec.name + "' satisfies interface '" +
      request.interface_name + "' from node '" +
      env.network().node(request.client_node).name + "'" + detail);
}

}  // namespace

SearchStats& SearchStats::operator+=(const SearchStats& other) {
  candidates_examined += other.candidates_examined;
  plans_scored += other.plans_scored;
  completions += other.completions;
  pruned_by_bound += other.pruned_by_bound;
  rejected_static += other.rejected_static;
  rejected_cycle += other.rejected_cycle;
  rejected_duplicate_view += other.rejected_duplicate_view;
  rejected_condition += other.rejected_condition;
  rejected_factor += other.rejected_factor;
  rejected_compatibility += other.rejected_compatibility;
  rejected_node_capacity += other.rejected_node_capacity;
  rejected_link_capacity += other.rejected_link_capacity;
  rejected_instance_capacity += other.rejected_instance_capacity;
  rejected_unroutable += other.rejected_unroutable;
  rejected_node_down += other.rejected_node_down;
  clusters_total += other.clusters_total;
  clusters_pruned += other.clusters_pruned;
  clusters_refined += other.clusters_refined;
  used_hierarchy = used_hierarchy || other.used_hierarchy;
  return *this;
}

std::string SearchStats::to_string() const {
  std::ostringstream oss;
  oss << "examined " << candidates_examined << " candidates, scored "
      << plans_scored << " plan(s), pruned " << pruned_by_bound
      << " subtree(s) by bound; rejections:";
  const std::pair<const char*, std::uint64_t> rows[] = {
      {"static", rejected_static},
      {"cycle", rejected_cycle},
      {"duplicate-view", rejected_duplicate_view},
      {"condition", rejected_condition},
      {"factor", rejected_factor},
      {"compatibility", rejected_compatibility},
      {"node-capacity", rejected_node_capacity},
      {"link-capacity", rejected_link_capacity},
      {"instance-capacity", rejected_instance_capacity},
      {"unroutable", rejected_unroutable},
      {"node-down", rejected_node_down},
  };
  bool any = false;
  for (const auto& [label, count] : rows) {
    if (count == 0) continue;
    oss << " " << label << "=" << count;
    any = true;
  }
  if (!any) oss << " none";
  if (used_hierarchy) {
    oss << "; hierarchy: " << clusters_refined << "/" << clusters_total
        << " cluster(s) refined, " << clusters_pruned << " pruned by bound";
  }
  return oss.str();
}

const char* search_mode_name(SearchMode m) {
  switch (m) {
    case SearchMode::kAuto: return "auto";
    case SearchMode::kFlat: return "flat";
    case SearchMode::kHierarchical: return "hierarchical";
  }
  return "?";
}

Planner::Planner(const spec::ServiceSpec& spec, const EnvironmentView& env)
    : spec_(spec),
      env_(env),
      iface_index_(spec.build_implementer_index()),
      compiled_(compile_spec(spec)) {}

util::Expected<DeploymentPlan> Planner::plan(
    const PlanRequest& request, const std::vector<ExistingInstance>& existing,
    SearchStats* stats) const {
  if (spec_.find_interface(request.interface_name) == nullptr) {
    return util::not_found("service '" + spec_.name +
                           "' has no interface named '" +
                           request.interface_name + "'");
  }
  const std::size_t node_count = env_.network().node_count();
  if (!request.client_node.valid() ||
      request.client_node.value >= node_count) {
    return util::invalid_argument("invalid client node");
  }
  // An invalid code origin means "the client node"; a valid one must exist.
  if (request.code_origin.valid() &&
      request.code_origin.value >= node_count) {
    return util::invalid_argument("code origin is not a node");
  }
  for (net::NodeId node : request.candidate_nodes) {
    if (!node.valid() || node.value >= node_count) {
      return util::invalid_argument("candidate node is not a node");
    }
  }
  // `rate < 0` alone lets NaN through, and a NaN rate passes every
  // capacity check it is compared in.
  if (!std::isfinite(request.request_rate_rps) ||
      request.request_rate_rps < 0.0) {
    return util::invalid_argument("request rate must be finite and >= 0");
  }

  // A restricted candidate set (plan repair) bypasses hierarchical search:
  // it assumes the whole topology is in play, and a repair's set is already
  // cluster-sized — flat BnB over it is exact and cheap.
  if (!request.candidate_nodes.empty()) {
    return plan_flat(request, existing, stats);
  }

  const bool hierarchical =
      request.search_mode == SearchMode::kHierarchical ||
      (request.search_mode == SearchMode::kAuto &&
       env_.network().node_count() >= kHierarchyAutoThreshold);
  if (hierarchical) return plan_hierarchical(request, existing, stats);
  return plan_flat(request, existing, stats);
}

util::Expected<DeploymentPlan> Planner::plan_flat(
    const PlanRequest& request, const std::vector<ExistingInstance>& existing,
    SearchStats* stats) const {
  std::vector<SearchUnit> units(1);
  units[0].candidates = request.candidate_nodes.empty()
                            ? env_.network().all_nodes()
                            : request.candidate_nodes;
  DriveResult result =
      drive_search(*compiled_, spec_, env_, iface_index_, request, existing,
                   units);
  if (stats != nullptr) *stats = result.stats;
  if (!result.plan) return no_plan(spec_, env_, request, "");
  return std::move(*result.plan);
}

util::Expected<DeploymentPlan> Planner::plan_hierarchical(
    const PlanRequest& request, const std::vector<ExistingInstance>& existing,
    SearchStats* stats) const {
  const ClusterIndex index(
      env_.network(),
      ClusterIndex::default_cluster_count(env_.network().node_count()));
  if (index.num_clusters() < 2) return plan_flat(request, existing, stats);

  // One unit per refinement, in rank order (client cluster first).
  std::vector<SearchUnit> units;
  for (ClusterRefinement& ref :
       build_refinements(index, spec_, request, existing)) {
    units.push_back({std::move(ref.candidates), ref.lower_bound});
  }
  DriveResult result =
      drive_search(*compiled_, spec_, env_, iface_index_, request, existing,
                   units);
  result.stats.used_hierarchy = true;
  result.stats.clusters_total = units.size();
  result.stats.clusters_pruned = result.units_skipped;
  result.stats.clusters_refined = result.units_searched;
  if (stats != nullptr) *stats = result.stats;
  if (!result.plan) {
    return no_plan(spec_, env_, request,
                   " (hierarchical search, " + std::to_string(units.size()) +
                       " clusters)");
  }
  return std::move(*result.plan);
}

}  // namespace psf::planner
