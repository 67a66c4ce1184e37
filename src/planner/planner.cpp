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

#include "planner/cluster.hpp"
#include "planner/hierarchy.hpp"
#include "util/logging.hpp"

namespace psf::planner {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

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

// Lexicographic plan score: lower is better on every field.
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

Score score_plan(Objective objective, const PlanMetrics& m) {
  switch (objective) {
    case Objective::kMinLatency:
      return {m.expected_latency_s, m.deployment_cost_s,
              static_cast<double>(m.new_components)};
    case Objective::kMinDeploymentCost:
      return {m.deployment_cost_s + static_cast<double>(m.new_components),
              m.expected_latency_s, 0.0};
    case Objective::kMaxCapacity:
      return {-m.min_headroom, m.expected_latency_s, m.deployment_cost_s};
  }
  return {};
}

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

using Requirements =
    std::vector<std::pair<std::string, spec::PropertyValue>>;

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
    // The instance's effective values for this interface.
    const std::map<std::string, spec::PropertyValue>* props = nullptr;
  };

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
    const std::string* property = nullptr;
    spec::PropertyValue value;
  };

  bool filled = false;
  Verdict verdict = Verdict::kOk;
  // Set when the verdict is kOk:
  const spec::Environment* env = nullptr;
  const net::Node* host = nullptr;
  FactorBindings factors;
  std::vector<Edge> edges;                     // per Requires entry
  std::vector<std::vector<FixedValue>> fixed;  // per Implements entry
};

// Everything one Planner::plan call works out once and every search unit
// shares: the candidate table, the pool index and the transform memo.
class PlanTables {
 public:
  PlanTables(const spec::ServiceSpec& spec, const EnvironmentView& env,
             const spec::ImplementerIndex& index,
             const std::vector<ExistingInstance>& pool)
      : spec_(spec),
        env_(env),
        network_(env.network()),
        index_(index),
        pool_(pool),
        rows_(network_.node_count()) {}

  // The (component, node) entry, filled on first touch. A node's row is
  // allocated on the node's first touch and never resized, so references
  // stay valid for the whole plan.
  Candidate& candidate(const spec::ComponentDef& comp, net::NodeId node) {
    std::vector<Candidate>& row = rows_[node.value];
    if (row.empty()) row.resize(spec_.components.size());
    Candidate& c = row[component_index(comp)];
    if (!c.filled) fill(c, comp, node);
    return c;
  }

  const PoolInterface& interface(const std::string& name) {
    auto it = interfaces_.find(name);
    if (it == interfaces_.end()) {
      it = interfaces_.emplace(name, PoolInterface{}).first;
      index_pool(it->first, it->second);
    }
    return it->second;
  }

  // `comp`'s position in the spec; pooled instances are of spec components
  // too.
  std::size_t component_index(const spec::ComponentDef& comp) const {
    const std::size_t i =
        static_cast<std::size_t>(&comp - spec_.components.data());
    PSF_CHECK(i < spec_.components.size());
    return i;
  }

  TransformMemo& memo() { return memo_; }

 private:
  void fill(Candidate& c, const spec::ComponentDef& comp, net::NodeId node) {
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
    c.host = &network_.node(node);

    c.edges.reserve(comp.requires_.size());
    for (const spec::LinkageDecl& req : comp.requires_) {
      Candidate::Edge& edge = c.edges.emplace_back();
      edge.iface = &interface(req.interface_name);
      for (const spec::PropertyAssignment& pa : req.properties) {
        spec::PropertyValue v = resolve_value(pa.value, node_env, c.factors);
        if (v.is_set()) edge.reqs.emplace_back(pa.property, std::move(v));
      }
    }

    c.fixed.reserve(comp.implements.size());
    for (const spec::LinkageDecl& decl : comp.implements) {
      std::vector<Candidate::FixedValue>& fixed = c.fixed.emplace_back();
      for (auto it = decl.properties.begin(); it != decl.properties.end();
           ++it) {
        // Only a property's first declaration counts (LinkageDecl::value_of).
        const bool shadowed =
            std::any_of(decl.properties.begin(), it,
                        [&it](const spec::PropertyAssignment& earlier) {
                          return earlier.property == it->property;
                        });
        if (shadowed || spec_.rules.find(it->property) != nullptr) continue;
        spec::PropertyValue v = resolve_value(it->value, node_env, c.factors);
        if (v.is_set()) fixed.push_back({&it->property, std::move(v)});
      }
    }
  }

  void index_pool(const std::string& name, PoolInterface& out) {
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
      impl.props = &eff->second;
    }
  }

  const spec::ServiceSpec& spec_;
  const EnvironmentView& env_;
  const net::Network& network_;
  const spec::ImplementerIndex& index_;
  const std::vector<ExistingInstance>& pool_;
  // By node id: one Candidate per component, in spec order.
  std::vector<std::vector<Candidate>> rows_;
  std::map<std::string, PoolInterface> interfaces_;
  TransformMemo memo_;
};

class Search {
 public:
  // `candidate_nodes` restricts where NEW components may be placed (existing
  // instances are reachable regardless). The flat search passes every node;
  // a hierarchical refinement passes its cluster's candidate set.
  // `incumbent` is the best primary score earlier units found (kInfinity
  // when none); `stats` carries the counters of those units too.
  Search(const spec::ServiceSpec& spec, const EnvironmentView& env,
         const spec::ImplementerIndex& index, PlanTables& tables,
         const PlanRequest& request,
         const std::vector<ExistingInstance>& existing, double incumbent,
         SearchStats& stats, const std::vector<net::NodeId>& candidate_nodes)
      : spec_(spec),
        env_(env),
        network_(env.network()),
        index_(index),
        tables_(tables),
        request_(request),
        existing_(existing),
        incumbent_(incumbent),
        stats_(stats),
        bound_pruning_(request.bound_pruning),
        candidate_nodes_(candidate_nodes) {
    node_load_.assign(network_.node_count(), 0.0);
    link_load_.assign(network_.link_count(), 0.0);
    existing_added_rps_.assign(existing.size(), 0.0);
    placed_existing_.assign(existing.size(), kNotPlaced);
    rtt_slot_.assign(network_.node_count(), kNoSlot);
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
      for (net::NodeId node : nodes) {
        try_new(*ref.component, *ref.linkage, node, request_.interface_name,
                request_.required_properties, request_.client_node,
                request_.request_rate_rps, /*depth=*/1, kNoParent,
                /*discount=*/1.0, /*committed=*/0.0,
                [this](InstanceId root, double padded_s, double warm_s) {
                  finish_plan(root, padded_s, warm_s);
                });
      }
    }
  }

  std::optional<DeploymentPlan> take_best() { return std::move(best_); }
  const Score& best_score() const { return best_score_; }

 private:
  // sink(root, padded, warm): both values are edge_rtt + subtree latency as
  // seen from the caller. `padded` applies the cold-view discount to newly
  // deployed views and drives plan *scoring*; `warm` uses true RRFs and is
  // what gets recorded (and later reused as an existing instance's
  // downstream latency once its cache is warm).
  using Sink = CallbackRef<void(InstanceId, double, double)>;
  // done(padded, warm): every requirement edge of a placement is solved.
  using Done = CallbackRef<void(double, double)>;

  // One placement of the partial plan. It refers to its factor bindings
  // (in the candidate table or the reuse pool) and its effective properties
  // (in the reuse pool, or in the try_new frame of a new placement, which
  // outlives every use of the placement) instead of copying them;
  // finish_plan copies them into a Placement only for a plan that becomes
  // the incumbent.
  struct Working {
    const spec::ComponentDef* component = nullptr;
    net::NodeId node;
    const FactorBindings* factors = nullptr;
    const EffectiveProps* effective = nullptr;
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

  static constexpr InstanceId kNotPlaced = UINT32_MAX;
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

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

  // edge_rtt_seconds over `route` (from `from` to `to`) for `comp`'s
  // messages, memoized: the same link sums in the same order, so the same
  // double. The memo lives per search unit: a dense table over the nodes
  // the unit has touched (a cluster refinement's, or a small world's), a
  // row per `from`.
  double edge_rtt(net::NodeId from, net::NodeId to, const net::Route& route,
                  const spec::ComponentDef& comp) {
    const std::size_t components = spec_.components.size();
    const std::uint32_t from_slot = rtt_slot(from);
    const std::size_t i =
        rtt_slot(to) * components + tables_.component_index(comp);
    std::vector<double>& rtt = rtt_rows_[from_slot];
    if (i >= rtt.size()) {
      rtt.resize((i / components + 1) * components,
                 std::numeric_limits<double>::quiet_NaN());
    }
    if (std::isnan(rtt[i])) {
      rtt[i] = edge_rtt_seconds(network_, route,
                                comp.behaviors.bytes_per_request,
                                comp.behaviors.bytes_per_response);
    }
    return rtt[i];
  }

  std::uint32_t rtt_slot(net::NodeId node) {
    std::uint32_t& slot = rtt_slot_[node.value];
    if (slot == kNoSlot) {
      slot = static_cast<std::uint32_t>(rtt_rows_.size());
      rtt_rows_.emplace_back();
    }
    return slot;
  }

  // ---- search ---------------------------------------------------------

  // Explores every feasible way to provide `iface` (meeting `reqs`) to a
  // consumer at `from`; for each, invokes `sink` with the working state
  // extended by the candidate subtree, then undoes the extension.
  //
  // `discount` and `committed` carry the admissible lower bound through the
  // recursion. Their meaning depends on the active objective:
  //  - kMinLatency: `committed` is the padded latency already locked into the
  //    partial plan (in final-plan seconds); `discount` is the product of
  //    the padded RRFs of the ancestors, i.e. the factor that converts an
  //    edge cost at this depth into final-plan seconds.
  //  - kMaxCapacity: `committed` is the maximum resource utilization
  //    observed while reserving the partial plan (final utilization of those
  //    resources can only be higher).
  //  - kMinDeploymentCost: the bound lives in the `committed_cost_` member
  //    instead (placement-scoped rather than path-scoped).
  static constexpr InstanceId kNoParent = UINT32_MAX;

  // True when linking `parent` to a candidate that is the *same component
  // with the same factor bindings*. Two identically-configured instances of
  // one view hold the same data, so chaining them yields no additional
  // request reduction — permitting it would let the search stack caches to
  // multiply RRF for free (a degenerate optimum the paper's case study
  // never exhibits; Seattle's view chains to San Diego's because their
  // trust factors differ).
  bool duplicates_parent(InstanceId parent, const spec::ComponentDef* comp,
                         const FactorBindings& factors) const {
    if (parent == kNoParent) return false;
    const Working& p = placements_[parent];
    return p.component == comp && *p.factors == factors;
  }

  // Views extend the duplicate check to the entire requirement path: a
  // second identically-configured instance of one data view anywhere in the
  // chain holds the same cached contents, so it contributes no real request
  // reduction — even when a transparent tunnel sits between the two copies.
  bool view_duplicated_on_path(const spec::ComponentDef* comp,
                               const FactorBindings& factors) const {
    if (!comp->is_view()) return false;
    for (const auto& [path_comp, path_factors] : view_path_) {
      if (path_comp == comp && *path_factors == factors) return true;
    }
    return false;
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
    for (const PoolInterface::Implementer& pooled : iface.pooled) {
      try_existing(pooled, reqs, from, rate, parent, discount, committed,
                   sink);
    }

    // (b) Deploy a new component.
    if (iface.components == nullptr) return;
    for (const spec::ImplementerRef& ref : *iface.components) {
      for (net::NodeId node : candidate_nodes_) {
        try_new(*ref.component, *ref.linkage, node, *iface.name, reqs, from,
                rate, depth, parent, discount, committed, sink);
      }
    }
  }

  void try_existing(const PoolInterface::Implementer& pooled,
                    const Requirements& reqs, net::NodeId from, double rate,
                    InstanceId parent, double discount, double committed,
                    Sink sink) {
    const ExistingInstance& inst = existing_[pooled.index];
    ++stats_.candidates_examined;
    if (pooled.node_down) {
      ++stats_.rejected_node_down;
      return;
    }
    if (duplicates_parent(parent, inst.component, inst.factors) ||
        view_duplicated_on_path(inst.component, inst.factors)) {
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

    const net::Route* route_in = network_.cached_route(from, inst.node);
    if (route_in->bottleneck_bandwidth_bps == 0.0 && !route_in->local()) {
      ++stats_.rejected_unroutable;
      return;
    }
    const net::Route* route_back = network_.cached_route(inst.node, from);
    // The response path must be routable too: on an asymmetric topology a
    // candidate whose return route is severed would otherwise slip through
    // to property transformation over a dead route.
    if (route_back->bottleneck_bandwidth_bps == 0.0 && !route_back->local()) {
      ++stats_.rejected_unroutable;
      return;
    }

    // §3.3 condition 2 against the instance's stored effective properties.
    for (const auto& [prop, required] : reqs) {
      spec::PropertyValue v;
      auto vit = pooled.props->find(prop);
      if (vit != pooled.props->end()) v = vit->second;
      v = tables_.memo().transform(env_, spec_.rules, prop, v, *route_back,
                                   inst.node);
      if (!v.satisfies(required)) {
        ++stats_.rejected_compatibility;
        return;
      }
    }

    const double rtt = edge_rtt(from, inst.node, *route_in, *inst.component);

    // Bound: reusing an instance commits this edge's RTT plus the instance's
    // (exactly known) downstream latency; it adds no deployment cost, and
    // for capacity only the inbound links tighten.
    if (bound_pruning_) {
      double bound = -kInfinity;
      switch (request_.objective) {
        case Objective::kMinLatency:
          bound = committed + discount * (rtt + inst.downstream_latency_s);
          break;
        case Objective::kMinDeploymentCost:
          bound = committed_cost_;
          break;
        case Objective::kMaxCapacity: {
          double u = committed;
          const double add_bps =
              rate *
              static_cast<double>(
                  inst.component->behaviors.bytes_per_request +
                  inst.component->behaviors.bytes_per_response) *
              8.0;
          for (net::LinkId lid : route_in->links) {
            const net::Link& link = network_.link(lid);
            u = std::max(u, (link_load_[lid.value] + add_bps) /
                                link.bandwidth_available_bps());
          }
          bound = u - 1.0;
          break;
        }
      }
      if (should_prune(bound)) {
        ++stats_.pruned_by_bound;
        return;
      }
    }

    // §3.3 condition 3 for the new edge.
    if (!reserve_route(*route_in, inst.component->behaviors, rate)) {
      ++stats_.rejected_link_capacity;
      return;
    }

    const bool created = placed_existing_[pooled.index] == kNotPlaced;
    if (created) {
      placed_existing_[pooled.index] =
          static_cast<InstanceId>(placements_.size());
      placements_.push_back(Working{inst.component, inst.node, &inst.factors,
                                    &inst.effective,
                                    inst.downstream_latency_s, 0.0, &inst});
    }
    const InstanceId pid = placed_existing_[pooled.index];
    placements_[pid].inbound_rate_rps += rate;
    existing_added_rps_[pooled.index] += rate;

    // An existing instance is warm on both tracks.
    sink(pid, rtt + inst.downstream_latency_s,
         rtt + inst.downstream_latency_s);

    // Undo.
    existing_added_rps_[pooled.index] -= rate;
    placements_[pid].inbound_rate_rps -= rate;
    if (created) {
      placed_existing_[pooled.index] = kNotPlaced;
      placements_.pop_back();
    }
    release_route(*route_in, inst.component->behaviors, rate);
  }

  void try_new(const spec::ComponentDef& comp, const spec::LinkageDecl& impl,
               net::NodeId node, const std::string& iface,
               const Requirements& reqs, net::NodeId from, double rate,
               std::size_t depth, InstanceId parent, double discount,
               double committed, Sink sink) {
    ++stats_.candidates_examined;
    Candidate& c = tables_.candidate(comp, node);

    // A crashed/down node hosts nothing new.
    if (c.verdict == Candidate::Verdict::kNodeDown) {
      ++stats_.rejected_node_down;
      return;
    }

    // Static components only participate through pre-placed instances.
    if (c.verdict == Candidate::Verdict::kStatic) {
      ++stats_.rejected_static;
      return;
    }

    // Cycle guard: never place the same component twice on the same node
    // along one requirement path.
    if (std::find(path_.begin(), path_.end(),
                  std::make_pair(&comp, node.value)) != path_.end()) {
      ++stats_.rejected_cycle;
      return;
    }

    // §3.3 condition 1: installation conditions.
    if (c.verdict == Candidate::Verdict::kCondition) {
      ++stats_.rejected_condition;
      return;
    }

    // An unbindable factor: infeasible here.
    if (c.verdict == Candidate::Verdict::kFactor) {
      ++stats_.rejected_factor;
      return;
    }
    if (duplicates_parent(parent, &comp, c.factors) ||
        view_duplicated_on_path(&comp, c.factors)) {
      ++stats_.rejected_duplicate_view;
      return;
    }

    const net::Route* route_in = network_.cached_route(from, node);
    if (route_in->bottleneck_bandwidth_bps == 0.0 && !route_in->local()) {
      ++stats_.rejected_unroutable;
      return;
    }
    const net::Route* route_back = network_.cached_route(node, from);

    // Early filter for §3.3 condition 2: a *declared* value that fails its
    // requirement can only be rescued by a modification rule; without a rule
    // for the property, prune before recursing.
    const std::vector<Candidate::FixedValue>& fixed =
        c.fixed[static_cast<std::size_t>(&impl - comp.implements.data())];
    for (const auto& [prop, required] : reqs) {
      for (const Candidate::FixedValue& declared : fixed) {
        if (*declared.property != prop) continue;
        if (!declared.value.satisfies(required)) {
          ++stats_.rejected_compatibility;
          return;
        }
        break;
      }
    }

    // §3.3 condition 3: node CPU, component capacity, inbound link load.
    const double cpu_add = rate * comp.behaviors.cpu_per_request;
    const net::Node& host = *c.host;
    if (node_load_[node.value] + cpu_add > host.cpu_available()) {
      ++stats_.rejected_node_capacity;
      return;
    }
    if (comp.behaviors.capacity_rps > 0.0 &&
        rate > comp.behaviors.capacity_rps) {
      ++stats_.rejected_instance_capacity;
      return;
    }

    const double cpu_time_s =
        comp.behaviors.cpu_per_request / host.cpu_capacity;
    const double rtt = edge_rtt(from, node, *route_in, comp);
    // Cold-cache discount for newly deployed views (see PlanRequest).
    const double warm_rrf = comp.behaviors.rrf;
    double padded_rrf = warm_rrf;
    if (comp.is_view()) {
      padded_rrf =
          std::min(1.0, warm_rrf +
                            request_.cold_view_penalty * (1.0 - warm_rrf));
    }

    // Bound: every completion through this candidate pays at least the work
    // already committed plus this edge's RTT and CPU time — all remaining
    // contributions are non-negative, so pruning here is admissible.
    double child_committed = committed;
    double cost_add = 0.0;
    if (bound_pruning_) {
      double bound = -kInfinity;
      switch (request_.objective) {
        case Objective::kMinLatency:
          child_committed = committed + discount * (rtt + cpu_time_s);
          bound = child_committed;
          break;
        case Objective::kMinDeploymentCost:
          cost_add = 1.0 + code_transfer_cost(comp, node);
          bound = committed_cost_ + cost_add;
          break;
        case Objective::kMaxCapacity: {
          double u = committed;
          const double avail = host.cpu_available();
          if (cpu_add > 0.0 && avail > 0.0) {
            u = std::max(u, (node_load_[node.value] + cpu_add) / avail);
          }
          const double add_bps =
              rate *
              static_cast<double>(comp.behaviors.bytes_per_request +
                                  comp.behaviors.bytes_per_response) *
              8.0;
          for (net::LinkId lid : route_in->links) {
            const net::Link& link = network_.link(lid);
            u = std::max(u, (link_load_[lid.value] + add_bps) /
                                link.bandwidth_available_bps());
          }
          if (comp.behaviors.capacity_rps > 0.0) {
            u = std::max(u, rate / comp.behaviors.capacity_rps);
          }
          child_committed = u;
          bound = u - 1.0;
          break;
        }
      }
      if (should_prune(bound)) {
        ++stats_.pruned_by_bound;
        return;
      }
    }

    if (!reserve_route(*route_in, comp.behaviors, rate)) {
      ++stats_.rejected_link_capacity;
      return;
    }
    node_load_[node.value] += cpu_add;
    path_.emplace_back(&comp, node.value);
    if (comp.is_view()) view_path_.emplace_back(&comp, &c.factors);
    committed_cost_ += cost_add;

    // The placement's effective properties, recomputed for each set of
    // children.
    EffectiveProps effective;
    const InstanceId pid = static_cast<InstanceId>(placements_.size());
    placements_.push_back(
        Working{&comp, node, &c.factors, &effective, 0.0, rate, nullptr});

    satisfy_children(
        c, comp, pid, node, rate * padded_rrf, depth, 0, 0.0, 0.0,
        discount * padded_rrf, child_committed,
        [&](double children_padded_s, double children_warm_s) {
          Working& self = placements_[pid];
          self.expected_latency_s = cpu_time_s + warm_rrf * children_warm_s;
          const double padded_latency_s =
              cpu_time_s + padded_rrf * children_padded_s;
          effective = compute_effective(comp, *c.env, c.factors, pid);

          // §3.3 condition 2 in full: effective properties, degraded along
          // the route back to the consumer, must satisfy the requirements.
          auto eff_it = effective.find(iface);
          PSF_CHECK(eff_it != effective.end());
          for (const auto& [prop, required] : reqs) {
            spec::PropertyValue v;
            auto vit = eff_it->second.find(prop);
            if (vit != eff_it->second.end()) v = vit->second;
            v = tables_.memo().transform(env_, spec_.rules, prop, v,
                                         *route_back, node);
            if (!v.satisfies(required)) {
              ++stats_.rejected_compatibility;
              return;
            }
          }

          sink(pid, rtt + padded_latency_s, rtt + self.expected_latency_s);
        });

    // Undo (children are fully undone by their own frames).
    PSF_CHECK(placements_.size() == static_cast<std::size_t>(pid) + 1);
    placements_.pop_back();
    committed_cost_ -= cost_add;
    if (comp.is_view()) view_path_.pop_back();
    path_.pop_back();
    node_load_[node.value] -= cpu_add;
    release_route(*route_in, comp.behaviors, rate);
  }

  // Satisfies comp.requires_[index..) in declaration order; when all are
  // placed, calls done(total_cost) where total_cost = Σ over children of
  // (edge rtt + child subtree latency). `child_discount` / `base_committed`
  // carry the bound (see satisfy); completed sibling edges enter the
  // committed value as they accumulate in `padded_so_far`.
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

    double committed_here = base_committed;
    if (request_.objective == Objective::kMinLatency) {
      committed_here = base_committed + child_discount * padded_so_far;
    }

    satisfy(*edge.iface, edge.reqs, node, child_rate, depth + 1, parent,
            child_discount, committed_here,
            [&](InstanceId child_root, double edge_padded_s,
                double edge_warm_s) {
              const net::NodeId child_node = placements_[child_root].node;
              wires_.push_back(WorkingWire{
                  parent, edge.iface->name, child_root,
                  network_.cached_route(node, child_node), child_rate});
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

  // The effective properties of new placement `self` of `comp`: declared
  // values, and for a transparent component each undeclared property
  // inherited from its children (the servers of its wires, in requirement
  // order) as the minimum of the child's effective value transformed along
  // the route to `self`.
  EffectiveProps compute_effective(const spec::ComponentDef& comp,
                                   const spec::Environment& node_env,
                                   const FactorBindings& factors,
                                   InstanceId self) {
    const net::NodeId node = placements_[self].node;
    EffectiveProps out;
    for (const spec::LinkageDecl& decl : comp.implements) {
      const spec::InterfaceDef* iface =
          spec_.find_interface(decl.interface_name);
      PSF_CHECK(iface != nullptr);
      auto& props = out[decl.interface_name];
      for (const std::string& prop : iface->properties) {
        spec::PropertyValue value;
        if (auto expr = decl.value_of(prop)) {
          value = resolve_value(*expr, node_env, factors);
        } else if (comp.transparent) {
          spec::PropertyValue inherited;
          bool first = true;
          for (const WorkingWire& wire : wires_) {
            if (wire.client != self) continue;
            const Working& child = placements_[wire.server];
            spec::PropertyValue cv;
            for (const auto& [child_iface, child_props] : *child.effective) {
              auto pit = child_props.find(prop);
              if (pit != child_props.end()) {
                cv = pit->second;
                break;
              }
            }
            cv = tables_.memo().transform(
                env_, spec_.rules, prop, cv,
                *network_.cached_route(child.node, node), child.node);
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
    return out;
  }

  // ---- plan completion ------------------------------------------------

  void finish_plan(InstanceId root, double padded_s, double warm_s) {
    ++stats_.plans_scored;
    PlanMetrics metrics;
    // Report the warm (steady-state) expectation; score with the padded
    // value so cold-cache effects influence the choice.
    metrics.expected_latency_s = warm_s;

    double headroom = 1.0;
    for (const Working& p : placements_) {
      if (p.existing != nullptr) {
        ++metrics.reused_components;
        continue;
      }
      ++metrics.new_components;
      metrics.deployment_cost_s += code_transfer_cost(*p.component, p.node);
      if (p.component->behaviors.capacity_rps > 0.0) {
        headroom = std::min(headroom,
                            1.0 - p.inbound_rate_rps /
                                      p.component->behaviors.capacity_rps);
      }
    }
    for (std::size_t i = 0; i < node_load_.size(); ++i) {
      if (node_load_[i] <= 0.0) continue;
      const net::Node& n =
          network_.node(net::NodeId{static_cast<std::uint32_t>(i)});
      const double u = node_load_[i] / n.cpu_available();
      metrics.max_node_utilization = std::max(metrics.max_node_utilization, u);
      headroom = std::min(headroom, 1.0 - u);
    }
    for (std::size_t i = 0; i < link_load_.size(); ++i) {
      if (link_load_[i] <= 0.0) continue;
      const net::Link& l =
          network_.link(net::LinkId{static_cast<std::uint32_t>(i)});
      const double u = link_load_[i] / l.bandwidth_available_bps();
      metrics.max_link_utilization = std::max(metrics.max_link_utilization, u);
      headroom = std::min(headroom, 1.0 - u);
    }
    metrics.min_headroom = headroom;

    PlanMetrics scoring = metrics;
    scoring.expected_latency_s = padded_s;
    const Score score = score_plan(request_.objective, scoring);
    if (best_ && !(score < best_score_)) return;

    DeploymentPlan plan;
    plan.placements.reserve(placements_.size());
    for (const Working& w : placements_) {
      Placement& p = plan.placements.emplace_back();
      p.id = static_cast<InstanceId>(plan.placements.size() - 1);
      p.component = w.component;
      p.node = w.node;
      p.factors = *w.factors;
      p.effective = *w.effective;
      p.expected_latency_s = w.expected_latency_s;
      p.inbound_rate_rps = w.inbound_rate_rps;
      if (w.existing != nullptr) {
        p.reuse_existing = true;
        p.existing_runtime_id = w.existing->runtime_id;
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

  const spec::ServiceSpec& spec_;
  const EnvironmentView& env_;
  const net::Network& network_;
  const spec::ImplementerIndex& index_;
  PlanTables& tables_;
  const PlanRequest& request_;
  const std::vector<ExistingInstance>& existing_;
  const double incumbent_;
  SearchStats& stats_;
  const bool bound_pruning_;
  const std::vector<net::NodeId>& candidate_nodes_;

  // Working state (mutated along the DFS, undone on backtrack).
  std::vector<Working> placements_;
  std::vector<WorkingWire> wires_;
  std::vector<double> node_load_;  // added cpu units/s per node
  std::vector<double> link_load_;  // added bps per link
  std::vector<double> existing_added_rps_;
  // By pool position: the placement reusing that instance, or kNotPlaced.
  std::vector<InstanceId> placed_existing_;
  // (component, node) pairs along the current requirement path, for the
  // cycle guard; at most max_depth long.
  std::vector<std::pair<const spec::ComponentDef*, std::uint32_t>> path_;
  // Views along the current requirement path, with their factor bindings.
  std::vector<std::pair<const spec::ComponentDef*, const FactorBindings*>>
      view_path_;
  // Committed (1 + code-transfer cost) of the current partial plan's new
  // placements — the kMinDeploymentCost bound.
  double committed_cost_ = 0.0;

  // The edge-RTT memo: node id → slot, and one row per `from` slot of
  // (`to` slot × component) cells, NaN until computed.
  std::vector<std::uint32_t> rtt_slot_;
  std::vector<std::vector<double>> rtt_rows_;

  std::optional<DeploymentPlan> best_;
  Score best_score_;
};

// One restricted search the driver runs: NEW components land only on
// `candidates` (existing instances are reachable wherever they live).
// `lower_bound` is admissible for the primary score of every plan only this
// unit can express; -inf means the unit has no bound and is never skipped.
struct SearchUnit {
  std::vector<net::NodeId> candidates;
  double lower_bound = -kInfinity;
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
DriveResult drive_search(const spec::ServiceSpec& spec,
                         const EnvironmentView& env,
                         const spec::ImplementerIndex& index,
                         const PlanRequest& request,
                         const std::vector<ExistingInstance>& existing,
                         const std::vector<SearchUnit>& units) {
  DriveResult out;
  PlanTables tables(spec, env, index, existing);
  Score incumbent;
  for (const SearchUnit& unit : units) {
    if (request.bound_pruning &&
        beyond_incumbent(unit.lower_bound, incumbent.primary)) {
      ++out.units_skipped;
      continue;
    }
    ++out.units_searched;
    Search search(spec, env, index, tables, request, existing,
                  incumbent.primary, out.stats, unit.candidates);
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

const char* objective_name(Objective o) {
  switch (o) {
    case Objective::kMinLatency: return "min-latency";
    case Objective::kMinDeploymentCost: return "min-deployment-cost";
    case Objective::kMaxCapacity: return "max-capacity";
  }
  return "?";
}

const char* search_mode_name(SearchMode m) {
  switch (m) {
    case SearchMode::kAuto: return "auto";
    case SearchMode::kFlat: return "flat";
    case SearchMode::kHierarchical: return "hierarchical";
  }
  return "?";
}

double plan_primary_score(Objective objective, const PlanMetrics& metrics) {
  return score_plan(objective, metrics).primary;
}

Planner::Planner(const spec::ServiceSpec& spec, const EnvironmentView& env)
    : spec_(spec), env_(env), iface_index_(spec.build_implementer_index()) {}

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
      drive_search(spec_, env_, iface_index_, request, existing, units);
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
      drive_search(spec_, env_, iface_index_, request, existing, units);
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
