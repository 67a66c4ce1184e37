// The Smock runtime core (§3.2): component instances on simulated nodes,
// request routing with full network cost accounting, node wrappers for
// remote installation, and per-node/per-link contention.
//
// Cost model:
//  - a message from node A to node B follows the latency-shortest route;
//    each link is store-and-forward: the message waits for the link to be
//    free, occupies it for bytes*8/bandwidth, then incurs the propagation
//    latency (half-duplex per link — a deliberate simplification that
//    slightly overestimates contention, noted in DESIGN.md);
//  - handling a request charges the component's cpu_per_request on the
//    hosting node's serial CPU (FIFO); components may charge extra CPU for
//    work like encryption.
//
// Determinism: everything is driven by the discrete-event simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "planner/plan.hpp"
#include "runtime/component.hpp"
#include "runtime/message.hpp"
#include "sim/simulator.hpp"
#include "spec/model.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace psf::runtime {

struct InstanceStats {
  std::uint64_t requests_handled = 0;
  std::uint64_t requests_forwarded = 0;
};

struct Instance {
  RuntimeInstanceId id = 0;
  const spec::ComponentDef* def = nullptr;
  net::NodeId node;
  planner::FactorBindings factors;
  planner::EffectiveProps effective;     // from the plan that created it
  double downstream_latency_s = 0.0;     // expected latency behind this
  double reserved_load_rps = 0.0;        // planner reservations
  bool started = false;
  // Crashed instances are tombstoned, not freed: simulator events may still
  // hold continuations into the component object. A tombstone is invisible
  // to exists()/instances_on() and rejects new work, but keeps the object
  // alive for stragglers (the cost: crashed objects persist for the run).
  bool crashed = false;
  // Shared with the component's in-flight continuations (see Component), so
  // uninstall frees the object only once the last of them has run.
  std::shared_ptr<Component> component;
  std::map<std::string, RuntimeInstanceId> wires;  // iface -> server
  InstanceStats stats;
};

struct RuntimeStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_transferred = 0;
  std::uint64_t installs = 0;
  std::uint64_t requests_delivered = 0;
  // Remote installs that skipped the code transfer because the node already
  // staged this component's code from an earlier install.
  std::uint64_t code_cache_hits = 0;
  // Fault accounting: messages that found no live route at send time, and
  // messages lost mid-route (hop over a down link, or a loss draw).
  std::uint64_t messages_unroutable = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t invoke_timeouts = 0;
  // State bytes transfer_state moved between nodes.
  std::uint64_t state_transfer_bytes = 0;
};

class SmockRuntime {
 public:
  // The contention trackers grow on demand, so nodes/links may be added to
  // the network after the runtime is constructed.
  SmockRuntime(sim::Simulator& simulator, net::Network& network)
      : sim_(simulator), network_(network) {}

  SmockRuntime(const SmockRuntime&) = delete;
  SmockRuntime& operator=(const SmockRuntime&) = delete;

  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return network_; }
  ComponentFactoryRegistry& factories() { return factories_; }
  const RuntimeStats& stats() const { return stats_; }

  // ---- node wrapper operations (remote installation) ----------------------

  // Installs a component instance on `node`: transfers its code from
  // `code_origin` (skipped when local), instantiates via the factory
  // registry, and reports the new instance id. The instance is not started.
  void install(const spec::ComponentDef& def, net::NodeId node,
               planner::FactorBindings factors, net::NodeId code_origin,
               std::function<void(util::Expected<RuntimeInstanceId>)> done);

  // Binds `client`'s required interface `iface` to `server`.
  util::Status wire(RuntimeInstanceId client, const std::string& iface,
                    RuntimeInstanceId server);

  util::Status start(RuntimeInstanceId id);
  util::Status stop(RuntimeInstanceId id);

  // Tears an instance down (stop + remove). Wires pointing at it dangle and
  // fail subsequent calls — redeployment must rewire first.
  util::Status uninstall(RuntimeInstanceId id);

  // ---- live migration (ROADMAP item 2) ------------------------------------

  // Moves `from`'s component state to `to`: prepare_migration on the old
  // component (quiesce/flush), export_state, ship the snapshot bytes over
  // the network, import_state on the new component. Both instances must be
  // live; `to` should already be started so its on_start registrations
  // exist when the state lands. `done` receives the import status (ok with
  // zero bytes moved when the component exports no state).
  void transfer_state(RuntimeInstanceId from, RuntimeInstanceId to,
                      std::function<void(util::Status)> done);

  // Fault injection: crashes a node — every instance hosted there is torn
  // down (without orderly on_stop: a crash, not a shutdown) and the ids are
  // returned. Requests in flight toward those instances fail at delivery.
  std::vector<RuntimeInstanceId> crash_node(net::NodeId node);

  bool exists(RuntimeInstanceId id) const {
    auto it = instances_.find(id);
    return it != instances_.end() && !it->second.crashed;
  }
  // True when the instance (or anything it calls, transitively) holds a wire
  // to a crashed or removed instance. Such an instance is alive but cannot
  // serve forwarded requests; plans must not hand it out for reuse.
  bool has_dangling_wires(RuntimeInstanceId id) const;
  Instance& instance(RuntimeInstanceId id);
  const Instance& instance(RuntimeInstanceId id) const;
  std::vector<RuntimeInstanceId> instances_on(net::NodeId node) const;
  // Every live (non-tombstoned) instance id, ascending — for diagnostics
  // that scan components regardless of which node or service owns them.
  std::vector<RuntimeInstanceId> instance_ids() const {
    std::vector<RuntimeInstanceId> out;
    for (const auto& [id, inst] : instances_) {
      if (!inst.crashed) out.push_back(id);
    }
    return out;
  }
  std::size_t instance_count() const { return instances_.size(); }

  // ---- request routing ---------------------------------------------------

  // Component-to-component call along a wire.
  void call(RuntimeInstanceId from, const std::string& iface, Request request,
            ResponseCallback done);

  // Call into an instance from an arbitrary node (client applications and
  // proxies use this).
  void invoke_from_node(net::NodeId from, RuntimeInstanceId target,
                        Request request, ResponseCallback done);

  // As above, with a delivery deadline: if no response lands within
  // `timeout`, the callback fires exactly once with a TransportError::
  // kTimeout response (any late real response is discarded). A zero timeout
  // means no deadline, identical to the overload above.
  void invoke_from_node(net::NodeId from, RuntimeInstanceId target,
                        Request request, ResponseCallback done,
                        sim::Duration timeout);

  // Seeds the RNG behind per-hop loss draws. The RNG is consulted only on
  // links with loss > 0, so runs without lossy links never draw from it and
  // stay bit-identical regardless of the seed.
  void set_fault_seed(std::uint64_t seed) { fault_rng_ = util::Rng(seed); }

  // ---- low-level cost primitives ------------------------------------------

  // Moves `bytes` from `from` to `to` over the network, invoking `delivered`
  // when the last hop completes. Local (from == to) delivery is immediate.
  // Link state and loss are consulted hop by hop: a message whose next hop
  // is down (or loses the loss draw) is dropped, reported through `dropped`
  // when provided (kUnreachable: no live route at send time; kDropped: lost
  // mid-route). With a null `dropped`, losses are silent — legacy behavior.
  void send_bytes(net::NodeId from, net::NodeId to, std::uint64_t bytes,
                  std::function<void()> delivered,
                  std::function<void(TransportError)> dropped = nullptr);

  // Serial CPU of a node: runs `done` after `units` of CPU complete, queuing
  // behind earlier work on the same node.
  void charge_cpu(net::NodeId node, double units, std::function<void()> done);

  // Reserves `lid` for a `bytes`-sized message starting no earlier than now;
  // returns the simulated time the message reaches the far end (queueing +
  // serialization + propagation). Exposed for the transfer walker and tests.
  sim::Time reserve_link(net::LinkId lid, std::uint64_t bytes);

 private:
  void deliver(RuntimeInstanceId target, Request request,
               net::NodeId reply_to, ResponseCallback done);

  sim::Simulator& sim_;
  net::Network& network_;
  ComponentFactoryRegistry factories_;
  std::map<RuntimeInstanceId, Instance> instances_;
  RuntimeInstanceId next_id_ = 1;
  std::vector<sim::Time> node_cpu_free_;
  std::vector<sim::Time> link_free_;
  RuntimeStats stats_;
  // Seeded RNG for per-hop loss draws; untouched unless some link has
  // loss > 0 (see set_fault_seed).
  util::Rng fault_rng_{0x5AFEC0DEDB01DFULL};
  // Component code staged per node by earlier installs: (node, component
  // name). A repeat install transfers only a zero-byte control round — the
  // node wrapper keeps the code on disk. Cleared per node on crash.
  std::set<std::pair<std::uint32_t, std::string>> code_present_;
};

}  // namespace psf::runtime
