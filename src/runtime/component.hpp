// Runtime component base class and the component factory registry.
//
// The registry is this reproduction's substitute for Java dynamic class
// loading (the paper's Smock runs on JDK 1.3 and "benefits from [Java's]
// support for dynamic class loading, verification, and installation").
// C++ has no runtime reflection, so "mobile code" is modeled as: every
// component type registers a named factory at program start; deploying a
// component to a node charges its declared code size over the network, then
// instantiates through the factory. Placement, wiring, lifecycle and cost
// semantics are preserved; only the byte-level code shipping is elided.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "net/network.hpp"
#include "planner/plan.hpp"
#include "runtime/message.hpp"
#include "spec/model.hpp"
#include "util/status.hpp"

namespace psf::sim {
class Simulator;
}

namespace psf::runtime {

class SmockRuntime;

using RuntimeInstanceId = std::uint64_t;

// A component's exported state, moved across nodes during live migration.
// `body` is the same type-erased payload Request carries, so state rides the
// existing message machinery; `bytes` is what the transfer costs on the
// wire (0 = free, e.g. a stateless component that still wants the hooks).
struct StateSnapshot {
  std::uint64_t bytes = 0;
  std::shared_ptr<const MessageBody> body;
};

// The runtime holds every component by shared_ptr, and call()/charge_cpu()
// hand each continuation they schedule a share of it: an uninstalled
// component stays alive exactly until its last in-flight continuation has
// run, so a handler capturing `this` never touches freed memory.
class Component : public std::enable_shared_from_this<Component> {
 public:
  virtual ~Component() = default;

  // Lifecycle hooks, invoked by the node wrapper after installation/on
  // teardown.
  virtual void on_start() {}
  virtual void on_stop() {}

  // Live-migration hooks. SmockRuntime::transfer_state, which the
  // adaptation controller's cutover calls for each replaced instance, calls
  // them in order on the OLD instance: prepare_migration (quiesce — flush
  // coherence queues, finish write-backs; MUST eventually invoke done),
  // then export_state. import_state runs on the NEW instance after its
  // on_start, so directory registrations made there already exist when the
  // state lands; implementations should MERGE (imported state + anything
  // absorbed since start), not overwrite. Defaults model a stateless
  // component: nothing to quiesce, nothing to move.
  virtual void prepare_migration(std::function<void()> done) { done(); }
  virtual std::optional<StateSnapshot> export_state() { return std::nullopt; }
  virtual util::Status import_state(const StateSnapshot&) {
    return util::Status::ok();
  }

  // Handles one request. `done` may be invoked synchronously or after
  // further simulated work (downstream calls, CPU charges).
  virtual void handle_request(const Request& request,
                              ResponseCallback done) = 0;

 protected:
  // Issues a request along the wire bound to `iface` (set up by the
  // deployment engine per the plan). Fails the callback when unwired, and
  // with kDeadTarget once this component has been uninstalled.
  void call(const std::string& iface, Request request, ResponseCallback done);

  // Charges `units` of CPU on this component's node, then continues.
  void charge_cpu(double units, std::function<void()> then);

  sim::Simulator& simulator();
  const spec::ComponentDef& definition() const;
  const planner::FactorBindings& factors() const;
  net::NodeId node() const;
  RuntimeInstanceId self() const { return self_; }
  SmockRuntime& runtime();

 private:
  friend class SmockRuntime;
  SmockRuntime* runtime_ = nullptr;
  RuntimeInstanceId self_ = 0;
  // Cached at install: a retired component's late continuations still know
  // where to charge CPU after its Instance record is gone.
  net::NodeId node_;
};

class ComponentFactoryRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Component>()>;

  util::Status register_type(const std::string& component_name,
                             Factory factory) {
    if (factories_.count(component_name) != 0) {
      return util::already_exists("component type '" + component_name +
                                  "' already registered");
    }
    factories_[component_name] = std::move(factory);
    return util::Status::ok();
  }

  bool has(const std::string& component_name) const {
    return factories_.count(component_name) != 0;
  }

  util::Expected<std::unique_ptr<Component>> create(
      const std::string& component_name) const {
    auto it = factories_.find(component_name);
    if (it == factories_.end()) {
      return util::not_found("no factory registered for component type '" +
                             component_name + "'");
    }
    return it->second();
  }

 private:
  std::map<std::string, Factory> factories_;
};

}  // namespace psf::runtime
