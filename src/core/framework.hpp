// Framework facade — owns the full stack (simulator, network, Smock
// runtime, lookup service, generic server, network monitor) and exposes the
// paper's Fig. 1 timeline as a handful of calls:
//
//   Framework fw(std::move(network));
//   fw.register_service(mail::mail_registration(home), mail::mail_translator());
//   auto proxy = fw.make_proxy(client_node, "SecureMail", request_defaults);
//   proxy->invoke(...);          // binds on first use: plan + deploy
//   fw.run();                    // drive the simulation
//
// enable_adaptation() wires the §6 extension: an AdaptationController
// re-translates the service's environment view on every network-monitor
// event, so subsequent (re)planning sees fresh properties, and repairs any
// deployment tracked on it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "runtime/adaptation.hpp"
#include "runtime/generic.hpp"
#include "runtime/lease.hpp"
#include "runtime/lookup.hpp"
#include "runtime/monitor.hpp"
#include "runtime/retry.hpp"
#include "runtime/smock.hpp"
#include "sim/simulator.hpp"

namespace psf::core {

struct FrameworkOptions {
  // Hosts for the infrastructure services; default to node 0.
  net::NodeId lookup_node{0};
  net::NodeId server_node{0};
};

class Framework {
 public:
  explicit Framework(net::Network network, FrameworkOptions options = {});

  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return network_; }
  runtime::SmockRuntime& runtime() { return runtime_; }
  runtime::LookupService& lookup() { return lookup_; }
  runtime::GenericServer& server() { return server_; }
  runtime::NetworkMonitor& monitor() { return monitor_; }

  // Registers a service and drives the simulator until registration (and
  // initial placements) complete.
  util::Status register_service(
      runtime::ServiceRegistration registration,
      std::shared_ptr<const planner::CredentialMapTranslator> translator);

  std::unique_ptr<runtime::GenericProxy> make_proxy(
      net::NodeId client_node, const std::string& service,
      planner::PlanRequest defaults);

  // Creates an AdaptationController for `service` (which must already be
  // registered) and keeps it for the framework's lifetime. Every monitor
  // change re-translates the service's environment, so later planning sees
  // current properties; deployments tracked on the returned controller are
  // also checked and repaired.
  runtime::AdaptationController& enable_adaptation(const std::string& service);

  // Fault injection, oracle flavor: crashes every instance on `node`, marks
  // the node down, and immediately fires a kNodeFailure monitor event (the
  // system is *told* about the failure). Returns the lost instance ids.
  std::vector<runtime::RuntimeInstanceId> fail_node(net::NodeId node);

  // Fault injection, silent flavor: crashes the instances and marks the
  // node down, but reports nothing — the failure must be *detected* (lease
  // expiry via enable_failure_detection) before the adaptation chain runs.
  std::vector<runtime::RuntimeInstanceId> crash_node(net::NodeId node);

  // Brings a crashed node back up (its instances stay dead — recovery
  // redeploys). With failure detection running, the node's next heartbeat
  // renews its lease and reactivates it.
  void revive_node(net::NodeId node);

  // Starts Jini-style lease-based failure detection: every current node
  // holds a lease with the lookup service, renewed by heartbeats on the
  // simulated fabric, and expiries fire the monitor's observer chain. Call
  // AFTER register_service (the heartbeat timers keep the event queue
  // non-empty, so use run_for/run_until_condition afterwards, never run()).
  runtime::LeaseManager& enable_failure_detection(
      runtime::LeaseParams params = {});

  // Non-null once enable_failure_detection has run.
  runtime::LeaseManager* lease_manager() { return lease_.get(); }

  // Shared client-resilience counters; pass to GenericProxy::enable_retries
  // so every proxy in this world accumulates into one place.
  runtime::RetryTelemetry& retry_telemetry() { return retry_telemetry_; }

  // Simulation drivers.
  std::size_t run() { return sim_.run(); }
  std::size_t run_for(sim::Duration d) {
    return sim_.run_until(sim_.now() + d);
  }

  // Steps the simulation until `done()` holds, the event queue drains, or
  // `max` simulated time elapses — required whenever periodic activity
  // (coherence timers, monitors) keeps the queue permanently non-empty.
  bool run_until_condition(const std::function<bool()>& done,
                           sim::Duration max) {
    const sim::Time deadline = sim_.now() + max;
    while (!done()) {
      if (sim_.now() > deadline) return done();
      if (!sim_.step()) return done();
    }
    return true;
  }

 private:
  net::Network network_;
  sim::Simulator sim_;
  runtime::SmockRuntime runtime_;
  runtime::LookupService lookup_;
  runtime::GenericServer server_;
  runtime::NetworkMonitor monitor_;
  std::vector<std::unique_ptr<runtime::AdaptationController>> controllers_;
  std::unique_ptr<runtime::LeaseManager> lease_;
  runtime::RetryTelemetry retry_telemetry_;
};

}  // namespace psf::core
