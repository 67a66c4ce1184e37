// AdaptationController: the closed autonomic loop (ROADMAP item 2, after the
// Dearle/Kirby constraint-based management papers).
//
// The pieces it composes already exist — leases detect failures, the monitor
// broadcasts change events, epochs invalidate cached plans, the retry layer
// rebinds — but each recovery used to be "client replans from scratch". The
// controller closes the loop:
//
//   monitor event ──▶ classify violations against every tracked deployment
//                      (node death, link degradation past the plan-assumed
//                      latency/bandwidth, load over capacity, property drift)
//                 ──▶ Planner::repair — pin survivors, re-search only the
//                      affected cluster neighborhood (GenericServer::
//                      request_repair, so rebinding clients coalesce onto it)
//                 ──▶ live cutover — state transfers old→new through the
//                      coherence machinery (sync-then-cutover), the client's
//                      live entry is grafted onto the new chain, retired
//                      instances are evicted from the plan cache eagerly and
//                      uninstalled only after a drain window so in-flight
//                      requests complete (or fail into the retry layer).
//
// Rolling maintenance is the same loop with a synthetic violation:
// drain_node() treats a live node as dead for placement purposes, so every
// tracked deployment migrates off it without a single lost send.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "planner/planner.hpp"
#include "planner/validate.hpp"
#include "runtime/generic.hpp"
#include "runtime/monitor.hpp"
#include "runtime/smock.hpp"

namespace psf::runtime {

struct AdaptationParams {
  // How long a replaced instance keeps serving stragglers after cutover
  // before it is uninstalled. Anything arriving later gets kDeadTarget,
  // which the retry layer answers by rebinding.
  sim::Duration drain = sim::Duration::from_millis(500);
};

struct AdaptationEvent {
  sim::Time at;
  std::size_t tracked_index = 0;
  enum class Outcome {
    kStillValid,     // no violation touches this deployment
    kRepaired,       // repair planned, deployed, state moved, entry grafted
    kUnsatisfiable,  // no repair (nor full replan) exists
    kFailed,         // repair planned but deployment/cutover failed
  };
  Outcome outcome = Outcome::kStillValid;
  bool fell_back_to_full = false;  // restricted repair search was infeasible
  std::size_t state_transfers = 0;
  std::string detail;
};

const char* adaptation_outcome_name(AdaptationEvent::Outcome outcome);

struct AdaptationStats {
  std::uint64_t events_observed = 0;  // monitor change events seen
  std::uint64_t checks = 0;
  std::uint64_t repairs_triggered = 0;
  std::uint64_t repaired = 0;
  std::uint64_t unsatisfiable = 0;
  std::uint64_t failed = 0;
  std::uint64_t state_transfers = 0;   // successful old->new state moves
  std::uint64_t instances_retired = 0; // forgotten + drain-scheduled
  std::uint64_t drains_requested = 0;
};

class AdaptationController {
 public:
  // Subscribes to `monitor`; `service` must already be registered with
  // `server`. Every change event refreshes the environment and re-checks
  // all tracked deployments.
  AdaptationController(SmockRuntime& runtime, GenericServer& server,
                       NetworkMonitor& monitor, std::string service,
                       AdaptationParams params = {});

  AdaptationController(const AdaptationController&) = delete;
  AdaptationController& operator=(const AdaptationController&) = delete;

  // Tracks a live deployment (a bound client's AccessOutcome plus the
  // request that produced it). Returns its index.
  std::size_t track(AccessOutcome outcome, planner::PlanRequest request);

  std::size_t tracked_count() const { return tracked_.size(); }
  const planner::DeploymentPlan& current_plan(std::size_t index) const {
    return tracked_.at(index).outcome.plan;
  }
  const AccessOutcome& current_outcome(std::size_t index) const {
    return tracked_.at(index).outcome;
  }

  // Classifies violations and repairs every tracked deployment that is in
  // violation. Runs automatically on monitor events; callable directly.
  void check_now();

  // Rolling maintenance: treat `node` as unusable for placement (a
  // synthetic node-death violation) without crashing it, forget its pooled
  // instances, and migrate every tracked deployment off it live. The node
  // keeps serving until each drain window closes; undrain_node() ends the
  // maintenance. Idempotent while already draining.
  void drain_node(net::NodeId node);
  void undrain_node(net::NodeId node) { drained_.erase(node.value); }
  bool draining(net::NodeId node) const {
    return drained_.count(node.value) != 0;
  }

  const std::vector<AdaptationEvent>& events() const { return events_; }
  const AdaptationStats& stats() const { return stats_; }

 private:
  struct Tracked {
    AccessOutcome outcome;
    planner::PlanRequest request;
  };

  // Plan-relative violation classification for tracked_[index]. Returns the
  // violations that *touch* this deployment; `broken_backing` reports a
  // backing instance that died without any topology-visible violation
  // (e.g. uninstalled by another manager).
  std::vector<planner::RepairViolation> classify(std::size_t index,
                                                 bool* broken_backing) const;

  void maybe_repair(std::size_t index);
  void cutover(std::size_t index, AccessOutcome fresh, AdaptationEvent event);
  void finish_cutover(std::size_t index, AccessOutcome fresh,
                      AdaptationEvent event);
  void push_event(AdaptationEvent event);

  SmockRuntime& runtime_;
  GenericServer& server_;
  std::string service_;
  AdaptationParams params_;
  std::vector<Tracked> tracked_;
  // Runtime ids backing each tracked deployment, index-aligned with
  // tracked_[i].outcome.plan.placements.
  std::vector<std::vector<RuntimeInstanceId>> backing_;
  std::vector<char> repairing_;  // per-index: repair already in flight
  std::set<std::uint32_t> drained_;
  std::vector<AdaptationEvent> events_;
  AdaptationStats stats_;
  bool checking_ = false;  // a monitor storm must not recurse
};

}  // namespace psf::runtime
