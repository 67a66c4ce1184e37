// Lease-based failure detection (the Jini piece §3.2's Smock leaves out).
//
// Each watched node's wrapper holds a lease with the lookup service and
// renews it by sending a small heartbeat message to the registry host every
// `heartbeat` of simulated time. Heartbeats ride the real message fabric
// (send_bytes), so a crashed node stops renewing because nothing runs there,
// and a partitioned node stops renewing because its heartbeats cannot reach
// the registry — the detector cannot tell the two apart, which is exactly
// the Jini model: a node whose lease expires is treated as failed.
//
// A sweep timer on the registry side expires leases not renewed within
// `heartbeat + grace` and fires NetworkMonitor::report_node_failure, which
// drives the existing adaptation chain (GenericServer epoch bump + pool
// eviction, PlanCache invalidation, AdaptationController::check_now). If a
// renewal later arrives (a healed partition), the lease reactivates.
//
// Determinism: timers are plain simulator events; no RNG is involved. With
// detection disabled nothing is scheduled and runs are bit-identical to
// pre-lease behavior.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "runtime/monitor.hpp"
#include "runtime/smock.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace psf::runtime {

struct LeaseParams {
  // How often each node wrapper renews its lease.
  sim::Duration heartbeat = sim::Duration::from_millis(500);
  // Extra slack beyond one heartbeat before the lease expires: the lease
  // duration is heartbeat + grace, so a few delayed/dropped renewals are
  // tolerated before the node is declared dead.
  sim::Duration grace = sim::Duration::from_millis(1500);
  // Registry-side expiry sweep period.
  sim::Duration sweep = sim::Duration::from_millis(250);
  // Wire size of one renewal message.
  std::uint64_t heartbeat_bytes = 64;
};

class LeaseManager {
 public:
  struct Expiry {
    net::NodeId node;
    sim::Time at;
  };

  LeaseManager(SmockRuntime& runtime, NetworkMonitor& monitor,
               net::NodeId registry, LeaseParams params = {});

  LeaseManager(const LeaseManager&) = delete;
  LeaseManager& operator=(const LeaseManager&) = delete;

  // Grants a lease for `node` (renewed from now). watch_all covers every
  // node currently in the network.
  void watch(net::NodeId node);
  void watch_all();

  // Starts/stops the heartbeat + sweep timers. While running, the simulator
  // queue never drains — use run_until / run_until_condition, not run().
  void start();
  void stop();
  bool running() const { return running_; }

  const LeaseParams& params() const { return params_; }
  sim::Duration lease_duration() const {
    return params_.heartbeat + params_.grace;
  }

  bool watched(net::NodeId node) const;
  bool lease_active(net::NodeId node) const;

  // Instrumentation hook for fault injectors: records when `node` actually
  // crashed so the expiry that detects it can log detection latency.
  void note_crash(net::NodeId node, sim::Time at);

  // Every expiry fired so far, in detection order. A node that expires,
  // recovers, and expires again appears twice.
  const std::vector<Expiry>& expirations() const { return expirations_; }
  std::uint64_t heartbeats_sent() const { return heartbeats_sent_; }
  std::uint64_t heartbeats_delivered() const { return heartbeats_delivered_; }
  std::uint64_t heartbeats_lost() const { return heartbeats_lost_; }
  std::uint64_t recoveries() const { return recoveries_; }
  // Crash-to-expiry latency samples (only for expiries with a note_crash).
  const util::SampleSet& detection_latency_ms() const {
    return detection_ms_;
  }

 private:
  struct Lease {
    sim::Time last_renewal;
    bool active = true;
    // Set by note_crash; consumed by the expiry that detects it, or cleared
    // by a renewal that proves the node came back before any expiry.
    bool crash_noted = false;
    sim::Time crashed_at;
  };

  void heartbeat_tick();
  void sweep_tick();

  SmockRuntime& runtime_;
  NetworkMonitor& monitor_;
  net::NodeId registry_;
  LeaseParams params_;
  std::map<std::uint32_t, Lease> leases_;  // keyed by node id
  std::unique_ptr<sim::PeriodicTimer> heartbeat_timer_;
  std::unique_ptr<sim::PeriodicTimer> sweep_timer_;
  bool running_ = false;
  std::vector<Expiry> expirations_;
  std::uint64_t heartbeats_sent_ = 0;
  std::uint64_t heartbeats_delivered_ = 0;
  std::uint64_t heartbeats_lost_ = 0;
  std::uint64_t recoveries_ = 0;
  util::SampleSet detection_ms_;
};

}  // namespace psf::runtime
