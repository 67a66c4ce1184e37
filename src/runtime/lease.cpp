#include "runtime/lease.hpp"

#include "util/logging.hpp"

namespace psf::runtime {

LeaseManager::LeaseManager(SmockRuntime& runtime, NetworkMonitor& monitor,
                           net::NodeId registry, LeaseParams params)
    : runtime_(runtime),
      monitor_(monitor),
      registry_(registry),
      params_(params) {
  PSF_CHECK(params_.heartbeat.nanos() > 0);
  PSF_CHECK(params_.grace.nanos() >= 0);
  PSF_CHECK(params_.sweep.nanos() > 0);
  heartbeat_timer_ = std::make_unique<sim::PeriodicTimer>(
      runtime_.simulator(), params_.heartbeat, [this] { heartbeat_tick(); });
  sweep_timer_ = std::make_unique<sim::PeriodicTimer>(
      runtime_.simulator(), params_.sweep, [this] { sweep_tick(); });
}

void LeaseManager::watch(net::NodeId node) {
  Lease lease;
  lease.last_renewal = runtime_.simulator().now();
  leases_.insert_or_assign(node.value, lease);
}

void LeaseManager::watch_all() {
  for (net::NodeId node : runtime_.network().all_nodes()) watch(node);
}

void LeaseManager::start() {
  if (running_) return;
  running_ = true;
  // Fresh grant on (re)start so a long pre-start simulation does not count
  // against the first renewal window.
  const sim::Time now = runtime_.simulator().now();
  for (auto& [id, lease] : leases_) lease.last_renewal = now;
  heartbeat_timer_->start();
  sweep_timer_->start();
}

void LeaseManager::stop() {
  if (!running_) return;
  running_ = false;
  heartbeat_timer_->stop();
  sweep_timer_->stop();
}

bool LeaseManager::watched(net::NodeId node) const {
  return leases_.count(node.value) != 0;
}

bool LeaseManager::lease_active(net::NodeId node) const {
  auto it = leases_.find(node.value);
  return it != leases_.end() && it->second.active;
}

void LeaseManager::note_crash(net::NodeId node, sim::Time at) {
  auto it = leases_.find(node.value);
  if (it == leases_.end()) return;
  it->second.crash_noted = true;
  it->second.crashed_at = at;
}

void LeaseManager::heartbeat_tick() {
  for (auto& [id, lease] : leases_) {
    const net::NodeId node{id};
    if (!runtime_.network().node_up(node)) {
      // Nothing runs on a crashed node; its wrapper cannot renew.
      ++heartbeats_lost_;
      continue;
    }
    ++heartbeats_sent_;
    runtime_.send_bytes(
        node, registry_, params_.heartbeat_bytes,
        [this, id = id] {
          if (!runtime_.network().node_up(net::NodeId{id})) {
            // Stale heartbeat: sent while the node was up, delivered after it
            // crashed. Renewing here would reactivate the lease and make the
            // observer chain see a phantom recovery plus a SECOND expiry for
            // the same crash.
            ++heartbeats_lost_;
            return;
          }
          ++heartbeats_delivered_;
          auto it = leases_.find(id);
          if (it == leases_.end()) return;
          Lease& renewed = it->second;
          renewed.last_renewal = runtime_.simulator().now();
          // A live renewal ends any crash the sweep has not detected: the
          // node revived within its lease, so no later expiry (a partition,
          // say) may be charged to that crash.
          renewed.crash_noted = false;
          if (!renewed.active) {
            // A renewal from a node declared dead: the partition healed.
            renewed.active = true;
            ++recoveries_;
            PSF_INFO() << "lease for node "
                       << runtime_.network().node(net::NodeId{id}).name
                       << " reactivated by late renewal";
          }
        },
        [this](TransportError) { ++heartbeats_lost_; });
  }
}

void LeaseManager::sweep_tick() {
  const sim::Time now = runtime_.simulator().now();
  for (auto& [id, lease] : leases_) {
    if (!lease.active) continue;
    if (now - lease.last_renewal <= lease_duration()) continue;
    lease.active = false;
    const net::NodeId node{id};
    expirations_.push_back({node, now});
    if (lease.crash_noted) {
      detection_ms_.add((now - lease.crashed_at).millis());
      lease.crash_noted = false;
    }
    PSF_INFO() << "lease for node " << runtime_.network().node(node).name
               << " expired at " << now.millis() << "ms; reporting failure";
    monitor_.report_node_failure(node);
  }
}

}  // namespace psf::runtime
