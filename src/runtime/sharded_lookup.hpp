// Sharded attribute-based lookup (a scale-out of §3.2's registry).
//
// A single LookupService registry anchored at one node becomes the
// bottleneck (and single point of failure) once clients number in the
// hundreds of thousands. ShardedLookupService spreads the registry over N
// shard hosts:
//
//   - service -> owner shard via rendezvous (highest-random-weight)
//     hashing, so adding a shard re-homes only ~1/(N+1) of the services;
//   - clients talk to their HOME shard — the one nearest by routed
//     latency — which forwards peer-to-peer to the owner when it does not
//     hold the service itself (the probe path is reported so the proxy can
//     charge each forwarding leg on the simulated fabric);
//   - clients hold opaque LookupHandles derived from the service name
//     alone. A handle is server-independent: it stays valid across shard
//     membership changes and re-homing.
//
// Membership changes notify registered listeners; the Framework wires this
// to GenericServer::invalidate_cached_plans(), so access paths planned
// against the old shard layout are never replayed (same epoch mechanism
// that guards against network changes).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "runtime/lookup.hpp"
#include "util/status.hpp"

namespace psf::runtime {

// Opaque, server-independent handle for a registered service. Derived from
// the service name only — survives add_shard() and re-homing.
struct LookupHandle {
  std::uint64_t value = 0;

  bool valid() const { return value != 0; }
  bool operator==(const LookupHandle&) const = default;
};

// Result of a sharded resolution, including the shard-to-shard probe path
// so callers can charge the forwarding traffic.
struct LookupResolution {
  const ServiceAdvertisement* ad = nullptr;  // nullptr: not registered
  std::size_t home_shard = 0;    // shard the client contacted
  std::size_t holder_shard = 0;  // shard that answered (valid if ad != nullptr)
  // Shards visited in order, starting with home_shard. Each consecutive
  // pair is one peer-to-peer forwarding hop.
  std::vector<std::size_t> probe_path;

  bool found() const { return ad != nullptr; }
  std::size_t forwards() const {
    return probe_path.empty() ? 0 : probe_path.size() - 1;
  }
};

class ShardedLookupService {
 public:
  struct Stats {
    std::uint64_t resolves = 0;
    std::uint64_t home_hits = 0;  // answered by the client's home shard
    std::uint64_t forwards = 0;   // peer-to-peer forwarding hops
    std::uint64_t rehomed_services = 0;
    std::uint64_t membership_changes = 0;
  };

  // At least one shard host is required. The network reference is used for
  // nearest-shard (home) selection via cached routes.
  ShardedLookupService(const net::Network& network,
                       std::vector<net::NodeId> shard_hosts);

  std::size_t shard_count() const { return shards_.size(); }
  LookupService& shard(std::size_t i);
  const LookupService& shard(std::size_t i) const;

  // Stable name-derived handle (never 0 for a non-empty name).
  static LookupHandle handle_for(const std::string& service_name);

  // Rendezvous owner under the current membership.
  std::size_t owner_shard(const std::string& service_name) const;
  // Nearest shard by routed latency (falls back to shard 0 when the client
  // cannot reach any shard host).
  std::size_t home_shard(net::NodeId client) const;

  // Registers on the owner shard and records the name<->handle binding.
  util::Status register_service(ServiceAdvertisement ad);
  util::Status unregister_service(const std::string& service_name);

  // Probe home -> owner -> remaining shards (the latter covers services
  // registered directly on a specific shard, e.g. through the legacy
  // single-registry API surface).
  LookupResolution resolve(const std::string& service_name,
                           net::NodeId client);
  LookupResolution resolve(LookupHandle handle, net::NodeId client);

  // Adds a shard anchored at `host`, re-homes every service whose
  // rendezvous owner moved, fires membership listeners, and returns the new
  // shard's index.
  std::size_t add_shard(net::NodeId host);

  // Called after every membership change (add_shard), once re-homing is
  // complete. The Framework registers plan-cache invalidation here.
  void on_membership_change(std::function<void()> listener);

  const Stats& stats() const { return stats_; }

 private:
  const LookupService* probe(std::size_t shard,
                             const std::string& service_name) const;

  const net::Network& network_;
  std::vector<std::unique_ptr<LookupService>> shards_;
  std::map<std::uint64_t, std::string> handle_names_;
  std::vector<std::function<void()>> listeners_;
  Stats stats_;
};

}  // namespace psf::runtime
