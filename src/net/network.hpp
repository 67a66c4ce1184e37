// Network graph model used by both the planner (resource/credential view)
// and the runtime (message cost model).
//
// Nodes carry CPU capacity (abstract "cpu units"/second; one unit ≈ the cost
// the spec's Behaviors express per request) and credentials. Links carry
// latency, bandwidth, and credentials (e.g. secure=true). Links are
// bidirectional, matching the paper's Fig. 5 topology.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "net/credential.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace psf::net {

struct NodeId {
  std::uint32_t value = kInvalid;
  static constexpr std::uint32_t kInvalid = UINT32_MAX;

  constexpr bool valid() const { return value != kInvalid; }
  constexpr bool operator==(const NodeId&) const = default;
  constexpr auto operator<=>(const NodeId&) const = default;
};

struct LinkId {
  std::uint32_t value = kInvalid;
  static constexpr std::uint32_t kInvalid = UINT32_MAX;

  constexpr bool valid() const { return value != kInvalid; }
  constexpr bool operator==(const LinkId&) const = default;
  constexpr auto operator<=>(const LinkId&) const = default;
};

struct Node {
  NodeId id;
  std::string name;
  double cpu_capacity = 1e6;   // cpu units per second
  double cpu_reserved = 0.0;   // planner reservations
  Credentials credentials;
  // Position in an abstract plane; set by topology generators (Waxman needs
  // distances), zero for hand-built topologies.
  double x = 0.0;
  double y = 0.0;
  // Fault state: a down node is skipped by routing and unusable for
  // placement. Mutate through Network::set_node_up so route caches refresh.
  bool up = true;

  double cpu_available() const { return cpu_capacity - cpu_reserved; }
};

struct Link {
  LinkId id;
  NodeId a;
  NodeId b;
  double bandwidth_bps = 100e6;
  sim::Duration latency = sim::Duration::zero();
  double bandwidth_reserved_bps = 0.0;  // planner reservations
  Credentials credentials;
  // Fault state: a down link carries no traffic and is skipped by routing;
  // `loss` is the per-message drop probability applied at each hop. Mutate
  // through Network::set_link_up / set_link_loss so route caches refresh.
  bool up = true;
  double loss = 0.0;

  double bandwidth_available_bps() const {
    return bandwidth_bps - bandwidth_reserved_bps;
  }

  NodeId other(NodeId n) const {
    PSF_CHECK(n == a || n == b);
    return n == a ? b : a;
  }

  // Time to move `bytes` across this link: propagation + serialization.
  sim::Duration transfer_time(std::uint64_t bytes) const {
    const double serialize_s =
        static_cast<double>(bytes) * 8.0 / bandwidth_bps;
    return latency + sim::Duration::from_seconds(serialize_s);
  }
};

// A route between two nodes: the link sequence of a shortest (by latency)
// path, plus aggregate metrics the planner uses for constraint checks.
struct Route {
  std::vector<LinkId> links;
  sim::Duration total_latency = sim::Duration::zero();
  double bottleneck_bandwidth_bps = std::numeric_limits<double>::infinity();

  bool local() const { return links.empty(); }
  // False only for the route cache's unreachable marker, which has no links
  // either: every link's bandwidth is positive, and a local route's is +inf.
  bool reachable() const { return bottleneck_bandwidth_bps > 0.0; }
};

class Network {
 public:
  NodeId add_node(std::string name, double cpu_capacity = 1e6,
                  Credentials credentials = {});
  LinkId add_link(NodeId a, NodeId b, double bandwidth_bps,
                  sim::Duration latency, Credentials credentials = {});

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }

  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  Link& link(LinkId id);
  const Link& link(LinkId id) const;

  std::optional<NodeId> find_node(const std::string& name) const;

  // All links incident to `n`.
  const std::vector<LinkId>& links_of(NodeId n) const;

  // Direct link between a and b, if one exists (first added wins).
  std::optional<LinkId> link_between(NodeId a, NodeId b) const;

  // Shortest path from `from` to `to` minimizing total latency; ties broken
  // by hop count, then by node id, for determinism. Empty route if
  // from == to; nullopt if disconnected. Down links and down intermediate
  // nodes are skipped; a down endpoint makes every pair involving it
  // unreachable.
  std::optional<Route> route(NodeId from, NodeId to) const;

  // Fault-state mutators. Every one of these (and the property setters
  // below) invalidates the route cache, so pointers from cached_route() /
  // precompute_routes() must not be held across a call.
  void set_node_up(NodeId id, bool up);
  void set_link_up(LinkId id, bool up);
  void set_link_loss(LinkId id, double loss);  // drop probability in [0, 1]
  void set_link_bandwidth(LinkId id, double bandwidth_bps);
  void set_link_latency(LinkId id, sim::Duration latency);

  bool node_up(NodeId id) const { return node(id).up; }
  bool link_up(LinkId id) const { return link(id).up; }

  // Explicit cache invalidation for callers that mutate node/link fields
  // in place through the non-const accessors (credentials, capacity, ...).
  void invalidate_routes() { invalidate_cache(); }

  // All-pairs convenience built on a row-granular lazy cache; used by the
  // planner's environment view. The first query from a given source runs one
  // full Dijkstra and materializes that source's whole row; later queries
  // from the same source are pure reads, so a search touches only the rows
  // its candidate sets need instead of the full O(V^2) table. Returned
  // pointers stay valid until the next mutation (every mutator invalidates
  // the cache). Not safe for concurrent callers: a const query may build a
  // row.
  const Route* cached_route(NodeId from, NodeId to) const;

  // Eagerly materializes every row (O(V) Dijkstras, O(V^2) entries). Only
  // worth it when most pairs will actually be queried; the hierarchical
  // planner relies on lazy rows instead, and tests use this as the eager
  // reference the lazy rows must match.
  void precompute_routes() const;

  // Rows materialized since the last mutation — observability for the lazy
  // cache (a 1000-node plan should touch far fewer than 1000 rows... unless
  // every cluster gets refined; the bench reports this).
  std::size_t route_rows_materialized() const;

  // Iteration support (ids are dense).
  std::vector<NodeId> all_nodes() const;
  std::vector<LinkId> all_links() const;

  std::string to_string() const;

 private:
  void invalidate_cache();

  // The one Dijkstra behind route() and the route rows: minimal total
  // latency, ties broken by hop count, then by node id. It runs from `from`
  // until every reachable node is settled, or, with a valid `target`, until
  // that node is.
  struct ShortestPaths;
  ShortestPaths shortest_paths(NodeId from, NodeId target) const;
  // The route to a reached `to`, read back along the `via` links.
  Route trace_route(const ShortestPaths& paths, NodeId from, NodeId to) const;
  // One full row of routes from `from`. Row entries: self = empty local
  // route, unreachable pairs = the INT64_MAX/2-latency zero-bandwidth marker
  // (not reachable()).
  std::vector<Route> compute_route_row(NodeId from) const;
  // Returns the row for `from`, building it on first touch.
  const std::vector<Route>& route_row(NodeId from) const;

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> adjacency_;

  // Lazy route cache: empty until the first query after a mutation, then
  // one row per source node, empty until that source is first queried. A
  // built row is never resized, so pointers into it stay valid until the
  // next mutation clears the cache. Copies carry the cache along: it
  // describes the same topology.
  mutable std::vector<std::vector<Route>> route_rows_;
};

}  // namespace psf::net
