#include "net/network.hpp"

#include <algorithm>
#include <queue>
#include <sstream>

namespace psf::net {

NodeId Network::add_node(std::string name, double cpu_capacity,
                         Credentials credentials) {
  PSF_CHECK_MSG(cpu_capacity > 0.0, "node cpu capacity must be positive");
  NodeId id{static_cast<std::uint32_t>(nodes_.size())};
  Node n;
  n.id = id;
  n.name = std::move(name);
  n.cpu_capacity = cpu_capacity;
  n.credentials = std::move(credentials);
  nodes_.push_back(std::move(n));
  adjacency_.emplace_back();
  invalidate_cache();
  return id;
}

LinkId Network::add_link(NodeId a, NodeId b, double bandwidth_bps,
                         sim::Duration latency, Credentials credentials) {
  PSF_CHECK(a.valid() && a.value < nodes_.size());
  PSF_CHECK(b.valid() && b.value < nodes_.size());
  PSF_CHECK_MSG(a != b, "self links are not modeled");
  PSF_CHECK_MSG(bandwidth_bps > 0.0, "link bandwidth must be positive");
  PSF_CHECK_MSG(latency.nanos() >= 0, "negative link latency");
  LinkId id{static_cast<std::uint32_t>(links_.size())};
  Link l;
  l.id = id;
  l.a = a;
  l.b = b;
  l.bandwidth_bps = bandwidth_bps;
  l.latency = latency;
  l.credentials = std::move(credentials);
  links_.push_back(std::move(l));
  adjacency_[a.value].push_back(id);
  adjacency_[b.value].push_back(id);
  invalidate_cache();
  return id;
}

Node& Network::node(NodeId id) {
  PSF_CHECK(id.valid() && id.value < nodes_.size());
  return nodes_[id.value];
}

const Node& Network::node(NodeId id) const {
  PSF_CHECK(id.valid() && id.value < nodes_.size());
  return nodes_[id.value];
}

Link& Network::link(LinkId id) {
  PSF_CHECK(id.valid() && id.value < links_.size());
  return links_[id.value];
}

const Link& Network::link(LinkId id) const {
  PSF_CHECK(id.valid() && id.value < links_.size());
  return links_[id.value];
}

std::optional<NodeId> Network::find_node(const std::string& name) const {
  for (const Node& n : nodes_) {
    if (n.name == name) return n.id;
  }
  return std::nullopt;
}

const std::vector<LinkId>& Network::links_of(NodeId n) const {
  PSF_CHECK(n.valid() && n.value < adjacency_.size());
  return adjacency_[n.value];
}

std::optional<LinkId> Network::link_between(NodeId a, NodeId b) const {
  for (LinkId lid : links_of(a)) {
    const Link& l = links_[lid.value];
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return lid;
  }
  return std::nullopt;
}

namespace {
// The latency of a node Dijkstra never reached.
constexpr std::int64_t kUnreached = INT64_MAX;
}  // namespace

// Dijkstra's working arrays, indexed by node id: the best (latency, hops)
// reached so far and the link each node was last reached over.
struct Network::ShortestPaths {
  std::vector<std::int64_t> latency_ns;
  std::vector<std::uint32_t> hops;
  std::vector<LinkId> via;
};

Network::ShortestPaths Network::shortest_paths(NodeId from,
                                               NodeId target) const {
  struct State {
    std::int64_t latency_ns;
    std::uint32_t hops;
    NodeId node;
    bool operator>(const State& o) const {
      if (latency_ns != o.latency_ns) return latency_ns > o.latency_ns;
      if (hops != o.hops) return hops > o.hops;
      return node.value > o.node.value;
    }
  };

  const std::size_t n = nodes_.size();
  ShortestPaths paths{std::vector<std::int64_t>(n, kUnreached),
                      std::vector<std::uint32_t>(n, UINT32_MAX),
                      std::vector<LinkId>(n)};
  std::priority_queue<State, std::vector<State>, std::greater<State>> pq;

  paths.latency_ns[from.value] = 0;
  paths.hops[from.value] = 0;
  pq.push(State{0, 0, from});

  while (!pq.empty()) {
    const State s = pq.top();
    pq.pop();
    if (s.latency_ns > paths.latency_ns[s.node.value] ||
        (s.latency_ns == paths.latency_ns[s.node.value] &&
         s.hops > paths.hops[s.node.value])) {
      continue;
    }
    if (s.node == target) break;
    for (LinkId lid : adjacency_[s.node.value]) {
      const Link& l = links_[lid.value];
      if (!l.up) continue;
      const NodeId next = l.other(s.node);
      if (!nodes_[next.value].up) continue;
      const std::int64_t cand = s.latency_ns + l.latency.nanos();
      const std::uint32_t cand_hops = s.hops + 1;
      if (cand < paths.latency_ns[next.value] ||
          (cand == paths.latency_ns[next.value] &&
           cand_hops < paths.hops[next.value])) {
        paths.latency_ns[next.value] = cand;
        paths.hops[next.value] = cand_hops;
        paths.via[next.value] = lid;
        pq.push(State{cand, cand_hops, next});
      }
    }
  }
  return paths;
}

Route Network::trace_route(const ShortestPaths& paths, NodeId from,
                           NodeId to) const {
  Route r;
  r.total_latency = sim::Duration::from_nanos(paths.latency_ns[to.value]);
  r.links.reserve(paths.hops[to.value]);
  NodeId cur = to;
  while (cur != from) {
    const LinkId lid = paths.via[cur.value];
    r.links.push_back(lid);
    r.bottleneck_bandwidth_bps =
        std::min(r.bottleneck_bandwidth_bps, links_[lid.value].bandwidth_bps);
    cur = links_[lid.value].other(cur);
  }
  std::reverse(r.links.begin(), r.links.end());
  return r;
}

std::optional<Route> Network::route(NodeId from, NodeId to) const {
  PSF_CHECK(from.valid() && from.value < nodes_.size());
  PSF_CHECK(to.valid() && to.value < nodes_.size());
  if (!nodes_[from.value].up || !nodes_[to.value].up) return std::nullopt;
  if (from == to) return Route{};
  const ShortestPaths paths = shortest_paths(from, to);
  if (paths.latency_ns[to.value] == kUnreached) return std::nullopt;
  return trace_route(paths, from, to);
}

const Route* Network::cached_route(NodeId from, NodeId to) const {
  PSF_CHECK(from.valid() && from.value < nodes_.size());
  PSF_CHECK(to.valid() && to.value < nodes_.size());
  return &route_row(from)[to.value];
}

const std::vector<Route>& Network::route_row(NodeId from) const {
  if (route_rows_.empty()) route_rows_.resize(nodes_.size());
  std::vector<Route>& row = route_rows_[from.value];
  if (row.empty()) row = compute_route_row(from);
  return row;
}

std::size_t Network::route_rows_materialized() const {
  return static_cast<std::size_t>(
      std::count_if(route_rows_.begin(), route_rows_.end(),
                    [](const std::vector<Route>& row) { return !row.empty(); }));
}

std::vector<Route> Network::compute_route_row(NodeId from) const {
  Route unreachable;
  unreachable.total_latency = sim::Duration::from_nanos(INT64_MAX / 2);
  unreachable.bottleneck_bandwidth_bps = 0.0;
  std::vector<Route> row(nodes_.size(), unreachable);
  if (!nodes_[from.value].up) return row;

  // One full Dijkstra per source instead of one truncated Dijkstra per
  // pair: precomputing a 100-node Waxman drops from n^2 to n searches.
  const ShortestPaths paths = shortest_paths(from, NodeId{});
  for (const Node& to : nodes_) {
    if (to.id == from) {
      row[to.id.value] = Route{};
    } else if (paths.latency_ns[to.id.value] != kUnreached) {
      row[to.id.value] = trace_route(paths, from, to.id);
    }
  }
  return row;
}

void Network::precompute_routes() const {
  for (const Node& from : nodes_) route_row(from.id);
}

void Network::set_node_up(NodeId id, bool up) {
  Node& n = node(id);
  if (n.up == up) return;
  n.up = up;
  invalidate_cache();
}

void Network::set_link_up(LinkId id, bool up) {
  Link& l = link(id);
  if (l.up == up) return;
  l.up = up;
  invalidate_cache();
}

void Network::set_link_loss(LinkId id, double loss) {
  PSF_CHECK_MSG(loss >= 0.0 && loss <= 1.0, "loss probability out of [0,1]");
  link(id).loss = loss;
  // Loss does not change route selection, but cached Route pointers are the
  // public contract for "topology snapshot"; refresh them anyway so readers
  // re-observe the link.
  invalidate_cache();
}

void Network::set_link_bandwidth(LinkId id, double bandwidth_bps) {
  PSF_CHECK_MSG(bandwidth_bps > 0.0, "link bandwidth must be positive");
  link(id).bandwidth_bps = bandwidth_bps;
  invalidate_cache();
}

void Network::set_link_latency(LinkId id, sim::Duration latency) {
  PSF_CHECK_MSG(latency.nanos() >= 0, "negative link latency");
  link(id).latency = latency;
  invalidate_cache();
}

std::vector<NodeId> Network::all_nodes() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const Node& n : nodes_) out.push_back(n.id);
  return out;
}

std::vector<LinkId> Network::all_links() const {
  std::vector<LinkId> out;
  out.reserve(links_.size());
  for (const Link& l : links_) out.push_back(l.id);
  return out;
}

std::string Network::to_string() const {
  std::ostringstream oss;
  oss << "Network(" << nodes_.size() << " nodes, " << links_.size()
      << " links)\n";
  for (const Node& n : nodes_) {
    oss << "  node " << n.id.value << " '" << n.name
        << "' cpu=" << n.cpu_capacity << " " << n.credentials.to_string()
        << (n.up ? "" : " DOWN") << "\n";
  }
  for (const Link& l : links_) {
    oss << "  link " << l.id.value << " " << nodes_[l.a.value].name << " <-> "
        << nodes_[l.b.value].name << " bw=" << l.bandwidth_bps / 1e6
        << "Mbps lat=" << l.latency.millis() << "ms "
        << l.credentials.to_string() << (l.up ? "" : " DOWN");
    if (l.loss > 0.0) oss << " loss=" << l.loss;
    oss << "\n";
  }
  return oss.str();
}

void Network::invalidate_cache() { route_rows_.clear(); }

}  // namespace psf::net
