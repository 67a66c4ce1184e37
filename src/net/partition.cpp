// detlint:ordered-output — partition assignment feeds region numbering and merge order.
#include "net/partition.hpp"

#include <algorithm>
#include <deque>
#include <limits>

namespace psf::net {

namespace {

// BFS order from node 0, appending further components from the lowest
// unvisited id — a deterministic stream that keeps neighbors close together
// so the greedy pass sees placed neighbors early.
std::vector<NodeId> stream_order(const Network& network) {
  const std::size_t n = network.node_count();
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<bool> seen(n, false);
  for (std::uint32_t start = 0; start < n; ++start) {
    if (seen[start]) continue;
    std::deque<NodeId> frontier{NodeId{start}};
    seen[start] = true;
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      order.push_back(u);
      for (LinkId lid : network.links_of(u)) {
        const NodeId v = network.link(lid).other(u);
        if (!seen[v.value]) {
          seen[v.value] = true;
          frontier.push_back(v);
        }
      }
    }
  }
  return order;
}

}  // namespace

GraphPartition partition_graph(const Network& network, std::size_t num_parts) {
  const std::size_t n = network.node_count();
  PSF_CHECK_MSG(n > 0, "cannot partition an empty network");
  num_parts = std::clamp<std::size_t>(num_parts, 1, n);

  GraphPartition part;
  part.num_parts = num_parts;
  part.part_of_node.assign(n, 0);
  part.part_sizes.assign(num_parts, 0);

  const std::size_t capacity = (n + num_parts - 1) / num_parts;
  constexpr PartId kUnassigned = std::numeric_limits<PartId>::max();
  std::vector<PartId> assign(n, kUnassigned);

  // Streaming greedy assignment.
  std::vector<std::size_t> score(num_parts);
  for (const NodeId u : stream_order(network)) {
    std::fill(score.begin(), score.end(), 0);
    for (LinkId lid : network.links_of(u)) {
      const NodeId v = network.link(lid).other(u);
      if (assign[v.value] != kUnassigned) ++score[assign[v.value]];
    }
    PartId best = kUnassigned;
    for (PartId r = 0; r < num_parts; ++r) {
      if (part.part_sizes[r] >= capacity) continue;
      if (best == kUnassigned || score[r] > score[best] ||
          (score[r] == score[best] &&
           part.part_sizes[r] < part.part_sizes[best])) {
        best = r;
      }
    }
    PSF_CHECK(best != kUnassigned);  // capacities sum to >= n
    assign[u.value] = best;
    ++part.part_sizes[best];
  }

  // One refinement sweep: move a boundary node to the neighboring part where
  // it has strictly more neighbors, when balance permits. Nodes are visited
  // in id order, so the sweep is deterministic.
  for (std::uint32_t u = 0; u < n; ++u) {
    const PartId cur = assign[u];
    if (part.part_sizes[cur] <= 1) continue;
    std::fill(score.begin(), score.end(), 0);
    for (LinkId lid : network.links_of(NodeId{u})) {
      const NodeId v = network.link(lid).other(NodeId{u});
      ++score[assign[v.value]];
    }
    PartId target = cur;
    for (PartId r = 0; r < num_parts; ++r) {
      if (r == cur || part.part_sizes[r] >= capacity) continue;
      if (score[r] > score[target]) target = r;
    }
    if (target != cur) {
      assign[u] = target;
      --part.part_sizes[cur];
      ++part.part_sizes[target];
    }
  }

  part.part_of_node = std::move(assign);

  // Fault state is ignored: a down link still counts.
  for (LinkId lid : network.all_links()) {
    const Link& l = network.link(lid);
    if (part.part_of_node[l.a.value] != part.part_of_node[l.b.value]) {
      ++part.cut_links;
    }
  }
  return part;
}

}  // namespace psf::net
