// Shared graph-partitioning utility over net::Network.
//
// The hierarchical planner's planner::ClusterIndex builds capacity-bounded
// clusters, border nodes, and a quotient graph on top of it.
//
// The algorithm is the parameter-server streaming idiom: stream nodes in
// BFS order, assign each to the capacity-bounded part holding most of its
// already-placed neighbors, then run one boundary-refinement sweep moving
// nodes whose cut degree strictly improves. Fully deterministic: the same
// network (nodes, links) always yields the same partition.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"

namespace psf::net {

using PartId = std::uint32_t;

struct GraphPartition {
  std::vector<PartId> part_of_node;  // indexed by NodeId::value
  std::size_t num_parts = 1;
  std::vector<std::size_t> part_sizes;  // node count per part
  std::size_t cut_links = 0;  // links whose endpoints fall in different parts

  PartId part_of(NodeId n) const { return part_of_node[n.value]; }
};

// Deterministic: same network (nodes, links, latencies) => same partition.
// num_parts is clamped to [1, node_count]. Parts are capacity-bounded at
// ceil(n / num_parts) nodes.
GraphPartition partition_graph(const Network& network, std::size_t num_parts);

}  // namespace psf::net
