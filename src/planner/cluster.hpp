// ClusterIndex: the hierarchical planner's view of a partitioned topology.
//
// Built on net::partition_graph (a capacity-bounded streaming partition),
// it adds what two-level search needs:
//   - members(c): the nodes of cluster c, in id order;
//   - border_nodes(c): members of c incident to at least one cut link;
//   - a quotient graph over clusters whose edge (a, b) carries the MINIMUM
//     latency over cut links joining a and b, closed under all-pairs
//     shortest paths. latency_lb_s(a, b) is therefore an admissible lower
//     bound on the one-way latency of ANY route between a node of a and a
//     node of b: every real path crossing from a to b pays at least the
//     min cut latency of each quotient edge it crosses, and APSP only ever
//     relaxes downward.
//
// The bound ignores fault state on purpose: min latency over ALL cut links
// <= min over up links, so it stays sound when links flap (it just gets
// weaker).
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "net/partition.hpp"

namespace psf::planner {

class ClusterIndex {
 public:
  using ClusterId = net::PartId;

  ClusterIndex(const net::Network& network, std::size_t num_clusters);

  std::size_t num_clusters() const { return members_.size(); }
  ClusterId cluster_of(net::NodeId n) const { return cluster_of_node_[n.value]; }
  const std::vector<net::NodeId>& members(ClusterId c) const;
  const std::vector<net::NodeId>& border_nodes(ClusterId c) const;
  std::size_t cut_links() const { return cut_links_; }

  // Admissible lower bound (seconds) on the one-way latency of any route
  // between a node of cluster a and a node of cluster b. 0 when a == b;
  // +infinity when the quotient graph is disconnected between them.
  double latency_lb_s(ClusterId a, ClusterId b) const;

  // Border nodes of the clusters strictly between a and b on the quotient
  // shortest-latency path (excluding a's and b's own borders), in id order.
  // These are the relay candidates a refinement of b should consider so a
  // plan may stage components along the way back to a.
  std::vector<net::NodeId> path_border_nodes(ClusterId a, ClusterId b) const;

  // ~sqrt(n) clusters: balances quotient size against cluster size.
  static std::size_t default_cluster_count(std::size_t node_count);

 private:
  std::vector<ClusterId> cluster_of_node_;
  std::vector<std::vector<net::NodeId>> members_;
  std::vector<std::vector<net::NodeId>> borders_;
  // Dense k*k matrices over cluster ids.
  std::vector<double> latency_lb_s_;          // APSP over the quotient
  std::vector<ClusterId> next_hop_;           // quotient path reconstruction
  std::size_t cut_links_ = 0;
};

}  // namespace psf::planner
