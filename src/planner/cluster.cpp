// detlint:ordered-output — cluster numbering feeds the hierarchical reduction.
#include "planner/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace psf::planner {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr ClusterIndex::ClusterId kNoHop =
    std::numeric_limits<ClusterIndex::ClusterId>::max();
}  // namespace

ClusterIndex::ClusterIndex(const net::Network& network,
                           std::size_t num_clusters) {
  const net::GraphPartition part =
      net::partition_graph(network, num_clusters);
  const std::size_t k = part.num_parts;
  cluster_of_node_ = part.part_of_node;
  cut_links_ = part.cut_links;

  members_.assign(k, {});
  for (std::uint32_t v = 0; v < cluster_of_node_.size(); ++v) {
    members_[cluster_of_node_[v]].push_back(net::NodeId{v});
  }

  // Direct quotient edges: min cut-link latency between each cluster pair,
  // and border detection.
  latency_lb_s_.assign(k * k, kInf);
  for (std::size_t c = 0; c < k; ++c) latency_lb_s_[c * k + c] = 0.0;
  std::vector<bool> is_border(cluster_of_node_.size(), false);

  for (net::LinkId lid : network.all_links()) {
    const net::Link& l = network.link(lid);
    const ClusterId ca = cluster_of_node_[l.a.value];
    const ClusterId cb = cluster_of_node_[l.b.value];
    if (ca == cb) continue;
    is_border[l.a.value] = true;
    is_border[l.b.value] = true;
    const double lat_s = l.latency.seconds();
    double& fwd = latency_lb_s_[ca * k + cb];
    double& rev = latency_lb_s_[cb * k + ca];
    fwd = std::min(fwd, lat_s);
    rev = std::min(rev, lat_s);
  }

  borders_.assign(k, {});
  for (std::uint32_t v = 0; v < cluster_of_node_.size(); ++v) {
    if (is_border[v]) borders_[cluster_of_node_[v]].push_back(net::NodeId{v});
  }

  // Floyd–Warshall over the quotient (k ~ sqrt(n), so k^3 ~ n^1.5 — cheap
  // next to even one search refinement). next_hop_ records the first
  // intermediate cluster of the shortest path for path_border_nodes.
  next_hop_.assign(k * k, kNoHop);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      if (a != b && latency_lb_s_[a * k + b] < kInf) {
        next_hop_[a * k + b] = static_cast<ClusterId>(b);
      }
    }
  }
  for (std::size_t m = 0; m < k; ++m) {
    for (std::size_t a = 0; a < k; ++a) {
      const double am = latency_lb_s_[a * k + m];
      if (am == kInf) continue;
      for (std::size_t b = 0; b < k; ++b) {
        const double mb = latency_lb_s_[m * k + b];
        if (mb == kInf) continue;
        if (am + mb < latency_lb_s_[a * k + b]) {
          latency_lb_s_[a * k + b] = am + mb;
          next_hop_[a * k + b] = next_hop_[a * k + m];
        }
      }
    }
  }
}

const std::vector<net::NodeId>& ClusterIndex::members(ClusterId c) const {
  PSF_CHECK(c < members_.size());
  return members_[c];
}

const std::vector<net::NodeId>& ClusterIndex::border_nodes(ClusterId c) const {
  PSF_CHECK(c < borders_.size());
  return borders_[c];
}

double ClusterIndex::latency_lb_s(ClusterId a, ClusterId b) const {
  PSF_CHECK(a < members_.size() && b < members_.size());
  return latency_lb_s_[a * members_.size() + b];
}

std::vector<net::NodeId> ClusterIndex::path_border_nodes(ClusterId a,
                                                         ClusterId b) const {
  PSF_CHECK(a < members_.size() && b < members_.size());
  std::vector<net::NodeId> out;
  if (a == b) return out;
  const std::size_t k = members_.size();
  ClusterId cur = a;
  std::size_t guard = 0;
  while (cur != b && ++guard <= k) {
    const ClusterId nxt = next_hop_[cur * k + b];
    if (nxt == kNoHop) return out;  // quotient-disconnected
    if (nxt != b) {
      const std::vector<net::NodeId>& bs = borders_[nxt];
      out.insert(out.end(), bs.begin(), bs.end());
    }
    cur = nxt;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t ClusterIndex::default_cluster_count(std::size_t node_count) {
  if (node_count <= 1) return 1;
  const auto k = static_cast<std::size_t>(
      std::lround(std::sqrt(static_cast<double>(node_count))));
  return std::clamp<std::size_t>(k, 2, node_count);
}

}  // namespace psf::planner
