#include <gtest/gtest.h>

#include "net/network.hpp"

namespace psf::net {
namespace {

Network diamond() {
  // a - b - d  (fast path through b: 10ms+10ms)
  //  \     /
  //    c      (slow: 50ms+50ms, but higher bandwidth)
  Network n;
  const NodeId a = n.add_node("a");
  const NodeId b = n.add_node("b");
  const NodeId c = n.add_node("c");
  const NodeId d = n.add_node("d");
  n.add_link(a, b, 10e6, sim::Duration::from_millis(10));
  n.add_link(b, d, 10e6, sim::Duration::from_millis(10));
  n.add_link(a, c, 100e6, sim::Duration::from_millis(50));
  n.add_link(c, d, 100e6, sim::Duration::from_millis(50));
  return n;
}

TEST(NetworkTest, NodeAndLinkAccessors) {
  Network n;
  Credentials creds;
  creds.set("trust", std::int64_t{4});
  const NodeId a = n.add_node("alpha", 2e6, creds);
  const NodeId b = n.add_node("beta");
  const LinkId l = n.add_link(a, b, 5e6, sim::Duration::from_millis(7));

  EXPECT_EQ(n.node_count(), 2u);
  EXPECT_EQ(n.link_count(), 1u);
  EXPECT_EQ(n.node(a).name, "alpha");
  EXPECT_EQ(n.node(a).cpu_capacity, 2e6);
  EXPECT_EQ(n.node(a).credentials.get_int("trust", 0), 4);
  EXPECT_EQ(n.link(l).other(a), b);
  EXPECT_EQ(n.link(l).other(b), a);
  EXPECT_EQ(n.find_node("beta"), b);
  EXPECT_FALSE(n.find_node("gamma").has_value());
}

TEST(NetworkTest, LinkBetween) {
  Network n = diamond();
  EXPECT_TRUE(n.link_between(NodeId{0}, NodeId{1}).has_value());
  EXPECT_TRUE(n.link_between(NodeId{1}, NodeId{0}).has_value());
  EXPECT_FALSE(n.link_between(NodeId{0}, NodeId{3}).has_value());
}

TEST(NetworkTest, RoutePrefersLowestLatency) {
  Network n = diamond();
  auto route = n.route(NodeId{0}, NodeId{3});
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->links.size(), 2u);
  EXPECT_EQ(route->total_latency.millis(), 20.0);  // via b, not c
  EXPECT_EQ(route->bottleneck_bandwidth_bps, 10e6);
}

TEST(NetworkTest, RouteToSelfIsLocal) {
  Network n = diamond();
  auto route = n.route(NodeId{2}, NodeId{2});
  ASSERT_TRUE(route.has_value());
  EXPECT_TRUE(route->local());
  EXPECT_TRUE(route->reachable());
}

TEST(NetworkTest, DisconnectedRouteIsNull) {
  Network n;
  n.add_node("a");
  n.add_node("b");
  EXPECT_FALSE(n.route(NodeId{0}, NodeId{1}).has_value());
}

TEST(NetworkTest, CachedRouteMatchesRoute) {
  Network n = diamond();
  const Route* cached = n.cached_route(NodeId{0}, NodeId{3});
  auto fresh = n.route(NodeId{0}, NodeId{3});
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(cached->links, fresh->links);
  // Second call returns the same object.
  EXPECT_EQ(cached, n.cached_route(NodeId{0}, NodeId{3}));
}

TEST(NetworkTest, CachedRouteMarksDisconnectedPairs) {
  Network n;
  n.add_node("a");
  n.add_node("b");
  const Route* r = n.cached_route(NodeId{0}, NodeId{1});
  EXPECT_EQ(r->bottleneck_bandwidth_bps, 0.0);
  // The marker has no links, like a local route; only reachable() tells
  // the two apart.
  EXPECT_TRUE(r->local());
  EXPECT_FALSE(r->reachable());
  EXPECT_TRUE(n.cached_route(NodeId{0}, NodeId{0})->reachable());
}

TEST(NetworkTest, CacheInvalidatedByMutation) {
  Network n = diamond();
  const Route* before = n.cached_route(NodeId{0}, NodeId{3});
  EXPECT_EQ(before->total_latency.millis(), 20.0);
  // Add a direct fast link; the cache must see it.
  n.add_link(NodeId{0}, NodeId{3}, 1e6, sim::Duration::from_millis(1));
  const Route* after = n.cached_route(NodeId{0}, NodeId{3});
  EXPECT_EQ(after->total_latency.millis(), 1.0);
}

TEST(NetworkTest, CacheInvalidatedByPropertyMutation) {
  // Regression: set_link_latency / set_link_bandwidth must invalidate the
  // precomputed route table, not just structural add_link. Before the fix a
  // cached route kept steering traffic over a degraded link.
  Network n = diamond();
  n.precompute_routes();
  EXPECT_EQ(n.cached_route(NodeId{0}, NodeId{3})->total_latency.millis(),
            20.0);
  // Degrade the fast a-b edge so the c path (100 ms) wins.
  n.set_link_latency(LinkId{0}, sim::Duration::from_millis(500));
  EXPECT_EQ(n.cached_route(NodeId{0}, NodeId{3})->total_latency.millis(),
            100.0);
  // Bandwidth changes must refresh the cached bottleneck too.
  n.set_link_bandwidth(LinkId{2}, 1e6);
  EXPECT_EQ(n.cached_route(NodeId{0}, NodeId{3})->bottleneck_bandwidth_bps,
            1e6);
}

TEST(NetworkTest, DownLinksAndNodesAreUnroutable) {
  Network n = diamond();
  n.precompute_routes();
  // Kill the fast path; routing falls back to the c detour.
  n.set_link_up(LinkId{0}, false);
  EXPECT_EQ(n.cached_route(NodeId{0}, NodeId{3})->total_latency.millis(),
            100.0);
  // Kill the detour node too: no route at all.
  n.set_node_up(NodeId{2}, false);
  auto direct = n.route(NodeId{0}, NodeId{3});
  EXPECT_FALSE(direct.has_value());
  EXPECT_EQ(n.cached_route(NodeId{0}, NodeId{3})->bottleneck_bandwidth_bps,
            0.0);
  // Heal everything; the original route returns.
  n.set_link_up(LinkId{0}, true);
  n.set_node_up(NodeId{2}, true);
  EXPECT_EQ(n.cached_route(NodeId{0}, NodeId{3})->total_latency.millis(),
            20.0);
}

TEST(NetworkTest, LinkLossBoundsChecked) {
  Network n = diamond();
  n.set_link_loss(LinkId{0}, 0.25);
  EXPECT_EQ(n.link(LinkId{0}).loss, 0.25);
  n.set_link_loss(LinkId{0}, 0.0);
  EXPECT_EQ(n.link(LinkId{0}).loss, 0.0);
}

TEST(NetworkTest, TransferTimeModel) {
  Network n;
  const NodeId a = n.add_node("a");
  const NodeId b = n.add_node("b");
  const LinkId l = n.add_link(a, b, 8e6, sim::Duration::from_millis(100));
  // 1 MB over 8 Mb/s = 1 s serialization + 100 ms propagation.
  const sim::Duration t = n.link(l).transfer_time(1'000'000);
  EXPECT_NEAR(t.seconds(), 1.1, 1e-9);
}

TEST(NetworkTest, DeterministicTieBreakByHops) {
  // Two equal-latency paths: a-b-d (2 hops) vs a-d (1 hop, same latency).
  Network n;
  const NodeId a = n.add_node("a");
  const NodeId b = n.add_node("b");
  const NodeId d = n.add_node("d");
  n.add_link(a, b, 10e6, sim::Duration::from_millis(5));
  n.add_link(b, d, 10e6, sim::Duration::from_millis(5));
  n.add_link(a, d, 10e6, sim::Duration::from_millis(10));
  auto route = n.route(a, d);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->links.size(), 1u);  // fewer hops wins the tie
}

TEST(CredentialsTest, TypedAccessorsAndCoercion) {
  Credentials c;
  c.set("flag", true);
  c.set("level", std::int64_t{3});
  c.set("ratio", 2.5);
  c.set("name", std::string("abc"));

  EXPECT_TRUE(c.get_bool("flag", false));
  EXPECT_EQ(c.get_int("level", 0), 3);
  EXPECT_TRUE(c.get_bool("level", false));   // nonzero int -> true
  EXPECT_EQ(c.get_double("ratio", 0.0), 2.5);
  EXPECT_EQ(c.get_int("ratio", 0), 2);       // double -> int truncation
  EXPECT_EQ(c.get_string("name", ""), "abc");
  EXPECT_EQ(c.get_string("level", ""), "3");  // stringification
  EXPECT_EQ(c.get_int("missing", -7), -7);
  EXPECT_FALSE(c.has("missing"));
}

TEST(NetworkTest, ReservationAccounting) {
  Network n = diamond();
  Node& node = n.node(NodeId{0});
  node.cpu_reserved = 3e5;
  EXPECT_DOUBLE_EQ(node.cpu_available(), 1e6 - 3e5);
  Link& link = n.link(LinkId{0});
  link.bandwidth_reserved_bps = 4e6;
  EXPECT_DOUBLE_EQ(link.bandwidth_available_bps(), 6e6);
}

}  // namespace
}  // namespace psf::net
