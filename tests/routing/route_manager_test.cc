#include "routing/route_manager.h"

#include <gtest/gtest.h>

#include "netsim/topologies.h"

namespace cbt::routing {
namespace {

using netsim::MakeFigure1;
using netsim::MakeLine;
using netsim::Simulator;
using netsim::Topology;

TEST(RouteManager, DirectAttachmentHasZeroCost) {
  Simulator sim;
  Topology topo = MakeLine(sim, 3);
  RouteManager routes(sim);
  const NodeId r0 = topo.routers[0];
  const Ipv4Address own_lan_host =
      sim.subnet(topo.router_lans[0]).address.HostAddress(200);
  const auto route = routes.Lookup(r0, own_lan_host);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->hop_count, 0);
  EXPECT_EQ(route->next_hop, own_lan_host);  // deliver straight on the LAN
}

TEST(RouteManager, MultiHopNextHopIsFirstNeighbor) {
  Simulator sim;
  Topology topo = MakeLine(sim, 4);
  RouteManager routes(sim);
  // Target a host address on the far router's stub LAN so the whole chain
  // must be crossed.
  const Ipv4Address target =
      sim.subnet(topo.router_lans[3]).address.HostAddress(7);
  const auto route = routes.Lookup(topo.routers[0], target);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(sim.FindNodeByAddress(route->next_hop), topo.routers[1]);
  EXPECT_EQ(route->hop_count, 3);
}

TEST(RouteManager, RecomputesAfterLinkFailure) {
  Simulator sim;
  // Square: r0-r1, r1-r3, r0-r2, r2-r3. Kill r0-r1; r0 must go via r2.
  const NodeId r0 = sim.AddNode("r0", true);
  const NodeId r1 = sim.AddNode("r1", true);
  const NodeId r2 = sim.AddNode("r2", true);
  const NodeId r3 = sim.AddNode("r3", true);
  const SubnetId l01 = sim.Connect(r0, r1);
  sim.Connect(r1, r3);
  sim.Connect(r0, r2);
  sim.Connect(r2, r3);
  RouteManager routes(sim);

  const Ipv4Address r3_addr = sim.PrimaryAddress(r3);
  const auto before = routes.Lookup(r0, r3_addr);
  ASSERT_TRUE(before.has_value());

  sim.SetSubnetUp(l01, false);
  const auto after = routes.Lookup(r0, r3_addr);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(sim.FindNodeByAddress(after->next_hop), r2);
  EXPECT_EQ(after->hop_count, 2);
}

TEST(RouteManager, UnreachableReturnsNullopt) {
  Simulator sim;
  const NodeId r0 = sim.AddNode("r0", true);
  const NodeId r1 = sim.AddNode("r1", true);
  const SubnetId link = sim.Connect(r0, r1);
  RouteManager routes(sim);
  sim.SetSubnetUp(link, false);
  // r1's address resolves to a down subnet — no route.
  EXPECT_FALSE(routes.Lookup(r0, sim.PrimaryAddress(r1)).has_value());
}

TEST(RouteManager, HostsDoNotTransit) {
  Simulator sim;
  // r0 --lanA-- host --lanB-- r1: no router path exists through the host.
  const NodeId r0 = sim.AddNode("r0", true);
  const NodeId r1 = sim.AddNode("r1", true);
  const NodeId h = sim.AddNode("h", false);
  const SubnetId lan_a = sim.AddSubnet(
      "lanA", SubnetAddress::FromPrefix(Ipv4Address(10, 1, 0, 0), 16));
  const SubnetId lan_b = sim.AddSubnet(
      "lanB", SubnetAddress::FromPrefix(Ipv4Address(10, 2, 0, 0), 16));
  sim.Attach(r0, lan_a);
  sim.Attach(h, lan_a);
  sim.Attach(h, lan_b);
  sim.Attach(r1, lan_b);
  RouteManager routes(sim);
  EXPECT_EQ(routes.Distance(r0, r1), RouteManager::kInfinity);
}

TEST(RouteManager, TieBreaksOnLowestNextHopAddress) {
  Simulator sim;
  const Topology topo = MakeFigure1(sim);
  RouteManager routes(sim);
  // R6 -> R4: R2 (10.4.0.2) and R5 (10.4.0.3) are both 3 hops; the spec's
  // narrative requires R2 to win ("R2 (the lower addressed) wins").
  const auto route =
      routes.Lookup(topo.node("R6"), sim.PrimaryAddress(topo.node("R4")));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(sim.FindNodeByAddress(route->next_hop), topo.node("R2"));
}

TEST(RouteManager, StaticOverrideWinsAndClears) {
  Simulator sim;
  Topology topo = MakeLine(sim, 3);
  RouteManager routes(sim);
  const NodeId r0 = topo.routers[0];
  const NodeId r2 = topo.routers[2];
  const Ipv4Address target =
      sim.subnet(topo.router_lans[2]).address.HostAddress(1);

  // Force r0 to send via its own LAN interface (nonsense route, but ours).
  const VifIndex lan_vif = 1;  // vif order: p2p first? find LAN vif:
  VifIndex vif = kInvalidVif;
  for (const auto& iface : sim.node(r0).interfaces) {
    if (iface.subnet == topo.router_lans[0]) vif = iface.vif;
  }
  ASSERT_NE(vif, kInvalidVif);
  (void)lan_vif;
  routes.SetStaticNextHop(r0, sim.interface(r2, 0).subnet, vif,
                          Ipv4Address(1, 2, 3, 4));
  (void)target;
  const auto forced = routes.Lookup(r0, sim.PrimaryAddress(r2));
  ASSERT_TRUE(forced.has_value());
  EXPECT_EQ(forced->next_hop, Ipv4Address(1, 2, 3, 4));

  routes.ClearStaticNextHops();
  const auto normal = routes.Lookup(r0, sim.PrimaryAddress(r2));
  ASSERT_TRUE(normal.has_value());
  EXPECT_EQ(sim.FindNodeByAddress(normal->next_hop), topo.routers[1]);
}

TEST(RouteManager, PathListsAllNodes) {
  Simulator sim;
  Topology topo = MakeLine(sim, 4);
  RouteManager routes(sim);
  const auto path = routes.Path(topo.routers[0], topo.routers[3]);
  ASSERT_EQ(path.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(path[(std::size_t)i], topo.routers[(std::size_t)i]);
}

TEST(RouteManager, PathDelayAccumulates) {
  Simulator sim;
  Topology topo = MakeLine(sim, 3, 5 * kMillisecond);
  RouteManager routes(sim);
  EXPECT_EQ(routes.PathDelay(topo.routers[0], topo.routers[2]),
            10 * kMillisecond);
}

TEST(RouteManager, IsDirectlyAttached) {
  Simulator sim;
  Topology topo = MakeLine(sim, 2);
  RouteManager routes(sim);
  const NodeId r0 = topo.routers[0];
  EXPECT_TRUE(routes.IsDirectlyAttached(
      r0, sim.subnet(topo.router_lans[0]).address.HostAddress(9)));
  EXPECT_FALSE(routes.IsDirectlyAttached(
      r0, sim.subnet(topo.router_lans[1]).address.HostAddress(9)));
}

TEST(RouteManager, AsymmetricCostsProduceAsymmetricRoutes) {
  Simulator sim;
  // Triangle with one expensive direction: a->b direct costs 5, so a
  // prefers a->c->b (2); b->a direct still costs 1. Targets are stub LANs
  // so the route is not short-circuited by direct subnet delivery.
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  const NodeId c = sim.AddNode("c", true);
  const SubnetId ab = sim.Connect(a, b);
  sim.Connect(a, c);
  sim.Connect(c, b);
  const SubnetId lan_a = sim.AddSubnet(
      "lanA", SubnetAddress::FromPrefix(Ipv4Address(10, 1, 0, 0), 16));
  const SubnetId lan_b = sim.AddSubnet(
      "lanB", SubnetAddress::FromPrefix(Ipv4Address(10, 2, 0, 0), 16));
  sim.Attach(a, lan_a);
  sim.Attach(b, lan_b);
  // Raise a's outgoing cost on the a-b link only.
  for (const auto& iface : sim.node(a).interfaces) {
    if (iface.subnet == ab) sim.SetInterfaceCost(a, iface.vif, 5.0);
  }
  RouteManager routes(sim);

  const auto a_to_b = routes.Lookup(a, Ipv4Address(10, 2, 0, 99));
  ASSERT_TRUE(a_to_b.has_value());
  EXPECT_EQ(sim.FindNodeByAddress(a_to_b->next_hop), c);

  const auto b_to_a = routes.Lookup(b, Ipv4Address(10, 1, 0, 99));
  ASSERT_TRUE(b_to_a.has_value());
  EXPECT_EQ(sim.FindNodeByAddress(b_to_a->next_hop), a);
}

TEST(RouteManager, CostRaisedAfterWarmTablesReroutes) {
  Simulator sim;
  // Triangle a-b, a-c, c-b at unit cost: a reaches b's LAN directly.
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  const NodeId c = sim.AddNode("c", true);
  const SubnetId ab = sim.Connect(a, b);
  sim.Connect(a, c);
  sim.Connect(c, b);
  const SubnetId lan_b = sim.AddSubnet(
      "lanB", SubnetAddress::FromPrefix(Ipv4Address(10, 2, 0, 0), 16));
  sim.Attach(b, lan_b);
  RouteManager routes(sim);
  const Ipv4Address dest(10, 2, 0, 99);
  const auto before = routes.Lookup(a, dest);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(sim.FindNodeByAddress(before->next_hop), b);
  EXPECT_DOUBLE_EQ(routes.Distance(a, b), 1.0);

  // Every table is warm; now make a->b expensive. The change is
  // journaled, so the warm table must not keep the stale route.
  for (const auto& iface : sim.node(a).interfaces) {
    if (iface.subnet == ab) sim.SetInterfaceCost(a, iface.vif, 5.0);
  }
  const auto after = routes.Lookup(a, dest);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(sim.FindNodeByAddress(after->next_hop), c);
  EXPECT_DOUBLE_EQ(after->cost, 2.0);
  EXPECT_DOUBLE_EQ(routes.Distance(a, b), 2.0);
}

// The perfbench grid (32x32 routers, 256 single-station LANs, one sender
// host): every computed table must stay within 64 KB. A table holds a
// Route per node but only a 4-byte entry per subnet (1,281 nodes and
// 3,008 subnets here: 58.5 KB, where a Route per subnet took 142.7 KB).
TEST(RouteManager, TableFootprintOnPerfbenchGrid) {
  Simulator sim;
  Topology topo = netsim::MakeGrid(sim, 32, 32);
  for (std::size_t i = 0; i < 256; ++i) {
    netsim::AttachHost(sim, topo, topo.router_lans[i],
                       netsim::IndexedName("agg", i));
  }
  netsim::AttachHost(sim, topo, topo.router_lans.back(), "sender");
  ASSERT_EQ(sim.node_count(), 1281u);
  ASSERT_EQ(sim.subnet_count(), 3008u);

  RouteManager routes(sim);
  EXPECT_EQ(routes.TableBytes(), 0u);
  constexpr std::size_t kTables = 4;
  for (std::size_t i = 0; i < kTables; ++i) {
    routes.Distance(topo.routers[i * 300], topo.routers.front());
  }
  ASSERT_EQ(routes.stats().tables_computed, kTables);
  EXPECT_LE(routes.TableBytes(), kTables * 64 * 1024);
  EXPECT_GE(routes.TableBytes(), kTables * 50 * 1024);  // counts something
}

}  // namespace
}  // namespace cbt::routing
