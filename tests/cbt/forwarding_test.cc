// Data-packet forwarding per sections 4 (native mode), 5 (CBT mode) and 7
// (loop suppression), including the spec's member-G walkthrough.
#include <gtest/gtest.h>

#include "cbt/domain.h"
#include "netsim/topologies.h"

namespace cbt::core {
namespace {

using netsim::MakeFigure1;
using netsim::Simulator;
using netsim::Topology;

constexpr Ipv4Address kGroup(239, 1, 2, 3);
const std::vector<std::uint8_t> kPayload{'c', 'b', 't', '!'};

/// Parameterized over forwarding mode: native (section 4) vs CBT
/// encapsulation (section 5). Delivery semantics must be identical.
class ForwardingFixture : public ::testing::TestWithParam<bool> {
 protected:
  ForwardingFixture() : topo(MakeFigure1(sim)) {
    CbtConfig config;
    config.native_mode = GetParam();
    domain.emplace(sim, topo, config);
    domain->RegisterGroup(kGroup, {topo.node("R4"), topo.node("R9")});
    domain->Start();
    sim.RunUntil(kSecond);
  }

  /// Joins every lettered member host and lets the tree settle.
  void JoinAll() {
    for (const char* h : kMembers) domain->host(h).JoinGroup(kGroup);
    sim.RunUntil(30 * kSecond);
  }

  static constexpr const char* kMembers[] = {"A", "B", "C", "D", "E", "F",
                                             "G", "H", "I", "J", "K", "L"};

  Simulator sim{1};
  Topology topo;
  std::optional<CbtDomain> domain;
};

INSTANTIATE_TEST_SUITE_P(Modes, ForwardingFixture, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Native" : "CbtMode";
                         });

TEST_P(ForwardingFixture, MemberGSendReachesEveryOtherMemberExactlyOnce) {
  JoinAll();
  domain->host("G").SendToGroup(kGroup, kPayload);
  sim.RunUntil(40 * kSecond);

  for (const char* h : kMembers) {
    if (std::string(h) == "G") continue;
    EXPECT_EQ(domain->host(h).ReceivedCount(kGroup), 1u) << h;
  }
  // The sender's own LAN already saw the packet; no echo back to G.
  EXPECT_EQ(domain->host("G").ReceivedCount(kGroup), 0u);
}

TEST_P(ForwardingFixture, EverySenderReachesEveryReceiver) {
  JoinAll();
  for (const char* h : kMembers) {
    domain->host(h).SendToGroup(kGroup, kPayload);
  }
  sim.RunUntil(60 * kSecond);
  // 12 members, each receives from the 11 others exactly once.
  for (const char* h : kMembers) {
    EXPECT_EQ(domain->host(h).ReceivedCount(kGroup), 11u) << h;
  }
}

TEST_P(ForwardingFixture, MemberlessTransitLanGetsNoDelivery) {
  JoinAll();
  // "R9, the DR for S12, need not IP multicast onto S12 since there are
  // no members present there."
  auto& quiet = domain->AddHost(topo.subnet("S12"), "quiet");
  domain->host("G").SendToGroup(kGroup, kPayload);
  sim.RunUntil(40 * kSecond);
  EXPECT_EQ(quiet.ReceivedCount(kGroup), 0u);
  EXPECT_EQ(domain->router("R9").stats().data_delivered_lan, 0u);
}

TEST_P(ForwardingFixture, NonJoinedHostOnMemberLanIgnoresData) {
  JoinAll();
  auto& bystander = domain->AddHost(topo.subnet("S1"), "bystander");
  domain->host("G").SendToGroup(kGroup, kPayload);
  sim.RunUntil(40 * kSecond);
  // The frame crosses S1 (A lives there) but the IP module of a
  // non-member host discards it.
  EXPECT_EQ(bystander.ReceivedCount(kGroup), 0u);
}

TEST_P(ForwardingFixture, NonMemberSenderReachesGroupViaCore) {
  JoinAll();
  // S12 has no members and its DR (R9) is on-tree; a host there sends
  // without joining. Sections 5.1/5.3.
  auto& sender = domain->AddHost(topo.subnet("S12"), "sender");
  sender.SendToGroup(kGroup, kPayload);
  sim.RunUntil(40 * kSecond);
  for (const char* h : kMembers) {
    EXPECT_EQ(domain->host(h).ReceivedCount(kGroup), 1u) << h;
  }
}

TEST_P(ForwardingFixture, NonMemberSenderWithOffTreeDrReachesGroup) {
  // Only A joins; a host on S13 (whose DR R10 is then off-tree) sends.
  // R10 must encapsulate toward the core; the tree delivers to A.
  domain->host("A").JoinGroup(kGroup);
  sim.RunUntil(10 * kSecond);
  auto& sender = domain->AddHost(topo.subnet("S13"), "sender");
  sender.SendToGroup(kGroup, kPayload);
  sim.RunUntil(20 * kSecond);
  EXPECT_EQ(domain->host("A").ReceivedCount(kGroup), 1u);
  EXPECT_GE(domain->router("R10").stats().data_encapsulated, 1u);
}

TEST_P(ForwardingFixture, SecondPacketFollowsSamePath) {
  JoinAll();
  domain->host("A").SendToGroup(kGroup, kPayload);
  domain->host("A").SendToGroup(kGroup, kPayload);
  sim.RunUntil(40 * kSecond);
  EXPECT_EQ(domain->host("J").ReceivedCount(kGroup), 2u);
}

TEST_P(ForwardingFixture, TtlLimitsPropagation) {
  // G -> R8 -> R4 -> R3 -> R1 -> S1(A) needs 4 router hops; TTL 2 cannot
  // get there but reaches K (S14, one router away). Each router where the
  // TTL runs out counts the drop in data_dropped_ttl, on both data planes.
  const auto send_ttl_2 = [](Simulator& s, CbtDomain& d) {
    for (const char* h : kMembers) d.host(h).JoinGroup(kGroup);
    s.RunUntil(30 * kSecond);
    d.host("G").SendToGroup(kGroup, kPayload, /*ttl=*/2);
    s.RunUntil(40 * kSecond);
    EXPECT_EQ(d.host("A").ReceivedCount(kGroup), 0u);
    EXPECT_EQ(d.host("K").ReceivedCount(kGroup), 1u);
    std::uint64_t expired = 0;
    for (const NodeId id : d.router_ids()) {
      expired += d.router(id).stats().data_dropped_ttl;
    }
    return expired;
  };
  ASSERT_EQ(domain->router("R4").config().dataplane, DataplaneMode::kFast);
  const std::uint64_t fast = send_ttl_2(sim, *domain);

  Simulator slow_sim{1};
  Topology slow_topo = MakeFigure1(slow_sim);
  CbtConfig slow_config = domain->router("R4").config();
  slow_config.dataplane = DataplaneMode::kSlow;
  CbtDomain slow(slow_sim, slow_topo, slow_config);
  slow.RegisterGroup(kGroup, {slow_topo.node("R4"), slow_topo.node("R9")});
  slow.Start();
  slow_sim.RunUntil(kSecond);
  const std::uint64_t slow_expired = send_ttl_2(slow_sim, slow);

  EXPECT_EQ(fast, 3u);  // three routers at the TTL boundary drop a copy
  EXPECT_EQ(slow_expired, fast);
}

TEST_P(ForwardingFixture, Section5WalkthroughDeliveryCounts) {
  JoinAll();
  for (auto& id : domain->router_ids()) {
    domain->router(id).mutable_stats() = RouterStats{};
  }
  domain->host("G").SendToGroup(kGroup, kPayload);
  sim.RunUntil(40 * kSecond);

  // "R4 ... IP multicasts the data packet onto S5, S6 and S7".
  EXPECT_EQ(domain->router("R4").stats().data_delivered_lan, 3u);
  // "R7 IP multicasts onto S9."
  EXPECT_EQ(domain->router("R7").stats().data_delivered_lan, 1u);
  // "R10 ... IP multicasts to both S13 and S15."
  EXPECT_EQ(domain->router("R10").stats().data_delivered_lan, 2u);
  // "R9 need not IP multicast onto S12."
  EXPECT_EQ(domain->router("R9").stats().data_delivered_lan, 0u);
  // "R8 ... also IP multicasts the packet to S14 (S10 received the
  // IP-style packet already from the originator)."
  EXPECT_EQ(domain->router("R8").stats().data_delivered_lan, 1u);
}

TEST(CbtModeFanout, MultipleChildrenBehindOneVifUseOneCbtMulticast) {
  // Three routers share a LAN; two of them serve member LANs and join via
  // the third toward an upstream core. The parent must emit ONE CBT
  // multicast on the shared LAN instead of two unicasts (section 5).
  Simulator sim{1};
  netsim::Topology topo;
  Ipv4Address group(239, 5, 5, 5);

  const NodeId up = sim.AddNode("up", true);
  const NodeId core = sim.AddNode("core", true);
  const NodeId ra = sim.AddNode("ra", true);
  const NodeId rb = sim.AddNode("rb", true);
  topo.routers = {up, core, ra, rb};
  topo.nodes = {{"up", up}, {"core", core}, {"ra", ra}, {"rb", rb}};
  sim.Connect(up, core);
  const SubnetId shared = sim.AddSubnet(
      "shared", SubnetAddress::FromPrefix(Ipv4Address(10, 20, 0, 0), 16));
  sim.Attach(up, shared);
  sim.Attach(ra, shared);
  sim.Attach(rb, shared);
  const SubnetId lan_a = sim.AddSubnet(
      "lanA", SubnetAddress::FromPrefix(Ipv4Address(10, 21, 0, 0), 16));
  const SubnetId lan_b = sim.AddSubnet(
      "lanB", SubnetAddress::FromPrefix(Ipv4Address(10, 22, 0, 0), 16));
  const SubnetId lan_c = sim.AddSubnet(
      "lanC", SubnetAddress::FromPrefix(Ipv4Address(10, 23, 0, 0), 16));
  sim.Attach(ra, lan_a);
  sim.Attach(rb, lan_b);
  sim.Attach(core, lan_c);
  topo.subnets = {{"shared", shared}, {"lanA", lan_a}, {"lanB", lan_b},
                  {"lanC", lan_c}};

  CbtConfig config;
  config.native_mode = false;
  CbtDomain domain(sim, topo, config);
  domain.RegisterGroup(group, {core});
  domain.Start();
  sim.RunUntil(kSecond);

  auto& ha = domain.AddHost(lan_a, "ha");
  auto& hb = domain.AddHost(lan_b, "hb");
  auto& hc = domain.AddHost(lan_c, "hc");
  ha.JoinGroup(group);
  hb.JoinGroup(group);
  sim.RunUntil(10 * kSecond);

  // ra and rb are both children of `up` on the shared LAN.
  const FibEntry* up_entry = domain.router(up).fib().Find(group);
  ASSERT_NE(up_entry, nullptr);
  EXPECT_EQ(up_entry->children.size(), 2u);
  EXPECT_EQ(up_entry->ChildVifs().size(), 1u);

  sim.ResetCounters();
  hc.SendToGroup(group, kPayload);
  sim.RunUntil(20 * kSecond);

  EXPECT_EQ(ha.ReceivedCount(group), 1u);
  EXPECT_EQ(hb.ReceivedCount(group), 1u);
  // Exactly one frame crossed the shared LAN for this packet.
  EXPECT_EQ(sim.subnet(shared).counters.frames_sent, 1u);
}

TEST(DataLoopSuppression, OnTreePacketViaOffTreeInterfaceDropped) {
  // Section 7: a CBT-encapsulated packet with on-tree = 0xff arriving
  // over an off-tree interface is discarded immediately.
  Simulator sim{1};
  netsim::Topology topo = netsim::MakeLine(sim, 3);
  Ipv4Address group(239, 6, 6, 6);
  CbtConfig config;
  config.native_mode = false;
  CbtDomain domain(sim, topo, config);
  domain.RegisterGroup(group, {topo.routers[2]});
  domain.Start();
  sim.RunUntil(kSecond);

  auto& member = domain.AddHost(topo.router_lans[0], "m");
  member.JoinGroup(group);
  sim.RunUntil(10 * kSecond);
  auto& r1 = domain.router(topo.routers[1]);
  ASSERT_TRUE(r1.IsOnTree(group));

  // Hand-craft an on-tree packet and inject it from r1's stub LAN — an
  // interface that is NOT a tree interface for the group.
  const auto inner = packet::BuildAppDatagram(
      sim.subnet(topo.router_lans[1]).address.HostAddress(77), group,
      kPayload);
  packet::CbtDataHeader hdr;
  hdr.group = group;
  hdr.core = sim.PrimaryAddress(topo.routers[2]);
  hdr.origin = sim.subnet(topo.router_lans[1]).address.HostAddress(77);
  hdr.ip_ttl = 16;
  hdr.on_tree = true;  // claims to be on-tree already

  const NodeId injector = sim.AddNode("injector", false);
  sim.Attach(injector, topo.router_lans[1]);
  VifIndex r1_lan_vif = kInvalidVif;
  for (const auto& iface : sim.node(topo.routers[1]).interfaces) {
    if (iface.subnet == topo.router_lans[1]) r1_lan_vif = iface.vif;
  }
  const Ipv4Address r1_lan_addr =
      sim.interface(topo.routers[1], r1_lan_vif).address;

  const auto dropped_before = r1.stats().data_dropped_off_tree;
  sim.SendDatagram(injector, 0,  r1_lan_addr,
                   packet::BuildCbtModeDatagram(hdr.origin, r1_lan_addr, hdr,
                                                inner));
  sim.RunUntil(sim.Now() + 5 * kSecond);
  EXPECT_EQ(r1.stats().data_dropped_off_tree, dropped_before + 1);
  EXPECT_EQ(member.ReceivedCount(group), 0u);
}

}  // namespace
}  // namespace cbt::core
