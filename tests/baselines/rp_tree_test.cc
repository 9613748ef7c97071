// The PIM-SM-shape unidirectional RP-tree baseline: explicit joins with
// soft-state refresh, register encapsulation to the RP, downward-only
// forwarding, and prune-on-leave.
#include <gtest/gtest.h>

#include "baselines/rp_tree_router.h"
#include "netsim/topologies.h"

namespace cbt::baselines {
namespace {

using netsim::MakeLine;
using netsim::Simulator;
using netsim::Topology;

constexpr Ipv4Address kGroup(239, 60, 0, 1);
const std::vector<std::uint8_t> kPayload{5, 5};

TEST(RpTreeMessageCodec, RoundTripAndValidation) {
  RpTreeMessage msg;
  msg.type = RpTreeMessage::Type::kJoin;
  msg.group = kGroup;
  msg.rp = Ipv4Address(10, 0, 0, 1);
  const auto decoded = RpTreeMessage::Decode(msg.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, RpTreeMessage::Type::kJoin);
  EXPECT_EQ(decoded->group, kGroup);
  EXPECT_EQ(decoded->rp, Ipv4Address(10, 0, 0, 1));
  auto corrupted = msg.Encode();
  corrupted[6] ^= 1;
  EXPECT_FALSE(RpTreeMessage::Decode(corrupted).has_value());
}

class RpTreeFixture : public ::testing::Test {
 protected:
  // Line r0 - r1 - r2 - r3; RP at r3; member behind r0, sender behind r2.
  RpTreeFixture() : topo(MakeLine(sim, 4)) {
    domain.emplace(sim, topo);
    domain->RegisterGroup(kGroup, {topo.routers[3]});
    domain->Start();
    sim.RunUntil(kSecond);
    member = &domain->AddHost(topo.router_lans[0], "m");
    sender = &domain->AddHost(topo.router_lans[2], "s");
    member->JoinGroupWithCores(kGroup, {}, 0);
    sim.RunUntil(10 * kSecond);
  }

  Simulator sim{1};
  Topology topo;
  std::optional<RpTreeDomain> domain;
  core::HostAgent* member = nullptr;
  core::HostAgent* sender = nullptr;
};

TEST_F(RpTreeFixture, JoinBuildsBranchToRp) {
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(domain->router(topo.routers[(std::size_t)i])
                    .HasTreeState(kGroup))
        << "router " << i;
  }
  EXPECT_GE(domain->router(topo.routers[0]).stats().joins_sent, 1u);
  EXPECT_GE(domain->router(topo.routers[3]).stats().joins_received, 1u);
}

TEST_F(RpTreeFixture, SenderRegistersViaRpAndDataFlowsDown) {
  sender->SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  EXPECT_EQ(member->ReceivedCount(kGroup), 1u);
  // The sender's DR (r2) registered; the packet went UP to the RP (r3)
  // and only then down the tree — the unidirectional detour.
  EXPECT_GE(domain->router(topo.routers[2]).stats().registers_sent, 1u);
  EXPECT_GE(domain->router(topo.routers[3]).stats().data_forwarded, 1u);
}

TEST_F(RpTreeFixture, DataNeverFlowsUpTheTree) {
  // A packet injected on r1's LAN (sender-side DR r1) must not be
  // accepted as tree traffic by r2 upward; it registers to the RP.
  auto& side = domain->AddHost(topo.router_lans[1], "side");
  side.SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  EXPECT_EQ(member->ReceivedCount(kGroup), 1u);
  EXPECT_GE(domain->router(topo.routers[1]).stats().registers_sent, 1u);
}

TEST_F(RpTreeFixture, JoinRefreshKeepsBranchAliveAndLeavePrunesIt) {
  // Holdtime is 210s; refreshes every 60s must keep the branch.
  sim.RunUntil(sim.Now() + 600 * kSecond);
  EXPECT_TRUE(domain->router(topo.routers[1]).HasTreeState(kGroup));

  member->LeaveGroup(kGroup);
  sim.RunUntil(sim.Now() + 120 * kSecond);
  // Prunes propagate immediately on leave; only the RP keeps state.
  EXPECT_FALSE(domain->router(topo.routers[0]).HasTreeState(kGroup));
  EXPECT_FALSE(domain->router(topo.routers[1]).HasTreeState(kGroup));
  EXPECT_GE(domain->router(topo.routers[0]).stats().prunes_sent, 1u);
}

TEST_F(RpTreeFixture, BranchExpiresWhenRefreshesStop) {
  // Sever the member-side link: refreshes from r0 stop reaching r1 and
  // the downstream entry must age out within the holdtime.
  sim.SetSubnetUp(topo.subnets.at("link0"), false);
  sim.RunUntil(sim.Now() + 300 * kSecond);
  const auto& r1 = domain->router(topo.routers[1]);
  // r1 pruned itself upstream once its downstream expired.
  EXPECT_FALSE(r1.HasTreeState(kGroup));
}

TEST(RpTreeVsCbt, RegisterDetourCostsMoreHops) {
  // Line of 5 with RP/core in the middle (r2); member behind r0; sender
  // behind r1 — between member and RP. CBT (bidirectional) delivers
  // sender->r1->r0 without touching the core; the RP tree must go
  // r1 -> r2 (register) -> back down r1 -> r0: strictly more
  // transmissions on the r1-r2 links.
  Simulator sim{1};
  Topology topo = MakeLine(sim, 5);
  RpTreeDomain domain(sim, topo);
  domain.RegisterGroup(kGroup, {topo.routers[2]});
  domain.Start();
  sim.RunUntil(kSecond);
  auto& m = domain.AddHost(topo.router_lans[0], "m");
  auto& s = domain.AddHost(topo.router_lans[1], "s");
  m.JoinGroupWithCores(kGroup, {}, 0);
  sim.RunUntil(10 * kSecond);

  sim.ResetCounters();
  s.SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  EXPECT_EQ(m.ReceivedCount(kGroup), 1u);
  // The r1-r2 link carried the packet twice (register up, tree down).
  const SubnetId l12 = topo.subnets.at("link1");
  EXPECT_EQ(sim.subnet(l12).counters.frames_sent, 2u)
      << "unidirectional detour: up + down on the same link";
}

}  // namespace
}  // namespace cbt::baselines
