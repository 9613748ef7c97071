// The MOSPF-style link-state baseline: membership LSA flooding, on-demand
// source-tree computation, and forwarding.
#include <gtest/gtest.h>

#include "baselines/mospf_router.h"
#include "netsim/topologies.h"

namespace cbt::baselines {
namespace {

using netsim::MakeGrid;
using netsim::MakeLine;
using netsim::Simulator;
using netsim::Topology;

constexpr Ipv4Address kGroup(239, 20, 0, 1);
const std::vector<std::uint8_t> kPayload{3, 3};

TEST(MembershipLsaCodec, RoundTripAndValidation) {
  MembershipLsa lsa;
  lsa.advertising_router = Ipv4Address(10, 1, 0, 1);
  lsa.group = Ipv4Address(239, 20, 0, 1);
  lsa.sequence = 42;
  lsa.member = true;
  const auto bytes = lsa.Encode();
  const auto decoded = MembershipLsa::Decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->advertising_router, lsa.advertising_router);
  EXPECT_EQ(decoded->group, lsa.group);
  EXPECT_EQ(decoded->sequence, 42u);
  EXPECT_TRUE(decoded->member);

  auto corrupted = bytes;
  corrupted[9] ^= 1;
  EXPECT_FALSE(MembershipLsa::Decode(corrupted).has_value());
}

class MospfFixture : public ::testing::Test {
 protected:
  MospfFixture() : topo(MakeGrid(sim, 3, 3)) {
    domain.emplace(sim, topo);
    domain->Start();
    sim.RunUntil(kSecond);
  }

  Simulator sim{1};
  Topology topo;
  std::optional<MospfDomain> domain;
};

TEST_F(MospfFixture, MembershipLsaFloodsDomainWide) {
  auto& m = domain->AddHost(topo.router_lans[8], "m");
  m.JoinGroupWithCores(kGroup, {}, 0);
  sim.RunUntil(sim.Now() + 10 * kSecond);

  // EVERY router now knows router 8 is a member — the knowledge-everywhere
  // cost the CBT paper criticises.
  for (const NodeId r : topo.routers) {
    const auto members = domain->router(r).MemberRouters(kGroup);
    ASSERT_EQ(members.size(), 1u) << sim.node(r).name;
    EXPECT_EQ(members[0], topo.routers[8]);
  }
}

TEST_F(MospfFixture, DeliveryAlongShortestPathTree) {
  auto& m1 = domain->AddHost(topo.router_lans[8], "m1");
  auto& m2 = domain->AddHost(topo.router_lans[6], "m2");
  m1.JoinGroupWithCores(kGroup, {}, 0);
  m2.JoinGroupWithCores(kGroup, {}, 0);
  sim.RunUntil(sim.Now() + 10 * kSecond);

  auto& src = domain->AddHost(topo.router_lans[0], "src");
  src.SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  EXPECT_EQ(m1.ReceivedCount(kGroup), 1u);
  EXPECT_EQ(m2.ReceivedCount(kGroup), 1u);

  // Off-tree routers forwarded nothing; the tree computation ran only on
  // on-tree routers touched by the packet.
  std::uint64_t total_forwarded = 0;
  for (const NodeId r : topo.routers) {
    total_forwarded += domain->router(r).stats().data_forwarded;
  }
  // Grid SPT from corner 0 to corners 6 and 8: <= 4+4 transmissions.
  EXPECT_LE(total_forwarded, 8u);
}

TEST_F(MospfFixture, SptCacheInvalidatedByMembershipChange) {
  auto& m1 = domain->AddHost(topo.router_lans[8], "m1");
  m1.JoinGroupWithCores(kGroup, {}, 0);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  auto& src = domain->AddHost(topo.router_lans[0], "src");
  src.SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  ASSERT_EQ(m1.ReceivedCount(kGroup), 1u);

  // A new member appears behind a different router: the next packet must
  // reach both (cached trees recomputed thanks to the membership epoch).
  auto& m2 = domain->AddHost(topo.router_lans[2], "m2");
  m2.JoinGroupWithCores(kGroup, {}, 0);
  sim.RunUntil(sim.Now() + 10 * kSecond);
  src.SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  EXPECT_EQ(m1.ReceivedCount(kGroup), 2u);
  EXPECT_EQ(m2.ReceivedCount(kGroup), 1u);
}

TEST_F(MospfFixture, LeaveWithdrawsMembershipLsa) {
  auto& m1 = domain->AddHost(topo.router_lans[8], "m1");
  m1.JoinGroupWithCores(kGroup, {}, 0);
  sim.RunUntil(sim.Now() + 10 * kSecond);
  ASSERT_EQ(domain->router(topo.routers[0]).MemberRouters(kGroup).size(), 1u);

  m1.LeaveGroup(kGroup);
  sim.RunUntil(sim.Now() + 30 * kSecond);
  EXPECT_TRUE(domain->router(topo.routers[0]).MemberRouters(kGroup).empty());
}

TEST_F(MospfFixture, TopologyChangeRecomputesTrees) {
  auto& m = domain->AddHost(topo.router_lans[8], "m");
  m.JoinGroupWithCores(kGroup, {}, 0);
  sim.RunUntil(sim.Now() + 10 * kSecond);
  auto& src = domain->AddHost(topo.router_lans[0], "src");
  src.SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  ASSERT_EQ(m.ReceivedCount(kGroup), 1u);

  // Cut a link on the current tree path (corner grids route along the
  // edges); MOSPF must recompute the SPT from the topology epoch and
  // deliver over the surviving path.
  sim.SetSubnetUp(sim.interface(topo.routers[0], 0).subnet, false);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  src.SendToGroup(kGroup, kPayload);
  sim.RunUntil(sim.Now() + 5 * kSecond);
  EXPECT_EQ(m.ReceivedCount(kGroup), 2u);
}

TEST(MospfLine, StateHeldEverywhereEvenOffTree) {
  // 6-router line; a single member at one end: every router, including
  // ones that will never carry traffic, holds the membership entry.
  Simulator sim{1};
  Topology topo = MakeLine(sim, 6);
  MospfDomain domain(sim, topo);
  domain.Start();
  sim.RunUntil(kSecond);
  auto& m = domain.AddHost(topo.router_lans[5], "m");
  m.JoinGroupWithCores(kGroup, {}, 0);
  sim.RunUntil(sim.Now() + 10 * kSecond);

  for (const NodeId r : topo.routers) {
    if (r == topo.routers[5]) continue;  // the member's own DR
    EXPECT_GE(domain.router(r).StateUnits(), 1u) << sim.node(r).name;
  }
}

}  // namespace
}  // namespace cbt::baselines
