#include "analysis/invariant_auditor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/reference_auditor.h"
#include "cbt/domain.h"
#include "netsim/topologies.h"

namespace cbt::analysis {
namespace {

using core::CbtDomain;
using core::FibEntry;
using netsim::Simulator;
using netsim::Topology;

constexpr Ipv4Address kGroup(239, 1, 2, 3);

/// Diamond r0 -- r1 -- r3 / r0 -- r2 -- r3, member behind r0, core r3.
class AuditorFixture : public ::testing::Test {
 protected:
  AuditorFixture() {
    r0 = sim.AddNode("r0", true);
    r1 = sim.AddNode("r1", true);
    r2 = sim.AddNode("r2", true);
    r3 = sim.AddNode("r3", true);
    topo.routers = {r0, r1, r2, r3};
    topo.nodes = {{"r0", r0}, {"r1", r1}, {"r2", r2}, {"r3", r3}};
    l01 = sim.Connect(r0, r1);
    l13 = sim.Connect(r1, r3);
    l02 = sim.Connect(r0, r2);
    l23 = sim.Connect(r2, r3);
    lan0 = sim.AddSubnet(
        "lan0", SubnetAddress::FromPrefix(Ipv4Address(10, 30, 0, 0), 16));
    sim.Attach(r0, lan0);
    topo.subnets = {{"l01", l01}, {"l13", l13}, {"l02", l02},
                    {"l23", l23}, {"lan0", lan0}};
    domain.emplace(sim, topo);
    domain->RegisterGroup(kGroup, {r3});
    domain->Start();
    sim.RunUntil(kSecond);
    member = &domain->AddHost(lan0, "m");
    member->JoinGroup(kGroup);
    sim.RunUntil(10 * kSecond);
  }

  FibEntry& Entry(NodeId id) {
    FibEntry* entry = domain->router(id).mutable_fib().Find(kGroup);
    EXPECT_NE(entry, nullptr);
    return *entry;
  }

  Simulator sim{1};
  Topology topo;
  NodeId r0, r1, r2, r3;
  SubnetId l01, l13, l02, l23, lan0;
  std::optional<CbtDomain> domain;
  core::HostAgent* member = nullptr;
};

TEST_F(AuditorFixture, ConvergedTreeAuditsClean) {
  InvariantAuditor auditor(*domain);
  const AuditReport report = auditor.Audit();
  EXPECT_TRUE(report.Clean()) << report.Summary();
  EXPECT_EQ(report.groups_checked, 1u);
  EXPECT_EQ(report.routers_on_tree, 3u);  // r0, r1, r3 (tie-break via r1)
  EXPECT_EQ(report.at, sim.Now());
}

TEST_F(AuditorFixture, DetectsDuplicateChild) {
  FibEntry& entry = Entry(r1);
  ASSERT_FALSE(entry.children.empty());
  entry.children.push_back(entry.children.front());

  InvariantAuditor auditor(*domain);
  const AuditReport report = auditor.Audit();
  EXPECT_FALSE(report.Clean());
  EXPECT_EQ(report.CountOf(InvariantKind::kDuplicateChild), 1u);
}

TEST_F(AuditorFixture, DetectsAsymmetryAndDetachedMemberLan) {
  // Wipe the member DR's entry behind the protocol's back: r1 now records
  // a child with no reciprocal state, and lan0 has members but no
  // on-tree DR.
  ASSERT_TRUE(domain->router(r0).mutable_fib().Remove(kGroup));

  InvariantAuditor auditor(*domain);
  const AuditReport report = auditor.Audit();
  EXPECT_FALSE(report.Clean());
  EXPECT_GE(report.CountOf(InvariantKind::kAsymmetricChild), 1u);
  EXPECT_EQ(report.CountOf(InvariantKind::kMemberLanDetached), 1u);
}

TEST_F(AuditorFixture, DetectsBrokenParentLinkWhileParentIsDown) {
  // Silent death, audited before any timer can react: r0's parent is a
  // dead node and r3's child entry for r1 has no live reciprocal state.
  sim.SetNodeUp(r1, false);

  InvariantAuditor auditor(*domain);
  const AuditReport report = auditor.Audit();
  EXPECT_FALSE(report.Clean());
  EXPECT_GE(report.CountOf(InvariantKind::kBrokenParentLink), 1u);
  EXPECT_GE(report.CountOf(InvariantKind::kAsymmetricChild), 1u);
}

TEST_F(AuditorFixture, DetectsParentLoop) {
  // Rewire r1's parent pointer back at its own child r0: r0 -> r1 -> r0.
  FibEntry& r1_entry = Entry(r1);
  const FibEntry& r0_entry = Entry(r0);
  ASSERT_FALSE(r1_entry.children.empty());
  r1_entry.parent_address = r1_entry.children.front().address;
  r1_entry.parent_vif = r1_entry.children.front().vif;
  ASSERT_EQ(sim.FindNodeByAddress(r1_entry.parent_address), r0);
  (void)r0_entry;

  InvariantAuditor auditor(*domain);
  const AuditReport report = auditor.Audit();
  EXPECT_FALSE(report.Clean());
  // The cycle is reported exactly once, not once per cycle member.
  EXPECT_EQ(report.CountOf(InvariantKind::kParentLoop), 1u);
}

TEST_F(AuditorFixture, DetectsStaleStateForMemberlessGroup) {
  // A leftover entry for a group nobody belongs to, on a non-core router.
  const Ipv4Address ghost(239, 66, 6, 6);
  domain->router(r2).mutable_fib().Create(ghost);

  InvariantAuditor auditor(*domain);
  const AuditReport report = auditor.Audit();
  EXPECT_EQ(report.groups_checked, 2u);  // kGroup + the ghost from the FIB
  EXPECT_GE(report.CountOf(InvariantKind::kStaleState), 1u);
  // The established group is still fine: scope violations to the ghost.
  for (const Violation& v : report.violations) EXPECT_EQ(v.group, ghost);
}

TEST_F(AuditorFixture, ConvergenceProbeMeasuresRecovery) {
  const SimTime fault_at = sim.Now();
  domain->CrashRouter(r1);
  InvariantAuditor auditor(*domain);
  EXPECT_FALSE(auditor.Audit().Clean());

  // Default timers: echo timeout 90s + reconnect, child-assert expiry for
  // the stale child on r3 within 180s + scan.
  const auto clean =
      RunUntilInvariantsHold(*domain, fault_at + 600 * kSecond);
  ASSERT_TRUE(clean.has_value());
  EXPECT_GT(*clean, fault_at);
  EXPECT_TRUE(auditor.Audit().Clean());
}

TEST_F(AuditorFixture, ConvergenceProbeTimesOutOnPersistentViolation) {
  FibEntry& entry = Entry(r1);
  ASSERT_FALSE(entry.children.empty());
  entry.children.push_back(entry.children.front());

  // The duplicate's stale copy outlives a 60s deadline under the default
  // 180s CHILD-ASSERT-EXPIRE, so the probe must give up at the deadline.
  const SimTime deadline = sim.Now() + 60 * kSecond;
  EXPECT_FALSE(RunUntilInvariantsHold(*domain, deadline).has_value());
  EXPECT_EQ(sim.Now(), deadline);
}

/// Nine routers with no protocol running; each test writes parent
/// pointers by hand. Links: r0-r1, r1-r2, r2-r6, the triangle r4-r5-r6,
/// and r3-r7.
class LoopFixture : public ::testing::Test {
 protected:
  LoopFixture() {
    for (int i = 0; i < 9; ++i) {
      const std::string name = "r" + std::to_string(i);
      r.push_back(sim.AddNode(name, true));
      topo.routers.push_back(r.back());
      topo.nodes[name] = r.back();
    }
    for (const auto& [a, b] : std::vector<std::pair<int, int>>{
             {0, 1}, {1, 2}, {2, 6}, {4, 5}, {5, 6}, {6, 4}, {3, 7}}) {
      sim.Connect(r[a], r[b]);
    }
    domain.emplace(sim, topo);
    domain->RegisterGroup(kGroup, {r[0]});
  }

  /// Gives `child` an entry whose parent is `parent`'s address on their
  /// shared link.
  void SetParent(int child, int parent, Ipv4Address group = kGroup) {
    FibEntry& entry = domain->router(r[child]).mutable_fib().Create(group);
    for (const netsim::Interface& iface : sim.node(r[child]).interfaces) {
      for (const auto& [node, vif] : sim.subnet(iface.subnet).attachments) {
        if (node != r[parent]) continue;
        entry.parent_vif = iface.vif;
        entry.parent_address = sim.interface(node, vif).address;
        return;
      }
    }
    FAIL() << "r" << child << " and r" << parent << " share no link";
  }

  /// The loop violations of an audit, after checking the whole report
  /// against the reference auditor.
  std::vector<Violation> Loops() {
    const AuditReport report = InvariantAuditor(*domain).Audit();
    const AuditReport want = reference::ReferenceAudit(*domain);
    EXPECT_EQ(report.Summary(), want.Summary());
    std::vector<Violation> loops;
    for (const Violation& v : report.violations) {
      if (v.kind == InvariantKind::kParentLoop) loops.push_back(v);
    }
    return loops;
  }

  Simulator sim{1};
  Topology topo;
  std::vector<NodeId> r;
  std::optional<CbtDomain> domain;
};

TEST_F(LoopFixture, ThreeCycleBehindATailIsReportedOnceAtItsLowestMember) {
  // r1 -> r2 -> r6 enters the cycle r6 -> r4 -> r5 -> r6 at r6.
  SetParent(1, 2);
  SetParent(2, 6);
  SetParent(6, 4);
  SetParent(4, 5);
  SetParent(5, 6);

  const std::vector<Violation> loops = Loops();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].node, r[4]);
  EXPECT_EQ(loops[0].Describe(),
            "parent-loop group=239.1.2.3 forwarding loop: r4 r5 r6");
}

TEST_F(LoopFixture, TwoDisjointCyclesAreReportedByLowestMember) {
  SetParent(1, 2);
  SetParent(2, 6);
  SetParent(6, 4);
  SetParent(4, 5);
  SetParent(5, 6);
  // A 2-cycle found after the 3-cycle (the walk from r1 meets r4's cycle
  // first) but reported before it: r3 is the lower lowest member.
  SetParent(7, 3);
  SetParent(3, 7);

  const std::vector<Violation> loops = Loops();
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_EQ(loops[0].node, r[3]);
  EXPECT_EQ(loops[0].Describe(),
            "parent-loop group=239.1.2.3 forwarding loop: r3 r7");
  EXPECT_EQ(loops[1].node, r[4]);
  EXPECT_EQ(loops[1].Describe(),
            "parent-loop group=239.1.2.3 forwarding loop: r4 r5 r6");
}

TEST_F(LoopFixture, CycleInALaterGroupIsFoundAfterAnAcyclicOne) {
  // One audit walks kGroup's chain r4 -> r5 -> r6 first; the same
  // routers must be walked afresh for the next group's cycle.
  const Ipv4Address later(239, 1, 2, 4);
  SetParent(4, 5);
  SetParent(5, 6);
  SetParent(4, 5, later);
  SetParent(5, 6, later);
  SetParent(6, 4, later);

  const std::vector<Violation> loops = Loops();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].node, r[4]);
  EXPECT_EQ(loops[0].Describe(),
            "parent-loop group=239.1.2.4 forwarding loop: r4 r5 r6");
}

TEST_F(LoopFixture, ParentChainThroughACrashedRouterIsNoLoop) {
  SetParent(4, 5);
  SetParent(5, 6);
  SetParent(6, 4);
  ASSERT_EQ(Loops().size(), 1u);

  // A crashed router holds no effective state: the chain r6 -> r4 -> r5
  // ends at a dead parent instead of closing the ring.
  domain->CrashRouter(r[5]);
  EXPECT_TRUE(Loops().empty());
  const AuditReport report = InvariantAuditor(*domain).Audit();
  ASSERT_EQ(report.CountOf(InvariantKind::kBrokenParentLink), 1u);
  for (const Violation& v : report.violations) {
    if (v.kind != InvariantKind::kBrokenParentLink) continue;
    EXPECT_EQ(v.node, r[4]);
    EXPECT_NE(v.detail.find("r4 parent r5("), std::string::npos) << v.detail;
    EXPECT_NE(v.detail.find(") is dead or off-tree"), std::string::npos)
        << v.detail;
  }
}

}  // namespace
}  // namespace cbt::analysis
