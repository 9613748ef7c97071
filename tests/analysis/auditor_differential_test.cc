// Differential test of the invariant auditor against its reference
// (tests/analysis/reference_auditor.h): the full AuditReport — every
// violation's kind, node, subnet and detail in order, plus the
// groups/on-tree/transient counters — must match at every poll of seeded
// chaos runs (link flaps, crashes, partitions on grid, Waxman and
// transit-stub topologies) and through a multi-core live migration.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "analysis/migration.h"
#include "analysis/reference_auditor.h"
#include "cbt/core_selection.h"
#include "cbt/domain.h"
#include "netsim/chaos.h"
#include "netsim/topologies.h"

namespace cbt::analysis {
namespace {

using netsim::ChaosEvent;
using netsim::ChaosEventType;
using netsim::Simulator;
using netsim::Topology;

constexpr Ipv4Address kGroup(239, 4, 4, 4);
/// A second group on the chaos runs, so one Audit() reuses its buffers.
constexpr Ipv4Address kGroup2(239, 4, 4, 5);

core::CbtConfig TightConfig() {
  core::CbtConfig config;
  config.echo_interval = 5 * kSecond;
  config.echo_timeout = 15 * kSecond;
  config.pend_join_interval = 2 * kSecond;
  config.pend_join_timeout = 8 * kSecond;
  config.expire_pending_join = 30 * kSecond;
  config.child_assert_interval = 10 * kSecond;
  config.child_assert_expire = 25 * kSecond;
  config.iff_scan_interval = 60 * kSecond;
  config.reconnect_timeout = 30 * kSecond;
  config.proxy_refresh_interval = 20 * kSecond;
  return config;
}

igmp::IgmpConfig TightIgmp() {
  igmp::IgmpConfig config;
  config.query_interval = 15 * kSecond;
  config.query_response_interval = 4 * kSecond;
  return config;
}

/// Every field of a report, one violation per line.
std::string Render(const AuditReport& report) {
  std::ostringstream os;
  os << "at " << report.at << " groups " << report.groups_checked
     << " on-tree " << report.routers_on_tree << " transient "
     << report.transient_joins << "\n";
  for (const Violation& v : report.violations) {
    os << InvariantKindName(v.kind) << " group " << v.group.ToString()
       << " node " << v.node.value() << " subnet " << v.subnet.value()
       << " | " << v.detail << "\n";
  }
  return os.str();
}

/// Audits with both auditors every `interval` of simulated time, from an
/// event of its own, so the polls also land inside runs the test does not
/// drive itself (CoreMigrator's phases).
class PollingComparer {
 public:
  PollingComparer(core::CbtDomain& domain, SimDuration interval)
      : domain_(domain), interval_(interval) {
    Arm();
  }

  std::size_t polls() const { return polls_; }
  std::size_t dirty_polls() const { return dirty_polls_; }
  /// Polls that saw a violation or a transient join.
  std::size_t busy_polls() const { return busy_polls_; }

 private:
  void Arm() {
    domain_.sim().Schedule(interval_, [this] {
      Compare();
      Arm();
    });
  }

  void Compare() {
    const AuditReport got = InvariantAuditor(domain_).Audit();
    const AuditReport want = reference::ReferenceAudit(domain_);
    ++polls_;
    if (!got.Clean()) ++dirty_polls_;
    if (!got.Clean() || got.transient_joins > 0) ++busy_polls_;
    const std::string got_text = Render(got);
    const std::string want_text = Render(want);
    if (got_text != want_text && mismatches_++ < 3) {
      ADD_FAILURE() << "audit differs from the reference\n--- auditor\n"
                    << got_text << "--- reference\n"
                    << want_text;
    }
  }

  core::CbtDomain& domain_;
  SimDuration interval_;
  std::size_t polls_ = 0;
  std::size_t dirty_polls_ = 0;
  std::size_t busy_polls_ = 0;
  std::size_t mismatches_ = 0;
};

enum class ChaosTopology { kGrid4x4, kWaxman20, kTransitStub };

/// Builds the topology with bench_chaos_soak's member LANs and cores.
Topology Build(Simulator& sim, ChaosTopology which,
               std::vector<std::size_t>& member_lans,
               std::vector<std::size_t>& cores) {
  switch (which) {
    case ChaosTopology::kGrid4x4:
      member_lans = {3, 5, 10, 12};
      cores = {0, 15};
      return netsim::MakeGrid(sim, 4, 4);
    case ChaosTopology::kWaxman20: {
      netsim::WaxmanParams wp;
      wp.n = 20;
      wp.seed = 7;
      member_lans = {4, 9, 14, 19};
      cores = {0, 13};
      return netsim::MakeWaxman(sim, wp);
    }
    case ChaosTopology::kTransitStub:
      break;
  }
  netsim::TransitStubParams tp;
  tp.transit_nodes = 4;
  tp.stub_domains = 6;
  tp.stub_size = 3;
  member_lans = {6, 11, 16, 21};
  cores = {0, 1};
  return netsim::MakeTransitStub(sim, tp);
}

/// One seeded chaos run with a poll every simulated second; returns the
/// fault classes its plan injected.
std::set<ChaosEventType> RunChaos(ChaosTopology which, std::uint64_t seed) {
  Simulator sim(1);
  std::vector<std::size_t> member_lans;
  std::vector<std::size_t> core_index;
  Topology topo = Build(sim, which, member_lans, core_index);
  core::CbtDomain domain(sim, topo, TightConfig(), TightIgmp());
  std::vector<NodeId> cores;
  for (const std::size_t i : core_index) cores.push_back(topo.routers[i]);
  domain.RegisterGroup(kGroup, cores);
  domain.RegisterGroup(kGroup2, {cores[1], cores[0]});
  domain.Start();
  sim.RunUntil(kSecond);

  std::vector<core::HostAgent*> hosts;
  for (const std::size_t lan : member_lans) {
    hosts.push_back(
        &domain.AddHost(topo.router_lans[lan], "m" + std::to_string(lan)));
    hosts.back()->JoinGroup(kGroup);
  }
  hosts[1]->JoinGroup(kGroup2);
  hosts[2]->JoinGroup(kGroup2);

  std::vector<NodeId> crashable;
  for (const NodeId id : topo.routers) {
    if (std::find(cores.begin(), cores.end(), id) == cores.end()) {
      crashable.push_back(id);
    }
  }
  std::vector<SubnetId> flappable;
  for (std::size_t s = 0; s < sim.subnet_count(); ++s) {
    const SubnetId sid(static_cast<std::int32_t>(s));
    if (std::find(topo.router_lans.begin(), topo.router_lans.end(), sid) ==
        topo.router_lans.end()) {
      flappable.push_back(sid);
    }
  }
  netsim::ChaosPlanParams params;
  params.event_count = 10;
  params.start = 60 * kSecond;
  params.min_gap = 20 * kSecond;
  params.max_gap = 60 * kSecond;
  params.min_down = 5 * kSecond;
  params.max_down = 20 * kSecond;
  const netsim::ChaosPlan plan =
      netsim::MakeRandomPlan(seed, params, crashable, flappable);
  netsim::ChaosInjector injector(sim, domain.ChaosHooks());
  injector.Arm(plan);

  const SimTime end = plan.LastRepairTime() + 120 * kSecond;
  for (SimTime t = 30 * kSecond; t < end; t += 2 * kSecond) {
    sim.ScheduleAt(t, [&hosts] {
      hosts[0]->SendToGroup(kGroup, std::vector<std::uint8_t>{0xa5});
    });
  }

  PollingComparer comparer(domain, kSecond);
  sim.RunUntil(end);
  EXPECT_GE(comparer.polls(), static_cast<std::size_t>(end / kSecond) - 2);
  // The comparison means something only if faults left marks to report.
  EXPECT_GT(comparer.dirty_polls(), 0u);
  EXPECT_TRUE(InvariantAuditor(domain).Audit().Clean());

  std::set<ChaosEventType> types;
  for (const ChaosEvent& e : plan.events) types.insert(e.type);
  return types;
}

TEST(AuditorDifferential, MatchesReferenceAtEveryChaosPoll) {
  std::set<ChaosEventType> injected;
  for (const ChaosTopology which :
       {ChaosTopology::kGrid4x4, ChaosTopology::kWaxman20,
        ChaosTopology::kTransitStub}) {
    for (const std::uint64_t seed : {3u, 17u}) {
      SCOPED_TRACE(testing::Message() << "topology "
                                      << static_cast<int>(which) << " seed "
                                      << seed);
      const std::set<ChaosEventType> types = RunChaos(which, seed);
      injected.insert(types.begin(), types.end());
    }
  }
  EXPECT_TRUE(injected.contains(ChaosEventType::kLinkFlap));
  EXPECT_TRUE(injected.contains(ChaosEventType::kNodeCrash));
  EXPECT_TRUE(injected.contains(ChaosEventType::kPartition));
}

TEST(AuditorDifferential, MatchesReferenceThroughMultiCoreMigration) {
  Simulator sim(1);
  Topology topo = netsim::MakeGrid(sim, 4, 4);
  core::CbtDomain domain(sim, topo, TightConfig(), TightIgmp());
  const std::vector<std::size_t> member_index = {0, 3, 5, 10, 12, 15};
  std::vector<NodeId> member_routers;
  std::vector<SubnetId> member_lans;
  for (const std::size_t i : member_index) {
    member_routers.push_back(topo.routers[i]);
    member_lans.push_back(topo.router_lans[i]);
  }
  core_selection::PlacementInput in;
  in.sim = &sim;
  in.routes = &domain.routes();
  in.routers = topo.routers;
  in.member_routers = member_routers;
  in.group = kGroup;
  const core_selection::Placement placement =
      core_selection::MakeStrategy("locality")->Place(in, 2);
  ASSERT_EQ(placement.cores.size(), 2u);
  domain.RegisterGroup(kGroup, placement, member_lans);
  domain.Start();
  sim.RunUntil(kSecond);
  for (std::size_t i = 0; i < member_lans.size(); ++i) {
    domain.AddHost(member_lans[i], "m" + std::to_string(i)).JoinGroup(kGroup);
  }

  sim.RunUntil(sim.Now() + 30 * kSecond);

  // Re-home onto the two lowest-numbered off-tree routers, so the new
  // primary really has to join before the old cores drain.
  const std::vector<NodeId> on_tree = domain.OnTreeRouters(kGroup);
  std::vector<NodeId> new_cores;
  for (const NodeId r : topo.routers) {
    if (new_cores.size() < 2 &&
        std::find(on_tree.begin(), on_tree.end(), r) == on_tree.end()) {
      new_cores.push_back(r);
    }
  }
  ASSERT_EQ(new_cores.size(), 2u);
  // Joins complete within milliseconds on this grid: poll at 1 ms.
  PollingComparer comparer(domain, kMillisecond);
  CoreMigrator migrator(domain);
  const CoreMigrator::Report report = migrator.Migrate(kGroup, new_cores);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_GT(report.new_core_joined, report.started);
  sim.RunUntil(sim.Now() + 10 * kSecond);

  EXPECT_GT(comparer.polls(), 10000u);
  // Polls landed mid-handshake (the new primary's join in flight) or on
  // a violation, not only on a quiet tree.
  EXPECT_GT(comparer.busy_polls(), 0u);
}

}  // namespace
}  // namespace cbt::analysis
