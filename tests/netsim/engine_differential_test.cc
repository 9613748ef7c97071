// Differential tests: the timer-wheel engine must be observationally
// identical to the test reference scheduler (reference_scheduler.h) —
// same execution order at the queue level, and byte-identical
// protocol-level stats when a whole simulation (join latency, chaos
// soak) is replayed on both at the same seed. This is the parity proof
// that lets the wheel stand in for a plain (time, insertion id) heap
// without perturbing any seeded experiment.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "cbt/domain.h"
#include "common/random.h"
#include "netsim/chaos.h"
#include "netsim/reference_scheduler.h"
#include "netsim/topologies.h"

namespace cbt::netsim {
namespace {

// --- Queue-level differential harness --------------------------------------

/// Runs a seeded random schedule/cancel/run workload through `sim`'s
/// scheduler and returns its trace: every fired event as (time, tag) and
/// every cancel as (-1, 1 if it removed a pending event else 0).
std::vector<std::pair<SimTime, int>> QueueTrace(std::uint64_t seed,
                                                bool reference) {
  Rng rng(seed);
  Simulator sim;
  std::optional<ReferenceScheduler> oracle;
  if (reference) oracle.emplace(sim);
  std::vector<std::pair<SimTime, int>> trace;
  int tag = 0;
  const auto schedule = [&](SimTime when) {
    const int t = tag++;
    return sim.ScheduleAt(when,
                          [&trace, when, t] { trace.emplace_back(when, t); });
  };
  const auto cancel = [&](EventId id) {
    trace.emplace_back(-1, sim.Cancel(id) ? 1 : 0);
  };

  std::vector<EventId> live;
  for (int round = 0; round < 200; ++round) {
    // Burst of schedules at mixed horizons: same-tick, near, cross-level,
    // far-future (overflow territory), with plenty of time collisions.
    const int n = static_cast<int>(1 + rng.NextBelow(20));
    for (int i = 0; i < n; ++i) {
      SimTime when = sim.Now();
      switch (rng.NextBelow(4)) {
        case 0:
          when += static_cast<SimTime>(rng.NextBelow(8));  // collisions
          break;
        case 1:
          when += static_cast<SimTime>(rng.NextBelow(50'000));
          break;
        case 2:
          when += static_cast<SimTime>(rng.NextBelow(100'000'000));
          break;
        default:
          when += static_cast<SimTime>(rng.NextBelow(60'000'000'000));
          break;
      }
      live.push_back(schedule(when));
    }
    // Cancel a random subset (the *same logical* subset on both engines:
    // the RNG stream and live-list layout are engine independent).
    const int cancels = static_cast<int>(rng.NextBelow(n + 1));
    for (int i = 0; i < cancels && !live.empty(); ++i) {
      const std::size_t pick = rng.NextBelow(live.size());
      cancel(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    // Run a random number of events.
    const int runs = static_cast<int>(rng.NextBelow(25));
    for (int i = 0; i < runs; ++i) sim.RunUntilIdle(1);
  }

  // Timer churn, the shape of protocol keepalives: a standing population
  // of timers where each op answers one timer (cancel) and re-arms it at
  // a fresh horizon, with a slice of events firing to move the clock.
  std::vector<EventId> timers(256);
  const auto arm = [&](std::size_t i) {
    timers[i] = schedule(sim.Now() + 1 +
                         static_cast<SimTime>(rng.NextBelow(60 * kSecond)));
  };
  for (std::size_t i = 0; i < timers.size(); ++i) arm(i);
  for (int op = 0; op < 20'000; ++op) {
    const std::size_t pick = rng.NextBelow(timers.size());
    cancel(timers[pick]);
    arm(pick);
    if (op % 64 == 0) sim.RunUntilIdle(1);
  }

  sim.RunUntilIdle(std::numeric_limits<std::size_t>::max());
  return trace;
}

class EngineDifferential : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferential,
                         ::testing::Values(1, 7, 23, 51, 97));

TEST_P(EngineDifferential, QueueExecutionTracesIdentical) {
  const auto wheel = QueueTrace(GetParam(), /*reference=*/false);
  const auto reference = QueueTrace(GetParam(), /*reference=*/true);
  ASSERT_EQ(wheel.size(), reference.size());
  for (std::size_t i = 0; i < wheel.size(); ++i) {
    ASSERT_EQ(wheel[i], reference[i]) << "divergence at entry " << i;
  }
}

// --- Full-simulation differentials ------------------------------------------

constexpr Ipv4Address kGroup(239, 42, 42, 42);

/// The E2/E5 join-latency experiment in miniature: joins hosts one by one
/// on a line topology and records every latency plus the control totals.
std::string JoinLatencyStats(bool reference) {
  Simulator sim(1);
  std::optional<ReferenceScheduler> oracle;
  if (reference) oracle.emplace(sim);
  Topology topo = MakeLine(sim, 8);
  core::CbtDomain domain(sim, topo);
  domain.RegisterGroup(kGroup, {topo.routers[0]});
  domain.Start();
  sim.RunUntil(kSecond);

  std::ostringstream out;
  for (std::size_t i = 0; i < topo.router_lans.size(); ++i) {
    core::HostAgent& host =
        domain.AddHost(topo.router_lans[i], "h" + std::to_string(i));
    const SimTime start = sim.Now();
    host.JoinGroup(kGroup);
    std::optional<SimTime> confirmed;
    while (sim.Now() < start + 30 * kSecond) {
      sim.RunUntil(sim.Now() + kMillisecond);
      if (host.JoinConfirmed(kGroup)) {
        confirmed = sim.Now();
        break;
      }
    }
    out << "join " << i << " latency_us "
        << (confirmed ? *confirmed - start : -1) << "\n";
  }
  out << "control " << domain.TotalControlMessages() << "\n";
  out << "fib " << domain.TotalFibState() << "\n";
  return out.str();
}

TEST(EngineDifferential, JoinLatencyByteIdenticalAcrossEngines) {
  const std::string wheel = JoinLatencyStats(/*reference=*/false);
  const std::string reference = JoinLatencyStats(/*reference=*/true);
  EXPECT_EQ(wheel, reference);
  EXPECT_NE(wheel.find("control"), std::string::npos);
}

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

/// The three topologies of bench_chaos_soak's default sweep.
enum class SoakTopology { kGrid4x4, kWaxman20, kTransitStub };

/// A topology plus bench_chaos_soak's member plan for it: the sender
/// sits on member_lans[0]; cores are listed primary first.
struct SoakSetup {
  Topology topo;
  std::vector<std::size_t> member_lans;
  std::vector<NodeId> cores;
};

SoakSetup BuildSoak(Simulator& sim, SoakTopology which) {
  SoakSetup setup;
  switch (which) {
    case SoakTopology::kGrid4x4:
      setup.topo = MakeGrid(sim, 4, 4);
      setup.member_lans = {3, 5, 10, 12};
      setup.cores = {setup.topo.routers[0], setup.topo.routers[15]};
      break;
    case SoakTopology::kWaxman20: {
      WaxmanParams wp;
      wp.n = 20;
      wp.seed = 7;
      setup.topo = MakeWaxman(sim, wp);
      setup.member_lans = {4, 9, 14, 19};
      setup.cores = {setup.topo.routers[0], setup.topo.routers[13]};
      break;
    }
    case SoakTopology::kTransitStub: {
      TransitStubParams tp;
      tp.transit_nodes = 4;
      tp.stub_domains = 6;
      tp.stub_size = 3;
      setup.topo = MakeTransitStub(sim, tp);
      setup.member_lans = {6, 11, 16, 21};
      setup.cores = {setup.topo.routers[0], setup.topo.routers[1]};
      break;
    }
  }
  return setup;
}

/// bench_chaos_soak's replica body (seeded fault plan over every router
/// but the cores and every backbone subnet, steady traffic, recovery
/// probes, final convergence) with its full result — fault classes,
/// recovery times, delivery, control and malformed totals, final audit —
/// serialized for comparison.
std::string ChaosSoakStats(SoakTopology which, std::uint64_t seed,
                           int event_count, bool reference) {
  Simulator sim(1);
  std::optional<ReferenceScheduler> oracle;
  if (reference) oracle.emplace(sim);
  SoakSetup setup = BuildSoak(sim, which);
  Topology& topo = setup.topo;
  core::CbtDomain domain(sim, topo, TightConfig(), TightIgmp());
  domain.RegisterGroup(kGroup, setup.cores);
  domain.Start();
  sim.RunUntil(kSecond);

  std::vector<core::HostAgent*> hosts;
  for (const std::size_t lan : setup.member_lans) {
    hosts.push_back(
        &domain.AddHost(topo.router_lans[lan], "m" + std::to_string(lan)));
    hosts.back()->JoinGroup(kGroup);
  }

  std::vector<NodeId> crashable;
  for (const NodeId id : topo.routers) {
    if (std::find(setup.cores.begin(), setup.cores.end(), id) ==
        setup.cores.end()) {
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

  ChaosPlanParams params;
  params.event_count = event_count;
  params.start = 90 * kSecond;
  params.min_gap = 60 * kSecond;
  params.max_gap = 120 * kSecond;
  params.min_down = 5 * kSecond;
  params.max_down = 20 * kSecond;
  const ChaosPlan plan = MakeRandomPlan(seed, params, crashable, flappable);
  ChaosInjector injector(sim, domain.ChaosHooks());
  injector.Arm(plan);

  constexpr SimDuration kRecoveryCap = 240 * kSecond;
  const SimTime traffic_end = plan.LastRepairTime() + kRecoveryCap;
  std::uint64_t sends = 0;
  for (SimTime t = 30 * kSecond; t < traffic_end; t += 2 * kSecond) {
    sim.ScheduleAt(t, [&hosts] {
      hosts[0]->SendToGroup(kGroup, std::vector<std::uint8_t>{0xda});
    });
    ++sends;
  }

  std::ostringstream out;
  out << plan.Describe();
  if (!analysis::RunUntilInvariantsHold(domain, params.start - kSecond)) {
    out << "warmup: FAILED\n";
  }
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const ChaosEvent& e = plan.events[i];
    sim.RunUntil(e.repair_at());
    SimTime deadline = e.repair_at() + kRecoveryCap;
    if (i + 1 < plan.events.size()) {
      deadline = std::min(deadline, plan.events[i + 1].at - kSecond);
    }
    const auto clean = analysis::RunUntilInvariantsHold(domain, deadline);
    out << "event " << i << " " << ChaosEventTypeName(e.type) << " recovery "
        << (clean ? *clean - e.at : -1) << "\n";
  }
  const auto final_clean =
      analysis::RunUntilInvariantsHold(domain, sim.Now() + kRecoveryCap);
  out << "final clean " << (final_clean ? *final_clean : -1) << "\n";
  sim.RunUntil(traffic_end);
  std::uint64_t delivered = 0;
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    delivered += hosts[i]->ReceivedCount(kGroup);
  }
  std::uint64_t malformed = 0;
  for (const NodeId id : domain.router_ids()) {
    malformed += domain.router(id).stats().malformed_control;
  }
  out << "sends " << sends << " delivered " << delivered << "\n";
  out << "control " << domain.TotalControlMessages() << " malformed "
      << malformed << "\n";
  analysis::InvariantAuditor auditor(domain);
  out << auditor.Audit().Summary();
  return out.str();
}

void ExpectSoakMatchesReference(SoakTopology which, std::uint64_t seed,
                                int event_count) {
  const std::string wheel =
      ChaosSoakStats(which, seed, event_count, /*reference=*/false);
  const std::string reference =
      ChaosSoakStats(which, seed, event_count, /*reference=*/true);
  EXPECT_EQ(wheel, reference);
  EXPECT_NE(wheel.find("delivered"), std::string::npos);
  EXPECT_EQ(wheel.find("FAILED"), std::string::npos);
}

TEST(EngineDifferential, ChaosSoakByteIdenticalAcrossEngines) {
  ExpectSoakMatchesReference(SoakTopology::kGrid4x4, 11, 12);
}

// bench_chaos_soak's default sweep at 25 fault events: all three
// topologies with the bench's member plans, at each seed.
TEST_P(EngineDifferential, DefaultSoakSweepByteIdenticalAcrossEngines) {
  for (const SoakTopology which :
       {SoakTopology::kGrid4x4, SoakTopology::kWaxman20,
        SoakTopology::kTransitStub}) {
    SCOPED_TRACE(static_cast<int>(which));
    ExpectSoakMatchesReference(which, GetParam(), 25);
  }
}

}  // namespace
}  // namespace cbt::netsim
