// Scheme comparison: run the SAME workload over a CBT domain and a
// DVMRP-style flood-and-prune domain and contrast what the two designs
// pay — the trade the SIGCOMM'93 paper is about, live rather than as an
// oracle computation (bench_state_scaling / bench_tree_cost do the
// systematic sweeps).
#include <cstdio>
#include <type_traits>
#include <vector>

#include "baselines/dvmrp_router.h"
#include "baselines/mospf_router.h"
#include "cbt/core_selection.h"
#include "cbt/domain.h"
#include "netsim/topologies.h"

using namespace cbt;  // NOLINT — example brevity

namespace {

constexpr int kGroups = 6;
constexpr int kMembersPerGroup = 5;
constexpr int kSendersPerGroup = 3;

Ipv4Address Group(int g) {
  return Ipv4Address(239, 30, 0, static_cast<std::uint8_t>(g + 1));
}

struct Outcome {
  std::uint64_t delivered = 0;
  std::uint64_t expected = 0;
  std::size_t state_units = 0;
  std::size_t stateful_routers = 0;
  std::uint64_t data_transmissions = 0;
  std::uint64_t control_messages = 0;
};

// One scheme on a fresh 24-router Waxman graph. Every group gets two
// random cores; only CBT's routers and hosts consult them.
template <typename Domain>
Outcome RunWorkload() {
  netsim::Simulator sim(11);
  netsim::WaxmanParams params;
  params.n = 24;
  params.seed = 77;
  netsim::Topology topo = netsim::MakeWaxman(sim, params);
  Domain domain(sim, topo);
  Rng core_rng(5);
  core_selection::PlacementInput place_in;
  place_in.routers = topo.routers;
  place_in.rng = &core_rng;
  const auto random_cores = core_selection::MakeStrategy("random");
  for (int g = 0; g < kGroups; ++g) {
    domain.RegisterGroup(Group(g), random_cores->Place(place_in, 2).cores);
  }
  domain.Start();
  sim.RunUntil(kSecond);

  Rng rng(1234);
  std::vector<core::HostAgent*> members[kGroups];
  std::vector<core::HostAgent*> senders[kGroups];

  for (int g = 0; g < kGroups; ++g) {
    for (const std::size_t idx : rng.SampleWithoutReplacement(
             topo.routers.size(), kMembersPerGroup)) {
      auto& h = domain.AddHost(topo.router_lans[idx],
                               netsim::IndexedName("m", g, idx));
      if constexpr (std::is_same_v<Domain, core::CbtDomain>) {
        h.JoinGroup(Group(g));
      } else {
        h.JoinGroupWithCores(Group(g), {}, 0);
      }
      members[g].push_back(&h);
      sim.RunUntil(sim.Now() + 200 * kMillisecond);
    }
    for (const std::size_t idx : rng.SampleWithoutReplacement(
             topo.routers.size(), kSendersPerGroup)) {
      senders[g].push_back(&domain.AddHost(
          topo.router_lans[idx],
          netsim::IndexedName("s", g, idx)));
    }
  }
  sim.RunUntil(sim.Now() + 20 * kSecond);

  // Each sender multicasts 5 packets.
  for (int round = 0; round < 5; ++round) {
    for (int g = 0; g < kGroups; ++g) {
      for (auto* s : senders[g]) {
        s->SendToGroup(Group(g), std::vector<std::uint8_t>{1, 2, 3});
      }
    }
    sim.RunUntil(sim.Now() + 2 * kSecond);
  }
  sim.RunUntil(sim.Now() + 20 * kSecond);

  Outcome out;
  for (int g = 0; g < kGroups; ++g) {
    for (auto* m : members[g]) {
      out.delivered += m->ReceivedCount(Group(g));
      out.expected += 5 * kSendersPerGroup;
    }
  }
  for (const NodeId r : domain.router_ids()) {
    const auto& router = domain.router(r);
    out.state_units += router.StateUnits();
    if (router.StateUnits() > 0) ++out.stateful_routers;
    out.data_transmissions += router.stats().DataTransmissions();
  }
  out.control_messages = domain.TotalControlMessages();
  return out;
}

}  // namespace

int main() {
  std::printf("identical workload — %d groups x %d members x %d senders x 5 "
              "packets — on a 24-router Waxman graph:\n\n",
              kGroups, kMembersPerGroup, kSendersPerGroup);

  const Outcome cbt_out = RunWorkload<core::CbtDomain>();
  const Outcome dvmrp_out = RunWorkload<baselines::DvmrpDomain>();
  const Outcome mospf_out = RunWorkload<baselines::MospfDomain>();

  std::printf("%-28s %14s %14s %14s\n", "", "CBT", "DVMRP-style",
              "MOSPF-style");
  std::printf("%-28s %10llu/%llu %10llu/%llu %10llu/%llu\n",
              "packets delivered", (unsigned long long)cbt_out.delivered,
              (unsigned long long)cbt_out.expected,
              (unsigned long long)dvmrp_out.delivered,
              (unsigned long long)dvmrp_out.expected,
              (unsigned long long)mospf_out.delivered,
              (unsigned long long)mospf_out.expected);
  std::printf("%-28s %14zu %14zu %14zu\n", "router state units",
              cbt_out.state_units, dvmrp_out.state_units,
              mospf_out.state_units);
  std::printf("%-28s %14zu %14zu %14zu\n", "routers holding state",
              cbt_out.stateful_routers, dvmrp_out.stateful_routers,
              mospf_out.stateful_routers);
  std::printf("%-28s %14llu %14llu %14llu\n", "data transmissions",
              (unsigned long long)cbt_out.data_transmissions,
              (unsigned long long)dvmrp_out.data_transmissions,
              (unsigned long long)mospf_out.data_transmissions);
  std::printf("%-28s %14llu %14llu %14llu\n", "control messages",
              (unsigned long long)cbt_out.control_messages,
              (unsigned long long)dvmrp_out.control_messages,
              (unsigned long long)mospf_out.control_messages);
  std::printf(
      "\nreading: all three deliver everything; CBT concentrates modest "
      "state on tree routers only; flood-and-prune touches every router "
      "and spends transmissions on flooding; MOSPF avoids flooding data "
      "but pays membership-knowledge state at every router plus LSA "
      "control traffic — the paper's three-way trade-off.\n");
  return 0;
}
