// RouteManager against the record-walking reference (reference_routes.h):
// after every step of seeded fault sequences, every source's Lookup (one
// address per subnet), Distance, PathDelay and Path must match a fresh
// reference computation exactly. The lazy manager keeps tables warm and
// patches their subnet entries; the eager one recomputes every table per
// epoch; both run every Dijkstra over the shared live adjacency.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "netsim/topologies.h"
#include "reference_routes.h"
#include "routing/route_manager.h"

namespace cbt::routing {
namespace {

using netsim::Simulator;
using netsim::Topology;

bool SameRoute(const std::optional<Route>& a, const std::optional<Route>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return a->vif == b->vif && a->next_hop == b->next_hop &&
         a->cost == b->cost && a->hop_count == b->hop_count &&
         a->delay == b->delay;
}

std::string Describe(const std::optional<Route>& r) {
  if (!r) return "none";
  std::ostringstream out;
  out << "vif " << r->vif << " via " << r->next_hop.ToString() << " cost "
      << r->cost << " hops " << r->hop_count << " delay " << r->delay;
  return out.str();
}

/// Adds the asymmetric backup link of route_manager_edge_test between two
/// routers: 5.0 out of `a`, 1.0 out of `c`.
void AddAsymmetricBackup(Simulator& sim, NodeId a, NodeId c) {
  const SubnetId backup = sim.Connect(a, c);
  for (const netsim::Interface& iface : sim.node(a).interfaces) {
    if (iface.subnet == backup) sim.SetInterfaceCost(a, iface.vif, 5.0);
  }
}

/// A 6x6 grid with hosts on a few stub LANs and one LAN shared by three
/// routers (a multi-access transit subnet with equal-cost choices).
Topology GridWithLan(Simulator& sim) {
  Topology topo = netsim::MakeGrid(sim, 6, 6);
  for (const std::size_t i : {0u, 7u, 14u, 35u}) {
    netsim::AttachHost(sim, topo, topo.router_lans[i],
                       netsim::IndexedName("h", i));
  }
  const SubnetId lan = sim.AddSubnet(
      "shared", SubnetAddress::FromPrefix(Ipv4Address(10, 9, 0, 0), 16));
  for (const std::size_t i : {2u, 15u, 33u}) sim.Attach(topo.routers[i], lan);
  AddAsymmetricBackup(sim, topo.routers[0], topo.routers[35]);
  return topo;
}

Topology Waxman20(Simulator& sim) {
  netsim::WaxmanParams params;
  params.n = 20;
  params.seed = 11;
  Topology topo = netsim::MakeWaxman(sim, params);
  netsim::AttachHost(sim, topo, topo.router_lans[3], "h3");
  AddAsymmetricBackup(sim, topo.routers[1], topo.routers[18]);
  return topo;
}

Topology TransitStub(Simulator& sim) {
  Topology topo = netsim::MakeTransitStub(sim, netsim::TransitStubParams{});
  netsim::AttachHost(sim, topo, topo.router_lans.back(), "h");
  AddAsymmetricBackup(sim, topo.routers[0], topo.routers.back());
  return topo;
}

/// Compares every query of `routes` against the reference for every
/// source; returns the number of mismatches and logs the first few.
int Compare(Simulator& sim, RouteManager& routes,
            const reference::Overrides& overrides, const std::string& where) {
  int mismatches = 0;
  const auto report = [&](const std::string& what) {
    if (++mismatches <= 5) ADD_FAILURE() << where << ": " << what;
  };
  for (std::size_t i = 0; i < sim.node_count(); ++i) {
    const NodeId from(static_cast<std::int32_t>(i));
    const reference::ReferenceTable ref = reference::ComputeFrom(sim, from);
    for (std::size_t si = 0; si < sim.subnet_count(); ++si) {
      const Ipv4Address dest =
          sim.subnet(SubnetId(static_cast<std::int32_t>(si)))
              .address.HostAddress(1);
      const std::optional<SubnetId> subnet = routes.ResolveSubnet(dest);
      if (!subnet) {
        report("no subnet covers " + dest.ToString());
        continue;
      }
      const auto got = routes.Lookup(from, dest);
      const auto want =
          reference::Lookup(sim, ref, overrides, from, *subnet, dest);
      if (!SameRoute(got, want)) {
        report("Lookup(" + std::to_string(i) + ", " + dest.ToString() +
               "): " + Describe(got) + " vs reference " + Describe(want));
      }
    }
    for (std::size_t j = 0; j < sim.node_count(); ++j) {
      const NodeId to(static_cast<std::int32_t>(j));
      const Route& want = ref.to_node[j];
      if (routes.Distance(from, to) != want.cost ||
          routes.PathDelay(from, to) != want.delay ||
          routes.Path(from, to) != reference::Path(ref, from, to)) {
        report("node route " + std::to_string(i) + " -> " +
               std::to_string(j));
      }
    }
  }
  return mismatches;
}

/// One random topology change: a subnet flap, an interface down/up or a
/// node crash/restart (each toggles the current state).
void RandomChange(Simulator& sim, const Topology& topo, Rng& rng) {
  switch (rng.NextBelow(3)) {
    case 0: {
      const SubnetId s(
          static_cast<std::int32_t>(rng.NextBelow(sim.subnet_count())));
      sim.SetSubnetUp(s, !sim.subnet(s).up);
      break;
    }
    case 1: {
      const NodeId node(
          static_cast<std::int32_t>(rng.NextBelow(sim.node_count())));
      const auto& ifaces = sim.node(node).interfaces;
      const auto vif = static_cast<VifIndex>(rng.NextBelow(ifaces.size()));
      sim.SetInterfaceUp(node, vif,
                         !ifaces[static_cast<std::size_t>(vif)].up);
      break;
    }
    default: {
      const NodeId router = topo.routers[rng.NextBelow(topo.routers.size())];
      sim.SetNodeUp(router, !sim.node(router).up);
      break;
    }
  }
}

void RunSequence(const std::string& name,
                 const std::function<Topology(Simulator&)>& build,
                 std::uint64_t seed) {
  Simulator sim(seed);
  const Topology topo = build(sim);
  RouteManager lazy(sim, RouteManager::Mode::kLazy);
  RouteManager eager(sim, RouteManager::Mode::kEager);
  reference::Overrides overrides;
  Rng rng(seed);
  constexpr int kSteps = 40;
  for (int step = 0; step <= kSteps; ++step) {
    const std::string where =
        name + " seed " + std::to_string(seed) + " step " +
        std::to_string(step);
    if (step == kSteps / 2) {
      // A static override: a router forced out of its first interface
      // toward the far end of that link, for one destination subnet.
      const NodeId router = topo.routers[rng.NextBelow(topo.routers.size())];
      const netsim::Interface& out = sim.node(router).interfaces.front();
      const auto& far = sim.subnet(out.subnet).attachments;
      const auto& [peer, peer_vif] = far.front().first == router
                                         ? far.back()
                                         : far.front();
      const SubnetId dest(
          static_cast<std::int32_t>(rng.NextBelow(sim.subnet_count())));
      const Ipv4Address next_hop = sim.interface(peer, peer_vif).address;
      lazy.SetStaticNextHop(router, dest, out.vif, next_hop);
      eager.SetStaticNextHop(router, dest, out.vif, next_hop);
      overrides[{router, dest}] =
          Route{out.vif, next_hop, 1.0, 1, 0};
    }
    if (step > 0) {
      const int batch = 1 + static_cast<int>(rng.NextBelow(3));
      for (int c = 0; c < batch; ++c) RandomChange(sim, topo, rng);
    }
    ASSERT_EQ(Compare(sim, lazy, overrides, where + " (lazy)"), 0);
    ASSERT_EQ(Compare(sim, eager, overrides, where + " (eager)"), 0);
  }
  // The lazy manager must have exercised the warm-patch path.
  EXPECT_GT(lazy.stats().tables_kept_warm, 0u) << name;
}

TEST(RouteDifferential, GridWithHostsAndSharedLan) {
  for (const std::uint64_t seed : {3u, 17u}) {
    RunSequence("grid6x6", GridWithLan, seed);
  }
}

TEST(RouteDifferential, Waxman20) {
  for (const std::uint64_t seed : {3u, 17u}) {
    RunSequence("waxman20", Waxman20, seed);
  }
}

TEST(RouteDifferential, TransitStub) {
  for (const std::uint64_t seed : {3u, 17u}) {
    RunSequence("transit-stub", TransitStub, seed);
  }
}

// A cost raised after every table is warm reaches every table: the
// change is journaled, so both the tables and the shared adjacency are
// rebuilt.
TEST(RouteDifferential, CostChangeAfterWarmTables) {
  Simulator sim;
  const Topology topo = GridWithLan(sim);
  RouteManager routes(sim);
  const reference::Overrides none;
  ASSERT_EQ(Compare(sim, routes, none, "before"), 0);
  for (const std::size_t i : {7u, 14u, 21u}) {
    sim.SetInterfaceCost(topo.routers[i], 0, 3.5);
  }
  ASSERT_EQ(Compare(sim, routes, none, "after"), 0);
}

}  // namespace
}  // namespace cbt::routing
