// Test-only reference routes: the differential oracle for RouteManager's
// compact tables and its shared live adjacency.
//
// This is the straightforward per-source shortest-path computation the
// route manager used to run in place: Dijkstra that chases node ->
// interface -> subnet -> attachment -> interface through the simulator's
// bounds-checked accessors, followed by a full 32-byte Route per
// destination subnet. It keeps no state between calls, reads the live
// topology every time, and therefore cannot be fooled by a stale
// snapshot or a mis-derived subnet entry. Static overrides are applied
// with the same liveness rule RouteManager::Lookup documents.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "netsim/simulator.h"
#include "routing/route_manager.h"

namespace cbt::routing::reference {

/// One source's full table, recomputed from scratch.
struct ReferenceTable {
  std::vector<Route> to_subnet;  // indexed by subnet id
  std::vector<Route> to_node;    // indexed by node id
  std::vector<NodeId> predecessor;
};

inline constexpr double kEps = 1e-9;
inline constexpr double kInfinity = RouteManager::kInfinity;

inline bool ApproxEqual(double a, double b) { return std::fabs(a - b) < kEps; }

/// Best route from `source` to subnet `sid`, from the table's node routes:
/// any live attachment point, closest first, lowest first-hop address on
/// ties; a live attachment of the source itself wins outright.
inline void RecomputeSubnetTail(const netsim::Simulator& sim,
                                ReferenceTable& table, NodeId source,
                                SubnetId sid) {
  const auto si = static_cast<std::size_t>(sid.value());
  Route& best = table.to_subnet[si];
  best = Route{kInvalidVif, Ipv4Address{}, kInfinity, 0, 0};
  // A table computed while its source was down is all-infinity and offers
  // no direct-delivery routes either; keep it that way.
  if (table.to_node[static_cast<std::size_t>(source.value())].cost ==
      kInfinity) {
    return;
  }
  const netsim::SubnetRecord& s = sim.subnet(sid);
  if (!s.up) return;
  for (const auto& [z, z_vif] : s.attachments) {
    const netsim::Interface& zi = sim.interface(z, z_vif);
    if (!zi.up || !sim.node(z).up) continue;
    if (z == source) {
      // Directly attached: cost 0, deliver straight onto the subnet.
      best = Route{z_vif, Ipv4Address{}, 0.0, 0, s.delay};
      break;
    }
    // Only routers forward from the subnet entry point onward.
    if (!sim.node(z).is_router) continue;
    const Route& rz = table.to_node[static_cast<std::size_t>(z.value())];
    if (rz.cost == kInfinity) continue;
    const bool better = rz.cost + kEps < best.cost ||
                        (ApproxEqual(rz.cost, best.cost) &&
                         rz.next_hop.bits() < best.next_hop.bits());
    if (better) best = rz;
  }
}

/// Dijkstra from `source` over the live topology, ordered by (distance,
/// first-hop address, node id), then every subnet's tail.
inline ReferenceTable ComputeFrom(const netsim::Simulator& sim,
                                  NodeId source) {
  const std::size_t n = sim.node_count();
  ReferenceTable table;
  table.to_node.assign(n, Route{kInvalidVif, Ipv4Address{}, kInfinity, 0, 0});
  table.to_subnet.assign(sim.subnet_count(),
                         Route{kInvalidVif, Ipv4Address{}, kInfinity, 0, 0});
  table.predecessor.assign(n, NodeId{});

  if (!sim.node(source).up) return table;

  struct QueueEntry {
    double dist;
    std::uint32_t first_hop_addr;  // deterministic tie-break
    std::int32_t node;
    bool operator>(const QueueEntry& o) const {
      return std::tie(dist, first_hop_addr, node) >
             std::tie(o.dist, o.first_hop_addr, o.node);
    }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> pq;
  std::vector<bool> done(n, false);

  table.to_node[static_cast<std::size_t>(source.value())] =
      Route{kInvalidVif, Ipv4Address{}, 0.0, 0, 0};
  table.predecessor[static_cast<std::size_t>(source.value())] = source;
  pq.push(QueueEntry{0.0, 0, source.value()});

  while (!pq.empty()) {
    const QueueEntry top = pq.top();
    pq.pop();
    const auto u_idx = static_cast<std::size_t>(top.node);
    if (done[u_idx]) continue;
    done[u_idx] = true;

    const NodeId u(top.node);
    const netsim::NodeRecord& u_rec = sim.node(u);
    // Hosts never transit traffic; only the source itself or routers expand.
    if (u != source && !u_rec.is_router) continue;
    if (!u_rec.up) continue;

    const Route& u_route = table.to_node[u_idx];

    for (const netsim::Interface& iface : u_rec.interfaces) {
      if (!iface.up) continue;
      const netsim::SubnetRecord& s = sim.subnet(iface.subnet);
      if (!s.up) continue;
      for (const auto& [v, v_vif] : s.attachments) {
        if (v == u) continue;
        const netsim::Interface& in = sim.interface(v, v_vif);
        if (!in.up || !sim.node(v).up) continue;

        const double cand_dist = u_route.cost + iface.cost;
        Route cand;
        cand.cost = cand_dist;
        cand.hop_count = u_route.hop_count + 1;
        cand.delay = u_route.delay + s.delay;
        if (u == source) {
          cand.vif = iface.vif;
          cand.next_hop = in.address;
        } else {
          cand.vif = u_route.vif;
          cand.next_hop = u_route.next_hop;
        }

        const auto v_idx = static_cast<std::size_t>(v.value());
        Route& cur = table.to_node[v_idx];
        const bool better =
            cand_dist + kEps < cur.cost ||
            (ApproxEqual(cand_dist, cur.cost) &&
             cand.next_hop.bits() < cur.next_hop.bits());
        if (!done[v_idx] && better) {
          cur = cand;
          table.predecessor[v_idx] = u;
          pq.push(QueueEntry{cand_dist, cand.next_hop.bits(), v.value()});
        }
      }
    }
  }

  for (std::size_t si = 0; si < sim.subnet_count(); ++si) {
    RecomputeSubnetTail(sim, table, source,
                        SubnetId(static_cast<std::int32_t>(si)));
  }
  return table;
}

/// Static next-hop overrides, keyed like RouteManager's.
using Overrides = std::map<std::pair<NodeId, SubnetId>, Route>;

/// True when an override's forwarding path is usable: destination subnet
/// up, node up, and the override's vif up on an up subnet.
inline bool OverrideLive(const netsim::Simulator& sim, NodeId node,
                         SubnetId dest_subnet, const Route& route) {
  if (!sim.subnet(dest_subnet).up) return false;
  const netsim::NodeRecord& n = sim.node(node);
  if (!n.up) return false;
  if (route.vif < 0 ||
      static_cast<std::size_t>(route.vif) >= n.interfaces.size()) {
    return false;
  }
  const netsim::Interface& iface =
      n.interfaces[static_cast<std::size_t>(route.vif)];
  return iface.up && sim.subnet(iface.subnet).up;
}

/// The route `table` (computed from `from`) gives toward `dest` on
/// `subnet`, after any live override.
inline std::optional<Route> Lookup(const netsim::Simulator& sim,
                                   const ReferenceTable& table,
                                   const Overrides& overrides, NodeId from,
                                   SubnetId subnet, Ipv4Address dest) {
  if (const auto it = overrides.find({from, subnet});
      it != overrides.end() && OverrideLive(sim, from, subnet, it->second)) {
    return it->second;
  }
  Route route = table.to_subnet.at(static_cast<std::size_t>(subnet.value()));
  if (route.cost == kInfinity) return std::nullopt;
  if (route.next_hop.IsUnspecified()) route.next_hop = dest;
  return route;
}

/// Node sequence from `from` to `to` along the table's predecessors;
/// empty when disconnected.
inline std::vector<NodeId> Path(const ReferenceTable& table, NodeId from,
                                NodeId to) {
  if (table.to_node.at(static_cast<std::size_t>(to.value())).cost ==
      kInfinity) {
    return {};
  }
  std::vector<NodeId> reversed;
  NodeId cur = to;
  while (cur != from) {
    reversed.push_back(cur);
    cur = table.predecessor.at(static_cast<std::size_t>(cur.value()));
    assert(cur.IsValid());
  }
  reversed.push_back(from);
  std::reverse(reversed.begin(), reversed.end());
  return reversed;
}

}  // namespace cbt::routing::reference
