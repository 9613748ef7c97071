// CbtDomain: wires a topology into a running CBT "cloud".
//
// The scheme harness (cbt/scheme_domain.h) over CbtRouter — one CbtRouter
// per router node and one HostAgent per host node, sharing a RouteManager
// and a GroupDirectory — plus what only CBT runs need: crash/restart
// fault injection, per-region route managers for the PDES runtime, and
// on-tree queries.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cbt/config.h"
#include "cbt/router.h"
#include "cbt/scheme_domain.h"
#include "netsim/chaos.h"

namespace cbt::core {

class CbtDomain : public SchemeDomain<CbtRouter> {
 public:
  /// Optional arguments: a CbtConfig, then an igmp::IgmpConfig.
  using SchemeDomain::SchemeDomain;

  /// Space-parallel PDES support: gives every region its own
  /// RouteManager clone (same mode / LPM mode as the base manager) and
  /// repoints each router at its region's clone, so routing state is
  /// never shared across concurrently-executing regions. All router
  /// lookups are self-sourced, so each clone computes exactly the
  /// per-source tables its region's routers would have computed on the
  /// shared manager — byte-identical routes at any region count. The
  /// base manager keeps serving domain/bench/test queries. Static
  /// next-hop overrides are not copied (bench topologies do not use
  /// them); call before Start().
  void ShardRoutes(int regions,
                   const std::function<int(NodeId)>& region_of);

  // --- Fault injection ----------------------------------------------------

  /// Crashes a router: the node stops sending/receiving and its CBT agent
  /// loses every bit of protocol state (FIB, timers, IGMP) — section 6.2's
  /// restart model taken literally.
  void CrashRouter(NodeId id);

  /// Restarts a previously crashed router; it re-acquires all state via
  /// normal protocol means (querier election, member reports, joins).
  void RestartRouter(NodeId id);

  /// Hooks wiring a netsim::ChaosInjector's node-crash events to
  /// CrashRouter/RestartRouter (host nodes just go down/up).
  netsim::ChaosInjector::Hooks ChaosHooks();

  /// Sum of FIB state units across all routers (experiment E1).
  std::size_t TotalFibState() const { return TotalStateUnits(); }
  /// Routers holding a FIB entry for `group`.
  std::vector<NodeId> OnTreeRouters(Ipv4Address group) const;

 private:
  /// Per-region managers created by ShardRoutes; empty when unsharded.
  std::vector<std::unique_ptr<routing::RouteManager>> shard_routes_;
};

}  // namespace cbt::core
