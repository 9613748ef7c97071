// SchemeDomain<Router>: wires a topology into a running multicast "cloud"
// of one scheme — the standard harness used by tests, examples, and
// benchmarks, shared by CBT and every comparison baseline so experiments
// run each scheme on identical topologies and workloads.
//
// Creates one Router per router node (in topo.routers order) and then one
// HostAgent per host node, all sharing one RouteManager and one
// GroupDirectory. Hosts and aggregate stations attached later
// (AddHost/AddAggregate) get agents too. A Router type provides:
//  * a constructor (sim, id, routes, directory, args...) — or, for schemes
//    that never consult the <core,group> mapping, (sim, id, routes,
//    args...) — where `args` are whatever the domain was constructed with;
//  * StateUnits(), stats().ControlMessagesSent() and mutable_stats();
//  * kMetricPrefix, the first component of its metric names.
//
// CbtDomain (cbt/domain.h) adds CBT's fault-injection and PDES hooks; the
// baselines alias the template directly (DvmrpDomain, MospfDomain,
// RpTreeDomain).
#pragma once

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cbt/core_selection.h"
#include "cbt/group_directory.h"
#include "cbt/host.h"
#include "igmp/membership_aggregate.h"
#include "netsim/topologies.h"
#include "obs/metrics.h"
#include "routing/route_manager.h"

namespace cbt::core {

template <class Router>
class SchemeDomain {
 public:
  template <class... Args>
  SchemeDomain(netsim::Simulator& sim, netsim::Topology& topo,
               const Args&... args)
      : sim_(&sim), topo_(&topo), routes_(sim) {
    for (const NodeId id : topo.routers) {
      std::unique_ptr<Router> router;
      if constexpr (requires {
                      Router(sim, id, routes_, directory_, args...);
                    }) {
        router =
            std::make_unique<Router>(sim, id, routes_, directory_, args...);
      } else {
        router = std::make_unique<Router>(sim, id, routes_, args...);
      }
      sim.SetAgent(id, router.get());
      routers_[id] = std::move(router);
      router_ids_.push_back(id);
    }
    for (const NodeId id : topo.hosts) AdoptHost(id);
  }

  /// Starts every agent (IGMP startup queries, timers). Call once.
  void Start() { sim_->StartAgents(); }

  Router& router(NodeId id) { return *Lookup(routers_, id); }
  Router& router(const std::string& name) { return router(topo_->node(name)); }
  HostAgent& host(NodeId id) { return *Lookup(hosts_, id); }
  HostAgent& host(const std::string& name) { return host(topo_->node(name)); }
  igmp::MembershipAggregate& aggregate(NodeId id) {
    return *Lookup(aggregates_, id);
  }

  /// Attaches a brand-new host to `lan` and registers its agent.
  HostAgent& AddHost(SubnetId lan, const std::string& name) {
    return AdoptHost(netsim::AttachHost(*sim_, *topo_, lan, name));
  }

  /// Attaches an aggregate membership station to `lan` (one agent
  /// standing in for any number of member hosts; see
  /// igmp/membership_aggregate.h). The station resolves core lists
  /// through this domain's GroupDirectory.
  igmp::MembershipAggregate& AddAggregate(
      SubnetId lan, const std::string& name,
      igmp::MembershipAggregate::Mode mode =
          igmp::MembershipAggregate::Mode::kCoalesced) {
    const NodeId id = netsim::AttachHost(*sim_, *topo_, lan, name);
    auto station = std::make_unique<igmp::MembershipAggregate>(
        *sim_, id, mode,
        [this](Ipv4Address group) { return directory_.CoresFor(group); },
        [this, lan](Ipv4Address group) {
          return directory_.AssignedIndex(group, lan);
        });
    sim_->SetAgent(id, station.get());
    igmp::MembershipAggregate& ref = *station;
    aggregates_[id] = std::move(station);
    aggregate_ids_.push_back(id);
    return ref;
  }

  GroupDirectory& directory() { return directory_; }
  routing::RouteManager& routes() { return routes_; }
  netsim::Simulator& sim() { return *sim_; }
  netsim::Topology& topology() { return *topo_; }

  /// Registers a group in the directory with cores (the RP tree's RP)
  /// given by node ids, primary first, and returns the core address list.
  std::vector<Ipv4Address> RegisterGroup(Ipv4Address group,
                                         const std::vector<NodeId>& cores) {
    std::vector<Ipv4Address> addresses;
    addresses.reserve(cores.size());
    for (const NodeId id : cores) addresses.push_back(sim_->PrimaryAddress(id));
    directory_.SetGroup(group, addresses);
    return addresses;
  }

  /// Registers a k-core placement: publishes the core list plus the
  /// member-LAN → core-index partition (`member_lans[i]` is the LAN whose
  /// members `placement.assignment[i]` maps — the LAN attached to the
  /// strategy's `member_routers[i]`). Hosts and D-DRs on a listed LAN then
  /// join their assigned core's subtree.
  std::vector<Ipv4Address> RegisterGroup(
      Ipv4Address group, const core_selection::Placement& placement,
      const std::vector<SubnetId>& member_lans) {
    std::vector<Ipv4Address> addresses = RegisterGroup(group, placement.cores);
    std::map<SubnetId, std::size_t> by_lan;
    const std::size_t n =
        std::min(member_lans.size(), placement.assignment.size());
    for (std::size_t i = 0; i < n; ++i) {
      by_lan[member_lans[i]] = placement.assignment[i];
    }
    directory_.SetAssignments(group, std::move(by_lan));
    return addresses;
  }

  const std::vector<NodeId>& router_ids() const { return router_ids_; }
  const std::vector<NodeId>& host_ids() const { return host_ids_; }
  const std::vector<NodeId>& aggregate_ids() const { return aggregate_ids_; }

  /// Sum of router state units across all routers (experiment E1).
  std::size_t TotalStateUnits() const {
    std::size_t total = 0;
    for (const auto& [id, router] : routers_) total += router->StateUnits();
    return total;
  }

  /// Sum of control messages sent across all routers (experiment E6).
  std::uint64_t TotalControlMessages() const {
    std::uint64_t total = 0;
    for (const auto& [id, router] : routers_) {
      total += router->stats().ControlMessagesSent();
    }
    return total;
  }

  /// Binds every router's protocol counters ("<prefix>.router.<id>.*"),
  /// the route manager's work counters ("<prefix>.routing.*"), and the
  /// simulator's subnet counters into `registry`, and makes it the
  /// simulator's registry for late additions.
  void BindMetrics(obs::Registry& registry) {
    sim_->SetMetrics(&registry);  // binds netsim.subnet.<id>.* as a side effect
    const std::string prefix(Router::kMetricPrefix);
    for (const auto& [id, router] : routers_) {
      obs::BindStats(registry, prefix + ".router." + std::to_string(id.value()),
                     router->mutable_stats());
    }
    obs::BindStats(registry, prefix + ".routing", routes_.mutable_stats());
  }

  /// Flat point-in-time view of everything bound by BindMetrics (plus
  /// per-subnet counters). Requires a prior BindMetrics call.
  obs::MetricSet MetricsSnapshot() const {
    assert(sim_->metrics() != nullptr && "call BindMetrics first");
    return sim_->metrics()->Snapshot();
  }

 protected:
  netsim::Simulator* sim_;
  netsim::Topology* topo_;
  routing::RouteManager routes_;
  GroupDirectory directory_;
  std::map<NodeId, std::unique_ptr<Router>> routers_;

 private:
  template <class Agent>
  static Agent* Lookup(const std::map<NodeId, std::unique_ptr<Agent>>& agents,
                       NodeId id) {
    const auto it = agents.find(id);
    assert(it != agents.end());
    return it->second.get();
  }

  HostAgent& AdoptHost(NodeId id) {
    auto host = std::make_unique<HostAgent>(*sim_, id, &directory_);
    sim_->SetAgent(id, host.get());
    HostAgent& ref = *host;
    hosts_[id] = std::move(host);
    host_ids_.push_back(id);
    return ref;
  }

  std::map<NodeId, std::unique_ptr<HostAgent>> hosts_;
  std::map<NodeId, std::unique_ptr<igmp::MembershipAggregate>> aggregates_;
  std::vector<NodeId> router_ids_;
  std::vector<NodeId> host_ids_;
  std::vector<NodeId> aggregate_ids_;
};

}  // namespace cbt::core
