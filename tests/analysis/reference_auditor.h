// Test-only reference auditor: the differential oracle for
// analysis::InvariantAuditor.
//
// This is the auditor's first, quadratic form, kept verbatim: a
// std::map<NodeId, RouterView> per group, a std::set per router for the
// duplicate-child check, and a rootedness walk from every on-tree router
// to the root with its own std::set, reporting a cycle only when the walk
// starts at the cycle's lowest-numbered member. The production auditor must produce the same AuditReport —
// every violation's kind, node, subnet and detail in the same order, and
// the same counters — at any simulation time.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "cbt/domain.h"

namespace cbt::analysis::reference {

using core::CbtDomain;
using core::CbtRouter;
using core::ChildEntry;
using core::FibEntry;

/// A router's view of one group, with liveness folded in: a down or
/// crashed router holds no *effective* state (it can neither forward nor
/// answer echoes), so references to it are dangling.
struct RouterView {
  NodeId id;
  CbtRouter* router = nullptr;
  const FibEntry* entry = nullptr;  // nullptr when off-tree or dead
};

inline std::string AddrName(const netsim::Simulator& sim, Ipv4Address addr) {
  if (const auto node = sim.FindNodeByAddress(addr)) {
    return sim.node(*node).name + "(" + addr.ToString() + ")";
  }
  return addr.ToString();
}

inline void ReferenceAuditGroup(core::CbtDomain& domain, Ipv4Address group,
                                AuditReport& report) {
  core::CbtDomain* const domain_ = &domain;
  ++report.groups_checked;
  netsim::Simulator& sim = domain_->sim();

  const auto note = [&](InvariantKind kind, NodeId node, std::string detail) {
    OBS_TRACE(sim.trace(), .time = sim.Now(),
              .kind = obs::TraceKind::kInvariant,
              .name = InvariantKindName(kind), .node = node.value(),
              .group = group);
    report.violations.push_back(
        Violation{kind, group, node, SubnetId{}, std::move(detail)});
  };

  // Collect every live router's effective state for this group.
  std::map<NodeId, RouterView> views;
  bool members_anywhere = false;
  for (const NodeId id : domain_->router_ids()) {
    CbtRouter& r = domain_->router(id);
    RouterView view;
    view.id = id;
    view.router = &r;
    const bool dead = !sim.node(id).up || r.IsCrashed();
    view.entry = dead ? nullptr : r.fib().Find(group);
    if (view.entry != nullptr) ++report.routers_on_tree;
    if (!dead && r.IsPending(group)) ++report.transient_joins;
    if (!dead && r.igmp().AnyMembers(group)) members_anywhere = true;
    views[id] = view;
  }

  const auto entry_of = [&](NodeId id) -> const FibEntry* {
    const auto it = views.find(id);
    return it == views.end() ? nullptr : it->second.entry;
  };

  // --- Per-router structural checks -----------------------------------
  for (const auto& [id, view] : views) {
    if (view.entry == nullptr) continue;
    const FibEntry& entry = *view.entry;
    const std::string& name = sim.node(id).name;

    // Duplicate children (packet duplication / join races must collapse).
    std::set<Ipv4Address> child_addrs;
    for (const ChildEntry& child : entry.children) {
      if (!child_addrs.insert(child.address).second) {
        note(InvariantKind::kDuplicateChild, id,
             name + " records child " + child.address.ToString() + " twice");
      }
    }

    // Upstream symmetry: our parent must be live, on-tree, and must list
    // our interface address as a child.
    if (entry.HasParent()) {
      const auto parent_node = sim.FindNodeByAddress(entry.parent_address);
      const FibEntry* parent_entry =
          parent_node ? entry_of(*parent_node) : nullptr;
      if (!parent_node) {
        note(InvariantKind::kBrokenParentLink, id,
             name + " parent " + entry.parent_address.ToString() +
                 " resolves to no node");
      } else if (parent_entry == nullptr) {
        note(InvariantKind::kBrokenParentLink, id,
             name + " parent " + AddrName(sim, entry.parent_address) +
                 " is dead or off-tree");
      } else {
        const Ipv4Address my_addr =
            sim.interface(id, entry.parent_vif).address;
        if (parent_entry->FindChild(my_addr) == nullptr) {
          note(InvariantKind::kAsymmetricChild, id,
               name + " has parent " + AddrName(sim, entry.parent_address) +
                   " but is not recorded as its child");
        }
      }
    } else if (!entry.is_primary_core) {
      // A parentless non-primary-core router is a detached subtree root
      // (reconnect in flight, or an orphaned secondary-core anchor).
      note(InvariantKind::kDetachedSubtree, id,
           name + " has no parent and is not the primary core");
    }

    // Downstream symmetry: every recorded child must hold reciprocal
    // parent state pointing back at us.
    for (const ChildEntry& child : entry.children) {
      const auto child_node = sim.FindNodeByAddress(child.address);
      const FibEntry* child_entry =
          child_node ? entry_of(*child_node) : nullptr;
      if (!child_node || child_entry == nullptr) {
        note(InvariantKind::kAsymmetricChild, id,
             name + " records child " + AddrName(sim, child.address) +
                 " which is dead or off-tree");
        continue;
      }
      const Ipv4Address my_addr = sim.interface(id, child.vif).address;
      if (child_entry->parent_address != my_addr) {
        note(InvariantKind::kAsymmetricChild, id,
             name + " records child " + AddrName(sim, child.address) +
                 " whose parent is " +
                 AddrName(sim, child_entry->parent_address));
      }
    }

    // Stale state: with no member anywhere, only the primary core keeps
    // anchoring state once teardown has run its course.
    if (!members_anywhere && !entry.is_primary_core) {
      note(InvariantKind::kStaleState, id,
           name + " holds state for the memberless group");
    }

    // Anchor consistency: the primary-core claim must match the published
    // mapping. A replaced core list (live migration) makes the old anchor
    // stale the moment the directory flips; reconciliation must clear it.
    if (entry.is_primary_core && domain_->directory().Knows(group)) {
      const auto primary = domain_->directory().PrimaryCore(group);
      const auto owner =
          primary ? sim.FindNodeByAddress(*primary) : std::nullopt;
      if (owner.has_value() && *owner != id) {
        note(InvariantKind::kStaleAnchor, id,
             name + " anchors as primary but the directory primary is " +
                 AddrName(sim, *primary));
      }
    }
  }

  // --- Rootedness / loop detection ------------------------------------
  // Parent-pointer walk from every on-tree router must reach the anchor.
  // Broken links and detached roots were reported above; here we only
  // catch cycles. A cycle is reported once, attributed to its
  // lowest-numbered member.
  for (const auto& [start, view] : views) {
    if (view.entry == nullptr) continue;
    std::vector<NodeId> path;
    std::set<NodeId> seen;
    NodeId cur = start;
    const FibEntry* cur_entry = view.entry;
    while (cur_entry != nullptr && cur_entry->HasParent()) {
      path.push_back(cur);
      seen.insert(cur);
      const auto next = sim.FindNodeByAddress(cur_entry->parent_address);
      if (!next) break;
      if (seen.contains(*next)) {
        // Cycle: the portion of `path` from *next onward.
        const auto cycle_start = std::find(path.begin(), path.end(), *next);
        const NodeId lowest = *std::min_element(cycle_start, path.end());
        if (start == lowest) {
          std::ostringstream os;
          os << "forwarding loop:";
          for (auto it = cycle_start; it != path.end(); ++it) {
            os << " " << sim.node(*it).name;
          }
          note(InvariantKind::kParentLoop, start, os.str());
        }
        break;
      }
      cur = *next;
      cur_entry = entry_of(cur);
    }
  }

  // --- Member-LAN attachment -------------------------------------------
  // Every live multi-access subnet with IGMP presence needs an on-tree DR.
  for (std::size_t s = 0; s < sim.subnet_count(); ++s) {
    const SubnetId sid(static_cast<std::int32_t>(s));
    const netsim::SubnetRecord& subnet = sim.subnet(sid);
    if (!subnet.multi_access || !subnet.up) continue;
    bool present = false;
    bool served = false;
    for (const auto& [node, vif] : subnet.attachments) {
      const auto it = views.find(node);
      if (it == views.end()) continue;  // host attachment
      const RouterView& rv = it->second;
      if (!sim.node(node).up || rv.router->IsCrashed()) continue;
      if (!sim.interface(node, vif).up) continue;
      if (rv.router->igmp().HasMembers(vif, group)) present = true;
      if (rv.entry != nullptr && rv.router->IsSubnetDr(group, vif)) {
        served = true;
      }
    }
    if (present && !served) {
      OBS_TRACE(sim.trace(), .time = sim.Now(),
                .kind = obs::TraceKind::kInvariant,
                .name = InvariantKindName(InvariantKind::kMemberLanDetached),
                .group = group,
                .arg_a = static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(sid.value())));
      report.violations.push_back(Violation{
          InvariantKind::kMemberLanDetached, group, NodeId{}, sid,
          "LAN " + subnet.name + " has members but no on-tree DR"});
    }
  }
}

/// Audits every group known to the directory or held in any router FIB,
/// in the same group order as InvariantAuditor::Audit().
inline AuditReport ReferenceAudit(core::CbtDomain& domain) {
  core::CbtDomain* const domain_ = &domain;
  AuditReport report;
  report.at = domain_->sim().Now();

  std::set<Ipv4Address> groups;
  for (const Ipv4Address g : domain_->directory().Groups()) groups.insert(g);
  for (const NodeId id : domain_->router_ids()) {
    for (const auto& [g, entry] : domain_->router(id).fib()) groups.insert(g);
  }
  for (const Ipv4Address g : groups) ReferenceAuditGroup(domain, g, report);
  return report;
}

}  // namespace cbt::analysis::reference
