// DVMRP-style flood-and-prune multicast router — the per-source-tree
// baseline CBT is evaluated against.
//
// Behaviour modelled (simplified from RFC 1075 to the aspects the
// comparison measures):
//  * reverse-path forwarding: a data packet is accepted only from the
//    interface on the shortest path back to its source (RPF check), then
//    flooded to every other router interface — truncated by member
//    presence on leaf LANs;
//  * prune: a router with no members and all downstream interfaces
//    pruned sends PRUNE(S,G) to its RPF neighbour; prune state has a
//    lifetime, after which data floods again (the periodic re-flood that
//    makes DVMRP state O(S x G) *everywhere*);
//  * graft: a new member re-attaches a pruned branch immediately.
//
// The deliberate simplifications (all favouring DVMRP in comparisons):
// unicast routes come from the shared link-state substrate instead of
// DVMRP's own route exchange, and GRAFT is not re-transmitted (no ack
// tracking needed in a lossless control experiment).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <type_traits>
#include <vector>

#include "baselines/dvmrp_message.h"
#include "cbt/scheme_domain.h"
#include "obs/fields.h"
#include "igmp/router_igmp.h"
#include "netsim/simulator.h"
#include "netsim/timer.h"
#include "packet/encap.h"
#include "routing/route_manager.h"

namespace cbt::baselines {

struct DvmrpConfig {
  /// Prune lifetime; RFC 1075 uses hours, deployments minutes. Short
  /// enough here that experiments can observe the re-flood.
  SimDuration prune_lifetime = 120 * kSecond;
};

struct DvmrpStats {
  std::uint64_t data_forwarded = 0;
  std::uint64_t data_delivered_lan = 0;
  std::uint64_t data_dropped_rpf = 0;
  std::uint64_t data_dropped_pruned = 0;
  std::uint64_t data_dropped_ttl = 0;
  std::uint64_t prunes_sent = 0;
  std::uint64_t prunes_received = 0;
  std::uint64_t grafts_sent = 0;
  std::uint64_t grafts_received = 0;
  std::uint64_t graft_retransmits = 0;
  std::uint64_t graft_acks_sent = 0;
  std::uint64_t graft_acks_received = 0;
  std::uint64_t control_bytes_sent = 0;

  /// Historical rollup: prunes + grafts only (retransmits and graft-acks
  /// were never counted; the kControlSent tags below pin that).
  std::uint64_t ControlMessagesSent() const {
    return obs::SumTagged(*this, obs::FieldTag::kControlSent);
  }

  /// Data copies this router put on the wire: forwards plus deliveries
  /// onto member LANs (the rollup core::RouterStats also offers).
  std::uint64_t DataTransmissions() const {
    return data_forwarded + data_delivered_lan;
  }

  void Reset() { obs::ResetStats(*this); }
};

/// obs reflection (see obs/fields.h).
template <typename Stats, typename Fn>
  requires std::is_same_v<std::remove_const_t<Stats>, DvmrpStats>
void ForEachStatsField(Stats& s, Fn&& fn) {
  using Tag = obs::FieldTag;
  fn("data_forwarded", s.data_forwarded, Tag::kNone);
  fn("data_delivered_lan", s.data_delivered_lan, Tag::kNone);
  fn("data_dropped_rpf", s.data_dropped_rpf, Tag::kNone);
  fn("data_dropped_pruned", s.data_dropped_pruned, Tag::kNone);
  fn("data_dropped_ttl", s.data_dropped_ttl, Tag::kNone);
  fn("prunes_sent", s.prunes_sent, Tag::kControlSent);
  fn("prunes_received", s.prunes_received, Tag::kNone);
  fn("grafts_sent", s.grafts_sent, Tag::kControlSent);
  fn("grafts_received", s.grafts_received, Tag::kNone);
  fn("graft_retransmits", s.graft_retransmits, Tag::kNone);
  fn("graft_acks_sent", s.graft_acks_sent, Tag::kNone);
  fn("graft_acks_received", s.graft_acks_received, Tag::kNone);
  fn("control_bytes_sent", s.control_bytes_sent, Tag::kNone);
}

class DvmrpRouter : public netsim::NetworkAgent {
 public:
  static constexpr std::string_view kMetricPrefix = "dvmrp";

  DvmrpRouter(netsim::Simulator& sim, NodeId self,
              routing::RouteManager& routes, DvmrpConfig config = {},
              igmp::IgmpConfig igmp_config = {});

  void Start() override;
  void OnDatagram(VifIndex vif, Ipv4Address link_src, Ipv4Address link_dst,
                  std::span<const std::uint8_t> datagram) override;
  void ResetProtocolCounters() override { stats_.Reset(); }

  const DvmrpStats& stats() const { return stats_; }
  DvmrpStats& mutable_stats() { return stats_; }
  const igmp::RouterIgmp& igmp() const { return igmp_; }

  /// (S,G) entries currently held.
  std::size_t ForwardingEntries() const { return entries_.size(); }

  /// E1's state metric: (S,G) entries plus per-interface prune records —
  /// the O(S x G) footprint the CBT paper contrasts with O(G).
  std::size_t StateUnits() const;

 private:
  using SourceGroup = std::pair<Ipv4Address, Ipv4Address>;  // (S, G)

  struct Entry {
    VifIndex rpf_vif = kInvalidVif;
    Ipv4Address rpf_neighbor;
    /// Neighbour routers (per vif) that pruned this (S,G).
    std::map<VifIndex, std::set<Ipv4Address>> prunes;
    std::map<Ipv4Address, netsim::Timer> prune_expiry;  // keyed by neighbor
    bool prune_sent = false;
    /// Unacknowledged upstream graft (RFC 1075 grafts are reliable).
    netsim::Timer graft_rtx;
    int graft_attempts = 0;
  };

  void HandleData(VifIndex vif, Ipv4Address link_src,
                  const packet::Ipv4Header& ip,
                  std::span<const std::uint8_t> datagram);
  void HandleControl(VifIndex vif, const packet::Ipv4Header& ip,
                     const DvmrpMessage& msg);
  /// True when every neighbour router on `vif` pruned this (S,G).
  bool VifFullyPruned(const Entry& entry, VifIndex vif) const;
  /// Considers (and if warranted sends) a prune toward the RPF neighbour.
  void MaybePrune(SourceGroup sg, Entry& entry);
  void SendMessage(VifIndex vif, Ipv4Address dst, const DvmrpMessage& msg);
  /// Sends (and arms retransmission of) an upstream graft for (S,G).
  void SendGraftUpstream(SourceGroup sg, Entry& entry);
  std::vector<VifIndex> RouterVifs() const;
  std::size_t NeighborRouterCount(VifIndex vif) const;
  void OnMemberAppeared(Ipv4Address group);

  netsim::Simulator* sim_;
  NodeId self_;
  routing::RouteManager* routes_;
  DvmrpConfig config_;
  DvmrpStats stats_;
  igmp::RouterIgmp igmp_;
  std::map<SourceGroup, std::unique_ptr<Entry>> entries_;
};

/// Harness wiring a topology into a DVMRP flood-and-prune domain
/// (cbt/scheme_domain.h).
using DvmrpDomain = core::SchemeDomain<DvmrpRouter>;

}  // namespace cbt::baselines
