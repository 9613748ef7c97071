// Per-router protocol counters, consumed by the experiment harness.
//
// The struct's plain fields are the hot-path storage (an increment is one
// inline add); the ForEachStatsField reflection below is the single
// source of truth for the obs registry names ("cbt.router.<id>.<field>"),
// the MetricSet snapshot view, the generic reset, and the
// ControlMessagesSent() rollup.
#pragma once

#include <cstdint>
#include <type_traits>

#include "obs/fields.h"

namespace cbt::core {

struct RouterStats {
  // Control plane.
  std::uint64_t joins_originated = 0;
  std::uint64_t joins_forwarded = 0;
  std::uint64_t joins_received = 0;
  std::uint64_t joins_cached = 0;  // arrived while pending (section 2.5)
  std::uint64_t join_retransmits = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t proxy_acks_sent = 0;
  std::uint64_t proxy_acks_received = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t nacks_received = 0;
  std::uint64_t quits_sent = 0;
  std::uint64_t quits_received = 0;
  std::uint64_t quit_acks_sent = 0;
  std::uint64_t quit_acks_received = 0;
  std::uint64_t flushes_sent = 0;
  std::uint64_t flushes_received = 0;
  std::uint64_t echo_requests_sent = 0;
  std::uint64_t echo_requests_received = 0;
  std::uint64_t echo_replies_sent = 0;
  std::uint64_t echo_replies_received = 0;
  std::uint64_t rejoins_converted = 0;   // REJOIN-ACTIVE -> REJOIN-NACTIVE
  std::uint64_t loops_detected = 0;      // own NACTIVE came back (section 6.3)
  std::uint64_t parent_losses = 0;
  std::uint64_t reconnects_succeeded = 0;
  std::uint64_t reconnects_failed = 0;
  std::uint64_t children_expired = 0;
  std::uint64_t core_pings_sent = 0;
  std::uint64_t core_pings_received = 0;
  std::uint64_t ping_replies_sent = 0;
  std::uint64_t ping_replies_received = 0;
  std::uint64_t malformed_control = 0;
  std::uint64_t control_bytes_sent = 0;

  // Data plane.
  std::uint64_t data_forwarded_tree = 0;     // onto parent/child interfaces
  std::uint64_t data_delivered_lan = 0;      // IP multicast onto member LANs
  std::uint64_t data_encapsulated = 0;       // CBT-mode encaps performed
  std::uint64_t data_decapsulated = 0;
  std::uint64_t data_nonmember_relayed = 0;  // off-tree unicast toward core
  std::uint64_t data_dropped_off_tree = 0;   // section 7 on-tree-bit check
  std::uint64_t data_dropped_ttl = 0;
  std::uint64_t data_dropped_no_state = 0;
  std::uint64_t data_dropped_not_local = 0;  // section 5 local-origin check
  std::uint64_t data_bytes_sent = 0;

  // Data-plane flow cache (fast path only; all zero under kSlow).
  std::uint64_t dataplane_cache_hits = 0;
  std::uint64_t dataplane_cache_misses = 0;       // cold or evicted slot
  std::uint64_t dataplane_cache_invalidates = 0;  // generation mismatch
  std::uint64_t dataplane_cache_occupancy = 0;    // gauge: live slots

  // Forwarding-stage timing (only populated when CbtConfig::time_dataplane
  // is set — bench_dataplane's hop-forwarding throughput measurement).
  // Cycles are raw CycleNow() ticks; calls count timed handler entries.
  std::uint64_t dataplane_stage_cycles = 0;
  std::uint64_t dataplane_stage_calls = 0;

  /// Sum of every field tagged kControlSent below (joins originated,
  /// forwarded and retransmitted, acks, nacks, quits, flushes, echoes,
  /// pings — transmissions only, never receptions).
  std::uint64_t ControlMessagesSent() const {
    return obs::SumTagged(*this, obs::FieldTag::kControlSent);
  }

  /// Data copies this router put on the wire: tree forwards plus
  /// deliveries onto member LANs.
  std::uint64_t DataTransmissions() const {
    return data_forwarded_tree + data_delivered_lan;
  }

  void Reset() { obs::ResetStats(*this); }
};

/// obs reflection: one call per counter field (see obs/fields.h).
template <typename Stats, typename Fn>
  requires std::is_same_v<std::remove_const_t<Stats>, RouterStats>
void ForEachStatsField(Stats& s, Fn&& fn) {
  using Tag = obs::FieldTag;
  fn("joins_originated", s.joins_originated, Tag::kControlSent);
  fn("joins_forwarded", s.joins_forwarded, Tag::kControlSent);
  fn("joins_received", s.joins_received, Tag::kNone);
  fn("joins_cached", s.joins_cached, Tag::kNone);
  fn("join_retransmits", s.join_retransmits, Tag::kControlSent);
  fn("acks_sent", s.acks_sent, Tag::kControlSent);
  fn("acks_received", s.acks_received, Tag::kNone);
  fn("proxy_acks_sent", s.proxy_acks_sent, Tag::kControlSent);
  fn("proxy_acks_received", s.proxy_acks_received, Tag::kNone);
  fn("nacks_sent", s.nacks_sent, Tag::kControlSent);
  fn("nacks_received", s.nacks_received, Tag::kNone);
  fn("quits_sent", s.quits_sent, Tag::kControlSent);
  fn("quits_received", s.quits_received, Tag::kNone);
  fn("quit_acks_sent", s.quit_acks_sent, Tag::kControlSent);
  fn("quit_acks_received", s.quit_acks_received, Tag::kNone);
  fn("flushes_sent", s.flushes_sent, Tag::kControlSent);
  fn("flushes_received", s.flushes_received, Tag::kNone);
  fn("echo_requests_sent", s.echo_requests_sent, Tag::kControlSent);
  fn("echo_requests_received", s.echo_requests_received, Tag::kNone);
  fn("echo_replies_sent", s.echo_replies_sent, Tag::kControlSent);
  fn("echo_replies_received", s.echo_replies_received, Tag::kNone);
  fn("rejoins_converted", s.rejoins_converted, Tag::kNone);
  fn("loops_detected", s.loops_detected, Tag::kNone);
  fn("parent_losses", s.parent_losses, Tag::kNone);
  fn("reconnects_succeeded", s.reconnects_succeeded, Tag::kNone);
  fn("reconnects_failed", s.reconnects_failed, Tag::kNone);
  fn("children_expired", s.children_expired, Tag::kNone);
  fn("core_pings_sent", s.core_pings_sent, Tag::kControlSent);
  fn("core_pings_received", s.core_pings_received, Tag::kNone);
  fn("ping_replies_sent", s.ping_replies_sent, Tag::kControlSent);
  fn("ping_replies_received", s.ping_replies_received, Tag::kNone);
  fn("malformed_control", s.malformed_control, Tag::kNone);
  fn("control_bytes_sent", s.control_bytes_sent, Tag::kNone);
  fn("data_forwarded_tree", s.data_forwarded_tree, Tag::kNone);
  fn("data_delivered_lan", s.data_delivered_lan, Tag::kNone);
  fn("data_encapsulated", s.data_encapsulated, Tag::kNone);
  fn("data_decapsulated", s.data_decapsulated, Tag::kNone);
  fn("data_nonmember_relayed", s.data_nonmember_relayed, Tag::kNone);
  fn("data_dropped_off_tree", s.data_dropped_off_tree, Tag::kNone);
  fn("data_dropped_ttl", s.data_dropped_ttl, Tag::kNone);
  fn("data_dropped_no_state", s.data_dropped_no_state, Tag::kNone);
  fn("data_dropped_not_local", s.data_dropped_not_local, Tag::kNone);
  fn("data_bytes_sent", s.data_bytes_sent, Tag::kNone);
  fn("dataplane.cache_hit", s.dataplane_cache_hits, Tag::kNone);
  fn("dataplane.cache_miss", s.dataplane_cache_misses, Tag::kNone);
  fn("dataplane.cache_invalidate", s.dataplane_cache_invalidates, Tag::kNone);
  fn("dataplane.cache_occupancy", s.dataplane_cache_occupancy, Tag::kNone);
  fn("dataplane.stage_cycles", s.dataplane_stage_cycles, Tag::kNone);
  fn("dataplane.stage_calls", s.dataplane_stage_calls, Tag::kNone);
}

}  // namespace cbt::core
