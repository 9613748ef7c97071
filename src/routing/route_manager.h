// Unicast routing substrate.
//
// CBT deliberately builds on whatever unicast routing exists ("the join is
// sent to the next-hop on the path to the target core"). We model an
// idealized link-state protocol: every router computes Dijkstra shortest
// paths over the live topology, and tables refresh automatically when a
// link/node goes up or down (the simulator bumps a topology epoch).
//
// Two behaviours matter to CBT and are modelled explicitly:
//  * deterministic tie-breaking (lowest next-hop address) — the spec's
//    Figure-1 narrative depends on R2 beating R5;
//  * static next-hop overrides, used by tests to create the transient
//    routing loop of Figure 5 and transient asymmetry.
//
// Recompute model (see docs/PROTOCOL.md "Unicast routing & invalidation
// model"): tables are *lazy* — a topology change marks per-source tables
// stale via the simulator's scoped change journal, and a source's
// Dijkstra only runs when that source is actually queried. A table whose
// shortest-path tree provably avoids every changed subnet is kept warm
// (only its route *to* the changed subnet is patched in place); anything
// the conservative check cannot rule out is recomputed. The result is
// bit-for-bit identical to eager full recomputation — proven by the
// routing differential suite — while a flap touching one region no
// longer recomputes every router's table.
//
// Table layout: a source's table holds a full Route (32 B) per
// destination *node*, a predecessor per node, a used-subnet bitset, and
// only one 4-byte entry per destination *subnet*. That entry says how the
// subnet's route derives from the rest: through the attachment router
// whose node route wins (closest, lowest first hop on ties), directly
// through one of the source's own vifs, or not at all. Lookup() builds
// the Route from the entry; the warm-table patch rewrites just the entry.
//
// Live adjacency: every Dijkstra and every subnet entry is computed from
// one snapshot of the live topology in compressed-row form — per node its
// live ports (an up interface on an up subnet) in interface order, per
// subnet its live attachments in attachment order — instead of chasing
// the simulator's records. It is rebuilt on first use after the topology
// epoch or the node/subnet count moves, and dropped by Invalidate(). The
// walk visits edges in exactly the order the records did, so the result
// is unchanged (tests/routing/route_differential_test.cc checks every
// route against the record-walking reference).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include <type_traits>

#include "common/types.h"
#include "netsim/simulator.h"
#include "obs/fields.h"

namespace cbt::routing {

/// A resolved next hop for some destination.
struct Route {
  VifIndex vif = kInvalidVif;
  /// Link-level next hop; equals the final destination when direct.
  Ipv4Address next_hop;
  double cost = 0.0;
  int hop_count = 0;        // router-to-router hops (0 = directly attached)
  SimDuration delay = 0;    // summed subnet delays along the chosen path
};

class RouteManager {
 public:
  /// Recompute strategy. kEager reproduces the historical behaviour —
  /// every epoch bump recomputes every table at the next query — and is
  /// kept so the differential suite can pin old-vs-new behaviour per
  /// seed: whole-simulation lazy-vs-eager cross-checks reach the
  /// recompute policy only through this switch.
  enum class Mode { kLazy, kEager };

  /// Work counters, used by bench_routing and the invalidation tests.
  struct Stats {
    std::uint64_t tables_computed = 0;   // per-source Dijkstra runs
    std::uint64_t tables_dirtied = 0;    // tables invalidated by changes
    std::uint64_t tables_kept_warm = 0;  // verified-unaffected, patched
    std::uint64_t full_invalidations = 0;
    std::uint64_t lookups = 0;
    std::uint64_t lpm_cache_hits = 0;
    std::uint64_t lpm_index_rebuilds = 0;
  };

  explicit RouteManager(netsim::Simulator& sim, Mode mode = Mode::kLazy)
      : sim_(&sim), mode_(mode) {}

  void set_mode(Mode mode) {
    mode_ = mode;
    Invalidate();
  }
  Mode mode() const { return mode_; }

  /// Next hop from router `from` toward address `dest` (host or router).
  /// nullopt when dest is unreachable or not covered by any known subnet.
  std::optional<Route> Lookup(NodeId from, Ipv4Address dest);

  /// True when `addr` is on a subnet directly attached to `node` (and the
  /// attachment is up).
  bool IsDirectlyAttached(NodeId node, Ipv4Address addr);

  /// Forces (node, destination-subnet) to resolve to the given next hop;
  /// survives recomputes until cleared. Used to build the Figure-5 loop.
  /// An override whose vif or subnet is down is skipped at lookup time
  /// (the computed route wins) and revives when the path comes back.
  void SetStaticNextHop(NodeId node, SubnetId dest_subnet, VifIndex vif,
                        Ipv4Address next_hop);
  void ClearStaticNextHops() { overrides_.clear(); }

  /// Shortest-path router cost between two nodes (for analysis/oracles);
  /// infinity if disconnected.
  double Distance(NodeId from, NodeId to);

  /// Summed link delay along the chosen shortest path between two nodes.
  SimDuration PathDelay(NodeId from, NodeId to);

  /// Node sequence (inclusive of both endpoints) of the chosen shortest
  /// path; empty when disconnected.
  std::vector<NodeId> Path(NodeId from, NodeId to);

  /// Longest-prefix match of `dest` against the known subnets (up or
  /// down; liveness is the routing table's concern, not addressing's).
  std::optional<SubnetId> ResolveSubnet(Ipv4Address dest);

  /// Monotone counter bumped every time `source`'s table is recomputed;
  /// stable while the table is verified-unaffected. Consumers caching
  /// path-derived state (e.g. the MOSPF per-(S,G) tree cache) key on
  /// this instead of the raw topology epoch, inheriting the scoped
  /// invalidation for free. Freshens the table as a side effect.
  std::uint64_t TableVersion(NodeId source);

  /// Forces recomputation on next query regardless of topology epoch.
  void Invalidate();

  /// Bytes held by the per-source tables, counted by vector capacity
  /// (scratch buffers and the live adjacency excluded).
  std::size_t TableBytes() const;

  const Stats& stats() const { return stats_; }
  Stats& mutable_stats() { return stats_; }
  void ResetStats() { obs::ResetStats(stats_); }

  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

 private:
  struct NodeRoutes {
    // Indexed by subnet id: how the best route to that subnet derives
    // (see the entry encoding below).
    std::vector<std::int32_t> to_subnet;
    // Indexed by node id: best route/cost to that node's primary address.
    std::vector<Route> to_node;
    std::vector<NodeId> predecessor;  // for Path()
    // Bitset over subnet ids: subnets traversed by some chosen shortest
    // path out of this source. A change on an unused subnet cannot alter
    // to_node/predecessor (see ApplyScopedChanges).
    std::vector<std::uint64_t> used_subnets;
    std::uint64_t version = 0;
    bool valid = false;

    bool Uses(SubnetId s) const {
      const auto i = static_cast<std::size_t>(s.value());
      return (i >> 6) < used_subnets.size() &&
             (used_subnets[i >> 6] >> (i & 63)) & 1u;
    }
  };

  // A to_subnet entry: a node id (>= 0) means "the to_node route of this
  // attachment router"; kUnreachable means no route; anything below
  // encodes a direct attachment through vif (kDirectBase - entry).
  static constexpr std::int32_t kUnreachable = -1;
  static constexpr std::int32_t kDirectBase = -2;
  static constexpr std::int32_t DirectVia(VifIndex vif) {
    return kDirectBase - vif;
  }

  /// Snapshot of the live topology at one epoch, in compressed-row form.
  /// A port is an up interface of an up node on an up subnet; the live
  /// attachments of a subnet are exactly its ports, so the edges out of a
  /// port are the other attachments in its subnet's range.
  struct Adjacency {
    struct Port {
      VifIndex vif;
      std::int32_t subnet;
      double cost;                      // the interface's outgoing cost
      SimDuration delay;                // the subnet's delay
      std::uint32_t att_begin, att_end;  // the subnet's live attachments
    };
    struct Attachment {
      std::int32_t node;
      VifIndex vif;
      std::uint32_t address;  // the attached interface's address
      bool is_router;
    };
    std::vector<std::uint32_t> port_begin;  // per node, plus an end sentinel
    std::vector<Port> ports;
    std::vector<std::uint32_t> att_begin;  // per subnet, plus an end sentinel
    std::vector<Attachment> attachments;
    std::vector<std::uint8_t> is_router;  // per node
    // Topology epoch of the last build (none while port_begin is empty).
    std::uint64_t epoch = 0;
  };

  /// Longest-prefix-match index: one bucket per distinct mask, longest
  /// (numerically largest contiguous) mask first, each sorted by network
  /// for binary search. Plus a direct-mapped address cache in front.
  struct LpmIndex {
    struct Bucket {
      std::uint32_t mask;
      // (network bits, subnet id), sorted; duplicates keep the lowest id
      // to match the historical first-wins linear scan.
      std::vector<std::pair<std::uint32_t, std::int32_t>> prefixes;
    };
    std::vector<Bucket> buckets;
    std::size_t indexed_subnets = 0;
    std::uint64_t version = 0;  // bumped per rebuild; guards the cache
  };
  struct LpmCacheSlot {
    std::uint32_t addr = 0;
    std::int32_t subnet = -1;  // -1 = cached miss
    std::uint64_t version = 0;  // 0 = empty
  };

  /// Brings routing state in sync with the simulator's topology epoch:
  /// processes the scoped change journal (lazy mode) or invalidates
  /// everything (eager mode / journal overflow / entity-count change).
  void SyncTopology();

  /// Ensures `source`'s table is valid, running its Dijkstra if needed.
  NodeRoutes& Freshen(NodeId source);

  void ComputeFrom(NodeId source);

  /// The live adjacency at the current epoch, rebuilt if stale.
  const Adjacency& Live();

  /// Applies one batch of scoped changes to every valid table: tables
  /// that provably cannot be affected are patched in place; the rest are
  /// invalidated.
  void ApplyScopedChanges(std::span<const netsim::TopologyChange> changes);

  /// Conservative test: could bringing subnet `s` (back) up improve or
  /// re-tie any route in `table`? False only when provably not.
  bool UpMayImprove(const NodeRoutes& table, NodeId source, SubnetId s) const;

  /// Recomputes table.to_subnet[s] from the (unchanged) to_node routes —
  /// the per-subnet tail of ComputeFrom, replayed for one subnet.
  static void RecomputeSubnetTail(NodeRoutes& table, NodeId source,
                                  std::size_t s, const Adjacency& adj);

  void InvalidateAllTables();

  void RebuildLpmIndex();

  /// True when a static override's forwarding path is actually usable.
  bool OverrideLive(NodeId node, SubnetId dest_subnet,
                    const Route& route) const;

  static constexpr std::size_t kLpmCacheSize = 256;  // direct-mapped

  netsim::Simulator* sim_;
  Mode mode_;
  std::uint64_t synced_epoch_ = 0;
  std::size_t synced_subnet_count_ = 0;
  bool ever_synced_ = false;
  /// Manager-wide monotone source of table versions; never reused, so a
  /// consumer's cached version can never alias across invalidations.
  std::uint64_t version_counter_ = 0;
  std::vector<NodeRoutes> tables_;  // indexed by node id
  Adjacency adj_;
  // ComputeFrom scratch, reused across sources. Heap entries pack
  // (dist, first_hop_addr, node) into one integer key that orders exactly
  // like the tuple (see HeapKeyOf in the .cc): branch-free comparisons.
  __extension__ using HeapKey = unsigned __int128;
  std::vector<HeapKey> heap_;
  std::vector<std::uint8_t> done_;
  std::vector<std::int32_t> via_subnet_;
  std::map<std::pair<NodeId, SubnetId>, Route> overrides_;
  LpmIndex lpm_;
  std::array<LpmCacheSlot, kLpmCacheSize> lpm_cache_{};
  Stats stats_;
};

/// obs reflection over the work counters (see obs/fields.h); binds them
/// under "cbt.routing.*" and powers the generic ResetStats.
template <typename Stats, typename Fn>
  requires std::is_same_v<std::remove_const_t<Stats>, RouteManager::Stats>
void ForEachStatsField(Stats& s, Fn&& fn) {
  using Tag = obs::FieldTag;
  fn("tables_computed", s.tables_computed, Tag::kNone);
  fn("tables_dirtied", s.tables_dirtied, Tag::kNone);
  fn("tables_kept_warm", s.tables_kept_warm, Tag::kNone);
  fn("full_invalidations", s.full_invalidations, Tag::kNone);
  fn("lookups", s.lookups, Tag::kNone);
  fn("lpm_cache_hits", s.lpm_cache_hits, Tag::kNone);
  fn("lpm_index_rebuilds", s.lpm_index_rebuilds, Tag::kNone);
}

}  // namespace cbt::routing
