// Workload definitions and one simulated pass of a workload.
//
// A pass builds the whole domain from the seed, warms it up, runs the
// measured window one simulated second per RunUntil slice, then drains
// until the invariant audit is clean. Passes of one (workload, seed) pair
// simulate identical histories; the benchmark repeats them, reports the
// median time of each part over the passes, and compares their
// fingerprints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "probe.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  int grid_side = 32;             // MakeGrid(side, side) routers
  std::uint32_t member_lans = 256;  // stub LANs hosting members (a block)
  std::uint32_t groups = 8;       // zipf-ranked
  std::uint64_t members = 0;      // warm-start members
  bool churn = true;              // Poisson arrivals + exponential holding
  std::uint64_t flash_members = 0;  // flash crowd into the coldest group
  int data_rate = 0;              // packets/s per group from one sender
  int warmup_s = 10;              // simulated seconds inside set-up
  int window_s = 120;             // measured simulated seconds
  /// Seeded link flaps, crashes and partitions, with the chaos-soak
  /// timers so that each recovery completes within seconds.
  bool chaos = false;
  /// Upper bound on delivery_miss_ratio for a correct run (a tree that
  /// stops delivering is a wrong output, not a slow one).
  double max_miss_ratio = 0.0;
};

/// The benchmark workloads, at full or smoke size.
std::vector<WorkloadSpec> Workloads(bool smoke);

/// Deterministic work counts of one window (or whole pass where noted).
struct Counts {
  std::uint64_t member_events = 0;   // churn events applied in the window
  std::uint64_t join_events = 0;
  std::uint64_t leave_events = 0;
  std::uint64_t sends = 0;           // data packets sent
  std::uint64_t lan_deliveries = 0;  // data_delivered_lan
  std::uint64_t hops = 0;            // tree + LAN + non-member relay
  std::uint64_t expected_member_deliveries = 0;  // at each send instant
  std::uint64_t member_deliveries = 0;  // station ReceivedCount totals
  /// Summed over (LAN, group) cells: deliveries short of the fewest
  /// members the cell had while the packets were in flight.
  std::uint64_t missed_member_deliveries = 0;
  /// Of those, after the faults were repaired and the trees recovered, on
  /// LANs that were served before the first fault (must be 0).
  std::uint64_t missed_after_recovery = 0;
  std::uint64_t cbt_control = 0;     // router control messages sent
  std::uint64_t host_igmp = 0;       // station reports + core reports + leaves
  std::uint64_t frames = 0;          // every subnet transmission
  std::uint64_t frame_bytes = 0;
  std::uint64_t arena_makes = 0;
  std::uint64_t arena_reuses = 0;
  std::uint64_t event_slots = 0;     // gauge at window end
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_invalidates = 0;
  std::uint64_t data_drops = 0;
  std::uint64_t join_retransmits = 0;
  std::uint64_t stage_cycles = 0;    // CbtConfig::time_dataplane (traced)
  std::uint64_t stage_calls = 0;
  std::uint64_t fib_state_units = 0;  // gauge at window end
  std::uint64_t reports_sent = 0;     // station reports (all kinds)
  std::uint64_t responses_suppressed = 0;
  std::uint64_t route_lookups = 0;
  std::uint64_t lpm_cache_hits = 0;
  // Whole pass (routing work lands mostly in set-up and recovery).
  std::uint64_t tables_computed = 0;
  std::uint64_t tables_dirtied = 0;
  std::uint64_t tables_kept_warm = 0;
  std::uint64_t audits = 0;
  std::uint64_t faults = 0;           // chaos events armed
  std::uint64_t failed_leaves = 0;    // scheduled leaves on empty groups
};

struct PassResult {
  double setup_s = 0;
  double window_s = 0;  // wall time of the measured window
  double drain_s = 0;
  std::vector<double> slice_ms;
  double window_sim_s = 0;
  Counts counts;
  std::uint64_t fingerprint = 0;
  bool audit_clean = false;
  std::string error;  // nonempty: the pass produced a wrong output

  // Traced pass only.
  SpanTotals spans;         // window spans
  SpanTotals drain_spans;   // drain spans (audits)
  double ns_per_tick = 0;   // CycleNow calibration
  double parse_ns_per_frame = 0;
};

/// Runs one pass. `traced` wraps every agent, brackets the benchmark's calls,
/// turns on CbtConfig::time_dataplane and samples frames for the codec
/// replay; the simulated history is unchanged.
PassResult RunPass(const WorkloadSpec& spec, std::uint64_t seed, bool traced);

}  // namespace perfbench
