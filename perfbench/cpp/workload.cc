#include "workload.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string_view>
#include <utility>

#include "analysis/invariant_auditor.h"
#include "cbt/churn.h"
#include "cbt/domain.h"
#include "igmp/membership_aggregate.h"
#include "netsim/chaos.h"
#include "netsim/topologies.h"
#include "obs/metrics.h"
#include "packet/encap.h"

namespace perfbench {
namespace {

using namespace cbt;  // NOLINT
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Ipv4Address GroupAddress(std::uint32_t g) {
  return Ipv4Address(239, 10, static_cast<std::uint8_t>((g >> 8) & 0xff),
                     static_cast<std::uint8_t>(g & 0xff));
}

core::CbtConfig MakeCbtConfig(const WorkloadSpec& spec, bool traced) {
  core::CbtConfig config;
  if (spec.chaos) {
    // The chaos-soak timers: recovery from a fault completes in seconds,
    // so many faults fit one measured window.
    config.echo_interval = 5 * kSecond;
    config.echo_timeout = 15 * kSecond;
    config.pend_join_interval = 2 * kSecond;
    config.pend_join_timeout = 8 * kSecond;
    config.expire_pending_join = 30 * kSecond;
    config.child_assert_interval = 10 * kSecond;
    config.child_assert_expire = 25 * kSecond;
    config.iff_scan_interval = 60 * kSecond;
    config.reconnect_timeout = 30 * kSecond;
    config.proxy_refresh_interval = 20 * kSecond;
  }
  config.time_dataplane = traced;
  return config;
}

igmp::IgmpConfig MakeIgmpConfig() {
  igmp::IgmpConfig config;
  config.query_interval = 15 * kSecond;
  config.query_response_interval = 4 * kSecond;
  return config;
}

/// FNV-1a, 64 bit.
class Fingerprint {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void Add(std::string_view s) {
    for (const char c : s) Byte(static_cast<std::uint8_t>(c));
    Byte(0);
  }
  std::uint64_t value() const { return hash_; }

 private:
  void Byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 1099511628211ull;
  }
  std::uint64_t hash_ = 14695981039346656037ull;
};

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

struct Harness {
  netsim::Simulator* sim;
  core::CbtDomain* domain;
  std::vector<igmp::MembershipAggregate*> stations;
  std::vector<Ipv4Address> groups;
  const scenario::ChurnRunner* runner;
};

/// Reads the public stats. Gauges (event slots, FIB state) are current
/// values; everything else is cumulative, for window deltas.
Counts ReadCounts(const Harness& h) {
  Counts c;
  for (const NodeId id : h.domain->router_ids()) {
    const core::RouterStats& s = h.domain->router(id).stats();
    c.lan_deliveries += s.data_delivered_lan;
    c.hops += s.data_forwarded_tree + s.data_delivered_lan +
              s.data_nonmember_relayed;
    c.cbt_control += s.ControlMessagesSent();
    c.cache_hits += s.dataplane_cache_hits;
    c.cache_misses += s.dataplane_cache_misses;
    c.cache_invalidates += s.dataplane_cache_invalidates;
    c.data_drops += s.data_dropped_off_tree + s.data_dropped_ttl +
                    s.data_dropped_no_state + s.data_dropped_not_local;
    c.join_retransmits += s.join_retransmits;
    c.stage_cycles += s.dataplane_stage_cycles;
    c.stage_calls += s.dataplane_stage_calls;
  }
  for (const igmp::MembershipAggregate* station : h.stations) {
    const auto& s = station->stats();
    c.host_igmp += s.reports_sent + s.core_reports_sent + s.leaves_sent;
    c.reports_sent += s.reports_sent + s.core_reports_sent;
    c.responses_suppressed += s.responses_suppressed;
  }
  for (std::size_t i = 0; i < h.sim->subnet_count(); ++i) {
    const netsim::SubnetCounters& s =
        h.sim->subnet(SubnetId(static_cast<std::int32_t>(i))).counters;
    c.frames += s.frames_sent;
    c.frame_bytes += s.bytes_sent;
  }
  c.arena_makes = h.sim->packet_arena().total_makes();
  c.arena_reuses = h.sim->packet_arena().reuses();
  c.event_slots = h.sim->events().slot_capacity();
  c.fib_state_units = h.domain->TotalFibState();
  const routing::RouteManager::Stats& r = h.domain->routes().stats();
  c.route_lookups = r.lookups;
  c.lpm_cache_hits = r.lpm_cache_hits;
  c.tables_computed = r.tables_computed;
  c.tables_dirtied = r.tables_dirtied;
  c.tables_kept_warm = r.tables_kept_warm;
  c.member_events = h.runner->applied();
  return c;
}

/// Window delta of the cumulative counts; gauges keep the later value.
Counts WindowDelta(const Counts& a, const Counts& b) {
  Counts d = b;
  d.lan_deliveries -= a.lan_deliveries;
  d.hops -= a.hops;
  d.cbt_control -= a.cbt_control;
  d.cache_hits -= a.cache_hits;
  d.cache_misses -= a.cache_misses;
  d.cache_invalidates -= a.cache_invalidates;
  d.data_drops -= a.data_drops;
  d.join_retransmits -= a.join_retransmits;
  d.stage_cycles -= a.stage_cycles;
  d.stage_calls -= a.stage_calls;
  d.host_igmp -= a.host_igmp;
  d.reports_sent -= a.reports_sent;
  d.responses_suppressed -= a.responses_suppressed;
  d.frames -= a.frames;
  d.frame_bytes -= a.frame_bytes;
  d.arena_makes -= a.arena_makes;
  d.arena_reuses -= a.arena_reuses;
  d.route_lookups -= a.route_lookups;
  d.lpm_cache_hits -= a.lpm_cache_hits;
  d.member_events -= a.member_events;
  return d;
}

/// Keeps the replay's results observable so no parse is optimised away.
volatile std::uint64_t replay_sink = 0;

/// Replays the captured frames through the codec; ns per frame.
double ReplayFrames(const std::vector<std::vector<std::uint8_t>>& frames) {
  if (frames.empty()) return 0;
  std::uint64_t parsed = 0;
  std::uint64_t sink = 0;
  const auto start = Clock::now();
  do {
    for (const auto& frame : frames) {
      const auto dgram = packet::ParseDatagram(frame);
      ++parsed;
      if (!dgram) continue;
      switch (static_cast<packet::IpProtocol>(dgram->ip.protocol)) {
        case packet::IpProtocol::kIgmp:
          sink += packet::ExtractIgmp(*dgram).has_value();
          break;
        case packet::IpProtocol::kUdp:
          sink += packet::ExtractControl(*dgram).has_value();
          break;
        case packet::IpProtocol::kCbt:
          sink += packet::ExtractCbtModeData(*dgram).has_value();
          break;
        default:
          sink += dgram->payload.size();
          break;
      }
    }
  } while (Seconds(start, Clock::now()) < 0.05);
  replay_sink = sink;
  return Seconds(start, Clock::now()) * 1e9 / static_cast<double>(parsed);
}

/// The churn process: zipf groups over the member LANs, warm members at
/// t = 0 and, for churning workloads, equilibrium Poisson arrivals.
scenario::ChurnParams MakeChurnParams(const WorkloadSpec& spec,
                                      SimTime window_start,
                                      SimTime window_end) {
  scenario::ChurnParams params;
  params.groups = spec.groups;
  params.zipf_s = 1.0;
  params.initial_members = spec.members;
  params.mean_holding = 60 * kSecond;
  if (spec.churn) {
    // Arrivals = members / mean holding, so the population stays flat.
    params.duration = window_end;
    params.arrivals_per_second = static_cast<double>(spec.members) / 60.0;
  } else {
    params.duration = 1;  // static: only the warm joins at t = 0
  }
  if (spec.flash_members > 0) {
    scenario::FlashCrowd flash;
    flash.at = window_start + (window_end - window_start) / 2;
    flash.group = spec.groups - 1;  // the coldest group floods
    flash.members = spec.flash_members;
    flash.window = 5 * kSecond;
    params.flashes.push_back(flash);
  }
  return params;
}

/// Faults hit the member block only (where the trees are), never a core,
/// and are all repaired 30 s before the window ends so that recovery is
/// measured inside the window, not in the drain.
netsim::ChaosPlan MakeChaosPlan(netsim::Simulator& sim,
                                const netsim::Topology& topo,
                                std::uint32_t lan_count,
                                const std::set<NodeId>& cores,
                                std::uint64_t seed, SimTime window_start,
                                SimTime window_end) {
  const std::set<NodeId> block(topo.routers.begin(),
                               topo.routers.begin() + lan_count);
  std::vector<NodeId> crashable;
  for (const NodeId id : block) {
    if (!cores.contains(id)) crashable.push_back(id);
  }
  std::vector<SubnetId> flappable;
  for (std::size_t i = 0; i < sim.subnet_count(); ++i) {
    const netsim::SubnetRecord& s =
        sim.subnet(SubnetId(static_cast<std::int32_t>(i)));
    if (s.multi_access || s.attachments.size() != 2) continue;
    if (block.contains(s.attachments[0].first) &&
        block.contains(s.attachments[1].first)) {
      flappable.push_back(s.id);
    }
  }
  netsim::ChaosPlanParams params;
  params.event_count = static_cast<int>((window_end - window_start) / kSecond);
  params.start = window_start + 2 * kSecond;
  params.min_gap = 1 * kSecond;
  params.max_gap = 4 * kSecond;
  params.min_down = 2 * kSecond;
  params.max_down = 5 * kSecond;
  netsim::ChaosPlan plan =
      netsim::MakeRandomPlan(seed, params, crashable, flappable);
  std::erase_if(plan.events, [&](const netsim::ChaosEvent& e) {
    return e.repair_at() > window_end - 30 * kSecond;
  });
  return plan;
}

/// How long the trees may take to recover after the last repair (the
/// chaos-soak timers detect a dead parent in at most 15 s).
constexpr SimDuration kRecoveryTime = 20 * kSecond;

/// Longest a data packet can be in flight. On churn_dense_data some
/// packets still land more than 150 ms after their send (a bound of 150 ms
/// miscounts leaves during flight as losses); 500 ms does not.
constexpr SimDuration kMaxInFlight = 500 * kMillisecond;

/// What the outputs should be, replayed from the generated inputs alone.
/// Cells are indexed [lan * groups + group].
struct Expected {
  std::vector<std::uint64_t> members;  // at window end
  /// Per cell, summed over the sends to its group: the members in force at
  /// the send instant, and the fewest and most the cell can credit. A
  /// member who joins an on-tree LAN while a packet is in flight is
  /// credited with it, and one who leaves is not, so only membership
  /// changes within kMaxInFlight of a send widen the range.
  std::vector<std::uint64_t> at_send;
  std::vector<std::uint64_t> low;
  std::vector<std::uint64_t> high;
  /// low[cell] split by when the packets land: interval i runs from
  /// checkpoint i - 1 (exclusive) to checkpoint i, the first one from the
  /// start, the last one to the end. A send whose flight may straddle a
  /// checkpoint counts in neither interval.
  std::vector<std::vector<std::uint64_t>> interval_low;
  std::uint64_t failed_leaves = 0;
};

/// `events`, `sends` and `checkpoints` are sorted by time.
Expected Replay(const std::vector<scenario::MembershipEvent>& events,
                const std::vector<std::pair<SimTime, std::uint32_t>>& sends,
                std::uint32_t lan_count, std::uint32_t groups,
                const std::vector<SimTime>& checkpoints) {
  Expected out;
  const std::size_t cells = static_cast<std::size_t>(lan_count) * groups;
  for (auto* v : {&out.members, &out.at_send, &out.low, &out.high}) {
    v->assign(cells, 0);
  }
  out.interval_low.assign(checkpoints.size() + 1,
                          std::vector<std::uint64_t>(cells, 0));
  std::size_t next = 0;
  const auto apply_until = [&](SimTime t) {
    for (; next < events.size() && events[next].at <= t; ++next) {
      const scenario::MembershipEvent& e = events[next];
      std::uint64_t& cell = out.members[e.lan * groups + e.group];
      if (e.join) {
        ++cell;
      } else if (cell == 0) {
        ++out.failed_leaves;  // a leave the program must ignore
      } else {
        --cell;
      }
    }
  };
  std::vector<std::uint64_t> joins(lan_count);
  std::vector<std::uint64_t> leaves(lan_count);
  for (const auto& [t, g] : sends) {
    apply_until(t);
    std::fill(joins.begin(), joins.end(), 0);
    std::fill(leaves.begin(), leaves.end(), 0);
    for (std::size_t i = next;
         i < events.size() && events[i].at <= t + kMaxInFlight; ++i) {
      if (events[i].group == g) {
        ++(events[i].join ? joins : leaves)[events[i].lan];
      }
    }
    // The interval the packet surely lands in, if its flight cannot
    // straddle a checkpoint.
    const auto after = std::lower_bound(checkpoints.begin(),
                                        checkpoints.end(), t + 1);
    const bool inside =
        after == checkpoints.end() || t + kMaxInFlight <= *after;
    std::vector<std::uint64_t>* landing =
        inside ? &out.interval_low[after - checkpoints.begin()] : nullptr;
    for (std::uint32_t lan = 0; lan < lan_count; ++lan) {
      const std::size_t cell = lan * groups + g;
      const std::uint64_t m = out.members[cell];
      const std::uint64_t low = m - std::min(m, leaves[lan]);
      out.at_send[cell] += m;
      out.low[cell] += low;
      out.high[cell] += m + joins[lan];
      if (landing != nullptr) (*landing)[cell] += low;
    }
  }
  apply_until(std::numeric_limits<SimTime>::max());
  return out;
}

/// FNV-1a over everything the simulated history determines. The stage
/// timers are wall-clock data, present only in the traced pass.
std::uint64_t HashHistory(const core::CbtDomain& domain, const Harness& h,
                          const scenario::ChurnSchedule& schedule,
                          std::uint64_t sends, std::uint64_t faults,
                          SimTime now) {
  Fingerprint fp;
  for (const obs::Sample& s : domain.MetricsSnapshot()) {
    if (EndsWith(s.name, ".dataplane.stage_cycles") ||
        EndsWith(s.name, ".dataplane.stage_calls")) {
      continue;
    }
    fp.Add(s.name);
    fp.Add(s.value);
  }
  for (const igmp::MembershipAggregate* station : h.stations) {
    for (const Ipv4Address g : h.groups) {
      fp.Add(station->ReceivedCount(g));
      fp.Add(station->MemberCount(g));
    }
    const auto& s = station->stats();
    for (const std::uint64_t v :
         {s.joins, s.leaves, s.reports_sent, s.core_reports_sent,
          s.leaves_sent, s.queries_seen, s.responses_suppressed}) {
      fp.Add(v);
    }
  }
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(schedule.events().size()),
        schedule.join_count(), schedule.leave_count(), sends, faults,
        static_cast<std::uint64_t>(now)}) {
    fp.Add(v);
  }
  return fp.value();
}

}  // namespace

std::vector<WorkloadSpec> Workloads(bool smoke) {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec dense;
  dense.name = "churn_dense_data";
  dense.members = 100000;
  dense.data_rate = 20;
  dense.max_miss_ratio = 0.01;
  specs.push_back(dense);

  WorkloadSpec membership;
  membership.name = "churn_membership";
  membership.members = 200000;
  membership.flash_members = 50000;
  specs.push_back(membership);

  WorkloadSpec flap;
  flap.name = "flap_recovery";
  flap.members = 4000;
  flap.churn = false;
  flap.data_rate = 10;
  flap.warmup_s = 20;
  flap.chaos = true;
  // Faults lose packets in flight and cut subtrees off until they rejoin:
  // 5-23% of deliveries over seeds 100-147. A tree that fails to recover
  // is caught by the recovery check, not by this bound.
  flap.max_miss_ratio = 0.3;
  specs.push_back(flap);

  if (smoke) {
    for (WorkloadSpec& s : specs) {
      s.grid_side = 8;
      s.member_lans = 32;
      s.members = std::max<std::uint64_t>(200, s.members / 100);
      s.flash_members /= 100;
      s.window_s = s.chaos ? 60 : 10;
      // A fault in the 32-router block cuts off a larger share of it:
      // 2-31% over seeds 1-12.
      if (s.chaos) s.max_miss_ratio = 0.4;
    }
  }
  return specs;
}

PassResult RunPass(const WorkloadSpec& spec, std::uint64_t seed, bool traced) {
  PassResult out;
  SpanTotals spans;
  SpanTotals* probe = traced ? &spans : nullptr;
  const auto pass_start = Clock::now();
  const std::uint64_t tick_start = CycleNow();
  const SimTime window_start = spec.warmup_s * kSecond;
  const SimTime window_end = window_start + spec.window_s * kSecond;
  out.window_sim_s = spec.window_s;

  // --- Set-up. --------------------------------------------------------------
  // Declared before the simulation so it outlives every binding into it.
  obs::Registry registry;
  netsim::Simulator sim(1);
  netsim::Topology topo = netsim::MakeGrid(sim, spec.grid_side, spec.grid_side);
  core::CbtDomain domain(sim, topo, MakeCbtConfig(spec, traced),
                         MakeIgmpConfig());
  domain.BindMetrics(registry);

  const std::uint32_t lan_count = std::min<std::uint32_t>(
      spec.member_lans, static_cast<std::uint32_t>(topo.router_lans.size()));
  Harness h{&sim, &domain, {}, {}, nullptr};

  // Cores sit inside the member block, spread across it, so join paths
  // stay local; the other routers still run all of CBT and IGMP.
  std::set<NodeId> cores;
  for (std::uint32_t g = 0; g < spec.groups; ++g) {
    const std::uint32_t at = ((g + 1) * lan_count) / (spec.groups + 1);
    const NodeId core = topo.routers[std::min(at, lan_count - 1)];
    cores.insert(core);
    h.groups.push_back(GroupAddress(g));
    domain.RegisterGroup(h.groups.back(), {core});
  }
  for (std::uint32_t i = 0; i < lan_count; ++i) {
    h.stations.push_back(&domain.AddAggregate(
        topo.router_lans[i], "agg" + std::to_string(i),
        igmp::MembershipAggregate::Mode::kCoalesced));
  }
  core::HostAgent* sender =
      spec.data_rate > 0 ? &domain.AddHost(topo.router_lans.back(), "sender")
                         : nullptr;

  const scenario::ChurnSchedule schedule = scenario::ChurnSchedule::Generate(
      MakeChurnParams(spec, window_start, window_end), lan_count, seed);
  scenario::ChurnRunner runner(
      sim, schedule, [&](const scenario::MembershipEvent& e) {
        if (e.join) {
          ScopedSpan span(probe, Span::kJoin);
          h.stations[e.lan]->Join(h.groups[e.group]);
        } else {
          ScopedSpan span(probe, Span::kLeave);
          h.stations[e.lan]->Leave(h.groups[e.group]);
        }
      });
  h.runner = &runner;

  AgentWrappers wrappers(probe);
  std::unique_ptr<netsim::ChaosInjector> injector;
  std::uint64_t faults = 0;
  // Slice boundaries at which each cell's ReceivedCount is snapshot: on
  // the chaos workload, before the first fault and once the trees have had
  // time to recover from the last one.
  std::vector<SimTime> checkpoints;
  if (spec.chaos) {
    netsim::ChaosPlan plan = MakeChaosPlan(sim, topo, lan_count, cores, seed,
                                           window_start, window_end);
    faults = plan.events.size();
    const auto slice_at_or_before = [&](SimTime t) {
      return window_start + (t - window_start) / kSecond * kSecond;
    };
    if (!plan.events.empty()) {
      checkpoints = {
          slice_at_or_before(plan.events.front().at),
          slice_at_or_before(plan.LastRepairTime() + kRecoveryTime) + kSecond};
    }
    netsim::ChaosInjector::Hooks hooks = domain.ChaosHooks();
    if (traced) {
      // A restarted router keeps its wrapper, whatever agent it now has.
      hooks.on_restart = [&, restart = hooks.on_restart](NodeId id) {
        restart(id);
        wrappers.Wrap(sim, id, TimedAgent::Role::kRouter);
      };
    }
    injector = std::make_unique<netsim::ChaosInjector>(sim, std::move(hooks));
    injector->Arm(std::move(plan));
  }

  // One non-member sender on the far corner pumps every group at the
  // data rate for exactly the window, streams staggered over one period.
  std::vector<std::pair<SimTime, std::uint32_t>> sends;
  const SimDuration period =
      spec.data_rate > 0 ? kSecond / spec.data_rate : 0;
  std::vector<std::uint8_t> payload(8);  // group byte, then sequence bytes
  std::function<void(std::uint32_t)> pump = [&](std::uint32_t g) {
    const std::uint64_t seq = sends.size();
    sends.emplace_back(sim.Now(), g);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i == 0 ? g : seq >> (8 * (i - 1)));
    }
    {
      ScopedSpan span(probe, Span::kSend);
      sender->SendToGroup(h.groups[g], payload);
    }
    if (sim.Now() + period < window_end) {
      sim.Schedule(period, [&pump, g] { pump(g); });
    }
  };
  if (sender != nullptr) {
    sends.reserve(static_cast<std::size_t>(spec.window_s) * spec.data_rate *
                  spec.groups);
    for (std::uint32_t g = 0; g < spec.groups; ++g) {
      sim.ScheduleAt(window_start + (period * g) / spec.groups,
                     [&pump, g] { pump(g); });
    }
  }

  if (traced) {
    for (const NodeId id : domain.router_ids()) {
      wrappers.Wrap(sim, id, TimedAgent::Role::kRouter);
    }
    for (const NodeId id : domain.aggregate_ids()) {
      wrappers.Wrap(sim, id, TimedAgent::Role::kStation);
    }
    for (const NodeId id : domain.host_ids()) {
      wrappers.Wrap(sim, id, TimedAgent::Role::kHost);
    }
  }

  domain.Start();
  runner.Start();
  sim.RunUntil(window_start);
  out.setup_s = Seconds(pass_start, Clock::now());

  // --- Measured window: one RunUntil per simulated second. --------------
  std::vector<std::vector<std::uint8_t>> frames;
  if (traced) {
    std::uint64_t seen = 0;
    sim.SetFrameObserver([&frames, seen](const netsim::FrameEvent& f) mutable {
      if (seen++ % 16 == 0 && frames.size() < 50000) {
        frames.emplace_back(f.payload.begin(), f.payload.end());
      }
    });
  }
  const Counts before = ReadCounts(h);
  const std::size_t events_before = runner.applied();
  const SpanTotals spans_before = spans;
  std::uint64_t audits = 0;
  std::vector<std::vector<std::uint64_t>> snapshots;  // per checkpoint, cell
  const auto window_wall = Clock::now();
  for (SimTime t = window_start + kSecond; t <= window_end; t += kSecond) {
    const auto slice_start = Clock::now();
    {
      ScopedSpan span(probe, Span::kSlice);
      sim.RunUntil(t);
    }
    if (std::find(checkpoints.begin(), checkpoints.end(), t) !=
        checkpoints.end()) {
      snapshots.emplace_back();
      for (const igmp::MembershipAggregate* station : h.stations) {
        for (const Ipv4Address g : h.groups) {
          snapshots.back().push_back(station->ReceivedCount(g));
        }
      }
    }
    if (spec.chaos && (t - window_start) % (5 * kSecond) == 0) {
      // The recovery probe: one audit every five simulated seconds.
      ScopedSpan span(probe, Span::kAudit);
      analysis::RunUntilInvariantsHold(domain, sim.Now());
      ++audits;
    }
    out.slice_ms.push_back(Seconds(slice_start, Clock::now()) * 1e3);
  }
  out.window_s = Seconds(window_wall, Clock::now());
  const SpanTotals spans_window = spans;
  out.spans = spans_window.Minus(spans_before);
  out.counts = WindowDelta(before, ReadCounts(h));
  sim.SetFrameObserver(nullptr);

  // --- Drain: the session ends. In-flight data lands, every member leaves,
  // and the run goes on until the audit is clean and only the cores are
  // left on any tree.
  const auto drain_wall = Clock::now();
  sim.RunUntil(window_end + kSecond);
  std::vector<std::uint64_t> final_members;
  for (igmp::MembershipAggregate* station : h.stations) {
    for (const Ipv4Address g : h.groups) {
      const std::uint64_t n = station->MemberCount(g);
      final_members.push_back(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        ScopedSpan span(probe, Span::kLeave);
        station->Leave(g);
      }
    }
  }
  const auto torn_down = [&] {
    for (const Ipv4Address g : h.groups) {
      for (const NodeId id : domain.OnTreeRouters(g)) {
        if (!cores.contains(id)) return false;
      }
    }
    return true;
  };
  const SimTime deadline = sim.Now() + 120 * kSecond;
  for (;;) {
    bool clean = false;
    {
      ScopedSpan span(probe, Span::kAudit);
      clean = analysis::RunUntilInvariantsHold(domain, sim.Now()).has_value();
    }
    ++audits;
    if (clean && torn_down()) {
      out.audit_clean = true;
      break;
    }
    if (sim.Now() >= deadline) break;
    sim.RunUntil(std::min(deadline, sim.Now() + kSecond));
  }
  out.drain_s = Seconds(drain_wall, Clock::now());
  out.drain_spans = spans.Minus(spans_window);

  if (traced) {
    out.ns_per_tick = Seconds(pass_start, Clock::now()) * 1e9 /
                      static_cast<double>(CycleNow() - tick_start);
    out.parse_ns_per_frame = ReplayFrames(frames);
    wrappers.Unwrap(sim);
  }

  // --- Counts that need the whole pass. -------------------------------------
  Counts& c = out.counts;
  const auto& events = schedule.events();
  for (std::size_t i = events_before; i < runner.applied(); ++i) {
    ++(events[i].join ? c.join_events : c.leave_events);
  }
  c.sends = sends.size();
  c.faults = faults;
  c.audits = audits;
  const routing::RouteManager::Stats& routes = domain.routes().stats();
  c.tables_computed = routes.tables_computed;
  c.tables_dirtied = routes.tables_dirtied;
  c.tables_kept_warm = routes.tables_kept_warm;

  // --- Correctness gate: the outputs against the replayed inputs. ---------
  // Deliveries are checked per (LAN, group) cell, so a duplicate on one
  // LAN cannot hide behind a loss on another.
  const Expected expected =
      Replay(events, sends, lan_count, spec.groups, checkpoints);
  c.failed_leaves = expected.failed_leaves;
  std::uint64_t excess = 0;
  for (std::uint32_t lan = 0; lan < lan_count; ++lan) {
    for (std::uint32_t g = 0; g < spec.groups; ++g) {
      const std::size_t cell = lan * spec.groups + g;
      const std::uint64_t got = h.stations[lan]->ReceivedCount(h.groups[g]);
      c.member_deliveries += got;
      c.expected_member_deliveries += expected.at_send[cell];
      if (got > expected.high[cell]) excess += got - expected.high[cell];
      if (got < expected.low[cell]) {
        c.missed_member_deliveries += expected.low[cell] - got;
      }
      // Faults may cut a LAN off, but once the trees have recovered, a
      // LAN that was served before the first fault must be served again.
      if (!checkpoints.empty()) {
        const std::uint64_t before_faults = snapshots.front()[cell];
        const std::uint64_t recovered = got - snapshots.back()[cell];
        const std::uint64_t due_before = expected.interval_low.front()[cell];
        const std::uint64_t due_recovered = expected.interval_low.back()[cell];
        if (due_before > 0 && before_faults >= due_before &&
            recovered < due_recovered) {
          c.missed_after_recovery += due_recovered - recovered;
        }
      }
    }
  }
  std::size_t stragglers = 0;
  for (const igmp::MembershipAggregate* station : h.stations) {
    stragglers += station->TotalMembers();
  }
  if (!runner.done()) {
    out.error = "churn schedule not fully applied";
  } else if (final_members != expected.members) {
    out.error = "station membership differs from the schedule";
  } else if (!out.audit_clean) {
    out.error = "drain did not reach a clean audit with only cores on trees";
  } else if (stragglers != 0) {
    out.error = "a member survived the end-of-run leaves";
  } else if (sender == nullptr) {
    if (c.member_deliveries != 0) out.error = "data delivered without a sender";
  } else if (c.expected_member_deliveries == 0 || c.lan_deliveries == 0) {
    out.error = "no data reached any member";
  } else if (excess != 0) {
    out.error = "a LAN credited more deliveries than it had members";
  } else if (c.missed_after_recovery != 0) {
    out.error = "a LAN served before the faults lost deliveries after recovery";
  } else if (static_cast<double>(c.missed_member_deliveries) >
             spec.max_miss_ratio *
                 static_cast<double>(c.expected_member_deliveries)) {
    out.error = "delivery miss ratio above the workload's bound";
  }

  out.fingerprint =
      HashHistory(domain, h, schedule, c.sends, faults, sim.Now());
  sim.SetMetrics(nullptr);
  return out;
}

}  // namespace perfbench
