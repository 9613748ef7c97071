// cbt_perfbench: the CBT simulator benchmark.
//
//   cbt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--scale full|smoke]
//
// Repeats passes of one seeded workload while their set-ups, windows and
// drains fit in --seconds (at least three), then prints a report and, as
// its last stdout line, one JSON object:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. A --trace 1 run alternates untraced and traced passes, so
// tracing overhead and fingerprint equality are measured in one process.
// Exit status is 0 only when every pass produced correct output.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "workload.h"

namespace {

using perfbench::Counts;
using perfbench::PassResult;
using perfbench::Span;
using perfbench::WorkloadSpec;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::cerr << "cbt_perfbench: " << problem
            << "\nusage: cbt_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale full|smoke]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--scale") {
      if (value != "full" && value != "smoke") Usage("bad --scale " + value);
      args.smoke = value == "smoke";
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') Usage("bad value for " + flag);
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) Usage("--trace must be 0 or 1");
  return args;
}

/// Nearest-rank percentile (q in (0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Each one-second slice's median wall ms over the passes. Passes replay
/// identical slices, so the spread between them is the machine's; the
/// median ignores a burst of other load on one pass and, unlike the
/// fastest, does not drift with the number of passes that fit the run.
std::vector<double> MedianSlices(const std::vector<PassResult>& passes) {
  std::vector<double> median(passes.front().slice_ms.size());
  std::vector<double> column;
  for (std::size_t k = 0; k < median.size(); ++k) {
    column.clear();
    for (const PassResult& p : passes) column.push_back(p.slice_ms[k]);
    median[k] = Median(column);
  }
  return median;
}

/// Window wall seconds: the sum of the median slices.
double WindowSeconds(const std::vector<PassResult>& passes) {
  double total_ms = 0;
  for (const double ms : MedianSlices(passes)) total_ms += ms;
  return total_ms / 1e3;
}

template <typename Fn>
double MedianOf(const std::vector<PassResult>& passes, Fn&& fn) {
  std::vector<double> values;
  for (const PassResult& p : passes) values.push_back(fn(p));
  return Median(std::move(values));
}

/// Metrics in print order; units must match BENCHMARK.json.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  void PrintTable() const {
    for (const Row& r : rows_) {
      std::printf("  %-40s %18.6f %s\n", r.name.c_str(), r.value,
                  r.unit.c_str());
    }
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.12g", rows_[i].value);
      out += (i ? ", \"" : "\"") + rows_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

void EndToEnd(const std::vector<PassResult>& untraced, Report& report) {
  const std::vector<double> slices = MedianSlices(untraced);
  const Counts& c = untraced.front().counts;
  const double sim_s = untraced.front().window_sim_s;
  report.Add("sim_ops_per_s",
             Ratio(static_cast<double>(c.lan_deliveries + c.member_events),
                   WindowSeconds(untraced)),
             "1/s");
  report.Add("slice_ms_p50", Percentile(slices, 0.5), "ms");
  report.Add("slice_ms_p90", Percentile(slices, 0.9), "ms");
  report.Add("setup_s", MedianOf(untraced, [](const PassResult& p) {
               return p.setup_s;
             }),
             "s");
  report.Add("drain_s", MedianOf(untraced, [](const PassResult& p) {
               return p.drain_s;
             }),
             "s");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Add("ctl_msgs_per_sim_s",
             Ratio(static_cast<double>(c.cbt_control + c.host_igmp), sim_s),
             "1/s");
}

/// End-to-end numbers that are zero on some workload (no data, or no
/// membership change), so they cannot carry a relative bound; they are
/// reported with the per-layer set, from the untraced passes.
void ZeroableEndToEnd(const std::vector<PassResult>& untraced,
                      Report& report) {
  const Counts& c = untraced.front().counts;
  const double window_s = WindowSeconds(untraced);
  report.Add("e2e.hops_per_s", Ratio(static_cast<double>(c.hops), window_s),
             "1/s");
  report.Add("e2e.member_events_per_s",
             Ratio(static_cast<double>(c.member_events), window_s), "1/s");
  report.Add("e2e.delivery_miss_ratio",
             Ratio(static_cast<double>(c.missed_member_deliveries),
                   static_cast<double>(c.expected_member_deliveries)),
             "ratio");
}

void PerLayer(const std::vector<PassResult>& untraced,
              const std::vector<PassResult>& traced, Report& report) {
  const Counts& c = traced.front().counts;
  const auto hops = static_cast<double>(c.hops);
  const auto events = static_cast<double>(c.member_events);
  // Timed spans: the median over the traced passes.
  const auto ns = [](const PassResult& p, Span s) {
    return static_cast<double>(p.spans.Ticks(s)) * p.ns_per_tick;
  };
  const auto per_call = [&](Span s) {
    return MedianOf(traced, [&](const PassResult& p) {
      return Ratio(ns(p, s), static_cast<double>(p.spans.Calls(s)));
    });
  };

  report.Add("netsim.self_ms", MedianOf(traced, [&](const PassResult& p) {
               double inside = ns(p, Span::kSlice);
               for (const Span s :
                    {Span::kRouterData, Span::kRouterControl,
                     Span::kRouterIgmp, Span::kStation, Span::kHost,
                     Span::kJoin, Span::kLeave, Span::kSend}) {
                 inside -= ns(p, s);
               }
               return inside / 1e6;
             }),
             "ms");
  report.Add("netsim.frames_per_hop",
             Ratio(static_cast<double>(c.frames), hops), "ratio");
  report.Add("netsim.arena_makes_per_hop",
             Ratio(static_cast<double>(c.arena_makes), hops), "ratio");
  report.Add("netsim.arena_reuse_ratio",
             Ratio(static_cast<double>(c.arena_reuses),
                   static_cast<double>(c.arena_makes)),
             "ratio");
  report.Add("netsim.event_slots", static_cast<double>(c.event_slots),
             "count");

  report.Add("cbt.data.ns_per_pkt", per_call(Span::kRouterData), "ns");
  report.Add("cbt.data.stage_ns_per_call",
             MedianOf(traced, [](const PassResult& p) {
               return Ratio(static_cast<double>(p.counts.stage_cycles) *
                                p.ns_per_tick,
                            static_cast<double>(p.counts.stage_calls));
             }),
             "ns");
  const auto lookups = static_cast<double>(c.cache_hits + c.cache_misses +
                                           c.cache_invalidates);
  report.Add("cbt.flow_cache.hit_ratio",
             Ratio(static_cast<double>(c.cache_hits), lookups), "ratio");
  report.Add("cbt.flow_cache.invalidates_per_khop",
             Ratio(1000.0 * static_cast<double>(c.cache_invalidates), hops),
             "ratio");
  report.Add("cbt.data.drops_per_khop",
             Ratio(1000.0 * static_cast<double>(c.data_drops), hops), "ratio");

  report.Add("cbt.ctl.ns_per_msg", per_call(Span::kRouterControl), "ns");
  report.Add("cbt.ctl.msgs_per_member_event",
             Ratio(static_cast<double>(c.cbt_control), events), "ratio");
  report.Add("cbt.ctl.join_retransmits",
             static_cast<double>(c.join_retransmits), "count");
  report.Add("cbt.fib.state_units", static_cast<double>(c.fib_state_units),
             "count");
  report.Add("cbt.host.send_ns", per_call(Span::kSend), "ns");

  report.Add("igmp.router.ns_per_msg", per_call(Span::kRouterIgmp), "ns");
  report.Add("igmp.agg.ns_per_dgram", per_call(Span::kStation), "ns");
  report.Add("igmp.agg.join_ns", per_call(Span::kJoin), "ns");
  report.Add("igmp.agg.leave_ns", per_call(Span::kLeave), "ns");
  report.Add("igmp.agg.suppression_ratio",
             Ratio(static_cast<double>(c.responses_suppressed),
                   static_cast<double>(c.responses_suppressed +
                                       c.reports_sent)),
             "ratio");
  report.Add("igmp.agg.reports_per_member_event",
             Ratio(static_cast<double>(c.host_igmp), events), "ratio");

  report.Add("packet.parse_ns_per_frame",
             MedianOf(traced,
                      [](const PassResult& p) { return p.parse_ns_per_frame; }),
             "ns");
  report.Add("packet.bytes_per_frame",
             Ratio(static_cast<double>(c.frame_bytes),
                   static_cast<double>(c.frames)),
             "B");

  report.Add("routing.tables_computed", static_cast<double>(c.tables_computed),
             "count");
  report.Add("routing.tables_dirtied", static_cast<double>(c.tables_dirtied),
             "count");
  report.Add("routing.tables_kept_warm",
             static_cast<double>(c.tables_kept_warm), "count");
  report.Add("routing.lpm_hit_ratio",
             Ratio(static_cast<double>(c.lpm_cache_hits),
                   static_cast<double>(c.route_lookups)),
             "ratio");
  report.Add("routing.lookups_per_member_event",
             Ratio(static_cast<double>(c.route_lookups), events), "ratio");

  report.Add("analysis.audit_ms", MedianOf(traced, [&](const PassResult& p) {
               return (ns(p, Span::kAudit) +
                       static_cast<double>(p.drain_spans.Ticks(Span::kAudit)) *
                           p.ns_per_tick) /
                      1e6;
             }),
             "ms");
  report.Add("analysis.audits", static_cast<double>(c.audits), "count");

  ZeroableEndToEnd(untraced, report);
  report.Add("trace.overhead_ratio",
             Ratio(WindowSeconds(traced), WindowSeconds(untraced)), "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::vector<WorkloadSpec> specs = perfbench::Workloads(args.smoke);
  const auto spec_it =
      std::find_if(specs.begin(), specs.end(), [&](const WorkloadSpec& s) {
        return s.name == args.workload;
      });
  if (spec_it == specs.end()) Usage("unknown workload " + args.workload);
  const WorkloadSpec& spec = *spec_it;

  // At least three untraced passes for the median-slice estimates (two
  // of each kind when traced); then another pass, or traced and untraced
  // pair, only while the slowest one so far still fits in --seconds.
  const std::size_t min_passes = args.trace ? 2 : 3;
  const std::size_t step = args.trace ? 2 : 1;
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  double measured_s = 0;
  double slowest_s = 0;
  while (untraced.size() < min_passes ||
         (args.trace == 1 && traced.size() < untraced.size()) ||
         measured_s + static_cast<double>(step) * slowest_s <= args.seconds) {
    const bool trace_this = args.trace == 1 && traced.size() < untraced.size();
    PassResult pass = perfbench::RunPass(spec, args.seed, trace_this);
    const double pass_s = pass.setup_s + pass.window_s + pass.drain_s;
    measured_s += pass_s;
    slowest_s = std::max(slowest_s, pass_s);
    (trace_this ? traced : untraced).push_back(std::move(pass));
  }

  for (const auto* set : {&untraced, &traced}) {
    for (const PassResult& p : *set) {
      std::printf("pass %s: setup %.4f s, window %.4f s, drain %.4f s\n",
                  set == &traced ? "traced" : "untraced", p.setup_s,
                  p.window_s, p.drain_s);
    }
  }
  std::vector<std::string> errors;
  const auto note = [&errors](const std::string& e) {
    if (std::find(errors.begin(), errors.end(), e) == errors.end()) {
      errors.push_back(e);
    }
  };
  const std::uint64_t fingerprint = untraced.front().fingerprint;
  for (const auto* set : {&untraced, &traced}) {
    for (const PassResult& p : *set) {
      if (!p.error.empty()) note(p.error);
      if (p.fingerprint != fingerprint) {
        note(set == &traced
                 ? "traced pass simulated a different history"
                 : "passes of one seed simulated different histories");
      }
    }
  }
  // The operations of one pass: a member delivery due or a membership
  // event. Every pass simulates the same history (the fingerprints say
  // so), so the counts are fixed for a seed, however many passes fit.
  const Counts& c = untraced.front().counts;
  const std::uint64_t attempted =
      c.expected_member_deliveries + c.member_events;
  const std::uint64_t failed = c.missed_member_deliveries + c.failed_leaves;

  std::printf("workload %s seed %llu scale %s: %zu untraced + %zu traced "
              "passes of %.0f simulated s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.smoke ? "smoke" : "full", untraced.size(), traced.size(),
              untraced.front().window_sim_s);
  std::printf("fingerprint %016llx\n",
              static_cast<unsigned long long>(fingerprint));
  if (!traced.empty()) {
    std::printf("traced fingerprint %016llx\n",
                static_cast<unsigned long long>(traced.front().fingerprint));
  }
  std::printf(
      "window counts: member_events %llu (joins %llu, leaves %llu) sends "
      "%llu lan_deliveries %llu hops %llu member_deliveries %llu / expected "
      "%llu (missed %llu) cbt_control %llu host_igmp %llu frames %llu faults "
      "%llu audits %llu\n",
      static_cast<unsigned long long>(c.member_events),
      static_cast<unsigned long long>(c.join_events),
      static_cast<unsigned long long>(c.leave_events),
      static_cast<unsigned long long>(c.sends),
      static_cast<unsigned long long>(c.lan_deliveries),
      static_cast<unsigned long long>(c.hops),
      static_cast<unsigned long long>(c.member_deliveries),
      static_cast<unsigned long long>(c.expected_member_deliveries),
      static_cast<unsigned long long>(c.missed_member_deliveries),
      static_cast<unsigned long long>(c.cbt_control),
      static_cast<unsigned long long>(c.host_igmp),
      static_cast<unsigned long long>(c.frames),
      static_cast<unsigned long long>(c.faults),
      static_cast<unsigned long long>(c.audits));
  for (const std::string& e : errors) std::printf("ERROR: %s\n", e.c_str());

  Report end_to_end;
  EndToEnd(untraced, end_to_end);
  std::printf("end-to-end (untraced passes):\n");
  end_to_end.PrintTable();
  Report chosen = end_to_end;
  if (args.trace == 1) {
    Report layers;
    PerLayer(untraced, traced, layers);
    std::printf("per-layer (traced passes; counts are window totals):\n");
    layers.PrintTable();
    chosen = layers;
  }
  const bool correct = errors.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), chosen.Json().c_str());
  return correct ? 0 : 1;
}
