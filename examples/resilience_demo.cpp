// Resilience demo: watch CBT survive router failures in real (simulated)
// time — keepalive timeout, core-list fallback, and loop-free repair.
//
// Topology: 4x4 grid; primary core at one corner, secondary at the
// opposite corner; a video source and three receivers. We kill the
// primary core mid-stream and print the delivery gap the receivers see.
#include <cstdio>
#include <vector>

#include "cbt/domain.h"
#include "netsim/topologies.h"

using namespace cbt;  // NOLINT — example brevity

int main() {
  netsim::Simulator sim(3);
  netsim::Topology topo = netsim::MakeGrid(sim, 4, 4);
  core::CbtDomain domain(sim, topo);

  const Ipv4Address video(239, 8, 0, 1);
  domain.RegisterGroup(video, {topo.routers[0], topo.routers[15]});
  domain.Start();
  sim.RunUntil(kSecond);

  core::HostAgent& source = domain.AddHost(topo.router_lans[5], "cam");
  std::vector<core::HostAgent*> viewers;
  for (const std::size_t idx : {3u, 10u, 12u}) {
    viewers.push_back(&domain.AddHost(topo.router_lans[idx],
                                      netsim::IndexedName("tv", idx)));
    viewers.back()->JoinGroup(video);
  }
  source.JoinGroup(video);  // the camera host is a member too
  sim.RunUntil(10 * kSecond);

  // Report repair events as they happen.
  for (const NodeId id : domain.router_ids()) {
    core::CbtRouter::Callbacks cb;
    cb.on_parent_lost = [&sim, id](Ipv4Address) {
      std::printf("  t=%-12s %s: parent unreachable, re-joining\n",
                  FormatSimTime(sim.Now()).c_str(), sim.node(id).name.c_str());
    };
    cb.on_reconnected = [&sim, id](Ipv4Address) {
      std::printf("  t=%-12s %s: re-attached to the tree\n",
                  FormatSimTime(sim.Now()).c_str(), sim.node(id).name.c_str());
    };
    domain.router(id).set_callbacks(std::move(cb));
  }

  // Stream one frame per second for 10 simulated minutes; the primary
  // core dies at t=60s.
  const SimTime start = sim.Now();
  for (int s = 0; s < 600; ++s) {
    sim.Schedule(s * kSecond, [&source, video] {
      source.SendToGroup(video, std::vector<std::uint8_t>(100, 0xF0));
    });
  }
  sim.Schedule(60 * kSecond, [&sim, &topo] {
    std::printf("  t=%-12s !!! primary core %s fails\n",
                FormatSimTime(sim.Now()).c_str(),
                sim.node(topo.routers[0]).name.c_str());
    sim.SetNodeUp(topo.routers[0], false);
  });
  sim.RunUntil(start + 610 * kSecond);

  std::printf("\ndelivery: 600 frames streamed, primary core killed at "
              "t=60s\n");
  for (core::HostAgent* v : viewers) {
    // Find the largest gap between consecutive deliveries.
    SimDuration worst_gap = 0;
    SimTime last = start;
    for (const auto& r : v->received()) {
      if (r.group != video) continue;
      worst_gap = std::max(worst_gap, r.time - last);
      last = r.time;
    }
    std::printf("  viewer received %4llu/600 frames, worst outage %.1fs\n",
                (unsigned long long)v->ReceivedCount(video),
                (double)worst_gap / kSecond);
  }
  std::printf("\n(the outage length is governed by the section 9 timers: "
              "ECHO-TIMEOUT 90s + up to one ECHO-INTERVAL, then one join "
              "round trip — tighten the timers in CbtConfig for faster "
              "fail-over, at higher keepalive cost; see "
              "bench_failure_recovery)\n");
  return 0;
}
