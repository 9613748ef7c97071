// Test-only reference scheduler: the differential oracle for the timer
// wheel and for batched multicast delivery.
//
// It is the simplest engine that honours the simulator's ordering
// contract — a std::priority_queue ordered by (time, insertion id) plus
// the set of ids still pending; Cancel only forgets the id, and the dead
// entry is skipped when it surfaces. Installed through the ShardBackend
// seam, it takes over the clock, scheduling and frame delivery of one
// Simulator. The simulator never batches fan-outs while a backend is
// installed, so every receiver gets its own event here: the same class
// is the per-receiver delivery oracle.
//
// Declare it right after the Simulator: it must outlive every agent that
// cancels timers on destruction, and die before the simulator's packet
// arena, which its queued deliveries reference.
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <unordered_set>

#include "netsim/simulator.h"

namespace cbt::netsim {

class ReferenceScheduler final : public ShardBackend {
 public:
  explicit ReferenceScheduler(Simulator& sim) : sim_(sim) {
    sim_.InstallShardBackend(this);
  }
  ~ReferenceScheduler() override { sim_.InstallShardBackend(nullptr); }

  ReferenceScheduler(const ReferenceScheduler&) = delete;
  ReferenceScheduler& operator=(const ReferenceScheduler&) = delete;

  SimTime Now() const override { return clock_; }
  Rng& ContextRng() override { return sim_.base_rng(); }
  obs::TraceBuffer* ContextTrace() override { return sim_.base_trace(); }
  PacketArena& ContextArena() override { return sim_.mutable_packet_arena(); }
  SubnetCounters& CountersFor(SubnetRecord& subnet) override {
    return subnet.counters;
  }
  std::int32_t ExchangeAffinity(std::int32_t) override { return -1; }

  EventId Schedule(SimTime when, EventFn fn) override {
    const EventId id = next_id_++;
    queue_.push(Entry{when, id, std::move(fn)});
    pending_.insert(id);
    return id;
  }
  bool Cancel(EventId id) override { return pending_.erase(id) > 0; }

  void ScheduleDelivery(SimTime when, NodeId receiver, VifIndex vif,
                        Ipv4Address link_src, Ipv4Address link_dst,
                        const PacketRef& payload) override {
    Schedule(when, [this, receiver, vif, link_src, link_dst, payload] {
      sim_.InjectDelivery(receiver, vif, link_src, link_dst, payload.bytes());
    });
  }

  void RunUntil(SimTime until) override {
    while (SkipCancelled() && queue_.top().when <= until) RunTop();
    clock_ = std::max(clock_, until);
  }
  void RunUntilIdle(std::size_t max_events) override {
    for (std::size_t n = 0; n < max_events && SkipCancelled(); ++n) RunTop();
  }

 private:
  struct Entry {
    SimTime when;
    EventId id;
    mutable EventFn fn;  // moved out just before the entry is popped

    // std::priority_queue is a max-heap: invert for earliest-first.
    bool operator<(const Entry& other) const {
      if (when != other.when) return when > other.when;
      return id > other.id;
    }
  };

  /// Drops cancelled entries off the top; false when nothing is pending.
  bool SkipCancelled() {
    while (!queue_.empty() && !pending_.contains(queue_.top().id)) {
      queue_.pop();
    }
    return !queue_.empty();
  }

  void RunTop() {
    EventFn fn = std::move(queue_.top().fn);
    clock_ = queue_.top().when;
    pending_.erase(queue_.top().id);
    queue_.pop();
    fn();
  }

  Simulator& sim_;
  SimTime clock_ = 0;
  EventId next_id_ = 1;  // 0 is kInvalidEventId
  std::priority_queue<Entry> queue_;
  std::unordered_set<EventId> pending_;
};

}  // namespace cbt::netsim
