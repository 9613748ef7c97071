// Discrete-event scheduler core: hierarchical timer wheel + overflow heap.
//
// Events are closures ordered by (time, insertion sequence); the sequence
// tie-break makes simultaneous events run in schedule order, which keeps
// every run bit-for-bit deterministic.
//
// Engine design
// -------------
// Time is bucketed into ticks of 2^kTickShift microseconds. A hierarchy
// of kLevels wheels with 64 slots each covers the near future: an event
// due `d` ticks ahead lives at the lowest level whose span contains it
// (level k spans 64^(k+1) ticks), in the slot addressed by bits
// [6k, 6k+6) of its absolute tick. Schedule and cancel are O(1): events
// live in a slab with an intrusive doubly-linked list per slot, and the
// EventId encodes (slab index, generation) so Cancel unlinks and frees
// the slot — and destroys the closure — immediately. No tombstones
// accumulate (the former lazy-cancel heap kept dead entries and their
// captures alive until popped). Events beyond the top level's span go to
// an *indexed* binary min-heap (heap position stored in the slab entry,
// so cancellation is a true O(log n) removal).
//
// Execution drains one tick at a time: the earliest occupied slot is
// found with per-level occupancy bitmaps (O(1) per level), higher-level
// slots cascade down as the current tick advances past their span, and
// the events of the due tick are sorted by (time, sequence) before
// running — restoring the exact global order a single heap would give.
//
// The differential oracle is a test-only reference scheduler
// (tests/netsim/reference_scheduler.h): a priority_queue ordered by
// (time, insertion id), installed through Simulator::InstallShardBackend.
// The engine differential tests replay queue-level traces and whole
// simulations on both and require identical results.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/thread_guard.h"
#include "common/types.h"
#include "netsim/event_fn.h"

namespace cbt::netsim {

/// Handle for cancelling a scheduled event (e.g. a protocol timer that was
/// answered before it fired). Opaque; 0 is never a valid handle.
using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `when`; returns a cancellation handle.
  EventId ScheduleAt(SimTime when, EventFn fn);

  /// Cancels a pending event; returns false if it already ran/was
  /// cancelled. Cancellation reclaims the slot and destroys the closure
  /// eagerly.
  bool Cancel(EventId id);

  /// True if no runnable (non-cancelled) events remain.
  bool Empty() const { return live_ == 0; }

  std::size_t size() const { return live_; }

  /// Time of the earliest pending event; only valid when !Empty().
  SimTime NextTime();

  /// Pops and runs the earliest event, advancing `clock` to its time.
  /// Returns false if the queue was empty.
  bool RunNext(SimTime& clock);

  // --- Accounting (memory-bound regression tests & benches) --------------

  /// Slots ever allocated in the event slab (bounds resident memory;
  /// reused across schedule/cancel cycles).
  std::size_t slot_capacity() const { return events_.size(); }

  /// Events parked in the far-future overflow heap.
  std::size_t overflow_heap_size() const { return heap_.size(); }

 private:
  static constexpr int kTickShift = 10;  // 1024 us per tick
  static constexpr int kLevelBits = 6;   // 64 slots per level
  static constexpr int kSlots = 1 << kLevelBits;
  static constexpr int kLevels = 4;      // horizon 64^4 ticks (~4.8 hours)
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  enum State : std::uint8_t { kFree, kWheel, kHeap, kDue };

  struct Event {
    SimTime when = 0;
    std::uint64_t seq = 0;
    EventFn fn;
    std::uint32_t gen = 0;
    std::uint32_t next = kNil;  // slot list link / free list link
    std::uint32_t prev = kNil;
    std::uint32_t heap_pos = kNil;
    std::uint8_t state = kFree;
    std::uint8_t level = 0;
    std::uint8_t slot = 0;
  };

  struct Level {
    std::array<std::uint32_t, kSlots> head;
    std::uint64_t occupancy = 0;
  };

  struct DueEntry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t index;
  };

  static std::int64_t TickOf(SimTime when) { return when >> kTickShift; }

  std::uint32_t AllocSlot();
  void FreeSlot(std::uint32_t index);
  void InsertIntoWheel(std::uint32_t index);
  void UnlinkFromSlot(std::uint32_t index);
  void InsertDueSorted(std::uint32_t index);
  void HeapPush(std::uint32_t index);
  void HeapRemove(std::uint32_t pos);
  void HeapSiftUp(std::uint32_t pos);
  void HeapSiftDown(std::uint32_t pos);
  bool HeapLess(std::uint32_t a, std::uint32_t b) const;

  /// Moves the contents of (level, slot) plus all overflow-heap events of
  /// tick `tick` into due_, sorted by (when, seq).
  void CollectTick(std::int64_t tick, int level, int slot);

  /// Ensures due_[due_pos_] is a live event, cascading/refilling as
  /// needed. Returns false when the queue is empty.
  bool EnsureDueFront();
  void RefillDue();

  /// Slab links and generation counters are non-atomic: one queue
  /// belongs to one replica. Debug builds abort on cross-thread use
  /// (checked at the public entry points: ScheduleAt/Cancel/RunNext).
  ThreadOwnershipGuard guard_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;

  std::vector<Event> events_;
  std::uint32_t free_head_ = kNil;
  std::array<Level, kLevels> levels_;
  std::vector<std::uint32_t> heap_;  // slab indices, indexed min-heap
  std::int64_t cur_tick_ = 0;
  std::vector<DueEntry> due_;
  std::size_t due_pos_ = 0;
};

}  // namespace cbt::netsim
