// Deterministic single-threaded discrete-event scheduler.
//
// This is the substrate substituting for real hardware testbeds (DESIGN.md
// §1): every protocol stack in the repository runs as callbacks on this
// scheduler's virtual clock. Determinism rules:
//   * ties in firing time are broken by insertion order (monotone sequence),
//   * no wall-clock or OS entropy is consulted anywhere.
//
// Hot-path design (see DESIGN.md "Performance architecture"):
//   * event closures live in a free-listed slot pool; a handle is a
//     {slot index, sequence} pair, so cancel() is O(1) and allocation-free,
//   * closures use the small-buffer-optimized sim::Callback, so periodic
//     MAC/Trickle timers never touch the allocator in steady state,
//   * ordering is two 4-ary min-heaps over plain {time, seq, slot} PODs
//     with lazy deletion: entries due within kNearHorizon of now() at
//     push go to the near heap, the rest to the far heap, and the next
//     event is the earlier of the two fronts. Cancelled entries are
//     skipped at pop and compacted away when they outnumber live ones.
//
// Lifetime: an EventHandle must not be used after its Scheduler is
// destroyed (schedulers outlive the protocol objects holding handles
// everywhere in this codebase).
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace iiot::obs {
class Context;
}

namespace iiot::sim {

class Scheduler;

/// Handle to a scheduled event; allows cancellation. Default-constructed
/// handles are inert. Copyable; all copies refer to the same event.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Idempotent, O(1), no
  /// allocation. Stale handles (event fired, or slot recycled for a newer
  /// event) are no-ops.
  inline void cancel();

  /// True if the event is still pending (scheduled, not fired, not
  /// cancelled).
  [[nodiscard]] inline bool pending() const;

 private:
  friend class Scheduler;
  EventHandle(Scheduler* sched, std::uint32_t slot, std::uint64_t seq)
      : sched_(sched), slot_(slot), seq_(seq) {}

  Scheduler* sched_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedules fn at absolute time `at` (clamped to now()).
  EventHandle schedule_at(Time at, Callback fn);

  /// Schedules fn after the given delay.
  EventHandle schedule_after(Duration delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Runs events until the queue drains or the clock passes `deadline`.
  /// Events scheduled exactly at the deadline still run.
  void run_until(Time deadline);

  /// Runs events until the queue drains entirely.
  void run_all();

  /// Runs a single event; returns false if the queue is empty.
  bool step();

  /// Number of live (scheduled, not fired, not cancelled) events.
  [[nodiscard]] std::size_t pending_events() const { return live_; }

  /// Firing time of the earliest live event, or kTimeNever when the queue
  /// is empty. Skims cancelled entries off the heap front as a side
  /// effect (const-correct lazily: mutates only bookkeeping). Inline for
  /// the common case the PDES idle skip polls: an empty heap or a live
  /// front entry.
  [[nodiscard]] Time next_event_time() {
    const std::vector<HeapEntry>* h = front_heap();
    if (h == nullptr) return kTimeNever;
    if (!stale(h->front())) return h->front().at;
    return next_event_time_skim();
  }

  /// Total events executed since construction (for perf accounting).
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Observability context for this world, or nullptr when off. The
  /// scheduler only carries the pointer (every layer already holds its
  /// scheduler, so this is the one plumbing point); obs::Context installs
  /// and removes itself.
  [[nodiscard]] obs::Context* observability() const { return obs_; }
  void set_observability(obs::Context* c) { obs_ = c; }

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;

  /// Near/far split point. MAC and radio events (airtime ends, backoffs,
  /// ack timeouts) fall due within milliseconds and are popped
  /// constantly; protocol timers (Trickle, DAO, sensing periods) sit
  /// seconds out and are most of what is pending. Keeping the latter in
  /// their own heap keeps the heap that is popped small and shallow.
  /// Only speed depends on this value: both heaps share the (at, seq)
  /// order and the earlier front always fires first.
  static constexpr Duration kNearHorizon = 100'000;  // 100 ms

  /// Closure storage for one scheduled event. `seq` identifies the event
  /// currently occupying the slot; handles carrying an older seq are
  /// stale and cannot touch the slot's new tenant.
  struct Slot {
    Callback fn;
    std::uint64_t seq = 0;
    std::uint32_t next_free = kNilSlot;
    bool armed = false;
  };

  /// Heap entries are plain PODs; the fat closure never moves with the
  /// heap. Total order (at, seq) makes tie-break-by-insertion explicit.
  struct HeapEntry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Evaluated without short-circuit branches so the sift loops can pick
  /// children with conditional moves (no __int128: src/ is -Wpedantic).
  [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b) {
    return (a.at < b.at) | ((a.at == b.at) & (a.seq < b.seq));
  }

  [[nodiscard]] bool stale(const HeapEntry& e) const {
    const Slot& s = slots_[e.slot];
    return !s.armed || s.seq != e.seq;
  }

  std::uint32_t alloc_slot();
  void release_slot(std::uint32_t slot);

  // O(1) cancellation backing EventHandle::cancel/pending.
  void cancel(std::uint32_t slot, std::uint64_t seq);
  [[nodiscard]] bool is_pending(std::uint32_t slot, std::uint64_t seq) const {
    if (slot >= slots_.size()) return false;
    const Slot& s = slots_[slot];
    return s.armed && s.seq == seq;
  }

  /// The heap whose front is the earliest entry (stale or not), or
  /// nullptr when both are empty.
  [[nodiscard]] std::vector<HeapEntry>* front_heap() {
    if (far_.empty()) return near_.empty() ? nullptr : &near_;
    if (near_.empty() || before(far_.front(), near_.front())) return &far_;
    return &near_;
  }

  // 4-ary min-heap primitives: the children of entry i are 4i+1 .. 4i+4.
  static void heap_push(std::vector<HeapEntry>& heap, HeapEntry e);
  static void heap_pop(std::vector<HeapEntry>& heap);
  static void sift_down(std::vector<HeapEntry>& heap, std::size_t i);
  void compact();
  /// next_event_time() past a stale front entry: pops cancelled entries.
  Time next_event_time_skim();

  Time now_ = 0;
  obs::Context* obs_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;          // armed events
  std::size_t stale_entries_ = 0; // cancelled entries still in a heap
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::vector<HeapEntry> near_;  // due within kNearHorizon at push
  std::vector<HeapEntry> far_;   // everything later
};

inline void EventHandle::cancel() {
  if (sched_ != nullptr) sched_->cancel(slot_, seq_);
}

inline bool EventHandle::pending() const {
  return sched_ != nullptr && sched_->is_pending(slot_, seq_);
}

/// Repeating timer built on the scheduler; survives rescheduling and
/// cancels cleanly on destruction (RAII).
class PeriodicTimer {
 public:
  PeriodicTimer(Scheduler& sched, Duration period, Callback fn)
      : sched_(sched), period_(period), fn_(std::move(fn)) {}
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Starts (or restarts) firing every period, first firing after `phase`.
  void start(Duration phase) {
    stop();
    running_ = true;
    arm(phase);
  }
  void start() { start(period_); }

  void stop() {
    running_ = false;
    handle_.cancel();
  }

  [[nodiscard]] bool running() const { return running_; }
  void set_period(Duration period) { period_ = period; }
  [[nodiscard]] Duration period() const { return period_; }

 private:
  void arm(Duration delay) {
    handle_ = sched_.schedule_after(delay, [this] {
      if (!running_) return;
      arm(period_);
      fn_();
    });
  }

  Scheduler& sched_;
  Duration period_;
  Callback fn_;
  EventHandle handle_;
  bool running_ = false;
};

}  // namespace iiot::sim
