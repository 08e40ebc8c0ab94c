#include "sim/scheduler.hpp"

#include <algorithm>
#include <utility>

namespace iiot::sim {

namespace {
// Lazy-deletion policy: compacting is O(n), so only bother once the heap
// is non-trivial and cancelled entries outnumber live ones.
constexpr std::size_t kCompactMinHeap = 64;
}  // namespace

std::uint32_t Scheduler::alloc_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t idx = free_head_;
    free_head_ = slots_[idx].next_free;
    return idx;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.armed = false;
  s.next_free = free_head_;
  free_head_ = slot;
}

EventHandle Scheduler::schedule_at(Time at, Callback fn) {
  if (at < now_) at = now_;
  const std::uint32_t slot = alloc_slot();
  const std::uint64_t seq = next_seq_++;
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.seq = seq;
  s.armed = true;
  heap_push(HeapEntry{at, seq, slot});
  ++live_;
  return EventHandle{this, slot, seq};
}

void Scheduler::cancel(std::uint32_t slot, std::uint64_t seq) {
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (!s.armed || s.seq != seq) return;  // already fired / recycled
  release_slot(slot);
  --live_;
  ++stale_entries_;
  if (heap_.size() >= kCompactMinHeap && stale_entries_ * 2 > heap_.size()) {
    compact();
  }
}

bool Scheduler::step() {
  while (!heap_.empty()) {
    const HeapEntry e = heap_.front();
    heap_pop();
    if (stale(e)) {
      --stale_entries_;
      continue;
    }
    now_ = e.at;
    ++executed_;
    --live_;
    // Move the closure out before releasing the slot so the callback can
    // freely reschedule (possibly into this very slot).
    Callback fn = std::move(slots_[e.slot].fn);
    release_slot(e.slot);
    fn();
    return true;
  }
  return false;
}

void Scheduler::run_until(Time deadline) {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (stale(top)) {
      --stale_entries_;
      heap_pop();
      continue;
    }
    if (top.at > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

Time Scheduler::next_event_time_skim() {
  while (!heap_.empty()) {
    if (!stale(heap_.front())) return heap_.front().at;
    --stale_entries_;
    heap_pop();
  }
  return kTimeNever;
}

void Scheduler::run_all() {
  while (step()) {
  }
}

// ------------------------------------------------------- 4-ary min-heap

void Scheduler::heap_push(HeapEntry e) {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Scheduler::heap_pop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Scheduler::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) return;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], heap_[i])) return;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void Scheduler::compact() {
  std::erase_if(heap_, [this](const HeapEntry& e) { return stale(e); });
  stale_entries_ = 0;
  // Floyd heap construction; (at, seq) is a total order, so the result is
  // independent of the pre-compaction layout — determinism is preserved.
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
      sift_down(i);
    }
  }
}

}  // namespace iiot::sim
