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
  heap_push(at - now_ < kNearHorizon ? near_ : far_, HeapEntry{at, seq, slot});
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
  const std::size_t entries = near_.size() + far_.size();
  if (entries >= kCompactMinHeap && stale_entries_ * 2 > entries) compact();
}

bool Scheduler::step() {
  while (std::vector<HeapEntry>* h = front_heap()) {
    const HeapEntry e = h->front();
    heap_pop(*h);
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
  while (std::vector<HeapEntry>* h = front_heap()) {
    const HeapEntry& top = h->front();
    if (stale(top)) {
      --stale_entries_;
      heap_pop(*h);
      continue;
    }
    if (top.at > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

Time Scheduler::next_event_time_skim() {
  while (std::vector<HeapEntry>* h = front_heap()) {
    if (!stale(h->front())) return h->front().at;
    --stale_entries_;
    heap_pop(*h);
  }
  return kTimeNever;
}

void Scheduler::run_all() {
  while (step()) {
  }
}

// ------------------------------------------------------- 4-ary min-heap

// Both sifts move a hole instead of swapping: the displaced entry is held
// in registers and written once, where the hole stops.

void Scheduler::heap_push(std::vector<HeapEntry>& heap, HeapEntry e) {
  heap.push_back(e);
  HeapEntry* const h = heap.data();
  std::size_t i = heap.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = e;
}

void Scheduler::heap_pop(std::vector<HeapEntry>& heap) {
  heap.front() = heap.back();
  heap.pop_back();
  if (!heap.empty()) sift_down(heap, 0);
}

void Scheduler::sift_down(std::vector<HeapEntry>& heap, std::size_t i) {
  const std::size_t n = heap.size();
  HeapEntry* const h = heap.data();
  const HeapEntry e = h[i];
  for (std::size_t c = 4 * i + 1; c < n; c = 4 * i + 1) {
    std::size_t best = c;
    if (c + 3 < n) {
      // Full family: a two-round tournament. The first round loads all
      // four keys and keeps each pair's winner in registers, which
      // compiles to conditional moves rather than branches on
      // unpredictable comparisons; the final round compares the two
      // winners without reloading them.
      const HeapEntry& a = h[c];
      const HeapEntry& b = h[c + 1];
      const HeapEntry& x = h[c + 2];
      const HeapEntry& y = h[c + 3];
      const bool b_wins = before(b, a);
      const bool y_wins = before(y, x);
      const Time lo_at = b_wins ? b.at : a.at;
      const std::uint64_t lo_seq = b_wins ? b.seq : a.seq;
      const Time hi_at = y_wins ? y.at : x.at;
      const std::uint64_t hi_seq = y_wins ? y.seq : x.seq;
      const bool hi_wins =
          (hi_at < lo_at) | ((hi_at == lo_at) & (hi_seq < lo_seq));
      best = hi_wins ? c + 2 + y_wins : c + b_wins;
    } else {
      // The last parent may have only 1–3 children.
      for (std::size_t k = c + 1; k < n; ++k) {
        if (before(h[k], h[best])) best = k;
      }
    }
    if (!before(h[best], e)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = e;
}

void Scheduler::compact() {
  for (std::vector<HeapEntry>* heap : {&near_, &far_}) {
    std::erase_if(*heap, [this](const HeapEntry& e) { return stale(e); });
    // Floyd heap construction; (at, seq) is a total order, so the result
    // is independent of the pre-compaction layout — determinism is
    // preserved.
    if (heap->size() > 1) {
      for (std::size_t i = (heap->size() - 2) / 4 + 1; i-- > 0;) {
        sift_down(*heap, i);
      }
    }
  }
  stale_entries_ = 0;
}

}  // namespace iiot::sim
