#include "sim/parallel.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <thread>

namespace iiot::sim {

namespace {
constexpr std::int64_t kNoBound = std::numeric_limits<std::int64_t>::max();
}  // namespace

ParallelScheduler::ParallelScheduler(Duration window,
                                     std::vector<ParallelIsland> islands,
                                     unsigned lanes)
    : window_(window),
      islands_(std::move(islands)),
      lanes_(std::min<unsigned>(
          std::max(1u, lanes == 0 ? runner::hardware_jobs() : lanes),
          static_cast<unsigned>(std::max<std::size_t>(1, islands_.size())))),
      engine_(lanes_) {
  if (window_ == 0) throw std::invalid_argument("parallel: window must be > 0");
  const std::size_t n = islands_.size();
  slots_ = std::make_unique<IslandSlot[]>(n);
  seq_ = std::make_unique<LaneSeq[]>(lanes_);
  lane_state_.resize(lanes_);
  finished_.assign(n, 0);
  // Contiguous blocks: spatially neighboring islands land on the same
  // lane, so most dependency polls hit counters the lane itself owns.
  lane_islands_.resize(lanes_);
  for (std::size_t i = 0; i < n; ++i) {
    lane_islands_[i * lanes_ / std::max<std::size_t>(1, n)].push_back(i);
  }
}

void ParallelScheduler::run_until(Time deadline) {
  if (islands_.empty()) return;
  // Full windows 0..last_full fit entirely inside [0, deadline]; whatever
  // remains of window last_full+1 is the partial tail every island runs
  // in its finish step.
  const std::int64_t last_full =
      static_cast<std::int64_t>((deadline + 1) / window_) - 1;
  const bool partial = (deadline + 1) % window_ != 0;
  std::fill(finished_.begin(), finished_.end(), 0);
  // Events scheduled since the last call must be visible to the first
  // horizon snapshots.
  for (std::size_t i = 0; i < islands_.size(); ++i) {
    slots_[i].next_event.store(islands_[i].sched->next_event_time(),
                               std::memory_order_relaxed);
  }
  for (LaneState& ls : lane_state_) {
    ls.horizon = -1;
    ls.capped = true;  // first sweep starts from a snapshot
  }
  abort_.store(false, std::memory_order_relaxed);
  engine_.run(lanes_, [&](std::size_t lane) {
    lane_run(lane, last_full, deadline, partial);
  });
  for (LaneState& ls : lane_state_) {
    stats_.windows += ls.stats.windows;
    stats_.skip_steps += ls.stats.skip_steps;
    stats_.snapshots += ls.stats.snapshots;
    stats_.snapshots_held += ls.stats.snapshots_held;
    ls.stats = {};
  }
}

void ParallelScheduler::lane_run(std::size_t lane, std::int64_t last_full,
                                 Time deadline, bool partial) {
  const std::vector<std::size_t>& mine = lane_islands_[lane];
  LaneState& ls = lane_state_[lane];
  try {
    for (;;) {
      if (abort_.load(std::memory_order_relaxed)) return;
      if (ls.capped) {
        ls.capped = false;
        snapshot_horizon(lane);
      }
      bool progressed = false;
      bool all = true;
      for (std::size_t i : mine) {
        progressed |= advance(i, lane, last_full, deadline, partial);
        all &= finished_[i] != 0;
      }
      if (all) return;
      if (!progressed) std::this_thread::yield();
    }
  } catch (...) {
    // Unblock the other lanes (they spin on done counters we will never
    // advance again); the engine rethrows the lowest-lane exception.
    abort_.store(true, std::memory_order_relaxed);
    throw;
  }
}

void ParallelScheduler::snapshot_horizon(std::size_t lane) {
  LaneState& ls = lane_state_[lane];
  ++ls.stats.snapshots;
  // Counters only grow, so an unchanged sum means no counter moved.
  std::uint64_t sum = 0;
  for (unsigned l = 0; l < lanes_; ++l) {
    const std::uint64_t s = seq_[l].v.load(std::memory_order_acquire);
    if ((s & 1) != 0) return;
    sum += s;
  }
  Time t = kTimeNever;
  for (std::size_t i = 0; i < islands_.size(); ++i) {
    // Acquire loads of values stored with release inside the writer's odd
    // section: any value from a section that began after the first pass
    // makes the second pass below see that lane's counter move. They do
    // the job of a seqlock reader's acquire fence, which TSan cannot see.
    t = std::min(t, slots_[i].next_event.load(std::memory_order_acquire));
    t = std::min(t, islands_[i].next_input());
  }
  for (unsigned l = 0; l < lanes_; ++l) {
    sum -= seq_[l].v.load(std::memory_order_relaxed);
  }
  if (sum != 0) return;
  ++ls.stats.snapshots_held;
  const std::int64_t g =
      t == kTimeNever ? kNoBound : static_cast<std::int64_t>(t / window_);
  ls.horizon = std::max(ls.horizon, g);
}

bool ParallelScheduler::advance(std::size_t i, std::size_t lane,
                                std::int64_t last_full, Time deadline,
                                bool partial) {
  if (finished_[i] != 0) return false;
  ParallelIsland& is = islands_[i];
  IslandSlot& slot = slots_[i];
  LaneState& ls = lane_state_[lane];
  std::atomic<std::uint64_t>& seq = seq_[lane].v;
  std::int64_t d = slot.done.load(std::memory_order_relaxed);
  bool prog = false;

  auto min_dep = [&] {
    std::int64_t m = kNoBound;
    for (std::size_t j : is.deps) {
      m = std::min(m, slots_[j].done.load(std::memory_order_acquire));
    }
    return m;
  };

  std::int64_t dep = min_dep();
  while (d < last_full) {
    const std::int64_t w = d + 1;
    if (dep < w - 1 && w > ls.horizon) return prog;  // window w not yet safe
    // Skip-ahead: if neither a local event nor pending input falls inside
    // the next windows, jump the counter without running the scheduler.
    const Time next_work =
        std::min(is.sched->next_event_time(), is.next_input());
    std::int64_t target = last_full;
    if (next_work != kTimeNever) {
      target = std::min(
          target, static_cast<std::int64_t>(next_work / window_) - 1);
    }
    if (dep != kNoBound) {
      const std::int64_t bound = std::max(dep + 1, ls.horizon);
      if (bound < target) {
        target = bound;
        ls.capped = true;
      }
    }
    if (target > d) {
      d = target;
      ++ls.stats.skip_steps;
    } else {
      // An odd section of the lane counter; the release store of the
      // next event orders the odd store before it for snapshot readers.
      const std::uint64_t s = seq.load(std::memory_order_relaxed);
      seq.store(s + 1, std::memory_order_relaxed);
      is.apply(static_cast<Time>(w) * window_);
      is.sched->run_until(static_cast<Time>(w + 1) * window_ - 1);
      slot.next_event.store(is.sched->next_event_time(),
                            std::memory_order_release);
      seq.store(s + 2, std::memory_order_release);
      ++ls.stats.windows;
      d = w;
    }
    slot.done.store(d, std::memory_order_release);
    prog = true;
    dep = min_dep();
  }

  // Finish step: the partial tail of the final window, plus clamping the
  // island clock to the exact deadline (mirrors Scheduler::run_until). It
  // is window last_full+1, so it may run under the same rule. It needs no
  // odd section: everything it reads or creates lies at or beyond
  // boundary (last_full+1)·window, where every use of the horizon stops.
  if (d >= last_full && (dep >= last_full || ls.horizon > last_full)) {
    if (partial) {
      is.apply(static_cast<Time>(last_full + 1) * window_);
    }
    is.sched->run_until(deadline);
    finished_[i] = 1;
    prog = true;
  }
  return prog;
}

}  // namespace iiot::sim
