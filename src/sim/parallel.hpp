// Conservative parallel discrete-event execution over spatial islands
// (DESIGN.md §4i).
//
// One simulated world is partitioned into islands, each owning a private
// sim::Scheduler plus an inter-island input queue managed by the caller.
// Virtual time is cut into fixed windows of `window` microseconds; window
// w covers [w·window, (w+1)·window). All cross-island effects are
// quantized to window boundaries by the caller (see radio::Interchange):
// input produced while executing window w takes effect *at* boundary
// (w+1)·window — the first boundary strictly after its cause
// (medium.cpp: b1 = (start/window + 1)·window) — so it is applied before
// window w+1 runs. That is a lookahead of one full window.
//
// Protocol (null-message-free conservative / BSP-with-skips):
//   * done[i] = highest window island i has fully executed (-1 initially).
//   * Window w runs as: apply(w·window) — drain and apply pending input
//     with effect time <= the boundary — then sched->run_until of the
//     window end. Input application happens *between* windows, outside
//     the scheduler, so the event loop itself needs no synchronization.
//     Only windows holding a local event or pending input ever run.
//   * Island i may run window w once every dependency j (an island that
//     can send it input) has done[j] >= w-1 — every input with effect
//     time <= w·window has then been posted — or once w <= G (below).
//   * Idle islands skip ahead without executing: when neither a local
//     event nor pending input falls in windows d+1..t, done jumps to
//     min(t, last_full, max(min_dep+1, G)). The min_dep+1 bound is the
//     neighbour rule: a dependency at done=d can still run window d+1,
//     whose input lands at (d+2)·window, beyond the skip.
//   * Global LBTS horizon G (lower bound on timestamp): the earliest
//     window any island can still execute. A lane computes it from a
//     consistent cut, seqlock-style. Each lane owns a counter that is odd
//     while it runs an island window (apply + run_until) and even
//     otherwise, and after every execution the lane publishes the
//     island's next local event time. The snapshot reads every lane
//     counter (bail if one is odd), then every island's published next
//     event and next_input() — its own islands included — with acquire
//     loads, then re-reads the counters (bail if one moved). If it holds,
//     no island was mid-window while the times were read, so they form
//     a consistent cut: G is the window of their minimum. Work is only
//     created by executing a window, no island executes a window without
//     work in it, and a window w >= G creates local events at >= w and
//     input at >= w+1. So no island ever executes a window before G
//     again, and no input lands before boundary (G+1)·window: windows up
//     to G hold no input that is not already posted. Skipping to G or
//     running any window w <= G is therefore safe whatever the
//     dependencies' counters say. Lanes take a snapshot at the start of
//     run_until and after any sweep in which a skip stopped at
//     max(min_dep+1, G) below the island's own next work.
//   * run_until's tail step (apply + run_until of the partial window
//     after the last full one, last_full+1) runs once the dependencies
//     reach last_full or G > last_full. It needs no odd section: all it
//     reads or creates lies at or beyond boundary (last_full+1)·window,
//     where every use of G stops.
//
// Empty windows are the only ones skipped and executed windows run the
// same code at any skip granularity, so results do not depend on the
// horizon. Island membership, window size, and the per-island input
// ordering are fixed by the world definition, never by the lane count.
// `lanes` only chooses how many threads execute the islands; lanes == 1
// runs the identical code path inline and is the bit-exact serial oracle
// the scenario self-checks diff against.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "runner/engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace iiot::sim {

/// One island as seen by the parallel engine. The callbacks are invoked
/// only from the lane that owns the island, never concurrently, except
/// next_input, which any lane may call for a horizon snapshot.
struct ParallelIsland {
  Scheduler* sched = nullptr;
  /// Applies every pending inter-island input with effect time <= the
  /// boundary, in the canonical input order.
  std::function<void(Time boundary)> apply;
  /// Earliest effect time of not-yet-applied input (kTimeNever if none).
  /// May be called while other lanes post concurrently; a late answer is
  /// safe (see the skip-ahead rule above). Must read with acquire
  /// ordering a value that posting and applying store with release
  /// ordering, as radio::Interchange::next_time does: the horizon
  /// snapshot relies on it.
  std::function<Time()> next_input;
  /// Indices of islands that can post input to this one (excluding self).
  std::vector<std::size_t> deps;
};

/// Engine work counters, summed over lanes and run_until calls. They
/// depend on lane timing, so they are diagnostics, never part of a
/// digest.
struct ParallelStats {
  std::uint64_t windows = 0;         // island windows executed
  std::uint64_t skip_steps = 0;      // idle skips (each one or more windows)
  std::uint64_t snapshots = 0;       // horizon snapshots tried
  std::uint64_t snapshots_held = 0;  // ... that read a consistent cut
};

class ParallelScheduler {
 public:
  /// `lanes` = number of executing threads (0 → hardware_jobs()), clamped
  /// to the island count. The island list and window are canonical: they
  /// define the simulation; lanes only defines who runs it.
  ParallelScheduler(Duration window, std::vector<ParallelIsland> islands,
                    unsigned lanes);

  ParallelScheduler(const ParallelScheduler&) = delete;
  ParallelScheduler& operator=(const ParallelScheduler&) = delete;

  /// Advances every island to exactly `deadline` (their schedulers end
  /// with now() == deadline, all events <= deadline executed, all input
  /// with effect time <= the last window boundary applied). Callable
  /// repeatedly with nondecreasing deadlines, like Scheduler::run_until.
  /// The first exception thrown by an island propagates (lowest lane
  /// wins); the world is unusable afterwards.
  void run_until(Time deadline);

  [[nodiscard]] std::size_t islands() const { return islands_.size(); }
  [[nodiscard]] unsigned lanes() const { return lanes_; }
  [[nodiscard]] Duration window() const { return window_; }
  /// Counters of every completed run_until call.
  [[nodiscard]] const ParallelStats& stats() const { return stats_; }

 private:
  /// Per-island shared state, one cache line each: every lane polls its
  /// dependencies' done counters in a spin loop. `next_event` is the
  /// island's next local event time, published by the owning lane.
  struct alignas(64) IslandSlot {
    std::atomic<std::int64_t> done{-1};
    std::atomic<Time> next_event{kTimeNever};
  };
  /// A lane's execution counter: odd while it runs an island window.
  struct alignas(64) LaneSeq {
    std::atomic<std::uint64_t> v{0};
  };
  /// Lane-private state; only the owning lane touches it during a run.
  struct alignas(64) LaneState {
    std::int64_t horizon = -1;  // G of the last snapshot that held
    bool capped = false;        // a skip stopped at the dependency bound
    ParallelStats stats;
  };

  void lane_run(std::size_t lane, std::int64_t last_full, Time deadline,
                bool partial);
  bool advance(std::size_t i, std::size_t lane, std::int64_t last_full,
               Time deadline, bool partial);
  void snapshot_horizon(std::size_t lane);

  Duration window_;
  std::vector<ParallelIsland> islands_;
  unsigned lanes_;
  std::vector<std::vector<std::size_t>> lane_islands_;
  std::unique_ptr<IslandSlot[]> slots_;
  std::unique_ptr<LaneSeq[]> seq_;
  std::vector<LaneState> lane_state_;
  ParallelStats stats_;
  std::vector<char> finished_;  // per run_until call; owning lane only
  std::atomic<bool> abort_{false};
  runner::Engine engine_;
};

}  // namespace iiot::sim
