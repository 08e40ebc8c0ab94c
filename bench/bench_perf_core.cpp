// Core-substrate performance benchmark (scheduler + radio medium).
//
// Unlike bench_e1..e12, which regenerate paper experiments on the virtual
// clock, this harness measures *wall-clock* throughput of the simulation
// substrate itself: every experiment's runtime is bounded by how many
// discrete events per second the scheduler can retire and how fast the
// medium can resolve transmissions. Two workloads:
//
//   1. Raw scheduler churn — schedule/cancel/fire patterns shaped like MAC
//      timer traffic (periodic timers, armed-then-cancelled ack timeouts).
//   2. A CSMA mesh of 50/200/500 nodes running RPL + periodic sensor
//      traffic for a fixed span of virtual time.
//
// Repetitions run on the runner engine (DESIGN.md §4e): each (rep,
// workload) pair owns an isolated world and a result slot, best-of-N is
// taken per workload, and the simulation counters must be bit-identical
// across repetitions — a free determinism gate on every perf run.
//
// Results are appended to BENCH_core.json (one JSON object per run, under
// "runs") so the perf trajectory is tracked across PRs:
//
//   ./bench_perf_core [label] [output.json] [--reps=N] [--jobs=N]
//                     [--compare=BASELINE.json] [--min-ratio=R]
//
// --reps=N       best-of-N per workload (default 1; CI uses 3)
// --jobs=N       shard repetitions across N workers (default 1 — timing
//                runs are cleanest serial; >1 trades noise for speed)
// --compare=F    perf-regression gate: read the newest run line of F and
//                exit 1 if any events/sec metric drops below
//                min-ratio × baseline (default 0.8, i.e. a >20% drop) or
//                any net*_transmissions/deliveries/collisions counter or
//                net200_allocs differs from the baseline's at all; exit 3
//                before running if F is missing or has no run line
// --min-ratio=R  override the compare threshold
//
// Pass a label like "seed" or "optimized"; default "current".
//
// This binary replaces the global operator new to count allocations per
// thread: the run line's net200_allocs is the number of allocations made
// while the timed 200-node span runs (the steady-state transmission path
// is meant to allocate nothing; see DESIGN.md §4b).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "runner/engine.hpp"
#include "sim/scheduler.hpp"

namespace {

// Allocations made by the calling thread. Per thread, so --jobs>1 workers
// running other workloads do not pollute a measured span.
thread_local std::uint64_t t_allocs = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++t_allocs;
  for (;;) {
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace iiot;
using namespace iiot::sim;  // NOLINT
using bench::now_seconds;

// ---------------------------------------------------------------- scheduler

struct ChurnResult {
  double events_per_sec = 0;  // executed events / wall second
  double ops_per_sec = 0;     // schedule+cancel+execute ops / wall second
};

// Timer-shaped churn: a rotating set of "ack timers" that are armed and
// then cancelled before firing (the CSMA hot pattern), on top of periodic
// timers that always fire. Exercises allocation, cancellation, and heap
// discipline.
ChurnResult scheduler_churn() {
  constexpr int kRounds = 60;
  constexpr int kEventsPerRound = 20'000;
  Scheduler s;
  std::uint64_t ops = 0;

  const double t0 = now_seconds();
  for (int round = 0; round < kRounds; ++round) {
    std::vector<EventHandle> cancelled;
    cancelled.reserve(kEventsPerRound / 2);
    volatile int sink = 0;
    for (int i = 0; i < kEventsPerRound; ++i) {
      auto h = s.schedule_after(static_cast<Duration>(1 + (i % 977)),
                                [&sink] { sink = sink + 1; });
      ++ops;
      if (i % 2 == 0) cancelled.push_back(h);  // armed-then-cancelled half
    }
    for (auto& h : cancelled) {
      h.cancel();
      ++ops;
    }
    s.run_all();
    ops += kEventsPerRound / 2;  // executed half
  }
  const double wall = now_seconds() - t0;

  ChurnResult r;
  r.events_per_sec = static_cast<double>(s.executed_events()) / wall;
  r.ops_per_sec = static_cast<double>(ops) / wall;
  return r;
}

// Nested periodic timers: the Trickle/LPL wakeup pattern where every
// firing re-arms. Measures steady-state per-firing cost (should be
// allocation-free after the SBO-callback rewrite).
double periodic_timer_events_per_sec() {
  constexpr int kTimers = 400;
  Scheduler s;
  std::vector<std::unique_ptr<PeriodicTimer>> timers;
  volatile int sink = 0;
  timers.reserve(kTimers);
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<PeriodicTimer>(
        s, static_cast<Duration>(50 + i % 97), [&sink] { sink = sink + 1; }));
    timers.back()->start(static_cast<Duration>(1 + i));
  }
  const double t0 = now_seconds();
  s.run_until(1'000'000);  // 1 s of virtual time
  const double wall = now_seconds() - t0;
  return static_cast<double>(s.executed_events()) / wall;
}

// ------------------------------------------------------------------- radio

struct NetResult {
  int nodes = 0;
  double events_per_sec = 0;
  double frames_per_sec = 0;  // medium transmissions / wall second
  double wall_sec = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  std::uint64_t allocs = 0;  // operator new calls during the timed span
};

NetResult csma_network(int n, std::uint64_t seed) {
  bench::CsmaGrid w(static_cast<std::size_t>(n), seed);
  const std::uint64_t ev0 = w.sched.executed_events();
  const std::uint64_t tx0 = w.medium.stats().transmissions;
  const std::uint64_t allocs0 = t_allocs;
  const double t0 = now_seconds();
  w.sched.run_until(bench::CsmaGrid::kEnd);
  const double wall = now_seconds() - t0;
  const std::uint64_t allocs = t_allocs - allocs0;

  const radio::MediumStats& ms = w.medium.stats();
  NetResult r;
  r.nodes = n;
  r.wall_sec = wall;
  r.events_per_sec =
      static_cast<double>(w.sched.executed_events() - ev0) / wall;
  r.frames_per_sec = static_cast<double>(ms.transmissions - tx0) / wall;
  r.transmissions = ms.transmissions;
  r.deliveries = ms.deliveries;
  r.collisions = ms.collisions;
  r.allocs = allocs;
  return r;
}

// ------------------------------------------------------------ measurement

constexpr int kNetSizes[] = {50, 200, 500};
constexpr std::size_t kWorkloads = 5;  // churn, periodic, net50/200/500

/// Slot for one (rep, workload) task; only the fields of that workload
/// are populated.
struct TaskResult {
  ChurnResult churn;
  double periodic = 0;
  NetResult net;
};

struct Best {
  ChurnResult churn;
  double periodic = 0;
  NetResult nets[3];
};

/// Runs `reps` repetitions of every workload on the engine (task index =
/// rep * kWorkloads + workload) and aggregates best-of across reps from
/// the slots. Fails (returns false) if any simulation counter differs
/// across repetitions — repetitions are identical worlds, so divergence
/// means nondeterminism leaked in.
bool measure(runner::Engine& eng, std::uint64_t reps, Best& best) {
  const std::size_t tasks = static_cast<std::size_t>(reps) * kWorkloads;
  std::vector<TaskResult> slots(tasks);
  eng.run(tasks, [&](std::size_t t) {
    const std::size_t w = t % kWorkloads;
    switch (w) {
      case 0: slots[t].churn = scheduler_churn(); break;
      case 1: slots[t].periodic = periodic_timer_events_per_sec(); break;
      default: slots[t].net = csma_network(kNetSizes[w - 2], 42); break;
    }
  });

  bool deterministic = true;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    const std::size_t base = static_cast<std::size_t>(rep) * kWorkloads;
    const TaskResult& c = slots[base + 0];
    if (c.churn.events_per_sec > best.churn.events_per_sec) {
      best.churn = c.churn;
    }
    best.periodic = std::max(best.periodic, slots[base + 1].periodic);
    for (int k = 0; k < 3; ++k) {
      const NetResult& r = slots[base + 2 + static_cast<std::size_t>(k)].net;
      const NetResult& r0 = slots[2 + static_cast<std::size_t>(k)].net;
      if (r.transmissions != r0.transmissions ||
          r.deliveries != r0.deliveries || r.collisions != r0.collisions ||
          r.allocs != r0.allocs) {
        std::printf(
            "FAIL: rep %llu of net%d diverged from rep 0 "
            "(%llu/%llu/%llu/%llu tx/rx/coll/allocs vs "
            "%llu/%llu/%llu/%llu)\n",
            static_cast<unsigned long long>(rep), r.nodes,
            static_cast<unsigned long long>(r.transmissions),
            static_cast<unsigned long long>(r.deliveries),
            static_cast<unsigned long long>(r.collisions),
            static_cast<unsigned long long>(r.allocs),
            static_cast<unsigned long long>(r0.transmissions),
            static_cast<unsigned long long>(r0.deliveries),
            static_cast<unsigned long long>(r0.collisions),
            static_cast<unsigned long long>(r0.allocs));
        deterministic = false;
      }
      if (r.events_per_sec > best.nets[k].events_per_sec) best.nets[k] = r;
    }
  }
  return deterministic;
}

// ---------------------------------------------------------------- compare

/// Gated by --compare: every events/sec metric.
constexpr const char* kGated[] = {
    "churn_events_per_sec",  "churn_ops_per_sec",
    "periodic_events_per_sec", "net50_events_per_sec",
    "net200_events_per_sec", "net500_events_per_sec",
};

/// Gated exactly by --compare: the mesh counters are a behavioural
/// fingerprint of the radio/MAC/RPL stack, and net200_allocs pins the
/// allocation budget of the steady-state mesh. CI compares on gcc only,
/// since libm and standard-library differences across toolchains may
/// legitimately move them.
constexpr const char* kGatedCounters[] = {
    "net50_transmissions",  "net50_deliveries",  "net50_collisions",
    "net200_transmissions", "net200_deliveries", "net200_collisions",
    "net500_transmissions", "net500_deliveries", "net500_collisions",
    "net200_allocs",
};

}  // namespace

int main(int argc, char** argv) {
  std::string label = "current";
  std::string out_path = "BENCH_core.json";
  std::string compare_path;
  std::uint64_t reps = 1;
  std::uint64_t jobs = 1;
  double min_ratio = 0.8;
  if (!bench::parse_args(argc, argv, label, out_path,
                         {{"--reps", &reps},
                          {"--jobs", &jobs},
                          {"--compare", &compare_path},
                          {"--min-ratio", &min_ratio}})) {
    return 2;
  }
  if (reps == 0) reps = 1;
  std::string base_line;
  if (!compare_path.empty()) {
    base_line = bench::compare_baseline(compare_path, "bench_perf_core");
    if (base_line.empty()) return 3;
  }

  bench::print_header(
      "PERF: discrete-event core wall-clock throughput",
      "scheduler + medium must sustain production-scale event rates");

  runner::Engine eng(static_cast<unsigned>(jobs));
  Best best;
  const bool deterministic = measure(eng, reps, best);

  std::printf("best of %llu rep(s), jobs=%u\n",
              static_cast<unsigned long long>(reps), eng.jobs());
  std::printf("scheduler churn:     %12.0f events/s  %12.0f ops/s\n",
              best.churn.events_per_sec, best.churn.ops_per_sec);
  std::printf("periodic timers:     %12.0f events/s\n", best.periodic);
  for (const NetResult& r : best.nets) {
    std::printf(
        "csma %4d nodes:     %12.0f events/s  %12.0f frames/s  "
        "(%.2fs wall, %llu tx, %llu rx, %llu coll, %llu allocs)\n",
        r.nodes, r.events_per_sec, r.frames_per_sec, r.wall_sec,
        static_cast<unsigned long long>(r.transmissions),
        static_cast<unsigned long long>(r.deliveries),
        static_cast<unsigned long long>(r.collisions),
        static_cast<unsigned long long>(r.allocs));
  }

  std::ostringstream run;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"churn_events_per_sec\": %.0f, \"churn_ops_per_sec\": %.0f, "
                "\"periodic_events_per_sec\": %.0f",
                best.churn.events_per_sec, best.churn.ops_per_sec,
                best.periodic);
  run << buf;
  for (const NetResult& r : best.nets) {
    std::snprintf(buf, sizeof buf,
                  ", \"net%d_events_per_sec\": %.0f, "
                  "\"net%d_frames_per_sec\": %.0f, "
                  "\"net%d_transmissions\": %llu, "
                  "\"net%d_deliveries\": %llu, "
                  "\"net%d_collisions\": %llu",
                  r.nodes, r.events_per_sec, r.nodes, r.frames_per_sec,
                  r.nodes, static_cast<unsigned long long>(r.transmissions),
                  r.nodes, static_cast<unsigned long long>(r.deliveries),
                  r.nodes, static_cast<unsigned long long>(r.collisions));
    run << buf;
  }
  std::snprintf(buf, sizeof buf,
                ", \"net200_allocs\": %llu, \"reps\": %llu, \"jobs\": %u",
                static_cast<unsigned long long>(best.nets[1].allocs),  // net200
                static_cast<unsigned long long>(reps), eng.jobs());
  run << buf;
  // Per-layer metrics snapshot from an instrumented (untimed) replay of
  // the 50-node workload: says which layer a perf regression lives in.
  bench::CsmaGrid replay(50, 42, bench::ObsMode::kMetrics);
  replay.sched.run_until(bench::CsmaGrid::kEnd);
  run << ", \"metrics\": " << replay.ctx->metrics().snapshot_json();
  const std::string line =
      bench::record_run(out_path, "bench_perf_core", label, run.str());

  bool gate_ok = true;
  if (!base_line.empty()) {
    gate_ok = bench::ratio_gate(base_line, line, kGated, min_ratio);
    for (const char* key : kGatedCounters) {
      gate_ok = bench::digest_gate(base_line, line, key) && gate_ok;
    }
  }
  if (!deterministic) {
    std::printf("determinism gate: FAILED (counters diverged across reps)\n");
  }
  return deterministic && gate_ok ? 0 : 1;
}
