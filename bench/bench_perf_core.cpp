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
//                min-ratio × baseline (default 0.8, i.e. a >20% drop);
//                exit 3 before running if F is missing or has no run line
// --min-ratio=R  override the compare threshold
//
// Pass a label like "seed" or "optimized"; default "current".
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/network.hpp"
#include "radio/medium.hpp"
#include "runner/engine.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace iiot;
using namespace iiot::sim;  // NOLINT

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

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
};

NetResult csma_network(int n, std::uint64_t seed,
                       std::string* metrics_json = nullptr) {
  Scheduler sched;
  // Optional instrumented mode: installs the metrics registry so the run
  // line can embed a per-layer snapshot. The timed sweep below never uses
  // it — those numbers stay comparable with pre-observability baselines.
  std::unique_ptr<obs::Context> obsctx;
  if (metrics_json != nullptr) obsctx = std::make_unique<obs::Context>(sched);
  radio::Medium medium(sched, bench::default_radio(), seed);
  core::MeshNetwork mesh(sched, medium, Rng(seed),
                         bench::node_config(core::MacKind::kCsma));
  mesh.build_grid(static_cast<std::size_t>(n), 20.0);
  mesh.start();

  // Let the DODAG form off the clock we measure.
  sched.run_until(20_s);

  // Periodic sensor traffic: every node reports every 2 s, staggered.
  const Duration measured = 30_s;
  for (std::size_t i = 1; i < mesh.size(); ++i) {
    auto& node = mesh.node(i);
    const Duration phase = static_cast<Duration>(i) * 7'919 % 2'000'000;
    for (Duration t = phase; t < measured; t += 2_s) {
      sched.schedule_at(20_s + t,
                        [&node] { node.routing->send_up(to_buffer("r")); });
    }
  }

  const std::uint64_t ev0 = sched.executed_events();
  const std::uint64_t tx0 = medium.stats().transmissions;
  const double t0 = now_seconds();
  sched.run_until(20_s + measured);
  const double wall = now_seconds() - t0;

  NetResult r;
  r.nodes = n;
  r.wall_sec = wall;
  r.events_per_sec =
      static_cast<double>(sched.executed_events() - ev0) / wall;
  r.frames_per_sec =
      static_cast<double>(medium.stats().transmissions - tx0) / wall;
  r.transmissions = medium.stats().transmissions;
  r.deliveries = medium.stats().deliveries;
  r.collisions = medium.stats().collisions;
  if (metrics_json != nullptr) *metrics_json = bench::metrics_snapshot_json(sched);
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
          r.deliveries != r0.deliveries || r.collisions != r0.collisions) {
        std::printf(
            "FAIL: rep %llu of net%d diverged from rep 0 "
            "(%llu/%llu/%llu tx/rx/coll vs %llu/%llu/%llu)\n",
            static_cast<unsigned long long>(rep), r.nodes,
            static_cast<unsigned long long>(r.transmissions),
            static_cast<unsigned long long>(r.deliveries),
            static_cast<unsigned long long>(r.collisions),
            static_cast<unsigned long long>(r0.transmissions),
            static_cast<unsigned long long>(r0.deliveries),
            static_cast<unsigned long long>(r0.collisions));
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

/// Counters are reported, not gated: they may legitimately drift across
/// compiler/libm versions (within-run determinism is gated by measure()).
void note_counter_drift(const std::string& base_line,
                        const std::string& run_line) {
  for (const char* key : {"net200_transmissions", "net200_collisions"}) {
    double base = 0;
    double cur = 0;
    if (iiot::bench::bench_field(base_line, key, base) &&
        iiot::bench::bench_field(run_line, key, cur) && base != cur) {
      std::printf("  note: %s drifted from baseline (%.0f vs %.0f) — "
                  "toolchain change?\n",
                  key, cur, base);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string label = "current";
  std::string out_path = "BENCH_core.json";
  std::string compare_path;
  std::uint64_t reps = 1;
  std::uint64_t jobs = 1;
  double min_ratio = 0.8;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (iiot::bench::flag_u64(arg, "--reps", reps) ||
        iiot::bench::flag_u64(arg, "--jobs", jobs) ||
        iiot::bench::flag_str(arg, "--compare", compare_path) ||
        iiot::bench::flag_double(arg, "--min-ratio", min_ratio)) {
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
    if (positional == 0) {
      label = arg;
    } else {
      out_path = arg;
    }
    ++positional;
  }
  if (reps == 0) reps = 1;
  std::string base_line;
  if (!compare_path.empty()) {
    base_line = iiot::bench::compare_baseline(compare_path, "bench_perf_core");
    if (base_line.empty()) return 3;
  }

  iiot::bench::print_header(
      "PERF: discrete-event core wall-clock throughput",
      "scheduler + medium must sustain production-scale event rates");

  iiot::runner::Engine eng(static_cast<unsigned>(jobs));
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
        "(%.2fs wall, %llu tx, %llu rx, %llu coll)\n",
        r.nodes, r.events_per_sec, r.frames_per_sec, r.wall_sec,
        static_cast<unsigned long long>(r.transmissions),
        static_cast<unsigned long long>(r.deliveries),
        static_cast<unsigned long long>(r.collisions));
  }

  std::ostringstream run;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"label\": \"%s\", \"churn_events_per_sec\": %.0f, "
                "\"churn_ops_per_sec\": %.0f, "
                "\"periodic_events_per_sec\": %.0f",
                label.c_str(), best.churn.events_per_sec,
                best.churn.ops_per_sec, best.periodic);
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
  std::snprintf(buf, sizeof buf, ", \"reps\": %llu, \"jobs\": %u",
                static_cast<unsigned long long>(reps), eng.jobs());
  run << buf;
  // Per-layer metrics snapshot from an instrumented (untimed) replay of
  // the 50-node workload: says which layer a perf regression lives in.
  std::string metrics;
  (void)csma_network(50, 42, &metrics);
  run << ", \"metrics\": " << metrics;
  run << "}";
  iiot::bench::append_bench_run(out_path, "bench_perf_core", run.str());
  std::printf("\nwrote %s (label \"%s\")\n", out_path.c_str(), label.c_str());

  bool gate_ok = true;
  if (!base_line.empty()) {
    gate_ok =
        iiot::bench::ratio_gate(base_line, run.str(), kGated, min_ratio);
    note_counter_drift(base_line, run.str());
  }
  if (!deterministic) {
    std::printf("determinism gate: FAILED (counters diverged across reps)\n");
  }
  return deterministic && gate_ok ? 0 : 1;
}
