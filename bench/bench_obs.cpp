// Observability overhead benchmark (DESIGN.md §4d).
//
// Measures the wall-clock cost of the obs layer on the 50-node CSMA+RPL
// workload from bench_perf_core, in three modes within one process:
//
//   off     — no obs::Context installed: every instrumentation site is a
//             null-pointer test. This must stay within 3% of the
//             pre-observability fast path (a hard budget).
//   metrics — Context installed, tracer disabled: struct-backed counters
//             are literal field increments, so the residual cost is the
//             pointer test plus registry-owned histogram updates.
//   trace   — metrics + causal tracing enabled (bounded record buffer):
//             the honest price of per-packet spans, recorded so nobody
//             has to guess it.
//
// Modes are interleaved across repetitions and the best run per mode is
// compared, which cancels most machine noise. Results append to
// BENCH_obs.json with an embedded per-layer metrics snapshot.
//
//   ./bench_obs [label] [output.json] [--check] [--baseline=BENCH_core.json]
//
// --check            exit nonzero if metrics-mode overhead exceeds 3%
// --baseline=<file>  also compare mode "off" against the newest
//                    net50_events_per_sec recorded in that file, a
//                    bench_perf_core results file (3% shortfall budget;
//                    meaningful on the machine that recorded the baseline)
//
// Exit codes: 0 pass, 1 a gate failed, 2 bad arguments (an unknown
// --flag), 3 the --baseline file is missing, holds no run line or has no
// net50_events_per_sec in its newest one (a configuration error, found
// before anything runs, so it is never mistaken for a pass).
#include <cstdio>
#include <string>

#include "bench_util.hpp"

namespace {

using namespace iiot;
using bench::ObsMode;

constexpr const char* to_string(ObsMode m) {
  switch (m) {
    case ObsMode::kOff: return "off";
    case ObsMode::kMetrics: return "metrics";
    case ObsMode::kTrace: return "trace";
  }
  return "?";
}

struct RunResult {
  double events_per_sec = 0;
  std::uint64_t transmissions = 0;
  std::size_t trace_records = 0;
  std::string metrics_json = "{}";
};

// The bench_perf_core 50-node world (bench::CsmaGrid): its 30 s of
// staggered periodic reports are timed.
RunResult run_workload(ObsMode mode, std::uint64_t seed) {
  bench::CsmaGrid w(50, seed, mode);
  const std::uint64_t ev0 = w.sched.executed_events();
  const double t0 = bench::now_seconds();
  w.sched.run_until(bench::CsmaGrid::kEnd);
  const double wall = bench::now_seconds() - t0;

  RunResult r;
  r.events_per_sec =
      static_cast<double>(w.sched.executed_events() - ev0) / wall;
  r.transmissions = w.medium.stats().transmissions;
  if (w.ctx) {
    r.trace_records = w.ctx->tracer().records().size();
    r.metrics_json = w.ctx->metrics().snapshot_json();
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string label = "current";
  std::string out_path = "BENCH_obs.json";
  bool check = false;
  std::string baseline_path;
  if (!bench::parse_args(argc, argv, label, out_path,
                         {{"--check", &check},
                          {"--baseline", &baseline_path}})) {
    return 2;
  }

  bench::print_header(
      "PERF: observability overhead (50-node CSMA+RPL workload)",
      "obs off must match the pre-obs fast path; metrics mode within 3%");

  double base = 0;  // the baseline's newest net50_events_per_sec, if any
  if (!baseline_path.empty()) {
    const std::string line =
        bench::compare_baseline(baseline_path, "bench_perf_core");
    if (line.empty()) return 3;
    if (!bench::bench_field(line, "net50_events_per_sec", base) ||
        base <= 0) {
      std::fprintf(stderr,
                   "configuration error: the newest run line of %s has no "
                   "positive net50_events_per_sec\n",
                   baseline_path.c_str());
      return 3;
    }
  }

  constexpr int kReps = 3;
  const ObsMode modes[] = {ObsMode::kOff, ObsMode::kMetrics, ObsMode::kTrace};
  RunResult best[3];
  const auto one_rep = [&] {
    for (int m = 0; m < 3; ++m) {  // interleaved: noise hits all modes alike
      RunResult r = run_workload(modes[m], 42);
      if (r.events_per_sec > best[m].events_per_sec) best[m] = std::move(r);
    }
  };
  const auto overhead_pct = [&](int m) {
    return (best[0].events_per_sec / best[m].events_per_sec - 1.0) * 100.0;
  };
  const auto over_budget = [&] {
    if (overhead_pct(1) > 3.0) return true;
    return base > 0 &&
           (best[0].events_per_sec / base - 1.0) * 100.0 < -3.0;
  };
  for (int rep = 0; rep < kReps; ++rep) one_rep();
  // Best-of-N converges: scheduling noise only ever slows a run down, so
  // extra reps can clear a spurious over-budget reading but cannot hide a
  // real regression. Retry before failing the gate.
  for (int extra = 0; check && over_budget() && extra < 6; ++extra) {
    one_rep();
  }

  const double off = best[0].events_per_sec;
  const double metrics_pct = overhead_pct(1);
  const double trace_pct = overhead_pct(2);
  for (int m = 0; m < 3; ++m) {
    std::printf("%-8s %12.0f events/s  (%llu tx, %zu trace records)\n",
                to_string(modes[m]), best[m].events_per_sec,
                static_cast<unsigned long long>(best[m].transmissions),
                best[m].trace_records);
  }
  std::printf("metrics overhead: %+.2f%%   tracing overhead: %+.2f%%\n",
              metrics_pct, trace_pct);

  // All three modes simulate the identical world: any divergence in the
  // virtual experiment means observability perturbed the simulation.
  bool perturbed = false;
  for (int m = 1; m < 3; ++m) {
    if (best[m].transmissions != best[0].transmissions) {
      std::printf("FAIL: mode %s changed the simulation (%llu tx vs %llu)\n",
                  to_string(modes[m]),
                  static_cast<unsigned long long>(best[m].transmissions),
                  static_cast<unsigned long long>(best[0].transmissions));
      perturbed = true;
    }
  }

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"off_events_per_sec\": %.0f, "
                "\"metrics_events_per_sec\": %.0f, "
                "\"trace_events_per_sec\": %.0f, "
                "\"metrics_overhead_pct\": %.2f, "
                "\"trace_overhead_pct\": %.2f, \"trace_records\": %zu",
                off, best[1].events_per_sec, best[2].events_per_sec,
                metrics_pct, trace_pct, best[2].trace_records);
  bench::record_run(out_path, "bench_obs", label,
                    std::string(buf) + ", \"metrics\": " + best[1].metrics_json);

  bool failed = perturbed;
  if (base > 0) {
    const double delta_pct = (off / base - 1.0) * 100.0;
    std::printf("vs %s net50 baseline %.0f: %+.2f%%\n",
                baseline_path.c_str(), base, delta_pct);
    if (check && delta_pct < -3.0) {
      std::printf("FAIL: obs-off fast path regressed >3%% vs baseline\n");
      failed = true;
    }
  }
  if (check && metrics_pct > 3.0) {
    std::printf("FAIL: metrics-mode overhead %.2f%% exceeds 3%% budget\n",
                metrics_pct);
    failed = true;
  }
  return failed ? 1 : 0;
}
