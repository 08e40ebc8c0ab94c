// Runner engine scaling benchmark (DESIGN.md §4e).
//
// Measures wall-clock speedup of the parallel scenario-execution engine
// on the real workload it exists for: the N-scenario fuzz batch. The
// batch runs twice in one process — serially (jobs=1, the reference
// execution) and sharded across the pool — and every jobs-invariant
// artifact (failing seeds, per-seed fingerprints, report text) is diffed
// between the two runs by testing::diff_batches, the diff `iiot_fuzz
// --selfcheck` makes, so the speedup number is only ever reported for
// byte-identical output.
//
//   ./bench_runner [label] [output.json] [--runs=N] [--jobs=N]
//
// --runs=N   scenarios per batch (default 200, the CI smoke batch)
// --jobs=N   parallel job count (default 0 = all cores)
//
// Appends one run line to BENCH_runner.json: serial/parallel wall
// seconds, scenarios/sec for both, speedup, and whether artifacts
// matched. Exits 1 on any artifact divergence.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "runner/engine.hpp"
#include "testing/batch.hpp"

int main(int argc, char** argv) {
  using iiot::bench::now_seconds;
  std::string label = "current";
  std::string out_path = "BENCH_runner.json";
  std::uint64_t runs = 200;
  std::uint64_t jobs = 0;  // all cores
  if (!iiot::bench::parse_args(argc, argv, label, out_path,
                               {{"--runs", &runs}, {"--jobs", &jobs}})) {
    return 2;
  }

  iiot::bench::print_header(
      "PERF: parallel scenario-execution engine (fuzz batch)",
      "sharded batches must scale with cores and stay byte-identical");

  iiot::testing::FuzzBatchOptions opt;
  opt.runs = runs;
  opt.shrink = false;  // measure scenario execution, not shrink re-runs

  iiot::runner::Engine serial(1);
  iiot::runner::Engine pool(static_cast<unsigned>(jobs));

  double t0 = now_seconds();
  const iiot::testing::FuzzBatchResult a =
      iiot::testing::run_fuzz_batch(opt, serial);
  const double serial_sec = now_seconds() - t0;

  t0 = now_seconds();
  const iiot::testing::FuzzBatchResult b =
      iiot::testing::run_fuzz_batch(opt, pool);
  const double parallel_sec = now_seconds() - t0;

  const std::string diff = iiot::testing::diff_batches(opt, a, b, pool.jobs());
  const bool identical = diff.empty();
  if (!identical) std::printf("FAIL: %s\n", diff.c_str());

  const double speedup = parallel_sec > 0 ? serial_sec / parallel_sec : 0;
  std::printf("%llu scenarios  jobs=1: %.2fs (%.0f/s)   jobs=%u: %.2fs "
              "(%.0f/s)   speedup x%.2f   artifacts %s\n",
              static_cast<unsigned long long>(runs), serial_sec,
              static_cast<double>(runs) / serial_sec, pool.jobs(),
              parallel_sec, static_cast<double>(runs) / parallel_sec, speedup,
              identical ? "identical" : "DIVERGED");

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"runs\": %llu, \"jobs\": %u, "
                "\"serial_sec\": %.3f, \"parallel_sec\": %.3f, "
                "\"serial_scenarios_per_sec\": %.1f, "
                "\"parallel_scenarios_per_sec\": %.1f, "
                "\"speedup\": %.2f, \"identical\": %s, \"failing\": %zu",
                static_cast<unsigned long long>(runs), pool.jobs(),
                serial_sec, parallel_sec,
                static_cast<double>(runs) / serial_sec,
                static_cast<double>(runs) / parallel_sec, speedup,
                identical ? "true" : "false", a.failing_seeds.size());
  iiot::bench::record_run(out_path, "bench_runner", label, buf);
  return identical ? 0 : 1;
}
