// Shared helpers for the experiment harnesses (bench_e1 ... bench_e12).
//
// Each bench binary regenerates one experiment from DESIGN.md §3: it
// sweeps the experiment's parameter axis, prints a table of the series
// the paper's claim concerns, and states the claim being checked so the
// output is self-describing. EXPERIMENTS.md records the measured shapes.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "obs/context.hpp"
#include "runner/engine.hpp"
#include "sim/time.hpp"

namespace iiot::bench {

// ---- CLI flag helpers ("--key=value" style) ---------------------------

/// True when `arg` is `--key=<v>`; parses <v> into `out`.
inline bool flag_u64(const std::string& arg, const char* key,
                     std::uint64_t& out) {
  const std::string prefix = std::string(key) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  char* end = nullptr;
  out = std::strtoull(arg.c_str() + prefix.size(), &end, 10);
  return end != nullptr && *end == '\0';
}

inline bool flag_double(const std::string& arg, const char* key, double& out) {
  const std::string prefix = std::string(key) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  char* end = nullptr;
  out = std::strtod(arg.c_str() + prefix.size(), &end);
  return end != nullptr && *end == '\0';
}

inline bool flag_str(const std::string& arg, const char* key,
                     std::string& out) {
  const std::string prefix = std::string(key) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  out = arg.substr(prefix.size());
  return true;
}

// ---- engine sharding --------------------------------------------------

/// Shards `count` independent repetitions/parameter points across the
/// engine. Every repetition builds its own isolated world; results land
/// in slots keyed by index, so aggregation (best-of, tables, JSON lines)
/// is identical at any job count. fn must be callable as fn(std::size_t).
template <typename R, typename Fn>
[[nodiscard]] std::vector<R> run_sharded(runner::Engine& eng,
                                         std::size_t count, Fn&& fn) {
  std::vector<R> out(count);
  eng.run(count, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

inline void print_header(const char* experiment, const char* claim) {
  std::printf("\n==================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Claim under test: %s\n", claim);
  std::printf("==================================================================\n");
}

inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) / 100.0 + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The paced RPL configuration (core::paced_node_config).
inline core::NodeConfig node_config(core::MacKind mac,
                                    sim::Duration wake_interval = 500'000) {
  return core::paced_node_config(mac, wake_interval);
}

inline radio::PropagationConfig default_radio() {
  radio::PropagationConfig cfg;
  cfg.shadowing_sigma_db = 0.0;  // benches sweep seeds where it matters
  return cfg;
}

/// The world's full registry snapshot as a JSON object, or "{}" when no
/// obs::Context is installed. Embedding this in every BENCH_*.json run
/// line localizes a perf regression to a layer: the per-module counters
/// say *where* the extra work happened, not just that it happened.
inline std::string metrics_snapshot_json(sim::Scheduler& sched) {
  obs::MetricsRegistry* m = obs::metrics(sched);
  return m != nullptr ? m->snapshot_json() : "{}";
}

/// Appends one run line to a BENCH_*.json results file. The file keeps one
/// JSON object per line inside "runs" so appending without a JSON parser
/// stays trivial: prior run lines are carried over verbatim.
inline void append_bench_run(const std::string& path, const char* benchmark,
                             const std::string& run_line) {
  std::vector<std::string> runs;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      const auto pos = line.find_first_not_of(" \t");
      if (pos != std::string::npos &&
          line.compare(pos, 9, "{\"label\":") == 0) {
        std::string r = line.substr(pos);
        if (!r.empty() && r.back() == ',') r.pop_back();
        runs.push_back(std::move(r));
      }
    }
  }
  runs.push_back(run_line);

  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"benchmark\": \"" << benchmark << "\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    out << "    " << runs[i] << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

/// Newest run line of a BENCH_*.json results file ("" when absent) — the
/// line `--compare` baselines are read from.
inline std::string last_bench_run_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    const auto pos = line.find_first_not_of(" \t");
    if (pos != std::string::npos && line.compare(pos, 9, "{\"label\":") == 0) {
      last = line.substr(pos);
      if (!last.empty() && last.back() == ',') last.pop_back();
    }
  }
  return last;
}

/// Extracts the numeric value of `"key": <number>` from a run line.
inline bool bench_field(const std::string& run_line, const std::string& key,
                        double& out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = run_line.find(needle);
  if (pos == std::string::npos) return false;
  char* end = nullptr;
  out = std::strtod(run_line.c_str() + pos + needle.size(), &end);
  return end != nullptr && end != run_line.c_str() + pos + needle.size();
}

/// The `--compare` baseline's newest run line. When `path` is missing or
/// holds no run line, prints a configuration error and returns "": the
/// caller then exits 3 before running anything, so a broken setup is
/// never mistaken for a regression.
inline std::string compare_baseline(const std::string& path,
                                    const char* benchmark) {
  std::string line = last_bench_run_line(path);
  if (line.empty()) {
    std::fprintf(stderr,
                 "configuration error: baseline %s is missing or has no run "
                 "line; record one with: %s baseline %s --reps=3 (Release "
                 "build)\n",
                 path.c_str(), benchmark, path.c_str());
  }
  return line;
}

/// Perf-regression gate: each of `keys` in `run_line` must reach
/// `min_ratio` × the same field of `base_line`. A key missing from either
/// line, or not positive in the baseline, fails the gate.
inline bool ratio_gate(const std::string& base_line,
                       const std::string& run_line,
                       std::span<const char* const> keys, double min_ratio) {
  bool ok = true;
  std::printf("\nperf-regression gate (min ratio %.2f):\n", min_ratio);
  for (const char* key : keys) {
    double base = 0;
    double cur = 0;
    if (!bench_field(base_line, key, base) || base <= 0) {
      std::printf("  %-26s MISSING or not positive in baseline\n", key);
      ok = false;
      continue;
    }
    if (!bench_field(run_line, key, cur)) {
      std::printf("  %-26s MISSING in current run\n", key);
      ok = false;
      continue;
    }
    const double ratio = cur / base;
    std::printf("  %-26s %14.1f vs %14.1f baseline  (ratio %.2f)%s\n", key,
                cur, base, ratio, ratio < min_ratio ? "  REGRESSION" : "");
    if (ratio < min_ratio) ok = false;
  }
  std::printf("perf gate: %s\n", ok ? "OK" : "FAILED");
  return ok;
}

}  // namespace iiot::bench
