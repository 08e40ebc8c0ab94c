// The bench harness: what every binary under bench/ shares.
//
// The experiment benches (bench_e1 ... bench_e12, bench_a1) each
// regenerate one experiment from DESIGN.md §3: they sweep the
// experiment's parameter axis, print a table of the series the paper's
// claim concerns, and state the claim being checked so the output is
// self-describing. EXPERIMENTS.md records the measured shapes.
//
// The gate benches (bench_perf_core, bench_backend, bench_pdes, bench_obs,
// bench_runner) time the stack on the host and decide pass or fail. They
// share one path: one clock (now_seconds), one command line (parse_args:
// `[label] [output.json]` and the bench's own flags, exit 2 on anything
// else), one recorder (record_run appends the run line to a BENCH_*.json
// file), and one gate set judging run lines — ratio_gate and digest_gate
// against the `--compare` baseline (compare_baseline, exit 3 when it is
// missing) and floor_gate holding measured values to fixed floors.
// bench_perf_core and bench_obs build their CSMA grid through CsmaGrid.
//
// perfbench/ includes this header too, for the flag_*, percentile,
// default_radio and node_config helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/network.hpp"
#include "obs/context.hpp"
#include "radio/medium.hpp"
#include "runner/engine.hpp"
#include "sim/scheduler.hpp"
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

/// One flag of a gate bench: `--key=<value>` into a number or string, or
/// the bare switch `--key` when `out` is a bool.
struct Flag {
  const char* key;
  std::variant<std::uint64_t*, double*, std::string*, bool*> out;
};

/// The gate benches' command line: `[label] [output.json]` positionally
/// (a later positional replaces the output path) plus `flags`. Returns
/// false, after naming the argument on stderr, on an unknown `--flag` or
/// a malformed value; the bench then exits 2.
inline bool parse_args(int argc, const char* const* argv, std::string& label,
                       std::string& out_path,
                       std::initializer_list<Flag> flags) {
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      (positional++ == 0 ? label : out_path) = arg;
      continue;
    }
    bool taken = false;
    for (const Flag& f : flags) {
      taken = std::visit(
          [&](auto* out) {
            using T = std::remove_pointer_t<decltype(out)>;
            if constexpr (std::is_same_v<T, bool>) {
              return arg == f.key && (*out = true);
            } else if constexpr (std::is_same_v<T, double>) {
              return flag_double(arg, f.key, *out);
            } else if constexpr (std::is_same_v<T, std::string>) {
              return flag_str(arg, f.key, *out);
            } else {
              return flag_u64(arg, f.key, *out);
            }
          },
          f.out);
      if (taken) break;
    }
    if (!taken) {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Wall-clock seconds on the monotonic clock every gate bench times with.
inline double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
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

/// Observability installed on a bench world: none, the metrics registry
/// alone, or metrics plus causal tracing.
enum class ObsMode { kOff, kMetrics, kTrace };

/// The CSMA+RPL grid world that bench_perf_core times at 50/200/500 nodes
/// and bench_obs runs in every ObsMode: the DODAG forms off the clock
/// until kFormed, then every node reports upward every 2 s, staggered,
/// until kEnd. Each bench times `sched.run_until(kEnd)` itself.
struct CsmaGrid {
  static constexpr sim::Time kFormed = 20'000'000;
  static constexpr sim::Time kEnd = 50'000'000;

  CsmaGrid(std::size_t nodes, std::uint64_t seed,
           ObsMode mode = ObsMode::kOff)
      : ctx(observe(sched, mode)),
        medium(sched, default_radio(), seed),
        mesh(sched, medium, Rng(seed), node_config(core::MacKind::kCsma)) {
    mesh.build_grid(nodes, 20.0);
    mesh.start();
    sched.run_until(kFormed);
    for (std::size_t i = 1; i < mesh.size(); ++i) {
      auto& node = mesh.node(i);
      const sim::Duration phase =
          static_cast<sim::Duration>(i) * 7'919 % 2'000'000;
      for (sim::Time t = kFormed + phase; t < kEnd; t += 2'000'000) {
        sched.schedule_at(t,
                          [&node] { node.routing->send_up(to_buffer("r")); });
      }
    }
  }
  // The scheduled reports hold references into `mesh`.
  CsmaGrid(const CsmaGrid&) = delete;
  CsmaGrid& operator=(const CsmaGrid&) = delete;

  sim::Scheduler sched;
  std::unique_ptr<obs::Context> ctx;  // null in ObsMode::kOff
  radio::Medium medium;
  core::MeshNetwork mesh;

 private:
  static std::unique_ptr<obs::Context> observe(sim::Scheduler& s,
                                               ObsMode mode) {
    if (mode == ObsMode::kOff) return nullptr;
    auto c = std::make_unique<obs::Context>(s);
    c->tracer().set_enabled(mode == ObsMode::kTrace);
    return c;
  }
};

/// Every run line of a BENCH_*.json results file, oldest first (none
/// when the file is absent). The file keeps one JSON object per line
/// inside "runs", each starting `{"label":`, so reading and appending need
/// no JSON parser.
inline std::vector<std::string> bench_run_lines(const std::string& path) {
  std::vector<std::string> runs;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto pos = line.find_first_not_of(" \t");
    if (pos != std::string::npos && line.compare(pos, 9, "{\"label\":") == 0) {
      std::string r = line.substr(pos);
      if (!r.empty() && r.back() == ',') r.pop_back();
      runs.push_back(std::move(r));
    }
  }
  return runs;
}

/// Newest run line of a BENCH_*.json results file ("" when absent) — the
/// line `--compare` baselines are read from.
inline std::string last_bench_run_line(const std::string& path) {
  std::vector<std::string> runs = bench_run_lines(path);
  return runs.empty() ? std::string() : std::move(runs.back());
}

/// Appends the run line `{"label": "<label>", <fields>}` to a
/// BENCH_*.json results file, carrying the prior run lines over
/// verbatim, says so on stdout, and returns the line for the gates.
inline std::string record_run(const std::string& path, const char* benchmark,
                              const std::string& label,
                              const std::string& fields) {
  std::vector<std::string> runs = bench_run_lines(path);
  runs.push_back("{\"label\": \"" + label + "\", " + fields + "}");
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"benchmark\": \"" << benchmark << "\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    out << "    " << runs[i] << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nwrote %s (label \"%s\")\n", path.c_str(), label.c_str());
  return runs.back();
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

/// Extracts `"key": <unsigned integer>` from a run line exactly: digests
/// exceed a double's 53-bit mantissa, so bench_field would round them.
inline bool bench_field_u64(const std::string& run_line,
                            const std::string& key, std::uint64_t& out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = run_line.find(needle);
  if (pos == std::string::npos) return false;
  const char* begin = run_line.c_str() + pos + needle.size();
  while (*begin == ' ') ++begin;
  if (*begin < '0' || *begin > '9') return false;
  char* end = nullptr;
  out = std::strtoull(begin, &end, 10);
  return end != begin;
}

/// Behavioural gate: `key` (a digest) must be present in both lines and
/// equal bit for bit. A key missing from either line fails the gate.
inline bool digest_gate(const std::string& base_line,
                        const std::string& run_line, const char* key) {
  std::uint64_t base = 0;
  std::uint64_t cur = 0;
  const bool have_base = bench_field_u64(base_line, key, base);
  const bool have_cur = bench_field_u64(run_line, key, cur);
  const bool ok = have_base && have_cur && base == cur;
  std::printf("\ndigest gate: %s %s (run %llu, baseline %s)\n", key,
              ok ? "OK" : "FAILED", static_cast<unsigned long long>(cur),
              have_base ? std::to_string(base).c_str() : "MISSING");
  return ok;
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

/// An acceptance floor: the measured `value` of `key` must reach `min`.
struct Floor {
  const char* key;
  double value;
  double min;
};

/// Acceptance gate: each floor's measured value must reach its minimum,
/// whatever a baseline says. It judges the unrounded figure, not the one
/// printed into the run line.
inline bool floor_gate(std::span<const Floor> floors) {
  bool ok = true;
  std::printf("\nacceptance floors:\n");
  for (const Floor& f : floors) {
    std::printf("  %-26s %14.4f vs %14.4f floor%s\n", f.key, f.value, f.min,
                f.value < f.min ? "  BELOW FLOOR" : "");
    if (f.value < f.min) ok = false;
  }
  std::printf("floor gate: %s\n", ok ? "OK" : "FAILED");
  return ok;
}

}  // namespace iiot::bench
