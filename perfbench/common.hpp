// Shared plumbing of the Fig. 1 loop benchmark: run options, the metric
// report every workload fills in, host-time call spans, and the counter
// sums that attribute a run to the mesh layers.
//
// Clocks. A metric is either host time (std::chrono::steady_clock on the
// machine running the benchmark) or virtual time (the simulated clock,
// sim::Time in microseconds). The simulated radio/MAC/RPL model has no
// hardware reference in this repository, so virtual-time figures are the
// model's own and unvalidated; the benchmark gives no error figure for
// them.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/network.hpp"

namespace iiot::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  // host-time budget the measured phase is sized to
  bool trace = false;     // per-layer mode: untraced pass + traced pass
  bool small = false;     // tiny worlds for the benchmark's own tests
  std::string out_dir;    // where call spans and the result record go
};

// ---- host clock ------------------------------------------------------

using HostClock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             HostClock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double ns_to_s(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

/// Host-time spans around the calls the benchmark makes into a layer. The
/// totals are always kept; individual spans only when recording (the
/// per-layer mode), bounded by kSpanCap with a counted overflow, and
/// written out as JSON lines at exit.
class CallLog {
 public:
  static constexpr std::size_t kSpanCap = std::size_t{1} << 20;

  struct Span {
    const char* name;  // string literal, "layer.call"
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  // index of the enclosing span, -1 at top level
  };

  /// Reserves the span buffer up front so recording never reallocates
  /// (a reallocation would stall the measured loop).
  explicit CallLog(bool record) : record_(record) {
    if (record_) spans_.reserve(kSpanCap);
  }

  /// RAII span: times the enclosed call and adds it to `total_s`.
  class Scope {
   public:
    Scope(CallLog& log, const char* name, double& total_s);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    CallLog& log_;
    double& total_s_;
    std::int64_t start_;
    std::int32_t index_ = -1;
    std::int32_t saved_parent_;
  };

  /// Records an already-timed call (hot loops that read the clock anyway).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] std::size_t spans() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  void write_jsonl(const std::string& path) const;

 private:
  bool record_;
  std::uint64_t dropped_ = 0;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
};

// ---- metric report ---------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one workload run produced. `attempted` counts the operations the
/// benchmark issued to the program; `failed` counts those whose output
/// failed a correctness check (a wrong stored value, a command applied
/// for no hot sample, a read that disagrees with the reference). Losses
/// of the simulated radio network are measured behaviour, reported in
/// the fail_ratio metrics, not program failures.
class Report {
 public:
  void end_to_end(const std::string& name, double value);
  /// Workload-specific end-to-end metric (printed under its own name and
  /// emitted per-layer as "e2e.<name>").
  void workload(const std::string& name, double value);
  void layer(const std::string& name, double value);
  void check(bool ok, const std::string& what, std::uint64_t failures = 1);
  void note(const std::string& line) { notes_.push_back(line); }

  std::uint64_t attempted = 0;
  /// Digest of the run's deterministic outputs (world counters, stored
  /// and applied samples); equal for two runs of one seed.
  std::uint64_t digest = 0;

  [[nodiscard]] bool correct() const { return errors_.empty(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }
  [[nodiscard]] const std::vector<std::string>& notes() const {
    return notes_;
  }
  [[nodiscard]] const std::vector<Metric>& end_to_end() const { return e2e_; }
  [[nodiscard]] const std::vector<Metric>& workload() const { return wl_; }
  [[nodiscard]] const std::vector<Metric>& layers() const { return layers_; }

 private:
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<std::string> notes_;
  std::vector<Metric> e2e_;
  std::vector<Metric> wl_;
  std::vector<Metric> layers_;
};

/// The end-to-end metrics every workload emits (BENCHMARK.json's
/// end_to_end list), and every per-layer metric name the traced mode
/// emits (zero where a workload does not exercise the layer).
struct MetricDef {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricDef>& end_to_end_defs();
[[nodiscard]] const std::vector<MetricDef>& layer_defs();

// ---- mesh-layer counters ---------------------------------------------

/// Counters summed over every node of a world: the work each mesh layer
/// did. Differences of two snapshots attribute one phase.
struct MeshCounters {
  std::uint64_t events = 0;
  // radio
  std::uint64_t transmissions = 0, deliveries = 0, collisions = 0,
                snr_losses = 0, aborted = 0, cross_tx = 0, cross_rx = 0;
  // mac
  std::uint64_t enqueued = 0, retries = 0, mac_delivered = 0,
                mac_failed = 0, queue_drops = 0;
  // net
  std::uint64_t dio_tx = 0, dao_tx = 0, dis_tx = 0, data_originated = 0,
                data_forwarded = 0, drops_no_route = 0, drops_link = 0,
                drops_loop = 0, drops_ttl = 0, parent_changes = 0;

  void add_node(const core::MeshNode& node);
  void add_medium(const radio::MediumStats& s);
  MeshCounters& operator+=(const MeshCounters& o);
  [[nodiscard]] MeshCounters minus(const MeshCounters& o) const;
  [[nodiscard]] std::uint64_t digest(std::uint64_t h) const;
  /// Emits the radio.*, mac.*, net.* and sim.events per-layer metrics.
  void report(Report& r) const;
};

// ---- per-world summaries ---------------------------------------------

/// The mesh workloads' loop figures (fail_ratio, up_p50_ms, up_p99_ms),
/// pooled over the run's independent worlds: world-to-world differences
/// (DAG shape, repair episodes) dominate their seed-to-seed spread, so a
/// run measures many short worlds rather than one long one.
class WorldPool {
 public:
  void add(std::uint64_t failed, std::uint64_t attempted,
           const std::vector<double>& up_ms);
  void report(Report& r) const;
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }

 private:
  std::uint64_t failed_ = 0, attempted_ = 0;
  std::vector<double> up_ms_;
};

// ---- small helpers ---------------------------------------------------

[[nodiscard]] std::uint64_t fnv(std::uint64_t h, std::uint64_t v);
[[nodiscard]] std::uint64_t fnv(std::uint64_t h, double v);
inline constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

/// Derives the seed of trial `trial` from the run seed.
[[nodiscard]] std::uint64_t trial_seed(std::uint64_t seed, std::uint64_t salt,
                                       std::size_t trial);

[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double ratio(double num, double den);

// ---- workloads -------------------------------------------------------

void run_plant_loop(const Options& opt, Report& r, CallLog& log);
void run_city_islands(const Options& opt, Report& r, CallLog& log);
void run_backend_ingest(const Options& opt, Report& r, CallLog& log);

}  // namespace iiot::perfbench
