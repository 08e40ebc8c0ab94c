// backend_ingest: the backend tier alone, driven open-loop.
//
// No radio: a single-thread generator calls System::ingest with one
// sample per call on 4096 series (256 devices x 16 objects), each object
// watched by one 10 s average window rule, and every 20th operation is a
// trailing-60 s store().aggregate read. Operation i carries virtual time
// i x 100 us whatever the host rate, so store contents and rule firings
// are a pure function of the seed. Latency is timed from each operation's
// due time, not its send time, so a stall also charges the operations
// queued behind it.
//
// Phases: set-up (System, rules, and a closed-loop prefill of 60 virtual
// seconds so reads see a full window), a fixed 100k ops/s step for the
// latency figures, then an ascending ladder of rates in 1.05x steps for
// the highest rate that meets the latency limit.
#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common.hpp"
#include "core/system.hpp"
#include "obs/context.hpp"

namespace iiot::perfbench {

namespace {

constexpr std::uint64_t kSalt = 0xBE11;
constexpr sim::Duration kOpStride = 100;  // virtual us per operation
constexpr std::uint64_t kReadEvery = 20;
constexpr sim::Duration kRuleWindow = 10'000'000;
constexpr sim::Duration kReadWindow = 60'000'000;
constexpr double kRuleThreshold = 60.0;
constexpr std::uint32_t kValueRange = 100;  // integer values: exact sums
constexpr double kLatencyLimitUs = 1000.0;
constexpr double kFixedRate = 100'000.0;
constexpr double kLadderStep = 1.05;
constexpr int kLadderMisses = 3;  // consecutive failing rates end the ladder
constexpr std::uint64_t kCheckEveryRead = 8;

struct Params {
  std::uint32_t devices, objects;
  std::uint64_t prefill_ops;
  double fixed_rate;   // ops/s of the latency step
  double fixed_s;      // host seconds at the fixed rate
  double step_s;       // host seconds per ladder rate
  double ladder_from;  // ops/s
  double ladder_to;
  std::size_t setup_repeats;
};

Params params_for(const Options& opt) {
  if (opt.small) {
    return {16, 4, 20'000, 50'000, 0.05, 0.01, 50'000, 200'000, 2};
  }
  // Prefill: 60 virtual seconds of history, one full read window.
  return {256,        16,        kReadWindow / kOpStride,
          kFixedRate, 0.1 * opt.seconds, 0.01 * opt.seconds,
          kFixedRate, 4'000'000, 3};
}

/// Operation i: a read on `series`, or an ingest of `value` on `series`.
struct Op {
  std::uint32_t series;
  std::uint32_t value;
  bool read;
};

class OpStream {
 public:
  OpStream(std::uint64_t seed, std::uint32_t series)
      : rng_(seed, 0x1A6E), series_(series) {}
  Op next() {
    const bool read = ++index_ % kReadEvery == 0;
    const std::uint32_t s = rng_.below(series_);
    return {s, read ? 0 : rng_.below(kValueRange), read};
  }

 private:
  Rng rng_;
  std::uint32_t series_;
  std::uint64_t index_ = 0;
};

struct ReadResult {
  std::uint64_t op;
  agg::PartialAggregate got;
};

struct StepResult {
  std::vector<double> ingest_us, query_us;
  double late_max_us = 0, late_end_us = 0;
  [[nodiscard]] bool meets_limit() const {
    return bench::percentile(ingest_us, 99) <= kLatencyLimitUs &&
           late_end_us <= kLatencyLimitUs;
  }
};

class Backend {
 public:
  Backend(const Params& p, std::uint64_t seed, bool traced, CallLog& log)
      : p_(p), log_(log), ops_(seed, p.devices * p.objects) {
    CallLog::Scope s(log_, "setup.build", build_s_);
    core::SystemConfig cfg;
    cfg.retention.max_age = 2 * kReadWindow;
    cfg.observability = traced;
    cfg.tracing = traced;
    sys_ = std::make_unique<core::System>(sched_, seed, cfg);
    for (std::uint32_t d = 0; d < p_.devices; ++d) {
      for (std::uint32_t o = 0; o < p_.objects; ++o) {
        topics_.push_back("ing/" + std::to_string(d) + "/" + std::to_string(o));
      }
    }
    for (std::uint32_t o = 0; o < p_.objects; ++o) {
      backend::WindowCondition w;
      w.topic_filter = "ing/+/" + std::to_string(o);
      w.window = kRuleWindow;
      w.fn = agg::AggFn::kAvg;
      w.op = backend::CmpOp::kGreater;
      w.threshold = kRuleThreshold;
      sys_->rules().add_window_rule("avg-" + std::to_string(o), w, {});
    }
  }

  /// Closed-loop prefill: the first prefill_ops operations as fast as the
  /// backend takes them.
  void prefill() {
    {
      CallLog::Scope s(log_, "setup.prefill", prefill_s_);
      for (std::uint64_t i = 0; i < p_.prefill_ops; ++i) {
        const std::int64_t t = host_ns();
        issue(t, t, nullptr);
      }
    }
    series_.resize(topics_.size(), backend::kInvalidSeries);
    for (std::size_t s = 0; s < topics_.size(); ++s) {
      series_[s] = sys_->store().find(topics_[s]);
    }
  }

  /// Open loop at `rate` ops/s for `seconds` of schedule.
  StepResult step(double rate, double seconds) {
    StepResult out;
    const auto n = static_cast<std::uint64_t>(rate * seconds);
    out.ingest_us.reserve(n);
    const double gap_ns = 1e9 / rate;
    const std::int64_t t0 = host_ns();
    for (std::uint64_t k = 0; k < n; ++k) {
      const std::int64_t due =
          t0 + static_cast<std::int64_t>(static_cast<double>(k) * gap_ns);
      std::int64_t now = host_ns();
      while (now < due) now = host_ns();
      const double late_us = static_cast<double>(now - due) / 1e3;
      out.late_max_us = std::max(out.late_max_us, late_us);
      if (k + 1 == n) out.late_end_us = late_us;
      issue(now, due, &out);
    }
    return out;
  }

  /// Replays the operation log against a reference of the generated
  /// operations: rule firings and the sampled reads must match exactly.
  void check(Report& r) const {
    const std::size_t nseries = topics_.size();
    std::vector<std::deque<std::pair<sim::Time, std::uint32_t>>> win(nseries);
    std::vector<std::uint64_t> win_sum(nseries, 0);
    std::vector<std::vector<std::pair<sim::Time, std::uint32_t>>> hist(
        nseries);
    std::uint64_t firings = 0, ingests = 0;
    std::size_t next_read = 0;
    std::uint64_t bad_reads = 0;
    for (std::uint64_t i = 0; i < log_ops_.size(); ++i) {
      const Op& op = log_ops_[i];
      const sim::Time at = op_time(i);
      if (op.read) {
        while (next_read < reads_.size() && reads_[next_read].op < i) {
          ++next_read;
        }
        if (next_read < reads_.size() && reads_[next_read].op == i) {
          if (!same(reference_read(hist[op.series], at),
                    reads_[next_read].got)) {
            ++bad_reads;
          }
        }
        continue;
      }
      ++ingests;
      hist[op.series].emplace_back(at, op.value);
      auto& w = win[op.series];
      w.emplace_back(at, op.value);
      win_sum[op.series] += op.value;
      const sim::Time from = at >= kRuleWindow ? at - kRuleWindow : 0;
      while (w.front().first < from) {
        win_sum[op.series] -= w.front().second;
        w.pop_front();
      }
      if (static_cast<double>(win_sum[op.series]) >
          kRuleThreshold * static_cast<double>(w.size())) {
        ++firings;
      }
    }
    r.check(sys_->rules().firings() == firings,
            "backend_ingest: rule firings " +
                std::to_string(sys_->rules().firings()) + " != reference " +
                std::to_string(firings));
    r.check(sys_->store().total_appended() == ingests,
            "backend_ingest: stored points " +
                std::to_string(sys_->store().total_appended()) +
                " != ingested " + std::to_string(ingests));
    r.check(bad_reads == 0,
            "backend_ingest: aggregate reads that disagree with the "
            "reference: " + std::to_string(bad_reads),
            bad_reads);
  }

  [[nodiscard]] double setup_s() const { return build_s_ + prefill_s_; }
  [[nodiscard]] double build_s() const { return build_s_; }
  [[nodiscard]] double prefill_s() const { return prefill_s_; }
  [[nodiscard]] double ingest_s() const { return ingest_s_; }
  [[nodiscard]] double query_s() const { return query_s_; }
  [[nodiscard]] std::uint64_t ops() const { return log_ops_.size(); }
  [[nodiscard]] std::size_t checked_reads() const { return reads_.size(); }
  [[nodiscard]] core::System& system() { return *sys_; }
  [[nodiscard]] const sim::Scheduler& scheduler() const { return sched_; }

 private:
  static sim::Time op_time(std::uint64_t i) { return (i + 1) * kOpStride; }

  /// Issues the next operation at host time `now` (due at `due`); records
  /// its latency from due in `out` when given.
  void issue(std::int64_t now, std::int64_t due, StepResult* out) {
    const std::uint64_t i = log_ops_.size();
    const Op op = ops_.next();
    log_ops_.push_back(op);
    sched_.run_until(op_time(i));
    if (op.read) {
      const sim::Time to = op_time(i);
      const sim::Time from = to >= kReadWindow ? to - kReadWindow : 0;
      const backend::SeriesId sid =
          series_.empty() ? sys_->store().find(topics_[op.series])
                          : series_[op.series];
      const agg::PartialAggregate got = sys_->store().aggregate(sid, from, to);
      const std::int64_t end = host_ns();
      query_s_ += ns_to_s(end - now);
      log_.record("backend.query", now, end);
      if (++reads_issued_ % kCheckEveryRead == 0) reads_.push_back({i, got});
      if (out != nullptr) {
        out->query_us.push_back(static_cast<double>(end - due) / 1e3);
      }
      return;
    }
    const double v = op.value;
    sys_->ingest(topics_[op.series], std::span<const double>(&v, 1));
    const std::int64_t end = host_ns();
    ingest_s_ += ns_to_s(end - now);
    log_.record("backend.ingest", now, end);
    if (out != nullptr) {
      out->ingest_us.push_back(static_cast<double>(end - due) / 1e3);
    }
  }

  static agg::PartialAggregate reference_read(
      const std::vector<std::pair<sim::Time, std::uint32_t>>& h, sim::Time to) {
    const sim::Time from = to >= kReadWindow ? to - kReadWindow : 0;
    agg::PartialAggregate pa;
    auto it = std::lower_bound(
        h.begin(), h.end(), std::make_pair(from, std::uint32_t{0}));
    for (; it != h.end() && it->first <= to; ++it) {
      pa.add_sample(static_cast<double>(it->second));
    }
    return pa;
  }

  static bool same(const agg::PartialAggregate& a,
                   const agg::PartialAggregate& b) {
    if (a.count != b.count) return false;
    return a.count == 0 || (a.sum == b.sum && a.min == b.min && a.max == b.max);
  }

  Params p_;
  CallLog& log_;
  OpStream ops_;
  sim::Scheduler sched_;
  std::unique_ptr<core::System> sys_;
  std::vector<std::string> topics_;
  std::vector<backend::SeriesId> series_;
  std::vector<Op> log_ops_;
  std::vector<ReadResult> reads_;
  std::uint64_t reads_issued_ = 0;
  double build_s_ = 0, prefill_s_ = 0, ingest_s_ = 0, query_s_ = 0;
};

}  // namespace

void run_backend_ingest(const Options& opt, Report& r, CallLog& log) {
  const Params p = params_for(opt);
  const std::uint64_t seed = trial_seed(opt.seed, kSalt, 0);
  std::vector<double> setups, prefills;
  double build_s = 0;
  std::unique_ptr<Backend> b;
  for (std::size_t rep = 0; rep < p.setup_repeats; ++rep) {
    b.reset();
    b = std::make_unique<Backend>(p, seed, false, log);
    b->prefill();
    setups.push_back(b->setup_s());
    build_s += b->build_s();
    prefills.push_back(b->prefill_s());
  }
  // The prefill's outcome is a pure function of the seed; later phases
  // run as many operations as the host keeps up with.
  r.digest = fnv(fnv(fnv(kFnvBasis, b->system().rules().firings()),
                     b->system().store().total_appended()),
                 b->system().store().stats().evicted);
  const double ingest_before = b->ingest_s();
  const double query_before = b->query_s();

  const StepResult fixed = b->step(p.fixed_rate, p.fixed_s);
  double max_rate = 0;
  std::vector<double> ladder;
  for (double rate = p.ladder_from; rate <= p.ladder_to * 1.0001;
       rate *= kLadderStep) {
    ladder.push_back(rate);
  }
  int misses = 0;
  for (const double rate : ladder) {
    const StepResult s = b->step(rate, p.step_s);
    if (s.meets_limit()) {
      max_rate = rate;
      misses = 0;
    } else if (++misses == kLadderMisses) {
      break;
    }
  }
  b->check(r);
  r.attempted = b->ops();

  const auto over_limit = static_cast<double>(std::count_if(
      fixed.ingest_us.begin(), fixed.ingest_us.end(),
      [](double us) { return us > kLatencyLimitUs; }));
  r.end_to_end("setup_s", median(setups));
  r.end_to_end("fail_ratio",
               ratio(over_limit, static_cast<double>(fixed.ingest_us.size())));
  r.end_to_end("up_p50_ms", bench::percentile(fixed.ingest_us, 50) / 1e3);
  r.end_to_end("up_p99_ms", bench::percentile(fixed.ingest_us, 99) / 1e3);
  r.workload("ingest_max_rate", max_rate);
  r.workload("ingest_p50_us", bench::percentile(fixed.ingest_us, 50));
  r.workload("ingest_p99_us", bench::percentile(fixed.ingest_us, 99));
  r.workload("ingest_samples", static_cast<double>(fixed.ingest_us.size()));
  r.workload("query_p50_us", bench::percentile(fixed.query_us, 50));
  r.workload("query_p99_us", bench::percentile(fixed.query_us, 99));
  r.workload("query_samples", static_cast<double>(fixed.query_us.size()));
  r.note("fixed-rate step: generator lateness max " +
         std::to_string(fixed.late_max_us) + " us; reads checked: " +
         std::to_string(b->checked_reads()));

  if (!opt.trace) return;

  core::System& sys = b->system();
  const backend::TimeSeriesStats& ts = sys.store().stats();
  r.layer("sim.events",
          static_cast<double>(b->scheduler().executed_events()));
  r.layer("backend.ingest_s", b->ingest_s() - ingest_before);
  r.layer("backend.query_s", b->query_s() - query_before);
  r.layer("backend.bus_published", static_cast<double>(sys.bus().published()));
  r.layer("backend.bus_delivered", static_cast<double>(sys.bus().delivered()));
  r.layer("backend.store_appended",
          static_cast<double>(sys.store().total_appended()));
  r.layer("backend.store_evicted", static_cast<double>(ts.evicted));
  r.layer("backend.rule_firings", static_cast<double>(sys.rules().firings()));
  r.layer("backend.rollup_hits", static_cast<double>(ts.rollup_hits));
  r.layer("backend.chunk_scans", static_cast<double>(ts.chunk_scans));
  r.layer("backend.rollup_hit_ratio",
          ratio(static_cast<double>(ts.rollup_hits),
                static_cast<double>(ts.rollup_hits + ts.chunk_scans)));
  r.layer("gen.late_max_us", fixed.late_max_us);
  r.layer("setup.build_s", build_s / static_cast<double>(p.setup_repeats));
  r.layer("setup.formation_s", median(prefills));

  // Traced pass: the prefill again with the stack's metrics and tracer on.
  CallLog quiet(false);
  Backend traced(p, seed, true, quiet);
  traced.prefill();
  const obs::Tracer& t = traced.system().observability()->tracer();
  r.layer("obs.trace_records", static_cast<double>(t.records().size()));
  r.layer("obs.trace_dropped", static_cast<double>(t.dropped()));
  r.layer("obs.trace_overhead_pct",
          100.0 * (ratio(traced.prefill_s(), median(prefills)) - 1.0));
}

}  // namespace iiot::perfbench
