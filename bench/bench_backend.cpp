// Backend-tier performance benchmark (DESIGN.md §4f).
//
// bench_perf_core measures the simulation substrate; this harness
// measures the *backend* hot paths the fast-path rewrite targets:
//
//   1. ts_append      — 1M-point ingest into the interned/chunked store.
//   2. ts_query       — narrow window queries against a 1M-point series
//                       (binary-searched chunks vs the seed's full scan).
//   3. ts_downsample  — full-range bucket averages over 1M points
//                       (chunk rollups vs the seed's copy-then-rescan).
//   4. bus_fanout     — publishes into 10k subscriptions (trie + exact
//                       index vs the seed's linear topic_matches scan).
//
// The seed implementations (pre-interning store, pre-trie bus, in
// testing/backend_oracle.hpp) run as naive references in the same
// process on the same workload, so every run reports machine-independent
// speedup ratios and checks observable equivalence: query results must
// be byte-identical, downsample results identical up to an ulp tolerance
// on the bucket averages, and bus deliveries must arrive in the same
// order.
// Hard floors (bench::floor_gate, the acceptance bar) fail the run
// outright: query and downsample >= 10x, publish fan-out >= 5x.
//
// Results append to BENCH_backend.json:
//
//   ./bench_backend [label] [output.json] [--reps=N] [--jobs=N]
//                   [--compare=BASELINE.json] [--min-ratio=R]
//
// --compare gates the speedup ratios against the newest baseline run
// line (default min-ratio 0.8), mirroring bench_perf_core's perf gate,
// and requires the fan-out's exact `delivered` count to equal the
// baseline's; a missing or empty baseline exits 3 before anything runs.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "backend/timeseries.hpp"
#include "backend/topic_bus.hpp"
#include "bench_util.hpp"
#include "runner/engine.hpp"
#include "testing/backend_oracle.hpp"

namespace {

using namespace iiot;
using backend::Point;
using backend::SeriesId;
using iiot::testing::Lcg;
using iiot::testing::RefBus;
using iiot::testing::RefStore;
using bench::now_seconds;

// ---- workloads --------------------------------------------------------

constexpr std::size_t kPoints = 1'000'000;
constexpr std::size_t kSubscribers = 10'000;
constexpr int kQueries = 400;
constexpr int kDownsamples = 50;
constexpr int kPublishes = 2'000;

// The shared 1M-point series: integer values (exact bucket sums under
// any summation order) on a jittered-but-monotone clock.
std::vector<Point> make_points() {
  std::vector<Point> pts;
  pts.reserve(kPoints);
  Lcg rng{4242};
  sim::Time t = 0;
  for (std::size_t i = 0; i < kPoints; ++i) {
    t += 500 + rng.below(1000);
    pts.push_back(Point{t, static_cast<double>(rng.below(1000))});
  }
  return pts;
}

struct AppendResult {
  double fast_per_sec = 0;
  double naive_per_sec = 0;
  std::uint64_t checksum = 0;  // determinism gate across reps
};

AppendResult bench_append() {
  const auto pts = make_points();
  AppendResult r;
  {
    backend::TimeSeriesStore store;
    const SeriesId id = store.intern("plant/1/3303");
    const double t0 = now_seconds();
    store.append_batch(id, pts.data(), pts.size());
    const double wall = now_seconds() - t0;
    r.fast_per_sec = static_cast<double>(kPoints) / wall;
    r.checksum = store.stats().appends + store.points(id);
  }
  {
    RefStore store;
    const double t0 = now_seconds();
    for (const Point& p : pts) store.append("plant/1/3303", p.at, p.value);
    const double wall = now_seconds() - t0;
    r.naive_per_sec = static_cast<double>(kPoints) / wall;
  }
  return r;
}

struct RangeResult {
  double fast_per_sec = 0;
  double naive_per_sec = 0;
  std::uint64_t checksum = 0;
  bool identical = true;  // fast results byte-identical to the seed's
};

std::uint64_t fold(const std::vector<Point>& pts, std::uint64_t acc) {
  for (const Point& p : pts) {
    acc = acc * 1099511628211ULL + p.at +
          static_cast<std::uint64_t>(p.value);
  }
  return acc;
}

bool same_points(const std::vector<Point>& a, const std::vector<Point>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].at != b[i].at || a[i].value != b[i].value) return false;
  }
  return true;
}

// Downsample oracle: bucket boundaries/timestamps must match exactly, but
// averages may differ from the seed in the final ulp because the fast
// path merges per-chunk rollup sums instead of summing points strictly
// left-to-right (timeseries.hpp documents this). The current workload is
// integer-valued, where both summation orders are exact; the tolerance
// keeps the equivalence gate from going flaky if the workload ever
// carries non-integer values.
bool same_points_approx(const std::vector<Point>& a,
                        const std::vector<Point>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].at != b[i].at) return false;
    const double x = a[i].value;
    const double y = b[i].value;
    if (x == y) continue;
    const double tol = 4.0 * std::numeric_limits<double>::epsilon() *
                       std::max(std::fabs(x), std::fabs(y));
    if (!(std::fabs(x - y) <= tol)) return false;
  }
  return true;
}

// Narrow trailing-window queries (the dashboard/rule-engine shape): the
// seed scans the full series per query; the fast path binary-searches to
// the window.
RangeResult bench_query() {
  const auto pts = make_points();
  const sim::Time span = pts.back().at;
  backend::TimeSeriesStore fast;
  RefStore naive;
  const SeriesId id = fast.intern("s");
  fast.append_batch(id, pts.data(), pts.size());
  for (const Point& p : pts) naive.append("s", p.at, p.value);

  std::vector<std::pair<sim::Time, sim::Time>> windows;
  Lcg rng{99};
  for (int q = 0; q < kQueries; ++q) {
    const sim::Time from = rng.below(span);
    windows.emplace_back(from, from + span / 1000);  // ~0.1% of the range
  }

  RangeResult r;
  {
    const double t0 = now_seconds();
    for (const auto& [from, to] : windows) {
      r.checksum = fold(fast.query(id, from, to), r.checksum);
    }
    const double wall = now_seconds() - t0;
    r.fast_per_sec = kQueries / wall;
  }
  {
    std::uint64_t check = 0;
    const double t0 = now_seconds();
    for (const auto& [from, to] : windows) {
      check = fold(naive.query("s", from, to), check);
    }
    const double wall = now_seconds() - t0;
    r.naive_per_sec = kQueries / wall;
    if (check != r.checksum) r.identical = false;
  }
  // Element-wise spot check on top of the checksum equality.
  r.identical = r.identical &&
                same_points(fast.query(id, windows[0].first,
                                       windows[0].second),
                            naive.query("s", windows[0].first,
                                        windows[0].second));
  return r;
}

// Full-range bucket averages: the seed copies the range then rescans it;
// the fast path merges whole-chunk rollups.
RangeResult bench_downsample() {
  const auto pts = make_points();
  const sim::Time span = pts.back().at;
  backend::TimeSeriesStore fast;
  RefStore naive;
  const SeriesId id = fast.intern("s");
  fast.append_batch(id, pts.data(), pts.size());
  for (const Point& p : pts) naive.append("s", p.at, p.value);

  // Buckets comfortably wider than a chunk's time span (~256 * 1000).
  const sim::Duration bucket = span / 2000;

  RangeResult r;
  {
    const double t0 = now_seconds();
    for (int q = 0; q < kDownsamples; ++q) {
      r.checksum = fold(fast.downsample(id, 0, span, bucket), r.checksum);
    }
    const double wall = now_seconds() - t0;
    r.fast_per_sec = kDownsamples / wall;
  }
  {
    const double t0 = now_seconds();
    for (int q = 0; q < kDownsamples; ++q) {
      (void)fold(naive.downsample("s", 0, span, bucket), 0);
    }
    const double wall = now_seconds() - t0;
    r.naive_per_sec = kDownsamples / wall;
  }
  // Cross-implementation check is element-wise with an ulp tolerance on
  // the averages (see same_points_approx); r.checksum still gates
  // cross-rep determinism of the fast path exactly.
  r.identical =
      r.identical && same_points_approx(fast.downsample(id, 0, span, bucket),
                                        naive.downsample("s", 0, span, bucket));
  return r;
}

struct FanoutResult {
  double fast_per_sec = 0;
  double naive_per_sec = 0;
  std::uint64_t delivered = 0;
  bool identical = true;  // same deliveries in the same order
};

// 10k subscriptions shaped like a real deployment: mostly exact
// per-device topics plus a tail of wildcard dashboards/rules; each
// publish matches only a handful of them.
FanoutResult bench_fanout() {
  std::vector<std::string> filters;
  filters.reserve(kSubscribers);
  for (std::size_t i = 0; i < kSubscribers - 1000; ++i) {
    filters.push_back("site/" + std::to_string(i % 3000) + "/obj/" +
                      std::to_string(i / 3000));
  }
  for (std::size_t i = 0; i < 1000; ++i) {
    switch (i % 4) {
      case 0: filters.push_back("site/" + std::to_string(i) + "/+/0"); break;
      case 1: filters.push_back("site/" + std::to_string(i) + "/#"); break;
      case 2: filters.push_back("+/" + std::to_string(i) + "/obj/1"); break;
      default: filters.push_back("site/+/obj/" + std::to_string(i % 3));
    }
  }
  std::vector<std::string> topics;
  topics.reserve(kPublishes);
  Lcg rng{7};
  for (int i = 0; i < kPublishes; ++i) {
    topics.push_back("site/" + std::to_string(rng.below(3000)) + "/obj/" +
                     std::to_string(rng.below(3)));
  }
  const std::string payload = "21.5000";

  // Handlers log their subscription index: the logs double as the
  // delivery-order oracle and as (identical) per-delivery work.
  std::vector<std::uint32_t> fast_log, naive_log;
  backend::TopicBus fast;
  RefBus naive;
  for (std::size_t i = 0; i < filters.size(); ++i) {
    const auto idx = static_cast<std::uint32_t>(i);
    fast.subscribe(filters[i], [&fast_log, idx](const std::string&,
                                                BytesView) {
      fast_log.push_back(idx);
    });
    naive.subscribe(filters[i], [&naive_log, idx](const std::string&,
                                                  BytesView) {
      naive_log.push_back(idx);
    });
  }

  FanoutResult r;
  {
    const double t0 = now_seconds();
    for (const std::string& t : topics) fast.publish(t, payload);
    const double wall = now_seconds() - t0;
    r.fast_per_sec = kPublishes / wall;
  }
  {
    const BytesView view(
        reinterpret_cast<const std::uint8_t*>(payload.data()),
        payload.size());
    const double t0 = now_seconds();
    for (const std::string& t : topics) naive.publish(t, view);
    const double wall = now_seconds() - t0;
    r.naive_per_sec = kPublishes / wall;
  }
  r.delivered = fast_log.size();
  r.identical = fast_log == naive_log;
  return r;
}

// ---- measurement ------------------------------------------------------

constexpr std::size_t kWorkloads = 4;  // append, query, downsample, fanout

struct TaskResult {
  AppendResult append;
  RangeResult query;
  RangeResult down;
  FanoutResult fanout;
};

struct Best {
  AppendResult append;
  RangeResult query;
  RangeResult down;
  FanoutResult fanout;
  bool identical = true;
  bool deterministic = true;
};

void take_best(double& best, double cur) {
  if (cur > best) best = cur;
}

Best measure(runner::Engine& eng, std::uint64_t reps) {
  const std::size_t tasks = static_cast<std::size_t>(reps) * kWorkloads;
  std::vector<TaskResult> slots(tasks);
  eng.run(tasks, [&](std::size_t t) {
    switch (t % kWorkloads) {
      case 0: slots[t].append = bench_append(); break;
      case 1: slots[t].query = bench_query(); break;
      case 2: slots[t].down = bench_downsample(); break;
      default: slots[t].fanout = bench_fanout(); break;
    }
  });

  Best best;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    const std::size_t base = static_cast<std::size_t>(rep) * kWorkloads;
    const TaskResult& s0 = slots[0];
    take_best(best.append.fast_per_sec, slots[base].append.fast_per_sec);
    take_best(best.append.naive_per_sec, slots[base].append.naive_per_sec);
    take_best(best.query.fast_per_sec, slots[base + 1].query.fast_per_sec);
    take_best(best.query.naive_per_sec, slots[base + 1].query.naive_per_sec);
    take_best(best.down.fast_per_sec, slots[base + 2].down.fast_per_sec);
    take_best(best.down.naive_per_sec, slots[base + 2].down.naive_per_sec);
    take_best(best.fanout.fast_per_sec,
              slots[base + 3].fanout.fast_per_sec);
    take_best(best.fanout.naive_per_sec,
              slots[base + 3].fanout.naive_per_sec);
    best.identical = best.identical && slots[base + 1].query.identical &&
                     slots[base + 2].down.identical &&
                     slots[base + 3].fanout.identical;
    // Identical worlds must produce identical counters/checksums.
    if (slots[base].append.checksum != s0.append.checksum ||
        slots[base + 1].query.checksum != slots[1].query.checksum ||
        slots[base + 2].down.checksum != slots[2].down.checksum ||
        slots[base + 3].fanout.delivered != slots[3].fanout.delivered) {
      std::printf("FAIL: rep %llu diverged from rep 0\n",
                  static_cast<unsigned long long>(rep));
      best.deterministic = false;
    }
  }
  best.append.checksum = slots[0].append.checksum;
  best.query.checksum = slots[1].query.checksum;
  best.down.checksum = slots[2].down.checksum;
  best.fanout.delivered = slots[3].fanout.delivered;
  return best;
}

/// Gated by --compare: the speedups over the embedded seed versions.
constexpr const char* kGated[] = {"query_speedup", "downsample_speedup",
                                  "publish_speedup"};

}  // namespace

int main(int argc, char** argv) {
  std::string label = "current";
  std::string out_path = "BENCH_backend.json";
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
    base_line = bench::compare_baseline(compare_path, "bench_backend");
    if (base_line.empty()) return 3;
  }

  bench::print_header(
      "PERF: backend-tier hot paths (store + pub/sub bus)",
      "indexed queries/rollups and trie fan-out must beat the seed's "
      "linear scans by 10x/10x/5x with identical observable behavior");

  runner::Engine eng(static_cast<unsigned>(jobs));
  const Best best = measure(eng, reps);

  const double query_speedup =
      best.query.fast_per_sec / best.query.naive_per_sec;
  const double down_speedup =
      best.down.fast_per_sec / best.down.naive_per_sec;
  const double pub_speedup =
      best.fanout.fast_per_sec / best.fanout.naive_per_sec;

  std::printf("best of %llu rep(s), jobs=%u\n",
              static_cast<unsigned long long>(reps), eng.jobs());
  std::printf("ts_append     (%zu pts):   %12.0f pts/s   (seed %12.0f, x%.1f)\n",
              kPoints, best.append.fast_per_sec, best.append.naive_per_sec,
              best.append.fast_per_sec / best.append.naive_per_sec);
  std::printf("ts_query      (%d win):    %12.0f q/s     (seed %12.0f, x%.1f)\n",
              kQueries, best.query.fast_per_sec, best.query.naive_per_sec,
              query_speedup);
  std::printf("ts_downsample (%d calls):   %12.0f ds/s    (seed %12.0f, x%.1f)\n",
              kDownsamples, best.down.fast_per_sec, best.down.naive_per_sec,
              down_speedup);
  std::printf("bus_fanout    (%zu subs): %12.0f pub/s   (seed %12.0f, x%.1f)\n",
              kSubscribers, best.fanout.fast_per_sec,
              best.fanout.naive_per_sec, pub_speedup);
  std::printf("equivalence: %s (query byte-identical, downsample within "
              "ulp tolerance, deliveries in identical order)\n",
              best.identical ? "OK" : "FAILED");

  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "\"ts_points\": %zu, \"subscribers\": %zu, "
      "\"append_per_sec\": %.0f, \"naive_append_per_sec\": %.0f, "
      "\"query_per_sec\": %.1f, \"naive_query_per_sec\": %.1f, "
      "\"query_speedup\": %.1f, "
      "\"downsample_per_sec\": %.1f, \"naive_downsample_per_sec\": %.1f, "
      "\"downsample_speedup\": %.1f, "
      "\"publish_per_sec\": %.0f, \"naive_publish_per_sec\": %.0f, "
      "\"publish_speedup\": %.1f, "
      "\"delivered\": %llu, \"reps\": %llu, \"jobs\": %u",
      kPoints, kSubscribers, best.append.fast_per_sec,
      best.append.naive_per_sec, best.query.fast_per_sec,
      best.query.naive_per_sec, query_speedup, best.down.fast_per_sec,
      best.down.naive_per_sec, down_speedup, best.fanout.fast_per_sec,
      best.fanout.naive_per_sec, pub_speedup,
      static_cast<unsigned long long>(best.fanout.delivered),
      static_cast<unsigned long long>(reps), eng.jobs());
  const std::string line =
      bench::record_run(out_path, "bench_backend", label, buf);
  // The acceptance floors hold whether or not a baseline is given.
  const bench::Floor floors[] = {{"query_speedup", query_speedup, 10.0},
                                 {"downsample_speedup", down_speedup, 10.0},
                                 {"publish_speedup", pub_speedup, 5.0}};
  const bool floors_ok = bench::floor_gate(floors);

  bool gate_ok = true;
  if (!base_line.empty()) {
    gate_ok = bench::ratio_gate(base_line, line, kGated, min_ratio);
    // The fan-out's delivery count is exact on every host: a change in it
    // is a change in what the bus does, whatever the timings say.
    gate_ok = bench::digest_gate(base_line, line, "delivered") && gate_ok;
  }
  if (!best.deterministic) {
    std::printf("determinism gate: FAILED (results diverged across reps)\n");
  }
  return best.identical && best.deterministic && floors_ok && gate_ok ? 0
                                                                      : 1;
}
