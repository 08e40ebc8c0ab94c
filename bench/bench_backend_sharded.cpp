// Sharded backend-tier scaling benchmark (DESIGN.md §4g).
//
// bench_backend measures the single-shard fast paths; this harness
// measures the *sharded* tier built on top of them, on a deployment-scale
// workload — 10M points across 4096 series (1024 sites) and 100k
// shard-affine subscriptions — at several shard counts:
//
//   1. ingest    — append_bulk of the full 10M-point load, one worker
//                  per shard.
//   2. agg_query — cross-shard rollup aggregation (aggregate_each +
//                  aggregate_many) over every series.
//   3. dispatch  — publish_batch_parallel of a 50k-message multi-site
//                  batch into the 100k subscriptions.
//
// The single-shard TimeSeriesStore/TopicBus run the identical workload
// as the oracle. Every configuration's artifacts — per-series aggregate
// bit patterns, downsample/query folds, per-subscription delivery folds
// in global subscription order — must be byte-identical to the oracle at
// EVERY shard count and worker count; any divergence fails the run.
//
// Scaling gate: combined (ingest + agg + dispatch) wall time at the
// 4-shard configuration must beat the 1-shard configuration by
// --min-scaling (default 3.0). The gate is enforced only when the
// machine has >= 4 hardware threads (CI runners); on smaller or busy
// machines the speedup is reported as informational, exactly like
// bench_runner's scaling line.
//
// Results append to BENCH_backend_sharded.json:
//
//   ./bench_backend_sharded [label] [output.json] [--reps=N]
//                           [--compare=BASELINE.json] [--min-ratio=R]
//                           [--min-scaling=S]
//
// Exit codes: 0 pass, 1 a gate failed, 2 bad arguments, 3 the --compare
// baseline is missing or holds no run line.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "backend/sharded.hpp"
#include "backend/timeseries.hpp"
#include "backend/topic_bus.hpp"
#include "bench_util.hpp"
#include "runner/engine.hpp"

namespace {

using namespace iiot;
using backend::Point;
using backend::ShardedBus;
using backend::ShardedStore;

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// ---- workload ---------------------------------------------------------

constexpr std::size_t kSites = 1'024;
constexpr std::size_t kSeries = 4'096;
constexpr std::size_t kPoints = 10'000'000;  // total, across all series
constexpr std::size_t kSubscribers = 100'000;
constexpr std::size_t kMessages = 50'000;
constexpr int kAggReps = 16;

struct Workload {
  std::vector<std::string> series;            // kSeries names
  std::vector<std::vector<Point>> points;     // per-series, time-monotone
  std::vector<std::string> filters;           // kSubscribers, shard-affine
  std::vector<backend::BusMessage> messages;  // kMessages, bursty topics
  sim::Time span = 0;
};

Workload make_workload() {
  Workload w;
  w.series.reserve(kSeries);
  w.points.resize(kSeries);
  for (std::size_t i = 0; i < kSeries; ++i) {
    w.series.push_back("site" + std::to_string(i % kSites) + "/dev" +
                       std::to_string(i / kSites) + "/3303");
  }
  Lcg rng{4242};
  const std::size_t per_series = kPoints / kSeries;
  for (std::size_t i = 0; i < kSeries; ++i) {
    auto& pts = w.points[i];
    pts.reserve(per_series);
    sim::Time t = rng.below(500);
    for (std::size_t k = 0; k < per_series; ++k) {
      t += 500 + rng.below(1000);
      pts.push_back(Point{t, static_cast<double>(rng.below(1'000'000))});
    }
    if (t > w.span) w.span = t;
  }
  // 100k subscriptions, all literal-rooted (shard-affine — the
  // publish_batch_parallel contract): mostly exact per-device topics
  // plus per-site dashboards.
  w.filters.reserve(kSubscribers);
  for (std::size_t i = 0; i < kSubscribers; ++i) {
    const std::string site = "site" + std::to_string(i % kSites);
    switch (i % 5) {
      case 0:
      case 1:
      case 2:
        w.filters.push_back(site + "/dev" + std::to_string(i % 4) +
                            "/3303");
        break;
      case 3: w.filters.push_back(site + "/+/3303"); break;
      default: w.filters.push_back(site + "/#");
    }
  }
  // Bursty multi-site batch: runs of 1-8 messages per topic, so the
  // same-topic coalescing path is exercised on every shard.
  Lcg mrng{77};
  w.messages.reserve(kMessages);
  while (w.messages.size() < kMessages) {
    const std::string topic =
        "site" + std::to_string(mrng.below(kSites)) + "/dev" +
        std::to_string(mrng.below(4)) + "/" +
        (mrng.below(4) == 0 ? "3300" : "3303");
    const std::uint64_t burst = 1 + mrng.below(8);
    for (std::uint64_t b = 0; b < burst && w.messages.size() < kMessages;
         ++b) {
      backend::BusMessage m;
      m.topic = topic;
      const std::string pay = std::to_string(w.messages.size());
      m.payload.assign(
          reinterpret_cast<const std::uint8_t*>(pay.data()),
          reinterpret_cast<const std::uint8_t*>(pay.data()) + pay.size());
      w.messages.push_back(std::move(m));
    }
  }
  return w;
}

// ---- artifacts --------------------------------------------------------

std::uint64_t fold_u64(std::uint64_t acc, std::uint64_t v) {
  return acc * 1099511628211ULL + v;
}

std::uint64_t fold_bits(std::uint64_t acc, double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return fold_u64(acc, bits);
}

/// Byte-exact store artifact: per-series aggregates over the full range
/// and two interior windows, a downsample fold on every 64th series, and
/// a raw query fold on every 256th. Identical folds <=> identical bytes
/// in every user-visible result.
template <typename StoreT, typename RefT>
std::uint64_t store_artifact(const StoreT& store,
                             const std::vector<RefT>& refs, sim::Time span) {
  std::uint64_t acc = 14695981039346656037ULL;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    for (const auto& [from, to] :
         {std::pair<sim::Time, sim::Time>{0, span},
          {span / 4, span / 2},
          {span / 3, span / 3 + span / 16}}) {
      const agg::PartialAggregate pa = store.aggregate(refs[i], from, to);
      acc = fold_u64(acc, pa.count);
      acc = fold_bits(acc, pa.sum);
      acc = fold_bits(acc, pa.min);
      acc = fold_bits(acc, pa.max);
    }
    acc = fold_u64(acc, store.points(refs[i]));
    if (i % 64 == 0) {
      for (const Point& p : store.downsample(refs[i], 0, span, span / 500)) {
        acc = fold_u64(acc, static_cast<std::uint64_t>(p.at));
        acc = fold_bits(acc, p.value);
      }
    }
    if (i % 256 == 0) {
      for (const Point& p :
           store.query(refs[i], span / 5, span / 5 + span / 50)) {
        acc = fold_u64(acc, static_cast<std::uint64_t>(p.at));
        acc = fold_bits(acc, p.value);
      }
    }
  }
  return acc;
}

/// Per-subscription delivery folds, combined in global subscription
/// order: equal <=> every subscription saw the same messages in the same
/// order.
std::uint64_t bus_artifact(const std::vector<std::uint64_t>& per_sub) {
  std::uint64_t acc = 14695981039346656037ULL;
  for (const std::uint64_t v : per_sub) acc = fold_u64(acc, v);
  return acc;
}

std::uint64_t fold_delivery(std::uint64_t acc, const std::string& topic,
                            BytesView payload) {
  for (const char c : topic) {
    acc = fold_u64(acc, static_cast<std::uint8_t>(c));
  }
  for (std::size_t i = 0; i < payload.size(); ++i) {
    acc = fold_u64(acc, payload[i]);
  }
  return acc;
}

// ---- per-configuration run --------------------------------------------

struct ConfigResult {
  std::uint32_t shards = 0;
  double ingest_per_sec = 0;
  double agg_per_sec = 0;       // per-series aggregates per second
  double dispatch_per_sec = 0;  // messages per second
  double combined_wall = 0;
  std::uint64_t store_art = 0;
  std::uint64_t bus_art = 0;
  std::uint64_t total_sum_bits = 0;  // aggregate_many grand total
  std::uint64_t delivered = 0;
  std::uint64_t string_appends = 0;
};

ConfigResult run_sharded_config(const Workload& w, std::uint32_t shards,
                                unsigned workers) {
  ConfigResult r;
  r.shards = shards;
  runner::Engine pool(workers);
  runner::Engine* pool_ptr = shards > 1 ? &pool : nullptr;

  ShardedStore store(shards, {}, pool_ptr);
  std::vector<ShardedStore::SeriesRef> refs;
  refs.reserve(kSeries);
  for (const std::string& name : w.series) {
    refs.push_back(store.intern(name));
  }
  std::vector<ShardedStore::Slice> slices;
  slices.reserve(kSeries);
  for (std::size_t i = 0; i < kSeries; ++i) {
    slices.push_back({refs[i], w.points[i].data(), w.points[i].size()});
  }
  {
    const double t0 = now_seconds();
    store.append_bulk(slices);
    const double wall = now_seconds() - t0;
    r.ingest_per_sec = static_cast<double>(kPoints) / wall;
    r.combined_wall += wall;
  }
  {
    const double t0 = now_seconds();
    std::vector<agg::PartialAggregate> parts(refs.size());
    agg::PartialAggregate total;
    for (int rep = 0; rep < kAggReps; ++rep) {
      store.aggregate_each(refs, 0, w.span, parts.data());
      total = store.aggregate_many(refs, 0, w.span);
    }
    const double wall = now_seconds() - t0;
    r.agg_per_sec =
        static_cast<double>(2 * kAggReps * refs.size()) / wall;
    r.combined_wall += wall;
    r.total_sum_bits = fold_bits(fold_u64(0, total.count), total.sum);
  }
  r.store_art = store_artifact(store, refs, w.span);
  r.string_appends = store.stats().string_appends;

  ShardedBus bus(shards, pool_ptr);
  std::vector<std::uint64_t> per_sub(kSubscribers, 0);
  for (std::size_t i = 0; i < w.filters.size(); ++i) {
    std::uint64_t* slot = &per_sub[i];
    bus.subscribe(w.filters[i],
                  [slot](const std::string& topic, BytesView p) {
                    *slot = fold_delivery(*slot, topic, p);
                  });
  }
  {
    const double t0 = now_seconds();
    bus.publish_batch_parallel(w.messages);
    const double wall = now_seconds() - t0;
    r.dispatch_per_sec = static_cast<double>(kMessages) / wall;
    r.combined_wall += wall;
  }
  r.bus_art = bus_artifact(per_sub);
  r.delivered = bus.delivered();
  return r;
}

/// The single-shard implementations on the identical workload: the
/// byte-exactness oracle (and the classic-plane throughput reference).
ConfigResult run_oracle(const Workload& w) {
  ConfigResult r;
  r.shards = 0;
  backend::TimeSeriesStore store;
  std::vector<backend::SeriesId> refs;
  refs.reserve(kSeries);
  for (const std::string& name : w.series) {
    refs.push_back(store.intern(name));
  }
  {
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < kSeries; ++i) {
      store.append_batch(refs[i], w.points[i].data(), w.points[i].size());
    }
    const double wall = now_seconds() - t0;
    r.ingest_per_sec = static_cast<double>(kPoints) / wall;
    r.combined_wall += wall;
  }
  {
    const double t0 = now_seconds();
    agg::PartialAggregate total;
    for (int rep = 0; rep < kAggReps; ++rep) {
      agg::PartialAggregate t;
      for (const auto ref : refs) {
        t.merge(store.aggregate(ref, 0, w.span));
      }
      total = t;
    }
    const double wall = now_seconds() - t0;
    r.agg_per_sec = static_cast<double>(kAggReps * refs.size()) / wall;
    r.combined_wall += wall;
    r.total_sum_bits = fold_bits(fold_u64(0, total.count), total.sum);
  }
  r.store_art = store_artifact(store, refs, w.span);
  r.string_appends = store.stats().string_appends;

  backend::TopicBus bus;
  std::vector<std::uint64_t> per_sub(kSubscribers, 0);
  for (std::size_t i = 0; i < w.filters.size(); ++i) {
    std::uint64_t* slot = &per_sub[i];
    bus.subscribe(w.filters[i],
                  [slot](const std::string& topic, BytesView p) {
                    *slot = fold_delivery(*slot, topic, p);
                  });
  }
  {
    const double t0 = now_seconds();
    bus.publish_batch(w.messages);
    const double wall = now_seconds() - t0;
    r.dispatch_per_sec = static_cast<double>(kMessages) / wall;
    r.combined_wall += wall;
  }
  r.bus_art = bus_artifact(per_sub);
  r.delivered = bus.delivered();
  return r;
}

/// Gated by --compare: single-shard throughput of each phase.
constexpr const char* kGated[] = {"ingest_per_sec_s1", "agg_per_sec_s1",
                                  "dispatch_per_sec_s1"};

}  // namespace

int main(int argc, char** argv) {
  std::string label = "current";
  std::string out_path = "BENCH_backend_sharded.json";
  std::string compare_path;
  std::uint64_t reps = 1;
  double min_ratio = 0.6;
  double min_scaling = 3.0;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (bench::flag_u64(arg, "--reps", reps) ||
        bench::flag_str(arg, "--compare", compare_path) ||
        bench::flag_double(arg, "--min-ratio", min_ratio) ||
        bench::flag_double(arg, "--min-scaling", min_scaling)) {
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
    base_line = bench::compare_baseline(compare_path, "bench_backend_sharded");
    if (base_line.empty()) return 3;
  }

  bench::print_header(
      "PERF: sharded backend tier (multi-core store + pub/sub front)",
      "ingest + rollup aggregation + dispatch must scale >= 3x at 4 "
      "shards with byte-identical artifacts at every shard count");

  const unsigned cores = runner::hardware_jobs();
  std::vector<std::uint32_t> shard_configs = {1, 2, 4};
  if (cores > 4) shard_configs.push_back(cores);

  const Workload w = make_workload();
  std::printf("workload: %zu points, %zu series, %zu sites, %zu subs, "
              "%zu messages, cores=%u\n",
              kPoints, kSeries, kSites, kSubscribers, kMessages, cores);

  const ConfigResult oracle = run_oracle(w);
  std::printf("oracle (single store/bus): ingest %.0f pts/s, agg %.0f "
              "series-aggs/s, dispatch %.0f msg/s, delivered %llu\n",
              oracle.ingest_per_sec, oracle.agg_per_sec,
              oracle.dispatch_per_sec,
              static_cast<unsigned long long>(oracle.delivered));

  bool identical = true;
  bool deterministic = true;
  if (oracle.string_appends != 0) {
    std::printf("FAIL: oracle used the string-append shim %llu times "
                "(hot path must stay interned)\n",
                static_cast<unsigned long long>(oracle.string_appends));
    identical = false;
  }

  std::vector<ConfigResult> best(shard_configs.size());
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    for (std::size_t c = 0; c < shard_configs.size(); ++c) {
      const std::uint32_t shards = shard_configs[c];
      const ConfigResult r = run_sharded_config(w, shards, shards);
      if (r.store_art != oracle.store_art ||
          r.total_sum_bits != oracle.total_sum_bits) {
        std::printf("FAIL: store artifacts diverged at %u shards\n",
                    shards);
        identical = false;
      }
      if (r.bus_art != oracle.bus_art || r.delivered != oracle.delivered) {
        std::printf("FAIL: delivery artifacts diverged at %u shards\n",
                    shards);
        identical = false;
      }
      if (r.string_appends != 0) {
        std::printf("FAIL: sharded config %u used the string-append shim "
                    "%llu times\n",
                    shards,
                    static_cast<unsigned long long>(r.string_appends));
        identical = false;
      }
      if (rep == 0) {
        best[c] = r;
      } else {
        if (r.store_art != best[c].store_art ||
            r.bus_art != best[c].bus_art) {
          std::printf("FAIL: rep %llu diverged at %u shards\n",
                      static_cast<unsigned long long>(rep), shards);
          deterministic = false;
        }
        if (r.ingest_per_sec > best[c].ingest_per_sec) {
          best[c].ingest_per_sec = r.ingest_per_sec;
        }
        if (r.agg_per_sec > best[c].agg_per_sec) {
          best[c].agg_per_sec = r.agg_per_sec;
        }
        if (r.dispatch_per_sec > best[c].dispatch_per_sec) {
          best[c].dispatch_per_sec = r.dispatch_per_sec;
        }
        if (r.combined_wall < best[c].combined_wall) {
          best[c].combined_wall = r.combined_wall;
        }
      }
    }
  }

  std::printf("\n%-8s %16s %18s %16s %12s\n", "shards", "ingest pts/s",
              "agg series-aggs/s", "dispatch msg/s", "combined s");
  for (const ConfigResult& r : best) {
    std::printf("%-8u %16.0f %18.0f %16.0f %12.3f\n", r.shards,
                r.ingest_per_sec, r.agg_per_sec, r.dispatch_per_sec,
                r.combined_wall);
  }

  const ConfigResult& base1 = best[0];
  const ConfigResult& at4 = best[2];  // shard_configs[2] == 4
  const double scaling4 = base1.combined_wall / at4.combined_wall;
  const ConfigResult& widest = best.back();
  const double scaling_max = base1.combined_wall / widest.combined_wall;
  const bool enforce = cores >= 4;
  std::printf("\nscaling: x%.2f at 4 shards, x%.2f at %u shards "
              "(1-shard combined %.3fs)\n",
              scaling4, scaling_max, widest.shards, base1.combined_wall);
  bool scaling_ok = true;
  if (enforce) {
    if (scaling4 < min_scaling && scaling_max < min_scaling) {
      std::printf("FAIL: scaling x%.2f below the x%.1f floor\n",
                  std::max(scaling4, scaling_max), min_scaling);
      scaling_ok = false;
    }
  } else {
    std::printf("scaling informational only (%u core(s) < 4; the x%.1f "
                "floor is enforced on >= 4-core machines)\n",
                cores, min_scaling);
  }
  std::printf("equivalence: %s (aggregates/downsamples/queries bit-"
              "identical, deliveries per-subscription identical at every "
              "shard count)\n",
              identical ? "OK" : "FAILED");

  std::ostringstream run;
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "{\"label\": \"%s\", \"points\": %zu, \"series\": %zu, "
      "\"subscribers\": %zu, \"messages\": %zu, \"cores\": %u, "
      "\"ingest_per_sec_s1\": %.0f, \"agg_per_sec_s1\": %.0f, "
      "\"dispatch_per_sec_s1\": %.0f, "
      "\"ingest_per_sec_s4\": %.0f, \"agg_per_sec_s4\": %.0f, "
      "\"dispatch_per_sec_s4\": %.0f, "
      "\"oracle_ingest_per_sec\": %.0f, \"delivered\": %llu, "
      "\"scaling_4\": %.2f, \"scaling_max\": %.2f, \"max_shards\": %u, "
      "\"scaling_enforced\": %d, \"reps\": %llu}",
      label.c_str(), kPoints, kSeries, kSubscribers, kMessages, cores,
      base1.ingest_per_sec, base1.agg_per_sec, base1.dispatch_per_sec,
      at4.ingest_per_sec, at4.agg_per_sec, at4.dispatch_per_sec,
      oracle.ingest_per_sec,
      static_cast<unsigned long long>(oracle.delivered), scaling4,
      scaling_max, widest.shards, enforce ? 1 : 0,
      static_cast<unsigned long long>(reps));
  run << buf;
  bench::append_bench_run(out_path, "bench_backend_sharded", run.str());
  std::printf("\nwrote %s (label \"%s\")\n", out_path.c_str(),
              label.c_str());

  const bool gate_ok =
      base_line.empty() ||
      bench::ratio_gate(base_line, run.str(), kGated, min_ratio);
  if (!deterministic) {
    std::printf("determinism gate: FAILED (artifacts diverged across "
                "reps)\n");
  }
  return identical && deterministic && scaling_ok && gate_ok ? 0 : 1;
}
