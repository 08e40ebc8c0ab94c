// Sharded multi-core backend tier (DESIGN.md §4g).
//
// ShardedStore and ShardedBus partition the series / topic space across N
// shards, where each shard is an UNMODIFIED single-threaded
// TimeSeriesStore / TopicBus — per-shard behavior (chunk rollups, trie
// matching, re-entrancy semantics, retention) is therefore identical to
// the PR 5 fast path by construction, and the differential suites use the
// single-shard implementations as byte-exact oracles.
//
// Partitioning (ShardMap): by the topic's first level, so a measurement,
// its storage series, and every literal-rooted subscription that can
// match it live on the SAME shard. Wildcard-rooted filters ('+'/'#' first
// level) are installed on every shard. A publish therefore touches
// exactly one shard, and one worker can own a shard's bus + store pair
// end to end.
//
// Parallel entry points (append_bulk / aggregate_each / aggregate_many /
// publish_batch_parallel) shard their batch by owner and execute
// per-shard sub-batches on a fixed runner::Engine pool — the PR 4
// claim/aggregate pattern: workers claim whole shards, write into
// index-keyed slots, and never touch another shard's state. All other
// entry points run inline on the calling thread with single-bus/store
// semantics (including nested publishes from handlers).
//
// Determinism contract (matches src/runner):
//   * Each series lives wholly on one shard, so query()/downsample()/
//     aggregate() results are byte-identical to a single store at ANY
//     shard count and ANY worker count.
//   * Cross-shard merge (aggregate_many) merges per-series partials in
//     ARGUMENT order — a canonical order independent of the shard count —
//     so even floating-point sums are bit-identical across shard/thread
//     counts. Per-shard work writes slot i of the output; the merge is a
//     serial fold over those slots.
//   * Delivery order: local SubIds are issued in global subscription
//     order on every shard, so a publish dispatches in ascending global
//     order — exactly the single bus's order restricted to the matching
//     set (which is entirely on the publish's shard; see ShardMap).
//   * publish_batch_parallel preserves per-shard (hence per-topic and
//     per-subscription) message order; cross-shard interleaving is
//     unordered, so handlers must be shard-affine: any state a handler
//     mutates must be keyed by the same first-level partition (or be
//     thread-safe), and handlers must not publish to other shards while a
//     parallel batch is in flight.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "backend/shard_map.hpp"
#include "backend/timeseries.hpp"
#include "backend/topic_bus.hpp"
#include "runner/engine.hpp"

namespace iiot::backend {

/// Struct-backed counters (obs attach_counter style).
struct ShardedStoreStats {
  std::uint64_t bulk_calls = 0;       // append_bulk() invocations
  std::uint64_t bulk_points = 0;      // points ingested through bulk path
  std::uint64_t multi_aggregates = 0; // aggregate_each/_many calls
  std::uint64_t merged_partials = 0;  // per-series partials merged
  std::uint64_t string_appends = 0;   // string-shim appends (keep cold)
};

class ShardedStore {
 public:
  /// Packed (shard << 32 | local) series handle.
  using SeriesRef = std::uint64_t;
  static constexpr SeriesRef kNoSeries = ~0ULL;

  /// One contiguous batch of points for one series (append_bulk input).
  struct Slice {
    SeriesRef ref = kNoSeries;
    const Point* pts = nullptr;
    std::size_t n = 0;
  };

  /// `pool` executes the parallel entry points (null → inline serial;
  /// results are identical either way). The pool is borrowed, not owned,
  /// and must outlive the store's parallel calls. A multi-job pool must
  /// not be re-entered from inside a task (runner::Engine's contract), so
  /// don't call parallel store ops from bus handlers during a parallel
  /// dispatch.
  explicit ShardedStore(std::uint32_t shards, RetentionPolicy retention = {},
                        runner::Engine* pool = nullptr);

  // ---- interning ----------------------------------------------------
  SeriesRef intern(std::string_view series);
  [[nodiscard]] SeriesRef find(std::string_view series) const;
  [[nodiscard]] const std::string& name(SeriesRef ref) const;

  // ---- hot path (SeriesRef-indexed, inline) -------------------------
  void append(SeriesRef ref, sim::Time at, double value);
  void append_batch(SeriesRef ref, const Point* pts, std::size_t n);
  /// Parallel bulk ingest: slices are grouped by owning shard (input
  /// order preserved within a shard) and each shard's group is executed
  /// by exactly one worker. Final state is identical to appending the
  /// slices serially in input order.
  void append_bulk(std::span<const Slice> slices);

  [[nodiscard]] std::optional<Point> latest(SeriesRef ref) const;
  [[nodiscard]] std::vector<Point> query(SeriesRef ref, sim::Time from,
                                         sim::Time to) const;
  [[nodiscard]] std::vector<Point> downsample(SeriesRef ref, sim::Time from,
                                              sim::Time to,
                                              sim::Duration bucket) const;
  [[nodiscard]] agg::PartialAggregate aggregate(SeriesRef ref, sim::Time from,
                                                sim::Time to) const;
  [[nodiscard]] std::size_t points(SeriesRef ref) const;

  // ---- cross-shard merge tier ---------------------------------------
  /// out[i] = aggregate(refs[i], from, to), computed shard-parallel.
  void aggregate_each(std::span<const SeriesRef> refs, sim::Time from,
                      sim::Time to, agg::PartialAggregate* out) const;
  /// Rollup merge across series/shards: aggregate_each + a serial fold in
  /// argument order (canonical across shard/thread counts, see header).
  [[nodiscard]] agg::PartialAggregate aggregate_many(
      std::span<const SeriesRef> refs, sim::Time from, sim::Time to) const;

  // ---- string shims (mirror TimeSeriesStore's seed API) -------------
  void append(const std::string& series, sim::Time at, double value) {
    ++stats_.string_appends;
    append(intern(series), at, value);
  }
  [[nodiscard]] std::optional<Point> latest(const std::string& series) const {
    return latest(find(series));
  }
  [[nodiscard]] std::vector<Point> query(const std::string& series,
                                         sim::Time from, sim::Time to) const {
    return query(find(series), from, to);
  }
  [[nodiscard]] std::vector<Point> downsample(const std::string& series,
                                              sim::Time from, sim::Time to,
                                              sim::Duration bucket) const {
    return downsample(find(series), from, to, bucket);
  }
  [[nodiscard]] std::size_t points(const std::string& series) const {
    return points(find(series));
  }

  // ---- inventory ----------------------------------------------------
  [[nodiscard]] std::size_t series_count() const;
  [[nodiscard]] std::uint64_t total_appended() const;
  [[nodiscard]] std::vector<std::string> series_names() const;  // sorted

  [[nodiscard]] std::uint32_t shard_count() const { return map_.shards(); }
  [[nodiscard]] TimeSeriesStore& shard(std::uint32_t i) { return shards_[i]; }
  [[nodiscard]] const TimeSeriesStore& shard(std::uint32_t i) const {
    return shards_[i];
  }
  [[nodiscard]] const ShardMap& shard_map() const { return map_; }
  [[nodiscard]] const ShardedStoreStats& stats() const { return stats_; }

  static constexpr std::uint32_t shard_of(SeriesRef ref) {
    return static_cast<std::uint32_t>(ref >> 32);
  }
  static constexpr SeriesId local_of(SeriesRef ref) {
    return static_cast<SeriesId>(ref & 0xffffffffULL);
  }

 private:
  static constexpr SeriesRef pack(std::uint32_t shard, SeriesId local) {
    return (static_cast<SeriesRef>(shard) << 32) | local;
  }

  ShardMap map_;
  std::vector<TimeSeriesStore> shards_;
  runner::Engine* pool_ = nullptr;
  std::vector<std::vector<std::uint32_t>> group_;  // append_bulk scratch
  mutable ShardedStoreStats stats_;
};

/// Struct-backed counters for the sharded bus front.
struct ShardedBusStats {
  std::uint64_t parallel_batches = 0;  // publish_batch_parallel() calls
  std::uint64_t routed = 0;            // topic → shard resolutions
  std::uint64_t route_memo_hits = 0;   // resolved from the level memo
};

class ShardedBus {
 public:
  using Handler = TopicBus::Handler;
  using SubId = std::uint64_t;

  /// `pool` is used only by publish_batch_parallel (null → serial).
  explicit ShardedBus(std::uint32_t shards, runner::Engine* pool = nullptr);

  /// Global SubIds are issued in subscription order; a literal-rooted
  /// filter is installed on its owning shard only, a wildcard-rooted one
  /// ('+'/'#' first level) on every shard. Local SubIds on each shard
  /// ascend with the global order, preserving single-bus delivery order.
  SubId subscribe(std::string filter, Handler handler);
  void unsubscribe(SubId id);

  /// Inline single-topic publish: routes to the owning shard and
  /// dispatches with full single-bus semantics (re-entrant handlers,
  /// nested publishes to any shard).
  void publish(const std::string& topic, BytesView payload);
  void publish(const std::string& topic, const std::string& payload) {
    const BytesView view(
        reinterpret_cast<const std::uint8_t*>(payload.data()),
        payload.size());
    publish(topic, view);
  }
  /// Single-topic batch: one route + one matching pass on the owner.
  void publish_batch(const std::string& topic,
                     std::span<const BytesView> payloads);
  /// Multi-topic batch, serial: processed in input order on the calling
  /// thread (same-topic runs coalesced per shard, as TopicBus does).
  void publish_batch(std::span<const BusMessage> msgs);
  /// Multi-topic batch, shard-parallel: messages are partitioned by
  /// owning shard (input order preserved per shard) and dispatched by one
  /// worker per shard. Requires shard-affine handlers (see header).
  void publish_batch_parallel(std::span<const BusMessage> msgs);

  [[nodiscard]] std::size_t subscription_count() const { return active_; }
  [[nodiscard]] std::uint64_t published() const;
  [[nodiscard]] std::uint64_t delivered() const;
  [[nodiscard]] const ShardedBusStats& stats() const { return stats_; }

  [[nodiscard]] std::uint32_t shard_count() const { return map_.shards(); }
  [[nodiscard]] TopicBus& shard(std::uint32_t i) { return shards_[i]; }
  [[nodiscard]] const TopicBus& shard(std::uint32_t i) const {
    return shards_[i];
  }
  [[nodiscard]] const ShardMap& shard_map() const { return map_; }

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  [[nodiscard]] std::uint32_t route(std::string_view topic) const;

  ShardMap map_;
  std::vector<TopicBus> shards_;
  runner::Engine* pool_ = nullptr;
  // Global id -> per-shard local ids (1 entry for literal-rooted filters,
  // shard_count() entries for wildcard-rooted ones).
  std::unordered_map<SubId,
                     std::vector<std::pair<std::uint32_t, TopicBus::SubId>>>
      subs_;
  SubId next_id_ = 1;
  std::size_t active_ = 0;
  // First-level → shard memo: sites repeat, ring lookups don't have to.
  mutable std::unordered_map<std::string, std::uint32_t, StringHash,
                             std::equal_to<>>
      route_memo_;
  std::vector<std::vector<std::uint32_t>> group_;  // parallel-batch scratch
  mutable ShardedBusStats stats_;
};

}  // namespace iiot::backend
