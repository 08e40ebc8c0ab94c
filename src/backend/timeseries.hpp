// In-memory time-series store — the data-storage tier of Fig. 1.
//
// Backend fast path (DESIGN.md §4f): series names are interned to dense
// SeriesId integers (one hash at registration, integer indexing on every
// access after), points live in chunked append-friendly arrays, and each
// full chunk carries a precomputed agg::PartialAggregate rollup
// (count/sum/min/max). Per-series time monotonicity (out-of-order points
// are clamped, as in the seed store) makes every range lookup a binary
// search over chunk boundaries instead of a linear scan, and lets
// downsample() read whole-chunk rollups instead of rescanning raw points.
//
// The string-keyed API of the seed store is preserved as a thin shim over
// the SeriesId hot path; query results are byte-identical to the seed
// implementation. Determinism contract: no RNG, no scheduler, results are
// a pure function of the append sequence. Bucket averages merge per-chunk
// partial sums in chunk order, which is deterministic but may differ from
// strict left-to-right summation in the final ulp for adversarial
// floating-point inputs (exact for integer-valued samples).
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "agg/aggregate.hpp"
#include "sim/time.hpp"

namespace iiot::backend {

struct Point {
  sim::Time at = 0;
  double value = 0.0;
};

struct RetentionPolicy {
  sim::Duration max_age = 0;      // 0 = unlimited
  std::size_t max_points = 0;     // 0 = unlimited
};

/// Dense series handle returned by TimeSeriesStore::intern().
using SeriesId = std::uint32_t;
inline constexpr SeriesId kInvalidSeries =
    std::numeric_limits<SeriesId>::max();

/// Struct-backed counters in the obs::MetricsRegistry attach_counter
/// style: plain uint64 increments on the hot path, snapshot-time reads.
struct TimeSeriesStats {
  std::uint64_t appends = 0;       // points accepted (incl. batched)
  std::uint64_t evicted = 0;       // points dropped by retention
  std::uint64_t queries = 0;       // query()/visit() range lookups
  std::uint64_t downsamples = 0;   // downsample() calls
  std::uint64_t rollup_hits = 0;   // chunks answered from their rollup
  std::uint64_t chunk_scans = 0;   // chunks that needed a raw point scan
  /// Writes through the string-keyed append shim, which interns per call.
  /// Hot ingest paths (core::System's measurement handler, batched bulk
  /// appends) resolve a SeriesId once and must keep this cold — tests
  /// assert it stays 0 across System ingest bursts.
  std::uint64_t string_appends = 0;
};

class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(RetentionPolicy retention = {})
      : retention_(retention) {}

  // ---- interning ----------------------------------------------------
  /// Registers `series` (idempotent) and returns its dense id. The one
  /// place a string is hashed; every accessor below indexes by integer.
  SeriesId intern(std::string_view series);
  /// Id of an already-registered series, or kInvalidSeries. Never
  /// registers — string-shim reads go through this so that, as in the
  /// seed store, querying an unknown series does not create it.
  [[nodiscard]] SeriesId find(std::string_view series) const;
  [[nodiscard]] const std::string& name(SeriesId id) const;

  // ---- hot path (SeriesId-indexed) ----------------------------------
  void append(SeriesId id, sim::Time at, double value);
  /// Batched append: same final state, counters, and retention outcome
  /// as the equivalent sequence of single appends (monotone clamping
  /// makes the final retention pass dominate the per-append ones).
  void append_batch(SeriesId id, const Point* pts, std::size_t n);

  [[nodiscard]] std::optional<Point> latest(SeriesId id) const;
  [[nodiscard]] std::vector<Point> query(SeriesId id, sim::Time from,
                                         sim::Time to) const;
  [[nodiscard]] std::vector<Point> downsample(SeriesId id, sim::Time from,
                                              sim::Time to,
                                              sim::Duration bucket) const;
  /// Decomposable aggregate over [from, to]: whole chunks inside the
  /// range are merged from their rollups without touching raw points.
  [[nodiscard]] agg::PartialAggregate aggregate(SeriesId id, sim::Time from,
                                                sim::Time to) const;
  [[nodiscard]] std::size_t points(SeriesId id) const {
    return id < logs_.size() ? logs_[id].total : 0;
  }

  /// Non-allocating range visitor: invokes f(const Point&) for every
  /// point with at in [from, to], in time order. The zero-copy overload
  /// query() and the rule engine's windowed conditions build on.
  template <typename F>
  void visit(SeriesId id, sim::Time from, sim::Time to, F&& f) const {
    ++stats_.queries;
    if (id >= logs_.size() || to < from) return;
    const SeriesLog& log = logs_[id];
    for (std::size_t ci = chunk_lower_bound(log, from);
         ci < log.chunks.size(); ++ci) {
      const Chunk& c = log.chunks[ci];
      if (c.first_at() > to) break;
      const Point* p = c.pts.data() + c.head;
      const Point* end = c.pts.data() + c.pts.size();
      if (p->at < from) p = lower_bound_at(p, end, from);
      for (; p != end; ++p) {
        if (p->at > to) return;
        f(*p);
      }
    }
  }

  // ---- string shims (seed-store API, preserved) ---------------------
  void append(const std::string& series, sim::Time at, double value) {
    ++stats_.string_appends;  // hot callers must pre-intern (see stats)
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
  [[nodiscard]] std::size_t series_count() const { return names_.size(); }
  [[nodiscard]] std::uint64_t total_appended() const {
    return stats_.appends;
  }
  /// Registered series names in sorted order (the seed store's map
  /// iteration order).
  [[nodiscard]] std::vector<std::string> series_names() const;

  [[nodiscard]] const TimeSeriesStats& stats() const { return stats_; }

 private:
  /// Chunk capacity: 4 KiB of points — small enough that partial-bucket
  /// scans stay cheap, large enough that rollups shrink downsample work
  /// by ~256x.
  static constexpr std::size_t kChunkCap = 256;

  // Points append at the back; retention erodes `head` forward. `agg`
  // rolls up every point ever appended to the chunk, so it is exact iff
  // head == 0 (only the front chunk can be eroded; consumers raw-scan
  // that one chunk and use rollups everywhere else).
  struct Chunk {
    std::vector<Point> pts;
    std::uint32_t head = 0;
    agg::PartialAggregate agg;

    [[nodiscard]] sim::Time first_at() const { return pts[head].at; }
    [[nodiscard]] sim::Time last_at() const { return pts.back().at; }
  };

  struct SeriesLog {
    std::deque<Chunk> chunks;
    std::size_t total = 0;  // live (non-eroded) points
  };

  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// Index of the first chunk whose last point is >= from.
  static std::size_t chunk_lower_bound(const SeriesLog& log, sim::Time from);
  static const Point* lower_bound_at(const Point* first, const Point* last,
                                     sim::Time from);

  Chunk& writable_chunk(SeriesLog& log);
  void erode_front(SeriesLog& log);
  void enforce_retention(SeriesLog& log, sim::Time now);

  RetentionPolicy retention_;
  std::unordered_map<std::string, SeriesId, StringHash, std::equal_to<>>
      ids_;
  std::vector<std::string> names_;  // id -> name
  std::vector<SeriesLog> logs_;     // id -> log
  mutable TimeSeriesStats stats_;
};

}  // namespace iiot::backend
