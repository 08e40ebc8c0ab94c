// Reference oracles for the backend fast path (DESIGN.md §4f): the seed
// implementations of the time-series store (map of deques, linear range
// scans) and the topic bus (ordered subscription map, linear
// topic_matches scan), plus the deterministic generator that drives
// their differential workloads. tests/test_backend_fastpath.cpp checks
// TimeSeriesStore and TopicBus against them; bench/bench_backend.cpp
// times them on the same workload and checks the fast results are
// identical.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "backend/timeseries.hpp"
#include "backend/topic_bus.hpp"

namespace iiot::testing {

/// Tiny deterministic generator, so workloads are reproducible without
/// dragging in the stack's Rng. Its output sequence is frozen:
/// bench_backend's 1M-point workload and its committed baseline derive
/// from it.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// Pre-interning, pre-chunking store: map of deques, linear scans.
class RefStore {
 public:
  using Point = backend::Point;

  explicit RefStore(backend::RetentionPolicy retention = {})
      : retention_(retention) {}

  void append(const std::string& series, sim::Time at, double value) {
    auto& log = series_[series];
    if (!log.empty() && at < log.back().at) at = log.back().at;
    log.push_back(Point{at, value});
    enforce_retention(log, at);
  }

  [[nodiscard]] std::optional<Point> latest(
      const std::string& series) const {
    auto it = series_.find(series);
    if (it == series_.end() || it->second.empty()) return std::nullopt;
    return it->second.back();
  }

  [[nodiscard]] std::vector<Point> query(const std::string& series,
                                         sim::Time from,
                                         sim::Time to) const {
    std::vector<Point> out;
    auto it = series_.find(series);
    if (it == series_.end()) return out;
    for (const Point& p : it->second) {
      if (p.at >= from && p.at <= to) out.push_back(p);
    }
    return out;
  }

  [[nodiscard]] std::vector<Point> downsample(const std::string& series,
                                              sim::Time from, sim::Time to,
                                              sim::Duration bucket) const {
    std::vector<Point> out;
    if (bucket == 0) return out;
    auto raw = query(series, from, to);
    std::size_t i = 0;
    while (i < raw.size()) {
      const sim::Time start = raw[i].at - (raw[i].at - from) % bucket;
      double sum = 0;
      std::size_t n = 0;
      while (i < raw.size() && raw[i].at < start + bucket) {
        sum += raw[i].value;
        ++n;
        ++i;
      }
      out.push_back(Point{start, sum / static_cast<double>(n)});
    }
    return out;
  }

  [[nodiscard]] std::size_t points(const std::string& series) const {
    auto it = series_.find(series);
    return it == series_.end() ? 0 : it->second.size();
  }

 private:
  void enforce_retention(std::deque<Point>& log, sim::Time now) {
    if (retention_.max_age > 0) {
      while (!log.empty() && log.front().at + retention_.max_age < now) {
        log.pop_front();
      }
    }
    if (retention_.max_points > 0) {
      while (log.size() > retention_.max_points) log.pop_front();
    }
  }

  backend::RetentionPolicy retention_;
  std::map<std::string, std::deque<Point>> series_;
};

/// Pre-trie bus: ordered map of subscriptions, linear topic_matches scan.
/// Its iteration order — ascending SubId — is the delivery-order oracle.
class RefBus {
 public:
  using SubId = std::uint64_t;
  using Handler = backend::TopicBus::Handler;

  SubId subscribe(std::string filter, Handler handler) {
    const SubId id = next_id_++;
    subs_[id] = Sub{std::move(filter), std::move(handler)};
    return id;
  }
  void unsubscribe(SubId id) { subs_.erase(id); }

  void publish(const std::string& topic, BytesView payload) {
    for (auto& [id, sub] : subs_) {
      if (backend::topic_matches(sub.filter, topic)) {
        sub.handler(topic, payload);
      }
    }
  }
  void publish(const std::string& topic, const std::string& payload) {
    publish(topic,
            BytesView(reinterpret_cast<const std::uint8_t*>(payload.data()),
                      payload.size()));
  }

 private:
  struct Sub {
    std::string filter;
    Handler handler;
  };
  std::map<SubId, Sub> subs_;
  SubId next_id_ = 1;
};

}  // namespace iiot::testing
