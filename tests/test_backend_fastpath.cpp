// Backend fast-path regression suite (DESIGN.md §4f).
//
// The interned/chunked TimeSeriesStore and the trie-indexed TopicBus
// promise *observably identical* behavior to the seed implementations
// (linear-scan map-based store and bus). These tests hold them to it:
// the seed implementations are embedded verbatim as reference oracles
// and driven differentially with randomized workloads, alongside
// directed coverage of the re-entrancy contract, topic-matching edge
// cases, retention boundaries, the batched entry points, window rules,
// and the System-level wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "agg/collection.hpp"
#include "backend/rules.hpp"
#include "backend/timeseries.hpp"
#include "backend/topic_bus.hpp"
#include "core/system.hpp"
#include "obs/context.hpp"
#include "sim/scheduler.hpp"

namespace iiot::backend {
namespace {

// Tiny deterministic generator so the differential workloads are
// reproducible without dragging in the stack's Rng.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// ---- reference oracles (the seed implementations, verbatim) -----------

// Pre-interning, pre-chunking store: map of deques, linear scans.
class RefStore {
 public:
  explicit RefStore(RetentionPolicy retention = {})
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

  RetentionPolicy retention_;
  std::map<std::string, std::deque<Point>> series_;
};

// Pre-trie bus: ordered map of subscriptions, linear topic_matches scan.
// (Its iteration order — ascending SubId — is the delivery-order oracle.)
class RefBus {
 public:
  using SubId = std::uint64_t;
  using Handler = TopicBus::Handler;

  SubId subscribe(std::string filter, Handler handler) {
    const SubId id = next_id_++;
    subs_[id] = Sub{std::move(filter), std::move(handler)};
    return id;
  }
  void unsubscribe(SubId id) { subs_.erase(id); }
  void publish(const std::string& topic, const std::string& payload) {
    const BytesView view(
        reinterpret_cast<const std::uint8_t*>(payload.data()),
        payload.size());
    for (auto& [id, sub] : subs_) {
      if (topic_matches(sub.filter, topic)) sub.handler(topic, view);
    }
  }

 private:
  struct Sub {
    std::string filter;
    Handler handler;
  };
  std::map<SubId, Sub> subs_;
  SubId next_id_ = 1;
};

void expect_same_points(const std::vector<Point>& got,
                        const std::vector<Point>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].at, want[i].at) << "index " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "index " << i;
  }
}

// ---- topic matching edge cases ----------------------------------------

TEST(TopicMatchEdge, RootHashMatchesEverythingIncludingEmpty) {
  EXPECT_TRUE(topic_matches("#", ""));
  EXPECT_TRUE(topic_matches("#", "a"));
  EXPECT_TRUE(topic_matches("#", "a/b/c"));
  EXPECT_TRUE(topic_matches("#", "/"));
}

TEST(TopicMatchEdge, HashRequiresAtLeastOneMoreLevel) {
  EXPECT_FALSE(topic_matches("a/#", "a"));
  EXPECT_TRUE(topic_matches("a/#", "a/"));  // trailing empty level counts
  EXPECT_TRUE(topic_matches("a/#", "a/b"));
  EXPECT_TRUE(topic_matches("a/#", "a/b/c"));
  EXPECT_FALSE(topic_matches("a/#", "b/c"));
}

TEST(TopicMatchEdge, PlusMatchesExactlyOneLevelIncludingEmpty) {
  EXPECT_TRUE(topic_matches("+", ""));  // "" is one (empty) level
  EXPECT_TRUE(topic_matches("+", "a"));
  EXPECT_FALSE(topic_matches("+", "a/b"));
  EXPECT_TRUE(topic_matches("a/+", "a/"));  // trailing-'/' topic
  EXPECT_FALSE(topic_matches("a/+", "a"));
  EXPECT_TRUE(topic_matches("a/+/c", "a//c"));  // empty middle level
  EXPECT_TRUE(topic_matches("+/+", "/"));
}

TEST(TopicMatchEdge, LengthMismatchesFail) {
  EXPECT_FALSE(topic_matches("a/b/c", "a/b"));  // filter longer than topic
  EXPECT_FALSE(topic_matches("a/b", "a/b/c"));  // topic longer than filter
  EXPECT_FALSE(topic_matches("", "a"));
  EXPECT_TRUE(topic_matches("", ""));
}

TEST(TopicMatchEdge, WildcardsAreOnlyWildcardsAsWholeLevels) {
  EXPECT_FALSE(topic_matches("a+", "ab"));
  EXPECT_FALSE(topic_matches("a#", "ab"));
  EXPECT_TRUE(topic_matches("a+", "a+"));  // literal match
  EXPECT_TRUE(topic_matches("a#", "a#"));
}

// Every (filter, topic) pair from pools of tricky shapes: the bus's
// trie + exact-index matching must agree with the reference predicate.
TEST(TopicMatchEdge, BusMatchingAgreesWithPredicateExhaustively) {
  const std::vector<std::string> filters{
      "#",      "+",         "+/+",      "+/#",      "a",
      "a/b",    "a/b/c",     "a/+",      "a/#",      "a/+/c",
      "a/+/#",  "+/b/#",     "",         "a/",       "a+",
      "a#",     "+/+/+",     "x/y/z/#",  "a/b/#",    "+/b"};
  const std::vector<std::string> topics{
      "",     "a",     "a/",   "a/b",   "a/b/",  "a/b/c", "a//c",
      "/",    "a+",    "a#",   "b/c",   "a/b/c/d", "x/y/z", "x/y/z/w"};

  TopicBus bus;
  std::vector<int> hits(filters.size(), 0);
  for (std::size_t i = 0; i < filters.size(); ++i) {
    bus.subscribe(filters[i],
                  [&hits, i](const std::string&, BytesView) { ++hits[i]; });
  }
  for (const std::string& topic : topics) {
    std::fill(hits.begin(), hits.end(), 0);
    bus.publish(topic, std::string("x"));
    for (std::size_t i = 0; i < filters.size(); ++i) {
      EXPECT_EQ(hits[i] != 0, topic_matches(filters[i], topic))
          << "filter '" << filters[i] << "' topic '" << topic << "'";
      EXPECT_LE(hits[i], 1) << "duplicate delivery for '" << filters[i]
                            << "' on '" << topic << "'";
    }
  }
}

// Regression: creating a '+'/'#' trie edge writes the child index through
// a pointer into trie_[cur]; growing trie_ during that creation used to
// reallocate the vector first and then read the dangling pointer
// (use-after-free, ASan-visible). Deep all-wildcard chains force every
// node creation through that edge path across many reallocations.
TEST(TopicBusTrieGrowth, WildcardEdgeCreationSurvivesReallocation) {
  TopicBus bus;
  std::vector<std::string> filters;
  std::string plus_chain;
  for (int depth = 0; depth < 64; ++depth) {
    plus_chain += depth == 0 ? "+" : "/+";
    filters.push_back(plus_chain);         // "+", "+/+", ...
    filters.push_back(plus_chain + "/#");  // "+/#", "+/+/#", ...
  }
  std::vector<int> hits(filters.size(), 0);
  for (std::size_t i = 0; i < filters.size(); ++i) {
    bus.subscribe(filters[i],
                  [&hits, i](const std::string&, BytesView) { ++hits[i]; });
  }
  std::string topic;
  for (int depth = 0; depth < 70; ++depth) {
    topic += depth == 0 ? "t" : "/t";
    std::fill(hits.begin(), hits.end(), 0);
    bus.publish(topic, std::string("x"));
    for (std::size_t i = 0; i < filters.size(); ++i) {
      EXPECT_EQ(hits[i] != 0, topic_matches(filters[i], topic))
          << "filter '" << filters[i] << "' topic '" << topic << "'";
    }
  }
}

// ---- differential: bus delivery order ---------------------------------

TEST(TopicBusDifferential, DeliveryOrderMatchesSeedBus) {
  const std::vector<std::string> filters{
      "plant/+/3303", "plant/#",  "plant/7/3303", "+/+/#",
      "plant/7/+",    "#",        "other/x",      "plant/+/+",
      "plant/7/3303", "+/7/3303", "other/#",      "plant/"};
  const std::vector<std::string> topics{
      "plant/7/3303", "plant/9/3303", "plant/7/3306", "other/x",
      "plant/",       "other/y/z",    "unrelated",    "plant/7/3303/x"};

  // Both buses issue ids 1, 2, 3, ... in subscribe order, so logging the
  // SubId directly makes the logs comparable.
  TopicBus fast;
  RefBus ref;
  std::vector<std::string> fast_log, ref_log;
  auto handler = [](std::vector<std::string>& log, std::uint64_t id) {
    return [&log, id](const std::string& topic, BytesView payload) {
      log.push_back(std::to_string(id) + "|" + topic + "|" +
                    std::string(reinterpret_cast<const char*>(payload.data()),
                                payload.size()));
    };
  };

  Lcg rng{2024};
  std::vector<std::uint64_t> live;  // ids live in BOTH buses (aligned)
  std::uint64_t next_id = 1;
  for (int op = 0; op < 2000; ++op) {
    const std::uint64_t roll = rng.below(10);
    if (roll < 3) {
      const std::string& f = filters[rng.below(filters.size())];
      const std::uint64_t id = next_id++;
      ASSERT_EQ(fast.subscribe(f, handler(fast_log, id)), id);
      ASSERT_EQ(ref.subscribe(f, handler(ref_log, id)), id);
      live.push_back(id);
    } else if (roll < 4 && !live.empty()) {
      const std::size_t k = rng.below(live.size());
      fast.unsubscribe(live[k]);
      ref.unsubscribe(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      const std::string& t = topics[rng.below(topics.size())];
      const std::string payload = "p" + std::to_string(op);
      fast.publish(t, payload);
      ref.publish(t, payload);
    }
  }
  ASSERT_EQ(fast_log.size(), ref_log.size());
  for (std::size_t i = 0; i < fast_log.size(); ++i) {
    ASSERT_EQ(fast_log[i], ref_log[i]) << "delivery " << i;
  }
  EXPECT_EQ(fast.subscription_count(), live.size());
}

// ---- re-entrancy contract ---------------------------------------------

TEST(TopicBusReentrancy, SubscribeDuringDispatchJoinsNextPublishOnly) {
  TopicBus bus;
  int late_hits = 0;
  bool installed = false;
  bus.subscribe("t", [&](const std::string&, BytesView) {
    if (!installed) {
      installed = true;
      bus.subscribe("t", [&](const std::string&, BytesView) {
        ++late_hits;
      });
    }
  });
  bus.publish("t", std::string("a"));
  EXPECT_EQ(late_hits, 0);  // snapshot predates the new subscription
  bus.publish("t", std::string("b"));
  EXPECT_EQ(late_hits, 1);
}

TEST(TopicBusReentrancy, SelfUnsubscribeDuringDispatchIsSafe) {
  TopicBus bus;
  int hits = 0;
  TopicBus::SubId self = 0;
  self = bus.subscribe("t", [&](const std::string&, BytesView) {
    ++hits;
    bus.unsubscribe(self);
  });
  int other_hits = 0;
  bus.subscribe("t", [&](const std::string&, BytesView) { ++other_hits; });
  bus.publish("t", std::string("a"));
  bus.publish("t", std::string("b"));
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(other_hits, 2);
  EXPECT_EQ(bus.subscription_count(), 1u);
  EXPECT_EQ(bus.stats().deferred_unsubs, 1u);
}

TEST(TopicBusReentrancy, UnsubscribingPendingSubscriberSkipsIt) {
  TopicBus bus;
  TopicBus::SubId victim = 0;
  int victim_hits = 0;
  // Subscribed first => dispatched first; removes the later sub before
  // its turn in the same publish.
  bus.subscribe("t", [&](const std::string&, BytesView) {
    bus.unsubscribe(victim);
  });
  victim = bus.subscribe("t", [&](const std::string&, BytesView) {
    ++victim_hits;
  });
  bus.publish("t", std::string("a"));
  EXPECT_EQ(victim_hits, 0);
  EXPECT_EQ(bus.subscription_count(), 1u);
}

TEST(TopicBusReentrancy, SelfUnsubscribeStopsRemainingBatchPayloads) {
  TopicBus bus;
  int hits = 0;
  TopicBus::SubId self = 0;
  self = bus.subscribe("t", [&](const std::string&, BytesView) {
    ++hits;
    bus.unsubscribe(self);
  });
  const std::string a = "a", b = "b", c = "c";
  const BytesView payloads[] = {
      {reinterpret_cast<const std::uint8_t*>(a.data()), a.size()},
      {reinterpret_cast<const std::uint8_t*>(b.data()), b.size()},
      {reinterpret_cast<const std::uint8_t*>(c.data()), c.size()}};
  bus.publish_batch("t", payloads);
  EXPECT_EQ(hits, 1);  // inactive for the batch's remaining payloads
  EXPECT_EQ(bus.published(), 3u);
}

TEST(TopicBusReentrancy, NestedPublishFromHandlerDeliversInline) {
  TopicBus bus;
  std::vector<std::string> order;
  bus.subscribe("inner", [&](const std::string&, BytesView) {
    order.push_back("inner");
  });
  bus.subscribe("outer", [&](const std::string&, BytesView) {
    order.push_back("outer-pre");
    bus.publish("inner", std::string("n"));
    order.push_back("outer-post");
  });
  // Second subscriber on "outer" proves the outer snapshot survives the
  // nested dispatch's scratch usage.
  bus.subscribe("outer", [&](const std::string&, BytesView) {
    order.push_back("outer2");
  });
  bus.publish("outer", std::string("o"));
  const std::vector<std::string> want{"outer-pre", "inner", "outer-post",
                                      "outer2"};
  EXPECT_EQ(order, want);
  EXPECT_EQ(bus.published(), 2u);
  EXPECT_EQ(bus.delivered(), 3u);  // outer x2 + nested inner
}

TEST(TopicBusReentrancy, NestedPublishToSameTopicTerminates) {
  TopicBus bus;
  int depth = 0, hits = 0;
  bus.subscribe("t", [&](const std::string&, BytesView) {
    ++hits;
    if (++depth < 3) bus.publish("t", std::string("again"));
    --depth;
  });
  bus.publish("t", std::string("go"));
  EXPECT_EQ(hits, 3);
}

// ---- batched publish --------------------------------------------------

TEST(TopicBusBatch, SameTopicBatchMatchesSequentialPublishes) {
  auto wire = [](TopicBus& bus, std::vector<std::string>& log) {
    for (const char* f : {"a/+", "a/b", "#", "a/#"}) {
      bus.subscribe(f, [&log, f](const std::string& t, BytesView p) {
        log.push_back(std::string(f) + "|" + t + "|" +
                      std::string(reinterpret_cast<const char*>(p.data()),
                                  p.size()));
      });
    }
  };
  TopicBus seq, bat;
  std::vector<std::string> seq_log, bat_log;
  wire(seq, seq_log);
  wire(bat, bat_log);

  const std::string p0 = "x", p1 = "yy", p2 = "zzz";
  seq.publish("a/b", p0);
  seq.publish("a/b", p1);
  seq.publish("a/b", p2);

  const BytesView payloads[] = {
      {reinterpret_cast<const std::uint8_t*>(p0.data()), p0.size()},
      {reinterpret_cast<const std::uint8_t*>(p1.data()), p1.size()},
      {reinterpret_cast<const std::uint8_t*>(p2.data()), p2.size()}};
  bat.publish_batch("a/b", payloads);

  EXPECT_EQ(bat_log, seq_log);
  EXPECT_EQ(bat.published(), seq.published());
  EXPECT_EQ(bat.delivered(), seq.delivered());
  EXPECT_EQ(bat.stats().batches, 1u);
}

TEST(TopicBusBatch, MultiTopicBatchMatchesSequentialPublishes) {
  auto wire = [](TopicBus& bus, std::vector<std::string>& log) {
    for (const char* f : {"a", "b", "+"}) {
      bus.subscribe(f, [&log, f](const std::string& t, BytesView p) {
        log.push_back(std::string(f) + "|" + t + "|" +
                      std::string(reinterpret_cast<const char*>(p.data()),
                                  p.size()));
      });
    }
  };
  TopicBus seq, bat;
  std::vector<std::string> seq_log, bat_log;
  wire(seq, seq_log);
  wire(bat, bat_log);

  // "a","a" coalesce into one matching pass; then "b"; then "a" again.
  std::vector<BusMessage> msgs(4);
  const char* topics[] = {"a", "a", "b", "a"};
  for (std::size_t i = 0; i < 4; ++i) {
    msgs[i].topic = topics[i];
    msgs[i].payload = {static_cast<std::uint8_t>('0' + i)};
    seq.publish(topics[i], BytesView(msgs[i].payload.data(), 1));
  }
  bat.publish_batch(msgs);

  EXPECT_EQ(bat_log, seq_log);
  EXPECT_EQ(bat.published(), 4u);
  EXPECT_EQ(bat.delivered(), seq.delivered());
}

// ---- differential: store ----------------------------------------------

TEST(TimeSeriesDifferential, RandomAppendsMatchSeedStoreUnderRetention) {
  // max_points spans multiple chunks so front-chunk erosion and whole
  // chunk pops both happen; integer values keep downsample sums exact.
  const RetentionPolicy ret{/*max_age=*/0, /*max_points=*/600};
  TimeSeriesStore fast(ret);
  RefStore ref(ret);

  Lcg rng{7};
  const std::string series[] = {"s/one", "s/two"};
  sim::Time t = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string& s = series[rng.below(2)];
    t += rng.below(20);
    // Occasionally hand both stores an out-of-order timestamp; both must
    // clamp identically.
    const sim::Time at = rng.below(10) == 0 ? t / 2 : t;
    const double v = static_cast<double>(rng.below(1000));
    fast.append(s, at, v);
    ref.append(s, at, v);

    if (i % 500 == 499) {
      const sim::Time from = rng.below(t + 1);
      const sim::Time to = from + rng.below(t + 1);
      expect_same_points(fast.query(s, from, to), ref.query(s, from, to));
      expect_same_points(fast.downsample(s, from, to, 64),
                         ref.downsample(s, from, to, 64));
    }
  }
  for (const std::string& s : series) {
    EXPECT_EQ(fast.points(s), ref.points(s));
    const auto fl = fast.latest(s);
    const auto rl = ref.latest(s);
    ASSERT_EQ(fl.has_value(), rl.has_value());
    if (fl) {
      EXPECT_EQ(fl->at, rl->at);
      EXPECT_EQ(fl->value, rl->value);
    }
    expect_same_points(fast.query(s, 0, t + 1), ref.query(s, 0, t + 1));
  }
}

TEST(TimeSeriesDifferential, AgeRetentionMatchesSeedStore) {
  const RetentionPolicy ret{/*max_age=*/1000, /*max_points=*/0};
  TimeSeriesStore fast(ret);
  RefStore ref(ret);
  Lcg rng{11};
  sim::Time t = 0;
  for (int i = 0; i < 3000; ++i) {
    t += rng.below(8);
    const double v = static_cast<double>(rng.below(100));
    fast.append("s", t, v);
    ref.append("s", t, v);
  }
  EXPECT_EQ(fast.points("s"), ref.points("s"));
  expect_same_points(fast.query("s", 0, t), ref.query("s", 0, t));
}

TEST(TimeSeriesDifferential, DownsampleRollupPathMatchesSeedStore) {
  TimeSeriesStore fast;  // no retention: head == 0, rollups everywhere
  RefStore ref;
  Lcg rng{13};
  sim::Time t = 0;
  for (int i = 0; i < 10000; ++i) {
    t += 1 + rng.below(5);
    const double v = static_cast<double>(rng.below(100));
    fast.append("s", t, v);
    ref.append("s", t, v);
  }
  // Big buckets swallow whole chunks (rollup path); odd buckets and
  // offset ranges exercise the partial-chunk scan path.
  const sim::Duration buckets[] = {1, 7, 64, 777, 4096, 100000};
  for (const sim::Duration b : buckets) {
    expect_same_points(fast.downsample("s", 0, t, b),
                       ref.downsample("s", 0, t, b));
    expect_same_points(fast.downsample("s", t / 3, 2 * t / 3, b),
                       ref.downsample("s", t / 3, 2 * t / 3, b));
  }
  EXPECT_GT(fast.stats().rollup_hits, 0u);
  EXPECT_GT(fast.stats().chunk_scans, 0u);
}

// ---- retention boundaries ---------------------------------------------

TEST(TimeSeriesRetention, PointExactlyMaxAgeOldSurvives) {
  TimeSeriesStore store({/*max_age=*/10, /*max_points=*/0});
  store.append("s", 0, 1.0);
  store.append("s", 10, 2.0);  // age of first == max_age: kept
  EXPECT_EQ(store.points("s"), 2u);
  store.append("s", 11, 3.0);  // now age 11 > max_age: evicted
  EXPECT_EQ(store.points("s"), 2u);
  EXPECT_EQ(store.query("s", 0, 100).front().at, 10u);
  EXPECT_EQ(store.stats().evicted, 1u);
}

TEST(TimeSeriesRetention, MaxPointsExactlyAtLimit) {
  TimeSeriesStore store({/*max_age=*/0, /*max_points=*/5});
  for (int i = 0; i < 5; ++i) {
    store.append("s", static_cast<sim::Time>(i), static_cast<double>(i));
  }
  EXPECT_EQ(store.points("s"), 5u);
  EXPECT_EQ(store.stats().evicted, 0u);
  store.append("s", 5, 5.0);
  EXPECT_EQ(store.points("s"), 5u);
  EXPECT_EQ(store.query("s", 0, 100).front().at, 1u);
  EXPECT_EQ(store.stats().evicted, 1u);
}

TEST(TimeSeriesRetention, OutOfOrderClampInteractsWithAgeRetention) {
  TimeSeriesStore store({/*max_age=*/10, /*max_points=*/0});
  store.append("s", 100, 1.0);
  // Out-of-order: clamped to t=100, so it cannot retro-trigger eviction
  // of the first point (now stays 100).
  store.append("s", 50, 2.0);
  EXPECT_EQ(store.points("s"), 2u);
  ASSERT_TRUE(store.latest("s").has_value());
  EXPECT_EQ(store.latest("s")->at, 100u);
  // A genuinely newer point ages both out (both sit at t=100).
  store.append("s", 200, 3.0);
  EXPECT_EQ(store.points("s"), 1u);
  EXPECT_EQ(store.stats().evicted, 2u);
}

// ---- interning + API --------------------------------------------------

TEST(TimeSeriesIntern, InternIsIdempotentAndFindNeverRegisters) {
  TimeSeriesStore store;
  const SeriesId a = store.intern("plant/1/3303");
  EXPECT_EQ(store.intern("plant/1/3303"), a);
  EXPECT_EQ(store.find("plant/1/3303"), a);
  EXPECT_EQ(store.name(a), "plant/1/3303");
  EXPECT_EQ(store.find("never/registered"), kInvalidSeries);
  EXPECT_EQ(store.series_count(), 1u);
  // String-shim reads on unknown series must not create them (seed
  // behavior: querying is side-effect free).
  EXPECT_TRUE(store.query("never/registered", 0, 100).empty());
  EXPECT_FALSE(store.latest("never/registered").has_value());
  EXPECT_EQ(store.points("never/registered"), 0u);
  EXPECT_EQ(store.series_count(), 1u);
  EXPECT_EQ(store.name(kInvalidSeries), "");
}

TEST(TimeSeriesIntern, SeriesNamesSortedLikeSeedMapOrder) {
  TimeSeriesStore store;
  store.intern("zeta");
  store.intern("alpha");
  store.intern("mid");
  const std::vector<std::string> want{"alpha", "mid", "zeta"};
  EXPECT_EQ(store.series_names(), want);
}

TEST(TimeSeriesVisit, VisitorMatchesQueryWithoutAllocating) {
  TimeSeriesStore store;
  const SeriesId id = store.intern("s");
  Lcg rng{17};
  sim::Time t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += 1 + rng.below(4);
    store.append(id, t, static_cast<double>(rng.below(50)));
  }
  const sim::Time from = t / 4, to = 3 * t / 4;
  const auto want = store.query(id, from, to);
  std::vector<Point> got;
  got.reserve(want.size());
  store.visit(id, from, to, [&got](const Point& p) { got.push_back(p); });
  expect_same_points(got, want);
  // Degenerate ranges are no-ops.
  store.visit(id, 10, 5, [](const Point&) { FAIL(); });
  store.visit(kInvalidSeries, 0, 100, [](const Point&) { FAIL(); });
}

TEST(TimeSeriesBatch, AppendBatchMatchesSingleAppends) {
  const RetentionPolicy ret{/*max_age=*/500, /*max_points=*/700};
  TimeSeriesStore single(ret), batched(ret);
  const SeriesId sid = single.intern("s");
  const SeriesId bid = batched.intern("s");

  Lcg rng{19};
  sim::Time t = 0;
  std::vector<Point> batch;
  for (int round = 0; round < 40; ++round) {
    batch.clear();
    const std::size_t n = 1 + rng.below(120);
    for (std::size_t i = 0; i < n; ++i) {
      t += rng.below(6);
      const sim::Time at = rng.below(12) == 0 ? t / 2 : t;  // some OOO
      batch.push_back(Point{at, static_cast<double>(rng.below(100))});
    }
    for (const Point& p : batch) single.append(sid, p.at, p.value);
    batched.append_batch(bid, batch.data(), batch.size());

    ASSERT_EQ(batched.points(bid), single.points(sid)) << round;
  }
  expect_same_points(batched.query(bid, 0, t + 1),
                     single.query(sid, 0, t + 1));
  EXPECT_EQ(batched.stats().appends, single.stats().appends);
  EXPECT_EQ(batched.stats().evicted, single.stats().evicted);
}

TEST(TimeSeriesAggregate, MatchesLinearScanAndUsesRollups) {
  TimeSeriesStore store;
  const SeriesId id = store.intern("s");
  Lcg rng{23};
  sim::Time t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += 1 + rng.below(4);
    store.append(id, t, static_cast<double>(rng.below(1000)));
  }
  const sim::Time from = 100, to = t - 100;
  agg::PartialAggregate want;
  store.visit(id, from, to,
              [&want](const Point& p) { want.add_sample(p.value); });
  const std::uint64_t scans_before = store.stats().chunk_scans;
  const agg::PartialAggregate got = store.aggregate(id, from, to);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.sum, want.sum);  // integer samples: order-independent
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
  EXPECT_GT(store.stats().rollup_hits, 0u);
  // Interior chunks answered from rollups: at most the two boundary
  // chunks needed a raw scan.
  EXPECT_LE(store.stats().chunk_scans - scans_before, 2u);
}

// ---- window rules -----------------------------------------------------

struct WindowRig {
  TimeSeriesStore store;
  TopicBus bus;
  RuleEngine engine{bus, &store};
  sim::Time now = 0;

  WindowRig() {
    // Ingest first (lower SubId), as core::System wires it: the sample
    // is in the store before any rule sees the publish.
    bus.subscribe("plant/#", [this](const std::string& topic, BytesView p) {
      const std::string s = iiot::to_string(p);
      store.append(topic, now, std::strtod(s.c_str(), nullptr));
    });
  }
  void sample(const std::string& topic, double v) {
    now += 10;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    bus.publish(topic, std::string(buf));
  }
};

TEST(RuleEngineWindow, FiresOnTrailingAverageWithMinSamples) {
  WindowRig rig;
  std::vector<RuleFiring> firings;
  WindowCondition cond;
  cond.topic_filter = "plant/1/3303";
  cond.window = 30;  // covers the 4 newest samples (10 apart)
  cond.fn = agg::AggFn::kAvg;
  cond.op = CmpOp::kGreater;
  cond.threshold = 50.0;
  cond.min_samples = 3;
  Action act;
  act.callback = [&](const RuleFiring& f) { firings.push_back(f); };
  rig.engine.add_window_rule("hot", cond, act);

  rig.sample("plant/1/3303", 90.0);  // count 1 < min_samples
  rig.sample("plant/1/3303", 90.0);  // count 2 < min_samples
  EXPECT_TRUE(firings.empty());
  rig.sample("plant/1/3303", 30.0);  // avg (90+90+30)/3 = 70 > 50: fires
  ASSERT_EQ(firings.size(), 1u);
  EXPECT_EQ(firings[0].rule_id, "hot");
  EXPECT_EQ(firings[0].topic, "plant/1/3303");
  EXPECT_DOUBLE_EQ(firings[0].value, 70.0);

  rig.sample("plant/1/3303", 0.0);  // avg (90+90+30+0)/4 = 52.5: fires
  ASSERT_EQ(firings.size(), 2u);
  EXPECT_DOUBLE_EQ(firings[1].value, 52.5);

  rig.sample("plant/1/3303", 0.0);  // window now (90,30,0,0): avg 30
  EXPECT_EQ(firings.size(), 2u);
  EXPECT_EQ(rig.engine.firings(), 2u);
}

TEST(RuleEngineWindow, MaxOverWindowAndRemoveRule) {
  WindowRig rig;
  int fired = 0;
  WindowCondition cond;
  cond.topic_filter = "plant/+/3303";
  cond.window = 100;
  cond.fn = agg::AggFn::kMax;
  cond.op = CmpOp::kGreaterEqual;
  cond.threshold = 80.0;
  Action act;
  act.callback = [&](const RuleFiring&) { ++fired; };
  rig.engine.add_window_rule("spike", cond, act);
  EXPECT_EQ(rig.engine.rule_count(), 1u);

  rig.sample("plant/2/3303", 10.0);
  EXPECT_EQ(fired, 0);
  rig.sample("plant/2/3303", 85.0);
  EXPECT_EQ(fired, 1);
  rig.sample("plant/2/3303", 10.0);  // 85 still inside the window
  EXPECT_EQ(fired, 2);

  rig.engine.remove_rule("spike");
  EXPECT_EQ(rig.engine.rule_count(), 0u);
  rig.sample("plant/2/3303", 99.0);
  EXPECT_EQ(fired, 2);
}

TEST(RuleEngineWindow, WindowRuleWithoutStoreIsRejected) {
  TopicBus bus;
  RuleEngine engine(bus);  // no store
  WindowCondition cond;
  cond.topic_filter = "t";
  engine.add_window_rule("w", cond, Action{});
  EXPECT_EQ(engine.rule_count(), 0u);
  bus.publish("t", std::string("1.0"));  // no crash, nothing to evaluate
  EXPECT_EQ(engine.firings(), 0u);
}

// A window rule whose filter matches topics the ingest subscription never
// captures (no series in the store) must not fire silently forever: each
// skipped evaluation is counted in window_skips().
TEST(RuleEngineWindow, UnstoredTopicCountsAsSkipNotFiring) {
  WindowRig rig;  // ingests "plant/#" only
  int fired = 0;
  WindowCondition cond;
  cond.topic_filter = "#";  // also matches non-ingested topics
  cond.window = 100;
  cond.threshold = 0.0;  // any ingested sample would fire
  Action act;
  act.callback = [&](const RuleFiring&) { ++fired; };
  rig.engine.add_window_rule("w", cond, act);

  rig.bus.publish("other/1/3303", std::string("5.0"));  // not ingested
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(rig.engine.window_skips(), 1u);

  rig.sample("plant/1/3303", 5.0);  // ingested: evaluates and fires
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(rig.engine.window_skips(), 1u);
}

// ---- System wiring ----------------------------------------------------

TEST(SystemBackend, IngestBatchLandsInStore) {
  sim::Scheduler sched;
  core::System system(sched, 1);
  const double vals[] = {1.0, 2.0, 3.5};
  system.ingest("site/1/3303", vals);
  EXPECT_EQ(system.store().points("site/1/3303"), 3u);
  ASSERT_TRUE(system.store().latest("site/1/3303").has_value());
  EXPECT_DOUBLE_EQ(system.store().latest("site/1/3303")->value, 3.5);
  EXPECT_EQ(system.bus().stats().batches, 1u);
  EXPECT_EQ(system.bus().published(), 3u);
}

TEST(SystemBackend, IngestKeepsStringShimCold) {
  sim::Scheduler sched;
  core::System system(sched, 1);
  const double vals[] = {4.0, 5.0};
  system.ingest("site/1/3303", vals);
  system.ingest("site/2/3303", vals);
  EXPECT_EQ(system.store().total_appended(), 4u);
  EXPECT_EQ(system.store().stats().string_appends, 0u);
}

TEST(SystemBackend, MetricsExposeFastPathCounters) {
  sim::Scheduler sched;
  core::SystemConfig cfg;
  cfg.observability = true;
  core::System system(sched, 2, cfg);
  const double vals[] = {1.0, 2.0, 3.0};
  system.ingest("site/1/3303", vals);
  (void)system.store().downsample("site/1/3303", 0, 100, 10);

  ASSERT_NE(system.observability(), nullptr);
  std::set<std::string> names;
  for (const auto& s : system.observability()->metrics().snapshot()) {
    names.insert(s.module + "." + s.name);
  }
  for (const char* want :
       {"backend.bus_published", "backend.bus_delivered",
        "backend.store_appended", "backend.store_evicted",
        "backend.store_rollup_hits", "backend.store_chunk_scans",
        "backend.bus_exact_hits", "backend.bus_trie_nodes",
        "backend.bus_deferred_unsubs", "backend.bus_fanout",
        "backend.store_string_appends"}) {
    EXPECT_TRUE(names.count(want)) << "missing metric " << want;
  }
}

TEST(SystemBackend, AggregateSinkBridgesEpochsIntoStore) {
  using namespace sim;  // NOLINT: time literals
  Scheduler sched;
  core::SystemConfig scfg;
  scfg.propagation.shadowing_sigma_db = 0.0;
  core::System system(sched, 42, scfg);
  core::NodeConfig ncfg;
  ncfg.rpl.trickle = net::TrickleConfig{250'000, 8, 3};
  ncfg.rpl.dao_interval = 5'000'000;
  auto& mesh = system.add_mesh("plant", ncfg);
  mesh.build_line(3, 25.0);
  mesh.start();
  sched.run_until(20_s);  // formation

  agg::CollectionConfig ccfg;
  ccfg.epoch = 10'000'000;
  ccfg.flush_slack = 300'000;
  ccfg.sample_jitter = 1'000'000;
  std::vector<std::unique_ptr<agg::TreeAggregation>> svcs;
  for (std::size_t i = 0; i < 3; ++i) {
    svcs.push_back(std::make_unique<agg::TreeAggregation>(
        *mesh.node(i).routing, sched, Rng(500 + i), ccfg));
  }
  system.bridge_aggregate_sink("plant", "temp", *svcs[0]);
  svcs[1]->start([] { return 20.0; });
  svcs[2]->start([] { return 40.0; });
  sched.run_until(80_s);

  // Epoch aggregates were published as batches and ingested by the
  // store's measurement subscription.
  EXPECT_GT(system.store().points("plant/temp/avg"), 0u);
  EXPECT_GT(system.store().points("plant/temp/count"), 0u);
  EXPECT_GT(system.bus().stats().batches, 0u);
  const auto avg = system.store().latest("plant/temp/avg");
  ASSERT_TRUE(avg.has_value());
  EXPECT_GE(avg->value, 20.0);
  EXPECT_LE(avg->value, 40.0);
}

}  // namespace
}  // namespace iiot::backend
