// Backend tier tests: topic bus, time-series store, rule engine, and
// the registry architectures (central / partitioned / decentralized).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "backend/registry.hpp"
#include "backend/rules.hpp"
#include "backend/timeseries.hpp"
#include "backend/topic_bus.hpp"

namespace iiot::backend {
namespace {

using namespace sim;  // NOLINT: time literals

// -------------------------------------------------------------- topic bus

TEST(TopicMatch, ExactAndWildcards) {
  EXPECT_TRUE(topic_matches("a/b/c", "a/b/c"));
  EXPECT_FALSE(topic_matches("a/b/c", "a/b/d"));
  EXPECT_TRUE(topic_matches("a/+/c", "a/b/c"));
  EXPECT_TRUE(topic_matches("a/+/c", "a/xyz/c"));
  EXPECT_FALSE(topic_matches("a/+/c", "a/b/c/d"));
  EXPECT_TRUE(topic_matches("a/#", "a/b/c/d"));
  EXPECT_TRUE(topic_matches("#", "anything/at/all"));
  EXPECT_FALSE(topic_matches("a/b", "a/b/c"));
  EXPECT_FALSE(topic_matches("a/b/c", "a/b"));
  EXPECT_TRUE(topic_matches("+/+", "a/b"));
  EXPECT_FALSE(topic_matches("+/+", "a"));
}

TEST(TopicBus, FanOutToMatchingSubscribers) {
  TopicBus bus;
  std::vector<std::string> seen;
  bus.subscribe("site/+/temp", [&](const std::string& t, BytesView) {
    seen.push_back("wild:" + t);
  });
  bus.subscribe("site/z1/temp", [&](const std::string& t, BytesView) {
    seen.push_back("exact:" + t);
  });
  bus.subscribe("other/#", [&](const std::string&, BytesView) {
    seen.push_back("other");
  });
  bus.publish("site/z1/temp", std::string("21.5"));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(bus.delivered(), 2u);
}

TEST(TopicBus, UnsubscribeStops) {
  TopicBus bus;
  int n = 0;
  auto id = bus.subscribe("x", [&](const std::string&, BytesView) { ++n; });
  bus.publish("x", std::string("1"));
  bus.unsubscribe(id);
  bus.publish("x", std::string("2"));
  EXPECT_EQ(n, 1);
}

// ------------------------------------------------------------- timeseries

TEST(TimeSeries, AppendQueryLatest) {
  TimeSeriesStore ts;
  ts.append(ts.intern("t1"), 100, 1.0);
  ts.append(ts.intern("t1"), 200, 2.0);
  ts.append(ts.intern("t2"), 150, 9.0);
  auto pts = ts.query("t1", 0, 1000);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[1].value, 2.0);
  EXPECT_EQ(ts.latest("t1")->value, 2.0);
  EXPECT_EQ(ts.latest("missing"), std::nullopt);
  EXPECT_EQ(ts.series_count(), 2u);
}

TEST(TimeSeries, RangeQueryRespectsBounds) {
  TimeSeriesStore ts;
  const SeriesId s = ts.intern("s");
  for (int i = 0; i < 10; ++i) ts.append(s, static_cast<Time>(i) * 100, i);
  auto pts = ts.query("s", 250, 650);
  ASSERT_EQ(pts.size(), 4u);  // 300,400,500,600
  EXPECT_EQ(pts.front().value, 3.0);
  EXPECT_EQ(pts.back().value, 6.0);
}

TEST(TimeSeries, RetentionByAge) {
  RetentionPolicy rp;
  rp.max_age = 1000;
  TimeSeriesStore ts(rp);
  const SeriesId s = ts.intern("s");
  ts.append(s, 0, 1);
  ts.append(s, 500, 2);
  ts.append(s, 2000, 3);  // evicts t=0 and t=500 (both older than 1000)
  EXPECT_EQ(ts.points("s"), 1u);
  EXPECT_EQ(ts.latest("s")->value, 3.0);
}

TEST(TimeSeries, RetentionByCount) {
  RetentionPolicy rp;
  rp.max_points = 3;
  TimeSeriesStore ts(rp);
  const SeriesId s = ts.intern("s");
  for (int i = 0; i < 10; ++i) ts.append(s, static_cast<Time>(i), i);
  EXPECT_EQ(ts.points("s"), 3u);
  EXPECT_EQ(ts.query("s", 0, 100).front().value, 7.0);
}

TEST(TimeSeries, DownsampleAverages) {
  TimeSeriesStore ts;
  const SeriesId s = ts.intern("s");
  for (int i = 0; i < 8; ++i) {
    ts.append(s, static_cast<Time>(i) * 100, i);  // 0..7
  }
  auto ds = ts.downsample("s", 0, 10'000, 400);
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_DOUBLE_EQ(ds[0].value, 1.5);  // avg(0,1,2,3)
  EXPECT_DOUBLE_EQ(ds[1].value, 5.5);  // avg(4,5,6,7)
}

// ------------------------------------------------------------ rule engine

TEST(RuleEngine, FiresCommandOnThreshold) {
  TopicBus bus;
  RuleEngine rules(bus);
  std::vector<std::string> commands;
  bus.subscribe("cmd/#", [&](const std::string& t, BytesView p) {
    commands.push_back(t + "=" + iiot::to_string(p));
  });
  Condition cond;
  cond.topic_filter = "sensors/+/temp";
  cond.op = CmpOp::kGreater;
  cond.threshold = 30.0;
  Action act;
  act.command_topic = "cmd/hvac/z1";
  act.command_payload = "cool-on";
  rules.add_rule("overheat", cond, act);

  bus.publish("sensors/z1/temp", std::string("25.0"));
  EXPECT_TRUE(commands.empty());
  bus.publish("sensors/z1/temp", std::string("31.0"));
  ASSERT_EQ(commands.size(), 1u);
  EXPECT_EQ(commands[0], "cmd/hvac/z1=cool-on");
  EXPECT_EQ(rules.firings(), 1u);
}

TEST(RuleEngine, DebounceRequiresConsecutiveSamples) {
  TopicBus bus;
  RuleEngine rules(bus);
  int fired = 0;
  Condition cond;
  cond.topic_filter = "s/v";
  cond.op = CmpOp::kGreater;
  cond.threshold = 10.0;
  cond.consecutive = 3;
  Action act;
  act.callback = [&](const RuleFiring&) { ++fired; };
  rules.add_rule("r", cond, act);

  bus.publish("s/v", std::string("11"));
  bus.publish("s/v", std::string("12"));
  bus.publish("s/v", std::string("5"));  // streak broken
  bus.publish("s/v", std::string("11"));
  bus.publish("s/v", std::string("12"));
  EXPECT_EQ(fired, 0);
  bus.publish("s/v", std::string("13"));
  EXPECT_EQ(fired, 1);
}

TEST(RuleEngine, PerTopicStreaks) {
  TopicBus bus;
  RuleEngine rules(bus);
  int fired = 0;
  Condition cond;
  cond.topic_filter = "s/+";
  cond.op = CmpOp::kGreater;
  cond.threshold = 0.0;
  cond.consecutive = 2;
  Action act;
  act.callback = [&](const RuleFiring&) { ++fired; };
  rules.add_rule("r", cond, act);
  // Alternating topics must not pool their streaks.
  bus.publish("s/a", std::string("1"));
  bus.publish("s/b", std::string("1"));
  EXPECT_EQ(fired, 0);
  bus.publish("s/a", std::string("1"));
  EXPECT_EQ(fired, 1);
}

TEST(RuleEngine, RemoveRuleStopsFiring) {
  TopicBus bus;
  RuleEngine rules(bus);
  int fired = 0;
  Condition cond;
  cond.topic_filter = "s";
  cond.op = CmpOp::kGreater;
  cond.threshold = 0.0;
  Action act;
  act.callback = [&](const RuleFiring&) { ++fired; };
  rules.add_rule("r", cond, act);
  bus.publish("s", std::string("1"));
  rules.remove_rule("r");
  bus.publish("s", std::string("1"));
  EXPECT_EQ(fired, 1);
}

// --------------------------------------------------------------- registry

TEST(ConsistentHashRing, DeterministicOwner) {
  ConsistentHashRing ring;
  ring.add_node("a");
  ring.add_node("b");
  ring.add_node("c");
  EXPECT_EQ(ring.owner("key-1"), ring.owner("key-1"));
}

TEST(ConsistentHashRing, BalancedDistribution) {
  ConsistentHashRing ring(128);
  for (int i = 0; i < 8; ++i) ring.add_node("n" + std::to_string(i));
  std::map<std::string, int> counts;
  for (int k = 0; k < 8000; ++k) {
    counts[*ring.owner("key-" + std::to_string(k))]++;
  }
  for (const auto& [node, c] : counts) {
    EXPECT_GT(c, 500) << node;   // perfect would be 1000
    EXPECT_LT(c, 1600) << node;
  }
}

TEST(ConsistentHashRing, MinimalDisruptionOnNodeRemoval) {
  ConsistentHashRing ring(128);
  for (int i = 0; i < 10; ++i) ring.add_node("n" + std::to_string(i));
  std::map<std::string, std::string> before;
  for (int k = 0; k < 2000; ++k) {
    before["key-" + std::to_string(k)] = *ring.owner("key-" + std::to_string(k));
  }
  ring.remove_node("n3");
  int moved = 0;
  for (auto& [key, owner] : before) {
    if (*ring.owner(key) != owner) ++moved;
  }
  // Only keys owned by n3 (~10%) should move.
  EXPECT_LT(moved, 2000 / 10 * 2);
  EXPECT_GT(moved, 2000 / 10 / 3);
}

// Slot-level API that backend::Directory relies on: dense
// registration-order slots, owner_slot on a pre-hashed key, and
// rebalance that only moves the keys of the node that came or went.

TEST(HashRing, PrehashedLookupMatchesStringLookup) {
  ConsistentHashRing ring(64);
  for (int i = 0; i < 8; ++i) ring.add_node("node-" + std::to_string(i));
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key-" + std::to_string(i * 7919 % 10'000);
    const auto by_name = ring.owner(key);
    const auto slot = ring.owner_slot(ConsistentHashRing::hash(key));
    ASSERT_TRUE(by_name.has_value());
    ASSERT_TRUE(slot.has_value());
    EXPECT_EQ(*by_name, ring.node_name(*slot));
  }
}

TEST(HashRing, SlotsAreDenseInRegistrationOrder) {
  ConsistentHashRing ring(32);
  EXPECT_EQ(ring.add_node("a"), 0u);
  EXPECT_EQ(ring.add_node("b"), 1u);
  EXPECT_EQ(ring.add_node("c"), 2u);
  EXPECT_EQ(ring.node_count(), 3u);
  EXPECT_EQ(ring.node_name(1), "b");
}

TEST(HashRing, AddIsIdempotent) {
  ConsistentHashRing ring(32);
  const auto slot = ring.add_node("a");
  ring.add_node("b");
  EXPECT_EQ(ring.add_node("a"), slot);  // same slot, no double count
  EXPECT_EQ(ring.node_count(), 2u);
  // Placement unchanged by the re-add.
  EXPECT_EQ(ring.owner("some-key"), ring.owner("some-key"));
}

TEST(HashRing, RemovalOnlyMovesRemovedNodesKeys) {
  ConsistentHashRing ring(64);
  for (int i = 0; i < 6; ++i) ring.add_node("node-" + std::to_string(i));
  std::map<std::string, std::string> before;
  for (int i = 0; i < 2'000; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    before[key] = *ring.owner(key);
  }
  ring.remove_node("node-3");
  EXPECT_EQ(ring.node_count(), 5u);
  int moved = 0;
  for (const auto& [key, owner] : before) {
    const auto now = ring.owner(key);
    ASSERT_TRUE(now.has_value());
    EXPECT_NE(*now, "node-3");
    if (owner == "node-3") {
      ++moved;
    } else {
      // Consistent hashing: keys on surviving nodes must not move.
      EXPECT_EQ(*now, owner) << key;
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(HashRing, AddOnlyClaimsKeysFromExistingNodes) {
  ConsistentHashRing ring(64);
  ring.add_node("a");
  ring.add_node("b");
  std::map<std::string, std::string> before;
  for (int i = 0; i < 2'000; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    before[key] = *ring.owner(key);
  }
  ring.add_node("c");
  int claimed = 0;
  for (const auto& [key, owner] : before) {
    const auto now = ring.owner(key);
    ASSERT_TRUE(now.has_value());
    if (*now != owner) {
      EXPECT_EQ(*now, "c") << "key moved between surviving nodes: " << key;
      ++claimed;
    }
  }
  EXPECT_GT(claimed, 0);  // the new node takes a share
}

TEST(HashRing, ConfigurableVnodesImproveBalance) {
  for (const int vnodes : {8, 128}) {
    ConsistentHashRing ring(vnodes);
    for (int i = 0; i < 4; ++i) ring.add_node("node-" + std::to_string(i));
    std::map<std::string, int> load;
    for (int i = 0; i < 8'000; ++i) {
      ++load[*ring.owner("key-" + std::to_string(i))];
    }
    EXPECT_EQ(load.size(), 4u) << "vnodes=" << vnodes;
  }
  // High vnode count keeps every node within a sane band of fair share.
  ConsistentHashRing ring(128);
  for (int i = 0; i < 4; ++i) ring.add_node("node-" + std::to_string(i));
  std::map<std::string, int> load;
  for (int i = 0; i < 8'000; ++i) {
    ++load[*ring.owner("key-" + std::to_string(i))];
  }
  for (const auto& [node, n] : load) {
    EXPECT_GT(n, 8'000 / 4 / 3) << node;  // > 1/3 of fair share
    EXPECT_LT(n, 3 * 8'000 / 4) << node;  // < 3x fair share
  }
}

TEST(HashRing, RemovedRingReturnsNulloptSlot) {
  ConsistentHashRing ring(16);
  ring.add_node("a");
  ring.remove_node("a");
  EXPECT_FALSE(ring.owner("x").has_value());
  EXPECT_FALSE(ring.owner_slot(ConsistentHashRing::hash("x")).has_value());
}

TEST(QueuedServer, SequentialServiceTimes) {
  Scheduler sched;
  QueuedServer server(sched, 100);
  std::vector<Time> completions;
  for (int i = 0; i < 5; ++i) {
    server.submit([&] { completions.push_back(sched.now()); });
  }
  sched.run_all();
  ASSERT_EQ(completions.size(), 5u);
  EXPECT_EQ(completions.back(), 500u);  // 5 * 100 us, strictly serial
}

TEST(Directory, LookupFindsRegisteredService) {
  Scheduler sched;
  Directory dir(sched, DirectoryMode::kCentral, {});
  dir.register_service("printer", "10.0.0.7");
  std::optional<std::string> found;
  dir.lookup("printer", [&](Duration, std::optional<std::string> addr) {
    found = addr;
  });
  sched.run_all();
  EXPECT_EQ(found, "10.0.0.7");
}

TEST(Directory, MissingServiceReturnsNullopt) {
  Scheduler sched;
  Directory dir(sched, DirectoryMode::kPartitioned, {});
  bool called = false;
  dir.lookup("ghost", [&](Duration, std::optional<std::string> addr) {
    called = true;
    EXPECT_EQ(addr, std::nullopt);
  });
  sched.run_all();
  EXPECT_TRUE(called);
}

TEST(Directory, CentralSaturatesWhilePartitionedScales) {
  auto p99_latency = [](DirectoryMode mode, int clients) {
    Scheduler sched;
    DirectoryConfig cfg;
    cfg.server_count = 8;
    Directory dir(sched, mode, cfg);
    for (int i = 0; i < 200; ++i) {
      dir.register_service("svc-" + std::to_string(i), "addr");
    }
    std::vector<Duration> latencies;
    // Each client issues a lookup every 1 ms for 100 ms.
    for (int c = 0; c < clients; ++c) {
      for (int t = 0; t < 100; ++t) {
        sched.schedule_at(static_cast<Time>(t) * 1000 + c,
                          [&dir, &latencies, c] {
                            dir.lookup("svc-" + std::to_string(c % 200),
                                       [&latencies](Duration d,
                                                    std::optional<std::string>) {
                                         latencies.push_back(d);
                                       });
                          });
      }
    }
    sched.run_all();
    std::sort(latencies.begin(), latencies.end());
    return latencies[latencies.size() * 99 / 100];
  };
  // 10 clients: offered load 10 req/ms vs capacity 1/0.15us... At 150 us
  // service time, 1 server handles ~6.6 req/ms: 10 clients saturate it,
  // while 8 partitions absorb the same load easily.
  const Duration central = p99_latency(DirectoryMode::kCentral, 10);
  const Duration parted = p99_latency(DirectoryMode::kPartitioned, 10);
  EXPECT_GT(central, parted * 3);
}

}  // namespace
}  // namespace iiot::backend
