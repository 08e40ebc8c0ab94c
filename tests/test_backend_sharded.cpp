// Sharded backend tier tests (DESIGN.md §4g): consistent-hash ring
// rebalance, shard routing, and differential suites that pin the sharded
// store/bus to the single-shard implementations as byte-exact oracles at
// several shard counts and worker counts.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "backend/registry.hpp"
#include "backend/shard_map.hpp"
#include "backend/sharded.hpp"
#include "backend/timeseries.hpp"
#include "backend/topic_bus.hpp"
#include "runner/engine.hpp"

namespace iiot::backend {
namespace {

struct Lcg {
  std::uint64_t s;
  explicit Lcg(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 17;
  }
  double unit() {
    return static_cast<double>(next() & 0xffffff) /
           static_cast<double>(0x1000000);
  }
};

[[nodiscard]] bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

[[nodiscard]] std::string payload_str(BytesView p) {
  return {reinterpret_cast<const char*>(p.data()), p.size()};
}

// ------------------------------------------------------- hash ring

TEST(HashRing, PrehashedLookupMatchesStringLookup) {
  ConsistentHashRing ring(64);
  for (int i = 0; i < 8; ++i) ring.add_node("node-" + std::to_string(i));
  Lcg rng(7);
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key-" + std::to_string(rng.next() % 10'000);
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
    const std::string key = "k" + std::to_string(i);
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
    const std::string key = "k" + std::to_string(i);
    before[key] = *ring.owner(key);
  }
  ring.add_node("c");
  int claimed = 0;
  for (const auto& [key, owner] : before) {
    const auto now = *ring.owner(key);
    if (now != owner) {
      EXPECT_EQ(now, "c") << "key moved between surviving nodes: " << key;
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

// ------------------------------------------------------- shard map

TEST(ShardMap, FirstLevelExtraction) {
  EXPECT_EQ(ShardMap::first_level("site1/3/3303"), "site1");
  EXPECT_EQ(ShardMap::first_level("flat"), "flat");
  EXPECT_EQ(ShardMap::first_level("/leading"), "");
  EXPECT_EQ(ShardMap::first_level(""), "");
}

TEST(ShardMap, SingleShardRoutesEverythingToZero) {
  ShardMap map(1);
  EXPECT_EQ(map.shard_of_topic("a/b/c"), 0u);
  EXPECT_EQ(map.shard_of_topic("zzz"), 0u);
}

TEST(ShardMap, SameSiteAlwaysSameShard) {
  ShardMap map(4);
  Lcg rng(11);
  for (int i = 0; i < 200; ++i) {
    const std::string site = "site" + std::to_string(rng.next() % 40);
    const auto s = map.shard_of_key(site);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(map.shard_of_topic(site + "/1/3303"), s);
    EXPECT_EQ(map.shard_of_topic(site + "/17/9"), s);
  }
}

TEST(ShardMap, PlacementIsStableAcrossInstances) {
  ShardMap a(8);
  ShardMap b(8);
  for (int i = 0; i < 100; ++i) {
    const std::string t = "site" + std::to_string(i) + "/1/2";
    EXPECT_EQ(a.shard_of_topic(t), b.shard_of_topic(t));
  }
}

// ------------------------------------------------- sharded store diff

struct StoreRig {
  TimeSeriesStore oracle;
  ShardedStore sharded;
  std::vector<std::string> series;
  std::vector<SeriesId> oracle_ids;
  std::vector<ShardedStore::SeriesRef> refs;

  StoreRig(std::uint32_t shards, runner::Engine* pool, std::size_t n_series,
           RetentionPolicy pol = {})
      : oracle(pol), sharded(shards, pol, pool) {
    for (std::size_t i = 0; i < n_series; ++i) {
      series.push_back("site" + std::to_string(i % 13) + "/" +
                       std::to_string(i / 13) + "/3303");
      oracle_ids.push_back(oracle.intern(series.back()));
      refs.push_back(sharded.intern(series.back()));
    }
  }

  void append_everywhere(std::size_t i, sim::Time at, double v) {
    oracle.append(oracle_ids[i], at, v);
    sharded.append(refs[i], at, v);
  }

  void expect_equal(sim::Time from, sim::Time to, sim::Duration bucket) {
    ASSERT_EQ(oracle.series_count(), sharded.series_count());
    EXPECT_EQ(oracle.total_appended(), sharded.total_appended());
    EXPECT_EQ(oracle.series_names(), sharded.series_names());
    for (std::size_t i = 0; i < series.size(); ++i) {
      SCOPED_TRACE(series[i]);
      EXPECT_EQ(oracle.points(oracle_ids[i]), sharded.points(refs[i]));
      const auto la = oracle.latest(oracle_ids[i]);
      const auto lb = sharded.latest(refs[i]);
      ASSERT_EQ(la.has_value(), lb.has_value());
      if (la) {
        EXPECT_EQ(la->at, lb->at);
        EXPECT_TRUE(bits_equal(la->value, lb->value));
      }
      const auto qa = oracle.query(oracle_ids[i], from, to);
      const auto qb = sharded.query(refs[i], from, to);
      ASSERT_EQ(qa.size(), qb.size());
      for (std::size_t k = 0; k < qa.size(); ++k) {
        EXPECT_EQ(qa[k].at, qb[k].at);
        EXPECT_TRUE(bits_equal(qa[k].value, qb[k].value));
      }
      const auto da = oracle.downsample(oracle_ids[i], from, to, bucket);
      const auto db = sharded.downsample(refs[i], from, to, bucket);
      ASSERT_EQ(da.size(), db.size());
      for (std::size_t k = 0; k < da.size(); ++k) {
        EXPECT_EQ(da[k].at, db[k].at);
        EXPECT_TRUE(bits_equal(da[k].value, db[k].value));
      }
      const auto aa = oracle.aggregate(oracle_ids[i], from, to);
      const auto ab = sharded.aggregate(refs[i], from, to);
      EXPECT_EQ(aa.count, ab.count);
      EXPECT_TRUE(bits_equal(aa.sum, ab.sum));
      EXPECT_TRUE(bits_equal(aa.min, ab.min));
      EXPECT_TRUE(bits_equal(aa.max, ab.max));
    }
  }
};

TEST(ShardedStoreDiff, MatchesSingleStoreAtManyShardAndWorkerCounts) {
  for (const std::uint32_t shards : {1u, 2u, 3u, 4u, 7u}) {
    for (const unsigned workers : {1u, 2u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " workers=" + std::to_string(workers));
      runner::Engine pool(workers);
      StoreRig rig(shards, &pool, 39);
      Lcg rng(100 + shards);
      sim::Time t = 0;
      for (int round = 0; round < 4'000; ++round) {
        t += 1 + (rng.next() % 5);
        rig.append_everywhere(rng.next() % rig.series.size(), t,
                              rng.unit() * 100.0 - 50.0);
      }
      rig.expect_equal(0, t + 1, 257);
      rig.expect_equal(t / 3, 2 * t / 3, 64);  // interior range
    }
  }
}

TEST(ShardedStoreDiff, BulkAppendMatchesSerialAppends) {
  for (const unsigned workers : {1u, 2u, 4u}) {
    runner::Engine pool(workers);
    StoreRig rig(4, &pool, 26);
    Lcg rng(55);
    // Build one big bulk batch: contiguous per-series slices.
    std::vector<std::vector<Point>> data(rig.series.size());
    sim::Time t = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      const std::size_t n = 100 + rng.next() % 900;
      for (std::size_t k = 0; k < n; ++k) {
        t += 1;
        data[i].push_back({t, rng.unit() * 10.0});
      }
    }
    std::vector<ShardedStore::Slice> slices;
    for (std::size_t i = 0; i < data.size(); ++i) {
      for (const Point& p : data[i]) {
        rig.oracle.append(rig.oracle_ids[i], p.at, p.value);
      }
      slices.push_back({rig.refs[i], data[i].data(), data[i].size()});
    }
    rig.sharded.append_bulk(slices);
    EXPECT_EQ(rig.sharded.stats().bulk_calls, 1u);
    EXPECT_EQ(rig.sharded.stats().bulk_points,
              rig.sharded.total_appended());
    rig.expect_equal(0, t + 1, 101);
  }
}

TEST(ShardedStoreDiff, UnknownAndInvalidRefsAreInert) {
  ShardedStore store(4);
  EXPECT_EQ(store.find("never/registered/1"), ShardedStore::kNoSeries);
  EXPECT_FALSE(store.latest(ShardedStore::kNoSeries).has_value());
  EXPECT_TRUE(store.query(ShardedStore::kNoSeries, 0, 100).empty());
  EXPECT_EQ(store.points(ShardedStore::kNoSeries), 0u);
  store.append(ShardedStore::kNoSeries, 1, 2.0);  // dropped, no crash
  EXPECT_EQ(store.total_appended(), 0u);
  const auto pa = store.aggregate(ShardedStore::kNoSeries, 0, 100);
  EXPECT_EQ(pa.count, 0u);
}

TEST(ShardedStoreDiff, StringShimsMatchAndAreCounted) {
  ShardedStore store(3);
  store.append(std::string("site1/1/1"), 5, 2.5);
  store.append(std::string("site2/1/1"), 6, 3.5);
  EXPECT_EQ(store.stats().string_appends, 2u);
  EXPECT_EQ(store.points(std::string("site1/1/1")), 1u);
  ASSERT_TRUE(store.latest(std::string("site2/1/1")).has_value());
  EXPECT_DOUBLE_EQ(store.latest(std::string("site2/1/1"))->value, 3.5);
  EXPECT_EQ(store.query(std::string("site1/1/1"), 0, 10).size(), 1u);
  EXPECT_EQ(store.downsample(std::string("site1/1/1"), 0, 10, 5).size(),
            1u);
}

// ------------------------------------------------- cross-shard merge

TEST(ShardedMerge, AggregateManyIsBitIdenticalAcrossShardCounts) {
  // Adversarial floats: values spanning ~12 orders of magnitude make the
  // fold order observable — any shard-count-dependent merge order would
  // change the sum's final ulp.
  const std::size_t n_series = 41;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n_series; ++i) {
    names.push_back("site" + std::to_string(i % 17) + "/" +
                    std::to_string(i) + "/7");
  }
  std::optional<agg::PartialAggregate> first;
  for (const std::uint32_t shards : {1u, 2u, 4u, 5u, 8u}) {
    for (const unsigned workers : {1u, 3u}) {
      runner::Engine pool(workers);
      ShardedStore store(shards, {}, &pool);
      std::vector<ShardedStore::SeriesRef> refs;
      Lcg rng(9);  // same stream for every config
      sim::Time t = 0;
      for (const std::string& name : names) {
        refs.push_back(store.intern(name));
      }
      for (int round = 0; round < 5'000; ++round) {
        t += 1;
        const double mag = static_cast<double>(1ULL << (rng.next() % 40));
        store.append(refs[round % refs.size()], t,
                     (rng.unit() - 0.5) * mag);
      }
      const auto total = store.aggregate_many(refs, 0, t + 1);
      if (!first) {
        first = total;
        EXPECT_GT(total.count, 0u);
      } else {
        EXPECT_EQ(total.count, first->count);
        EXPECT_TRUE(bits_equal(total.sum, first->sum));
        EXPECT_TRUE(bits_equal(total.min, first->min));
        EXPECT_TRUE(bits_equal(total.max, first->max));
      }
      EXPECT_EQ(store.stats().merged_partials, refs.size());
    }
  }
}

TEST(ShardedMerge, EmptyShardsContributeNothing) {
  // 8 shards, 2 series: most shards hold no data at all.
  ShardedStore store(8);
  const auto a = store.intern("siteA/1/1");
  const auto b = store.intern("siteB/1/1");
  store.append(a, 1, 10.0);
  store.append(b, 2, 30.0);
  const ShardedStore::SeriesRef refs[] = {a, b};
  const auto total = store.aggregate_many(refs, 0, 10);
  EXPECT_EQ(total.count, 2u);
  EXPECT_DOUBLE_EQ(total.sum, 40.0);
  EXPECT_DOUBLE_EQ(total.min, 10.0);
  EXPECT_DOUBLE_EQ(total.max, 30.0);
}

TEST(ShardedMerge, AllSeriesOnOneShardSkew) {
  // One site → everything on a single shard; parity must still hold and
  // the other shards stay empty.
  runner::Engine pool(2);
  TimeSeriesStore oracle;
  ShardedStore store(4, {}, &pool);
  std::vector<SeriesId> oids;
  std::vector<ShardedStore::SeriesRef> refs;
  for (int i = 0; i < 9; ++i) {
    const std::string name = "onlysite/" + std::to_string(i) + "/3303";
    oids.push_back(oracle.intern(name));
    refs.push_back(store.intern(name));
  }
  for (std::size_t i = 1; i < refs.size(); ++i) {
    EXPECT_EQ(ShardedStore::shard_of(refs[i]),
              ShardedStore::shard_of(refs[0]));
  }
  Lcg rng(3);
  for (int round = 0; round < 3'000; ++round) {
    const std::size_t i = rng.next() % refs.size();
    const auto t = static_cast<sim::Time>(round + 1);
    const double v = rng.unit() * 7.0;
    oracle.append(oids[i], t, v);
    store.append(refs[i], t, v);
  }
  agg::PartialAggregate want;
  for (const SeriesId id : oids) want.merge(oracle.aggregate(id, 0, 4'000));
  const auto got = store.aggregate_many(refs, 0, 4'000);
  EXPECT_EQ(got.count, want.count);
  EXPECT_TRUE(bits_equal(got.sum, want.sum));
  std::size_t empty_shards = 0;
  for (std::uint32_t s = 0; s < store.shard_count(); ++s) {
    if (store.shard(s).series_count() == 0) ++empty_shards;
  }
  EXPECT_EQ(empty_shards, store.shard_count() - 1);
}

TEST(ShardedMerge, MixedInvalidRefsYieldEmptyPartials) {
  ShardedStore store(4);
  const auto a = store.intern("siteA/1/1");
  store.append(a, 1, 5.0);
  const ShardedStore::SeriesRef refs[] = {ShardedStore::kNoSeries, a,
                                          ShardedStore::kNoSeries};
  agg::PartialAggregate parts[3];
  store.aggregate_each(refs, 0, 10, parts);
  EXPECT_EQ(parts[0].count, 0u);
  EXPECT_EQ(parts[1].count, 1u);
  EXPECT_EQ(parts[2].count, 0u);
  const auto total = store.aggregate_many(refs, 0, 10);
  EXPECT_EQ(total.count, 1u);
  EXPECT_DOUBLE_EQ(total.sum, 5.0);
}

TEST(ShardedMerge, RetentionExpiringWholeShardKeepsParity) {
  // Retention by age: the lone series of one shard goes entirely stale
  // between two aggregates while another shard keeps fresh data.
  const RetentionPolicy pol{.max_age = 100, .max_points = 0};
  runner::Engine pool(2);
  StoreRig rig(4, &pool, 7, pol);
  for (std::size_t i = 0; i < rig.series.size(); ++i) {
    for (sim::Time t = 1; t <= 90; t += 3) {
      rig.append_everywhere(i, t, static_cast<double>(t) * 0.5);
    }
  }
  rig.expect_equal(0, 200, 16);
  // Advance only series 0 far past max_age: everything else on its shard
  // (and nothing elsewhere) is evicted when its own series appends.
  for (sim::Time t = 500; t <= 520; ++t) {
    rig.append_everywhere(0, t, 1.0);
  }
  rig.expect_equal(0, 600, 32);
  // Series 0's old chunks are gone on both sides.
  const auto q = rig.sharded.query(rig.refs[0], 0, 100);
  EXPECT_TRUE(q.empty());
  const auto total_before =
      rig.sharded.aggregate_many(rig.refs, 0, 600);
  agg::PartialAggregate want;
  for (const SeriesId id : rig.oracle_ids) {
    want.merge(rig.oracle.aggregate(id, 0, 600));
  }
  EXPECT_EQ(total_before.count, want.count);
  EXPECT_TRUE(bits_equal(total_before.sum, want.sum));
}

// --------------------------------------------------- sharded bus diff

struct BusRig {
  TopicBus single;
  ShardedBus sharded;
  // Global delivery logs: (sub index, topic=payload) in delivery order.
  std::vector<std::pair<int, std::string>> single_log;
  std::vector<std::pair<int, std::string>> sharded_log;
  std::vector<TopicBus::SubId> single_ids;
  std::vector<ShardedBus::SubId> sharded_ids;

  explicit BusRig(std::uint32_t shards, runner::Engine* pool = nullptr)
      : sharded(shards, pool) {}

  int subscribe(const std::string& filter) {
    const int k = static_cast<int>(single_ids.size());
    single_ids.push_back(
        single.subscribe(filter, [this, k](const std::string& t,
                                           BytesView p) {
          single_log.emplace_back(k, t + "=" + payload_str(p));
        }));
    sharded_ids.push_back(
        sharded.subscribe(filter, [this, k](const std::string& t,
                                            BytesView p) {
          sharded_log.emplace_back(k, t + "=" + payload_str(p));
        }));
    return k;
  }

  void unsubscribe(int k) {
    single.unsubscribe(single_ids[k]);
    sharded.unsubscribe(sharded_ids[k]);
  }

  void publish(const std::string& topic, const std::string& payload) {
    single.publish(topic, payload);
    sharded.publish(topic, payload);
  }

  void expect_logs_equal() {
    ASSERT_EQ(single_log.size(), sharded_log.size());
    for (std::size_t i = 0; i < single_log.size(); ++i) {
      EXPECT_EQ(single_log[i], sharded_log[i]) << "at delivery " << i;
    }
    EXPECT_EQ(single.delivered(), sharded.delivered());
    EXPECT_EQ(single.published(), sharded.published());
  }
};

TEST(ShardedBusDiff, DeliveryOrderMatchesSingleBus) {
  for (const std::uint32_t shards : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    BusRig rig(shards);
    Lcg rng(42);
    // Mixed subscription population: exact, literal-rooted wildcards,
    // and wildcard-rooted catch-alls interleaved with publishes and
    // unsubscribes.
    std::vector<int> live;
    for (int step = 0; step < 2'500; ++step) {
      const auto roll = rng.next() % 100;
      const std::string site = "site" + std::to_string(rng.next() % 9);
      if (roll < 8) {
        const auto kind = rng.next() % 4;
        std::string filter;
        if (kind == 0) {
          filter = site + "/" + std::to_string(rng.next() % 4) + "/3303";
        } else if (kind == 1) {
          filter = site + "/+/3303";
        } else if (kind == 2) {
          filter = site + "/#";
        } else {
          filter = (rng.next() % 2) ? "+/+/#" : "#";
        }
        live.push_back(rig.subscribe(filter));
      } else if (roll < 12 && !live.empty()) {
        const std::size_t pick = rng.next() % live.size();
        rig.unsubscribe(live[pick]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        rig.publish(site + "/" + std::to_string(rng.next() % 4) + "/3303",
                    std::to_string(rng.next() % 1'000));
      }
    }
    rig.expect_logs_equal();
    EXPECT_EQ(rig.single.subscription_count(),
              rig.sharded.subscription_count());
  }
}

TEST(ShardedBusDiff, MultiTopicBatchMatchesSingleBus) {
  BusRig rig(4);
  rig.subscribe("site1/#");
  rig.subscribe("+/+/#");
  rig.subscribe("site2/1/3303");
  std::vector<BusMessage> msgs;
  Lcg rng(5);
  for (int i = 0; i < 400; ++i) {
    BusMessage m;
    m.topic = "site" + std::to_string(rng.next() % 4) + "/" +
              std::to_string(rng.next() % 2) + "/3303";
    const std::string pay = std::to_string(i);
    m.payload.assign(reinterpret_cast<const std::uint8_t*>(pay.data()),
                     reinterpret_cast<const std::uint8_t*>(pay.data()) +
                         pay.size());
    msgs.push_back(std::move(m));
  }
  rig.single.publish_batch(msgs);
  rig.sharded.publish_batch(msgs);
  rig.expect_logs_equal();
}

TEST(ShardedBusDiff, ReentrantSubscribeUnsubscribeDuringDispatch) {
  // Handlers mutate the subscription set mid-dispatch; the sharded bus
  // must mirror the single bus's snapshot + deferred-erase semantics.
  for (const std::uint32_t shards : {1u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    TopicBus single;
    ShardedBus sharded(shards);
    std::vector<std::string> single_log, sharded_log;

    // On the first delivery: unsubscribe a sibling and add a new sub.
    TopicBus::SubId s_victim{};
    ShardedBus::SubId h_victim{};
    bool s_done = false, h_done = false;
    single.subscribe("siteX/#", [&](const std::string& t, BytesView) {
      single_log.push_back("a:" + t);
      if (!s_done) {
        s_done = true;
        single.unsubscribe(s_victim);
        single.subscribe("siteX/#", [&](const std::string& t2, BytesView) {
          single_log.push_back("late:" + t2);
        });
      }
    });
    s_victim = single.subscribe(
        "siteX/#",
        [&](const std::string& t, BytesView) {
          single_log.push_back("victim:" + t);
        });
    sharded.subscribe("siteX/#", [&](const std::string& t, BytesView) {
      sharded_log.push_back("a:" + t);
      if (!h_done) {
        h_done = true;
        sharded.unsubscribe(h_victim);
        sharded.subscribe("siteX/#",
                          [&](const std::string& t2, BytesView) {
                            sharded_log.push_back("late:" + t2);
                          });
      }
    });
    h_victim = sharded.subscribe(
        "siteX/#",
        [&](const std::string& t, BytesView) {
          sharded_log.push_back("victim:" + t);
        });

    single.publish("siteX/1/1", std::string("p1"));
    sharded.publish("siteX/1/1", std::string("p1"));
    single.publish("siteX/1/2", std::string("p2"));
    sharded.publish("siteX/1/2", std::string("p2"));
    EXPECT_EQ(single_log, sharded_log);
    EXPECT_EQ(single.delivered(), sharded.delivered());
  }
}

TEST(ShardedBusDiff, ParallelBatchMatchesSerialPerSubscription) {
  // Shard-affine subscriptions only (the publish_batch_parallel
  // contract): compare each subscription's delivery log, which must be
  // identical to the serial single-bus dispatch at any worker count.
  std::vector<BusMessage> msgs;
  Lcg mk(77);
  for (int i = 0; i < 3'000; ++i) {
    BusMessage m;
    m.topic = "site" + std::to_string(mk.next() % 11) + "/" +
              std::to_string(mk.next() % 3) + "/3303";
    const std::string pay = std::to_string(i);
    m.payload.assign(reinterpret_cast<const std::uint8_t*>(pay.data()),
                     reinterpret_cast<const std::uint8_t*>(pay.data()) +
                         pay.size());
    msgs.push_back(std::move(m));
  }
  const int n_subs = 33;
  auto make_filters = [] {
    std::vector<std::string> fs;
    for (int i = 0; i < n_subs; ++i) {
      const std::string site = "site" + std::to_string(i % 11);
      if (i % 3 == 0) {
        fs.push_back(site + "/#");
      } else if (i % 3 == 1) {
        fs.push_back(site + "/+/3303");
      } else {
        fs.push_back(site + "/1/3303");
      }
    }
    return fs;
  };

  TopicBus single;
  std::vector<std::vector<std::string>> want(n_subs);
  {
    int k = 0;
    for (const std::string& f : make_filters()) {
      single.subscribe(f, [&want, k](const std::string& t, BytesView p) {
        want[k].push_back(t + "=" + payload_str(p));
      });
      ++k;
    }
  }
  single.publish_batch(msgs);

  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    runner::Engine pool(workers);
    ShardedBus sharded(4, &pool);
    std::vector<std::vector<std::string>> got(n_subs);
    int k = 0;
    for (const std::string& f : make_filters()) {
      sharded.subscribe(f, [&got, k](const std::string& t, BytesView p) {
        got[k].push_back(t + "=" + payload_str(p));
      });
      ++k;
    }
    sharded.publish_batch_parallel(msgs);
    EXPECT_GE(sharded.stats().parallel_batches, 1u);
    for (int i = 0; i < n_subs; ++i) {
      EXPECT_EQ(got[i], want[i]) << "subscription " << i;
    }
    EXPECT_EQ(sharded.delivered(), single.delivered());
  }
}

TEST(ShardedBusDiff, RouteMemoServesRepeatedSites) {
  ShardedBus bus(4);
  int n = 0;
  bus.subscribe("site1/#",
                [&](const std::string&, BytesView) { ++n; });
  for (int i = 0; i < 100; ++i) {
    bus.publish("site1/1/3303", std::string("1"));
  }
  EXPECT_EQ(n, 100);
  const auto& st = bus.stats();
  EXPECT_GT(st.route_memo_hits, 90u);  // all but the first resolve hit
  EXPECT_EQ(st.routed, 101u);          // 100 publishes + 1 subscribe route
}

}  // namespace
}  // namespace iiot::backend
