// Unit tests for common utilities: byte codecs, CRCs, RNG, Result and the
// flat duplicate-suppression tables.
#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/bytes.hpp"
#include "common/crc.hpp"
#include "common/flat_keys.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace iiot {
namespace {

TEST(Bytes, RoundTripIntegers) {
  Buffer buf;
  BufWriter w(buf);
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0102030405060708ULL);
  w.f64(3.14159);

  BufReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ULL);
  EXPECT_DOUBLE_EQ(*r.f64(), 3.14159);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, BigEndianLayout) {
  Buffer buf;
  BufWriter w(buf);
  w.u16(0x0102);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[1], 0x02);
}

TEST(Bytes, UnderflowSticksToFailed) {
  Buffer buf{0x01};
  BufReader r(buf);
  EXPECT_EQ(r.u32(), std::nullopt);
  EXPECT_FALSE(r.ok());
  // Even a 1-byte read must now fail: the reader is poisoned.
  EXPECT_EQ(r.u8(), std::nullopt);
}

TEST(Bytes, LengthPrefixedStrings) {
  Buffer buf;
  BufWriter w(buf);
  w.lp_str("hello");
  w.lp_str("");
  BufReader r(buf);
  EXPECT_EQ(r.lp_str(), "hello");
  EXPECT_EQ(r.lp_str(), "");
  EXPECT_TRUE(r.ok());
}

TEST(Crc, KnownVectors) {
  // CRC-16/CCITT-FALSE("123456789") = 0x29B1
  auto data = to_buffer("123456789");
  EXPECT_EQ(crc16_ccitt(data), 0x29B1);
  // CRC-32("123456789") = 0xCBF43926
  EXPECT_EQ(crc32_ieee(data), 0xCBF43926u);
}

TEST(Crc, DetectsSingleBitFlip) {
  auto data = to_buffer("industrial iot frame payload");
  auto original = crc16_ccitt(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Buffer corrupted = data;
      corrupted[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_NE(crc16_ccitt(corrupted), original);
    }
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, BelowIsBounded) {
  Rng rng(9);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / kN, 10.0, 0.5);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    double v = rng.normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / kN;
  double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ForkedStreamsIndependent) {
  Rng base(21);
  Rng a = base.fork(1);
  Rng b = base.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Result, ValueAndError) {
  Result<int> ok(5);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);

  Result<int> err(Error{Error::Code::kTimeout, "late"});
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, Error::Code::kTimeout);
  EXPECT_EQ(err.error().message, "late");
}

TEST(Result, StatusDefaultsToSuccess) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status f(Error{Error::Code::kSecurity, "bad mic"});
  EXPECT_FALSE(f.ok());
  EXPECT_STREQ(to_string(f.error().code), "security");
}

// ------------------------------------------------ flat duplicate tables

/// The MAC's duplicate rule as a node-based map: a frame is fresh unless
/// its seq repeats the last one recorded for its source.
struct LastSeqModel {
  std::unordered_map<std::uint32_t, std::uint16_t> last;
  bool fresh(std::uint32_t src, std::uint16_t seq) {
    auto [it, inserted] = last.try_emplace(src, seq);
    if (inserted) return true;
    if (it->second == seq) return false;
    it->second = seq;
    return true;
  }
};

TEST(LastSeqTable, MatchesMapModelOnRandomStreams) {
  // Edge sources (0, the reserved ids) and seq wrap 65535 -> 0 mixed into
  // a stream over enough sources to grow the table several times.
  const std::uint32_t edges[] = {0, 1, kInvalidNode - 1, kInvalidNode,
                                 kBroadcastNode};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    LastSeqTable table;
    LastSeqModel model;
    std::unordered_map<std::uint32_t, std::uint16_t> next_seq;
    std::size_t dups = 0;
    for (int i = 0; i < 200'000; ++i) {
      const std::uint32_t src = rng.chance(0.1)
                                    ? edges[rng.below(std::size(edges))]
                                    : rng.below(3000) * 7919u;
      auto [it, fresh_src] = next_seq.try_emplace(
          src, static_cast<std::uint16_t>(65530 + rng.below(6)));
      std::uint16_t seq = it->second;
      if (rng.chance(0.3)) {
        seq = static_cast<std::uint16_t>(seq - 1);  // retransmission
      } else if (rng.chance(0.05)) {
        seq = static_cast<std::uint16_t>(rng.next_u32());
      } else {
        ++it->second;  // wraps 65535 -> 0
      }
      const bool want = model.fresh(src, seq);
      ASSERT_EQ(table.fresh(src, seq), want)
          << "seed " << seed << " step " << i << " src " << src << " seq "
          << seq;
      if (!want) ++dups;
    }
    EXPECT_EQ(table.size(), model.last.size());
    EXPECT_GT(dups, 10'000u);
    EXPECT_GT(model.last.size(), 2'000u);
  }
}

TEST(LastSeqTable, SeqWrapIsFreshAndExactRepeatIsNot) {
  LastSeqTable t;
  EXPECT_TRUE(t.fresh(kInvalidNode, 65535));
  EXPECT_FALSE(t.fresh(kInvalidNode, 65535));
  EXPECT_TRUE(t.fresh(kInvalidNode, 0));
  EXPECT_FALSE(t.fresh(kInvalidNode, 0));
  EXPECT_TRUE(t.fresh(0, 0));  // src 0, seq 0: key 0 is an ordinary key
  EXPECT_FALSE(t.fresh(0, 0));
  EXPECT_TRUE(t.fresh(kBroadcastNode, 65535));  // largest possible key
  EXPECT_FALSE(t.fresh(kBroadcastNode, 65535));
  EXPECT_EQ(t.size(), 3u);
}

/// The routing layer's duplicate window as a deque plus a node-based set.
struct WindowModel {
  std::size_t capacity;
  std::deque<std::uint64_t> fifo;
  std::unordered_set<std::uint64_t> set;
  bool seen_or_insert(std::uint64_t key) {
    if (set.count(key) > 0) return true;
    set.insert(key);
    fifo.push_back(key);
    if (fifo.size() > capacity) {
      set.erase(fifo.front());
      fifo.pop_front();
    }
    return false;
  }
};

TEST(KeyWindow, MatchesDequeModelOverManyEvictions) {
  // Over 3x the window of keys; origins include the reserved ids, so the
  // all-ones key (kBroadcastNode << 32 | 0xFFFFFFFF) turns up too.
  const std::uint32_t origins[] = {0, 1, kInvalidNode, kBroadcastNode};
  for (const std::size_t cap : {std::size_t{1}, std::size_t{5},
                                std::size_t{8192}}) {
    Rng rng(cap);
    KeyWindow window(cap);
    WindowModel model{cap, {}, {}};
    std::size_t hits = 0;
    const std::uint32_t seqs = cap < 8192 ? 4 : 300;  // ~13k keys at 8192
    for (int i = 0; i < 30'000; ++i) {
      const std::uint32_t origin = rng.chance(0.2)
                                       ? origins[rng.below(4)]
                                       : 2 + rng.below(40);
      const std::uint32_t seq =
          rng.chance(0.01) ? 0xFFFFFFFFu : rng.below(seqs);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(origin) << 32) | seq;
      const bool want = model.seen_or_insert(key);
      ASSERT_EQ(window.seen_or_insert(key), want)
          << "cap " << cap << " step " << i << " key " << key;
      if (want) ++hits;
    }
    EXPECT_EQ(window.size(), model.fifo.size());
    EXPECT_GT(hits, 100u);
  }
}

TEST(KeyWindow, OldestKeyLeavesFirstAndComesBackFresh) {
  KeyWindow w(8192);
  for (std::uint64_t k = 1; k <= 8192; ++k) EXPECT_FALSE(w.seen_or_insert(k));
  EXPECT_TRUE(w.seen_or_insert(1));  // still inside the window
  EXPECT_EQ(w.size(), 8192u);
  EXPECT_FALSE(w.seen_or_insert(8193));  // the 8193rd distinct key
  EXPECT_EQ(w.size(), 8192u);
  EXPECT_TRUE(w.seen_or_insert(2));
  EXPECT_FALSE(w.seen_or_insert(1));  // evicted, so fresh again; evicts 2
  EXPECT_FALSE(w.seen_or_insert(2));  // evicted by 1's return
  EXPECT_TRUE(w.seen_or_insert(8193));
  EXPECT_FALSE(w.seen_or_insert(~std::uint64_t{0}));
  EXPECT_TRUE(w.seen_or_insert(~std::uint64_t{0}));
}

TEST(FlatKeyTable, EraseKeepsEveryOtherKeyReachable) {
  // Insert/erase churn in a small key space forces long probe runs that
  // wrap around the array, where backward-shift deletion can go wrong.
  Rng rng(7);
  FlatKeyTable<0> table;
  std::unordered_set<std::uint64_t> model;
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t key = rng.below(64) * 0x100000000ULL;
    if (model.count(key) > 0) {
      ASSERT_NE(table.find(key), nullptr);
      table.erase(key);
      model.erase(key);
    } else {
      ASSERT_EQ(table.find(key), nullptr);
      table.insert(key);
      model.insert(key);
    }
    ASSERT_EQ(table.size(), model.size());
  }
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(table.find(k << 32) != nullptr, model.count(k << 32) > 0);
  }
}

}  // namespace
}  // namespace iiot
