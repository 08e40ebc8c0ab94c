// Network layer tests: Trickle, link estimation, RPL formation/repair,
// up/down routing, and RNFD root-failure detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "harness.hpp"
#include "net/link_estimator.hpp"
#include "net/messages.hpp"
#include "net/rnfd.hpp"
#include "net/rpl.hpp"
#include "net/trickle.hpp"

namespace iiot::net {
namespace {

using namespace sim;  // NOLINT: time literals
using test::World;

// ----------------------------------------------------------- codecs

TEST(NetCodec, EncodersWriteExactlyTheSizeTheyReserve) {
  // Each encoder reserves its exact size up front, so an empty buffer is
  // allocated once and never grows; a wrong size would show as a size or
  // capacity mismatch here.
  const DioMsg dio{3, 512, 1, 2};
  Buffer out;
  dio.encode(out);
  EXPECT_EQ(out.size(), DioMsg::kEncodedSize);
  EXPECT_EQ(out.capacity(), out.size());
  BufReader dio_in(BytesView(out).subspan(1));
  const auto dio_back = DioMsg::decode(dio_in);
  ASSERT_TRUE(dio_back.has_value());
  EXPECT_EQ(dio_back->rank, 512);
  EXPECT_EQ(dio_back->depth, 2);

  const DaoMsg dao{42};
  out = Buffer{};
  dao.encode(out);
  EXPECT_EQ(out.size(), DaoMsg::kEncodedSize);
  EXPECT_EQ(out.capacity(), out.size());

  for (const std::size_t payload : {0u, 1u, 17u, 90u}) {
    DataMsg data;
    data.origin = 7;
    data.dest = 9;
    data.seq = 1234;
    data.hops = 3;
    data.payload.assign(payload, 0xAB);
    out = Buffer{};
    data.encode(out);
    EXPECT_EQ(data.encoded_size(), DataMsg::kHeaderSize + payload);
    EXPECT_EQ(out.size(), data.encoded_size()) << payload << " B payload";
    EXPECT_EQ(out.capacity(), out.size()) << payload << " B payload";
    BufReader data_in(BytesView(out).subspan(1));
    const auto data_back = DataMsg::decode(data_in);
    ASSERT_TRUE(data_back.has_value());
    EXPECT_EQ(data_back->payload, data.payload);
    EXPECT_EQ(data_in.remaining(), 0u);
  }
}

// ---------------------------------------------------------------- Trickle

TEST(Trickle, TransmitsWithinFirstInterval) {
  Scheduler s;
  int tx = 0;
  Trickle t(s, Rng(1), TrickleConfig{1'000'000, 4, 3}, [&] { ++tx; });
  t.start();
  s.run_until(1'000'000);
  EXPECT_EQ(tx, 1);
}

TEST(Trickle, BacksOffExponentially) {
  Scheduler s;
  int tx = 0;
  Trickle t(s, Rng(2), TrickleConfig{1'000'000, 4, 100}, [&] { ++tx; });
  t.start();
  // With huge k nothing suppresses; intervals are 1,2,4,8,16,16,16... s.
  s.run_until(63'000'000);
  // 1+2+4+8+16+16+16 = 63 s -> 7 transmissions.
  EXPECT_EQ(tx, 7);
  EXPECT_EQ(t.interval(), 16'000'000u);
}

TEST(Trickle, SuppressionWithHighRedundancy) {
  Scheduler s;
  int tx = 0;
  Trickle t(s, Rng(3), TrickleConfig{1'000'000, 2, 1}, [&] { ++tx; });
  t.start();
  // Feed a consistent message early in every interval.
  for (int i = 0; i < 40; ++i) {
    s.schedule_at(static_cast<Time>(i) * 500'000 + 1,
                  [&] { t.consistent(); });
  }
  s.run_until(20'000'000);
  EXPECT_EQ(tx, 0);
  EXPECT_GT(t.suppressions(), 0u);
}

TEST(Trickle, InconsistencyResetsInterval) {
  Scheduler s;
  int tx = 0;
  Trickle t(s, Rng(4), TrickleConfig{1'000'000, 6, 100}, [&] { ++tx; });
  t.start();
  s.run_until(30'000'000);
  int before = tx;
  EXPECT_GT(t.interval(), 1'000'000u);
  s.schedule_at(30'500'000, [&] { t.inconsistent(); });
  s.run_until(30'600'000);
  EXPECT_EQ(t.interval(), 1'000'000u);  // snapped back to Imin
  s.run_until(31'600'000);
  EXPECT_GT(tx, before);  // fired again quickly after reset
}

// ----------------------------------------------------------- LinkEstimator

TEST(LinkEstimator, StartsWithOptimisticPrior) {
  LinkEstimator le;
  EXPECT_DOUBLE_EQ(le.etx(7), LinkEstimator::kUnknownEtx);
}

TEST(LinkEstimator, PerfectLinkConvergesToOne) {
  LinkEstimator le;
  for (int i = 0; i < 50; ++i) le.record_tx(7, 1, true);
  EXPECT_NEAR(le.etx(7), 1.0, 0.01);
}

TEST(LinkEstimator, LossyLinkEtxRises) {
  LinkEstimator le;
  for (int i = 0; i < 50; ++i) le.record_tx(7, 3, true);  // 3 tries each
  EXPECT_NEAR(le.etx(7), 3.0, 0.1);
}

TEST(LinkEstimator, FailuresTracked) {
  LinkEstimator le;
  le.record_tx(7, 5, false);
  le.record_tx(7, 5, false);
  EXPECT_EQ(le.consecutive_failures(7), 2);
  le.record_tx(7, 1, true);
  EXPECT_EQ(le.consecutive_failures(7), 0);
}

TEST(LinkEstimator, MatchesNodeBasedReferenceUnderRandomRecordForget) {
  // The estimator keeps its entries in a flat vector; this reference is
  // the std::unordered_map version it replaced. ETX and failure counts
  // must agree bit for bit for every id, known or not, after every step.
  class Reference {
   public:
    void record_tx(NodeId n, int attempts, bool acked) {
      auto& e = links_[n];
      const double sample =
          acked ? static_cast<double>(std::max(attempts, 1))
                : LinkEstimator::kFailedSampleEtx;
      e.etx = e.samples == 0 ? sample : 0.75 * e.etx + 0.25 * sample;
      ++e.samples;
      e.consecutive_failures = acked ? 0 : e.consecutive_failures + 1;
    }
    [[nodiscard]] double etx(NodeId n) const {
      const auto it = links_.find(n);
      return it == links_.end() || it->second.samples == 0
                 ? LinkEstimator::kUnknownEtx
                 : it->second.etx;
    }
    [[nodiscard]] int consecutive_failures(NodeId n) const {
      const auto it = links_.find(n);
      return it == links_.end() ? 0 : it->second.consecutive_failures;
    }
    void forget(NodeId n) { links_.erase(n); }

   private:
    struct Entry {
      double etx = 0.0;
      std::uint32_t samples = 0;
      int consecutive_failures = 0;
    };
    std::unordered_map<NodeId, Entry> links_;
  };

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    LinkEstimator le;  // default alpha 0.25, as in the reference
    Reference ref;
    constexpr std::uint32_t kIds = 12;
    for (int step = 0; step < 3000; ++step) {
      const auto n = static_cast<NodeId>(rng.below(kIds));
      if (rng.chance(0.15)) {
        le.forget(n);
        ref.forget(n);
      } else {
        const int attempts = static_cast<int>(rng.below(6));  // 0..5
        const bool acked = rng.chance(0.7);
        le.record_tx(n, attempts, acked);
        ref.record_tx(n, attempts, acked);
      }
      for (NodeId id = 0; id < kIds; ++id) {
        ASSERT_EQ(le.etx(id), ref.etx(id))
            << "seed " << seed << " step " << step << " id " << id;
        ASSERT_EQ(le.consecutive_failures(id), ref.consecutive_failures(id))
            << "seed " << seed << " step " << step << " id " << id;
      }
    }
  }
}

// ------------------------------------------------------------ RPL harness

struct RplNet {
  explicit RplNet(World& w, RplConfig cfg = fast_config()) : world(w) {
    for (std::size_t i = 0; i < w.size(); ++i) {
      auto& m = w.with_mac<mac::CsmaMac>(w.node(i));
      routers.push_back(std::make_unique<RplRouting>(
          m, w.sched(), w.rng().fork(1000 + i), cfg));
    }
  }

  static RplConfig fast_config() {
    RplConfig cfg;
    cfg.trickle = TrickleConfig{250'000, 8, 3};
    cfg.dao_interval = 5'000'000;
    cfg.dis_interval = 2'000'000;
    return cfg;
  }

  void start(std::size_t root_index = 0) {
    world.start_all();
    for (std::size_t i = 0; i < routers.size(); ++i) {
      if (i == root_index) {
        routers[i]->start_root();
      } else {
        routers[i]->start();
      }
    }
  }

  [[nodiscard]] bool all_joined() const {
    for (const auto& r : routers) {
      if (!r->joined()) return false;
    }
    return true;
  }

  World& world;
  std::vector<std::unique_ptr<RplRouting>> routers;
};

// ---------------------------------------------------------------- RPL core

TEST(Rpl, LineFormsDodagWithMonotoneRanks) {
  World w(41);
  w.make_line(5, 25.0);
  RplNet net(w);
  net.start();
  w.sched().run_until(30_s);
  ASSERT_TRUE(net.all_joined());
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_LT(net.routers[i - 1]->rank(), net.routers[i]->rank());
    EXPECT_EQ(net.routers[i]->preferred_parent(),
              static_cast<NodeId>(i - 1));
    EXPECT_EQ(net.routers[i]->root_id(), 0u);
  }
}

TEST(Rpl, DataFlowsUpAcrossHops) {
  World w(42);
  w.make_line(5, 25.0);
  RplNet net(w);
  net.start();
  std::vector<std::pair<NodeId, std::uint8_t>> arrivals;
  net.routers[0]->set_delivery_handler(
      [&](NodeId origin, BytesView, std::uint8_t hops) {
        arrivals.emplace_back(origin, hops);
      });
  w.sched().run_until(30_s);
  ASSERT_TRUE(net.all_joined());
  w.sched().schedule_at(31_s, [&] {
    net.routers[4]->send_up(to_buffer("hello-from-leaf"));
  });
  w.sched().run_until(35_s);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0].first, 4u);
  EXPECT_EQ(arrivals[0].second, 4u);  // 4 hops on a 5-node line
}

TEST(Rpl, ManyOriginsAllDeliver) {
  World w(43);
  // 3x3 grid, 22 m pitch.
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) {
      w.add_node(static_cast<NodeId>(y * 3 + x), {x * 22.0, y * 22.0});
    }
  }
  RplNet net(w);
  net.start();
  int delivered = 0;
  net.routers[0]->set_delivery_handler(
      [&](NodeId, BytesView, std::uint8_t) { ++delivered; });
  w.sched().run_until(30_s);
  ASSERT_TRUE(net.all_joined());
  for (std::size_t i = 1; i < 9; ++i) {
    w.sched().schedule_at(30_s + static_cast<Time>(i) * 200'000, [&, i] {
      net.routers[i]->send_up(to_buffer("reading"));
    });
  }
  w.sched().run_until(40_s);
  EXPECT_EQ(delivered, 8);
}

TEST(Rpl, DownwardRoutesViaDao) {
  World w(44);
  w.make_line(4, 25.0);
  RplNet net(w);
  net.start();
  std::vector<NodeId> leaf_rx;
  net.routers[3]->set_delivery_handler(
      [&](NodeId origin, BytesView p, std::uint8_t) {
        leaf_rx.push_back(origin);
        EXPECT_EQ(to_string(p), "actuate!");
      });
  w.sched().run_until(40_s);  // allow DAOs to propagate
  ASSERT_TRUE(net.all_joined());
  EXPECT_GE(net.routers[0]->downward_table_size(), 3u);
  bool sent = false;
  w.sched().schedule_at(41_s, [&] {
    sent = net.routers[0]->send_down(3, to_buffer("actuate!"));
  });
  w.sched().run_until(45_s);
  EXPECT_TRUE(sent);
  ASSERT_EQ(leaf_rx.size(), 1u);
  EXPECT_EQ(leaf_rx[0], 0u);
}

TEST(Rpl, ReroutesAroundFailedParent) {
  // Diamond: 0(root) - {1,2} - 3. Node 3 is out of the root's radio
  // range, so it must relay via 1 or 2; kill whichever it prefers.
  World w(45);
  w.add_node(0, {0, 0});
  w.add_node(1, {25, 12});
  w.add_node(2, {25, -12});
  w.add_node(3, {50, 0});
  RplNet net(w);
  net.start();
  int delivered = 0;
  net.routers[0]->set_delivery_handler(
      [&](NodeId, BytesView, std::uint8_t) { ++delivered; });
  w.sched().run_until(20_s);
  ASSERT_TRUE(net.all_joined());
  const NodeId first_parent = net.routers[3]->preferred_parent();
  ASSERT_TRUE(first_parent == 1 || first_parent == 2);
  // Kill the preferred relay's MAC (simulates node crash).
  w.sched().schedule_at(20_s, [&] {
    w.node(first_parent).mac->stop();
    net.routers[first_parent]->stop();
  });
  // Leaf keeps sending periodic data; after a few failures it must
  // switch to the surviving relay.
  for (int i = 0; i < 20; ++i) {
    w.sched().schedule_at(21_s + static_cast<Time>(i) * 1'000'000,
                          [&] { net.routers[3]->send_up(to_buffer("d")); });
  }
  w.sched().run_until(60_s);
  EXPECT_NE(net.routers[3]->preferred_parent(), first_parent);
  EXPECT_GE(delivered, 10);
}

TEST(Rpl, FailedUnicastsRaiseParentCostBeforeEviction) {
  // Diamond again. Two failed unicasts stay below max_parent_failures, so
  // the dead relay is not evicted; its raised ETX alone must make the next
  // DIO from the equal-rank alternative win the parent selection.
  World w(45);
  w.add_node(0, {0, 0});
  w.add_node(1, {25, 12});
  w.add_node(2, {25, -12});
  w.add_node(3, {50, 0});
  RplNet net(w);
  net.start();
  w.sched().run_until(20_s);
  ASSERT_TRUE(net.all_joined());
  const NodeId first_parent = net.routers[3]->preferred_parent();
  ASSERT_TRUE(first_parent == 1 || first_parent == 2);
  const NodeId alternative = first_parent == 1 ? 2 : 1;
  ASSERT_EQ(net.routers[first_parent]->rank(),
            net.routers[alternative]->rank());
  w.sched().schedule_at(20_s, [&] {
    w.node(first_parent).mac->stop();
    net.routers[first_parent]->stop();
  });
  ASSERT_GT(RplNet::fast_config().max_parent_failures, 2);
  for (int i = 0; i < 2; ++i) {
    w.sched().schedule_at(21_s + static_cast<Time>(i) * 1'000'000,
                          [&] { net.routers[3]->send_up(to_buffer("d")); });
  }
  w.sched().run_until(23_s);
  EXPECT_EQ(net.routers[3]->stats().drops_link, 2u);
  // The alternative's trickle interval is at most Imax (64 s) by now.
  w.sched().run_until(23_s + 2 * 64_s);
  EXPECT_EQ(net.routers[3]->preferred_parent(), alternative);
  EXPECT_NE(net.routers[3]->neighbor_last_heard(first_parent), 0u)
      << "the relay was evicted, so the ETX path was never exercised";
}

TEST(Rpl, EvictedNeighborHeardAgainUsesEstimatorCost) {
  // Line 0-1-2; the leaf can only reach the root through node 1. Kill the
  // relay, let max_parent_failures unicasts evict it (which also forgets
  // its estimator entry), then restart it: the leaf must cost the link at
  // the estimator's unknown-link prior, not at the failed link's cost.
  World w(49);
  w.make_line(3, 25.0);
  RplNet net(w);
  net.start();
  w.sched().run_until(20_s);
  ASSERT_TRUE(net.all_joined());
  ASSERT_EQ(net.routers[2]->preferred_parent(), 1u);
  const RplConfig cfg = RplNet::fast_config();
  w.sched().schedule_at(20_s, [&] {
    w.node(1).mac->stop();
    net.routers[1]->stop();
  });
  for (int i = 0; i < cfg.max_parent_failures; ++i) {
    w.sched().schedule_at(21_s + static_cast<Time>(i) * 1'000'000,
                          [&] { net.routers[2]->send_up(to_buffer("d")); });
  }
  w.sched().run_until(30_s);
  ASSERT_FALSE(net.routers[2]->joined());
  EXPECT_EQ(net.routers[2]->neighbor_last_heard(1), 0u);
  w.sched().schedule_at(30_s, [&] {
    w.node(1).mac->start();
    net.routers[1]->start();
  });
  w.sched().run_until(60_s);
  ASSERT_TRUE(net.all_joined());
  const auto unknown_cost = static_cast<Rank>(LinkEstimator::kUnknownEtx *
                                              kMinHopRankIncrease);
  EXPECT_EQ(net.routers[2]->rank(), net.routers[1]->rank() + unknown_cost);
}

TEST(Rpl, GlobalRepairPropagatesNewVersion) {
  World w(46);
  w.make_line(4, 25.0);
  RplNet net(w);
  net.start();
  w.sched().run_until(20_s);
  ASSERT_TRUE(net.all_joined());
  EXPECT_EQ(net.routers[3]->version(), 0);
  w.sched().schedule_at(20_s, [&] { net.routers[0]->global_repair(); });
  w.sched().run_until(60_s);
  for (auto& r : net.routers) EXPECT_EQ(r->version(), 1);
  EXPECT_TRUE(net.all_joined());
}

TEST(Rpl, TrickleKeepsControlOverheadSublinear) {
  // In steady state, DIO rate must decay (interval doubling).
  World w(47);
  w.make_line(4, 25.0);
  RplNet net(w);
  net.start();
  w.sched().run_until(30_s);
  std::uint64_t early = 0;
  for (auto& r : net.routers) early += r->stats().dio_tx;
  w.sched().run_until(60_s);
  std::uint64_t late = 0;
  for (auto& r : net.routers) late += r->stats().dio_tx;
  // Second 30 s window must produce far fewer DIOs than the first.
  EXPECT_LT(late - early, early / 2 + 2);
}

TEST(Rpl, SendUpFailsWhenNotJoined) {
  World w(48);
  w.make_line(2, 25.0);
  RplNet net(w);
  // Do not start: not joined.
  EXPECT_FALSE(net.routers[1]->send_up(to_buffer("x")));
}

// ------------------------------------------------- RPL neighbor table

/// A MAC with no radio: a test hands RPL its frames directly and reads
/// what it sends. Sends never complete, so no unicast outcome reaches
/// the link estimator.
class ScriptedMac final : public mac::Mac {
 public:
  explicit ScriptedMac(NodeId id) : id_(id) {}

  void start() override {}
  void stop() override {}
  bool send(NodeId dst, Buffer payload, mac::SendCallback) override {
    sent.emplace_back(dst, std::move(payload));
    return true;
  }
  void set_receive_handler(mac::ReceiveHandler h) override {
    rx_ = std::move(h);
  }
  [[nodiscard]] const mac::MacStats& stats() const override { return stats_; }
  [[nodiscard]] const char* name() const override { return "scripted"; }
  [[nodiscard]] NodeId id() const override { return id_; }

  /// Delivers a DIO from `src` advertising `rank` in version 0 of root 1.
  void hear_dio(NodeId src, Rank rank, std::uint8_t depth = 1) {
    Buffer b;
    DioMsg{0, rank, kRoot, depth}.encode(b);
    rx_(src, b, -60.0);
  }

  static constexpr NodeId kRoot = 1;
  std::vector<std::pair<NodeId, Buffer>> sent;

 private:
  NodeId id_;
  mac::ReceiveHandler rx_;
  mac::MacStats stats_;
};

// Path cost through a neighbor heard only by DIO: its rank plus the link
// cost at the estimator's unknown-link prior.
constexpr Rank kPriorLinkCost =
    static_cast<Rank>(LinkEstimator::kUnknownEtx * kMinHopRankIncrease);

TEST(Rpl, EqualCostParentsTieToFirstHeard) {
  // Two neighbors offer the same path cost when the current parent is
  // poisoned; the one heard first must win, whichever id is smaller.
  // With 3, 15 or 19 fillers heard before them, the first takes the last
  // slot of the table's buffer and the second opens the next one (4 -> 8
  // by doubling, 16 -> 20 and 20 -> 24 by fixed steps), so hearing the
  // second moves the table to a bigger buffer.
  for (const std::size_t fillers :
       std::initializer_list<std::size_t>{0, 3, 15, 19}) {
    for (const auto& [first, second] :
         {std::pair<NodeId, NodeId>{5, 9}, std::pair<NodeId, NodeId>{9, 5}}) {
      sim::Scheduler sched;
      ScriptedMac m(50);
      RplRouting r(m, sched, Rng(3));
      r.start();
      for (NodeId f = 0; f < fillers; ++f) m.hear_dio(100 + f, kInfiniteRank);
      // Heard while unusable, so both are in the table before node 7.
      m.hear_dio(first, kInfiniteRank);
      m.hear_dio(second, kInfiniteRank);
      ASSERT_EQ(r.neighbor_count(), fillers + 2);
      ASSERT_FALSE(r.joined());
      m.hear_dio(7, 256, 0);  // a cheaper parent joins the node first
      ASSERT_EQ(r.preferred_parent(), 7u);
      // Equal offers from both, each too weak to displace node 7.
      m.hear_dio(second, 512);
      m.hear_dio(first, 512);
      ASSERT_EQ(r.preferred_parent(), 7u);
      m.hear_dio(7, kInfiniteRank);  // the parent poisons its rank
      EXPECT_EQ(r.preferred_parent(), first)
          << "first heard " << first << ", then " << second << " after "
          << fillers << " fillers";
      EXPECT_EQ(r.rank(), 512 + kPriorLinkCost);
      EXPECT_EQ(r.hop_depth(), 2);
    }
  }
}

TEST(Rpl, NeighborTableDoublesToSixteenThenGrowsByFour) {
  std::vector<std::size_t> caps;
  for (std::size_t held = 0; held < 32;
       held = RplRouting::grown_neighbor_capacity(held)) {
    caps.push_back(RplRouting::grown_neighbor_capacity(held));
  }
  EXPECT_EQ(caps, (std::vector<std::size_t>{4, 8, 16, 20, 24, 28, 32}));
}

TEST(Rpl, NeighborLastHeardKeepsTimesPast32Bits) {
  // An entry holds last_heard in 48 bits of µs: a time past 2^32 µs
  // (71.6 virtual minutes) and the largest time it can hold come back
  // unchanged.
  for (const sim::Time at :
       {(sim::Time{1} << 32) + 12'345, (sim::Time{1} << 48) - 1}) {
    sim::Scheduler sched;
    sched.run_until(at);  // nothing is scheduled: the clock jumps
    ScriptedMac m(50);
    RplRouting r(m, sched, Rng(5));
    r.start();
    m.hear_dio(5, 512);
    EXPECT_EQ(r.neighbor_last_heard(5), at);
    EXPECT_EQ(r.neighbor_last_heard(6), 0u);  // never heard
  }
}

TEST(Rpl, ParentChangeHandlerMayRepairInsideSelection) {
  // The handler runs inside select_parent. It detaches the node and then
  // hears enough new neighbors to move the table to a new buffer; the
  // selection must then leave the state the handler produced and read
  // nothing from the old buffer (the ASan build checks that part).
  sim::Scheduler sched;
  ScriptedMac m(50);
  RplRouting r(m, sched, Rng(4));
  bool in_handler = false;
  NodeId next_id = 100;
  int fresh = 64;  // neighbors the handler hears after repairing
  int calls = 0;
  r.set_parent_change_handler([&](NodeId, NodeId) {
    ++calls;
    if (in_handler) return;
    in_handler = true;
    r.local_repair();
    EXPECT_FALSE(r.joined());
    EXPECT_EQ(r.neighbor_count(), 0u);
    for (int i = 0; i < fresh; ++i) m.hear_dio(next_id++, 768, 2);
    in_handler = false;
  });
  r.start();

  m.hear_dio(5, 512);  // first join; the handler repairs and rejoins
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(r.preferred_parent(), 100u);
  EXPECT_EQ(r.rank(), 768 + kPriorLinkCost);
  EXPECT_EQ(r.hop_depth(), 3);
  EXPECT_EQ(r.neighbor_count(), 64u);

  fresh = 100;  // more than the cleared table holds: a new buffer again
  m.hear_dio(7, 256, 0);  // a parent switch; the handler repairs again
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(r.preferred_parent(), 164u);
  EXPECT_EQ(r.rank(), 768 + kPriorLinkCost);
  EXPECT_EQ(r.hop_depth(), 3);
  EXPECT_EQ(r.neighbor_count(), 100u);
  EXPECT_EQ(r.neighbor_last_heard(7), 0u);  // cleared by the repair

  // Without a handler in the way the node still switches normally.
  r.set_parent_change_handler(nullptr);
  m.hear_dio(8, 256, 0);
  EXPECT_EQ(r.preferred_parent(), 8u);
  EXPECT_EQ(r.rank(), 256 + kPriorLinkCost);
  EXPECT_EQ(r.hop_depth(), 1);
}

// ------------------------------------------------------------------- RNFD

struct RnfdNet {
  RnfdNet(World& w, RplNet& net, RnfdConfig cfg) {
    for (std::size_t i = 1; i < net.routers.size(); ++i) {
      detectors.push_back(std::make_unique<RnfdDetector>(
          *net.routers[i], w.sched(), w.rng().fork(2000 + i), cfg));
    }
  }
  void start() {
    for (auto& d : detectors) d->start();
  }
  [[nodiscard]] int dead_count() const {
    int n = 0;
    for (const auto& d : detectors) {
      if (d->root_declared_dead()) ++n;
    }
    return n;
  }
  std::vector<std::unique_ptr<RnfdDetector>> detectors;
};

RnfdConfig fast_rnfd() {
  RnfdConfig cfg;
  cfg.probe_interval = 5'000'000;
  cfg.probe_jitter = 2'000'000;
  cfg.gossip_interval = 500'000;
  cfg.quorum_min = 2;
  cfg.quorum_ratio = 0.5;
  return cfg;
}

TEST(Rnfd, NoFalseAlarmsWhileRootAlive) {
  World w(50);
  w.add_node(0, {0, 0});
  w.add_node(1, {20, 0});
  w.add_node(2, {0, 20});
  w.add_node(3, {-20, 0});
  w.add_node(4, {40, 0});
  RplNet net(w);
  RnfdNet rnfd(w, net, fast_rnfd());
  net.start();
  w.sched().run_until(15_s);
  rnfd.start();
  w.sched().run_until(120_s);
  EXPECT_EQ(rnfd.dead_count(), 0);
}

TEST(Rnfd, DetectsRootDeathAndSpreadsVerdict) {
  World w(51);
  w.add_node(0, {0, 0});    // root
  w.add_node(1, {20, 0});   // sentinel
  w.add_node(2, {0, 20});   // sentinel
  w.add_node(3, {-20, 0});  // sentinel
  w.add_node(4, {40, 0});   // 2 hops away (via 1)
  RplNet net(w);
  RnfdNet rnfd(w, net, fast_rnfd());
  net.start();
  w.sched().run_until(15_s);
  rnfd.start();
  w.sched().run_until(30_s);
  int sentinels = 0;
  for (auto& d : rnfd.detectors) {
    if (d->is_sentinel()) ++sentinels;
  }
  EXPECT_GE(sentinels, 2);
  // Root dies.
  w.sched().schedule_at(30_s, [&] {
    w.node(0).mac->stop();
    net.routers[0]->stop();
  });
  w.sched().run_until(90_s);
  // All nodes (including the 2-hop one) learn the verdict via gossip.
  EXPECT_EQ(rnfd.dead_count(), 4);
}

TEST(Rnfd, RootRecoveryAdvancesEpochAndClearsVerdict) {
  World w(52);
  w.add_node(0, {0, 0});
  w.add_node(1, {20, 0});
  w.add_node(2, {0, 20});
  w.add_node(3, {-20, 0});
  RplNet net(w);
  RnfdNet rnfd(w, net, fast_rnfd());
  net.start();
  w.sched().run_until(15_s);
  rnfd.start();
  // Kill and later revive the root MAC.
  w.sched().schedule_at(30_s, [&] { w.node(0).mac->stop(); });
  w.sched().run_until(80_s);
  EXPECT_GE(rnfd.dead_count(), 2);
  w.sched().schedule_at(80_s, [&] { w.node(0).mac->start(); });
  w.sched().run_until(140_s);
  EXPECT_EQ(rnfd.dead_count(), 0);
  std::uint64_t advances = 0;
  for (auto& d : rnfd.detectors) advances += d->stats().epoch_advances;
  EXPECT_GE(advances, 1u);
}

TEST(Keepalive, DetectsAfterKMisses) {
  World w(53);
  w.add_node(0, {0, 0});
  w.add_node(1, {20, 0});
  RplNet net(w);
  KeepaliveConfig cfg;
  cfg.probe_interval = 5'000'000;
  cfg.probe_jitter = 1'000'000;
  cfg.k_missed = 3;
  KeepaliveDetector det(*net.routers[1], w.sched(), w.rng().fork(77), cfg);
  net.start();
  w.sched().run_until(10_s);
  det.start();
  w.sched().run_until(30_s);
  EXPECT_FALSE(det.root_declared_dead());
  Time death = 30_s;
  w.sched().schedule_at(death, [&] { w.node(0).mac->stop(); });
  w.sched().run_until(80_s);
  EXPECT_TRUE(det.root_declared_dead());
}

}  // namespace
}  // namespace iiot::net
