// MAC protocol tests: CSMA, LPL, RI-MAC, TDMA behaviour and energy.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "harness.hpp"

namespace iiot::mac {
namespace {

using namespace sim;  // NOLINT: time literals
using test::World;

Buffer payload(std::size_t n = 12, std::uint8_t fill = 0xAB) {
  return Buffer(n, fill);
}

/// Sends `total` numbered frames to `dst`, three up front; each send
/// callback enqueues the next two, so sends run inside completion
/// callbacks while the queue grows, and only then records its id (-1
/// for a failed send) in `completed`. Reading its captures after the
/// queue has grown is what exposes a callback run from inside the queue.
struct ChainedSender {
  ChainedSender(Mac& m, NodeId d, int n) : mac(m), dst(d), total(n) {}

  Mac& mac;
  NodeId dst;
  int total;
  int next = 0;
  std::vector<int> completed;

  void start() {
    for (int i = 0; i < 3; ++i) send_one();
  }
  void send_one() {
    const int id = next++;
    mac.send(dst, payload(4, static_cast<std::uint8_t>(id)),
             [this, id](const SendStatus& s) {
               for (int k = 0; k < 2 && next < total; ++k) send_one();
               completed.push_back(s.delivered ? id : -1);
             });
  }
};

/// Every frame of a ChainedSender completes once and arrives in FIFO
/// order. A retry after a lost ack goes out under a fresh link sequence
/// number, so the receiver may see a frame twice in a row.
void expect_chain_in_order(const ChainedSender& tx,
                           const std::vector<std::uint8_t>& rx) {
  ASSERT_EQ(tx.next, tx.total);
  ASSERT_EQ(tx.completed.size(), static_cast<std::size_t>(tx.total));
  for (int i = 0; i < tx.total; ++i) EXPECT_EQ(tx.completed[i], i);
  std::vector<std::uint8_t> distinct = rx;
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  ASSERT_EQ(distinct.size(), static_cast<std::size_t>(tx.total));
  for (int i = 0; i < tx.total; ++i) EXPECT_EQ(distinct[i], i);
}

/// Wires node 0 -> node 1 with MAC `M` and runs a 12-frame chain.
template <class M, class... Cfg>
void run_chain(std::uint64_t seed, Time horizon, Cfg... cfg) {
  World w(seed);
  w.make_line(2);
  auto& a = w.with_mac<M>(w.node(0), cfg...);
  auto& b = w.with_mac<M>(w.node(1), cfg...);
  std::vector<std::uint8_t> rx;
  b.set_receive_handler([&](NodeId, BytesView p, double) {
    rx.push_back(p[0]);
  });
  w.start_all();
  ChainedSender tx{a, 1, 12};
  tx.start();
  w.sched().run_until(horizon);
  expect_chain_in_order(tx, rx);
}

// ------------------------------------------------------------------- CSMA

TEST(CsmaMac, UnicastDeliversAndAcks) {
  World w(1);
  w.make_line(2);
  auto& a = w.with_mac<CsmaMac>(w.node(0));
  auto& b = w.with_mac<CsmaMac>(w.node(1));
  int rx = 0;
  b.set_receive_handler([&](NodeId src, BytesView p, double) {
    EXPECT_EQ(src, 0u);
    EXPECT_EQ(p.size(), 12u);
    ++rx;
  });
  w.start_all();
  SendStatus st;
  bool done = false;
  a.send(1, payload(), [&](const SendStatus& s) {
    st = s;
    done = true;
  });
  w.sched().run_until(1_s);
  EXPECT_TRUE(done);
  EXPECT_TRUE(st.delivered);
  EXPECT_EQ(st.attempts, 1);
  EXPECT_EQ(rx, 1);
}

TEST(CsmaMac, DeliveryIsFastMilliseconds) {
  World w(2);
  w.make_line(2);
  auto& a = w.with_mac<CsmaMac>(w.node(0));
  w.with_mac<CsmaMac>(w.node(1));
  w.start_all();
  Time done_at = 0;
  a.send(1, payload(), [&](const SendStatus&) { done_at = w.sched().now(); });
  w.sched().run_until(1_s);
  EXPECT_GT(done_at, 0u);
  EXPECT_LT(done_at, 20'000u);  // well under 20 ms
}

TEST(CsmaMac, RetriesWhenReceiverUnreachableThenFails) {
  World w(3);
  w.make_line(2, /*spacing=*/5000.0);  // out of range
  auto& a = w.with_mac<CsmaMac>(w.node(0));
  w.with_mac<CsmaMac>(w.node(1));
  w.start_all();
  SendStatus st;
  a.send(1, payload(), [&](const SendStatus& s) { st = s; });
  w.sched().run_until(5_s);
  EXPECT_FALSE(st.delivered);
  EXPECT_EQ(st.attempts, 5);  // 1 try + 4 retries
  EXPECT_GE(a.stats().retries, 4u);
}

TEST(CsmaMac, BroadcastReachesAllNeighbors) {
  World w(4);
  w.add_node(0, {0, 0});
  w.add_node(1, {15, 0});
  w.add_node(2, {0, 15});
  w.add_node(3, {-15, -5});
  auto& a = w.with_mac<CsmaMac>(w.node(0));
  int rx = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    auto& m = w.with_mac<CsmaMac>(w.node(i));
    m.set_receive_handler([&](NodeId, BytesView, double) { ++rx; });
  }
  w.start_all();
  bool ok = false;
  a.send(kBroadcastNode, payload(),
         [&](const SendStatus& s) { ok = s.delivered; });
  w.sched().run_until(1_s);
  EXPECT_TRUE(ok);
  EXPECT_EQ(rx, 3);
}

TEST(CsmaMac, QueuedFramesAllDeliverInOrder) {
  World w(5);
  w.make_line(2);
  auto& a = w.with_mac<CsmaMac>(w.node(0));
  auto& b = w.with_mac<CsmaMac>(w.node(1));
  std::vector<std::uint8_t> seen;
  b.set_receive_handler([&](NodeId, BytesView p, double) {
    seen.push_back(p[0]);
  });
  w.start_all();
  for (std::uint8_t i = 0; i < 10; ++i) a.send(1, payload(4, i));
  w.sched().run_until(2_s);
  ASSERT_EQ(seen.size(), 10u);
  for (std::uint8_t i = 0; i < 10; ++i) EXPECT_EQ(seen[i], i);
}

TEST(CsmaMac, QueueOverflowRejects) {
  World w(6);
  w.make_line(2);
  auto& a = w.with_mac<CsmaMac>(w.node(0));
  w.with_mac<CsmaMac>(w.node(1));
  w.start_all();
  int accepted = 0;
  for (int i = 0; i < 40; ++i) {
    if (a.send(1, payload())) ++accepted;
  }
  EXPECT_LT(accepted, 40);
  EXPECT_GE(a.stats().queue_drops, 1u);
}

TEST(CsmaMac, SendFromCallbackWhileQueueGrows) {
  run_chain<CsmaMac>(7, 2_s);
}

TEST(CsmaMac, AlwaysOnDutyCycleIsNearOne) {
  World w(7);
  w.make_line(2);
  w.with_mac<CsmaMac>(w.node(0));
  w.with_mac<CsmaMac>(w.node(1));
  w.start_all();
  w.sched().run_until(10_s);
  w.node(1).meter.settle(w.sched().now());
  EXPECT_GT(w.node(1).meter.duty_cycle(), 0.99);
}

TEST(CsmaMac, ContendingSendersBothSucceed) {
  World w(8);
  w.add_node(0, {0, 0});
  w.add_node(1, {15, 0});
  w.add_node(2, {7, 10});
  auto& a = w.with_mac<CsmaMac>(w.node(0));
  auto& b = w.with_mac<CsmaMac>(w.node(1));
  auto& c = w.with_mac<CsmaMac>(w.node(2));
  int rx = 0;
  c.set_receive_handler([&](NodeId, BytesView, double) { ++rx; });
  w.start_all();
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    w.sched().schedule_at(static_cast<Time>(i) * 50'000, [&] {
      a.send(2, payload(8, 1), [&](const SendStatus& s) {
        if (s.delivered) ++delivered;
      });
      b.send(2, payload(8, 2), [&](const SendStatus& s) {
        if (s.delivered) ++delivered;
      });
    });
  }
  w.sched().run_until(5_s);
  EXPECT_GE(delivered, 38);  // collisions resolved by backoff + retries
  EXPECT_GE(rx, 38);
}

// -------------------------------------------------------------------- LPL

LplConfig fast_lpl() {
  LplConfig cfg;
  cfg.wake_interval = 200'000;  // 200 ms for quicker tests
  return cfg;
}

TEST(LplMac, UnicastDeliversAcrossSleepSchedule) {
  World w(10);
  w.make_line(2);
  auto& a = w.with_mac<LplMac>(w.node(0), fast_lpl());
  auto& b = w.with_mac<LplMac>(w.node(1), fast_lpl());
  int rx = 0;
  b.set_receive_handler([&](NodeId, BytesView, double) { ++rx; });
  w.start_all();
  bool ok = false;
  w.sched().schedule_at(1_s, [&] {
    a.send(1, payload(), [&](const SendStatus& s) { ok = s.delivered; });
  });
  w.sched().run_until(3_s);
  EXPECT_TRUE(ok);
  EXPECT_EQ(rx, 1);
}

TEST(LplMac, LatencyIsBoundedByWakeInterval) {
  // Per-hop latency must be in (0, ~wake_interval + margin].
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    World w(seed * 100);
    w.make_line(2);
    auto& a = w.with_mac<LplMac>(w.node(0), fast_lpl());
    w.with_mac<LplMac>(w.node(1), fast_lpl());
    w.start_all();
    Time sent_at = 500'000, done_at = 0;
    w.sched().schedule_at(sent_at, [&] {
      a.send(1, payload(), [&](const SendStatus& s) {
        if (s.delivered) done_at = w.sched().now();
      });
    });
    w.sched().run_until(3_s);
    ASSERT_GT(done_at, sent_at);
    EXPECT_LT(done_at - sent_at, 250'000u);
  }
}

TEST(LplMac, DutyCycleStaysLow) {
  World w(11);
  w.make_line(2);
  w.with_mac<LplMac>(w.node(0), fast_lpl());
  w.with_mac<LplMac>(w.node(1), fast_lpl());
  w.start_all();
  w.sched().run_until(60_s);
  w.node(1).meter.settle(w.sched().now());
  // 5 ms sample / 200 ms interval = 2.5% base duty cycle.
  EXPECT_LT(w.node(1).meter.duty_cycle(), 0.06);
  EXPECT_GT(w.node(1).meter.duty_cycle(), 0.01);
}

TEST(LplMac, BroadcastReachesSleepingNeighbors) {
  World w(12);
  w.add_node(0, {0, 0});
  w.add_node(1, {15, 0});
  w.add_node(2, {0, 15});
  auto& a = w.with_mac<LplMac>(w.node(0), fast_lpl());
  int rx = 0;
  for (std::size_t i = 1; i < 3; ++i) {
    auto& m = w.with_mac<LplMac>(w.node(i), fast_lpl());
    m.set_receive_handler([&](NodeId, BytesView, double) { ++rx; });
  }
  w.start_all();
  bool ok = false;
  w.sched().schedule_at(1_s, [&] {
    a.send(kBroadcastNode, payload(),
           [&](const SendStatus& s) { ok = s.delivered; });
  });
  w.sched().run_until(4_s);
  EXPECT_TRUE(ok);
  EXPECT_EQ(rx, 2);  // dedup: exactly one delivery per neighbor
}

TEST(LplMac, UnreachableTargetFailsAfterRetries) {
  World w(13);
  w.make_line(2, 5000.0);
  auto& a = w.with_mac<LplMac>(w.node(0), fast_lpl());
  w.with_mac<LplMac>(w.node(1), fast_lpl());
  w.start_all();
  bool done = false, delivered = true;
  a.send(1, payload(), [&](const SendStatus& s) {
    done = true;
    delivered = s.delivered;
  });
  w.sched().run_until(10_s);
  EXPECT_TRUE(done);
  EXPECT_FALSE(delivered);
}

TEST(LplMac, BackToBackSendsAllDeliver) {
  World w(14);
  w.make_line(2);
  auto& a = w.with_mac<LplMac>(w.node(0), fast_lpl());
  auto& b = w.with_mac<LplMac>(w.node(1), fast_lpl());
  int rx = 0;
  b.set_receive_handler([&](NodeId, BytesView, double) { ++rx; });
  w.start_all();
  int delivered = 0;
  for (int i = 0; i < 5; ++i) {
    a.send(1, payload(6, static_cast<std::uint8_t>(i)),
           [&](const SendStatus& s) {
             if (s.delivered) ++delivered;
           });
  }
  w.sched().run_until(10_s);
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(rx, 5);
}

TEST(LplMac, SendFromCallbackWhileQueueGrows) {
  run_chain<LplMac>(15, 20_s, fast_lpl());
}

// ------------------------------------------------------------------ RI-MAC

RiMacConfig fast_rimac() {
  RiMacConfig cfg;
  cfg.wake_interval = 200'000;
  return cfg;
}

TEST(RiMac, UnicastDeliversOnBeacon) {
  World w(20);
  w.make_line(2);
  auto& a = w.with_mac<RiMac>(w.node(0), fast_rimac());
  auto& b = w.with_mac<RiMac>(w.node(1), fast_rimac());
  int rx = 0;
  b.set_receive_handler([&](NodeId, BytesView, double) { ++rx; });
  w.start_all();
  bool ok = false;
  w.sched().schedule_at(1_s, [&] {
    a.send(1, payload(), [&](const SendStatus& s) { ok = s.delivered; });
  });
  w.sched().run_until(4_s);
  EXPECT_TRUE(ok);
  EXPECT_EQ(rx, 1);
}

TEST(RiMac, SenderPaysIdleListeningCost) {
  World w(21);
  w.make_line(2);
  auto& a = w.with_mac<RiMac>(w.node(0), fast_rimac());
  w.with_mac<RiMac>(w.node(1), fast_rimac());
  w.start_all();
  // Sender with steady traffic listens a lot; idle receiver stays low.
  for (int i = 0; i < 20; ++i) {
    w.sched().schedule_at(static_cast<Time>(i) * 500'000,
                          [&] { a.send(1, payload()); });
  }
  w.sched().run_until(10_s);
  w.node(0).meter.settle(w.sched().now());
  w.node(1).meter.settle(w.sched().now());
  EXPECT_GT(w.node(0).meter.duty_cycle(),
            3.0 * w.node(1).meter.duty_cycle());
}

TEST(RiMac, BroadcastServesEveryBeaconingNeighbor) {
  World w(22);
  w.add_node(0, {0, 0});
  w.add_node(1, {15, 0});
  w.add_node(2, {0, 15});
  w.add_node(3, {-12, 8});
  auto& a = w.with_mac<RiMac>(w.node(0), fast_rimac());
  int rx = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    auto& m = w.with_mac<RiMac>(w.node(i), fast_rimac());
    m.set_receive_handler([&](NodeId, BytesView, double) { ++rx; });
  }
  w.start_all();
  bool ok = false;
  w.sched().schedule_at(1_s, [&] {
    a.send(kBroadcastNode, payload(),
           [&](const SendStatus& s) { ok = s.delivered; });
  });
  w.sched().run_until(4_s);
  EXPECT_TRUE(ok);
  EXPECT_EQ(rx, 3);
}

TEST(RiMac, IdleNetworkDutyCycleLow) {
  World w(23);
  w.make_line(3);
  for (std::size_t i = 0; i < 3; ++i) {
    w.with_mac<RiMac>(w.node(i), fast_rimac());
  }
  w.start_all();
  w.sched().run_until(60_s);
  for (std::size_t i = 0; i < 3; ++i) {
    w.node(i).meter.settle(w.sched().now());
    EXPECT_LT(w.node(i).meter.duty_cycle(), 0.08);
  }
}

TEST(RiMac, SendFromCallbackWhileQueueGrows) {
  run_chain<RiMac>(24, 20_s, fast_rimac());
}

// -------------------------------------------------------------------- TDMA

TdmaConfig fast_tdma(bool staggered = true) {
  TdmaConfig cfg;
  cfg.epoch = 1'000'000;  // 1 s epochs
  cfg.slot = 40'000;
  cfg.staggered = staggered;
  return cfg;
}

/// Wires a 1-D collection line 0 <- 1 <- 2 ... (node 0 = root) and
/// installs hop-by-hop forwarding toward the root.
void wire_tdma_line(World& w, std::size_t n, const TdmaConfig& cfg,
                    std::vector<Buffer>* at_root, Rng& phase_rng) {
  for (std::size_t i = 0; i < n; ++i) {
    auto& m = w.with_mac<TdmaMac>(w.node(i), cfg);
    TdmaSchedule s;
    s.parent = i == 0 ? kInvalidNode : static_cast<NodeId>(i - 1);
    s.depth = static_cast<int>(i);
    s.max_depth = static_cast<int>(n - 1);
    s.has_children = i + 1 < n;
    s.phase = static_cast<sim::Duration>(
        phase_rng.below(static_cast<std::uint32_t>(cfg.epoch - cfg.slot)));
    m.configure(s);
  }
  // Parent phases are known only after all nodes exist.
  for (std::size_t i = 1; i < n; ++i) {
    // For the unaligned mode: re-configure with parent phase.
    auto& child = static_cast<TdmaMac&>(*w.node(i).mac);
    auto& parent = static_cast<TdmaMac&>(*w.node(i - 1).mac);
    (void)parent;
    TdmaSchedule s;
    s.parent = static_cast<NodeId>(i - 1);
    s.depth = static_cast<int>(i);
    s.max_depth = static_cast<int>(n - 1);
    s.has_children = i + 1 < n;
    child.configure(s);
  }
  for (std::size_t i = 0; i < n; ++i) {
    auto& m = *w.node(i).mac;
    NodeId parent = i == 0 ? kInvalidNode : static_cast<NodeId>(i - 1);
    if (i == 0) {
      m.set_receive_handler([at_root](NodeId, BytesView p, double) {
        if (at_root) at_root->emplace_back(p.begin(), p.end());
      });
    } else {
      m.set_receive_handler([&m, parent](NodeId, BytesView p, double) {
        m.send(parent, Buffer(p.begin(), p.end()));
      });
    }
  }
}

TEST(TdmaMac, StaggeredLineDeliversToRootWithinOneEpoch) {
  World w(30);
  w.make_line(5);
  auto cfg = fast_tdma(true);
  std::vector<Buffer> at_root;
  Rng pr(99);
  wire_tdma_line(w, 5, cfg, &at_root, pr);
  w.start_all();
  // Inject at the deepest node early in an epoch.
  Time sent_at = 0;
  w.sched().schedule_at(2'050'000, [&] {
    sent_at = w.sched().now();
    w.node(4).mac->send(3, payload());
  });
  w.sched().run_until(10_s);
  ASSERT_EQ(at_root.size(), 1u);
}

TEST(TdmaMac, StaggeredLatencyFarBelowPerHopEpoch) {
  // End-to-end latency over 5 hops should be ~1 epoch, not ~5 epochs.
  World w(31);
  w.make_line(6);
  auto cfg = fast_tdma(true);
  std::vector<Buffer> at_root;
  Rng pr(100);
  wire_tdma_line(w, 6, cfg, &at_root, pr);
  w.start_all();
  Time sent_at = 2'050'000;
  Time done_at = 0;
  w.sched().schedule_at(sent_at, [&] { w.node(5).mac->send(4, payload()); });
  // Poll for arrival.
  for (Time t = sent_at; t < 20'000'000; t += 10'000) {
    w.sched().schedule_at(t, [&] {
      if (!at_root.empty() && done_at == 0) done_at = w.sched().now();
    });
  }
  w.sched().run_until(20_s);
  ASSERT_GT(done_at, 0u);
  EXPECT_LT(done_at - sent_at, 2 * cfg.epoch);
}

TEST(TdmaMac, SendToNonParentFails) {
  World w(32);
  w.make_line(3);
  auto cfg = fast_tdma(true);
  Rng pr(101);
  wire_tdma_line(w, 3, cfg, nullptr, pr);
  w.start_all();
  bool done = false, delivered = true;
  w.node(2).mac->send(0, payload(), [&](const SendStatus& s) {
    done = true;
    delivered = s.delivered;
  });
  EXPECT_TRUE(done);
  EXPECT_FALSE(delivered);
}

TEST(TdmaMac, DutyCycleLowInSteadyState) {
  World w(33);
  w.make_line(4);
  auto cfg = fast_tdma(true);
  Rng pr(102);
  wire_tdma_line(w, 4, cfg, nullptr, pr);
  w.start_all();
  w.sched().run_until(60_s);
  // Interior node: one rx slot + one tx slot per 1 s epoch = ~8%.
  w.node(2).meter.settle(w.sched().now());
  EXPECT_LT(w.node(2).meter.duty_cycle(), 0.15);
}

TEST(TdmaMac, ManySamplesAllReachRoot) {
  World w(34);
  w.make_line(4);
  auto cfg = fast_tdma(true);
  std::vector<Buffer> at_root;
  Rng pr(103);
  wire_tdma_line(w, 4, cfg, &at_root, pr);
  w.start_all();
  for (int i = 0; i < 10; ++i) {
    w.sched().schedule_at(1'000'000 + static_cast<Time>(i) * 1'000'000,
                          [&] { w.node(3).mac->send(2, payload()); });
  }
  w.sched().run_until(30_s);
  EXPECT_EQ(at_root.size(), 10u);
}

TEST(TdmaMac, SendFromCallbackWhileQueueGrows) {
  World w(35);
  w.make_line(2);
  std::vector<Buffer> at_root;
  Rng pr(104);
  wire_tdma_line(w, 2, fast_tdma(true), &at_root, pr);
  w.start_all();
  ChainedSender tx{*w.node(1).mac, 0, 12};
  w.sched().schedule_at(1_s, [&] { tx.start(); });
  w.sched().run_until(30_s);
  std::vector<std::uint8_t> rx;
  for (const Buffer& b : at_root) rx.push_back(b[0]);
  expect_chain_in_order(tx, rx);
}

}  // namespace
}  // namespace iiot::mac
