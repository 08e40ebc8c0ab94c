// Tests for the radio + medium substrate: delivery, loss, collisions,
// capture, CCA, half-duplex and duty-cycling semantics.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "energy/meter.hpp"
#include "radio/island.hpp"
#include "radio/medium.hpp"
#include "radio/radio.hpp"
#include "sim/scheduler.hpp"

namespace iiot::radio {
namespace {

using namespace sim;  // NOLINT: time literals

struct TestNode {
  TestNode(Medium& medium, Scheduler& sched, NodeId id, Position pos)
      : meter(), radio(medium, sched, id, pos, meter) {}
  energy::Meter meter;
  Radio radio;
  std::optional<Frame> last_rx;
  int rx_count = 0;

  void listen() {
    radio.set_mode(Mode::kListen);
    radio.set_receive_handler([this](const Frame& f, double) {
      last_rx = f;
      ++rx_count;
    });
  }
};

PropagationConfig ideal_config() {
  PropagationConfig cfg;
  cfg.shadowing_sigma_db = 0.0;
  cfg.exponent = 3.0;
  return cfg;
}

Frame make_frame(NodeId src, NodeId dst, std::size_t payload = 10) {
  Frame f;
  f.src = src;
  f.dst = dst;
  f.payload.assign(payload, 0x55);
  return f;
}

class RadioTest : public ::testing::Test {
 protected:
  Scheduler sched;
  Medium medium{sched, ideal_config(), 1234};
};

TEST_F(RadioTest, CloseLinkDeliversReliably) {
  TestNode a(medium, sched, 1, {0, 0});
  TestNode b(medium, sched, 2, {10, 0});
  b.listen();
  a.radio.set_mode(Mode::kListen);

  int sent = 0;
  for (int i = 0; i < 50; ++i) {
    sched.schedule_at(static_cast<Time>(i) * 10'000, [&] {
      a.radio.transmit(make_frame(1, 2), nullptr);
      ++sent;
    });
  }
  sched.run_all();
  EXPECT_EQ(sent, 50);
  EXPECT_EQ(b.rx_count, 50);  // 10 m at exponent 3: SNR >> threshold
}

TEST_F(RadioTest, FarLinkNeverDelivers) {
  TestNode a(medium, sched, 1, {0, 0});
  TestNode b(medium, sched, 2, {10'000, 0});  // 10 km: below sensitivity
  b.listen();
  a.radio.set_mode(Mode::kListen);
  a.radio.transmit(make_frame(1, 2), nullptr);
  sched.run_all();
  EXPECT_EQ(b.rx_count, 0);
}

TEST_F(RadioTest, IntermediateDistanceIsLossy) {
  // Find PRR at a distance engineered to be in the transitional region.
  TestNode a(medium, sched, 1, {0, 0});
  TestNode b(medium, sched, 2, {55, 0});
  double prr = medium.link_prr(a.radio, b.radio);
  EXPECT_GT(prr, 0.02);
  EXPECT_LT(prr, 0.98);

  b.listen();
  a.radio.set_mode(Mode::kListen);
  constexpr int kSent = 400;
  for (int i = 0; i < kSent; ++i) {
    sched.schedule_at(static_cast<Time>(i) * 10'000,
                      [&] { a.radio.transmit(make_frame(1, 2), nullptr); });
  }
  sched.run_all();
  double observed = static_cast<double>(b.rx_count) / kSent;
  EXPECT_NEAR(observed, prr, 0.12);
}

TEST_F(RadioTest, SleepingReceiverMissesFrame) {
  TestNode a(medium, sched, 1, {0, 0});
  TestNode b(medium, sched, 2, {10, 0});
  b.listen();
  b.radio.set_mode(Mode::kSleep);
  a.radio.set_mode(Mode::kListen);
  a.radio.transmit(make_frame(1, 2), nullptr);
  sched.run_all();
  EXPECT_EQ(b.rx_count, 0);
}

TEST_F(RadioTest, ReceiverLeavingListenMidFrameAborts) {
  TestNode a(medium, sched, 1, {0, 0});
  TestNode b(medium, sched, 2, {10, 0});
  b.listen();
  a.radio.set_mode(Mode::kListen);
  a.radio.transmit(make_frame(1, 2, 50), nullptr);
  // Frame airtime is (6+9+50+2)*32 us = 2144 us; sleep at 1 ms.
  sched.schedule_at(1'000, [&] { b.radio.set_mode(Mode::kSleep); });
  sched.run_all();
  EXPECT_EQ(b.rx_count, 0);
  EXPECT_GE(medium.stats().aborted, 1u);
}

TEST_F(RadioTest, WakingMidFrameDoesNotReceive) {
  TestNode a(medium, sched, 1, {0, 0});
  TestNode b(medium, sched, 2, {10, 0});
  b.listen();
  b.radio.set_mode(Mode::kSleep);
  a.radio.set_mode(Mode::kListen);
  a.radio.transmit(make_frame(1, 2, 50), nullptr);
  sched.schedule_at(500, [&] { b.radio.set_mode(Mode::kListen); });
  sched.run_all();
  EXPECT_EQ(b.rx_count, 0);
}

TEST_F(RadioTest, ConcurrentTransmissionsCollideAtReceiver) {
  TestNode a(medium, sched, 1, {0, 0});
  TestNode b(medium, sched, 2, {20, 10});
  TestNode rx(medium, sched, 3, {10, 5});  // equidistant-ish: no capture
  rx.listen();
  a.radio.set_mode(Mode::kListen);
  b.radio.set_mode(Mode::kListen);
  a.radio.transmit(make_frame(1, 3, 40), nullptr);
  sched.schedule_at(100, [&] { b.radio.transmit(make_frame(2, 3, 40), nullptr); });
  sched.run_all();
  EXPECT_EQ(rx.rx_count, 0);
  EXPECT_GE(medium.stats().collisions, 1u);
}

TEST_F(RadioTest, CaptureLetsStrongSignalWin) {
  TestNode strong(medium, sched, 1, {2, 0});
  TestNode weak(medium, sched, 2, {60, 0});
  TestNode rx(medium, sched, 3, {0, 0});
  rx.listen();
  strong.radio.set_mode(Mode::kListen);
  weak.radio.set_mode(Mode::kListen);
  // Weak starts first; strong (close) frame overlaps and captures.
  weak.radio.transmit(make_frame(2, 3, 40), nullptr);
  sched.schedule_at(50, [&] { strong.radio.transmit(make_frame(1, 3, 40), nullptr); });
  sched.run_all();
  ASSERT_EQ(rx.rx_count, 1);
  EXPECT_EQ(rx.last_rx->src, 1u);
}

TEST_F(RadioTest, HalfDuplexTransmitterCannotReceive) {
  TestNode a(medium, sched, 1, {0, 0});
  TestNode b(medium, sched, 2, {10, 0});
  a.listen();
  b.listen();
  // Both transmit simultaneously: neither receives.
  a.radio.transmit(make_frame(1, 2, 30), nullptr);
  b.radio.transmit(make_frame(2, 1, 30), nullptr);
  sched.run_all();
  EXPECT_EQ(a.rx_count, 0);
  EXPECT_EQ(b.rx_count, 0);
}

TEST_F(RadioTest, DifferentChannelsDoNotInterfere) {
  TestNode a(medium, sched, 1, {0, 0});
  TestNode b(medium, sched, 2, {10, 0});
  TestNode c(medium, sched, 3, {5, 5});
  TestNode d(medium, sched, 4, {15, 5});
  b.listen();
  d.listen();
  a.radio.set_mode(Mode::kListen);
  c.radio.set_mode(Mode::kListen);
  c.radio.set_channel(15);
  d.radio.set_channel(15);
  // Overlapping transmissions on channels 11 and 15.
  a.radio.transmit(make_frame(1, 2, 40), nullptr);
  c.radio.transmit(make_frame(3, 4, 40), nullptr);
  sched.run_all();
  EXPECT_EQ(b.rx_count, 1);
  EXPECT_EQ(d.rx_count, 1);
  EXPECT_EQ(medium.stats().collisions, 0u);
}

TEST_F(RadioTest, CcaDetectsNearbyTransmission) {
  TestNode a(medium, sched, 1, {0, 0});
  TestNode b(medium, sched, 2, {10, 0});
  a.radio.set_mode(Mode::kListen);
  b.radio.set_mode(Mode::kListen);
  EXPECT_TRUE(b.radio.cca_clear());
  a.radio.transmit(make_frame(1, kBroadcastNode, 60), nullptr);
  sched.schedule_at(200, [&] { EXPECT_FALSE(b.radio.cca_clear()); });
  sched.run_all();
  EXPECT_TRUE(b.radio.cca_clear());
}

TEST_F(RadioTest, TransmitWhileBusyFails) {
  TestNode a(medium, sched, 1, {0, 0});
  a.radio.set_mode(Mode::kListen);
  EXPECT_TRUE(a.radio.transmit(make_frame(1, 2), nullptr));
  EXPECT_FALSE(a.radio.transmit(make_frame(1, 2), nullptr));
  sched.run_all();
  EXPECT_TRUE(a.radio.transmit(make_frame(1, 2), nullptr));
}

TEST_F(RadioTest, TransmitWhileOffFails) {
  TestNode a(medium, sched, 1, {0, 0});
  EXPECT_EQ(a.radio.mode(), Mode::kOff);
  EXPECT_FALSE(a.radio.transmit(make_frame(1, 2), nullptr));
}

TEST_F(RadioTest, TxDoneFiresAfterAirtime) {
  TestNode a(medium, sched, 1, {0, 0});
  a.radio.set_mode(Mode::kListen);
  Frame f = make_frame(1, 2, 33);  // (6+9+33+2)*32 = 1600 us
  Time done_at = 0;
  a.radio.transmit(f, [&] { done_at = sched.now(); });
  sched.run_all();
  EXPECT_EQ(done_at, airtime(f));
}

TEST_F(RadioTest, BroadcastReachesAllListeners) {
  TestNode a(medium, sched, 1, {0, 0});
  TestNode b(medium, sched, 2, {10, 0});
  TestNode c(medium, sched, 3, {0, 10});
  TestNode d(medium, sched, 4, {-10, 0});
  b.listen();
  c.listen();
  d.listen();
  a.radio.set_mode(Mode::kListen);
  a.radio.transmit(make_frame(1, kBroadcastNode), nullptr);
  sched.run_all();
  EXPECT_EQ(b.rx_count + c.rx_count + d.rx_count, 3);
}

TEST_F(RadioTest, EnergyAccountsTxAndSleep) {
  TestNode a(medium, sched, 1, {0, 0});
  a.radio.set_mode(Mode::kListen);
  Frame f = make_frame(1, 2, 100);
  a.radio.transmit(f, [&] { a.radio.set_mode(Mode::kSleep); });
  sched.run_until(10'000'000);
  a.meter.settle(sched.now());
  EXPECT_GT(a.meter.radio_mj(energy::RadioState::kTx), 0.0);
  EXPECT_GT(a.meter.radio_mj(energy::RadioState::kSleep), 0.0);
  // Sleeping dominates time but not energy at these power levels.
  EXPECT_GT(a.meter.seconds_in(energy::RadioState::kSleep), 9.0);
  EXPECT_LT(a.meter.duty_cycle(), 0.01);
}

// ---- neighbor-cache invalidation -------------------------------------
// The medium caches, per radio, the list of radios in link range. These
// tests pin the invalidation rules: attach, detach, channel switch, and
// position change must all be visible to the next transmission.

TEST_F(RadioTest, DetachMidTransmissionDoesNotDeliverThroughStaleCache) {
  TestNode a(medium, sched, 1, {0, 0});
  auto b = std::make_unique<TestNode>(medium, sched, 2, Position{10, 0});
  b->listen();
  a.radio.set_mode(Mode::kListen);

  // Warm both neighbor caches with a successful exchange.
  a.radio.transmit(make_frame(1, 2), nullptr);
  sched.run_all();
  EXPECT_EQ(b->rx_count, 1);

  // Receiver disappears mid-air: no delivery, no crash.
  a.radio.transmit(make_frame(1, 2, 50), nullptr);
  sched.schedule_at(sched.now() + 500, [&] { b.reset(); });
  sched.run_all();
  const auto deliveries = medium.stats().deliveries;

  // And a transmission begun after the detach must skip the dead radio.
  a.radio.transmit(make_frame(1, 2), nullptr);
  sched.run_all();
  EXPECT_EQ(medium.stats().deliveries, deliveries);
}

TEST_F(RadioTest, SourceDetachMidTransmissionKillsItsFrame) {
  auto a = std::make_unique<TestNode>(medium, sched, 1, Position{0, 0});
  TestNode b(medium, sched, 2, {10, 0});
  b.listen();
  a->radio.set_mode(Mode::kListen);
  a->radio.transmit(make_frame(1, 2, 50), nullptr);
  sched.schedule_at(500, [&] { a.reset(); });  // transmitter dies mid-air
  sched.run_all();
  EXPECT_EQ(b.rx_count, 0);
}

TEST_F(RadioTest, ChannelSwitchAfterCacheWarmupStopsDelivery) {
  TestNode a(medium, sched, 1, {0, 0});
  TestNode b(medium, sched, 2, {10, 0});
  b.listen();
  a.radio.set_mode(Mode::kListen);

  a.radio.transmit(make_frame(1, 2), nullptr);  // warm the caches
  sched.run_all();
  EXPECT_EQ(b.rx_count, 1);

  b.radio.set_channel(20);  // stale cache entry must not deliver
  a.radio.transmit(make_frame(1, 2), nullptr);
  sched.run_all();
  EXPECT_EQ(b.rx_count, 1);

  b.radio.set_channel(11);  // and switching back restores the link
  a.radio.transmit(make_frame(1, 2), nullptr);
  sched.run_all();
  EXPECT_EQ(b.rx_count, 2);
}

TEST_F(RadioTest, LateAttachedRadioIsVisibleToWarmCaches) {
  TestNode a(medium, sched, 1, {0, 0});
  TestNode b(medium, sched, 2, {10, 0});
  b.listen();
  a.radio.set_mode(Mode::kListen);
  a.radio.transmit(make_frame(1, kBroadcastNode), nullptr);  // warm caches
  sched.run_all();
  EXPECT_EQ(b.rx_count, 1);

  TestNode c(medium, sched, 3, {0, 10});  // attaches after cache warmup
  c.listen();
  a.radio.transmit(make_frame(1, kBroadcastNode), nullptr);
  sched.run_all();
  EXPECT_EQ(c.rx_count, 1);
}

TEST_F(RadioTest, PositionChangeInvalidatesLinkBudget) {
  TestNode a(medium, sched, 1, {0, 0});
  TestNode b(medium, sched, 2, {10, 0});
  b.listen();
  a.radio.set_mode(Mode::kListen);
  a.radio.transmit(make_frame(1, 2), nullptr);  // warm caches at 10 m
  sched.run_all();
  EXPECT_EQ(b.rx_count, 1);

  b.radio.set_position({10'000, 0});  // now far out of range
  a.radio.transmit(make_frame(1, 2), nullptr);
  sched.run_all();
  EXPECT_EQ(b.rx_count, 1);

  b.radio.set_position({5, 0});  // back in range
  a.radio.transmit(make_frame(1, 2), nullptr);
  sched.run_all();
  EXPECT_EQ(b.rx_count, 2);
}

TEST_F(RadioTest, CcaSeesTransmitterAfterChannelSwitch) {
  TestNode a(medium, sched, 1, {0, 0});
  TestNode b(medium, sched, 2, {10, 0});
  a.radio.set_mode(Mode::kListen);
  b.radio.set_mode(Mode::kListen);
  a.radio.set_channel(20);
  b.radio.set_channel(20);
  a.radio.transmit(make_frame(1, kBroadcastNode, 60), nullptr);
  sched.schedule_at(200, [&] { EXPECT_FALSE(b.radio.cca_clear()); });
  sched.run_all();
  EXPECT_TRUE(b.radio.cca_clear());
}

// ------------------------------------------------ re-entrant deliveries
//
// Finished transmissions hand their receiver lists back to the medium
// for reuse (DESIGN.md §4b). These cases drive the paths where a
// recycled list could be shared, lost or left stale: a handler that
// transmits from inside a delivery, a source or a receiver detaching
// while a recycled list is in use, and a ghost transmission on an island
// medium. Each must keep check_consistency() clean and deliver exactly
// the frames of the reference recording, which was taken from the
// medium before receiver lists were recycled.

struct Delivery {
  NodeId rx;
  NodeId src;
  std::uint16_t seq;
  Time at;
  bool operator==(const Delivery&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Delivery& d) {
  return os << "{" << d.rx << ", " << d.src << ", " << d.seq << ", " << d.at
            << "}";
}

/// Puts `n` in listen mode and appends each frame it receives to `log`;
/// `react`, when set, runs afterwards inside the delivery callback.
void record_deliveries(TestNode& n, Scheduler& sched,
                       std::vector<Delivery>& log,
                       std::function<void(const Frame&)> react = nullptr) {
  n.radio.set_mode(Mode::kListen);
  n.radio.set_receive_handler(
      [&n, &sched, &log, react = std::move(react)](const Frame& f, double) {
        log.push_back({n.radio.id(), f.src, f.seq, sched.now()});
        if (react) react(f);
      });
}

Frame seq_frame(NodeId src, NodeId dst, std::uint16_t seq,
                std::size_t payload = 20) {
  Frame f = make_frame(src, dst, payload);
  f.seq = seq;
  return f;
}

/// Schedules a check_consistency() probe every 100 us over [from, to).
void probe_consistency(Scheduler& sched, const Medium& m, Time from,
                       Time to) {
  for (Time t = from; t < to; t += 100) {
    sched.schedule_at(t, [&m, t] {
      EXPECT_EQ(m.check_consistency(), "") << "at t=" << t;
    });
  }
}

/// Four listeners on a 10 m square; every link is close and reliable.
struct Square {
  Square(Medium& medium, Scheduler& sched)
      : a(std::make_unique<TestNode>(medium, sched, 1, Position{0, 0})),
        b(std::make_unique<TestNode>(medium, sched, 2, Position{10, 0})),
        c(std::make_unique<TestNode>(medium, sched, 3, Position{0, 10})),
        d(std::make_unique<TestNode>(medium, sched, 4, Position{10, 10})) {}
  std::unique_ptr<TestNode> a, b, c, d;
};

TEST_F(RadioTest, HandlerTransmittingInsideDeliveryTakesASpareList) {
  Square sq(medium, sched);
  // E sits next to A: A's frames capture over anything D sends.
  TestNode e(medium, sched, 5, {-5, 0});
  std::vector<Delivery> log;
  record_deliveries(*sq.a, sched, log);
  record_deliveries(*sq.b, sched, log);
  record_deliveries(*sq.c, sched, log);
  record_deliveries(*sq.d, sched, log, [&](const Frame& f) {
    // Synchronous reply from inside finish, while the frame being
    // delivered still holds its receiver list and E is yet to be served.
    if (f.seq == 1) {
      EXPECT_TRUE(sq.d->radio.transmit(seq_frame(4, kBroadcastNode, 100),
                                       nullptr));
    }
  });
  record_deliveries(e, sched, log);

  // Warm-up: two overlapping frames leave two lists on the spare stack.
  sq.a->radio.transmit(seq_frame(1, kBroadcastNode, 0), nullptr);
  sched.schedule_at(50, [&] {
    sq.d->radio.transmit(seq_frame(4, kBroadcastNode, 0), nullptr);
  });
  sched.schedule_at(10'000, [&] {
    sq.a->radio.transmit(seq_frame(1, kBroadcastNode, 1), nullptr);
  });
  sched.schedule_at(20'000, [&] {
    sq.c->radio.transmit(seq_frame(3, kBroadcastNode, 2), nullptr);
  });
  probe_consistency(sched, medium, 0, 25'000);
  sched.run_all();

  EXPECT_EQ(medium.check_consistency(), "");
  EXPECT_EQ(medium.in_flight(), 0u);
  const std::vector<Delivery> reference = {
      {5, 1, 0, 1184},    {2, 1, 1, 11184},   {3, 1, 1, 11184},
      {4, 1, 1, 11184},   {5, 1, 1, 11184},   {2, 4, 100, 12368},
      {3, 4, 100, 12368}, {1, 3, 2, 21184},   {2, 3, 2, 21184},
      {4, 3, 2, 21184},   {5, 3, 2, 21184}};
  EXPECT_EQ(log, reference);
}

TEST_F(RadioTest, SourceDetachingMidFrameReleasesItsRecycledList) {
  Square sq(medium, sched);
  std::vector<Delivery> log;
  record_deliveries(*sq.a, sched, log);
  record_deliveries(*sq.b, sched, log);
  record_deliveries(*sq.c, sched, log);
  record_deliveries(*sq.d, sched, log);

  sq.a->radio.transmit(seq_frame(1, kBroadcastNode, 0), nullptr);
  sched.schedule_at(10'000, [&] {
    // Takes the list the warm-up frame recycled; its source dies mid-air.
    sq.a->radio.transmit(seq_frame(1, kBroadcastNode, 1, 50), nullptr);
  });
  sched.schedule_at(10'500, [&] { sq.a.reset(); });
  sched.schedule_at(20'000, [&] {
    sq.b->radio.transmit(seq_frame(2, kBroadcastNode, 2), nullptr);
  });
  sched.schedule_at(22'000, [&] {
    sq.d->radio.transmit(seq_frame(4, 3, 3), nullptr);
  });
  probe_consistency(sched, medium, 0, 25'000);
  sched.run_all();

  EXPECT_EQ(medium.check_consistency(), "");
  EXPECT_EQ(medium.in_flight(), 0u);
  const std::vector<Delivery> reference = {
      {2, 1, 0, 1184},  {3, 1, 0, 1184},  {4, 1, 0, 1184}, {3, 2, 2, 21184},
      {4, 2, 2, 21184}, {2, 4, 3, 23184}, {3, 4, 3, 23184}};
  EXPECT_EQ(log, reference);
}

TEST_F(RadioTest, ReceiverDetachingWhileRecycledListIsHeld) {
  Square sq(medium, sched);
  std::vector<Delivery> log;
  record_deliveries(*sq.a, sched, log);
  record_deliveries(*sq.b, sched, log);
  record_deliveries(*sq.c, sched, log);
  record_deliveries(*sq.d, sched, log);

  sq.a->radio.transmit(seq_frame(1, kBroadcastNode, 0), nullptr);
  sched.schedule_at(10'000, [&] {
    sq.a->radio.transmit(seq_frame(1, kBroadcastNode, 1, 50), nullptr);
  });
  // C leaves while A's frame, on a recycled list naming C, is in the air.
  sched.schedule_at(10'700, [&] { sq.c.reset(); });
  sched.schedule_at(20'000, [&] {
    sq.b->radio.transmit(seq_frame(2, kBroadcastNode, 2), nullptr);
  });
  probe_consistency(sched, medium, 0, 25'000);
  sched.run_all();

  EXPECT_EQ(medium.check_consistency(), "");
  const std::vector<Delivery> reference = {
      {2, 1, 0, 1184},  {3, 1, 0, 1184},  {4, 1, 0, 1184}, {2, 1, 1, 12144},
      {4, 1, 1, 12144}, {1, 2, 2, 21184}, {4, 2, 2, 21184}};
  EXPECT_EQ(log, reference);
}

TEST_F(RadioTest, GhostOnIslandMediumRecyclesItsList) {
  // Two islands on one scheduler: A alone on island 0 (this fixture's
  // medium), B and C on island 1. A's frame reaches island 1 as a ghost.
  const std::vector<Position> pos = {{0, 0}, {14, 0}, {20, 0}};
  IslandPlanOptions opt;
  opt.cell_size = 12;
  opt.id_base = 1;
  const IslandPlan plan = plan_islands(pos, ideal_config(), 1234, opt);
  ASSERT_EQ(plan.count, 2u);
  ASSERT_EQ(plan.island_of, (std::vector<std::uint32_t>{0, 1, 1}));
  Interchange ix(plan.count);
  Medium island1(sched, ideal_config(), 1234, /*rng_salt=*/1);
  medium.set_island_gateway(&ix, &plan, 0);
  island1.set_island_gateway(&ix, &plan, 1);

  TestNode a(medium, sched, 1, pos[0]);
  TestNode b(island1, sched, 2, pos[1]);
  TestNode c(island1, sched, 3, pos[2]);
  std::vector<Delivery> log;
  record_deliveries(a, sched, log);
  record_deliveries(b, sched, log);
  record_deliveries(c, sched, log);

  auto apply_ghosts = [&] {
    for (const CellTx& m : ix.take_until(1, kTimeNever)) {
      island1.apply_remote(m);
    }
  };
  // Ghosts are applied at a window boundary no later than their b1.
  a.radio.transmit(seq_frame(1, kBroadcastNode, 0), nullptr);
  apply_ghosts();
  EXPECT_EQ(island1.in_flight(), 1u);
  EXPECT_EQ(island1.check_consistency(), "");
  sched.schedule_at(10'000, [&] {
    a.radio.transmit(seq_frame(1, 3, 1), nullptr);
    apply_ghosts();
  });
  // Local frame on island 1 after the ghosts have finished: it takes the
  // list a ghost recycled.
  sched.schedule_at(20'000, [&] {
    c.radio.transmit(seq_frame(3, 2, 2), nullptr);
  });
  probe_consistency(sched, medium, 0, 25'000);
  probe_consistency(sched, island1, 0, 25'000);
  sched.run_all();

  EXPECT_EQ(island1.in_flight(), 0u);
  EXPECT_EQ(island1.stats().cross_island_rx, 2u);
  EXPECT_EQ(medium.check_consistency(), "");
  EXPECT_EQ(island1.check_consistency(), "");
  const std::vector<Delivery> reference = {{2, 1, 0, 2000},
                                           {3, 1, 0, 2000},
                                           {2, 1, 1, 12000},
                                           {3, 1, 1, 12000},
                                           {2, 3, 2, 21184}};
  EXPECT_EQ(log, reference);
}

// ------------------------------------------------------- ghost rules
//
// A ghost replays a transmission from another island (DESIGN.md §4i). It
// shares the medium's physics with local frames but differs in three
// rules: it interferes (collisions, CCA, receiver disturbance) only
// during [b1, air_end); a receiver that stops listening in [air_end, b2)
// still gets it; and its fault verdict was drawn, and counted, at the
// source island. These cases drive apply_remote() directly with
// hand-built snapshots on the fixture's plain medium.

constexpr NodeId kGhostSrc = 99;

CellTx ghost(Position src_pos, std::uint16_t seq, Time b1, Time air_end,
             Time b2, FaultDecision fault = {}) {
  CellTx m;
  m.src = kGhostSrc;
  m.src_pos = src_pos;
  m.channel = 11;  // every radio's default channel
  m.b1 = b1;
  m.b2 = b2;
  m.air_end = air_end;
  m.frame = seq_frame(kGhostSrc, kBroadcastNode, seq);
  m.fault = fault;
  return m;
}

/// Applies `m` at `at`, as the island window loop does at a boundary.
void apply_at(Scheduler& sched, Medium& medium, Time at, CellTx m) {
  sched.schedule_at(at, [&medium, m = std::move(m)] {
    medium.apply_remote(m);
  });
}

TEST_F(RadioTest, GhostCapturesOverAWeakLocalFrame) {
  TestNode rx(medium, sched, 1, {0, 0});
  TestNode weak(medium, sched, 2, {20, 0});
  weak.radio.set_mode(Mode::kListen);
  std::vector<Delivery> log;
  record_deliveries(rx, sched, log);

  apply_at(sched, medium, 1'000, ghost({2, 0}, 7, 1'000, 2'500, 3'000));
  sched.schedule_at(1'100, [&] {
    weak.radio.transmit(seq_frame(2, kBroadcastNode, 1), nullptr);
  });
  probe_consistency(sched, medium, 0, 4'000);
  sched.run_all();

  EXPECT_EQ(log, (std::vector<Delivery>{{1, kGhostSrc, 7, 3'000}}));
  EXPECT_EQ(medium.stats().collisions, 1u);
  EXPECT_EQ(medium.check_consistency(), "");
}

TEST_F(RadioTest, LocalFrameCapturesOverAWeakGhost) {
  TestNode rx(medium, sched, 1, {0, 0});
  TestNode strong(medium, sched, 2, {2, 0});
  strong.radio.set_mode(Mode::kListen);
  std::vector<Delivery> log;
  record_deliveries(rx, sched, log);

  sched.schedule_at(500, [&] {
    strong.radio.transmit(seq_frame(2, kBroadcastNode, 1), nullptr);
  });
  apply_at(sched, medium, 1'000, ghost({20, 0}, 7, 1'000, 2'500, 3'000));
  probe_consistency(sched, medium, 0, 4'000);
  sched.run_all();

  EXPECT_EQ(log, (std::vector<Delivery>{{1, 2, 1, 1'684}}));
  EXPECT_EQ(medium.stats().collisions, 1u);
}

TEST_F(RadioTest, GhostAndLocalFrameOfEqualStrengthCorruptEachOther) {
  TestNode rx(medium, sched, 1, {0, 0});
  TestNode peer(medium, sched, 2, {10, 0});
  peer.radio.set_mode(Mode::kListen);
  std::vector<Delivery> log;
  record_deliveries(rx, sched, log);

  apply_at(sched, medium, 1'000, ghost({-10, 0}, 7, 1'000, 2'500, 3'000));
  sched.schedule_at(2'000, [&] {
    peer.radio.transmit(seq_frame(2, kBroadcastNode, 1), nullptr);
  });
  sched.run_all();

  EXPECT_TRUE(log.empty());
  EXPECT_EQ(medium.stats().collisions, 2u);
}

TEST_F(RadioTest, GhostWhoseAirtimeEndedBeforeItsBoundaryNeverCollides) {
  TestNode rx(medium, sched, 1, {0, 0});
  TestNode before(medium, sched, 2, {10, 0});
  TestNode after(medium, sched, 3, {0, 10});
  before.radio.set_mode(Mode::kListen);
  after.radio.set_mode(Mode::kListen);
  std::vector<Delivery> log;
  record_deliveries(rx, sched, log);

  // Equal signal strengths at rx: any overlap that counted would corrupt
  // both frames. The ghost's airtime ended at 900, before b1 = 1000.
  sched.schedule_at(500, [&] {
    before.radio.transmit(seq_frame(2, kBroadcastNode, 1), nullptr);
  });
  apply_at(sched, medium, 1'000, ghost({-10, 0}, 7, 1'000, 900, 2'000));
  sched.schedule_at(1'700, [&] {
    after.radio.transmit(seq_frame(3, kBroadcastNode, 2), nullptr);
  });
  probe_consistency(sched, medium, 0, 3'000);
  sched.run_all();

  EXPECT_EQ(log, (std::vector<Delivery>{{1, 2, 1, 1'684},
                                        {1, kGhostSrc, 7, 2'000},
                                        {1, 3, 2, 2'884}}));
  EXPECT_EQ(medium.stats().collisions, 0u);
}

TEST_F(RadioTest, GhostReachesAReceiverThatStopsListeningAfterItsAirtime) {
  TestNode late(medium, sched, 1, {0, 0});
  TestNode early(medium, sched, 2, {0, 5});
  std::vector<Delivery> log;
  record_deliveries(late, sched, log);
  record_deliveries(early, sched, log);

  apply_at(sched, medium, 1'000, ghost({10, 0}, 7, 1'000, 2'000, 3'000));
  // Inside [air_end, b2) the frame has already been received in full;
  // inside [b1, air_end) sleeping aborts it, as for a local frame.
  sched.schedule_at(2'500, [&] { late.radio.set_mode(Mode::kSleep); });
  sched.schedule_at(1'500, [&] { early.radio.set_mode(Mode::kSleep); });
  sched.run_all();

  EXPECT_EQ(log, (std::vector<Delivery>{{1, kGhostSrc, 7, 3'000}}));
  EXPECT_EQ(medium.stats().aborted, 1u);
}

TEST_F(RadioTest, GhostBusiesCcaOnlyBetweenItsBoundaryAndAirtimeEnd) {
  TestNode rx(medium, sched, 1, {0, 0});
  rx.radio.set_mode(Mode::kListen);

  // Applied before b1, as a window boundary may precede it.
  medium.apply_remote(ghost({10, 0}, 7, 1'000, 2'000, 3'000));
  // Above sensitivity but below the CCA threshold: never busy.
  apply_at(sched, medium, 4'000, ghost({40, 0}, 8, 4'000, 5'000, 6'000));
  std::vector<std::pair<Time, bool>> probes;
  for (Time t : {0, 999, 1'000, 1'999, 2'000, 2'999, 4'500}) {
    sched.schedule_at(t, [&, t] {
      probes.emplace_back(t, rx.radio.cca_clear());
    });
  }
  sched.run_all();

  const std::vector<std::pair<Time, bool>> expected = {
      {0, true},      {999, true},   {1'000, false}, {1'999, false},
      {2'000, true}, {2'999, true}, {4'500, true}};
  EXPECT_EQ(probes, expected);
}

TEST_F(RadioTest, ReceiverDetachingWithLiveGhostReceptionStaysConsistent) {
  Square sq(medium, sched);
  std::vector<Delivery> log;
  record_deliveries(*sq.a, sched, log);
  record_deliveries(*sq.b, sched, log);
  record_deliveries(*sq.c, sched, log);
  record_deliveries(*sq.d, sched, log);

  apply_at(sched, medium, 1'000, ghost({5, -10}, 7, 1'000, 2'500, 3'000));
  // C leaves while the ghost radiates, D after its airtime, before b2.
  sched.schedule_at(1'500, [&] { sq.c.reset(); });
  sched.schedule_at(2'700, [&] { sq.d.reset(); });
  probe_consistency(sched, medium, 0, 4'000);
  sched.run_all();

  EXPECT_EQ(medium.check_consistency(), "");
  EXPECT_EQ(log, (std::vector<Delivery>{{1, kGhostSrc, 7, 3'000},
                                        {2, kGhostSrc, 7, 3'000}}));
}

TEST_F(RadioTest, GhostsObeyTheFaultVerdictTheyCarry) {
  TestNode rx(medium, sched, 1, {0, 0});
  std::vector<Delivery> log;
  record_deliveries(rx, sched, log);

  FaultDecision drop;
  drop.drop = true;
  FaultDecision dup;
  dup.duplicate = true;
  FaultDecision delay;
  delay.delay = 5'000;
  apply_at(sched, medium, 1'000,
           ghost({10, 0}, 1, 1'000, 2'000, 3'000, drop));
  apply_at(sched, medium, 4'000,
           ghost({10, 0}, 2, 4'000, 5'000, 6'000, dup));
  apply_at(sched, medium, 7'000,
           ghost({10, 0}, 3, 7'000, 8'000, 9'000, delay));
  sched.run_all();

  EXPECT_EQ(log, (std::vector<Delivery>{{1, kGhostSrc, 2, 6'000},
                                        {1, kGhostSrc, 2, 6'000},
                                        {1, kGhostSrc, 3, 14'000}}));
  EXPECT_EQ(medium.stats().deliveries, 3u);
  // The verdict was drawn and counted where the frame was transmitted.
  EXPECT_EQ(medium.stats().fault_drops, 0u);
  EXPECT_EQ(medium.stats().fault_dups, 0u);
  EXPECT_EQ(medium.stats().fault_delays, 0u);
}

// ---- determinism regression ------------------------------------------
// The scheduler/medium fast path must be bit-for-bit deterministic: the
// same seed must yield the same delivery/collision/loss counters. Run the
// same contended scenario twice and compare every statistic.

namespace {
MediumStats run_contended_mesh(std::uint64_t seed) {
  Scheduler sched;
  PropagationConfig cfg;  // shadowing on: exercises the memoized draw
  Medium medium(sched, cfg, seed);
  std::vector<std::unique_ptr<TestNode>> nodes;
  for (int i = 0; i < 12; ++i) {
    nodes.push_back(std::make_unique<TestNode>(
        medium, sched, static_cast<NodeId>(i + 1),
        Position{static_cast<double>(i % 4) * 30.0,
                 static_cast<double>(i / 4) * 30.0}));
    nodes.back()->listen();
  }
  Rng traffic(seed, 5);
  for (int pkt = 0; pkt < 300; ++pkt) {
    const auto src = static_cast<std::size_t>(traffic.below(12));
    const Time at = static_cast<Time>(traffic.below(1'000'000));
    sched.schedule_at(at, [&nodes, src] {
      nodes[src]->radio.transmit(
          make_frame(nodes[src]->radio.id(), kBroadcastNode, 30), nullptr);
    });
  }
  sched.run_all();
  return medium.stats();
}
}  // namespace

TEST(RadioDeterminism, IdenticalSeedsYieldIdenticalStats) {
  const MediumStats s1 = run_contended_mesh(77);
  const MediumStats s2 = run_contended_mesh(77);
  EXPECT_GT(s1.transmissions, 0u);
  EXPECT_GT(s1.deliveries, 0u);
  EXPECT_GT(s1.collisions, 0u);  // the scenario must actually contend
  EXPECT_EQ(s1.transmissions, s2.transmissions);
  EXPECT_EQ(s1.deliveries, s2.deliveries);
  EXPECT_EQ(s1.collisions, s2.collisions);
  EXPECT_EQ(s1.snr_losses, s2.snr_losses);
  EXPECT_EQ(s1.aborted, s2.aborted);

  const MediumStats s3 = run_contended_mesh(78);  // and seeds do matter
  EXPECT_NE(s1.deliveries, s3.deliveries);
}

TEST_F(RadioTest, CrossTenantFramesStillCollide) {
  TestNode a(medium, sched, 1, {0, 0});
  TestNode b(medium, sched, 2, {20, 10});
  TestNode rx(medium, sched, 3, {10, 5});
  rx.listen();
  a.radio.set_mode(Mode::kListen);
  b.radio.set_mode(Mode::kListen);
  Frame fa = make_frame(1, 3, 40);
  fa.tenant = 1;
  Frame fb = make_frame(2, kBroadcastNode, 40);
  fb.tenant = 2;  // different administrative domain, same spectrum
  a.radio.transmit(fa, nullptr);
  sched.schedule_at(100, [&] { b.radio.transmit(fb, nullptr); });
  sched.run_all();
  EXPECT_EQ(rx.rx_count, 0);
  EXPECT_GE(medium.stats().collisions, 1u);
}

}  // namespace
}  // namespace iiot::radio
