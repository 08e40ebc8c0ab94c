// Unit tests for the discrete-event scheduler and energy meter.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "energy/meter.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace iiot {
namespace {

using sim::Scheduler;
using namespace sim;  // NOLINT: time literals

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30u);
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  Time fired_at = 0;
  s.schedule_at(50, [&] {
    s.schedule_after(25, [&] { fired_at = s.now(); });
  });
  s.run_all();
  EXPECT_EQ(fired_at, 75u);
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  Time fired_at = 999;
  s.schedule_at(100, [&] {
    s.schedule_at(10, [&] { fired_at = s.now(); });  // in the past
  });
  s.run_all();
  EXPECT_EQ(fired_at, 100u);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  auto h = s.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  s.run_all();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelIsIdempotentAndSafeAfterFire) {
  Scheduler s;
  int count = 0;
  auto h = s.schedule_at(10, [&] { ++count; });
  s.run_all();
  EXPECT_EQ(count, 1);
  h.cancel();  // no-op after firing
  h.cancel();
  s.run_all();
  EXPECT_EQ(count, 1);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(10, [&] { ++fired; });
  s.schedule_at(20, [&] { ++fired; });
  s.schedule_at(30, [&] { ++fired; });
  s.run_until(20);
  EXPECT_EQ(fired, 2);  // event at the deadline runs
  EXPECT_EQ(s.now(), 20u);
  s.run_until(100);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(s.now(), 100u);  // clock advances to deadline even if idle
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_after(1, recurse);
  };
  s.schedule_at(0, recurse);
  s.run_all();
  EXPECT_EQ(depth, 5);
}

TEST(Scheduler, CancelAfterFireWithRecycledSlotIsInert) {
  // After an event fires, its slot returns to the free list and can be
  // recycled by a new event. The old handle must stay inert: cancelling
  // it repeatedly must not touch the slot's new tenant.
  Scheduler s;
  int first = 0;
  auto h = s.schedule_at(10, [&] { ++first; });
  s.run_all();
  EXPECT_EQ(first, 1);

  bool second_fired = false;
  auto h2 = s.schedule_at(20, [&] { second_fired = true; });
  EXPECT_FALSE(h.pending());
  h.cancel();  // stale: must not cancel the recycled slot's new event
  h.cancel();
  EXPECT_TRUE(h2.pending());
  s.run_all();
  EXPECT_TRUE(second_fired);
  EXPECT_EQ(first, 1);
}

TEST(Scheduler, StaleHandleCannotCancelRecycledSlot) {
  // Cancelling frees the slot immediately; the very next schedule reuses
  // it. A second cancel through the stale handle must be a no-op.
  Scheduler s;
  bool a_fired = false;
  bool b_fired = false;
  auto ha = s.schedule_at(10, [&] { a_fired = true; });
  ha.cancel();
  auto hb = s.schedule_at(10, [&] { b_fired = true; });
  ha.cancel();  // stale generation: hb's event must survive
  EXPECT_FALSE(ha.pending());
  EXPECT_TRUE(hb.pending());
  s.run_all();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
}

TEST(Scheduler, TieBreakSurvivesCancellationChurn) {
  // Heavy schedule/cancel interleaving (exercising slot reuse and lazy
  // heap deletion) must not disturb insertion-order tie-breaking among
  // the surviving events.
  Scheduler s;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 200; ++i) {
    if (i % 2 == 0) {
      s.schedule_at(500, [&order, i] { order.push_back(i); });
    } else {
      doomed.push_back(s.schedule_at(500, [] {}));
    }
  }
  for (auto& h : doomed) h.cancel();
  // Post-churn arrivals at the same time still fire after earlier ones.
  s.schedule_at(500, [&order] { order.push_back(1000); });
  s.run_all();
  ASSERT_EQ(order.size(), 101u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], 2 * i);
  }
  EXPECT_EQ(order.back(), 1000);
}

TEST(Scheduler, MassCancellationCompactsWithoutReordering) {
  // Cancel enough events to trip heap compaction, then verify both the
  // live count and the firing order of the survivors.
  Scheduler s;
  std::vector<EventHandle> doomed;
  std::vector<Time> fired;
  for (int i = 0; i < 1000; ++i) {
    const Time at = static_cast<Time>(10 + i);
    if (i % 10 == 0) {
      s.schedule_at(at, [&fired, &s] { fired.push_back(s.now()); });
    } else {
      doomed.push_back(s.schedule_at(at, [] {}));
    }
  }
  EXPECT_EQ(s.pending_events(), 1000u);
  for (auto& h : doomed) h.cancel();
  EXPECT_EQ(s.pending_events(), 100u);
  s.run_all();
  ASSERT_EQ(fired.size(), 100u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LT(fired[i - 1], fired[i]);
  }
}

TEST(Scheduler, LargeClosuresFallBackToHeapCorrectly) {
  // Captures beyond the inline SBO budget take the heap path; they must
  // still move, fire, and destruct exactly once.
  Scheduler s;
  std::vector<int> payload(64, 7);
  int sum = 0;
  struct Big {
    double a[16] = {1, 2, 3};
  };
  Big big;
  s.schedule_at(5, [payload, big, &sum] {
    for (int v : payload) sum += v;
    sum += static_cast<int>(big.a[2]);
  });
  s.run_all();
  EXPECT_EQ(sum, 64 * 7 + 3);
}

TEST(PeriodicTimer, FiresEveryPeriod) {
  Scheduler s;
  std::vector<Time> fires;
  PeriodicTimer t(s, 100, [&] { fires.push_back(s.now()); });
  t.start();
  s.run_until(550);
  EXPECT_EQ(fires, (std::vector<Time>{100, 200, 300, 400, 500}));
}

TEST(PeriodicTimer, StopHaltsFiring) {
  Scheduler s;
  int count = 0;
  PeriodicTimer t(s, 10, [&] { ++count; });
  t.start();
  s.schedule_at(35, [&] { t.stop(); });
  s.run_until(1000);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTimer, PhaseOffsetsFirstFiring) {
  Scheduler s;
  std::vector<Time> fires;
  PeriodicTimer t(s, 100, [&] { fires.push_back(s.now()); });
  t.start(7);
  s.run_until(250);
  EXPECT_EQ(fires, (std::vector<Time>{7, 107, 207}));
}

TEST(PeriodicTimer, DestructionCancels) {
  Scheduler s;
  int count = 0;
  {
    PeriodicTimer t(s, 10, [&] { ++count; });
    t.start();
    s.run_until(25);
  }
  s.run_until(1000);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTimer, StopAndRestartInsideCallback) {
  // A callback that stops and immediately restarts its own timer must
  // re-phase cleanly: no double firing, no lost firing.
  Scheduler s;
  std::vector<Time> fires;
  PeriodicTimer t(s, 100, [&] { fires.push_back(s.now()); });
  PeriodicTimer* tp = &t;
  bool rephased = false;
  PeriodicTimer driver(s, 100, [&] {
    if (!rephased && s.now() >= 200) {
      rephased = true;
      tp->stop();
      tp->start(30);  // next firing 30 ticks from now, then every 100
    }
  });
  t.start();
  driver.start(5);
  s.run_until(600);
  // t fires at 100, 200; at 205 the driver re-phases it: 235, 335, 435, 535.
  EXPECT_EQ(fires, (std::vector<Time>{100, 200, 235, 335, 435, 535}));
}

TEST(PeriodicTimer, StopInsideOwnCallbackHalts) {
  Scheduler s;
  int count = 0;
  PeriodicTimer t(s, 10, [&] {
    ++count;
    if (count == 3) t.stop();
  });
  t.start();
  s.run_until(1000);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(t.running());
}

TEST(PeriodicTimer, RestartInsideOwnCallbackRephases) {
  Scheduler s;
  std::vector<Time> fires;
  PeriodicTimer t(s, 100, [&] {
    fires.push_back(s.now());
    if (fires.size() == 2) t.start(17);  // restart mid-callback
  });
  t.start();
  s.run_until(450);
  EXPECT_EQ(fires, (std::vector<Time>{100, 200, 217, 317, 417}));
}

// ------------------------------------------- differential heap check
//
// The 4-ary heap must fire events in exactly the (at, seq) order of a
// reference std::set, whatever mix of schedule, cancel, step and
// run_until reaches it — including callbacks that schedule at now() or
// cancel other events, mass cancellations that trip compaction, and heaps
// of every small size (so the last parent has 1, 2, 3 or 4 children).

/// The real scheduler behind the script's interface; events are named by
/// a dense id so both backends can cancel "the same" event.
class RealBackend {
 public:
  void schedule_at(Time at, int id, std::function<void()> fn) {
    const auto slot = static_cast<std::size_t>(id);
    if (handles_.size() <= slot) handles_.resize(slot + 1);
    handles_[slot] = s_.schedule_at(at, std::move(fn));
  }
  void cancel(int id) {
    const auto slot = static_cast<std::size_t>(id);
    if (id >= 0 && slot < handles_.size()) handles_[slot].cancel();
  }
  bool step() { return s_.step(); }
  void run_until(Time t) { s_.run_until(t); }
  [[nodiscard]] Time now() const { return s_.now(); }
  [[nodiscard]] std::size_t pending() const { return s_.pending_events(); }
  [[nodiscard]] Time next_time() { return s_.next_event_time(); }

 private:
  Scheduler s_;
  std::vector<EventHandle> handles_;
};

/// Reference: a std::set ordered by (at, seq, id), seq counting every
/// schedule call as sim::Scheduler's does.
class RefBackend {
 public:
  void schedule_at(Time at, int id, std::function<void()> fn) {
    if (at < now_) at = now_;
    const Key k{at, next_seq_++, id};
    queue_.insert(k);
    live_[id] = {k, std::move(fn)};
  }
  void cancel(int id) {
    const auto it = live_.find(id);
    if (it == live_.end()) return;
    queue_.erase(it->second.first);
    live_.erase(it);
  }
  bool step() {
    if (queue_.empty()) return false;
    const Key k = *queue_.begin();
    queue_.erase(queue_.begin());
    const auto it = live_.find(std::get<2>(k));
    std::function<void()> fn = std::move(it->second.second);
    live_.erase(it);
    now_ = std::get<0>(k);
    fn();
    return true;
  }
  void run_until(Time t) {
    while (!queue_.empty() && std::get<0>(*queue_.begin()) <= t) step();
    if (now_ < t) now_ = t;
  }
  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] Time next_time() const {
    return queue_.empty() ? kTimeNever : std::get<0>(*queue_.begin());
  }

 private:
  using Key = std::tuple<Time, std::uint64_t, int>;
  std::set<Key> queue_;
  std::map<int, std::pair<Key, std::function<void()>>> live_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
};

struct Fired {
  int id;
  Time at;
  bool operator==(const Fired&) const = default;
};

/// Backend state sampled between script operations.
struct Probe {
  std::size_t pending;
  Time next;
  Time now;
  bool operator==(const Probe&) const = default;
};

/// Drives one backend through a seeded random script. Everything the
/// script does depends only on its own RNG and on event ids, so two
/// backends with the same firing order produce identical logs.
template <typename Backend>
class HeapScript {
 public:
  explicit HeapScript(std::uint64_t seed) : rng_(seed, 11) {}

  int add(Time at) {
    const int id = next_id_++;
    b_.schedule_at(at, id, [this, id] { fire(id); });
    return id;
  }
  void cancel(int id) { b_.cancel(id); }
  bool step() { return b_.step(); }
  void run_until(Time t) { b_.run_until(t); }
  [[nodiscard]] Time now() const { return b_.now(); }
  void probe() {
    probes_.push_back({b_.pending(), b_.next_time(), b_.now()});
  }

  /// One random operation.
  void random_op() {
    const std::uint32_t op = rng_.below(100);
    if (op < 28) {
      // A few events close together: many equal-time ties.
      const std::uint32_t n = 1 + rng_.below(8);
      for (std::uint32_t i = 0; i < n; ++i) add(now() + rng_.below(20));
    } else if (op < 40) {
      if (next_id_ > 0) {
        cancel(static_cast<int>(
            rng_.below(static_cast<std::uint32_t>(next_id_))));
      }
    } else if (op < 62) {
      step();
    } else if (op < 77) {
      run_until(now() + (rng_.below(10) == 0 ? rng_.below(150'000)
                                              : rng_.below(30)));
    } else if (op < 85) {
      // Mass cancellation: at least 64 entries with over half of them
      // cancelled trips the heap's compaction.
      const std::uint32_t n = 64 + rng_.below(140);
      std::vector<int> ids;
      for (std::uint32_t i = 0; i < n; ++i) {
        ids.push_back(add(now() + rng_.below(200)));
      }
      for (const int id : ids) {
        if (rng_.below(4) != 0) cancel(id);
      }
    } else if (op < 93) {
      // Around the scheduler's 100 ms near/far split: one absolute time
      // reached from different distances lands in either heap, so ties
      // across the two heaps must still break by insertion order.
      add((now() / 100'000 + 1) * 100'000);
      add(now() + 99'990 + rng_.below(20));
      if (rng_.below(8) == 0) add(now() + 1'000'000 * (1 + rng_.below(3)));
    } else {
      probe();
    }
  }

  void drain() {
    while (step()) {
    }
    probe();
  }

  [[nodiscard]] const std::vector<Fired>& fired() const { return fired_; }
  [[nodiscard]] const std::vector<Probe>& probes() const { return probes_; }

 private:
  /// Callback reactions keyed off the id: schedule at now() (a tie with
  /// whatever else is due now), schedule shortly after, or cancel an
  /// earlier event, which may already have fired or been cancelled.
  void fire(int id) {
    fired_.push_back({id, now()});
    SplitMix64 mix(static_cast<std::uint64_t>(id));
    const std::uint64_t h = mix.next();
    switch (h % 6) {
      case 0: add(now()); break;
      case 1: add(now() + 1 + static_cast<Time>(h / 6 % 7)); break;
      case 2: cancel(id - 1 - static_cast<int>(h / 6 % 16)); break;
      case 3: cancel(id + 1 + static_cast<int>(h / 6 % 16)); break;
      default: break;
    }
  }

  Backend b_;
  Rng rng_;
  int next_id_ = 0;
  std::vector<Fired> fired_;
  std::vector<Probe> probes_;
};

TEST(SchedulerDifferential, RandomScriptsFireInReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    HeapScript<RealBackend> real(seed);
    HeapScript<RefBackend> ref(seed);
    for (int i = 0; i < 4000; ++i) {
      real.random_op();
      ref.random_op();
      real.probe();
      ref.probe();
    }
    real.drain();
    ref.drain();
    ASSERT_GT(real.fired().size(), 1000u) << "seed " << seed;
    ASSERT_EQ(real.fired(), ref.fired()) << "seed " << seed;
    ASSERT_EQ(real.probes(), ref.probes()) << "seed " << seed;
  }
}

TEST(SchedulerDifferential, EverySmallHeapShapePopsInOrder) {
  // Sizes 1..90 put the last parent at every child count (1–4) on the
  // first three levels; a cancellation inside each heap leaves a stale
  // entry for the sift to pass.
  for (int n = 1; n <= 90; ++n) {
    HeapScript<RealBackend> real(static_cast<std::uint64_t>(n));
    HeapScript<RefBackend> ref(static_cast<std::uint64_t>(n));
    Rng times(static_cast<std::uint64_t>(n), 3);
    for (int i = 0; i < n; ++i) {
      const Time at = times.below(static_cast<std::uint32_t>(n));
      real.add(at);
      ref.add(at);
    }
    real.cancel(n / 2);
    ref.cancel(n / 2);
    real.drain();
    ref.drain();
    ASSERT_EQ(real.fired(), ref.fired()) << "heap size " << n;
    ASSERT_EQ(real.probes(), ref.probes()) << "heap size " << n;
  }
}

TEST(EnergyMeter, ChargesByStateAndTime) {
  energy::Profile profile;
  profile.radio_mw = {0.0, 1.0, 10.0, 10.0, 20.0};
  energy::Meter m(profile);
  m.radio_state(energy::RadioState::kListen, 0);
  m.radio_state(energy::RadioState::kTx, 1'000'000);    // 1 s listen
  m.radio_state(energy::RadioState::kSleep, 1'500'000); // 0.5 s tx
  m.settle(2'500'000);                                  // 1 s sleep
  EXPECT_NEAR(m.radio_mj(energy::RadioState::kListen), 10.0, 1e-9);
  EXPECT_NEAR(m.radio_mj(energy::RadioState::kTx), 10.0, 1e-9);
  EXPECT_NEAR(m.radio_mj(energy::RadioState::kSleep), 1.0, 1e-9);
  EXPECT_NEAR(m.total_mj(), 21.0, 1e-9);
}

TEST(EnergyMeter, DutyCycleComputation) {
  energy::Meter m;
  m.radio_state(energy::RadioState::kListen, 0);
  m.radio_state(energy::RadioState::kSleep, 100'000);  // 0.1 s on
  m.settle(1'000'000);                                 // 0.9 s sleep
  EXPECT_NEAR(m.duty_cycle(), 0.1, 1e-9);
}

TEST(EnergyMeter, CpuCyclesCharged) {
  energy::Profile p;
  p.cpu_nj_per_cycle = 1.0;
  energy::Meter m(p);
  m.cpu_cycles(1'000'000);  // 1e6 cycles * 1 nJ = 1 mJ
  EXPECT_NEAR(m.cpu_mj(), 1.0, 1e-12);
}

TEST(EnergyMeter, LifetimeProjection) {
  energy::Profile p;
  p.radio_mw = {0.0, 0.0, 1000.0, 1000.0, 1000.0};  // 1 W listen
  energy::Meter m(p);
  m.radio_state(energy::RadioState::kListen, 0);
  m.settle(1'000'000);
  // 1 W average: an 86400 J battery lasts exactly one day.
  EXPECT_NEAR(m.projected_lifetime_days(86400.0), 1.0, 1e-6);
}

}  // namespace
}  // namespace iiot
