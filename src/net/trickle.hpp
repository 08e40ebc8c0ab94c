// Trickle timer (RFC 6206): adaptive-rate, density-aware dissemination
// used to pace RPL DIO transmissions. Exponentially backs off while the
// network is consistent; snaps back to Imin on inconsistency — this is
// what makes RPL control overhead scale with churn, not with time.
#pragma once

#include <functional>

#include "common/interned.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/context.hpp"
#include "sim/scheduler.hpp"

namespace iiot::net {

struct TrickleConfig {
  sim::Duration imin = 1'000'000;  // 1 s
  int doublings = 8;               // Imax = Imin * 2^doublings
  int redundancy_k = 3;            // suppress if >= k consistent heard

  bool operator==(const TrickleConfig&) const = default;
};

class Trickle {
 public:
  Trickle(sim::Scheduler& sched, Rng rng, TrickleConfig cfg,
          std::function<void()> transmit)
      : sched_(sched),
        rng_(rng),
        cfg_(interned(cfg)),
        transmit_(std::move(transmit)) {}
  ~Trickle() { stop(); }
  Trickle(const Trickle&) = delete;
  Trickle& operator=(const Trickle&) = delete;

  void start() {
    running_ = true;
    interval_ = cfg_.imin;
    begin_interval();
  }

  void stop() {
    running_ = false;
    t_timer_.cancel();
    i_timer_.cancel();
  }

  /// Heard a consistent transmission: bump redundancy counter.
  void consistent() { ++counter_; }

  /// Heard an inconsistency: reset to the fastest rate.
  void inconsistent() {
    if (!running_) return;
    if (interval_ > cfg_.imin) {
      interval_ = cfg_.imin;
      note_reset();
      begin_interval();
    }
  }

  /// External reset (e.g. parent change): same as inconsistency but
  /// unconditional.
  void reset() {
    if (!running_) return;
    interval_ = cfg_.imin;
    note_reset();
    begin_interval();
  }

  [[nodiscard]] sim::Duration interval() const { return interval_; }
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::uint64_t transmissions() const { return tx_count_; }
  [[nodiscard]] std::uint64_t suppressions() const { return suppressed_; }
  /// Snap-backs to Imin (each one is a control-plane storm trigger; the
  /// observability layer tracks them per node).
  [[nodiscard]] std::uint64_t resets() const { return resets_; }
  /// Stable address of the reset counter, for MetricsRegistry attachment.
  [[nodiscard]] const std::uint64_t* resets_slot() const { return &resets_; }
  /// Node the owning protocol runs on, for trace attribution of resets.
  void set_obs_node(NodeId id) { obs_node_ = id; }

 private:
  void note_reset() {
    ++resets_;
    if (obs::Tracer* t = obs::tracer(sched_)) {
      t->instant(0, obs_node_, obs::Layer::kNet, "trickle_reset");
    }
  }

  void begin_interval() {
    counter_ = 0;
    t_timer_.cancel();
    i_timer_.cancel();
    // t uniform in [I/2, I).
    const auto half = interval_ / 2;
    const auto t = half + static_cast<sim::Duration>(rng_.below(
                              static_cast<std::uint32_t>(half)));
    t_timer_ = sched_.schedule_after(t, [this] {
      if (!running_) return;
      if (counter_ < cfg_.redundancy_k) {
        ++tx_count_;
        transmit_();
      } else {
        ++suppressed_;
      }
    });
    i_timer_ = sched_.schedule_after(interval_, [this] {
      if (!running_) return;
      const sim::Duration imax = cfg_.imin << cfg_.doublings;
      interval_ = std::min<sim::Duration>(interval_ * 2, imax);
      begin_interval();
    });
  }

  sim::Scheduler& sched_;
  Rng rng_;
  const TrickleConfig& cfg_;  // interned: one copy per configuration
  std::function<void()> transmit_;
  sim::Duration interval_ = 0;
  std::uint64_t tx_count_ = 0;
  std::uint64_t suppressed_ = 0;
  std::uint64_t resets_ = 0;
  int counter_ = 0;
  NodeId obs_node_ = kInvalidNode;
  bool running_ = false;
  sim::EventHandle t_timer_;
  sim::EventHandle i_timer_;
};

}  // namespace iiot::net
