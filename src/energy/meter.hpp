// Per-node energy accounting.
//
// The paper's geographic-scalability and dependability arguments (§IV-B,
// §V-A) are fundamentally about energy: duty-cycled radios, load near the
// border router draining batteries, security modes shortening lifetime.
// Every radio state transition and CPU burst in the simulator is charged
// here, so benches can report joules and projected lifetimes.
#pragma once

#include <array>
#include <cstdint>

#include "common/interned.hpp"
#include "sim/time.hpp"

namespace iiot::energy {

/// Radio power states with CC2420-class current draws (see Profile).
enum class RadioState : std::uint8_t { kOff = 0, kSleep, kListen, kRx, kTx };

inline constexpr std::size_t kNumRadioStates = 5;

/// Power draw profile in milliwatts per state, plus CPU energy per cycle.
/// Defaults approximate a 3 V, CC2420-class 802.15.4 transceiver and a
/// Cortex-M-class MCU.
struct Profile {
  std::array<double, kNumRadioStates> radio_mw{
      0.0,    // off
      0.003,  // sleep (1 uA class)
      56.4,   // idle listen (18.8 mA * 3 V)
      56.4,   // rx
      52.2,   // tx at 0 dBm (17.4 mA * 3 V)
  };
  double cpu_nj_per_cycle = 0.5;  // ~0.5 nJ/cycle active

  bool operator==(const Profile&) const = default;
};

/// Integrates power over simulated time.
class Meter {
 public:
  explicit Meter(const Profile& profile = {})
      : profile_(&interned(profile)) {}

  /// Records that the radio has been in `state` since the last call time.
  /// Callers (the Radio) invoke this on every state change.
  void radio_state(RadioState state, sim::Time now) {
    settle(now);
    state_ = state;
  }

  /// Charges an active CPU burst of the given cycle count.
  void cpu_cycles(std::uint64_t cycles) {
    cpu_mj_ += static_cast<double>(cycles) * profile_->cpu_nj_per_cycle * 1e-6;
  }

  /// Flushes accumulated time up to `now` (call before reading totals).
  void settle(sim::Time now) {
    if (now > last_) {
      double sec = sim::to_seconds(now - last_);
      auto idx = static_cast<std::size_t>(state_);
      radio_mj_[idx] += profile_->radio_mw[idx] * sec;
      per_state_s_[idx] += sec;
      last_ = now;
    }
  }

  /// Total consumed energy in millijoules.
  [[nodiscard]] double total_mj() const {
    double sum = cpu_mj_;
    for (double v : radio_mj_) sum += v;
    return sum;
  }

  [[nodiscard]] double radio_mj(RadioState s) const {
    return radio_mj_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] double cpu_mj() const { return cpu_mj_; }

  /// Seconds spent in a given radio state (duty-cycle analysis).
  [[nodiscard]] double seconds_in(RadioState s) const {
    return per_state_s_[static_cast<std::size_t>(s)];
  }

  /// Fraction of settled time with the radio on (listen/rx/tx).
  [[nodiscard]] double duty_cycle() const {
    double on = seconds_in(RadioState::kListen) + seconds_in(RadioState::kRx) +
                seconds_in(RadioState::kTx);
    double all = on + seconds_in(RadioState::kSleep) +
                 seconds_in(RadioState::kOff);
    return all > 0 ? on / all : 0.0;
  }

  /// Projected lifetime in days on a battery of `capacity_j` joules,
  /// extrapolating the average power observed so far.
  [[nodiscard]] double projected_lifetime_days(double capacity_j) const {
    double elapsed_s = 0;
    for (double v : per_state_s_) elapsed_s += v;
    if (elapsed_s <= 0) return 0;
    double avg_w = total_mj() * 1e-3 / elapsed_s;
    if (avg_w <= 0) return 1e12;
    return capacity_j / avg_w / 86400.0;
  }

  void reset(sim::Time now) {
    settle(now);
    radio_mj_.fill(0.0);
    per_state_s_.fill(0.0);
    cpu_mj_ = 0.0;
  }

 private:
  /// Nodes share their profile: an interned copy.
  const Profile* profile_;
  RadioState state_ = RadioState::kOff;
  sim::Time last_ = 0;
  std::array<double, kNumRadioStates> radio_mj_{};
  std::array<double, kNumRadioStates> per_state_s_{};
  double cpu_mj_ = 0.0;
};

}  // namespace iiot::energy
