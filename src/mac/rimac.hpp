// Receiver-initiated MAC (RI-MAC class, [27]).
//
// Receivers wake on a jittered interval and announce availability with a
// short beacon; a sender turns its radio on and waits for the target's
// beacon, then transmits immediately. Latency is ~U(0, wake_interval) like
// LPL, but the waiting cost is shifted to the *sender's* idle listening —
// a different point in the same energy/latency trade-off space (E1/E2).
#pragma once

#include "mac/mac.hpp"

namespace iiot::mac {

struct RiMacConfig {
  sim::Duration wake_interval = 500'000;
  double wake_jitter = 0.25;             // ± fraction of interval
  sim::Duration dwell = 4'000;           // listen after own beacon
  int max_dwell_extensions = 8;
  sim::Duration contention_window = 2'000;  // sender delay after beacon
  sim::Duration ack_timeout = 3'000;
  int max_retries = 3;                   // beacons to try before giving up
};

class RiMac : public MacBase {
 public:
  RiMac(radio::Radio& radio, sim::Scheduler& sched, Rng rng, TenantId tenant,
        RiMacConfig cfg = {})
      : MacBase(radio, sched, rng, tenant), cfg_(cfg) {}

  using MacBase::send;

  void start() override;
  void stop() override;
  bool send(NodeId dst, Buffer payload, SendCallback cb) override;
  [[nodiscard]] const char* name() const override { return "rimac"; }
  [[nodiscard]] const RiMacConfig& config() const { return cfg_; }

 private:
  void schedule_wake();
  void wake();
  void dwell_check(int extensions);
  void maybe_sleep();

  void process_queue();
  void start_attempt();
  void on_target_beacon();
  void on_frame(const radio::Frame& f, double rssi);
  void finish(bool delivered);

  RiMacConfig cfg_;

  // Receiver state.
  sim::EventHandle wake_timer_;
  sim::EventHandle dwell_timer_;
  bool awake_ = false;
  bool activity_ = false;

  // Sender state.
  bool sending_ = false;
  bool data_in_flight_ = false;
  int skip_beacons_ = 0;  // collision-resolution: beacons to sit out
  std::uint16_t tx_seq_ = 0;
  sim::Time attempt_deadline_ = 0;
  sim::EventHandle attempt_timer_;
  sim::EventHandle ack_timer_;
  sim::EventHandle contention_timer_;
};

}  // namespace iiot::mac
