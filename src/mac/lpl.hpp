// Low-power-listening MAC with X-MAC-style strobed preambles [26].
//
// Receivers sleep and wake every `wake_interval` for a short channel
// sample. A sender strobes short wake-up frames until the target's sample
// window catches one; the target answers with an early-ack, the sender
// ships the data frame, and both go back to sleep. Per-hop latency is
// therefore ~U(0, wake_interval) — the mechanism behind the paper's
// "a packet may take seconds to be transmitted over few wireless hops"
// (§IV-B), which bench E1 measures.
#pragma once

#include "mac/mac.hpp"

namespace iiot::mac {

struct LplConfig {
  sim::Duration wake_interval = 500'000;  // 500 ms default
  sim::Duration sample_window = 5'000;    // awake per wakeup
  sim::Duration strobe_gap = 900;         // listen-for-early-ack gap
  sim::Duration extend_step = 2'000;      // window extension on activity
  int max_extensions = 12;
  int max_retries = 3;                    // full strobe-train retries
  sim::Duration data_ack_timeout = 2'000;
};

class LplMac : public MacBase {
 public:
  LplMac(radio::Radio& radio, sim::Scheduler& sched, Rng rng, TenantId tenant,
         LplConfig cfg = {})
      : MacBase(radio, sched, rng, tenant), cfg_(cfg) {}

  using MacBase::send;

  void start() override;
  void stop() override;
  bool send(NodeId dst, Buffer payload, SendCallback cb) override;
  [[nodiscard]] const char* name() const override { return "lpl"; }
  [[nodiscard]] const LplConfig& config() const { return cfg_; }

 private:
  // --- duty-cycled receiver side ---
  void wake();
  void sample_check(int extensions);
  void go_to_sleep();

  // --- sender side ---
  void process_queue();
  void start_attempt();
  void strobe_loop();
  void send_data();
  void finish(bool delivered);

  void on_frame(const radio::Frame& f, double rssi);

  LplConfig cfg_;

  // Receiver state.
  sim::EventHandle wake_timer_;
  sim::EventHandle window_timer_;
  bool awake_ = false;
  bool activity_ = false;       // frame traffic seen this window
  bool expecting_data_ = false; // strobe-acked, waiting for the data frame

  // Sender state. `sending_` = a send is in progress (possibly waiting
  // out a backoff); `tx_active_` = the radio is owned by the sender right
  // now (strobing or exchanging data), so receive windows must pause.
  bool sending_ = false;
  bool tx_active_ = false;
  bool paused_for_rx_ = false;  // own train paused to accept inbound data
  std::uint16_t tx_seq_ = 0;          // seq of in-flight data frame
  sim::Time strobe_deadline_ = 0;
  bool got_early_ack_ = false;
  sim::EventHandle gap_timer_;
  sim::EventHandle ack_timer_;
  sim::EventHandle resume_timer_;

  void resume_train();
};

}  // namespace iiot::mac
