// Always-on CSMA/CA MAC with link-layer acknowledgments.
//
// This is the latency baseline for E1/E2: the radio listens continuously,
// so per-hop latency is dominated by backoff + airtime (~milliseconds) at
// the price of a ~100% radio duty cycle — the energy regime the paper says
// embedded S&A devices cannot afford (§II-B).
#pragma once

#include "common/interned.hpp"
#include "mac/mac.hpp"

namespace iiot::mac {

struct CsmaConfig {
  int max_cca_backoffs = 5;     // 802.15.4 macMaxCSMABackoffs-ish
  int max_retries = 4;          // retransmissions after missing ack
  sim::Duration backoff_unit = 320;   // aUnitBackoffPeriod (us)
  int min_be = 3;               // initial backoff exponent
  int max_be = 6;
  sim::Duration ack_timeout = 1200;   // turnaround + ack airtime + slack

  bool operator==(const CsmaConfig&) const = default;
};

class CsmaMac : public MacBase {
 public:
  CsmaMac(radio::Radio& radio, sim::Scheduler& sched, Rng rng,
          TenantId tenant, CsmaConfig cfg = {})
      : MacBase(radio, sched, rng, tenant), cfg_(interned(cfg)) {}

  using MacBase::send;

  void start() override;
  void stop() override;
  bool send(NodeId dst, Buffer payload, SendCallback cb) override;
  [[nodiscard]] const char* name() const override { return "csma"; }

 private:
  void process_queue();
  void attempt(int backoff_exponent, int cca_tries);
  void transmit_front();
  void on_frame(const radio::Frame& f, double rssi);
  void finish(bool delivered);

  const CsmaConfig& cfg_;  // interned: one copy per configuration
  bool busy_ = false;           // a send() is in flight
  std::uint16_t awaiting_seq_ = 0;
  bool awaiting_ack_ = false;
  sim::EventHandle ack_timer_;
  sim::EventHandle backoff_timer_;
};

}  // namespace iiot::mac
