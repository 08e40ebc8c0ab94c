#include "mac/csma.hpp"

#include <utility>

namespace iiot::mac {

void CsmaMac::start() {
  running_ = true;
  radio_.set_mode(radio::Mode::kListen);
  radio_.set_receive_handler(
      [this](const radio::Frame& f, double rssi) { on_frame(f, rssi); });
  process_queue();
}

void CsmaMac::stop() {
  running_ = false;
  busy_ = false;
  awaiting_ack_ = false;
  ack_timer_.cancel();
  backoff_timer_.cancel();
  radio_.set_mode(radio::Mode::kSleep);
}

bool CsmaMac::send(NodeId dst, Buffer payload, SendCallback cb) {
  if (!enqueue(dst, std::move(payload), std::move(cb))) return false;
  process_queue();
  return true;
}

void CsmaMac::process_queue() {
  if (!running_ || busy_ || queue_empty()) return;
  busy_ = true;
  attempt(cfg_.min_be, 0);
}

void CsmaMac::attempt(int backoff_exponent, int cca_tries) {
  const auto window =
      cfg_.backoff_unit * ((1ULL << backoff_exponent) - 1ULL);
  const sim::Duration delay =
      window > 0 ? static_cast<sim::Duration>(
                       rng_.below(static_cast<std::uint32_t>(window)))
                 : 0;
  backoff_timer_ = sched_.schedule_after(delay, [this, backoff_exponent,
                                                 cca_tries] {
    if (!running_ || queue_empty()) {
      busy_ = false;
      return;
    }
    if (!radio_.cca_clear() || !radio_.can_transmit()) {
      if (cca_tries + 1 >= cfg_.max_cca_backoffs) {
        finish(false);  // channel persistently busy
        return;
      }
      attempt(std::min(backoff_exponent + 1, cfg_.max_be), cca_tries + 1);
      return;
    }
    transmit_front();
  });
}

void CsmaMac::transmit_front() {
  Pending& p = queue_front();
  ++p.attempts;
  radio::Frame f = make_data_frame(p);
  const bool broadcast = f.broadcast();
  const std::uint16_t seq = f.seq;
  radio_.transmit(std::move(f), [this, broadcast, seq] {
    if (!running_) return;
    if (broadcast) {
      finish(true);
      return;
    }
    awaiting_ack_ = true;
    awaiting_seq_ = seq;
    ack_timer_ = sched_.schedule_after(cfg_.ack_timeout, [this] {
      if (!awaiting_ack_) return;
      awaiting_ack_ = false;
      if (queue_empty()) {
        busy_ = false;
        return;
      }
      if (queue_front().attempts > cfg_.max_retries) {
        finish(false);
      } else {
        ++stats_.retries;
        attempt(cfg_.min_be, 0);
      }
    });
  });
}

void CsmaMac::on_frame(const radio::Frame& f, double rssi) {
  if (!running_ || !tenant_match(f)) {
    if (f.tenant != tenant_) ++stats_.rx_foreign;
    return;
  }
  if (f.type == radio::FrameType::kAck && f.dst == radio_.id()) {
    if (awaiting_ack_ && f.seq == awaiting_seq_) {
      awaiting_ack_ = false;
      ack_timer_.cancel();
      finish(true);
    }
    return;
  }
  if (f.type != radio::FrameType::kData) return;
  if (f.dst != radio_.id() && !f.broadcast()) return;

  if (!f.broadcast()) {
    // Ack after turnaround; best-effort (radio may be mid-TX).
    send_after_turnaround(radio::FrameType::kAck, f.src, f.seq, f.trace);
  }
  deliver_data(f, rssi);
}

void CsmaMac::finish(bool delivered) {
  complete_front(delivered);
  busy_ = false;
  process_queue();
}

}  // namespace iiot::mac
