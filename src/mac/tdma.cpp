#include "mac/tdma.hpp"

#include <algorithm>
#include <utility>

namespace iiot::mac {

sim::Duration TdmaMac::rx_offset() const {
  if (cfg_.staggered) {
    // Children (depth+1) transmit at slot index (max_depth - depth - 1).
    const int idx = sched_cfg_.max_depth - sched_cfg_.depth - 1;
    return static_cast<sim::Duration>(std::max(idx, 0)) * cfg_.slot;
  }
  return sched_cfg_.phase;
}

sim::Duration TdmaMac::tx_offset() const {
  if (cfg_.staggered) {
    const int idx = sched_cfg_.max_depth - sched_cfg_.depth;
    return static_cast<sim::Duration>(std::max(idx, 0)) * cfg_.slot;
  }
  return sched_cfg_.parent_phase;
}

void TdmaMac::start() {
  running_ = true;
  radio_.set_receive_handler(
      [this](const radio::Frame& f, double rssi) { on_frame(f, rssi); });
  radio_.set_mode(radio::Mode::kSleep);
  // Align to the next epoch boundary (global sync assumed; see header).
  const sim::Time now = sched_.now();
  const sim::Time next_epoch = ((now / cfg_.epoch) + 1) * cfg_.epoch;
  epoch_timer_ =
      sched_.schedule_at(next_epoch, [this] { on_epoch(); });
}

void TdmaMac::stop() {
  running_ = false;
  epoch_timer_.cancel();
  ack_timer_.cancel();
  in_tx_window_ = false;
  awaiting_ack_ = false;
  radio_.set_mode(radio::Mode::kSleep);
}

bool TdmaMac::send(NodeId dst, Buffer payload, SendCallback cb) {
  if (dst != sched_cfg_.parent || dst == kInvalidNode) {
    if (cb) cb(SendStatus{false, 0});
    return false;
  }
  if (!enqueue(dst, std::move(payload), std::move(cb))) return false;
  // If the tx window is currently open and idle, use it right away.
  if (in_tx_window_ && !frame_in_flight_) {
    const sim::Time epoch_start = (sched_.now() / cfg_.epoch) * cfg_.epoch;
    drain(epoch_start + tx_offset() + cfg_.slot);
  }
  return true;
}

void TdmaMac::on_epoch() {
  if (!running_) return;
  const sim::Time epoch_start = sched_.now();
  epoch_timer_ = sched_.schedule_after(cfg_.epoch, [this] { on_epoch(); });

  if (sched_cfg_.has_children) {
    const sim::Time open = epoch_start + rx_offset();
    const sim::Time close = open + cfg_.slot + cfg_.guard;
    sched_.schedule_at(open > cfg_.guard ? open - cfg_.guard : open,
                       [this] { open_rx_window(); });
    sched_.schedule_at(close, [this] {
      if (running_ && !in_tx_window_ && !frame_in_flight_) {
        radio_.set_mode(radio::Mode::kSleep);
      }
    });
  }
  if (sched_cfg_.parent != kInvalidNode) {
    const sim::Time open = epoch_start + tx_offset();
    const sim::Time close = open + cfg_.slot;
    sched_.schedule_at(open, [this, close] { open_tx_window(close); });
  }
}

void TdmaMac::open_rx_window() {
  if (!running_) return;
  radio_.set_mode(radio::Mode::kListen);
}

void TdmaMac::open_tx_window(sim::Time window_end) {
  if (!running_) return;
  in_tx_window_ = true;
  radio_.set_mode(radio::Mode::kListen);  // need to hear acks
  sched_.schedule_at(window_end, [this] {
    in_tx_window_ = false;
    ack_timer_.cancel();
    awaiting_ack_ = false;
    if (running_ && !frame_in_flight_) radio_.set_mode(radio::Mode::kSleep);
  });
  drain(window_end);
}

void TdmaMac::drain(sim::Time window_end) {
  if (!running_ || !in_tx_window_ || frame_in_flight_ || queue_empty()) {
    return;
  }
  // Leave room for the frame + ack before the window closes.
  if (sched_.now() + 8'000 > window_end) return;
  // Short random offset decorrelates siblings sharing the parent's slot.
  const auto jitter =
      100 + static_cast<sim::Duration>(rng_.below(static_cast<std::uint32_t>(
                std::max<sim::Duration>(cfg_.slot / 16, 1))));
  frame_in_flight_ = true;
  sched_.schedule_after(jitter, [this, window_end] {
    if (!running_ || !in_tx_window_ || queue_empty()) {
      frame_in_flight_ = false;
      return;
    }
    if (!radio_.cca_clear() || !radio_.can_transmit()) {
      frame_in_flight_ = false;
      drain(window_end);  // re-jitter
      return;
    }
    Pending& p = queue_front();
    ++p.attempts;
    radio::Frame f = make_data_frame(p);
    const std::uint16_t seq = f.seq;
    radio_.transmit(std::move(f), [this, seq, window_end] {
      awaiting_ack_ = true;
      awaiting_seq_ = seq;
      ack_timer_ = sched_.schedule_after(cfg_.ack_timeout,
                                         [this, window_end] {
        if (!awaiting_ack_) return;
        awaiting_ack_ = false;
        frame_in_flight_ = false;
        if (queue_empty()) return;
        if (queue_front().attempts > cfg_.max_retries) {
          complete_front(false);
        } else {
          ++stats_.retries;
        }
        drain(window_end);
      });
    });
  });
}

void TdmaMac::on_frame(const radio::Frame& f, double rssi) {
  if (!running_) return;
  if (!tenant_match(f)) {
    ++stats_.rx_foreign;
    return;
  }
  if (f.type == radio::FrameType::kAck && f.dst == radio_.id()) {
    if (awaiting_ack_ && f.seq == awaiting_seq_) {
      awaiting_ack_ = false;
      ack_timer_.cancel();
      frame_in_flight_ = false;
      complete_front(true);
      if (in_tx_window_) {
        const sim::Time epoch_start =
            (sched_.now() / cfg_.epoch) * cfg_.epoch;
        drain(epoch_start + tx_offset() + cfg_.slot);
      }
    }
    return;
  }
  if (f.type != radio::FrameType::kData) return;
  if (f.dst != radio_.id()) return;
  send_after_turnaround(radio::FrameType::kAck, f.src, f.seq, f.trace);
  deliver_data(f, rssi);
}

}  // namespace iiot::mac
