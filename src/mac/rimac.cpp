#include "mac/rimac.hpp"

#include <algorithm>
#include <utility>

namespace iiot::mac {

void RiMac::start() {
  running_ = true;
  radio_.set_receive_handler(
      [this](const radio::Frame& f, double rssi) { on_frame(f, rssi); });
  radio_.set_mode(radio::Mode::kSleep);
  schedule_wake();
}

void RiMac::stop() {
  running_ = false;
  sending_ = false;
  awake_ = false;
  wake_timer_.cancel();
  dwell_timer_.cancel();
  attempt_timer_.cancel();
  ack_timer_.cancel();
  contention_timer_.cancel();
  radio_.set_mode(radio::Mode::kSleep);
}

bool RiMac::send(NodeId dst, Buffer payload, SendCallback cb) {
  if (!enqueue(dst, std::move(payload), std::move(cb))) return false;
  process_queue();
  return true;
}

// ---------------------------------------------------------------- receiver

void RiMac::schedule_wake() {
  const double jitter = rng_.uniform(1.0 - cfg_.wake_jitter,
                                     1.0 + cfg_.wake_jitter);
  const auto delay = static_cast<sim::Duration>(
      static_cast<double>(cfg_.wake_interval) * jitter);
  wake_timer_ = sched_.schedule_after(delay, [this] { wake(); });
}

void RiMac::wake() {
  if (!running_) return;
  schedule_wake();
  if (radio_.transmitting()) return;  // busy; try next cycle
  awake_ = true;
  activity_ = false;
  radio_.set_mode(radio::Mode::kListen);
  radio::Frame beacon =
      make_control_frame(radio::FrameType::kBeacon, kBroadcastNode);
  radio_.transmit(std::move(beacon), [this] {
    dwell_timer_.cancel();
    dwell_timer_ =
        sched_.schedule_after(cfg_.dwell, [this] { dwell_check(0); });
  });
}

void RiMac::dwell_check(int extensions) {
  if (!running_ || !awake_) return;
  const bool busy = !radio_.cca_clear() && !radio_.transmitting();
  if ((activity_ || busy) && extensions < cfg_.max_dwell_extensions) {
    activity_ = false;
    dwell_timer_ = sched_.schedule_after(
        cfg_.dwell, [this, extensions] { dwell_check(extensions + 1); });
    return;
  }
  awake_ = false;
  maybe_sleep();
}

void RiMac::maybe_sleep() {
  if (!sending_ && !awake_ && running_) radio_.set_mode(radio::Mode::kSleep);
}

// ------------------------------------------------------------------ sender

void RiMac::process_queue() {
  if (!running_ || sending_ || queue_empty()) return;
  sending_ = true;
  start_attempt();
}

void RiMac::start_attempt() {
  if (!running_ || queue_empty()) {
    sending_ = false;
    maybe_sleep();
    return;
  }
  Pending& p = queue_front();
  ++p.attempts;
  data_in_flight_ = false;
  skip_beacons_ = 0;
  tx_seq_ = next_seq_++;
  radio_.set_mode(radio::Mode::kListen);
  // Wait up to ~1.5 jittered intervals for the target's beacon; for
  // broadcast, harvest every neighbor's beacon over one full interval.
  const bool broadcast = p.dst == kBroadcastNode;
  const auto wait = static_cast<sim::Duration>(
      static_cast<double>(cfg_.wake_interval) * (broadcast ? 1.4 : 1.6));
  attempt_deadline_ = sched_.now() + wait;
  attempt_timer_.cancel();
  attempt_timer_ = sched_.schedule_after(wait, [this, broadcast] {
    if (!sending_) return;
    if (broadcast) {
      finish(true);
      return;
    }
    if (queue_front().attempts > cfg_.max_retries) {
      finish(false);
    } else {
      ++stats_.retries;
      start_attempt();
    }
  });
}

void RiMac::on_target_beacon() {
  // Small random contention delay, then transmit if the channel is free.
  const auto delay = kTurnaround + static_cast<sim::Duration>(rng_.below(
                         static_cast<std::uint32_t>(cfg_.contention_window)));
  contention_timer_ = sched_.schedule_after(delay, [this] {
    if (!sending_ || data_in_flight_ || queue_empty()) return;
    if (!radio_.can_transmit()) return;  // wait for another beacon
    const Pending& p = queue_front();
    radio::Frame f = make_data_frame(p);
    f.seq = tx_seq_;
    data_in_flight_ = true;
    const bool broadcast = f.broadcast();
    radio_.transmit(std::move(f), [this, broadcast] {
      if (broadcast) {
        data_in_flight_ = false;  // keep answering other beacons
        return;
      }
      ack_timer_ = sched_.schedule_after(cfg_.ack_timeout, [this] {
        // No ack — almost always a collision with another sender camped
        // on the same receiver's beacon (convergecast: everyone contends
        // for the sink). Retrying at the very next beacon keeps the
        // colliders in lockstep forever, so resolve like RI-MAC does:
        // sit out a random number of beacons before contending again.
        data_in_flight_ = false;
        if (!queue_empty()) {
          const auto intensity = static_cast<std::uint32_t>(
              std::min(queue_front().attempts, 3) + 1);
          skip_beacons_ = static_cast<int>(rng_.below(intensity + 1));
        }
      });
    });
  });
}

void RiMac::on_frame(const radio::Frame& f, double rssi) {
  if (!running_) return;
  if (!tenant_match(f)) {
    ++stats_.rx_foreign;
    activity_ = true;
    return;
  }
  activity_ = true;

  switch (f.type) {
    case radio::FrameType::kBeacon:
      if (sending_ && !data_in_flight_ && !queue_empty()) {
        const NodeId dst = queue_front().dst;
        if (dst == f.src || dst == kBroadcastNode) {
          if (skip_beacons_ > 0 && dst != kBroadcastNode) {
            --skip_beacons_;  // collision-resolution backoff
            return;
          }
          on_target_beacon();
        }
      }
      return;

    case radio::FrameType::kAck:
      if (sending_ && f.dst == radio_.id() && f.seq == tx_seq_) {
        ack_timer_.cancel();
        attempt_timer_.cancel();
        finish(true);
      }
      return;

    case radio::FrameType::kData: {
      if (f.dst != radio_.id() && !f.broadcast()) return;
      if (!f.broadcast()) {
        send_after_turnaround(radio::FrameType::kAck, f.src, f.seq, f.trace);
      }
      deliver_data(f, rssi);
      return;
    }

    default:
      return;
  }
}

void RiMac::finish(bool delivered) {
  ack_timer_.cancel();
  attempt_timer_.cancel();
  contention_timer_.cancel();
  data_in_flight_ = false;
  complete_front(delivered);
  if (!queue_empty()) {
    start_attempt();
    return;
  }
  sending_ = false;
  maybe_sleep();
}

}  // namespace iiot::mac
