#include "mac/lpl.hpp"

#include <utility>

namespace iiot::mac {

void LplMac::start() {
  running_ = true;
  radio_.set_receive_handler(
      [this](const radio::Frame& f, double rssi) { on_frame(f, rssi); });
  radio_.set_mode(radio::Mode::kSleep);
  // Desynchronize wakeups across nodes.
  const auto phase = static_cast<sim::Duration>(
      rng_.below(static_cast<std::uint32_t>(cfg_.wake_interval)));
  wake_timer_ = sched_.schedule_after(phase, [this] { wake(); });
}

void LplMac::stop() {
  running_ = false;
  sending_ = false;
  tx_active_ = false;
  paused_for_rx_ = false;
  awake_ = false;
  resume_timer_.cancel();
  wake_timer_.cancel();
  window_timer_.cancel();
  gap_timer_.cancel();
  ack_timer_.cancel();
  radio_.set_mode(radio::Mode::kSleep);
}

bool LplMac::send(NodeId dst, Buffer payload, SendCallback cb) {
  if (!enqueue(dst, std::move(payload), std::move(cb))) return false;
  process_queue();
  return true;
}

// ---------------------------------------------------------------- receiver

void LplMac::wake() {
  if (!running_) return;
  wake_timer_ =
      sched_.schedule_after(cfg_.wake_interval, [this] { wake(); });
  if (tx_active_) return;  // radio owned by an active strobe/data burst
  awake_ = true;
  activity_ = false;
  expecting_data_ = false;
  radio_.set_mode(radio::Mode::kListen);
  window_timer_.cancel();
  window_timer_ = sched_.schedule_after(cfg_.sample_window,
                                        [this] { sample_check(0); });
}

void LplMac::sample_check(int extensions) {
  if (!running_ || !awake_ || tx_active_) return;
  const bool busy = !radio_.cca_clear();
  if ((activity_ || busy || expecting_data_) &&
      extensions < cfg_.max_extensions) {
    activity_ = false;
    window_timer_ = sched_.schedule_after(
        cfg_.extend_step, [this, extensions] { sample_check(extensions + 1); });
    return;
  }
  go_to_sleep();
}

void LplMac::go_to_sleep() {
  awake_ = false;
  expecting_data_ = false;
  window_timer_.cancel();
  if (!tx_active_) radio_.set_mode(radio::Mode::kSleep);
}

// ------------------------------------------------------------------ sender

void LplMac::process_queue() {
  if (!running_ || sending_ || queue_empty()) return;
  sending_ = true;
  start_attempt();
}

void LplMac::start_attempt() {
  if (!running_ || queue_empty()) {
    sending_ = false;
    return;
  }
  Pending& p = queue_front();
  ++p.attempts;
  tx_active_ = true;
  awake_ = false;
  window_timer_.cancel();
  radio_.set_mode(radio::Mode::kListen);
  got_early_ack_ = false;
  tx_seq_ = next_seq_++;
  strobe_deadline_ = sched_.now() + cfg_.wake_interval + 15'000;
  strobe_loop();
}

void LplMac::strobe_loop() {
  if (!running_ || !sending_) return;
  if (got_early_ack_) return;  // handled in on_frame
  if (sched_.now() >= strobe_deadline_) {
    if (queue_front().dst == kBroadcastNode) {
      // A full wake interval of repeated copies reaches every neighbor.
      finish(true);
      return;
    }
    // Target never answered during a full wake interval.
    if (queue_front().attempts > cfg_.max_retries) {
      finish(false);
    } else {
      // Random inter-attempt backoff: two senders whose trains keep
      // colliding (or whose target is busy sending) must desynchronize.
      // The radio returns to normal duty cycling meanwhile, so this
      // node keeps serving its own children as a receiver.
      ++stats_.retries;
      tx_active_ = false;
      radio_.set_mode(radio::Mode::kSleep);
      gap_timer_ = sched_.schedule_after(
          static_cast<sim::Duration>(
              rng_.below(static_cast<std::uint32_t>(cfg_.wake_interval / 2))),
          [this] { start_attempt(); });
    }
    return;
  }
  // Carrier sense before strobing (X-MAC): barging into an ongoing
  // train only corrupts both at the receiver. Deadline extends by the
  // defer time so busy air does not consume the attempt budget.
  if (!radio_.cca_clear() && !radio_.transmitting()) {
    const auto defer =
        1'000 + static_cast<sim::Duration>(rng_.below(4'000));
    strobe_deadline_ += defer;
    gap_timer_ = sched_.schedule_after(defer, [this] { strobe_loop(); });
    return;
  }
  const Pending& p = queue_front();
  if (p.dst == kBroadcastNode) {
    // Broadcast LPL: repeat the data frame itself for a full wake interval
    // so that every neighbor's sample window overlaps at least one copy.
    radio::Frame f = make_data_frame(p);
    f.seq = tx_seq_;  // constant seq: receivers dedup extra copies
    if (!radio_.transmit(std::move(f), [this] {
          gap_timer_ = sched_.schedule_after(300, [this] { strobe_loop(); });
        })) {
      gap_timer_ = sched_.schedule_after(500, [this] { strobe_loop(); });
    }
    return;
  }
  radio::Frame strobe =
      make_control_frame(radio::FrameType::kStrobe, p.dst, tx_seq_);
  // Strobes are part of the pending request's MAC transmission: their
  // airtime nests under its "tx" span.
  strobe.trace = p.trace;
  strobe.span = p.span;
  if (!radio_.transmit(std::move(strobe), [this] {
        // Listen for the early-ack during the inter-strobe gap.
        gap_timer_ = sched_.schedule_after(cfg_.strobe_gap,
                                           [this] { strobe_loop(); });
      })) {
    gap_timer_ = sched_.schedule_after(500, [this] { strobe_loop(); });
  }
}

void LplMac::send_data() {
  if (!running_ || !sending_ || queue_empty()) return;
  const Pending& p = queue_front();
  radio::Frame f = make_data_frame(p);
  f.seq = tx_seq_;
  const bool started = radio_.transmit(std::move(f), [this] {
    ack_timer_ = sched_.schedule_after(cfg_.data_ack_timeout, [this] {
      if (!sending_) return;
      if (queue_front().attempts > cfg_.max_retries) {
        finish(false);
      } else {
        ++stats_.retries;
        tx_active_ = false;
        radio_.set_mode(radio::Mode::kSleep);
        gap_timer_ = sched_.schedule_after(
            static_cast<sim::Duration>(rng_.below(
                static_cast<std::uint32_t>(cfg_.wake_interval / 2))),
            [this] { start_attempt(); });
      }
    });
  });
  if (!started) {
    // Radio busy (e.g. mid-reception of a third node's frame). Without a
    // retry the MAC would wedge: sending_/tx_active_ stay set with no
    // timer pending — mute *and* deaf forever. The receiver's extended
    // window (expecting_data_) keeps it listening long enough.
    gap_timer_ = sched_.schedule_after(500, [this] { send_data(); });
  }
}

void LplMac::resume_train() {
  if (!paused_for_rx_) return;
  paused_for_rx_ = false;
  expecting_data_ = false;
  if (running_ && tx_active_ && !got_early_ack_) strobe_loop();
}

void LplMac::finish(bool delivered) {
  gap_timer_.cancel();
  ack_timer_.cancel();
  resume_timer_.cancel();
  paused_for_rx_ = false;
  complete_front(delivered);
  if (!queue_empty()) {
    start_attempt();
    return;
  }
  sending_ = false;
  tx_active_ = false;
  radio_.set_mode(radio::Mode::kSleep);
}

// -------------------------------------------------------------- rx dispatch

void LplMac::on_frame(const radio::Frame& f, double rssi) {
  if (!running_) return;
  if (!tenant_match(f)) {
    ++stats_.rx_foreign;
    activity_ = true;  // foreign traffic still keeps the window open
    return;
  }
  activity_ = true;

  switch (f.type) {
    case radio::FrameType::kStrobeAck:
      if (tx_active_ && f.dst == radio_.id() && f.seq == tx_seq_ &&
          !got_early_ack_) {
        got_early_ack_ = true;
        gap_timer_.cancel();
        sched_.schedule_after(kTurnaround, [this] { send_data(); });
      }
      return;

    case radio::FrameType::kStrobe:
      if (tx_active_) {
        // A child is strobing *us* while we strobe our parent. Pause our
        // train, accept its frame, then resume — otherwise parent and
        // child deadlock, each deaf to the other for a full interval.
        if (f.dst == radio_.id() && !paused_for_rx_) {
          paused_for_rx_ = true;
          expecting_data_ = true;
          gap_timer_.cancel();
          strobe_deadline_ += 40'000;
          send_after_turnaround(radio::FrameType::kStrobeAck, f.src, f.seq,
                                f.trace);
          resume_timer_ = sched_.schedule_after(
              40'000, [this] { resume_train(); });
        }
        return;
      }
      if (f.dst == radio_.id()) {
        expecting_data_ = true;
        send_after_turnaround(radio::FrameType::kStrobeAck, f.src, f.seq,
                              f.trace);
      } else {
        // Overhearing avoidance: the strobe train is for someone else.
        go_to_sleep();
      }
      return;

    case radio::FrameType::kAck:
      if (sending_ && f.dst == radio_.id() && f.seq == tx_seq_) {
        ack_timer_.cancel();
        finish(true);
      }
      return;

    case radio::FrameType::kData: {
      if (f.dst != radio_.id() && !f.broadcast()) return;
      if (!f.broadcast()) {
        send_after_turnaround(radio::FrameType::kAck, f.src, f.seq, f.trace);
      }
      expecting_data_ = false;
      deliver_data(f, rssi);
      if (paused_for_rx_) {
        // Inbound exchange done; resume our own train shortly (after
        // our link-layer ack has left the antenna).
        resume_timer_.cancel();
        resume_timer_ =
            sched_.schedule_after(3'000, [this] { resume_train(); });
      }
      return;
    }

    default:
      return;
  }
}

}  // namespace iiot::mac
