// Medium-access-control interface and shared machinery.
//
// The paper's sensing-and-actuation layer peculiarities (§II-B, §IV-B) show
// up at this layer: radios are duty-cycled to save energy, which trades
// per-hop latency for lifetime. Four MACs implement this interface:
//   * CsmaMac  — always-on CSMA/CA with link-layer acks (latency baseline)
//   * LplMac   — low-power listening with X-MAC-style strobes [26]
//   * RiMac    — receiver-initiated beacons [27]
//   * TdmaMac  — staggered parent/child schedules, Dozer-class [29]
// Benches swap them behind this interface (DESIGN.md §4.5).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/flat_keys.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/context.hpp"
#include "radio/radio.hpp"
#include "sim/scheduler.hpp"

namespace iiot::mac {

/// 802.15.4 aTurnaroundTime: RX/TX switch before acks.
inline constexpr sim::Duration kTurnaround = 192;

struct SendStatus {
  bool delivered = false;  // acked (unicast) or fully strobed (broadcast)
  int attempts = 0;
};

using SendCallback = std::function<void(const SendStatus&)>;
using ReceiveHandler =
    std::function<void(NodeId src, BytesView payload, double rssi_dbm)>;

struct MacStats {
  std::uint64_t enqueued = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t delivered = 0;   // send() completed with ack
  std::uint64_t failed = 0;      // send() exhausted retries
  std::uint64_t retries = 0;
  std::uint64_t rx_delivered = 0;
  std::uint64_t rx_duplicates = 0;
  std::uint64_t rx_foreign = 0;  // frames from other tenants (ignored)
};

/// Abstract MAC. Implementations own the radio's mode; upper layers must
/// not touch the radio directly once start() has been called.
class Mac {
 public:
  virtual ~Mac() = default;

  virtual void start() = 0;
  virtual void stop() = 0;

  /// Queues `payload` for transmission to `dst` (or kBroadcastNode).
  /// Returns false if the MAC queue is full. `cb` fires exactly once.
  virtual bool send(NodeId dst, Buffer payload, SendCallback cb) = 0;
  bool send(NodeId dst, Buffer payload) {
    return send(dst, std::move(payload), nullptr);
  }

  virtual void set_receive_handler(ReceiveHandler h) = 0;
  [[nodiscard]] virtual const MacStats& stats() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual NodeId id() const = 0;
};

/// Shared plumbing: queueing, sequence numbers, duplicate suppression and
/// tenant filtering. Concrete MACs drive the radio.
class MacBase : public Mac {
 public:
  MacBase(radio::Radio& radio, sim::Scheduler& sched, Rng rng,
          TenantId tenant, std::size_t queue_capacity = 16)
      : radio_(radio),
        sched_(sched),
        rng_(rng),
        tenant_(tenant),
        queue_capacity_(queue_capacity) {
    if (obs::MetricsRegistry* m = obs::metrics(sched_)) {
      const auto node = static_cast<std::int64_t>(radio_.id());
      m->attach_counter("mac", "enqueued", node, &stats_.enqueued, this);
      m->attach_counter("mac", "queue_drops", node, &stats_.queue_drops, this);
      m->attach_counter("mac", "delivered", node, &stats_.delivered, this);
      m->attach_counter("mac", "failed", node, &stats_.failed, this);
      m->attach_counter("mac", "retries", node, &stats_.retries, this);
      m->attach_counter("mac", "rx_delivered", node, &stats_.rx_delivered,
                        this);
      m->attach_counter("mac", "rx_duplicates", node, &stats_.rx_duplicates,
                        this);
      m->attach_counter("mac", "rx_foreign", node, &stats_.rx_foreign, this);
    }
  }

  ~MacBase() override {
    if (obs::MetricsRegistry* m = obs::metrics(sched_)) m->detach(this);
  }

  using Mac::send;  // re-expose the 2-arg convenience overload

  void set_receive_handler(ReceiveHandler h) override {
    on_receive_ = std::move(h);
  }
  [[nodiscard]] const MacStats& stats() const override { return stats_; }
  [[nodiscard]] NodeId id() const override { return radio_.id(); }
  [[nodiscard]] TenantId tenant() const { return tenant_; }
  [[nodiscard]] radio::Radio& radio() { return radio_; }

 protected:
  struct Pending {
    NodeId dst;
    Buffer payload;
    SendCallback cb;
    int attempts = 0;
    obs::TraceId trace = 0;       // captured from ambient trace at enqueue
    obs::SpanRef parent_span = 0; // caller's span (e.g. net.hop)
    obs::SpanRef span = 0;        // this request's mac "tx" span
  };

  /// Enqueues a request; returns false when the queue is at capacity.
  /// Captures the ambient trace so the queued transmission — including
  /// retries, strobes and beacon waits — is attributed to the message that
  /// caused it.
  bool enqueue(NodeId dst, Buffer payload, SendCallback cb) {
    if (queue_.size() >= queue_capacity_) {
      ++stats_.queue_drops;
      if (obs::Tracer* t = obs::tracer(sched_)) {
        t->instant(t->current_trace(), id(), obs::Layer::kMac, "queue_drop",
                   t->current_span());
      }
      if (cb) cb(SendStatus{false, 0});
      return false;
    }
    ++stats_.enqueued;
    Pending p{dst, std::move(payload), std::move(cb), 0};
    if (obs::Tracer* t = obs::tracer(sched_)) {
      p.trace = t->current_trace();
      p.parent_span = t->current_span();
      p.span = t->begin(p.trace, id(), obs::Layer::kMac, "tx", p.parent_span);
    }
    queue_.push_back(std::move(p));
    return true;
  }

  [[nodiscard]] bool queue_empty() const { return queue_.empty(); }
  /// The oldest request. Invalidated by the next enqueue (the queue is a
  /// vector), so never hold it across a call that can send.
  [[nodiscard]] Pending& queue_front() { return queue_.front(); }

  /// Completes the front request and pops it.
  void complete_front(bool delivered) {
    Pending p = std::move(queue_.front());
    queue_.erase(queue_.begin());
    if (delivered) {
      ++stats_.delivered;
    } else {
      ++stats_.failed;
    }
    obs::Tracer* t = obs::tracer(sched_);
    if (t != nullptr) {
      t->annotate(p.span, "attempts",
                  static_cast<std::uint64_t>(p.attempts));
      t->end(p.span);
    }
    // The callback runs in this request's trace: a routing layer that
    // reroutes on failure re-enqueues under the same trace automatically.
    obs::TraceScope scope(t, p.trace, p.parent_span);
    if (p.cb) p.cb(SendStatus{delivered, p.attempts});
  }

  /// Builds a data frame for the front request with a fresh sequence no.
  radio::Frame make_data_frame(const Pending& p) {
    radio::Frame f;
    f.src = radio_.id();
    f.dst = p.dst;
    f.tenant = tenant_;
    f.type = radio::FrameType::kData;
    f.seq = next_seq_++;
    f.payload = p.payload;
    f.trace = p.trace;
    f.span = p.span;
    return f;
  }

  radio::Frame make_control_frame(radio::FrameType type, NodeId dst,
                                  std::uint16_t seq = 0) {
    radio::Frame f;
    f.src = radio_.id();
    f.dst = dst;
    f.tenant = tenant_;
    f.type = type;
    f.seq = seq;
    return f;
  }

  /// Sends a `type` control frame (ack, strobe-ack) to `dst` after the
  /// RX/TX turnaround, best-effort: skipped if the MAC has stopped or the
  /// radio cannot transmit by then. The ack belongs to the data frame's
  /// `trace`. The closure carries only what the frame needs and builds it
  /// when it fires: a captured Frame would overflow sim::Callback's inline
  /// buffer and allocate on every received unicast.
  void send_after_turnaround(radio::FrameType type, NodeId dst,
                             std::uint16_t seq, obs::TraceId trace) {
    sched_.schedule_after(kTurnaround, [this, type, dst, seq, trace] {
      if (running_ && radio_.can_transmit()) {
        radio::Frame f = make_control_frame(type, dst, seq);
        f.trace = trace;
        radio_.transmit(std::move(f), nullptr);
      }
    });
  }

  /// Tenant filter + duplicate suppression; delivers to the upper layer.
  /// Returns true if the frame was fresh (delivered).
  bool deliver_data(const radio::Frame& f, double rssi) {
    if (f.tenant != tenant_) {
      ++stats_.rx_foreign;
      return false;
    }
    if (!seen_.fresh(f.src, f.seq)) {
      ++stats_.rx_duplicates;
      return false;
    }
    ++stats_.rx_delivered;
    obs::Tracer* t = obs::tracer(sched_);
    if (t != nullptr) {
      t->instant(f.trace, radio_.id(), obs::Layer::kMac, "rx");
    }
    // Upcall runs in the frame's trace so the next layer (routing,
    // transport) continues the causal chain.
    obs::TraceScope scope(t, f.trace, 0);
    if (on_receive_) on_receive_(f.src, f.payload, rssi);
    return true;
  }

  [[nodiscard]] bool tenant_match(const radio::Frame& f) const {
    return f.tenant == tenant_;
  }

  radio::Radio& radio_;
  sim::Scheduler& sched_;
  Rng rng_;
  TenantId tenant_;
  MacStats stats_;
  std::uint16_t next_seq_ = 1;
  bool running_ = false;  // between start() and stop()

 private:
  std::size_t queue_capacity_;
  // FIFO of requests, oldest first. Its depth is almost always 0 or 1: a
  // vector allocates nothing until the first send, and popping the front
  // moves at most queue_capacity_ entries.
  std::vector<Pending> queue_;
  ReceiveHandler on_receive_;
  // Last sequence number seen per source (suppresses immediate
  // duplicates, which is what link-layer dedup realistically achieves).
  LastSeqTable seen_;
};

}  // namespace iiot::mac
