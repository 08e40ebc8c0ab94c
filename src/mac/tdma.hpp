// Tree-scheduled TDMA MAC (Dozer class, [29]) for data collection.
//
// Nodes are organized in a collection tree with known depths. In
// *staggered* mode, the slot schedule is aligned to the tree: nodes at
// depth d transmit exactly one slot after their children, so a sample
// generated anywhere flows to the root within a single epoch — the
// "highly synchronous end-to-end communication involving tight
// coordination of multiple devices" that the paper credits with minimizing
// latency (§IV-B, bench E2). In *unaligned* mode each parent picks an
// independent rendezvous phase, so every hop waits ~epoch/2 on average.
//
// The schedule is installed explicitly (configure()); time synchronization
// is assumed perfect, which idealizes Dozer's beacon-based sync. This MAC
// only supports upward (child→parent) unicast, as in real collection MACs.
#pragma once

#include "mac/mac.hpp"

namespace iiot::mac {

struct TdmaConfig {
  sim::Duration epoch = 2'000'000;  // 2 s
  sim::Duration slot = 50'000;      // 50 ms
  sim::Duration guard = 2'000;      // parent listens this much early/late
  bool staggered = true;
  int max_retries = 2;              // per frame, within one tx window
  sim::Duration ack_timeout = 1'500;
};

/// Per-node schedule position, wired by whoever builds the tree.
struct TdmaSchedule {
  NodeId parent = kInvalidNode;     // kInvalidNode at the root
  int depth = 0;                    // root = 0
  int max_depth = 1;                // depth of the deepest node in the tree
  bool has_children = false;
  // Unaligned mode only: this node's rx phase and its parent's rx phase
  // within the epoch.
  sim::Duration phase = 0;
  sim::Duration parent_phase = 0;
};

class TdmaMac : public MacBase {
 public:
  TdmaMac(radio::Radio& radio, sim::Scheduler& sched, Rng rng,
          TenantId tenant, TdmaConfig cfg = {})
      : MacBase(radio, sched, rng, tenant, /*queue_capacity=*/64),
        cfg_(cfg) {}

  void configure(const TdmaSchedule& schedule) { sched_cfg_ = schedule; }

  using MacBase::send;

  void start() override;
  void stop() override;
  /// Only `dst == parent` is routable; anything else fails immediately.
  bool send(NodeId dst, Buffer payload, SendCallback cb) override;
  [[nodiscard]] const char* name() const override { return "tdma"; }
  [[nodiscard]] const TdmaConfig& config() const { return cfg_; }

 private:
  [[nodiscard]] sim::Duration rx_offset() const;
  [[nodiscard]] sim::Duration tx_offset() const;
  void on_epoch();
  void open_rx_window();
  void open_tx_window(sim::Time window_end);
  void drain(sim::Time window_end);
  void on_frame(const radio::Frame& f, double rssi);

  TdmaConfig cfg_;
  TdmaSchedule sched_cfg_;
  bool in_tx_window_ = false;
  bool frame_in_flight_ = false;
  std::uint16_t awaiting_seq_ = 0;
  bool awaiting_ack_ = false;
  sim::EventHandle epoch_timer_;
  sim::EventHandle ack_timer_;
};

}  // namespace iiot::mac
