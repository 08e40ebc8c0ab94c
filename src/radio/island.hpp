// Spatial islands over one radio world (DESIGN.md §4i).
//
// The island plan is *canonical world structure*, not an execution
// detail: the partitioner is a pure function of node positions and the
// propagation config, and the plan's window quantizes every cross-island
// radio effect. Two runs with the same plan produce bit-identical
// physics at any lane count; changing the plan changes the (still fully
// deterministic) world.
//
// Cross-island transmissions travel as CellTx values through the
// Interchange: the transmitting island posts an immutable snapshot of
// the frame at transmission time to every island the sender reaches
// (IslandPlan::reach), the receiving island applies it at the
// next window boundary as a "ghost" transmission — computing path loss,
// collisions and the SNR coin flip against its own local state (see
// Medium::apply_remote). Quantization to window boundaries is what gives
// the conservative engine its lookahead.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"
#include "radio/frame.hpp"
#include "radio/medium.hpp"
#include "radio/propagation.hpp"
#include "sim/time.hpp"

namespace iiot::radio {

/// A cross-island transmission snapshot. Immutable once posted; the
/// receiving island derives per-receiver signal strength from `src_pos`
/// through its own Propagation (same seed everywhere, so link budgets
/// are island-independent).
struct CellTx {
  std::uint32_t src_island = 0;
  std::uint64_t seq = 0;  // per-source-island emission counter
  NodeId src = kInvalidNode;
  Position src_pos{};
  ChannelId channel = 0;
  /// Quantized visibility interval: b1 is the first window boundary
  /// strictly after the transmission started (its effect time for the
  /// conservative protocol), b2 the boundary the ghost ends and delivers
  /// at — at least one full window after b1.
  sim::Time b1 = 0;
  sim::Time b2 = 0;
  /// True end of the airtime at the source. The ghost *interferes* (CCA,
  /// collisions, receiver disturbance) only during [b1, air_end): a frame
  /// that finished airing before the receiving island's boundary causally
  /// cannot interfere after it — only its delivery (still at b2) remains.
  /// Without this clipping the stretched [b1, b2) window inflates border
  /// interference by the window/airtime ratio and collapses throughput.
  sim::Time air_end = 0;
  Frame frame;
  FaultDecision fault;
};

struct IslandPlanOptions {
  /// Grid cell edge in meters; 0 derives it from the propagation config
  /// (the conservative maximum link range, see island.cpp).
  double cell_size = 0.0;
  /// Extra link-budget headroom (dB) when deciding reach and adjacency;
  /// larger margins mark more pairs linked (more conservative).
  double margin_db = 0.0;
  /// Cross-island quantization window; 0 → kDefaultWindow.
  sim::Duration window = 0;
  /// NodeId of position index 0 (indices map to consecutive ids). Only
  /// the deterministic shadowing draws consume ids, and only when
  /// shadowing_sigma_db > 0.
  NodeId id_base = 0;
};

/// Default cross-island window: 1 ms. Cross-island deliveries land up to
/// two windows late, so MAC ack timeouts in island worlds must exceed
/// roughly 4 windows + one ack airtime.
inline constexpr sim::Duration kDefaultIslandWindow = 1000;

struct IslandPlan {
  std::size_t count = 0;
  sim::Duration window = kDefaultIslandWindow;
  /// NodeId of node index 0 (IslandPlanOptions::id_base).
  NodeId id_base = 0;
  /// node index (position order handed to the partitioner) → island.
  std::vector<std::uint32_t> island_of;
  /// island → sorted adjacent islands (excluding self): pairs with at
  /// least one radio link that clears min(sensitivity, CCA) - margin.
  /// The symmetric union of the member nodes' reach.
  std::vector<std::vector<std::uint32_t>> adjacency;
  /// Per-node reach, flat (CSR): node index i reaches the sorted islands
  /// reach_islands[reach_offsets[i] .. reach_offsets[i + 1]) — every
  /// island other than its own holding a node it has a link to, by the
  /// same link check as adjacency. A transmission is posted only there.
  std::vector<std::uint32_t> reach_offsets;
  std::vector<std::uint32_t> reach_islands;

  /// Islands node index `node` reaches; throws std::out_of_range for an
  /// index outside the plan.
  [[nodiscard]] std::span<const std::uint32_t> reach(std::size_t node) const {
    if (node + 1 >= reach_offsets.size()) {
      throw std::out_of_range("IslandPlan::reach: node outside the plan");
    }
    return std::span<const std::uint32_t>(reach_islands)
        .subspan(reach_offsets[node],
                 reach_offsets[node + 1] - reach_offsets[node]);
  }
};

/// Grid partitioner: bins positions into square cells of cell_size and
/// numbers non-empty cells row-major. Reach is decided per node pair by
/// an exact link-budget check (including the deterministic shadowing
/// draws) over the candidate pairs geometry cannot rule out; adjacency
/// is the union of reach. Pure function of its inputs.
[[nodiscard]] IslandPlan plan_islands(const std::vector<Position>& pos,
                                      const PropagationConfig& cfg,
                                      std::uint64_t prop_seed,
                                      const IslandPlanOptions& opt = {});

/// Conservative maximum distance at which a link could still clear
/// min(sensitivity, CCA) - margin, allowing shadowing up to +8 sigma.
[[nodiscard]] double max_link_range(const PropagationConfig& cfg,
                                    double margin_db);

/// Thread-safe mailboxes carrying CellTx between islands. Senders post
/// from their own lane; each receiving island drains its box between
/// windows. Draining sorts by (b1, src_island, seq) — a total order —
/// so the application order is independent of posting interleavings.
class Interchange {
 public:
  explicit Interchange(std::size_t islands);
  Interchange(const Interchange&) = delete;
  Interchange& operator=(const Interchange&) = delete;

  void post(std::size_t dst_island, CellTx tx);

  /// Removes and returns every pending CellTx for `island` with
  /// b1 <= boundary, in canonical (b1, src_island, seq) order.
  [[nodiscard]] std::vector<CellTx> take_until(std::size_t island,
                                               sim::Time boundary);

  /// Earliest pending b1 for `island`, kTimeNever if the box is empty.
  /// Lock-free: one acquire load of a value kept under the box's mutex.
  [[nodiscard]] sim::Time next_time(std::size_t island) const {
    return boxes_[island]->earliest.load(std::memory_order_acquire);
  }

  /// Total messages ever posted (diagnostics; read when quiescent).
  [[nodiscard]] std::uint64_t posted() const {
    return posted_.load(std::memory_order_relaxed);
  }

 private:
  struct Mailbox {
    std::mutex mu;
    std::vector<CellTx> msgs;
    /// min b1 over msgs (kTimeNever when empty); written only under mu.
    std::atomic<sim::Time> earliest{sim::kTimeNever};
  };

  std::vector<std::unique_ptr<Mailbox>> boxes_;
  std::atomic<std::uint64_t> posted_{0};
};

}  // namespace iiot::radio
