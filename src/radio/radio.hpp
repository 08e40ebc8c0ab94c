// Half-duplex radio transceiver model.
//
// A Radio is commanded by its MAC into Off/Sleep/Listen modes and can
// transmit one frame at a time. Reception is mediated by the shared
// Medium (see medium.hpp): a frame is delivered only if the radio stayed
// in Listen mode for the frame's whole airtime and the frame survived
// collisions and SNR-based loss. Every state change is charged to the
// node's energy meter.
#pragma once

#include <cstdint>
#include <functional>

#include "common/types.hpp"
#include "energy/meter.hpp"
#include "radio/frame.hpp"
#include "radio/propagation.hpp"
#include "sim/scheduler.hpp"

namespace iiot::radio {

class Medium;

/// Commanded radio mode (what the MAC asked for). While transmitting the
/// radio is additionally in a transient TX state.
enum class Mode : std::uint8_t { kOff = 0, kSleep, kListen };

class Radio {
 public:
  using ReceiveHandler = std::function<void(const Frame&, double rssi_dbm)>;
  using TxDoneHandler = std::function<void()>;

  Radio(Medium& medium, sim::Scheduler& sched, NodeId id, Position pos,
        energy::Meter& meter);
  ~Radio();
  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const Position& position() const { return pos_; }
  /// Moving a radio invalidates every cached link budget in the medium.
  /// Throws std::logic_error on an island medium: the island plan's reach
  /// and adjacency hold only for the positions it was computed from.
  void set_position(Position pos);

  [[nodiscard]] ChannelId channel() const { return channel_; }
  /// Switching channel aborts any in-progress reception.
  void set_channel(ChannelId ch);

  [[nodiscard]] Mode mode() const { return mode_; }
  void set_mode(Mode m);

  [[nodiscard]] bool transmitting() const { return transmitting_; }

  /// True when the radio can accept a transmit request right now.
  [[nodiscard]] bool can_transmit() const {
    return mode_ != Mode::kOff && !transmitting_;
  }

  /// Starts transmitting `f`; `on_done` fires when the frame leaves the
  /// antenna. Returns false (and does nothing) if the radio is off or
  /// already transmitting.
  bool transmit(Frame f, TxDoneHandler on_done);

  /// Instantaneous clear-channel assessment. Requires the radio to be on.
  [[nodiscard]] bool cca_clear() const;

  void set_receive_handler(ReceiveHandler h) { on_receive_ = std::move(h); }

  /// Frames handed to the receive handler since construction.
  [[nodiscard]] std::uint64_t frames_received() const { return rx_count_; }
  [[nodiscard]] std::uint64_t frames_sent() const { return tx_count_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return tx_bytes_; }

 private:
  friend class Medium;

  void update_energy_state();
  /// Called by the medium when a frame addressed through the ether
  /// completes successfully at this radio.
  void deliver(const Frame& f, double rssi_dbm);

  Medium& medium_;
  sim::Scheduler& sched_;
  NodeId id_;
  Position pos_;
  energy::Meter& meter_;
  std::size_t medium_index_ = 0;  // dense index into the medium's tables
  ChannelId channel_ = 11;
  Mode mode_ = Mode::kOff;
  bool transmitting_ = false;
  sim::EventHandle tx_done_;  // cancelled on destruction: the tx-done
                              // callback must never outlive the radio
  ReceiveHandler on_receive_;
  std::uint64_t rx_count_ = 0;
  std::uint64_t tx_count_ = 0;
  std::uint64_t tx_bytes_ = 0;
};

}  // namespace iiot::radio
