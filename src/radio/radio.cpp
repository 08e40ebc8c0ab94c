#include "radio/radio.hpp"

#include <stdexcept>
#include <utility>

#include "radio/medium.hpp"

namespace iiot::radio {

Radio::Radio(Medium& medium, sim::Scheduler& sched, NodeId id, Position pos,
             energy::Meter& meter)
    : medium_(medium), sched_(sched), id_(id), pos_(pos), meter_(meter) {
  medium_.attach(this);
  update_energy_state();
}

Radio::~Radio() {
  tx_done_.cancel();
  medium_.detach(this);
}

void Radio::set_position(Position pos) {
  // An island plan fixes reach and adjacency from the positions it was
  // computed from; a moved radio could reach islands it never posts to.
  if (medium_.has_island_gateway()) {
    throw std::logic_error("radio: cannot move a radio of an island world");
  }
  pos_ = pos;
  medium_.invalidate_neighbor_caches();
}

void Radio::set_channel(ChannelId ch) {
  if (ch == channel_) return;
  channel_ = ch;
  medium_.on_receiver_disturbed(*this);
  medium_.invalidate_neighbor_caches();
}

void Radio::set_mode(Mode m) {
  if (m == mode_) return;
  // Leaving listen (or powering down) kills any reception in progress.
  medium_.on_receiver_disturbed(*this);
  mode_ = m;
  update_energy_state();
}

bool Radio::transmit(Frame f, TxDoneHandler on_done) {
  if (!can_transmit()) return false;
  transmitting_ = true;
  ++tx_count_;
  tx_bytes_ += f.size_bytes();
  medium_.on_receiver_disturbed(*this);  // half-duplex: stop receiving
  update_energy_state();
  sim::Duration air = airtime(f);
  medium_.begin_tx(*this, std::move(f));
  tx_done_ = sched_.schedule_after(air, [this, cb = std::move(on_done)] {
    transmitting_ = false;
    update_energy_state();
    if (cb) cb();
  });
  return true;
}

bool Radio::cca_clear() const {
  if (mode_ == Mode::kOff || mode_ == Mode::kSleep) return false;
  return !medium_.channel_busy(*this);
}

void Radio::update_energy_state() {
  energy::RadioState s = energy::RadioState::kOff;
  if (transmitting_) {
    s = energy::RadioState::kTx;
  } else {
    switch (mode_) {
      case Mode::kOff: s = energy::RadioState::kOff; break;
      case Mode::kSleep: s = energy::RadioState::kSleep; break;
      case Mode::kListen: s = energy::RadioState::kListen; break;
    }
  }
  meter_.radio_state(s, sched_.now());
}

void Radio::deliver(const Frame& f, double rssi_dbm) {
  ++rx_count_;
  if (on_receive_) on_receive_(f, rssi_dbm);
}

}  // namespace iiot::radio
