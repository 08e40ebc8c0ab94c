#include "radio/medium.hpp"

#include <algorithm>
#include <span>

#include "radio/island.hpp"

namespace iiot::radio {

void Medium::set_island_gateway(Interchange* ix, const IslandPlan* plan,
                                std::uint32_t island) {
  island_ix_ = ix;
  island_plan_ = plan;
  island_id_ = island;
}

namespace {

/// Unordered removal: nothing reads active_/remote_active_ in order
/// (lookups go by id, channel_busy only answers a bool, detach works per
/// transmission), so the last entry may fill the gap.
template <typename T>
void swap_remove(std::vector<T>& v, typename std::vector<T>::iterator it) {
  if (it != v.end() - 1) *it = std::move(v.back());
  v.pop_back();
}

}  // namespace

std::vector<Radio*> Medium::take_receivers() {
  if (spare_receivers_.empty()) return {};
  std::vector<Radio*> list = std::move(spare_receivers_.back());
  spare_receivers_.pop_back();
  return list;
}

void Medium::recycle_receivers(std::vector<Radio*>&& list) {
  list.clear();
  spare_receivers_.push_back(std::move(list));
}

void Medium::attach(Radio* r) {
  r->medium_index_ = radios_.size();
  radios_.push_back(r);
  rx_at_.emplace_back();
  neighbors_.emplace_back();
  invalidate_neighbor_caches();
}

void Medium::detach(Radio* r) {
  // Order-preserving removal: reception creation order follows radios_
  // order, and the delivery RNG stream must not depend on who detached.
  const std::size_t idx = r->medium_index_;
  radios_.erase(radios_.begin() + static_cast<std::ptrdiff_t>(idx));
  rx_at_.erase(rx_at_.begin() + static_cast<std::ptrdiff_t>(idx));
  for (std::size_t i = idx; i < radios_.size(); ++i) {
    radios_[i]->medium_index_ = i;
  }
  neighbors_.pop_back();
  invalidate_neighbor_caches();

  if (debug_skip_detach_cleanup_) return;  // canary: leave stale bookkeeping

  for (ActiveTx& tx : active_) {
    std::erase(tx.receivers, r);
  }
  // Ghost transmissions outlive any single radio (their source lives on
  // another island); only the departing receiver is forgotten.
  for (RemoteActive& rt : remote_active_) {
    std::erase(rt.receivers, r);
  }
  // Transmissions sourced by the departing radio die with it, including
  // their receptions in progress at other radios.
  for (ActiveTx& tx : active_) {
    if (tx.src != r) continue;
    for (Radio* rcv : tx.receivers) {
      auto& list = rx_at_[rcv->medium_index_];
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i].tx_id == tx.id) {
          list[i] = list.back();
          list.pop_back();
          break;
        }
      }
    }
  }
  obs::Tracer* t = obs::tracer(sched_);
  std::erase_if(active_, [r, t](const ActiveTx& tx) {
    if (tx.src != r) return false;
    // Close the airtime span of transmissions dying with their source so
    // traces do not accumulate spans for radios that no longer exist.
    if (t != nullptr) t->end(tx.obs_span, "detached", 1);
    return true;
  });
}

const std::vector<Medium::Neighbor>& Medium::neighbors_of(
    const Radio& r) const {
  NeighborCache& cache = neighbors_[r.medium_index_];
  if (cache.epoch != cache_epoch_) {
    // A neighbor is anyone whose link budget clears the weaker of the two
    // thresholds the hot paths test against; begin_tx/channel_busy apply
    // their exact threshold on top of the cached budget.
    const double floor_dbm = std::min(prop_.config().sensitivity_dbm,
                                      prop_.config().cca_threshold_dbm);
    neighbor_scratch_.clear();
    for (Radio* other : radios_) {
      if (other == &r) continue;
      const double sig = rx_power(r, *other);
      if (sig >= floor_dbm) neighbor_scratch_.push_back(Neighbor{other, sig});
    }
    // Collected in a shared buffer and copied once, so a list allocates
    // exactly its size instead of a power-of-two capacity; a rebuild
    // reuses the list's buffer when it is large enough.
    cache.list.assign(neighbor_scratch_.begin(), neighbor_scratch_.end());
    cache.epoch = cache_epoch_;
  }
  return cache.list;
}

void Medium::begin_tx(Radio& src, Frame f) {
  ++stats_.transmissions;
  const sim::Time start = sched_.now();
  const sim::Time end = start + airtime(f);
  const std::uint64_t id = next_tx_id_++;

  ActiveTx tx{id, &src, src.channel(), start, end, std::move(f), {}, 0,
              take_receivers()};
  if (obs::Tracer* t = obs::tracer(sched_)) {
    tx.obs_span = t->begin(tx.frame.trace, src.id(), obs::Layer::kRadio,
                           "tx", tx.frame.span);
  }
  if (fault_hook_) {
    tx.fault = fault_hook_(tx.frame);
    if (tx.fault.drop) ++stats_.fault_drops;
    if (tx.fault.duplicate) ++stats_.fault_dups;
    if (tx.fault.delay > 0) ++stats_.fault_delays;
  }

  // Island gateway: snapshot the (post-fault-hook) frame for the islands
  // this sender reaches, quantized to the plan's window boundaries. Any
  // other island has no radio above min(sensitivity, CCA): a ghost there
  // would start no reception, trip no CCA and draw no RNG. The fault
  // verdict rides along so drop/dup/delay apply identically at every
  // receiver of the transmission, local or remote.
  if (island_ix_ != nullptr) {
    const std::span<const std::uint32_t> reach =
        island_plan_->reach(src.id() - island_plan_->id_base);
    if (!reach.empty()) {
      const sim::Duration w = island_plan_->window;
      CellTx cell;
      cell.src_island = island_id_;
      cell.src = src.id();
      cell.src_pos = src.position();
      cell.channel = tx.channel;
      cell.b1 = (start / w + 1) * w;
      cell.b2 = std::max((end / w + 1) * w, cell.b1 + w);
      cell.air_end = end;
      cell.frame = tx.frame;
      cell.frame.trace = 0;  // traces are per-island; ghosts do not trace
      cell.frame.span = 0;
      cell.fault = tx.fault;
      for (std::uint32_t dst : reach) {
        cell.seq = island_seq_++;
        ++stats_.cross_island_tx;
        island_ix_->post(dst, cell);
      }
    }
  }

  // Start receptions at every radio currently able to hear this frame —
  // O(neighbors), not O(all radios).
  for (const Neighbor& n : neighbors_of(src)) {
    Radio* r = n.radio;
    if (r->channel() != src.channel()) continue;
    if (r->mode() != Mode::kListen || r->transmitting()) continue;
    if (n.signal_dbm < prop_.config().sensitivity_dbm) continue;

    // Collision handling: compare against receptions already in progress
    // at this radio. The stronger signal survives only if it clears the
    // capture margin; otherwise both are corrupted.
    auto& list = rx_at_[r->medium_index_];
    bool corrupted = false;
    for (Reception& other : list) {
      if (other.aborted) continue;
      if (!radiates_at(other.tx_id, start)) continue;
      const double margin = prop_.config().capture_db;
      const bool new_wins = n.signal_dbm >= other.signal_dbm + margin;
      const bool old_wins = other.signal_dbm >= n.signal_dbm + margin;
      if (!old_wins) {
        if (!other.corrupted) ++stats_.collisions;
        other.corrupted = true;
      }
      if (!new_wins) {
        if (!corrupted) ++stats_.collisions;
        corrupted = true;
      }
    }
    list.push_back(Reception{id, n.signal_dbm, corrupted, false});
    tx.receivers.push_back(r);
  }

  active_.push_back(std::move(tx));
  sched_.schedule_at(end, [this, id] { finish_tx(id); });
}

void Medium::apply_remote(const CellTx& m) {
  ++stats_.cross_island_rx;
  RemoteActive rt{next_remote_id_++, m.src,   m.src_pos,  m.channel,
                  m.b1,              m.b2,    m.air_end,  m.frame,
                  m.fault,           take_receivers()};
  // A frame whose true airtime ended before this island's boundary
  // radiates nothing here anymore — it only delivers at b2.
  const bool radiates = m.air_end > m.b1;

  // Mirror of begin_tx's reception marking, with the signal computed from
  // the carried source position (the source radio lives on another
  // island). Radios are visited in attach order, same as a neighbor list.
  for (Radio* r : radios_) {
    if (r->channel() != m.channel) continue;
    if (r->mode() != Mode::kListen || r->transmitting()) continue;
    const double sig =
        prop_.rx_dbm(m.src, m.src_pos, r->id(), r->position());
    if (sig < prop_.config().sensitivity_dbm) continue;

    auto& list = rx_at_[r->medium_index_];
    bool corrupted = false;
    for (Reception& other : list) {
      if (other.aborted) continue;
      if (!radiates || !radiates_at(other.tx_id, m.b1)) continue;
      const double margin = prop_.config().capture_db;
      const bool new_wins = sig >= other.signal_dbm + margin;
      const bool old_wins = other.signal_dbm >= sig + margin;
      if (!old_wins) {
        if (!other.corrupted) ++stats_.collisions;
        other.corrupted = true;
      }
      if (!new_wins) {
        if (!corrupted) ++stats_.collisions;
        corrupted = true;
      }
    }
    list.push_back(Reception{rt.id, sig, corrupted, false});
    rt.receivers.push_back(r);
  }

  const std::uint64_t id = rt.id;
  remote_active_.push_back(std::move(rt));
  sched_.schedule_at(m.b2, [this, id] { finish_remote(id); });
}

bool Medium::radiates_at(std::uint64_t rx_id, sim::Time t) const {
  if ((rx_id & kRemoteIdBit) == 0) return true;
  for (const RemoteActive& rt : remote_active_) {
    if (rt.id == rx_id) return t >= rt.b1 && t < rt.air_end;
  }
  return false;  // ghost already finished; entries die with it anyway
}

void Medium::finish_remote(std::uint64_t id) {
  auto it = std::find_if(remote_active_.begin(), remote_active_.end(),
                         [id](const RemoteActive& t) { return t.id == id; });
  if (it == remote_active_.end()) return;
  RemoteActive rt = std::move(*it);
  swap_remove(remote_active_, it);

  // Delivery loop identical to finish_tx, minus tracing (per-island),
  // firing at the quantized b2 rather than the true airtime end.
  for (Radio* receiver : rt.receivers) {
    auto& list = rx_at_[receiver->medium_index_];
    double signal_dbm = 0.0;
    bool dead = true;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].tx_id != rt.id) continue;
      signal_dbm = list[i].signal_dbm;
      dead = list[i].aborted || list[i].corrupted;
      list[i] = list.back();
      list.pop_back();
      break;
    }
    if (dead || rt.fault.drop) continue;
    // No receiver-state check here, unlike finish_tx: the true airtime
    // ended at air_end, and any disturbance before that already aborted
    // the reception. What the receiver does in the [air_end, b2) gap —
    // pure quantization artifact — cannot un-receive the frame.
    const double snr = signal_dbm - prop_.config().noise_floor_dbm;
    if (!rng_.chance(Propagation::prr_from_snr(snr))) {
      ++stats_.snr_losses;
      continue;
    }
    if (rt.fault.delay > 0) {
      sched_.schedule_after(
          rt.fault.delay,
          [this, to = receiver->id(), f = rt.frame, signal_dbm,
           ch = rt.channel] { deliver_late(to, f, signal_dbm, ch); });
      continue;
    }
    ++stats_.deliveries;
    receiver->deliver(rt.frame, signal_dbm);
    if (rt.fault.duplicate) {
      ++stats_.deliveries;
      receiver->deliver(rt.frame, signal_dbm);
    }
  }
  recycle_receivers(std::move(rt.receivers));
}

void Medium::on_receiver_disturbed(Radio& r) {
  const sim::Time now = sched_.now();
  for (Reception& rec : rx_at_[r.medium_index_]) {
    if (!rec.aborted && radiates_at(rec.tx_id, now)) {
      rec.aborted = true;
      ++stats_.aborted;
    }
  }
}

bool Medium::channel_busy(const Radio& r) const {
  if (active_.empty() && remote_active_.empty()) return false;
  const std::vector<Neighbor>& neigh = neighbors_of(r);
  for (const ActiveTx& tx : active_) {
    if (tx.channel != r.channel()) continue;
    if (tx.src == &r) return true;
    // A transmitter absent from the neighbor list is below
    // min(sensitivity, CCA) and therefore cannot trip energy detect.
    for (const Neighbor& n : neigh) {
      if (n.radio == tx.src) {
        if (n.signal_dbm >= prop_.config().cca_threshold_dbm) return true;
        break;
      }
    }
  }
  // Ghost transmissions radiate energy only while their true airtime
  // overlaps local visibility: [b1, air_end). No neighbor cache covers
  // off-island sources, so the (rare) cross-island budget is computed on
  // the fly.
  const sim::Time now = sched_.now();
  for (const RemoteActive& rt : remote_active_) {
    if (rt.channel != r.channel()) continue;
    if (now < rt.b1 || now >= rt.air_end) continue;
    if (prop_.rx_dbm(rt.src, rt.src_pos, r.id(), r.position()) >=
        prop_.config().cca_threshold_dbm) {
      return true;
    }
  }
  return false;
}

void Medium::finish_tx(std::uint64_t tx_id) {
  auto it = std::find_if(active_.begin(), active_.end(),
                         [tx_id](const ActiveTx& t) { return t.id == tx_id; });
  if (it == active_.end()) return;
  ActiveTx tx = std::move(*it);
  swap_remove(active_, it);
  obs::Tracer* t = obs::tracer(sched_);

  // Deliver surviving receptions in creation order. Each entry is removed
  // from its receiver's list *before* any delivery callback runs, so a
  // handler that synchronously transmits or changes mode can neither
  // re-abort a consumed entry nor miss the not-yet-delivered ones.
  for (Radio* receiver : tx.receivers) {
    auto& list = rx_at_[receiver->medium_index_];
    double signal_dbm = 0.0;
    bool dead = true;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].tx_id != tx_id) continue;
      signal_dbm = list[i].signal_dbm;
      dead = list[i].aborted || list[i].corrupted;
      list[i] = list.back();
      list.pop_back();
      break;
    }
    if (dead || tx.fault.drop) continue;
    // Receiver must still be listening on the same channel.
    if (receiver->mode() != Mode::kListen || receiver->transmitting() ||
        receiver->channel() != tx.channel) {
      ++stats_.aborted;
      continue;
    }
    const double snr = signal_dbm - prop_.config().noise_floor_dbm;
    if (!rng_.chance(Propagation::prr_from_snr(snr))) {
      ++stats_.snr_losses;
      continue;
    }
    if (tx.fault.delay > 0) {
      // Reordering fault: the frame arrives late, possibly after frames
      // transmitted afterwards. Lifetime-safe via id lookup at fire time.
      sched_.schedule_after(
          tx.fault.delay,
          [this, to = receiver->id(), f = tx.frame, signal_dbm,
           ch = tx.channel] { deliver_late(to, f, signal_dbm, ch); });
      continue;
    }
    ++stats_.deliveries;
    if (t != nullptr) {
      t->instant(tx.frame.trace, receiver->id(), obs::Layer::kRadio, "rx",
                 tx.obs_span);
    }
    receiver->deliver(tx.frame, signal_dbm);
    if (tx.fault.duplicate) {
      ++stats_.deliveries;
      if (t != nullptr) {
        t->instant(tx.frame.trace, receiver->id(), obs::Layer::kRadio, "rx",
                   tx.obs_span);
      }
      receiver->deliver(tx.frame, signal_dbm);
    }
  }
  if (t != nullptr) t->end(tx.obs_span);
  recycle_receivers(std::move(tx.receivers));
}

void Medium::deliver_late(NodeId to, const Frame& f, double signal_dbm,
                          ChannelId channel) {
  for (Radio* r : radios_) {
    if (r->id() != to) continue;
    // The late frame is only hearable if the radio still listens there.
    if (r->mode() != Mode::kListen || r->transmitting() ||
        r->channel() != channel) {
      ++stats_.aborted;
      return;
    }
    ++stats_.deliveries;
    if (obs::Tracer* t = obs::tracer(sched_)) {
      // Parent deliberately 0: the originating airtime span has long since
      // closed, and a late arrival outside its parent's bounds would break
      // the nesting invariant.
      t->instant(f.trace, r->id(), obs::Layer::kRadio, "rx_late");
    }
    r->deliver(f, signal_dbm);
    return;
  }
}

std::string Medium::check_consistency() const {
  auto fail = [](std::string msg) { return "medium: " + std::move(msg); };

  if (rx_at_.size() != radios_.size() || neighbors_.size() != radios_.size()) {
    return fail("table sizes diverge (radios=" +
                std::to_string(radios_.size()) +
                " rx_at=" + std::to_string(rx_at_.size()) +
                " neighbors=" + std::to_string(neighbors_.size()) + ")");
  }
  for (std::size_t i = 0; i < radios_.size(); ++i) {
    if (radios_[i]->medium_index_ != i) {
      return fail("radio " + std::to_string(radios_[i]->id()) +
                  " has medium_index " +
                  std::to_string(radios_[i]->medium_index_) + ", expected " +
                  std::to_string(i));
    }
  }

  auto attached = [this](const Radio* r) {
    for (const Radio* a : radios_) {
      if (a == r) return true;
    }
    return false;
  };

  for (const ActiveTx& tx : active_) {
    if (tx.end < tx.start) {
      return fail("tx " + std::to_string(tx.id) + " ends before it starts");
    }
    if (!attached(tx.src)) {
      return fail("tx " + std::to_string(tx.id) + " sourced by detached radio");
    }
    for (const Radio* rcv : tx.receivers) {
      if (!attached(rcv)) {
        return fail("tx " + std::to_string(tx.id) +
                    " lists a detached receiver");
      }
      std::size_t hits = 0;
      for (const Reception& rec : rx_at_[rcv->medium_index_]) {
        if (rec.tx_id == tx.id) ++hits;
      }
      if (hits != 1) {
        return fail("tx " + std::to_string(tx.id) + " has " +
                    std::to_string(hits) + " receptions at radio " +
                    std::to_string(rcv->id()) + ", expected 1");
      }
    }
  }

  for (const RemoteActive& rt : remote_active_) {
    if (rt.b2 < rt.b1) {
      return fail("ghost tx " + std::to_string(rt.id & ~kRemoteIdBit) +
                  " ends before it starts");
    }
    if (rt.air_end > rt.b2) {
      return fail("ghost tx " + std::to_string(rt.id & ~kRemoteIdBit) +
                  " radiates past its delivery boundary");
    }
    for (const Radio* rcv : rt.receivers) {
      if (!attached(rcv)) {
        return fail("ghost tx " + std::to_string(rt.id & ~kRemoteIdBit) +
                    " lists a detached receiver");
      }
      std::size_t hits = 0;
      for (const Reception& rec : rx_at_[rcv->medium_index_]) {
        if (rec.tx_id == rt.id) ++hits;
      }
      if (hits != 1) {
        return fail("ghost tx " + std::to_string(rt.id & ~kRemoteIdBit) +
                    " has " + std::to_string(hits) + " receptions at radio " +
                    std::to_string(rcv->id()) + ", expected 1");
      }
    }
  }

  for (std::size_t i = 0; i < rx_at_.size(); ++i) {
    for (const Reception& rec : rx_at_[i]) {
      const std::vector<Radio*>* owner_receivers = nullptr;
      for (const ActiveTx& tx : active_) {
        if (tx.id == rec.tx_id) owner_receivers = &tx.receivers;
      }
      for (const RemoteActive& rt : remote_active_) {
        if (rt.id == rec.tx_id) owner_receivers = &rt.receivers;
      }
      if (owner_receivers == nullptr) {
        return fail("radio " + std::to_string(radios_[i]->id()) +
                    " holds a reception for finished tx " +
                    std::to_string(rec.tx_id));
      }
      bool listed = false;
      for (const Radio* rcv : *owner_receivers) {
        if (rcv == radios_[i]) listed = true;
      }
      if (!listed) {
        return fail("tx " + std::to_string(rec.tx_id) +
                    " does not list radio " + std::to_string(radios_[i]->id()) +
                    " although a reception exists there");
      }
    }
  }
  return {};
}

}  // namespace iiot::radio
