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

/// Unordered removal: nothing reads airings_ in order (lookups go by id,
/// channel_busy only answers a bool, detach works per airing), so the
/// last entry may fill the gap.
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

// take_reception, mark_reception and launch are defined inline ahead of
// their callers so the per-reception loops stay inlined on the serial hot
// path.
inline Medium::Reception Medium::take_reception(const Radio& r,
                                                std::uint64_t id) {
  auto& list = rx_at_[r.medium_index_];
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].tx_id != id) continue;
    const Reception rec = list[i];
    list[i] = list.back();
    list.pop_back();
    return rec;
  }
  return Reception{id, 0.0, false, true};
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

  // Transmissions sourced by the departing radio die with it, including
  // their receptions in progress at other radios. Ghosts outlive any
  // single radio (their source lives on another island).
  for (Airing& a : airings_) {
    std::erase(a.receivers, r);
    if (a.src != r) continue;
    for (Radio* rcv : a.receivers) take_reception(*rcv, a.id);
  }
  obs::Tracer* t = obs::tracer(sched_);
  std::erase_if(airings_, [r, t](const Airing& tx) {
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

inline void Medium::mark_reception(Airing& a, Radio& r, double signal_dbm) {
  auto& list = rx_at_[r.medium_index_];
  bool corrupted = false;
  if (a.air_end > a.start) {
    const double margin = prop_.config().capture_db;
    for (Reception& other : list) {
      if (other.aborted || !radiates_at(other.tx_id, a.start)) continue;
      const bool new_wins = signal_dbm >= other.signal_dbm + margin;
      const bool old_wins = other.signal_dbm >= signal_dbm + margin;
      if (!old_wins) {
        if (!other.corrupted) ++stats_.collisions;
        other.corrupted = true;
      }
      if (!new_wins) {
        if (!corrupted) ++stats_.collisions;
        corrupted = true;
      }
    }
  }
  list.push_back(Reception{a.id, signal_dbm, corrupted, false});
  a.receivers.push_back(&r);
}

inline void Medium::launch(Airing&& a) {
  const std::uint64_t id = a.id;
  const sim::Time end = a.end;
  airings_.push_back(std::move(a));
  sched_.schedule_at(end, [this, id] { finish(id); });
}

void Medium::begin_tx(Radio& src, Frame f) {
  ++stats_.transmissions;
  const sim::Time start = sched_.now();
  const sim::Time end = start + airtime(f);

  Airing tx{next_tx_id_++, &src,          src.id(), src.position(),
            src.channel(), start,         end,      end,
            std::move(f),  {},            0,        take_receivers()};
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
      cell.src = tx.src_id;
      cell.src_pos = tx.src_pos;
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
    if (!listens_on(*n.radio, tx.channel)) continue;
    if (n.signal_dbm < prop_.config().sensitivity_dbm) continue;
    mark_reception(tx, *n.radio, n.signal_dbm);
  }
  launch(std::move(tx));
}

void Medium::apply_remote(const CellTx& m) {
  ++stats_.cross_island_rx;
  Airing ghost{next_remote_id_++, nullptr, m.src,   m.src_pos,
               m.channel,         m.b1,    m.air_end, m.b2,
               m.frame,           m.fault, 0,       take_receivers()};
  // No neighbor cache covers an off-island source, so the signal comes
  // from the carried source position. Radios are visited in attach
  // order, same as a neighbor list.
  for (Radio* r : radios_) {
    if (!listens_on(*r, m.channel)) continue;
    const double sig = prop_.rx_dbm(m.src, m.src_pos, r->id(), r->position());
    if (sig < prop_.config().sensitivity_dbm) continue;
    mark_reception(ghost, *r, sig);
  }
  launch(std::move(ghost));
}

bool Medium::radiates_at(std::uint64_t rx_id, sim::Time t) const {
  if ((rx_id & kRemoteIdBit) == 0) return true;
  for (const Airing& a : airings_) {
    if (a.id == rx_id) return t >= a.start && t < a.air_end;
  }
  return false;  // ghost already finished; entries die with it anyway
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
  if (airings_.empty()) return false;
  const std::vector<Neighbor>& neigh = neighbors_of(r);
  const sim::Time now = sched_.now();
  for (const Airing& a : airings_) {
    if (a.channel != r.channel()) continue;
    if (a.src == &r) return true;
    if (a.src == nullptr) {
      // A ghost radiates only during [b1, air_end), and its (rare)
      // cross-island budget is computed on the fly.
      if (now >= a.start && now < a.air_end &&
          prop_.rx_dbm(a.src_id, a.src_pos, r.id(), r.position()) >=
              prop_.config().cca_threshold_dbm) {
        return true;
      }
      continue;
    }
    // A transmitter absent from the neighbor list is below
    // min(sensitivity, CCA) and therefore cannot trip energy detect.
    for (const Neighbor& n : neigh) {
      if (n.radio == a.src) {
        if (n.signal_dbm >= prop_.config().cca_threshold_dbm) return true;
        break;
      }
    }
  }
  return false;
}

void Medium::finish(std::uint64_t id) {
  auto it = std::find_if(airings_.begin(), airings_.end(),
                         [id](const Airing& a) { return a.id == id; });
  if (it == airings_.end()) return;
  Airing a = std::move(*it);
  swap_remove(airings_, it);
  // Ghosts emit no trace events: traces are per-island.
  obs::Tracer* t = a.src != nullptr ? obs::tracer(sched_) : nullptr;

  // Deliver surviving receptions in creation order. Each entry is removed
  // from its receiver's list *before* any delivery callback runs, so a
  // handler that synchronously transmits or changes mode can neither
  // re-abort a consumed entry nor miss the not-yet-delivered ones.
  for (Radio* receiver : a.receivers) {
    const Reception rec = take_reception(*receiver, id);
    if (rec.aborted || rec.corrupted || a.fault.drop) continue;
    // A local frame's receiver must still be listening on its channel. A
    // ghost's true airtime ended at air_end, and any disturbance before
    // that already aborted the reception; what the receiver does in the
    // [air_end, b2) gap — pure quantization artifact — cannot un-receive
    // the frame.
    if (a.src != nullptr && !listens_on(*receiver, a.channel)) {
      ++stats_.aborted;
      continue;
    }
    const double snr = rec.signal_dbm - prop_.config().noise_floor_dbm;
    if (!rng_.chance(Propagation::prr_from_snr(snr))) {
      ++stats_.snr_losses;
      continue;
    }
    if (a.fault.delay > 0) {
      // Reordering fault: the frame arrives late, possibly after frames
      // transmitted afterwards. Lifetime-safe via id lookup at fire time.
      sched_.schedule_after(
          a.fault.delay,
          [this, to = receiver->id(), f = a.frame, dbm = rec.signal_dbm,
           ch = a.channel] { deliver_late(to, f, dbm, ch); });
      continue;
    }
    for (int copy = a.fault.duplicate ? 2 : 1; copy > 0; --copy) {
      ++stats_.deliveries;
      if (t != nullptr) {
        t->instant(a.frame.trace, receiver->id(), obs::Layer::kRadio, "rx",
                   a.obs_span);
      }
      receiver->deliver(a.frame, rec.signal_dbm);
    }
  }
  if (t != nullptr) t->end(a.obs_span);
  recycle_receivers(std::move(a.receivers));
}

void Medium::deliver_late(NodeId to, const Frame& f, double signal_dbm,
                          ChannelId channel) {
  for (Radio* r : radios_) {
    if (r->id() != to) continue;
    // The late frame is only hearable if the radio still listens there.
    if (!listens_on(*r, channel)) {
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

  for (const Airing& a : airings_) {
    auto tx = [&a] {
      return (a.src != nullptr ? "tx " : "ghost tx ") +
             std::to_string(a.id & ~kRemoteIdBit);
    };
    if (a.end < a.start) return fail(tx() + " ends before it starts");
    if (a.air_end > a.end) {
      return fail(tx() + " radiates past its delivery boundary");
    }
    if (a.src != nullptr && !attached(a.src)) {
      return fail(tx() + " sourced by detached radio");
    }
    for (const Radio* rcv : a.receivers) {
      if (!attached(rcv)) return fail(tx() + " lists a detached receiver");
      std::size_t hits = 0;
      for (const Reception& rec : rx_at_[rcv->medium_index_]) {
        if (rec.tx_id == a.id) ++hits;
      }
      if (hits != 1) {
        return fail(tx() + " has " + std::to_string(hits) +
                    " receptions at radio " + std::to_string(rcv->id()) +
                    ", expected 1");
      }
    }
  }

  for (std::size_t i = 0; i < rx_at_.size(); ++i) {
    for (const Reception& rec : rx_at_[i]) {
      const std::vector<Radio*>* owner_receivers = nullptr;
      for (const Airing& a : airings_) {
        if (a.id == rec.tx_id) owner_receivers = &a.receivers;
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
