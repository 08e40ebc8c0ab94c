#include "net/rpl.hpp"

#include <algorithm>
#include <optional>
#include <utility>

namespace iiot::net {

namespace {

// Data-path loop escalation (handle_data): this many detections from the
// same parent, each within the decay window of the last, trigger a local
// repair. Sized so a real cycle carrying periodic traffic escalates in
// seconds while isolated stale in-flight frames never accumulate.
constexpr int kLoopRepairThreshold = 8;
constexpr sim::Duration kLoopHitWindow = 10'000'000;

}  // namespace

RplRouting::RplRouting(mac::Mac& mac, sim::Scheduler& sched, Rng rng,
                       RplConfig cfg)
    : mac_(mac),
      sched_(sched),
      rng_(rng),
      cfg_(interned(cfg)),
      trickle_(sched, rng.fork(0x7121), cfg.trickle, [this] { send_dio(); }) {
  trickle_.set_obs_node(mac_.id());
  if (obs::MetricsRegistry* m = obs::metrics(sched_)) {
    const auto node = static_cast<std::int64_t>(mac_.id());
    m->attach_counter("net", "dio_tx", node, &stats_.dio_tx, this);
    m->attach_counter("net", "dio_rx", node, &stats_.dio_rx, this);
    m->attach_counter("net", "dis_tx", node, &stats_.dis_tx, this);
    m->attach_counter("net", "dao_tx", node, &stats_.dao_tx, this);
    m->attach_counter("net", "data_originated", node,
                      &stats_.data_originated, this);
    m->attach_counter("net", "data_forwarded", node, &stats_.data_forwarded,
                      this);
    m->attach_counter("net", "data_delivered", node, &stats_.data_delivered,
                      this);
    m->attach_counter("net", "drops_no_route", node, &stats_.drops_no_route,
                      this);
    m->attach_counter("net", "drops_link", node, &stats_.drops_link, this);
    m->attach_counter("net", "drops_ttl", node, &stats_.drops_ttl, this);
    m->attach_counter("net", "drops_loop", node, &stats_.drops_loop, this);
    m->attach_counter("net", "parent_changes", node, &stats_.parent_changes,
                      this);
    m->attach_counter("net", "trickle_resets", node, trickle_.resets_slot(),
                      this);
    e2e_latency_ms_ = m->histogram(
        "net", "e2e_latency_ms", node,
        {2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
    e2e_hops_ =
        m->histogram("net", "e2e_hops", node, {1, 2, 3, 4, 6, 8, 12, 16, 24});
  }
}

RplRouting::~RplRouting() {
  if (obs::MetricsRegistry* m = obs::metrics(sched_)) m->detach(this);
}

void RplRouting::start_root() {
  running_ = true;
  is_root_ = true;
  rank_ = kMinHopRankIncrease;
  dodag_root_ = mac_.id();
  mac_.set_receive_handler([this](NodeId src, BytesView p, double rssi) {
    on_mac_receive(src, p, rssi);
  });
  trickle_.start();
}

void RplRouting::start() {
  running_ = true;
  is_root_ = false;
  rank_ = kInfiniteRank;
  lowest_rank_ = kInfiniteRank;
  floor_slack_ = 0;
  ratchet_orphans_ = 0;
  rejoining_ = false;
  advertised_rank_ = kInfiniteRank;
  mac_.set_receive_handler([this](NodeId src, BytesView p, double rssi) {
    on_mac_receive(src, p, rssi);
  });
  trickle_.start();
  // Solicit DIOs while orphaned.
  dis_timer_ = sched_.schedule_after(
      cfg_.dis_interval / 2 + rng_.below(static_cast<std::uint32_t>(
                                 cfg_.dis_interval / 2)),
      [this] { send_dis(); });
}

void RplRouting::stop() {
  running_ = false;
  trickle_.stop();
  dao_timer_.cancel();
  dis_timer_.cancel();
  // Power-off semantics: volatile protocol state is lost (a rebooting
  // node rejoins from scratch); statistics survive for post-mortems.
  if (!is_root_) {
    parent_ = kInvalidNode;
    rank_ = kInfiniteRank;
    depth_ = 0xFF;
    neighbors_.clear();
  }
  downward_.clear();
}

// ----------------------------------------------------------- control plane

void RplRouting::send_dio() {
  if (!running_) return;
  DioMsg dio{version_, rank_, dodag_root_, hop_depth()};
  Buffer out;
  dio.encode(out);
  ++stats_.dio_tx;
  advertised_rank_ = rank_;
  mac_.send(kBroadcastNode, std::move(out));
}

void RplRouting::send_dis() {
  if (!running_ || joined()) return;
  Buffer out;
  out.push_back(static_cast<std::uint8_t>(MsgType::kDis));
  // Distressed orphans (repeated DAGMaxRankIncrease detachments) flag the
  // solicitation; a joined neighbor relays the flag to the root, which can
  // answer with a global repair. The extra byte is ignored by receivers
  // that only look at the type octet, so the wire stays compatible.
  if (cfg_.distress_orphan_threshold > 0 &&
      ratchet_orphans_ >= cfg_.distress_orphan_threshold) {
    out.push_back(0x01);
  }
  ++stats_.dis_tx;
  mac_.send(kBroadcastNode, std::move(out));
  dis_timer_ =
      sched_.schedule_after(cfg_.dis_interval, [this] { send_dis(); });
}

void RplRouting::send_dao() {
  if (!running_ || !joined() || is_root_ || !cfg_.downward_routes) return;
  if (parent_ != kInvalidNode) {
    DaoMsg dao{mac_.id()};
    Buffer out;
    dao.encode(out);
    ++stats_.dao_tx;
    mac_.send(parent_, std::move(out));
  }
  dao_timer_ =
      sched_.schedule_after(cfg_.dao_interval, [this] { send_dao(); });
}

void RplRouting::on_mac_receive(NodeId src, BytesView payload, double rssi) {
  (void)rssi;
  if (!running_) return;
  auto type = peek_type(payload);
  if (!type) return;
  BufReader r(payload.subspan(1));
  switch (*type) {
    case MsgType::kDio: {
      BufReader full(payload);
      full.skip(1);
      if (auto dio = DioMsg::decode(full)) handle_dio(src, *dio);
      break;
    }
    case MsgType::kDis:
      // Someone is orphaned nearby: answer quickly.
      if (joined()) {
        trickle_.inconsistent();
        // Distress flag: the orphan cannot hold a legitimate rank in this
        // version — relay its plea toward the version authority.
        if (payload.size() >= 2 && (payload[1] & 0x01) != 0) {
          relay_distress(src, 0);
        }
      }
      break;
    case MsgType::kDistress:
      if (auto d = DistressMsg::decode(r)) relay_distress(d->origin, d->hops);
      break;
    case MsgType::kDao:
      if (auto dao = DaoMsg::decode(r)) handle_dao(src, *dao);
      break;
    case MsgType::kData: {
      if (auto msg = DataMsg::decode(r)) handle_data(src, std::move(*msg));
      break;
    }
    case MsgType::kRnfd:
      if (hooks_ && hooks_->rnfd_raw) hooks_->rnfd_raw(src, payload);
      break;
  }
}

void RplRouting::handle_dio(NodeId src, const DioMsg& dio) {
  ++stats_.dio_rx;
  if (is_root_) {
    // The root is the version authority for its own DODAG. Hearing a
    // *newer* version of itself (stale state from a past incarnation, or
    // a corrupted DIO that poisoned the mesh with a phantom future
    // version) would otherwise strand every node forever: version only
    // moves forward, so the root's honest DIOs all look stale. Jump past
    // the imposter and re-advertise — serial-number arithmetic everywhere
    // else makes the mesh follow.
    const auto ahead = static_cast<std::uint8_t>(dio.version - version_);
    if (dio.dodag_root == dodag_root_ && ahead > 0 && ahead < 128) {
      version_ = static_cast<std::uint8_t>(dio.version + 1);
      downward_.clear();
      trickle_.reset();
      return;
    }
    // Otherwise the root only checks consistency of what it hears. A
    // heard DIO is only redundant with ours if it advertises a rank at
    // least as good (RFC 6206 suppression presumes the transmissions
    // carry the same information) — for the root that is never true, so
    // the rank anchor of the whole DODAG cannot be suppressed into
    // silence by its neighbors' chatter.
    if (dio.version == version_ && dio.rank <= rank_) {
      trickle_.consistent();
    }
    return;
  }
  if (dodag_root_ == kInvalidNode) dodag_root_ = dio.dodag_root;
  if (dio.dodag_root != dodag_root_) return;  // different DODAG: ignore

  // Version handling: a newer version obsoletes all state (global repair).
  const auto newer = static_cast<std::uint8_t>(dio.version - version_);
  if (newer > 0 && newer < 128) {
    version_ = dio.version;
    neighbors_.clear();
    parent_ = kInvalidNode;
    rank_ = kInfiniteRank;
    lowest_rank_ = kInfiniteRank;  // DAGMaxRankIncrease is per version
    floor_slack_ = 0;
    ratchet_orphans_ = 0;
    rejoining_ = false;
    trickle_.inconsistent();
  } else if (newer != 0) {
    // Stale version: inconsistent, let our DIO correct the sender.
    trickle_.inconsistent();
    return;
  }

  const std::size_t i = neighbor_index(src);
  if (i == neighbors_.size()) {
    if (i == neighbors_.capacity()) {
      neighbors_.reserve(grown_neighbor_capacity(i));
    }
    neighbors_.push_back(Neighbor{.id = src});
  }
  Neighbor& nb = neighbors_[i];
  nb.rank = dio.rank;
  nb.version = dio.version;
  nb.depth = dio.depth;
  nb.last_heard = sched_.now();
  nb.link_cost = link_cost(src);

  // Trickle resets happen inside select_parent on real topology events
  // (join, parent switch, orphaned) — RFC 6550 semantics. Mere rank
  // drift from ETX jitter must NOT reset, or the control plane turns
  // into a DIO storm (especially costly on duty-cycled MACs, where a
  // broadcast occupies a full wake interval).
  const NodeId parent_before = parent_;
  select_parent();
  // Redundancy suppression counts only DIOs whose advertised rank is at
  // least as good as ours: a worse-ranked neighbor's DIO does not carry
  // the information we would send (we are a candidate parent for it, not
  // the reverse), and letting such chatter suppress the better-ranked
  // nodes silences exactly the advertisements the rank gradient — and
  // loop repair — depend on.
  if (parent_ == parent_before && dio.rank <= rank_) trickle_.consistent();
}

void RplRouting::handle_dao(NodeId src, const DaoMsg& dao) {
  if (!cfg_.downward_routes) return;
  downward_[dao.target] = src;
  if (!is_root_ && parent_ != kInvalidNode) {
    // Storing mode: propagate reachability up the DODAG.
    DaoMsg fwd{dao.target};
    Buffer out;
    fwd.encode(out);
    ++stats_.dao_tx;
    mac_.send(parent_, std::move(out));
  }
}

// -------------------------------------------------------------- data plane

bool RplRouting::send_up(Buffer payload) {
  if (!running_ || !joined()) return false;
  // Callers that carry no trace (e.g. a raw protocol driver) still get an
  // end-to-end trace per message when tracing is on.
  obs::Tracer* t = obs::tracer(sched_);
  std::optional<obs::TraceScope> auto_scope;
  if (t != nullptr && t->enabled() && t->current_trace() == 0) {
    auto_scope.emplace(t, t->start_trace(mac_.id(), obs::Layer::kNet), 0);
  }
  DataMsg msg;
  msg.origin = mac_.id();
  msg.dest = kInvalidNode;
  msg.seq = next_seq_++;
  msg.hops = 0;
  msg.payload = std::move(payload);
  ++stats_.data_originated;
  if (is_root_) {
    ++stats_.data_delivered;
    note_delivery(0);
    if (deliver_) deliver_(msg.origin, msg.payload, 0);
    return true;
  }
  forward_up(std::move(msg), true);
  return true;
}

bool RplRouting::send_down(NodeId target, Buffer payload) {
  if (!running_ || !is_root_ || !cfg_.downward_routes) return false;
  obs::Tracer* t = obs::tracer(sched_);
  std::optional<obs::TraceScope> auto_scope;
  if (t != nullptr && t->enabled() && t->current_trace() == 0) {
    auto_scope.emplace(t, t->start_trace(mac_.id(), obs::Layer::kNet), 0);
  }
  if (target == mac_.id()) {
    note_delivery(0);
    if (deliver_) deliver_(mac_.id(), payload, 0);
    return true;
  }
  if (downward_.find(target) == downward_.end()) {
    ++stats_.drops_no_route;
    return false;
  }
  DataMsg msg;
  msg.origin = mac_.id();
  msg.dest = target;
  msg.seq = next_seq_++;
  msg.hops = 0;
  msg.payload = std::move(payload);
  ++stats_.data_originated;
  forward_down(std::move(msg));
  return true;
}

void RplRouting::handle_data(NodeId src, DataMsg&& msg) {
  if (seen_recently(msg.origin, msg.seq)) return;
  if (msg.dest == kInvalidNode) {
    // Upward traffic: give the in-network processing hook first refusal.
    if (hooks_ && hooks_->interceptor &&
        hooks_->interceptor(msg.origin, msg.payload)) {
      return;
    }
    if (is_root_) {
      ++stats_.data_delivered;
      note_delivery(msg.hops);
      if (deliver_) deliver_(msg.origin, msg.payload, msg.hops);
      return;
    }
    // Data-path loop detection (RFC 6550 §11.2): an upward packet from
    // our own preferred parent means each of us believes the other is
    // closer to the root — a cycle built on mutually stale ranks. The
    // sighting may also be a stale in-flight frame from an instant ago,
    // so nothing is torn down on first sight; DROP the packet (forwarding
    // it back would let one trapped packet ping-pong its whole TTL away,
    // which on a duty-cycled MAC starves the very DIO exchange repair
    // depends on) and reset trickle to re-advertise promptly. If the
    // looping persists, escalate in two stages: first a DIO exempt from
    // trickle's redundancy suppression (in a dense neighborhood everyone
    // else's chatter suppresses exactly the one DIO that corrects the
    // stale view of us), then a local repair (§11.2.2.3): detach,
    // poison, and solicit fresh state.
    if (src == parent_ && parent_ != kInvalidNode) {
      trickle_.inconsistent();
      ++stats_.drops_loop;
      const sim::Time now = sched_.now();
      loop_hits_ = now < last_loop_hit_ + kLoopHitWindow ? loop_hits_ + 1 : 1;
      last_loop_hit_ = now;
      if (loop_hits_ == kLoopRepairThreshold) {
        send_dio();
      } else if (loop_hits_ >= 2 * kLoopRepairThreshold) {
        loop_hits_ = 0;
        // Drop the parent's cached entry before detaching, or the next
        // DIO from anyone re-selects it through the very stale rank
        // that built the cycle and reinstates it wholesale.
        erase_neighbor(parent_);
        links_.forget(parent_);
        become_orphan();
      }
      return;
    }
    ++stats_.data_forwarded;
    forward_up(std::move(msg), true);
    return;
  }
  // Downward traffic.
  if (msg.dest == mac_.id()) {
    ++stats_.data_delivered;
    note_delivery(msg.hops);
    if (deliver_) deliver_(msg.origin, msg.payload, msg.hops);
    return;
  }
  ++stats_.data_forwarded;
  forward_down(std::move(msg));
}

void RplRouting::forward_up(DataMsg msg, bool allow_reroute) {
  obs::Tracer* t = obs::tracer(sched_);
  if (msg.hops >= cfg_.max_hops) {
    ++stats_.drops_ttl;
    if (t != nullptr) {
      t->instant(t->current_trace(), mac_.id(), obs::Layer::kNet,
                 "drop_ttl");
    }
    return;
  }
  if (parent_ == kInvalidNode) {
    ++stats_.drops_no_route;
    if (t != nullptr) {
      t->instant(t->current_trace(), mac_.id(), obs::Layer::kNet,
                 "drop_no_route");
    }
    return;
  }
  ++msg.hops;
  Buffer out;
  msg.encode(out);
  const NodeId via = parent_;
  // One "hop" span per forwarding attempt: it covers the MAC transmission
  // (queueing, strobing, retries) and closes when the MAC reports the
  // outcome. The ambient scope makes the MAC enqueue nest under it.
  obs::SpanRef hop = 0;
  obs::TraceId tr = 0;
  if (t != nullptr) {
    tr = t->current_trace();
    hop = t->begin(tr, mac_.id(), obs::Layer::kNet, "hop");
  }
  obs::TraceScope hop_scope(t, tr, hop);
  mac_.send(via, std::move(out),
            [this, msg = std::move(msg), via, allow_reroute,
             hop](const mac::SendStatus& st) mutable {
              if (obs::Tracer* tc = obs::tracer(sched_)) {
                tc->end(hop, "delivered", st.delivered ? 1 : 0);
              }
              Neighbor* nb = record_unicast(via, st);
              if (st.delivered) {
                // A MAC ack is direct proof the neighbor is alive;
                // liveness consumers (RNFD) read neighbor_last_heard.
                if (nb != nullptr) nb->last_heard = sched_.now();
                return;
              }
              if (links_.consecutive_failures(via) >=
                  cfg_.max_parent_failures) {
                erase_neighbor(via);
                links_.forget(via);
                select_parent();
              }
              if (allow_reroute && parent_ != kInvalidNode &&
                  parent_ != via) {
                --msg.hops;  // not actually travelled
                forward_up(std::move(msg), false);
              } else {
                ++stats_.drops_link;
              }
            });
}

void RplRouting::forward_down(DataMsg msg) {
  obs::Tracer* t = obs::tracer(sched_);
  if (msg.hops >= cfg_.max_hops) {
    ++stats_.drops_ttl;
    if (t != nullptr) {
      t->instant(t->current_trace(), mac_.id(), obs::Layer::kNet,
                 "drop_ttl");
    }
    return;
  }
  auto it = downward_.find(msg.dest);
  if (it == downward_.end()) {
    ++stats_.drops_no_route;
    if (t != nullptr) {
      t->instant(t->current_trace(), mac_.id(), obs::Layer::kNet,
                 "drop_no_route");
    }
    return;
  }
  ++msg.hops;
  const NodeId via = it->second;
  Buffer out;
  msg.encode(out);
  obs::SpanRef hop = 0;
  obs::TraceId tr = 0;
  if (t != nullptr) {
    tr = t->current_trace();
    hop = t->begin(tr, mac_.id(), obs::Layer::kNet, "hop");
  }
  obs::TraceScope hop_scope(t, tr, hop);
  mac_.send(via, std::move(out), [this, via, hop](const mac::SendStatus& st) {
    if (obs::Tracer* tc = obs::tracer(sched_)) {
      tc->end(hop, "delivered", st.delivered ? 1 : 0);
    }
    record_unicast(via, st);
    if (!st.delivered) {
      ++stats_.drops_link;
      // Stale downward route: remove entries through this child.
      for (auto e = downward_.begin(); e != downward_.end();) {
        e = e->second == via ? downward_.erase(e) : std::next(e);
      }
    }
  });
}

// --------------------------------------------------------- parent selection

Rank RplRouting::link_cost(NodeId neighbor) const {
  const double etx = links_.etx(neighbor);
  const double cost = etx * kMinHopRankIncrease;
  return static_cast<Rank>(std::clamp(
      cost, static_cast<double>(kMinHopRankIncrease),
      static_cast<double>(4 * kMinHopRankIncrease)));
}

RplRouting::Neighbor* RplRouting::record_unicast(NodeId via,
                                                 const mac::SendStatus& st) {
  links_.record_tx(via, st.attempts, st.delivered);
  const std::size_t i = neighbor_index(via);
  if (i == neighbors_.size()) return nullptr;
  neighbors_[i].link_cost = link_cost(via);
  return &neighbors_[i];
}

std::size_t RplRouting::neighbor_index(NodeId n) const {
  std::size_t i = 0;
  while (i < neighbors_.size() && neighbors_[i].id != n) ++i;
  return i;
}

void RplRouting::erase_neighbor(NodeId n) {
  const std::size_t i = neighbor_index(n);
  if (i < neighbors_.size()) {
    neighbors_.erase(neighbors_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

Rank RplRouting::path_cost_via(const Neighbor& nb) {
  if (nb.rank >= kInfiniteRank) return kInfiniteRank;
  const std::uint32_t total = nb.rank + nb.link_cost;
  return total >= kInfiniteRank ? kInfiniteRank
                                : static_cast<Rank>(total);
}

void RplRouting::select_parent() {
  if (is_root_) return;
  // One pass in first-heard order; only a strictly cheaper entry replaces
  // the best so far, so equal path costs go to the neighbor heard first.
  const Neighbor* best = nullptr;
  Rank best_cost = kInfiniteRank;
  const Neighbor* current = nullptr;  // parent_'s entry, if still known
  for (const Neighbor& nb : neighbors_) {
    if (nb.id == parent_) current = &nb;
    if (nb.version != version_) continue;
    const Rank c = path_cost_via(nb);
    if (c < best_cost) {
      best_cost = c;
      best = &nb;
    }
  }
  if (best == nullptr) {
    become_orphan();
    return;
  }
  const bool had_parent = parent_ != kInvalidNode;
  const Rank current_cost =
      current != nullptr ? path_cost_via(*current) : kInfiniteRank;
  const bool take_best = !had_parent || current == nullptr ||
                         best_cost + cfg_.parent_switch_threshold <
                             current_cost;
  // Copy what is needed out of the table before any handler runs: the
  // parent-change handler may re-enter (local_repair clears the table).
  const NodeId best_id = best->id;
  const Neighbor& chosen = take_best ? *best : *current;
  const Rank chosen_cost = path_cost_via(chosen);
  const std::uint8_t chosen_depth = chosen.depth;
  if (take_best && parent_ != best_id) {
    ++stats_.parent_changes;
    const NodeId old = parent_;
    parent_ = best_id;
    loop_hits_ = 0;  // loop evidence was against the old parent
    if (obs::Tracer* t = obs::tracer(sched_)) {
      const obs::SpanRef s =
          t->instant(0, mac_.id(), obs::Layer::kNet, "parent_switch");
      t->annotate(s, "parent", parent_);
    }
    trickle_.inconsistent();  // topology event: re-advertise promptly
    if (hooks_ && hooks_->on_parent_change) {
      hooks_->on_parent_change(old, parent_);
      // The handler detached or re-parented this node; its state stands.
      if (parent_ != best_id) return;
    }
    if (!had_parent) {
      // First join: start advertising reachability.
      dao_timer_.cancel();
      dao_timer_ = sched_.schedule_after(
          1'000'000 + rng_.below(1'000'000), [this] { send_dao(); });
      dis_timer_.cancel();
    } else {
      // Parent switched: refresh the downward path promptly.
      dao_timer_.cancel();
      dao_timer_ = sched_.schedule_after(200'000 + rng_.below(300'000),
                                         [this] { send_dao(); });
    }
  }
  rank_ = chosen_cost;
  depth_ = chosen_depth < 0xFF ? static_cast<std::uint8_t>(chosen_depth + 1)
                               : 0xFF;
  if (rank_ < kInfiniteRank) {
    if (rank_ < lowest_rank_) {
      lowest_rank_ = rank_;
    }
    if (cfg_.max_rank_increase > 0 && rejoining_ &&
        rank_ > static_cast<std::uint32_t>(lowest_rank_) +
                    cfg_.max_rank_increase) {
      // Rejoin after orphaning at a legitimately worse rank (post-repair
      // topologies really are worse): grant bounded slack instead of
      // resetting the floor. The cap keeps the total per-version ceiling
      // at lowest_rank_ + 2 * max_rank_increase, so repeated orphan
      // episodes can no longer launder unbounded rank ratcheting.
      const std::uint32_t over = rank_ -
                                 static_cast<std::uint32_t>(lowest_rank_) -
                                 cfg_.max_rank_increase;
      floor_slack_ = static_cast<Rank>(std::min<std::uint32_t>(
          std::max<std::uint32_t>(floor_slack_, over),
          cfg_.max_rank_increase));
    }
    rejoining_ = false;
    if (cfg_.max_rank_increase > 0 &&
        rank_ <= static_cast<std::uint32_t>(lowest_rank_) +
                     cfg_.max_rank_increase) {
      // Back inside the original window: the earlier detachments were
      // transients, not sustained inconsistency.
      ratchet_orphans_ = 0;
    }
    if (cfg_.max_rank_increase > 0 &&
        rank_ > static_cast<std::uint32_t>(lowest_rank_) +
                    cfg_.max_rank_increase + floor_slack_) {
      // DAGMaxRankIncrease exceeded: two nodes holding stale ranks for
      // each other inflate one another without bound (count-to-infinity).
      // Detaching + poisoning breaks the cycle; DIS brings real routes.
      // Counted: past distress_orphan_threshold consecutive trips the
      // node's DIS carries a distress flag that escalates to the root.
      ++ratchet_orphans_;
      become_orphan();
      return;
    }
  }
  if (rank_ >= kInfiniteRank) become_orphan();
}

void RplRouting::become_orphan() {
  const bool was_joined = rank_ < kInfiniteRank || parent_ != kInvalidNode;
  parent_ = kInvalidNode;
  rank_ = kInfiniteRank;
  // The DAGMaxRankIncrease floor deliberately SURVIVES orphaning: resetting
  // it here let repeated local repairs launder unbounded rank ratcheting
  // (fuzz seed 24, mine_tunnel regime). The permanent-detach livelock that
  // reset used to paper over is handled structurally instead — rejoins get
  // one bounded slack grant (select_parent), and a node that still cannot
  // hold a rank escalates distress so the root's version bump resets the
  // floor the legitimate way.
  rejoining_ = true;
  depth_ = 0xFF;
  if (was_joined) {
    ++stats_.parent_changes;
    if (obs::Tracer* t = obs::tracer(sched_)) {
      t->instant(0, mac_.id(), obs::Layer::kNet, "orphaned");
    }
    // Poison: advertise infinite rank immediately, then solicit.
    send_dio();
    trickle_.inconsistent();
    dis_timer_.cancel();
    dis_timer_ =
        sched_.schedule_after(cfg_.dis_interval, [this] { send_dis(); });
  }
}

void RplRouting::relay_distress(NodeId origin, std::uint8_t hops) {
  if (!running_ || cfg_.distress_orphan_threshold <= 0) return;
  if (is_root_) {
    // Sustained DODAG inconsistency reported from the mesh: the RFC 6550
    // remedy is a root-initiated global repair. Rate-limited so a burst
    // of reports (every neighbor of one distressed orphan) costs one
    // version bump, not one per report.
    const sim::Time now = sched_.now();
    if (last_distress_repair_ != 0 &&
        now - last_distress_repair_ < cfg_.distress_repair_interval) {
      return;
    }
    last_distress_repair_ = now;
    ++stats_.distress_repairs;
    global_repair();
    return;
  }
  if (!joined() || parent_ == kInvalidNode) return;
  if (hops >= cfg_.max_hops) return;
  const sim::Time now = sched_.now();
  if (last_distress_relay_ != 0 &&
      now - last_distress_relay_ < cfg_.distress_relay_interval) {
    return;
  }
  last_distress_relay_ = now;
  DistressMsg msg{origin, static_cast<std::uint8_t>(hops + 1)};
  Buffer out;
  msg.encode(out);
  ++stats_.distress_relayed;
  mac_.send(parent_, std::move(out));
}

void RplRouting::global_repair() {
  if (!is_root_) return;
  ++version_;
  downward_.clear();
  trickle_.reset();
}

void RplRouting::local_repair() {
  if (is_root_) return;
  neighbors_.clear();
  become_orphan();
}

void RplRouting::note_delivery(std::uint8_t hops) {
  if (obs::Tracer* t = obs::tracer(sched_)) {
    const obs::TraceId tr = t->current_trace();
    const obs::SpanRef d =
        t->instant(tr, mac_.id(), obs::Layer::kNet, "deliver");
    t->annotate(d, "hops", hops);
    if (tr != 0) {
      const sim::Time start = t->trace_start(tr);
      e2e_latency_ms_.observe(
          static_cast<double>(sched_.now() - start) / 1000.0);
    }
  }
  e2e_hops_.observe(hops);
}

bool RplRouting::seen_recently(NodeId origin, SeqNo seq) {
  return seen_.seen_or_insert((static_cast<std::uint64_t>(origin) << 32) |
                              seq);
}

}  // namespace iiot::net
