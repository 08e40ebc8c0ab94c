// RPL-class distance-vector routing over a DODAG (RFC 6550 style, [14]).
//
// Upward routes: every node selects a preferred parent minimizing
// rank(parent) + ETX-based link cost, advertises its own rank in
// Trickle-paced DIO broadcasts, and forwards data hop-by-hop toward the
// root. Downward routes: storing mode — DAOs travel up and each hop
// records target → next-hop-child. Version bumps at the root trigger
// global repair; losing all parents triggers local repair (poisoning +
// DIS solicitation).
//
// This is the routing substrate for the geographic-scalability and
// dependability experiments (E1–E4, E11): multi-hop latency, border-
// router load concentration, and root-failure detection all run on it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/flat_keys.hpp"
#include "common/interned.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "mac/mac.hpp"
#include "net/link_estimator.hpp"
#include "net/messages.hpp"
#include "net/trickle.hpp"
#include "sim/scheduler.hpp"

namespace iiot::net {

struct RplConfig {
  TrickleConfig trickle{500'000, 8, 3};     // Imin 0.5 s
  sim::Duration dao_interval = 30'000'000;  // 30 s
  sim::Duration dis_interval = 5'000'000;   // orphan solicitation
  Rank parent_switch_threshold = 192;       // hysteresis
  /// DAGMaxRankIncrease (RFC 6550 §8.2.2.4): a node may not grow its rank
  /// more than this above the lowest rank it attained within the current
  /// DODAG version; past the bound it must detach and poison. Bounds
  /// count-to-infinity between nodes holding stale ranks for each other.
  /// 0 disables the check.
  Rank max_rank_increase = 7 * kMinHopRankIncrease;
  int max_parent_failures = 3;
  std::uint8_t max_hops = 32;
  bool downward_routes = true;
  /// Consecutive DAGMaxRankIncrease detachments before a node starts
  /// flagging distress in its DIS solicitations (0 disables escalation).
  /// The floor now *survives* orphaning (with one bounded slack grant per
  /// rejoin), so a node that keeps tripping the bound is genuinely unable
  /// to hold a legitimate rank — only a root version bump can help it.
  int distress_orphan_threshold = 3;
  /// Per-node rate limit on relaying distress toward the root.
  sim::Duration distress_relay_interval = 10'000'000;
  /// Root-side rate limit on distress-triggered global repairs.
  sim::Duration distress_repair_interval = 30'000'000;

  bool operator==(const RplConfig&) const = default;
};

struct RplStats {
  std::uint64_t dio_tx = 0;
  std::uint64_t dio_rx = 0;
  std::uint64_t dis_tx = 0;
  std::uint64_t dao_tx = 0;
  std::uint64_t data_originated = 0;
  std::uint64_t data_forwarded = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t drops_no_route = 0;
  std::uint64_t drops_link = 0;
  std::uint64_t drops_ttl = 0;
  std::uint64_t drops_loop = 0;  // data-path loop detection (RFC 6550 §11.2)
  std::uint64_t parent_changes = 0;
  std::uint64_t distress_relayed = 0;  // distress reports sent/forwarded up
  std::uint64_t distress_repairs = 0;  // root: global repairs it triggered
};

class RplRouting {
 public:
  /// origin, payload, hops travelled.
  using DeliveryHandler =
      std::function<void(NodeId, BytesView, std::uint8_t)>;
  /// Raw hook for piggybacked protocols (RNFD gossip): src + full message.
  using RawHandler = std::function<void(NodeId, BytesView)>;

  /// One neighbor heard in the current version. 16 bytes: a city node
  /// keeps ~19 of them.
  struct Neighbor {
    NodeId id = kInvalidNode;
    Rank rank = kInfiniteRank;
    /// link_cost(id) as of the last estimator update for this neighbor;
    /// refreshed on every DIO from it and after every unicast outcome,
    /// so parent selection never re-queries the estimator.
    Rank link_cost = kInfiniteRank;
    std::uint8_t version = 0;
    std::uint8_t depth = 0xFF;
    /// µs of virtual time; 48 bits hold 8.9 virtual years.
    sim::Time last_heard : 48 = 0;
  };
  static_assert(sizeof(Neighbor) == 16);
  /// The neighbor table's capacity once it must hold one entry more than
  /// `held`: 4 entries at first, doubled up to 16, then 4 more at a time.
  /// Past 16 entries the buffer exceeds the most entries the table has
  /// held by fewer than 4 slots, and up to 28 entries the table grows no
  /// more often than push_back's doubling would.
  static constexpr std::size_t grown_neighbor_capacity(std::size_t held) {
    return held < 16 ? std::max<std::size_t>(4, 2 * held) : held + 4;
  }

  RplRouting(mac::Mac& mac, sim::Scheduler& sched, Rng rng,
             RplConfig cfg = {});
  ~RplRouting();

  /// Starts this node as the DODAG root (border router).
  void start_root();
  /// Starts this node as an ordinary router/leaf.
  void start();
  void stop();

  /// Sends `payload` toward the root. Returns false if not joined or the
  /// MAC queue is full.
  bool send_up(Buffer payload);
  /// Root-only: sends `payload` down to `target` along stored DAO routes.
  bool send_down(NodeId target, Buffer payload);
  /// Convenience: up if not root, down if root.
  bool send_to(NodeId target, Buffer payload) {
    return is_root_ ? send_down(target, std::move(payload))
                    : send_up(std::move(payload));
  }

  void set_delivery_handler(DeliveryHandler h) { deliver_ = std::move(h); }
  void set_rnfd_handler(RawHandler h) { hooks().rnfd_raw = std::move(h); }
  /// In-network processing hook (TinyDB-style [31]): called at every hop
  /// for upward data, including the root. Return true to consume the
  /// message at this hop (it is not forwarded/delivered further). This is
  /// what enables in-network aggregation (bench E3).
  void set_forward_interceptor(
      std::function<bool(NodeId origin, BytesView)> fn) {
    hooks().interceptor = std::move(fn);
  }
  /// Fires whenever the preferred parent changes (old, new).
  void set_parent_change_handler(std::function<void(NodeId, NodeId)> h) {
    hooks().on_parent_change = std::move(h);
  }

  [[nodiscard]] bool is_root() const { return is_root_; }
  [[nodiscard]] bool joined() const { return is_root_ || rank_ < kInfiniteRank; }
  [[nodiscard]] Rank rank() const { return rank_; }
  /// True hop distance to the root (root = 0; 0xFF when not joined).
  [[nodiscard]] std::uint8_t hop_depth() const {
    return is_root_ ? 0 : depth_;
  }
  [[nodiscard]] NodeId preferred_parent() const { return parent_; }
  [[nodiscard]] std::uint8_t version() const { return version_; }
  [[nodiscard]] NodeId root_id() const { return dodag_root_; }
  [[nodiscard]] NodeId id() const { return mac_.id(); }
  [[nodiscard]] const RplStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t downward_table_size() const {
    return downward_.size();
  }
  [[nodiscard]] std::size_t neighbor_count() const {
    return neighbors_.size();
  }
  /// Last direct evidence that neighbor `n` is alive — a control message
  /// received from it, or a MAC ack for a unicast to it (0 if never).
  [[nodiscard]] sim::Time neighbor_last_heard(NodeId n) const {
    const std::size_t i = neighbor_index(n);
    return i == neighbors_.size() ? 0 : neighbors_[i].last_heard;
  }
  [[nodiscard]] mac::Mac& mac() { return mac_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }

  /// Root-only: increments the DODAG version (global repair).
  void global_repair();
  /// Detaches from the DODAG: poison, then solicit (local repair).
  void local_repair();

 private:
  /// The hooks most nodes never set, kept out of line until one is.
  struct Hooks {
    RawHandler rnfd_raw;
    std::function<bool(NodeId, BytesView)> interceptor;
    std::function<void(NodeId, NodeId)> on_parent_change;
  };
  Hooks& hooks() {
    if (!hooks_) hooks_ = std::make_unique<Hooks>();
    return *hooks_;
  }

  void on_mac_receive(NodeId src, BytesView payload, double rssi);
  void handle_dio(NodeId src, const DioMsg& dio);
  void handle_dao(NodeId src, const DaoMsg& dao);
  void handle_data(NodeId src, DataMsg&& msg);

  void send_dio();
  void send_dis();
  void send_dao();
  void forward_up(DataMsg msg, bool allow_reroute);
  void forward_down(DataMsg msg);
  /// Picks the neighbor with the lowest path cost (rank + link cost) in
  /// the current version as the preferred parent, subject to the switch
  /// hysteresis. Tie-break: among equal path costs the neighbor heard
  /// first wins, because neighbors_ is scanned in first-heard order and
  /// only a strictly cheaper entry displaces the best so far. A handler
  /// it runs (parent change) may re-enter and clear the table, so no
  /// entry is read after one runs.
  void select_parent();
  /// Position of `n`'s entry in neighbors_; neighbors_.size() if none.
  [[nodiscard]] std::size_t neighbor_index(NodeId n) const;
  /// Removes `n`'s entry, keeping the others in first-heard order.
  void erase_neighbor(NodeId n);
  [[nodiscard]] Rank link_cost(NodeId neighbor) const;
  /// Records a unicast outcome to `via` in the estimator and refreshes
  /// its cached link cost. Returns via's neighbor entry, if it has one.
  Neighbor* record_unicast(NodeId via, const mac::SendStatus& st);
  [[nodiscard]] static Rank path_cost_via(const Neighbor& nb);
  void become_orphan();
  /// Forwards a distress report one hop toward the root (or, at the root,
  /// considers a rate-limited global repair).
  void relay_distress(NodeId origin, std::uint8_t hops);
  [[nodiscard]] bool seen_recently(NodeId origin, SeqNo seq);
  /// Records a local delivery in the observability plane: "deliver"
  /// instant plus the end-to-end hop/latency histograms.
  void note_delivery(std::uint8_t hops);

  mac::Mac& mac_;
  sim::Scheduler& sched_;
  Rng rng_;
  /// Every node of a network runs one configuration: an interned copy.
  const RplConfig& cfg_;
  Trickle trickle_;
  LinkEstimator links_;
  RplStats stats_;
  obs::Histogram e2e_latency_ms_;  // observed at this node's deliveries
  obs::Histogram e2e_hops_;

  // Scalars, widest first so the object carries no padding between them.
  sim::Time last_distress_relay_ = 0;
  sim::Time last_distress_repair_ = 0;
  sim::Time last_loop_hit_ = 0;  // for the loop-hit decay window
  NodeId parent_ = kInvalidNode;
  NodeId dodag_root_ = kInvalidNode;
  SeqNo next_seq_ = 1;
  /// Consecutive DAGMaxRankIncrease detachments in this version; cleared
  /// when the node regains a rank inside the original (slack-free) window.
  int ratchet_orphans_ = 0;
  int loop_hits_ = 0;  // recent data-path loop detections
  Rank rank_ = kInfiniteRank;
  Rank advertised_rank_ = kInfiniteRank;  // rank at last trickle reset
  Rank lowest_rank_ = kInfiniteRank;      // per DODAG version (see config)
  /// Extra allowance above the floor, granted (bounded) when a rejoin
  /// after orphaning lands at a legitimately worse rank. Capped at
  /// max_rank_increase, so total rank growth per version is bounded by
  /// lowest_rank_ + 2 * max_rank_increase — count-to-infinity cannot
  /// ratchet past it no matter how many orphan episodes occur.
  Rank floor_slack_ = 0;
  bool running_ = false;
  bool is_root_ = false;
  bool rejoining_ = false;  // orphaned since the last finite rank
  std::uint8_t depth_ = 0xFF;
  std::uint8_t version_ = 0;

  /// One entry per neighbor heard in this version, in first-heard order
  /// (the order select_parent breaks ties by). A new DODAG version,
  /// stop() and local_repair() clear it, so the order restarts. It grows
  /// by grown_neighbor_capacity (handle_dio).
  std::vector<Neighbor> neighbors_;
  std::unordered_map<NodeId, NodeId> downward_;  // target -> next-hop child

  DeliveryHandler deliver_;
  std::unique_ptr<Hooks> hooks_;

  sim::EventHandle dao_timer_;
  sim::EventHandle dis_timer_;

  // Duplicate suppression for routed data: the last 8192 distinct
  // (origin << 32 | seq) keys; it allocates only once data reaches
  // this node.
  KeyWindow seen_{8192};
};

}  // namespace iiot::net
