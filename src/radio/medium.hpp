// The shared wireless medium.
//
// Tracks all in-flight transmissions and decides, per potential receiver,
// whether a frame survives: the receiver must be listening on the same
// channel for the whole airtime, the frame must win any collision by the
// capture margin, and it must pass the SNR→PRR coin flip. Cross-tenant
// transmissions interfere exactly like same-tenant ones — this is what the
// administrative-scalability experiment (E6) measures.
//
// Hot-path design (DESIGN.md "Performance architecture"):
//   * Each radio has a lazily rebuilt neighbor cache — the precomputed
//     list of radios whose link clears min(sensitivity, CCA threshold),
//     with the link budget memoized alongside — so begin_tx and
//     channel_busy iterate O(neighbors) instead of O(all radios). The
//     cache is invalidated (by epoch bump) on attach, detach, channel
//     change, and position change.
//   * In-flight receptions are stored per receiver (indexed by the
//     radio's dense medium index), so collision checks and
//     reception-abort scans touch only the handful of frames in the air
//     at that one radio, never a global list.
//   * Determinism: neighbor lists preserve attach order, and every
//     Airing records its receivers in creation order, so the delivery
//     RNG stream is bit-for-bit identical to a naive full scan.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/context.hpp"
#include "radio/frame.hpp"
#include "radio/propagation.hpp"
#include "radio/radio.hpp"
#include "sim/scheduler.hpp"

namespace iiot::radio {

struct CellTx;
class Interchange;
struct IslandPlan;

struct MediumStats {
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;   // receptions corrupted by overlap
  std::uint64_t snr_losses = 0;   // receptions lost to the PRR coin flip
  std::uint64_t aborted = 0;      // receiver left listen mid-frame
  std::uint64_t fault_drops = 0;  // transmissions killed by fault injection
  std::uint64_t fault_dups = 0;   // deliveries duplicated by fault injection
  std::uint64_t fault_delays = 0; // deliveries delayed by fault injection
  std::uint64_t cross_island_tx = 0;  // CellTx posted to reached islands
  std::uint64_t cross_island_rx = 0;  // CellTx applied as ghost transmissions
};

/// Per-transmission verdict of an installed fault hook (see
/// Medium::set_fault_hook). The default-constructed decision is "no fault".
struct FaultDecision {
  bool drop = false;        // the frame is lost at every receiver
  bool duplicate = false;   // surviving receptions are delivered twice
  sim::Duration delay = 0;  // surviving receptions arrive this much late
};

class Medium {
 public:
  /// `rng_salt` decorrelates the delivery RNG between island mediums that
  /// must share the same propagation seed (shadowing draws are keyed off
  /// `seed` and have to agree across islands). 0 for ordinary worlds.
  Medium(sim::Scheduler& sched, PropagationConfig cfg, std::uint64_t seed,
         std::uint64_t rng_salt = 0)
      : sched_(sched), prop_(cfg, seed), rng_(seed ^ 0xD1CEULL ^ rng_salt, 77) {
    if (obs::MetricsRegistry* m = obs::metrics(sched_)) {
      using obs::kWorldNode;
      m->attach_counter("radio", "transmissions", kWorldNode,
                        &stats_.transmissions, this);
      m->attach_counter("radio", "deliveries", kWorldNode,
                        &stats_.deliveries, this);
      m->attach_counter("radio", "collisions", kWorldNode,
                        &stats_.collisions, this);
      m->attach_counter("radio", "snr_losses", kWorldNode,
                        &stats_.snr_losses, this);
      m->attach_counter("radio", "aborted", kWorldNode, &stats_.aborted,
                        this);
      m->attach_counter("radio", "fault_drops", kWorldNode,
                        &stats_.fault_drops, this);
      m->attach_counter("radio", "fault_dups", kWorldNode,
                        &stats_.fault_dups, this);
      m->attach_counter("radio", "fault_delays", kWorldNode,
                        &stats_.fault_delays, this);
      m->attach_counter("radio", "cross_island_tx", kWorldNode,
                        &stats_.cross_island_tx, this);
      m->attach_counter("radio", "cross_island_rx", kWorldNode,
                        &stats_.cross_island_rx, this);
    }
  }
  ~Medium() {
    if (obs::MetricsRegistry* m = obs::metrics(sched_)) m->detach(this);
  }
  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  [[nodiscard]] Propagation& propagation() { return prop_; }
  [[nodiscard]] const MediumStats& stats() const { return stats_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  /// Transmissions currently on the air, ghosts included (test harnesses
  /// time detach/churn events against this to hit the interesting
  /// interleavings).
  [[nodiscard]] std::size_t in_flight() const { return airings_.size(); }

  /// Expected PRR of the a→b link (for tests and topology construction).
  [[nodiscard]] double link_prr(const Radio& a, const Radio& b) const {
    return prop_.prr(a.id(), a.position(), b.id(), b.position());
  }

  /// Fault injection hook (testing/fuzzing): consulted once per
  /// transmission. The hook may mutate the frame's payload in place
  /// (corruption) and returns what else should happen to it. Unset in
  /// production; zero cost on the hot path when unset. See
  /// radio::FaultInjector for the standard implementation.
  using FaultHook = std::function<FaultDecision(Frame&)>;
  void set_fault_hook(FaultHook h) { fault_hook_ = std::move(h); }

  /// Turns this medium into one island of a partitioned world (DESIGN.md
  /// §4i): every local transmission is additionally posted, as a CellTx
  /// snapshot, to the islands its sender reaches in the plan, and
  /// apply_remote() replays snapshots arriving from them. `ix` and `plan`
  /// must outlive the medium; `island` is this medium's id in the plan,
  /// and every radio attached must be a node of the plan (id - id_base
  /// is its node index).
  void set_island_gateway(Interchange* ix, const IslandPlan* plan,
                          std::uint32_t island);
  /// True once set_island_gateway() made this medium an island.
  [[nodiscard]] bool has_island_gateway() const {
    return island_ix_ != nullptr;
  }

  /// Applies one cross-island transmission as a "ghost": receptions are
  /// marked immediately (the caller invokes this at a window boundary no
  /// later than m.b1, before any local event at that boundary) and the
  /// delivery fires at m.b2. Ghosts compute signal strength from the
  /// carried source position, collide with local and other ghost
  /// receptions alike, and draw their delivery coin from this island's
  /// RNG in application order — all island-local, hence lane-invariant.
  /// Ghosts deliberately emit no trace events: traces are per-island.
  void apply_remote(const CellTx& m);

  /// Cross-checks the medium's internal bookkeeping: dense index maps,
  /// reception lists vs. active transmissions, receiver liveness. Returns
  /// an empty string when consistent, else a description of the first
  /// violation. O(radios + receptions); meant for test harnesses, not the
  /// hot path.
  [[nodiscard]] std::string check_consistency() const;

  /// Canary hook for validating the fuzz harness: when enabled, detach()
  /// deliberately skips removing the departing radio from in-flight
  /// reception bookkeeping — the class of bug check_consistency() exists
  /// to catch. Never enable outside tests.
  void debug_set_skip_detach_cleanup(bool on) {
    debug_skip_detach_cleanup_ = on;
  }

 private:
  friend class Radio;

  /// One reception in progress at a given radio (implicit from the list
  /// it lives in).
  struct Reception {
    std::uint64_t tx_id;
    double signal_dbm;
    bool corrupted = false;
    bool aborted = false;
  };

  /// One transmission on the air at this medium, from begin_tx() or
  /// apply_remote() until its delivery. A null `src` marks a ghost: a
  /// cross-island transmission whose source radio lives on another island
  /// (start = b1, end = b2). Ghost ids carry kRemoteIdBit, which keeps
  /// their reception entries disjoint from local tx ids in rx_at_.
  struct Airing {
    std::uint64_t id;
    Radio* src;  // nullptr: ghost
    NodeId src_id;
    Position src_pos;
    ChannelId channel;
    sim::Time start;    // collisions are judged here
    sim::Time air_end;  // interference stops here (end, for local frames)
    sim::Time end;      // delivery
    Frame frame;
    FaultDecision fault;
    obs::SpanRef obs_span = 0;  // radio "tx" span covering the airtime
    /// Receivers with a reception for this airing, in creation order —
    /// the order the delivery loop (and thus the delivery RNG) follows.
    std::vector<Radio*> receivers;
  };

  static constexpr std::uint64_t kRemoteIdBit = 1ULL << 63;

  /// One entry of a radio's neighbor cache: a radio in link range plus the
  /// memoized symmetric link budget between the two.
  struct Neighbor {
    Radio* radio;
    double signal_dbm;
  };

  struct NeighborCache {
    std::uint64_t epoch = 0;  // valid iff equal to cache_epoch_
    std::vector<Neighbor> list;
  };

  void attach(Radio* r);
  void detach(Radio* r);

  /// Any event that changes who can hear whom (topology, membership,
  /// channel plan) invalidates every neighbor list in O(1); lists rebuild
  /// lazily on next use.
  void invalidate_neighbor_caches() { ++cache_epoch_; }

  /// The radios able to hear `r` (and vice versa — links are symmetric),
  /// in attach order, with memoized link budget. Rebuilt if stale.
  [[nodiscard]] const std::vector<Neighbor>& neighbors_of(const Radio& r)
      const;

  /// Radio API: starts a transmission; schedules its completion.
  void begin_tx(Radio& src, Frame f);

  /// Radio API: the radio at `r` changed mode/channel or started
  /// transmitting — abort any reception in progress there.
  void on_receiver_disturbed(Radio& r);

  /// Radio API: instantaneous energy detect at `r`.
  [[nodiscard]] bool channel_busy(const Radio& r) const;

  /// Starts a reception of `a` at `r`, applying the capture rule against
  /// the receptions in progress there that radiate at a.start: the
  /// stronger signal survives only if it clears the capture margin,
  /// otherwise both are corrupted. A ghost whose airtime ended by its
  /// boundary (air_end <= start) takes part in no collision.
  void mark_reception(Airing& a, Radio& r, double signal_dbm);

  /// Removes airing `id`'s reception at `r` and returns it; a missing
  /// entry reads as aborted.
  Reception take_reception(const Radio& r, std::uint64_t id);

  /// Registers `a` and schedules its delivery at a.end.
  void launch(Airing&& a);

  /// Delivers the surviving receptions of airing `id`.
  void finish(std::uint64_t id);

  /// True iff `r` can take a frame on `channel` right now.
  [[nodiscard]] static bool listens_on(const Radio& r, ChannelId channel) {
    return r.mode() == Mode::kListen && !r.transmitting() &&
           r.channel() == channel;
  }

  /// Receiver lists are recycled: a finished airing hands its cleared
  /// list (capacity kept) to spare_receivers_, and the next
  /// begin_tx/apply_remote takes one back, so steady-state transmissions
  /// never grow a fresh vector. A list is taken before any reception is
  /// marked and returned only after the last delivery callback, so a
  /// handler that transmits from inside finish takes a different one.
  [[nodiscard]] std::vector<Radio*> take_receivers();
  void recycle_receivers(std::vector<Radio*>&& list);

  /// True iff the reception `rx_id` still radiates energy at `t`. Local
  /// receptions radiate for as long as they are listed (entries die at
  /// the exact airtime end); ghost receptions only during [b1, air_end) —
  /// after the true airtime they merely wait for their b2 delivery and
  /// neither corrupt other receptions nor get corrupted or aborted.
  [[nodiscard]] bool radiates_at(std::uint64_t rx_id, sim::Time t) const;

  /// Fault-path delivery of a delayed frame: the receiver is looked up by
  /// id at fire time so the closure never dereferences a detached radio.
  void deliver_late(NodeId to, const Frame& f, double signal_dbm,
                    ChannelId channel);

  [[nodiscard]] double rx_power(const Radio& from, const Radio& to) const {
    return prop_.rx_dbm(from.id(), from.position(), to.id(), to.position());
  }

  sim::Scheduler& sched_;
  Propagation prop_;
  Rng rng_;
  MediumStats stats_;
  std::vector<Radio*> radios_;
  std::uint64_t next_tx_id_ = 1;
  std::vector<Airing> airings_;
  std::vector<std::vector<Radio*>> spare_receivers_;  // cleared, for reuse
  std::uint64_t next_remote_id_ = kRemoteIdBit | 1;
  Interchange* island_ix_ = nullptr;        // island gateway (nullptr = off)
  const IslandPlan* island_plan_ = nullptr;
  std::uint32_t island_id_ = 0;
  std::uint64_t island_seq_ = 1;            // per-island CellTx emission seq
  std::vector<std::vector<Reception>> rx_at_;  // by medium index
  mutable std::vector<NeighborCache> neighbors_;
  mutable std::vector<Neighbor> neighbor_scratch_;  // neighbors_of's buffer
  std::uint64_t cache_epoch_ = 1;
  FaultHook fault_hook_;
  bool debug_skip_detach_cleanup_ = false;
};

}  // namespace iiot::radio
