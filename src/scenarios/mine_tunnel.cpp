// Mine/tunnel: each shard is one tunnel segment — a long linear CSMA
// multi-hop chain collecting into a portal border router. The schedule
// runs a partition/repair episode (a mid-chain relay dies and returns)
// and then a portal-router crash that RNFD must detect network-wide
// (on a chain only one node is root-adjacent, so the sentinel quorum is
// one — the degenerate end of the paper's §IV-B parallelism argument).
// After the portal is replaced the chain must fully re-join. City tier:
// 100 segments × 50 nodes = 5000 nodes.
#include <algorithm>
#include <memory>
#include <vector>

#include "net/rnfd.hpp"
#include "obs/context.hpp"
#include "radio/medium.hpp"
#include "scenarios/specs.hpp"
#include "scenarios/world_util.hpp"
#include "sim/scheduler.hpp"

namespace iiot::scenarios::detail {

namespace {

constexpr std::uint64_t kSalt = 0x714E1;

struct Sizes {
  std::size_t nodes;
  std::size_t segments;
};

Sizes sizes_for(Tier tier) {
  switch (tier) {
    case Tier::kSmoke: return {12, 2};
    case Tier::kSoak: return {30, 4};
    case Tier::kCity: return {50, 100};
  }
  return {12, 2};
}

// The fault schedule needs fixed absolute windows (partition 20 s, root
// down ~35 s, final heal), so measure time is tier-independent.
constexpr sim::Duration kMeasure = 180'000'000;

RunParams params_for(Tier tier, std::uint64_t seed) {
  const Sizes s = sizes_for(tier);
  RunParams p;
  p.tier = tier;
  p.seed = seed;
  p.shards = s.segments;
  p.nodes_per_shard = s.nodes;
  p.measure_time = kMeasure;
  p.tracing = tier != Tier::kCity;
  return p;
}

double gas_level(std::size_t i, std::uint32_t k) {
  return 1.0 + 0.05 * static_cast<double>((i * 19 + k * 5) % 13);
}

ShardResult run_shard(const RunParams& p, std::size_t shard) {
  const std::uint64_t wseed = shard_seed(p.seed, shard, kSalt);
  const std::size_t n = p.nodes_per_shard;

  sim::Scheduler sched;
  obs::Context obsctx(sched, 1u << 18);
  obsctx.tracer().set_enabled(p.tracing);
  radio::PropagationConfig pcfg;
  pcfg.exponent = 3.0;
  pcfg.shadowing_sigma_db = 0.0;
  radio::Medium medium(sched, pcfg, wseed);

  core::NodeConfig ncfg = core::paced_node_config(core::MacKind::kCsma);
  // Deep chains: the default TTL (32) would drop legitimate traffic on
  // 50-hop segments.
  ncfg.rpl.max_hops = 120;
  // Root-failure handling is RNFD's job here (the paper's §IV-B story):
  // with the default threshold the steady gas-sample traffic hammering a
  // dead portal makes the sentinel abandon its parent within ~2 s, which
  // destroys sentinel status before RNFD can accumulate conclusive
  // misses. On a chain there is no alternative parent anyway, so local
  // abandonment buys nothing.
  ncfg.rpl.max_parent_failures = 1 << 30;
  core::MeshNetwork net(sched, medium, Rng(wseed, 5), ncfg);
  net.build_line(n, 18.0);
  net.start(0);

  auto ledger = std::make_unique<detail::Ledger>();
  net.root().routing->set_delivery_handler(
      [lg = ledger.get(), &sched](NodeId, BytesView payload, std::uint8_t) {
        lg->record(payload, sched.now());
      });

  // ---- RNFD on every non-portal node ---------------------------------
  // On a chain exactly one node is a sentinel, so the quorum floor is 1;
  // the ratio keeps its default (1 suspect / 1 participant = 1.0).
  net::RnfdConfig rcfg;
  rcfg.probe_interval = 5'000'000;
  rcfg.probe_jitter = 1'000'000;
  rcfg.liveness_window = 10'000'000;
  rcfg.quorum_min = 1;
  std::vector<std::unique_ptr<net::RnfdDetector>> detectors;
  sim::Time detected_at = 0;
  for (std::size_t i = 1; i < n; ++i) {
    detectors.push_back(std::make_unique<net::RnfdDetector>(
        *net.node(i).routing, sched,
        Rng(wseed, 300 + static_cast<std::uint64_t>(i)), rcfg));
    detectors.back()->set_failure_handler([&detected_at, &sched] {
      if (detected_at == 0) detected_at = sched.now();
    });
  }

  // ---- formation ------------------------------------------------------
  ShardResult r;
  r.nodes = n;
  testing::Checkpointer cp{sched, medium, &net};
  const sim::Duration form = 25'000'000 + (n / 10) * 5'000'000;
  if (auto v = cp.advance(form); !v.empty()) {
    r.failure = "mine_tunnel: formation: " + v;
    return r;
  }
  for (int grace = 0; grace < 4 && net.joined_fraction() < 1.0; ++grace) {
    if (auto v = cp.advance(sched.now() + 15'000'000); !v.empty()) {
      r.failure = "mine_tunnel: formation: " + v;
      return r;
    }
  }
  if (net.joined_fraction() < 1.0) {
    r.failure = "mine_tunnel: chain never fully joined (" +
                std::to_string(net.joined_fraction()) + ")";
    return r;
  }
  for (auto& d : detectors) d->start();

  // ---- pre-scheduled traffic -----------------------------------------
  const sim::Time start = sched.now();
  const sim::Time end = start + p.measure_time;
  // Gas reports keep flowing through the post-replacement loop-settle
  // window: the data-plane rank-inconsistency check is what resolves
  // transient RPL loops quickly — a silent chain leaves them to slow
  // trickle (and keeps proving portal liveness to RNFD for free).
  const int settle_rounds = 4 + static_cast<int>(n / 10);
  // Cover the re-join grace and verdict-settle rounds too: loops that
  // form late still need data flowing (the data-plane check escalates
  // repairs), and traffic keeps proving portal liveness to RNFD.
  const sim::Time traffic_end =
      end +
      static_cast<sim::Duration>(4 + 2 * settle_rounds) * 15'000'000;
  std::uint64_t sent = 0;
  const sim::Duration period = 3'000'000;
  for (std::size_t i = 1; i < n; ++i) {
    core::MeshNode* node = &net.node(i);
    const auto origin = static_cast<std::uint32_t>(i);
    const sim::Time phase =
        200'000 + (static_cast<sim::Time>(i) * 7'919) % period;
    std::uint32_t seq = 0;
    for (sim::Time t = start + phase; t < traffic_end; t += period) {
      sched.schedule_at(t, [node, origin, seq, i, &sent, &sched] {
        if (!node->routing->joined() || node->routing->is_root()) return;
        Buffer pl;
        write_timed(pl, origin, seq, sched.now(), gas_level(i, seq));
        if (node->routing->send_up(std::move(pl))) ++sent;
      });
      ++seq;
    }
  }

  // ---- schedule: clean → partition/repair → portal crash → replace ----
  const sim::Time part_at = start + 50'000'000;
  const sim::Time part_heal = part_at + 20'000'000;
  const sim::Time crash_at = part_heal + 25'000'000;
  const sim::Time replace_at = crash_at + 45'000'000;
  const std::size_t relay = std::max<std::size_t>(2, n / 3);

  if (auto v = cp.advance(part_at); !v.empty()) {
    r.failure = "mine_tunnel: clean phase: " + v;
    return r;
  }
  net.node(relay).stop();  // rockfall takes out a mid-chain relay
  if (auto v = cp.advance(part_heal); !v.empty()) {
    r.failure = "mine_tunnel: partition: " + v;
    return r;
  }
  net.node(relay).start(false);
  net.root().routing->global_repair();
  if (auto v = cp.advance(crash_at); !v.empty()) {
    r.failure = "mine_tunnel: repair: " + v;
    return r;
  }
  if (detected_at != 0) {
    r.failure = "mine_tunnel: RNFD false positive before the portal crash";
    return r;
  }

  net.root().stop();  // portal router dies
  const sim::Time crash_time = sched.now();
  if (auto v = cp.advance(replace_at); !v.empty()) {
    r.failure = "mine_tunnel: portal crash: " + v;
    return r;
  }
  if (detected_at == 0) {
    r.failure = "mine_tunnel: RNFD never detected the portal crash";
    return r;
  }

  net.root().start(true);  // replacement router at the portal
  net.root().routing->global_repair();
  if (auto v = cp.advance(end); !v.empty()) {
    r.failure = "mine_tunnel: replacement: " + v;
    return r;
  }
  for (int grace = 0; grace < 4 && net.joined_fraction() < 1.0; ++grace) {
    if (auto v = cp.advance(sched.now() + 15'000'000); !v.empty()) {
      r.failure = "mine_tunnel: re-join: " + v;
      return r;
    }
  }
  if (net.joined_fraction() < 1.0) {
    r.failure = "mine_tunnel: chain never re-joined after replacement (" +
                std::to_string(net.joined_fraction()) + ")";
    return r;
  }
  // RPL loops are transient by contract: the still-running gas traffic
  // trips the data-plane inconsistency check and trickle re-converges —
  // the invariant is "eventually acyclic", given bounded settle time.
  // While unconverged the portal escalates with sparse version bumps
  // (each obsoletes every stale entry at once), never in the last three
  // rounds so the final checks land on a converged chain.
  std::string acyclic = testing::check_routing_acyclic(net);
  for (int grace = 0; grace < settle_rounds && !acyclic.empty(); ++grace) {
    if (grace % 3 == 1 && grace + 3 < settle_rounds) {
      net.root().routing->global_repair();
    }
    if (auto v = cp.advance(sched.now() + 15'000'000); !v.empty()) {
      r.failure = "mine_tunnel: loop settle: " + v;
      return r;
    }
    acyclic = testing::check_routing_acyclic(net);
  }
  if (!acyclic.empty()) {
    r.failure = "mine_tunnel: " + acyclic;
    return r;
  }
  // The replacement epoch-advances the CFRC via the sentinel's first
  // acked probe, and the advance disseminates hop-by-hop at the gossip
  // pace (1 s) — on a 50-node chain that is most of a minute to the far
  // end, so the verdict check gets the same bounded settle the loop
  // check gets. Stuck-at-dead only counts once that bound is spent.
  const auto verdict_stuck = [&detectors] {
    for (const auto& d : detectors) {
      if (d->root_declared_dead()) return true;
    }
    return false;
  };
  for (int grace = 0; grace < settle_rounds && verdict_stuck(); ++grace) {
    if (auto v = cp.advance(sched.now() + 15'000'000); !v.empty()) {
      r.failure = "mine_tunnel: verdict settle: " + v;
      return r;
    }
  }
  if (verdict_stuck()) {
    r.failure = "mine_tunnel: verdict stuck at dead after replacement";
    return r;
  }
  if (ledger->malformed != 0) {
    r.failure = "mine_tunnel: malformed payloads at the portal";
    return r;
  }
  if (p.tracing) {
    if (auto v = testing::check_trace_wellformed(obsctx.tracer());
        !v.empty()) {
      r.failure = "mine_tunnel: " + v;
      return r;
    }
  }

  r.sent = sent;
  r.delivered = ledger->latencies_us.size();
  r.latencies_us = std::move(ledger->latencies_us);
  collect_duty(net, sched.now(), r.duty_sum, r.duty_nodes);
  const double detect_s =
      static_cast<double>(detected_at - crash_time) / 1e6;
  r.extras = {1.0, detect_s, static_cast<double>(cp.transient_loops)};
  return r;
}

std::vector<ExtraKpi> extras() {
  return {{"rnfd_detected", Merge::kSum, 0.0, 0.0},
          {"rnfd_detect_s", Merge::kAvg, 0.25, 5.0},
          {"transient_loops", Merge::kSum, 1.0, 50.0}};
}

std::vector<KpiBound> bounds_for(Tier tier) {
  const Sizes s = sizes_for(tier);
  // ~45 s root-down plus a 20 s partition out of a 170 s send window
  // puts the honest ceiling near 0.65; the floor is a sanity bound, the
  // committed baseline tolerance is the real drift gate.
  return {{"delivery_ratio", 0.30, 1.0},
          {"rnfd_detected", static_cast<double>(s.segments),
           static_cast<double>(s.segments)},
          {"rnfd_detect_s", 5.0, 45.0}};
}

testing::FuzzProfile fuzz_profile() {
  testing::FuzzProfile fp;
  fp.mac = testing::ScenarioMac::kCsma;
  fp.topology = testing::ScenarioTopology::kLine;
  fp.min_nodes = 14;
  fp.max_nodes = 18;
  fp.force_rnfd_when_clean = true;
  return fp;
}

}  // namespace

ScenarioSpec mine_tunnel_spec() {
  return {"mine_tunnel",
          "long multi-hop chain, RNFD crash detection, partition/repair",
          params_for,
          run_shard,
          extras,
          bounds_for,
          fuzz_profile};
}

}  // namespace iiot::scenarios::detail
