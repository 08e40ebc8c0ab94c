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
#include "scenarios/specs.hpp"
#include "scenarios/world_util.hpp"

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
  Shard sh("mine_tunnel", p, wseed);
  sim::Scheduler& sched = sh.sched;

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
  core::MeshNetwork net(sched, sh.medium, Rng(wseed, 5), ncfg);
  net.build_line(n, 18.0);
  net.start(0);
  sh.collect(net);

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
  const auto unjoined = [&net] { return net.joined_fraction() < 1.0; };
  if (!sh.advance(25'000'000 + (n / 10) * 5'000'000, "formation") ||
      !sh.settle(4, "formation", unjoined)) {
    return sh.result();
  }
  if (unjoined()) {
    return sh.fail("chain never fully joined (" +
                   std::to_string(net.joined_fraction()) + ")");
  }
  for (auto& d : detectors) d->start();

  // ---- pre-scheduled traffic -----------------------------------------
  // Gas reports keep flowing through the post-replacement loop-settle
  // window: the data-plane rank-inconsistency check is what resolves
  // transient RPL loops quickly — a silent chain leaves them to slow
  // trickle (and keeps proving portal liveness to RNFD for free). They
  // cover the re-join grace and verdict-settle rounds too: loops that
  // form late still need data flowing (the data-plane check escalates
  // repairs), and traffic keeps proving portal liveness to RNFD.
  const sim::Time start = sched.now();
  const sim::Time end = start + p.measure_time;
  const int settle_rounds = 4 + static_cast<int>(n / 10);
  const sim::Duration period = 3'000'000;
  sh.sample(
      net, start, end + (4 + 2 * settle_rounds) * Shard::kRound, period,
      [](std::size_t i) {
        return 200'000 + (static_cast<sim::Time>(i) * 7'919) % period;
      },
      gas_level);

  // ---- schedule: clean → partition/repair → portal crash → replace ----
  const sim::Time part_at = start + 50'000'000;
  const sim::Time part_heal = part_at + 20'000'000;
  const sim::Time crash_at = part_heal + 25'000'000;
  const sim::Time replace_at = crash_at + 45'000'000;
  const std::size_t relay = std::max<std::size_t>(2, n / 3);

  if (!sh.advance(part_at, "clean phase")) return sh.result();
  net.node(relay).stop();  // rockfall takes out a mid-chain relay
  if (!sh.advance(part_heal, "partition")) return sh.result();
  net.node(relay).start(false);
  net.root().routing->global_repair();
  if (!sh.advance(crash_at, "repair")) return sh.result();
  if (detected_at != 0) {
    return sh.fail("RNFD false positive before the portal crash");
  }

  net.root().stop();  // portal router dies
  const sim::Time crash_time = sched.now();
  if (!sh.advance(replace_at, "portal crash")) return sh.result();
  if (detected_at == 0) {
    return sh.fail("RNFD never detected the portal crash");
  }

  net.root().start(true);  // replacement router at the portal
  net.root().routing->global_repair();
  if (!sh.advance(end, "replacement") ||
      !sh.settle(4, "re-join", unjoined)) {
    return sh.result();
  }
  if (unjoined()) {
    return sh.fail("chain never re-joined after replacement (" +
                   std::to_string(net.joined_fraction()) + ")");
  }
  if (!sh.settle_acyclic(net, settle_rounds)) return sh.result();
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
  if (!sh.settle(settle_rounds, "verdict settle", verdict_stuck)) {
    return sh.result();
  }
  if (verdict_stuck()) {
    return sh.fail("verdict stuck at dead after replacement");
  }
  if (sh.ledger.malformed != 0) {
    return sh.fail("malformed payloads at the portal");
  }

  const double detect_s =
      static_cast<double>(detected_at - crash_time) / 1e6;
  return sh.finish(
      net, {1.0, detect_s, static_cast<double>(sh.cp.transient_loops)});
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
