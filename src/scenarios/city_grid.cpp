// City grid: ONE city-scale world, not a sharded fleet. A rectangle of
// seamlessly tiling sensor patches becomes a pdes::IslandWorld (DESIGN.md
// §4i): every patch is an island with its own scheduler/medium/RNG
// streams, radio links cross patch borders, and one RPL DODAG rooted at
// the city center spans the whole thing. RunParams::islands picks the
// execution lanes; the physics — and therefore every KPI in the artifact,
// including the world digest — is byte-identical at any lane count.
//
// The schedule exercises the sharpest PDES corners on purpose: paced
// upward traffic from the central district (the 3x3 block of islands
// around the root, so every delivery crosses island boundaries),
// frame-level fault injection on every island, and a mid-run crash +
// rejoin of a border-straddling node. City tier: 11x10 islands x 7^2
// nodes = 5390 nodes. Only the district originates samples — a flat
// single-root DODAG cannot haul telemetry across a 77-hop city, which
// is precisely the paper's case for hierarchy (the sharded fleet
// scenarios model that); here the outer city's full RPL control plane
// is the scaling load, and delivery measures district service under it.
// For smoke (2x2) and soak (3x3) the district covers every island.
#include <memory>
#include <vector>

#include "pdes/world.hpp"
#include "scenarios/specs.hpp"
#include "scenarios/world_util.hpp"
#include "sim/scheduler.hpp"

namespace iiot::scenarios::detail {

namespace {

constexpr std::uint64_t kSalt = 0xC17E9;

using testing::advance;

struct Layout {
  std::size_t islands_x;
  std::size_t islands_y;
  std::size_t side;  // nodes per island edge
  sim::Duration measure;
  /// Per-node reporting period: every sample funnels into ONE root, so
  /// the offered load must scale down as the city scales up or the
  /// center of the DODAG saturates (a real constraint, not a tuning
  /// artifact — city meters report on minutes, not seconds).
  sim::Duration period;
  /// Full-join requirement; the city tier tolerates a sliver of stragglers
  /// after the crash episode (weekly runs must not flake on one node).
  double join_floor;
};

Layout layout_for(Tier tier) {
  switch (tier) {
    case Tier::kSmoke: return {2, 2, 3, 30'000'000, 3'000'000, 1.0};
    case Tier::kSoak: return {3, 3, 4, 60'000'000, 9'000'000, 1.0};
    case Tier::kCity: return {11, 10, 7, 90'000'000, 15'000'000, 0.995};
  }
  return {2, 2, 3, 30'000'000, 3'000'000, 1.0};
}

RunParams params_for(Tier tier, std::uint64_t seed) {
  const Layout l = layout_for(tier);
  RunParams p;
  p.tier = tier;
  p.seed = seed;
  p.shards = 1;  // one world IS the scenario; lanes scale it, not shards
  p.nodes_per_shard = l.islands_x * l.islands_y * l.side * l.side;
  p.measure_time = l.measure;
  p.tracing = false;  // traces are per-island; audited by test_pdes instead
  return p;
}

double meter_reading(std::size_t i, std::uint32_t seq) {
  return 220.0 + 0.1 * static_cast<double>((i * 31 + seq * 7) % 97);
}

ShardResult run_shard(const RunParams& p, std::size_t shard) {
  const Layout l = layout_for(p.tier);
  pdes::IslandWorldConfig cfg;
  cfg.islands_x = l.islands_x;
  cfg.islands_y = l.islands_y;
  cfg.island_side = l.side;
  cfg.seed = shard_seed(p.seed, shard, kSalt);
  cfg.lanes = p.islands;
  cfg.radio_cfg.exponent = 3.0;
  cfg.radio_cfg.shadowing_sigma_db = 0.0;
  // Frame-level fault injection on every island: mild enough that the
  // DODAG stays whole, hot enough that fault paths cross island borders.
  // No payload corruption here — the root ledger's malformed counter
  // doubles as a causality guard (a sample timestamped after its own
  // delivery would mean skewed island clocks), so payloads must arrive
  // intact or not at all.
  radio::FaultInjectorConfig faults;
  faults.drop_p = 0.01;
  faults.duplicate_p = 0.005;
  faults.delay_p = 0.01;
  cfg.faults = faults;

  ShardResult r;
  r.nodes = cfg.nodes();
  pdes::IslandWorld world(cfg);
  world.start();

  auto ledger = std::make_unique<detail::Ledger>();
  sim::Scheduler& root_sched =
      world.scheduler(world.island_of(world.root_index()));
  world.root().routing->set_delivery_handler(
      [lg = ledger.get(), &root_sched](NodeId, BytesView payload,
                                       std::uint8_t) {
        lg->record(payload, root_sched.now());
      });

  // ---- formation: budget scales with the hop diameter, not node count.
  const std::size_t diameter_hops =
      l.side * ((l.islands_x + 1) / 2 + (l.islands_y + 1) / 2);
  const sim::Duration form =
      20'000'000 + static_cast<sim::Duration>(diameter_hops) * 3'000'000;
  if (auto v = advance(world, form); !v.empty()) {
    r.failure = "city_grid: formation: " + v;
    return r;
  }
  for (int grace = 0; grace < 8 && world.joined_fraction() < 1.0; ++grace) {
    if (auto v = advance(world, world.now() + 15'000'000); !v.empty()) {
      r.failure = "city_grid: formation: " + v;
      return r;
    }
  }
  if (world.joined_fraction() < l.join_floor) {
    r.failure = "city_grid: city never joined (" +
                std::to_string(world.joined_fraction()) + ")";
    return r;
  }

  // ---- pre-scheduled traffic (on each node's own island scheduler) ----
  // `sent` is tallied per island: island events run on exactly one lane
  // at a time, so each slot has a single writer.
  const sim::Time start = world.now();
  const sim::Time end = start + p.measure_time;
  std::vector<std::uint64_t> sent_by_island(world.islands(), 0);
  const sim::Duration period = l.period;
  const std::uint32_t root_isl = world.island_of(world.root_index());
  const std::size_t rx = root_isl % l.islands_x;
  const std::size_t ry = root_isl / l.islands_x;
  for (std::size_t i = 0; i < world.size(); ++i) {
    if (i == world.root_index()) continue;
    // District membership: the sender's island within Chebyshev
    // distance 1 of the root's island.
    const std::uint32_t isl = world.island_of(i);
    const std::size_t ix = isl % l.islands_x;
    const std::size_t iy = isl / l.islands_x;
    if ((ix > rx ? ix - rx : rx - ix) > 1 ||
        (iy > ry ? iy - ry : ry - iy) > 1) {
      continue;
    }
    core::MeshNode* node = &world.node(i);
    sim::Scheduler& sched = world.scheduler(world.island_of(i));
    std::uint64_t* sent = &sent_by_island[world.island_of(i)];
    const auto origin = static_cast<std::uint32_t>(i);
    const sim::Time phase =
        200'000 + (static_cast<sim::Time>(i) * 7'919) % period;
    std::uint32_t seq = 0;
    for (sim::Time t = start + phase; t < end; t += period) {
      sched.schedule_at(t, [node, origin, seq, i, sent, &sched] {
        if (!node->routing->joined()) return;
        Buffer pl;
        write_timed(pl, origin, seq, sched.now(), meter_reading(i, seq));
        if (node->routing->send_up(std::move(pl))) ++*sent;
      });
      ++seq;
    }
  }

  // ---- mid-run crash of a border-straddling node -----------------------
  // Island 0's far corner sits against two neighbor islands; its crash
  // and rejoin land exactly on window boundaries (measure times are whole
  // seconds), the sharpest cross-island ordering corner.
  const std::size_t victim = l.side * l.side - 1;
  const sim::Time crash_at = start + p.measure_time / 3;
  if (auto v = advance(world, crash_at); !v.empty()) {
    r.failure = "city_grid: clean phase: " + v;
    return r;
  }
  world.node(victim).stop();
  if (auto v = advance(world, crash_at + 10'000'000); !v.empty()) {
    r.failure = "city_grid: crash phase: " + v;
    return r;
  }
  world.node(victim).start(false);
  if (auto v = advance(world, end); !v.empty()) {
    r.failure = "city_grid: rejoin phase: " + v;
    return r;
  }
  for (int grace = 0; grace < 4 && world.joined_fraction() < 1.0; ++grace) {
    if (auto v = advance(world, world.now() + 10'000'000); !v.empty()) {
      r.failure = "city_grid: rejoin grace: " + v;
      return r;
    }
  }
  if (world.joined_fraction() < l.join_floor) {
    r.failure = "city_grid: city did not re-join after the crash (" +
                std::to_string(world.joined_fraction()) + ")";
    return r;
  }
  if (ledger->malformed != 0) {
    r.failure = "city_grid: malformed or future-stamped payloads at the "
                "root (island clock skew?)";
    return r;
  }

  for (std::uint64_t s : sent_by_island) r.sent += s;
  r.delivered = ledger->latencies_us.size();
  r.latencies_us = std::move(ledger->latencies_us);
  for (std::size_t k = 0; k < world.islands(); ++k) {
    core::MeshNetwork& net = world.network(k);
    const sim::Time now = world.scheduler(k).now();
    for (std::size_t j = 0; j < net.size(); ++j) {
      if (k * l.side * l.side + j == world.root_index()) continue;
      net.node(j).meter.settle(now);
      r.duty_sum += net.node(j).meter.duty_cycle();
      ++r.duty_nodes;
    }
  }
  const radio::MediumStats ms = world.medium_stats();
  // The digest folds every lane-invariance counter; its low 32 bits ride
  // in the artifact so KPI byte-identity across --islands (and the weekly
  // city reference diff) covers the whole contract, not just the KPIs.
  const double digest_lo =
      static_cast<double>(world.digest() & 0xFFFFFFFFULL);
  r.extras = {static_cast<double>(world.islands()),
              static_cast<double>(ms.cross_island_rx),
              world.joined_fraction(), digest_lo};
  world.stop();
  return r;
}

std::vector<ExtraKpi> extras() {
  return {{"islands", Merge::kSum, 0.0, 0.0},
          {"cross_island_rx", Merge::kSum, 0.10, 50.0},
          {"joined_fraction", Merge::kAvg, 0.0, 0.005},
          {"world_digest_lo", Merge::kSum, 0.0, 0.0}};
}

std::vector<KpiBound> bounds_for(Tier tier) {
  const Layout l = layout_for(tier);
  const double n = static_cast<double>(l.islands_x * l.islands_y);
  // The crash window plus 1% injected frame drop caps honest delivery
  // well below 1; the floor is sanity, the baseline is the drift gate.
  return {{"delivery_ratio", 0.40, 1.0},
          {"islands", n, n},
          {"cross_island_rx", 1.0, 1e12},
          {"joined_fraction", l.join_floor, 1.0}};
}

testing::FuzzProfile fuzz_profile() {
  testing::FuzzProfile fp;
  fp.mac = testing::ScenarioMac::kCsma;
  fp.topology = testing::ScenarioTopology::kGrid;
  fp.min_nodes = 16;
  fp.max_nodes = 36;
  return fp;
}

}  // namespace

ScenarioSpec city_grid_spec() {
  return {"city_grid",
          "one island-partitioned city world, lane-invariant PDES scaling",
          params_for,
          run_shard,
          extras,
          bounds_for,
          fuzz_profile};
}

}  // namespace iiot::scenarios::detail
