#include "testing/pdes_fuzz.hpp"

#include <cstdio>

#include "common/rng.hpp"
#include "pdes/world.hpp"
#include "runner/engine.hpp"
#include "testing/checkpointer.hpp"

namespace iiot::testing {

std::string PdesScenarioConfig::summary() const {
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "seed=%llu city=%zux%zu side=%zu window=%lldus exp=%.2f sigma=%.1f "
      "drop=%.3f corrupt=%.3f dup=%.3f delay=%.3f measure=%llds "
      "period=%lldms%s",
      static_cast<unsigned long long>(seed), islands_x, islands_y,
      island_side, static_cast<long long>(window), exponent, sigma_db,
      frame_faults.drop_p, frame_faults.corrupt_p, frame_faults.duplicate_p,
      frame_faults.delay_p, static_cast<long long>(measure / 1'000'000),
      static_cast<long long>(traffic_period / 1'000), crash ? " crash" : "");
  return buf;
}

PdesScenarioConfig generate_pdes_scenario(std::uint64_t seed) {
  Rng g(seed, 0x15D);
  PdesScenarioConfig cfg;
  cfg.seed = seed;
  // Shapes from 1x2 up to 3x3 patches: always at least two islands (a
  // one-island world has no cross-island physics to get wrong).
  do {
    cfg.islands_x = static_cast<std::size_t>(g.range(1, 3));
    cfg.islands_y = static_cast<std::size_t>(g.range(1, 3));
  } while (cfg.islands_x * cfg.islands_y < 2);
  cfg.island_side = static_cast<std::size_t>(g.range(2, 4));
  const sim::Duration windows[] = {500, 1000, 2000};
  cfg.window = windows[g.below(3)];
  cfg.exponent = g.uniform(2.8, 3.2);
  cfg.sigma_db = g.chance(0.3) ? g.uniform(0.5, 2.0) : 0.0;
  if (g.chance(0.5)) cfg.frame_faults.drop_p = g.uniform(0.0, 0.05);
  if (g.chance(0.3)) cfg.frame_faults.corrupt_p = g.uniform(0.0, 0.03);
  if (g.chance(0.4)) cfg.frame_faults.duplicate_p = g.uniform(0.0, 0.05);
  if (g.chance(0.4)) cfg.frame_faults.delay_p = g.uniform(0.0, 0.05);
  cfg.measure = 6'000'000 + static_cast<sim::Duration>(g.range(0, 6)) *
                                1'000'000;
  cfg.traffic_period = 1'000'000 + static_cast<sim::Duration>(
                                       g.range(0, 4)) * 500'000;
  cfg.crash = g.chance(0.5);
  return cfg;
}

PdesRunOutcome run_pdes_scenario(const PdesScenarioConfig& cfg,
                                 unsigned lanes) {
  PdesRunOutcome out;
  pdes::IslandWorldConfig wc;
  wc.islands_x = cfg.islands_x;
  wc.islands_y = cfg.islands_y;
  wc.island_side = cfg.island_side;
  wc.window = cfg.window;
  wc.lanes = lanes;
  wc.seed = cfg.seed;
  wc.radio_cfg.exponent = cfg.exponent;
  wc.radio_cfg.shadowing_sigma_db = cfg.sigma_db;
  // Ack patience must track the generated window, not the default one
  // (see IslandWorldConfig::node_config).
  wc.node.csma.ack_timeout = 6 * cfg.window;
  if (cfg.frame_faults.drop_p > 0.0 || cfg.frame_faults.corrupt_p > 0.0 ||
      cfg.frame_faults.duplicate_p > 0.0 || cfg.frame_faults.delay_p > 0.0) {
    wc.faults = cfg.frame_faults;
  }

  pdes::IslandWorld world(wc);
  world.start();

  // Formation: fixed budget plus joined-graces. The generated worlds are
  // small (diameter well under the city tier), so this either converges
  // quickly or the topology is genuinely partitioned (heavy shadowing) —
  // both are valid invariance subjects, so joining is NOT a pass/fail
  // criterion here.
  if (auto v = advance(world, 20'000'000); !v.empty()) {
    out.ok = false;
    out.failure = "formation: " + v;
    return out;
  }
  for (int grace = 0; grace < 4 && world.joined_fraction() < 1.0; ++grace) {
    if (auto v = advance(world, world.now() + 5'000'000); !v.empty()) {
      out.ok = false;
      out.failure = "formation: " + v;
      return out;
    }
  }

  // Paced upward traffic from every joined node, scheduled on each node's
  // own island scheduler (phases spread with a prime stride).
  const sim::Time start = world.now();
  const sim::Time end = start + cfg.measure;
  for (std::size_t i = 0; i < world.size(); ++i) {
    if (i == world.root_index()) continue;
    core::MeshNode* node = &world.node(i);
    sim::Scheduler& sched = world.scheduler(world.island_of(i));
    std::uint32_t seq = 0;
    const sim::Time phase =
        100'000 + (static_cast<sim::Time>(i) * 7'919) % cfg.traffic_period;
    for (sim::Time t = start + phase; t < end; t += cfg.traffic_period) {
      const std::uint32_t s = seq++;
      sched.schedule_at(t, [node, i, s] {
        if (!node->routing->joined()) return;
        Buffer pl = {static_cast<std::uint8_t>(i),
                     static_cast<std::uint8_t>(s),
                     static_cast<std::uint8_t>(s >> 8), 0x5A};
        (void)node->routing->send_up(std::move(pl));
      });
    }
  }

  if (cfg.crash) {
    // Island 0's far corner borders two neighbor patches; measure times
    // are whole seconds, so the crash and restart land exactly on window
    // boundaries.
    const std::size_t victim = cfg.island_side * cfg.island_side - 1;
    const sim::Time crash_at = start + cfg.measure / 3;
    if (auto v = advance(world, crash_at); !v.empty()) {
      out.ok = false;
      out.failure = "pre-crash: " + v;
      return out;
    }
    world.node(victim).stop();
    if (auto v = advance(world, crash_at + 3'000'000); !v.empty()) {
      out.ok = false;
      out.failure = "crashed: " + v;
      return out;
    }
    world.node(victim).start(false);
  }
  if (auto v = advance(world, end); !v.empty()) {
    out.ok = false;
    out.failure = "measure: " + v;
    return out;
  }

  out.digest = world.digest();
  out.events = world.executed_events();
  out.cross_island_rx = world.medium_stats().cross_island_rx;
  out.joined_permille =
      static_cast<std::uint64_t>(world.joined_fraction() * 1000.0);
  world.stop();
  return out;
}

PdesFuzzResult run_pdes_fuzz_batch(const PdesFuzzOptions& opt,
                                   runner::Engine& eng) {
  const auto n = static_cast<std::size_t>(opt.runs);
  PdesFuzzResult out;

  struct Slot {
    PdesScenarioConfig cfg;
    PdesRunOutcome serial;
    PdesRunOutcome parallel;
  };
  std::vector<Slot> slots(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots[i].cfg = generate_pdes_scenario(opt.seed_base + i);
  }

  // Both legs of one seed run inside one task: the comparison needs them
  // together, and nesting lanes under engine workers is the production
  // shape anyway (a suite of island worlds on a multicore box).
  out.scenarios_executed = eng.run(n, [&](std::size_t i) {
    slots[i].serial = run_pdes_scenario(slots[i].cfg, 1);
    slots[i].parallel = run_pdes_scenario(slots[i].cfg, opt.lanes);
  });

  // ---- slot-ordered aggregation (the jobs-invariant part) -------------
  std::size_t reported = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Slot& s = slots[i];
    out.digests.push_back(s.serial.digest);
    std::string why;
    if (!s.serial.ok) {
      why = "serial leg failed: " + s.serial.failure;
    } else if (!s.parallel.ok) {
      why = "parallel leg failed: " + s.parallel.failure;
    } else if (s.serial.digest != s.parallel.digest) {
      char buf[192];
      std::snprintf(buf, sizeof buf,
                    "lane-invariance violated: digest %016llx (lanes=1) vs "
                    "%016llx (lanes=%u), events %llu vs %llu",
                    static_cast<unsigned long long>(s.serial.digest),
                    static_cast<unsigned long long>(s.parallel.digest),
                    opt.lanes,
                    static_cast<unsigned long long>(s.serial.events),
                    static_cast<unsigned long long>(s.parallel.events));
      why = buf;
    }
    if (why.empty()) continue;
    out.failing_seeds.push_back(s.cfg.seed);
    if (reported++ < opt.max_reported) {
      char buf[128];
      out.report += "FAIL  " + s.cfg.summary() + "\n";
      out.report += "      " + why + "\n";
      std::snprintf(
          buf, sizeof buf,
          "      reproduce: iiot_fuzz --islands=%u --replay_seed=%llu\n",
          opt.lanes, static_cast<unsigned long long>(s.cfg.seed));
      out.report += buf;
    }
  }
  return out;
}

}  // namespace iiot::testing
