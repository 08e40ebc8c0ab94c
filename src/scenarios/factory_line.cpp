// Factory line: a linear conveyor of stations collecting spindle
// temperatures over a TDMA schedule into the line controller, which
// feeds the backend tier (bus → store → window rules). A deterministic
// overheat episode at the mid-line station must trip the interlock —
// a trailing-window average rule that halts the line — within bounded
// latency. This is the paper's §III "single coherent system" loop
// (sense → store → decide → actuate) under the E2-style synced MAC.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "scenarios/specs.hpp"
#include "scenarios/world_util.hpp"

namespace iiot::scenarios::detail {

namespace {

constexpr std::uint64_t kSalt = 0xFAC701;
constexpr sim::Duration kSlot = 25'000;  // fits ~6 frames + acks

struct Sizes {
  std::size_t stations;
  std::size_t shards;
  sim::Duration measure;
};

Sizes sizes_for(Tier tier) {
  switch (tier) {
    case Tier::kSmoke: return {10, 1, 80'000'000};
    case Tier::kSoak: return {24, 3, 150'000'000};
    case Tier::kCity: return {50, 40, 240'000'000};
  }
  return {10, 1, 80'000'000};
}

RunParams params_for(Tier tier, std::uint64_t seed) {
  const Sizes s = sizes_for(tier);
  RunParams p;
  p.tier = tier;
  p.seed = seed;
  p.shards = s.shards;
  p.nodes_per_shard = s.stations;
  p.measure_time = s.measure;
  p.tracing = tier != Tier::kCity;
  return p;
}

/// Station i's temperature at sample k: a small rational-arithmetic
/// wiggle around a per-station base (no libm — values must be exact
/// across machines), plus the overheat episode at the mid-line station.
double station_temp(std::size_t i, std::uint32_t k, bool hot) {
  const double base = 40.0 + 1.5 * static_cast<double>(i % 7);
  const double wiggle =
      0.25 * static_cast<double>((i * 31 + k * 17) % 9) - 1.0;
  return base + wiggle + (hot ? 45.0 : 0.0);
}

std::string station_topic(std::size_t i) {
  return "factory/st" + std::to_string(i) + "/temp";
}

ShardResult run_shard(const RunParams& p, std::size_t shard) {
  const std::uint64_t wseed = shard_seed(p.seed, shard, kSalt);
  const std::size_t n = p.nodes_per_shard;
  Shard sh("factory_line", p, wseed);
  sim::Scheduler& sched = sh.sched;

  // The staggered schedule needs (depth_max + 1) slots per epoch for a
  // sample to ride the whole chain within one epoch.
  mac::TdmaConfig tcfg;
  tcfg.slot = kSlot;
  tcfg.epoch = static_cast<sim::Duration>(n + 2) * kSlot;
  tcfg.staggered = true;
  core::TdmaLine line(sched, sh.medium, wseed, n, 18.0, tcfg);

  // ---- backend tier at the line controller ---------------------------
  // Interlock: sustained overheat (trailing-window average) halts the
  // line. The latch turns repeated firings of one episode into one trip.
  const std::size_t hot_station = n / 2;
  const sim::Duration period =
      static_cast<sim::Duration>(std::max<std::size_t>(2, (n + 5) / 6)) *
      tcfg.epoch;
  std::uint64_t trips = 0;
  std::uint64_t halt_cmds = 0;
  bool halted = false;
  sim::Time first_trip_at = 0;
  backend::WindowCondition overheat;
  overheat.topic_filter = station_topic(hot_station);
  overheat.window = 4 * period;
  overheat.fn = agg::AggFn::kAvg;
  overheat.op = backend::CmpOp::kGreater;
  overheat.threshold = 70.0;
  overheat.min_samples = 3;
  backend::Action halt;
  halt.command_topic = "cmd/line/halt";
  halt.command_payload = "0";
  halt.callback = [&](const backend::RuleFiring&) {
    if (halted) return;
    halted = true;
    ++trips;
    if (first_trip_at == 0) first_trip_at = sched.now();
    sched.schedule_after(10'000'000, [&halted] { halted = false; });
  };
  auto& bus = sh.sys.bus();
  sh.sys.rules().add_window_rule("line-interlock", overheat, halt);
  bus.subscribe("cmd/line/halt",
                [&halt_cmds](const std::string&, BytesView) { ++halt_cmds; });

  // ---- forwarding chain + controller ingest --------------------------
  sh.ledger.sink = [&bus](std::uint32_t origin, double value, sim::Time) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f", value);
    bus.publish(station_topic(origin), std::string(buf));
  };
  line.start([&sh](NodeId, BytesView pl, double) {
    sh.ledger.record(pl, sh.sched.now());
  });

  // ---- pre-scheduled sampling ----------------------------------------
  // Stations sample every `period`, phase-staggered across epochs so a
  // relay never forwards more than ~n/K descendants' frames per window.
  const sim::Time start = 2 * tcfg.epoch;
  const sim::Time end = start + p.measure_time;
  const sim::Time last_send = end - 5 * tcfg.epoch;
  const sim::Time hot_from = start + (p.measure_time * 2) / 5;
  const sim::Time hot_to = start + (p.measure_time * 11) / 20;
  sim::Time first_hot_send = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const auto origin = static_cast<std::uint32_t>(i);
    const sim::Time phase =
        (static_cast<sim::Time>(i) % ((period / tcfg.epoch))) * tcfg.epoch +
        1'000;
    std::uint32_t seq = 0;
    for (sim::Time t = start + phase; t < last_send; t += period) {
      const bool hot = i == hot_station && t >= hot_from && t < hot_to;
      if (hot && first_hot_send == 0) first_hot_send = t;
      sched.schedule_at(t, [&line, &sh, origin, seq, hot, i] {
        Buffer pl;
        write_timed(pl, origin, seq, sh.sched.now(),
                    station_temp(i, seq, hot));
        if (line.send_up(i, std::move(pl))) ++sh.sent;
      });
      ++seq;
    }
  }

  // ---- run ------------------------------------------------------------
  if (!sh.advance(end, "run")) return sh.result();
  if (sh.ledger.malformed != 0) {
    return sh.fail("malformed payloads at the controller");
  }
  if (trips == 0) {
    return sh.fail("overheat episode never tripped the interlock");
  }
  if (halt_cmds < trips) {
    return sh.fail("interlock fired without a halt command");
  }
  // The store also holds the halt commands: count the station series.
  const auto& store = sh.sys.store();
  std::uint64_t points = 0;
  for (std::size_t i = 1; i < n; ++i) {
    points += store.points(store.find(station_topic(i)));
  }
  if (points != sh.ledger.latencies_us.size()) {
    return sh.fail("backend stored " + std::to_string(points) +
                   " points for " +
                   std::to_string(sh.ledger.latencies_us.size()) +
                   " delivered samples");
  }

  const double trip_latency_s =
      first_hot_send != 0 && first_trip_at > first_hot_send
          ? static_cast<double>(first_trip_at - first_hot_send) / 1e6
          : 0.0;
  return sh.finish(line, {static_cast<double>(trips), trip_latency_s,
                          static_cast<double>(points),
                          static_cast<double>(sh.sys.rules().firings())});
}

std::vector<ExtraKpi> extras() {
  return {{"interlock_trips", Merge::kSum, 0.0, 0.5},
          {"interlock_latency_s", Merge::kAvg, 0.10, 0.5},
          {"backend_points", Merge::kSum, 0.02, 4.0},
          {"rule_firings", Merge::kSum, 0.10, 2.0}};
}

std::vector<KpiBound> bounds_for(Tier tier) {
  const Sizes s = sizes_for(tier);
  const double shards = static_cast<double>(s.shards);
  // Epoch grows with the chain; latency bounds scale with it.
  const double epoch_us =
      static_cast<double>((s.stations + 2) * kSlot);
  return {{"delivery_ratio", 0.90, 1.0},
          {"duty_cycle", 0.0, 0.25},
          {"latency_p99_us", 0.0, 8.0 * epoch_us},
          {"interlock_trips", shards, 6.0 * shards},
          {"interlock_latency_s", 0.5, 60.0}};
}

testing::FuzzProfile fuzz_profile() {
  testing::FuzzProfile fp;
  fp.mac = testing::ScenarioMac::kTdma;
  fp.topology = testing::ScenarioTopology::kLine;
  fp.min_nodes = 6;
  fp.max_nodes = 14;
  return fp;
}

}  // namespace

ScenarioSpec factory_line_spec() {
  return {"factory_line",
          "linear conveyor, TDMA-synced collection, window-rule interlock",
          params_for,
          run_shard,
          extras,
          bounds_for,
          fuzz_profile};
}

}  // namespace iiot::scenarios::detail
