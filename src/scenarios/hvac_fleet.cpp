// HVAC building fleet: each shard is one building — an LPL duty-cycled
// zone-sensor mesh whose border router feeds a per-building backend
// store. Zone temperatures roll up through the store's chunk-rollup
// aggregate path into a building average, and those merge into the
// fleet average across shards; a window rule per building raises
// overheat alerts on a deterministic hot zone. The paper's §IV energy
// story (E1) plus the backend query path (E9) as one standing scenario.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "backend/rules.hpp"
#include "backend/timeseries.hpp"
#include "backend/topic_bus.hpp"
#include "obs/context.hpp"
#include "radio/medium.hpp"
#include "scenarios/specs.hpp"
#include "scenarios/world_util.hpp"
#include "sim/scheduler.hpp"

namespace iiot::scenarios::detail {

namespace {

constexpr std::uint64_t kSalt = 0x47AC;

struct Sizes {
  std::size_t zones;  // nodes per building (incl. border router)
  std::size_t buildings;
  sim::Duration measure;
};

Sizes sizes_for(Tier tier) {
  switch (tier) {
    case Tier::kSmoke: return {9, 2, 120'000'000};
    case Tier::kSoak: return {16, 4, 180'000'000};
    // 5x5 buildings: a 6x6 LPL grid at this pitch runs at the edge of
    // strobe-airtime collapse (delivery ~0.74) — a standing scenario
    // must sit in the stable regime, not probe the cliff. Measure time
    // holds ~5 sampling periods plus a full period of phase stagger
    // (the hot samples are seqs 2-3); the 25-zone period is 60 s.
    case Tier::kCity: return {25, 50, 400'000'000};
  }
  return {9, 2, 120'000'000};
}

RunParams params_for(Tier tier, std::uint64_t seed) {
  const Sizes s = sizes_for(tier);
  RunParams p;
  p.tier = tier;
  p.seed = seed;
  p.shards = s.buildings;
  p.nodes_per_shard = s.zones;
  p.measure_time = s.measure;
  p.tracing = tier != Tier::kCity;
  return p;
}

/// Zone temperature: rational arithmetic only (exact across machines).
double zone_temp(std::size_t zone, std::uint32_t k, bool hot) {
  const double base = 21.0 + 0.3 * static_cast<double>(zone % 7);
  const double drift =
      0.2 * static_cast<double>((zone * 13 + k * 7) % 11) - 1.0;
  return base + drift + (hot ? 8.0 : 0.0);
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

  core::MeshNetwork net(sched, medium, Rng(wseed, 5),
                        core::paced_node_config(core::MacKind::kLpl));
  net.build_grid(n, 14.0);
  net.start(0);

  // ---- building backend ----------------------------------------------
  backend::TopicBus bus;
  backend::TimeSeriesStore store;
  std::vector<backend::SeriesId> series(n, backend::kInvalidSeries);
  std::vector<backend::TopicBus::SubId> ingest_subs;
  const std::string bprefix = "hvac/b" + std::to_string(shard);
  for (std::size_t i = 1; i < n; ++i) {
    const std::string topic = bprefix + "/z" + std::to_string(i) + "/temp";
    series[i] = store.intern(topic);
    ingest_subs.push_back(bus.subscribe(
        topic, [&store, sid = series[i], &sched](const std::string&,
                                                 BytesView payload) {
          char buf[64];
          const std::size_t len = std::min(payload.size(), sizeof buf - 1);
          __builtin_memcpy(buf, payload.data(), len);
          buf[len] = '\0';
          store.append(sid, sched.now(), std::strtod(buf, nullptr));
        }));
  }
  backend::RuleEngine rules(bus, &store);

  // Sampling period scales with building size — LPL channel capacity:
  // a multi-hop sample costs ~avg-depth x half the 500 ms wake interval
  // of strobe airtime, and depth grows with the grid too, so (n-1)
  // senders need ~2.5 s of period per zone to stay comfortably under
  // 50% utilisation at the 6x6 city grid. Declared up front because the
  // alert window derives from it.
  const sim::Duration period = std::max<sim::Duration>(
      15'000'000, static_cast<sim::Duration>(n - 1) * 2'500'000);

  const std::size_t hot_zone = 1 + (n / 2) % (n - 1);
  std::uint64_t alerts = 0;
  backend::WindowCondition overheat;
  overheat.topic_filter =
      bprefix + "/z" + std::to_string(hot_zone) + "/temp";
  // Half a sampling period: the window normally holds just the latest
  // reading, so one delivered hot sample fires the rule — LPL loses a
  // few percent of samples, and requiring two survivors in one window
  // made the alert hostage to which ones. Threshold 25 keeps a window
  // diluted by a straggler cold sample (avg ~25.5) firing while staying
  // clear of the cold ceiling (~23.6).
  overheat.window = period / 2;
  overheat.fn = agg::AggFn::kAvg;
  overheat.op = backend::CmpOp::kGreater;
  overheat.threshold = 25.0;
  overheat.min_samples = 1;
  backend::Action alert;
  alert.command_topic = "cmd/b" + std::to_string(shard) + "/hvac/boost";
  alert.command_payload = "1";
  alert.callback = [&alerts](const backend::RuleFiring&) { ++alerts; };
  rules.add_window_rule("zone-overheat", overheat, alert);

  auto ledger = std::make_unique<detail::Ledger>();
  std::uint64_t hot_delivered = 0;
  ledger->sink = [&](std::uint32_t origin, double value, sim::Time) {
    const std::size_t zone = origin;  // mesh node id == zone index
    if (zone == 0 || zone >= n) return;
    if (value > 25.0) ++hot_delivered;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f", value);
    bus.publish(bprefix + "/z" + std::to_string(zone) + "/temp",
                std::string(buf));
  };
  net.root().routing->set_delivery_handler(
      [lg = ledger.get(), &sched](NodeId, BytesView payload, std::uint8_t) {
        lg->record(payload, sched.now());
      });

  // ---- formation ------------------------------------------------------
  ShardResult r;
  r.nodes = n;
  Stepper cp{sched, medium, &net, 0};
  const sim::Time form = 60'000'000;
  if (auto v = cp.advance(form); !v.empty()) {
    r.failure = "hvac_fleet: formation: " + v;
    return r;
  }
  for (int grace = 0; grace < 4 && net.joined_fraction() < 1.0; ++grace) {
    if (auto v = cp.advance(sched.now() + 15'000'000); !v.empty()) {
      r.failure = "hvac_fleet: formation: " + v;
      return r;
    }
  }
  if (net.joined_fraction() < 1.0) {
    r.failure = "hvac_fleet: building mesh never fully joined (" +
                std::to_string(net.joined_fraction()) + ")";
    return r;
  }

  // ---- duty-cycled sampling ------------------------------------------
  const sim::Time start = sched.now();
  const sim::Time end = start + p.measure_time;
  const sim::Time last_send = end - 10'000'000;
  std::uint64_t sent = 0;
  for (std::size_t i = 1; i < n; ++i) {
    core::MeshNode* node = &net.node(i);
    const auto origin = static_cast<std::uint32_t>(i);
    // Spread send phases evenly across the whole period: a burst of
    // near-simultaneous LPL strobes from every zone is the congestion
    // worst case, not the average one.
    const sim::Time phase =
        200'000 + (static_cast<sim::Time>(i) * period) / n;
    std::uint32_t seq = 0;
    for (sim::Time t = start + phase; t < last_send; t += period) {
      // Samples 2 and 3 of the hot zone run hot: index-based so every
      // tier (whose period differs) sees exactly two hot samples.
      const bool hot = i == hot_zone && seq >= 2 && seq <= 3;
      sched.schedule_at(t, [node, origin, seq, hot, i, &sent, &sched] {
        if (!node->routing->joined()) return;
        Buffer pl;
        write_timed(pl, origin, seq, sched.now(), zone_temp(i, seq, hot));
        if (node->routing->send_up(std::move(pl))) ++sent;
      });
      ++seq;
    }
  }

  if (auto v = cp.advance(end); !v.empty()) {
    r.failure = "hvac_fleet: " + v;
    return r;
  }

  // ---- final invariants ----------------------------------------------
  if (auto v = testing::check_routing_acyclic(net); !v.empty()) {
    r.failure = "hvac_fleet: " + v;
    return r;
  }
  if (ledger->malformed != 0 || ledger->duplicates != 0) {
    r.failure = "hvac_fleet: malformed or duplicate deliveries at the root";
    return r;
  }
  if (ledger->latencies_us.empty()) {
    r.failure = "hvac_fleet: no zone sample ever reached the router";
    return r;
  }
  // Exact implication, not a delivery bet: every delivered hot sample
  // must fire the rule, but a building whose two hot samples were both
  // lost in the mesh has nothing to alert on (the delivery-ratio KPI is
  // what judges the mesh).
  if (hot_delivered > 0 && alerts == 0) {
    r.failure = "hvac_fleet: hot samples reached the store but the "
                "overheat rule never fired";
    return r;
  }
  if (p.tracing) {
    if (auto v = testing::check_trace_wellformed(obsctx.tracer());
        !v.empty()) {
      r.failure = "hvac_fleet: " + v;
      return r;
    }
  }

  // ---- backend rollup query ------------------------------------------
  // Building average via the store's chunk-rollup aggregate path; the
  // downsample pass keeps the bucketed query path exercised too.
  agg::PartialAggregate building;
  for (std::size_t i = 1; i < n; ++i) {
    building.merge(store.aggregate(series[i], start, end));
  }
  if (building.count != store.stats().appends) {
    r.failure = "hvac_fleet: rollup aggregate missed stored points";
    return r;
  }
  const auto buckets =
      store.downsample(series[hot_zone], start, end, 30'000'000);

  r.sent = sent;
  r.delivered = ledger->latencies_us.size();
  r.latencies_us = std::move(ledger->latencies_us);
  collect_duty(net, sched.now(), r.duty_sum, r.duty_nodes);
  r.extras = {building.evaluate(agg::AggFn::kAvg),
              static_cast<double>(alerts),
              static_cast<double>(store.stats().appends),
              static_cast<double>(buckets.size())};
  return r;
}

std::vector<ExtraKpi> extras() {
  return {{"fleet_avg_temp", Merge::kAvg, 0.0, 0.2},
          {"overheat_alerts", Merge::kSum, 0.15, 3.0},
          {"backend_points", Merge::kSum, 0.05, 8.0},
          {"rollup_buckets", Merge::kSum, 0.05, 2.0}};
}

std::vector<KpiBound> bounds_for(Tier tier) {
  const Sizes s = sizes_for(tier);
  return {{"delivery_ratio", 0.80, 1.0},
          {"duty_cycle", 0.0, 0.15},
          {"fleet_avg_temp", 20.0, 26.0},
          // Expected ~2 per building; halved to stay a sanity floor even
          // when a few buildings lose a hot sample to the mesh.
          {"overheat_alerts", static_cast<double>(s.buildings) * 0.5, 1e9}};
}

testing::FuzzProfile fuzz_profile() {
  testing::FuzzProfile fp;
  fp.mac = testing::ScenarioMac::kLpl;
  fp.topology = testing::ScenarioTopology::kGrid;
  fp.min_nodes = 6;
  fp.max_nodes = 12;
  return fp;
}

}  // namespace

ScenarioSpec hvac_fleet_spec() {
  return {"hvac_fleet",
          "building fleet, LPL duty-cycled sensing, backend rollup queries",
          params_for,
          run_shard,
          extras,
          bounds_for,
          fuzz_profile};
}

}  // namespace iiot::scenarios::detail
