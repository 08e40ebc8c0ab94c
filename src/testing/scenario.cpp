#include "testing/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "core/network.hpp"
#include "dependability/faults.hpp"
#include "energy/meter.hpp"
#include "net/rnfd.hpp"
#include "obs/context.hpp"
#include "radio/medium.hpp"
#include "sim/scheduler.hpp"
#include "testing/checkpointer.hpp"
#include "testing/invariants.hpp"

namespace iiot::testing {

using namespace sim;  // NOLINT: time literals (_s, _ms)

const char* to_string(ScenarioMac m) {
  switch (m) {
    case ScenarioMac::kCsma: return "csma";
    case ScenarioMac::kLpl: return "lpl";
    case ScenarioMac::kRiMac: return "rimac";
    case ScenarioMac::kTdma: return "tdma";
  }
  return "?";
}

const char* to_string(ScenarioTopology t) {
  switch (t) {
    case ScenarioTopology::kLine: return "line";
    case ScenarioTopology::kGrid: return "grid";
    case ScenarioTopology::kRandomField: return "field";
  }
  return "?";
}

std::string ScenarioConfig::summary() const {
  std::string s = "seed=" + std::to_string(seed);
  s += " mac=" + std::string(testing::to_string(mac));
  s += " topo=" + std::string(testing::to_string(topology));
  s += " n=" + std::to_string(nodes);
  s += " spacing=" + std::to_string(spacing).substr(0, 4);
  s += " sigma=" + std::to_string(sigma_db).substr(0, 3);
  s += " phases=" + std::to_string(form_time / 1_s) + "/" +
       std::to_string(fault_time / 1_s) + "/" +
       std::to_string(heal_time / 1_s) + "s";
  s += " crashes=[";
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(crashes[i].node_index);
    if (!crashes[i].repair) s += "!";
  }
  s += "]";
  s += " faults{d=" + std::to_string(frame_faults.drop_p).substr(0, 4) +
       ",c=" + std::to_string(frame_faults.corrupt_p).substr(0, 4) +
       ",u=" + std::to_string(frame_faults.duplicate_p).substr(0, 4) +
       ",y=" + std::to_string(frame_faults.delay_p).substr(0, 4) + "}";
  s += " churn=" + std::to_string(churn_slots);
  s += " checks=";
  if (run_sched_check) s += "S";
  if (run_frag) s += "F";
  if (run_crdt) s += "A";
  if (run_cp) s += "C";
  if (run_rnfd) s += "R";
  if (canary_skip_detach_cleanup) s += " CANARY";
  return s;
}

std::string Fingerprint::to_string() const {
  return "t=" + std::to_string(final_time) +
         " ev=" + std::to_string(events) +
         " tx=" + std::to_string(transmissions) +
         " rx=" + std::to_string(deliveries) +
         " col=" + std::to_string(collisions) +
         " snr=" + std::to_string(snr_losses) +
         " abrt=" + std::to_string(aborted) +
         " fdrop=" + std::to_string(fault_drops) +
         " fdup=" + std::to_string(fault_dups) +
         " fdly=" + std::to_string(fault_delays) +
         " macok=" + std::to_string(mac_delivered) +
         " root=" + std::to_string(root_rx) +
         " repar=" + std::to_string(parent_changes) +
         " join=" + std::to_string(joined_permille) +
         " crash=" + std::to_string(crash_failures) +
         " inj=" + std::to_string(injected_faults) +
         " loop=" + std::to_string(transient_loops) +
         " chk=" + std::to_string(checks_passed);
}

namespace {

constexpr NodeId kChurnIdBase = 0xF0000;

radio::PropagationConfig propagation_for(const ScenarioConfig& cfg) {
  radio::PropagationConfig pcfg;
  pcfg.exponent = cfg.exponent;
  pcfg.shadowing_sigma_db = cfg.sigma_db;
  return pcfg;
}

void write_sample(Buffer& p, std::uint32_t origin, std::uint32_t seq) {
  p.resize(8);
  for (int i = 0; i < 4; ++i) {
    p[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(origin >> (8 * i));
    p[static_cast<std::size_t>(4 + i)] =
        static_cast<std::uint8_t>(seq >> (8 * i));
  }
}

bool read_sample(BytesView p, std::uint32_t& origin, std::uint32_t& seq) {
  if (p.size() != 8) return false;
  origin = 0;
  seq = 0;
  for (int i = 0; i < 4; ++i) {
    origin |= static_cast<std::uint32_t>(p[static_cast<std::size_t>(i)])
              << (8 * i);
    seq |= static_cast<std::uint32_t>(p[static_cast<std::size_t>(4 + i)])
           << (8 * i);
  }
  return true;
}

/// Root-side delivery ledger: counts receptions, well-formedness and
/// (origin, seq) duplicates. Heap-allocated so handler closures can hold a
/// stable pointer.
struct RootLog {
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t rx = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t malformed = 0;

  void record(NodeId expected_origin, BytesView payload, bool check_origin) {
    ++rx;
    std::uint32_t origin = 0;
    std::uint32_t seq = 0;
    if (!read_sample(payload, origin, seq) ||
        (check_origin && origin != expected_origin)) {
      ++malformed;
      return;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(origin) << 32) | seq;
    if (!seen.insert(key).second) ++duplicates;
  }
};

/// A transient listener that attaches mid-run and detaches while frames
/// are on the air — the membership-churn case detach cleanup exists for.
struct ChurnRig {
  energy::Meter meter;
  std::unique_ptr<radio::Radio> radio;
};

/// Runs the fault window with `slots` churn episodes spread across it.
/// Driven from outside the event loop so that on an invariant violation
/// (the canary) no further event — which could dereference the stale
/// bookkeeping — ever executes.
[[nodiscard]] std::string run_fault_window(Checkpointer& cp,
                                           radio::Medium& medium,
                                           sim::Scheduler& sched,
                                           radio::Position near,
                                           sim::Time fault_end, int slots) {
  for (int k = 0; k < slots; ++k) {
    const sim::Time window = fault_end - sched.now();
    const sim::Time at =
        sched.now() + window * static_cast<sim::Time>(k + 1) /
                          static_cast<sim::Time>(slots + 1);
    if (auto v = cp.advance(at); !v.empty()) return v;

    ChurnRig rig;
    rig.radio = std::make_unique<radio::Radio>(
        medium, sched, kChurnIdBase + static_cast<NodeId>(k),
        radio::Position{near.x + 2.0, near.y + 1.5}, rig.meter);
    rig.radio->set_mode(radio::Mode::kListen);

    // Wait (in fine steps, so short frames are observable) for a moment
    // with transmissions in flight, then yank the radio out mid-air.
    const sim::Time deadline = std::min<sim::Time>(fault_end, at + 3_s);
    while (sched.now() < deadline && medium.in_flight() == 0) {
      sched.run_until(std::min<sim::Time>(deadline, sched.now() + 250));
    }
    rig.radio.reset();  // ~Radio → detach while receptions may be live
    ++cp.checks;
    if (auto v = medium.check_consistency(); !v.empty()) {
      return "churn detach: " + v;
    }
  }
  return cp.advance(fault_end);
}

/// Self-contained property checks folded into the scenario tail.
[[nodiscard]] std::string run_subchecks(const ScenarioConfig& cfg,
                                        std::uint64_t& passed) {
  if (cfg.run_sched_check) {
    if (auto v = check_scheduler_properties(cfg.seed); !v.empty()) return v;
    ++passed;
  }
  if (cfg.run_frag) {
    if (auto v = check_frag_roundtrip(cfg.seed); !v.empty()) return v;
    ++passed;
  }
  if (cfg.run_crdt) {
    if (auto v = check_crdt_convergence(cfg.seed, cfg.kv_replicas, cfg.kv_ops);
        !v.empty()) {
      return v;
    }
    ++passed;
  }
  if (cfg.run_cp) {
    if (auto v =
            check_cp_read_your_writes(cfg.seed, cfg.kv_replicas, cfg.kv_ops);
        !v.empty()) {
      return v;
    }
    ++passed;
  }
  return {};
}

/// The world a scenario runs on. CSMA, LPL and RI-MAC run an RPL mesh.
/// TDMA has no routing layer, so it runs a collection line toward node 0
/// whose stations always count as joined.
struct World {
  std::optional<core::MeshNetwork> mesh;
  std::optional<core::TdmaLine> line;

  [[nodiscard]] mac::Mac& mac(std::size_t i) {
    return mesh ? *mesh->node(i).mac : line->station(i).mac;
  }
  [[nodiscard]] radio::Radio& radio(std::size_t i) {
    return mesh ? mesh->node(i).radio : line->station(i).radio;
  }
  [[nodiscard]] double joined_fraction() const {
    return mesh ? mesh->joined_fraction() : 1.0;
  }
  /// Node i's periodic sample: up the DODAG once joined, or to its parent
  /// on the line.
  void send_up(std::size_t i, Buffer payload) {
    if (line) {
      (void)line->send_up(i, std::move(payload));
      return;
    }
    net::RplRouting& r = *mesh->node(i).routing;
    if (r.joined() && !r.is_root()) (void)r.send_up(std::move(payload));
  }
  void crash(std::size_t i) {
    if (mesh) {
      mesh->node(i).stop();
    } else {
      line->station(i).mac.stop();
    }
  }
  void restart(std::size_t i) {
    if (mesh) {
      mesh->node(i).start(false);
    } else {
      line->station(i).mac.start();
    }
  }
};

}  // namespace

ScenarioConfig generate_scenario(std::uint64_t seed) {
  return generate_scenario(seed, FuzzProfile{});
}

ScenarioConfig generate_scenario(std::uint64_t seed,
                                 const FuzzProfile& profile) {
  Rng g(seed, 42);
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.mac = profile.mac ? *profile.mac : static_cast<ScenarioMac>(g.below(4));
  const bool duty =
      cfg.mac == ScenarioMac::kLpl || cfg.mac == ScenarioMac::kRiMac;

  // Profiled node counts replace the per-MAC default ranges; the draw
  // still happens so downstream draws keep their positions either way.
  const auto pick_nodes = [&](std::size_t lo, std::size_t span) {
    const std::uint32_t raw = g.below(static_cast<std::uint32_t>(span));
    if (profile.min_nodes == 0) return lo + raw;
    const std::size_t width = profile.max_nodes >= profile.min_nodes
                                  ? profile.max_nodes - profile.min_nodes + 1
                                  : 1;
    return profile.min_nodes + raw % width;
  };

  if (cfg.mac == ScenarioMac::kTdma) {
    cfg.topology = ScenarioTopology::kLine;  // TDMA is collection-only
    cfg.nodes = pick_nodes(3, 6);
    cfg.spacing = g.uniform(14.0, 22.0);
  } else {
    cfg.topology = profile.topology
                       ? *profile.topology
                       : static_cast<ScenarioTopology>(g.below(3));
    cfg.nodes = cfg.mac == ScenarioMac::kCsma ? pick_nodes(5, 14)
                                              : pick_nodes(4, 5);
    switch (cfg.topology) {
      case ScenarioTopology::kLine: cfg.spacing = g.uniform(14.0, 22.0); break;
      case ScenarioTopology::kGrid: cfg.spacing = g.uniform(12.0, 18.0); break;
      case ScenarioTopology::kRandomField:
        cfg.spacing = g.uniform(12.0, 16.0);
        break;
    }
  }
  cfg.sigma_db = g.chance(0.5) ? g.uniform(0.0, 2.0) : 0.0;
  cfg.exponent = g.uniform(2.8, 3.2);

  cfg.form_time = duty ? 60_s : 25_s;
  cfg.fault_time = seconds(static_cast<double>(20 + g.below(21)));
  cfg.heal_time =
      seconds(static_cast<double>(duty ? 60 + g.below(31) : 40 + g.below(21)));
  // Offered load must respect channel capacity: on a duty-cycled MAC one
  // unicast hop strobes for ~¼–½ s of air (until the sleeper's sample
  // window catches it), and a collection tree multiplies that by hop
  // count. Scale the per-node period with network size so aggregate
  // airtime stays under the channel — sub-second periods would put the
  // mesh into permanent congestion collapse and nothing could settle.
  cfg.traffic_period =
      duty ? seconds(static_cast<double>(cfg.nodes) * (1.0 + 0.1 * g.below(9)))
           : 1'000'000 + g.below(1'000'001);

  const std::uint32_t ncrash = g.below(3);
  for (std::uint32_t k = 0; k < ncrash; ++k) {
    CrashPlan p;
    p.node_index = 1 + g.below(static_cast<std::uint32_t>(cfg.nodes - 1));
    p.mttf_s = g.uniform(5.0, 15.0);
    p.mttr_s = g.uniform(3.0, 8.0);
    p.repair = !g.chance(0.25);
    cfg.crashes.push_back(p);
  }

  if (g.chance(0.6)) {
    if (g.chance(0.5)) cfg.frame_faults.drop_p = g.uniform(0.0, 0.08);
    if (g.chance(0.4)) cfg.frame_faults.corrupt_p = g.uniform(0.0, 0.05);
    if (g.chance(0.4)) cfg.frame_faults.duplicate_p = g.uniform(0.0, 0.10);
    if (g.chance(0.4)) cfg.frame_faults.delay_p = g.uniform(0.0, 0.10);
  }
  cfg.churn_slots = std::max(static_cast<int>(g.below(3)),
                             profile.min_churn_slots);

  cfg.run_sched_check = g.chance(0.5);
  cfg.run_frag = g.chance(0.5);
  cfg.run_crdt = g.chance(0.35) || profile.force_crdt;
  cfg.run_cp = g.chance(0.35);
  const bool clean = cfg.crashes.empty() &&
                     cfg.frame_faults.drop_p == 0.0 &&
                     cfg.frame_faults.corrupt_p == 0.0 &&
                     cfg.frame_faults.duplicate_p == 0.0 &&
                     cfg.frame_faults.delay_p == 0.0;
  cfg.run_rnfd = cfg.mac != ScenarioMac::kTdma && clean &&
                 (g.chance(0.6) || profile.force_rnfd_when_clean);
  cfg.kv_replicas = 3 + static_cast<int>(g.below(3));
  cfg.kv_ops = 20 + static_cast<int>(g.below(31));
  return cfg;
}

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  sim::Scheduler sched;
  // Observability rides along with every fuzzed scenario: the contract is
  // that tracing can be on anywhere without perturbing the simulation, so
  // the fuzzer keeps it on everywhere and audits every span the run
  // produced (check_trace_wellformed at the end). The bounded capacity
  // also exercises the deterministic-drop path on chatty scenarios.
  obs::Context obsctx(sched, 1u << 18);
  obsctx.tracer().set_enabled(true);
  radio::Medium medium(sched, propagation_for(cfg), cfg.seed);
  medium.debug_set_skip_detach_cleanup(cfg.canary_skip_detach_cleanup);
  radio::FaultInjector injector(medium, cfg.seed, cfg.frame_faults);

  const std::size_t n = std::max<std::size_t>(cfg.nodes, 3);
  auto log = std::make_unique<RootLog>();
  World world;
  if (cfg.mac == ScenarioMac::kTdma) {
    mac::TdmaConfig tcfg;
    tcfg.epoch = 1'000'000;
    tcfg.slot = 40'000;
    tcfg.staggered = true;
    world.line.emplace(sched, medium, cfg.seed, n, cfg.spacing, tcfg);
    // Forwarded payloads carry the true origin; the MAC-level src is
    // just the last hop, so origin cross-checking is skipped.
    world.line->start([log = log.get()](NodeId, BytesView p, double) {
      log->record(0, p, /*check_origin=*/false);
    });
  } else {
    const core::MacKind mac = cfg.mac == ScenarioMac::kCsma
                                  ? core::MacKind::kCsma
                              : cfg.mac == ScenarioMac::kLpl
                                  ? core::MacKind::kLpl
                                  : core::MacKind::kRiMac;
    core::MeshNetwork& net = world.mesh.emplace(
        sched, medium, Rng(cfg.seed, 5), core::paced_node_config(mac));
    switch (cfg.topology) {
      case ScenarioTopology::kLine: net.build_line(n, cfg.spacing); break;
      case ScenarioTopology::kGrid: net.build_grid(n, cfg.spacing); break;
      case ScenarioTopology::kRandomField:
        net.build_random_field(n,
                               cfg.spacing * std::sqrt(static_cast<double>(n)));
        break;
    }
    net.start(0);
    net.root().routing->set_delivery_handler(
        [log = log.get()](NodeId origin, BytesView payload, std::uint8_t) {
          log->record(origin, payload, /*check_origin=*/true);
        });
  }
  core::MeshNetwork* mesh = world.mesh ? &*world.mesh : nullptr;

  // Pre-scheduled periodic traffic from every non-root node, phased so
  // senders never align. On the mesh the horizon extends past the
  // nominal end so grace extensions (below) stay under load; surplus
  // events simply never run. The line has no grace and falls quiet 2 s
  // before the end.
  const sim::Time end_time = cfg.form_time + cfg.fault_time + cfg.heal_time;
  const sim::Time traffic_end = mesh ? end_time + 90_s : end_time - 2_s;
  for (std::size_t i = 1; i < n; ++i) {
    const auto origin = static_cast<std::uint32_t>(i);
    const sim::Time phase =
        200'000 + (static_cast<sim::Time>(i) * 7'919) % cfg.traffic_period;
    std::uint32_t seq = 0;
    for (sim::Time t = cfg.form_time / 2 + phase; t < traffic_end;
         t += cfg.traffic_period) {
      sched.schedule_at(t, [&world, i, origin, seq] {
        Buffer p;
        write_sample(p, origin, seq);
        world.send_up(i, std::move(p));
      });
      ++seq;
    }
  }

  // RNFD false-positive watch (clean scenarios only): the root stays up
  // throughout, so no detector may ever declare it dead.
  std::vector<std::unique_ptr<net::RnfdDetector>> detectors;
  if (cfg.run_rnfd && mesh != nullptr) {
    net::RnfdConfig rcfg;
    if (cfg.mac != ScenarioMac::kCsma) {
      // On duty-cycled MACs a broadcast occupies ~a full wake interval
      // of airtime; 1s-paced gossip from every node would saturate the
      // channel and manufacture the probe losses it then votes on.
      rcfg.gossip_interval = 5'000'000;
    }
    for (std::size_t i = 1; i < n; ++i) {
      detectors.push_back(std::make_unique<net::RnfdDetector>(
          *mesh->node(i).routing, sched,
          Rng(cfg.seed, 300 + static_cast<std::uint64_t>(i)), rcfg));
    }
    sched.schedule_at(cfg.form_time / 2, [&detectors] {
      for (auto& d : detectors) d->start();
    });
  }

  std::uint64_t crash_failures = 0;
  std::uint64_t subchecks_passed = 0;
  Checkpointer cp{sched, medium, mesh, cfg.trace, 0, 0};

  const auto finish = [&](std::string failure) {
    ScenarioResult res;
    res.ok = failure.empty();
    res.failure = std::move(failure);
    Fingerprint& fp = res.fingerprint;
    fp.final_time = sched.now();
    fp.events = sched.executed_events();
    const radio::MediumStats& ms = medium.stats();
    fp.transmissions = ms.transmissions;
    fp.deliveries = ms.deliveries;
    fp.collisions = ms.collisions;
    fp.snr_losses = ms.snr_losses;
    fp.aborted = ms.aborted;
    fp.fault_drops = ms.fault_drops;
    fp.fault_dups = ms.fault_dups;
    fp.fault_delays = ms.fault_delays;
    for (std::size_t i = 0; i < n; ++i) {
      fp.mac_delivered += world.mac(i).stats().delivered;
      if (mesh) {
        fp.parent_changes += mesh->node(i).routing->stats().parent_changes;
      }
    }
    fp.root_rx = log->rx;
    fp.joined_permille =
        static_cast<std::uint64_t>(world.joined_fraction() * 1000.0 + 0.5);
    fp.crash_failures = crash_failures;
    const radio::FaultInjectorStats& is = injector.stats();
    fp.injected_faults =
        is.dropped + is.corrupted + is.duplicated + is.delayed;
    fp.transient_loops = cp.transient_loops;
    fp.checks_passed = cp.checks + subchecks_passed;
    return res;
  };

  // ---- Phase 1: formation --------------------------------------------
  if (auto v = cp.advance(cfg.form_time); !v.empty()) {
    return finish("formation: " + v);
  }
  // Duty-cycled MACs on unlucky geometries may need a little extra; two
  // bounded grace extensions keep the generator's time budget honest
  // without flaking.
  for (int grace = 0; grace < 2; ++grace) {
    if (cfg.topology == ScenarioTopology::kRandomField) break;
    if (world.joined_fraction() >= 1.0) break;
    if (auto v = cp.advance(sched.now() + 15_s); !v.empty()) {
      return finish("formation: " + v);
    }
  }
  const double baseline = world.joined_fraction();
  if (cfg.topology != ScenarioTopology::kRandomField && baseline < 1.0) {
    return finish("formation: only " + std::to_string(baseline) +
                  " of nodes joined the DODAG");
  }

  // ---- Phase 2: faults ------------------------------------------------
  // The injector draws only from its own stream, so arming it when every
  // fault probability is zero changes nothing.
  injector.enable();
  std::vector<std::unique_ptr<dependability::CrashProcess>> procs;
  std::vector<std::size_t> crashed;
  for (const CrashPlan& plan : cfg.crashes) {
    const std::size_t idx = 1 + plan.node_index % (n - 1);
    if (std::find(crashed.begin(), crashed.end(), idx) != crashed.end()) {
      continue;  // one process per node
    }
    dependability::FaultConfig fc;
    fc.mttf_seconds = plan.mttf_s;
    fc.mttr_seconds = plan.mttr_s;
    fc.repair = plan.repair;
    procs.push_back(std::make_unique<dependability::CrashProcess>(
        sched, Rng(cfg.seed, 500 + static_cast<std::uint64_t>(idx)), fc,
        [&world, &crash_failures, idx] {
          ++crash_failures;
          world.crash(idx);
        },
        [&world, idx] { world.restart(idx); }));
    crashed.push_back(idx);
    procs.back()->start();
  }

  if (auto v = run_fault_window(cp, medium, sched, world.radio(0).position(),
                                sched.now() + cfg.fault_time,
                                cfg.churn_slots);
      !v.empty()) {
    return finish("fault phase: " + v);
  }

  // ---- Phase 3: heal --------------------------------------------------
  injector.disable();
  for (std::size_t i = 0; i < procs.size(); ++i) {
    procs[i]->stop();
    if (!procs[i]->up()) world.restart(crashed[i]);  // replace dead gear
  }
  // Version bump clears any stale state (rank lies from corrupted DIOs
  // included) and forces a fresh DODAG.
  if (mesh) mesh->root().routing->global_repair();
  if (auto v = cp.advance(sched.now() + cfg.heal_time); !v.empty()) {
    return finish("heal: " + v);
  }

  // ---- Final cross-layer invariants ----------------------------------
  // Eventual repair: once faults stop, the DODAG must settle loop-free
  // and fully joined. Bounded grace covers duty-cycled stragglers.
  // On a settle failure the parent table is the evidence; append it so
  // a replayed seed is diagnosable from the one-line report alone.
  const auto settled = [&]() -> std::string {
    if (mesh == nullptr) return {};
    if (auto v = check_routing_acyclic(*mesh); !v.empty()) {
      return "loop persists after heal: " + v + routing_table(*mesh);
    }
    const double joined = mesh->joined_fraction();
    if (cfg.topology != ScenarioTopology::kRandomField && joined < 1.0) {
      return "network never fully re-joined (" + std::to_string(joined) +
             ")" + routing_table(*mesh);
    }
    if (cfg.topology == ScenarioTopology::kRandomField &&
        joined + 1e-9 < baseline) {
      return "joined fraction regressed (" + std::to_string(baseline) +
             " -> " + std::to_string(joined) + ")";
    }
    return {};
  };
  std::string settle_fail = settled();
  for (int grace = 0; grace < 2 && !settle_fail.empty(); ++grace) {
    if (auto v = cp.advance(sched.now() + 15_s); !v.empty()) {
      return finish("heal: " + v);
    }
    settle_fail = settled();
  }
  if (!settle_fail.empty()) {
    return finish("heal: " + settle_fail);
  }
  const bool corrupting = cfg.frame_faults.corrupt_p > 0.0;
  if (log->rx == 0) {
    return finish("delivery: no data ever reached the root");
  }
  if (!corrupting && log->malformed != 0) {
    return finish("delivery: " + std::to_string(log->malformed) +
                  " malformed payloads at the root without corruption");
  }
  // The line has no retransmission dedup above the MAC, so duplicates at
  // its root are legitimate whenever acks can be lost.
  if (mesh && !corrupting && log->duplicates != 0) {
    return finish("delivery: " + std::to_string(log->duplicates) +
                  " duplicate (origin,seq) deliveries at the root");
  }
  for (auto& d : detectors) {
    if (d->root_declared_dead()) {
      std::string detail = "rnfd: live root declared dead (false positive) [";
      for (std::size_t i = 0; i < detectors.size(); ++i) {
        const net::RnfdStats& st = detectors[i]->stats();
        char buf[96];
        std::snprintf(buf, sizeof buf, "%s%zu:%s p=%llu/%llu ep=%llu sus=%zu%s",
                      i ? " " : "", i + 1,
                      detectors[i]->is_sentinel() ? "S" : "-",
                      static_cast<unsigned long long>(st.probes_acked),
                      static_cast<unsigned long long>(st.probes_sent),
                      static_cast<unsigned long long>(st.epoch_advances),
                      detectors[i]->counter().suspect_count(),
                      detectors[i]->root_declared_dead() ? "!" : "");
        detail += buf;
      }
      detail += "]";
      return finish(detail);
    }
  }

  ++cp.checks;
  if (auto v = check_trace_wellformed(obsctx.tracer()); !v.empty()) {
    return finish(v);
  }

  if (auto v = run_subchecks(cfg, subchecks_passed); !v.empty()) {
    return finish(v);
  }
  return finish({});
}

}  // namespace iiot::testing
