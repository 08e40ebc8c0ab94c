// Shared world-building for the curated scenarios (internal to
// src/scenarios/). The timed-sample payload and the root-side Ledger
// mirror the fuzzer's delivery ledger but carry timestamps and values,
// so scenarios can report end-to-end latency and feed the backend.
//
// The four sharded scenarios (factory_line, hvac_fleet, mine_tunnel,
// mobile_yard) build every shard on one harness, Shard: a scheduler, a
// core::System that supplies the obs context and the one backend plane
// (bus, store, rule engine, with the "+/+/#" ingest subscribed before
// any rule), the scenario medium, a Ledger and a testing::Checkpointer
// (shared with the fuzzer). It holds the steps they share: phase
// advances, bounded settle loops, per-node sampling and the epilogue
// that audits the trace and fills the ShardResult. city_grid is one
// IslandWorld and builds its own world.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/network.hpp"
#include "core/system.hpp"
#include "obs/context.hpp"
#include "radio/medium.hpp"
#include "scenarios/scenario_lib.hpp"
#include "sim/scheduler.hpp"
#include "testing/checkpointer.hpp"
#include "testing/invariants.hpp"

namespace iiot::scenarios::detail {

/// 24-byte timed sample: origin, sequence, send time, value (IEEE-754
/// bits — encoded as an integer, so the round trip is exact).
inline void write_timed(Buffer& p, std::uint32_t origin, std::uint32_t seq,
                        sim::Time sent, double value) {
  p.resize(24);
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  __builtin_memcpy(&bits, &value, sizeof bits);
  for (int i = 0; i < 4; ++i) {
    p[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(origin >> (8 * i));
    p[static_cast<std::size_t>(4 + i)] =
        static_cast<std::uint8_t>(seq >> (8 * i));
  }
  for (int i = 0; i < 8; ++i) {
    p[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(sent >> (8 * i));
    p[static_cast<std::size_t>(16 + i)] =
        static_cast<std::uint8_t>(bits >> (8 * i));
  }
}

inline bool read_timed(BytesView p, std::uint32_t& origin,
                       std::uint32_t& seq, sim::Time& sent, double& value) {
  if (p.size() != 24) return false;
  origin = 0;
  seq = 0;
  sent = 0;
  std::uint64_t bits = 0;
  for (int i = 0; i < 4; ++i) {
    origin |= static_cast<std::uint32_t>(p[static_cast<std::size_t>(i)])
              << (8 * i);
    seq |= static_cast<std::uint32_t>(p[static_cast<std::size_t>(4 + i)])
           << (8 * i);
  }
  for (int i = 0; i < 8; ++i) {
    sent |= static_cast<sim::Time>(p[static_cast<std::size_t>(8 + i)])
            << (8 * i);
    bits |= static_cast<std::uint64_t>(p[static_cast<std::size_t>(16 + i)])
            << (8 * i);
  }
  __builtin_memcpy(&value, &bits, sizeof value);
  return true;
}

/// Root-side ledger: dedups (origin, seq), records end-to-end latency,
/// and hands fresh samples to an optional sink (backend ingest).
struct Ledger {
  std::uint64_t rx = 0;
  std::uint64_t malformed = 0;
  std::uint64_t duplicates = 0;
  std::vector<double> latencies_us;
  std::unordered_set<std::uint64_t> seen;
  /// sink(origin, value, sent_time) for each first-time delivery.
  std::function<void(std::uint32_t, double, sim::Time)> sink;

  void record(BytesView payload, sim::Time now) {
    ++rx;
    std::uint32_t origin = 0;
    std::uint32_t seq = 0;
    sim::Time sent = 0;
    double value = 0.0;
    if (!read_timed(payload, origin, seq, sent, value) || sent > now) {
      ++malformed;
      return;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(origin) << 32) | seq;
    if (!seen.insert(key).second) {
      ++duplicates;
      return;
    }
    latencies_us.push_back(static_cast<double>(now - sent));
    if (sink) sink(origin, value, sent);
  }
};

inline energy::Meter& meter_of(core::MeshNetwork& net, std::size_t i) {
  return net.node(i).meter;
}
inline energy::Meter& meter_of(core::TdmaLine& line, std::size_t i) {
  return line.station(i).meter;
}

/// One shard's world and the steps every sharded scenario shares. The
/// members are declared so that the obs context (inside `sys`) outlives
/// the medium; the scenario's own mesh, declared after the Shard, is
/// destroyed before both. `sys` is the shard's one backend plane; the
/// mesh stays outside System::add_mesh, which would seed its medium
/// from the System's stream instead of `wseed`.
struct Shard {
  /// Simulated time of one settle round.
  static constexpr sim::Duration kRound = 15'000'000;

  Shard(const char* scenario, const RunParams& p, std::uint64_t wseed)
      : sys(sched, wseed, system_config(p)),
        medium(sched, propagation(), wseed),
        name(scenario) {
    r.nodes = p.nodes_per_shard;
  }
  // Callbacks in the world hold the Shard's address.
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Makes `net` the shard's mesh: checkpoints count its routing loops,
  /// and its root hands every delivery to the ledger.
  void collect(core::MeshNetwork& net) {
    cp.mesh = &net;
    net.root().routing->set_delivery_handler(
        [this](NodeId, BytesView payload, std::uint8_t) {
          ledger.record(payload, sched.now());
        });
  }

  /// Checkpointed advance to `to`; a violation fails the shard with
  /// "<scenario>: <phase>: <violation>".
  bool advance(sim::Time to, const char* phase) {
    const std::string v = cp.advance(to);
    if (!v.empty()) r.failure = name + ": " + phase + ": " + v;
    return v.empty();
  }

  /// Up to `rounds` more rounds of advancing while `holds()`.
  template <typename Pred>
  bool settle(int rounds, const char* phase, Pred holds) {
    for (int g = 0; g < rounds && holds(); ++g) {
      if (!advance(sched.now() + kRound, phase)) return false;
    }
    return true;
  }

  /// RPL loops are transient by contract: the still-running traffic
  /// trips the data-plane inconsistency check, so the invariant is
  /// "eventually acyclic" within `rounds` rounds. Multi-node cycles can
  /// livelock on stale same-version ranks (the data plane only catches
  /// direct two-cycles), so while unconverged the root escalates with
  /// version bumps, each of which obsoletes every stale entry at once.
  /// A bump also re-randomizes the rebuild, so bumps are three rounds
  /// apart and never in the last three: the final checks must land on a
  /// converged mesh, not mid-rebuild.
  bool settle_acyclic(core::MeshNetwork& net, int rounds) {
    std::string acyclic = testing::check_routing_acyclic(net);
    for (int g = 0; g < rounds && !acyclic.empty(); ++g) {
      if (g % 3 == 1 && g + 3 < rounds) net.root().routing->global_repair();
      if (!advance(sched.now() + kRound, "loop settle")) return false;
      acyclic = testing::check_routing_acyclic(net);
    }
    if (!acyclic.empty()) r.failure = name + ": " + acyclic;
    return acyclic.empty();
  }

  /// Pre-schedules the timed samples of nodes 1..n-1: node i sends
  /// value(i, k) at start + phase(i) + k * period, for every such time
  /// before `until`, if it is a joined non-root node at that moment.
  template <typename Phase, typename Value>
  void sample(core::MeshNetwork& net, sim::Time start, sim::Time until,
              sim::Duration period, Phase phase, Value value) {
    for (std::size_t i = 1; i < net.size(); ++i) {
      core::MeshNode* node = &net.node(i);
      const auto origin = static_cast<std::uint32_t>(i);
      std::uint32_t seq = 0;
      for (sim::Time t = start + phase(i); t < until; t += period) {
        sched.schedule_at(t, [this, node, origin, seq, v = value(i, seq)] {
          if (!node->routing->joined() || node->routing->is_root()) return;
          Buffer pl;
          write_timed(pl, origin, seq, sched.now(), v);
          if (node->routing->send_up(std::move(pl))) ++sent;
        });
        ++seq;
      }
    }
  }

  /// Fails the shard with "<scenario>: <what>".
  ShardResult fail(const std::string& what) {
    r.failure = name + ": " + what;
    return result();
  }
  /// The result as it stands: after a failed step, the failure and the
  /// node count only.
  ShardResult result() { return std::move(r); }

  /// Audits the causal trace (when tracing), then fills sent, delivered
  /// and latencies from the ledger and the duty cycle of stations
  /// 1..n-1 of `world` (a MeshNetwork or a TdmaLine).
  template <typename World>
  ShardResult finish(World& world, std::vector<double> extras) {
    const obs::Tracer& tracer = sys.observability()->tracer();
    if (tracer.enabled()) {
      if (auto v = testing::check_trace_wellformed(tracer); !v.empty()) {
        return fail(v);
      }
    }
    r.sent = sent;
    r.delivered = ledger.latencies_us.size();
    r.latencies_us = std::move(ledger.latencies_us);
    for (std::size_t i = 1; i < world.size(); ++i) {
      energy::Meter& meter = meter_of(world, i);
      meter.settle(sched.now());
      r.duty_sum += meter.duty_cycle();
      ++r.duty_nodes;
    }
    r.extras = std::move(extras);
    return result();
  }

  sim::Scheduler sched;
  core::System sys;
  radio::Medium medium;
  Ledger ledger;
  testing::Checkpointer cp{sched, medium};
  const std::string name;
  std::uint64_t sent = 0;  // samples the MACs accepted

 private:
  static core::SystemConfig system_config(const RunParams& p) {
    core::SystemConfig cfg;
    cfg.observability = true;
    cfg.tracing = p.tracing;
    cfg.trace_capacity = 1u << 18;
    return cfg;
  }
  /// Curated worlds stay libm-drift-free: no shadowing.
  static radio::PropagationConfig propagation() {
    radio::PropagationConfig pcfg;
    pcfg.exponent = 3.0;
    pcfg.shadowing_sigma_db = 0.0;
    return pcfg;
  }

  ShardResult r;
};

}  // namespace iiot::scenarios::detail
