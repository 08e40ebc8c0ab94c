// Mobile-asset yard: each shard is one yard cell — a random-field CSMA
// mesh of asset trackers under membership churn (trackers crash and
// return as assets move). Deliveries update a 3-replica CRDT asset
// registry (OrMap of LWW registers, one writer set per asset spread
// across replicas) that must converge after anti-entropy; a protocol
// gateway translates the yard's legacy equipment (Modbus forklift, BLE
// beacon, vendor-TLV crane) into the same backend namespace — the
// paper's §III interop story and §V AP-consistency story in one world.
// City tier: 150 cells × 40 trackers = 6000 nodes.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "crdt/ormap.hpp"
#include "crdt/registers.hpp"
#include "dependability/faults.hpp"
#include "interop/gateway.hpp"
#include "interop/gatt.hpp"
#include "interop/modbus.hpp"
#include "interop/vendor_tlv.hpp"
#include "scenarios/specs.hpp"
#include "scenarios/world_util.hpp"

namespace iiot::scenarios::detail {

namespace {

constexpr std::uint64_t kSalt = 0x9A2D;

struct Sizes {
  std::size_t trackers;
  std::size_t cells;
  sim::Duration measure;
};

Sizes sizes_for(Tier tier) {
  switch (tier) {
    case Tier::kSmoke: return {12, 2, 120'000'000};
    case Tier::kSoak: return {24, 4, 180'000'000};
    case Tier::kCity: return {40, 150, 180'000'000};
  }
  return {12, 2, 120'000'000};
}

RunParams params_for(Tier tier, std::uint64_t seed) {
  const Sizes s = sizes_for(tier);
  RunParams p;
  p.tier = tier;
  p.seed = seed;
  p.shards = s.cells;
  p.nodes_per_shard = s.trackers;
  p.measure_time = s.measure;
  p.tracing = tier != Tier::kCity;
  return p;
}

interop::ResourceDescriptor make_desc(std::uint16_t obj, std::uint8_t inst,
                                      std::uint16_t res, const char* name,
                                      bool writable) {
  interop::ResourceDescriptor d;
  d.path = {obj, inst, res};
  d.name = name;
  d.writable = writable;
  return d;
}

using AssetRegistry = crdt::OrMap<crdt::LwwRegister<double>>;

ShardResult run_shard(const RunParams& p, std::size_t shard) {
  const std::uint64_t wseed = shard_seed(p.seed, shard, kSalt);
  const std::size_t n = p.nodes_per_shard;
  Shard sh("mobile_yard", p, wseed);
  sim::Scheduler& sched = sh.sched;

  core::MeshNetwork net(sched, sh.medium, Rng(wseed, 5),
                        core::paced_node_config(core::MacKind::kCsma));
  net.build_random_field(
      n, 13.0 * std::sqrt(static_cast<double>(n)));
  net.start(0);
  sh.collect(net);

  // ---- CRDT asset registry (3 replicas at the edge) ------------------
  // Writers for one asset rotate across replicas, so convergence is a
  // real multi-writer LWW merge, not a single-writer triviality.
  AssetRegistry replicas[3];
  sh.ledger.sink = [&replicas, &sched](std::uint32_t origin, double value,
                                       sim::Time) {
    const auto rep = static_cast<crdt::ReplicaId>(
        (origin + static_cast<std::uint32_t>(sched.now() / 10'000'000)) % 3);
    replicas[rep].apply(rep, "asset-" + std::to_string(origin),
                        [&](crdt::LwwRegister<double>& reg) {
                          reg.set(rep, sched.now(), value);
                        });
  };

  // ---- legacy equipment behind the gateway ---------------------------
  interop::ModbusRtuDevice forklift(1);
  forklift.set_register(100, 8700);  // battery 87.00 %
  interop::ModbusAdapter forklift_adapter(
      forklift,
      {{make_desc(3420, 0, 5700, "forklift battery", false), 100, 100.0}});
  interop::GattDevice beacon;
  beacon.set_float(0x21, 19.5f);
  interop::GattAdapter beacon_adapter(
      beacon, {{make_desc(3303, 0, 5700, "gate beacon temp", false), 0x21}});
  interop::VendorTlvDevice crane;
  crane.set_point(7, 3.2);  // hoisted load, tons
  interop::VendorTlvAdapter crane_adapter(
      crane, {{make_desc(3322, 0, 5700, "crane load", false), 7}});

  interop::GatewayConfig gcfg;
  gcfg.poll_interval = 5'000'000;
  gcfg.site = "yard" + std::to_string(shard);
  interop::Gateway gateway(sched, sh.sys.bus(), gcfg);
  gateway.add_device("forklift", forklift_adapter);
  gateway.add_device("gate", beacon_adapter);
  gateway.add_device("crane", crane_adapter);

  std::uint64_t interop_points = 0;
  sh.sys.bus().subscribe("#", [&interop_points](const std::string&,
                                                BytesView) {
    ++interop_points;
  });
  gateway.start();

  // ---- formation ------------------------------------------------------
  if (!sh.advance(25'000'000, "formation")) return sh.result();
  const double baseline = net.joined_fraction();
  if (baseline < 0.5) {
    return sh.fail("under half the trackers joined (" +
                   std::to_string(baseline) + ")");
  }

  // ---- measurement under churn ---------------------------------------
  const sim::Time start = sched.now();
  const sim::Time end = start + p.measure_time;
  const sim::Time churn_end = start + (p.measure_time * 7) / 10;
  // Traffic keeps flowing through the post-churn loop-settle window:
  // the data-plane rank-inconsistency check is what resolves transient
  // RPL loops quickly — a silent network leaves them to slow trickle.
  // It covers the re-join grace rounds too: a loop that forms late must
  // still see data (the data-plane check is what escalates repairs).
  const int settle_rounds = 6 + static_cast<int>(n / 12);
  const sim::Duration period = 2'500'000;
  sh.sample(
      net, start, end + (4 + settle_rounds) * Shard::kRound, period,
      [](std::size_t i) {
        return 200'000 + (static_cast<sim::Time>(i) * 7'919) % period;
      },
      [](std::size_t i, std::uint32_t seq) {
        return static_cast<double>((i * 37 + seq * 11) % 199);
      });

  // Trackers leave and return as assets move between cells.
  std::vector<std::unique_ptr<dependability::CrashProcess>> churn;
  std::vector<core::MeshNode*> churn_nodes;
  std::uint64_t churn_events = 0;
  for (std::size_t k = 0; k < 2; ++k) {
    const std::size_t idx = 1 + (shard + 3 + k * 5) % (n - 1);
    core::MeshNode* node = &net.node(idx);
    if (std::find(churn_nodes.begin(), churn_nodes.end(), node) !=
        churn_nodes.end()) {
      continue;
    }
    dependability::FaultConfig fc;
    fc.mttf_seconds = 25.0;
    fc.mttr_seconds = 10.0;
    fc.repair = true;
    churn.push_back(std::make_unique<dependability::CrashProcess>(
        sched, Rng(wseed, 500 + static_cast<std::uint64_t>(idx)), fc,
        [node, &churn_events] {
          ++churn_events;
          node->stop();
        },
        [node] { node->start(false); }));
    churn_nodes.push_back(node);
    churn.back()->start();
  }
  // The yard's legacy gear changes state mid-run.
  sched.schedule_at(start + p.measure_time / 3,
                    [&forklift] { forklift.set_register(100, 4100); });
  sched.schedule_at(start + (p.measure_time * 3) / 5,
                    [&crane] { crane.set_point(7, 11.8); });

  if (!sh.advance(churn_end, "churn window")) return sh.result();
  for (std::size_t k = 0; k < churn.size(); ++k) {
    churn[k]->stop();
    if (!churn[k]->up()) churn_nodes[k]->start(false);
  }
  // Post-churn global repair: repeated crash/restart cycles leave stale
  // ranks that can close multi-node loops, which the data plane only
  // detects for direct two-cycles. A version bump obsoletes every stale
  // entry at once — the operational move after heavy churn.
  net.root().routing->global_repair();
  const auto regressed = [&] {
    return net.joined_fraction() + 1e-9 < baseline;
  };
  if (!sh.advance(end, "settle") || !sh.settle(3, "settle", regressed)) {
    return sh.result();
  }
  if (regressed()) {
    return sh.fail("joined fraction regressed (" + std::to_string(baseline) +
                   " -> " + std::to_string(net.joined_fraction()) + ")");
  }
  // Dense-field loops left over from the churn: the same bounded,
  // escalating settle the mine's replacement gets.
  if (!sh.settle_acyclic(net, settle_rounds)) return sh.result();
  if (sh.ledger.malformed != 0) {
    return sh.fail("malformed payloads at the root");
  }
  if (sh.ledger.latencies_us.empty()) {
    return sh.fail("no tracker update ever arrived");
  }
  if (gateway.stats().poll_errors != 0) {
    return sh.fail("gateway poll errors");
  }

  // ---- registry convergence ------------------------------------------
  // Two full anti-entropy rounds, then every replica must agree on the
  // key set and every LWW winner.
  for (int round = 0; round < 2; ++round) {
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 3; ++b) {
        if (a != b) replicas[a].merge(replicas[b]);
      }
    }
  }
  const auto keys = replicas[0].keys();
  for (int a = 1; a < 3; ++a) {
    if (replicas[a].keys() != keys) {
      return sh.fail("replicas disagree on the asset set");
    }
    for (const auto& key : keys) {
      const auto* va = replicas[a].get(key);
      const auto* v0 = replicas[0].get(key);
      if (va == nullptr || v0 == nullptr ||
          va->get() != v0->get()) {
        return sh.fail("replicas disagree on asset " + key);
      }
    }
  }
  // The library reuses the self-contained AP convergence property too
  // (same checker the fuzzer folds into generated worlds).
  if (auto v = testing::check_crdt_convergence(wseed, 3, 30); !v.empty()) {
    return sh.fail(v);
  }

  return sh.finish(net, {static_cast<double>(keys.size()),
                         static_cast<double>(interop_points),
                         static_cast<double>(gateway.stats().polls),
                         static_cast<double>(churn_events)});
}

std::vector<ExtraKpi> extras() {
  return {{"crdt_assets", Merge::kSum, 0.10, 2.0},
          {"interop_points", Merge::kSum, 0.05, 4.0},
          {"gateway_polls", Merge::kSum, 0.02, 2.0},
          {"churn_events", Merge::kSum, 0.50, 4.0}};
}

std::vector<KpiBound> bounds_for(Tier tier) {
  const Sizes s = sizes_for(tier);
  const double cells = static_cast<double>(s.cells);
  const double trackers = static_cast<double>(s.trackers);
  return {{"delivery_ratio", 0.50, 1.0},
          {"crdt_assets", 0.4 * cells * (trackers - 1.0),
           cells * (trackers - 1.0)},
          {"interop_points", cells * 3.0, 1e9}};
}

testing::FuzzProfile fuzz_profile() {
  testing::FuzzProfile fp;
  fp.mac = testing::ScenarioMac::kCsma;
  fp.topology = testing::ScenarioTopology::kRandomField;
  fp.min_nodes = 8;
  fp.max_nodes = 16;
  fp.min_churn_slots = 1;
  fp.force_crdt = true;
  return fp;
}

}  // namespace

ScenarioSpec mobile_yard_spec() {
  return {"mobile_yard",
          "churning yard cells, CRDT asset registry, interop adapters",
          params_for,
          run_shard,
          extras,
          bounds_for,
          fuzz_profile};
}

}  // namespace iiot::scenarios::detail
