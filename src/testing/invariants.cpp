#include "testing/invariants.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "replication/backend_net.hpp"
#include "replication/kv.hpp"
#include "sim/scheduler.hpp"
#include "transport/frag.hpp"

namespace iiot::testing {

using namespace sim;  // NOLINT: time literals (_s, _ms)

std::string check_medium_consistency(const radio::Medium& medium) {
  return medium.check_consistency();
}

std::string check_routing_acyclic(core::MeshNetwork& mesh) {
  std::unordered_map<NodeId, std::size_t> index;
  for (std::size_t i = 0; i < mesh.size(); ++i) {
    index[mesh.node(i).id] = i;
  }
  for (std::size_t start = 0; start < mesh.size(); ++start) {
    std::size_t at = start;
    for (std::size_t hops = 0; hops <= mesh.size(); ++hops) {
      const auto& r = *mesh.node(at).routing;
      if (r.is_root() || !r.joined()) goto next_start;  // terminated
      const NodeId parent = r.preferred_parent();
      auto it = index.find(parent);
      if (it == index.end()) goto next_start;  // parent outside the mesh
      at = it->second;
    }
    return "routing: parent chain from node " +
           std::to_string(mesh.node(start).id) + " does not terminate (loop)";
  next_start:;
  }
  return {};
}

std::string check_trace_wellformed(const obs::Tracer& tracer) {
  const std::vector<obs::SpanRecord>& recs = tracer.records();
  const auto describe = [&](std::size_t i) {
    const obs::SpanRecord& r = recs[i];
    return "span " + std::to_string(i + 1) + " (" +
           std::string(to_string(r.layer)) + "." + r.name + ", trace " +
           std::to_string(r.trace) + ", node " + std::to_string(r.node) +
           ")";
  };

  // Origins: start_trace records one before handing out the id, so every
  // id seen on any record must have one — drops can't lose an origin
  // because the id is never allocated when the origin can't be recorded.
  std::vector<bool> has_origin(tracer.traces_started() + 1, false);
  for (const obs::SpanRecord& r : recs) {
    if (r.trace != 0 && std::string_view(r.name) == "origin") {
      if (r.trace > tracer.traces_started()) {
        return "trace: origin carries unallocated trace id " +
               std::to_string(r.trace);
      }
      has_origin[r.trace] = true;
    }
  }

  for (std::size_t i = 0; i < recs.size(); ++i) {
    const obs::SpanRecord& r = recs[i];
    if (r.trace > tracer.traces_started()) {
      return "trace: " + describe(i) + " carries unallocated trace id";
    }
    if (r.trace != 0 && !has_origin[r.trace]) {
      return "trace: " + describe(i) + " has no origin record";
    }
    if (r.instant && (r.open || r.end != r.start)) {
      return "trace: instant " + describe(i) + " has a duration";
    }
    if (r.end < r.start) {
      return "trace: " + describe(i) + " ends before it starts";
    }
    if (r.open) {
      // Only layers with legitimately in-flight work at end of run —
      // queued MAC transmissions, frames on the air, pending forwarding
      // attempts — may leave spans open.
      if (r.layer != obs::Layer::kNet && r.layer != obs::Layer::kMac &&
          r.layer != obs::Layer::kRadio) {
        return "trace: open span at end of run in layer " +
               std::string(to_string(r.layer)) + ": " + describe(i);
      }
    }
    if (r.parent != 0) {
      if (r.parent > recs.size()) {
        return "trace: " + describe(i) + " references nonexistent parent " +
               std::to_string(r.parent);
      }
      // Refs are append-order indices, so a parent must precede its child;
      // this also rules out self-parenting and cycles.
      if (r.parent > i) {
        return "trace: " + describe(i) + " precedes its parent " +
               std::to_string(r.parent);
      }
      const obs::SpanRecord& p = recs[r.parent - 1];
      if (r.start < p.start) {
        return "trace: " + describe(i) + " starts before its parent";
      }
      // A child must start while its parent is active, but may end after
      // it: layer handoffs are asynchronous, so e.g. a broadcast request
      // completes at wake-interval end while the final radio copy is
      // still on the air. End containment is deliberately NOT required.
      if (!p.open && r.start > p.end) {
        return "trace: " + describe(i) + " starts after its parent ended";
      }
    }
  }
  return {};
}

std::string check_scheduler_properties(std::uint64_t seed) {
  Rng rng(seed, 7);
  sim::Scheduler sched;

  constexpr int kEvents = 256;
  struct Record {
    sim::Time at = 0;
    bool cancelled = false;
    bool fired = false;
    sim::EventHandle handle;
  };
  auto records = std::make_unique<std::vector<Record>>();
  records->reserve(kEvents);

  sim::Time last_fire = 0;
  std::string violation;
  for (int i = 0; i < kEvents; ++i) {
    const auto delay = static_cast<sim::Duration>(1 + rng.below(10'000));
    records->push_back(Record{delay, false, false, {}});
    const std::size_t idx = records->size() - 1;
    auto* recs = records.get();
    (*records)[idx].handle = sched.schedule_after(
        delay, [recs, idx, &last_fire, &sched, &violation] {
          Record& rec = (*recs)[idx];
          rec.fired = true;
          if (rec.cancelled) {
            violation = "scheduler: cancelled event fired";
          }
          if (sched.now() < last_fire) {
            violation = "scheduler: time ran backwards (" +
                        std::to_string(sched.now()) + " after " +
                        std::to_string(last_fire) + ")";
          }
          if (sched.now() < rec.at) {
            violation = "scheduler: event fired before its schedule time";
          }
          last_fire = sched.now();
        });
  }
  // Cancel a deterministic subset before anything runs.
  int cancelled = 0;
  for (Record& rec : *records) {
    if (rng.chance(0.4)) {
      rec.cancelled = true;
      rec.handle.cancel();
      ++cancelled;
      if (rec.handle.pending()) {
        return "scheduler: handle still pending after cancel()";
      }
    }
  }
  sched.run_all();
  if (!violation.empty()) return violation;
  for (const Record& rec : *records) {
    if (rec.cancelled && rec.fired) {
      return "scheduler: cancelled event fired";
    }
    if (!rec.cancelled && !rec.fired) {
      return "scheduler: live event never fired";
    }
    if (rec.handle.pending()) {
      return "scheduler: handle pending after queue drained";
    }
  }
  if (sched.executed_events() != static_cast<std::uint64_t>(kEvents -
                                                           cancelled)) {
    return "scheduler: executed " + std::to_string(sched.executed_events()) +
           " events, expected " + std::to_string(kEvents - cancelled);
  }

  // Handle-reuse safety: the (now recycled) slots behind the old handles
  // must not be cancellable through them once new tenants move in.
  std::vector<sim::EventHandle> fresh;
  int fresh_fired = 0;
  for (int i = 0; i < kEvents; ++i) {
    fresh.push_back(sched.schedule_after(
        static_cast<sim::Duration>(1 + rng.below(1'000)),
        [&fresh_fired] { ++fresh_fired; }));
  }
  for (Record& rec : *records) rec.handle.cancel();  // all stale: no-ops
  sched.run_all();
  if (fresh_fired != kEvents) {
    return "scheduler: stale handle cancelled a recycled slot (" +
           std::to_string(fresh_fired) + "/" + std::to_string(kEvents) +
           " fresh events fired)";
  }
  return {};
}

std::string check_frag_roundtrip(std::uint64_t seed) {
  Rng rng(seed, 9);
  for (int trial = 0; trial < 4; ++trial) {
    sim::Scheduler sched;
    transport::Reassembler reasm(sched);

    std::size_t len = 1 + rng.below(600);
    const std::size_t mtu = transport::kFragHeader + 1 + rng.below(80);
    // fragment() carries index/count in one byte each: callers contract
    // to stay within 255 fragments (asserted in Debug, silent truncation
    // in Release). Keep the generated datagram inside that contract.
    len = std::min(len, (mtu - transport::kFragHeader) * 255);
    Buffer datagram(len);
    for (auto& b : datagram) b = static_cast<std::uint8_t>(rng.next_u32());
    const auto tag = static_cast<std::uint16_t>(rng.next_u32());

    std::vector<Buffer> frags = transport::fragment(datagram, mtu, tag);
    // Deterministic shuffle + duplication: reassembly must not care about
    // arrival order and must ignore repeats.
    std::vector<std::size_t> order(frags.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[rng.below(static_cast<std::uint32_t>(i))]);
    }
    const NodeId src = 7;
    std::optional<Buffer> out;
    std::size_t fed = 0;
    for (std::size_t i : order) {
      ++fed;
      auto r = reasm.on_fragment(src, frags[i]);
      if (rng.chance(0.3)) {
        auto dup = reasm.on_fragment(src, frags[i]);
        // A repeat of the *only* fragment legitimately forms a whole new
        // datagram (link-layer duplicate — upper layers dedup those); a
        // repeat of one piece of several must never complete anything.
        if (dup.has_value() && frags.size() > 1) {
          return "frag: duplicate fragment completed a second datagram";
        }
      }
      if (r.has_value()) {
        if (fed != frags.size()) {
          return "frag: datagram completed before all fragments arrived";
        }
        out = std::move(r);
      }
    }
    if (!out.has_value()) {
      return "frag: datagram never completed (len=" + std::to_string(len) +
             " mtu=" + std::to_string(mtu) + ")";
    }
    if (*out != datagram) {
      return "frag: reassembled bytes differ from the original";
    }

    // Truncated / malformed fragments must be rejected, not crash.
    const auto before = reasm.stats().malformed;
    Buffer junk(rng.below(static_cast<std::uint32_t>(
                    transport::kFragHeader)),
                0xEE);
    (void)reasm.on_fragment(src, junk);
    if (reasm.stats().malformed <= before) {
      return "frag: truncated fragment not counted as malformed";
    }
  }
  return {};
}

std::string check_crdt_convergence(std::uint64_t seed, int replicas,
                                   int ops) {
  using replication::ApReplica;
  using replication::BackendNet;
  using replication::ReplicaId;

  Rng rng(seed, 11);
  sim::Scheduler sched;
  replication::BackendNetConfig net_cfg;
  net_cfg.loss = rng.uniform(0.0, 0.15);
  BackendNet net(sched, rng.fork(1), net_cfg);

  std::vector<ReplicaId> ids;
  for (int i = 1; i <= replicas; ++i) ids.push_back(static_cast<ReplicaId>(i));
  std::vector<std::unique_ptr<ApReplica>> reps;
  for (ReplicaId id : ids) {
    reps.push_back(
        std::make_unique<ApReplica>(id, ids, net, sched, rng.fork(10 + id)));
    reps.back()->start();
  }

  // Random writes/removes spread over 20 s, with a partition in the
  // middle. Read-your-writes is checked synchronously at each put.
  std::string violation;
  for (int op = 0; op < ops; ++op) {
    const auto at = static_cast<sim::Time>(1'000'000 + rng.below(20'000'000));
    const auto who = rng.below(static_cast<std::uint32_t>(replicas));
    std::string key = "k";
    key += std::to_string(rng.below(8));
    if (rng.chance(0.2)) {
      sched.schedule_at(at, [&reps, who, key] { reps[who]->remove(key); });
    } else {
      std::string value = "v";
      value += std::to_string(op);
      value += '-';
      value += std::to_string(who);
      sched.schedule_at(at, [&reps, who, key, value, &violation] {
        reps[who]->put(key, value);
        auto got = reps[who]->get(key);
        if (!got.has_value() || *got != value) {
          violation = "crdt: read-your-writes violated at replica " +
                      std::to_string(reps[who]->id()) + " for " + key;
        }
      });
    }
  }
  const auto cut = 1 + rng.below(static_cast<std::uint32_t>(replicas - 1));
  std::vector<ReplicaId> left(ids.begin(), ids.begin() + cut);
  std::vector<ReplicaId> right(ids.begin() + cut, ids.end());
  sched.schedule_at(5_s, [&net, left, right] {
    net.set_partition({left, right});
  });
  sched.schedule_at(14_s, [&net] { net.heal(); });

  sched.run_until(60_s);  // generous anti-entropy time after heal
  if (!violation.empty()) return violation;

  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (!reps[0]->same_state_as(*reps[i])) {
      return "crdt: replicas " + std::to_string(reps[0]->id()) + " and " +
             std::to_string(reps[i]->id()) +
             " diverge after partition heal + gossip";
    }
  }
  return {};
}

std::string check_cp_read_your_writes(std::uint64_t seed, int replicas,
                                      int ops) {
  using replication::BackendNet;
  using replication::CpReplica;
  using replication::ReplicaId;

  Rng rng(seed, 13);
  sim::Scheduler sched;
  BackendNet net(sched, rng.fork(1));

  std::vector<ReplicaId> ids;
  for (int i = 1; i <= replicas; ++i) ids.push_back(static_cast<ReplicaId>(i));
  const ReplicaId primary = 1;
  std::vector<std::unique_ptr<CpReplica>> reps;
  for (ReplicaId id : ids) {
    reps.push_back(std::make_unique<CpReplica>(id, primary, ids, net, sched,
                                               rng.fork(20 + id)));
    reps.back()->start();
  }

  // Sequential unique-key writes at the primary; a partition isolating
  // the primary mid-run makes a band of them fail.
  auto acked = std::make_unique<std::map<std::string, std::string>>();
  for (int op = 0; op < ops; ++op) {
    const auto at = static_cast<sim::Time>(500'000 +
                                           static_cast<sim::Time>(op) *
                                               400'000);
    const std::string key = "key-" + std::to_string(op);
    const std::string value = "value-" + std::to_string(op);
    auto* acks = acked.get();
    sched.schedule_at(at, [&reps, key, value, acks] {
      reps[0]->put(key, value, [key, value, acks](bool ok) {
        if (ok) (*acks)[key] = value;
      });
    });
  }
  const auto part_at = static_cast<sim::Time>(3_s + rng.below(5'000'000));
  sched.schedule_at(part_at, [&net, primary] {
    net.set_partition({{primary}});
  });
  sched.schedule_at(part_at + 6_s, [&net] { net.heal(); });

  sched.run_until(static_cast<sim::Time>(ops) * 400'000 + 20_s);

  if (acked->empty()) {
    return "cp: no write ever succeeded (expected successes before the "
           "partition)";
  }
  for (const auto& [key, value] : *acked) {
    auto got = reps[0]->get(key);
    if (!got.has_value() || *got != value) {
      return "cp: acknowledged write " + key +
             " not readable at the primary";
    }
  }
  return {};
}

}  // namespace iiot::testing
