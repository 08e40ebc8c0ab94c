// E7 — Availability under network partitions: CAP in practice
// (paper §V-C, refs [43], [44]).
//
// Claim: systems that must stay "always on" under partitions need
// nonblocking decentralized algorithms with weak consistency (eventual
// consistency + CRDT-style decentralized conflict resolution); a
// strongly consistent primary/quorum design necessarily refuses writes
// on partition minorities (and everywhere, if the primary is cut off).
//
// Workload: 5 replicas, clients write at every replica once a second;
// partition schedules of growing severity. Metrics: write availability,
// post-heal convergence time (AP), and stale-read window (CP has none).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "replication/backend_net.hpp"
#include "replication/kv.hpp"

namespace {

using namespace iiot;
using namespace iiot::sim;  // NOLINT
using replication::ApReplica;
using replication::BackendNet;
using replication::CpReplica;
using replication::ReplicaId;

struct Schedule {
  const char* name;
  std::vector<std::vector<ReplicaId>> groups;  // empty = no partition
  double partition_fraction;                   // of the run spent split
};

struct Outcome {
  double availability = 0;     // accepted writes / attempted writes
  double minority_avail = 0;   // availability at replicas 4..5 only
  double convergence_s = -1;   // time after heal until replicas agree
};

constexpr int kReplicas = 5;
constexpr Duration kRun = 300_s;

/// The write replica `r` issues at second `t`: "key-<t mod 20>" gets
/// "v<t>-<r>". Built by appending; GCC 12 warns falsely (-Wrestrict) on
/// `"literal" + std::to_string(...)`.
std::string write_key(Duration t) {
  std::string k = "key-";
  k += std::to_string(t % 20);
  return k;
}
std::string write_value(Duration t, int r) {
  std::string v = "v";
  v += std::to_string(t);
  v += '-';
  v += std::to_string(r);
  return v;
}

Outcome run_ap(const Schedule& sched_spec, std::uint64_t seed) {
  Scheduler sched;
  BackendNet net(sched, Rng(seed));
  std::vector<ReplicaId> ids{1, 2, 3, 4, 5};
  std::vector<std::unique_ptr<ApReplica>> reps;
  Rng rng(seed);
  for (ReplicaId id : ids) {
    reps.push_back(std::make_unique<ApReplica>(id, ids, net, sched,
                                               rng.fork(id)));
    reps.back()->start();
  }
  int attempted = 0, accepted = 0, minority_att = 0, minority_ok = 0;
  for (Duration t = 1_s; t < kRun; t += 1_s) {
    sched.schedule_at(t, [&, t] {
      for (int r = 0; r < kReplicas; ++r) {
        ++attempted;
        const bool minority = r >= 3;
        if (minority) ++minority_att;
        const bool ok = reps[static_cast<std::size_t>(r)]->put(
            write_key(t), write_value(t, r));
        if (ok) {
          ++accepted;
          if (minority) ++minority_ok;
        }
      }
    });
  }
  const auto part_start = static_cast<Duration>(
      (1.0 - sched_spec.partition_fraction) / 2.0 * kRun);
  const Duration part_end =
      part_start + static_cast<Duration>(sched_spec.partition_fraction * kRun);
  if (!sched_spec.groups.empty()) {
    sched.schedule_at(part_start,
                      [&] { net.set_partition(sched_spec.groups); });
    sched.schedule_at(part_end, [&] { net.heal(); });
  }
  sched.run_until(kRun);
  // Convergence probe after heal.
  Outcome out;
  out.availability = static_cast<double>(accepted) / attempted;
  out.minority_avail = minority_att > 0
                           ? static_cast<double>(minority_ok) / minority_att
                           : 1.0;
  for (Duration t = 0; t < 120_s; t += 500'000) {
    sched.run_until(kRun + t);
    bool all = true;
    for (int i = 1; i < kReplicas; ++i) {
      if (!reps[0]->same_state_as(*reps[static_cast<std::size_t>(i)])) {
        all = false;
        break;
      }
    }
    if (all) {
      // Writes continue until kRun, so measure convergence from the
      // moment the workload (and any partition) has ended.
      out.convergence_s = to_seconds(sched.now() - kRun);
      break;
    }
  }
  return out;
}

Outcome run_cp(const Schedule& sched_spec, std::uint64_t seed) {
  Scheduler sched;
  BackendNet net(sched, Rng(seed));
  std::vector<ReplicaId> ids{1, 2, 3, 4, 5};
  std::vector<std::unique_ptr<CpReplica>> reps;
  Rng rng(seed);
  for (ReplicaId id : ids) {
    reps.push_back(std::make_unique<CpReplica>(id, /*primary=*/1, ids, net,
                                               sched, rng.fork(id)));
    reps.back()->start();
  }
  auto attempted = std::make_shared<int>(0);
  auto accepted = std::make_shared<int>(0);
  auto minority_att = std::make_shared<int>(0);
  auto minority_ok = std::make_shared<int>(0);
  for (Duration t = 1_s; t < kRun; t += 1_s) {
    sched.schedule_at(t, [&, t] {
      for (int r = 0; r < kReplicas; ++r) {
        ++*attempted;
        const bool minority = r >= 3;
        if (minority) ++*minority_att;
        reps[static_cast<std::size_t>(r)]->put(
            write_key(t), write_value(t, r),
            [accepted, minority_ok, minority](bool ok) {
              if (ok) {
                ++*accepted;
                if (minority) ++*minority_ok;
              }
            });
      }
    });
  }
  const auto part_start = static_cast<Duration>(
      (1.0 - sched_spec.partition_fraction) / 2.0 * kRun);
  const Duration part_end =
      part_start + static_cast<Duration>(sched_spec.partition_fraction * kRun);
  if (!sched_spec.groups.empty()) {
    sched.schedule_at(part_start,
                      [&] { net.set_partition(sched_spec.groups); });
    sched.schedule_at(part_end, [&] { net.heal(); });
  }
  sched.run_until(kRun + 30_s);
  Outcome out;
  out.availability = static_cast<double>(*accepted) / *attempted;
  out.minority_avail =
      *minority_att > 0 ? static_cast<double>(*minority_ok) / *minority_att
                        : 1.0;
  out.convergence_s = 0;  // CP replicas never diverge
  return out;
}

}  // namespace

int main() {
  iiot::bench::print_header(
      "E7: write availability under partitions — AP (CRDT) vs CP (quorum)",
      "AP stays writable everywhere and converges after heal; CP refuses "
      "minority writes, and refuses ALL writes when the primary loses its "
      "quorum — always-on IIoT systems need the AP design (with safety "
      "handled explicitly)");

  Schedule schedules[] = {
      {"none", {}, 0.0},
      {"minority-cut {4,5}", {{1, 2, 3}, {4, 5}}, 0.4},
      {"primary-cut {1,2}", {{1, 2}, {3, 4, 5}}, 0.4},
      {"long minority-cut", {{1, 2, 3}, {4, 5}}, 0.8},
  };
  std::printf("%-20s %-6s %12s %14s %14s\n", "partition", "store",
              "avail", "minority-avail", "converge[s]");
  for (const auto& s : schedules) {
    const Outcome ap = run_ap(s, 3);
    const Outcome cp = run_cp(s, 3);
    std::printf("%-20s %-6s %11.1f%% %13.1f%% %14.1f\n", s.name, "AP",
                ap.availability * 100.0, ap.minority_avail * 100.0,
                ap.convergence_s);
    std::printf("%-20s %-6s %11.1f%% %13.1f%% %14s\n", s.name, "CP",
                cp.availability * 100.0, cp.minority_avail * 100.0,
                "0.0 (never diverges)");
  }
  std::printf(
      "\nShape check: AP availability stays 100%% in every schedule and\n"
      "convergence after heal takes a few gossip rounds. CP availability\n"
      "drops by (minority share x partition share) for minority cuts and\n"
      "collapses toward ~20%% when the primary is cut off (only the time\n"
      "outside the partition accepts writes).\n");
  return 0;
}
