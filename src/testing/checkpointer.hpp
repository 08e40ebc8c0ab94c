// Checkpointed advancing, shared by the fuzzer's scenarios
// (testing/scenario.cpp, testing/pdes_fuzz.cpp) and the curated scenario
// library (src/scenarios/): all step a world in 1 s chunks and audit the
// medium at every boundary.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/network.hpp"
#include "pdes/world.hpp"
#include "radio/medium.hpp"
#include "sim/scheduler.hpp"
#include "testing/invariants.hpp"

namespace iiot::testing {

/// One-line routing snapshot (version, parent, rank per node) — appended
/// to settle failures and printed per checkpoint under --trace so a
/// replayed seed is diagnosable from its output alone.
[[nodiscard]] inline std::string routing_table(core::MeshNetwork& net) {
  std::string out = " [";
  for (std::size_t i = 0; i < net.size(); ++i) {
    const auto& r = *net.node(i).routing;
    if (i > 0) out += ' ';
    out += std::to_string(net.node(i).id) + ":v" +
           std::to_string(r.version()) + ",p=" +
           (r.is_root() ? std::string("root")
                        : std::to_string(r.preferred_parent())) +
           ",rk=" + std::to_string(r.rank()) + ",dio=" +
           std::to_string(r.stats().dio_rx) + "/" +
           std::to_string(r.stats().dio_tx) + ",dis=" +
           std::to_string(r.stats().dis_tx);
  }
  return out + "]";
}

/// Steps the simulation in 1 s chunks, cross-checking medium bookkeeping
/// at every chunk boundary. Routing is sampled too, but parent loops are
/// only *counted* here: distance-vector routing forms transient loops
/// legitimately while rank updates propagate (the data path tolerates
/// them via the TTL), so loop-freedom is asserted as an eventual property
/// at phase ends, not instant by instant.
struct Checkpointer {
  sim::Scheduler& sched;
  radio::Medium& medium;
  core::MeshNetwork* mesh = nullptr;
  bool trace = false;  // print the routing table at every boundary
  std::uint64_t checks = 0;
  std::uint64_t transient_loops = 0;

  [[nodiscard]] std::string advance(sim::Time to) {
    while (sched.now() < to) {
      sched.run_until(std::min<sim::Time>(to, sched.now() + 1'000'000));
      ++checks;
      if (auto v = medium.check_consistency(); !v.empty()) return v;
      if (mesh != nullptr && !check_routing_acyclic(*mesh).empty()) {
        ++transient_loops;
      }
      if (trace && mesh != nullptr) {
        std::fprintf(stderr, "t=%3llus%s\n",
                     static_cast<unsigned long long>(sched.now() / 1'000'000),
                     routing_table(*mesh).c_str());
      }
    }
    return {};
  }
};

/// The island-world analogue of Checkpointer::advance: steps `world` in
/// 1 s chunks, auditing every island medium's bookkeeping at each
/// boundary.
[[nodiscard]] inline std::string advance(pdes::IslandWorld& world,
                                         sim::Time to) {
  while (world.now() < to) {
    world.run_until(std::min<sim::Time>(to, world.now() + 1'000'000));
    if (auto v = world.check_consistency(); !v.empty()) return v;
  }
  return {};
}

}  // namespace iiot::testing
