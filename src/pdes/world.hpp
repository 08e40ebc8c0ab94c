// One city-scale mesh world partitioned into spatial islands (DESIGN.md
// §4i).
//
// IslandWorld lays a uniform sensor grid over a rectangle of square
// patches, runs the grid partitioner so each patch becomes one island
// with its own Scheduler / Medium / MeshNetwork / RNG streams, wires the
// island mediums together through a radio::Interchange, and drives the
// whole thing with sim::ParallelScheduler.
//
// The island structure is canonical: it is a pure function of this
// config. `lanes` only selects how many threads execute the islands —
// every counter, trace, and KPI is bit-identical at any lane count, and
// lanes == 1 is the serial oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "obs/context.hpp"
#include "radio/fault_injector.hpp"
#include "radio/island.hpp"
#include "radio/medium.hpp"
#include "sim/parallel.hpp"
#include "sim/scheduler.hpp"

namespace iiot::pdes {

struct IslandWorldConfig {
  /// City layout: islands_x * islands_y square patches, each holding
  /// island_side^2 nodes at `spacing` meters. Patches tile seamlessly
  /// (inter-patch node gap == spacing), so radio links cross patch
  /// borders and routing spans the whole city.
  std::size_t islands_x = 2;
  std::size_t islands_y = 2;
  std::size_t island_side = 4;  // nodes per patch edge
  double spacing = 18.0;

  /// Cross-island quantization window. MAC ack timeouts must exceed
  /// roughly 4 windows + one ack airtime or cross-island unicast starves
  /// (node_config() below sizes them accordingly).
  sim::Duration window = radio::kDefaultIslandWindow;

  /// Execution lanes (0 → hardware_jobs()). Not part of the physics.
  unsigned lanes = 1;

  std::uint64_t seed = 1;
  bool metrics = false;  // per-island obs::Context (metrics + tracer)
  core::NodeConfig node = node_config();
  radio::PropagationConfig radio_cfg{};
  std::optional<radio::FaultInjectorConfig> faults;

  /// Node config tuned for island worlds: CSMA with ack timeouts sized
  /// for the cross-island delivery quantization, hop budget sized for
  /// city diameters.
  [[nodiscard]] static core::NodeConfig node_config();

  [[nodiscard]] std::size_t nodes() const {
    return islands_x * islands_y * island_side * island_side;
  }
};

class IslandWorld {
 public:
  explicit IslandWorld(IslandWorldConfig cfg);
  ~IslandWorld();
  IslandWorld(const IslandWorld&) = delete;
  IslandWorld& operator=(const IslandWorld&) = delete;

  /// Starts every node; the root is the first node of the center island.
  void start();
  /// Stops every node (routing + MAC teardown).
  void stop();

  /// Advances all islands to exactly `t` (see ParallelScheduler).
  void run_until(sim::Time t);

  [[nodiscard]] const IslandWorldConfig& config() const { return cfg_; }
  [[nodiscard]] const radio::IslandPlan& plan() const { return plan_; }
  [[nodiscard]] std::size_t islands() const { return isles_.size(); }
  [[nodiscard]] unsigned lanes() const;
  /// Parallel-engine work counters (lane-timing dependent, not digested).
  [[nodiscard]] const sim::ParallelStats& pdes_stats() const;
  [[nodiscard]] std::size_t size() const { return cfg_.nodes(); }
  [[nodiscard]] sim::Time now() const;

  /// Global node index (island-major: island k owns indices
  /// [k*side^2, (k+1)*side^2), node id == index).
  [[nodiscard]] core::MeshNode& node(std::size_t index);
  [[nodiscard]] core::MeshNode& root() { return node(root_index_); }
  [[nodiscard]] std::size_t root_index() const { return root_index_; }
  [[nodiscard]] std::uint32_t island_of(std::size_t index) const {
    return plan_.island_of[index];
  }

  [[nodiscard]] radio::Medium& medium(std::size_t island) {
    return *isles_[island]->medium;
  }
  [[nodiscard]] sim::Scheduler& scheduler(std::size_t island) {
    return isles_[island]->sched;
  }
  [[nodiscard]] core::MeshNetwork& network(std::size_t island) {
    return *isles_[island]->net;
  }
  [[nodiscard]] obs::Context* context(std::size_t island) {
    return isles_[island]->obs.get();
  }
  [[nodiscard]] radio::Interchange& interchange() { return ix_; }

  /// Fraction of non-root nodes joined to the DODAG, over the whole city.
  [[nodiscard]] double joined_fraction() const;
  /// Medium stats summed over islands in island order.
  [[nodiscard]] radio::MediumStats medium_stats() const;
  /// Scheduler events executed, summed over islands.
  [[nodiscard]] std::uint64_t executed_events() const;
  /// First bookkeeping violation across island mediums, or empty.
  [[nodiscard]] std::string check_consistency() const;

  /// FNV-1a digest over every per-island and per-node counter that the
  /// lane-invariance contract covers. Two runs of the same config must
  /// produce equal digests at any `lanes` value.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  /// `pos`: every node's position, island-major (see grid_positions).
  IslandWorld(IslandWorldConfig cfg, const std::vector<radio::Position>& pos);

  struct Island {
    sim::Scheduler sched;
    std::unique_ptr<obs::Context> obs;
    std::unique_ptr<radio::Medium> medium;
    std::unique_ptr<core::MeshNetwork> net;
    std::unique_ptr<radio::FaultInjector> faults;
  };

  IslandWorldConfig cfg_;
  radio::IslandPlan plan_;
  radio::Interchange ix_;
  std::vector<std::unique_ptr<Island>> isles_;
  std::size_t root_index_ = 0;
  std::unique_ptr<sim::ParallelScheduler> par_;
};

}  // namespace iiot::pdes
