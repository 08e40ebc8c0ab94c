// iiot::core::System — the paper's Fig. 1 made executable.
//
// Composes the three logical tiers:
//   * data-storage tier        — backend::TimeSeriesStore
//   * application-logic tier   — backend::TopicBus + backend::RuleEngine
//   * sensing-and-actuation    — MeshNetwork(s) of constrained nodes, plus
//                                interop::Gateway(s) for legacy devices
// and wires the vertical paths: sensor readings flow up from mesh roots
// and gateways onto the bus and into storage; rule firings flow back down
// as actuation commands to specific nodes.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "backend/rules.hpp"
#include "backend/timeseries.hpp"
#include "backend/topic_bus.hpp"
#include "core/network.hpp"
#include "interop/gateway.hpp"

namespace iiot::agg {
class TreeAggregation;
}  // namespace iiot::agg

namespace iiot::core {

struct SystemConfig {
  backend::RetentionPolicy retention{};
  radio::PropagationConfig propagation{};
  /// Creates the per-world obs::Context (metrics registry + tracer).
  /// Off by default: with no context installed, every instrumentation
  /// site in the stack reduces to a null-pointer test.
  bool observability = false;
  /// Additionally enables causal tracing (implies observability).
  bool tracing = false;
  /// Tracer memory bound (records); drops deterministically past it.
  std::size_t trace_capacity = 1u << 20;
};

class System {
 public:
  System(sim::Scheduler& sched, std::uint64_t seed, SystemConfig cfg = {});

  ~System() {
    if (obs_) obs_->metrics().detach(this);
  }

  [[nodiscard]] backend::TopicBus& bus() { return bus_; }
  [[nodiscard]] backend::TimeSeriesStore& store() { return store_; }
  [[nodiscard]] backend::RuleEngine& rules() { return rules_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  /// The world's observability context (null unless enabled in config).
  [[nodiscard]] obs::Context* observability() { return obs_.get(); }

  /// Creates a new radio space + mesh for a site. Topology is built by
  /// the caller through the returned network.
  MeshNetwork& add_mesh(const std::string& site, NodeConfig node_cfg);

  /// Bridges a mesh's border router into the backend: sensor messages
  /// arriving at the root are published as "<site>/<node>/<object>".
  void bridge(const std::string& site, MeshNetwork& mesh);

  /// Installs a periodic sensor task on a mesh node; values travel to
  /// the root inside 'S' records.
  void add_periodic_sensor(MeshNode& node, std::uint16_t object,
                           sim::Duration period,
                           std::function<double()> sample);

  /// Registers an actuator on a node; commands arrive via the mesh's
  /// downward routes as 'C' records.
  void add_actuator(MeshNode& node, std::uint16_t object,
                    std::function<void(double)> apply);

  /// Sends an actuation command from the backend to a mesh node.
  bool actuate(MeshNetwork& mesh, NodeId target, std::uint16_t object,
               double value);

  /// Registers an interop gateway (its bus wiring does the rest).
  void attach_gateway(interop::Gateway& gw) { gateways_.push_back(&gw); }

  /// Batched measurement ingest: publishes every value as a payload on
  /// `topic` through the bus's batched entry point (one subscription
  /// match for the whole burst), which lands them in storage via the
  /// measurement subscription exactly like per-sample publishes.
  void ingest(const std::string& topic, std::span<const double> values);

  /// Bridges an in-network aggregation sink (agg/collection) into the
  /// backend: each epoch's network-wide aggregate is published as one
  /// batch on "<site>/<group>/{avg,min,max,count}" — so aggregated
  /// collection lands in the same store/rules plane as raw readings.
  void bridge_aggregate_sink(const std::string& site,
                             const std::string& group,
                             agg::TreeAggregation& svc);

  [[nodiscard]] std::size_t mesh_count() const { return meshes_.size(); }

 private:
  struct NodeApp {
    std::map<std::uint16_t, std::function<double()>> sensors;
    std::map<std::uint16_t, std::function<void(double)>> actuators;
    std::vector<std::unique_ptr<sim::PeriodicTimer>> timers;
  };

  void install_node_dispatch(MeshNode& node);

  sim::Scheduler& sched_;
  Rng rng_;
  SystemConfig cfg_;
  // Declared before every tier: meshes and backend objects register
  // metrics at construction and detach at destruction, so the context
  // must outlive them all.
  std::unique_ptr<obs::Context> obs_;
  backend::TopicBus bus_;
  backend::TimeSeriesStore store_;
  backend::RuleEngine rules_;
  std::vector<std::unique_ptr<radio::Medium>> mediums_;
  std::vector<std::unique_ptr<MeshNetwork>> meshes_;
  std::vector<interop::Gateway*> gateways_;
  std::map<NodeId, NodeApp> apps_;  // keyed by node id (unique per System)
};

}  // namespace iiot::core
