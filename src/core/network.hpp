// Mesh network builder: assembles complete sensing-and-actuation-layer
// nodes (energy meter + radio + MAC + RPL routing) on one shared medium,
// with the topology generators every bench and example uses.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "energy/meter.hpp"
#include "mac/csma.hpp"
#include "mac/lpl.hpp"
#include "mac/mac.hpp"
#include "mac/rimac.hpp"
#include "net/rpl.hpp"
#include "radio/medium.hpp"
#include "radio/radio.hpp"
#include "sim/scheduler.hpp"

namespace iiot::core {

enum class MacKind { kCsma, kLpl, kRiMac };

[[nodiscard]] constexpr const char* to_string(MacKind k) {
  switch (k) {
    case MacKind::kCsma: return "csma";
    case MacKind::kLpl: return "lpl";
    case MacKind::kRiMac: return "rimac";
  }
  return "?";
}

struct NodeConfig {
  MacKind mac = MacKind::kCsma;
  TenantId tenant = 0;
  ChannelId channel = 11;
  mac::LplConfig lpl{};
  mac::RiMacConfig rimac{};
  mac::CsmaConfig csma{};
  net::RplConfig rpl{};
};

/// RPL configuration paced for the chosen MAC, with duty-cycled MACs
/// waking every `wake` µs. Duty-cycled MACs need a Trickle Imin no
/// shorter than several wake intervals: a broadcast occupies a full wake
/// interval, so control traffic is expensive there.
[[nodiscard]] NodeConfig paced_node_config(MacKind mac,
                                           sim::Duration wake = 500'000);

/// One complete S&A-layer node.
struct MeshNode {
  MeshNode(radio::Medium& medium, sim::Scheduler& sched, NodeId id,
           radio::Position pos, Rng rng, const NodeConfig& cfg);
  ~MeshNode();
  MeshNode(const MeshNode&) = delete;
  MeshNode& operator=(const MeshNode&) = delete;

  void start(bool as_root);
  void stop();

  NodeId id;
  sim::Scheduler& sched;
  energy::Meter meter;
  radio::Radio radio;
  std::unique_ptr<mac::Mac> mac;
  std::unique_ptr<net::RplRouting> routing;
};

/// A whole network of MeshNodes on a shared medium. Node 0 (the first
/// added) is conventionally the border router.
class MeshNetwork {
 public:
  /// `id_base` offsets node ids, letting several networks (tenants)
  /// share one medium without id collisions.
  MeshNetwork(sim::Scheduler& sched, radio::Medium& medium, Rng rng,
              NodeConfig cfg = {}, NodeId id_base = 0)
      : sched_(sched), medium_(medium), rng_(rng), cfg_(cfg),
        id_base_(id_base) {}

  MeshNode& add_node(radio::Position pos);
  void start(std::size_t root_index = 0);
  void stop();

  // ---- topology generators (positions only; call add_node inside) ----
  /// Line with the root at one end.
  void build_line(std::size_t n, double spacing);
  /// sqrt(n) x sqrt(n)-ish grid, root at a corner.
  void build_grid(std::size_t n, double pitch);
  /// Uniform random placement over side x side; root at the center.
  void build_random_field(std::size_t n, double side);

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] MeshNode& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] MeshNode& root() { return *nodes_.at(root_index_); }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] radio::Medium& medium() { return medium_; }
  [[nodiscard]] const NodeConfig& config() const { return cfg_; }

  /// Fraction of non-root nodes currently joined to the DODAG.
  [[nodiscard]] double joined_fraction() const;
  /// Total energy consumed by all nodes (settles meters first).
  [[nodiscard]] double total_energy_mj();
  /// Hop-ish distance estimate of node i (rank / MinHopRankIncrease - 1).
  [[nodiscard]] int depth_estimate(std::size_t i) const;

 private:
  sim::Scheduler& sched_;
  radio::Medium& medium_;
  Rng rng_;
  NodeConfig cfg_;
  NodeId id_base_ = 0;
  std::size_t root_index_ = 0;
  std::vector<std::unique_ptr<MeshNode>> nodes_;
};

}  // namespace iiot::core
