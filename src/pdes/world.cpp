#include "pdes/world.hpp"

#include <bit>
#include <stdexcept>

namespace iiot::pdes {

namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, double v) {
  return fnv1a(h, std::bit_cast<std::uint64_t>(v));
}

/// Node positions, island-major: island (ix, iy) holds the side x side
/// patch of the city lattice at (ix * side, iy * side), row by row.
std::vector<radio::Position> grid_positions(const IslandWorldConfig& cfg) {
  std::vector<radio::Position> pos;
  pos.reserve(cfg.nodes());
  const std::size_t side = cfg.island_side;
  for (std::size_t iy = 0; iy < cfg.islands_y; ++iy) {
    for (std::size_t ix = 0; ix < cfg.islands_x; ++ix) {
      for (std::size_t ny = 0; ny < side; ++ny) {
        for (std::size_t nx = 0; nx < side; ++nx) {
          pos.push_back({static_cast<double>(ix * side + nx) * cfg.spacing,
                         static_cast<double>(iy * side + ny) * cfg.spacing});
        }
      }
    }
  }
  return pos;
}

}  // namespace

core::NodeConfig IslandWorldConfig::node_config() {
  core::NodeConfig node;
  node.mac = core::MacKind::kCsma;
  // Cross-island deliveries are quantized to window boundaries: a data
  // frame lands up to ~2 windows late and so does the returning ack. Six
  // windows of ack patience covers the round trip with headroom.
  node.csma.ack_timeout = 6 * radio::kDefaultIslandWindow;
  // City diameters exceed the default hop budget by a wide margin.
  node.rpl.max_hops = 200;
  // Dense city grids live with contention bursts, and border nodes
  // additionally eat up to one window of cross-island CCA blindness —
  // correlated ack losses are the norm, not a parent-health signal.
  // Evicting after the default 3 failures turns every burst into a
  // repair storm whose beacons cause the next burst (the feedback loop
  // that melts the 5k-node city); 8 failures of patience breaks it.
  node.rpl.max_parent_failures = 8;
  // Storing-mode downward routing cannot survive city diameter: every
  // node unicasting a DAO up ~40 hops every 30 s puts ~2.8M acked
  // unicasts on the 5390-node city's channel per run — >100x the data
  // traffic, and the congestion that melts it. Island worlds model
  // upward telemetry; downward routes stay off (the paper's hierarchy
  // argument — per-district border routers — is the real answer).
  node.rpl.downward_routes = false;
  return node;
}

IslandWorld::IslandWorld(IslandWorldConfig cfg)
    : IslandWorld(cfg, grid_positions(cfg)) {}

IslandWorld::IslandWorld(IslandWorldConfig cfg,
                         const std::vector<radio::Position>& pos)
    : cfg_(cfg),
      plan_([&] {
        radio::IslandPlanOptions opt;
        opt.cell_size = static_cast<double>(cfg.island_side) * cfg.spacing;
        opt.window = cfg.window;
        return radio::plan_islands(pos, cfg.radio_cfg, cfg.seed, opt);
      }()),
      ix_(plan_.count) {
  const std::size_t side2 = cfg_.island_side * cfg_.island_side;
  if (plan_.count != cfg_.islands_x * cfg_.islands_y) {
    throw std::logic_error("pdes: partitioner island count mismatch");
  }
  for (std::size_t i = 0; i < plan_.island_of.size(); ++i) {
    if (plan_.island_of[i] != i / side2) {
      throw std::logic_error("pdes: partitioner membership not island-major");
    }
  }

  isles_.reserve(plan_.count);
  for (std::size_t k = 0; k < plan_.count; ++k) {
    auto isle = std::make_unique<Island>();
    if (cfg_.metrics) {
      isle->obs = std::make_unique<obs::Context>(isle->sched);
    }
    // One propagation seed for every island (shadowing draws must agree
    // across islands); the delivery RNG is decorrelated per island.
    isle->medium = std::make_unique<radio::Medium>(isle->sched, cfg_.radio_cfg,
                                                   cfg_.seed, k);
    isle->medium->set_island_gateway(&ix_, &plan_, static_cast<std::uint32_t>(k));
    isle->net = std::make_unique<core::MeshNetwork>(
        isle->sched, *isle->medium, Rng(cfg_.seed, 0x15A0 + k), cfg_.node,
        static_cast<NodeId>(k * side2));
    for (std::size_t j = k * side2; j < (k + 1) * side2; ++j) {
      isle->net->add_node(pos[j]);
    }
    if (cfg_.faults) {
      isle->faults = std::make_unique<radio::FaultInjector>(
          *isle->medium, cfg_.seed ^ (0xFA17ULL + k), *cfg_.faults);
      isle->faults->enable();
    }
    isles_.push_back(std::move(isle));
  }

  // Root at the city center: first node of the center island keeps the
  // DODAG diameter near the geometric minimum.
  const std::size_t root_island =
      (cfg_.islands_y / 2) * cfg_.islands_x + cfg_.islands_x / 2;
  const std::size_t side = cfg_.island_side;
  root_index_ = root_island * side2 + (side / 2) * side + side / 2;

  std::vector<sim::ParallelIsland> pislands(plan_.count);
  for (std::size_t k = 0; k < plan_.count; ++k) {
    pislands[k].sched = &isles_[k]->sched;
    pislands[k].apply = [this, k](sim::Time boundary) {
      for (const radio::CellTx& m : ix_.take_until(k, boundary)) {
        isles_[k]->medium->apply_remote(m);
      }
    };
    pislands[k].next_input = [this, k] { return ix_.next_time(k); };
    for (std::uint32_t dep : plan_.adjacency[k]) {
      pislands[k].deps.push_back(dep);
    }
  }
  par_ = std::make_unique<sim::ParallelScheduler>(
      plan_.window, std::move(pislands), cfg_.lanes);
}

IslandWorld::~IslandWorld() = default;

void IslandWorld::start() {
  const std::size_t side2 = cfg_.island_side * cfg_.island_side;
  const std::size_t root_island = root_index_ / side2;
  for (std::size_t k = 0; k < isles_.size(); ++k) {
    core::MeshNetwork& net = *isles_[k]->net;
    // Passing size() as the root index starts every node as an ordinary
    // router (no index matches); only the root island elects a root.
    net.start(k == root_island ? root_index_ % side2 : net.size());
  }
}

void IslandWorld::stop() {
  for (auto& isle : isles_) isle->net->stop();
}

void IslandWorld::run_until(sim::Time t) { par_->run_until(t); }

unsigned IslandWorld::lanes() const { return par_->lanes(); }

const sim::ParallelStats& IslandWorld::pdes_stats() const {
  return par_->stats();
}

sim::Time IslandWorld::now() const { return isles_[0]->sched.now(); }

core::MeshNode& IslandWorld::node(std::size_t index) {
  const std::size_t side2 = cfg_.island_side * cfg_.island_side;
  return isles_[index / side2]->net->node(index % side2);
}

double IslandWorld::joined_fraction() const {
  std::size_t joined = 0;
  std::size_t total = 0;
  const std::size_t side2 = cfg_.island_side * cfg_.island_side;
  for (std::size_t k = 0; k < isles_.size(); ++k) {
    core::MeshNetwork& net = *isles_[k]->net;
    for (std::size_t j = 0; j < net.size(); ++j) {
      if (k * side2 + j == root_index_) continue;
      ++total;
      if (net.node(j).routing->joined()) ++joined;
    }
  }
  return total == 0 ? 1.0
                    : static_cast<double>(joined) / static_cast<double>(total);
}

radio::MediumStats IslandWorld::medium_stats() const {
  radio::MediumStats sum;
  for (const auto& isle : isles_) {
    const radio::MediumStats& s = isle->medium->stats();
    sum.transmissions += s.transmissions;
    sum.deliveries += s.deliveries;
    sum.collisions += s.collisions;
    sum.snr_losses += s.snr_losses;
    sum.aborted += s.aborted;
    sum.fault_drops += s.fault_drops;
    sum.fault_dups += s.fault_dups;
    sum.fault_delays += s.fault_delays;
    sum.cross_island_tx += s.cross_island_tx;
    sum.cross_island_rx += s.cross_island_rx;
  }
  return sum;
}

std::uint64_t IslandWorld::executed_events() const {
  std::uint64_t sum = 0;
  for (const auto& isle : isles_) sum += isle->sched.executed_events();
  return sum;
}

std::string IslandWorld::check_consistency() const {
  for (std::size_t k = 0; k < isles_.size(); ++k) {
    std::string err = isles_[k]->medium->check_consistency();
    if (!err.empty()) {
      return "island " + std::to_string(k) + ": " + err;
    }
  }
  return {};
}

std::uint64_t IslandWorld::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t k = 0; k < isles_.size(); ++k) {
    const Island& isle = *isles_[k];
    h = fnv1a(h, isle.sched.executed_events());
    const radio::MediumStats& s = isle.medium->stats();
    h = fnv1a(h, s.transmissions);
    h = fnv1a(h, s.deliveries);
    h = fnv1a(h, s.collisions);
    h = fnv1a(h, s.snr_losses);
    h = fnv1a(h, s.aborted);
    h = fnv1a(h, s.fault_drops);
    h = fnv1a(h, s.fault_dups);
    h = fnv1a(h, s.fault_delays);
    h = fnv1a(h, s.cross_island_tx);
    h = fnv1a(h, s.cross_island_rx);
    core::MeshNetwork& net = *isle.net;
    for (std::size_t j = 0; j < net.size(); ++j) {
      core::MeshNode& n = net.node(j);
      h = fnv1a(h, n.radio.frames_sent());
      h = fnv1a(h, n.radio.frames_received());
      h = fnv1a(h, n.radio.bytes_sent());
      const net::RplStats& r = n.routing->stats();
      h = fnv1a(h, r.dio_tx);
      h = fnv1a(h, r.dio_rx);
      h = fnv1a(h, r.dis_tx);
      h = fnv1a(h, r.dao_tx);
      h = fnv1a(h, r.data_originated);
      h = fnv1a(h, r.data_forwarded);
      h = fnv1a(h, r.data_delivered);
      h = fnv1a(h, r.drops_no_route + r.drops_link + r.drops_ttl +
                       r.drops_loop);
      h = fnv1a(h, r.parent_changes);
      h = fnv1a(h, r.distress_relayed + r.distress_repairs);
      h = fnv1a(h, static_cast<std::uint64_t>(n.routing->rank()));
      h = fnv1a(h, static_cast<std::uint64_t>(n.routing->preferred_parent()));
      n.meter.settle(isle.sched.now());
      h = fnv1a(h, n.meter.total_mj());
    }
  }
  return h;
}

}  // namespace iiot::pdes
