#include "core/network.hpp"

#include <algorithm>
#include <cmath>

namespace iiot::core {

NodeConfig paced_node_config(MacKind mac, sim::Duration wake) {
  NodeConfig cfg;
  cfg.mac = mac;
  cfg.lpl.wake_interval = wake;
  cfg.rimac.wake_interval = wake;
  if (mac == MacKind::kCsma) {
    cfg.rpl.trickle = net::TrickleConfig{500'000, 8, 3};
    cfg.rpl.dao_interval = 30'000'000;
  } else {
    cfg.rpl.trickle = net::TrickleConfig{
        std::max<sim::Duration>(4 * wake, 2'000'000), 8, 2};
    cfg.rpl.dao_interval = 90'000'000;
    cfg.rpl.dis_interval = 15'000'000;
    // Contention bursts cause correlated ack losses; evicting the parent
    // after only 3 of them causes repair storms whose broadcasts are
    // ruinously expensive on duty-cycled MACs.
    cfg.rpl.max_parent_failures = 6;
  }
  return cfg;
}

MeshNode::MeshNode(radio::Medium& medium, sim::Scheduler& sched_, NodeId id_,
                   radio::Position pos, Rng rng, const NodeConfig& cfg)
    : id(id_), sched(sched_), meter(),
      radio(medium, sched_, id_, pos, meter) {
  radio.set_channel(cfg.channel);
  switch (cfg.mac) {
    case MacKind::kCsma:
      mac = std::make_unique<mac::CsmaMac>(radio, sched, rng.fork(1),
                                           cfg.tenant, cfg.csma);
      break;
    case MacKind::kLpl:
      mac = std::make_unique<mac::LplMac>(radio, sched, rng.fork(2),
                                          cfg.tenant, cfg.lpl);
      break;
    case MacKind::kRiMac:
      mac = std::make_unique<mac::RiMac>(radio, sched, rng.fork(3),
                                         cfg.tenant, cfg.rimac);
      break;
  }
  routing = std::make_unique<net::RplRouting>(*mac, sched, rng.fork(4),
                                              cfg.rpl);
  if (obs::MetricsRegistry* m = obs::metrics(sched)) {
    const auto node = static_cast<std::int64_t>(id);
    // Energy values are polled at snapshot time: the meter must settle to
    // virtual "now" first, which is deterministic.
    m->attach_gauge_fn(
        "energy", "total_mj", node,
        [this] {
          meter.settle(sched.now());
          return meter.total_mj();
        },
        this);
    m->attach_gauge_fn(
        "energy", "duty_cycle", node,
        [this] {
          meter.settle(sched.now());
          return meter.duty_cycle();
        },
        this);
  }
}

MeshNode::~MeshNode() {
  if (obs::MetricsRegistry* m = obs::metrics(sched)) m->detach(this);
}

void MeshNode::start(bool as_root) {
  mac->start();
  if (as_root) {
    routing->start_root();
  } else {
    routing->start();
  }
}

void MeshNode::stop() {
  routing->stop();
  mac->stop();
}

MeshNode& MeshNetwork::add_node(radio::Position pos) {
  const auto id = id_base_ + static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<MeshNode>(
      medium_, sched_, id, pos, rng_.fork(1000 + id), cfg_));
  return *nodes_.back();
}

void MeshNetwork::start(std::size_t root_index) {
  root_index_ = root_index;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->start(i == root_index);
  }
}

void MeshNetwork::stop() {
  for (auto& n : nodes_) n->stop();
}

void MeshNetwork::build_line(std::size_t n, double spacing) {
  for (std::size_t i = 0; i < n; ++i) {
    add_node({static_cast<double>(i) * spacing, 0.0});
  }
}

void MeshNetwork::build_grid(std::size_t n, double pitch) {
  const auto side = static_cast<std::size_t>(std::ceil(std::sqrt(
      static_cast<double>(n))));
  std::size_t placed = 0;
  for (std::size_t y = 0; y < side && placed < n; ++y) {
    for (std::size_t x = 0; x < side && placed < n; ++x) {
      add_node({static_cast<double>(x) * pitch,
                static_cast<double>(y) * pitch});
      ++placed;
    }
  }
}

void MeshNetwork::build_random_field(std::size_t n, double side) {
  add_node({side / 2.0, side / 2.0});  // root at center
  for (std::size_t i = 1; i < n; ++i) {
    add_node({rng_.uniform(0.0, side), rng_.uniform(0.0, side)});
  }
}

double MeshNetwork::joined_fraction() const {
  if (nodes_.size() <= 1) return 1.0;
  std::size_t joined = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (i == root_index_) continue;
    if (nodes_[i]->routing->joined()) ++joined;
  }
  return static_cast<double>(joined) /
         static_cast<double>(nodes_.size() - 1);
}

double MeshNetwork::total_energy_mj() {
  double sum = 0;
  for (auto& n : nodes_) {
    n->meter.settle(sched_.now());
    sum += n->meter.total_mj();
  }
  return sum;
}

int MeshNetwork::depth_estimate(std::size_t i) const {
  const auto& r = *nodes_.at(i)->routing;
  if (r.is_root()) return 0;
  if (!r.joined()) return -1;
  return std::max(1, r.rank() / net::kMinHopRankIncrease - 1);
}

TdmaStation::TdmaStation(radio::Medium& medium, sim::Scheduler& sched,
                         NodeId id, radio::Position pos, Rng rng,
                         const mac::TdmaConfig& cfg)
    : radio(medium, sched, id, pos, meter), mac(radio, sched, rng, 0, cfg) {}

TdmaLine::TdmaLine(sim::Scheduler& sched, radio::Medium& medium,
                   std::uint64_t seed, std::size_t n, double spacing,
                   const mac::TdmaConfig& cfg) {
  stations_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stations_.push_back(std::make_unique<TdmaStation>(
        medium, sched, static_cast<NodeId>(i),
        radio::Position{static_cast<double>(i) * spacing, 0.0},
        Rng(seed, 60 + static_cast<std::uint64_t>(i)), cfg));
    mac::TdmaSchedule s;
    s.parent = i == 0 ? kInvalidNode : static_cast<NodeId>(i - 1);
    s.depth = static_cast<int>(i);
    s.max_depth = static_cast<int>(n - 1);
    s.has_children = i + 1 < n;
    stations_.back()->mac.configure(s);
  }
}

void TdmaLine::start(mac::ReceiveHandler sink) {
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    mac::TdmaMac& m = stations_[i]->mac;
    if (i == 0) {
      m.set_receive_handler(std::move(sink));
    } else {
      m.set_receive_handler([&m, parent = static_cast<NodeId>(i - 1)](
                                NodeId, BytesView p, double) {
        m.send(parent, Buffer(p.begin(), p.end()));
      });
    }
    m.start();
  }
}

bool TdmaLine::send_up(std::size_t i, Buffer payload) {
  return stations_[i]->mac.send(static_cast<NodeId>(i - 1),
                                std::move(payload));
}

}  // namespace iiot::core
