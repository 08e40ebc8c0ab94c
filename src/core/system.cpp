#include "core/system.hpp"

#include <cstdio>
#include <cstdlib>
#include <optional>

#include "agg/collection.hpp"

namespace iiot::core {

namespace {
constexpr std::uint8_t kTagSensor = 'S';
constexpr std::uint8_t kTagCommand = 'C';
}  // namespace

System::System(sim::Scheduler& sched, std::uint64_t seed, SystemConfig cfg)
    : sched_(sched),
      rng_(seed),
      cfg_(cfg),
      store_(cfg.retention),
      rules_(bus_, &store_) {
  if (cfg_.observability || cfg_.tracing) {
    // Must exist before any mesh/backend object registers metrics.
    obs_ = std::make_unique<obs::Context>(sched_, cfg_.trace_capacity);
    obs_->tracer().set_enabled(cfg_.tracing);
    obs::MetricsRegistry& m = obs_->metrics();
    m.attach_gauge_fn(
        "backend", "bus_published", obs::kWorldNode,
        [this] { return static_cast<double>(bus_.published()); }, this);
    m.attach_gauge_fn(
        "backend", "bus_delivered", obs::kWorldNode,
        [this] { return static_cast<double>(bus_.delivered()); }, this);
    m.attach_gauge_fn(
        "backend", "store_appended", obs::kWorldNode,
        [this] { return static_cast<double>(store_.total_appended()); },
        this);
    // Backend fast-path counters (DESIGN.md §4f), attach_counter style:
    // the hot paths keep incrementing their own struct fields and the
    // registry reads through the pointers at snapshot time.
    const backend::TimeSeriesStats& ts = store_.stats();
    m.attach_counter("backend", "store_evicted", obs::kWorldNode,
                     &ts.evicted, this);
    m.attach_counter("backend", "store_rollup_hits", obs::kWorldNode,
                     &ts.rollup_hits, this);
    m.attach_counter("backend", "store_chunk_scans", obs::kWorldNode,
                     &ts.chunk_scans, this);
    m.attach_counter("backend", "store_string_appends", obs::kWorldNode,
                     &ts.string_appends, this);
    const backend::BusStats& bs = bus_.stats();
    m.attach_counter("backend", "bus_exact_hits", obs::kWorldNode,
                     &bs.exact_hits, this);
    m.attach_counter("backend", "bus_trie_nodes", obs::kWorldNode,
                     &bs.trie_nodes_visited, this);
    m.attach_counter("backend", "bus_deferred_unsubs", obs::kWorldNode,
                     &bs.deferred_unsubs, this);
    bus_.set_fanout_histogram(
        m.histogram("backend", "bus_fanout", obs::kWorldNode,
                    {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}));
  }
  // Everything published on measurement topics lands in storage. The
  // payload is parsed and appended via the interned-id hot path; the
  // (topic, id) memo keeps the string-keyed shim cold across a burst on
  // one topic — the hot-path audit of DESIGN.md §4g:
  // TimeSeriesStats::string_appends stays 0 across System ingest.
  bus_.subscribe("+/+/#", [this, memo_topic = std::string(),
                           memo_id = backend::kInvalidSeries](
                              const std::string& topic, BytesView p) mutable {
    const std::string s = iiot::to_string(p);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str()) return;
    if (memo_id == backend::kInvalidSeries || topic != memo_topic) {
      memo_id = store_.intern(topic);
      memo_topic = topic;
    }
    store_.append(memo_id, sched_.now(), v);
  });
}

MeshNetwork& System::add_mesh(const std::string& site, NodeConfig node_cfg) {
  (void)site;
  mediums_.push_back(std::make_unique<radio::Medium>(
      sched_, cfg_.propagation, rng_.next_u64()));
  meshes_.push_back(std::make_unique<MeshNetwork>(
      sched_, *mediums_.back(), rng_.fork(meshes_.size() + 1), node_cfg));
  return *meshes_.back();
}

void System::bridge(const std::string& site, MeshNetwork& mesh) {
  mesh.root().routing->set_delivery_handler(
      [this, site, root = mesh.root().id](NodeId origin, BytesView payload,
                                          std::uint8_t) {
        BufReader r(payload);
        auto tag = r.u8();
        auto object = r.u16();
        auto value = r.f64();
        if (!tag || *tag != kTagSensor || !object || !value) return;
        if (obs::Tracer* t = obs::tracer(sched_)) {
          // Final hop of a sensor reading's causal chain: the delivery
          // upcall carries the message's trace.
          t->instant(t->current_trace(), root, obs::Layer::kBackend,
                     "publish");
        }
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4f", *value);
        bus_.publish(site + "/" + std::to_string(origin) + "/" +
                         std::to_string(*object),
                     std::string(buf));
      });
}

void System::install_node_dispatch(MeshNode& node) {
  auto [it, fresh] = apps_.try_emplace(node.id);
  if (!fresh) return;  // dispatch already installed
  node.routing->set_delivery_handler(
      [this, id = node.id](NodeId, BytesView payload, std::uint8_t) {
        BufReader r(payload);
        auto tag = r.u8();
        auto object = r.u16();
        auto value = r.f64();
        if (!tag || *tag != kTagCommand || !object || !value) return;
        auto app = apps_.find(id);
        if (app == apps_.end()) return;
        auto act = app->second.actuators.find(*object);
        if (act != app->second.actuators.end()) act->second(*value);
      });
}

void System::add_periodic_sensor(MeshNode& node, std::uint16_t object,
                                 sim::Duration period,
                                 std::function<double()> sample) {
  install_node_dispatch(node);
  NodeApp& app = apps_[node.id];
  app.sensors[object] = sample;
  auto* routing = node.routing.get();
  auto timer = std::make_unique<sim::PeriodicTimer>(
      sched_, period,
      [this, routing, object, sample = std::move(sample)] {
        Buffer out;
        BufWriter w(out);
        w.u8(kTagSensor);
        w.u16(object);
        w.f64(sample());
        // Each reading starts a fresh end-to-end trace at the app layer.
        obs::Tracer* t = obs::tracer(sched_);
        std::optional<obs::TraceScope> scope;
        if (t != nullptr && t->enabled()) {
          scope.emplace(t, t->start_trace(routing->id(), obs::Layer::kApp),
                        0);
        }
        routing->send_up(std::move(out));
      });
  // Desynchronize first firings across nodes.
  timer->start(period / 2 +
               rng_.below(static_cast<std::uint32_t>(period / 2)));
  app.timers.push_back(std::move(timer));
}

void System::add_actuator(MeshNode& node, std::uint16_t object,
                          std::function<void(double)> apply) {
  install_node_dispatch(node);
  apps_[node.id].actuators[object] = std::move(apply);
}

void System::ingest(const std::string& topic,
                    std::span<const double> values) {
  std::vector<Buffer> bufs;
  std::vector<BytesView> views;
  bufs.reserve(values.size());
  views.reserve(values.size());
  char buf[32];
  for (const double v : values) {
    const int len = std::snprintf(buf, sizeof(buf), "%.4f", v);
    bufs.emplace_back(reinterpret_cast<const std::uint8_t*>(buf),
                      reinterpret_cast<const std::uint8_t*>(buf) + len);
    views.emplace_back(bufs.back().data(), bufs.back().size());
  }
  bus_.publish_batch(topic, views);
}

void System::bridge_aggregate_sink(const std::string& site,
                                   const std::string& group,
                                   agg::TreeAggregation& svc) {
  const std::string base = site + "/" + group + "/";
  svc.start_sink([this, base](std::uint32_t epoch,
                              const agg::PartialAggregate& pa) {
    (void)epoch;
    if (pa.empty()) return;
    static constexpr agg::AggFn kFns[] = {
        agg::AggFn::kAvg, agg::AggFn::kMin, agg::AggFn::kMax,
        agg::AggFn::kCount};
    static constexpr const char* kNames[] = {"avg", "min", "max", "count"};
    std::vector<backend::BusMessage> msgs(4);
    char buf[32];
    for (std::size_t i = 0; i < 4; ++i) {
      const int len =
          std::snprintf(buf, sizeof(buf), "%.4f", pa.evaluate(kFns[i]));
      msgs[i].topic = base + kNames[i];
      msgs[i].payload.assign(
          reinterpret_cast<const std::uint8_t*>(buf),
          reinterpret_cast<const std::uint8_t*>(buf) + len);
    }
    bus_.publish_batch(msgs);
  });
}

bool System::actuate(MeshNetwork& mesh, NodeId target, std::uint16_t object,
                     double value) {
  Buffer out;
  BufWriter w(out);
  w.u8(kTagCommand);
  w.u16(object);
  w.f64(value);
  // Commands trace from the backend down to the actuating node.
  obs::Tracer* t = obs::tracer(sched_);
  std::optional<obs::TraceScope> scope;
  if (t != nullptr && t->enabled()) {
    scope.emplace(t, t->start_trace(mesh.root().id, obs::Layer::kBackend),
                  0);
  }
  return mesh.root().routing->send_down(target, std::move(out));
}

}  // namespace iiot::core
