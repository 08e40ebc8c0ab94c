// plant_loop: the paper's Fig. 1 loop closed on one serial core::System.
//
// A CSMA grid of periodic sensors reports through RPL to the border
// router; the backend stores every sample and a point rule turns the
// seeded hot share of them into actuation commands that travel back down
// the storing-mode DAO routes to an actuator. Legacy Modbus / GATT /
// vendor-TLV devices are polled by an interop::Gateway on the same bus.
//
// Every sample value carries a unique id (hot samples add kHotBase), so
// each stored point and each applied command pairs with exactly one
// sample. Phases: formation warm-up, a fixed virtual-time measured span,
// then a drain that lets in-flight samples and commands land.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "common.hpp"
#include "core/system.hpp"
#include "interop/gateway.hpp"
#include "interop/gatt.hpp"
#include "interop/modbus.hpp"
#include "interop/vendor_tlv.hpp"
#include "obs/context.hpp"

namespace iiot::perfbench {

namespace {

constexpr std::uint64_t kSalt = 0x9A17;
constexpr std::uint16_t kSensorObject = 3303;
constexpr std::uint16_t kActuatorObject = 3306;
/// Hot samples carry kHotBase + id; the point rule fires above it.
constexpr double kHotBase = 1e9;
constexpr sim::Duration kSecond = 1'000'000;

struct Params {
  std::size_t nodes;
  double pitch;
  sim::Duration period;
  std::size_t actuator_every;
  double hot_share;
  sim::Duration warmup;
  sim::Duration span;
  sim::Duration drain;
  std::size_t trials;
  std::size_t setup_repeats;  // trial 0 is set up this many times
};

/// Independent worlds per requested host second. One world (120 s
/// warm-up, 150 s span, 30 s drain) takes about 0.3 host seconds on a
/// 4-core x86 host. World-to-world differences (DAG shape, repair
/// episodes) dominate the seed-to-seed spread of the loop figures, so a
/// run pools many short worlds rather than simulating one long one.
constexpr double kWorldsPerHostSecond = 4.0;

Params params_for(const Options& opt) {
  if (opt.small) {
    return {25, 24.0, 30 * kSecond, 8, 0.10, 60 * kSecond, 120 * kSecond,
            30 * kSecond, 2, 2};
  }
  // The per-layer mode adds a traced pass; a quarter of the worlds keeps
  // the whole run inside the same time budget.
  const double share = opt.trace ? 0.25 : 1.0;
  const auto worlds = static_cast<std::size_t>(
      std::max(3.0, std::round(opt.seconds * kWorldsPerHostSecond * share)));
  return {200,          24.0,          30 * kSecond, 8,      0.10,
          120 * kSecond, 150 * kSecond, 30 * kSecond, worlds, 3};
}

obs::Tracer* active_tracer(sim::Scheduler& sched) {
  obs::Tracer* t = obs::tracer(sched);
  return t != nullptr && t->enabled() ? t : nullptr;
}

interop::ResourceDescriptor descriptor(std::uint16_t obj, std::uint8_t inst,
                                       std::uint16_t res, const char* name,
                                       bool writable) {
  interop::ResourceDescriptor d;
  d.path = {obj, inst, res};
  d.name = name;
  d.writable = writable;
  return d;
}

struct Sample {
  NodeId origin = 0;
  sim::Time sent = 0;
  bool hot = false;
  bool in_span = false;
  std::uint32_t stored = 0;
  sim::Time stored_at = 0;
  std::uint32_t actuate_calls = 0;
  std::uint32_t applied = 0;
  sim::Time applied_at = 0;
  obs::TraceId up_trace = 0;
  obs::TraceId down_trace = 0;
};

struct Apply {
  std::size_t id;
  NodeId node;
  sim::Time at;
};

/// Legacy devices behind the gateway, as in examples/smart_factory.cpp.
struct LegacyPlant {
  interop::ModbusRtuDevice plc{1};
  interop::GattDevice env;
  interop::VendorTlvDevice chiller;
  interop::ModbusAdapter plc_adapter{
      plc, {{descriptor(3303, 0, 5700, "spindle temp", false), 100, 100.0},
            {descriptor(3306, 0, 5851, "line speed", true), 200, 100.0}}};
  interop::GattAdapter env_adapter{
      env, {{descriptor(3303, 1, 5700, "paint-shop temp", false), 0x21}}};
  interop::VendorTlvAdapter chiller_adapter{
      chiller, {{descriptor(3303, 2, 5700, "coolant temp", false), 3},
                {descriptor(3306, 2, 5851, "coolant valve", true), 5}}};

  LegacyPlant() {
    plc.set_register(100, 4512);
    plc.set_register(200, 6000);
    env.set_float(0x21, 24.0f);
    chiller.set_point(3, 12.5);
    chiller.set_point(5, 40.0);
  }
};

core::SystemConfig system_config(bool traced) {
  core::SystemConfig cfg;
  cfg.propagation = bench::default_radio();
  cfg.observability = traced;
  cfg.tracing = traced;
  cfg.trace_capacity = std::size_t{1} << 22;
  return cfg;
}

/// One plant world. Members are declared in dependency order: the
/// scheduler outlives the System, the System outlives the gateway.
class PlantWorld {
 public:
  PlantWorld(const Params& p, std::uint64_t seed, bool traced, CallLog& log)
      : p_(p),
        log_(log),
        rng_(seed, 0x5A3D),
        sys_(sched_, seed, system_config(traced)),
        gateway_(sched_, sys_.bus(), gateway_config()) {
    CallLog::Scope s(log_, "setup.build", build_s_);
    gateway_.add_device("press", legacy_.plc_adapter);
    gateway_.add_device("paintshop", legacy_.env_adapter);
    gateway_.add_device("chiller", legacy_.chiller_adapter);
    sys_.attach_gateway(gateway_);
    gateway_.start();

    mesh_ = &sys_.add_mesh("plant", bench::node_config(core::MacKind::kCsma));
    mesh_->build_grid(p_.nodes, p_.pitch);
    mesh_->start();
    sys_.bridge("plant", *mesh_);
    for (std::size_t i = 1; i < mesh_->size(); ++i) {
      core::MeshNode& node = mesh_->node(i);
      sys_.add_periodic_sensor(node, kSensorObject, p_.period,
                               [this, id = node.id] { return sample(id); });
      if (i % p_.actuator_every == 0) {
        sys_.add_actuator(node, kActuatorObject,
                          [this, id = node.id](double v) { apply(id, v); });
      }
    }
    backend::Condition hot;
    hot.topic_filter = "plant/+/" + std::to_string(kSensorObject);
    hot.op = backend::CmpOp::kGreater;
    hot.threshold = kHotBase - 0.5;
    backend::Action act;
    act.callback = [this](const backend::RuleFiring& f) { on_hot(f); };
    sys_.rules().add_rule("hot-sample", hot, act);
  }

  /// Formation warm-up; returns the digest of the formed world.
  std::uint64_t form() {
    {
      CallLog::Scope s(log_, "setup.formation", formation_s_);
      sched_.run_until(p_.warmup);
    }
    joined_ = mesh_->joined_fraction();
    at_span_start_ = counters();
    return fnv(at_span_start_.digest(kFnvBasis),
               sys_.store().total_appended());
  }

  /// Measured span, then drain, in 10 s run_until chunks.
  void measure() {
    const sim::Time end = p_.warmup + p_.span + p_.drain;
    while (sched_.now() < end) {
      const sim::Time to =
          std::min<sim::Time>(end, sched_.now() + 10 * kSecond);
      CallLog::Scope s(log_, "sim.run_until", run_until_s_);
      sched_.run_until(to);
    }
    measured_ = counters().minus(at_span_start_);
  }

  [[nodiscard]] double setup_s() const { return build_s_ + formation_s_; }
  [[nodiscard]] double build_s() const { return build_s_; }
  [[nodiscard]] double formation_s() const { return formation_s_; }
  [[nodiscard]] double run_until_s() const { return run_until_s_; }
  [[nodiscard]] double actuate_s() const { return actuate_s_; }
  [[nodiscard]] double joined() const { return joined_; }
  [[nodiscard]] const MeshCounters& measured() const { return measured_; }
  [[nodiscard]] std::uint64_t actuate_calls() const { return actuate_calls_; }
  [[nodiscard]] std::uint64_t actuate_refused() const { return refused_; }
  [[nodiscard]] const interop::GatewayStats& gateway() const {
    return gateway_.stats();
  }
  [[nodiscard]] core::System& system() { return sys_; }
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }

  /// Pairs stored points and applied commands with their samples; every
  /// mismatch is a correctness failure.
  void check(Report& r) {
    backend::TimeSeriesStore& store = sys_.store();
    std::uint64_t bad_values = 0;
    for (std::size_t i = 1; i < mesh_->size(); ++i) {
      const NodeId node = mesh_->node(i).id;
      const backend::SeriesId sid =
          store.find("plant/" + std::to_string(node) + "/" +
                     std::to_string(kSensorObject));
      if (sid == backend::kInvalidSeries) continue;
      for (const backend::Point& pt : store.query(sid, 0, sim::kTimeNever)) {
        const bool hot = pt.value >= kHotBase;
        const double raw = hot ? pt.value - kHotBase : pt.value;
        const auto id = static_cast<std::size_t>(raw);
        if (raw < 0 || static_cast<double>(id) != raw ||
            id >= samples_.size() || samples_[id].origin != node ||
            samples_[id].hot != hot || pt.at < samples_[id].sent) {
          ++bad_values;
          continue;
        }
        Sample& s = samples_[id];
        if (s.stored++ == 0) s.stored_at = pt.at;
      }
    }
    r.check(bad_values == 0,
            "plant_loop: stored values that match no sent sample: " +
                std::to_string(bad_values),
            bad_values);

    std::uint64_t bad_applies = 0;
    for (const Apply& a : applies_) {
      if (a.id >= samples_.size()) {
        ++bad_applies;
        continue;
      }
      Sample& s = samples_[a.id];
      if (!s.hot || a.node != actuator_for(s.origin) || a.at < s.sent ||
          s.applied >= s.actuate_calls) {
        ++bad_applies;
        continue;
      }
      if (s.applied++ == 0) s.applied_at = a.at;
    }
    r.check(bad_applies == 0,
            "plant_loop: applied commands that pair with no hot sample: " +
                std::to_string(bad_applies),
            bad_applies);
  }

  /// Digest of the whole run: every layer counter, the backend's
  /// counters, and every stored and applied sample.
  [[nodiscard]] std::uint64_t digest() {
    std::uint64_t h = counters().digest(kFnvBasis);
    h = fnv(h, sys_.store().total_appended());
    h = fnv(h, sys_.rules().firings());
    h = fnv(h, gateway_.stats().polls);
    for (const Sample& s : samples_) {
      h = fnv(h, std::uint64_t{s.stored});
      h = fnv(h, s.stored_at);
    }
    for (const Apply& a : applies_) {
      h = fnv(fnv(fnv(h, std::uint64_t{a.id}), std::uint64_t{a.node}), a.at);
    }
    return h;
  }

 private:
  static interop::GatewayConfig gateway_config() {
    interop::GatewayConfig g;
    g.poll_interval = 5 * kSecond;
    g.site = "factory";
    return g;
  }

  [[nodiscard]] NodeId actuator_for(NodeId origin) const {
    const std::size_t cell = origin / p_.actuator_every * p_.actuator_every;
    return mesh_->node(std::max(cell, p_.actuator_every)).id;
  }

  double sample(NodeId origin) {
    const sim::Time now = sched_.now();
    const bool in_span = now >= p_.warmup && now < p_.warmup + p_.span;
    Sample s;
    s.origin = origin;
    s.sent = now;
    s.in_span = in_span;
    s.hot = in_span && rng_.chance(p_.hot_share);
    // The System opens the sample's trace right after this call returns.
    if (obs::Tracer* t = active_tracer(sched_)) {
      s.up_trace = t->traces_started() + 1;
    }
    const auto id = static_cast<double>(samples_.size());
    samples_.push_back(s);
    return s.hot ? kHotBase + id : id;
  }

  void on_hot(const backend::RuleFiring& f) {
    const auto id = static_cast<std::size_t>(f.value - kHotBase);
    if (id >= samples_.size()) return;  // caught by check() as a bad value
    Sample& s = samples_[id];
    ++s.actuate_calls;
    ++actuate_calls_;
    obs::Tracer* t = active_tracer(sched_);
    const std::uint64_t traces = t != nullptr ? t->traces_started() : 0;
    bool ok = false;
    {
      CallLog::Scope span(log_, "core.actuate", actuate_s_);
      ok = sys_.actuate(*mesh_, actuator_for(s.origin), kActuatorObject,
                        static_cast<double>(id));
    }
    if (t != nullptr && t->traces_started() > traces) {
      s.down_trace = t->traces_started();
    }
    if (!ok) ++refused_;
  }

  void apply(NodeId node, double v) {
    applies_.push_back({static_cast<std::size_t>(v), node, sched_.now()});
  }

  [[nodiscard]] MeshCounters counters() const {
    MeshCounters c;
    c.events = sched_.executed_events();
    for (std::size_t i = 0; i < mesh_->size(); ++i) c.add_node(mesh_->node(i));
    c.add_medium(mesh_->medium().stats());
    return c;
  }

  Params p_;
  CallLog& log_;
  Rng rng_;
  sim::Scheduler sched_;
  core::System sys_;
  LegacyPlant legacy_;
  interop::Gateway gateway_;
  core::MeshNetwork* mesh_ = nullptr;
  std::vector<Sample> samples_;
  std::vector<Apply> applies_;
  double build_s_ = 0, formation_s_ = 0, run_until_s_ = 0, actuate_s_ = 0;
  double joined_ = 0;
  std::uint64_t actuate_calls_ = 0, refused_ = 0;
  MeshCounters at_span_start_, measured_;
};

/// Virtual self time per layer along the act path (sample trace + command
/// trace) of every applied command, from the stack's own tracer. A span's
/// self time is its duration minus the part its child spans cover; the
/// MAC's share before its first radio transmission is reported as queue
/// time (queueing plus initial backoff).
struct ActSplit {
  double radio = 0, mac = 0, queue = 0, net = 0, backend = 0;
  std::uint64_t commands = 0;
};

ActSplit act_split(const obs::Tracer& tracer,
                   const std::vector<Sample>& samples) {
  using obs::Layer;
  const auto& recs = tracer.records();
  std::unordered_map<obs::TraceId, std::vector<std::uint32_t>> by_trace;
  for (const Sample& s : samples) {
    if (s.applied == 0 || s.up_trace == 0 || s.down_trace == 0) continue;
    by_trace[s.up_trace];
    by_trace[s.down_trace];
  }
  // children[ref] = indices of spans whose parent is record ref.
  std::unordered_map<obs::SpanRef, std::vector<std::uint32_t>> children;
  for (std::uint32_t i = 0; i < recs.size(); ++i) {
    const obs::SpanRecord& r = recs[i];
    auto it = by_trace.find(r.trace);
    if (it == by_trace.end()) continue;
    it->second.push_back(i);
    if (!r.instant && r.parent != 0) children[r.parent].push_back(i);
  }
  auto covered = [&](const obs::SpanRecord& span, obs::SpanRef ref,
                     sim::Time* first_child) {
    std::vector<std::pair<sim::Time, sim::Time>> iv;
    if (auto it = children.find(ref); it != children.end()) {
      for (std::uint32_t c : it->second) {
        const obs::SpanRecord& k = recs[c];
        if (k.open) continue;
        iv.emplace_back(std::max(k.start, span.start),
                        std::min(k.end, span.end));
      }
    }
    std::sort(iv.begin(), iv.end());
    *first_child = iv.empty() ? span.end : iv.front().first;
    sim::Time total = 0, reach = span.start;
    for (auto [a, b] : iv) {
      a = std::max(a, reach);
      if (b > a) {
        total += b - a;
        reach = b;
      }
    }
    return total;
  };
  auto self_times = [&](obs::TraceId trace, ActSplit& out) {
    for (std::uint32_t i : by_trace[trace]) {
      const obs::SpanRecord& r = recs[i];
      if (r.instant || r.open) continue;
      const sim::Time dur = r.end - r.start;
      sim::Time first = 0;
      const sim::Time kids = covered(r, i + 1, &first);
      const double self_ms = static_cast<double>(dur - kids) / 1000.0;
      if (r.layer == Layer::kRadio) {
        out.radio += self_ms;
      } else if (r.layer == Layer::kMac) {
        const double queue_ms = static_cast<double>(first - r.start) / 1000.0;
        out.queue += queue_ms;
        out.mac += self_ms - queue_ms;
      } else if (r.layer == Layer::kNet) {
        out.net += self_ms;
      }
    }
  };
  ActSplit out;
  for (const Sample& s : samples) {
    if (s.applied == 0 || s.up_trace == 0 || s.down_trace == 0) continue;
    self_times(s.up_trace, out);
    self_times(s.down_trace, out);
    // Backend: from the sample's publish at the root to the command's
    // origin (rule evaluation and actuate() take no virtual time today).
    for (std::uint32_t i : by_trace[s.up_trace]) {
      const obs::SpanRecord& r = recs[i];
      if (r.layer == Layer::kBackend && std::string(r.name) == "publish") {
        const sim::Time down = tracer.trace_start(s.down_trace);
        if (down > r.start) {
          out.backend += static_cast<double>(down - r.start) / 1000.0;
        }
        break;
      }
    }
    ++out.commands;
  }
  return out;
}

}  // namespace

void run_plant_loop(const Options& opt, Report& r, CallLog& log) {
  const Params p = params_for(opt);
  std::vector<double> setups, act_ms;
  WorldPool worlds;
  std::uint64_t hot = 0, lost_act = 0;
  double build_s = 0, formation_s = 0, run_until_s = 0, actuate_s = 0;
  double virtual_s = 0, joined = 1.0;
  std::uint64_t actuate_calls = 0, refused = 0, polls = 0, poll_errors = 0;
  std::uint64_t first_trial_digest = 0;
  double first_trial_run_s = 0;
  MeshCounters layers;
  std::uint64_t bus_published = 0, bus_delivered = 0, appended = 0,
                evicted = 0, firings = 0, rollup_hits = 0, chunk_scans = 0;

  for (std::size_t trial = 0; trial < p.trials; ++trial) {
    const std::uint64_t seed = trial_seed(opt.seed, kSalt, trial);
    const std::size_t repeats = trial == 0 ? p.setup_repeats : 1;
    std::unique_ptr<PlantWorld> w;
    std::uint64_t formed = 0;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      w.reset();
      w = std::make_unique<PlantWorld>(p, seed, false, log);
      const std::uint64_t d = w->form();
      r.check(rep == 0 || d == formed,
              "plant_loop: formation digest differs between repeated set-ups "
              "of one seed");
      formed = d;
      setups.push_back(w->setup_s());
      build_s += w->build_s();
      formation_s += w->formation_s();
    }
    joined = std::min(joined, w->joined());
    w->measure();
    w->check(r);
    r.digest = fnv(r.digest, w->digest());
    if (trial == 0) {
      first_trial_digest = w->digest();
      first_trial_run_s = w->run_until_s();
    }

    std::uint64_t world_ops = 0, world_failed = 0;
    std::vector<double> world_up_ms;
    for (const Sample& s : w->samples()) {
      if (!s.in_span) continue;
      ++world_ops;
      if (s.stored > 0) {
        world_up_ms.push_back(static_cast<double>(s.stored_at - s.sent) /
                              1000.0);
      } else {
        ++world_failed;
      }
      if (!s.hot) continue;
      ++hot;
      if (s.applied > 0) {
        act_ms.push_back(static_cast<double>(s.applied_at - s.sent) / 1000.0);
      } else {
        ++lost_act;
        if (s.stored > 0) ++world_failed;  // stored, but its loop broke
      }
    }
    worlds.add(world_failed, world_ops, world_up_ms);
    run_until_s += w->run_until_s();
    actuate_s += w->actuate_s();
    virtual_s += static_cast<double>(p.span + p.drain) / 1e6;
    actuate_calls += w->actuate_calls();
    refused += w->actuate_refused();
    polls += w->gateway().polls;
    poll_errors += w->gateway().poll_errors;
    layers += w->measured();
    core::System& sys = w->system();
    bus_published += sys.bus().published();
    bus_delivered += sys.bus().delivered();
    appended += sys.store().total_appended();
    evicted += sys.store().stats().evicted;
    rollup_hits += sys.store().stats().rollup_hits;
    chunk_scans += sys.store().stats().chunk_scans;
    firings += sys.rules().firings();
  }
  r.attempted = worlds.attempted();
  r.check(r.attempted > 0, "plant_loop: no sample was generated in the span");

  r.end_to_end("setup_s", median(setups));
  worlds.report(r);
  r.workload("sim_speed", ratio(virtual_s, run_until_s));
  r.workload("act_fail_ratio",
             ratio(static_cast<double>(lost_act), static_cast<double>(hot)));
  r.workload("act_p50_ms", bench::percentile(act_ms, 50));
  r.workload("act_p90_ms", bench::percentile(act_ms, 90));
  r.workload("act_samples", static_cast<double>(act_ms.size()));
  r.note("joined fraction at span start (worst world): " +
         std::to_string(joined));

  if (!opt.trace) return;

  layers.report(r);
  r.layer("sim.events_per_s",
          ratio(static_cast<double>(layers.events), run_until_s));
  r.layer("sim.run_until_s", run_until_s);
  r.layer("core.actuate_calls", static_cast<double>(actuate_calls));
  r.layer("core.actuate_refused", static_cast<double>(refused));
  r.layer("core.actuate_s", actuate_s);
  r.layer("backend.bus_published", static_cast<double>(bus_published));
  r.layer("backend.bus_delivered", static_cast<double>(bus_delivered));
  r.layer("backend.store_appended", static_cast<double>(appended));
  r.layer("backend.store_evicted", static_cast<double>(evicted));
  r.layer("backend.rule_firings", static_cast<double>(firings));
  r.layer("backend.rollup_hits", static_cast<double>(rollup_hits));
  r.layer("backend.chunk_scans", static_cast<double>(chunk_scans));
  r.layer("backend.rollup_hit_ratio",
          ratio(static_cast<double>(rollup_hits),
                static_cast<double>(rollup_hits + chunk_scans)));
  r.layer("setup.build_s", build_s / static_cast<double>(setups.size()));
  r.layer("setup.formation_s",
          formation_s / static_cast<double>(setups.size()));
  r.layer("interop.polls", static_cast<double>(polls));
  r.layer("interop.poll_errors", static_cast<double>(poll_errors));

  // Traced pass: trial 0 again with the stack's metrics and tracer on.
  // Tracing is out-of-band, so the world digest must not move.
  CallLog quiet(false);
  PlantWorld traced(p, trial_seed(opt.seed, kSalt, 0), true, quiet);
  traced.form();
  traced.measure();
  Report scratch;
  traced.check(scratch);
  r.check(traced.digest() == first_trial_digest,
          "plant_loop: tracing changed the world digest of trial 0");
  const obs::Tracer& tracer = traced.system().observability()->tracer();
  r.layer("obs.trace_records", static_cast<double>(tracer.records().size()));
  r.layer("obs.trace_dropped", static_cast<double>(tracer.dropped()));
  r.layer("obs.trace_overhead_pct",
          100.0 * (ratio(traced.run_until_s(), first_trial_run_s) - 1.0));
  const ActSplit split = act_split(tracer, traced.samples());
  const double n =
      static_cast<double>(std::max<std::uint64_t>(split.commands, 1));
  r.layer("trace.act.commands", static_cast<double>(split.commands));
  r.layer("trace.act.radio_ms", split.radio / n);
  r.layer("trace.act.mac_ms", split.mac / n);
  r.layer("trace.act.queue_ms", split.queue / n);
  r.layer("trace.act.net_ms", split.net / n);
  r.layer("trace.act.backend_ms", split.backend / n);
}

}  // namespace iiot::perfbench
