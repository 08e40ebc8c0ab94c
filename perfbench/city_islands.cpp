// city_islands: city-scale sensing on one pdes::IslandWorld.
//
// city_grid's city-tier layout (11x10 islands of 7x7 nodes, 5390 nodes),
// its district traffic (every node of the 3x3 islands around the root
// reports) and its frame-level fault injection, run by
// sim::ParallelScheduler on 4 lanes. The root's deliveries feed a
// core::System on the root island's scheduler through System::ingest, so
// the backend stores every sample at the root's virtual time. Island
// worlds run upward-only routing, so this workload measures sensing, not
// actuation.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common.hpp"
#include "core/system.hpp"
#include "obs/context.hpp"
#include "pdes/world.hpp"

namespace iiot::perfbench {

namespace {

constexpr std::uint64_t kSalt = 0xC17E;
constexpr std::uint16_t kSensorObject = 1;
constexpr sim::Duration kSecond = 1'000'000;

struct Params {
  std::size_t islands_x, islands_y, side;
  sim::Duration period;
  sim::Duration span;
  sim::Duration drain;
  std::size_t trials;
  std::size_t setup_repeats;  // trial 0 is set up this many times
  unsigned lanes;
};

/// Independent worlds per requested host second. One world (~2 s of
/// set-up, then a 150 s span and a 30 s drain at ~70 s/s) takes about
/// 4 host seconds on 4 lanes of a 4-core x86 host.
constexpr double kWorldsPerHostSecond = 0.27;

Params params_for(const Options& opt) {
  if (opt.small) {
    return {2, 2, 3, 3 * kSecond, 30 * kSecond, 10 * kSecond, 2, 2, 2};
  }
  // The per-layer mode adds a serial and a traced pass of world 0; a
  // quarter of the worlds keeps the whole run inside the same budget.
  const double share = opt.trace ? 0.25 : 1.0;
  const auto worlds = static_cast<std::size_t>(
      std::max(2.0, std::round(opt.seconds * kWorldsPerHostSecond * share)));
  return {11,     10, 7, 15 * kSecond, 150 * kSecond, 30 * kSecond,
          worlds, 2,  4};
}

struct CitySample {
  NodeId origin = 0;
  sim::Time due = 0;
  std::uint8_t sent = 0;  // written by the origin's island only
  std::uint32_t stored = 0;
  sim::Time stored_at = 0;
};

/// One city world plus the backend fed by its root.
class CityWorld {
 public:
  CityWorld(const Params& p, std::uint64_t seed, unsigned lanes, bool traced,
            CallLog& log)
      : p_(p), log_(log), world_(config(p, seed, lanes, traced)) {
    CallLog::Scope s(log_, "setup.build", build_s_);
    if (traced) {
      for (std::size_t k = 0; k < world_.islands(); ++k) {
        world_.context(k)->tracer().set_enabled(true);
      }
    }
    world_.start();
    root_isl_ = world_.island_of(world_.root_index());
    sys_ = std::make_unique<core::System>(world_.scheduler(root_isl_), seed);
    world_.root().routing->set_delivery_handler(
        [this](NodeId origin, BytesView payload, std::uint8_t) {
          deliver(origin, payload);
        });
  }

  /// Formation with city_grid's hop-diameter budget and grace rounds;
  /// returns the digest of the formed world.
  std::uint64_t form() {
    {
      CallLog::Scope s(log_, "setup.formation", formation_s_);
      const std::size_t diameter_hops =
          p_.side * ((p_.islands_x + 1) / 2 + (p_.islands_y + 1) / 2);
      advance(20 * kSecond + diameter_hops * 3 * kSecond);
      for (int grace = 0; grace < 8 && world_.joined_fraction() < 1.0;
           ++grace) {
        advance(world_.now() + 15 * kSecond);
      }
    }
    joined_ = world_.joined_fraction();
    schedule_district();
    at_span_start_ = counters();
    return world_.digest();
  }

  void measure() {
    CallLog::Scope s(log_, "sim.run_until", run_until_s_);
    advance(start_ + p_.span + p_.drain);
    measured_ = counters().minus(at_span_start_);
  }

  /// Pairs every stored point with the sample it came from.
  void check(Report& r) {
    r.check(violation_.empty(), "city_islands: " + violation_);
    std::uint64_t bad = 0;
    backend::TimeSeriesStore& store = sys_->store();
    for (std::size_t i = 0; i < world_.size(); ++i) {
      const NodeId node = world_.node(i).id;
      const backend::SeriesId sid = store.find(topic(node));
      if (sid == backend::kInvalidSeries) continue;
      for (const backend::Point& pt : store.query(sid, 0, sim::kTimeNever)) {
        const auto id = static_cast<std::size_t>(pt.value);
        if (pt.value < 0 || static_cast<double>(id) != pt.value ||
            id >= samples_.size() || samples_[id].origin != node ||
            samples_[id].sent == 0 || pt.at < samples_[id].due) {
          ++bad;
          continue;
        }
        CitySample& s = samples_[id];
        if (s.stored++ == 0) s.stored_at = pt.at;
      }
    }
    r.check(bad == 0,
            "city_islands: stored values that match no sent sample: " +
                std::to_string(bad),
            bad);
  }

  [[nodiscard]] std::uint64_t digest() {
    std::uint64_t h = fnv(world_.digest(), sys_->store().total_appended());
    for (const CitySample& s : samples_) {
      h = fnv(fnv(h, std::uint64_t{s.stored}), s.stored_at);
    }
    return h;
  }

  [[nodiscard]] double setup_s() const { return build_s_ + formation_s_; }
  [[nodiscard]] double build_s() const { return build_s_; }
  [[nodiscard]] double formation_s() const { return formation_s_; }
  [[nodiscard]] double run_until_s() const { return run_until_s_; }
  [[nodiscard]] double joined() const { return joined_; }
  [[nodiscard]] const MeshCounters& measured() const { return measured_; }
  [[nodiscard]] const std::vector<CitySample>& samples() const {
    return samples_;
  }
  [[nodiscard]] core::System& system() { return *sys_; }
  [[nodiscard]] pdes::IslandWorld& world() { return world_; }

 private:
  static pdes::IslandWorldConfig config(const Params& p, std::uint64_t seed,
                                        unsigned lanes, bool traced) {
    pdes::IslandWorldConfig cfg;
    cfg.islands_x = p.islands_x;
    cfg.islands_y = p.islands_y;
    cfg.island_side = p.side;
    cfg.seed = seed;
    cfg.lanes = lanes;
    cfg.metrics = traced;
    cfg.radio_cfg.exponent = 3.0;
    cfg.radio_cfg.shadowing_sigma_db = 0.0;
    radio::FaultInjectorConfig faults;
    faults.drop_p = 0.01;
    faults.duplicate_p = 0.005;
    faults.delay_p = 0.01;
    cfg.faults = faults;
    return cfg;
  }

  static std::string topic(NodeId node) {
    return "city/" + std::to_string(node) + "/" + std::to_string(kSensorObject);
  }

  /// Steps in 1 s chunks, auditing every island medium's bookkeeping at
  /// each boundary (as city_grid does).
  void advance(sim::Time to) {
    while (world_.now() < to && violation_.empty()) {
      world_.run_until(std::min<sim::Time>(to, world_.now() + kSecond));
      violation_ = world_.check_consistency();
    }
  }

  /// Pre-schedules the district's samples on each sender's own island
  /// scheduler: every node of the islands within Chebyshev distance 1 of
  /// the root's island reports once per period.
  void schedule_district() {
    start_ = world_.now();
    const sim::Time end = start_ + p_.span;
    const std::size_t rx = root_isl_ % p_.islands_x;
    const std::size_t ry = root_isl_ / p_.islands_x;
    for (std::size_t i = 0; i < world_.size(); ++i) {
      if (i == world_.root_index()) continue;
      const std::uint32_t isl = world_.island_of(i);
      const std::size_t ix = isl % p_.islands_x;
      const std::size_t iy = isl / p_.islands_x;
      if ((ix > rx ? ix - rx : rx - ix) > 1 ||
          (iy > ry ? iy - ry : ry - iy) > 1) {
        continue;
      }
      core::MeshNode* node = &world_.node(i);
      sim::Scheduler& sched = world_.scheduler(isl);
      const sim::Time phase =
          200'000 + (static_cast<sim::Time>(i) * 7'919) % p_.period;
      for (sim::Time t = start_ + phase; t < end; t += p_.period) {
        const std::size_t id = samples_.size();
        samples_.push_back({node->id, t});
        sched.schedule_at(t, [this, node, id] { send(*node, id); });
      }
    }
  }

  void send(core::MeshNode& node, std::size_t id) {
    if (!node.routing->joined()) return;
    Buffer out;
    BufWriter w(out);
    w.u32(static_cast<std::uint32_t>(id));
    if (node.routing->send_up(std::move(out))) samples_[id].sent = 1;
  }

  /// Runs on the root island's lane only.
  void deliver(NodeId origin, BytesView payload) {
    BufReader rd(payload);
    const auto id = rd.u32();
    if (!id) return;
    const double value = static_cast<double>(*id);
    sys_->ingest(topic(origin), std::span<const double>(&value, 1));
  }

  [[nodiscard]] MeshCounters counters() {
    MeshCounters c;
    c.events = world_.executed_events();
    for (std::size_t i = 0; i < world_.size(); ++i) c.add_node(world_.node(i));
    c.add_medium(world_.medium_stats());
    return c;
  }

  Params p_;
  CallLog& log_;
  pdes::IslandWorld world_;
  std::uint32_t root_isl_ = 0;
  std::unique_ptr<core::System> sys_;
  std::vector<CitySample> samples_;
  sim::Time start_ = 0;
  std::string violation_;
  double build_s_ = 0, formation_s_ = 0, run_until_s_ = 0, joined_ = 0;
  MeshCounters at_span_start_, measured_;
};

}  // namespace

void run_city_islands(const Options& opt, Report& r, CallLog& log) {
  const Params p = params_for(opt);
  std::vector<double> setups;
  WorldPool worlds;
  double build_s = 0, formation_s = 0, run_until_s = 0, virtual_s = 0;
  double joined = 1.0;
  std::uint64_t first_digest = 0;
  double first_trial_s = 0, first_run_s = 0;
  std::uint64_t published = 0, delivered = 0, appended = 0;
  MeshCounters layers;
  std::size_t nodes = 0;

  for (std::size_t trial = 0; trial < p.trials; ++trial) {
    const std::uint64_t seed = trial_seed(opt.seed, kSalt, trial);
    const std::size_t repeats = trial == 0 ? p.setup_repeats : 1;
    std::unique_ptr<CityWorld> w;
    std::uint64_t formed = 0;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      w.reset();
      w = std::make_unique<CityWorld>(p, seed, p.lanes, false, log);
      const std::uint64_t d = w->form();
      r.check(rep == 0 || d == formed,
              "city_islands: formation digest differs between repeated "
              "set-ups of one seed");
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
      first_digest = w->digest();
      first_trial_s = w->setup_s() + w->run_until_s();
      first_run_s = w->run_until_s();
    }
    std::vector<double> world_up_ms;
    for (const CitySample& s : w->samples()) {
      if (s.stored == 0) continue;
      world_up_ms.push_back(static_cast<double>(s.stored_at - s.due) / 1000.0);
    }
    const std::uint64_t world_ops = w->samples().size();
    worlds.add(world_ops - world_up_ms.size(), world_ops, world_up_ms);
    run_until_s += w->run_until_s();
    virtual_s += static_cast<double>(p.span + p.drain) / 1e6;
    layers += w->measured();
    published += w->system().bus().published();
    delivered += w->system().bus().delivered();
    appended += w->system().store().total_appended();
    nodes = w->world().size();
  }
  r.attempted = worlds.attempted();
  r.check(r.attempted > 0, "city_islands: no sample was scheduled");

  r.end_to_end("setup_s", median(setups));
  worlds.report(r);
  r.workload("sim_speed", ratio(virtual_s, run_until_s));
  r.note("joined fraction at span start (worst world): " +
         std::to_string(joined));

  if (!opt.trace) return;

  layers.report(r);
  r.layer("sim.events_per_s",
          ratio(static_cast<double>(layers.events), run_until_s));
  r.layer("sim.run_until_s", run_until_s);
  r.layer("backend.bus_published", static_cast<double>(published));
  r.layer("backend.bus_delivered", static_cast<double>(delivered));
  r.layer("backend.store_appended", static_cast<double>(appended));
  r.layer("setup.build_s", build_s / static_cast<double>(setups.size()));
  r.layer("setup.formation_s",
          formation_s / static_cast<double>(setups.size()));
  r.layer("pdes.bytes_per_node",
          peak_rss_mb() * 1024.0 * 1024.0 / static_cast<double>(nodes));

  // Serial oracle: trial 0 again on one lane must give the same digest.
  CallLog quiet(false);
  {
    CityWorld serial(p, trial_seed(opt.seed, kSalt, 0), 1, false, quiet);
    serial.form();
    serial.measure();
    Report scratch;
    serial.check(scratch);
    const bool equal = serial.digest() == first_digest;
    r.check(equal, "city_islands: lanes=1 and lanes=" +
                       std::to_string(p.lanes) + " digests differ");
    r.layer("pdes.digest_equal", equal ? 1.0 : 0.0);
    r.layer("pdes.lane_speedup",
            ratio(serial.setup_s() + serial.run_until_s(), first_trial_s));
  }

  // Traced pass: per-island metrics registries and tracers on.
  CityWorld traced(p, trial_seed(opt.seed, kSalt, 0), p.lanes, true, quiet);
  traced.form();
  traced.measure();
  Report scratch;
  traced.check(scratch);
  r.check(traced.digest() == first_digest,
          "city_islands: tracing changed the world digest of trial 0");
  std::uint64_t records = 0, dropped = 0;
  for (std::size_t k = 0; k < traced.world().islands(); ++k) {
    const obs::Tracer& t = traced.world().context(k)->tracer();
    records += t.records().size();
    dropped += t.dropped();
  }
  r.layer("obs.trace_records", static_cast<double>(records));
  r.layer("obs.trace_dropped", static_cast<double>(dropped));
  r.layer("obs.trace_overhead_pct",
          100.0 * (ratio(traced.run_until_s(), first_run_s) - 1.0));
}

}  // namespace iiot::perfbench
