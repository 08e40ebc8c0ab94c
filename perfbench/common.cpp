#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench_util.hpp"

namespace iiot::perfbench {

// ---- metric tables ---------------------------------------------------

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},       // host: build + formation/prefill
      {"peak_rss_mb", "MB"},  // host: peak resident set of the process
      {"fail_ratio", "ratio"},  // operations that never completed
      {"up_p50_ms", "ms"},    // sample -> stored, median
      {"up_p99_ms", "ms"},    // sample -> stored, 99th percentile
  };
  return defs;
}

const std::vector<MetricDef>& layer_defs() {
  static const std::vector<MetricDef> defs = {
      // sim (host time in run_until, events executed)
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.run_until_s", "s"},
      // pdes
      {"pdes.lane_speedup", "x"},
      {"pdes.digest_equal", "bool"},
      {"pdes.bytes_per_node", "B"},
      // radio
      {"radio.transmissions", "count"},
      {"radio.deliveries", "count"},
      {"radio.collisions", "count"},
      {"radio.snr_losses", "count"},
      {"radio.useful_ratio", "ratio"},
      {"radio.cross_island_tx", "count"},
      {"radio.cross_island_rx", "count"},
      // mac
      {"mac.enqueued", "count"},
      {"mac.retries", "count"},
      {"mac.failed", "count"},
      {"mac.queue_drops", "count"},
      {"mac.ack_ratio", "ratio"},
      // net
      {"net.dio_tx", "count"},
      {"net.dao_tx", "count"},
      {"net.dis_tx", "count"},
      {"net.data_forwarded", "count"},
      {"net.drops_no_route", "count"},
      {"net.drops_link", "count"},
      {"net.drops_loop", "count"},
      {"net.parent_changes", "count"},
      {"net.ctrl_per_data", "ratio"},
      // core
      {"core.actuate_calls", "count"},
      {"core.actuate_refused", "count"},
      {"core.actuate_s", "s"},
      // backend
      {"backend.ingest_s", "s"},
      {"backend.query_s", "s"},
      {"backend.bus_published", "count"},
      {"backend.bus_delivered", "count"},
      {"backend.store_appended", "count"},
      {"backend.store_evicted", "count"},
      {"backend.rule_firings", "count"},
      {"backend.rollup_hits", "count"},
      {"backend.chunk_scans", "count"},
      {"backend.rollup_hit_ratio", "ratio"},
      {"gen.late_max_us", "us"},
      // setup
      {"setup.build_s", "s"},
      {"setup.formation_s", "s"},
      // interop
      {"interop.polls", "count"},
      {"interop.poll_errors", "count"},
      // obs (traced pass against the untraced one)
      {"obs.trace_records", "count"},
      {"obs.trace_dropped", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.call_spans", "count"},
      // virtual self time along plant_loop's act path, per applied command
      {"trace.act.commands", "count"},
      {"trace.act.radio_ms", "ms"},
      {"trace.act.mac_ms", "ms"},
      {"trace.act.queue_ms", "ms"},
      {"trace.act.net_ms", "ms"},
      {"trace.act.backend_ms", "ms"},
      // workload-specific end-to-end metrics, from the untraced pass
      {"e2e.sim_speed", "s/s"},
      {"e2e.act_fail_ratio", "ratio"},
      {"e2e.act_p50_ms", "ms"},
      {"e2e.act_p90_ms", "ms"},
      {"e2e.act_samples", "count"},
      {"e2e.up_samples", "count"},
      {"e2e.ingest_max_rate", "1/s"},
      {"e2e.ingest_p50_us", "us"},
      {"e2e.ingest_p99_us", "us"},
      {"e2e.ingest_samples", "count"},
      {"e2e.query_p50_us", "us"},
      {"e2e.query_p99_us", "us"},
      {"e2e.query_samples", "count"},
  };
  return defs;
}

namespace {

const MetricDef& find_def(const std::vector<MetricDef>& defs,
                          const std::string& name) {
  for (const MetricDef& d : defs) {
    if (name == d.name) return d;
  }
  throw std::logic_error("perfbench: undeclared metric " + name);
}

void put(std::vector<Metric>& out, const MetricDef& def, double value) {
  for (Metric& m : out) {
    if (m.name == def.name) {
      m.value = value;
      return;
    }
  }
  out.push_back({def.name, def.unit, value});
}

}  // namespace

void Report::end_to_end(const std::string& name, double value) {
  put(e2e_, find_def(end_to_end_defs(), name), value);
}

void Report::workload(const std::string& name, double value) {
  const MetricDef& def = find_def(layer_defs(), "e2e." + name);
  put(wl_, {def.name + 4, def.unit}, value);
  put(layers_, def, value);
}

void Report::layer(const std::string& name, double value) {
  put(layers_, find_def(layer_defs(), name), value);
}

void Report::check(bool ok, const std::string& what, std::uint64_t failures) {
  if (ok) return;
  failed_ += failures;
  errors_.push_back(what);
}

// ---- call spans ------------------------------------------------------

CallLog::Scope::Scope(CallLog& log, const char* name, double& total_s)
    : log_(log), total_s_(total_s), saved_parent_(log.open_) {
  if (log_.record_) {
    if (log_.spans_.size() < kSpanCap) {
      index_ = static_cast<std::int32_t>(log_.spans_.size());
      log_.spans_.push_back({name, 0, 0, log_.open_});
      log_.open_ = index_;
    } else {
      ++log_.dropped_;
    }
  }
  start_ = host_ns();
}

CallLog::Scope::~Scope() {
  const std::int64_t end = host_ns();
  total_s_ += ns_to_s(end - start_);
  if (index_ >= 0) {
    log_.spans_[static_cast<std::size_t>(index_)].start_ns = start_;
    log_.spans_[static_cast<std::size_t>(index_)].end_ns = end;
    log_.open_ = saved_parent_;
  }
}

void CallLog::record(const char* name, std::int64_t start_ns,
                     std::int64_t end_ns) {
  if (!record_) return;
  if (spans_.size() >= kSpanCap) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, start_ns, end_ns, open_});
}

void CallLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"clock\":"
                  "\"host\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                  i, s.parent, s.name,
                  static_cast<long long>(s.start_ns - t0),
                  static_cast<long long>(s.end_ns - t0));
    out << line;
  }
}

// ---- mesh counters ---------------------------------------------------

void MeshCounters::add_node(const core::MeshNode& node) {
  const mac::MacStats& m = node.mac->stats();
  enqueued += m.enqueued;
  retries += m.retries;
  mac_delivered += m.delivered;
  mac_failed += m.failed;
  queue_drops += m.queue_drops;
  const net::RplStats& n = node.routing->stats();
  dio_tx += n.dio_tx;
  dao_tx += n.dao_tx;
  dis_tx += n.dis_tx;
  data_originated += n.data_originated;
  data_forwarded += n.data_forwarded;
  drops_no_route += n.drops_no_route;
  drops_link += n.drops_link;
  drops_loop += n.drops_loop;
  drops_ttl += n.drops_ttl;
  parent_changes += n.parent_changes;
}

void MeshCounters::add_medium(const radio::MediumStats& s) {
  transmissions += s.transmissions;
  deliveries += s.deliveries;
  collisions += s.collisions;
  snr_losses += s.snr_losses;
  aborted += s.aborted;
  cross_tx += s.cross_island_tx;
  cross_rx += s.cross_island_rx;
}

namespace {
// Every counter field, in declaration order, for the arithmetic below.
constexpr std::uint64_t MeshCounters::* kFields[] = {
    &MeshCounters::events,         &MeshCounters::transmissions,
    &MeshCounters::deliveries,     &MeshCounters::collisions,
    &MeshCounters::snr_losses,     &MeshCounters::aborted,
    &MeshCounters::cross_tx,       &MeshCounters::cross_rx,
    &MeshCounters::enqueued,       &MeshCounters::retries,
    &MeshCounters::mac_delivered,  &MeshCounters::mac_failed,
    &MeshCounters::queue_drops,    &MeshCounters::dio_tx,
    &MeshCounters::dao_tx,         &MeshCounters::dis_tx,
    &MeshCounters::data_originated, &MeshCounters::data_forwarded,
    &MeshCounters::drops_no_route, &MeshCounters::drops_link,
    &MeshCounters::drops_loop,     &MeshCounters::drops_ttl,
    &MeshCounters::parent_changes,
};
}  // namespace

MeshCounters& MeshCounters::operator+=(const MeshCounters& o) {
  for (auto f : kFields) this->*f += o.*f;
  return *this;
}

MeshCounters MeshCounters::minus(const MeshCounters& o) const {
  MeshCounters d = *this;
  for (auto f : kFields) d.*f -= o.*f;
  return d;
}

std::uint64_t MeshCounters::digest(std::uint64_t h) const {
  for (auto f : kFields) h = fnv(h, this->*f);
  return h;
}

void MeshCounters::report(Report& r) const {
  r.layer("sim.events", static_cast<double>(events));
  r.layer("radio.transmissions", static_cast<double>(transmissions));
  r.layer("radio.deliveries", static_cast<double>(deliveries));
  r.layer("radio.collisions", static_cast<double>(collisions));
  r.layer("radio.snr_losses", static_cast<double>(snr_losses));
  r.layer("radio.useful_ratio",
          ratio(static_cast<double>(deliveries),
                static_cast<double>(deliveries + collisions + snr_losses +
                                    aborted)));
  r.layer("radio.cross_island_tx", static_cast<double>(cross_tx));
  r.layer("radio.cross_island_rx", static_cast<double>(cross_rx));
  r.layer("mac.enqueued", static_cast<double>(enqueued));
  r.layer("mac.retries", static_cast<double>(retries));
  r.layer("mac.failed", static_cast<double>(mac_failed));
  r.layer("mac.queue_drops", static_cast<double>(queue_drops));
  r.layer("mac.ack_ratio",
          ratio(static_cast<double>(mac_delivered),
                static_cast<double>(mac_delivered + mac_failed)));
  r.layer("net.dio_tx", static_cast<double>(dio_tx));
  r.layer("net.dao_tx", static_cast<double>(dao_tx));
  r.layer("net.dis_tx", static_cast<double>(dis_tx));
  r.layer("net.data_forwarded", static_cast<double>(data_forwarded));
  r.layer("net.drops_no_route", static_cast<double>(drops_no_route));
  r.layer("net.drops_link", static_cast<double>(drops_link));
  r.layer("net.drops_loop", static_cast<double>(drops_loop));
  r.layer("net.parent_changes", static_cast<double>(parent_changes));
  r.layer("net.ctrl_per_data",
          ratio(static_cast<double>(dio_tx + dao_tx + dis_tx),
                static_cast<double>(data_originated + data_forwarded)));
}

// ---- per-world summaries ---------------------------------------------

void WorldPool::add(std::uint64_t failed, std::uint64_t attempted,
                    const std::vector<double>& up_ms) {
  failed_ += failed;
  attempted_ += attempted;
  up_ms_.insert(up_ms_.end(), up_ms.begin(), up_ms.end());
}

void WorldPool::report(Report& r) const {
  r.end_to_end("fail_ratio", ratio(static_cast<double>(failed_),
                                   static_cast<double>(attempted_)));
  r.end_to_end("up_p50_ms", bench::percentile(up_ms_, 50));
  r.end_to_end("up_p99_ms", bench::percentile(up_ms_, 99));
  r.workload("up_samples", static_cast<double>(up_ms_.size()));
}

// ---- helpers ---------------------------------------------------------

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t fnv(std::uint64_t h, double v) {
  return fnv(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t trial_seed(std::uint64_t seed, std::uint64_t salt,
                         std::size_t trial) {
  return fnv(fnv(fnv(kFnvBasis, seed), salt), std::uint64_t{trial});
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace iiot::perfbench
