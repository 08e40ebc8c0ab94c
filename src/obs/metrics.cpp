#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace iiot::obs {

namespace {

/// Deterministic double formatting for snapshots: %.6g is reproducible
/// for values that are themselves reproducible.
std::string fmt_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

bool sample_before(const MetricsRegistry::Sample& a,
                   const MetricsRegistry::Sample& b) {
  if (a.module != b.module) return a.module < b.module;
  if (a.name != b.name) return a.name < b.name;
  return a.node < b.node;
}

}  // namespace

MetricsRegistry::OwnedEntry* MetricsRegistry::find_owned(const Key& k,
                                                         SlotKind kind) {
  for (OwnedEntry& e : owned_) {
    if (e.kind == kind && e.key == k) return &e;
  }
  return nullptr;
}

Counter MetricsRegistry::counter(std::string module, std::string name,
                                 std::int64_t node) {
  Key k{std::move(module), std::move(name), node};
  if (OwnedEntry* e = find_owned(k, SlotKind::kCounter)) {
    return Counter(&counter_slots_[e->index]);
  }
  counter_slots_.push_back(0);
  owned_.push_back(
      OwnedEntry{std::move(k), SlotKind::kCounter, counter_slots_.size() - 1});
  return Counter(&counter_slots_.back());
}

Gauge MetricsRegistry::gauge(std::string module, std::string name,
                             std::int64_t node) {
  Key k{std::move(module), std::move(name), node};
  if (OwnedEntry* e = find_owned(k, SlotKind::kGauge)) {
    return Gauge(&gauge_slots_[e->index]);
  }
  gauge_slots_.push_back(0.0);
  owned_.push_back(
      OwnedEntry{std::move(k), SlotKind::kGauge, gauge_slots_.size() - 1});
  return Gauge(&gauge_slots_.back());
}

Histogram MetricsRegistry::histogram(std::string module, std::string name,
                                     std::int64_t node,
                                     std::vector<double> bounds) {
  Key k{std::move(module), std::move(name), node};
  if (OwnedEntry* e = find_owned(k, SlotKind::kHistogram)) {
    return Histogram(&hist_slots_[e->index]);
  }
  HistogramData d;
  d.bounds = std::move(bounds);
  d.counts.assign(d.bounds.size() + 1, 0);
  hist_slots_.push_back(std::move(d));
  owned_.push_back(
      OwnedEntry{std::move(k), SlotKind::kHistogram, hist_slots_.size() - 1});
  return Histogram(&hist_slots_.back());
}

void MetricsRegistry::attach_counter(std::string module, std::string name,
                                     std::int64_t node,
                                     const std::uint64_t* slot,
                                     const void* owner) {
  AttachedEntry e;
  e.key = Key{std::move(module), std::move(name), node};
  e.slot = slot;
  e.owner = owner;
  attached_.push_back(std::move(e));
}

void MetricsRegistry::attach_gauge_fn(std::string module, std::string name,
                                      std::int64_t node,
                                      std::function<double()> fn,
                                      const void* owner) {
  AttachedEntry e;
  e.key = Key{std::move(module), std::move(name), node};
  e.fn = std::move(fn);
  e.owner = owner;
  attached_.push_back(std::move(e));
}

void MetricsRegistry::detach(const void* owner) {
  std::erase_if(attached_, [owner](const AttachedEntry& e) {
    return e.owner == owner;
  });
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  std::vector<Sample> out;
  out.reserve(owned_.size() + attached_.size());
  for (const OwnedEntry& e : owned_) {
    Sample s;
    s.module = e.key.module;
    s.name = e.key.name;
    s.node = e.key.node;
    switch (e.kind) {
      case SlotKind::kCounter:
        s.kind = Sample::Kind::kCounter;
        s.u64 = counter_slots_[e.index];
        break;
      case SlotKind::kGauge:
        s.kind = Sample::Kind::kGauge;
        s.f64 = gauge_slots_[e.index];
        break;
      case SlotKind::kHistogram:
        s.kind = Sample::Kind::kHistogram;
        s.hist = &hist_slots_[e.index];
        s.u64 = s.hist->total;
        s.f64 = s.hist->sum;
        break;
    }
    out.push_back(std::move(s));
  }
  for (const AttachedEntry& e : attached_) {
    Sample s;
    s.module = e.key.module;
    s.name = e.key.name;
    s.node = e.key.node;
    if (e.slot != nullptr) {
      s.kind = Sample::Kind::kCounter;
      s.u64 = *e.slot;
    } else {
      s.kind = Sample::Kind::kGauge;
      s.f64 = e.fn ? e.fn() : 0.0;
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), sample_before);
  return out;
}

std::string MetricsRegistry::snapshot_text() const {
  std::string out;
  for (const Sample& s : snapshot()) {
    out += s.module;
    out += '.';
    out += s.name;
    out += '[';
    out += std::to_string(s.node);
    out += "] = ";
    switch (s.kind) {
      case Sample::Kind::kCounter:
        out += fmt_u64(s.u64);
        break;
      case Sample::Kind::kGauge:
        out += fmt_double(s.f64);
        break;
      case Sample::Kind::kHistogram: {
        out += "hist total=";
        out += fmt_u64(s.u64);
        out += " sum=";
        out += fmt_double(s.f64);
        out += " counts=";
        for (std::size_t i = 0; i < s.hist->counts.size(); ++i) {
          if (i > 0) out += ',';
          out += fmt_u64(s.hist->counts[i]);
        }
        break;
      }
    }
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::snapshot_json() const {
  std::string out = "{";
  bool first = true;
  for (const Sample& s : snapshot()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + s.module + "." + s.name + "[" + std::to_string(s.node) +
           "]\": ";
    switch (s.kind) {
      case Sample::Kind::kCounter:
        out += fmt_u64(s.u64);
        break;
      case Sample::Kind::kGauge:
        out += fmt_double(s.f64);
        break;
      case Sample::Kind::kHistogram: {
        out += "{\"bounds\": [";
        for (std::size_t i = 0; i < s.hist->bounds.size(); ++i) {
          out += (i > 0 ? ", " : "") + fmt_double(s.hist->bounds[i]);
        }
        out += "], \"counts\": [";
        for (std::size_t i = 0; i < s.hist->counts.size(); ++i) {
          out += (i > 0 ? ", " : "") + fmt_u64(s.hist->counts[i]);
        }
        out += "], \"total\": " + fmt_u64(s.u64) +
               ", \"sum\": " + fmt_double(s.f64) + "}";
        break;
      }
    }
  }
  out += "}";
  return out;
}

}  // namespace iiot::obs
