#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "sim/scheduler.hpp"

namespace iiot::obs {

SpanRef Tracer::push(TraceId trace, NodeId node, Layer layer,
                     const char* name, SpanRef parent, bool is_instant) {
  if (records_.size() >= max_records_) {
    ++dropped_;
    return 0;
  }
  SpanRecord r;
  r.trace = trace;
  r.parent = parent;
  r.node = node;
  r.layer = layer;
  r.name = name;
  r.start = sched_.now();
  r.end = r.start;
  r.open = !is_instant;
  r.instant = is_instant;
  records_.push_back(r);
  return static_cast<SpanRef>(records_.size());
}

TraceId Tracer::open_trace(NodeId node, Layer layer) {
  if (records_.size() >= max_records_) {
    ++dropped_;
    return 0;
  }
  const TraceId t = next_trace_++;
  trace_start_.push_back(sched_.now());
  push(t, node, layer, "origin", 0, /*is_instant=*/true);
  return t;
}

void Tracer::close(SpanRef ref) {
  if (ref > records_.size()) return;
  SpanRecord& r = records_[ref - 1];
  if (!r.open) return;
  r.open = false;
  r.end = sched_.now();
}

// ---------------------------------------------------------------- export

namespace {

/// Exported node ids: the broadcast/invalid sentinels read poorly as raw
/// 32-bit values, so map them to small negatives.
std::int64_t export_node(NodeId n) {
  if (n == kBroadcastNode) return -2;
  if (n == kInvalidNode) return -1;
  return static_cast<std::int64_t>(n);
}

}  // namespace

void Tracer::write_jsonl(std::ostream& os) const {
  char buf[320];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    int n = std::snprintf(
        buf, sizeof buf,
        "{\"span\":%zu,\"trace\":%" PRIu64 ",\"parent\":%u,\"node\":%lld,"
        "\"layer\":\"%s\",\"name\":\"%s\",\"ts\":%" PRIu64 ",\"dur\":%" PRIu64
        "%s",
        i + 1, r.trace, r.parent,
        static_cast<long long>(export_node(r.node)), to_string(r.layer),
        r.name, r.start, r.end - r.start, r.open ? ",\"open\":1" : "");
    os.write(buf, n);
    if (r.arg_key != nullptr) {
      n = std::snprintf(buf, sizeof buf, ",\"%s\":%" PRIu64, r.arg_key,
                        r.arg_val);
      os.write(buf, n);
    }
    os << "}\n";
  }
}

std::string Tracer::jsonl() const {
  std::ostringstream os;
  write_jsonl(os);
  return os.str();
}

void Tracer::write_chrome_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Name the per-node "processes" and per-layer "threads" so the viewer
  // shows "node 7 / mac" instead of raw ids.
  std::vector<std::int64_t> nodes;
  for (const SpanRecord& r : records_) {
    const std::int64_t n = export_node(r.node);
    bool seen = false;
    for (std::int64_t v : nodes) seen = seen || v == n;
    if (!seen) nodes.push_back(n);
  }
  char buf[384];
  for (std::int64_t n : nodes) {
    sep();
    int len = std::snprintf(
        buf, sizeof buf,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%lld,\"tid\":0,"
        "\"args\":{\"name\":\"node %lld\"}}",
        static_cast<long long>(n), static_cast<long long>(n));
    os.write(buf, len);
    for (std::size_t l = 0; l < kNumLayers; ++l) {
      sep();
      len = std::snprintf(
          buf, sizeof buf,
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%lld,\"tid\":%zu,"
          "\"args\":{\"name\":\"%s\"}}",
          static_cast<long long>(n), l,
          to_string(static_cast<Layer>(l)));
      os.write(buf, len);
    }
  }

  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    sep();
    const long long pid = static_cast<long long>(export_node(r.node));
    const auto tid = static_cast<std::size_t>(r.layer);
    int len;
    if (r.instant) {
      len = std::snprintf(
          buf, sizeof buf,
          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
          "\"ts\":%" PRIu64 ",\"pid\":%lld,\"tid\":%zu,\"args\":{"
          "\"trace\":%" PRIu64 ",\"span\":%zu,\"parent\":%u",
          r.name, to_string(r.layer), r.start, pid, tid, r.trace, i + 1,
          r.parent);
    } else {
      len = std::snprintf(
          buf, sizeof buf,
          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%" PRIu64
          ",\"dur\":%" PRIu64 ",\"pid\":%lld,\"tid\":%zu,\"args\":{"
          "\"trace\":%" PRIu64 ",\"span\":%zu,\"parent\":%u",
          r.name, to_string(r.layer), r.start, r.end - r.start, pid, tid,
          r.trace, i + 1, r.parent);
    }
    os.write(buf, len);
    if (r.arg_key != nullptr) {
      len = std::snprintf(buf, sizeof buf, ",\"%s\":%" PRIu64, r.arg_key,
                          r.arg_val);
      os.write(buf, len);
    }
    os << "}}";
  }
  os << "\n]}\n";
}

}  // namespace iiot::obs
