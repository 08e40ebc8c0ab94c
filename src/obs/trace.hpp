// Causal cross-layer event tracing (Dapper-style, DESIGN.md §4d).
//
// An application message gets a TraceId at its origin; every layer it
// crosses (backend publish, transport fragmentation, RPL forwarding, MAC
// tx/retx, radio propagation, delivery) records spans and instants tagged
// with that id. Propagation is entirely out-of-band: frames carry trace
// metadata as in-memory fields that are NOT serialized and do not change
// on-air sizes, and synchronous up-/down-calls hand the ambient trace over
// via a scoped "current trace" — so enabling tracing can never perturb the
// simulation itself.
//
// Determinism contract: trace and span ids come from per-Tracer monotonic
// counters, timestamps are virtual time, records are exported in append
// order — identical seeds yield byte-identical JSONL and Chrome-trace
// output. The tracer never consults the RNG and never schedules events.
//
// Span names must be string literals (static storage duration): records
// keep the pointer, not a copy.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/ids.hpp"
#include "sim/time.hpp"

namespace iiot::sim {
class Scheduler;
}

namespace iiot::obs {

/// Which layer of the stack produced a record (Chrome-trace "thread").
enum class Layer : std::uint8_t {
  kApp = 0,
  kBackend,
  kTransport,
  kNet,
  kMac,
  kRadio,
  kSim,
};

inline constexpr std::size_t kNumLayers = 7;

[[nodiscard]] constexpr const char* to_string(Layer l) {
  switch (l) {
    case Layer::kApp: return "app";
    case Layer::kBackend: return "backend";
    case Layer::kTransport: return "transport";
    case Layer::kNet: return "net";
    case Layer::kMac: return "mac";
    case Layer::kRadio: return "radio";
    case Layer::kSim: return "sim";
  }
  return "?";
}

struct SpanRecord {
  TraceId trace = 0;       // 0: world event not tied to a message
  SpanRef parent = 0;      // 0: no parent
  NodeId node = kInvalidNode;
  Layer layer = Layer::kApp;
  const char* name = "";   // string literal
  sim::Time start = 0;
  sim::Time end = 0;
  bool open = false;       // true while begin()ed but not yet end()ed
  bool instant = false;    // zero-duration point event
  const char* arg_key = nullptr;  // optional single annotation
  std::uint64_t arg_val = 0;
};

class Tracer {
 public:
  /// `max_records` bounds memory; once hit, new spans are dropped (and
  /// counted) deterministically.
  explicit Tracer(sim::Scheduler& sched, std::size_t max_records = 1u << 20)
      : sched_(sched), max_records_(max_records) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // The recording calls below are inline for the disabled case (an
  // installed Context with tracing off, the metrics-only mode): it costs
  // one flag or ref test and no call.

  /// Allocates a fresh trace id and records its root instant ("origin")
  /// at `node`. Returns 0 when disabled or at capacity.
  TraceId start_trace(NodeId node, Layer layer) {
    return enabled_ ? open_trace(node, layer) : 0;
  }

  /// Opens a span; returns 0 when disabled/at capacity (end(0) is a
  /// no-op, so call sites need no guards).
  SpanRef begin(TraceId trace, NodeId node, Layer layer, const char* name,
                SpanRef parent = 0) {
    return enabled_ ? push(trace, node, layer, name, parent, false) : 0;
  }
  void end(SpanRef ref) {
    if (ref != 0) close(ref);
  }
  void end(SpanRef ref, const char* arg_key, std::uint64_t arg_val) {
    if (ref == 0) return;
    annotate(ref, arg_key, arg_val);
    close(ref);
  }

  /// Point event.
  SpanRef instant(TraceId trace, NodeId node, Layer layer, const char* name,
                  SpanRef parent = 0) {
    return enabled_ ? push(trace, node, layer, name, parent, true) : 0;
  }
  void annotate(SpanRef ref, const char* arg_key, std::uint64_t arg_val) {
    if (ref == 0 || ref > records_.size()) return;
    SpanRecord& r = records_[ref - 1];
    r.arg_key = arg_key;
    r.arg_val = arg_val;
  }

  // ---- ambient trace context (synchronous cross-layer handoff) -------
  [[nodiscard]] TraceId current_trace() const { return cur_trace_; }
  [[nodiscard]] SpanRef current_span() const { return cur_span_; }
  void set_current(TraceId t, SpanRef s) {
    cur_trace_ = t;
    cur_span_ = s;
  }

  // ---- introspection / export ---------------------------------------
  [[nodiscard]] const std::vector<SpanRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t traces_started() const { return next_trace_ - 1; }
  /// Virtual time the trace's origin was recorded (0 if unknown).
  [[nodiscard]] sim::Time trace_start(TraceId t) const {
    return t >= 1 && t < next_trace_ ? trace_start_[t - 1] : 0;
  }

  /// One JSON object per line, append order — the golden-diff format.
  void write_jsonl(std::ostream& os) const;
  [[nodiscard]] std::string jsonl() const;

  /// Chrome trace-event JSON (open in chrome://tracing or Perfetto):
  /// pid = node, tid = layer, complete/instant events with trace ids in
  /// args.
  void write_chrome_json(std::ostream& os) const;

 private:
  /// Appends a record (tracing enabled); its ref, or 0 when at capacity.
  SpanRef push(TraceId trace, NodeId node, Layer layer, const char* name,
               SpanRef parent, bool is_instant);
  TraceId open_trace(NodeId node, Layer layer);
  void close(SpanRef ref);

  sim::Scheduler& sched_;
  std::size_t max_records_;
  bool enabled_ = false;
  std::uint64_t next_trace_ = 1;
  std::size_t dropped_ = 0;
  TraceId cur_trace_ = 0;
  SpanRef cur_span_ = 0;
  std::vector<SpanRecord> records_;
  std::vector<sim::Time> trace_start_;  // indexed by trace id - 1
};

/// RAII scope for the ambient (trace, span) pair; tolerates a null tracer
/// so call sites stay one-liners whether or not observability is on.
class TraceScope {
 public:
  TraceScope(Tracer* t, TraceId trace, SpanRef span) : t_(t) {
    if (t_ != nullptr) {
      saved_trace_ = t_->current_trace();
      saved_span_ = t_->current_span();
      t_->set_current(trace, span);
    }
  }
  ~TraceScope() {
    if (t_ != nullptr) t_->set_current(saved_trace_, saved_span_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* t_;
  TraceId saved_trace_ = 0;
  SpanRef saved_span_ = 0;
};

}  // namespace iiot::obs
