// Condition → actuation rule engine: the application-logic tier's
// closed-loop path from sensed values back down to actuators.
//
// Two rule families:
//   * point rules (add_rule)        — threshold + debounce on each sample;
//   * window rules (add_window_rule) — threshold on a decomposable
//     aggregate (min/max/sum/count/avg) over the trailing time window of
//     the measurement's series in the TimeSeriesStore. Evaluation rides
//     the store's rollup-indexed aggregate() fast path, so a firing
//     decision never rescans (or copies) the raw window.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backend/timeseries.hpp"
#include "backend/topic_bus.hpp"

namespace iiot::backend {

enum class CmpOp { kLess, kLessEqual, kGreater, kGreaterEqual, kEqual };

[[nodiscard]] inline bool cmp_holds(CmpOp op, double v, double threshold) {
  switch (op) {
    case CmpOp::kLess: return v < threshold;
    case CmpOp::kLessEqual: return v <= threshold;
    case CmpOp::kGreater: return v > threshold;
    case CmpOp::kGreaterEqual: return v >= threshold;
    case CmpOp::kEqual: return v == threshold;
  }
  return false;
}

struct Condition {
  std::string topic_filter;  // which measurements to watch
  CmpOp op = CmpOp::kGreater;
  double threshold = 0.0;
  /// Consecutive matching samples required before firing (debounce).
  int consecutive = 1;

  [[nodiscard]] bool holds(double v) const {
    return cmp_holds(op, v, threshold);
  }
};

/// Windowed condition: `fn` over the trailing `window` of the series that
/// carries the triggering topic, compared against `threshold`. The
/// window's reference point is the series' newest sample, so evaluation
/// is well-defined with or without a scheduler.
struct WindowCondition {
  std::string topic_filter;
  sim::Duration window = 0;
  agg::AggFn fn = agg::AggFn::kAvg;
  CmpOp op = CmpOp::kGreater;
  double threshold = 0.0;
  /// Minimum samples in the window before the rule may fire.
  std::uint32_t min_samples = 1;
};

struct RuleFiring {
  std::string rule_id;
  std::string topic;   // measurement topic that triggered
  double value = 0.0;  // sample value (point rules) / aggregate (window)
};

/// Action: publishes a command on the bus and/or invokes a callback.
struct Action {
  std::string command_topic;  // empty = no publish
  std::string command_payload;
  std::function<void(const RuleFiring&)> callback;  // may be empty
};

class RuleEngine {
 public:
  /// `store` is required only for window rules; point rules never touch
  /// it.
  explicit RuleEngine(TopicBus& bus, TimeSeriesStore* store = nullptr)
      : bus_(bus), store_(store) {}

  /// Installs a rule; measurements must be numeric ASCII payloads.
  void add_rule(std::string id, Condition cond, Action action) {
    auto rule = std::make_shared<Rule>();
    rule->id = id;
    rule->cond = std::move(cond);
    rule->action = std::move(action);
    rule->sub = bus_.subscribe(
        rule->cond.topic_filter,
        [this, rule](const std::string& topic, BytesView payload) {
          evaluate(*rule, topic, payload);
        });
    rules_[std::move(id)] = rule;
  }

  /// Installs a windowed rule (requires a store at construction). Fires
  /// at most once per triggering sample; the firing carries the
  /// aggregate's value.
  void add_window_rule(std::string id, WindowCondition cond, Action action) {
    if (store_ == nullptr) return;
    auto rule = std::make_shared<WindowRule>();
    rule->id = id;
    rule->cond = std::move(cond);
    rule->action = std::move(action);
    rule->sub = bus_.subscribe(
        rule->cond.topic_filter,
        [this, rule](const std::string& topic, BytesView) {
          evaluate_window(*rule, topic);
        });
    window_rules_[std::move(id)] = rule;
  }

  void remove_rule(const std::string& id) {
    auto it = rules_.find(id);
    if (it != rules_.end()) {
      bus_.unsubscribe(it->second->sub);
      rules_.erase(it);
      return;
    }
    auto wit = window_rules_.find(id);
    if (wit != window_rules_.end()) {
      bus_.unsubscribe(wit->second->sub);
      window_rules_.erase(wit);
    }
  }

  [[nodiscard]] std::size_t rule_count() const {
    return rules_.size() + window_rules_.size();
  }
  [[nodiscard]] std::uint64_t firings() const { return firings_; }
  /// Window-rule evaluations skipped because the triggering topic has no
  /// series in the store (e.g. a < 3-level topic that the System's
  /// "+/+/#" ingest subscription never captures). A nonzero value under
  /// core::System usually means a rule filter matches topics outside the
  /// measurement namespace.
  [[nodiscard]] std::uint64_t window_skips() const { return window_skips_; }

 private:
  struct Rule {
    std::string id;
    Condition cond;
    Action action;
    TopicBus::SubId sub{};
    std::map<std::string, int> streak;  // per-topic debounce state
  };

  struct WindowRule {
    std::string id;
    WindowCondition cond;
    Action action;
    TopicBus::SubId sub{};
    // Topic → series memo: series registrations are permanent, so once a
    // topic resolved, re-triggering samples skip the string-keyed find()
    // (the hot-path audit in DESIGN.md §4g). A filter matching several
    // topics keeps the newest; alternating topics degrade to find().
    std::string memo_topic;
    SeriesId memo_ref = kInvalidSeries;
  };

  void fire(const std::string& id, const Action& action,
            const std::string& topic, double value) {
    ++firings_;
    RuleFiring firing{id, topic, value};
    if (!action.command_topic.empty()) {
      bus_.publish(action.command_topic, action.command_payload);
    }
    if (action.callback) action.callback(firing);
  }

  void evaluate(Rule& rule, const std::string& topic, BytesView payload) {
    const auto value = parse_number(payload);
    if (!value) return;
    int& streak = rule.streak[topic];
    if (!rule.cond.holds(*value)) {
      streak = 0;
      return;
    }
    if (++streak < rule.cond.consecutive) return;
    streak = 0;
    fire(rule.id, rule.action, topic, *value);
  }

  void evaluate_window(WindowRule& rule, const std::string& topic) {
    // Ordering invariant (core::System): the store's "+/+/#" ingest
    // subscription is registered in the System constructor — before any
    // rule can subscribe — so its SubId is lower and, by the bus's
    // ascending-SubId delivery order, the triggering sample is already
    // appended when this runs. Standalone rule-engine users must likewise
    // register their ingest subscription before adding window rules.
    //
    // Topics the ingest subscription does not capture (e.g. fewer than 3
    // levels under "+/+/#") have no series; those evaluations are
    // counted in window_skips() rather than silently dropped.
    SeriesId sid = rule.memo_ref;
    if (sid == kInvalidSeries || topic != rule.memo_topic) {
      sid = store_->find(topic);
      if (sid == kInvalidSeries) {
        ++window_skips_;
        return;
      }
      rule.memo_topic = topic;
      rule.memo_ref = sid;
    }
    const auto last = store_->latest(sid);
    if (!last) return;
    const sim::Time from =
        last->at >= rule.cond.window ? last->at - rule.cond.window : 0;
    const agg::PartialAggregate pa =
        store_->aggregate(sid, from, last->at);
    if (pa.count < rule.cond.min_samples) return;
    const double v = pa.evaluate(rule.cond.fn);
    if (!cmp_holds(rule.cond.op, v, rule.cond.threshold)) return;
    fire(rule.id, rule.action, topic, v);
  }

  static std::optional<double> parse_number(BytesView payload) {
    // Numeric payloads are short ("%.4f"-formatted); parse from a stack
    // buffer instead of a heap string.
    char buf[64];
    if (payload.size() >= sizeof(buf)) return std::nullopt;
    std::memcpy(buf, payload.data(), payload.size());
    buf[payload.size()] = '\0';
    char* end = nullptr;
    const double v = std::strtod(buf, &end);
    if (end == buf) return std::nullopt;
    return v;
  }

  TopicBus& bus_;
  TimeSeriesStore* store_ = nullptr;
  std::map<std::string, std::shared_ptr<Rule>> rules_;
  std::map<std::string, std::shared_ptr<WindowRule>> window_rules_;
  std::uint64_t firings_ = 0;
  std::uint64_t window_skips_ = 0;
};

}  // namespace iiot::backend
