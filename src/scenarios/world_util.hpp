// Shared world-building helpers for the curated scenarios (internal to
// src/scenarios/). Mirrors the fuzzer's root-side delivery ledger but
// carries timestamps and values in the payload so scenarios can report
// end-to-end latency and feed the backend tier. Checkpointed advancing
// is testing::Checkpointer, shared with the fuzzer.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "core/network.hpp"
#include "sim/scheduler.hpp"
#include "testing/checkpointer.hpp"

namespace iiot::scenarios::detail {

/// 24-byte timed sample: origin, sequence, send time, value (IEEE-754
/// bits — encoded as an integer, so the round trip is exact).
inline void write_timed(Buffer& p, std::uint32_t origin, std::uint32_t seq,
                        sim::Time sent, double value) {
  p.resize(24);
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  __builtin_memcpy(&bits, &value, sizeof bits);
  for (int i = 0; i < 4; ++i) {
    p[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(origin >> (8 * i));
    p[static_cast<std::size_t>(4 + i)] =
        static_cast<std::uint8_t>(seq >> (8 * i));
  }
  for (int i = 0; i < 8; ++i) {
    p[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(sent >> (8 * i));
    p[static_cast<std::size_t>(16 + i)] =
        static_cast<std::uint8_t>(bits >> (8 * i));
  }
}

inline bool read_timed(BytesView p, std::uint32_t& origin,
                       std::uint32_t& seq, sim::Time& sent, double& value) {
  if (p.size() != 24) return false;
  origin = 0;
  seq = 0;
  sent = 0;
  std::uint64_t bits = 0;
  for (int i = 0; i < 4; ++i) {
    origin |= static_cast<std::uint32_t>(p[static_cast<std::size_t>(i)])
              << (8 * i);
    seq |= static_cast<std::uint32_t>(p[static_cast<std::size_t>(4 + i)])
           << (8 * i);
  }
  for (int i = 0; i < 8; ++i) {
    sent |= static_cast<sim::Time>(p[static_cast<std::size_t>(8 + i)])
            << (8 * i);
    bits |= static_cast<std::uint64_t>(p[static_cast<std::size_t>(16 + i)])
            << (8 * i);
  }
  __builtin_memcpy(&value, &bits, sizeof value);
  return true;
}

/// Root-side ledger: dedups (origin, seq), records end-to-end latency,
/// and hands fresh samples to an optional sink (backend ingest).
struct Ledger {
  std::uint64_t rx = 0;
  std::uint64_t malformed = 0;
  std::uint64_t duplicates = 0;
  std::vector<double> latencies_us;
  std::unordered_set<std::uint64_t> seen;
  /// sink(origin, value, sent_time) for each first-time delivery.
  std::function<void(std::uint32_t, double, sim::Time)> sink;

  void record(BytesView payload, sim::Time now) {
    ++rx;
    std::uint32_t origin = 0;
    std::uint32_t seq = 0;
    sim::Time sent = 0;
    double value = 0.0;
    if (!read_timed(payload, origin, seq, sent, value) || sent > now) {
      ++malformed;
      return;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(origin) << 32) | seq;
    if (!seen.insert(key).second) {
      ++duplicates;
      return;
    }
    latencies_us.push_back(static_cast<double>(now - sent));
    if (sink) sink(origin, value, sent);
  }
};

/// Mean duty cycle over the non-root nodes (settles meters first).
inline void collect_duty(core::MeshNetwork& net, sim::Time now,
                         double& duty_sum, std::size_t& duty_nodes) {
  for (std::size_t i = 1; i < net.size(); ++i) {
    net.node(i).meter.settle(now);
    duty_sum += net.node(i).meter.duty_cycle();
    ++duty_nodes;
  }
}

}  // namespace iiot::scenarios::detail
