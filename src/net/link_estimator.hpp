// EWMA link quality estimation (ETX): drives RPL parent selection.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "common/types.hpp"

namespace iiot::net {

class LinkEstimator {
 public:
  explicit LinkEstimator(double alpha = 0.25) : alpha_(alpha) {}

  /// Records the outcome of a unicast attempt batch to `neighbor`:
  /// `attempts` transmissions yielding `acked` (0 or 1) delivery.
  void record_tx(NodeId neighbor, int attempts, bool acked) {
    auto& e = links_[neighbor];
    // Sampled ETX of this delivery: attempts needed per success.
    double sample = acked ? static_cast<double>(std::max(attempts, 1))
                          : kFailedSampleEtx;
    if (e.samples == 0) {
      e.etx = sample;
    } else {
      e.etx = (1.0 - alpha_) * e.etx + alpha_ * sample;
    }
    ++e.samples;
    if (acked) {
      e.consecutive_failures = 0;
    } else {
      ++e.consecutive_failures;
    }
  }

  [[nodiscard]] double etx(NodeId neighbor) const {
    auto it = links_.find(neighbor);
    return it == links_.end() || it->second.samples == 0
               ? kUnknownEtx
               : it->second.etx;
  }

  [[nodiscard]] int consecutive_failures(NodeId neighbor) const {
    auto it = links_.find(neighbor);
    return it == links_.end() ? 0 : it->second.consecutive_failures;
  }

  void forget(NodeId neighbor) { links_.erase(neighbor); }

  static constexpr double kUnknownEtx = 2.0;      // optimistic prior
  static constexpr double kFailedSampleEtx = 8.0; // penalty for total loss

 private:
  struct Entry {
    double etx = 0.0;
    std::uint32_t samples = 0;
    int consecutive_failures = 0;
  };
  double alpha_;
  std::unordered_map<NodeId, Entry> links_;
};

}  // namespace iiot::net
