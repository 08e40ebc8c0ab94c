// EWMA link quality estimation (ETX): drives RPL parent selection.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace iiot::net {

class LinkEstimator {
 public:
  explicit LinkEstimator(double alpha = 0.25) : alpha_(alpha) {}

  /// Records the outcome of a unicast attempt batch to `neighbor`:
  /// `attempts` transmissions yielding `acked` (0 or 1) delivery.
  void record_tx(NodeId neighbor, int attempts, bool acked) {
    // Sampled ETX of this delivery: attempts needed per success.
    const double sample = acked ? static_cast<double>(std::max(attempts, 1))
                                : kFailedSampleEtx;
    const std::size_t i = index_of(neighbor);
    if (i == links_.size()) {
      // An entry exists only once a sample has been taken, so the first
      // sample seeds the average.
      links_.push_back(Entry{neighbor, 0, sample});
    } else {
      links_[i].etx = (1.0 - alpha_) * links_[i].etx + alpha_ * sample;
    }
    Entry& e = links_[i];
    if (acked) {
      e.consecutive_failures = 0;
    } else {
      ++e.consecutive_failures;
    }
  }

  [[nodiscard]] double etx(NodeId neighbor) const {
    const std::size_t i = index_of(neighbor);
    return i == links_.size() ? kUnknownEtx : links_[i].etx;
  }

  [[nodiscard]] int consecutive_failures(NodeId neighbor) const {
    const std::size_t i = index_of(neighbor);
    return i == links_.size() ? 0 : links_[i].consecutive_failures;
  }

  void forget(NodeId neighbor) {
    // Nothing iterates the table, so removal may reorder it.
    const std::size_t i = index_of(neighbor);
    if (i == links_.size()) return;
    links_[i] = links_.back();
    links_.pop_back();
  }

  static constexpr double kUnknownEtx = 2.0;      // optimistic prior
  static constexpr double kFailedSampleEtx = 8.0; // penalty for total loss

 private:
  struct Entry {
    NodeId neighbor = kInvalidNode;
    int consecutive_failures = 0;
    double etx = 0.0;
  };

  /// Position of `neighbor`'s entry; links_.size() if it has none.
  [[nodiscard]] std::size_t index_of(NodeId neighbor) const {
    std::size_t i = 0;
    while (i < links_.size() && links_[i].neighbor != neighbor) ++i;
    return i;
  }

  double alpha_;
  /// One entry per neighbor this node has unicast to, in no order.
  std::vector<Entry> links_;
};

}  // namespace iiot::net
