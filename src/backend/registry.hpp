// Service registry / directory in three architectures — the paper's size-
// scalability progression (§IV-A): centralized service → partitioned/
// replicated service → fully decentralized algorithm. Bench E5 loads all
// three and shows where each collapses.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "sim/scheduler.hpp"

namespace iiot::backend {

/// Consistent-hash ring with virtual nodes: the decentralized placement
/// primitive (each client computes the owner locally — no directory hop).
///
/// Every vnode hash is computed once at add_node() and cached, so
/// remove_node() never re-derives vnode keys. Nodes are assigned a dense
/// `slot` in registration order, and owner_slot() resolves a
/// pre-computed key hash straight to that slot: Directory registers its
/// servers in index order, so the slot IS the server index and placement
/// skips the name round trip entirely.
class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(int vnodes_per_node = 64)
      : vnodes_(vnodes_per_node) {}

  /// Registers `node` under `vnodes()` virtual points (idempotent: re-
  /// adding a live node is a no-op). The node's dense slot is returned.
  std::uint32_t add_node(const std::string& node);
  void remove_node(const std::string& node);

  [[nodiscard]] std::optional<std::string> owner(std::string_view key) const;
  /// Owner resolution from a pre-computed hash(key): the zero-string-work
  /// lookup the routing hot paths use. Returns the owner's dense slot.
  [[nodiscard]] std::optional<std::uint32_t> owner_slot(
      std::uint64_t key_hash) const;
  [[nodiscard]] const std::string& node_name(std::uint32_t slot) const;

  [[nodiscard]] std::size_t node_count() const { return nodes_; }
  [[nodiscard]] int vnodes() const { return vnodes_; }

  static std::uint64_t hash(std::string_view s);

 private:
  int vnodes_;
  std::size_t nodes_ = 0;
  // vnode hash -> dense node slot. Slots are assigned in registration
  // order and never reused; a removed node's slot simply goes dark.
  std::map<std::uint64_t, std::uint32_t> ring_;
  std::vector<std::string> names_;  // slot -> name ("" = removed)
  // name -> (slot, cached vnode hashes): remove_node() erases exactly the
  // hashes add_node() inserted, with zero re-hashing.
  std::unordered_map<std::string,
                     std::pair<std::uint32_t, std::vector<std::uint64_t>>>
      node_hashes_;
};

/// Single-queue server with deterministic service time: the contention
/// model behind every centralized service.
class QueuedServer {
 public:
  QueuedServer(sim::Scheduler& sched, sim::Duration service_time)
      : sched_(sched), service_time_(service_time) {}

  /// Enqueues one request; `done` fires when the server finishes it.
  void submit(std::function<void()> done) {
    queue_.push_back(std::move(done));
    ++total_;
    if (!busy_) process_next();
  }

  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t processed() const { return processed_; }
  [[nodiscard]] std::uint64_t total_submitted() const { return total_; }

 private:
  void process_next() {
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    auto done = std::move(queue_.front());
    queue_.pop_front();
    sched_.schedule_after(service_time_, [this, done = std::move(done)] {
      ++processed_;
      if (done) done();
      process_next();
    });
  }

  sim::Scheduler& sched_;
  sim::Duration service_time_;
  std::deque<std::function<void()>> queue_;
  bool busy_ = false;
  std::uint64_t processed_ = 0;
  std::uint64_t total_ = 0;
};

enum class DirectoryMode { kCentral, kPartitioned, kDecentralized };

[[nodiscard]] constexpr const char* to_string(DirectoryMode m) {
  switch (m) {
    case DirectoryMode::kCentral: return "central";
    case DirectoryMode::kPartitioned: return "partitioned";
    case DirectoryMode::kDecentralized: return "decentralized";
  }
  return "?";
}

struct DirectoryConfig {
  sim::Duration rtt = 2'000;           // client<->server round trip
  sim::Duration service_time = 150;    // per-lookup CPU at a server
  int server_count = 4;                // for partitioned/decentralized
  int vnodes = 64;
  /// Partitioned mode only: clients do not know the shard map, so every
  /// lookup transits a front-end router with this (small) service time.
  /// Decentralized clients compute the owner locally and skip it.
  sim::Duration frontend_service_time = 25;
};

/// A name→address directory deployed in one of the three architectures.
class Directory {
 public:
  Directory(sim::Scheduler& sched, DirectoryMode mode, DirectoryConfig cfg);

  void register_service(const std::string& name, const std::string& addr);

  /// Asynchronous lookup; `done(latency, found_addr)`.
  using LookupCallback =
      std::function<void(sim::Duration, std::optional<std::string>)>;
  void lookup(const std::string& name, LookupCallback done);

  [[nodiscard]] DirectoryMode mode() const { return mode_; }
  [[nodiscard]] std::size_t entries() const;

 private:
  [[nodiscard]] std::size_t server_for(const std::string& name) const;

  sim::Scheduler& sched_;
  DirectoryMode mode_;
  DirectoryConfig cfg_;
  ConsistentHashRing ring_;
  std::unique_ptr<QueuedServer> frontend_;  // partitioned mode only
  std::vector<std::unique_ptr<QueuedServer>> servers_;
  std::vector<std::map<std::string, std::string>> shards_;
};

}  // namespace iiot::backend
