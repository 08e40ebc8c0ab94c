// One shared, immutable copy per distinct value of a per-node constant.
//
// Every node of a network runs the same protocol configuration and the
// same energy profile, so a city world would otherwise hold thousands of
// identical copies of them (DESIGN.md §4j, per-node memory budget).
// interned(v) returns a copy equal to `v` that lives as long as the
// process; equal values share one copy, so a node keeps a pointer where
// it kept the value. A process builds a handful of distinct values (one
// per network configuration), so the pool is a short list. It is guarded
// by a mutex because worlds are built on several threads at once (the
// --jobs runner).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

namespace iiot {

template <class T>
[[nodiscard]] const T& interned(const T& value) {
  static std::mutex mu;
  static std::vector<std::unique_ptr<const T>> pool;
  const std::lock_guard<std::mutex> lock(mu);
  for (const std::unique_ptr<const T>& p : pool) {
    if (*p == value) return *p;
  }
  pool.push_back(std::make_unique<const T>(value));
  return *pool.back();
}

}  // namespace iiot
