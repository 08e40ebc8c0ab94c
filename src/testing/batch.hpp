// Parallel fuzz-batch execution on the runner engine (DESIGN.md §4e).
//
// Expands a contiguous seed range into scenarios, shards them across the
// engine, and aggregates results from per-seed slots in seed order — so
// the failing-seed list, the per-seed fingerprints and the failure report
// are byte-identical at any --jobs value. The fuzz CLI, the runner bench
// and the determinism self-check all run on this one path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "testing/scenario.hpp"

namespace iiot::runner {
class Engine;
}

namespace iiot::testing {

struct FuzzBatchOptions {
  std::uint64_t runs = 200;
  std::uint64_t seed_base = 1;
  /// Plants the detach-cleanup bug in every scenario and stops the batch
  /// at the first caught failure (harness validation mode).
  bool canary = false;
  /// Failures reported in full (reproducer + shrink) in `report`.
  std::uint64_t max_reported = 5;
  /// Shrink reported failures (shrinking re-runs scenarios; disable for
  /// cheap determinism diffs).
  bool shrink = true;
  int shrink_budget = 48;
  /// Curated-scenario-family constraints on the generator (`iiot_fuzz
  /// --scenario=NAME`); the default profile is unconstrained. The name
  /// only labels reproducer lines.
  FuzzProfile profile;
  std::string profile_name;
};

struct FuzzBatchResult {
  /// Failing seeds in ascending seed order (jobs-invariant). In canary
  /// mode this holds at most the first caught seed.
  std::vector<std::uint64_t> failing_seeds;
  /// Per-seed fingerprints in seed order; truncated at the stop point in
  /// canary mode. Jobs-invariant.
  std::vector<Fingerprint> fingerprints;
  /// Generated MAC mix of the whole batch (pure function of the seeds).
  std::uint64_t by_mac[4] = {0, 0, 0, 0};
  /// FAIL/reproducer/shrink lines for the first `max_reported` failures,
  /// in seed order. Jobs-invariant.
  std::string report;
  /// Tasks actually executed. Under canary early-stop this depends on
  /// completion timing — wall-clock info only, never an artifact.
  std::size_t scenarios_executed = 0;

  [[nodiscard]] bool ok() const { return failing_seeds.empty(); }
};

/// Runs the batch on `eng`. Deterministic aggregation as described above.
[[nodiscard]] FuzzBatchResult run_fuzz_batch(const FuzzBatchOptions& opt,
                                             runner::Engine& eng);

/// Diffs every jobs-invariant artifact of two runs of the batch `opt`:
/// failing seeds, per-seed fingerprints, report text. `serial` ran at
/// jobs=1 and `parallel` at `jobs`. Returns "" when byte-identical, else a
/// description of the first divergence.
[[nodiscard]] std::string diff_batches(const FuzzBatchOptions& opt,
                                       const FuzzBatchResult& serial,
                                       const FuzzBatchResult& parallel,
                                       unsigned jobs);

/// In-process determinism self-check: runs the batch serially (jobs=1)
/// and again on `eng`, then diffs the two with diff_batches.
[[nodiscard]] std::string check_batch_determinism(const FuzzBatchOptions& opt,
                                                  runner::Engine& eng);

}  // namespace iiot::testing
