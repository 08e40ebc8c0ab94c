#include "testing/batch.hpp"

#include <cstdio>

#include "runner/engine.hpp"
#include "testing/shrink.hpp"

namespace iiot::testing {

namespace {

/// One failure's report block, formatted exactly like the historical
/// serial fuzz driver so reproducer lines stay grep-stable.
std::string format_failure(const ScenarioConfig& cfg, const ScenarioResult& r,
                           const FuzzBatchOptions& opt,
                           runner::Engine& eng) {
  std::string out;
  char buf[160];
  out += "FAIL  " + cfg.summary() + "\n";
  out += "      " + r.failure + "\n";
  // Profiled batches must replay under the same generator constraints,
  // so the reproducer line carries the scenario-family name along.
  std::string extra;
  if (!opt.profile_name.empty()) extra += " --scenario=" + opt.profile_name;
  if (cfg.canary_skip_detach_cleanup) extra += " --canary";
  std::snprintf(buf, sizeof buf,
                "      reproduce: iiot_fuzz --replay_seed=%llu%s\n",
                static_cast<unsigned long long>(cfg.seed), extra.c_str());
  out += buf;
  if (opt.shrink) {
    const ShrinkResult shrunk = shrink_scenario(cfg, opt.shrink_budget, &eng);
    std::snprintf(buf, sizeof buf, "      shrunk (%d reruns): ",
                  shrunk.attempts);
    out += buf;
    out += shrunk.config.summary() + "\n";
    out += "      shrunk failure: " + shrunk.failure + "\n";
  }
  return out;
}

}  // namespace

FuzzBatchResult run_fuzz_batch(const FuzzBatchOptions& opt,
                               runner::Engine& eng) {
  const auto n = static_cast<std::size_t>(opt.runs);
  FuzzBatchResult out;

  // Scenario expansion is a pure function of the seed and cheap next to a
  // run, so the whole batch's configs (and the MAC mix) are materialized
  // up front regardless of how much of it executes.
  std::vector<ScenarioConfig> cfgs(n);
  for (std::size_t i = 0; i < n; ++i) {
    cfgs[i] = generate_scenario(opt.seed_base + i, opt.profile);
    if (opt.canary) cfgs[i].canary_skip_detach_cleanup = true;
    ++out.by_mac[static_cast<int>(cfgs[i].mac)];
  }

  // One slot per seed. In canary mode the batch stops claiming seeds once
  // any worker catches the planted bug; ascending claims guarantee every
  // seed below the first catch still runs, so the first-failure scan
  // below is exact at any job count.
  std::vector<ScenarioResult> results(n);
  runner::Engine::StopAfter stop;
  if (opt.canary) {
    stop = [&results](std::size_t i) { return !results[i].ok; };
  }
  out.scenarios_executed = eng.run(
      n, [&](std::size_t i) { results[i] = run_scenario(cfgs[i]); }, stop);

  // ---- slot-ordered aggregation (the jobs-invariant part) -------------
  std::size_t limit = n;
  if (opt.canary) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!results[i].ok) {
        limit = i + 1;  // one caught bug is proof enough
        break;
      }
    }
  }
  out.fingerprints.reserve(limit);
  for (std::size_t i = 0; i < limit; ++i) {
    out.fingerprints.push_back(results[i].fingerprint);
    if (!results[i].ok) out.failing_seeds.push_back(cfgs[i].seed);
  }
  std::size_t reported = 0;
  for (std::size_t i = 0; i < limit && reported < opt.max_reported; ++i) {
    if (results[i].ok) continue;
    out.report += format_failure(cfgs[i], results[i], opt, eng);
    ++reported;
  }
  return out;
}

std::string diff_batches(const FuzzBatchOptions& opt,
                         const FuzzBatchResult& serial,
                         const FuzzBatchResult& parallel, unsigned jobs) {
  if (serial.failing_seeds != parallel.failing_seeds) {
    return "failing-seed lists diverge: serial has " +
           std::to_string(serial.failing_seeds.size()) + ", jobs=" +
           std::to_string(jobs) + " has " +
           std::to_string(parallel.failing_seeds.size());
  }
  if (serial.fingerprints.size() != parallel.fingerprints.size()) {
    return "fingerprint counts diverge: " +
           std::to_string(serial.fingerprints.size()) + " vs " +
           std::to_string(parallel.fingerprints.size());
  }
  for (std::size_t i = 0; i < serial.fingerprints.size(); ++i) {
    if (!(serial.fingerprints[i] == parallel.fingerprints[i])) {
      return "fingerprint diverges at seed " +
             std::to_string(opt.seed_base + i) +
             "\n  serial:   " + serial.fingerprints[i].to_string() +
             "\n  parallel: " + parallel.fingerprints[i].to_string();
    }
  }
  if (serial.report != parallel.report) {
    return "failure report text diverges\n--- serial ---\n" + serial.report +
           "--- jobs=" + std::to_string(jobs) + " ---\n" + parallel.report;
  }
  return {};
}

std::string check_batch_determinism(const FuzzBatchOptions& opt,
                                    runner::Engine& eng) {
  runner::Engine serial(1);
  const FuzzBatchResult a = run_fuzz_batch(opt, serial);
  const FuzzBatchResult b = run_fuzz_batch(opt, eng);
  return diff_batches(opt, a, b, eng.jobs());
}

}  // namespace iiot::testing
