// Unit coverage for the parallel scenario-execution engine (DESIGN.md
// §4e): slot ordering under adversarial completion order, exception
// propagation, early stop, degenerate batches, and the determinism
// contract — jobs=1 and jobs=N must aggregate byte-identical fuzz
// artifacts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runner/engine.hpp"
#include "testing/batch.hpp"
#include "testing/scenario.hpp"
#include "testing/shrink.hpp"

namespace iiot {
namespace {

TEST(Runner, HardwareJobsIsPositive) {
  EXPECT_GE(runner::hardware_jobs(), 1u);
  runner::Engine eng(0);  // 0 resolves to the hardware count
  EXPECT_EQ(eng.jobs(), runner::hardware_jobs());
}

TEST(Runner, EmptyBatchRunsNothing) {
  for (unsigned jobs : {1u, 4u}) {
    runner::Engine eng(jobs);
    std::atomic<int> calls{0};
    EXPECT_EQ(eng.run(0, [&](std::size_t) { ++calls; }), 0u);
    EXPECT_EQ(calls.load(), 0);
  }
}

TEST(Runner, MoreJobsThanTasks) {
  runner::Engine eng(8);
  std::vector<int> slots(3, -1);
  EXPECT_EQ(eng.run(3, [&](std::size_t i) {
              slots[i] = static_cast<int>(i) * 10;
            }),
            3u);
  EXPECT_EQ(slots, (std::vector<int>{0, 10, 20}));
}

// Adversarial completion order: early tasks sleep longest, so completion
// order is roughly the reverse of claim order — slots must still land by
// task id.
TEST(Runner, SlotsOrderedUnderAdversarialCompletionOrder) {
  constexpr std::size_t kTasks = 24;
  runner::Engine eng(4);
  std::vector<std::uint64_t> slots(kTasks, 0);
  eng.run(kTasks, [&](std::size_t i) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds((kTasks - i) % 5));
    slots[i] = i * i + 1;
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(slots[i], i * i + 1) << "slot " << i;
  }
}

// The lowest-index throwing task wins, exactly as a serial loop would
// have thrown — even when a later task throws first in wall time.
TEST(Runner, LowestIndexExceptionPropagates) {
  for (unsigned jobs : {1u, 4u}) {
    runner::Engine eng(jobs);
    std::vector<int> done(16, 0);
    try {
      eng.run(16, [&](std::size_t i) {
        if (i == 3) {
          // Give the other workers time to claim (and throw from) later
          // indices first.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          throw std::runtime_error("task 3");
        }
        if (i == 7) throw std::runtime_error("task 7");
        done[i] = 1;
      });
      FAIL() << "no exception at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3") << "jobs=" << jobs;
    }
    // Everything below the throwing index ran to completion.
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(done[i], 1) << "jobs=" << jobs << " slot " << i;
    }
  }
}

TEST(Runner, StopAfterSkipsTail) {
  for (unsigned jobs : {1u, 4u}) {
    runner::Engine eng(jobs);
    std::vector<int> done(64, 0);
    const std::size_t executed = eng.run(
        64, [&](std::size_t i) { done[i] = 1; },
        [](std::size_t i) { return i == 5; });
    // The executed set is a prefix covering the stop index; far tail
    // tasks were never claimed.
    EXPECT_GE(executed, 6u) << "jobs=" << jobs;
    EXPECT_LT(executed, 64u) << "jobs=" << jobs;
    for (std::size_t i = 0; i <= 5; ++i) {
      EXPECT_EQ(done[i], 1) << "jobs=" << jobs << " slot " << i;
    }
  }
}

TEST(Runner, ReentrantRunOnPoolThrows) {
  runner::Engine eng(2);
  EXPECT_THROW(eng.run(2,
                       [&](std::size_t) {
                         eng.run(1, [](std::size_t) {});
                       }),
               std::logic_error);
}

TEST(Runner, SerialEngineNestsFine) {
  runner::Engine eng(1);
  int inner = 0;
  eng.run(2, [&](std::size_t) { eng.run(3, [&](std::size_t) { ++inner; }); });
  EXPECT_EQ(inner, 6);
}

TEST(Runner, MapCollectsSlots) {
  runner::Engine eng(4);
  const std::vector<std::string> out =
      runner::map<std::string>(eng, 6, [](std::size_t i) {
        std::string s = "v";
        s += std::to_string(i);
        return s;
      });
  EXPECT_EQ(out, (std::vector<std::string>{"v0", "v1", "v2", "v3", "v4",
                                           "v5"}));
}

// ---- determinism contract on the real workload ------------------------

// A green batch: every jobs-invariant artifact must be byte-identical
// between the serial reference execution and a 4-job pool.
TEST(RunnerBatch, FuzzBatchIsJobsInvariant) {
  testing::FuzzBatchOptions opt;
  opt.runs = 24;
  opt.seed_base = 1;
  opt.shrink = false;
  runner::Engine eng(4);
  EXPECT_EQ(testing::check_batch_determinism(opt, eng), "");
}

// A failing batch (planted canary) exercises the early-stop path and the
// failure report; the caught seed and the report must not depend on the
// job count.
TEST(RunnerBatch, CanaryBatchIsJobsInvariant) {
  testing::FuzzBatchOptions opt;
  opt.runs = 60;
  opt.seed_base = 1;
  opt.canary = true;
  opt.shrink = false;
  runner::Engine eng(4);
  EXPECT_EQ(testing::check_batch_determinism(opt, eng), "");

  const testing::FuzzBatchResult r = testing::run_fuzz_batch(opt, eng);
  ASSERT_FALSE(r.failing_seeds.empty()) << "canary survived the batch";
  EXPECT_EQ(r.failing_seeds.size(), 1u);  // stops at the first catch
  EXPECT_NE(r.report.find("FAIL"), std::string::npos);
  EXPECT_NE(r.report.find("--canary"), std::string::npos);
}

// Shrinking a reproducer on a 4-job engine must land on the same minimal
// config, failure and rerun count as the serial reference.
TEST(RunnerBatch, ShrinkIsJobsInvariant) {
  std::optional<std::uint64_t> caught;
  for (std::uint64_t seed = 1; seed <= 60 && !caught; ++seed) {
    testing::ScenarioConfig cfg = testing::generate_scenario(seed);
    if (cfg.churn_slots == 0) continue;
    cfg.canary_skip_detach_cleanup = true;
    if (!testing::run_scenario(cfg).ok) caught = seed;
  }
  ASSERT_TRUE(caught.has_value()) << "canary survived 60 scenarios";

  testing::ScenarioConfig cfg = testing::generate_scenario(*caught);
  cfg.canary_skip_detach_cleanup = true;
  runner::Engine eng(4);
  const testing::ShrinkResult serial = testing::shrink_scenario(cfg, 48);
  const testing::ShrinkResult parallel =
      testing::shrink_scenario(cfg, 48, &eng);
  EXPECT_EQ(serial.config.summary(), parallel.config.summary());
  EXPECT_EQ(serial.failure, parallel.failure);
  EXPECT_EQ(serial.attempts, parallel.attempts);
  EXPECT_EQ(serial.changed, parallel.changed);
  // The shrunk variant must still reproduce.
  EXPECT_FALSE(testing::run_scenario(parallel.config).ok);
}

}  // namespace
}  // namespace iiot
