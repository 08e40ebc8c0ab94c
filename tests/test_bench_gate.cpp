// The shared perf-regression gate of the bench binaries (bench_util.hpp):
// bench::ratio_gate over BENCH_*.json run lines, and the --compare
// baseline loader whose empty result makes a bench exit 3.
#include <gtest/gtest.h>

#include <string>

#include "bench_util.hpp"

namespace iiot::bench {
namespace {

constexpr const char* kKeys[] = {"a_per_sec", "b_per_sec"};
const std::string kBase =
    R"({"label": "base", "a_per_sec": 100, "b_per_sec": 50})";

TEST(BenchGate, PassesAtOrAboveRatio) {
  const std::string run =
      R"({"label": "run", "a_per_sec": 80, "b_per_sec": 60})";
  EXPECT_TRUE(ratio_gate(kBase, run, kKeys, 0.8));
}

TEST(BenchGate, FailsBelowRatio) {
  const std::string run =
      R"({"label": "run", "a_per_sec": 79, "b_per_sec": 60})";
  EXPECT_FALSE(ratio_gate(kBase, run, kKeys, 0.8));
}

TEST(BenchGate, FailsWhenKeyMissingInRun) {
  const std::string run = R"({"label": "run", "a_per_sec": 100})";
  EXPECT_FALSE(ratio_gate(kBase, run, kKeys, 0.8));
}

TEST(BenchGate, FailsWhenKeyMissingInBaseline) {
  const std::string base = R"({"label": "base", "a_per_sec": 100})";
  const std::string run =
      R"({"label": "run", "a_per_sec": 100, "b_per_sec": 50})";
  EXPECT_FALSE(ratio_gate(base, run, kKeys, 0.8));
}

TEST(BenchGate, MissingBaselineFileYieldsNoRunLine) {
  EXPECT_EQ(compare_baseline("no/such/baseline.json", "bench_x"), "");
}

}  // namespace
}  // namespace iiot::bench
