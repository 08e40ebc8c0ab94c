// The shared perf-regression gate of the bench binaries (bench_util.hpp):
// bench::ratio_gate over BENCH_*.json run lines, bench::digest_gate for
// recorded behavioural digests, and the --compare baseline loader whose
// empty result makes a bench exit 3.
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

TEST(BenchGate, DigestGateComparesAllDigits) {
  // Differs only in the last digit, below a double's resolution at this
  // magnitude: the gate must still see it.
  const std::string base =
      R"({"label": "base", "digest_10k": 5909042819978479702, "x": 1})";
  const std::string same =
      R"({"label": "run", "digest_10k": 5909042819978479702, "x": 2})";
  const std::string off =
      R"({"label": "run", "digest_10k": 5909042819978479703, "x": 1})";
  EXPECT_TRUE(digest_gate(base, same, "digest_10k"));
  EXPECT_FALSE(digest_gate(base, off, "digest_10k"));
}

TEST(BenchGate, DigestGateFailsWhenKeyMissing) {
  const std::string with = R"({"label": "a", "digest_10k": 42})";
  const std::string without = R"({"label": "b", "eps_10k_l1": 42})";
  EXPECT_FALSE(digest_gate(without, with, "digest_10k"));
  EXPECT_FALSE(digest_gate(with, without, "digest_10k"));
}

TEST(BenchGate, MissingBaselineFileYieldsNoRunLine) {
  EXPECT_EQ(compare_baseline("no/such/baseline.json", "bench_x"), "");
}

}  // namespace
}  // namespace iiot::bench
