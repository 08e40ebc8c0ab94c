// The shared harness of the gate benches (bench_util.hpp):
// bench::ratio_gate over BENCH_*.json run lines, bench::digest_gate for
// recorded behavioural digests, bench::floor_gate for acceptance floors,
// the --compare baseline loader whose empty result makes a bench exit 3,
// the command-line parser whose refusal makes a bench exit 2, and the
// batch diff bench_runner and `iiot_fuzz --selfcheck` share.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "testing/batch.hpp"

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

TEST(BenchGate, FloorGatePassesAtTheFloor) {
  const Floor floors[] = {{"a_per_sec", 80.0, 80.0}};
  EXPECT_TRUE(floor_gate(floors));
}

TEST(BenchGate, FloorGateFailsBelowTheFloor) {
  const Floor floors[] = {{"a_per_sec", 79.9, 80.0}, {"b_per_sec", 99, 5}};
  EXPECT_FALSE(floor_gate(floors));
}

// A bench prints the speedups with one decimal; a measured x9.96 reads
// "10.0" in its run line and must still fail the x10 floor.
TEST(BenchGate, FloorGateJudgesTheUnroundedValue) {
  const Floor floors[] = {{"query_speedup", 9.96, 10.0}};
  EXPECT_FALSE(floor_gate(floors));
}

/// parse_args over `args` (argv[0] is supplied), with one --reps flag.
struct Parsed {
  bool ok = false;
  std::string label = "current";
  std::string out_path = "BENCH_x.json";
  std::uint64_t reps = 1;
};

Parsed parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"bench_x"};
  argv.insert(argv.end(), args.begin(), args.end());
  Parsed p;
  p.ok = parse_args(static_cast<int>(argv.size()), argv.data(), p.label,
                    p.out_path, {{"--reps", &p.reps}});
  return p;
}

TEST(BenchGate, ParserRejectsAnUnknownFlag) {
  EXPECT_FALSE(parse({"ci", "--frobnicate"}).ok);
  EXPECT_FALSE(parse({"--reps"}).ok);  // a value flag without its value
}

TEST(BenchGate, ParserTakesLabelThenOutputPath) {
  const Parsed p = parse({"ci", "--reps=3", "out.json"});
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.label, "ci");
  EXPECT_EQ(p.out_path, "out.json");
  EXPECT_EQ(p.reps, 3u);
  const Parsed none = parse({});
  ASSERT_TRUE(none.ok);
  EXPECT_EQ(none.label, "current");
  EXPECT_EQ(none.out_path, "BENCH_x.json");
}

TEST(BenchGate, ParserRejectsAMalformedValue) {
  EXPECT_FALSE(parse({"--reps=x"}).ok);
  EXPECT_FALSE(parse({"--reps=3x"}).ok);
}

TEST(BenchGate, BatchDiffNamesTheFirstDivergingSeed) {
  testing::FuzzBatchOptions opt;
  opt.seed_base = 10;
  testing::FuzzBatchResult serial;
  serial.fingerprints.resize(4);
  for (std::size_t i = 0; i < serial.fingerprints.size(); ++i) {
    serial.fingerprints[i].events = 100 + i;
  }
  testing::FuzzBatchResult parallel = serial;
  EXPECT_EQ(testing::diff_batches(opt, serial, parallel, 4), "");
  parallel.fingerprints[2].deliveries = 1;
  parallel.fingerprints[3].deliveries = 1;
  const std::string diff = testing::diff_batches(opt, serial, parallel, 4);
  EXPECT_EQ(diff.rfind("fingerprint diverges at seed 12\n", 0), 0u) << diff;
}

}  // namespace
}  // namespace iiot::bench
