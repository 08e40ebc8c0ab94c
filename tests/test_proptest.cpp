// Unit coverage for the property-based scenario fuzzer itself
// (DESIGN.md §4c): replay determinism, the planted canary, shrinking,
// and the self-contained invariant checkers the scenarios compose.
#include <gtest/gtest.h>

#include <optional>

#include "energy/meter.hpp"
#include "radio/medium.hpp"
#include "scenarios/scenario_lib.hpp"
#include "sim/scheduler.hpp"
#include "testing/invariants.hpp"
#include "testing/scenario.hpp"
#include "testing/shrink.hpp"

namespace iiot::testing {
namespace {

/// First seed in [1, limit) whose generated scenario uses `mac`.
std::optional<std::uint64_t> seed_with_mac(ScenarioMac mac,
                                           std::uint64_t limit = 200) {
  for (std::uint64_t s = 1; s < limit; ++s) {
    if (generate_scenario(s).mac == mac) return s;
  }
  return std::nullopt;
}

TEST(Proptest, GeneratorIsPureFunctionOfSeed) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 12345ULL}) {
    const ScenarioConfig a = generate_scenario(seed);
    const ScenarioConfig b = generate_scenario(seed);
    EXPECT_EQ(a.summary(), b.summary()) << "seed " << seed;
  }
}

/// Recorded fingerprints. A change to run_scenario that moves an event, a
/// tie-break or a `chk=` count changes them; only a deliberate behaviour
/// change may re-record them.
struct PinnedRun {
  std::uint64_t seed;
  ScenarioMac mac;
  const char* fingerprint;
};
constexpr PinnedRun kPinned[] = {
    // Each MAC's first generated seed (seed_with_mac), in MAC order.
    {3, ScenarioMac::kCsma,
     "t=111000000 ev=7164 tx=1769 rx=13997 col=31 snr=118 abrt=3 fdrop=0 "
     "fdup=0 fdly=0 macok=945 root=704 repar=16 join=1000 crash=0 inj=0 "
     "loop=0 chk=115"},
    {2, ScenarioMac::kLpl,
     "t=168000000 ev=110531 tx=32712 rx=40461 col=1116 snr=0 abrt=439 "
     "fdrop=0 fdup=0 fdly=0 macok=111 root=70 repar=8 join=1000 crash=0 "
     "inj=0 loop=0 chk=171"},
    {17, ScenarioMac::kRiMac,
     "t=177000000 ev=7940 tx=1889 rx=1642 col=388 snr=0 abrt=205 fdrop=19 "
     "fdup=11 fdly=11 macok=75 root=33 repar=8 join=1000 crash=0 inj=41 "
     "loop=0 chk=180"},
    {1, ScenarioMac::kTdma,
     "t=108000000 ev=9734 tx=2160 rx=2013 col=0 snr=0 abrt=16 fdrop=74 "
     "fdup=0 fdly=76 macok=936 root=383 repar=0 join=1000 crash=3 inj=150 "
     "loop=0 chk=113"},
    // TDMA with crashes but no frame faults: the injector is armed with
    // all-zero probabilities and must change nothing.
    {18, ScenarioMac::kTdma,
     "t=111000000 ev=4337 tx=825 rx=750 col=0 snr=0 abrt=0 fdrop=0 fdup=0 "
     "fdly=0 macok=375 root=200 repar=0 join=1000 crash=9 inj=0 loop=0 "
     "chk=113"},
    // RI-MAC line with a churn episode, a crash and frame faults.
    {20, ScenarioMac::kRiMac,
     "t=149000000 ev=11722 tx=2857 rx=2743 col=244 snr=188 abrt=117 "
     "fdrop=1 fdup=18 fdly=2 macok=227 root=65 repar=22 join=1000 crash=4 "
     "inj=21 loop=0 chk=153"},
};

// The replay contract: the seed alone reproduces a run bit-identically.
// Fingerprints are pure integer counters across every layer (scheduler
// event count, radio deliveries/collisions, routing parent changes, ...),
// so equality here is equality of the whole execution, not a summary.
TEST(Proptest, ReplayIsBitIdenticalForEveryMac) {
  for (const PinnedRun& pin : kPinned) {
    const ScenarioConfig cfg = generate_scenario(pin.seed);
    ASSERT_EQ(cfg.mac, pin.mac) << "seed " << pin.seed;
    const ScenarioResult first = run_scenario(cfg);
    const ScenarioResult second = run_scenario(cfg);
    EXPECT_TRUE(first.fingerprint == second.fingerprint)
        << to_string(pin.mac) << " seed " << pin.seed << "\n  first:  "
        << first.fingerprint.to_string() << "\n  second: "
        << second.fingerprint.to_string();
    EXPECT_EQ(first.ok, second.ok);
    EXPECT_EQ(first.failure, second.failure);
    EXPECT_TRUE(first.ok) << first.failure;
    EXPECT_EQ(first.fingerprint.to_string(), pin.fingerprint)
        << to_string(pin.mac) << " seed " << pin.seed;
  }
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(seed_with_mac(kPinned[k].mac), kPinned[k].seed);
  }
}

TEST(Proptest, SmallBatchOfScenariosIsGreen) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const ScenarioResult r = run_scenario(generate_scenario(seed));
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
  }
}

// Harness validation: the planted bug (Medium::detach skipping reception
// bookkeeping cleanup) must be caught by the medium-consistency invariant,
// and the reproducer must replay and shrink deterministically.
// Regression: `iiot_fuzz --replay_seed=24 --scenario=mine_tunnel` used to
// fail with a transient-loop blowup — two nodes holding stale ranks for
// each other ratcheted their ranks without bound (count-to-infinity)
// because local repair re-entered orphan state before the poison round
// completed. The rank ratchet cap in net::Rpl (rpl.hpp) pins the fix;
// this replays the original reproducer bit-for-bit.
TEST(Proptest, MineTunnelSeed24RankRatchetStaysBounded) {
  const auto* spec = iiot::scenarios::find_scenario("mine_tunnel");
  ASSERT_NE(spec, nullptr);
  const ScenarioConfig cfg = generate_scenario(24, spec->fuzz_profile());
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_TRUE(r.ok) << r.failure;
}

TEST(Proptest, CanaryDetachBugIsCaughtAndShrinks) {
  std::optional<std::uint64_t> caught;
  for (std::uint64_t seed = 1; seed <= 80 && !caught; ++seed) {
    ScenarioConfig cfg = generate_scenario(seed);
    if (cfg.churn_slots == 0) continue;  // canary needs a detach episode
    cfg.canary_skip_detach_cleanup = true;
    if (!run_scenario(cfg).ok) caught = seed;
  }
  ASSERT_TRUE(caught.has_value()) << "canary survived 80 scenarios";

  ScenarioConfig cfg = generate_scenario(*caught);
  cfg.canary_skip_detach_cleanup = true;
  const ScenarioResult replayed = run_scenario(cfg);
  ASSERT_FALSE(replayed.ok);
  EXPECT_NE(replayed.failure.find("detach"), std::string::npos)
      << replayed.failure;

  const ShrinkResult s1 = shrink_scenario(cfg);
  const ShrinkResult s2 = shrink_scenario(cfg);
  EXPECT_EQ(s1.config.summary(), s2.config.summary());
  EXPECT_FALSE(s1.failure.empty());
  EXPECT_LE(s1.config.nodes, cfg.nodes);
  // The shrunk variant must still reproduce.
  EXPECT_FALSE(run_scenario(s1.config).ok);
}

// The same planted bug, reproduced directly at the medium layer: a
// receiver detaches while a frame addressed to it is on the air.
TEST(Proptest, CanaryMicroReproduction) {
  sim::Scheduler sched;
  radio::PropagationConfig pcfg;
  pcfg.shadowing_sigma_db = 0.0;
  radio::Medium medium(sched, pcfg, 99);
  medium.debug_set_skip_detach_cleanup(true);

  energy::Meter m1, m2;
  radio::Radio tx(medium, sched, 1, {0.0, 0.0}, m1);
  tx.set_mode(radio::Mode::kListen);
  auto rx = std::make_unique<radio::Radio>(medium, sched, 2,
                                           radio::Position{5.0, 0.0}, m2);
  rx->set_mode(radio::Mode::kListen);
  radio::Frame f;
  f.src = 1;
  f.dst = 2;
  ASSERT_TRUE(tx.transmit(std::move(f), nullptr));
  ASSERT_GT(medium.in_flight(), 0u);
  rx.reset();  // detach while the frame is still on the air
  EXPECT_FALSE(medium.check_consistency().empty());
}

TEST(Proptest, MediumConsistencyCleanOnProperDetach) {
  sim::Scheduler sched;
  radio::PropagationConfig pcfg;
  pcfg.shadowing_sigma_db = 0.0;
  radio::Medium medium(sched, pcfg, 99);

  energy::Meter m1, m2;
  radio::Radio tx(medium, sched, 1, {0.0, 0.0}, m1);
  tx.set_mode(radio::Mode::kListen);
  auto rx = std::make_unique<radio::Radio>(medium, sched, 2,
                                           radio::Position{5.0, 0.0}, m2);
  rx->set_mode(radio::Mode::kListen);
  radio::Frame f;
  f.src = 1;
  f.dst = 2;
  ASSERT_TRUE(tx.transmit(std::move(f), nullptr));
  rx.reset();
  EXPECT_TRUE(medium.check_consistency().empty());
}

// The self-contained checkers must hold on their own across seeds — they
// run inside scenarios, so a checker bug would poison every fuzz verdict.
TEST(Proptest, SchedulerPropertyCheckerHolds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EXPECT_EQ(check_scheduler_properties(seed), "") << "seed " << seed;
  }
}

TEST(Proptest, FragRoundTripCheckerHolds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EXPECT_EQ(check_frag_roundtrip(seed), "") << "seed " << seed;
  }
}

TEST(Proptest, CrdtConvergenceCheckerHolds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    EXPECT_EQ(check_crdt_convergence(seed, 5, 30), "") << "seed " << seed;
  }
}

TEST(Proptest, CpReadYourWritesCheckerHolds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    EXPECT_EQ(check_cp_read_your_writes(seed, 5, 30), "") << "seed " << seed;
  }
}

// The trace auditor itself: a legitimate span tree passes; each class of
// malformation it exists to catch is rejected with a pointed message.
TEST(Proptest, TraceWellformedAcceptsProperSpanTree) {
  sim::Scheduler sched;
  obs::Tracer tracer(sched);
  tracer.set_enabled(true);

  const obs::TraceId t = tracer.start_trace(3, obs::Layer::kApp);
  const obs::SpanRef hop = tracer.begin(t, 3, obs::Layer::kNet, "hop");
  sched.schedule_at(50, [] {});
  sched.run_all();
  const obs::SpanRef tx = tracer.begin(t, 3, obs::Layer::kMac, "tx", hop);
  tracer.instant(t, 2, obs::Layer::kMac, "rx", tx);
  // A transmission handed to the radio while the MAC request is active;
  // legitimately still unfinished at end of run.
  tracer.begin(t, 3, obs::Layer::kRadio, "tx", tx);
  tracer.end(tx);
  sched.schedule_at(80, [] {});
  sched.run_all();
  tracer.end(hop);

  EXPECT_EQ(check_trace_wellformed(tracer), "");
}

TEST(Proptest, TraceWellformedRejectsMalformations) {
  sim::Scheduler sched;

  {  // a record referencing a trace id that was never started
    obs::Tracer tracer(sched);
    tracer.set_enabled(true);
    tracer.instant(7, 1, obs::Layer::kNet, "deliver");
    EXPECT_NE(check_trace_wellformed(tracer).find("unallocated trace id"),
              std::string::npos);
  }
  {  // a parent ref pointing past the end of the record log
    obs::Tracer tracer(sched);
    tracer.set_enabled(true);
    tracer.begin(0, 1, obs::Layer::kMac, "tx", /*parent=*/99);
    EXPECT_NE(check_trace_wellformed(tracer).find("nonexistent parent"),
              std::string::npos);
  }
  {  // an open span left in a layer that cannot have in-flight work
    obs::Tracer tracer(sched);
    tracer.set_enabled(true);
    tracer.begin(0, 1, obs::Layer::kBackend, "publish");
    EXPECT_NE(check_trace_wellformed(tracer).find("open span"),
              std::string::npos);
  }
  {  // a child starting after its (closed) parent already ended
    obs::Tracer tracer(sched);
    tracer.set_enabled(true);
    const obs::SpanRef parent = tracer.begin(0, 1, obs::Layer::kNet, "hop");
    tracer.end(parent);
    sched.schedule_at(100, [] {});
    sched.run_all();
    const obs::SpanRef late =
        tracer.begin(0, 1, obs::Layer::kMac, "tx", parent);
    tracer.end(late);
    EXPECT_NE(
        check_trace_wellformed(tracer).find("starts after its parent ended"),
        std::string::npos);
  }
}

}  // namespace
}  // namespace iiot::testing
