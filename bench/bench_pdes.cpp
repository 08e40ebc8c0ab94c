// Parallel-in-one-world PDES scaling benchmark (DESIGN.md §4i).
//
// Builds ONE island-partitioned city world at three sizes (~2k, ~5k and
// ~10k nodes) and runs the identical first 20 simulated seconds —
// trickle beacons, joins, cross-island DODAG growth, plus paced upward
// telemetry from every node that has joined — at several execution lane
// counts. The serial scheduler (lanes = 1) is the oracle: the world
// digest at EVERY lane count must equal the serial digest bit-for-bit,
// or the run hard-fails. Speedup is
// wall-time(lanes=1) / wall-time(lanes=K) per size.
//
// Scaling gate: the largest world must beat the serial oracle by
// --min-scaling (default 2.0) at 4 lanes. Enforced only when the machine
// has >= 4 hardware threads (CI runners); informational otherwise,
// exactly like bench_backend_sharded. The digest-identity check is
// enforced everywhere, at every lane count.
//
// Results append to BENCH_pdes.json:
//
//   ./bench_pdes [label] [output.json] [--reps=N]
//                [--compare=BASELINE.json] [--min-ratio=R]
//                [--min-scaling=S]
//
// Exit codes: 0 pass, 1 a gate failed, 2 bad arguments, 3 the --compare
// baseline is missing or holds no run line (a configuration error, found
// before anything runs, so it is never mistaken for a regression).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "pdes/world.hpp"
#include "runner/engine.hpp"

namespace {

using namespace iiot;

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

constexpr sim::Time kMeasure = 20'000'000;  // formation + paced traffic
constexpr sim::Duration kPeriod = 4'000'000;  // per-node send period

struct SizeCfg {
  const char* name;  // JSON key fragment
  std::size_t islands_x;
  std::size_t islands_y;
  std::size_t side;
};

// 7x7-node patches; the shapes match the city_grid scenario family.
constexpr SizeCfg kSizes[] = {
    {"2k", 7, 6, 7},     // 2058 nodes, 42 islands
    {"5k", 11, 10, 7},   // 5390 nodes, 110 islands
    {"10k", 15, 14, 7},  // 10290 nodes, 210 islands
};

struct RunResult {
  double wall = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::string consistency;  // empty = clean
};

RunResult run_config(const SizeCfg& size, unsigned lanes) {
  pdes::IslandWorldConfig cfg;
  cfg.islands_x = size.islands_x;
  cfg.islands_y = size.islands_y;
  cfg.island_side = size.side;
  cfg.lanes = lanes;
  cfg.seed = 1;
  cfg.radio_cfg.exponent = 3.0;
  cfg.radio_cfg.shadowing_sigma_db = 0.0;

  pdes::IslandWorld world(cfg);
  world.start();
  // Paced upward telemetry from every node (a no-op until the node
  // joins): pure formation leaves the windows nearly empty once trickle
  // backs off, which would measure synchronization overhead instead of
  // parallel physics. Data funneling toward the center root is the
  // sustained — and honestly imbalanced — load. Scheduled before the
  // clock starts; sends are island-local, so lanes cannot reorder them.
  for (std::size_t i = 0; i < world.size(); ++i) {
    if (i == world.root_index()) continue;
    core::MeshNode* node = &world.node(i);
    sim::Scheduler& sched = world.scheduler(world.island_of(i));
    const auto lo = static_cast<std::uint8_t>(i & 0xFF);
    const auto hi = static_cast<std::uint8_t>((i >> 8) & 0xFF);
    const sim::Time phase =
        200'000 + (static_cast<sim::Time>(i) * 7'919) % kPeriod;
    for (sim::Time t = phase; t < kMeasure; t += kPeriod) {
      sched.schedule_at(t, [node, lo, hi] {
        if (node->routing->joined()) {
          node->routing->send_up(Buffer{lo, hi, 0x5A, 0x5A});
        }
      });
    }
  }
  RunResult r;
  const double t0 = now_seconds();
  world.run_until(kMeasure);
  r.wall = now_seconds() - t0;
  r.consistency = world.check_consistency();
  r.digest = world.digest();
  r.events = world.executed_events();
  world.stop();
  return r;
}

/// Gated by --compare: serial events/sec of each world size.
constexpr const char* kGated[] = {"eps_2k_l1", "eps_5k_l1", "eps_10k_l1"};

}  // namespace

int main(int argc, char** argv) {
  std::string label = "current";
  std::string out_path = "BENCH_pdes.json";
  std::string compare_path;
  std::uint64_t reps = 1;
  double min_ratio = 0.6;
  double min_scaling = 2.0;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (bench::flag_u64(arg, "--reps", reps) ||
        bench::flag_str(arg, "--compare", compare_path) ||
        bench::flag_double(arg, "--min-ratio", min_ratio) ||
        bench::flag_double(arg, "--min-scaling", min_scaling)) {
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
    if (positional == 0) {
      label = arg;
    } else {
      out_path = arg;
    }
    ++positional;
  }
  if (reps == 0) reps = 1;
  std::string base_line;
  if (!compare_path.empty()) {
    base_line = bench::compare_baseline(compare_path, "bench_pdes");
    if (base_line.empty()) return 3;
  }

  bench::print_header(
      "PERF: parallel-in-one-world simulation (spatial-island PDES)",
      "island lanes must scale ONE city world >= 2x at 4 lanes with the "
      "world digest bit-identical to the serial oracle at every lane "
      "count");

  const unsigned cores = runner::hardware_jobs();
  std::vector<unsigned> lane_configs = {1, 2, 4};
  if (cores > 4) lane_configs.push_back(cores);
  std::printf("cores=%u, lanes swept:", cores);
  for (unsigned l : lane_configs) std::printf(" %u", l);
  std::printf(", %lld sim-seconds per run, reps=%llu\n",
              static_cast<long long>(kMeasure / 1'000'000),
              static_cast<unsigned long long>(reps));

  bool identical = true;
  const std::size_t nsizes = std::size(kSizes);
  // best[size][lane] — minimum wall across reps; digests must agree
  // across reps AND lanes, so they are checked every run.
  std::vector<std::vector<RunResult>> best(
      nsizes, std::vector<RunResult>(lane_configs.size()));
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    for (std::size_t s = 0; s < nsizes; ++s) {
      for (std::size_t c = 0; c < lane_configs.size(); ++c) {
        const RunResult r = run_config(kSizes[s], lane_configs[c]);
        if (!r.consistency.empty()) {
          std::printf("FAIL: %s lanes=%u: %s\n", kSizes[s].name,
                      lane_configs[c], r.consistency.c_str());
          identical = false;
        }
        if (rep == 0 && c == 0) {
          best[s][c] = r;
        } else {
          const RunResult& oracle = best[s][0];
          if (r.digest != oracle.digest || r.events != oracle.events) {
            std::printf(
                "FAIL: %s lanes=%u rep=%llu: digest %016llx events %llu "
                "vs serial oracle digest %016llx events %llu\n",
                kSizes[s].name, lane_configs[c],
                static_cast<unsigned long long>(rep),
                static_cast<unsigned long long>(r.digest),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(oracle.digest),
                static_cast<unsigned long long>(oracle.events));
            identical = false;
          }
          if (best[s][c].wall == 0.0 || r.wall < best[s][c].wall) {
            const std::string keep = best[s][c].consistency;
            best[s][c] = r;
            if (!keep.empty()) best[s][c].consistency = keep;
          }
        }
      }
    }
  }

  std::printf("\n%-6s %8s %10s", "size", "nodes", "events");
  for (unsigned l : lane_configs) std::printf("  lanes=%-2u wall", l);
  std::printf("  speedup@4\n");
  std::vector<double> scaling4(nsizes, 0.0);
  for (std::size_t s = 0; s < nsizes; ++s) {
    const std::size_t nodes = kSizes[s].islands_x * kSizes[s].islands_y *
                              kSizes[s].side * kSizes[s].side;
    std::printf("%-6s %8zu %10llu", kSizes[s].name, nodes,
                static_cast<unsigned long long>(best[s][0].events));
    for (std::size_t c = 0; c < lane_configs.size(); ++c) {
      std::printf("  %11.3fs", best[s][c].wall);
    }
    scaling4[s] = best[s][0].wall / best[s][2].wall;  // lane_configs[2]==4
    std::printf("  x%.2f\n", scaling4[s]);
  }

  const std::size_t largest = nsizes - 1;
  const bool enforce = cores >= 4;
  bool scaling_ok = true;
  std::printf("\nscaling: x%.2f at 4 lanes on the %s world\n",
              scaling4[largest], kSizes[largest].name);
  if (enforce) {
    if (scaling4[largest] < min_scaling) {
      std::printf("FAIL: scaling x%.2f below the x%.1f floor\n",
                  scaling4[largest], min_scaling);
      scaling_ok = false;
    }
  } else {
    std::printf("scaling informational only (%u core(s) < 4; the x%.1f "
                "floor is enforced on >= 4-core machines)\n",
                cores, min_scaling);
  }
  std::printf("equivalence: %s (world digest + event count bit-identical "
              "to the serial oracle at every lane count)\n",
              identical ? "OK" : "FAILED");

  std::ostringstream run;
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "{\"label\": \"%s\", \"cores\": %u, \"sim_seconds\": %lld, "
      "\"eps_2k_l1\": %.0f, \"eps_5k_l1\": %.0f, \"eps_10k_l1\": %.0f, "
      "\"wall_10k_l1\": %.3f, \"wall_10k_l4\": %.3f, "
      "\"scaling_2k_4\": %.2f, \"scaling_5k_4\": %.2f, "
      "\"scaling_10k_4\": %.2f, \"digest_10k\": %llu, "
      "\"scaling_enforced\": %d, \"reps\": %llu}",
      label.c_str(), cores, static_cast<long long>(kMeasure / 1'000'000),
      static_cast<double>(best[0][0].events) / best[0][0].wall,
      static_cast<double>(best[1][0].events) / best[1][0].wall,
      static_cast<double>(best[2][0].events) / best[2][0].wall,
      best[largest][0].wall, best[largest][2].wall, scaling4[0],
      scaling4[1], scaling4[2],
      static_cast<unsigned long long>(best[largest][0].digest),
      enforce ? 1 : 0, static_cast<unsigned long long>(reps));
  run << buf;
  bench::append_bench_run(out_path, "bench_pdes", run.str());
  std::printf("\nwrote %s (label \"%s\")\n", out_path.c_str(),
              label.c_str());

  const bool gate_ok =
      base_line.empty() ||
      bench::ratio_gate(base_line, run.str(), kGated, min_ratio);
  return identical && scaling_ok && gate_ok ? 0 : 1;
}
