// fig1_bench: runs one workload of the Fig. 1 loop benchmark and prints
// its metrics. Normally started through perfbench/run.py, which builds
// this program first:
//
//   fig1_bench --workload=plant_loop|city_islands|backend_ingest
//              [--seed=N] [--seconds=S] [--trace=0|1] [--small=0|1]
//              [--out=DIR]
//
// --trace=0 prints the end-to-end metrics of an untraced run. --trace=1
// prints the per-layer metrics instead: the workload runs untraced with
// host-time call spans recorded (written to DIR as JSON lines), then
// again with the stack's obs metrics and tracer on. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. A failed output check makes the exit code 1.
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "bench_util.hpp"
#include "common.hpp"

using namespace iiot;             // NOLINT
using namespace iiot::perfbench;  // NOLINT

namespace {

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::uint64_t flag = 0;
    if (bench::flag_str(a, "--workload", opt.workload) ||
        bench::flag_u64(a, "--seed", opt.seed) ||
        bench::flag_double(a, "--seconds", opt.seconds) ||
        bench::flag_str(a, "--out", opt.out_dir)) {
      continue;
    }
    if (bench::flag_u64(a, "--trace", flag)) {
      opt.trace = flag != 0;
    } else if (bench::flag_u64(a, "--small", flag)) {
      opt.small = flag != 0;
    } else {
      std::fprintf(stderr, "fig1_bench: unknown argument %s\n", a.c_str());
      return false;
    }
  }
  return opt.seconds > 0;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[96];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", ms[i].value);
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

/// The metrics the result line carries, in BENCHMARK.json order: the
/// end-to-end metrics the workload measures when untraced (plant_loop and
/// city_islands measure all of them), every per-layer metric when traced
/// (zero where the workload does not exercise the layer).
std::vector<Metric> emitted(const Options& opt, const Report& r) {
  const auto& defs = opt.trace ? layer_defs() : end_to_end_defs();
  const auto& have = opt.trace ? r.layers() : r.end_to_end();
  std::vector<Metric> out;
  for (const MetricDef& d : defs) {
    const Metric* found = nullptr;
    for (const Metric& m : have) {
      if (m.name == d.name) found = &m;
    }
    if (found != nullptr) {
      out.push_back(*found);
    } else if (opt.trace) {
      out.push_back({d.name, d.unit, 0.0});
    }
  }
  return out;
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  if (ms.empty()) return;
  std::printf("  %s\n", title);
  for (const Metric& m : ms) {
    std::printf("    %-26s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return 2;
  void (*run)(const Options&, Report&, CallLog&) = nullptr;
  if (opt.workload == "plant_loop") run = run_plant_loop;
  if (opt.workload == "city_islands") run = run_city_islands;
  if (opt.workload == "backend_ingest") run = run_backend_ingest;
  if (run == nullptr) {
    std::fprintf(stderr, "fig1_bench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }

  CallLog log(opt.trace);
  Report r;
  try {
    run(opt, r, log);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig1_bench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  r.end_to_end("peak_rss_mb", peak_rss_mb());
  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           std::to_string(opt.trace ? 1 : 0);
  if (opt.trace) {
    r.layer("obs.call_spans", static_cast<double>(log.spans()));
    if (log.dropped() > 0) {
      r.note("call spans past the buffer cap, not recorded: " +
             std::to_string(log.dropped()));
    }
    if (!opt.out_dir.empty()) log.write_jsonl(stem + "-spans.jsonl");
  }
  const std::vector<Metric> metrics = emitted(opt, r);
  for (const Metric& m : metrics) {
    r.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }

  std::printf("fig1_bench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.small ? " size=small" : "");
  print_table("end-to-end (untraced run; virtual-time figures are the "
              "simulator's own, unvalidated)",
              opt.trace ? std::vector<Metric>{} : r.end_to_end());
  print_table("workload metrics (untraced run)", r.workload());
  if (opt.trace) print_table("per-layer", r.layers());
  for (const std::string& n : r.notes()) std::printf("  note: %s\n", n.c_str());
  std::printf("  digest: %016llx\n", static_cast<unsigned long long>(r.digest));
  for (const std::string& e : r.errors()) {
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }

  const std::string line =
      std::string("{\"correct\": ") + (r.correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(r.attempted) +
      ", \"failed\": " + std::to_string(r.failed()) +
      ", \"metrics\": " + json_metrics(metrics) + "}";
  if (!opt.out_dir.empty()) {
    // The run's full record, seed included, for later re-checks.
    std::ofstream rec(stem + ".json", std::ios::trunc);
    rec << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
        << ", \"seconds\": " << opt.seconds << ", \"digest\": \""
        << std::hex << r.digest << std::dec << "\", \"trace\": "
        << (opt.trace ? 1 : 0) << ", \"small\": " << (opt.small ? 1 : 0)
        << ", \"end_to_end\": " << json_metrics(r.end_to_end())
        << ", \"workload_metrics\": " << json_metrics(r.workload())
        << ", \"per_layer\": " << json_metrics(r.layers())
        << ", \"result\": " << line << "}\n";
  }
  std::printf("%s\n", line.c_str());
  return r.correct() ? 0 : 1;
}
