#!/usr/bin/env python3
"""The benchmark's own tests, on the small size of every workload.

    python3 perfbench/test_small.py

For each workload, two untraced runs and one traced run of the same seed:
  * every run exits 0 with "correct": true (the output checks passed);
  * the result line carries exactly the end-to-end metrics (untraced) or the
    per-layer metrics (traced) that BENCHMARK.json declares, with its units;
  * the two same-seed runs give bit-identical digests, and for the mesh
    workloads bit-identical virtual-time metrics and failure ratios.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
# Virtual-time metrics and failure ratios: a pure function of the seed.
DETERMINISTIC = {
    "plant_loop": ["fail_ratio", "up_p50_ms", "up_p99_ms"],
    "city_islands": ["fail_ratio", "up_p50_ms", "up_p99_ms"],
    "backend_ingest": [],
}
# Workload metrics printed beside the result line, by name and unit.
WORKLOAD_METRICS = {
    "plant_loop": [("sim_speed", "s/s"), ("act_fail_ratio", "ratio"),
                   ("act_p50_ms", "ms"), ("act_p90_ms", "ms"),
                   ("act_samples", "count"), ("up_samples", "count")],
    "city_islands": [("sim_speed", "s/s"), ("up_samples", "count")],
    "backend_ingest": [("ingest_max_rate", "1/s"), ("ingest_p50_us", "us"),
                       ("ingest_p99_us", "us"), ("query_p50_us", "us"),
                       ("query_p99_us", "us")],
}
DETERMINISTIC_WORKLOAD = {
    "plant_loop": ["act_fail_ratio", "act_p50_ms", "act_p90_ms",
                   "act_samples", "up_samples"],
    "city_islands": ["up_samples"],
    "backend_ingest": [],
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "2", "--trace",
           str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    # The run's full record (every metric with all its digits).
    bdir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    record = os.path.join(ROOT, bdir, "out",
                          f"{workload}-seed{SEED}-trace{trace}.json")
    with open(record) as f:
        return result, json.load(f)


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in ("plant_loop", "city_islands", "backend_ingest"):
        first, rec1 = run(workload, 0)
        second, rec2 = run(workload, 0)
        traced, _ = run(workload, 1)
        for res in (first, second, traced):
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   f"{workload}: result keys {sorted(res)}")
            expect(res["correct"] and res["failed"] == 0,
                   f"{workload}: output checks failed")
            expect(res["attempted"] >= 1, f"{workload}: nothing attempted")
        got = {k: v["unit"] for k, v in first["metrics"].items()}
        expect(got == e2e, f"{workload}: end-to-end metrics {got} != {e2e}")
        got = {k: v["unit"] for k, v in traced["metrics"].items()}
        expect(got == layers, f"{workload}: per-layer metrics differ from "
                              f"BENCHMARK.json: {set(got) ^ set(layers)}")
        wl = rec1["workload_metrics"]
        for name, unit in WORKLOAD_METRICS[workload]:
            expect(wl.get(name, {}).get("unit") == unit,
                   f"{workload}: workload metric {name} [{unit}] missing")
        expect(rec1["digest"] == rec2["digest"],
               f"{workload}: digests differ between same-seed runs")
        for name in DETERMINISTIC[workload]:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            expect(a == b, f"{workload}: {name} {a} != {b} for one seed")
        for name in DETERMINISTIC_WORKLOAD[workload]:
            a = wl[name]["value"]
            b = rec2["workload_metrics"][name]["value"]
            expect(a == b, f"{workload}: {name} {a} != {b} for one seed")
        print(f"ok  {workload}")
    print("all small-size checks passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL: {e}")
        sys.exit(1)
