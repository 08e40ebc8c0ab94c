#!/usr/bin/env python3
"""Fig. 1 loop benchmark: builds the benchmark program from this checkout's
sources, runs one workload and prints its metrics.

    python3 perfbench/run.py --workload plant_loop|city_islands|backend_ingest|all
                             [--seed N] [--seconds S] [--trace 0|1] [--small]

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); each run also writes its full record, seed included, and with
--trace 1 its host-time call spans, to <build>/out/. The last line of standard
output is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is non-zero when the build fails or an output check fails.

Seeds: 1 is the default seed. 20180702 is held out: it was not used while the
benchmark or any change measured with it was written, so a claim can be
re-checked on it.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plant_loop", "city_islands", "backend_ingest")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20180702
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configures once, then builds incrementally; output goes to stderr so
    standard output stays the benchmark's."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no source tree at {ROOT}/src: run from a repository checkout")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "fig1_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "fig1_bench")


def run_one(exe, out_dir, args, workload):
    cmd = [exe, f"--workload={workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--small={1 if args.small else 0}", f"--out={out_dir}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{workload} exited with code {proc.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail(f"{workload} printed no result line", 3)
    return proc.stdout, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny worlds, for the benchmark's own tests")
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)

    if args.workload != "all":
        text, _ = run_one(exe, out_dir, args, args.workload)
        sys.stdout.write(text)
        return
    # Every workload in turn; the last line maps each to its metrics.
    summary = {"correct": True, "seed": args.seed, "workloads": {}}
    for workload in WORKLOADS:
        text, result = run_one(exe, out_dir, args, workload)
        sys.stdout.write("\n".join(text.strip().splitlines()[:-1]) + "\n\n")
        summary["correct"] = summary["correct"] and result["correct"]
        summary["workloads"][workload] = result
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
