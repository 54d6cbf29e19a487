#!/usr/bin/env python3
"""Build and run the repository benchmark (see BENCHMARK.json).

One run, in the form BENCHMARK.json's command is invoked with:

    python3 perfbench/run.py --workload hunt --seed 7 --seconds 10 --trace 0

builds perfbench (Release, under .bench_build/ in the checkout), runs
one workload and prints the result JSON as the last line of stdout.

Every workload over a list of seeds, with every metric by name and unit,
its median and quartile spread, and the failure share:

    python3 perfbench/run.py --all --seeds 1,2,3 [--record FILE]

--record writes those figures, with the run context, to FILE as a
baseline; perfbench/baseline.json is one, over seeds 1-10. The measured
campaigns run at fixed seeds; --explore-seed and --hunt-seeds replace
them, so a claim can be re-checked on a held-out seed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["explore-serial", "explore-parallel", "hunt"]
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def declared(kind):
    """BENCHMARK.json's list `kind` as a name -> entry map."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {entry["name"]: entry for entry in json.load(f)[kind]}


def build():
    """Configure (Release) and build perfbench; False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    # Refuse non-Release numbers, as tools/bench_all.sh does.
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        build_type = next((line.split("=", 1)[1].strip() for line in cache
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        log(f"refusing to measure a '{build_type}' build")
        return False
    return True


def run_one(workload, seed, seconds, trace, fixed_seeds):
    """Run perfbench once; returns (context, result) or None on failure.

    fixed_seeds: extra perfbench flags that replace the fixed seeds."""
    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + fixed_seeds
    if trace:
        cmd += ["--spans", os.path.join(out_dir, tag + ".spans.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{tag}: timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        log(f"{tag}: perfbench exited with code {proc.returncode}")
        return None
    try:
        context = json.loads(lines[-2])["context"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError) as err:
        log(f"{tag}: unreadable perfbench output ({err})")
        return None
    if set(result) != RESULT_KEYS:
        log(f"{tag}: result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
        return None
    want = {name: m["unit"] for name, m in
            declared("per_layer" if trace else "end_to_end").items()}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        log(f"{tag}: metrics {got} differ from BENCHMARK.json {want}")
        return None
    context["why"] = declared("workloads")[workload]["why"]
    with open(os.path.join(out_dir, tag + ".json"), "w") as f:
        json.dump({"context": context, "result": result}, f, indent=1)
    return context, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_all(args):
    seeds = [int(s) for s in args.seeds.split(",")]
    summary = {}
    for workload in WORKLOADS:
        runs = []
        for trace, seed_list in ((0, seeds), (1, seeds[:1])):
            for seed in seed_list:
                started = time.monotonic()
                got = run_one(workload, seed, args.seconds, trace,
                              fixed_seeds(args))
                if got is None:
                    return 1
                log(f"{workload} seed {seed} trace {trace}: "
                    f"{time.monotonic() - started:.1f} s")
                runs.append((trace, seed) + got)
        attempted = sum(r[3]["attempted"] for r in runs)
        failed = sum(r[3]["failed"] for r in runs)
        metrics = {}
        for trace, seed, context, result in runs:
            for name, m in result["metrics"].items():
                entry = metrics.setdefault(
                    name, {"unit": m["unit"], "trace": trace, "values": []})
                entry["values"].append(m["value"])
        print(f"\n== {workload}  (failed {failed}/{attempted} campaigns = "
              f"{failed / max(attempted, 1):.1%})")
        print(f"   {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/med':>8}  unit")
        for name, entry in metrics.items():
            q1, med, q3 = quartiles(entry["values"])
            entry.update(median=med, q1=q1, q3=q3,
                         spread=(q3 - q1) / med if med else 0.0)
            print(f"   {name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{entry['spread']:8.3f}  {entry['unit']}")
        summary[workload] = {
            "context": runs[0][2],
            "seeds": seeds,
            "seconds": args.seconds,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    if args.record:
        with open(args.record, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
        log(f"recorded {args.record}")
    return 0


def fixed_seeds(args):
    flags = []
    if args.explore_seed is not None:
        flags += ["--explore-seed", str(args.explore_seed)]
    if args.hunt_seeds:
        flags += ["--hunt-seeds", args.hunt_seeds]
    return flags


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--explore-seed", type=int)
    parser.add_argument("--hunt-seeds")
    parser.add_argument("--all", action="store_true",
                        help="run every workload over --seeds")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--record", help="write the --all summary here")
    args = parser.parse_args()
    if not args.all and (args.workload is None or args.seed is None):
        parser.error("give --workload and --seed, or --all")
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    if not build():
        return 1
    if args.all:
        return run_all(args)
    got = run_one(args.workload, args.seed, args.seconds, args.trace,
                  fixed_seeds(args))
    if got is None:
        return 1
    print(json.dumps({"context": got[0]}))
    print(json.dumps(got[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
