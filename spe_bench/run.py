#!/usr/bin/env python3
"""Builds spe_bench from this checkout and runs it.

    python3 spe_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 spe_bench/run.py --workload all --seed N --repeat K [--trace 0|1]
    python3 spe_bench/run.py --smoke

One workload run once passes spe_bench's output straight through: its last
stdout line is the {"correct", "attempted", "failed", "metrics"} object.
With --workload all or --repeat K, every workload runs K times on seeds
N..N+K-1 and one summary object per workload is printed: the median and
quartiles of every metric, and for the end-to-end metrics the spread
(q3 - q1) / median against the bound in BENCHMARK.json; --out FILE also
writes those summaries as one JSON document. --smoke runs every workload
once at toy sizes and checks only correctness.

The build lives in .bench_build/ at the checkout root; the first run
configures and builds the library, spe_cli, spe_serve and spe_bench.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BENCH = BUILD / "spe_bench"


def build():
    log = sys.stderr
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "spe_bench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            sys.exit("spe_bench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(BUILD), "--target", "spe_bench", "-j", jobs]
    if subprocess.run(command, stdout=log, stderr=log).returncode != 0:
        sys.exit("spe_bench: build failed")


def bench_args(workload, seed, seconds, trace, smoke):
    args = [str(BENCH), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    return args + (["--smoke"] if smoke else [])


def run_once(workload, seed, seconds, trace, smoke):
    """Runs one workload and returns (exit code, parsed result or None)."""
    done = subprocess.run(bench_args(workload, seed, seconds, trace, smoke),
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode or 1, None


def summarize(workload, seeds, results, config, trace):
    bounds = {m["name"]: m for m in config["end_to_end"]}
    metrics = {}
    names = [n for r in results for n in r["metrics"]]
    for name in dict.fromkeys(names):
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        entry = {"unit": results[0]["metrics"][name]["unit"],
                 "median": statistics.median(values), "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3)
            if name in bounds and entry["median"] != 0:
                spread = (q3 - q1) / abs(entry["median"])
                entry.update(spread=spread, bound=bounds[name]["bound"],
                             over_bound=spread > bounds[name]["bound"])
        metrics[name] = entry
    flagged = [n for n, e in metrics.items() if e.get("over_bound")]
    for name in flagged:
        print(f"spe_bench: {workload}: {name} spread {metrics[name]['spread']:.4f} "
              f"exceeds its bound {metrics[name]['bound']}", file=sys.stderr)
    return {"workload": workload, "trace": trace, "seeds": seeds,
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "flagged": flagged, "metrics": metrics}


def commit():
    done = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="also write the summaries to this JSON file")
    args = parser.parse_args()
    build()

    chosen = workloads if args.workload == "all" else [args.workload]
    if len(chosen) == 1 and args.repeat == 1 and not args.smoke and not args.out:
        sys.stdout.flush()
        os.execv(str(BENCH), bench_args(chosen[0], args.seed, args.seconds,
                                        args.trace, False))

    status = 0
    summaries = []
    for workload in chosen:
        seeds = [args.seed + i for i in range(args.repeat)]
        results = []
        for seed in seeds:
            code, result = run_once(workload, seed, args.seconds, args.trace, args.smoke)
            if result is None or code != 0 or not result["correct"]:
                print(f"spe_bench: {workload} seed {seed} failed (exit {code})",
                      file=sys.stderr)
                status = 1
            if result is not None:
                results.append(result)
        if results:
            summary = summarize(workload, seeds, results, config, args.trace)
            summary.update(seconds=args.seconds, nproc=os.cpu_count(), commit=commit())
            print(json.dumps(summary), flush=True)
            summaries.append(summary)
    if args.out:
        Path(args.out).write_text(json.dumps(summaries, indent=1) + "\n")
    sys.exit(status)


if __name__ == "__main__":
    main()
