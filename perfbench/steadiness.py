#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread against its bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --workload census-g3 --seeds 1-10
    python3 perfbench/steadiness.py --workload all --seeds 1-10 --trajectory LABEL

For every workload and metric it prints the median of the per-run values and
the spread (third quartile minus first quartile, over the median) next to the
bound; a spread above a third of the bound is marked.  With --trajectory it
also runs one traced pass per workload and appends an entry with all of
these numbers, tagged LABEL, to perfbench/trajectory.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, trace, seconds):
    """One benchmark run; returns its result object (the last stdout line)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(values)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    ap.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    ap.add_argument("--trajectory", metavar="LABEL")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    seeds = seed_range(args.seeds)
    entry = {"label": args.trajectory, "seeds": args.seeds, "run_seconds": spec["run_seconds"],
             "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in seeds:
            result, _ = run_once(name, seed, 0, spec["run_seconds"])
            ok &= result["correct"]
            runs.append(result)
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k} {m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        e2e = {}
        for metric in spec["end_to_end"]:
            stats = summarize([r["metrics"][metric["name"]]["value"] for r in runs])
            stats["unit"] = metric["unit"]
            e2e[metric["name"]] = stats
            mark = "" if stats["spread"] < metric["bound"] / 3 else "   <-- above a third of the bound"
            print(f"  {metric['name']:16s} median {stats['median']:<12.6g} spread {stats['spread']:.4f}"
                  f"  bound {metric['bound']}{mark}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"  failed {failed} of {attempted}", flush=True)
        entry["workloads"][name] = {"end_to_end": e2e, "failed": failed, "attempted": attempted}
        if args.trajectory:
            traced, stdout = run_once(name, seeds[0], 1, spec["run_seconds"])
            ok &= traced["correct"]
            entry["workloads"][name]["per_layer"] = {
                k: m["value"] for k, m in traced["metrics"].items()}
            prov = next(line for line in stdout.splitlines() if line.startswith("provenance "))
            entry["provenance"] = json.loads(prov.split(" ", 1)[1])
    if args.trajectory:
        with open(os.path.join(HERE, "trajectory.jsonl"), "a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
