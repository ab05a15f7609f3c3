#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of neronjac.

    python3 perfbench/run.py --workload census-g3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, untraced and traced

Each pass runs one workload through neronjac.cli.run in a fresh interpreter
(perfbench/worker.py), so the package's caches start cold as in a user's CLI
call.  Passes run one at a time until --seconds have gone by.  With --trace 0
the result holds the end-to-end metrics; with --trace 1 one untraced pass,
then traced passes and the isolated kernel timing give the per-layer metrics.
Every row of every pass is checked (see identities.py and expected.json); a
row that fails counts in `failed`, it does not stop the run.

The last line of stdout is the result as JSON; the lines before it show each
metric with its unit, quartiles and sample count, and the provenance.
Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import identities
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s


def percentile(values, q):
    """Linear-interpolation percentile q (0-100) of values, with the number
    of samples ranked above it."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return value, len(ordered) - 1 - lo


def quartiles(values):
    """(median, first quartile, third quartile) of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


class Run:
    """Passes of one workload in one checkout, and their checks."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seconds = seconds
        self.started = time.monotonic()
        self.workdir = os.path.join(ROOT, ".bench_build", "perfbench", workload)
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.plan = workloads.make_plan(workload, seed, self.workdir)
        self.pool = workloads.analyze_pool()
        self.plan_path = os.path.join(self.workdir, "plan.json")
        with open(self.plan_path, "w") as fh:
            json.dump(self.plan, fh)
        with open(os.path.join(HERE, "expected.json")) as fh:
            self.expected = json.load(fh).get(workload)
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.kernel_name = None
        self.digest = None
        self.n_spawned = 0

    def elapsed(self):
        return time.monotonic() - self.started

    def spawn(self, mode):
        """Run the worker once; returns (report or None, spawn time)."""
        report_path = os.path.join(self.workdir, f"report-{self.n_spawned}.json")
        self.n_spawned += 1
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, self.plan_path, report_path, mode],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=max(5.0, RUN_LIMIT_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} worker timed out")
            return None, t0
        if proc.returncode != 0:
            self.problems.append(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None, t0
        with open(report_path) as fh:
            report = json.load(fh)
        self.kernel_name = report["kernel_name"]
        return report, t0

    def expected_rows(self):
        if self.workload == workloads.ANALYZE:
            return len(self.plan["calls"])
        return self.expected["rows"]

    def check(self, report):
        """Count the pass's rows and failed rows; returns the output in
        canonical order (None when the worker failed)."""
        n_rows = self.expected_rows()
        self.attempted += n_rows
        if report is None:
            self.failed += n_rows
            return None
        failed = set()
        if self.workload == workloads.ANALYZE:
            by_key = {}
            for i, (code, text, (idx, d)) in enumerate(
                zip(report["codes"], report["outputs"], self.plan["keys"])
            ):
                by_key[idx, d] = text
                lines = text.splitlines()
                if code != 0 or len(lines) != 1:
                    failed.add(i)
                    self.problems.append(f"call {i} (graph {idx}, d={d}): exit {code}, {len(lines)} rows")
                    continue
                found = identities.analyze_row_problems(json.loads(lines[0]), *self.pool[idx], d)
                if found:
                    failed.add(i)
                    self.problems.append(f"graph {idx}, d={d}: {'; '.join(found)}")
            output = "".join(by_key[key] for key in sorted(by_key))
        else:
            output = report["outputs"][0]
            if report["codes"][0] != 0:
                failed.update(range(n_rows))
                self.problems.append(f"census exited {report['codes'][0]}")
            lines = output.splitlines()
            if len(lines) != n_rows:
                failed.update(range(len(lines), n_rows))
                self.problems.append(f"{len(lines)} rows, expected {n_rows}")
            for i, line in enumerate(lines[:n_rows]):
                row = json.loads(line)
                found = identities.census_row_problems(row)
                if found:
                    failed.add(i)
                    self.problems.append(f"row {i} graph {row['graph']} d={row['degree']}: {'; '.join(found)}")
        digest = hashlib.sha256(output.encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        if self.expected and digest != self.expected["sha256"]:
            failed.update(range(n_rows))
            self.problems.append(f"output sha256 {digest} differs from the recorded digest")
        self.failed += len(failed)
        return output

    def passes(self, mode):
        """Passes until --seconds have gone by since the first one started;
        returns the reports of the passes that ran."""
        reports = []
        first = time.monotonic()
        while not reports or time.monotonic() - first < self.seconds:
            report, t0 = self.spawn(mode)
            self.check(report)
            if report is not None:
                report["t0"] = t0
                reports.append(report)
            elif len(self.problems) > 20:
                break
        return reports

    def setup_samples(self, reports):
        samples = [r["t_first"] - r["t0"] for r in reports]
        for _ in range(SETUP_PROBES):
            report, t0 = self.spawn("setup")
            if report is not None:
                samples.append(report["t_first"] - t0)
        return samples

    def end_to_end(self):
        reports = self.passes("pass")
        if not reports:
            return {}, {}
        rows = self.expected_rows()
        wall = [r["t_end"] - r["t0"] for r in reports]
        busy = [r["t_end"] - r["t_first"] for r in reports]
        if self.workload == workloads.ANALYZE:
            latencies = [x * 1000 for r in reports for x in r["latencies"]]
        else:  # a census builds all its rows before printing: per-row time per pass
            latencies = [b * 1000 / rows for b in busy]
        p50, _ = percentile(latencies, 50)
        p90, beyond = percentile(latencies, 90)
        samples = {
            "wall_s": wall,
            "setup_s": self.setup_samples(reports),
            "verdicts_per_s": [rows / b for b in busy],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
        }
        values = {name: quartiles(v)[0] for name, v in samples.items()}
        values["verdict_ms_p50"] = p50
        values["verdict_ms_p90"] = p90
        detail = {name: [*quartiles(v), len(v)] for name, v in samples.items()}
        detail["verdict_ms_p50"] = [p50, None, None, len(latencies)]
        detail["verdict_ms_p90"] = [p90, None, None, len(latencies), beyond]
        return values, detail

    def per_layer(self):
        plain, t0 = self.spawn("pass")
        plain_out = self.check(plain)
        traced_reports = []
        outputs = []
        # at least two traced passes, so that every count is seen to repeat
        while len(traced_reports) < 2 or (
            self.elapsed() + traced_reports[-1]["t_end"] - traced_reports[-1]["t0"] < self.seconds
        ):
            report, t_spawn = self.spawn("traced")
            outputs.append(self.check(report))
            if report is None:
                break
            report["t0"] = t_spawn
            traced_reports.append(report)
        kernel, _ = self.spawn("kernel")
        self.attempted += 1
        if kernel is None or not kernel["kernel"]["equal"]:
            self.failed += 1
            self.problems.append("isolated kernels disagree or failed")
        if plain is None or not traced_reports:
            return {}, {}
        for out in outputs:
            if out != plain_out:
                self.failed += self.expected_rows()
                self.problems.append("traced output differs from untraced output")
        layers = [r["layers"] for r in traced_reports]
        values = {}
        for name in layers[0]:
            if name.endswith(".s"):
                values[name] = statistics.median(x[name] for x in layers)
            else:
                values[name] = layers[0][name]
                if any(x[name] != values[name] for x in layers):
                    self.failed += 1
                    self.problems.append(f"{name} differs between traced passes")
        plain_wall = plain["t_end"] - t0
        values["trace.overhead"] = statistics.median(
            r["t_end"] - r["t0"] for r in traced_reports
        ) / plain_wall
        k = kernel["kernel"] if kernel else {}
        values["kernel.isolated.python_s"] = k.get("python_s", 0.0)
        values["kernel.isolated.points"] = k.get("points", 0)
        values["kernel.isolated.box_points"] = k.get("box_points", 0)
        values["kernel.isolated.compiled_present"] = int(k.get("compiled_s") is not None)
        detail = {"traced_passes": len(traced_reports), "isolated_kernel": k}
        return values, detail


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_workload(workload, seed, seconds, trace, spec):
    run = Run(workload, seed, seconds)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values, detail = run.per_layer() if trace else run.end_to_end()
    metrics = {}
    for m in declared:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    if len(metrics) != len(declared):
        run.problems.append("no metrics: every pass failed")
    provenance = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "kernel_name": run.kernel_name,
        "neronjac_pure": bool(os.environ.get("NERONJAC_PURE")),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }
    result = {
        "correct": run.failed == 0 and len(metrics) == len(declared),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return {"provenance": provenance, "result": result, "detail": detail,
            "problems": run.problems, "output_sha256": run.digest}


def show(record):
    prov, result = record["provenance"], record["result"]
    print(f"== {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}  "
          f"kernel {prov['kernel_name']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    detail = record["detail"]
    for name, m in result["metrics"].items():
        extra = ""
        if name in detail and isinstance(detail[name], list):
            med, q1, q3, n, *beyond = detail[name]
            extra = f"  q1 {q1:.6g}  q3 {q3:.6g}" if q1 is not None else ""
            extra += f"  n {n}" + (f"  beyond {beyond[0]}" if beyond else "")
        print(f"  {name:44s} {m['value']:<14.6g} {m['unit']:8s}{extra}")
    if "isolated_kernel" in detail:
        k = detail["isolated_kernel"]
        compiled = "absent" if k.get("compiled_s") is None else f"{k['compiled_s']:.4f} s"
        print(f"  isolated kernel: python {k.get('python_s', 0):.4f} s, compiled {compiled}, "
              f"{k.get('cases')} boxes, outputs equal: {k.get('equal')}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  failed_frac {frac:.6g} ({result['failed']} of {result['attempted']} operations)")
    print(f"  output sha256 {record['output_sha256']}")
    for problem in record["problems"][:20]:
        print(f"  problem: {problem}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="also write the full record(s) as JSON to this file")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "neronjac", "cli.py")):
        print(f"error: no neronjac sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.workload == "all":
        jobs = [(w, t) for w in workloads.NAMES for t in (0, 1)]
    else:
        jobs = [(args.workload, args.trace)]
    records = []
    for workload, trace in jobs:
        record = run_workload(workload, args.seed, seconds, trace, spec)
        show(record)
        records.append(record)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records if len(records) > 1 else records[0], fh, indent=1, sort_keys=True)
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        print(json.dumps({
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['provenance']['workload']}/{name}": m
                        for r in records for name, m in r["result"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
