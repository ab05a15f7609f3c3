"""One benchmark pass in a fresh interpreter.

Run by run.py, never by hand:

    python3 perfbench/worker.py PLAN REPORT MODE

MODE is `pass` (run the plan's CLI calls), `traced` (the same, with every
layer wrapped by tracer.py), `setup` (stop before the first call) or
`kernel` (the isolated kernel timing).  The worker imports neronjac, loads
the plan's graph files, notes the clock, runs the calls through
neronjac.cli.run, and writes a JSON report.  The CLI's output goes to memory,
so a pass does not wait on a pipe.  Clock values are time.monotonic(), which
the parent process shares.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback


def main(plan_path, report_path, mode):
    with open(plan_path) as fh:
        plan = json.load(fh)
    import neronjac
    import neronjac.cli

    for path in plan["files"]:
        neronjac.load_graph(path)
    report = {"kernel_name": neronjac.KERNEL_NAME}
    if mode == "kernel":
        import kernelbox

        report["kernel"] = kernelbox.isolated(neronjac)
    elif mode in ("pass", "traced"):
        tracer = None
        if mode == "traced":
            import tracer as tracer_mod

            tracer = tracer_mod.Tracer()
            tracer.install(neronjac)
        run = neronjac.cli.run
        outputs, codes, latencies = [], [], []
        report["t_first"] = time.monotonic()
        for op, argv in enumerate(plan["calls"]):
            out = io.StringIO()
            t0 = time.monotonic()
            try:
                code = tracer.run_call(op, run, argv, out=out) if tracer else run(argv, out=out)
            except Exception:  # a traceback is a failed operation, not a crash of the bench
                code = traceback.format_exc()
            latencies.append(time.monotonic() - t0)
            outputs.append(out.getvalue())
            codes.append(code)
        report["t_end"] = time.monotonic()
        report.update(outputs=outputs, codes=codes, latencies=latencies)
        if tracer is not None:
            import kernelbox

            report["layers"] = tracer.metrics(kernelbox.box_points)
            # each traced pass overwrites the last one's spans
            tracer.dump_spans(os.path.join(os.path.dirname(report_path), "spans.jsonl"))
    else:
        report["t_first"] = time.monotonic()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(report_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(*sys.argv[1:4])
