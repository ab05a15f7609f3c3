#!/usr/bin/env python3
"""Compare two benchmark records written by `run.py --out`.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints every metric the two records share, per workload, as before, after
and after/before.  Records made with different enumeration kernels
(neronjac.KERNEL_NAME) are refused with exit status 2: a compiled-against-pure
difference is not a change in the code under test.
"""

from __future__ import annotations

import json
import sys


def load(path):
    with open(path) as fh:
        data = json.load(fh)
    records = data if isinstance(data, list) else [data]
    return {(r["provenance"]["workload"], r["provenance"]["trace"]): r for r in records}


def kernels(records):
    return {r["provenance"]["kernel_name"] for r in records.values()}


def compare(before, after, out=sys.stdout) -> int:
    if kernels(before) != kernels(after) or len(kernels(before)) != 1:
        print(f"refusing to compare: kernel {sorted(kernels(before))} vs {sorted(kernels(after))}",
              file=sys.stderr)
        return 2
    for key in sorted(before.keys() & after.keys()):
        print(f"== {key[0]} trace {key[1]}", file=out)
        b, a = before[key]["result"]["metrics"], after[key]["result"]["metrics"]
        for name in b:
            if name in a:
                x, y = b[name]["value"], a[name]["value"]
                ratio = f"{y / x:.4f}" if x else "-"
                print(f"  {name:44s} {x:<14.6g} {y:<14.6g} {ratio:>8} {b[name]['unit']}", file=out)
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    return compare(load(argv[0]), load(argv[1]))


if __name__ == "__main__":
    sys.exit(main())
