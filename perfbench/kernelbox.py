"""The enumeration kernel's search space, and the kernel timed in isolation.

box_points counts what enumerate_box could return without its subcurve
constraints, so points / box_points is the share of the box that survives
them.  isolated() is the kernel micro-benchmark: identical constraint systems
from a census, enumerated by the pure kernel and, when it is built, the
compiled one, whose outputs must be equal.
"""

from __future__ import annotations

import math
import statistics
import time

# the boxes of the former benchmarks/bench_kernel.py: the genus-3 census with
# at most 4 vertices, d in [-2g, 4g], each box widened by PAD on both sides
GENUS, MAX_VERTICES, PAD = 3, 4, 3
REPEAT = 3


def box_points(lows, highs, total) -> int:
    """Integer vectors x with lows <= x <= highs and sum(x) == total."""
    if any(lo > hi for lo, hi in zip(lows, highs)):
        return 0
    base = sum(lows)
    target = total - base
    span = sum(hi - lo for lo, hi in zip(lows, highs))
    if not 0 <= target <= span:
        return 0
    # ways[s]: vectors of the coordinates so far whose excess over lows is s
    ways = [1] + [0] * target
    for lo, hi in zip(lows, highs):
        width = hi - lo
        prefix = [0]
        for w in ways:
            prefix.append(prefix[-1] + w)
        ways = [prefix[s + 1] - prefix[max(0, s - width)] for s in range(target + 1)]
    return ways[target]


def build_cases(neronjac):
    """One enumerate_box argument tuple per (census graph, degree)."""
    from neronjac.balance import _balance_checks, _m_of_set, _threshold

    genus, pad = GENUS, PAD
    cases = []
    scale = 2 * (2 * genus - 2)
    for g in neronjac.census(genus, MAX_VERTICES):
        n = g.n_vertices
        full = frozenset(range(n))
        checks = _balance_checks(g)
        masks = [c.mask for c in checks]
        for d in range(-2 * genus, 4 * genus + 1):
            lows = [math.ceil(_m_of_set(g, {v}, d)) - pad for v in range(n)]
            highs = [d - math.ceil(_m_of_set(g, full - {v}, d)) + pad for v in range(n)]
            thresholds = [_threshold(genus, d, c.w, c.delta) - scale * pad for c in checks]
            cases.append((lows, highs, d, masks, thresholds, scale))
    return cases


def _time_kernel(kernel, cases):
    times, outputs = [], None
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        outputs = [kernel.enumerate_box(*case) for case in cases]
        times.append(time.perf_counter() - t0)
    return statistics.median(times), outputs


def isolated(neronjac) -> dict:
    """Median time of each available kernel over the census boxes.

    compiled_s is None when the extension is not built; `equal` is False
    when the kernels' outputs differ."""
    from neronjac import _kernel_py

    try:
        from neronjac import _speedups
    except ImportError:
        _speedups = None
    cases = build_cases(neronjac)
    python_s, expected = _time_kernel(_kernel_py, cases)
    result = {
        "cases": len(cases),
        "points": sum(len(out) for out in expected),
        "box_points": sum(box_points(c[0], c[1], c[2]) for c in cases),
        "python_s": python_s,
        "compiled_s": None,
        "equal": True,
    }
    if _speedups is not None:
        compiled_s, outputs = _time_kernel(_speedups, cases)
        result["compiled_s"] = compiled_s
        result["equal"] = [list(map(tuple, o)) for o in outputs] == [
            list(map(tuple, o)) for o in expected
        ]
    return result
