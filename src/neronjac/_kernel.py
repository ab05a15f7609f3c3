"""Kernel selection: compiled extension if built, pure Python otherwise.

Set NERONJAC_PURE=1 to force the fallback even where the extension is
built.  Tests that compare the two kernels load them directly instead.

The compiled kernel works on at most MAX_N = 62 coordinates in signed
64-bit arithmetic, while the pure kernel is exact for all integers.  When
the compiled kernel is selected, every call is range-checked and handed to
the pure kernel unless it fits: at most MAX_N coordinates, every threshold
in [-2**63, 2**63), and

    max(|scale|, 1) * (|total| + 1 + sum_v max(|lows[v]|, |highs[v]|)) < 2**63,

which bounds every bound, partial sum and scaled constraint sum the compiled
search forms.  Both kernels check every other argument themselves, with the
same ValueErrors, so they give the same answer for every input.  The pure
path carries no check.
"""

from __future__ import annotations

import os

from . import _kernel_py

MAX_N = 62
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

if os.environ.get("NERONJAC_PURE"):
    _impl = _kernel_py
else:
    try:
        from . import _speedups as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _kernel_py


def fits_compiled(lows, highs, total, masks, thresholds, scale) -> bool:
    """True iff the compiled kernel computes this call without overflow."""
    n = len(lows)
    if n > MAX_N:
        return False
    if any(t < INT64_MIN or t > INT64_MAX for t in thresholds):
        return False
    reach = abs(total) + 1
    for lo, hi in zip(lows, highs):
        reach += max(abs(lo), abs(hi))
    return max(abs(scale), 1) * reach <= INT64_MAX


def range_guarded(compiled):
    """compiled.enumerate_box, with every call that does not fit it sent to
    the pure kernel instead."""
    compiled_box = compiled.enumerate_box

    def enumerate_box(lows, highs, total, masks, thresholds, scale):
        if fits_compiled(lows, highs, total, masks, thresholds, scale):
            return compiled_box(lows, highs, total, masks, thresholds, scale)
        return _kernel_py.enumerate_box(lows, highs, total, masks, thresholds, scale)

    return enumerate_box


KERNEL_NAME: str = _impl.KERNEL_NAME
enumerate_box = (
    _kernel_py.enumerate_box if _impl is _kernel_py else range_guarded(_impl)
)
