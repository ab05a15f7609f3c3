"""Pure-Python enumeration kernel.

Enumerates integer vectors x with lows <= x <= highs (componentwise) and
sum(x) == total, subject to linear constraints of the form

    scale * sum(x[v] for v in mask) >= threshold[mask]

with all quantities integers (the caller pre-scales rational bounds by
2*(2g-2), so no floating point or fraction objects appear here).

The search prunes before it enumerates: every constraint becomes a bound
on one coordinate, and the depth-first search loops only over the values
that meet every bound, with no check per value.

- A constraint on Z is Sum_Z x >= ceil(t / scale) when scale > 0 and
  Sum_Z x <= floor(t / scale) when scale < 0.  With scale = 0, or with Z
  every coordinate, it is a constant: true or false for the whole box.
- Every output has Sum x = total, so a bound on Z is the flipped bound on
  its complement C: Sum_C x = total - Sum_Z x.  Of Z and C, the one whose
  highest coordinate k is lower takes it, as a bound on x[k] of the form
  b - Sum_{Z minus k} x.  One of Z and C holds the last coordinate, so
  every bound is on a coordinate before the last, which the total forces.
  Of the bounds on one coordinate with the same rest mask only the
  tightest is kept; those with an empty rest narrow the box itself.
- The partial sums Sum_R x of the rest masks are read from a table that
  holds each rest mask and the masks left by dropping its top bits one at
  a time; an entry is filled as the coordinate of its top bit is assigned.

Output is in lexicographic order.
"""

from __future__ import annotations

KERNEL_NAME = "python"


def enumerate_box(lows, highs, total, masks, thresholds, scale):
    """All admissible vectors as tuples, lexicographically ordered.

    lows, highs: per-coordinate inclusive bounds.
    masks: bitmasks over coordinates; thresholds: matching lower bounds on
    scale * (partial sum over the mask).
    """
    n = len(lows)
    if n != len(highs):
        raise ValueError("lows and highs must have equal length")
    if len(masks) != len(thresholds):
        raise ValueError("masks and thresholds must have equal length")
    if any(lo > hi for lo, hi in zip(lows, highs)):
        return []

    lows, highs = list(lows), list(highs)
    full = (1 << n) - 1
    last = full + 1 >> 1  # the bit of the last coordinate
    # per coordinate k: {rest mask: b} for x[k] >= b - Sum_rest x (lower)
    # and x[k] <= b - Sum_rest x (upper)
    lower = [{} for _ in range(n)]
    upper = [{} for _ in range(n)]
    feasible = True
    for mask, t in zip(masks, thresholds):
        if mask <= 0 or mask >> n:
            raise ValueError(f"mask {mask} out of range for {n} coordinates")
        if mask == full or not scale:
            # a constant: Sum_Z x is the total, or scale is 0
            feasible = feasible and scale * total >= t
            continue
        # Sum_Z x >= b (at_least) or Sum_Z x <= b
        at_least = scale > 0
        b = -(-t // scale) if at_least else t // scale
        if mask & last:
            mask ^= full
            at_least = not at_least
            b = total - b
        k = mask.bit_length() - 1
        rest = mask ^ 1 << k
        if not rest:
            if at_least:
                lows[k] = max(lows[k], b)
            else:
                highs[k] = min(highs[k], b)
        elif at_least:
            if lower[k].get(rest, b) <= b:
                lower[k][rest] = b
        elif upper[k].get(rest, b) >= b:
            upper[k][rest] = b
    if not feasible:
        return []
    if n == 0:
        return [()] if total == 0 else []
    if n == 1:
        return [(total,)] if lows[0] <= total <= highs[0] else []

    # the partial-sum table: slot 0 is the empty mask
    slot = {0: 0}
    for bounds in lower + upper:
        for m in bounds:
            while m not in slot:
                slot[m] = len(slot)
                m &= ~(1 << m.bit_length() - 1)
    fills = [[] for _ in range(n)]
    for m, i in slot.items():
        if m:
            k = m.bit_length() - 1
            fills[k].append((i, slot[m ^ 1 << k]))
    lower = [[(b, slot[r]) for r, b in bounds.items()] for bounds in lower]
    upper = [[(b, slot[r]) for r, b in bounds.items()] for bounds in upper]
    sums = [0] * len(slot)

    # suffix sums of bounds for the total
    suffix_lo = [0] * (n + 1)
    suffix_hi = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_lo[i] = suffix_lo[i + 1] + lows[i]
        suffix_hi[i] = suffix_hi[i + 1] + highs[i]

    out = []
    penultimate = n - 2

    def descend(k, left, prefix):
        # prefix holds x[0..k), and left = total - sum(prefix)
        lo = left - suffix_hi[k + 1]
        if lo < lows[k]:
            lo = lows[k]
        hi = left - suffix_lo[k + 1]
        if hi > highs[k]:
            hi = highs[k]
        for b, r in lower[k]:
            b -= sums[r]
            if b > lo:
                lo = b
        for b, r in upper[k]:
            b -= sums[r]
            if b < hi:
                hi = b
        if k == penultimate:
            # the total forces the last coordinate
            out.extend([prefix + (val, left - val) for val in range(lo, hi + 1)])
            return
        fill = fills[k]
        for val in range(lo, hi + 1):
            for i, j in fill:
                sums[i] = sums[j] + val
            descend(k + 1, left - val, prefix + (val,))

    descend(0, total, ())
    return out
