"""Pure-Python enumeration kernel.

Enumerates integer vectors x with lows <= x <= highs (componentwise) and
sum(x) == total, subject to linear constraints of the form

    scale * sum(x[v] for v in mask) >= threshold[mask]

with all quantities integers (the caller pre-scales rational bounds by
2*(2g-2), so no floating point or fraction objects appear here).

The search prunes before it enumerates: every constraint becomes a bound
on one coordinate, and the depth-first search loops only over the values
that meet every bound, with no check per value.

- A coordinate with lows[k] == highs[k] is pinned: a constant, not a
  search variable (an exceptional vertex of a blow-up is pinned to
  degree 1).  Its value leaves the total, and leaves the threshold of
  each constraint that holds it, as t - scale * value; the constraint is
  then on the free coordinates of its mask.  A constraint on pinned
  coordinates only is a constant.  Masks that differ only in pinned bits
  become one, of which the tightest bound is kept as below, so the search
  and its constraints are those of the free coordinates alone.  Each
  output takes the pinned values back in their places.
- A constraint on Z is Sum_Z x >= ceil(t / scale) when scale > 0 and
  Sum_Z x <= floor(t / scale) when scale < 0.  With scale = 0, or with Z
  every free coordinate, it is a constant: true or false for the whole
  box.
- Every output has Sum x = total, so a bound on Z is the flipped bound on
  its complement C among the free coordinates: Sum_C x = total -
  Sum_Z x.  Of Z and C, the one whose highest coordinate k is lower takes
  it, as a bound on x[k] of the form b - Sum_{Z minus k} x.  One of Z and
  C holds the last free coordinate, so every bound is on a free
  coordinate before it, and the total forces the last.  Of the bounds on
  one coordinate with the same rest mask only the tightest is kept; those
  with an empty rest narrow the box itself.
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
    # fold the pinned coordinates into the constants: from here on, total
    # and each threshold are those of the free coordinates
    pins = [(1 << k, lo) for k, (lo, hi) in enumerate(zip(lows, highs)) if lo == hi]
    pinned = sum(bit for bit, _ in pins)
    total -= sum(lo for _, lo in pins)
    free = ((1 << n) - 1) ^ pinned
    last = 1 << free.bit_length() - 1 if free else 0  # the last free bit
    # per coordinate k: {rest mask: b} for x[k] >= b - Sum_rest x (lower)
    # and x[k] <= b - Sum_rest x (upper)
    lower = [{} for _ in range(n)]
    upper = [{} for _ in range(n)]
    feasible = True
    for mask, t in zip(masks, thresholds):
        if mask <= 0 or mask >> n:
            raise ValueError(f"mask {mask} out of range for {n} coordinates")
        if mask & pinned:
            t -= scale * sum(lo for bit, lo in pins if mask & bit)
            mask &= free
            if not mask:
                # a constant: the mask holds pinned coordinates only
                feasible = feasible and t <= 0
                continue
        if mask == free or not scale:
            # a constant: Sum_Z x is the total, or scale is 0
            feasible = feasible and scale * total >= t
            continue
        # Sum_Z x >= b (at_least) or Sum_Z x <= b
        at_least = scale > 0
        b = -(-t // scale) if at_least else t // scale
        if mask & last:
            mask ^= free
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

    # the search runs over the free coordinates order[0], order[1], ...;
    # head and gaps[i] are the pinned values before order[0] and after
    # order[i], which each output takes as they are
    order = [k for k in range(n) if free >> k & 1]
    if not order:
        return [tuple(lows)] if total == 0 else []
    head = tuple(lows[: order[0]])
    gaps = [tuple(lows[k + 1 : j]) for k, j in zip(order, order[1:] + [n])]
    if len(order) == 1:
        k = order[0]
        return [head + (total,) + gaps[0]] if lows[k] <= total <= highs[k] else []

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

    # suffix sums of the free bounds for the total
    suffix_lo = [0] * (len(order) + 1)
    suffix_hi = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix_lo[i] = suffix_lo[i + 1] + lows[order[i]]
        suffix_hi[i] = suffix_hi[i + 1] + highs[order[i]]

    out = []
    penultimate = len(order) - 2
    mid, end = gaps[-2:]

    def descend(i, left, prefix):
        # prefix holds the outputs' values before order[i], and left is
        # the total less the free ones among them
        k = order[i]
        lo = left - suffix_hi[i + 1]
        if lo < lows[k]:
            lo = lows[k]
        hi = left - suffix_lo[i + 1]
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
        if i == penultimate:
            # the total forces the last free coordinate
            if mid or end:
                out.extend(
                    [prefix + (val,) + mid + (left - val,) + end for val in range(lo, hi + 1)]
                )
            else:
                out.extend([prefix + (val, left - val) for val in range(lo, hi + 1)])
            return
        fill = fills[k]
        gap = gaps[i]
        for val in range(lo, hi + 1):
            for j, r in fill:
                sums[j] = sums[r] + val
            descend(i + 1, left - val, prefix + (val,) + gap)

    descend(0, total, head)
    return out
