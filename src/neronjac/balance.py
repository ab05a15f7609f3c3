"""Balanced and strictly balanced multidegrees.

A multidegree of total degree d on a (quasi)stable graph of genus g >= 2 is
balanced when every connected proper subcurve Z satisfies

    deg_Z >= m_Z(d) = d * w_Z / (2g - 2) - delta_Z / 2

and every exceptional vertex carries degree exactly 1.  The equality
subcurves of a balanced multidegree are the connected proper subcurves Z on
which it meets its bound, deg_Z = m_Z(d).  Z is exempt when its boundary
nodes all lie on exceptional components.  A balanced multidegree is
strictly balanced when it has no non-exempt equality subcurve.

The subcurves of a graph are held in one table, _balance_checks(g),
computed once per graph: one entry per bond, a connected proper subcurve
with a connected complement, holding its vertex mask, w_Z, delta_Z, the
edge mask of its boundary Z cap Z^c, and whether it is exempt.  The bonds
decide balance, strictness, S(mu) and both criteria, by the lemma at
_balance_checks.  Each entry is read by _subcurve from per-vertex sums in
O(|Z|): the boundary is the XOR of the non-loop edges at each vertex of Z.
m_lower_bound reads it too, and through it equality_subcurves, which
answers over every connected Z as the definition asks.

Every comparison is done on integers after clearing denominators by
2*(2g-2), in _SubcurveBounds: scale * deg_Z >= t_Z.  The kernel is the one
balance test: enumerate_balanced asks it for a box, and is_balanced for
the one-point box of its multidegree.  deg_Z = m_Z(d) can hold only where
m_Z(d) = t_Z / scale is an integer, so the bonds whose threshold the scale
divides, each with its integer bound, are listed once as the tight
checks.  Every equality question of a verdict reads that list: the
equality bonds, and strictness, which asks that every tight check met
with equality be exempt.  The public bound m_Z(d) is an exact Fraction.
The bridges the strata blow up are read off the same list: a tight check
with delta = 1 is a side of a bridge with an integral m_Z(d).

d-generality reads no kernel: a stable graph is d-special iff its tight
list is nonempty, and d_special_subcurve returns its first entry.  The
weakly-general Neron route reads it on the bridge contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import _kernel
from .graphs import (
    WeightedGraph,
    _as_int,
    check_multidegree,
    connected_subset_masks,
    contract_separating,
)


def _require_genus(g: WeightedGraph) -> int:
    """The genus of g, which must be at least 2 and connected: m_Z(d) and
    the per-vertex bounds use 2g - 2 of the whole curve."""
    genus = g.genus
    if genus < 2:
        raise ValueError(f"genus must be at least 2, got {genus}")
    if not g.is_connected:
        raise ValueError("balanced multidegrees are defined for connected graphs")
    return genus


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _subcurve(g: WeightedGraph, mask: int, incidence) -> tuple[int, int, int]:
    """(w, delta, boundary) of the subcurve on the vertices of mask, from
    per-vertex sums; incidence is g.incidence_masks.

    boundary is the mask of the indices of the edges with exactly one end
    in Z (a loop never is one): the XOR of the non-loop edges at each
    vertex of Z, in which an edge with both ends in Z cancels.  delta is
    their number, and w = 2 g_Z - 2 + delta with g_Z the arithmetic genus
    of Z: its weights plus its internal edges (loops included) minus its
    vertices plus one.  Every internal edge has two ends in Z and every
    boundary edge one, so there are (Sum_Z valency - delta) / 2 internal
    edges.
    """
    valencies, weights = g.valencies, g.weights
    boundary = ends = weight = size = 0
    while mask:
        b = mask & -mask
        mask ^= b
        v = b.bit_length() - 1
        boundary ^= incidence[v]
        ends += valencies[v]
        weight += weights[v]
        size += 1
    delta = boundary.bit_count()
    genus_z = weight + (ends - delta) // 2 - size + 1
    return 2 * genus_z - 2 + delta, delta, boundary


def m_lower_bound(g: WeightedGraph, z, d: int) -> Fraction:
    """Exact lower bound m_Z(d) for the degree of the subcurve on the
    nonempty vertex set z."""
    genus = _require_genus(g)
    zs = frozenset(z)
    if not zs:
        raise ValueError("subcurve must be nonempty")
    if any(not 0 <= v < g.n_vertices for v in zs):
        raise ValueError("subcurve references a missing vertex")
    w, delta, _ = _subcurve(g, sum(1 << v for v in zs), g.incidence_masks)
    return Fraction(d * w, 2 * genus - 2) - Fraction(delta, 2)


def _m_of_set(g: WeightedGraph, vs, d: int) -> Fraction:
    """m for an arbitrary, possibly empty or disconnected vertex set.

    w is additive over connected components, so the formula applies as-is.
    Not used by the enumeration (see _vertex_bounds); perfbench/kernelbox.py
    builds the isolated kernel's boxes from it.
    """
    if not vs:
        return Fraction(0)
    return m_lower_bound(g, vs, d)


@dataclass(frozen=True, slots=True)
class _SubsetCheck:
    mask: int  # vertices of Z
    w: int
    delta: int
    boundary: int  # edges with one end in Z
    exempt: bool  # boundary entirely on exceptional components


@lru_cache(maxsize=None)
def _balance_checks(g: WeightedGraph) -> tuple[_SubsetCheck, ...]:
    """The subcurve table of the connected graph g: one check per bond, a
    connected proper Z with Z^c connected, in mask order.

    The bonds decide balance.  Let Z be connected and Y_i the components
    of Z^c.  Each Y_i^c is a bond, as every Y_j touches Z, and the
    boundaries of the Y_i partition that of Z.  The bounds of the Y_i^c,
    deg_{Y_i} <= m_{Y_i}(d) + delta_{Y_i}, sum to deg_Z >= m_Z(d), and
    equality on Z forces it on every Y_i^c: exemption and S(mu) follow.
    """
    on_exceptional = 0
    for i, (u, v) in enumerate(g.edges):
        if u in g.exceptional or v in g.exceptional:
            on_exceptional |= 1 << i
    incidence = g.incidence_masks
    masks = connected_subset_masks(g)
    full, connected = (1 << g.n_vertices) - 1, set(masks)
    checks = []
    for mask in masks:
        if full ^ mask in connected:
            w, delta, boundary = _subcurve(g, mask, incidence)
            exempt = not boundary & ~on_exceptional
            checks.append(_SubsetCheck(mask, w, delta, boundary, exempt))
    return tuple(checks)


def _threshold(genus: int, d: int, w: int, delta: int) -> int:
    # scale * deg_Z >= threshold  <=>  deg_Z >= m_Z(d), scale = 2*(2g-2)
    return 2 * d * w - (2 * genus - 2) * delta


def _mask_sum(md, mask: int) -> int:
    acc = 0
    v = 0
    while mask:
        if mask & 1:
            acc += md[v]
        mask >>= 1
        v += 1
    return acc


class _SubcurveBounds:
    """The cleared bounds of every bond of g at total degree d, built once
    and shared by every multidegree of that degree:
    scale * deg_Z >= threshold  <=>  deg_Z >= m_Z(d), scale = 2*(2g-2).
    `tight` holds (check, m_Z(d)) for each bond whose m_Z(d) is an
    integer, the only ones a multidegree can meet with equality."""

    __slots__ = ("checks", "degree", "thresholds", "scale", "tight")

    def __init__(self, g: WeightedGraph, genus: int, d: int):
        try:
            self.degree = d = _as_int(d)
        except TypeError:
            raise ValueError(f"degree must be an integer, got {d!r}") from None
        self.checks = _balance_checks(g)
        self.thresholds = [_threshold(genus, d, c.w, c.delta) for c in self.checks]
        self.scale = scale = 2 * (2 * genus - 2)
        self.tight = [
            (c, t // scale)
            for c, t in zip(self.checks, self.thresholds)
            if t % scale == 0
        ]

    def balanced(self, lows, highs, d: int) -> list[tuple[int, ...]]:
        """The kernel's multidegrees of total degree d in the box lows..highs
        that meet every bound, lexicographically ordered."""
        masks = [c.mask for c in self.checks]
        return _kernel.enumerate_box(lows, highs, d, masks, self.thresholds, self.scale)

    def is_strict(self, md) -> bool:
        """A balanced md is strictly balanced iff it meets no non-exempt
        tight check with equality."""
        return all(c.exempt or _mask_sum(md, c.mask) != m for c, m in self.tight)

    def equalities(self, md) -> list[_SubsetCheck]:
        """The checks of the equality bonds of md, in mask order."""
        return [c for c, m in self.tight if _mask_sum(md, c.mask) == m]


def _balanced_bounds(g: WeightedGraph, multidegree):
    """(md, bounds): the checked multidegree, and the cleared bounds of its
    degree when it is balanced, else None."""
    genus = _require_genus(g)
    md = check_multidegree(multidegree, g.n_vertices)
    if any(md[v] != 1 for v in g.exceptional):
        return md, None
    d = sum(md)
    bounds = _SubcurveBounds(g, genus, d)
    return md, bounds if bounds.balanced(md, md, d) else None


def is_balanced(g: WeightedGraph, multidegree) -> bool:
    return _balanced_bounds(g, multidegree)[1] is not None


def is_strictly_balanced(g: WeightedGraph, multidegree) -> bool:
    md, bounds = _balanced_bounds(g, multidegree)
    return bounds is not None and bounds.is_strict(md)


def equality_subcurves(g: WeightedGraph, multidegree) -> list[frozenset[int]]:
    """Vertex sets of the connected proper subcurves Z with deg_Z = m_Z(d),
    bonds or not, ascending as bitmasks; the equality subcurves when the
    multidegree is balanced.  No verdict reads this list."""
    _require_genus(g)
    md = check_multidegree(multidegree, g.n_vertices)
    subsets = [frozenset(_bits(mask)) for mask in connected_subset_masks(g)]
    d = sum(md)
    return [z for z in subsets if sum(md[v] for v in z) == m_lower_bound(g, z, d)]


@dataclass(frozen=True)
class BalancedSet:
    """Complete enumeration of balanced multidegrees of one total degree,
    with the strictly balanced sublist flagged.  `bounds` holds the cleared
    bounds the enumeration built, for the equality questions asked of the
    same (graph, degree) later: the criterion route's equality subcurves
    and the bridges the strata blow up."""

    degree: int
    members: tuple[tuple[int, ...], ...]
    strict_members: tuple[tuple[int, ...], ...]
    bounds: _SubcurveBounds = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def strict_size(self) -> int:
        return len(self.strict_members)

    @property
    def d_general(self) -> bool:
        """Every balanced member is strictly balanced."""
        return self.members == self.strict_members


def _vertex_bounds(
    g: WeightedGraph, genus: int, d: int
) -> tuple[list[int], list[int]]:
    """Per-vertex box of the balanced multidegrees of total degree d.

    With t_v the cleared threshold of the singleton {v} and scale =
    2*(2g-2), the singleton gives lo_v = ceil(t_v / scale) and the
    complement gives hi_v = floor(t_v / scale) + delta_v: on a connected
    graph w_Z + w_{Z^c} = 2g - 2 and delta_Z = delta_{Z^c}, so
    d - m_{Z^c}(d) = m_Z(d) + delta_Z (also for n = 1, where Z^c is empty
    and delta = 0).  Exceptional vertices are pinned to degree 1.
    """
    scale = 2 * (2 * genus - 2)
    lows, highs = [], []
    for v, (weight, k, loops) in enumerate(zip(g.weights, g.valencies, g.loops)):
        delta = k - 2 * loops  # the non-loop edge ends at v
        w = 2 * (weight + loops) - 2 + delta
        t = _threshold(genus, d, w, delta)
        lo, hi = -(-t // scale), t // scale + delta
        if v in g.exceptional:
            lo, hi = max(lo, 1), min(hi, 1)
        lows.append(lo)
        highs.append(hi)
    return lows, highs


def enumerate_balanced(g: WeightedGraph, d: int) -> BalancedSet:
    """All balanced multidegrees of total degree d on a connected graph,
    lexicographically ordered, with the strictly balanced ones flagged."""
    genus = _require_genus(g)
    bounds = _SubcurveBounds(g, genus, d)
    d = bounds.degree
    lows, highs = _vertex_bounds(g, genus, d)
    members = tuple(bounds.balanced(lows, highs, d))
    strict = tuple(md for md in members if bounds.is_strict(md))
    return BalancedSet(degree=d, members=members, strict_members=strict, bounds=bounds)


def d_special_subcurve(g: WeightedGraph, d: int) -> frozenset[int] | None:
    """The first tight check of the stable graph g, a bond Z with m_Z(d)
    an integer, as a vertex set; None when there is none.

    g is d-general (every balanced multidegree of degree d is strictly
    balanced) iff there is none, so d-special means a nonempty tight list:
    L. Caporaso, "Neron models and compactified Picard schemes over the
    moduli stack of stable curves", Amer. J. Math. 130 (2008).  One
    direction is the lemma at _balance_checks.
    """
    if not g.is_stable:
        raise ValueError("d-generality is defined for stable graphs")
    tight = _SubcurveBounds(g, _require_genus(g), d).tight
    return frozenset(_bits(tight[0][0].mask)) if tight else None


def is_d_general(g: WeightedGraph, d: int) -> bool:
    """True iff every balanced multidegree of total degree d on the stable
    graph g is strictly balanced, by the criterion of d_special_subcurve."""
    return d_special_subcurve(g, d) is None


def is_weakly_d_general(g: WeightedGraph, d: int) -> bool:
    """True iff the bridge contraction of the stable graph g is d-general."""
    if not g.is_stable:
        raise ValueError("weak d-generality is defined for stable graphs")
    contracted, _ = contract_separating(g)
    return is_d_general(contracted, d)


def alpha(g: WeightedGraph, multidegree) -> tuple[int, ...]:
    """Push a balanced multidegree forward to the bridge contraction by
    summing over contraction fibers; the result is balanced there."""
    md = check_multidegree(multidegree, g.n_vertices)
    if not is_balanced(g, md):
        raise ValueError("multidegree is not balanced")
    contracted, phi = contract_separating(g)
    out = [0] * contracted.n_vertices
    for v, val in enumerate(md):
        out[phi[v]] += val
    return tuple(out)
