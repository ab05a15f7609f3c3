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
computed once per graph: one entry per connected proper subcurve, holding
its vertex mask, w_Z, delta_Z, the edge mask of its boundary Z cap Z^c, and
whether it is exempt.  Balance, strictness, the equality subcurves, S(mu)
and the boundary criterion all read it.

Every comparison is done on integers after clearing denominators by
2*(2g-2), in _SubcurveBounds: scale * deg_Z >= t_Z.  Strict balance is
balance with the threshold of every non-exempt subcurve raised by one,
scale * deg_Z >= t_Z + 1.  scale * deg_Z is a multiple of scale, so the
raise changes the test only where scale divides t_Z (m_Z(d) is an
integer); only those raised thresholds are checked.  The public bound
m_Z(d) is an exact Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _kernel
from .graphs import (
    WeightedGraph,
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


def _subcurve(g: WeightedGraph, mask: int) -> tuple[int, int, int]:
    """(w, delta, boundary) of the subcurve on the vertices of mask.

    boundary is the mask of the indices of the edges with exactly one end
    in Z (a loop never is one), delta their number, and w = 2 g_Z - 2 +
    delta with g_Z the arithmetic genus of Z: its weights plus its internal
    edges (loops included) minus its vertices plus one.
    """
    vertices = _bits(mask)
    internal = boundary = 0
    for i, (u, v) in enumerate(g.edges):
        ends = (mask >> u & 1) + (mask >> v & 1)
        if ends == 2:
            internal += 1
        elif ends == 1:
            boundary |= 1 << i
    genus_z = sum(g.weights[v] for v in vertices) + internal - len(vertices) + 1
    delta = boundary.bit_count()
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
    w, delta, _ = _subcurve(g, sum(1 << v for v in zs))
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
    """The subcurve table of g: one check per connected proper subcurve,
    in mask order."""
    on_exceptional = 0
    for i, (u, v) in enumerate(g.edges):
        if u in g.exceptional or v in g.exceptional:
            on_exceptional |= 1 << i
    checks = []
    for mask in connected_subset_masks(g, proper=True):
        w, delta, boundary = _subcurve(g, mask)
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
    """The cleared bounds of every connected proper subcurve of g at total
    degree d, built once and shared by every multidegree of that degree:
    scale * deg_Z >= threshold  <=>  deg_Z >= m_Z(d), scale = 2*(2g-2)."""

    __slots__ = ("checks", "thresholds", "scale")

    def __init__(self, g: WeightedGraph, genus: int, d: int):
        self.checks = _balance_checks(g)
        self.thresholds = [_threshold(genus, d, c.w, c.delta) for c in self.checks]
        self.scale = 2 * (2 * genus - 2)

    def raised(self) -> list[tuple[int, int]]:
        """(mask, threshold + 1) of each non-exempt subcurve whose threshold
        scale * deg_Z can meet: a balanced multidegree is strictly balanced
        iff it also meets these."""
        scale = self.scale
        return [
            (c.mask, t + 1)
            for c, t in zip(self.checks, self.thresholds)
            if not c.exempt and t % scale == 0
        ]

    def meets(self, md, bounds) -> bool:
        """scale * deg_Z >= threshold for every (mask, threshold) of bounds."""
        scale = self.scale
        return all(scale * _mask_sum(md, mask) >= t for mask, t in bounds)

    def equalities(self, md) -> list[_SubsetCheck]:
        """The checks of the equality subcurves of md, in mask order."""
        scale = self.scale
        return [
            c
            for c, t in zip(self.checks, self.thresholds)
            if scale * _mask_sum(md, c.mask) == t
        ]


def _meets_bounds(g: WeightedGraph, multidegree, strict: bool) -> bool:
    genus = _require_genus(g)
    md = check_multidegree(multidegree, g.n_vertices)
    if any(md[v] != 1 for v in g.exceptional):
        return False
    bounds = _SubcurveBounds(g, genus, sum(md))
    masks = (c.mask for c in bounds.checks)
    if not bounds.meets(md, zip(masks, bounds.thresholds)):
        return False
    return not strict or bounds.meets(md, bounds.raised())


def is_balanced(g: WeightedGraph, multidegree) -> bool:
    return _meets_bounds(g, multidegree, strict=False)


def is_strictly_balanced(g: WeightedGraph, multidegree) -> bool:
    return _meets_bounds(g, multidegree, strict=True)


def equality_subcurves(g: WeightedGraph, multidegree) -> list[frozenset[int]]:
    """Vertex sets of the connected proper subcurves Z with deg_Z = m_Z(d),
    ascending as bitmasks; the equality subcurves when the multidegree is
    balanced."""
    genus = _require_genus(g)
    md = check_multidegree(multidegree, g.n_vertices)
    return [
        frozenset(_bits(c.mask))
        for c in _SubcurveBounds(g, genus, sum(md)).equalities(md)
    ]


@dataclass(frozen=True)
class BalancedSet:
    """Complete enumeration of balanced multidegrees of one total degree,
    with the strictly balanced sublist flagged."""

    degree: int
    members: tuple[tuple[int, ...], ...]
    strict_members: tuple[tuple[int, ...], ...]

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
    n = g.n_vertices
    loops = [0] * n
    delta = [0] * n
    for u, v in g.edges:
        if u == v:
            loops[u] += 1
        else:
            delta[u] += 1
            delta[v] += 1
    scale = 2 * (2 * genus - 2)
    lows, highs = [], []
    for v in range(n):
        w = 2 * (g.weights[v] + loops[v]) - 2 + delta[v]
        t = _threshold(genus, d, w, delta[v])
        lo, hi = -(-t // scale), t // scale + delta[v]
        if v in g.exceptional:
            lo, hi = max(lo, 1), min(hi, 1)
        lows.append(lo)
        highs.append(hi)
    return lows, highs


def enumerate_balanced(g: WeightedGraph, d: int) -> BalancedSet:
    """All balanced multidegrees of total degree d on a connected graph,
    lexicographically ordered, with the strictly balanced ones flagged."""
    genus = _require_genus(g)
    lows, highs = _vertex_bounds(g, genus, d)
    bounds = _SubcurveBounds(g, genus, d)
    masks = [c.mask for c in bounds.checks]
    members = tuple(
        _kernel.enumerate_box(lows, highs, d, masks, bounds.thresholds, bounds.scale)
    )
    raised = bounds.raised()
    strict = tuple(md for md in members if bounds.meets(md, raised))
    return BalancedSet(degree=d, members=members, strict_members=strict)


class BalancedSets:
    """enumerate_balanced(h, d) for one degree d, computed once per graph h.

    Meant to live for one (graph, degree) verdict: create one, pass it to
    every call of that verdict as the `sets` keyword, and drop it when the
    verdict ends.  It holds every balanced set it has computed, keyed by
    graph equality, so a blow-up at the empty bridge set, or the bridge
    contraction of a bridge-free graph, shares the set of the graph itself.
    """

    __slots__ = ("degree", "_sets")

    def __init__(self, degree: int):
        self.degree = degree
        self._sets: dict[WeightedGraph, BalancedSet] = {}

    def __call__(self, h: WeightedGraph) -> BalancedSet:
        bs = self._sets.get(h)
        if bs is None:
            bs = self._sets[h] = enumerate_balanced(h, self.degree)
        return bs


def _verdict_sets(d: int, sets: BalancedSets | None) -> BalancedSets:
    """The caller's BalancedSets for degree d, or a fresh one."""
    if sets is None:
        return BalancedSets(d)
    if sets.degree != d:
        raise ValueError(f"balanced sets are for degree {sets.degree}, not {d}")
    return sets


def is_d_general(
    g: WeightedGraph, d: int, *, sets: BalancedSets | None = None
) -> bool:
    """True iff every balanced multidegree of total degree d is strictly
    balanced.  `sets`, if given, is the BalancedSets of the (graph, degree)
    verdict this call belongs to."""
    if not g.is_stable:
        raise ValueError("d-generality is defined for stable graphs")
    return _verdict_sets(d, sets)(g).d_general


def is_weakly_d_general(
    g: WeightedGraph, d: int, *, sets: BalancedSets | None = None
) -> bool:
    """True iff the bridge contraction of g is d-general.  `sets`, if
    given, is the BalancedSets of the (graph, degree) verdict this call
    belongs to."""
    if not g.is_stable:
        raise ValueError("weak d-generality is defined for stable graphs")
    contracted, _ = contract_separating(g)
    return is_d_general(contracted, d, sets=sets)


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
