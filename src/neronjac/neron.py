"""Strata of the compactified Jacobian and the Neron-type verdict.

The irreducible components are indexed by pairs (S, d) with S a set of
bridges and d strictly balanced on the blow-up at S.  The strata skip every
S that holds a bridge whose side has a fractional m_Z(d): the blow-up at
such an S has no balanced multidegree (see strata_index).  The bridges
they keep are the boundary edges of the tight checks with delta = 1 in g's
balanced set, so the strata do no bound arithmetic of their own.  The
verdict is computed by three independent routes (component count vs
class-group order, the boundary criterion on equality subcurves, and weak
d-generality of the bridge contraction); they must agree, and a
disagreement or a uniqueness failure in the extremal-pair search raises a
hard error rather than being returned as data.  The weakly-general route
reads the integrality criterion of balance.d_special_subcurve and calls no
kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .balance import (
    BalancedSet,
    _balanced_bounds,
    _bits,
    _require_genus,
    enumerate_balanced,
    is_weakly_d_general,
)
from .classgroup import class_group
from .graphs import (
    WeightedGraph,
    blow_up,
    check_multidegree,
    separating_edges,
)


class TheoremCheckError(AssertionError):
    """A computed result contradicts an identity the engine relies on."""


class UniquenessError(TheoremCheckError):
    """The extremal-pair search found zero or several matches."""


class RouteDisagreement(TheoremCheckError):
    """The independent Neron-type routes returned different verdicts."""


def s_of_mu(g: WeightedGraph, multidegree) -> frozenset[int]:
    """Union of the boundary edge sets of the equality subcurves of a
    balanced multidegree."""
    md, bounds = _balanced_bounds(g, multidegree)
    if bounds is None:
        raise ValueError("multidegree is not balanced")
    out = 0
    for c in bounds.equalities(md):
        out |= c.boundary
    return frozenset(_bits(out))


@dataclass(frozen=True)
class ExtremalPair:
    class_rep: tuple[int, ...]
    s_mu: frozenset[int]
    d_mu: tuple[int, ...]  # strictly balanced on blow_up(g, s_mu)


def _push_down_matches(g: WeightedGraph, edge_subset, cand, md, cg) -> bool:
    """True when some assignment of each exceptional degree to one endpoint
    of its original edge pushes cand down into the class of md.

    A fixed endpoint convention is not enough: when the blow-up locus
    contains non-separating edges, moving a unit across an edge changes the
    class, and the correct side varies per edge.
    """
    n = g.n_vertices
    base = list(cand[:n])
    ends = [g.edges[i] for i in sorted(set(edge_subset))]
    options = [(u,) if u == v else (u, v) for u, v in ends]
    for combo in itertools.product(*options):
        out = base[:]
        for k, target in enumerate(combo):
            out[target] += cand[n + k]
        if cg.same_class(tuple(out), md):
            return True
    return False


def extremal_pair(g: WeightedGraph, multidegree) -> ExtremalPair:
    """The unique blow-up locus and strictly balanced multidegree attached
    to the class of a balanced multidegree.

    Found by searching the strictly balanced set of the blow-up at s_of_mu
    for the single element with a push-down class-equivalent to the input;
    zero or several matches falsify the uniqueness the engine relies on and
    raise UniquenessError with full diagnostics.
    """
    md = check_multidegree(multidegree, g.n_vertices)
    s_mu = s_of_mu(g, md)
    hat = blow_up(g, s_mu)
    d = sum(md)
    cg = class_group(g)
    candidates = enumerate_balanced(hat, d).strict_members
    matches = [
        cand
        for cand in candidates
        if _push_down_matches(g, s_mu, cand, md, cg)
    ]
    if len(matches) != 1:
        raise UniquenessError(
            f"expected exactly one strictly balanced match, found {len(matches)}: "
            f"graph={g!r} d={d} multidegree={md} S={sorted(s_mu)} "
            f"candidates={list(candidates)} matches={matches}"
        )
    return ExtremalPair(class_rep=md, s_mu=s_mu, d_mu=matches[0])


@dataclass(frozen=True)
class Stratum:
    edges: tuple[int, ...]  # subset of bridge indices of the base graph
    multidegree: tuple[int, ...]  # strictly balanced on the blow-up


def _own_set(g: WeightedGraph, d: int, balanced: BalancedSet | None) -> BalancedSet:
    """g's balanced set at degree d: the caller's, or a new enumeration."""
    if balanced is not None and balanced.degree != d:
        raise ValueError(f"balanced set is for degree {balanced.degree}, not {d}")
    return enumerate_balanced(g, d) if balanced is None else balanced


def strata_index(
    g: WeightedGraph, d: int, *, balanced: BalancedSet | None = None
) -> list[Stratum]:
    """All pairs (S, d) with S a subset of bridges and d strictly balanced
    on blow_up(g, S); ordered by (len(S), S, multidegree).  `balanced`, if
    given, is enumerate_balanced(g, d), read for the empty S.

    Only subsets of the bridges whose side Z has an integral m_Z(d) are
    blown up; the two sides of a bridge have m_Z(d) + m_Y(d) = d - 1, so
    either side decides.  The blow-up at an S holding any other bridge has
    no balanced multidegree, by Caporaso's basic inequality (cited at
    balance.d_special_subcurve).  Let e in S be a bridge with sides Z and
    Y.  On the blow-up at S, let Z' and Y' be Z and Y together with the
    exceptional vertices of S that lie inside them.  Both are connected
    proper subcurves with delta = 1, so m_Z'(d) + m_Y'(d) = d - 1.  The
    exceptional vertex of e carries degree 1, so deg Z' + deg Y' = d - 1.
    Balance gives deg Z' >= m_Z'(d) and deg Y' >= m_Y'(d).  Hence
    deg Z' = m_Z'(d) = m_Z(d), and that must be an integer.

    Those bridges are read off the tight checks of g's balanced set, the
    bonds (connected Z with Z^c connected) with an integral m_Z(d).  A
    bond with delta_Z = 1 is a side of a bridge, its one boundary edge,
    and each side of a bridge is such a bond.  So the bridges to blow up
    are the boundary edges of the tight checks with delta = 1.
    """
    if not g.is_stable:
        raise ValueError("strata are defined for stable graphs")
    _require_genus(g)
    own = _own_set(g, d, balanced)
    bridges = sorted(
        {c.boundary.bit_length() - 1 for c, _ in own.bounds.tight if c.delta == 1}
    )
    out = []
    for size in range(len(bridges) + 1):
        for subset in itertools.combinations(bridges, size):
            bs = enumerate_balanced(blow_up(g, subset), d) if subset else own
            for md in bs.strict_members:
                out.append(Stratum(edges=subset, multidegree=md))
    return out


def component_count(
    g: WeightedGraph, d: int, *, balanced: BalancedSet | None = None
) -> int:
    """Number of strata (S, d); `balanced` as for strata_index."""
    return len(strata_index(g, d, balanced=balanced))


ROUTES = ("count", "criterion", "weakly_general")


def _route_count(count: int, order: int) -> bool:
    # the strata count against the order of the degree class group
    return count == order


def _route_criterion(g: WeightedGraph, balanced: BalancedSet) -> bool:
    # every equality subcurve of every balanced multidegree must have its
    # boundary inside the bridge set
    bridges = sum(1 << i for i in separating_edges(g))
    return all(
        not c.boundary & ~bridges
        for md in balanced.members
        for c in balanced.bounds.equalities(md)
    )


def _route_weakly_general(g: WeightedGraph, d: int) -> bool:
    # the integrality criterion on the bridge contraction: no kernel
    return is_weakly_d_general(g, d)


@dataclass(frozen=True)
class NeronVerdict:
    verdict: bool
    routes: dict
    component_count: int | None
    class_group_order: int


def is_neron_type(
    g: WeightedGraph,
    d: int,
    route: str = "all",
    *,
    balanced: BalancedSet | None = None,
) -> NeronVerdict:
    """Decide whether the degree-d compactified Jacobian is of Neron type.

    route selects one of 'count', 'criterion', 'weakly_general', or 'all';
    with 'all' the three independent computations must agree, and a
    disagreement raises RouteDisagreement.  `balanced`, if given, is
    enumerate_balanced(g, d), which the count and criterion routes read;
    without it the verdict enumerates g's set when one of them is selected.
    """
    _require_genus(g)
    if not g.is_stable:
        raise ValueError("Neron-type verdicts are defined for stable graphs")
    if route != "all" and route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    selected = ROUTES if route == "all" else (route,)
    if balanced is not None or route != "weakly_general":
        balanced = _own_set(g, d, balanced)  # read by count and criterion
    order = class_group(g).order
    count = component_count(g, d, balanced=balanced) if "count" in selected else None
    impls = {
        "count": lambda: _route_count(count, order),
        "criterion": lambda: _route_criterion(g, balanced),
        "weakly_general": lambda: _route_weakly_general(g, d),
    }
    results = {name: impls[name]() for name in selected}
    values = set(results.values())
    if len(values) > 1:
        raise RouteDisagreement(
            f"routes disagree for d={d} on graph {g!r}: {results}"
        )
    return NeronVerdict(
        verdict=values.pop(),
        routes=results,
        component_count=count,
        class_group_order=order,
    )
