"""Strata of the compactified Jacobian and the Neron-type verdict.

The irreducible components are indexed by pairs (S, d) with S a set of
bridges and d strictly balanced on the blow-up at S.  The verdict is
computed by three independent routes (component count vs class-group order,
the boundary criterion on equality subcurves, and weak d-generality of the
bridge contraction); they must agree, and a disagreement or a uniqueness
failure in the extremal-pair search is raised as a hard error rather than
returned as data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .balance import (
    BalancedSets,
    _bits,
    _require_genus,
    _SubcurveBounds,
    _verdict_sets,
    enumerate_balanced,
    is_balanced,
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
    md = check_multidegree(multidegree, g.n_vertices)
    if not is_balanced(g, md):
        raise ValueError("multidegree is not balanced")
    out = 0
    for c in _SubcurveBounds(g, g.genus, sum(md)).equalities(md):
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
    subset = sorted(set(edge_subset))
    n = g.n_vertices
    base = list(cand[:n])
    options = []
    for k, i in enumerate(subset):
        u, v = g.edges[i]
        options.append((u,) if u == v else (u, v))
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


def strata_index(
    g: WeightedGraph, d: int, *, sets: BalancedSets | None = None
) -> list[Stratum]:
    """All pairs (S, d) with S a subset of bridges and d strictly balanced
    on blow_up(g, S); ordered by (len(S), S, multidegree).  `sets`, if
    given, is the BalancedSets of the (graph, degree) verdict this call
    belongs to."""
    if not g.is_stable:
        raise ValueError("strata are defined for stable graphs")
    sets = _verdict_sets(d, sets)
    bridges = sorted(separating_edges(g))
    out = []
    for size in range(len(bridges) + 1):
        for subset in itertools.combinations(bridges, size):
            hat = blow_up(g, subset)
            for md in sets(hat).strict_members:
                out.append(Stratum(edges=subset, multidegree=md))
    return out


def component_count(
    g: WeightedGraph, d: int, *, sets: BalancedSets | None = None
) -> int:
    """Number of strata (S, d); `sets` as for strata_index."""
    return len(strata_index(g, d, sets=sets))


ROUTES = ("count", "criterion", "weakly_general")


def _route_count(count: int, order: int) -> bool:
    # the strata count against the order of the degree class group
    return count == order


def _route_criterion(g: WeightedGraph, d: int, sets: BalancedSets) -> bool:
    # every equality subcurve of every balanced multidegree must have its
    # boundary inside the bridge set
    bridges = sum(1 << i for i in separating_edges(g))
    bounds = _SubcurveBounds(g, g.genus, d)
    return all(
        not c.boundary & ~bridges
        for md in sets(g).members
        for c in bounds.equalities(md)
    )


def _route_weakly_general(g: WeightedGraph, d: int, sets: BalancedSets) -> bool:
    return is_weakly_d_general(g, d, sets=sets)


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
    sets: BalancedSets | None = None,
) -> NeronVerdict:
    """Decide whether the degree-d compactified Jacobian is of Neron type.

    route selects one of 'count', 'criterion', 'weakly_general', or 'all';
    with 'all' the three independent computations must agree, and a
    disagreement raises RouteDisagreement.  `sets`, if given, is the
    BalancedSets of this (graph, degree) verdict; without it the verdict
    makes its own, which is dropped when the verdict returns.
    """
    _require_genus(g)
    if not g.is_stable:
        raise ValueError("Neron-type verdicts are defined for stable graphs")
    if route != "all" and route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    sets = _verdict_sets(d, sets)
    selected = ROUTES if route == "all" else (route,)
    order = class_group(g).order
    count = component_count(g, d, sets=sets) if "count" in selected else None
    impls = {
        "count": lambda: _route_count(count, order),
        "criterion": lambda: _route_criterion(g, d, sets),
        "weakly_general": lambda: _route_weakly_general(g, d, sets),
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
