"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the code paths it verifies: balanced
sets are recomputed with Fraction arithmetic over explicit boxes checking
*all* subcurves (not only connected ones), d-generality by the integrality
criterion over vertex sets with a set-based connectivity test, the bridges
that empty a blow-up by the same test on their sides, spanning
trees are counted by deletion-contraction, class groups by direct coset
enumeration, and canonical forms by trying every class-respecting
relabeling.
"""

from fractions import Fraction
from itertools import combinations, permutations, product


def all_subsets(n):
    verts = list(range(n))
    for size in range(1, n + 1):
        yield from (frozenset(c) for c in combinations(verts, size))


def subcurve_w_delta(weights, edges, zs):
    internal = sum(1 for u, v in edges if u in zs and v in zs)
    delta = sum(1 for u, v in edges if (u in zs) != (v in zs))
    gz = sum(weights[v] for v in zs) + internal - len(zs) + 1
    return 2 * gz - 2 + delta, delta


def reachable(edges, start, zs):
    """The vertices of zs reachable from start through edges with both
    ends in zs."""
    seen, frontier = {start}, [start]
    while frontier:
        x = frontier.pop()
        for u, v in edges:
            for a, b in ((u, v), (v, u)):
                if a == x and b in zs and b not in seen:
                    seen.add(b)
                    frontier.append(b)
    return seen


def spans_connected(edges, zs):
    """Whether the nonempty vertex set zs induces a connected subgraph."""
    return reachable(edges, min(zs), zs) == set(zs)


def integral_vine_splits(weights, edges, d):
    """The vertex sets Z with Z and its complement both nonempty and
    connected and m_Z(d) = d w_Z / (2g - 2) - delta_Z / 2 an integer.  By
    Caporaso's criterion a stable graph is d-general iff there is none."""
    n = len(weights)
    genus = sum(weights) + len(edges) - n + 1
    assert genus >= 2
    everything = frozenset(range(n))
    out = []
    for zs in all_subsets(n):
        rest = everything - zs
        if not rest or not spans_connected(edges, zs):
            continue
        if not spans_connected(edges, rest):
            continue
        w, delta = subcurve_w_delta(weights, edges, zs)
        m = Fraction(d * w, 2 * genus - 2) - Fraction(delta, 2)
        if m.denominator == 1:
            out.append(zs)
    return out


def fractional_bridges(weights, edges, d):
    """The indices of the bridges (non-loop edges whose removal leaves
    their ends apart) whose side Z, the vertices the lower end still
    reaches, has a fractional m_Z(d).  Caporaso's basic inequality puts
    no balanced multidegree on a blow-up at a set holding one of them."""
    n = len(weights)
    genus = sum(weights) + len(edges) - n + 1
    assert genus >= 2
    out = []
    for i, (u, v) in enumerate(edges):
        rest = list(edges[:i]) + list(edges[i + 1 :])
        side = reachable(rest, min(u, v), range(n))
        if max(u, v) in side:
            continue
        w, delta = subcurve_w_delta(weights, edges, side)
        m = Fraction(d * w, 2 * genus - 2) - Fraction(delta, 2)
        if m.denominator != 1:
            out.append(i)
    return out


def brute_force_balanced(weights, edges, exceptional, d, box):
    """Balanced / strictly balanced multidegrees of total degree d inside an
    explicit per-vertex search box (list of (lo, hi) inclusive)."""
    n = len(weights)
    genus = sum(weights) + len(edges) - n + 1
    assert genus >= 2
    two_g_minus_2 = 2 * genus - 2
    exceptional = set(exceptional)
    subsets = [zs for zs in all_subsets(n) if len(zs) < n]
    stats = {}
    for zs in subsets:
        w, delta = subcurve_w_delta(weights, edges, zs)
        boundary = [(u, v) for u, v in edges if (u in zs) != (v in zs)]
        exempt = all(u in exceptional or v in exceptional for u, v in boundary)
        stats[zs] = (w, delta, exempt)

    balanced, strict = [], []
    for md in product(*(range(lo, hi + 1) for lo, hi in box)):
        if sum(md) != d:
            continue
        if any(md[v] != 1 for v in exceptional):
            continue
        ok = True
        strictly = True
        for zs, (w, delta, exempt) in stats.items():
            bound = Fraction(d * w, two_g_minus_2) - Fraction(delta, 2)
            deg = sum(md[v] for v in zs)
            if deg < bound:
                ok = False
                break
            if deg == bound and not exempt:
                strictly = False
        if ok:
            balanced.append(md)
            if strictly:
                strict.append(md)
    return balanced, strict


def spanning_tree_count(n, edges):
    """Deletion-contraction count of spanning trees of a multigraph given as
    a list of (u, v) pairs on vertices 0..n-1; loops contribute nothing."""
    edges = [e for e in edges if e[0] != e[1]]
    if n == 1:
        return 1
    if len(edges) < n - 1:
        return 0
    # connectivity check
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for u, v in edges:
            if u == x and v not in seen:
                seen.add(v)
                frontier.append(v)
            elif v == x and u not in seen:
                seen.add(u)
                frontier.append(u)
    if len(seen) != n:
        return 0
    u, v = edges[0]
    rest = edges[1:]
    deleted = spanning_tree_count(n, rest)
    # contract the edge: merge v into u, then compact the labels
    relabel = {old: i for i, old in enumerate(sorted(set(range(n)) - {v}))}
    contracted = []
    for a, b in rest:
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            contracted.append((relabel[a2], relabel[b2]))
    return deleted + spanning_tree_count(n - 1, contracted)


def coset_count(columns, n, box=6):
    """Order of {total-degree-0 vectors} modulo the integer span of the given
    columns, by breadth-first closure from the origin inside a finite box.

    Only valid when the quotient is finite and representatives fit in the
    box; intended for 2-vertex graphs where the degree-0 lattice is rank 1.
    """
    assert n == 2
    step = None
    for col in columns:
        if col != (0, 0):
            step = col
            break
    if step is None:
        return None  # infinite
    # degree-0 lattice is {(a, -a)}; quotient by <step>
    assert step[0] == -step[1]
    return abs(step[0])


def exhaustive_canonical_form(g):
    """The canonical form of graphs.canonical_form, by trying every
    relabeling that keeps the vertices grouped by (weight, valency, loop
    count, exceptional flag), the groups in ascending order, and taking
    the least (weights, sorted edges, exceptional labels)."""
    n = g.n_vertices
    invs = [
        (g.weights[v], g.valencies[v], g.loops[v], v in g.exceptional)
        for v in range(n)
    ]
    order = sorted(range(n), key=lambda v: (invs[v], v))
    groups = []
    for v in order:
        if groups and invs[groups[-1][-1]] == invs[v]:
            groups[-1].append(v)
        else:
            groups.append([v])
    best = None
    for parts in product(*(permutations(grp) for grp in groups)):
        old_order = [v for part in parts for v in part]
        new_of_old = {v: i for i, v in enumerate(old_order)}
        weights = tuple(g.weights[v] for v in old_order)
        edges = tuple(
            sorted(
                tuple(sorted((new_of_old[u], new_of_old[v])))
                for u, v in g.edges
            )
        )
        exc = tuple(sorted(new_of_old[v] for v in g.exceptional))
        cand = (weights, edges, exc)
        if best is None or cand < best:
            best = cand
    return best
