"""Stable and quasistable weighted multigraphs (dual graphs of nodal curves).

A graph carries non-negative vertex weights (geometric genera of the
components) and a multiset of edges (the nodes); loops are allowed.  Edges
are kept as an explicitly ordered tuple so that a subset of edge *instances*
can be named, which matters for parallel edges.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
from dataclasses import dataclass
from functools import cached_property


class GraphFormatError(ValueError):
    """Raised when a graph file or graph description is malformed."""


def _normalize_edge(e) -> tuple[int, int]:
    u, v = e
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable weighted multigraph.

    weights[i] is the weight of vertex i; edges is a sorted tuple of
    (u, v) pairs with u <= v, loops as (v, v); exceptional is the set of
    vertices flagged as exceptional components (empty for stable graphs).
    """

    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    exceptional: frozenset[int] = frozenset()

    def __post_init__(self):
        weights = tuple(int(w) for w in self.weights)
        if not weights:
            raise GraphFormatError("graph must have at least one vertex")
        if any(w < 0 for w in weights):
            raise GraphFormatError("vertex weights must be non-negative")
        n = len(weights)
        edges = tuple(sorted(_normalize_edge(e) for e in self.edges))
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) references a missing vertex")
        exceptional = frozenset(int(v) for v in self.exceptional)
        if any(not 0 <= v < n for v in exceptional):
            raise GraphFormatError("exceptional mark references a missing vertex")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "exceptional", exceptional)

    # -- basic counts ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.weights)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def valency(self, v: int) -> int:
        """Edge-end count at v; a loop contributes 2."""
        return sum((u == v) + (w == v) for u, w in self.edges)

    def is_loop(self, edge_index: int) -> bool:
        u, v = self.edges[edge_index]
        return u == v

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Bitmask of neighbours per vertex (loops ignored)."""
        masks = [0] * self.n_vertices
        for u, v in self.edges:
            if u != v:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        seen = set()
        out = []
        for start in range(self.n_vertices):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                m = self.adjacency_masks[x]
                while m:
                    b = m & -m
                    m ^= b
                    y = b.bit_length() - 1
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            out.append(frozenset(comp))
        return tuple(out)

    @cached_property
    def bridges(self) -> tuple[int, ...]:
        """Ascending indices of the edges whose removal separates their
        endpoints.  A tuple rather than a frozenset: every graph a census
        holds keeps it, and an empty tuple costs nothing.

        Only a non-loop edge with no parallel twin can be one; it is a
        bridge when its far end is unreachable once it is removed.
        """
        multiplicity: dict[tuple[int, int], int] = {}
        for e in self.edges:
            multiplicity[e] = multiplicity.get(e, 0) + 1
        out = []
        for i, (u, v) in enumerate(self.edges):
            if u == v or multiplicity[(u, v)] > 1:
                continue
            adj = list(self.adjacency_masks)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
            if not _reach(adj, u) >> v & 1:
                out.append(i)
        return tuple(out)

    @property
    def is_connected(self) -> bool:
        return len(self.components) == 1

    @property
    def b1(self) -> int:
        return self.n_edges - self.n_vertices + len(self.components)

    @property
    def genus(self) -> int:
        return sum(self.weights) + self.b1

    # -- stability ---------------------------------------------------------

    @property
    def is_stable(self) -> bool:
        if not self.is_connected or self.exceptional:
            return False
        return all(
            self.weights[v] > 0 or self.valency(v) >= 3
            for v in range(self.n_vertices)
        )

    @property
    def is_quasistable(self) -> bool:
        if not self.is_connected:
            return False
        for v in range(self.n_vertices):
            if self.weights[v] == 0 and self.valency(v) < 2:
                return False
        for v in self.exceptional:
            if self.weights[v] != 0:
                return False
            if any(u == w == v for u, w in self.edges):
                return False
            non_loop_ends = sum((u == v) + (w == v) for u, w in self.edges if u != w)
            if non_loop_ends != 2:
                return False
        # two exceptional components never intersect
        for u, w in self.edges:
            if u != w and u in self.exceptional and w in self.exceptional:
                return False
        return True


@dataclass(frozen=True)
class Diagnostics:
    genus: int
    connected: bool
    stable: bool
    quasistable: bool


def validate(g: WeightedGraph) -> Diagnostics:
    """Genus and the stability booleans for a graph.

    Malformed graphs (negative weights, no vertices) are rejected at
    construction time by WeightedGraph itself.
    """
    return Diagnostics(
        genus=g.genus,
        connected=g.is_connected,
        stable=g.is_stable,
        quasistable=g.is_quasistable,
    )


def _reach(adj, start: int, within: int = -1) -> int:
    """Bitmask of the vertices reachable from start inside the vertex mask
    `within` (all vertices by default), given per-vertex neighbour masks."""
    seen = 1 << start
    stack = [start]
    while stack:
        x = stack.pop()
        fresh = adj[x] & within & ~seen
        while fresh:
            b = fresh & -fresh
            fresh ^= b
            seen |= b
            stack.append(b.bit_length() - 1)
    return seen


def _mask_connected(g: WeightedGraph, mask: int) -> bool:
    start = (mask & -mask).bit_length() - 1
    return _reach(g.adjacency_masks, start, mask) == mask


def connected_subset_masks(g: WeightedGraph, proper: bool = True) -> list[int]:
    """Bitmasks of nonempty connected vertex subsets, ascending as integers."""
    top = (1 << g.n_vertices) - 1
    return [
        m
        for m in range(1, top + 1)
        if not (proper and m == top) and _mask_connected(g, m)
    ]


def separating_edges(g: WeightedGraph) -> frozenset[int]:
    """Indices of bridge edges (removal disconnects the graph)."""
    if not g.is_connected:
        raise ValueError("graph must be connected")
    return frozenset(g.bridges)


def is_tree_like(g: WeightedGraph) -> bool:
    """True iff every non-loop edge is a bridge."""
    non_loops = {i for i in range(g.n_edges) if not g.is_loop(i)}
    return non_loops <= separating_edges(g)


def contract_separating(g: WeightedGraph) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Contract every bridge; returns the contracted graph and the vertex
    surjection phi (old index -> new index).  Weights of merged vertices add;
    b1 and genus are preserved and the result is bridge-free."""
    bridges = separating_edges(g)
    parent = list(range(g.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in bridges:
        u, v = g.edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)

    roots = sorted({find(v) for v in range(g.n_vertices)})
    relabel = {r: i for i, r in enumerate(roots)}
    phi = tuple(relabel[find(v)] for v in range(g.n_vertices))

    weights = [0] * len(roots)
    for v, w in enumerate(g.weights):
        weights[phi[v]] += w
    edges = [
        (phi[u], phi[v])
        for i, (u, v) in enumerate(g.edges)
        if i not in bridges
    ]
    return WeightedGraph(tuple(weights), tuple(edges)), phi


def blow_up(g: WeightedGraph, edge_subset) -> WeightedGraph:
    """Replace each edge in edge_subset by a length-2 path through a fresh
    weight-0 exceptional vertex (a loop becomes two parallel edges)."""
    subset = sorted(set(edge_subset))
    for i in subset:
        if not 0 <= i < g.n_edges:
            raise ValueError(f"edge index {i} is not an edge of the graph")
    n = g.n_vertices
    weights = list(g.weights)
    chosen = set(subset)
    edges = [e for i, e in enumerate(g.edges) if i not in chosen]
    exceptional = set(g.exceptional)
    for k, i in enumerate(subset):
        u, v = g.edges[i]
        e = n + k
        weights.append(0)
        exceptional.add(e)
        edges.append((u, e))
        edges.append((v, e))
    return WeightedGraph(tuple(weights), tuple(edges), frozenset(exceptional))


# -- isomorphism and canonical forms ---------------------------------------


def _vertex_invariant(g: WeightedGraph, v: int):
    loops = sum(1 for u, w in g.edges if u == w == v)
    return (g.weights[v], g.valency(v), loops, v in g.exceptional)


def canonical_form(g: WeightedGraph):
    """A relabeling-invariant canonical description of the graph.

    Vertices are grouped by (weight, valency, loop count, exceptional flag);
    the minimum over all class-respecting relabelings is taken.  Exhaustive,
    intended for graphs with at most ~8 vertices.
    """
    n = g.n_vertices
    invs = [_vertex_invariant(g, v) for v in range(n)]
    order = sorted(range(n), key=lambda v: (invs[v], v))
    # group consecutive vertices with equal invariants
    groups = []
    for v in order:
        if groups and invs[groups[-1][-1]] == invs[v]:
            groups[-1].append(v)
        else:
            groups.append([v])
    best = None
    for perm_parts in itertools.product(*(itertools.permutations(grp) for grp in groups)):
        old_order = [v for part in perm_parts for v in part]
        new_of_old = {v: i for i, v in enumerate(old_order)}
        weights = tuple(g.weights[v] for v in old_order)
        edges = tuple(sorted(_normalize_edge((new_of_old[u], new_of_old[v])) for u, v in g.edges))
        exc = tuple(sorted(new_of_old[v] for v in g.exceptional))
        cand = (weights, edges, exc)
        if best is None or cand < best:
            best = cand
    return best


def graph_id(g: WeightedGraph) -> str:
    """Stable short identifier derived from the canonical form."""
    digest = hashlib.sha256(repr(canonical_form(g)).encode()).hexdigest()
    return digest[:12]


# -- census -----------------------------------------------------------------

MAX_CENSUS_VERTICES = 6


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def census(genus: int, max_vertices: int) -> list[WeightedGraph]:
    """All connected stable weighted graphs of the given genus with at most
    max_vertices vertices, one per isomorphism class, in deterministic order.
    """
    if genus < 2:
        raise ValueError("genus must be at least 2")
    if max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    if max_vertices > MAX_CENSUS_VERTICES:
        raise ValueError(
            f"census capped at {MAX_CENSUS_VERTICES} vertices"
        )
    found: dict[tuple, WeightedGraph] = {}
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        for b1 in range(genus + 1):
            n_edges = b1 + n - 1
            if n_edges < 0:
                continue
            weight_total = genus - b1
            for edge_combo in itertools.combinations_with_replacement(slots, n_edges):
                edges = tuple(edge_combo)
                for weights in _compositions(weight_total, n):
                    # sum(weights) = genus - b1 and n_edges = b1 + n - 1, so
                    # a connected (here: stable) graph has the genus asked for
                    g = WeightedGraph(weights, edges)
                    if not g.is_stable:
                        continue
                    key = canonical_form(g)
                    if key not in found:
                        found[key] = WeightedGraph(key[0], key[1])
    return [found[k] for k in sorted(found, key=lambda k: (len(k[0]), k))]


# -- file format -------------------------------------------------------------


def graph_to_dict(g: WeightedGraph) -> dict:
    out = {
        "vertices": [{"id": v, "weight": g.weights[v]} for v in range(g.n_vertices)],
        "edges": [[u, v] for u, v in g.edges],
    }
    if g.exceptional:
        out["exceptional"] = sorted(g.exceptional)
    return out


def _is_int(x) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(x, int) and not isinstance(x, bool)


def check_multidegree(multidegree, n_vertices: int) -> tuple[int, ...]:
    """The multidegree as a tuple of ints, one per vertex.  Entries must be
    exact integers (any type with __index__), and not bool."""
    md = tuple(multidegree)
    try:
        if any(isinstance(x, bool) for x in md):
            raise TypeError
        md = tuple(map(operator.index, md))
    except TypeError:
        raise ValueError(f"multidegree entries must be integers, got {md!r}") from None
    if len(md) != n_vertices:
        raise ValueError(
            f"multidegree has {len(md)} entries, graph has {n_vertices} vertices"
        )
    return md


def _list_field(data: dict, name: str) -> list:
    value = data.get(name, [])
    if not isinstance(value, list):
        raise GraphFormatError(f"field {name!r} must be a list")
    return value


def _reject_unknown(fields, allowed, what: str) -> None:
    for key in fields:
        if key not in allowed:
            raise GraphFormatError(f"unknown {what} {key!r}")


def graph_from_dict(data: dict) -> WeightedGraph:
    if not isinstance(data, dict):
        raise GraphFormatError("graph description must be an object")
    _reject_unknown(data, ("vertices", "edges", "exceptional"), "field")
    try:
        vertices = data["vertices"]
    except KeyError:
        raise GraphFormatError("missing field 'vertices'") from None
    if not isinstance(vertices, list) or not vertices:
        raise GraphFormatError("field 'vertices' must be a nonempty list")
    ids = []
    weights = {}
    for entry in vertices:
        if isinstance(entry, dict):
            _reject_unknown(entry, ("id", "weight"), "vertex field")
        try:
            vid, w = entry["id"], entry["weight"]
        except (TypeError, KeyError):
            raise GraphFormatError(
                "each vertex needs integer fields 'id' and 'weight'"
            ) from None
        if not _is_int(vid) or not _is_int(w):
            raise GraphFormatError("vertex 'id' and 'weight' must be integers")
        if vid in weights:
            raise GraphFormatError(f"duplicate vertex id {vid}")
        ids.append(vid)
        weights[vid] = w
    index = {vid: i for i, vid in enumerate(sorted(ids))}
    edges = []
    for e in _list_field(data, "edges"):
        if not (isinstance(e, list) and len(e) == 2 and all(_is_int(x) for x in e)):
            raise GraphFormatError(f"edge {e!r} must be a pair of vertex ids")
        if e[0] not in index or e[1] not in index:
            raise GraphFormatError(f"edge {e!r} references an unknown vertex id")
        edges.append((index[e[0]], index[e[1]]))
    exceptional = []
    for vid in _list_field(data, "exceptional"):
        if not _is_int(vid):
            raise GraphFormatError(f"exceptional mark {vid!r} must be a vertex id")
        if vid not in index:
            raise GraphFormatError(f"exceptional mark {vid!r} references an unknown vertex id")
        exceptional.append(index[vid])
    return WeightedGraph(
        tuple(weights[vid] for vid in sorted(ids)),
        tuple(edges),
        frozenset(exceptional),
    )


def load_graph(path) -> WeightedGraph:
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    try:
        return graph_from_dict(data)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None
