"""Stable and quasistable weighted multigraphs (dual graphs of nodal curves).

A graph carries non-negative vertex weights (geometric genera of the
components) and a multiset of edges (the nodes); loops are allowed.  Edges
are kept as an explicitly ordered tuple so that a subset of edge *instances*
can be named, which matters for parallel edges.

Every test on a graph reads one per-vertex table, `valencies` (a loop
counts 2) and `loops`, built by the edge pass that checks the edge ends.
Stability, quasistability, the canonical-form invariant and the
per-vertex balance bounds read it.  `_reach` is the only traversal:
connectivity, the component count, the bridges and the bridge
contraction all go through it.  The sides of the bridges are not kept
here: each is a subcurve with delta = 1 in balance's table, which is
where the strata read them.

The connected subsets are grown from their least vertex one neighbour at
a time: one step per connected subset, not a traversal for each of the
2^n masks, most of which a blow-up leaves disconnected.  Balance keeps
those whose complement is also listed, the bonds, as its subcurve table,
and reads each entry off per-vertex sums: `incidence_masks` (the
non-loop edges at each vertex), `valencies` and the weights.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
from dataclasses import dataclass, field
from functools import cached_property


class GraphFormatError(ValueError):
    """Raised when a graph file or graph description is malformed."""


def _as_int(x) -> int:
    """x as an exact int: any type with __index__, but not bool.  Raises
    TypeError otherwise."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is a bool")
    return operator.index(x)


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable weighted multigraph.

    weights[i] is the weight of vertex i; edges is a sorted tuple of
    (u, v) pairs with u <= v, loops as (v, v); exceptional is the set of
    vertices flagged as exceptional components (empty for stable graphs).
    Weights, edge ends and exceptional marks must be exact integers.

    valencies[v] (edge ends at v, a loop counts 2) and loops[v] form the
    per-vertex table; they are not arguments.
    """

    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    exceptional: frozenset[int] = frozenset()
    valencies: tuple[int, ...] = field(init=False, repr=False, compare=False)
    loops: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights, edges = tuple(self.weights), tuple(self.edges)
        exceptional = tuple(self.exceptional)
        try:
            # plain ints, the common case, are taken as they are
            values = itertools.chain(weights, *edges, exceptional)
            if not {int}.issuperset(map(type, values)):
                weights = tuple(map(_as_int, weights))
                edges = [(_as_int(u), _as_int(v)) for u, v in edges]
                exceptional = tuple(map(_as_int, exceptional))
            edges = tuple(sorted(_normalize_edge(u, v) for u, v in edges))
        except TypeError:
            raise GraphFormatError(
                "vertex weights, edge ends and exceptional marks must be integers"
            ) from None
        except ValueError:
            # only unpacking an edge that is not a pair raises it here
            raise GraphFormatError("each edge must be a pair of vertex indices") from None
        exceptional = frozenset(exceptional)
        if not weights:
            raise GraphFormatError("graph must have at least one vertex")
        if min(weights) < 0:
            raise GraphFormatError("vertex weights must be non-negative")
        n = len(weights)
        valencies = [0] * n
        loops = [0] * n
        for u, v in edges:  # u <= v
            if u < 0 or v >= n:
                raise GraphFormatError(f"edge ({u},{v}) references a missing vertex")
            valencies[u] += 1
            valencies[v] += 1
            if u == v:
                loops[u] += 1
        if any(not 0 <= v < n for v in exceptional):
            raise GraphFormatError("exceptional mark references a missing vertex")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "exceptional", exceptional)
        object.__setattr__(self, "valencies", tuple(valencies))
        object.__setattr__(self, "loops", tuple(loops))

    # -- basic counts ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.weights)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Bitmask of neighbours per vertex (loops ignored)."""
        masks = [0] * self.n_vertices
        for u, v in self.edges:
            if u != v:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        return tuple(masks)

    @property
    def incidence_masks(self) -> tuple[int, ...]:
        """Bitmask of the indices of the non-loop edges at each vertex.

        Not cached: the subcurve table holds its graph for the life of the
        process, and a copy on each such graph cost 1.2 MB of peak memory
        on the genus-5 census at d = 4 (3,122 tables); the table build
        reads it once."""
        masks = [0] * self.n_vertices
        for i, (u, v) in enumerate(self.edges):
            if u != v:
                masks[u] |= 1 << i
                masks[v] |= 1 << i
        return tuple(masks)

    @cached_property
    def n_components(self) -> int:
        return len(_component_masks(self.adjacency_masks))

    @cached_property
    def bridges(self) -> tuple[int, ...]:
        """Ascending indices of the edges whose removal separates their
        endpoints.  Only a non-loop edge with no parallel twin can be one;
        it is a bridge when its far end is unreachable once it is removed.
        """
        out = []
        for i, (u, v) in enumerate(self.edges):
            if u == v or self.edges.count((u, v)) > 1:
                continue
            adj = list(self.adjacency_masks)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
            if not _reach(adj, u) >> v & 1:
                out.append(i)
        return tuple(out)

    @property
    def is_connected(self) -> bool:
        return self.n_components == 1

    @property
    def b1(self) -> int:
        return self.n_edges - self.n_vertices + self.n_components

    @property
    def genus(self) -> int:
        return sum(self.weights) + self.b1

    # -- stability ---------------------------------------------------------

    @property
    def is_stable(self) -> bool:
        # the valency rule first: it needs no traversal
        return (
            not self.exceptional
            and all(w > 0 or k >= 3 for w, k in zip(self.weights, self.valencies))
            and self.is_connected
        )

    @property
    def is_quasistable(self) -> bool:
        if not self.is_connected:
            return False
        if any(w == 0 and k < 2 for w, k in zip(self.weights, self.valencies)):
            return False
        on_exceptional = sum(1 << v for v in self.exceptional)
        # each exceptional component has weight 0, meets the rest in two
        # points, has no loop and meets no other exceptional component
        return not any(
            self.weights[v] or self.loops[v] or self.valencies[v] != 2
            or self.adjacency_masks[v] & on_exceptional
            for v in self.exceptional
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


def _component_masks(adj) -> list[int]:
    """Vertex masks of the connected components of the graph with
    per-vertex neighbour masks adj, in order of their least vertex."""
    out = []
    unseen = (1 << len(adj)) - 1
    while unseen:
        comp = _reach(adj, (unseen & -unseen).bit_length() - 1)
        out.append(comp)
        unseen &= ~comp
    return out


def connected_subset_masks(g: WeightedGraph) -> list[int]:
    """Bitmasks of nonempty connected proper vertex subsets, ascending as
    integers.

    Each connected set is grown once from its least vertex v: a set is
    extended by one vertex of its frontier (the neighbours above v that it
    does not hold and that no earlier branch took), so the sets that hold
    a frontier vertex are listed in the branch of the first one they hold.
    The work is one step per connected set, not one traversal for each of
    the 2^n - 2 masks.
    """
    adj = g.adjacency_masks
    full = (1 << g.n_vertices) - 1
    out = []
    for v in range(g.n_vertices):
        above = full ^ ((2 << v) - 1)
        # (set, frontier, the vertices its branch may not take)
        stack = [(1 << v, adj[v] & above, 0)]
        while stack:
            sub, frontier, banned = stack.pop()
            out.append(sub)
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                grown = sub | b
                reach = adj[b.bit_length() - 1] & above & ~grown & ~banned
                stack.append((grown, frontier | reach, banned))
                banned |= b
    out.sort()
    if out[-1] == full:
        out.pop()
    return out


def separating_edges(g: WeightedGraph) -> frozenset[int]:
    """Indices of bridge edges (removal disconnects the graph)."""
    if not g.is_connected:
        raise ValueError("graph must be connected")
    return frozenset(g.bridges)


def is_tree_like(g: WeightedGraph) -> bool:
    """True iff every non-loop edge is a bridge."""
    return len(separating_edges(g)) == g.n_edges - sum(g.loops)


def contract_separating(g: WeightedGraph) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Contract every bridge; returns the contracted graph and the vertex
    surjection phi (old index -> new index).  Weights of merged vertices add;
    b1 and genus are preserved and the result is bridge-free."""
    bridges = separating_edges(g)
    adj = [0] * g.n_vertices
    for i in bridges:
        u, v = g.edges[i]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    # the bridge-connected blocks, numbered in order of their least vertex
    blocks = _component_masks(adj)
    phi = tuple(
        next(k for k, block in enumerate(blocks) if block >> v & 1)
        for v in range(g.n_vertices)
    )

    weights = [0] * len(blocks)
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


def canonical_form(g: WeightedGraph):
    """A relabeling-invariant canonical description of the graph.

    Vertices are grouped by (weight, valency, loop count, exceptional flag)
    and take the new labels 0, 1, ... class by class, so the weights and
    the exceptional labels are the same under every class-respecting
    relabeling.  The form takes the least sorted edge list among them,
    found by _least_edges; when every class is one vertex the relabeling
    is forced.
    """
    n = g.n_vertices
    exc = g.exceptional
    invs = list(zip(g.weights, g.valencies, g.loops, map(exc.__contains__, range(n))))
    order = sorted(range(n), key=invs.__getitem__)
    weights = tuple(map(g.weights.__getitem__, order))
    exceptional = tuple(i for i, v in enumerate(order) if v in exc) if exc else ()
    if len(set(invs)) == n:
        label = sorted(range(n), key=order.__getitem__)
        edges = ((label[u], label[v]) for u, v in g.edges)
        edges = tuple(sorted((a, b) if a <= b else (b, a) for a, b in edges))
    else:
        edges = _least_edges(g, invs, order)
    return weights, edges, exceptional


def _least_edges(g: WeightedGraph, invs, order) -> tuple[tuple[int, int], ...]:
    """The least sorted edge list of g over the relabelings that give label
    i to a vertex of the class of order[i], by branch and bound; some class
    has two or more vertices.

    Labels are placed one at a time.  A partial labeling fixes a prefix of
    its sorted edge list: every row (the edges (a, b) with a the smaller
    label) whose edges all have both ends labeled, then the labeled edges
    of the first open row, and after them an edge no less than (that row,
    the next label).  The prefix only grows as labels are placed, so it is
    kept in one list and compared with the best list found so far only
    where it grew; a partial labeling is dropped once it is above.

    The last label with a choice left, the next-to-last of the last class
    of two or more vertices, has two candidates, and each fixes every
    label after it; it is settled by comparing the two edge lists.
    """
    n = g.n_vertices
    edges = g.edges
    # candidates[i]: the class of label i, ascending; choices: the labels
    # with two or more candidates, of which `last` is the last
    candidates = [None] * n
    choices = last = start = 0
    for end in range(1, n + 1):
        if end < n and invs[order[end]] == invs[order[start]]:
            continue
        candidates[start:end] = [order[start:end]] * (end - start)
        if end - start > 1:
            choices += end - start - 1
            last = end - 2
        start = end
    label = [n] * n  # n: not yet labeled

    def complete(i):
        """The least sorted edge codes, (a, b) coded a * n + b, of the two
        labelings that place labels i, i+1, ... when labels i .. last-1 have
        one candidate each."""
        tail = [v for v in order if label[v] == n]
        best = None
        for swap in (False, True):
            if swap:
                k = last - i
                tail[k], tail[k + 1] = tail[k + 1], tail[k]
            for k, v in enumerate(tail, i):
                label[v] = k
            codes = []
            for u, v in edges:
                a, b = label[u], label[v]
                codes.append(a * n + b if a <= b else b * n + a)
            codes.sort()
            if best is None or codes < best:
                best = codes
        for v in tail:
            label[v] = n
        return best

    if choices == 1:
        best = complete(0)
    else:
        best = _search(g, candidates, last, label, complete)
    return tuple(map(divmod, best, itertools.repeat(n)))


def _search(g: WeightedGraph, candidates, last, label, complete) -> list[int]:
    """The branch and bound of _least_edges over labels 0 .. last - 1;
    complete(last) settles the rest."""
    n = g.n_vertices
    loops = g.loops
    n_edges = len(g.edges)
    neighbours = [[] for _ in range(n)]  # a vertex once per edge, no loops
    for u, v in g.edges:
        if u != v:
            neighbours[u].append(v)
            neighbours[v].append(u)
    rows = [()] * n  # rows[a]: codes of the labeled edges of row a
    open_ends = [0] * n  # open_ends[a]: edges of row a not yet labeled
    known = []  # the fixed prefix of the sorted edge list
    best = None

    def place(i, first, start, tight):
        # labels 0..i-1 are placed; rows before `first` are complete and
        # known[start:] is rows[first]; tight: known equals best's prefix
        nonlocal best
        if i == last:
            codes = complete(i)
            if best is None or codes < best:
                best = codes
            return
        saved_rows, saved_ends = rows[:], open_ends[:]
        mark = len(known)
        for v in candidates[i]:
            if label[v] < n:
                continue
            label[v] = i
            ends = 0
            for u in neighbours[v]:
                a = label[u]
                if a < i:
                    rows[a] += (a * n + i,)
                    open_ends[a] -= 1
                else:
                    ends += 1
            rows[i] = (i * n + i,) * loops[v]
            open_ends[i] = ends
            f, s = first, start
            known.extend(rows[f][mark - s:])
            while f <= i and not open_ends[f]:
                f += 1
                s = len(known)
                if f <= i:
                    known.extend(rows[f])
            if not tight:
                place(i + 1, f, s, False)
            else:
                end = len(known)
                grown, old = known[mark:], best[mark:end]
                if grown < old:
                    place(i + 1, f, s, False)
                elif grown == old and (end == n_edges or f * n + i + 1 <= best[end]):
                    place(i + 1, f, s, True)
            # the best now extends known[:mark], whichever branch ran
            tight = True
            del known[mark:]
            rows[:] = saved_rows
            open_ends[:] = saved_ends
            label[v] = n

    place(0, 0, 0, False)
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

    A stable graph of genus g has at most 2g - 2 vertices: the terms of
    sum_v (2 w_v - 2 + val_v) = 2g - 2 are each at least 1.  So a larger
    max_vertices reads as 2g - 2, before the cap is applied.
    """
    if genus < 2:
        raise ValueError("genus must be at least 2")
    if max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    max_vertices = min(max_vertices, 2 * genus - 2)
    if max_vertices > MAX_CENSUS_VERTICES:
        raise ValueError(
            f"census capped at {MAX_CENSUS_VERTICES} vertices"
        )
    found: dict[tuple, WeightedGraph] = {}
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        for b1 in range(genus + 1):
            n_edges = b1 + n - 1
            weight_total = genus - b1
            for edges in itertools.combinations_with_replacement(slots, n_edges):
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
        md = tuple(map(_as_int, md))
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


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a repeated key is an error, not an
    overwrite."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise GraphFormatError(f"repeated field {key!r}")
        out[key] = value
    return out


def load_graph(path) -> WeightedGraph:
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
        return graph_from_dict(data)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise GraphFormatError(f"{path}: JSON nested too deeply") from None
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None
