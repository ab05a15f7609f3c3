import itertools
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neronjac import (
    GraphFormatError,
    WeightedGraph,
    blow_up,
    census,
    class_group,
    contract_separating,
    extremal_pair,
    graph_from_dict,
    graph_to_dict,
    is_balanced,
    is_strictly_balanced,
    is_tree_like,
    load_graph,
    m_lower_bound,
    s_of_mu,
    separating_edges,
)
from neronjac.balance import _balance_checks, _subcurve
from neronjac.graphs import _reach, canonical_form, connected_subset_masks, graph_id
from oracles import (
    all_subsets,
    exhaustive_canonical_form,
    fractional_bridges,
    spans_connected,
    subcurve_w_delta,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import analyze_pool  # noqa: E402


class TestValidate:
    """The genus and stability properties that `validate` prints."""

    def test_single_weight_2_vertex(self):
        g = WeightedGraph((2,), ())
        assert g.genus == 2
        assert g.is_stable

    def test_theta(self, theta):
        assert theta.genus == 2
        assert theta.is_connected and theta.is_stable

    def test_two_parallel_edges_not_stable(self):
        g = WeightedGraph((0, 0), ((0, 1), (0, 1)))
        assert g.genus == 1
        assert not g.is_stable

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphFormatError):
            WeightedGraph((-1,), ())

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphFormatError):
            WeightedGraph((), ())

    @pytest.mark.parametrize(
        "edges",
        [((0, 1, 1),), ((0,),), "ab", ((0, 1), [1, 0, 1])],
        ids=["triple", "single", "string", "second-edge"],
    )
    def test_edge_not_a_pair_rejected(self, edges):
        with pytest.raises(GraphFormatError) as info:
            WeightedGraph((1, 1), edges)
        assert str(info.value) == "each edge must be a pair of vertex indices"


def _edge_scan(g):
    """Reference valencies (a loop counts 2) and loop counts: one pass over
    the edges."""
    valencies = [0] * g.n_vertices
    loops = [0] * g.n_vertices
    for u, v in g.edges:
        valencies[u] += 1
        valencies[v] += 1
        if u == v:
            loops[u] += 1
    return tuple(valencies), tuple(loops)


def _set_bfs_component_count(g):
    """Reference component count: breadth-first search over sets."""
    neighbours = {v: set() for v in range(g.n_vertices)}
    for u, v in g.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    seen = set()
    count = 0
    for start in range(g.n_vertices):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for y in neighbours[x] - seen:
                    seen.add(y)
                    nxt.append(y)
            frontier = nxt
    return count


def _with_bridge_blow_ups(graphs):
    """Each graph, then its blow-up at every subset of its bridges."""
    for g in graphs:
        bridges = sorted(separating_edges(g))
        for size in range(len(bridges) + 1):
            for subset in itertools.combinations(bridges, size):
                yield blow_up(g, subset)


@pytest.fixture(scope="module")
def small_census_graphs():
    """The genus 2-4 censuses (at most 4 vertices) and the blow-ups of
    their members at every bridge subset."""
    graphs = [g for genus in (2, 3, 4) for g in census(genus, 4)]
    return list(_with_bridge_blow_ups(graphs))


DISCONNECTED = [
    WeightedGraph((1, 1), ()),
    WeightedGraph((0, 0, 0), ((0, 0), (1, 2), (1, 2))),
    WeightedGraph((2, 0, 1, 0), ((0, 2), (1, 1), (1, 3)), frozenset({3})),
    WeightedGraph((0,) * 5, ((0, 4), (4, 4), (2, 2))),
]


class TestVertexTable:
    """valencies, loops and n_components against an explicit edge scan and
    a set-based search."""

    def test_theta_pendant(self, theta_pendant):
        assert theta_pendant.valencies == (4, 3, 1)
        assert theta_pendant.loops == (0, 0, 0)
        assert theta_pendant.n_components == 1

    def test_loops_count_twice(self, dumbbell):
        assert dumbbell.valencies == (3, 3)
        assert dumbbell.loops == (1, 1)

    def test_census_and_blow_ups(self, small_census_graphs):
        assert len(small_census_graphs) == 812  # 288 census graphs, 524 blow-ups
        for g in small_census_graphs:
            assert (g.valencies, g.loops) == _edge_scan(g)
            assert g.n_components == _set_bfs_component_count(g) == 1

    @pytest.mark.parametrize("g", DISCONNECTED)
    def test_disconnected(self, g):
        assert (g.valencies, g.loops) == _edge_scan(g)
        assert g.n_components == _set_bfs_component_count(g) > 1
        assert not g.is_connected
        assert not g.is_stable and not g.is_quasistable
        assert g.b1 == g.n_edges - g.n_vertices + _set_bfs_component_count(g)


class TestExactIntegers:
    """Weights, edge ends and exceptional marks are exact integers: a
    float or bool is rejected, not truncated to another graph."""

    THETA_EDGES = ((0, 1), (0, 1), (0, 1))

    @pytest.mark.parametrize(
        "weights,edges,exceptional",
        [
            ((1.7, 0.2), THETA_EDGES, ()),
            ((True, 0), THETA_EDGES, ()),
            (("1", 0), THETA_EDGES, ()),
            ((0, 0), ((0, 1.0), (0, 1), (0, 1)), ()),
            ((0, 0), ((False, 1), (0, 1), (0, 1)), ()),
            ((1, 1, 0), ((0, 2), (1, 2)), (2.0,)),
            ((1, 1, 0), ((0, 2), (1, 2)), (True,)),
        ],
        ids=["float-weight", "bool-weight", "str-weight", "float-end",
             "bool-end", "float-mark", "bool-mark"],
    )
    def test_rejected(self, weights, edges, exceptional):
        with pytest.raises(GraphFormatError, match="must be integers"):
            WeightedGraph(weights, edges, frozenset(exceptional))

    def test_index_types_accepted(self):
        g = WeightedGraph(
            (_Index(1), _Index(1), _Index(0)),
            ((_Index(2), _Index(0)), (1, _Index(2))),
            frozenset({_Index(2)}),
        )
        assert g == WeightedGraph((1, 1, 0), ((0, 2), (1, 2)), frozenset({2}))
        assert all(type(x) is int for e in g.edges for x in e)


class TestSubcurveStats:
    """(w, delta, boundary mask) of the subcurve on a vertex mask."""

    def test_theta_single_vertex(self, theta):
        # g_Z = 0, all three edges leave Z
        assert _subcurve(theta, 0b01, theta.incidence_masks) == (1, 3, 0b111)

    def test_full_set(self, theta):
        assert _subcurve(theta, 0b11, theta.incidence_masks) == (2 * theta.genus - 2, 0, 0)

    def test_bridge_graph_side(self, bridge_graph):
        # g_Z = 1, the bridge leaves Z
        assert _subcurve(bridge_graph, 0b01, bridge_graph.incidence_masks) == (1, 1, 0b1)

    def test_empty_rejected(self, theta):
        with pytest.raises(ValueError, match="nonempty"):
            m_lower_bound(theta, set(), 1)

    def test_missing_vertex_rejected(self, theta):
        with pytest.raises(ValueError, match="missing vertex"):
            m_lower_bound(theta, {0, 2}, 1)

    @pytest.mark.parametrize("genus,mv", [(2, 2), (3, 3)])
    def test_complement_identity(self, genus, mv):
        # w_Z + w_Zc = 2g - 2, and Z and Zc share their boundary, for every
        # proper Z
        for g in census(genus, mv):
            full = (1 << g.n_vertices) - 1
            incidence = g.incidence_masks
            for mask in connected_subset_masks(g):
                w, delta, boundary = _subcurve(g, mask, incidence)
                wc, delta_c, boundary_c = _subcurve(g, full ^ mask, incidence)
                assert w + wc == 2 * g.genus - 2
                assert (delta, boundary) == (delta_c, boundary_c)


class TestConnectedSubcurves:
    def test_theta_proper(self, theta):
        assert len(connected_subset_masks(theta)) == 2

    def test_single_vertex(self):
        g = WeightedGraph((2,), ())
        assert connected_subset_masks(g) == []

    def test_path3(self, path3):
        # {0}, {1}, {0, 1}, {2}, {1, 2}, ascending as masks; {0, 2} is not
        # connected and {0, 1, 2} is not proper
        assert connected_subset_masks(path3) == [0b001, 0b010, 0b011, 0b100, 0b110]


def _table_graphs():
    """The genus 2-4 census at <= 4 vertices with its blow-ups at every
    bridge subset and at all edges, then the analyze-g6 pool with its
    blow-ups at each subset of the bridges integral at some d in 5..14."""
    for genus in (2, 3, 4):
        for g in census(genus, 4):
            bridges = sorted(separating_edges(g))
            for size in range(len(bridges) + 1):
                for subset in itertools.combinations(bridges, size):
                    yield blow_up(g, subset)
            yield blow_up(g, range(g.n_edges))
    for weights, edges in analyze_pool():
        g = WeightedGraph(weights, edges)
        subsets = set()
        for d in range(5, 15):
            fractional = fractional_bridges(g.weights, g.edges, d)
            integral = sorted(separating_edges(g).difference(fractional))
            for size in range(len(integral) + 1):
                subsets.update(itertools.combinations(integral, size))
        for subset in sorted(subsets):
            yield blow_up(g, subset)


class TestSubcurveTable:
    """connected_subset_masks and every _balance_checks entry against the
    oracles, on every graph of _table_graphs."""

    def test_matches_oracles(self):
        seen = 0
        for g in _table_graphs():
            n, edges = g.n_vertices, g.edges
            want = []
            for zs in all_subsets(n):
                if len(zs) < n and spans_connected(edges, zs):
                    mask = sum(1 << v for v in zs)
                    w, delta = subcurve_w_delta(g.weights, edges, zs)
                    boundary = [i for i, (u, v) in enumerate(edges) if (u in zs) != (v in zs)]
                    exempt = all(
                        edges[i][0] in g.exceptional or edges[i][1] in g.exceptional
                        for i in boundary
                    )
                    want.append((mask, w, delta, sum(1 << i for i in boundary), exempt))
            want.sort()
            assert connected_subset_masks(g) == [m for m, *_ in want], g
            got = [(c.mask, c.w, c.delta, c.boundary, c.exempt) for c in _balance_checks(g)]
            assert got == want, g
            seen += 1
        assert seen > 1000


class TestSeparatingEdges:
    def test_theta_has_none(self, theta):
        assert separating_edges(theta) == frozenset()

    def test_bridge(self, bridge_graph):
        assert separating_edges(bridge_graph) == {0}

    def test_theta_with_pendant(self, theta_pendant):
        (bridge,) = separating_edges(theta_pendant)
        assert theta_pendant.edges[bridge] == (0, 2)

    def test_parallel_edges_never_bridges(self):
        g = WeightedGraph((1, 1), ((0, 1), (0, 1)))
        assert separating_edges(g) == frozenset()

    @staticmethod
    def _remove_and_test(g):
        # reference definition: a non-loop edge is a bridge when the graph
        # without it is disconnected
        out = set()
        for i, (u, v) in enumerate(g.edges):
            if u == v:
                continue
            rest = g.edges[:i] + g.edges[i + 1 :]
            if not WeightedGraph(g.weights, rest, g.exceptional).is_connected:
                out.add(i)
        return frozenset(out)

    @pytest.mark.parametrize("genus,mv", [(2, 3), (3, 4)])
    def test_matches_edge_removal_on_census_and_blow_ups(self, genus, mv):
        for g in census(genus, mv):
            hats = [blow_up(g, separating_edges(g)), blow_up(g, range(g.n_edges))]
            for h in [g] + hats:
                assert separating_edges(h) == self._remove_and_test(h)

    @staticmethod
    def _sides_and_pool():
        """The census graphs of genus 2-4 at <= 4 vertices and the
        analyze-g6 pool graphs."""
        for genus in (2, 3, 4):
            yield from census(genus, 4)
        for weights, edges in analyze_pool():
            yield WeightedGraph(weights, edges)

    def test_bridge_sides_match_reach_without_the_edge(self):
        for g in self._sides_and_pool():
            sides = []
            for i in sorted(self._remove_and_test(g)):
                u, v = g.edges[i]
                adj = [0] * g.n_vertices
                for a, b in g.edges[:i] + g.edges[i + 1 :]:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
                sides.append((i, _reach(adj, u)))
            assert g.bridge_sides == tuple(sides), g
            assert g.bridges == tuple(i for i, _ in sides)
            assert separating_edges(g) == frozenset(g.bridges)

    HANDMADE = [
        # parallel pair between two blocks, plus a pendant bridge
        WeightedGraph((1, 0, 1, 1), ((0, 1), (1, 2), (1, 2), (2, 3))),
        # loops at both ends of a bridge
        WeightedGraph((0, 0), ((0, 0), (0, 1), (1, 1))),
        # a triangle with a pendant path and a doubled edge inside it
        WeightedGraph((0, 0, 0, 1, 1), ((0, 1), (0, 1), (1, 2), (0, 2), (2, 3), (3, 4))),
        # one vertex with loops only
        WeightedGraph((0,), ((0, 0), (0, 0))),
    ]

    @pytest.mark.parametrize("g", HANDMADE)
    def test_matches_edge_removal_on_handmade(self, g):
        assert separating_edges(g) == self._remove_and_test(g)
        for h in (blow_up(g, range(g.n_edges)), blow_up(g, (0,))):
            assert separating_edges(h) == self._remove_and_test(h)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            separating_edges(WeightedGraph((1, 1), ()))


def _union_find_contraction(g):
    """Reference bridge contraction: union-find over the bridges, the
    classes numbered in order of their least vertex."""
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
    edges = [(phi[u], phi[v]) for i, (u, v) in enumerate(g.edges) if i not in bridges]
    return WeightedGraph(tuple(weights), tuple(edges)), phi


class TestContractSeparating:
    def test_matches_union_find(self, small_census_graphs):
        handmade = TestSeparatingEdges.HANDMADE
        for g in small_census_graphs + handmade + list(_with_bridge_blow_ups(handmade)):
            assert contract_separating(g) == _union_find_contraction(g)

    def test_tree_like_collapses_to_point(self, path3):
        contracted, phi = contract_separating(path3)
        assert contracted.n_vertices == 1
        assert contracted.weights == (3,)
        assert phi == (0, 0, 0)

    def test_theta_fixed(self, theta):
        contracted, phi = contract_separating(theta)
        assert contracted == theta
        assert phi == (0, 1)

    def test_theta_pendant(self, theta_pendant):
        contracted, phi = contract_separating(theta_pendant)
        assert contracted.weights in ((1, 0), (0, 1))
        assert contracted.n_edges == 3

    @pytest.mark.parametrize("genus,mv", [(2, 2), (3, 3)])
    def test_postconditions(self, genus, mv):
        for g in census(genus, mv):
            contracted, phi = contract_separating(g)
            assert contracted.genus == g.genus
            assert contracted.b1 == g.b1
            assert contracted.is_stable
            assert separating_edges(contracted) == frozenset()
            # idempotent
            again, _ = contract_separating(contracted)
            assert again == contracted
            assert set(phi) == set(range(contracted.n_vertices))


class TestBlowUp:
    def test_empty_subset_identity(self, theta):
        assert blow_up(theta, ()) == theta

    def test_bridge(self, bridge_graph):
        hat = blow_up(bridge_graph, {0})
        assert hat.weights == (1, 1, 0)
        assert hat.exceptional == {2}
        assert sorted(hat.edges) == [(0, 2), (1, 2)]
        assert hat.is_quasistable

    def test_loop(self):
        g = WeightedGraph((1,), ((0, 0),))
        hat = blow_up(g, {0})
        assert hat.n_vertices == 2
        assert hat.edges == ((0, 1), (0, 1))
        assert hat.exceptional == {1}
        assert hat.genus == 2

    def test_bad_index_rejected(self, theta):
        with pytest.raises(ValueError):
            blow_up(theta, {7})

    @pytest.mark.parametrize("genus,mv", [(2, 2), (3, 3)])
    def test_invariants_and_roundtrip(self, genus, mv):
        for g in census(genus, mv):
            for subset in ((), tuple(range(g.n_edges))):
                hat = blow_up(g, subset)
                assert hat.genus == g.genus
                assert len(hat.exceptional) == len(subset)
                assert hat.is_quasistable
                # un-contracting the exceptional paths recovers g
                # exceptional vertex n + k subdivides the k-th edge of subset
                neighbors = {
                    g.n_vertices + k: g.edges[i]
                    for k, i in enumerate(sorted(subset))
                }
                rebuilt_edges = [
                    e
                    for i, e in enumerate(g.edges)
                    if i not in set(subset)
                ] + [neighbors[v] for v in sorted(hat.exceptional)]
                rebuilt = WeightedGraph(g.weights, tuple(rebuilt_edges))
                assert canonical_form(rebuilt) == canonical_form(g)


class TestTreeLike:
    def test_bridge_graph(self, bridge_graph):
        assert is_tree_like(bridge_graph)

    def test_theta(self, theta):
        assert not is_tree_like(theta)

    def test_vertex_with_loop(self):
        assert is_tree_like(WeightedGraph((1,), ((0, 0),)))


class TestCensus:
    def test_genus2_one_vertex(self):
        graphs = census(2, 1)
        assert len(graphs) == 3
        shapes = {(g.weights, g.n_edges) for g in graphs}
        assert shapes == {((2,), 0), ((1,), 1), ((0,), 2)}

    def test_genus2_two_vertices(self, theta, bridge_graph):
        graphs = census(2, 2)
        assert len(graphs) == 7
        forms = {canonical_form(g) for g in graphs}
        assert canonical_form(theta) in forms
        assert canonical_form(bridge_graph) in forms

    def test_pairwise_non_isomorphic(self):
        forms = [canonical_form(g) for g in census(3, 3)]
        assert len(set(forms)) == len(forms)

    def test_members_valid(self):
        for genus, max_vertices in ((3, 3), (4, 4)):
            for g in census(genus, max_vertices):
                assert g.genus == genus
                assert g.is_connected and g.is_stable

    def test_deterministic(self):
        assert census(2, 2) == census(2, 2)

    def test_max_vertices_read_as_2g_minus_2(self):
        # a stable graph of genus g has at most 2g - 2 vertices; 7 and 42
        # are the published counts (Maggiolo-Pagani)
        genus2 = census(2, 6)
        assert genus2 == census(2, 2) and len(genus2) == 7
        genus3 = census(3, 6)
        assert genus3 == census(3, 4) and len(genus3) == 42

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            census(1, 2)
        with pytest.raises(ValueError):
            census(2, 0)
        with pytest.raises(ValueError, match="capped at 6"):
            census(5, 7)


class TestIsomorphism:
    def test_self(self, theta):
        assert canonical_form(theta) == canonical_form(theta)

    def test_edge_count_differs(self, theta):
        other = WeightedGraph((0, 0), ((0, 1), (0, 1)))
        assert canonical_form(theta) != canonical_form(other)

    def test_weight_swap(self):
        a = WeightedGraph((1, 0), ((0, 1), (0, 1), (0, 1)))
        b = WeightedGraph((0, 1), ((0, 1), (0, 1), (0, 1)))
        assert canonical_form(a) == canonical_form(b)

    def test_graph_id_is_invariant(self):
        a = WeightedGraph((1, 0, 2), ((0, 1), (0, 1), (1, 2)))
        b = WeightedGraph((2, 0, 1), ((1, 2), (1, 2), (0, 1)))
        assert canonical_form(a) == canonical_form(b)
        assert graph_id(a) == graph_id(b)

    @given(st.permutations(range(4)))
    @settings(max_examples=20, deadline=None)
    def test_relabeling_is_isomorphic(self, perm):
        g = WeightedGraph((1, 0, 2, 0), ((0, 1), (1, 2), (1, 3), (1, 3), (3, 3)))
        relabeled = WeightedGraph(
            tuple(g.weights[perm.index(i)] for i in range(4)),
            tuple((perm[u], perm[v]) for u, v in g.edges),
        )
        assert canonical_form(g) == canonical_form(relabeled)


def _relabeled(g, rng):
    """g with its vertices renamed by a random permutation."""
    perm = list(range(g.n_vertices))
    rng.shuffle(perm)
    weights = [0] * g.n_vertices
    for v, w in enumerate(g.weights):
        weights[perm[v]] = w
    return WeightedGraph(
        tuple(weights),
        tuple((perm[u], perm[v]) for u, v in g.edges),
        frozenset(perm[v] for v in g.exceptional),
    )


def _random_stable_graph(rng, n):
    """A connected stable graph on n vertices, mostly of weight 0; loops
    and parallel edges allowed."""
    while True:
        weights = tuple(rng.choice((0, 0, 0, 1)) for _ in range(n))
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        for _ in range(rng.randint(n // 2, n + 2)):
            edges.append((rng.randrange(n), rng.randrange(n)))
        g = WeightedGraph(weights, tuple(edges))
        if g.is_stable:
            return g


def _random_cubic_graph(rng, n):
    """A connected loopless graph on an even number n of weight-0 vertices
    of valency 3, by pairing valency slots at random: one class of n
    vertices, so every relabeling respects it."""
    while True:
        slots = [v for v in range(n) for _ in range(3)]
        rng.shuffle(slots)
        g = WeightedGraph((0,) * n, tuple(zip(slots[::2], slots[1::2])))
        if g.is_connected and not any(g.loops):
            return g


class TestCanonicalFormSearch:
    """The branch-and-bound canonical_form against the exhaustive one kept
    in oracles.py, on relabeled copies."""

    def test_census_and_blow_ups(self, small_census_graphs):
        rng = random.Random(1)
        for g in small_census_graphs:
            form = exhaustive_canonical_form(g)
            assert canonical_form(g) == form
            for _ in range(2):
                assert canonical_form(_relabeled(g, rng)) == form

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_random_stable_graphs(self, n):
        rng = random.Random(n)
        for _ in range(30):
            g = _random_stable_graph(rng, n)
            form = exhaustive_canonical_form(g)
            assert canonical_form(g) == form
            for _ in range(2):
                h = _relabeled(g, rng)
                assert canonical_form(h) == form
                assert graph_id(h) == graph_id(g)

    @pytest.mark.parametrize("n", [6, 8])
    def test_random_cubic_graphs(self, n):
        rng = random.Random(n)
        for _ in range(2):
            g = _random_cubic_graph(rng, n)
            form = exhaustive_canonical_form(g)
            for _ in range(3):
                assert canonical_form(_relabeled(g, rng)) == form

    def test_blow_ups_of_random_graphs(self):
        rng = random.Random(9)
        graphs = [_random_stable_graph(rng, 6) for _ in range(6)]
        for hat in _with_bridge_blow_ups(graphs):
            assert canonical_form(_relabeled(hat, rng)) == exhaustive_canonical_form(hat)


class TestFileFormat:
    def test_roundtrip(self, theta_pendant):
        data = graph_to_dict(theta_pendant)
        assert graph_from_dict(data) == theta_pendant

    def test_exceptional_roundtrip(self, bridge_graph):
        hat = blow_up(bridge_graph, {0})
        assert graph_from_dict(graph_to_dict(hat)) == hat

    def test_load(self, tmp_path, theta):
        path = tmp_path / "g.graph"
        path.write_text(json.dumps(graph_to_dict(theta)))
        assert load_graph(path) == theta

    def test_invalid_json_diagnostics(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("{\n  broken\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(path)

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"vertices": []},
            {"vertices": [{"id": 0}]},
            {"vertices": [{"id": 0, "weight": 1}, {"id": 0, "weight": 1}]},
            {"vertices": [{"id": 0, "weight": 1}], "edges": [[0, 5]]},
            {"vertices": [{"id": 0, "weight": 1}], "edges": [[0]]},
            {"vertices": [{"id": 0, "weight": 1}], "exceptional": [9]},
        ],
    )
    def test_malformed_rejected(self, data):
        with pytest.raises(GraphFormatError):
            graph_from_dict(data)

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"vertices": [{"id": 0, "weight": 2}], "edgse": [[0, 0]]}, "edgse"),
            ({"vertices": [{"id": 0, "wieght": 2}]}, "wieght"),
            ({"vertices": [{"id": 0, "weight": 2, "genus": 1}]}, "genus"),
        ],
    )
    def test_unknown_field_named(self, data, key):
        with pytest.raises(GraphFormatError, match=f"unknown .*'{key}'"):
            graph_from_dict(data)

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"vertices": [{"id": 0, "weight": 2}], "edges": [], "edges": [[0, 0]]}',
             "edges"),
            ('{"vertices": [{"id": 0, "weight": 2, "weight": 5}], "edges": []}',
             "weight"),
        ],
        ids=["top-level", "vertex"],
    )
    def test_repeated_field_named(self, tmp_path, text, key):
        path = tmp_path / "g.graph"
        path.write_text(text)
        with pytest.raises(GraphFormatError, match=f"repeated field '{key}'"):
            load_graph(path)

    def test_deep_nesting_rejected(self, tmp_path):
        path = tmp_path / "deep.graph"
        path.write_text("[" * 100_000)
        with pytest.raises(GraphFormatError, match="nested too deeply"):
            load_graph(path)


class _Index:
    """An exact integer that is not an int, like numpy.int64."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


MULTIDEGREE_CALLS = pytest.mark.parametrize(
    "call",
    [
        is_balanced,
        is_strictly_balanced,
        s_of_mu,
        extremal_pair,
        lambda g, md: class_group(g).same_class(md, (0, 1)),
    ],
    ids=["is_balanced", "is_strictly_balanced", "s_of_mu", "extremal_pair",
         "same_class"],
)


class TestMultidegreeCheck:
    """Every entry point that takes a multidegree rejects non-integer
    entries instead of truncating them to another multidegree, and takes
    any exact integer type as the int it stands for."""

    @MULTIDEGREE_CALLS
    @pytest.mark.parametrize(
        "md", [(0.9, 0.2), (True, False), ("1", "0")], ids=["float", "bool", "str"]
    )
    def test_non_integer_entries_rejected(self, theta, call, md):
        with pytest.raises(ValueError, match="must be integers"):
            call(theta, md)

    @MULTIDEGREE_CALLS
    def test_index_types_accepted(self, theta, call):
        assert call(theta, (_Index(1), _Index(0))) == call(theta, (1, 0))
