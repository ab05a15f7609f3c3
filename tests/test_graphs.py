import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neronjac import (
    GraphFormatError,
    WeightedGraph,
    blow_up,
    census,
    class_group,
    connected_subcurves,
    contract_separating,
    extremal_pair,
    graph_from_dict,
    graph_to_dict,
    is_balanced,
    is_isomorphic,
    is_strictly_balanced,
    is_tree_like,
    load_graph,
    push_down,
    s_of_mu,
    separating_edges,
    subcurve_stats,
    validate,
)
from neronjac.graphs import graph_id


class TestValidate:
    def test_single_weight_2_vertex(self):
        diag = validate(WeightedGraph((2,), ()))
        assert diag.genus == 2
        assert diag.stable

    def test_theta(self, theta):
        diag = validate(theta)
        assert diag.genus == 2
        assert diag.connected and diag.stable

    def test_two_parallel_edges_not_stable(self):
        g = WeightedGraph((0, 0), ((0, 1), (0, 1)))
        diag = validate(g)
        assert diag.genus == 1
        assert not diag.stable

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphFormatError):
            WeightedGraph((-1,), ())

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphFormatError):
            WeightedGraph((), ())


class TestSubcurveStats:
    def test_theta_single_vertex(self, theta):
        z = subcurve_stats(theta, {0})
        assert (z.g, z.delta, z.w) == (0, 3, 1)

    def test_full_set(self, theta):
        z = subcurve_stats(theta, {0, 1})
        assert z.delta == 0
        assert z.w == 2 * theta.genus - 2

    def test_bridge_graph_side(self, bridge_graph):
        z = subcurve_stats(bridge_graph, {0})
        assert (z.g, z.delta, z.w) == (1, 1, 1)

    def test_empty_rejected(self, theta):
        with pytest.raises(ValueError):
            subcurve_stats(theta, set())

    @pytest.mark.parametrize("genus,mv", [(2, 2), (3, 3)])
    def test_complement_identity(self, genus, mv):
        # w_Z + w_Zc = 2g - 2 and delta_Z = delta_Zc for every proper Z
        for g in census(genus, mv):
            full = set(range(g.n_vertices))
            for z in connected_subcurves(g, proper=True):
                zc = subcurve_stats(g, full - set(z.vertices))
                assert z.w + zc.w == 2 * g.genus - 2
                assert z.delta == zc.delta


class TestConnectedSubcurves:
    def test_theta_proper(self, theta):
        assert len(list(connected_subcurves(theta, proper=True))) == 2

    def test_single_vertex(self):
        g = WeightedGraph((2,), ())
        assert list(connected_subcurves(g, proper=True)) == []

    def test_path3(self, path3):
        found = {tuple(sorted(z.vertices)) for z in connected_subcurves(path3)}
        assert found == {(0,), (1,), (2,), (0, 1), (1, 2)}

    def test_lexicographic_order(self, path3):
        seen = [tuple(sorted(z.vertices)) for z in connected_subcurves(path3)]
        assert seen == sorted(seen)


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

    @pytest.mark.parametrize(
        "g",
        [
            # parallel pair between two blocks, plus a pendant bridge
            WeightedGraph((1, 0, 1, 1), ((0, 1), (1, 2), (1, 2), (2, 3))),
            # loops at both ends of a bridge
            WeightedGraph((0, 0), ((0, 0), (0, 1), (1, 1))),
            # a triangle with a pendant path and a doubled edge inside it
            WeightedGraph((0, 0, 0, 1, 1), ((0, 1), (0, 1), (1, 2), (0, 2), (2, 3), (3, 4))),
            # one vertex with loops only
            WeightedGraph((0,), ((0, 0), (0, 0))),
        ],
    )
    def test_matches_edge_removal_on_handmade(self, g):
        assert separating_edges(g) == self._remove_and_test(g)
        for h in (blow_up(g, range(g.n_edges)), blow_up(g, (0,))):
            assert separating_edges(h) == self._remove_and_test(h)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            separating_edges(WeightedGraph((1, 1), ()))


class TestContractSeparating:
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
                assert is_isomorphic(rebuilt, g)


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
        assert any(is_isomorphic(g, theta) for g in graphs)
        assert any(is_isomorphic(g, bridge_graph) for g in graphs)

    def test_pairwise_non_isomorphic(self):
        graphs = census(3, 3)
        for i, a in enumerate(graphs):
            for b in graphs[i + 1 :]:
                assert not is_isomorphic(a, b)

    def test_members_valid(self):
        for genus, max_vertices in ((3, 3), (4, 4)):
            for g in census(genus, max_vertices):
                diag = validate(g)
                assert diag.genus == genus
                assert diag.connected and diag.stable

    def test_deterministic(self):
        assert census(2, 2) == census(2, 2)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            census(1, 2)
        with pytest.raises(ValueError):
            census(2, 0)
        with pytest.raises(ValueError):
            census(2, 7)


class TestIsomorphism:
    def test_self(self, theta):
        assert is_isomorphic(theta, theta)

    def test_edge_count_differs(self, theta):
        other = WeightedGraph((0, 0), ((0, 1), (0, 1)))
        assert not is_isomorphic(theta, other)

    def test_weight_swap(self):
        a = WeightedGraph((1, 0), ((0, 1), (0, 1), (0, 1)))
        b = WeightedGraph((0, 1), ((0, 1), (0, 1), (0, 1)))
        assert is_isomorphic(a, b)

    def test_graph_id_is_invariant(self):
        a = WeightedGraph((1, 0, 2), ((0, 1), (0, 1), (1, 2)))
        b = WeightedGraph((2, 0, 1), ((1, 2), (1, 2), (0, 1)))
        assert is_isomorphic(a, b)
        assert graph_id(a) == graph_id(b)

    @given(st.permutations(range(4)))
    @settings(max_examples=20, deadline=None)
    def test_relabeling_is_isomorphic(self, perm):
        g = WeightedGraph((1, 0, 2, 0), ((0, 1), (1, 2), (1, 3), (1, 3), (3, 3)))
        relabeled = WeightedGraph(
            tuple(g.weights[perm.index(i)] for i in range(4)),
            tuple((perm[u], perm[v]) for u, v in g.edges),
        )
        assert is_isomorphic(g, relabeled)


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
        lambda g, md: push_down(g, (), md),
        extremal_pair,
        lambda g, md: class_group(g).same_class(md, (0, 1)),
    ],
    ids=["is_balanced", "is_strictly_balanced", "s_of_mu", "push_down",
         "extremal_pair", "same_class"],
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
