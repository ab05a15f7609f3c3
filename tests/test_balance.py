import itertools
import math
from fractions import Fraction

import pytest

from neronjac import (
    BalancedSets,
    WeightedGraph,
    alpha,
    blow_up,
    census,
    enumerate_balanced,
    equality_subcurves,
    is_balanced,
    is_d_general,
    is_strictly_balanced,
    is_weakly_d_general,
    m_lower_bound,
    separating_edges,
)
from neronjac import _kernel_py
from neronjac.balance import _balance_checks, _threshold, _vertex_bounds
from oracles import brute_force_balanced, subcurve_w_delta


class TestLowerBound:
    def test_theta_singleton(self, theta):
        # w = 1, delta = 3, 2g-2 = 2: m = d/2 - 3/2
        assert m_lower_bound(theta, {0}, 1) == Fraction(-1)
        assert m_lower_bound(theta, {0}, 2) == Fraction(-1, 2)

    def test_bridge_graph_singleton(self, bridge_graph):
        # w = 1, delta = 1, 2g-2 = 2: m = d/2 - 1/2
        assert m_lower_bound(bridge_graph, {0}, 1) == Fraction(0)
        assert m_lower_bound(bridge_graph, {0}, 3) == Fraction(1)

    def test_full_curve(self, theta):
        # w = 2g-2, delta = 0: m = d
        for d in range(-3, 4):
            assert m_lower_bound(theta, {0, 1}, d) == d

    def test_genus_one_rejected(self):
        g = WeightedGraph((1,), ())
        with pytest.raises(ValueError):
            m_lower_bound(g, {0}, 1)


class TestIsBalanced:
    def test_theta_degree_one(self, theta):
        balanced = {(-1, 2), (0, 1), (1, 0), (2, -1)}
        for md in itertools.product(range(-3, 4), repeat=2):
            if sum(md) == 1:
                assert is_balanced(theta, md) == (md in balanced)

    def test_theta_strict_degree_one(self, theta):
        strict = {(0, 1), (1, 0)}
        for md in itertools.product(range(-3, 4), repeat=2):
            if sum(md) == 1:
                assert is_strictly_balanced(theta, md) == (md in strict)

    def test_strict_implies_balanced(self, dumbbell):
        for md in itertools.product(range(-2, 4), repeat=2):
            if is_strictly_balanced(dumbbell, md):
                assert is_balanced(dumbbell, md)

    def test_exceptional_must_carry_one(self, bridge_graph):
        hat = blow_up(bridge_graph, {0})
        assert is_balanced(hat, (1, 1, 1))
        assert not is_balanced(hat, (1, 2, 0))
        assert not is_balanced(hat, (0, 0, 3))

    def test_blow_up_boundary_exemption(self, theta):
        # blowing up all three edges: the original vertices meet their bound
        # with equality but every boundary node lies on an exceptional
        # component, so strictness is exempt there
        hat = blow_up(theta, (0, 1, 2))
        md = (-1, -1, 1, 1, 1)
        assert is_balanced(hat, md)
        assert is_strictly_balanced(hat, md)

    def test_wrong_length_rejected(self, theta):
        with pytest.raises(ValueError):
            is_balanced(theta, (1,))


class TestEnumerateBalanced:
    def test_theta_degree_one(self, theta):
        bs = enumerate_balanced(theta, 1)
        assert bs.members == ((-1, 2), (0, 1), (1, 0), (2, -1))
        assert bs.strict_members == ((0, 1), (1, 0))
        assert bs.size == 4 and bs.strict_size == 2

    def test_theta_degree_two(self, theta):
        # m_Z(2) = -1/2 for each vertex, so every entry is >= 0 and no
        # integer can meet the bound with equality
        bs = enumerate_balanced(theta, 2)
        assert bs.members == ((0, 2), (1, 1), (2, 0))
        assert bs.strict_members == bs.members

    def test_lexicographic(self, dumbbell):
        for d in range(-3, 5):
            members = enumerate_balanced(dumbbell, d).members
            assert list(members) == sorted(members)

    def test_agrees_with_pointwise_predicates(self, theta_pendant):
        for d in range(-2, 6):
            bs = enumerate_balanced(theta_pendant, d)
            members = set(bs.members)
            for md in itertools.product(range(-4, 7), repeat=3):
                if sum(md) != d:
                    continue
                assert is_balanced(theta_pendant, md) == (md in members)
            for md in bs.members:
                assert is_strictly_balanced(theta_pendant, md) == (
                    md in bs.strict_members
                )

    @pytest.mark.parametrize("genus,mv", [(2, 2), (3, 3)])
    def test_against_brute_force_oracle(self, genus, mv):
        for g in census(genus, mv):
            box = [(-2 * genus, 3 * genus)] * g.n_vertices
            for d in range(-genus, 2 * genus + 1):
                want_b, want_s = brute_force_balanced(
                    list(g.weights), list(g.edges), set(g.exceptional), d, box
                )
                bs = enumerate_balanced(g, d)
                assert sorted(bs.members) == sorted(want_b)
                assert sorted(bs.strict_members) == sorted(want_s)

    def test_blow_up_against_oracle(self, theta, dumbbell):
        for base in (theta, dumbbell):
            for subset in [(0,), (0, 1), tuple(range(base.n_edges))]:
                hat = blow_up(base, subset)
                box = [(-4, 5)] * hat.n_vertices
                for d in (0, 1, 2, 3):
                    want_b, want_s = brute_force_balanced(
                        list(hat.weights),
                        list(hat.edges),
                        set(hat.exceptional),
                        d,
                        box,
                    )
                    bs = enumerate_balanced(hat, d)
                    assert sorted(bs.members) == sorted(want_b)
                    assert sorted(bs.strict_members) == sorted(want_s)

    def test_strict_is_balance_at_raised_thresholds(self):
        """The strict members are what the kernel finds with the threshold
        of every non-exempt subcurve raised by one, in the same order,
        although only the raised thresholds divisible by the scale are
        tested."""
        for g in _bound_cases():
            genus = g.genus
            scale = 2 * (2 * genus - 2)
            checks = _balance_checks(g)
            masks = [c.mask for c in checks]
            for d in range(-genus, 3 * genus + 1):
                lows, highs = _vertex_bounds(g, genus, d)
                raised = [_threshold(genus, d, c.w, c.delta) + (not c.exempt)
                          for c in checks]
                want = _kernel_py.enumerate_box(lows, highs, d, masks, raised, scale)
                assert enumerate_balanced(g, d).strict_members == tuple(want)


def _bound_cases():
    """Census graphs, their blow-ups at every bridge and at every edge, and
    one-vertex graphs."""
    for genus in (2, 3):
        for g in census(genus, 3):
            yield g
            yield blow_up(g, separating_edges(g))
            yield blow_up(g, range(g.n_edges))
    yield WeightedGraph((2,), ())
    yield WeightedGraph((1,), ((0, 0),))
    yield WeightedGraph((0,), ((0, 0), (0, 0), (0, 0)))


class TestSubcurveTable:
    def test_entries_against_oracle(self):
        # w, delta, boundary and exemption of every entry, recomputed from
        # the edge list
        for g in _bound_cases():
            for c in _balance_checks(g):
                zs = {v for v in range(g.n_vertices) if c.mask >> v & 1}
                boundary = {
                    i for i, (u, v) in enumerate(g.edges) if (u in zs) != (v in zs)
                }
                exempt = all(
                    g.edges[i][0] in g.exceptional or g.edges[i][1] in g.exceptional
                    for i in boundary
                )
                got = {i for i in range(g.n_edges) if c.boundary >> i & 1}
                assert (c.w, c.delta) == subcurve_w_delta(g.weights, g.edges, zs)
                assert (got, c.exempt) == (boundary, exempt), (g, c)


class TestVertexBounds:
    def test_integer_bounds_match_fraction_bounds(self):
        # lo_v = ceil(m_{v}(d)) from the singleton, hi_v = d - ceil(m_{V-v}(d))
        # from the complement (m of the empty set is 0); exceptional
        # vertices are pinned to 1
        for g in _bound_cases():
            everything = frozenset(range(g.n_vertices))
            for d in range(-7, 12):
                lows, highs = _vertex_bounds(g, g.genus, d)
                for v in range(g.n_vertices):
                    rest = everything - {v}
                    lo = math.ceil(m_lower_bound(g, {v}, d))
                    hi = d - (math.ceil(m_lower_bound(g, rest, d)) if rest else 0)
                    if v in g.exceptional:
                        lo, hi = max(lo, 1), min(hi, 1)
                    assert (lows[v], highs[v]) == (lo, hi), (g, v, d)

    def test_disconnected_rejected(self):
        g = WeightedGraph((1, 1), ())
        with pytest.raises(ValueError, match="connected"):
            enumerate_balanced(g, 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: is_balanced(g, (0, 1)),
            lambda g: is_strictly_balanced(g, (0, 1)),
            lambda g: m_lower_bound(g, {0}, 1),
            lambda g: alpha(g, (0, 1)),
        ],
        ids=["is_balanced", "is_strictly_balanced", "m_lower_bound", "alpha"],
    )
    def test_disconnected_rejected_everywhere(self, call):
        # 2g - 2 of two isolated weight-1 vertices bounds neither of them
        g = WeightedGraph((1, 1), ())
        with pytest.raises(ValueError, match="connected graphs"):
            call(g)


def _brute_force_equality_subcurves(g, md):
    """Connected proper vertex subsets Z with deg_Z = m_Z(d), found with
    Fraction arithmetic over every subset."""
    n = g.n_vertices
    genus = g.genus
    d = sum(md)
    out = set()
    for size in range(1, n):
        for zs in map(frozenset, itertools.combinations(range(n), size)):
            reached = {min(zs)}
            frontier = [min(zs)]
            while frontier:
                x = frontier.pop()
                for u, v in g.edges:
                    for a, b in ((u, v), (v, u)):
                        if a == x and b in zs and b not in reached:
                            reached.add(b)
                            frontier.append(b)
            if reached != zs:
                continue
            w, delta = subcurve_w_delta(g.weights, g.edges, zs)
            bound = Fraction(d * w, 2 * genus - 2) - Fraction(delta, 2)
            if sum(md[v] for v in zs) == bound:
                out.add(zs)
    return out


class TestEqualitySubcurves:
    def test_against_fraction_brute_force(self):
        checked = 0
        for genus in (2, 3):
            for base in census(genus, 3):
                for g in (base, blow_up(base, separating_edges(base))):
                    for d in range(-genus, 3 * genus + 1):
                        for md in enumerate_balanced(g, d).members:
                            found = equality_subcurves(g, md)
                            assert len(found) == len(set(found))
                            assert set(found) == _brute_force_equality_subcurves(
                                g, md
                            )
                            checked += 1
        assert checked > 1000

    def test_theta(self, theta):
        # m_{v}(1) = -1 on each vertex, and m_{v}(2) = -1/2 is never met
        assert equality_subcurves(theta, (0, 1)) == []
        assert equality_subcurves(theta, (-1, 2)) == [frozenset({0})]
        assert equality_subcurves(theta, (2, -1)) == [frozenset({1})]
        assert equality_subcurves(theta, (1, 1)) == []

    def test_errors(self, theta):
        with pytest.raises(ValueError, match="entries"):
            equality_subcurves(theta, (0, 1, 0))
        with pytest.raises(ValueError, match="genus"):
            equality_subcurves(WeightedGraph((1,), ()), (0, 1))


class TestBalancedSets:
    def test_same_as_enumerate_balanced(self, theta_pendant):
        sets = BalancedSets(2)
        assert sets(theta_pendant) == enumerate_balanced(theta_pendant, 2)

    def test_computes_each_graph_once(self, theta, monkeypatch):
        from neronjac import balance

        calls = []
        real = balance.enumerate_balanced

        def counted(h, d):
            calls.append(h)
            return real(h, d)

        monkeypatch.setattr(balance, "enumerate_balanced", counted)
        sets = BalancedSets(1)
        first = sets(theta)
        # an equal graph built separately shares the entry
        assert sets(blow_up(theta, ())) is first
        sets(blow_up(theta, (0,)))
        assert calls == [theta, blow_up(theta, (0,))]

    def test_degree_mismatch_rejected(self, theta):
        with pytest.raises(ValueError, match="degree"):
            is_d_general(theta, 1, sets=BalancedSets(2))

    def test_shared_sets_give_same_answers(self, theta_pendant):
        for d in range(-3, 6):
            sets = BalancedSets(d)
            assert is_d_general(theta_pendant, d, sets=sets) == is_d_general(
                theta_pendant, d
            )
            assert is_weakly_d_general(
                theta_pendant, d, sets=sets
            ) == is_weakly_d_general(theta_pendant, d)


class TestGenerality:
    def test_theta(self, theta):
        # gcd(d - 1, 2) = 1 exactly when d is even
        for d in range(-4, 6):
            assert is_d_general(theta, d) == (d % 2 == 0)

    def test_bridge_graph_parity(self, bridge_graph):
        # m_{v}(d) = d/2 - 1/2 is an attainable integer exactly when d is odd
        for d in range(-3, 5):
            assert is_d_general(bridge_graph, d) == (d % 2 == 0)

    def test_weakly_general_contracts_bridges(self, bridge_graph):
        # the contraction is a single weight-2 vertex, trivially d-general
        for d in range(-3, 5):
            assert is_weakly_d_general(bridge_graph, d)

    def test_bridgeless_weak_equals_plain(self, theta, four_cycle):
        for g in (theta, four_cycle):
            for d in range(-3, 5):
                assert is_weakly_d_general(g, d) == is_d_general(g, d)

    def test_unstable_rejected(self):
        g = WeightedGraph((0, 2), ((0, 1), (0, 1)))
        assert not g.is_stable
        with pytest.raises(ValueError):
            is_d_general(g, 1)


class TestAlpha:
    def test_identity_without_bridges(self, theta):
        assert alpha(theta, (0, 1)) == (0, 1)

    def test_sums_over_fibers(self, theta_pendant):
        md = next(iter(enumerate_balanced(theta_pendant, 3).members))
        out = alpha(theta_pendant, md)
        assert sum(out) == 3
        assert len(out) == 2

    def test_image_is_balanced(self, theta_pendant):
        from neronjac import contract_separating

        contracted, _ = contract_separating(theta_pendant)
        for d in range(0, 5):
            for md in enumerate_balanced(theta_pendant, d).members:
                assert is_balanced(contracted, alpha(theta_pendant, md))

    def test_unbalanced_rejected(self, theta):
        with pytest.raises(ValueError):
            alpha(theta, (-3, 4))
