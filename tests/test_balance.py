import itertools
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from neronjac import (
    WeightedGraph,
    alpha,
    blow_up,
    census,
    component_count,
    contract_separating,
    d_special_subcurve,
    enumerate_balanced,
    equality_subcurves,
    is_balanced,
    is_d_general,
    is_neron_type,
    is_strictly_balanced,
    is_weakly_d_general,
    m_lower_bound,
    s_of_mu,
    separating_edges,
    strata_index,
)
from neronjac import _kernel_py
from neronjac.balance import (
    _balance_checks,
    _bits,
    _subcurve,
    _threshold,
    _vertex_bounds,
)
from neronjac.graphs import connected_subset_masks
from neronjac.locus import d_special_vine_scan
from oracles import (
    brute_force_balanced,
    fractional_bridges,
    spans_connected,
    subcurve_w_delta,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import analyze_pool  # noqa: E402


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

    def test_padded_box_against_oracle(self):
        # every point of the box, members and non-members
        for g, d, box in _padded_box_cases():
            balanced, strict = map(
                set,
                brute_force_balanced(
                    list(g.weights), list(g.edges), set(g.exceptional), d, box
                ),
            )
            for md in _box_points(box, d):
                assert is_balanced(g, md) == (md in balanced), (g, md)
                assert is_strictly_balanced(g, md) == (md in strict), (g, md)


def _padded_box_cases():
    """(g, d, box): the genus-2 and genus-3 census graphs with at most 3
    vertices and their blow-ups at every bridge, for d in [-g, 3g], with
    the per-vertex box of the balanced multidegrees widened by one on each
    side, so that it also holds non-members next to every bound."""
    for genus in (2, 3):
        for base in census(genus, 3):
            for g in (base, blow_up(base, separating_edges(base))):
                for d in range(-genus, 3 * genus + 1):
                    lows, highs = _vertex_bounds(g, genus, d)
                    yield g, d, [(lo - 1, hi + 1) for lo, hi in zip(lows, highs)]


def _box_points(box, d):
    """The points of box with coordinate sum d."""
    ranges = (range(lo, hi + 1) for lo, hi in box)
    return [md for md in itertools.product(*ranges) if sum(md) == d]


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
        although the strict filter reads only the tight checks, whose
        thresholds the scale divides."""
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


def _pool_blow_ups_g_minus_one():
    """(g, d = g - 1 = 5): the analyze-g6 pool graphs with their blow-ups
    at every subset of the bridges, each side of which has the integral
    m_Z(g - 1) = g_Z - 1."""
    for weights, edges in analyze_pool():
        g = WeightedGraph(weights, edges)
        d = g.genus - 1
        assert d == 5 and fractional_bridges(weights, edges, d) == []
        bridges = sorted(separating_edges(g))
        for size in range(len(bridges) + 1):
            for subset in itertools.combinations(bridges, size):
                yield blow_up(g, subset), d


class TestStrictFilter:
    """The strict filter runs the non-exempt tight checks smallest delta_Z
    first; the order must change neither its answer nor any list read in
    mask order."""

    def test_pool_at_g_minus_one(self):
        sets = strict = 0
        for g, d in _pool_blow_ups_g_minus_one():
            genus, checks = g.genus, _balance_checks(g)
            # the oracle searches the per-vertex box, which TestVertexBounds
            # checks against the Fraction bounds
            lows, highs = _vertex_bounds(g, genus, d)
            bs = enumerate_balanced(g, d)
            want_b, want_s = brute_force_balanced(
                list(g.weights), list(g.edges), set(g.exceptional), d,
                list(zip(lows, highs)),
            )
            assert bs.members == tuple(want_b), g
            assert bs.strict_members == tuple(want_s), g
            raised = [_threshold(genus, d, c.w, c.delta) + (not c.exempt) for c in checks]
            masks = [c.mask for c in checks]
            scale = 2 * (2 * genus - 2)
            want = _kernel_py.enumerate_box(lows, highs, d, masks, raised, scale)
            assert bs.strict_members == tuple(want), g
            sets += 1
            strict += bs.strict_size
        assert (sets, strict) == (47, 89)

    def test_tight_lists_keep_mask_order(self):
        sets = resorted = 0
        for g, d in _pool_blow_ups_g_minus_one():
            bs = enumerate_balanced(g, d)
            bounds, scale = bs.bounds, bs.bounds.scale
            want = [
                (c.mask, t // scale)
                for c, t in zip(bounds.checks, bounds.thresholds)
                if t % scale == 0
            ]
            assert [(c.mask, m) for c, m, _ in bounds.tight] == want
            assert want == sorted(want)
            deltas = [c.delta for c, _, _ in bounds.tight]
            resorted += deltas != sorted(deltas)
            for md in bs.members[::7]:  # every seventh member keeps it short
                got = [c.mask for c in bounds.equalities(md)]
                met = [
                    mask for mask, m in want
                    if sum(md[v] for v in _bits(mask)) == m
                ]
                assert got == met, (g, md)
            if g.is_stable:
                assert d_special_subcurve(g, d) == frozenset(_bits(want[0][0]))
            sets += 1
        # the delta order differs from mask order on every one of these tables
        assert (sets, resorted) == (47, 47)


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


def _full_table_cases():
    """(g, d) over one period of d: the _bound_cases graphs, and the
    analyze-g6 pool graphs with their blow-ups at each subset of the
    bridges whose side has an integral m_Z(d)."""
    for g in _bound_cases():
        for d in range(2 * g.genus - 2):
            yield g, d
    for weights, edges in analyze_pool():
        g = WeightedGraph(weights, edges)
        for d in range(2 * g.genus - 2):
            fractional = fractional_bridges(weights, edges, d)
            integral = sorted(separating_edges(g).difference(fractional))
            for size in range(len(integral) + 1):
                for subset in itertools.combinations(integral, size):
                    yield blow_up(g, subset), d


def _equality_unions(members, entries, scale):
    """For each member, the union of the boundaries of the entries (mask,
    threshold, boundary) that it meets with equality, scale * deg_Z ==
    threshold.  Summed column by column: a loop over members and entries
    costs seconds on the pool blow-ups."""
    if not members:
        return []
    columns = list(zip(*members))
    unions = [0] * len(members)
    for mask, t, boundary in entries:
        if t % scale == 0:
            sums = map(sum, zip(*(columns[v] for v in _bits(mask))))
            for i in [i for i, s in enumerate(sums) if s * scale == t]:
                unions[i] |= boundary
    return unions


class TestBondsDecide:
    """The table holds only the bonds; a full table over every connected
    proper Z, built here, gives the same members, strict members and
    S(mu)."""

    def test_full_table_agrees(self):
        cases = 0
        for g, d in _full_table_cases():
            genus = g.genus
            scale = 2 * (2 * genus - 2)
            on_exceptional = sum(
                1 << i for i, (u, v) in enumerate(g.edges)
                if u in g.exceptional or v in g.exceptional
            )
            full = []
            for mask in connected_subset_masks(g):
                w, delta, boundary = _subcurve(g, mask, g.incidence_masks)
                full.append((mask, _threshold(genus, d, w, delta), boundary))
            masks = [mask for mask, _, _ in full]
            thresholds = [t for _, t, _ in full]
            raised = [t + bool(b & ~on_exceptional) for _, t, b in full]
            lows, highs = _vertex_bounds(g, genus, d)
            bs = enumerate_balanced(g, d)
            for ts, want in ((thresholds, bs.members), (raised, bs.strict_members)):
                got = _kernel_py.enumerate_box(lows, highs, d, masks, ts, scale)
                assert tuple(got) == want, (g, d)
            # S(mu) reads the bonds' equalities; s_of_mu itself, which
            # rechecks balance first, is called on the first and last member
            bonds = zip(bs.bounds.checks, bs.bounds.thresholds)
            reduced = [(c.mask, t, c.boundary) for c, t in bonds]
            unions = _equality_unions(bs.members, full, scale)
            assert _equality_unions(bs.members, reduced, scale) == unions, (g, d)
            ends = zip(bs.members[:1] + bs.members[-1:], unions[:1] + unions[-1:])
            for md, union in ends:
                assert s_of_mu(g, md) == frozenset(_bits(union)), (g, md)
            cases += 1
        assert cases > 500


@pytest.mark.parametrize("degree", [1.5, 2.0, True])
def test_degree_must_be_an_integer(theta, degree):
    # the one check where the bounds are built names the degree
    message = re.escape(f"degree must be an integer, got {degree!r}")
    calls = (
        lambda: is_d_general(theta, degree),
        lambda: is_neron_type(theta, degree, route="weakly_general"),
        lambda: d_special_vine_scan(2, degree),
        lambda: d_special_subcurve(theta, degree),
        lambda: enumerate_balanced(theta, degree),
        lambda: m_lower_bound(theta, {0}, degree),
        # a caller's set of degree 1 does not let the degree through
        lambda: is_neron_type(
            theta, degree, route="count", balanced=enumerate_balanced(theta, 1)
        ),
        lambda: strata_index(theta, degree, balanced=enumerate_balanced(theta, 1)),
    )
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


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
        # every point of the box, members and non-members
        checked = 0
        for g, d, box in _padded_box_cases():
            for md in _box_points(box, d):
                found = equality_subcurves(g, md)
                assert len(found) == len(set(found))
                assert set(found) == _brute_force_equality_subcurves(g, md)
                checked += 1
        assert checked > 10000

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
    def test_computes_each_graph_once(self, theta, theta_pendant, monkeypatch):
        from neronjac import balance, neron

        calls = []
        real = balance.enumerate_balanced

        def counted(h, d):
            calls.append(h)
            return real(h, d)

        for mod in (balance, neron):
            monkeypatch.setattr(mod, "enumerate_balanced", counted)
        # the set of an equal graph built separately is shared by the verdict
        own = counted(blow_up(theta, ()), 1)
        is_neron_type(theta, 1, balanced=own)
        assert calls == [theta]
        # one enumeration of g, then one of the blow-up at its bridges whose
        # side has an integral m_Z(d), none repeated
        calls.clear()
        is_neron_type(theta_pendant, 2)
        assert calls == [theta_pendant, blow_up(theta_pendant, (3,))]

    def test_degree_mismatch_rejected(self, theta_pendant):
        # a set of another degree is refused, naming both degrees, even where
        # the verdict would enumerate the blow-ups itself
        for have, want in ((1, 2), (2, 1), (3, -1)):
            wrong = enumerate_balanced(theta_pendant, have)
            for call in (is_neron_type, component_count, strata_index):
                with pytest.raises(ValueError, match=f"degree {have}, not {want}"):
                    call(theta_pendant, want, balanced=wrong)


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
        for call in (is_d_general, is_weakly_d_general, d_special_subcurve):
            with pytest.raises(ValueError, match="stable"):
                call(g, 1)

    def test_special_subcurve_theta(self, theta):
        # m_{0}(d) = d/2 - 3/2 is an integer exactly when d is odd
        for d in range(-4, 6):
            assert d_special_subcurve(theta, d) == (
                frozenset({0}) if d % 2 else None
            )

    def test_special_subcurve_is_first_integral_vine_split(self):
        # the first connected Z in mask order with Z^c connected and
        # m_Z(d) an integer
        for genus, mv in ((2, 2), (3, 4), (4, 3)):
            for g in census(genus, mv):
                n = g.n_vertices
                splits = [
                    zs
                    for zs in (
                        frozenset(v for v in range(n) if mask >> v & 1)
                        for mask in range(1, (1 << n) - 1)
                    )
                    if spans_connected(g.edges, zs)
                    and spans_connected(g.edges, set(range(n)) - zs)
                ]
                for d in range(2 * genus - 2):
                    integral = [
                        zs for zs in splits
                        if m_lower_bound(g, zs, d).denominator == 1
                    ]
                    assert d_special_subcurve(g, d) == (
                        integral[0] if integral else None
                    )

    def test_answers_match_enumeration(self, theta_pendant):
        contracted, _ = contract_separating(theta_pendant)
        for d in range(-3, 6):
            assert is_d_general(theta_pendant, d) == (
                enumerate_balanced(theta_pendant, d).d_general
            )
            assert is_weakly_d_general(theta_pendant, d) == (
                enumerate_balanced(contracted, d).d_general
            )


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
