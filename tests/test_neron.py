import dataclasses
import itertools

import pytest

from neronjac import (
    NeronVerdict,
    RouteDisagreement,
    Stratum,
    UniquenessError,
    WeightedGraph,
    census,
    blow_up,
    class_group,
    codim_report,
    component_count,
    contract_separating,
    enumerate_balanced,
    extremal_pair,
    gcd_remark_audit,
    is_d_general,
    is_neron_type,
    is_tree_like,
    is_weakly_d_general,
    s_of_mu,
    separating_edges,
    strata_index,
)
from oracles import brute_force_balanced, fractional_bridges


class TestSOfMu:
    def test_theta_strict_member_empty(self, theta):
        assert s_of_mu(theta, (0, 1)) == frozenset()

    def test_theta_equality_member(self, theta):
        # vertex 0 meets its bound m = -1, so all three boundary edges enter
        assert s_of_mu(theta, (-1, 2)) == {0, 1, 2}

    def test_bridge_graph(self, bridge_graph):
        assert s_of_mu(bridge_graph, (0, 1)) == {0}
        assert s_of_mu(bridge_graph, (1, 0)) == {0}

    def test_unbalanced_rejected(self, theta):
        with pytest.raises(ValueError):
            s_of_mu(theta, (-2, 3))

    def test_builds_bounds_once(self, theta, theta_pendant, monkeypatch):
        from neronjac.balance import _SubcurveBounds

        built = []
        real = _SubcurveBounds.__init__

        def counted(self, *args):
            built.append(args)
            real(self, *args)

        monkeypatch.setattr(_SubcurveBounds, "__init__", counted)
        for g, md in ((theta, (-1, 2)), (theta, (0, 1)), (theta_pendant, (0, 1, 1))):
            built.clear()
            s_of_mu(g, md)
            assert len(built) == 1


class TestExtremalPair:
    def test_strict_member_maps_to_itself(self, theta):
        ep = extremal_pair(theta, (0, 1))
        assert ep.s_mu == frozenset()
        assert ep.d_mu == (0, 1)

    def test_theta_equality_member(self, theta):
        ep = extremal_pair(theta, (-1, 2))
        assert ep.s_mu == {0, 1, 2}
        assert ep.d_mu == (-1, -1, 1, 1, 1)

    def test_bridge_graph(self, bridge_graph):
        for md in ((0, 1), (1, 0)):
            ep = extremal_pair(bridge_graph, md)
            assert ep.s_mu == {0}
            assert ep.d_mu == (0, 0, 1)

    def test_representative_independent(self, theta):
        # (-1, 2) and (2, -1) are in the same class and must land on the
        # same extremal pair
        cg = class_group(theta)
        assert cg.same_class((-1, 2), (2, -1))
        a = extremal_pair(theta, (-1, 2))
        b = extremal_pair(theta, (2, -1))
        assert (a.s_mu, a.d_mu) == (b.s_mu, b.d_mu)

    @pytest.mark.parametrize("genus,mv", [(2, 2), (3, 3)])
    def test_unique_over_census(self, genus, mv):
        # the search must never raise UniquenessError on any balanced
        # multidegree of any small graph
        for g in census(genus, mv):
            for d in (genus - 1, genus, genus + 1):
                for md in enumerate_balanced(g, d).members:
                    extremal_pair(g, md)


class TestStrataIndex:
    def test_theta_degree_zero(self, theta):
        assert strata_index(theta, 0) == [
            Stratum(edges=(), multidegree=(-1, 1)),
            Stratum(edges=(), multidegree=(0, 0)),
            Stratum(edges=(), multidegree=(1, -1)),
        ]

    def test_theta_pendant_degree_two(self, theta_pendant):
        # no strictly balanced multidegree exists without blowing up the
        # bridge (edge 3)
        assert strata_index(theta_pendant, 2) == [
            Stratum(edges=(3,), multidegree=(0, 1, 0, 1)),
            Stratum(edges=(3,), multidegree=(1, 0, 0, 1)),
        ]

    def test_component_count(self, theta):
        assert component_count(theta, 0) == 3
        assert component_count(theta, 1) == 2

    def test_unstable_rejected(self):
        g = WeightedGraph((0, 2), ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            strata_index(g, 1)

    @pytest.mark.parametrize("genus,mv", [(2, 2), (3, 3)])
    def test_matches_extremal_pairs(self, genus, mv):
        # the extremal pairs whose locus consists of bridges are exactly the
        # indexed strata
        from neronjac import separating_edges

        for g in census(genus, mv):
            bridges = separating_edges(g)
            for d in (genus - 1, genus):
                strata = {
                    (s.edges, s.multidegree) for s in strata_index(g, d)
                }
                reached = set()
                for md in enumerate_balanced(g, d).members:
                    ep = extremal_pair(g, md)
                    if ep.s_mu <= bridges:
                        reached.add((tuple(sorted(ep.s_mu)), ep.d_mu))
                assert reached == strata


def _bridged_census():
    """(g, S, d): the census graphs with a bridge (genus 2 at <= 2
    vertices, genus 3 at <= 4), every subset S of their bridges, the empty
    one first, and d over one period plus one negative degree."""
    for genus, mv in ((2, 2), (3, 4)):
        for g in census(genus, mv):
            bridges = sorted(separating_edges(g))
            if not bridges:
                continue
            for d in range(-1, 2 * genus - 2):
                for size in range(len(bridges) + 1):
                    for subset in itertools.combinations(bridges, size):
                        yield g, subset, d


class TestFractionalBridges:
    """A blow-up at a set of bridges holding one whose side has a
    fractional m_Z(d) has no balanced multidegree, and strata_index skips
    exactly those sets."""

    @staticmethod
    def _balanced(hat, d):
        if hat.genus == 2:
            box = [(-2 * hat.genus, 3 * hat.genus)] * hat.n_vertices
            members, _ = brute_force_balanced(
                list(hat.weights), list(hat.edges), set(hat.exceptional), d, box
            )
            return members
        return enumerate_balanced(hat, d).members

    def test_flagged_exactly_when_empty(self):
        flagged = 0
        for g, subset, d in _bridged_census():
            if not subset:
                continue
            fractional = set(fractional_bridges(g.weights, g.edges, d))
            empty = not self._balanced(blow_up(g, subset), d)
            assert empty == bool(fractional & set(subset)), (g, subset, d)
            flagged += empty
        assert flagged  # the lemma is exercised

    def test_count_is_the_sum_over_every_bridge_subset(self):
        strict = {}
        for g, subset, d in _bridged_census():
            hat = blow_up(g, subset) if subset else g
            strict[g, d] = strict.get((g, d), 0) + len(
                enumerate_balanced(hat, d).strict_members
            )
        for (g, d), count in strict.items():
            assert component_count(g, d) == count, (g, d)


class TestNeronType:
    def test_theta_even_degrees(self, theta):
        v = is_neron_type(theta, 0)
        assert v.verdict
        assert v.component_count == 3
        assert v.class_group_order == 3
        assert v.routes == {
            "count": True,
            "criterion": True,
            "weakly_general": True,
        }

    def test_theta_odd_degrees(self, theta):
        v = is_neron_type(theta, 1)
        assert not v.verdict
        assert v.component_count == 2
        assert v.class_group_order == 3

    def test_single_route(self, theta):
        for route in ("count", "criterion", "weakly_general"):
            assert is_neron_type(theta, 0, route=route).verdict
            assert not is_neron_type(theta, 1, route=route).verdict

    def test_bad_route(self, theta):
        with pytest.raises(ValueError):
            is_neron_type(theta, 0, route="guess")

    def test_low_genus_rejected(self):
        with pytest.raises(ValueError):
            is_neron_type(WeightedGraph((1,), ()), 0)

    def test_unstable_rejected(self):
        g = WeightedGraph((0, 2), ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            is_neron_type(g, 0)

    @pytest.mark.parametrize("genus,mv", [(2, 2), (3, 3)])
    def test_routes_agree_on_census(self, genus, mv):
        for g in census(genus, mv):
            for d in range(-genus, 2 * genus + 1):
                is_neron_type(g, d, route="all")  # RouteDisagreement is fatal

    def test_general_implies_neron(self, theta, dumbbell):
        for g in (theta, dumbbell):
            for d in range(-3, 5):
                if is_d_general(g, d):
                    assert is_neron_type(g, d).verdict


class TestGMinusOne:
    """At d = g - 1 the verdict is of Neron type iff g is tree-like."""

    def test_tree_like_graphs(self, bridge_graph, path3):
        for g in (bridge_graph, path3):
            assert is_neron_type(g, g.genus - 1).verdict
            assert is_tree_like(g)

    def test_theta(self, theta):
        assert not is_neron_type(theta, theta.genus - 1).verdict
        assert not is_tree_like(theta)

    @pytest.mark.parametrize("genus,mv", [(2, 2), (3, 3)])
    def test_dichotomy(self, genus, mv):
        for g in census(genus, mv):
            assert is_neron_type(g, g.genus - 1).verdict == is_tree_like(g)


class TestSharedEnumeration:
    @staticmethod
    def _blow_ups(g, d):
        # the graphs one verdict enumerates: g itself, then the blow-ups at
        # every nonempty subset of the bridges whose side has an integral
        # m_Z(d)
        fractional = fractional_bridges(g.weights, g.edges, d)
        integral = [i for i in sorted(separating_edges(g)) if i not in fractional]
        return [
            blow_up(g, subset)
            for size in range(len(integral) + 1)
            for subset in itertools.combinations(integral, size)
        ]

    @staticmethod
    def _count(monkeypatch):
        """Record every enumerate_balanced and kernel call from now on."""
        from neronjac import _kernel, balance, neron

        calls, kernel = [], []
        enumerate_real, kernel_real = balance.enumerate_balanced, _kernel.enumerate_box

        def counted(h, d):
            calls.append((h, d))
            return enumerate_real(h, d)

        def counted_kernel(*args):
            kernel.append(args)
            return kernel_real(*args)

        for mod in (balance, neron):
            monkeypatch.setattr(mod, "enumerate_balanced", counted)
        monkeypatch.setattr(_kernel, "enumerate_box", counted_kernel)
        return calls, kernel

    @staticmethod
    def _verdicts(genus):
        """(g, d): at genus 2 and 3 every census graph at <= 4 vertices
        over d in -genus..2 genus.  At genus 4 only the pairs with d in
        0..5 at which g has both a bridge whose side has an integral
        m_Z(d) and one whose side has a fractional m_Z(d).  Genus 2 and 3
        have no such pair: at genus 2 every side has genus 1, and at genus
        3 sides of genus 1 and 2 both have an integral m_Z(d) exactly at
        d = 2 mod 4."""
        if genus < 4:
            return [
                (g, d) for g in census(genus, 4) for d in range(-genus, 2 * genus + 1)
            ]
        mixed = []
        for g in census(genus, 4):
            for d in range(2 * genus - 2):
                fractional = set(fractional_bridges(g.weights, g.edges, d))
                if fractional and separating_edges(g) - fractional:
                    mixed.append((g, d))
        assert len(mixed) == 98
        return mixed

    @pytest.mark.parametrize("genus", [2, 3, 4])
    def test_one_enumeration_per_distinct_graph(self, genus, monkeypatch):
        calls, kernel = self._count(monkeypatch)
        for g, d in self._verdicts(genus):
            contracted = contract_separating(g)[0]
            hats = self._blow_ups(g, d)
            calls.clear()
            kernel.clear()
            is_neron_type(g, d)
            # one enumeration per blow-up, none of the contraction, and no
            # kernel call outside them
            assert [h for h, _ in calls] == hats, (g, d)
            assert {e for _, e in calls} == {d}
            assert len(kernel) == len(hats)
            if contracted != g:
                assert contracted not in {h for h, _ in calls}

    def test_fractional_bridge_is_not_blown_up(self, theta_pendant, monkeypatch):
        # the pendant side has genus 1, so m_Z(d) = d/4 - 1/2 is an integer
        # exactly when d = 2 mod 4
        from neronjac import graphs, neron

        calls, kernel = self._count(monkeypatch)
        blown = []
        real = graphs.blow_up

        def counted(g, edge_subset):
            blown.append(tuple(edge_subset))
            return real(g, edge_subset)

        monkeypatch.setattr(neron, "blow_up", counted)
        is_neron_type(theta_pendant, 1)
        assert len(kernel) == 1 and blown == []
        assert [h for h, _ in calls] == [theta_pendant]
        calls.clear()
        kernel.clear()
        is_neron_type(theta_pendant, 2)
        assert len(kernel) == 2 and blown == [(3,)]
        assert [h for h, _ in calls] == self._blow_ups(theta_pendant, 2)

    def test_caller_sets_are_used(self, theta_pendant, monkeypatch):
        want = is_neron_type(theta_pendant, 2)
        own = enumerate_balanced(theta_pendant, 2)
        calls, _ = self._count(monkeypatch)
        assert is_neron_type(theta_pendant, 2, balanced=own) == want
        assert [h for h, _ in calls] == self._blow_ups(theta_pendant, 2)[1:]
        # a set with no strict members drops the empty-S strata
        hollow = dataclasses.replace(own, strict_members=())
        count = component_count(theta_pendant, 2, balanced=hollow)
        assert count == want.component_count - own.strict_size
        assert len(strata_index(theta_pendant, 2, balanced=hollow)) == count

    def test_criterion_reads_the_sets_bounds(self, theta, theta_pendant, monkeypatch):
        # the cleared bounds of (g, d) are built once, by g's enumeration;
        # only the weakly-general route builds its own, on the contraction
        from neronjac.balance import _SubcurveBounds

        built = []
        real = _SubcurveBounds.__init__

        def counted(self, g, genus, d):
            built.append(g)
            real(self, g, genus, d)

        monkeypatch.setattr(_SubcurveBounds, "__init__", counted)
        for g in (theta, theta_pendant):
            contracted = contract_separating(g)[0]
            for d in range(-2, 6):
                hats = self._blow_ups(g, d)
                built.clear()
                want = is_neron_type(g, d)
                assert built == hats + [contracted]
                built.clear()
                assert is_neron_type(g, d, route="criterion") == NeronVerdict(
                    want.verdict, {"criterion": want.verdict}, None, want.class_group_order
                )
                assert built == [g]

    def test_component_count_once_per_verdict(self, theta_pendant, monkeypatch):
        from neronjac import neron

        calls = []
        real = neron.strata_index

        def counted(g, d, **kwargs):
            calls.append(d)
            return real(g, d, **kwargs)

        monkeypatch.setattr(neron, "strata_index", counted)
        v = is_neron_type(theta_pendant, 2)
        assert calls == [2]
        assert v.component_count == component_count(theta_pendant, 2)

    def test_degree_mismatch_rejected(self, theta):
        wrong = enumerate_balanced(theta, 1)
        for call in (is_neron_type, component_count, strata_index):
            with pytest.raises(ValueError, match="degree"):
                call(theta, 0, balanced=wrong)
        with pytest.raises(ValueError, match="degree"):
            is_neron_type(theta, 0, route="weakly_general", balanced=wrong)

    def test_generality_calls_no_kernel(self, monkeypatch):
        calls, kernel = self._count(monkeypatch)
        for g in census(3, 4):
            for d in range(-3, 9):
                weakly = is_weakly_d_general(g, d)
                is_d_general(g, d)
                verdict = is_neron_type(g, d, route="weakly_general")
                assert verdict.routes == {"weakly_general": weakly}
        for genus in (2, 3, 4, 5):
            for d in range(2 * genus - 2):
                codim_report(genus, d)
        gcd_remark_audit(3, range(4), max_vertices=3)
        assert calls == [] and kernel == []
