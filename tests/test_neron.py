import itertools

import pytest

from neronjac import (
    BalancedSets,
    RouteDisagreement,
    Stratum,
    UniquenessError,
    WeightedGraph,
    census,
    blow_up,
    check_g_minus_1,
    class_group,
    component_count,
    contract_separating,
    enumerate_balanced,
    extremal_pair,
    is_d_general,
    is_neron_type,
    is_tree_like,
    push_down,
    s_of_mu,
    separating_edges,
    strata_index,
)


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


class TestPushDown:
    def test_theta_full_blow_up(self, theta):
        hat_md = (-1, -1, 1, 1, 1)
        assert push_down(theta, (0, 1, 2), hat_md, side="low") == (2, -1)
        assert push_down(theta, (0, 1, 2), hat_md, side="high") == (-1, 2)

    def test_empty_subset_is_identity(self, theta):
        assert push_down(theta, (), (0, 1)) == (0, 1)

    def test_bad_side(self, theta):
        with pytest.raises(ValueError):
            push_down(theta, (0,), (0, 0, 1), side="up")

    def test_length_mismatch(self, theta):
        with pytest.raises(ValueError):
            push_down(theta, (0,), (0, 1))


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
    def test_tree_like_graphs(self, bridge_graph, path3):
        for g in (bridge_graph, path3):
            verdict, tree = check_g_minus_1(g)
            assert verdict and tree

    def test_theta(self, theta):
        assert check_g_minus_1(theta) == (False, False)

    @pytest.mark.parametrize("genus,mv", [(2, 2), (3, 3)])
    def test_dichotomy(self, genus, mv):
        for g in census(genus, mv):
            verdict, tree = check_g_minus_1(g)
            assert verdict == tree == is_tree_like(g)


class TestSharedEnumeration:
    @staticmethod
    def _touched(g):
        # the graphs one verdict needs balanced sets of: the blow-ups at
        # every bridge subset (the empty one is g) and the bridge contraction
        bridges = sorted(separating_edges(g))
        out = {contract_separating(g)[0]}
        for size in range(len(bridges) + 1):
            for subset in itertools.combinations(bridges, size):
                out.add(blow_up(g, subset))
        return out

    @pytest.mark.parametrize("genus", [2, 3])
    def test_one_enumeration_per_distinct_graph(self, genus, monkeypatch):
        from neronjac import balance

        calls = []
        real = balance.enumerate_balanced

        def counted(h, d):
            calls.append((h, d))
            return real(h, d)

        monkeypatch.setattr(balance, "enumerate_balanced", counted)
        for g in census(genus, 4):
            touched = self._touched(g)
            for d in range(-genus, 2 * genus + 1):
                calls.clear()
                is_neron_type(g, d)
                assert len(calls) == len(touched)
                assert {h for h, _ in calls} == touched
                assert {e for _, e in calls} == {d}

    def test_caller_sets_are_used(self, theta_pendant, monkeypatch):
        from neronjac import balance

        want = is_neron_type(theta_pendant, 2)
        sets = BalancedSets(2)
        for h in self._touched(theta_pendant):
            sets(h)
        monkeypatch.setattr(
            balance, "enumerate_balanced", lambda h, d: pytest.fail("recomputed")
        )
        assert is_neron_type(theta_pendant, 2, sets=sets) == want

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
        with pytest.raises(ValueError, match="degree"):
            is_neron_type(theta, 0, sets=BalancedSets(1))
