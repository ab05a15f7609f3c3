"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS line when
it succeeds; any assertion failure marks the criterion failed.  The census
sweeps here are the authoritative exhaustive checks, run at full scale:
genus 2 and 3 up to 4 vertices with d in [-2g, 4g], genus 4 up to 3
vertices where noted.
"""

import random
import sys
from pathlib import Path

import pytest

from neronjac import (
    WeightedGraph,
    alpha,
    census,
    class_group,
    component_count,
    contract_separating,
    d_special_subcurve,
    d_special_vine_scan,
    enumerate_balanced,
    extremal_pair,
    gcd_remark_audit,
    is_d_general,
    is_neron_type,
    is_tree_like,
    predicted_codim,
    separating_edges,
    vine,
)
from neronjac.cli import CENSUS_COLUMNS, census_rows, emit
from oracles import brute_force_balanced, integral_vine_splits, spanning_tree_count

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import random_stable_graph  # noqa: E402


def _passed(n, message):
    # bypass pytest capture so the line shows in any run
    print(f"PASS criterion {n}: {message}", file=sys.__stdout__)


@pytest.fixture(scope="module")
def census_23():
    """(graph, degree) pairs for the full genus-2/3 census, <= 4 vertices."""
    pairs = []
    for genus in (2, 3):
        for g in census(genus, 4):
            for d in range(-2 * genus, 4 * genus + 1):
                pairs.append((genus, g, d))
    return pairs


@pytest.fixture(scope="module")
def verdicts(census_23):
    """Route-checked verdicts for every census pair; computing them at all
    already exercises route agreement (disagreement raises)."""
    out = {}
    for genus, g, d in census_23:
        out[(g, d)] = is_neron_type(g, d, route="all")
    return out


def test_criterion_1_theta_exact_values(theta):
    b1 = enumerate_balanced(theta, 1)
    assert b1.size == 4
    assert b1.strict_size == 2
    assert class_group(theta).order == 3
    assert component_count(theta, 1) == 2
    assert is_neron_type(theta, 1).verdict is False

    b2 = enumerate_balanced(theta, 2)
    assert b2.size == 3
    assert b2.strict_size == 3
    assert component_count(theta, 2) == 3
    assert is_neron_type(theta, 2).verdict is True

    # independent oracle: brute force over the box [-3, 5]^2
    want_b, want_s = brute_force_balanced([0, 0], [(0, 1)] * 3, set(), 1, [(-3, 5)] * 2)
    assert sorted(b1.members) == sorted(want_b)
    assert sorted(b1.strict_members) == sorted(want_s)
    # coset oracle: degree-0 lattice modulo <(3, -3)> has 3 classes
    assert len({a % 3 for a in range(-9, 10)}) == class_group(theta).order
    _passed(1, "theta graph exact values at d = 1 and d = 2")


def test_criterion_2_route_agreement(census_23, verdicts):
    # building the verdicts fixture ran all three routes on every pair; a
    # disagreement raises RouteDisagreement and fails the fixture itself
    assert len(verdicts) == len({(g, d) for _, g, d in census_23})
    for (g, d), v in verdicts.items():
        assert set(v.routes) == {"count", "criterion", "weakly_general"}
        assert len(set(v.routes.values())) == 1
    _passed(2, f"three routes agree on all {len(verdicts)} (graph, d) pairs")


def test_criterion_3_sandwich(census_23, verdicts):
    for genus, g, d in census_23:
        bs = enumerate_balanced(g, d)
        order = class_group(g).order
        assert bs.strict_size <= order <= bs.size
        tight = bs.strict_size == order == bs.size
        assert tight == is_d_general(g, d)
    _passed(3, "#B <= #Delta <= #Bbar with equality exactly when d-general")


def test_criterion_4_degree_g_minus_1_dichotomy():
    checked = 0
    for genus, mv in ((2, 4), (3, 4), (4, 3)):
        for g in census(genus, mv):
            verdict = is_neron_type(g, genus - 1, route="all").verdict
            assert verdict == is_tree_like(g)
            checked += 1
    _passed(4, f"d = g-1 verdict equals tree-likeness on {checked} graphs")


def test_criterion_5_bridge_free(census_23, verdicts):
    checked = 0
    for genus, g, d in census_23:
        if separating_edges(g):
            continue
        assert verdicts[(g, d)].verdict == is_d_general(g, d)
        checked += 1
    _passed(5, f"bridge-free verdict equals d-generality on {checked} pairs")


def test_criterion_6_extremal_pair_uniqueness(census_23):
    pairs_checked = 0
    for genus, g, d in census_23:
        cg = class_group(g)
        by_class = {}
        for md in enumerate_balanced(g, d).members:
            ep = extremal_pair(g, md)  # raises UniquenessError on violation
            key = cg.canonicalizer(md)
            prev = by_class.setdefault(key, (ep.s_mu, ep.d_mu))
            assert prev == (ep.s_mu, ep.d_mu)
            pairs_checked += 1
    _passed(6, f"extremal pair unique and class-invariant on {pairs_checked} multidegrees")


def test_criterion_7_alpha_surjective(census_23):
    checked = 0
    for genus, g, d in census_23:
        if not separating_edges(g):
            continue
        contracted, _ = contract_separating(g)
        target = set(enumerate_balanced(contracted, d).members)
        image = {alpha(g, md) for md in enumerate_balanced(g, d).members}
        assert image == target
        checked += 1
    _passed(7, f"alpha surjects onto the contraction on {checked} bridged pairs")


def test_criterion_8_class_group_oracle():
    checked = 0
    for genus in (2, 3):
        for g in census(genus, 4):
            assert class_group(g).order == spanning_tree_count(
                g.n_vertices, list(g.edges)
            )
            checked += 1
    _passed(8, f"class-group order matches spanning-tree oracle on {checked} graphs")


def test_criterion_9_gcd_trichotomy(capsys):
    for genus in (2, 3, 4):
        for d in range(-2 * genus, 4 * genus + 1):
            gcd_value, codim = predicted_codim(genus, d)
            scan = d_special_vine_scan(genus, d, min_delta=2)
            if codim == "empty":
                assert scan == []
            else:
                assert scan != []
            if codim == "3":
                assert gcd_value == 2 and genus % 2 == 0
                assert not any(v.delta == 2 for v in scan)
                half = genus // 2 - 1
                assert any(
                    v.delta == 3 and v.g1 == v.g2 == half for v in scan
                )
    # the codimension is the least number of nodes of a d-special vine
    for genus in (2, 3, 4, 5):
        for d in range(2 * genus - 2):
            scan = d_special_vine_scan(genus, d, min_delta=2)
            least = str(min(v.delta for v in scan)) if scan else "empty"
            assert predicted_codim(genus, d)[1] == least, (genus, d)
    # a stable graph has at most 2g - 2 vertices, so these censuses are
    # complete: every curve is d-general iff no vine is d-special iff
    # gcd(d - g + 1, 2g - 2) = 1, and the modulus 2g - 1 is wrong
    for genus in (2, 3):
        for r in gcd_remark_audit(genus, range(2 * genus - 2), 2 * genus - 2):
            no_vine = d_special_vine_scan(genus, r.degree, min_delta=1) == []
            assert r.all_general == no_vine == r.gcd_2g_minus_2_is_1, (genus, r)
    assert not gcd_remark_audit(3, [0], 4)[0].agree_2g_minus_1
    with capsys.disabled():
        print("\ngcd modulus audit, genus 4, partial census (<= 4 of 6 vertices):")
        for r in gcd_remark_audit(4, range(0, 10)):
            print(
                f"  g=4 d={r.degree} all_general={r.all_general} "
                f"gcd(2g-1)={r.gcd_2g_minus_1_is_1} "
                f"gcd(2g-2)={r.gcd_2g_minus_2_is_1}"
            )
    _passed(
        9,
        "gcd trichotomy holds for genus 2-4, codimension = least vine delta for "
        "genus 2-5, modulus 2g-2 exact on the complete genus 2-3 censuses; "
        "genus-4 audit emitted",
    )


def test_criterion_10_determinism():
    import io

    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        rows = census_rows(3, 3, list(range(-6, 13)))
        emit(rows, CENSUS_COLUMNS, "json-lines", buf)
        outputs.append(buf.getvalue().encode())
    assert outputs[0] == outputs[1]
    _passed(10, "consecutive census runs are byte-identical")


def _random_graphs(count, seed=11):
    """Random stable graphs of 3 to 8 vertices with loops and parallel
    edges; random_stable_graph retries forever unless n <= 2g - 2."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(3, 8)
        least = (n + 3) // 2  # the least genus with n <= 2g - 2
        genus = rng.randint(least, least + 1)
        weights, edges = random_stable_graph(rng, n, genus, (1, 2))
        out.append(WeightedGraph(weights, edges))
    return out


def _integrality_agrees(g, d, verdict):
    """The integrality criterion, in Fractions (oracle) and in the library:
    on g against the enumeration, on g's bridge contraction against every
    route of the Neron verdict."""
    splits = integral_vine_splits(g.weights, g.edges, d)
    z = d_special_subcurve(g, d)
    assert (z is None) == (not splits) == enumerate_balanced(g, d).d_general
    assert z is None or z in splits
    contracted, _ = contract_separating(g)
    weakly = not integral_vine_splits(contracted.weights, contracted.edges, d)
    assert (d_special_subcurve(contracted, d) is None) == weakly
    assert verdict.verdict == weakly
    assert set(verdict.routes.values()) == {weakly}


def test_criterion_11_integrality_criterion(census_23, verdicts):
    checked = 0
    for genus, g, d in census_23:
        if -genus <= d <= 3 * genus:
            _integrality_agrees(g, d, verdicts[(g, d)])
            checked += 1
    rng = random.Random(12)
    for g in _random_graphs(40):
        for d in rng.sample(range(2 * g.genus - 2), 3):
            _integrality_agrees(g, d, is_neron_type(g, d, route="all"))
            checked += 1
    _passed(11, f"d-generality is the integrality criterion on {checked} pairs")
