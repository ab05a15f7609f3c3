import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neronjac import (
    WeightedGraph,
    census,
    class_group,
    contract_separating,
    intersection_matrix,
    smith_normal_form,
)
from neronjac.graphs import canonical_form
from oracles import spanning_tree_count


class TestIntersectionMatrix:
    def test_theta(self, theta):
        assert intersection_matrix(theta) == [[-3, 3], [3, -3]]

    def test_loops_excluded(self):
        g = WeightedGraph((0,), ((0, 0), (0, 0)))
        assert intersection_matrix(g) == [[0]]

    def test_path3(self, path3):
        assert intersection_matrix(path3) == [[-1, 1, 0], [1, -2, 1], [0, 1, -1]]

    def test_rows_sum_to_zero(self):
        for g in census(3, 3):
            for row in intersection_matrix(g):
                assert sum(row) == 0


class TestSmithNormalForm:
    @pytest.mark.parametrize(
        "matrix",
        [
            [[2, 0], [0, 3]],
            [[3, 1], [1, 3]],
            [[-3]],
            [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
        ],
    )
    def test_transform_consistency(self, matrix):
        n = len(matrix)
        diag, u, uinv = smith_normal_form(matrix)
        # U and Uinv are mutually inverse
        prod = [
            [sum(u[i][k] * uinv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]
        # divisibility chain on nonzero factors
        nonzero = [d for d in diag if d != 0]
        assert all(d > 0 for d in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0

    def test_known_invariant_factors(self):
        diag, _, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        assert diag == [2, 6, 12]


def _det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def _invariant_factors(m):
    """s_k = D_k / D_(k-1), with D_k the gcd of all k x k minors (D_0 = 1)
    and s_k = 0 once D_k = 0."""
    n = len(m)
    divisors = [1]
    for k in range(1, n + 1):
        dk = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                dk = math.gcd(dk, _det([[m[i][j] for j in cols] for i in rows]))
        divisors.append(dk)
    return [
        divisors[k] // divisors[k - 1] if divisors[k] else 0 for k in range(1, n + 1)
    ]


square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


class TestSmithNormalFormProperties:
    @given(square_matrices)
    @settings(max_examples=300, deadline=None)
    def test_divisibility_chain_zeros_last(self, matrix):
        diag, _, _ = smith_normal_form(matrix)
        assert len(diag) == len(matrix)
        nonzero = [d for d in diag if d != 0]
        assert diag == nonzero + [0] * (len(diag) - len(nonzero))
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0

    @given(square_matrices)
    @settings(max_examples=300, deadline=None)
    def test_row_transforms_inverse(self, matrix):
        n = len(matrix)
        _, u, uinv = smith_normal_form(matrix)
        prod = [
            [sum(u[i][k] * uinv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]

    @given(square_matrices)
    @settings(max_examples=300, deadline=None)
    def test_diagonal_is_determinantal_invariant_factors(self, matrix):
        diag, _, _ = smith_normal_form(matrix)
        assert diag == _invariant_factors(matrix)


class TestClassGroup:
    def test_theta_order_three(self, theta):
        cg = class_group(theta)
        assert cg.invariant_factors == [3]
        assert cg.order == 3

    def test_theta_against_coset_oracle(self, theta):
        # degree-0 vectors on 2 vertices are (a, -a); the column lattice is
        # generated by (-3, 3), so the quotient has order 3
        reps = set()
        for a in range(-6, 7):
            reps.add(a % 3)
        assert len(reps) == class_group(theta).order

    def test_tree_like_trivial(self, bridge_graph, path3):
        assert class_group(bridge_graph).order == 1
        assert class_group(path3).order == 1

    def test_four_cycle(self, four_cycle):
        assert class_group(four_cycle).order == 4
        assert spanning_tree_count(4, list(four_cycle.edges)) == 4

    def test_single_vertex(self):
        assert class_group(WeightedGraph((2,), ())).order == 1

    @pytest.mark.parametrize("genus,mv", [(2, 2), (3, 3)])
    def test_matrix_tree_oracle(self, genus, mv):
        for g in census(genus, mv):
            assert class_group(g).order == spanning_tree_count(
                g.n_vertices, list(g.edges)
            )

    def test_isomorphism_invariant(self):
        a = WeightedGraph((1, 0, 0), ((0, 1), (1, 2), (1, 2), (0, 2)))
        b = WeightedGraph((0, 0, 1), ((1, 2), (0, 1), (0, 1), (0, 2)))
        assert canonical_form(a) == canonical_form(b)
        assert (
            class_group(a).invariant_factors == class_group(b).invariant_factors
        )

    def test_bridges_do_not_change_order(self):
        for g in census(3, 3):
            contracted, _ = contract_separating(g)
            assert class_group(g).order == class_group(contracted).order


class TestSameClass:
    def test_reflexive(self, theta):
        assert class_group(theta).same_class((0, 1), (0, 1))

    def test_theta_lattice_shift(self, theta):
        assert class_group(theta).same_class((-1, 2), (2, -1))

    def test_theta_distinct(self, theta):
        assert not class_group(theta).same_class((0, 1), (1, 0))

    def test_total_degree_mismatch_rejected(self, theta):
        with pytest.raises(ValueError):
            class_group(theta).same_class((0, 1), (0, 2))

    def test_equivalence_relation(self, theta, four_cycle):
        for g in (theta, four_cycle):
            cg = class_group(g)
            n = g.n_vertices
            box = [md for md in itertools.product(range(-2, 3), repeat=n) if sum(md) == 1]
            for d1 in box[:12]:
                for d2 in box[:12]:
                    if cg.same_class(d1, d2):
                        assert cg.same_class(d2, d1)
                        for d3 in box[:12]:
                            if cg.same_class(d2, d3):
                                assert cg.same_class(d1, d3)


class TestRepresentatives:
    def test_theta_degree_one(self, theta):
        cg = class_group(theta)
        reps = cg.representatives(1)
        assert len(reps) == 3
        for a, b in itertools.combinations(reps, 2):
            assert not cg.same_class(a, b)
        assert all(sum(r) == 1 for r in reps)

    def test_single_vertex(self):
        g = WeightedGraph((2,), ())
        assert class_group(g).representatives(5) == [(5,)]

    def test_tree_like_single_class(self, path3):
        assert len(class_group(path3).representatives(3)) == 1

    def test_hits_every_class_once(self, four_cycle):
        # brute-force: every total-degree-1 vector in a box is equivalent to
        # exactly one representative
        cg = class_group(four_cycle)
        reps = cg.representatives(1)
        assert len(reps) == 4
        for md in itertools.product(range(-2, 3), repeat=4):
            if sum(md) != 1:
                continue
            hits = [r for r in reps if cg.same_class(md, r)]
            assert len(hits) == 1

    def test_canonical_representative_stable(self, theta):
        cg = class_group(theta)
        for md in [(0, 1), (3, -2), (-3, 4), (1, 0)]:
            rep = cg.canonical_representative(md)
            assert cg.same_class(rep, md)
            assert cg.canonical_representative(rep) == rep
