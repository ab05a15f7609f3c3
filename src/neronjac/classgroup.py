"""Degree class group of a stable graph.

The intersection matrix K has k[i][j] = number of edges between distinct
vertices i and j (loops excluded) and k[i][i] = -(non-loop valency of i),
so K is the negated Laplacian of the loop-free reduction and its rows sum
to zero.  The class group is the quotient of the total-degree-0 lattice by
the lattice spanned by the columns of K; dropping the last coordinate turns
this into Z^(n-1) modulo the column lattice of the reduced matrix, whose
Smith normal form gives the invariant factors.

All arithmetic is exact (Python ints).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .graphs import WeightedGraph, check_multidegree


def intersection_matrix(g: WeightedGraph) -> list[list[int]]:
    if not g.is_connected:
        raise ValueError("graph must be connected")
    n = g.n_vertices
    k = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        if u == v:
            continue
        k[u][v] += 1
        k[v][u] += 1
        k[u][u] -= 1
        k[v][v] -= 1
    return k


def smith_normal_form(matrix: list[list[int]]):
    """SNF of a square integer matrix.

    Returns (diag, U, Uinv) where U * matrix * V is diagonal with diag[i]
    dividing diag[i+1], U and Uinv are mutually inverse unimodular matrices
    tracking the row operations.  The column transform V is not needed for
    lattice membership and is not returned.
    """
    m = [row[:] for row in matrix]
    n = len(m)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    uinv = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(a, b):
        m[a], m[b] = m[b], m[a]
        u[a], u[b] = u[b], u[a]
        for row in uinv:
            row[a], row[b] = row[b], row[a]

    def add_row(dst, src, q):
        # row_dst += q * row_src ; Uinv column src -= q * column dst
        for j in range(n):
            m[dst][j] += q * m[src][j]
            u[dst][j] += q * u[src][j]
        for row in uinv:
            row[src] -= q * row[dst]

    def negate_row(a):
        m[a] = [-x for x in m[a]]
        u[a] = [-x for x in u[a]]
        for row in uinv:
            row[a] = -row[a]

    def swap_cols(a, b):
        for row in m:
            row[a], row[b] = row[b], row[a]

    def add_col(dst, src, q):
        for row in m:
            row[dst] += q * row[src]

    def negate_col(a):
        for row in m:
            row[a] = -row[a]

    k = 0
    while k < n:
        while True:
            # bring a nonzero pivot of minimal absolute value to (k, k)
            pivot = None
            for i in range(k, n):
                for j in range(k, n):
                    if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot != (k, k):
                if pivot[0] != k:
                    swap_rows(k, pivot[0])
                if pivot[1] != k:
                    swap_cols(k, pivot[1])
            if m[k][k] < 0:
                negate_row(k)
            done = True
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    add_row(i, k, -(m[i][k] // m[k][k]))
                    if m[i][k] != 0:
                        done = False
            for j in range(k + 1, n):
                if m[k][j] != 0:
                    add_col(j, k, -(m[k][j] // m[k][k]))
                    if m[k][j] != 0:
                        done = False
            if done:
                break
        # fold non-divisible lower-right entries back into the pivot
        if k < n - 1 and m[k][k] != 0:
            bad = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if m[i][j] % m[k][k] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is not None:
                # restart from the first pivot on the updated matrix; U and
                # Uinv keep tracking the row operations in place
                add_row(k, bad, 1)
                k = 0
                continue
        k += 1
    diag = [m[i][i] for i in range(n)]
    return diag, u, uinv


@dataclass(frozen=True)
class ClassGroup:
    """Invariant factors and a canonicalization map for the degree class
    group of a connected weighted graph."""

    n_vertices: int
    diag: tuple[int, ...]
    u: tuple[tuple[int, ...], ...]
    uinv: tuple[tuple[int, ...], ...]

    @property
    def invariant_factors(self) -> list[int]:
        return [d for d in self.diag if d > 1]

    @property
    def order(self) -> int:
        out = 1
        for d in self.diag:
            out *= d
        return out

    def canonicalizer(self, multidegree) -> tuple:
        """Canonical coordinates of the class of a multidegree: total degree
        plus residues of U * v modulo the invariant diagonal, where v drops
        the last coordinate."""
        md = check_multidegree(multidegree, self.n_vertices)
        v = md[:-1]
        y = [sum(self.u[i][j] * v[j] for j in range(len(v))) for i in range(len(v))]
        residues = tuple(y[i] % self.diag[i] for i in range(len(v)))
        return (sum(md), residues)

    def canonical_representative(self, multidegree) -> tuple[int, ...]:
        """The canonical multidegree in the class of the input (same total
        degree)."""
        md = check_multidegree(multidegree, self.n_vertices)
        total, residues = self.canonicalizer(md)
        return self._lift(residues, total)

    def _lift(self, residues, total) -> tuple[int, ...]:
        k = self.n_vertices - 1
        v = [sum(self.uinv[i][j] * residues[j] for j in range(k)) for i in range(k)]
        return tuple(v) + (total - sum(v),)

    def representatives(self, total: int) -> list[tuple[int, ...]]:
        """One canonical multidegree of the given total degree per class."""
        out = []
        for residues in itertools.product(*(range(d) for d in self.diag)):
            out.append(self._lift(residues, total))
        return out

    def same_class(self, d1, d2) -> bool:
        md1 = check_multidegree(d1, self.n_vertices)
        md2 = check_multidegree(d2, self.n_vertices)
        if sum(md1) != sum(md2):
            raise ValueError("multidegrees must have equal total degree")
        return self.canonicalizer(md1) == self.canonicalizer(md2)


@lru_cache(maxsize=None)
def class_group(g: WeightedGraph) -> ClassGroup:
    """Degree class group of a connected weighted graph."""
    k = intersection_matrix(g)
    n = g.n_vertices
    reduced = [row[:-1] for row in k[:-1]]
    diag, u, uinv = smith_normal_form(reduced)
    if any(d == 0 for d in diag):
        raise ValueError("reduced intersection matrix is singular; graph not connected?")
    return ClassGroup(
        n_vertices=n,
        diag=tuple(diag),
        u=tuple(tuple(row) for row in u),
        uinv=tuple(tuple(row) for row in uinv),
    )
