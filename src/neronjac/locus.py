"""Vine-curve scans and the gcd trichotomy for the non-Neron locus.

A vine curve has two smooth components of genera g1 <= g2 joined by delta
nodes.  The locus of curves whose degree-d compactified Jacobian fails to
be of Neron type is controlled by gcd(d - g + 1, 2g - 2): empty when the
gcd is 1, codimension 3 when the gcd is 2 and g is even, codimension 2
otherwise.  The scans here check those predictions against exhaustive
enumeration of vine parameters and against the graph census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .balance import enumerate_balanced, is_d_general
from .graphs import WeightedGraph, census


@dataclass(frozen=True)
class VineCurve:
    g1: int
    g2: int
    delta: int

    @property
    def genus(self) -> int:
        return self.g1 + self.g2 + self.delta - 1


def vine(g1: int, g2: int, delta: int) -> WeightedGraph:
    """Two vertices of weights g1, g2 joined by delta parallel edges."""
    if g1 < 0 or g2 < 0:
        raise ValueError("component genera must be non-negative")
    if delta < 1:
        raise ValueError("a vine curve needs at least one node")
    if (g1 == 0 or g2 == 0) and delta < 3:
        raise ValueError(
            f"unstable vine: weight-0 component with valency {delta} < 3"
        )
    g = WeightedGraph((g1, g2), tuple((0, 1) for _ in range(delta)))
    assert g.is_stable
    return g


def balanced_vines(genus: int, d: int, min_delta: int = 1):
    """(parameters, graph, balanced set at degree d) of every stable vine
    curve of the given genus with at least min_delta nodes, ordered by
    (g1, g2)."""
    if genus < 2:
        raise ValueError("genus must be at least 2")
    for g1 in range(genus + 1):
        for g2 in range(g1, genus + 1):
            delta = genus - g1 - g2 + 1
            if delta < max(1, min_delta):
                continue
            if (g1 == 0 or g2 == 0) and delta < 3:
                continue
            g = vine(g1, g2, delta)
            yield VineCurve(g1, g2, delta), g, enumerate_balanced(g, d)


def d_special_vine_scan(genus: int, d: int, min_delta: int = 1) -> list[VineCurve]:
    """All stable vine parameter triples of the given genus, with at least
    min_delta nodes, whose graph is d-special; ordered by (g1, g2)."""
    return [
        v
        for v, _, bs in balanced_vines(genus, d, min_delta)
        if not bs.d_general
    ]


@dataclass(frozen=True)
class CodimReport:
    genus: int
    degree: int
    gcd_value: int
    predicted_codim: str  # "empty", "3" or "2"
    special_vines: tuple[VineCurve, ...]  # d-special vines with >= 2 nodes


def predicted_codim(genus: int, d: int) -> tuple[int, str]:
    gcd_value = math.gcd(d - genus + 1, 2 * genus - 2)
    if gcd_value == 1:
        return gcd_value, "empty"
    if gcd_value == 2 and genus % 2 == 0:
        return gcd_value, "3"
    return gcd_value, "2"


def codim_report(genus: int, d: int) -> CodimReport:
    gcd_value, prediction = predicted_codim(genus, d)
    scan = d_special_vine_scan(genus, d, min_delta=2)
    return CodimReport(
        genus=genus,
        degree=d,
        gcd_value=gcd_value,
        predicted_codim=prediction,
        special_vines=tuple(scan),
    )


@dataclass(frozen=True)
class AuditRow:
    degree: int
    all_general: bool  # every census graph is d-general
    gcd_2g_minus_1_is_1: bool
    gcd_2g_minus_2_is_1: bool

    @property
    def agree_2g_minus_1(self) -> bool:
        return self.all_general == self.gcd_2g_minus_1_is_1

    @property
    def agree_2g_minus_2(self) -> bool:
        return self.all_general == self.gcd_2g_minus_2_is_1


def gcd_remark_audit(
    genus: int, d_range, max_vertices: int = 4
) -> list[AuditRow]:
    """Compare the two candidate gcd criteria for "every stable curve of
    genus g is d-general" against the census truth; emitted as a table, not
    asserted, because the two moduli 2g-1 and 2g-2 genuinely differ."""
    if genus not in (2, 3, 4):
        raise ValueError("audit supported for genus 2, 3 and 4")
    graphs = census(genus, min(max_vertices, 2 * genus - 2))
    rows = []
    for d in d_range:
        all_general = all(is_d_general(g, d) for g in graphs)
        rows.append(
            AuditRow(
                degree=d,
                all_general=all_general,
                gcd_2g_minus_1_is_1=math.gcd(d - genus + 1, 2 * genus - 1) == 1,
                gcd_2g_minus_2_is_1=math.gcd(d - genus + 1, 2 * genus - 2) == 1,
            )
        )
    return rows
