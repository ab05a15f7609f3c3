"""Correctness checks on CLI output rows, computed without classgroup/neron.

Each check returns a list of problems (empty when the row is right):
- class_group_order is the number of spanning trees (matrix-tree theorem),
  computed as a fraction-free determinant of the reduced Laplacian;
- at d = g - 1 the Neron verdict equals tree-likeness;
- the Neron routes in the row agree;
- d_general holds exactly when every balanced multidegree is strict.
"""

from __future__ import annotations


def spanning_tree_count(n: int, edges) -> int:
    """Spanning trees of a multigraph (loops ignored): the determinant of the
    Laplacian with its last row and column removed, by Bareiss elimination."""
    lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        if u != v:
            lap[u][u] += 1
            lap[v][v] += 1
            lap[u][v] -= 1
            lap[v][u] -= 1
    m = [row[: n - 1] for row in lap[: n - 1]]
    size = n - 1
    sign, prev = 1, 1
    for k in range(size):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev if size else 1


def is_tree_like(n: int, edges) -> bool:
    """Every non-loop edge is a bridge, i.e. the loop-free graph is a tree
    with no parallel edges."""
    simple = [(u, v) for u, v in edges if u != v]
    if len(simple) != n - 1:
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in simple:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def genus(weights, edges) -> int:
    """Genus of a connected weighted graph: total weight plus first Betti
    number."""
    return sum(weights) + len(edges) - len(weights) + 1


def _common(row, weights, edges, neron) -> list[str]:
    problems = []
    n = len(weights)
    trees = spanning_tree_count(n, edges)
    if row["class_group_order"] != trees:
        problems.append(f"class_group_order {row['class_group_order']} != {trees} spanning trees")
    tree_like = is_tree_like(n, edges)
    if row["tree_like"] != tree_like:
        problems.append(f"tree_like {row['tree_like']} != {tree_like}")
    if row["degree"] == genus(weights, edges) - 1 and neron != tree_like:
        problems.append(f"verdict {neron} at d = g-1 but tree-like is {tree_like}")
    if row["d_general"] != (row["n_strict"] == row["n_balanced"]):
        problems.append("d_general disagrees with n_strict == n_balanced")
    if neron != (row["component_count"] == row["class_group_order"]):
        problems.append("verdict disagrees with component_count == class_group_order")
    return problems


def census_row_problems(row) -> list[str]:
    """Checks on one `census` row; the graph comes from the row itself."""
    weights, edges = row["weights"], [tuple(e) for e in row["edges"]]
    routes = {row["neron_count"], row["neron_criterion"], row["neron_weakly_general"]}
    problems = [] if len(routes) == 1 else ["neron route columns disagree"]
    return problems + _common(row, weights, edges, row["neron_count"])


def analyze_row_problems(row, weights, edges, degree) -> list[str]:
    """Checks on one `analyze` row for a known input graph and degree.

    analyze shows the weakly-general route as its own column and the count
    route through component_count, so those two are checked against the
    verdict."""
    problems = []
    if row["degree"] != degree:
        problems.append(f"row degree {row['degree']} != requested {degree}")
    if row["genus"] != genus(weights, edges):
        problems.append(f"genus {row['genus']} != {genus(weights, edges)}")
    if row["neron"] != row["weakly_d_general"]:
        problems.append("verdict disagrees with weakly_d_general")
    product = 1
    for f in row["invariant_factors"]:
        product *= f
    if product != row["class_group_order"]:
        problems.append("invariant factors do not multiply to the order")
    return problems + _common(row, weights, edges, row["neron"])
