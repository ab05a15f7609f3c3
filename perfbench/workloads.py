"""The three benchmark workloads and the inputs they give the CLI.

A workload is a plan: a list of CLI argument lists run one after another in
one interpreter, plus the graph files the pass loads before its first timed
call.  Each call's output is one or more (graph, degree) rows.

census-g3 and census-g5 take no input, so the seed does not change them.
analyze-g6 runs `analyze` on a fixed pool of genus-6 graphs, one call per
(graph, degree).  The pool is drawn once with POOL_SEED; the run's seed only
changes how the graphs are presented: the order of the calls, the vertex ids
in each file (order-preserving, so every file loads to the same graph) and
the order and orientation of the edges.  Drawing the pool itself from the
run's seed would make a pass cost anywhere from a few to tens of seconds,
and seed-to-seed spread would swamp any change under test.
"""

from __future__ import annotations

import json
import os
import random

CENSUS_ARGV = {
    "census-g3": ["census", "--genus", "3", "--degree=-6..12", "--format", "json-lines"],
    "census-g5": [
        "census", "--genus", "5", "--max-vertices", "4", "--degree", "4",
        "--format", "json-lines",
    ],
}
ANALYZE = "analyze-g6"
NAMES = ("census-g3", "census-g5", ANALYZE)

POOL_SEED = 0
POOL_SIZE = 10
POOL_VERTICES = 8
POOL_GENUS = 6
POOL_WEIGHT_TOTALS = (2, 3)
# one period of the verdict in d: it depends on d only modulo 2g - 2 = 10
ANALYZE_DEGREES = tuple(range(POOL_GENUS - 1, POOL_GENUS - 1 + 2 * POOL_GENUS - 2))


def _stable(weights, edges) -> bool:
    valency = [0] * len(weights)
    for u, v in edges:
        valency[u] += 1
        valency[v] += 1
    return all(w > 0 or k >= 3 for w, k in zip(weights, valency))


def random_stable_graph(rng: random.Random, n: int, genus: int, weight_totals):
    """A connected stable graph with n vertices and the given genus, as
    (weights, edges); loops and parallel edges allowed."""
    while True:
        weight_total = rng.choice(weight_totals)
        n_edges = genus - weight_total + n - 1  # b1 = E - V + 1
        weights = [0] * n
        for _ in range(weight_total):
            weights[rng.randrange(n)] += 1
        # a random spanning tree first, so the graph is connected
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        while len(edges) < n_edges:
            edges.append((rng.randrange(n), rng.randrange(n)))
        edges = sorted((min(e), max(e)) for e in edges)
        if _stable(weights, edges):
            return tuple(weights), tuple(edges)


def analyze_pool():
    """The fixed analyze-g6 graphs, as (weights, edges) pairs."""
    rng = random.Random(POOL_SEED)
    return [
        random_stable_graph(rng, POOL_VERTICES, POOL_GENUS, POOL_WEIGHT_TOTALS)
        for _ in range(POOL_SIZE)
    ]


def graph_file_text(weights, edges, rng: random.Random) -> str:
    """The graph in the CLI's JSON file format, with seed-chosen vertex ids
    (increasing with the vertex index) and a shuffled edge list."""
    ids = sorted(rng.sample(range(1, 10**6), len(weights)))
    vertices = [{"id": ids[v], "weight": w} for v, w in enumerate(weights)]
    rng.shuffle(vertices)
    out_edges = [[ids[u], ids[v]] if rng.random() < 0.5 else [ids[v], ids[u]]
                 for u, v in edges]
    rng.shuffle(out_edges)
    return json.dumps({"vertices": vertices, "edges": out_edges})


def make_plan(name: str, seed: int, workdir: str) -> dict:
    """The pass plan for one workload.

    Keys: calls (argument lists), files (graph files the pass loads before
    timing), and for analyze-g6 the pool index and degree of every call.
    """
    if name in CENSUS_ARGV:
        return {"calls": [CENSUS_ARGV[name]], "files": []}
    if name != ANALYZE:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(seed)
    pool = analyze_pool()
    files = []
    for idx, graph in enumerate(pool):
        path = os.path.join(workdir, f"graph-{idx:02d}.json")
        with open(path, "w") as fh:
            fh.write(graph_file_text(*graph, rng))
        files.append(path)
    # degree by degree, each over all graphs: latencies cluster by graph, and
    # a slow stretch of a shared machine should touch every cluster a little
    # rather than one cluster a lot
    calls, keys = [], []
    for d in ANALYZE_DEGREES:
        order = list(range(len(pool)))
        rng.shuffle(order)
        for idx in order:
            calls.append(["analyze", "--degree", str(d), "--format", "json-lines", files[idx]])
            keys.append([idx, d])
    return {"calls": calls, "files": files, "keys": keys}
