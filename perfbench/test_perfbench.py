"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import compare
import identities
import kernelbox
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize(
    "lows, highs, total, expected",
    [
        ((0, 0), (2, 2), 2, 3),  # (0,2) (1,1) (2,0)
        ((0, 0, 0), (1, 1, 1), 2, 3),  # choose two of three
        ((-1, -1), (1, 1), 0, 3),  # (-1,1) (0,0) (1,-1)
        ((3,), (5,), 4, 1),
        ((0, 0), (2, 2), 5, 0),  # total above the box
        ((0, 0), (2, 2), -1, 0),  # total below the box
        ((1, 0), (0, 3), 1, 0),  # empty coordinate range
        ((0, 0, 0), (2, 2, 2), 3, 7),  # 10 compositions of 3 minus the 3 with a 3
    ],
)
def test_box_points_hand_checked(lows, highs, total, expected):
    assert kernelbox.box_points(lows, highs, total) == expected


def test_box_points_matches_brute_force():
    import itertools

    lows, highs = (-2, 0, 1, -1), (1, 3, 2, 2)
    for total in range(-3, 10):
        brute = sum(
            1 for x in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
            if sum(x) == total
        )
        assert kernelbox.box_points(lows, highs, total) == brute


def test_spanning_trees_theta_and_k4():
    assert identities.spanning_tree_count(2, [(0, 1)] * 3) == 3
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    assert identities.spanning_tree_count(4, k4) == 16


def test_spanning_trees_small_cases():
    assert identities.spanning_tree_count(1, [(0, 0), (0, 0)]) == 1  # loops only
    assert identities.spanning_tree_count(3, [(0, 1), (1, 2), (1, 1)]) == 1  # path plus loop
    assert identities.spanning_tree_count(3, [(0, 1)]) == 0  # disconnected
    assert identities.spanning_tree_count(4, [(0, 3), (1, 2), (1, 3), (2, 3)]) == 3
    # two components: elimination meets a zero pivot with nothing to swap in
    assert identities.spanning_tree_count(4, [(0, 1), (2, 3)]) == 0


def test_tree_like():
    assert identities.is_tree_like(1, [(0, 0)])
    assert identities.is_tree_like(3, [(0, 1), (1, 2), (2, 2)])
    assert not identities.is_tree_like(2, [(0, 1), (0, 1)])
    assert not identities.is_tree_like(3, [(0, 1), (1, 2), (0, 2)])


def test_percentile_with_sample_count():
    values = list(range(1, 101))
    value, beyond = run.percentile(values, 90)
    assert value == pytest.approx(90.1)
    assert beyond == 10
    assert run.percentile([3, 1, 2], 50) == (2, 1)
    assert run.percentile([5.0], 90) == (5.0, 0)


def test_analyze_plan_depends_only_on_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.make_plan(workloads.ANALYZE, 3, str(tmp_path / "a"))
    b = workloads.make_plan(workloads.ANALYZE, 3, str(tmp_path / "b"))
    assert a["keys"] == b["keys"]
    for fa, fb in zip(a["files"], b["files"]):
        assert open(fa).read() == open(fb).read()
    assert len(a["calls"]) == workloads.POOL_SIZE * len(workloads.ANALYZE_DEGREES)


def test_seed_changes_presentation_not_graphs(tmp_path):
    neronjac = pytest.importorskip("neronjac")
    pool = workloads.analyze_pool()
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        plan = workloads.make_plan(workloads.ANALYZE, seed, str(tmp_path / str(seed)))
        for idx, path in enumerate(plan["files"]):
            g = neronjac.load_graph(path)
            assert (g.weights, g.edges) == pool[idx]
            assert g.is_stable and g.genus == workloads.POOL_GENUS


@pytest.fixture(scope="module")
def genus2_rows():
    pytest.importorskip("neronjac")
    from neronjac import cli
    import io

    out = io.StringIO()
    assert cli.run(["census", "--genus", "2", "--degree", "0..3", "--format", "json-lines"], out=out) == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


def test_census_rows_pass_the_identities(genus2_rows):
    assert len(genus2_rows) == 7 * 4
    for row in genus2_rows:
        assert identities.census_row_problems(row) == []


@pytest.mark.parametrize(
    "field, change",
    [
        ("class_group_order", lambda v: v + 1),
        ("neron_criterion", lambda v: not v),
        ("d_general", lambda v: not v),
        ("tree_like", lambda v: not v),
    ],
)
def test_census_row_checks_catch_a_wrong_value(genus2_rows, field, change):
    for row in genus2_rows:
        bad = dict(row, **{field: change(row[field])})
        assert identities.census_row_problems(bad)


def test_compare_refuses_mismatched_kernels(capsys):
    def record(kernel):
        return {("census-g3", 0): {"provenance": {"kernel_name": kernel},
                                   "result": {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}}}

    assert compare.compare(record("python"), record("compiled")) == 2
    assert compare.compare(record("python"), record("python")) == 0


def test_traced_pass_output_and_metric_names(tmp_path):
    """A traced worker pass prints what an untraced one prints, and reports
    every per-layer metric BENCHMARK.json declares except the run-level ones."""
    pytest.importorskip("neronjac")
    plan = {"calls": [["census", "--genus", "2", "--degree", "0..2", "--format", "json-lines"]],
            "files": []}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    reports = {}
    for mode in ("pass", "traced"):
        path = tmp_path / f"{mode}.json"
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), str(plan_path),
                        str(path), mode], check=True, timeout=120)
        reports[mode] = json.loads(path.read_text())
    assert reports["pass"]["outputs"] == reports["traced"]["outputs"]
    layers = reports["traced"]["layers"]
    assert layers["cli.rows"] == 7 * 3
    assert layers["balance.enumerate_balanced.members"] == layers["kernel.enumerate_box.points"]
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    run_level = {"trace.overhead", "kernel.isolated.python_s", "kernel.isolated.points",
                 "kernel.isolated.box_points", "kernel.isolated.compiled_present"}
    assert set(layers) == declared - run_level
