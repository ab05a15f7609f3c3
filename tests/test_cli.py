import io
import json
import subprocess
import sys

import pytest

from neronjac import WeightedGraph, graph_to_dict
from neronjac.cli import parse_degrees, run


@pytest.fixture
def theta_file(tmp_path, theta):
    path = tmp_path / "theta.graph"
    path.write_text(json.dumps(graph_to_dict(theta)))
    return str(path)


@pytest.fixture
def bridge_file(tmp_path, bridge_graph):
    path = tmp_path / "bridge.graph"
    path.write_text(json.dumps(graph_to_dict(bridge_graph)))
    return str(path)


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def json_lines(text):
    return [json.loads(line) for line in text.splitlines()]


class TestParseDegrees:
    def test_singletons_and_ranges(self):
        assert parse_degrees(["3", "-1..2", "7"]) == [3, -1, 0, 1, 2, 7]

    def test_bad_inputs(self):
        for spec in (["x"], ["2..z"], ["5..1"]):
            with pytest.raises(ValueError):
                parse_degrees(spec)


class TestValidate:
    def test_table(self, theta_file):
        code, out = invoke(["validate", theta_file])
        assert code == 0
        assert "genus" in out and "2" in out and "true" in out

    def test_json_lines(self, theta_file):
        code, out = invoke(["validate", "--format", "json-lines", theta_file])
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["schema"] == "neronjac/1"
        assert rec["genus"] == 2
        assert rec["stable"] is True

    def test_missing_file(self, tmp_path):
        code, out = invoke(["validate", str(tmp_path / "nope.graph")])
        assert code == 1

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("{not json")
        code, _ = invoke(["validate", str(path)])
        assert code == 1


class TestClassGroup:
    def test_theta(self, theta_file):
        code, out = invoke(
            ["class-group", "--format", "json-lines", theta_file]
        )
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["invariant_factors"] == [3]
        assert rec["order"] == 3


class TestBalanced:
    def test_theta_degree_one(self, theta_file):
        code, out = invoke(
            ["balanced", "--format", "json-lines", "--degree", "1", theta_file]
        )
        assert code == 0
        recs = json_lines(out)
        assert [tuple(r["multidegree"]) for r in recs] == [
            (-1, 2), (0, 1), (1, 0), (2, -1),
        ]
        assert [r["strict"] for r in recs] == [False, True, True, False]

    def test_degree_range(self, theta_file):
        code, out = invoke(
            ["balanced", "--format", "json-lines", "--degree", "0..1", theta_file]
        )
        assert code == 0
        assert {r["degree"] for r in json_lines(out)} == {0, 1}


class TestNeron:
    def test_verdicts(self, theta_file):
        code, out = invoke(
            ["neron", "--format", "json-lines", "--degree", "0..1", theta_file]
        )
        assert code == 0
        recs = {r["degree"]: r for r in json_lines(out)}
        assert recs[0]["verdict"] is True
        assert recs[1]["verdict"] is False
        assert recs[0]["component_count"] == 3
        assert recs[0]["class_group_order"] == 3

    def test_single_route(self, theta_file):
        code, out = invoke(
            [
                "neron", "--format", "json-lines",
                "--degree", "0", "--route", "weakly-general", theta_file,
            ]
        )
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["routes"] == {"weakly_general": True}


class TestAnalyze:
    def test_fields(self, bridge_file):
        code, out = invoke(
            ["analyze", "--format", "json-lines", "--degree", "1", bridge_file]
        )
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["genus"] == 2
        assert rec["tree_like"] is True
        assert rec["neron"] is True
        assert rec["d_general"] is False
        assert rec["weakly_d_general"] is True

    def test_unstable_rejected(self, tmp_path):
        g = WeightedGraph((0, 2), ((0, 1), (0, 1)))
        path = tmp_path / "unstable.graph"
        path.write_text(json.dumps(graph_to_dict(g)))
        code, _ = invoke(["analyze", "--degree", "1", str(path)])
        assert code == 1


class TestCensus:
    def test_genus2(self):
        code, out = invoke(
            [
                "census", "--format", "json-lines",
                "--genus", "2", "--max-vertices", "2", "--degree", "1",
            ]
        )
        assert code == 0
        recs = json_lines(out)
        assert len(recs) == 7
        # sorted by graph id, one record per graph at a single degree
        ids = [r["graph"] for r in recs]
        assert ids == sorted(ids)
        # degree g-1 dichotomy is visible in the output
        for r in recs:
            assert r["neron_count"] == r["tree_like"]

    def test_byte_identical_runs(self):
        argv = [
            "census", "--format", "json-lines",
            "--genus", "2", "--max-vertices", "2", "--degree", "0..2",
        ]
        _, first = invoke(argv)
        _, second = invoke(argv)
        assert first == second

    def test_bad_genus(self):
        code, _ = invoke(["census", "--genus", "9", "--degree", "0"])
        assert code == 1


class TestVineScan:
    def test_genus3_degree2(self):
        code, out = invoke(
            [
                "vine-scan", "--format", "json-lines",
                "--genus", "3", "--degree", "2",
            ]
        )
        assert code == 0
        special = [
            (r["g1"], r["g2"], r["delta"])
            for r in json_lines(out)
            if r["d_special"]
        ]
        assert special == [(0, 0, 4), (0, 1, 3), (1, 1, 2), (1, 2, 1)]


class TestCodimReport:
    def test_genus2(self):
        code, out = invoke(
            [
                "codim-report", "--format", "json-lines",
                "--genus", "2", "--degree", "1..2",
            ]
        )
        assert code == 0
        recs = {r["degree"]: r for r in json_lines(out)}
        assert recs[1]["predicted_codim"] == "3"
        assert recs[2]["predicted_codim"] == "empty"
        assert recs[2]["n_special_vines"] == 0


class TestAudit:
    def test_genus2(self):
        code, out = invoke(
            [
                "audit", "--format", "json-lines",
                "--genus", "2", "--max-vertices", "2", "--degree", "0..4",
            ]
        )
        assert code == 0
        recs = json_lines(out)
        assert all(r["agree_2g_minus_2"] for r in recs)
        assert not all(r["agree_2g_minus_1"] for r in recs)


class TestContract:
    def test_seed_rejected(self, theta_file):
        code, _ = invoke(["validate", "--seed", "1", theta_file])
        assert code == 1

    def test_entry_point(self, theta_file):
        proc = subprocess.run(
            [sys.executable, "-m", "neronjac.cli", "validate", theta_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "genus" in proc.stdout


class TestUsageErrors:
    """A command line argparse rejects exits 1 with one line on stderr; 2
    stays reserved for theorem-check failures."""

    def _stderr_of(self, argv, capsys):
        code, out = invoke(argv)
        err = capsys.readouterr().err
        assert out == ""
        return code, err

    def test_negative_degree_range_without_equals(self, capsys):
        code, err = self._stderr_of(
            ["census", "--genus", "3", "--degree", "-6..12"], capsys
        )
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "--degree=-6..12" in err

    def test_bad_route(self, theta_file, capsys):
        code, err = self._stderr_of(
            ["neron", "--route", "bogus", "--degree", "1", theta_file], capsys
        )
        assert code == 1
        assert err.count("\n") == 1 and "bogus" in err

    def test_missing_command(self, capsys):
        code, err = self._stderr_of([], capsys)
        assert code == 1
        assert err.count("\n") == 1

    def test_negative_degree_range_with_equals(self):
        code, out = invoke(
            ["census", "--genus", "2", "--max-vertices", "1",
             "--degree=-2..0", "--format", "json-lines"]
        )
        assert code == 0
        assert {r["degree"] for r in json_lines(out)} == {-2, -1, 0}

    def test_entry_point_exit_status(self):
        proc = subprocess.run(
            [sys.executable, "-m", "neronjac.cli", "census", "--genus", "3",
             "--degree", "-6..12"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1
