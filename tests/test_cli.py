import hashlib
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

    @pytest.mark.parametrize(
        "text",
        [
            '{"vertices": [{"id": 0, "weight": 2}], "edges": 5}',
            '{"vertices": [{"id": 0, "weight": 2}], "edges": {}}',
            '{"vertices": [{"id": 0, "weight": 2}], "exceptional": 5}',
            '{"vertices": [{"id": 0, "weight": 2}], "exceptional": [[0]]}',
            '{"vertices": [{"id": 0, "weight": 1}, {"id": 1, "weight": 1}],'
            ' "edges": [[0, 1]], "exceptional": [true]}',
            '{"vertices": [{"id": true, "weight": 2}]}',
            '{"vertices": [{"id": 0, "weight": true}], "edges": [[0, 0]]}',
            '{"vertices": [{"id": 0, "weight": 1}, {"id": 1, "weight": 1}],'
            ' "edges": [[true, 0]]}',
        ],
        ids=["edges-int", "edges-object", "exceptional-int",
             "exceptional-list-mark", "exceptional-bool-mark", "bool-id",
             "bool-weight", "bool-edge-end"],
    )
    def test_bad_field_types(self, tmp_path, capsys, text):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        code, out = invoke(["validate", str(path)])
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ")


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

    def test_graph_id_once_for_many_degrees(self, theta_file, monkeypatch):
        from neronjac import graphs

        calls = []
        real = graphs.canonical_form

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(graphs, "canonical_form", counted)
        code, out = invoke(["analyze", "--degree=5..14", theta_file])
        assert code == 0 and len(out.splitlines()) == 11
        assert len(calls) == 1

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


# sha256 of stdout, recorded before census and analyze shared one record
# builder; the analyze graph files are the conftest fixtures
GOLDEN = [
    (["census", "--genus", "2", "--degree=-2..4"], None, "table",
     "f92353a2302eb5ca2a9bd47f80fd7251fbb5de9fddef8676801bc0fc9adef079"),
    (["census", "--genus", "2", "--degree=-2..4"], None, "json-lines",
     "8ce7dfb1675130c40489183ef0a3e601e115876fdda428700eb84e68b5528d4b"),
    (["census", "--genus", "3", "--degree=0..5"], None, "table",
     "fd183be2b00891b6a6d9da931f8a383d3dffc9eabbe21a4d98aa28d2cf9c2363"),
    (["census", "--genus", "3", "--degree=0..5"], None, "json-lines",
     "4e0a41893bbab8a1c7c87ca14b2c637125c771529a8cd8659eb254afc58fcbba"),
    (["analyze", "--degree=-3..8"], "theta", "table",
     "188df543a4d0d2ce901f83a7c66e3351e3532ef02f0df8d4f141f4af02094106"),
    (["analyze", "--degree=-3..8"], "theta", "json-lines",
     "cbdec7a17ba69898332a85c4c97e5573d114e8df2659cae35dcc08044f63a053"),
    (["analyze", "--degree=-3..8"], "theta_pendant", "table",
     "f0f3362900cb3fa7f9197ef2ecf85ddf6d608ecd6279607be02b8d6e0044fbba"),
    (["analyze", "--degree=-3..8"], "theta_pendant", "json-lines",
     "ca68f2e9882607c8f8307251f197366b4e3984499be462f3b9238651302b099c"),
]


class TestGoldenOutput:
    @pytest.mark.parametrize(
        "argv,fixture,fmt,digest",
        GOLDEN,
        ids=[f"{a[0]}-{f or a[2]}-{fmt}" for a, f, fmt, _ in GOLDEN],
    )
    def test_stdout_digest(self, request, tmp_path, argv, fixture, fmt, digest):
        argv = argv + ["--format", fmt]
        if fixture is not None:
            path = tmp_path / f"{fixture}.graph"
            path.write_text(
                json.dumps(graph_to_dict(request.getfixturevalue(fixture)))
            )
            argv.append(str(path))
        code, out = invoke(argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
