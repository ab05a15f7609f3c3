import argparse
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
            '{"vertices": [{"id": 0, "weight": 2}], "edgse": [[0, 0]]}',
            '{"vertices": [{"id": 0, "wieght": 2, "weight": 1}], "edges": [[0, 0]]}',
            '{"vertices": [{"id": 0, "weight": 2}], "edges": [], "edges": [[0, 0]]}',
            '{"vertices": [{"id": 0, "weight": 2, "weight": 5}], "edges": []}',
            "[" * 100_000,
        ],
        ids=["edges-int", "edges-object", "exceptional-int",
             "exceptional-list-mark", "exceptional-bool-mark", "bool-id",
             "bool-weight", "bool-edge-end", "unknown-field",
             "unknown-vertex-field", "repeated-field", "repeated-vertex-field",
             "deep-nesting"],
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

    def test_max_vertices_above_2g_minus_2(self):
        # a stable genus-3 graph has at most 4 vertices, so 7 asks for the
        # same census as 4
        argv = ["census", "--genus", "3", "--degree", "1", "--max-vertices"]
        code, at_four = invoke(argv + ["4"])
        assert code == 0
        assert invoke(argv + ["7"]) == (0, at_four)


# sha256 of stdout in table and json-lines format, each recorded before a
# change that rewrote the command's code path; the graph files are the
# conftest fixtures
FORMATS = ("table", "json-lines")
GOLDEN = [
    ("census-2", ["census", "--genus", "2", "--degree=-2..4"], None,
     "f92353a2302eb5ca2a9bd47f80fd7251fbb5de9fddef8676801bc0fc9adef079",
     "8ce7dfb1675130c40489183ef0a3e601e115876fdda428700eb84e68b5528d4b"),
    ("census-3", ["census", "--genus", "3", "--degree=0..5"], None,
     "fd183be2b00891b6a6d9da931f8a383d3dffc9eabbe21a4d98aa28d2cf9c2363",
     "4e0a41893bbab8a1c7c87ca14b2c637125c771529a8cd8659eb254afc58fcbba"),
    ("analyze-theta", ["analyze", "--degree=-3..8"], "theta",
     "188df543a4d0d2ce901f83a7c66e3351e3532ef02f0df8d4f141f4af02094106",
     "cbdec7a17ba69898332a85c4c97e5573d114e8df2659cae35dcc08044f63a053"),
    ("analyze-theta_pendant", ["analyze", "--degree=-3..8"], "theta_pendant",
     "f0f3362900cb3fa7f9197ef2ecf85ddf6d608ecd6279607be02b8d6e0044fbba",
     "ca68f2e9882607c8f8307251f197366b4e3984499be462f3b9238651302b099c"),
    ("validate-theta", ["validate"], "theta",
     "818746365918c773c2f090fef41f2c51429bdeffb5e194415f093bafa818e9ba",
     "87ae8be1013cfeeddb6c833e5d78c0bf41b9d7f755fb9ea3fc2b1d17bf559a4c"),
    ("class-group-theta", ["class-group"], "theta",
     "751691dbcfff23ea61944d2ccdf4e98cdacea044aad6c59edd0363bf5a2f436b",
     "3bcb96a86d7e893b0ed5d97b6b4d723f83d9edb02ed1beef67964041582c257e"),
    ("balanced-theta", ["balanced", "--degree=-1..3"], "theta",
     "c332e0ab7f1ed5787e8fd61d47421e72915f854b307004d85cf099f259796aa7",
     "4f9c81df56b7b6a3b75c4357a9579a00b50cf5570608c9d537b62b38d754f5f4"),
    ("neron-all-theta", ["neron", "--degree=-1..3", "--route", "all"], "theta",
     "73dbc2f1decf96d96e850c627fe75ac89589d33299a99c8abe8765aa94d836b4",
     "271be71253d3d47da1ccc5bcd18bbcc26cf069fff25252cdf4770d59dca86bdd"),
    ("neron-criterion-theta",
     ["neron", "--degree=-1..3", "--route", "criterion"], "theta",
     "b6de7fe461128d046d31989814a0e970b197fe8c17e789f529e576b2a5c70481",
     "a0dd40fe9de0eac7e53a219a1e04baa0b29a65e0e7c19fa7933c29dff0aadcfc"),
    ("validate-theta_pendant", ["validate"], "theta_pendant",
     "e256b493a9d47a50e34988d380eae76d2a556bf6e0165af6be9a160063337405",
     "02e5a92e075b70d2fb90fc123ac4f56df892636fe4ef0b8b5a10dbd1bb7e2748"),
    ("class-group-theta_pendant", ["class-group"], "theta_pendant",
     "751691dbcfff23ea61944d2ccdf4e98cdacea044aad6c59edd0363bf5a2f436b",
     "3bcb96a86d7e893b0ed5d97b6b4d723f83d9edb02ed1beef67964041582c257e"),
    ("balanced-theta_pendant", ["balanced", "--degree=-1..3"], "theta_pendant",
     "cf9928598b63f224add230d2eaeb41f355b6ebeca456eba29b2f2d498e07b488",
     "f068467b6db3b519ffa9db5d36d0a585d1dfb687046a1301c30bd680273bb72d"),
    ("neron-all-theta_pendant",
     ["neron", "--degree=-1..3", "--route", "all"], "theta_pendant",
     "088958164100bd70b800e05184b0289da46156eb2dbe4b9a726ad6ec924a8722",
     "799d816a387c2a42d555c920d5aff30287277cfc0b24841888dbf70264d2070a"),
    ("neron-criterion-theta_pendant",
     ["neron", "--degree=-1..3", "--route", "criterion"], "theta_pendant",
     "2a8be0b74b1bdfefae20e9672c2e056e09bd19b0d841f502f9b4a3c5eda87384",
     "4ea89f295dbfd94faf84971b91ce98fe250522e2b1cadcc7436228300f4f0621"),
    ("vine-scan-3", ["vine-scan", "--genus", "3", "--degree=0..4"], None,
     "f987a67f9e86b69dae8f8c089dc2d546bb1bb8c6f02711bea13dcd13666b26df",
     "927ca11483a7cff188dbd352137dc9b8922f5e86574263b969a0b546740725f0"),
    ("codim-report-3", ["codim-report", "--genus", "3", "--degree=1..4"], None,
     "2810d7744528247351a68134d1b8cbcf9d9f010a3bedb961ca0d1aeb4fddbadf",
     "b1ebd2a33cf02d15861632fc487a960f0c11c5fa3eed458c02a7a6a056d19c51"),
    ("audit-2", ["audit", "--genus", "2", "--degree=0..3"], None,
     "93b1e658c42eb6735c1e1165090d6146bf3609162620e892424dbfd4f2a41ae0",
     "93cc157885dfcc0c9e3f79983021d9be7c57799a448ac5ffc0d7a1a17bae506b"),
    ("census-4", ["census", "--genus", "4", "--degree", "3"], None,
     "b43bc136d3eac14566d091cb175a3ce9ef6809dfce1812f14cc80e21bfdd308a",
     "c665226a7dba0f035887b2deb2a6cb803de16f306a3cd7853349e21b697c5420"),
]
GOLDEN_CASES = [
    (name, argv, fixture, fmt, digest)
    for name, argv, fixture, *digests in GOLDEN
    for fmt, digest in zip(FORMATS, digests)
]


class TestGoldenOutput:
    @pytest.mark.parametrize(
        "argv,fixture,fmt,digest",
        [case[1:] for case in GOLDEN_CASES],
        ids=[f"{name}-{fmt}" for name, _, _, fmt, _ in GOLDEN_CASES],
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

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize(
        "argv",
        [
            ["vine-scan", "--genus", "1", "--degree", "0"],
            ["vine-scan", "--genus", "-3", "--degree", "1"],
            ["codim-report", "--genus", "1", "--degree", "0"],
        ],
        ids=["vine-scan-1", "vine-scan--3", "codim-report-1"],
    )
    def test_impossible_genus(self, argv, fmt, capsys):
        # a vine curve needs genus >= 2: no table, one line on stderr
        code, out = invoke(argv + ["--format", fmt])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: genus must be at least 2\n"


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

    def test_genus5_answers(self):
        code, out = invoke(
            [
                "audit", "--format", "json-lines",
                "--genus", "5", "--max-vertices", "2", "--degree", "4..5",
            ]
        )
        assert code == 0
        assert [r["all_general"] for r in json_lines(out)] == [False, True]

    def test_one_genus_range_with_census(self, capsys):
        for genus in ("1", "6"):
            for command in ("census", "audit"):
                code, out = invoke([command, "--genus", genus, "--degree", "0"])
                assert (code, out) == (1, "")
                assert capsys.readouterr().err == (
                    "error: census genus must be between 2 and 5\n"
                )


class TestContract:
    def test_seed_rejected(self, theta_file, capsys):
        code, out = invoke(["validate", "--seed", "1", theta_file])
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and "--seed" in err

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

    def test_parser_built_once(self, theta_file, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert invoke(["validate", theta_file])[0] == 0
        assert invoke(["neron", "--degree", "1", theta_file])[0] == 0
        assert built == []

    def test_entry_point_exit_status(self):
        proc = subprocess.run(
            [sys.executable, "-m", "neronjac.cli", "census", "--genus", "3",
             "--degree", "-6..12"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1
