"""Command-line front end.

Exit status: 0 on success, 1 on invalid input (usage errors included), 2
when a theorem-level cross-check fails (route disagreement or extremal-pair
uniqueness violation).  All commands are deterministic; identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import balance, classgroup, graphs, locus, neron

SCHEMA = "neronjac/1"


def parse_degrees(specs) -> list[int]:
    """Each spec is an integer or an inclusive range 'a..b'."""
    out = []
    for spec in specs:
        if ".." in spec:
            a, _, b = spec.partition("..")
            try:
                lo, hi = int(a), int(b)
            except ValueError:
                raise ValueError(f"bad degree range {spec!r}") from None
            if lo > hi:
                raise ValueError(f"empty degree range {spec!r}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(spec))
            except ValueError:
                raise ValueError(f"bad degree {spec!r}") from None
    return out


def emit(records, columns, fmt, out):
    if fmt == "json-lines":
        for rec in records:
            rec = {"schema": SCHEMA, **rec}
            out.write(json.dumps(rec, sort_keys=True) + "\n")
        return
    rows = [[_cell(rec.get(c)) for c in columns] for rec in records]
    widths = [
        max(len(c), *(len(r[i]) for r in rows)) if rows else len(c)
        for i, c in enumerate(columns)
    ]
    out.write("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
    for r in rows:
        out.write("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() + "\n")


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(str(v) for v in value) + "]"
    return str(value)


# -- commands ----------------------------------------------------------------
# Each command returns its records; run() prints them under the columns its
# subparser registers.


def cmd_validate(args):
    g = graphs.load_graph(args.graph)
    return [
        {
            "genus": g.genus,
            "connected": g.is_connected,
            "stable": g.is_stable,
            "quasistable": g.is_quasistable,
        }
    ]


def cmd_class_group(args):
    cg = classgroup.class_group(graphs.load_graph(args.graph))
    return [{"invariant_factors": cg.invariant_factors, "order": cg.order}]


def cmd_balanced(args):
    g = graphs.load_graph(args.graph)
    records = []
    for d in parse_degrees(args.degree):
        bs = balance.enumerate_balanced(g, d)
        strict = set(bs.strict_members)
        for md in bs.members:
            records.append(
                {"degree": d, "multidegree": list(md), "strict": md in strict}
            )
    return records


def cmd_neron(args):
    g = graphs.load_graph(args.graph)
    route = args.route.replace("-", "_")
    degrees = parse_degrees(args.degree)
    verdicts = [neron.is_neron_type(g, d, route=route) for d in degrees]
    return [
        {
            "degree": d,
            "verdict": verdict.verdict,
            "component_count": verdict.component_count,
            "class_group_order": verdict.class_group_order,
            "routes": dict(sorted(verdict.routes.items())),
        }
        for d, verdict in zip(degrees, verdicts)
    ]


def _verdict_records(g, gid, degrees, columns):
    """One record per degree of the stable graph g, whose graph_id is gid,
    holding the given columns of those `census` and `analyze` print."""
    cg = classgroup.class_group(g)
    tree = graphs.is_tree_like(g)
    for d in degrees:
        bs = balance.enumerate_balanced(g, d)
        verdict = neron.is_neron_type(g, d, route="all", balanced=bs)
        rec = {
            "graph": gid,
            "genus": g.genus,
            "weights": list(g.weights),
            "edges": [list(e) for e in g.edges],
            "degree": d,
            "class_group_order": cg.order,
            "invariant_factors": cg.invariant_factors,
            "n_balanced": bs.size,
            "n_strict": bs.strict_size,
            "component_count": verdict.component_count,
            "neron": verdict.verdict,
            "neron_count": verdict.routes["count"],
            "neron_criterion": verdict.routes["criterion"],
            "neron_weakly_general": verdict.routes["weakly_general"],
            "tree_like": tree,
            "d_general": bs.d_general,
            "weakly_d_general": verdict.routes["weakly_general"],
        }
        yield {c: rec[c] for c in columns}


ANALYZE_COLUMNS = [
    "graph",
    "genus",
    "degree",
    "class_group_order",
    "invariant_factors",
    "n_balanced",
    "n_strict",
    "d_general",
    "weakly_d_general",
    "component_count",
    "neron",
    "tree_like",
]


def cmd_analyze(args):
    g = graphs.load_graph(args.graph)
    if not g.is_stable:
        raise graphs.GraphFormatError("analyze requires a stable graph")
    degrees = parse_degrees(args.degree)
    return list(_verdict_records(g, graphs.graph_id(g), degrees, ANALYZE_COLUMNS))


def census_rows(genus, max_vertices, degrees):
    """One record per (graph, degree); raises on route disagreement."""
    items = sorted(
        ((graphs.graph_id(g), g) for g in graphs.census(genus, max_vertices)),
        key=lambda kv: kv[0],
    )
    return [
        rec
        for gid, g in items
        for rec in _verdict_records(g, gid, degrees, CENSUS_COLUMNS)
    ]


CENSUS_COLUMNS = [
    "graph",
    "weights",
    "edges",
    "degree",
    "n_balanced",
    "n_strict",
    "class_group_order",
    "component_count",
    "neron_count",
    "neron_criterion",
    "neron_weakly_general",
    "tree_like",
    "d_general",
    "weakly_d_general",
]


def cmd_census(args):
    locus.check_census_genus(args.genus)
    return census_rows(args.genus, args.max_vertices, parse_degrees(args.degree))


def cmd_vine_scan(args):
    return [
        {
            "g1": v.g1,
            "g2": v.g2,
            "delta": v.delta,
            "degree": d,
            "n_balanced": bs.size,
            "n_strict": bs.strict_size,
            "class_group_order": classgroup.class_group(g).order,
            "d_special": not bs.d_general,
        }
        for d in parse_degrees(args.degree)
        for v, g in locus.stable_vines(args.genus, args.min_delta)
        for bs in [balance.enumerate_balanced(g, d)]
    ]


def cmd_codim_report(args):
    reports = [locus.codim_report(args.genus, d) for d in parse_degrees(args.degree)]
    return [
        {
            "genus": report.genus,
            "degree": report.degree,
            "gcd": report.gcd_value,
            "predicted_codim": report.predicted_codim,
            "n_special_vines": len(report.special_vines),
            "special_vines": [
                [v.g1, v.g2, v.delta] for v in report.special_vines
            ],
        }
        for report in reports
    ]


def cmd_audit(args):
    degrees = parse_degrees(args.degree)
    rows = locus.gcd_remark_audit(args.genus, degrees, max_vertices=args.max_vertices)
    return [
        {
            "degree": row.degree,
            "all_general": row.all_general,
            "gcd_2g_minus_1_is_1": row.gcd_2g_minus_1_is_1,
            "gcd_2g_minus_2_is_1": row.gcd_2g_minus_2_is_1,
            "agree_2g_minus_1": row.agree_2g_minus_1,
            "agree_2g_minus_2": row.agree_2g_minus_2,
        }
        for row in rows
    ]


# -- argument parsing ---------------------------------------------------------


class _UsageError(Exception):
    """A command line that does not parse."""


class _Parser(argparse.ArgumentParser):
    # argparse prints usage and exits 2 on a bad command line; 2 is kept
    # for theorem-check failures, so raise and let run() answer with exit 1
    def error(self, message):
        if message.startswith("argument --degree: expected one argument"):
            message += " (write a negative degree as --degree=-6..12)"
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="neronjac",
        description="Neron-type verdicts for compactified Jacobians of stable weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, func, columns, graph=False, degree=False, genus=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, columns=columns)
        p.add_argument("--format", choices=["table", "json-lines"], default="table")
        if degree:
            p.add_argument(
                "--degree", action="append", required=True,
                help="integer or inclusive range a..b; repeatable; "
                "write one that starts with a minus sign as --degree=-6..12",
            )
        if genus:
            p.add_argument("--genus", type=int, required=True)
        if graph:
            p.add_argument("graph", help="graph file (JSON)")
        return p

    command("validate", "genus and stability diagnostics", cmd_validate,
            ["genus", "connected", "stable", "quasistable"], graph=True)
    command("class-group", "invariant factors and order", cmd_class_group,
            ["invariant_factors", "order"], graph=True)
    command("balanced", "enumerate balanced multidegrees", cmd_balanced,
            ["degree", "multidegree", "strict"], graph=True, degree=True)
    p = command("neron", "Neron-type verdict", cmd_neron,
                ["degree", "verdict", "component_count", "class_group_order", "routes"],
                graph=True, degree=True)
    p.add_argument(
        "--route",
        choices=["count", "criterion", "weakly-general", "all"],
        default="all",
    )
    command("analyze", "combined single-graph report", cmd_analyze,
            ANALYZE_COLUMNS, graph=True, degree=True)
    p = command("census", "per-(graph, degree) census report", cmd_census,
                CENSUS_COLUMNS, degree=True, genus=True)
    p.add_argument("--max-vertices", type=int, default=4)
    p = command("vine-scan", "d-special vine curves of a genus", cmd_vine_scan,
                ["g1", "g2", "delta", "degree", "n_balanced", "n_strict",
                 "class_group_order", "d_special"],
                degree=True, genus=True)
    p.add_argument("--min-delta", type=int, default=1)
    command("codim-report", "gcd trichotomy report", cmd_codim_report,
            ["genus", "degree", "gcd", "predicted_codim", "n_special_vines",
             "special_vines"],
            degree=True, genus=True)
    p = command("audit", "gcd criteria vs census d-generality", cmd_audit,
                ["degree", "all_general", "gcd_2g_minus_1_is_1", "gcd_2g_minus_2_is_1",
                 "agree_2g_minus_1", "agree_2g_minus_2"],
                degree=True, genus=True)
    p.add_argument("--max-vertices", type=int, default=4)

    return parser


# built once: run() is called many times in one process by tests and tools
_PARSER = build_parser()


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        emit(args.func(args), args.columns, args.format, out)
    except neron.TheoremCheckError as exc:
        print(f"theorem check failed: {exc}", file=sys.stderr)
        return 2
    except (graphs.GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
