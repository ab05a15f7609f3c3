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


def cmd_validate(args, out):
    g = graphs.load_graph(args.graph)
    diag = graphs.validate(g)
    emit(
        [
            {
                "genus": diag.genus,
                "connected": diag.connected,
                "stable": diag.stable,
                "quasistable": diag.quasistable,
            }
        ],
        ["genus", "connected", "stable", "quasistable"],
        args.format,
        out,
    )
    return 0


def cmd_class_group(args, out):
    g = graphs.load_graph(args.graph)
    cg = classgroup.class_group(g)
    emit(
        [{"invariant_factors": cg.invariant_factors, "order": cg.order}],
        ["invariant_factors", "order"],
        args.format,
        out,
    )
    return 0


def cmd_balanced(args, out):
    g = graphs.load_graph(args.graph)
    records = []
    for d in parse_degrees(args.degree):
        bs = balance.enumerate_balanced(g, d)
        strict = set(bs.strict_members)
        for md in bs.members:
            records.append(
                {"degree": d, "multidegree": list(md), "strict": md in strict}
            )
    emit(records, ["degree", "multidegree", "strict"], args.format, out)
    return 0


def cmd_neron(args, out):
    g = graphs.load_graph(args.graph)
    route = args.route.replace("-", "_")
    records = []
    for d in parse_degrees(args.degree):
        verdict = neron.is_neron_type(g, d, route=route)
        records.append(
            {
                "degree": d,
                "verdict": verdict.verdict,
                "component_count": verdict.component_count,
                "class_group_order": verdict.class_group_order,
                "routes": dict(sorted(verdict.routes.items())),
            }
        )
    emit(
        records,
        ["degree", "verdict", "component_count", "class_group_order", "routes"],
        args.format,
        out,
    )
    return 0


def _verdict_records(g, gid, degrees, columns):
    """One record per degree of the stable graph g, whose graph_id is gid,
    holding the given columns of those `census` and `analyze` print."""
    cg = classgroup.class_group(g)
    tree = graphs.is_tree_like(g)
    for d in degrees:
        sets = balance.BalancedSets(d)  # shared by this verdict only
        bs = sets(g)
        verdict = neron.is_neron_type(g, d, route="all", sets=sets)
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
            "d_general": balance.is_d_general(g, d, sets=sets),
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


def cmd_analyze(args, out):
    g = graphs.load_graph(args.graph)
    if not g.is_stable:
        raise graphs.GraphFormatError("analyze requires a stable graph")
    degrees = parse_degrees(args.degree)
    records = _verdict_records(g, graphs.graph_id(g), degrees, ANALYZE_COLUMNS)
    emit(list(records), ANALYZE_COLUMNS, args.format, out)
    return 0


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


def cmd_census(args, out):
    if not 2 <= args.genus <= 5:
        raise ValueError("census genus must be between 2 and 5")
    degrees = parse_degrees(args.degree)
    rows = census_rows(args.genus, args.max_vertices, degrees)
    emit(rows, CENSUS_COLUMNS, args.format, out)
    return 0


def cmd_vine_scan(args, out):
    records = []
    for d in parse_degrees(args.degree):
        for v in locus.stable_vines(args.genus, args.min_delta):
            g = locus.vine(v.g1, v.g2, v.delta)
            bs = balance.enumerate_balanced(g, d)
            records.append(
                {
                    "g1": v.g1,
                    "g2": v.g2,
                    "delta": v.delta,
                    "degree": d,
                    "n_balanced": bs.size,
                    "n_strict": bs.strict_size,
                    "class_group_order": classgroup.class_group(g).order,
                    "d_special": bs.members != bs.strict_members,
                }
            )
    emit(
        records,
        ["g1", "g2", "delta", "degree", "n_balanced", "n_strict",
         "class_group_order", "d_special"],
        args.format,
        out,
    )
    return 0


def cmd_codim_report(args, out):
    records = []
    for d in parse_degrees(args.degree):
        report = locus.codim_report(args.genus, d)
        records.append(
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
        )
    emit(
        records,
        ["genus", "degree", "gcd", "predicted_codim", "n_special_vines",
         "special_vines"],
        args.format,
        out,
    )
    return 0


def cmd_audit(args, out):
    degrees = parse_degrees(args.degree)
    rows = locus.gcd_remark_audit(args.genus, degrees, max_vertices=args.max_vertices)
    records = [
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
    emit(
        records,
        ["degree", "all_general", "gcd_2g_minus_1_is_1", "gcd_2g_minus_2_is_1",
         "agree_2g_minus_1", "agree_2g_minus_2"],
        args.format,
        out,
    )
    return 0


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

    def common(p, graph=False, degree=False, genus=False):
        p.add_argument("--format", choices=["table", "json-lines"], default="table")
        p.add_argument("--seed", help=argparse.SUPPRESS)
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

    p = sub.add_parser("validate", help="genus and stability diagnostics")
    common(p, graph=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("class-group", help="invariant factors and order")
    common(p, graph=True)
    p.set_defaults(func=cmd_class_group)

    p = sub.add_parser("balanced", help="enumerate balanced multidegrees")
    common(p, graph=True, degree=True)
    p.set_defaults(func=cmd_balanced)

    p = sub.add_parser("neron", help="Neron-type verdict")
    common(p, graph=True, degree=True)
    p.add_argument(
        "--route",
        choices=["count", "criterion", "weakly-general", "all"],
        default="all",
    )
    p.set_defaults(func=cmd_neron)

    p = sub.add_parser("analyze", help="combined single-graph report")
    common(p, graph=True, degree=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("census", help="per-(graph, degree) census report")
    common(p, degree=True, genus=True)
    p.add_argument("--max-vertices", type=int, default=4)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("vine-scan", help="d-special vine curves of a genus")
    common(p, degree=True, genus=True)
    p.add_argument("--min-delta", type=int, default=1)
    p.set_defaults(func=cmd_vine_scan)

    p = sub.add_parser("codim-report", help="gcd trichotomy report")
    common(p, degree=True, genus=True)
    p.set_defaults(func=cmd_codim_report)

    p = sub.add_parser("audit", help="gcd criteria vs census d-generality")
    common(p, degree=True, genus=True)
    p.add_argument("--max-vertices", type=int, default=4)
    p.set_defaults(func=cmd_audit)

    return parser


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        print(
            "error: --seed is reserved; all computations are deterministic",
            file=sys.stderr,
        )
        return 1
    try:
        return args.func(args, out)
    except neron.TheoremCheckError as exc:
        print(f"theorem check failed: {exc}", file=sys.stderr)
        return 2
    except (graphs.GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
