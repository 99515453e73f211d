"""Command-line surface: products, tables, verification sweeps, correlators.

Exit codes: 0 success / all checks pass; 1 a verification or comparison
reported failures; 2 malformed arguments or unsupported inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import basis, conjecture, correlators, flags, qkring, verify
from .errors import QKFlagError
from .kring import k_product
from .poly import QKClass, class_to_json
from .qkring import MultiplicationTable, build_table, qk_product, table_to_json

FORMATS = ("text", "json", "csv")


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'i,j', got {text!r}")
    return (a, b)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _default_jobs() -> int:
    raw = os.environ.get("QKFLAG_JOBS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkflag",
        description="Exact Schubert calculus for the incidence variety Fl(1, n-1).",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=_default_jobs(),
        help="parallelism hint for sweeps (default from QKFLAG_JOBS; sweeps run sequentially)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="star-product (or classical product) of two classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u", type=_parse_pair, required=True, metavar="i,j")
    p.add_argument("--v", type=_parse_pair, required=True, metavar="k,p")
    p.add_argument("--classical", action="store_true", help="classical K-ring product")
    p.add_argument("--table", dest="table_path", help="load a cached table JSON instead of rebuilding")
    p.add_argument("--format", choices=FORMATS, default="text")

    p = sub.add_parser("table", help="build the full multiplication table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="json")
    p.add_argument("--out", help="write to a file instead of stdout")

    p = sub.add_parser("verify", help="run verification sweeps over the table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--checks",
        default="positivity,ring,classical,degree",
        help="comma-separated subset of positivity,ring,classical,degree,chevalley",
    )
    p.add_argument("--assoc-max", type=int, default=5, help="largest n for the associativity sweep")
    p.add_argument("--table", dest="table_path")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("conjecture", help="compare the closed formula against the table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gating", choices=conjecture.GATINGS, default="flipped")
    p.add_argument("--table", dest="table_path")
    p.add_argument("--format", choices=("text", "json"), default="json")

    p = sub.add_parser("correlator", help="evaluate a correlator closed form")
    p.add_argument("--n", type=int)
    p.add_argument("--kind", choices=("two", "three", "pn"), required=True)
    p.add_argument("--u", type=_parse_pair, metavar="i,j")
    p.add_argument("--v", type=_parse_pair, metavar="k,p")
    p.add_argument("--w", type=_parse_pair, metavar="s,t", help="dual-basis insertion")
    p.add_argument("--d", help="degree: 'd1,d2' or l1|l2|l1+l2 (two/three); integer (pn)")
    p.add_argument("--m", type=int, help="projective dimension for --kind pn")
    p.add_argument("--i", type=_parse_int_list, metavar="i1,i2,i3", help="indices for --kind pn")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("flags", help="balanced sequences and stabilization bounds")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--balanced", action="store_true")
    group.add_argument("--stabilized", action="store_true")
    p.add_argument("--shape", type=_parse_int_list, metavar="i1,..,im")
    p.add_argument("--degrees", type=_parse_int_list, metavar="d1,..,dm")
    p.add_argument("--ambient", type=int, help="ambient dimension n (default: max rank + 1)")
    p.add_argument("--k", type=int, help="forgotten step for --stabilized")
    p.add_argument("--r", type=int, help="marked points for --stabilized")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


DEGREE_ALIASES = {"l1": (1, 0), "l2": (0, 1), "l1+l2": (1, 1)}


def _parse_degree(text: str) -> tuple[int, int]:
    if text in DEGREE_ALIASES:
        return DEGREE_ALIASES[text]
    try:
        return _parse_pair(text)
    except argparse.ArgumentTypeError as exc:
        raise QKFlagError(str(exc))


def _load_table(n: int, path: str | None) -> MultiplicationTable:
    if path is None:
        return build_table(n)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise QKFlagError(f"cached table {path} is nested too deeply to read") from None
    table = qkring.table_from_json(obj)
    if table.n != n:
        raise QKFlagError(f"cached table is for n={table.n}, not n={n}")
    return table


def render_product(u, v, result: QKClass, fmt: str) -> str:
    if fmt == "text":
        left = f"O_{u[0]},{u[1]} * O_{v[0]},{v[1]}"
        return f"{left} = {result}"
    if fmt == "json":
        payload = class_to_json(result)
        payload["u"] = list(u)
        payload["v"] = list(v)
        return json.dumps(payload)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["u_i", "u_j", "v_i", "v_j", "w_i", "w_j", "d1", "d2", "coeff"])
    for w, p in result.items():
        for (d1, d2), c in p.terms():
            writer.writerow([u[0], u[1], v[0], v[1], w.i, w.j, d1, d2, c])
    return buf.getvalue().rstrip("\n")


def render_table(table: MultiplicationTable, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(table_to_json(table))
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["u_i", "u_j", "v_i", "v_j", "w_i", "w_j", "d1", "d2", "coeff"])
        for u, v, w, p in qkring.table_entries(table):
            for (d1, d2), c in p.terms():
                writer.writerow([u.i, u.j, v.i, v.j, w.i, w.j, d1, d2, c])
        return buf.getvalue().rstrip("\n")
    lines = []
    for u in basis.enumerate_basis(table.n):
        m = table.matrix(u)
        for v in basis.enumerate_basis(table.n):
            lines.append(f"O_{u.i},{u.j} * O_{v.i},{v.j} = {m.column(v)}")
    return "\n".join(lines)


def _cmd_product(args) -> int:
    u = basis.check_index(args.u, args.n)
    v = basis.check_index(args.v, args.n)
    if args.classical:
        result = k_product(u, v, args.n)
    else:
        table = _load_table(args.n, args.table_path)
        result = qk_product(u, v, args.n, table)
    print(render_product(u, v, result, args.format))
    return 0


def _cmd_table(args) -> int:
    table = build_table(args.n)
    text = render_table(table, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


CHECK_RUNNERS = {
    "positivity": verify.positivity_check,
    "classical": verify.classical_consistency_check,
    "chevalley": verify.chevalley_consistency_check,
}


def _cmd_verify(args) -> int:
    names = [c.strip() for c in args.checks.split(",") if c.strip()]
    known = set(CHECK_RUNNERS) | {"ring", "degree"}
    unknown = [c for c in names if c not in known]
    if unknown:
        raise QKFlagError(f"unknown checks: {', '.join(unknown)}")
    table = _load_table(args.n, args.table_path)
    reports = []
    for name in names:
        if name == "ring":
            reports.append(
                verify.ring_axiom_checks(table, associativity=args.n <= args.assoc_max)
            )
        elif name == "degree":
            reports.append(qkring.degree_bound_check(table))
        else:
            reports.append(CHECK_RUNNERS[name](table))
    if args.format == "json":
        print(json.dumps(verify.reports_to_json(reports)))
    else:
        print(verify.reports_to_text(reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_conjecture(args) -> int:
    table = _load_table(args.n, args.table_path)
    report = conjecture.compare_with_table(table, gating=args.gating)
    if args.format == "json":
        print(json.dumps(report.to_json()))
    else:
        print(report.to_text())
    return 0 if report.empty else 1


def _cmd_correlator(args) -> int:
    if args.kind == "pn":
        if args.m is None or args.i is None or args.d is None:
            raise QKFlagError("--kind pn needs --m, --i i1,i2,i3 and --d D")
        if len(args.i) != 3:
            raise QKFlagError("--i must list exactly three indices")
        try:
            d = int(args.d)
        except ValueError:
            raise QKFlagError(f"--d must be an integer for --kind pn, got {args.d!r}")
        value = correlators.three_point_projective(*args.i, d, args.m)
        query = {"kind": "pn", "m": args.m, "i": list(args.i), "d": d}
    else:
        if args.n is None or args.u is None or args.w is None or args.d is None:
            raise QKFlagError(f"--kind {args.kind} needs --n, --u, --w and --d")
        deg = _parse_degree(args.d)
        if args.kind == "two":
            value = correlators.two_point(args.u, args.w, deg, args.n)
            query = {"kind": "two", "n": args.n, "u": list(args.u), "w": list(args.w), "d": list(deg)}
        else:
            if args.v is None:
                raise QKFlagError("--kind three needs --v")
            value = correlators.three_point_incidence(args.u, args.v, args.w, deg, args.n)
            query = {
                "kind": "three",
                "n": args.n,
                "u": list(args.u),
                "v": list(args.v),
                "w": list(args.w),
                "d": list(deg),
            }
    if args.format == "json":
        print(json.dumps({"query": query, "value": value}))
    else:
        print(value)
    return 0


def _cmd_flags(args) -> int:
    if args.shape is None or args.degrees is None:
        raise QKFlagError("flags needs --shape and --degrees")
    ambient = args.ambient if args.ambient is not None else max(args.shape) + 1
    if args.balanced:
        shape = flags.FlagShape(args.shape, ambient)
        result = flags.balanced_construct(shape, args.degrees)
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "shape": list(shape.ranks),
                        "n": shape.n,
                        "degrees": list(result.degrees),
                        "sequences": [list(row) for row in result.sequences],
                        "spread": flags.spread(result),
                    }
                )
            )
        else:
            rows = " ".join("(" + ",".join(map(str, row)) + ")" for row in result.sequences)
            print(rows)
        return 0
    if args.k is None or args.r is None:
        raise QKFlagError("--stabilized needs --k and --r")
    s = flags.StabilizationInput(args.shape, ambient, args.degrees, args.k, args.r)
    ok = flags.theorem_conditions(s)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "ranks": list(s.ranks),
                    "n": s.n,
                    "degrees": list(s.degrees),
                    "k": s.k,
                    "r": s.r,
                    "stabilized": ok,
                }
            )
        )
    else:
        print("stabilized" if ok else "not-stabilized")
    return 0


COMMANDS = {
    "product": _cmd_product,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "conjecture": _cmd_conjecture,
    "correlator": _cmd_correlator,
    "flags": _cmd_flags,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    try:
        return COMMANDS[args.command](args)
    except (QKFlagError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
