"""Command-line surface: products, tables, verification sweeps, correlators.

Exit codes: 0 success / all checks pass; 1 a verification or comparison
reported failures; 2 malformed arguments or unsupported inputs.

Each subcommand imports the qkflag modules it runs inside its handler, and
``csv`` only when it writes CSV: ``flags`` loads only ``flags`` and
``errors``, and ``correlator`` loads the closed forms without ``qkring``,
``verify`` or ``conjecture``.  A cold command pays for nothing else.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .errors import QKFlagError

FORMATS = ("text", "json", "csv")
CSV_HEADER = ("u_i", "u_j", "v_i", "v_j", "w_i", "w_j", "d1", "d2", "coeff")
TABLE_HELP = "read the table from this JSON file, checked on load; slower than building it"


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkflag",
        description="Exact Schubert calculus for the incidence variety Fl(1, n-1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="star-product (or classical product) of two classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u", type=_parse_pair, required=True, metavar="i,j")
    p.add_argument("--v", type=_parse_pair, required=True, metavar="k,p")
    p.add_argument("--classical", action="store_true", help="classical K-ring product")
    p.add_argument("--table", dest="table_path", help=TABLE_HELP)
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
    p.add_argument("--table", dest="table_path", help=TABLE_HELP)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("conjecture", help="compare the closed formula against the table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gating", choices=("flipped", "literal"), default="flipped")
    p.add_argument("--table", dest="table_path", help=TABLE_HELP)
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


def _load_table(n: int, path: str | None):
    from .qkring import build_table, table_from_json
    if path is None:
        return build_table(n)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise QKFlagError(f"cached table {path} is nested too deeply to read") from None
    # a cache of another rank says so before its entries are read
    if isinstance(obj, dict) and type(obj.get("n")) is int and obj["n"] != n:
        raise QKFlagError(f"cached table is for n={obj['n']}, not n={n}")
    return table_from_json(obj)


def _emit(fmt: str, payload, text) -> None:
    """Print ``payload()`` as JSON for the json format, else ``text()``; only the one printed is made."""
    print(json.dumps(payload()) if fmt == "json" else text())


def _write_rows(out, products, fmt: str) -> None:
    """Write (u, v, O_u * O_v) triples to ``out`` as CSV rows, one per term, or as ``O_u * O_v = ...`` lines."""
    if fmt == "text":
        for u, v, col in products:
            out.write(f"O_{u[0]},{u[1]} * O_{v[0]},{v[1]} = {col}\n")
        return
    import csv
    writer = csv.writer(out)
    writer.writerow(CSV_HEADER)
    writer.writerows(
        [u[0], u[1], v[0], v[1], w.i, w.j, d1, d2, c]
        for u, v, col in products
        for (w, d1, d2), c in col.ordered_terms()
    )


def _cmd_product(args) -> int:
    from .basis import check_index
    u = check_index(args.u, args.n)
    v = check_index(args.v, args.n)
    if args.classical:
        from .kring import k_product
        result = k_product(u, v, args.n)
    else:
        from .qkring import qk_product
        result = qk_product(u, v, args.n, _load_table(args.n, args.table_path))
    if args.format == "json":
        from .poly import class_to_json
        print(json.dumps({**class_to_json(result), "u": list(u), "v": list(v)}))
    else:
        _write_rows(sys.stdout, [(u, v, result)], args.format)
    return 0


def _cmd_table(args) -> int:
    from .basis import enumerate_basis
    from .qkring import build_table, table_json_rows
    table = build_table(args.n)
    with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout) as out:
        if args.format == "json":
            # streamed json.dumps(table_to_json(table)); no row is empty, as it holds O_u * O_n,1 = O_u
            out.write(f'{{"n": {table.n}, "entries": [')
            for k, row in enumerate(table_json_rows(table)):
                out.write((", " if k else "") + json.dumps(row)[1:-1])
            out.write("]}\n")
        else:
            basis = enumerate_basis(table.n)
            _write_rows(out, ((u, v, col) for u, op in zip(basis, table.ops) for v, col in zip(basis, op.cols)),
                        args.format)
    return 0


def _cmd_verify(args) -> int:
    from . import verify
    from .qkring import degree_bound_check
    check_runners = {
        "positivity": verify.positivity_check,
        "ring": lambda t: verify.ring_axiom_checks(t, associativity=args.n <= args.assoc_max),
        "classical": verify.classical_consistency_check,
        "degree": degree_bound_check,
        "chevalley": verify.chevalley_consistency_check,
    }
    names = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not names:
        raise QKFlagError(f"--checks names no check: {args.checks!r}")
    unknown = [c for c in names if c not in check_runners]
    if unknown:
        raise QKFlagError(f"unknown checks: {', '.join(unknown)}")
    table = _load_table(args.n, args.table_path)
    reports = [check_runners[name](table) for name in names]
    _emit(args.format, lambda: verify.reports_to_json(reports), lambda: verify.reports_to_text(reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_conjecture(args) -> int:
    from .conjecture import compare_with_table
    table = _load_table(args.n, args.table_path)
    report = compare_with_table(table, gating=args.gating)
    _emit(args.format, report.to_json, report.to_text)
    return 0 if report.empty else 1


def _cmd_correlator(args) -> int:
    from . import correlators
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
            query = {"kind": "three", "n": args.n, "u": list(args.u), "v": list(args.v),
                     "w": list(args.w), "d": list(deg)}
    _emit(args.format, lambda: {"query": query, "value": value}, lambda: value)
    return 0


def _cmd_flags(args) -> int:
    from . import flags
    if args.shape is None or args.degrees is None:
        raise QKFlagError("flags needs --shape and --degrees")
    ambient = args.ambient if args.ambient is not None else max(args.shape) + 1
    if args.balanced:
        shape = flags.FlagShape(args.shape, ambient)
        result = flags.balanced_construct(shape, args.degrees)
        rows = result.sequences
        _emit(args.format,
              lambda: {"shape": list(shape.ranks), "n": shape.n, "degrees": list(result.degrees),
                       "sequences": [list(row) for row in rows], "spread": flags.spread(result)},
              lambda: " ".join("(" + ",".join(map(str, row)) + ")" for row in rows))
        return 0
    if args.k is None or args.r is None:
        raise QKFlagError("--stabilized needs --k and --r")
    s = flags.StabilizationInput(args.shape, ambient, args.degrees, args.k, args.r)
    ok = flags.theorem_conditions(s)
    _emit(args.format, lambda: {"ranks": list(s.ranks), "n": s.n, "degrees": list(s.degrees), "k": s.k, "r": s.r,
                                "stabilized": ok}, lambda: "stabilized" if ok else "not-stabilized")
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
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (QKFlagError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass
    # printing needs memory, which the failed command's frames hold until the handler ends
    print("error: out of memory", file=sys.stderr)
    return 2


main = run


if __name__ == "__main__":
    raise SystemExit(main())
