"""Time each layer of qkflag over a grid of n and print one JSON row, min of k runs per layer.

    PYTHONPATH=src python tools/bench_layers.py [--ns 3,4,5] [--repeat 5] [--label NAME] [--out FILE]

For every n it times ``build_table(n)`` (auto arbitration), each verification
check (``ring`` with its default associativity gate, n <= 5), the conjecture
diff in both gatings, the correlator reconstruction of every Chevalley
quantum part, and the JSON round trip of the table (``table_to_json``,
``json.dumps``, ``json.loads``, ``table_from_json``), each as the minimum
wall time over ``--repeat`` runs.  A separate counted build, not timed,
wraps ``qkring._combine`` and counts the kernel's calls, the columns they
evaluate and the term pairs they accumulate (each term of an input column
times the terms of the operator column it selects), so a change that does
less work can be told from one that does the same work faster.

The speed a shared host gives moves by up to 2x over tens of seconds, so
each layer's time is bracketed by samples of ``perfbench/reference.py``'s
``load_sample()``, a fixed pure-Python load: the row keeps the raw minimum
(``seconds``), the median of the samples around it (``gauge_ms``) and the
time scaled to the gauge's reference speed (``scaled_seconds``, raw times
``reference.LOAD_MS`` over ``gauge_ms``), as perfbench scales its ops.  The
row also records the commit of the tree ``qkflag`` was imported from,
whether its ``src`` differs from that commit, the Python version,
``os.cpu_count()`` and the median gauge sample at the start.

Without ``--out`` the row is printed; with it, the row is appended to the
``rows`` list of that JSON file, which is created if missing.  The file
``qkflag`` was imported from goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import qkflag
from qkflag import conjecture, correlators, poly, qkring, verify
from qkflag.basis import enumerate_basis

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_NS = (3, 4, 5, 6, 7, 8, 10, 12, 16)
QUANTUM_DEGREES = ((1, 0), (0, 1), (1, 1))


def best_of(fn, repeat: int) -> float:
    """The minimum wall time of ``repeat`` calls of fn, in seconds."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def kernel_counts(n: int) -> dict:
    """Calls, columns and term pairs of the kernel in one ``build_table(n)``."""
    counts = {"calls": 0, "columns": 0, "term_pairs": 0}
    combine, pos = qkring._combine, poly._POS

    def counting(n, parts, width=1):
        parts = list(parts)
        counts["calls"] += 1
        counts["columns"] += width
        for *_, cols, xs in parts:
            for x in xs[:width]:
                for key in x._terms:
                    counts["term_pairs"] += len(cols[key >> pos])
        return combine(n, parts, width)

    qkring._combine = counting
    try:
        qkring.build_table(n)
    finally:
        qkring._combine = combine
    return counts


def layer_times(n: int, repeat: int, reference) -> dict:
    """Per layer at rank n: the minimum of ``repeat`` runs in seconds, the gauge around it, and both combined."""
    table = qkring.build_table(n)
    basis = enumerate_basis(n)
    checks = {
        "verify.positivity": verify.positivity_check,
        "verify.ring": verify.ring_axiom_checks,
        "verify.classical": verify.classical_consistency_check,
        "verify.degree": qkring.degree_bound_check,
        "verify.chevalley": verify.chevalley_consistency_check,
    }

    def reconstruct():
        for h in ("h1", "h2"):
            for v in basis:
                for deg in QUANTUM_DEGREES:
                    correlators.quantum_part_from_correlators(h, v, deg, n)

    def round_trip():
        qkring.table_from_json(json.loads(json.dumps(qkring.table_to_json(table))))

    fns = {
        "build_table": lambda: qkring.build_table(n),
        **{name: (lambda check=check: check(table)) for name, check in checks.items()},
        **{f"conjecture.{g}": (lambda g=g: conjecture.compare_with_table(table, g)) for g in conjecture.GATINGS},
        "correlators.reconstruct": reconstruct,
        "json.round_trip": round_trip,
    }
    out = {"seconds": {}, "gauge_ms": {}, "scaled_seconds": {}}
    before = reference.load_sample()
    for name, fn in fns.items():
        seconds = best_of(fn, repeat)
        after = reference.load_sample()
        gauge = statistics.median(before + after)
        out["seconds"][name] = round(seconds, 6)
        out["gauge_ms"][name] = round(gauge, 3)
        out["scaled_seconds"][name] = round(seconds * reference.LOAD_MS / gauge, 6)
        before = after
    return out


def source_commit() -> tuple[str | None, bool | None]:
    """The HEAD commit of the checkout ``qkflag`` came from, and whether its ``src`` has changes."""
    where = Path(qkflag.__file__).resolve().parent
    try:
        head = subprocess.run(["git", "-C", str(where), "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(
            ["git", "-C", str(where), "status", "--porcelain", "--", "."], capture_output=True, text=True
        )
    except OSError:
        return None, None
    if head.returncode != 0:
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def load_reference():
    """perfbench's ``reference`` module, read from this checkout."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import reference
    finally:
        sys.path.pop(0)
    return reference


def row(ns, repeat: int, label: str) -> dict:
    commit, dirty = source_commit()
    reference = load_reference()
    return {
        "label": label,
        "commit": commit,
        "src_changed": dirty,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "gauge_load_ms": round(statistics.median(t for _ in range(5) for t in reference.load_sample()), 3),
        "reference_load_ms": reference.LOAD_MS,
        "repeat": repeat,
        "layers": {str(n): {**layer_times(n, repeat, reference), "kernel": kernel_counts(n)} for n in ns},
    }


def ranks(text: str) -> list[int]:
    """``--ns``: a comma-separated list of ints, each at least 3."""
    try:
        ns = [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if min(ns) < 3:
        raise argparse.ArgumentTypeError(f"every n must be at least 3, got {text!r}")
    return ns


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ns", type=ranks, default=list(DEFAULT_NS), help="comma-separated ranks")
    parser.add_argument("--repeat", type=int, default=5, help="runs per layer; the minimum is kept")
    parser.add_argument("--label", default="", help="a name stored in the row")
    parser.add_argument("--out", type=Path, help="append the row to this JSON file's 'rows'")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    print(f"qkflag from {qkflag.__file__}", file=sys.stderr)
    result = row(args.ns, args.repeat, args.label)
    if args.out is None:
        print(json.dumps(result, indent=1))
        return 0
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"rows": []}
    doc["rows"].append(result)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
