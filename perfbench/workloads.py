"""The three workloads: inputs made from the seed, one op, and its checks.

Every op of a workload does the same work, so op times can be compared and
a median means something.  The seed only reorders the n grid (``build``,
``sweep``) or picks the classes and degrees of the command cycle (``cli``).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import checks

MODULES = ("basis", "poly", "kring", "qkring", "verify", "conjecture", "correlators", "flags", "cli")
QUANTUM_DEGREES = ((1, 0), (0, 1), (1, 1))
DEGREE_NAMES = {"l1": (1, 0), "l2": (0, 1), "l1+l2": (1, 1)}


def no_span(name):
    return nullcontext()


def import_qkflag() -> SimpleNamespace:
    """Import qkflag afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "qkflag" or m.startswith("qkflag.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"qkflag.{m}") for m in MODULES}
    return SimpleNamespace(package=sys.modules["qkflag"], **mods)


class Workload:
    """One closed-loop caller: ``op`` is called again only when it returns."""

    name = ""
    attempts_per_op = 1  # checked results in one op
    gauge = "load"  # the reference.GAUGES entry that scales its set-up and op times

    def __init__(self, root: Path, seed: int, work: Path):
        self.root = root
        self.rng = random.Random(seed)
        self.work = work
        self.errors: list[str] = []
        self._mods = None

    @property
    def mods(self) -> SimpleNamespace:
        if self._mods is None:
            self._mods = import_qkflag()
        return self._mods

    def release(self) -> None:
        """Drop what the last setup made, before the next one is timed."""

    def setup(self) -> None:
        self._mods = import_qkflag()

    def next_input(self):
        raise NotImplementedError

    def op(self, inp):
        """The op timed in the end-to-end run."""
        return self.inproc_op(inp, no_span)

    def inproc_op(self, inp, span):
        """The op inside this process, as the traced run replays it."""
        raise NotImplementedError

    def check(self, inp, out) -> int:
        """Check one op's outputs; return how many of its results failed."""
        raise NotImplementedError

    def trace_extras(self, inp, out, tracer) -> None:
        """Add counts that are read from one traced op's outputs."""

    def oracle_ns(self) -> set[int]:
        raise NotImplementedError

    def final_check(self, oracle: dict[int, str]) -> None:
        raise NotImplementedError

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Build(Workload):
    """``build_table(n)`` with the default ``auto`` arbitration, once per n of the grid."""

    name = "build"
    GRID = (3, 4, 5, 6, 7)
    attempts_per_op = len(GRID)

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        self.digests: dict[int, set[str]] = defaultdict(set)

    def next_input(self):
        order = list(self.GRID)
        self.rng.shuffle(order)
        return order

    def inproc_op(self, order, span):
        build_table = self.mods.qkring.build_table
        return [(n, build_table(n)) for n in order]

    def check(self, order, out) -> int:
        for n, table in out:
            self.digests[n].add(checks.table_digest(table, n))
            self.errors += checks.arbitration_errors(table.arbitration, f"build n={n}")
        return 0

    def trace_extras(self, order, out, tracer) -> None:
        stored = sum(
            len(table.product(u, v).items())
            for n, table in out
            for u in checks.schubert_basis(n)
            for v in checks.schubert_basis(n)
        )
        tracer.add("qkring.stored_constants", stored)

    def oracle_ns(self):
        return set(self.GRID)

    def final_check(self, oracle):
        for n in self.GRID:
            want = checks.sha256(oracle[n])
            if self.digests[n] != {want}:
                self.errors.append(f"build n={n}: table differs from the sympy oracle")


class Sweep(Workload):
    """One full check pass over prebuilt tables: verify, degree, conjecture, correlators."""

    name = "sweep"
    GRID = (3, 4, 5, 6, 7)
    ASSOC_MAX = 5  # the CLI default for --assoc-max
    attempts_per_op = len(GRID)

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        self.tables = self.checked_tables = None
        self.expected: dict[int, dict] = {}
        self.digests: dict[int, set[str]] = defaultdict(set)

    def release(self):
        self._check_tables()
        self.tables = None

    def _check_tables(self):
        """Compare each set-up's tables with the oracle (at the end) once."""
        if self.tables is not None and self.checked_tables is not self.tables:
            self.checked_tables = self.tables
            for n, table in self.tables.items():
                self.digests[n].add(checks.table_digest(table, n))
                self.errors += checks.arbitration_errors(table.arbitration, f"sweep n={n}")

    def setup(self):
        super().setup()
        build_table = self.mods.qkring.build_table
        self.tables = {n: build_table(n) for n in self.GRID}

    def next_input(self):
        order = list(self.GRID)
        self.rng.shuffle(order)
        return order

    def inproc_op(self, order, span):
        m = self.mods
        out = []
        for n in order:
            table = self.tables[n]
            reports = [
                m.verify.positivity_check(table),
                m.verify.ring_axiom_checks(table, associativity=n <= self.ASSOC_MAX),
                m.verify.classical_consistency_check(table),
                m.qkring.degree_bound_check(table),
                m.verify.chevalley_consistency_check(table),
            ]
            diff = m.conjecture.compare_with_table(table)
            recon = {
                (h, v, deg): m.correlators.quantum_part_from_correlators(h, v, deg, n)
                for h in ("h1", "h2")
                for v in checks.schubert_basis(n)
                for deg in QUANTUM_DEGREES
            }
            out.append((n, reports, diff, recon))
        return out

    def _expected_parts(self, n) -> dict:
        """The Q1, Q2 and Q1Q2 parts of the table's h1 and h2 rows."""
        if n not in self.expected:
            table = self.tables[n]
            self.expected[n] = {
                (h, v, deg): checks.degree_part(table.product(checks.hyperplane(h, n), v), deg)
                for h in ("h1", "h2")
                for v in checks.schubert_basis(n)
                for deg in QUANTUM_DEGREES
            }
        return self.expected[n]

    def check(self, order, out) -> int:
        self._check_tables()
        for n, reports, diff, recon in out:
            where = f"sweep n={n}"
            for r in reports:
                if not r.passed:
                    self.errors.append(f"{where}: {r.check} report failed: {r.counterexamples[:3]}")
            ring = reports[1]
            if ring.details.get("associativity_checked") != (n <= self.ASSOC_MAX):
                self.errors.append(f"{where}: associativity_checked is {ring.details}")
            if not diff.empty:
                self.errors.append(f"{where}: flipped-gate diff has {len(diff.mismatches)} mismatches")
            if not diff.details.get("literal_gating_mismatches"):
                self.errors.append(f"{where}: literal-gate diff is empty: {diff.details}")
            expected = self._expected_parts(n)
            for key, cls in recon.items():
                if checks.classical_dict(cls) != expected[key]:
                    self.errors.append(f"{where}: reconstruction of {key} differs from the table")
        return 0

    def oracle_ns(self):
        return set(self.GRID)

    def final_check(self, oracle):
        for n in self.GRID:
            if self.digests[n] != {checks.sha256(oracle[n])}:
                self.errors.append(f"sweep n={n}: a set-up table differs from the sympy oracle")


class Cli(Workload):
    """Cold ``python -m qkflag.cli`` processes, one at a time, over a fixed command cycle."""

    name = "cli"
    gauge = "process"
    TABLE_N = 6
    PRODUCT_N = 4
    CHECK_N = 5
    FLAG_SHAPE = (2, 4)
    # Malformed cached tables: the right answer is exit 2 and one 'error:' line.
    MALFORMED = {"product_empty_cache": {"n": 3, "entries": []}, "verify_no_entries": {"n": 3}}
    attempts_per_op = 9

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        rng = self.rng
        self.table_path = work / f"table{self.TABLE_N}.json"
        self.products = {
            "product_cached": (self.TABLE_N, rng.choice(checks.schubert_basis(self.TABLE_N)),
                               rng.choice(checks.schubert_basis(self.TABLE_N))),
            "product": (self.PRODUCT_N, rng.choice(checks.schubert_basis(self.PRODUCT_N)),
                        rng.choice(checks.schubert_basis(self.PRODUCT_N))),
        }
        n = self.CHECK_N
        self.correlator = (rng.choice(checks.schubert_basis(n)), rng.choice(checks.schubert_basis(n)),
                           rng.choice(sorted(DEGREE_NAMES)))
        self.flag_degrees = (rng.randint(0, 6), rng.randint(0, 8))
        pair = "{0[0]},{0[1]}".format
        cu, cw, cd = self.correlator
        (_, pu, pv), (_, qu, qv) = self.products["product_cached"], self.products["product"]
        self.cycle = [
            ("table", ["table", "--n", str(self.TABLE_N), "--out", str(self.table_path)]),
            ("product_cached", ["product", "--n", str(self.TABLE_N), "--u", pair(pu), "--v", pair(pv),
                                "--table", str(self.table_path), "--format", "json"]),
            ("product", ["product", "--n", str(self.PRODUCT_N), "--u", pair(qu), "--v", pair(qv),
                         "--format", "json"]),
            ("verify", ["verify", "--n", str(n), "--format", "json"]),
            ("conjecture", ["conjecture", "--n", str(n)]),
            ("correlator", ["correlator", "--kind", "two", "--n", str(n), "--u", pair(cu), "--w", pair(cw),
                            "--d", cd, "--format", "json"]),
            ("flags", ["flags", "--balanced", "--shape", pair(self.FLAG_SHAPE),
                       "--degrees", pair(self.flag_degrees), "--format", "json"]),
            ("product_empty_cache", ["product", "--n", "3", "--u", "2,1", "--v", "1,3",
                                     "--table", str(work / "product_empty_cache.json")]),
            ("verify_no_entries", ["verify", "--n", "3", "--table", str(work / "verify_no_entries.json")]),
        ]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.outputs: dict[str, set[str]] = defaultdict(set)
        self.table_digests: set[str] = set()

    def _process(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "qkflag.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        for label, obj in self.MALFORMED.items():
            (self.work / f"{label}.json").write_text(json.dumps(obj))
        code, _, err = self._process(["--help"])
        if code != 0:
            raise RuntimeError(f"qkflag.cli --help exited {code}: {err}")

    def next_input(self):
        return self.cycle

    def op(self, cycle):
        return [(label, *self._process(argv)) for label, argv in cycle]

    def inproc_op(self, cycle, span):
        run = self.mods.cli.run
        out = []
        for label, argv in cycle:
            stdout, stderr = io.StringIO(), io.StringIO()
            with span(f"cli.{label}"), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = run(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    traceback.print_exc()
                    code = 1
            out.append((label, code, stdout.getvalue(), stderr.getvalue()))
        return out

    def trace_extras(self, cycle, out, tracer):
        tracer.add("qkring.table_json_bytes", self.table_path.stat().st_size)

    def check(self, cycle, out) -> int:
        failed = 0
        for label, code, stdout, stderr in out:
            if label in self.MALFORMED:
                lines = stderr.splitlines()
                if not (code == 2 and not stdout and len(lines) == 1 and lines[0].startswith("error:")):
                    failed += 1
                continue
            if code != 0 or "Traceback" in stderr:
                failed += 1
                continue
            try:
                self._check_output(label, stdout)
            except (ValueError, KeyError, TypeError) as exc:
                self.errors.append(f"cli {label}: unreadable output {stdout[:200]!r}: {exc}")
        return failed

    def _check_output(self, label, stdout):
        where = f"cli {label}"
        if label == "table":
            self.table_digests.add(checks.json_table_digest(json.loads(self.table_path.read_text())))
        elif label in ("product_cached", "product", "correlator"):
            self.outputs[label].add(stdout)
        elif label == "verify":
            reports = json.loads(stdout)
            if sorted(r["check"] for r in reports) != ["classical", "degree", "positivity", "ring"]:
                self.errors.append(f"{where}: unexpected reports {[r['check'] for r in reports]}")
            for r in reports:
                if not r["passed"]:
                    self.errors.append(f"{where}: {r['check']} failed")
                if r["check"] == "ring":
                    if r["details"].get("associativity_checked") is not True:
                        self.errors.append(f"{where}: associativity not checked at n={self.CHECK_N}")
                    self.errors += checks.arbitration_errors(r["details"].get("step_c_arbitration", {}), where)
        elif label == "conjecture":
            report = json.loads(stdout)
            if report["gating"] != "flipped" or report["mismatches"]:
                self.errors.append(f"{where}: flipped-gate diff is not empty")
            if not report.get("details", {}).get("literal_gating_mismatches"):
                self.errors.append(f"{where}: literal-gate diff is empty")
        elif label == "flags":
            got = json.loads(stdout)
            best, minimizers = checks.balanced_minimizers(self.FLAG_SHAPE, self.flag_degrees)
            rows = tuple(tuple(r) for r in got["sequences"])
            if rows not in minimizers or got["spread"] != best:
                self.errors.append(f"{where}: {rows} (spread {got['spread']}) is not a minimizer of spread {best}")
        else:
            self.errors.append(f"{where}: no check for this command")

    def oracle_ns(self):
        return {n for n, _, _ in self.products.values()}

    def final_check(self, oracle):
        want = checks.sha256(oracle[self.TABLE_N])
        if self.table_digests != {want}:
            self.errors.append(f"cli table: written file differs from the sympy oracle ({len(self.table_digests)} digests)")
        for label, (n, u, v) in self.products.items():
            column = checks.oracle_column(json.loads(oracle[n]), u, v)
            for stdout in self.outputs[label]:
                got = json.loads(stdout)
                if got["terms"] != column or got["u"] != list(u) or got["v"] != list(v):
                    self.errors.append(f"cli {label}: O_{u} * O_{v} differs from the oracle column")
        n = self.CHECK_N
        u, w, d = self.correlator
        deg = DEGREE_NAMES[d]
        two_point = self.mods.correlators.two_point
        want = {two_point(u, w, deg, n), two_point(checks.dual(u, n), checks.dual(w, n), deg[::-1], n)}
        for stdout in self.outputs["correlator"]:
            got = json.loads(stdout)["value"]
            if len(want) != 1 or want != {got} or got not in (0, 1):
                self.errors.append(f"cli correlator: value {got}, closed form and its dual give {want}")

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (Build, Sweep, Cli)}
