"""Print one line per CLI command, then one per section and n of the library's closed forms.

    PYTHONPATH=src python tools/cli_snapshot.py

A CLI line is the command, its exit code, the sha256 of its stdout and the
sha256 of the file it wrote.  The commands run in-process through
``qkflag.cli.run``: ``table`` and ``product`` in every format at n = 3..6,
``verify`` (all five checks, text and json), ``conjecture`` (both gatings,
also at n = 7 and 8), ``correlator`` and ``flags``; ``verify``,
``conjecture`` and ``product`` also run with ``--table`` on a cached n = 4
table with signs flipped (see :func:`flipped_cache`), so failing reports go
through the CLI too, and ``product`` on a cached n = 3 table whose only
entry for one product has coefficient 0 (see :func:`zeroed_cache`), which
must be refused.  The ring check with associativity at n = 6 and 7 (the
certificate, built from the table's own recurrence), ``table`` at n = 7 and
the positivity, classical and degree checks at n = 7 and 8 in json are
hashed too.

A library line is a section and n, then the sha256 of the section's lines,
each ended by a newline (see :data:`LIBRARY`):

- ``compare_with_table``, n = 3..10: ``json.dumps(report.to_json())`` and
  ``report.to_text()`` of both gatings' diffs of ``build_table(n)``;
- ``quantum_part_from_correlators``, n = 3..10: ``poly.class_to_json`` of
  the reconstruction for h1 and h2, every v and the degrees l1, l2, l1+l2;
- ``three_point_incidence``, n = 3..6: the value for every u1, u2, w and
  every degree with 0 <= d1, d2 <= 3, or the message of the
  ``UnsupportedDegree`` it raises.

Two source trees print the same lines exactly when all of these agree, so a
change that must keep the CLI's and the closed forms' output is checked by
running this with ``PYTHONPATH`` set to each tree's ``src`` and diffing the
two outputs; a line that differs names the command or the section and n
that moved.  The file ``qkflag`` was imported from goes to stderr, not into
the snapshot.

The output is committed as ``tests/data/cli_snapshot.tsv``, and
``tests/test_cli.py`` compares a fresh run with it byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import qkflag
from qkflag.basis import enumerate_basis
from qkflag.cli import run
from qkflag.conjecture import GATINGS, compare_with_table
from qkflag.correlators import quantum_part_from_correlators, three_point_incidence
from qkflag.errors import UnsupportedDegree
from qkflag.poly import DEGREE_L1, DEGREE_L1L2, DEGREE_L2, class_to_json
from qkflag.qkring import build_table

NS = (3, 4, 5, 6)
CHECKS = "positivity,ring,classical,degree,chevalley"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def commands(n: int) -> list[list[str]]:
    """The commands at rank n."""
    pairs = [((1, n), (1, n)), ((n - 1, 1), (1, 2)), ((2, 1), (1, 3)), ((n, 2), (2, n))]
    cmds = [["table", "--n", str(n), "--format", fmt] for fmt in ("json", "csv", "text")]
    for u, v in pairs:
        for fmt in ("text", "json", "csv"):
            cmds.append(["product", "--n", str(n), "--u", "%d,%d" % u, "--v", "%d,%d" % v, "--format", fmt])
    cmds.append(["product", "--n", str(n), "--u", "%d,%d" % pairs[1][0], "--v", "2,1", "--classical"])
    for fmt in ("text", "json"):
        cmds.append(["verify", "--n", str(n), "--checks", CHECKS, "--format", fmt])
    for gating in ("flipped", "literal"):
        cmds.append(["conjecture", "--n", str(n), "--gating", gating])
    return cmds


# ``{cache}`` stands for the flipped n = 4 table, ``{zeroed}`` for the zeroed n = 3 table
FIXED = [
    ["verify", "--n", "4", "--checks", CHECKS, "--table", "{cache}"],
    ["verify", "--n", "4", "--checks", CHECKS, "--table", "{cache}", "--format", "json"],
    ["conjecture", "--n", "4", "--table", "{cache}"],
    ["conjecture", "--n", "4", "--gating", "literal", "--table", "{cache}", "--format", "text"],
    ["product", "--n", "4", "--u", "4,1", "--v", "1,2", "--table", "{cache}"],
    ["product", "--n", "4", "--u", "4,1", "--v", "1,2", "--table", "{cache}", "--format", "csv"],
    ["product", "--n", "4", "--u", "2,2", "--v", "1,3"],
    ["verify", "--n", "3", "--checks", "bogus"],
    ["correlator", "--kind", "two", "--n", "5", "--u", "2,3", "--w", "5,3", "--d", "l1"],
    ["correlator", "--kind", "three", "--n", "4", "--u", "3,1", "--v", "2,4", "--w", "4,1",
     "--d", "1,1", "--format", "json"],
    ["correlator", "--kind", "pn", "--m", "3", "--i", "1,2,3", "--d", "1"],
    ["flags", "--balanced", "--shape", "2,4", "--degrees", "2,3"],
    ["flags", "--balanced", "--shape", "2", "--degrees", "5", "--format", "json"],
    ["flags", "--stabilized", "--shape", "1,3", "--ambient", "4", "--degrees", "6,6", "--k", "1", "--r", "3"],
    ["flags", "--stabilized", "--shape", "1,3", "--ambient", "4", "--degrees", "5,6", "--k", "1", "--r", "3",
     "--format", "json"],
    ["conjecture", "--n", "7", "--gating", "flipped"],
    ["conjecture", "--n", "7", "--gating", "literal"],
    ["conjecture", "--n", "8", "--gating", "flipped"],
    ["conjecture", "--n", "8", "--gating", "literal"],
    ["product", "--n", "3", "--u", "1,2", "--v", "1,2", "--table", "{zeroed}"],
    ["verify", "--n", "6", "--checks", "ring", "--assoc-max", "6"],
    ["verify", "--n", "7", "--checks", "ring", "--assoc-max", "7"],
    ["table", "--n", "7"],
    ["verify", "--n", "7", "--checks", "positivity,classical,degree", "--format", "json"],
    ["verify", "--n", "8", "--checks", "positivity,classical,degree", "--format", "json"],
]


def snapshot(argv: list[str], out_file: Path | None = None) -> tuple[int, str, str]:
    """Run one command; return its exit code and the sha256 of its stdout and of ``out_file``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    written = sha256(out_file.read_bytes()) if out_file is not None else "-"
    return code, sha256(stdout.getvalue().encode()), written


def flipped_cache(tmp: Path) -> Path:
    """Write the n = 4 table with ``table --out`` and flip signs in it.

    The coefficient of O_{4,1} * O_{1,2} (the unit column) and every
    coefficient of O_{1,4} * O_{1,4} are flipped, and the entries and their
    terms are written in reverse, so a report that does not order its rows
    shows in the snapshot.
    """
    cache = tmp / "table_n4.json"
    code, out, written = snapshot(["table", "--n", "4", "--out", str(cache)], cache)
    print("table --n 4 --out {file}", code, out, written, sep="\t")
    obj = json.loads(cache.read_text())
    for entry in obj["entries"]:
        if (entry["u"], entry["v"]) in (([4, 1], [1, 2]), ([1, 4], [1, 4])):
            for term in entry["poly"]:
                term["coeff"] *= -1
        entry["poly"].reverse()
    obj["entries"].reverse()
    flipped = tmp / "flipped_n4.json"
    flipped.write_text(json.dumps(obj))
    return flipped


def zeroed_cache(tmp: Path) -> Path:
    """The n = 3 table with the coefficient of its one entry for O_{3,1} * O_{1,2} set to 0.

    A zero coefficient is dropped on load, so that product has no entry left
    and the cache must be refused (exit 2).
    """
    cache = tmp / "table_n3.json"
    snapshot(["table", "--n", "3", "--out", str(cache)], cache)
    obj = json.loads(cache.read_text())
    (entry,) = [e for e in obj["entries"] if (e["u"], e["v"]) == ([3, 1], [1, 2])]
    for term in entry["poly"]:
        term["coeff"] = 0
    zeroed = tmp / "zeroed_n3.json"
    zeroed.write_text(json.dumps(obj))
    return zeroed


def compare_with_table_lines(n: int):
    """Both gatings' diffs of the built table, as JSON and as text."""
    table = build_table(n)
    for gating in GATINGS:
        report = compare_with_table(table, gating)
        yield json.dumps(report.to_json())
        yield report.to_text()


def quantum_part_from_correlators_lines(n: int):
    """Each reconstructed Chevalley quantum part, after its h, v and degree."""
    for h in ("h1", "h2"):
        for v in enumerate_basis(n):
            for deg in (DEGREE_L1, DEGREE_L2, DEGREE_L1L2):
                c = quantum_part_from_correlators(h, v, deg, n)
                yield f"{n} {h} {tuple(v)} {deg} " + json.dumps(class_to_json(c))


def three_point_incidence_lines(n: int):
    """Each three-point value with 0 <= d1, d2 <= 3, or the message of its refusal."""
    basis = enumerate_basis(n)
    for deg in [(d1, d2) for d1 in range(4) for d2 in range(4)]:
        for u1 in basis:
            for u2 in basis:
                for w in basis:
                    try:
                        yield str(three_point_incidence(u1, u2, w, deg, n))
                    except UnsupportedDegree as exc:
                        yield f"UnsupportedDegree: {exc}"


# (the lines of a section, n) in row order; a row's label is the section's name without "_lines"
LIBRARY = [(lines, n) for n in range(3, 11)
           for lines in (compare_with_table_lines, quantum_part_from_correlators_lines)]
LIBRARY += [(three_point_incidence_lines, n) for n in range(3, 7)]


def main() -> int:
    print(f"qkflag from {Path(qkflag.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        files = {"{cache}": str(flipped_cache(Path(tmp))), "{zeroed}": str(zeroed_cache(Path(tmp)))}
        for argv in [cmd for n in NS for cmd in commands(n)] + FIXED:
            code, out, written = snapshot([files.get(a, a) for a in argv])
            print(" ".join(argv), code, out, written, sep="\t")
    for lines, n in LIBRARY:
        section = lines.__name__.removesuffix("_lines")
        print(f"{section} n={n}", sha256("".join(line + "\n" for line in lines(n)).encode()), sep="\t")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
