"""Print one line per CLI command: label, exit code, sha256 of stdout, sha256 of the file it wrote.

    PYTHONPATH=src python tools/cli_snapshot.py

Runs a fixed list of ``qkflag.cli.run`` commands in-process.  Two source
trees print the same lines exactly when every command gives the same stdout,
exit code and written file, so a change that must keep the CLI's output is
checked by running this with ``PYTHONPATH`` set to each tree's ``src`` and
diffing the two outputs.  The list covers ``table`` and ``product`` in every
format at n = 3..6, ``verify`` (all five checks, text and json),
``conjecture`` (both gatings, also at n = 7 and 8), ``correlator`` and
``flags``; ``verify``, ``conjecture`` and ``product`` also run with
``--table`` on a cached n = 4 table with signs flipped (see
:func:`flipped_cache`), so failing reports go through the CLI too, and
``product`` on a cached n = 3 table whose only entry for one product has
coefficient 0 (see :func:`zeroed_cache`), which must be refused.  The ring
check with associativity at n = 6 and 7 (the certificate, built from the
table's own recurrence), ``table`` at n = 7 and the positivity, classical and
degree checks at n = 7 and 8 in json are hashed too.  The file
``qkflag`` was imported from goes to stderr, not into the snapshot.

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
from qkflag.cli import run

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


def main() -> int:
    print(f"qkflag from {Path(qkflag.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        files = {"{cache}": str(flipped_cache(Path(tmp))), "{zeroed}": str(zeroed_cache(Path(tmp)))}
        for argv in [cmd for n in NS for cmd in commands(n)] + FIXED:
            code, out, written = snapshot([files.get(a, a) for a in argv])
            print(" ".join(argv), code, out, written, sep="\t")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
