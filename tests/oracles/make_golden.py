"""Regenerate the frozen golden tables.  Invoke explicitly:

    python -m tests.oracles.make_golden [n ...]

Defaults to n = 3 and n = 4.
"""

from __future__ import annotations

import json
import pathlib
import sys

from .reference_table import reference_table_json

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"


def golden_text(n: int) -> str:
    """The text of ``golden_table_n{n}.json``: the sympy oracle's table as compact JSON."""
    return json.dumps(reference_table_json(n), separators=(",", ":")) + "\n"


def write_golden(n: int) -> pathlib.Path:
    path = DATA_DIR / f"golden_table_n{n}.json"
    path.write_text(golden_text(n))
    return path


def main(argv=None) -> int:
    ns = [int(x) for x in (argv if argv is not None else sys.argv[1:])] or [3, 4]
    for n in ns:
        path = write_golden(n)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
