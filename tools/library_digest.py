"""Print one sha256 over the library's conjecture reports, reconstructions and three-point values.

    PYTHONPATH=src python tools/library_digest.py

The digest covers, in this order:

- ``compare_with_table(build_table(n), gating)`` for every gating at
  n = 3..10: ``json.dumps(report.to_json())`` and ``report.to_text()``;
- ``quantum_part_from_correlators(h, v, deg, n)`` for h1 and h2, every v and
  the degrees l1, l2 and l1+l2 at n = 3..10, as ``poly.class_to_json``;
- ``three_point_incidence(u1, u2, w, deg, n)`` for every u1, u2, w and every
  deg with 0 <= d1, d2 <= 3 at n = 3..6: the value, or the message of the
  ``UnsupportedDegree`` it raises.

Two source trees print the same digest exactly when all of these agree, so a
change that must keep the closed forms' output is checked by running this
with ``PYTHONPATH`` set to each tree's ``src`` and diffing the two lines.
The file ``qkflag`` was imported from goes to stderr.
"""

from __future__ import annotations

import hashlib
import json
import sys

import qkflag
from qkflag.basis import enumerate_basis
from qkflag.conjecture import GATINGS, compare_with_table
from qkflag.correlators import quantum_part_from_correlators, three_point_incidence
from qkflag.errors import UnsupportedDegree
from qkflag.poly import DEGREE_L1, DEGREE_L1L2, DEGREE_L2, class_to_json
from qkflag.qkring import build_table


def lines():
    for n in range(3, 11):
        table = build_table(n)
        for gating in GATINGS:
            report = compare_with_table(table, gating)
            yield json.dumps(report.to_json())
            yield report.to_text()
        for h in ("h1", "h2"):
            for v in enumerate_basis(n):
                for deg in (DEGREE_L1, DEGREE_L2, DEGREE_L1L2):
                    c = quantum_part_from_correlators(h, v, deg, n)
                    yield f"{n} {h} {tuple(v)} {deg} " + json.dumps(class_to_json(c))
    degrees = [(d1, d2) for d1 in range(4) for d2 in range(4)]
    for n in range(3, 7):
        basis = enumerate_basis(n)
        for deg in degrees:
            for u1 in basis:
                for u2 in basis:
                    for w in basis:
                        try:
                            yield str(three_point_incidence(u1, u2, w, deg, n))
                        except UnsupportedDegree as exc:
                            yield f"UnsupportedDegree: {exc}"


def main() -> None:
    print(f"qkflag from {qkflag.__file__}", file=sys.stderr)
    digest = hashlib.sha256()
    for line in lines():
        digest.update(line.encode())
        digest.update(b"\n")
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
