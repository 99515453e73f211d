"""Print the dense sympy oracle's table for each n given, one per line.

    python3 perfbench/oracle.py 3 4 5

Each line is ``<n> <json>`` with the golden-file layout and compact
separators.  Run from the repository root; it imports
``tests/oracles/reference_table.py``.  The benchmark runs it in a child
process, so sympy is never loaded into the measured process.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from tests.oracles.reference_table import reference_table_json  # noqa: E402

for arg in sys.argv[1:]:
    n = int(arg)
    print(n, json.dumps(reference_table_json(n), separators=(",", ":")), flush=True)
