"""Reproduce the baseline rows of ROADMAP.md: minimum over three repeats.

    python3 perfbench/baseline.py

Run from the repository root.  Prints one markdown table row per figure:
``build_table(n)`` with the default ``auto`` arbitration and with
``step_c="h2"`` at n = 7 and 8, and a cold ``python -m qkflag.cli product``
process at n = 3 and 8.
"""

import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3


def best_of(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return min(times)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from qkflag.qkring import build_table

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    print("| what | n | seconds, min of 3 |")
    print("| --- | --- | --- |")
    for step_c in ("auto", "h2"):
        for n in (7, 8):
            s = best_of(lambda: build_table(n, step_c=step_c))
            print(f"| `build_table(n, step_c={step_c!r})` | {n} | {s:.3f} |")
    for n, u, v in ((3, "2,1", "1,3"), (8, "2,1", "1,3")):
        argv = [sys.executable, "-m", "qkflag.cli", "product", "--n", str(n), "--u", u, "--v", v]
        s = best_of(lambda: subprocess.run(argv, cwd=ROOT, env=env, check=True, capture_output=True))
        print(f"| CLI `product` (cold process) | {n} | {s:.3f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
