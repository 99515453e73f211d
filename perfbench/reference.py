"""Fixed pure-Python loads that gauge the machine's speed at the moment.

The CPU speed this benchmark gets from a shared host moves by up to 2x over
tens of seconds, whatever the benchmark does, and a whole 36-second run can
fall in a fast or a slow spell.  So every timed set-up and op is bracketed
by gauge samples, and its wall time is scaled by the gauge's reference time
over the median of the samples around it: the result is the time it would
have taken at the speed where the gauge reads its reference time.

The load is sparse polynomial multiplication over dicts keyed by exponent
tuples, the kind of work ``qkflag.poly`` does.  The ``load`` gauge runs it
in the benchmark process, for in-process ops.  The ``process`` gauge times
a cold interpreter that runs it (this file as a script) from start to exit,
for ops made of cold processes, which do not follow the warm in-process
load.  Neither shares code with ``qkflag``, so a change to the program
moves the scaled times as much as the raw ones.

    python3 perfbench/reference.py   # one ``process`` gauge sample's work
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Each gauge's sample in the usual (slow) state of the measuring machine.
LOAD_MS = 40.0  # one piece of the load, in process
PROCESS_MS = 170.0  # one cold interpreter running PIECES pieces
PIECES = 2  # pieces run at each bracket
ROUNDS = 160  # products in one piece

_BASE = {(i % 5, i // 5): i + 1 for i in range(25)}


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return {key: c for key, c in out.items() if c}


def _piece() -> float:
    t0 = perf_counter()
    for _ in range(ROUNDS):
        _mul(_BASE, _BASE)
    return (perf_counter() - t0) * 1000


def load_sample() -> list[float]:
    """Wall times in ms of ``PIECES`` pieces of the load, in this process."""
    return [_piece() for _ in range(PIECES)]


def process_sample() -> list[float]:
    """Wall time in ms of a cold interpreter that runs ``PIECES`` pieces and exits."""
    t0 = perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve())], check=True, capture_output=True, timeout=60)
    return [(perf_counter() - t0) * 1000]


# name -> (sampler, reference time in ms of one sample value)
GAUGES = {"load": (load_sample, LOAD_MS), "process": (process_sample, PROCESS_MS)}


if __name__ == "__main__":
    load_sample()
