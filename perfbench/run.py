"""Layered benchmark for qkflag.

    python3 perfbench/run.py --workload build|sweep|cli|all --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics of one workload; ``--trace 1`` is the separate traced run that gives
the per-layer metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.  Every output is checked against the
sympy oracle or a property it must have, outside the timed loop.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import checks  # noqa: E402
import reference  # noqa: E402
from tracing import COUNTER_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, Build, import_qkflag, no_span  # noqa: E402

SELF_TEST_N = 3
SETUPS = (3, 9)  # fewest and most timed set-ups at the start of an end-to-end run
SETUP_SECONDS = 2.0  # more set-ups, up to the most, until their raw times add up to this
CLI_QKRING = ("qkring.to_json", "qkring.from_json", "qkring.table_json_bytes")


def home(metric: str) -> str:
    """The workload whose traced ops a per-layer metric is read from."""
    if metric.startswith(("verify.", "conjecture.", "correlators.")):
        return "sweep"
    if metric.startswith(("cli.",) + CLI_QKRING):
        return "cli"
    return "build"


def run_oracle(ns) -> dict[int, str]:
    """The sympy oracle's canonical table text for each n.

    Computed in a child process, and kept under ``out/oracle`` keyed by a
    hash of the oracle's source, so later runs read it instead.
    """
    source = ROOT / "tests" / "oracles" / "reference_table.py"
    cache = OUT / "oracle" / checks.sha256(source.read_text())[:16]
    missing = sorted(n for n in ns if not (cache / f"{n}.json").is_file())
    if missing:
        proc = subprocess.run(
            [sys.executable, str(HERE / "oracle.py"), *map(str, missing)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"oracle failed: {proc.stderr}")
        cache.mkdir(parents=True, exist_ok=True)
        for line in proc.stdout.splitlines():
            n, text = line.split(" ", 1)
            tmp = cache / f"{n}.json.tmp"
            tmp.write_text(text)
            tmp.replace(cache / f"{n}.json")
    return {n: (cache / f"{n}.json").read_text() for n in ns}


def self_test(mods, oracle_text: str) -> list[str]:
    """The table checker accepts the oracle's table and rejects it with one coefficient flipped."""
    obj = json.loads(oracle_text)
    n = obj["n"]
    want = checks.sha256(oracle_text)
    errors = []
    if checks.table_digest(mods.qkring.table_from_json(obj), n) != want:
        errors.append("self-test: checker rejects the oracle's own table")
    entry = obj["entries"][len(obj["entries"]) // 2]
    entry["poly"][0]["coeff"] = -entry["poly"][0]["coeff"]
    if checks.table_digest(mods.qkring.table_from_json(obj), n) == want:
        errors.append("self-test: checker accepts a table with one coefficient flipped")
    return errors


def run_op(w, span=None):
    """One op: its wall time in seconds (None if it raised), its failed count, input and output."""
    inp = w.next_input()
    gc.collect()
    t0 = perf_counter()
    try:
        out = w.op(inp) if span is None else w.inproc_op(inp, span)
    except Exception:
        traceback.print_exc()
        return None, w.attempts_per_op, None, None
    dt = perf_counter() - t0
    return dt, w.check(inp, out), inp, out


def measure(w, seconds: float) -> tuple[dict, int, int, dict]:
    """End-to-end run: set up a few times (``SETUPS``), then one op after
    another until ``seconds`` have passed since the start.

    ``setup_s`` is the median of the set-ups; the ops run on the last one.
    Every set-up and op time is scaled to reference speed by the workload's
    gauge (``reference.py``), sampled just before and just after it.
    """
    take, ref_ms = reference.GAUGES[w.gauge]
    setups, durations, attempted, failed = [], [], 0, 0
    raw = {"setup_ms": [], "op_ms": [], "scale": []}
    start = perf_counter()
    fewest, most = SETUPS
    before = take()
    while len(setups) < fewest or (len(setups) < most and sum(raw["setup_ms"]) < SETUP_SECONDS * 1000):
        w.release()
        gc.collect()
        t0 = perf_counter()
        w.setup()
        dt = perf_counter() - t0
        after = take()
        setups.append(dt * ref_ms / median(before + after))
        raw["setup_ms"].append(dt * 1000)
        before = after
    step = 0.0  # wall time of the last op, its check and its gauge sample
    # Start another op only if it would end, on average, before the deadline.
    while attempted == 0 or perf_counter() - start + step / 2 < seconds:
        t0 = perf_counter()
        dt, bad, _, _ = run_op(w)
        after = take()
        step = perf_counter() - t0
        attempted += w.attempts_per_op
        failed += bad
        if dt is not None:
            scale = ref_ms / median(before + after)
            durations.append(dt * scale)
            raw["op_ms"].append(dt * 1000)
            raw["scale"].append(scale)
        before = after
    if not durations:
        raise RuntimeError("every op raised")
    # Throughput over the middle half of the ops: an op whose gauge samples
    # missed a short spell of host speed weighs nothing.
    q1, _, q3 = quantiles(durations, n=4) if len(durations) > 1 else durations * 3
    middle = [d for d in durations if q1 <= d <= q3]
    metrics = {
        "ops_per_s": len(middle) / sum(middle),
        "op_p50_ms": median(durations) * 1000,
        "setup_s": median(setups),
        "peak_rss_mib": w.peak_rss_mib(),
    }
    samples = {"op_ms": [d * 1000 for d in durations], "setup_ms": [d * 1000 for d in setups], "raw": raw}
    return metrics, attempted, failed, samples


def subprocess_ms(argv, env) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True, capture_output=True, timeout=60)
    return (perf_counter() - t0) * 1000


def trace(w, seconds: float, seed: int) -> tuple[dict, int, int, dict, list]:
    """Traced run: untraced and traced in-process ops alternate on ``w``; then
    one traced op of every other workload, so that every layer is measured,
    and one op of each workload with the call counters on.

    Only the alternating ops of ``w`` count as attempted or failed; the
    others are checked all the same.
    """
    tracer = Tracer()
    w.setup()
    times = {False: [], True: []}
    attempted = failed = 0
    start = perf_counter()
    while attempted == 0 or perf_counter() - start < seconds:
        # Alternate which of the pair runs first.
        for traced in (False, True) if len(times[True]) % 2 == 0 else (True, False):
            if traced:
                with tracer.installed(w.mods), tracer.op_span(w.name):
                    dt, bad, inp, out = run_op(w, tracer.span)
                if dt is not None:
                    w.trace_extras(inp, out, tracer)
            else:
                dt, bad, _, _ = run_op(w, no_span)
            attempted += w.attempts_per_op
            failed += bad
            if dt is not None:
                times[traced].append(dt)
    used = [w] + [cls(ROOT, seed, OUT / "work") for cls in WORKLOADS.values() if cls.name != w.name]
    for u in used:
        if u is not w:
            u.setup()
            with tracer.installed(u.mods), tracer.op_span(u.name):
                dt, _, inp, out = run_op(u, tracer.span)
            if dt is not None:
                u.trace_extras(inp, out, tracer)
        with tracer.installed(u.mods, counters=True), tracer.op_span(f"{u.name}.count"):
            run_op(u, tracer.span)
    build = next(u for u in used if u.name == Build.name)
    with tracer.installed(build.mods), tracer.op_span("build.h2"):
        for n in Build.GRID:
            build.mods.qkring.build_table(n, step_c="h2")

    rows = tracer.per_op()

    def med(group, key):
        if key in COUNTER_NAMES:
            group += ".count"
        vals = [rows[op].get(key, 0.0) for op, g in enumerate(tracer.op_group) if g == group]
        return median(vals) if vals else 0.0

    cli = next(u for u in used if u.name == "cli")
    bare, imports = [], []
    for _ in range(5):
        bare.append(subprocess_ms(["-c", "pass"], cli.env))
        imports.append(subprocess_ms(["-c", "import qkflag.cli"], cli.env))
    special = {
        "qkring.kept_compose_share": med("build.h2", "qkring.compose_calls") / med("build", "qkring.compose_calls"),
        "cli.interpreter_ms": median(bare),
        "cli.import_ms": median(imports) - median(bare),
        "trace.overhead_pct": (median(times[True]) / median(times[False]) - 1) * 100,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"trace_{w.name}.jsonl")
    metrics = {}
    for spec in load_spec()["per_layer"]:
        name = spec["name"]
        metrics[name] = special[name] if name in special else med(home(name), name)
    samples = {"op_ms": [d * 1000 for d in times[False]], "traced_op_ms": [d * 1000 for d in times[True]]}
    return metrics, attempted, failed, samples, used


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """The result line of one workload, and the op and set-up times behind it."""
    w = WORKLOADS[name](ROOT, seed, OUT / "work")
    if traced:
        values, attempted, failed, samples, used = trace(w, seconds, seed)
        kind = "per_layer"
    else:
        values, attempted, failed, samples = measure(w, seconds)
        used = [w]
        kind = "end_to_end"
    # Peak memory is read above, before the oracle's output is parsed here.
    ns = {SELF_TEST_N}.union(*(u.oracle_ns() for u in used))
    oracle = run_oracle(ns)
    for u in used:
        u.final_check(oracle)
    errors = [e for u in used for e in u.errors] + self_test(import_qkflag(), oracle[SELF_TEST_N])
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in load_spec()[kind]}
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }, samples


def run_all(seed: int, seconds: float, traced: bool) -> dict:
    """Every workload in its own process; metric names get the workload as prefix."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    return merged


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for needed in (ROOT / "src" / "qkflag" / "__init__.py", ROOT / "tests" / "oracles" / "reference_table.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a qkflag checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        result, samples = run_all(args.seed, args.seconds, bool(args.trace)), {}
    else:
        result, samples = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"seed": args.seed, "seconds": args.seconds, **result, "samples": samples}
    (OUT / f"result_{args.workload}_trace{args.trace}.json").write_text(json.dumps(record) + "\n")
    for k, m in result["metrics"].items():
        print(f"{args.workload} {k} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
