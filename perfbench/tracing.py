"""Timing and counting wrappers installed around qkflag's public functions.

Nothing here is imported by qkflag.  A :class:`Tracer` replaces every
module-level binding of a named function (including values of module-level
dicts such as ``cli.CHECK_RUNNERS``) and the named class attributes with
wrappers, and puts the originals back on :meth:`Tracer.uninstall`.  Spans
are kept in memory, each with its parent, and written out at the end.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name): each call is a span with a parent.
SPANS = (
    ("qkring", "build_table", "qkring.build_table"),
    ("qkring", "Operator.compose", "qkring.compose"),
    ("kring", "k_product", "kring.k_product"),
    ("verify", "positivity_check", "verify.positivity"),
    ("verify", "ring_axiom_checks", "verify.ring"),
    ("verify", "classical_consistency_check", "verify.classical"),
    ("qkring", "degree_bound_check", "verify.degree"),
    ("verify", "chevalley_consistency_check", "verify.chevalley"),
    ("conjecture", "compare_with_table", "conjecture.compare"),
    ("correlators", "quantum_part_from_correlators", "correlators.reconstruct"),
    ("qkring", "table_to_json", "qkring.to_json"),
    ("qkring", "table_from_json", "qkring.from_json"),
)

# (module, attribute, counter name): called too often for a span each.  They
# are installed only for a separate counting op, whose times are not used.
COUNTERS = (
    ("basis", "check_index", "basis.check_index_calls"),
    ("poly", "QKClass.__init__", "poly.qkclass_new"),
    ("conjecture", "conjectured_product", "conjecture.products_evaluated"),
    ("correlators", "two_point", "correlators.two_point_calls"),
)

# (span name, ancestor span name, counter name): spans counted under an ancestor.
NESTED = (("qkring.compose", "verify.ring", "verify.assoc_compose_calls"),)

COUNTER_NAMES = frozenset(name for _, _, name in COUNTERS)


class Tracer:
    """Spans and counters, each tagged with the op (see :meth:`op_span`) it belongs to."""

    def __init__(self):
        self.spans: list[list] = []  # [name, op, parent, start, end]
        self.counts: Counter = Counter()  # (op, name) -> count
        self.op_group: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []

    @property
    def op(self) -> int:
        return len(self.op_group) - 1

    @contextmanager
    def op_span(self, group: str):
        """A root span around one op; everything recorded inside belongs to it."""
        self.op_group.append(group)
        with self.span("op"):
            yield self.op

    @contextmanager
    def span(self, name: str):
        rec = [name, self.op, self._stack[-1] if self._stack else -1, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[4] = perf_counter()
            self._stack.pop()

    def add(self, name: str, value) -> None:
        self.counts[(self.op, name)] += value

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(len(self.op_group) - 1, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, mods, counters: bool) -> None:
        """Wrap every function in SPANS, and in COUNTERS if ``counters``, in every module of ``mods``.

        A name that the program no longer has is skipped; its metrics read 0.
        """
        modules = list(vars(mods).values())
        kinds = [(SPANS, self._span_wrapper)] + [(COUNTERS, self._count_wrapper)] * counters
        for specs, make in kinds:
            for mod_name, attr, name in specs:
                owner = getattr(mods, mod_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    orig = owner.__dict__.get(attr)
                    if orig is None:
                        continue
                    setattr(owner, attr, make(name, orig))
                    self._restore.append((owner, attr, orig))
                    continue
                orig = getattr(owner, attr, None)
                if orig is None:
                    continue
                wrapped = make(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
                            self._restore.append((mod, key, orig))
                        elif type(value) is dict:
                            for k, v in value.items():
                                if v is orig:
                                    value[k] = wrapped
                                    self._restore.append((value, k, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            if type(owner) is dict:
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._restore.clear()

    @contextmanager
    def installed(self, mods, counters: bool = False):
        self.install(mods, counters)
        try:
            yield
        finally:
            self.uninstall()

    def per_op(self) -> dict[int, dict[str, float]]:
        """For each op: <span>_ms, <span>_self_ms, <span>_calls and every counter.

        Self time is a span's duration minus the time its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for k, (name, op, parent, start, end) in enumerate(self.spans):
            row = out[op]
            row[f"{name}_ms"] += (end - start) * 1000
            row[f"{name}_self_ms"] += (end - start - child[k]) * 1000
            row[f"{name}_calls"] += 1
            for span_name, ancestor, counter in NESTED:
                if name == span_name and self._has_ancestor(parent, ancestor):
                    row[counter] += 1
        for (op, name), value in self.counts.items():
            out[op][name] += value
        return out

    def _has_ancestor(self, k: int, name: str) -> bool:
        while k >= 0:
            if self.spans[k][0] == name:
                return True
            k = self.spans[k][2]
        return False

    def write(self, path) -> None:
        """One JSON line per span: id, parent, op, group, name, start and duration."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, op, parent, start, end) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": k,
                            "parent": parent,
                            "op": op,
                            "group": self.op_group[op] if op >= 0 else None,
                            "name": name,
                            "start_ms": start * 1000,
                            "dur_ms": (end - start) * 1000,
                        }
                    )
                    + "\n"
                )
