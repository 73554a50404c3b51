"""Span tracing for the benchmark, kept entirely outside the package.

The tracer wraps package functions where they are bound: a module-level
function is replaced in every ``consonance`` module namespace that holds it
(including the package's own re-exports, through which the benchmark calls),
and a method is replaced on its class.  Each call then records one span:
id, parent span, name, the benchmark item it belongs to, start and end on
``perf_counter_ns``, and self time (duration minus the time covered by its
child spans).  Names a later version of the package no longer has are
skipped and listed, so refactors do not break the trace.

Spans are kept in compact in-memory columns and written out once, when the
benchmark ends.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from functools import wraps
from time import perf_counter_ns

#: layer (module) -> names traced in it; ``Class.attr`` names a method
TARGETS = {
    "harness": ("run_coverage", "ProcessSpec.draw"),
    "transducer": (
        "transduce_grid",
        "conformal_transducer",
        "_sweep_mean_abs_grid",
        "adjust_prime",
        "adjust_double_prime",
        "Contour.__post_init__",
    ),
    "outcome": (
        "complement",
        "enumerate_events",
        "Event.__post_init__",
        "Event.from_mask",
        "FiniteOutcomeSpace.__post_init__",
    ),
    "possibility": (
        "upper_prob",
        "lower_prob",
        "upper_table",
        "mass_from_belief",
        "focal_elements",
        "check_k_monotone",
        "check_k_alternating",
    ),
    "region": ("cpr", "ihdr_cut", "ihdr_intersection", "prop1_check"),
    "credal": (
        "in_credal_set",
        "prop2_membership",
        "extreme_points",
        "lower_entropy",
        "sample_credal",
        "ProbabilityVector.__post_init__",
    ),
    "bsa": (
        "posterior_update",
        "bsa_ihdr_report",
        "PredictiveFGCS.truncation",
        "PredictiveFGCS.pmf_matrix",
    ),
    "cli": ("main",),
}

LAYERS = tuple(TARGETS)

NO_PARENT = -1
#: item of a span recorded outside any benchmark item
NO_ITEM = -1


class Tracer:
    """Records spans around wrapped package calls while installed."""

    def __init__(self, observers=None, targets=TARGETS):
        # observers: span name -> fn(tracer, args, result), run after the call
        self.targets = targets
        self.observers = dict(observers or {})
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {c: array("q") for c in ("id", "parent", "name", "item", "start", "end", "self")}
        self.counts: dict = defaultdict(int)  # (item, key) -> count
        self.item = NO_ITEM
        self.skipped: list[str] = []
        self._stack: list[list] = []  # open spans: [id, child_ns, name]
        self._next_id = 0
        self._patches: list[tuple] | None = None

    # -- recording ---------------------------------------------------------

    def count(self, key: str, value: int = 1):
        self.counts[(self.item, key)] += value

    def parent_name(self) -> str | None:
        return self._stack[-1][2] if self._stack else None

    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self._stack
        cols = self.cols
        ids, parents, names, items = cols["id"], cols["parent"], cols["name"], cols["item"]
        starts, ends, selfs = cols["start"], cols["end"], cols["self"]
        observe = self.observers.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else NO_PARENT
            frame = [span_id, 0, name]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                ids.append(span_id)
                parents.append(parent)
                names.append(name_id)
                items.append(self.item)
                starts.append(start)
                ends.append(end)
                selfs.append(duration - frame[1])
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package: str = "consonance"):
        """Put the wrappers in place; they are built on the first call."""
        if self._patches is None:
            self._patches = self._plan(package)
        for owner, key, _, traced in self._patches:
            setattr(owner, key, traced)

    def restore(self):
        for owner, key, original, _ in reversed(self._patches or ()):
            setattr(owner, key, original)

    def _plan(self, package):
        """(owner, attribute, original, wrapper) for every traced binding."""
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        patches = []
        for layer, names in self.targets.items():
            home = sys.modules.get(f"{package}.{layer}")
            for qual in names:
                span_name = f"{layer}.{qual}"
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None or (owner_name and not isinstance(owner, type)):
                    self.skipped.append(span_name)
                elif owner_name:  # a method, replaced on its class
                    if isinstance(raw, (classmethod, staticmethod)):
                        traced = type(raw)(self._wrap(span_name, raw.__func__))
                    else:
                        traced = self._wrap(span_name, raw)
                    patches.append((owner, attr, raw, traced))
                else:  # a function, replaced wherever a module binds it
                    traced = self._wrap(span_name, raw)
                    patches += [
                        (module, key, raw, traced)
                        for module in modules
                        for key, value in vars(module).items()
                        if value is raw
                    ]
        return patches

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cols["id"])

    def totals(self) -> "SpanTotals":
        """Self time, duration and call count per (item, span name)."""
        acc = defaultdict(lambda: [0, 0, 0])
        c = self.cols
        for name_id, item, start, end, own in zip(c["name"], c["item"], c["start"], c["end"], c["self"]):
            row = acc[(item, self.names[name_id])]
            row[0] += own
            row[1] += end - start
            row[2] += 1
        return SpanTotals(acc, dict(self.counts))

    def write(self, path):
        """Write every span as CSV: id,parent,name,item,start_ns,end_ns,self_ns."""
        c = self.cols
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,name,item,start_ns,end_ns,self_ns\n")
            for row in zip(c["id"], c["parent"], c["name"], c["item"], c["start"], c["end"], c["self"]):
                out.write(f"{row[0]},{row[1]},{self.names[row[2]]},{row[3]},{row[4]},{row[5]},{row[6]}\n")


class SpanTotals:
    """Sums over recorded spans, optionally restricted to some items.

    ``items`` is an iterable of item indices; None means every span,
    including those recorded outside any item (item ``NO_ITEM``).
    """

    def __init__(self, rows, counts):
        self.rows = rows        # (item, name) -> [self_ns, duration_ns, calls]
        self.counts = counts    # (item, key) -> observer count

    def _sum(self, column, name, items):
        if items is None:
            return sum(row[column] for (_, n), row in self.rows.items() if n == name)
        return sum(self.rows[(i, name)][column] for i in items if (i, name) in self.rows)

    def self_total(self, name, items=None) -> int:
        return self._sum(0, name, items)

    def dur_total(self, name, items=None) -> int:
        return self._sum(1, name, items)

    def calls_total(self, name, items=None) -> int:
        return self._sum(2, name, items)

    def layer_self(self, layer) -> int:
        prefix = layer + "."
        return sum(row[0] for (_, n), row in self.rows.items() if n.startswith(prefix))

    def count_total(self, key) -> int:
        return sum(v for (_, k), v in self.counts.items() if k == key)
