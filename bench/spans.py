"""Span tracing from outside the package.

The tracer replaces module-level names that trajshift resolves at call
time (``cluster.kmedoids`` inside ``select_k``, ``ridge_fit`` inside the
embedding loop, ...) with wrappers that record a span per call: name,
start, end, parent span and op id. Counters are taken from the wrapped
calls' return values, so no code in ``src/`` changes.
Installing and removing the wrappers is explicit, so untraced passes run
the original functions with no added cost.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager


def _on_build(tracer, out):
    tracer.counts["spline.cells"] += out.usable.size
    tracer.counts["spline.usable_cells"] += int(out.usable.sum())


def _on_kmedoids(tracer, out):
    # swaps kept in the winning start: its objective history minus the start
    tracer.counts["cluster.pam_swaps_kept"] += len(out.objective_history) - 1


def _on_read(tracer, out):
    tracer.counts["dataset.rows_read"] += out[1].rows_read


def _on_register(tracer, out):
    tracer.counts["register.iterations"] += len(out.history)
    tracer.counts[f"register.stop.{out.termination_reason}"] += 1


# (module, attribute, span name, record a span?, result hook). The module
# attribute is the name the caller resolves, which for re-exported
# functions is the importing module, not the defining one.
WRAPPED = (
    ("trajshift.simulate", "generate", "simulate.generate", True, None),
    ("trajshift.simulate", "corrupt", "simulate.corrupt", True, None),
    ("trajshift.cli", "main", "cli.main", True, None),
    ("trajshift.cli", "load_cohort", "dataset.load_cohort", True, None),
    ("trajshift.dataset", "read_cohort_csv", "dataset.read_cohort_csv", True, _on_read),
    ("trajshift.cli", "register", "register.register", True, _on_register),
    ("trajshift.register", "register", "register.register", True, _on_register),
    ("trajshift.register", "build_embedding", "spline.build_embedding", True, _on_build),
    ("trajshift.spline", "ridge_fit", "spline.ridge_fit", False, None),
    ("trajshift.register", "register_embedded", "register.register_embedded", True, None),
    ("trajshift.register", "select_k", "cluster.select_k", True, None),
    ("trajshift.cluster", "distance_matrix", "cluster.distance_matrix", True, None),
    ("trajshift.cluster", "kmedoids", "cluster.kmedoids", True, _on_kmedoids),
    ("trajshift.cluster", "kmeans", "cluster.kmeans", True, None),
    ("trajshift.cluster", "silhouette", "cluster.silhouette", True, None),
    ("trajshift.register", "trimmed_centroid", "register.trimmed_centroid", True, None),
    ("trajshift.register", "update_shifts", "register.update_shifts", True, None),
    ("trajshift.register", "finalize", "register.finalize", True, None),
    ("trajshift.cli", "recovery", "evaluate.recovery", True, None),
    ("trajshift.cli", "agreement", "evaluate.agreement", True, None),
)


class Tracer:
    """In-memory spans and counters for one benchmark process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.hits: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    def _wrap(self, fn, name, record, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.hits[name] += 1
            if not record:
                out = fn(*args, **kwargs)
            else:
                index = len(tracer.spans)
                span = {
                    "name": name,
                    "op": tracer.op,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                }
                tracer.spans.append(span)
                tracer._stack.append(index)
                span["start"] = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span["end"] = time.perf_counter()
                    tracer._stack.pop()
            if hook is not None:
                hook(tracer, out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Swap every wrapped name for its tracing wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, record, hook in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, record, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of one op; every span inside it carries the op id."""
        self.op = op_id
        index = len(self.spans)
        span = {"name": "op", "op": op_id, "parent": None, "start": time.perf_counter()}
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self.op = None

    def totals(self) -> tuple[Counter, Counter]:
        """Seconds per span name, total and self (minus direct children)."""
        total: Counter = Counter()
        child: Counter = Counter()
        for span in self.spans:
            duration = span["end"] - span["start"]
            total[span["name"]] += duration
            if span["parent"] is not None:
                child[span["parent"]] += duration
        own: Counter = Counter()
        for index, span in enumerate(self.spans):
            own[span["name"]] += span["end"] - span["start"] - child[index]
        return total, own
