"""Spans around the package's public functions, recorded from outside it.

A Tracer wraps each traced function at every name it is bound to in the
loaded singchi modules, so a call made through any binding records a span
and nested calls nest. A span holds its name, start, end and parent span;
the root span of each benchmark operation ties its spans together. Spans
stay in memory until the run ends.
A span's self time is its duration minus the durations of its direct
children; the wrapped code is single-threaded, so children never overlap.

Some spans also record counts read off the call's arguments or result:
generator terms of a built ideal, variables split off, polar chain retries
and stage sums. A colength span is classed by its outcome: a finite or an
infinite colength, or an exhausted step budget.
"""

from __future__ import annotations

import inspect
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

ROOT = "op"

# Functions traced, by defining module and name. The package's internal
# helpers stay inside these spans, so substitution is charged to the
# function that substitutes.
TRACED = (
    ("catalog", "resolve_row"),
    ("poly", "parse_poly"),
    ("poly", "divided_difference"),
    ("poly", "jacobian"),
    ("poly", "determinant"),
    ("multiple_points", "multiple_point_ideal"),
    ("multiple_points", "partition_restricted_ideal"),
    ("multiple_points", "invariant_tuple"),
    ("standard_basis", "eliminate_linear_generators"),
    ("standard_basis", "colength"),
    ("milnor", "icis_milnor"),
    ("milnor", "point_count"),
    ("milnor", "hypersurface_milnor"),
    ("euler", "image_chi_report"),
)

# The seed offset icis_milnor adds per retry of its polar chain.
_RETRY_STRIDE = 1000003


def _ideal_terms(args, kwargs, result):
    return {"terms": sum(len(g.terms) for g in result.gens)}


def _eliminated(args, kwargs, result):
    return {"eliminated": len(result[1])}


def _chain_counts(signature):
    def counts(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {
            "retries": (result.seed - bound.arguments["seed"]) // _RETRY_STRIDE,
            "stage_sum": sum(result.stages),
        }

    return counts


def _colength_kind(result):
    return "infinite" if result == math.inf else "finite"


class Span:
    __slots__ = ("name", "kind", "parent", "start", "end")

    def __init__(self, name, parent):
        self.name = name
        self.kind = ""
        self.parent = parent
        self.start = self.end = 0


class Tracer:
    """Records spans and counts for one phase of a run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    @contextmanager
    def operation(self):
        """A root span around one benchmark operation."""
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name):
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter_ns()
        return span

    def _close(self, span):
        span.end = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name, counts=None, classify=None, exhausted=()):
        """fn inside a span; classify names the span's kind from the result,
        and a call that raises `exhausted` is of kind "exhausted"."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except exhausted:
                span.kind = "exhausted"
                raise
            finally:
                self._close(span)
            if classify is not None:
                span.kind = classify(result)
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    @contextmanager
    def installed(self, pkg):
        """Bind the traced wrappers in every loaded singchi module."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "singchi"]
        replaced = []
        for module_name, attr in TRACED:
            fn = getattr(getattr(pkg, module_name), attr)
            name = f"{module_name}.{attr}"
            counts = classify = None
            exhausted = ()
            if attr in ("multiple_point_ideal", "partition_restricted_ideal"):
                counts = _ideal_terms
            elif attr == "eliminate_linear_generators":
                counts = _eliminated
            elif attr == "icis_milnor":
                counts = _chain_counts(inspect.signature(fn))
            elif attr == "colength":
                classify = _colength_kind
                exhausted = pkg.errors.ResourceLimitError
            wrapper = self.wrap(fn, name, counts, classify, exhausted)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, binding, wrapper)
                        replaced.append((module, binding, fn))
        try:
            yield
        finally:
            for module, binding, fn in replaced:
                setattr(module, binding, fn)

    def totals(self):
        """Per (name, kind): calls, self ns and total ns."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out = defaultdict(lambda: {"calls": 0, "self_ns": 0, "total_ns": 0})
        for span, covered in zip(self.spans, child):
            entry = out[(span.name, span.kind)]
            entry["calls"] += 1
            entry["total_ns"] += span.end - span.start
            entry["self_ns"] += span.end - span.start - covered
        return out
