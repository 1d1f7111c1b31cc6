"""In-memory spans around the names through which ruleboost's layers call each other.

The traced run replaces module-level names such as ``ruleboost.cli.train``
with wrappers that open a span around the original function.  Callers look
these names up at call time, so nothing under ``src/`` changes.  A span
has a name of the form ``<layer>.<call>``, a start, an end and a parent;
a layer's self time is the duration of its spans minus the part their
child spans cover.  Spans are only recorded inside a root span (one timed
operation or one set-up), so the benchmark's own checks stay untraced.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import tracemalloc


class Span:
    __slots__ = ("name", "parent", "root", "start", "end", "attrs", "children")

    def __init__(self, name, parent, attrs):
        self.name = name
        self.parent = parent
        self.root = self if parent is None else parent.root
        self.attrs = attrs
        self.children = []
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(child.duration for child in self.children)


class Tracer:
    """Collects spans in memory; ``span`` is a no-op when tracing is off."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @property
    def active(self) -> bool:
        return bool(self._stack)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, attrs)
        if parent is not None:
            parent.children.append(span)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]


def nesting_errors(root: Span) -> list[str]:
    """Children must lie inside their parent and must not overlap each other."""
    errors = []
    pending = [root]
    while pending:
        span = pending.pop()
        previous_end = span.start
        for child in span.children:
            if child.start < previous_end or child.end > span.end:
                errors.append(f"span {child.name} escapes or overlaps within {span.name}")
            previous_end = child.end
            pending.append(child)
    return errors


def descendants(root: Span):
    pending = list(root.children)
    while pending:
        span = pending.pop()
        yield span
        pending.extend(span.children)


# What each wrapper records besides the timing, computed from the call's
# arguments and result so that no extra work runs inside the span.
def _file_bytes(span, args, result):
    span.attrs["bytes"] = os.path.getsize(args[0])


def _rules_trained(span, args, result):
    span.attrs["rules"] = len(result.rules)


def _rule_rows(span, args, result):
    ensemble, dataset = args[0], args[1]
    span.attrs["rule_rows"] = len(ensemble.rules) * dataset.n_examples


def _refinement(span, args, result):
    rule, trace = result
    # One objective per accepted condition plus the empty body; the search
    # evaluates one more step that finds no improvement, unless there are
    # no attributes at all.
    span.attrs["steps"] = len(trace) if args[0].n_attributes > 0 else 0
    span.attrs["conditions"] = len(rule.body)


def _store_update(span, args, result):
    # Coverage is counted after the run, outside every span.
    span.attrs["update"] = (args[2], args[3].body)


def _wrap(tracer: Tracer, function, name: str, record=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return function(*args, **kwargs)
        with tracer.span(name) as span:
            result = function(*args, **kwargs)
        if record is not None:
            record(span, args, result)
        return result

    return wrapper


def _wrap_decode(tracer: Tracer, function):
    """Decoding spans are split by method; known-vector decoding records its peak memory."""

    @functools.wraps(function)
    def wrapper(score_matrix, method, *args, **kwargs):
        if not tracer.active:
            return function(score_matrix, method, *args, **kwargs)
        if method != "known-vectors":
            with tracer.span("prediction.decode_sign"):
                return function(score_matrix, method, *args, **kwargs)
        with tracer.span("prediction.decode_known") as span:
            tracemalloc.start()
            try:
                return function(score_matrix, method, *args, **kwargs)
            finally:
                span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    return wrapper


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore the originals."""
    from ruleboost import cli, induction, serialization, trajectory, training

    targets = [
        (cli, "load_arff", "dataio.load_arff", _file_bytes),
        (serialization, "save", "serialization.save", None),
        (serialization, "load", "serialization.load", None),
        (cli, "train", "training.train", _rules_trained),
        (cli, "ensemble_scores", "rules.ensemble_scores", _rule_rows),
        (cli, "generate", "synthetic.generate", None),
        (cli, "run_trajectory", "trajectory.run_trajectory", None),
        (training, "refine_rule_with_trace", "induction.refine_rule", _refinement),
        (training, "stats_for_rows", "heads.full_stats", None),
        (training, "solve_full_head", "heads.full_solve", None),
        (training, "aggregate_stats", "heads.full_stats", None),
        (training, "find_head", "heads.full_solve", None),
        (training, "update_store", "losses.update_store", _store_update),
        (induction, "stats_for_rows", "heads.bag_stats", None),
        (induction, "find_head", "heads.bag_solve", None),
        (induction, "objective_value", "heads.bag_solve", None),
        (trajectory, "train", "training.train", _rules_trained),
        (trajectory, "body_mask", "rules.body_mask", None),
    ]
    saved = []
    for module, attribute, name, record in targets:
        original = getattr(module, attribute)
        saved.append((module, attribute, original))
        setattr(module, attribute, _wrap(tracer, original, name, record))
    for module in (cli, trajectory):
        original = module.decode_scores
        saved.append((module, "decode_scores", original))
        module.decode_scores = _wrap_decode(tracer, original)
    try:
        yield
    finally:
        for module, attribute, original in saved:
            setattr(module, attribute, original)
