"""In-memory span tracer that wraps public functions from the outside.

A wrapped function records one span per call: name, start, end, parent
span, pass id and whether it raised. Wrapping replaces the attribute each
caller looks up (``extrinsic.gauss_equations`` as the CLI calls it,
``immersions.PointState`` as the quadrature calls it) and puts the
original back afterwards, so the library source is never edited. Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
from time import perf_counter

NAME, START, END, PARENT, PASS, ERROR = range(6)


class Tracer:
    """Span recorder for a single-threaded caller."""

    def __init__(self):
        self.spans = []
        self.pass_id = -1
        self._open = []

    def wrap(self, name, fn):
        """Return ``fn`` recording a span per call.

        ``name`` is a string, or a callable that derives the span name
        from the call's arguments.
        """
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            span = [label, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.pass_id, False]
            open_spans.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                open_spans.pop()

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap ``(owner, attribute, span name)`` targets for the block's duration."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = inspect.getattr_static(owner, attr)
                saved.append((owner, attr, original))
                wrapper = self.wrap(name, getattr(owner, attr))
                if isinstance(original, (classmethod, staticmethod)):
                    wrapper = staticmethod(wrapper)
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans) -> list:
    """Self time of each span: its duration minus its direct children's.

    Calls on one thread nest, so the children of a span cover disjoint
    parts of its interval and their durations add.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def per_pass_totals(spans) -> dict:
    """{pass id: {span name: [calls, self seconds, errors]}}."""
    totals: dict = {}
    for span, busy in zip(spans, self_times(spans)):
        row = totals.setdefault(span[PASS], {}).setdefault(span[NAME], [0, 0.0, 0])
        row[0] += 1
        row[1] += busy
        row[2] += span[ERROR]
    return totals


def layer_medians(spans, pass_ids) -> dict:
    """Median over the given passes of calls, busy_s and errors per span name.

    A name missing from a pass counts as zero in that pass.
    """
    totals = per_pass_totals(spans)
    names = {name for per in totals.values() for name in per}
    out = {}
    for name in sorted(names):
        rows = [totals.get(p, {}).get(name, [0, 0.0, 0]) for p in pass_ids]
        out[name] = {
            "calls": statistics.median(r[0] for r in rows),
            "busy_s": statistics.median(r[1] for r in rows),
            "errors": statistics.median(r[2] for r in rows),
        }
    return out
