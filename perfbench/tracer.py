"""In-memory spans recorded around wrapped functions, and their arithmetic.

A wrapper records one span per call: name, start, end, the span that was
open when the call began (its parent) and the case being measured. Spans
stay in memory until the benchmark ends. Wrappers are installed by
replacing module or class attributes where callers look the names up, and
`patched` restores every replaced attribute on exit, also on error.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root
    case: str
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans of one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.case = ""
        self._stack: list[int] = []
        self._clock = clock

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span; yields the Span."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, self._clock(), math.nan, parent, self.case)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec.end = self._clock()
            self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        """Wrap fn so every call records a span named `name`.

        counts(args, kwargs, result) -> dict, if given, attaches counters
        to the span after the call returns; its cost falls outside the span.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counts is not None:
                rec.counts = counts(args, kwargs, result)
            return result
        return wrapper

    def ancestor_names(self, idx: int):
        """Names of the spans enclosing span idx, innermost first."""
        parent = self.spans[idx].parent
        while parent >= 0:
            yield self.spans[parent].name
            parent = self.spans[parent].parent


@contextlib.contextmanager
def patched(replacements):
    """Set owner.attr = value for each (owner, attr, value) in turn and
    restore the original attributes, in reverse order, on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def covered(interval, children) -> float:
    """Length of the union of the child intervals clipped to `interval`."""
    lo, hi = interval
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in children)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Per span, its duration minus the time its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered((s.start, s.end), kids)
            for s, kids in zip(spans, children)]


def median_n(values) -> tuple[float, int]:
    """(median, sample count) of a non-empty sequence."""
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values), len(values)
