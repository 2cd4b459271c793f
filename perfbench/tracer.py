"""In-memory call spans recorded from outside the program.

The tracer wraps functions; each call of a wrapper appends one span
``(name, start, end, parent, op, failed)`` where ``parent`` is the index of
the enclosing span (-1 for a root) and ``op`` the id of the benchmark op that
was running.  The program runs in one thread, so the spans of one op form a
tree whose children never overlap.

A span's layer is the first dotted component of its name.  A layer's self
time is the duration of its spans minus the part of each covered by child
spans, so the self times of all layers in an op add up to the op's root span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, FAILED = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self.counts: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)
        self._stack: list = []

    def wrap(self, name: str, fn, on_return=None):
        """A stand-in for ``fn`` that records a span per call.  ``on_return``
        is called as ``on_return(tracer, args, kwargs, result)`` after a call
        that returned, to add work counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, failed)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list:
    """Per span: duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        span[END] - span[START] - covered(children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def layer_self_times(spans) -> dict:
    """Self time summed per layer."""
    out: dict = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        out[layer(span[NAME])] += own
    return dict(out)


def _has_ancestor(spans, span, name: str) -> bool:
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def outermost(spans, name: str) -> list:
    """Spans called ``name`` that have no ancestor of the same name, so that
    a recursive or re-entrant group is not counted twice."""
    return [s for s in spans if s[NAME] == name and not _has_ancestor(spans, s, name)]


def inside(spans, name: str, ancestor: str) -> list:
    """Spans called ``name`` that run within a span called ``ancestor``."""
    return [s for s in spans if s[NAME] == name and _has_ancestor(spans, s, ancestor)]
