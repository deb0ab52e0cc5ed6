"""Spans and counters recorded from outside the package.

The tracer replaces a function at the module binding its caller looks
up (for example `harness.generate_network` and
`percolation.generate_network` are two bindings of one function) and
puts every binding back on exit.  Spans are kept in memory; self times
are computed from them after the traced sweep.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict


@contextlib.contextmanager
def patched(replacements):
    """Set each `(module, attribute) -> value` for the block, then restore all."""
    saved = []
    try:
        for (module, attr), value in replacements.items():
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread")

    def __init__(self, id, name, start, end, parent, thread):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread

    def as_list(self):
        return [self.id, self.name, self.start, self.end, self.parent, self.thread]


class Tracer:
    """Records one span per call of each wrapped binding.

    `bindings` maps `(module, attribute)` to `(span name, count)`, where
    `count(counts, args, result)` adds to the tracer's counters from the
    call's arguments and return value, or is None.  Each thread keeps
    its own parent stack; a span opened on a thread with an empty stack
    (a harness pool worker) takes as parent the innermost span open on
    the thread that created the tracer.
    """

    def __init__(self, bindings):
        self.bindings = bindings
        self.spans = []
        self.counts = defaultdict(int)
        self._ids = itertools.count()
        self._stacks = {}
        self._root = threading.get_ident()

    def _stack(self):
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return ident, stack

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident, stack = self._stack()
            if stack:
                parent = stack[-1].id
            else:
                top = self._stacks.get(self._root, [])[-1:] if ident != self._root else []
                parent = top[0].id if top else None
            span = Span(next(self._ids), name, time.perf_counter(), None, parent, ident)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def __enter__(self):
        replacements = {
            (module, attr): self.wrap(getattr(module, attr), name, count)
            for (module, attr), (name, count) in self.bindings.items()}
        self._patch = patched(replacements)
        self._patch.__enter__()
        return self

    def __exit__(self, *exc):
        return self._patch.__exit__(*exc)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Sum over spans of each name of duration minus the part its children cover.

    Children on other threads can overlap each other; only the union of
    their intervals, clipped to the parent's, is taken off.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    totals = defaultdict(float)
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ()) if c.end > s.start and c.start < s.end)
        totals[s.name] += (s.end - s.start) - covered
    return dict(totals)
