"""Spans recorded from outside the program, and self-time arithmetic.

The traced run replaces named callables of the program with thin wrappers
that record a span (name, start, end, parent, trace id) around each call.
Each wrapper is installed where the caller looks the name up, e.g.
``repro.core.model.sample_negative_diffusion_pairs`` rather than the
defining module, and removed again afterwards. Spans stay in memory until
the run ends.

A span's *self time* is its duration minus the part of its interval that
its children cover (their union, so overlapping children count once).
Over one operation's tree the self times add up to the root's duration;
:func:`accounting_gap` measures how far they miss, which catches a child
that escaped its parent's interval.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    trace: int | None = None
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "trace": self.trace,
            "thread": self.thread,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(**payload)


class Recorder:
    """In-memory span store with per-thread parent stacks.

    Synchronous wrappers nest through a thread-local stack, so a span's
    parent is the innermost recorded call still open on its thread.
    Coroutine wrappers cannot use the stack (coroutines interleave on one
    thread); they tag their span with the context's trace id instead.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.enabled = True
        self.trace_id: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_trace", default=None
        )
        self._ids = itertools.count(1)
        self._local = threading.local()

    def new_id(self) -> int:
        return next(self._ids)

    def stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record a span around a block of the benchmark's own code."""
        if not self.enabled:
            yield attrs
            return
        stack = self.stack()
        span_id = self.new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, self.trace_id.get(),
                     threading.get_ident(), attrs)
            )


def wrap_sync(recorder: Recorder, fn, name: str, attrs=None):
    """Wrap a plain callable; ``attrs(args, kwargs, result) -> dict``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        with recorder.span(name) as extra:
            result = fn(*args, **kwargs)
            if attrs is not None:
                extra.update(attrs(args, kwargs, result))
        return result

    return wrapper


def wrap_async(recorder: Recorder, fn, name: str, attrs=None):
    """Wrap a coroutine function; the span carries the context's trace id."""

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return await fn(*args, **kwargs)
        span_id = recorder.new_id()
        start = time.perf_counter()
        extra: dict = {}
        try:
            result = await fn(*args, **kwargs)
            if attrs is not None:
                extra.update(attrs(args, kwargs, result))
            return result
        finally:
            recorder.spans.append(
                Span(span_id, name, start, time.perf_counter(), None,
                     recorder.trace_id.get(), threading.get_ident(), extra)
            )

    return wrapper


def wrap_count(recorder: Recorder, fn, name: str):
    """Wrap a callable to count its calls without a span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.enabled:
            recorder.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class Patcher:
    """Installs wrappers on module or class attributes and restores them."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attribute: str, make_wrapper) -> None:
        # a class attribute is read from the class itself, so a method is
        # restored as the plain function it was, not as a bound method
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


# ----------------------------------------------------------------- arithmetic


def covered(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if min(end, high) > max(start, low)
    )
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def children_index(spans) -> dict[int | None, list[Span]]:
    index: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        index[span.parent].append(span)
    return index


def self_time(span: Span, children) -> float:
    return span.duration - covered(
        [(child.start, child.end) for child in children], span.start, span.end
    )


def subtree_self_times(root: Span, children_of) -> list[tuple[Span, float]]:
    """``(span, self time)`` for ``root`` and every descendant.

    ``children_of(span)`` returns a span's children, so callers can attach
    children that were linked after recording.
    """
    out = []
    pending = [root]
    while pending:
        span = pending.pop()
        children = children_of(span)
        out.append((span, self_time(span, children)))
        pending.extend(children)
    return out


def accounting_gap(root: Span, children_of) -> float:
    """Share by which the subtree's self times miss the root's duration."""
    total = sum(value for _span, value in subtree_self_times(root, children_of))
    return abs(total - root.duration) / root.duration if root.duration > 0 else 0.0
