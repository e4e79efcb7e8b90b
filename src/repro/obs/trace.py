"""Trace spans with cross-thread and cross-process context propagation.

A *span* is one timed operation (a sweep, a shard call, a WAL append burst);
a *trace* is the tree of spans that served one logical request. The context
(trace id + current span id) lives on a thread-local stack, so nested
``with span(...)`` blocks parent automatically — and the same context can be
serialized into a tiny header dict, handed to another thread (the
``ParallelEStepRunner`` workers, the gateway's executor) or sent over HTTP
(``X-Repro-Trace``), and re-activated on the far side with
:func:`remote_span`, so the far side's spans chain into the caller's tree.

Finished spans land in a ring-buffer :class:`SpanSink` (bounded, newest
wins) shared by every thread; :meth:`SpanSink.ingest` folds in records
collected elsewhere, so one request yields a single reconstructable tree
(:meth:`SpanSink.trees`) even when the work crossed threads or processes.

Like metrics, tracing is off by default: the module-level sink starts as a
:class:`NullSpanSink` and ``span()`` returns a shared no-op context manager,
so disabled call sites cost one global read and allocate nothing.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Iterator, Mapping

__all__ = [
    "Span",
    "SpanSink",
    "NullSpanSink",
    "SpanBuffer",
    "span",
    "remote_span",
    "record_span",
    "capture_spans",
    "current_header",
    "new_trace_id",
    "new_span_id",
    "get_sink",
    "set_sink",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "span_trees",
    "render_tree",
]


def _new_id() -> str:
    # os.urandom is fork-safe: forked workers draw distinct ids without any
    # reseeding ceremony, unlike the random module's shared Mersenne state.
    return os.urandom(8).hex()


def new_trace_id() -> str:
    """A fresh trace id, for callers that mint the context before the span
    exists (the gateway creates the id first so it can echo it in the
    response header even when the request then fails)."""
    return _new_id()


def new_span_id() -> str:
    """A fresh span id, for pre-allocating a parent that is recorded later
    (``record_span``) while children already reference it."""
    return _new_id()


_STACK = threading.local()


def _stack() -> list:
    spans = getattr(_STACK, "spans", None)
    if spans is None:
        spans = []
        _STACK.spans = spans
    return spans


class Span:
    """One timed operation. Use via ``with span("name") as sp:``."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "start_wall", "_start_perf", "duration", "tags", "status", "pid",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: str | None,
        tags: Mapping[str, object] | None = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.start_wall = time.time()
        self._start_perf = time.perf_counter()
        self.duration = 0.0
        self.tags = dict(tags or {})
        self.status = "ok"
        self.pid = os.getpid()

    def set_tag(self, key: str, value) -> None:
        self.tags[key] = value

    def set_error(self, message: str) -> None:
        self.status = "error"
        self.tags["error"] = message

    def finish(self) -> None:
        self.duration = time.perf_counter() - self._start_perf

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start_wall,
            "duration": self.duration,
            "status": self.status,
            "pid": self.pid,
            "tags": self.tags,
        }


class _ActiveSpan:
    """Context manager that pushes/pops the thread-local stack and records."""

    __slots__ = ("span", "_sink")

    def __init__(self, sp: Span, sink: "SpanSink"):
        self.span = sp
        self._sink = sink

    def __enter__(self) -> Span:
        _stack().append(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _stack()
        if stack and stack[-1] is self.span:
            stack.pop()
        self.span.finish()
        if exc is not None:
            self.span.set_error(f"{exc_type.__name__}: {exc}")
        self._sink.record(self.span.to_dict())
        return None


class _NullSpan:
    """Shared no-op stand-in for both the span and its context manager."""

    __slots__ = ()
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    duration = 0.0
    status = "ok"
    tags: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None

    def set_tag(self, key, value) -> None:
        pass

    def set_error(self, message) -> None:
        pass


_NULL_SPAN = _NullSpan()


class SpanSink:
    """Bounded ring buffer of finished spans (newest kept, oldest dropped)."""

    enabled = True
    DEFAULT_CAPACITY = 4096

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("span sink capacity must be positive")
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=capacity)

    def record(self, record: dict) -> None:
        with self._lock:
            self._spans.append(record)

    def ingest(self, records) -> None:
        """Fold spans shipped from another process (worker acks) in."""
        with self._lock:
            self._spans.extend(records)

    def export(self) -> list[dict]:
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[dict]:
        with self._lock:
            out = list(self._spans)
            self._spans.clear()
        return out

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)

    def trees(self, trace_id: str | None = None) -> list[dict]:
        return span_trees(self.export(), trace_id=trace_id)


class NullSpanSink:
    """Tracing-off sink: drops everything, reports empty."""

    enabled = False

    def record(self, record) -> None:
        pass

    def ingest(self, records) -> None:
        pass

    def export(self) -> list[dict]:
        return []

    def drain(self) -> list[dict]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def trees(self, trace_id=None) -> list[dict]:
        return []


class SpanBuffer:
    """A per-request capture target: an unbounded list of span records.

    Installed with :func:`capture_spans` on the thread doing a request's
    work, it intercepts every span finished there so the caller can decide
    *afterwards* whether the trace is worth keeping (tail sampling) — kept
    buffers are folded into the global sink with ``ingest``, dropped ones
    simply go out of scope. No lock: a buffer belongs to one request and
    is only appended to from the thread that installed it.
    """

    __slots__ = ("records",)
    enabled = True

    def __init__(self) -> None:
        self.records: list[dict] = []

    def record(self, record: dict) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)


_NULL_SINK = NullSpanSink()
_SINK: SpanSink | NullSpanSink = _NULL_SINK

_CAPTURE = threading.local()


class _CaptureContext:
    """Context manager that redirects this thread's finished spans."""

    __slots__ = ("buffer", "_previous")

    def __init__(self, buffer: SpanBuffer):
        self.buffer = buffer
        self._previous = None

    def __enter__(self) -> SpanBuffer:
        self._previous = getattr(_CAPTURE, "sink", None)
        _CAPTURE.sink = self.buffer
        return self.buffer

    def __exit__(self, exc_type, exc, tb) -> None:
        _CAPTURE.sink = self._previous
        return None


def capture_spans(buffer: SpanBuffer) -> _CaptureContext:
    """Route spans finished on this thread into ``buffer`` while active."""
    return _CaptureContext(buffer)


def _active_sink():
    override = getattr(_CAPTURE, "sink", None)
    return _SINK if override is None else override


def get_sink() -> SpanSink | NullSpanSink:
    return _SINK


def set_sink(sink: SpanSink | NullSpanSink) -> None:
    global _SINK
    _SINK = sink


def enable_tracing(capacity: int = SpanSink.DEFAULT_CAPACITY) -> SpanSink:
    """Install a live ring-buffer sink (idempotent) and return it."""
    global _SINK
    if not isinstance(_SINK, SpanSink):
        _SINK = SpanSink(capacity)
    return _SINK


def disable_tracing() -> None:
    global _SINK
    _SINK = _NULL_SINK


def tracing_enabled() -> bool:
    return _SINK.enabled


def span(name: str, tags: Mapping[str, object] | None = None):
    """Open a span under the current thread's context (no-op when disabled)."""
    sink = _active_sink()
    if not sink.enabled:
        return _NULL_SPAN
    stack = _stack()
    if stack:
        parent = stack[-1]
        sp = Span(name, parent.trace_id, parent.span_id, tags)
    else:
        sp = Span(name, _new_id(), None, tags)
    return _ActiveSpan(sp, sink)


def remote_span(name: str, header: Mapping | None, tags=None):
    """Open a span parented to a context shipped from another process.

    ``header`` is the dict :func:`current_header` produced on the far side;
    ``None`` (or tracing disabled locally) degrades to a no-op.
    """
    sink = _active_sink()
    if not sink.enabled or not header:
        return _NULL_SPAN
    sp = Span(name, header["trace_id"], header["span_id"], tags)
    return _ActiveSpan(sp, sink)


def record_span(
    name: str,
    *,
    trace_id: str,
    span_id: str | None = None,
    parent_id: str | None = None,
    start: float | None = None,
    duration: float = 0.0,
    status: str = "ok",
    tags: Mapping[str, object] | None = None,
    sink=None,
) -> dict:
    """Emit a finished span record directly, bypassing the context stack.

    The ``with span(...)`` API assumes nesting follows the thread's call
    stack — false inside the gateway's event loop, where many requests
    interleave on one thread. Callers there measure phases themselves and
    emit the finished record with explicit ids; ``span_id`` may be
    pre-allocated (:func:`new_span_id`) so children can reference a parent
    recorded after them. Records go to ``sink`` when given (a
    :class:`SpanBuffer` for tail sampling), else the active sink.
    """
    record = {
        "name": name,
        "trace_id": trace_id,
        "span_id": span_id if span_id is not None else _new_id(),
        "parent_id": parent_id,
        "start": time.time() if start is None else start,
        "duration": duration,
        "status": status,
        "pid": os.getpid(),
        "tags": dict(tags or {}),
    }
    target = sink if sink is not None else _active_sink()
    if target.enabled:
        target.record(record)
    return record


def current_header() -> dict | None:
    """The propagatable context of the innermost open span, or ``None``.

    This is what a ``ParallelEStepRunner`` worker thread re-parents to: two
    short hex strings, so the disabled / no-open-span case adds nothing.
    """
    stack = getattr(_STACK, "spans", None)
    if not stack:
        return None
    top = stack[-1]
    return {"trace_id": top.trace_id, "span_id": top.span_id}


# ------------------------------------------------------------- tree views


def span_trees(records, trace_id: str | None = None) -> list[dict]:
    """Reassemble span records into trees: ``{"span", "children"}`` nodes.

    Spans whose parent is missing from the record set (e.g. the parent fell
    off the ring buffer) surface as roots, so partial traces still render.
    """
    if trace_id is not None:
        records = [r for r in records if r["trace_id"] == trace_id]
    nodes = {r["span_id"]: {"span": r, "children": []} for r in records}
    roots = []
    for record in records:
        node = nodes[record["span_id"]]
        parent = record.get("parent_id")
        if parent is not None and parent in nodes:
            nodes[parent]["children"].append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda child: child["span"]["start"])
    roots.sort(key=lambda node: node["span"]["start"])
    return roots


def render_tree(tree: dict, indent: int = 0) -> Iterator[str]:
    """Yield printable lines for one span tree (the ``repro trace`` view)."""
    record = tree["span"]
    marker = "!" if record["status"] == "error" else " "
    tags = record.get("tags") or {}
    tag_text = (
        " [" + ", ".join(f"{k}={v}" for k, v in sorted(tags.items())) + "]"
        if tags else ""
    )
    yield (
        f"{'  ' * indent}{marker}{record['name']}  "
        f"{record['duration'] * 1e3:.3f}ms  pid={record['pid']}{tag_text}"
    )
    for child in tree["children"]:
        yield from render_tree(child, indent + 1)
