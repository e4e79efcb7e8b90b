"""Self-time arithmetic, span recording and patching."""

import sys
import threading
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import pytest  # noqa: E402

from spans import (  # noqa: E402
    Patcher,
    Recorder,
    Span,
    accounting_gap,
    children_index,
    covered,
    self_time,
    subtree_self_times,
    wrap_count,
    wrap_sync,
)


def _tree(*spans):
    index = children_index(spans)
    return lambda span: index[span.span_id]


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5)], 0, 10) == pytest.approx(4)
    assert covered([(1, 2), (4, 6)], 0, 10) == pytest.approx(3)
    assert covered([(-5, 2), (8, 20)], 0, 10) == pytest.approx(4)
    assert covered([(1, 9), (2, 3), (4, 5)], 0, 10) == pytest.approx(8)
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_sequential_children():
    root = Span(1, "op", 0.0, 10.0)
    a = Span(2, "a", 1.0, 3.0, parent=1)
    b = Span(3, "b", 5.0, 9.0, parent=1)
    children_of = _tree(root, a, b)
    times = {s.name: v for s, v in subtree_self_times(root, children_of)}
    assert times == pytest.approx({"op": 4.0, "a": 2.0, "b": 4.0})
    assert accounting_gap(root, children_of) == pytest.approx(0.0)


def test_self_time_overlapping_children_count_once_for_the_parent():
    # two children on different threads overlap on [3, 4]
    root = Span(1, "op", 0.0, 10.0)
    a = Span(2, "a", 2.0, 4.0, parent=1)
    b = Span(3, "b", 3.0, 6.0, parent=1)
    assert self_time(root, [a, b]) == pytest.approx(6.0)
    times = {s.name: v for s, v in subtree_self_times(root, _tree(root, a, b))}
    # the children's own self times still add their full durations
    assert times["a"] == pytest.approx(2.0)
    assert times["b"] == pytest.approx(3.0)


def test_nested_grandchildren():
    root = Span(1, "op", 0.0, 10.0)
    child = Span(2, "refresh", 2.0, 8.0, parent=1)
    grand = Span(3, "sweep", 3.0, 7.0, parent=2)
    children_of = _tree(root, child, grand)
    times = {s.name: v for s, v in subtree_self_times(root, children_of)}
    assert times == pytest.approx({"op": 4.0, "refresh": 2.0, "sweep": 4.0})
    assert sum(times.values()) == pytest.approx(root.duration)
    assert accounting_gap(root, children_of) == pytest.approx(0.0)


def test_accounting_gap_catches_a_child_escaping_its_parent():
    root = Span(1, "op", 0.0, 10.0)
    escaped = Span(2, "a", 8.0, 14.0, parent=1)
    assert accounting_gap(root, _tree(root, escaped)) == pytest.approx(0.4)


def test_recorder_nests_by_thread_and_patcher_restores():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    module.counted = lambda: None
    recorder = Recorder()
    patcher = Patcher()
    patcher.patch(module, "inner", lambda f: wrap_sync(recorder, f, "inner"))
    patcher.patch(module, "outer", lambda f: wrap_sync(
        recorder, f, "outer", lambda args, kwargs, result: {"result": result}))
    patcher.patch(module, "counted", lambda f: wrap_count(recorder, f, "calls"))
    assert module.outer(1) == 4
    module.counted()
    module.counted()
    recorder.enabled = False
    module.counted()
    patcher.restore()
    assert module.outer(1) == 4
    assert len(recorder.spans) == 2
    inner, outer = recorder.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.span_id and outer.parent is None
    assert outer.attrs == {"result": 4}
    assert recorder.counts["calls"] == 2


def test_recorder_stacks_are_per_thread():
    recorder = Recorder()
    seen = []

    def work():
        with recorder.span("thread-root"):
            seen.append(recorder.stack()[:])

    with recorder.span("main-root"):
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["thread-root"].parent is None
    assert len(seen[0]) == 1


def test_patcher_keeps_class_methods_working():
    class Thing:
        def value(self):
            return 7

    recorder = Recorder()
    patcher = Patcher()
    patcher.patch(Thing, "value", lambda f: wrap_sync(recorder, f, "value"))
    assert Thing().value() == 7
    patcher.restore()
    assert Thing.value.__name__ == "value" and not hasattr(Thing.value, "__wrapped__")
    assert [s.name for s in recorder.spans] == ["value"]
