"""Probe adjustment and the competing-thread check."""

import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import pytest  # noqa: E402

import hostprobe  # noqa: E402
from hostprobe import ProbeLog, ProbeSample  # noqa: E402


def _boundary(log: ProbeLog, *walls, thread=1.0, process=1.0):
    samples = [ProbeSample(w, thread, process) for w in walls]
    log.samples.extend(samples)
    log._boundaries.append(samples)


def test_adjustment_reads_on_the_reference_host():
    reference = hostprobe.REFERENCE_PROBE_MS
    # a host twice as slow as the reference halves the reading
    assert hostprobe.adjustment_factor(2 * reference) == pytest.approx(0.5)
    assert hostprobe.adjustment_factor(reference) == pytest.approx(1.0)
    assert 50.0 * hostprobe.adjustment_factor(reference / 2) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        hostprobe.adjustment_factor(0.0)


def test_factor_uses_the_probes_on_both_sides_of_the_block():
    log = ProbeLog()
    _boundary(log, 10.0, 10.0, 10.0)
    with pytest.raises(RuntimeError):
        log.factor()
    _boundary(log, 30.0, 30.0, 30.0)
    # median of the six adjacent probes is 20
    assert log.factor() == pytest.approx(hostprobe.REFERENCE_PROBE_MS / 20.0)
    _boundary(log, 30.0, 30.0, 30.0)
    assert log.factor() == pytest.approx(hostprobe.REFERENCE_PROBE_MS / 30.0)


def test_check_passes_when_the_probe_is_alone():
    log = ProbeLog()
    _boundary(log, 20.0, 20.0, 20.0, thread=0.99, process=1.01)
    log.check()


def test_check_passes_when_the_whole_process_was_descheduled():
    # host contention slows thread and process alike: that is host speed
    log = ProbeLog()
    _boundary(log, 26.0, 26.0, 26.0, thread=0.76, process=0.76)
    log.check()


@pytest.mark.parametrize("thread, process", [(0.5, 1.0), (1.0, 1.6), (0.6, 0.8)])
def test_check_fails_on_a_competing_thread(thread, process):
    log = ProbeLog()
    _boundary(log, 20.0, 20.0, 20.0, thread=thread, process=process)
    with pytest.raises(hostprobe.HostCompetition):
        log.check()


def test_a_live_thread_holding_the_interpreter_is_detected():
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    thread = threading.Thread(target=spin, daemon=True)
    thread.start()
    try:
        log = ProbeLog()
        log.boundary()
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    with pytest.raises(hostprobe.HostCompetition):
        log.check()


def test_real_probe_records_its_cpu_ratios():
    sample = hostprobe.run_probe(hostprobe.ProbeData())
    assert sample.wall_ms > 0
    assert 0 < sample.thread_ratio <= 1.05
