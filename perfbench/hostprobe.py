"""Host-speed probe and the host stamp every result carries.

Shared virtual machines drift: the same code runs 10-30% slower for
seconds at a time. The probe is a fixed CPU routine of about 20 ms (an
interpreter loop, small numpy ops and a random gather from a 16 MB array)
that does not depend on the program under test. The measuring process runs
a few probes before and after every block of operations; a CPU-bound
operation is then divided by the median of the adjacent probes and
multiplied by ``REFERENCE_PROBE_MS``, so it reads as milliseconds on the
reference host.

The probe also records its own thread's CPU time and the process's CPU
time. A thread left running inside the process takes a share of the
process's CPU time during the probe, whether it waits for the interpreter
lock or runs on another core; it inflates the probe, which would flatter
adjusted figures, so the run fails instead. When the whole process is
descheduled (the host or another process is busy) both CPU times fall
together: that is host speed, which the probe is there to measure.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: probe median on the reference host (2 vCPU VM, Python 3.11, numpy 2.4)
REFERENCE_PROBE_MS = 20.0
#: probes run back to back at each block boundary
PROBES_PER_BOUNDARY = 3
#: the probe thread's least accepted share of its process's CPU time
THREAD_SHARE_MIN = 0.85


class ProbeData:
    """Fixed inputs of the probe, built once per :class:`ProbeLog`."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.values = rng.random(8192)
        self.matrix = rng.random((48, 48))
        self.table = rng.random(2_000_000)  # 16 MB: beyond the L2 cache
        self.picks = rng.integers(0, len(self.table), 300_000)


def probe_work(data: ProbeData) -> int:
    """The fixed routine. Its cost depends on the host, not the program."""
    acc = 0
    for i in range(70_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    for _ in range(32):
        ordered = np.sort(data.values)
        running = np.cumsum(ordered)
        product = data.matrix @ data.matrix
        acc ^= int(running[-1]) ^ int(product[0, 0])
    for _ in range(2):
        acc ^= int(data.table[data.picks].sum())
    return acc


@dataclass(frozen=True)
class ProbeSample:
    wall_ms: float
    thread_ratio: float
    process_ratio: float


def run_probe(data: ProbeData) -> ProbeSample:
    wall = time.perf_counter()
    thread = time.thread_time()
    process = time.process_time()
    probe_work(data)
    wall = time.perf_counter() - wall
    return ProbeSample(
        wall_ms=wall * 1e3,
        thread_ratio=(time.thread_time() - thread) / wall,
        process_ratio=(time.process_time() - process) / wall,
    )


def adjustment_factor(probe_ms: float, reference_ms: float = REFERENCE_PROBE_MS) -> float:
    """Multiply a raw CPU-bound time by this to read it on the reference host."""
    if probe_ms <= 0:
        raise ValueError("probe time must be positive")
    return reference_ms / probe_ms


class HostCompetition(RuntimeError):
    """The probe saw another thread competing inside the process."""


@dataclass
class ProbeLog:
    """Probe boundaries around blocks of operations.

    Call :meth:`boundary` before the first block and after every block;
    :meth:`factor` gives the adjustment for the block that just ended,
    from the probes on both sides of it.
    """

    samples: list[ProbeSample] = field(default_factory=list)
    _boundaries: list[list[ProbeSample]] = field(default_factory=list)
    _data: ProbeData | None = None

    def boundary(self) -> None:
        if self._data is None:
            self._data = ProbeData()
        taken = [run_probe(self._data) for _ in range(PROBES_PER_BOUNDARY)]
        self.samples.extend(taken)
        self._boundaries.append(taken)

    def factor(self) -> float:
        """Adjustment for the block between the last two boundaries."""
        if len(self._boundaries) < 2:
            raise RuntimeError("a block needs a probe boundary on each side")
        around = self._boundaries[-2] + self._boundaries[-1]
        return adjustment_factor(statistics.median(s.wall_ms for s in around))

    def median_ms(self) -> float:
        return statistics.median(s.wall_ms for s in self.samples)

    def check(self) -> None:
        """Raise :class:`HostCompetition` if the probes were not alone."""
        if not self.samples:
            raise RuntimeError("no probes were run")
        share = statistics.median(s.thread_ratio / s.process_ratio for s in self.samples)
        if share < THREAD_SHARE_MIN:
            raise HostCompetition(
                f"the probe thread had {share:.0%} of its process's CPU time "
                f"(< {THREAD_SHARE_MIN:.0%}): another thread is competing with it"
            )


def source_commit(root: Path) -> str:
    """The git commit when ``root`` is a checkout, else a digest of ``src``."""
    if (root / ".git").exists():
        try:
            return subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def host_stamp(root: Path, kernel: str, probe_ms: float) -> dict:
    return {
        "nproc": os.cpu_count(),
        "sweep_kernel": kernel,
        "commit": source_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "probe_ms": round(probe_ms, 4),
        "reference_probe_ms": REFERENCE_PROBE_MS,
    }
