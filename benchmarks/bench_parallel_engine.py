"""Thread-parallel E-step: wall clock vs workers (Fig. 10(b) harness).

One full E-step — the document sweep plus the Pólya-Gamma augmentation
draws, which the runner fuses into its worker threads — timed serially and
through :class:`~repro.parallel.ParallelEStepRunner` at 1/2/4 workers on
the twitter scenario (``REPRO_BENCH_SCALE`` picks its size). Every series
runs the fastest available sweep kernel (``compiled`` when a C toolchain
exists, else ``vectorized``), so the speedup ratio compares like against
like.

The series are timed in interleaved rounds — one E-step of each series per
round, after a warm-up sweep each — so host-speed drift hits every series
alike; each is reported as the median and quartiles over the rounds.
Speedup contracts are gated on the machine's core count; the paper's
4.5-5.7x needs 8 real cores.

Results go to ``benchmarks/results/`` and — as the cross-PR perf
trajectory record, stamped with cores, sweep kernel and source commit —
to ``BENCH_parallel.json`` at the repository root.
"""

import json
import os
import subprocess
import time
from pathlib import Path

import numpy as np

from bench_support import BENCH_SCALE, contract, cpd_config, format_table, get_scenario, report
from repro.core import DiffusionParameters
from repro.core import _compiled
from repro.core.gibbs import CPDSampler
from repro.parallel import ParallelEStepRunner

N_COMMUNITIES = 6
WORKER_COUNTS = (1, 2, 4)
ROUNDS = 40

ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_parallel.json"


def _source_commit() -> str:
    """``git describe --always --dirty`` of the benchmarked tree."""
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _fresh_sampler(graph, config) -> CPDSampler:
    params = DiffusionParameters.initial(config.n_communities, config.n_topics)
    return CPDSampler(graph, config, params, rng=0)


def _serial_estep(sampler: CPDSampler) -> None:
    sampler.sweep_documents()
    sampler.sample_lambdas()
    sampler.sample_deltas()


def _summary(samples: list[float]) -> dict:
    q1, median, q3 = np.percentile(np.asarray(samples) * 1e3, [25, 50, 75])
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3}


def _measure(graph, config) -> dict:
    """Interleaved E-step timings: ``{series: [seconds per round]}``."""
    runners = {
        n_workers: ParallelEStepRunner(graph, config, n_workers=n_workers, rng=0)
        for n_workers in WORKER_COUNTS
    }
    try:
        steps = {"serial": _serial_estep}
        for n_workers, runner in runners.items():
            steps[str(n_workers)] = runner
        samplers = {name: _fresh_sampler(graph, config) for name in steps}
        for name, step in steps.items():
            step(samplers[name])  # warm-up: caches, layouts, allocator, .so
        samples: dict[str, list[float]] = {name: [] for name in steps}
        for _ in range(ROUNDS):
            for name, step in steps.items():
                started = time.perf_counter()
                step(samplers[name])
                samples[name].append(time.perf_counter() - started)
        worker_kernel = runners[WORKER_COUNTS[0]].worker_sweep_kernel
    finally:
        for runner in runners.values():
            runner.close()
    return {"samples": samples, "worker_sweep_kernel": worker_kernel}


def test_parallel_engine(benchmark):
    graph, _ = get_scenario("twitter")
    compiled_available, _reason = _compiled.backend_status()
    sweep_kernel = "compiled" if compiled_available else "vectorized"
    config = cpd_config(N_COMMUNITIES).with_overrides(sweep_kernel=sweep_kernel)
    measured = benchmark.pedantic(_measure, args=(graph, config), rounds=1, iterations=1)
    cores = os.cpu_count() or 1

    summaries = {name: _summary(s) for name, s in measured["samples"].items()}
    serial_median = summaries["serial"]["median_ms"]
    speedups = {
        n_workers: serial_median / summaries[str(n_workers)]["median_ms"]
        for n_workers in WORKER_COUNTS
    }
    rows = [
        [name, s["median_ms"], s["q1_ms"], s["q3_ms"],
         1.0 if name == "serial" else speedups[int(name)]]
        for name, s in summaries.items()
    ]
    report(
        "parallel_scaling",
        format_table(
            f"Fig. 10(b) E-step wall clock (twitter {BENCH_SCALE}, {cores} cores, "
            f"{measured['worker_sweep_kernel']} kernel, {ROUNDS} interleaved rounds)",
            ["workers", "median ms", "q1 ms", "q3 ms", "speedup vs serial"],
            rows,
        ),
    )

    payload = {
        "scenario": f"twitter_{BENCH_SCALE}",
        "cores": cores,
        "commit": _source_commit(),
        "sweep_kernel": sweep_kernel,
        "worker_sweep_kernel": measured["worker_sweep_kernel"],
        "rounds": ROUNDS,
        "n_documents": graph.n_documents,
        "n_friendship_links": graph.n_friendship_links,
        "n_diffusion_links": graph.n_diffusion_links,
        "serial_estep_ms": summaries["serial"],
        "parallel_estep_ms": {str(w): summaries[str(w)] for w in WORKER_COUNTS},
        "speedup_vs_serial": {str(w): s for w, s in speedups.items()},
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    if cores >= 2:
        contract(
            max(speedups.values()) > 1.0,
            "with real cores some worker count must beat serial",
        )
    if cores >= 4:
        contract(
            speedups.get(4, 0.0) >= 1.5,
            ">=1.5x E-step speedup at 4 workers on 4+ cores",
        )
