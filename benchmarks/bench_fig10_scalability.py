"""Fig. 10 — scalability of the inference algorithm.

(a) per-iteration training time vs dataset fraction p: Alg. 1's complexity
is linear in |D|, |F| and |E|, so the curve must grow (near-)linearly.
(b) parallel speedup vs number of workers. The paper measures up to 4.5x /
5.7x with 8 cores; this container exposes ``os.cpu_count()`` cores, and a
single-core machine cannot show wall-clock speedup (the run still validates
the parallel machinery and reports honest numbers — see EXPERIMENTS.md).
"""

import os
import time

import numpy as np

from bench_support import contract, cpd_config, format_table, get_scenario, report
from repro.core import DiffusionParameters
from repro.core.gibbs import CPDSampler
from repro.datasets import subsample_graph
from repro.parallel import ParallelEStepRunner

FRACTIONS = (0.25, 0.5, 0.75, 1.0)
WORKER_COUNTS = (1, 2, 4)
N_COMMUNITIES = 6
MEASURE_SWEEPS = 2


def _serial_iteration_seconds(graph) -> float:
    """Mean wall seconds of one full E-step (sweep + augmentation draws)."""
    config = cpd_config(N_COMMUNITIES)
    params = DiffusionParameters.initial(config.n_communities, config.n_topics)
    sampler = CPDSampler(graph, config, params, rng=0)
    sampler.sweep_documents()  # warm-up
    started = time.perf_counter()
    for _ in range(MEASURE_SWEEPS):
        sampler.sweep_documents()
        sampler.sample_lambdas()
        sampler.sample_deltas()
    return (time.perf_counter() - started) / MEASURE_SWEEPS


def _fig10a():
    base, _ = get_scenario("twitter")
    rows = []
    for fraction in FRACTIONS:
        graph = subsample_graph(base, fraction, rng=11)
        seconds = _serial_iteration_seconds(graph)
        rows.append([fraction, graph.n_documents, graph.n_diffusion_links, seconds])
    return rows


def _fig10b():
    graph, _ = get_scenario("twitter")
    config = cpd_config(N_COMMUNITIES)
    serial = _serial_iteration_seconds(graph)
    rows = [[1, serial, 1.0]]
    for workers in WORKER_COUNTS[1:]:
        with ParallelEStepRunner(graph, config, n_workers=workers, rng=0) as runner:
            params = DiffusionParameters.initial(config.n_communities, config.n_topics)
            sampler = CPDSampler(graph, config, params, rng=0)
            runner(sampler)  # warm-up (also primes the worker samplers)
            started = time.perf_counter()
            for _ in range(MEASURE_SWEEPS):
                runner(sampler)
                sampler.sample_lambdas()
                sampler.sample_deltas()
            elapsed = (time.perf_counter() - started) / MEASURE_SWEEPS
        rows.append([workers, elapsed, serial / elapsed])
    return rows


def test_fig10a_time_vs_data_size(benchmark):
    rows = benchmark.pedantic(_fig10a, rounds=1, iterations=1)
    report(
        "fig10a_scalability",
        format_table(
            "Fig. 10(a): per-iteration training time vs dataset size (twitter)",
            ["fraction p", "#docs", "#diff links", "seconds/iteration"],
            rows,
        ),
    )
    seconds = [row[3] for row in rows]
    # monotone growth and near-linear scaling: full data costs at most
    # ~1.8x what perfect linearity predicts from the quarter sample
    contract(seconds[-1] > seconds[0], 'seconds[-1] > seconds[0]')
    linear_prediction = seconds[0] * (FRACTIONS[-1] / FRACTIONS[0])
    contract(
        seconds[-1] < linear_prediction * 1.8,
        'seconds[-1] < linear_prediction * 1.8',
    )


def test_fig10b_speedup_vs_workers(benchmark):
    rows = benchmark.pedantic(_fig10b, rounds=1, iterations=1)
    cores = os.cpu_count() or 1
    report(
        "fig10b_speedup",
        format_table(
            f"Fig. 10(b): parallel E-step speedup (twitter, machine has {cores} cores)",
            ["workers", "seconds/iteration", "speedup"],
            rows,
        ),
    )
    speedups = [row[2] for row in rows]
    if cores >= 2:
        # with real cores the 2-worker run must beat serial
        contract(max(speedups[1:]) > 1.0, 'max(speedups[1:]) > 1.0')
    else:
        # single-core machine: the machinery must still work and not
        # collapse (bounded overhead)
        contract(all(s > 0.2 for s in speedups), 'all(s > 0.2 for s in speedups)')
