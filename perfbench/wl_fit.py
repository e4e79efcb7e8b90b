"""``fit``: repeated serial ``CPDModel.fit`` calls; one op is one EM iteration.

Each fit runs 20 iterations on the training graph (20% of the diffusion
links held out) and is one block between host probes. An op's latency is
the iteration's ``IterationTrace.seconds``, probe-adjusted. A gate checks
that the summed iteration times cover the wall clock measured here around
``fit()``, so work moved out of the iterations cannot shrink the op.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core import CPDModel

import common
import layers
import stats
import tracing
from common import Result, require
from hostprobe import ProbeLog
from spans import Patcher, Recorder, subtree_self_times, accounting_gap

#: reference-host seconds per fit block (fit, probes, scoring): a run does
#: ``--seconds / FIT_BLOCK_S`` fits, a fixed amount of work, so its sample
#: count (and the rung of its tail percentile) is the same on every run
FIT_BLOCK_S = 1.25
#: the iterations must account for at least this share of ``fit()``'s wall
#: clock (sampler construction and result building make up the rest)
ITERATION_COVER_SHARE = 0.85


def _setup(seed: int):
    scenario = common.make_scenario()
    # one short fit finishes lazy set-up (kernel load, first-touch caches)
    warm = dataclasses.replace(scenario.config, n_iterations=1)
    CPDModel(warm, rng=seed).fit(scenario.train_graph)
    return scenario


def run(seed: int, seconds: float, trace: bool) -> Result:
    probes = ProbeLog()
    scenario, setup_s, setup_runs = common.timed_setups(lambda: _setup(seed), probes)
    common.require_compiled_kernel()
    result = Result()
    result.details["setup_runs_s"] = setup_runs
    graph = scenario.train_graph
    recorder = Recorder()

    ops = {False: [], True: []}  # adjusted ms per iteration, by traced
    raw_ops: list[float] = []
    quality, aucs = [], []
    docs_swept = adjusted_fit_s = adjusted_cpu_s = 0.0
    n_iterations = n_fits = 0
    traced_fits: list = []
    target = max(2, round(seconds / FIT_BLOCK_S))
    while n_fits < target:
        traced = trace and n_fits % 2 == 1
        patcher = Patcher()
        if traced:
            tracing.install_fit(patcher, recorder)
        # a traced run fits each seed twice, untraced then traced, so the
        # overhead compares equal work
        model = CPDModel(scenario.config, rng=seed * 1009 + (n_fits // 2 if trace else n_fits))
        cpu = time.process_time()
        started = time.perf_counter()
        try:
            if traced:
                with recorder.span("fit") as fit_attrs:
                    fitted = model.fit(graph)
                traced_fits.append(fit_attrs)
            else:
                fitted = model.fit(graph)
        finally:
            wall = time.perf_counter() - started
            cpu = time.process_time() - cpu
            patcher.restore()
        probes.boundary()
        factor = probes.factor()
        n_fits += 1
        result.attempted += len(fitted.trace)

        covered = sum(entry.seconds for entry in fitted.trace)
        require(
            covered >= ITERATION_COVER_SHARE * wall,
            f"iterations cover {covered:.3f}s of a {wall:.3f}s fit "
            f"(< {ITERATION_COVER_SHARE:.0%})",
        )
        require(
            all(np.all(np.isfinite(a)) for a in (fitted.pi, fitted.theta, fitted.phi, fitted.eta)),
            "fit produced non-finite profiles",
        )
        common.require_compiled_kernel()
        ops[traced].extend(entry.seconds * factor * 1e3 for entry in fitted.trace)
        if not traced:
            raw_ops.extend(entry.seconds * 1e3 for entry in fitted.trace)
            docs_swept += graph.n_documents * len(fitted.trace)
            adjusted_fit_s += wall * factor
            adjusted_cpu_s += cpu * factor
            n_iterations += len(fitted.trace)
        quality.append(common.user_nmi(fitted, scenario.truth))
        aucs.append(common.diffusion_auc(fitted, graph, scenario.positives, scenario.negatives))
    probes.check()

    untraced = ops[False]
    result.details["n_fits"] = n_fits
    result.details["probe_ms"] = probes.median_ms()
    result.details["raw_op_p50_ms"] = stats.median(raw_ops)
    if trace:
        layers.fill(result, _layer_values(
            recorder, len(traced_fits), untraced, ops[True], raw_ops, probes
        ))
        result.details["accounting"] = _accounting(recorder)
        common.write_spans("fit", recorder)
        return result
    result.add("setup_s", setup_s, "s")
    result.add("op_p50_ms", stats.median(untraced), "ms")
    result.add_tail(untraced)
    result.add("throughput_per_s", docs_swept / adjusted_fit_s, "1/s")
    result.add("cpu_ms_per_op", adjusted_cpu_s * 1e3 / n_iterations, "ms")
    result.add("quality", stats.median(quality), "ratio")
    result.add("diffusion_auc", stats.median(aucs), "auc")
    result.add("success_ratio", 1.0 - result.failed / result.attempted, "ratio")
    result.add("peak_rss_mb", common.own_peak_rss_mb(), "MB")
    return result


def iteration_roots(recorder: Recorder):
    """Rebuild one op span per EM iteration of every traced fit.

    An iteration runs from its sweep's start to the next sweep's start;
    the last one ends where the fit starts building its result. Returns
    ``(roots, children_of)`` for the self-time arithmetic.
    """
    from spans import Span, children_index

    index = children_index(recorder.spans)
    roots, members = [], {}
    for fit in (s for s in recorder.spans if s.name == "fit"):
        top = sorted(index[fit.span_id], key=lambda s: s.start)
        starts = [s.start for s in top if s.name == "core.sweep"]
        ends = starts[1:] + [
            next(s.start for s in top if s.name == "fit.build_result")
        ]
        for begin, end in zip(starts, ends):
            root = Span(recorder.new_id(), "fit.iteration", begin, end)
            members[root.span_id] = [s for s in top if begin <= s.start < end]
            roots.append(root)
    return roots, lambda span: members.get(span.span_id, index[span.span_id])


def _accounting(recorder: Recorder) -> dict:
    roots, children_of = iteration_roots(recorder)
    gap = max(accounting_gap(root, children_of) for root in roots)
    require(gap < 1e-6, f"traced layer self times miss the op by {gap:.2e}")
    return {"ops": len(roots), "max_gap": gap}


def _layer_values(recorder, n_traced_fits, untraced, traced, raw_ops, probes) -> dict:
    roots, children_of = iteration_roots(recorder)
    n_ops = len(roots)
    require(n_ops > 0, "the traced run recorded no iterations")
    totals: dict[str, float] = {}
    for root in roots:
        for span, value in subtree_self_times(root, children_of):
            totals[span.name] = totals.get(span.name, 0.0) + value
    spans_named = lambda name: [s for s in recorder.spans if s.name == name]
    negatives = spans_named("diffusion.negatives")
    per_op = lambda name: totals.get(name, 0.0) * 1e3 / n_ops
    kernels = {s.attrs.get("kernel") for s in spans_named("core.sweep")}
    require(kernels == {common.KERNEL}, f"traced sweeps ran kernels {kernels}")
    return {
        "diffusion.negatives_ms": per_op("diffusion.negatives"),
        "diffusion.index_builds": recorder.counts["diffusion.index_builds"] / n_traced_fits,
        "diffusion.negatives_yield": (
            sum(s.attrs["got"] for s in negatives) / sum(s.attrs["requested"] for s in negatives)
        ),
        "diffusion.design_ms": per_op("diffusion.design"),
        "diffusion.logistic_ms": per_op("diffusion.logistic"),
        "diffusion.logistic_steps": (
            sum(s.attrs["steps"] for s in spans_named("diffusion.logistic")) / n_ops
        ),
        "core.sweep_ms": per_op("core.sweep"),
        "core.sweep_docs": sum(s.attrs["docs"] for s in spans_named("core.sweep")) / n_ops,
        "sampling.augment_ms": per_op("sampling.augment"),
        "core.eta_ms": per_op("core.eta"),
        "core.fit_other_ms": per_op("fit.iteration"),
        "host.probe_ms": probes.median_ms(),
        "host.raw_op_p50_ms": stats.median(raw_ops),
        "trace.overhead_pct": 100.0 * (stats.median(traced) / stats.median(untraced) - 1.0),
    }
