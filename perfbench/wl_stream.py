"""``stream``: replay the second half of the timeline; one op is one cycle.

A cycle submits 256 events to a ``MicroBatchIngestor`` (batch 64) with an
``IncrementalRefresher``, calls ``refresh()``, hot-swaps the refreshed
state into the live ``ProfileStore`` and answers one ``rank`` on it, so the
op ends when its events can be queried. A replay pass is one block between
host probes; when it ends the pipeline restarts from the base fit outside
timing. Each pass draws its fold-in and refresh streams from its own seed;
quality is the median over evaluated passes.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import CPDModel
from repro.serving import GraphSummary, ProfileStore
from repro.stream import IncrementalRefresher, MicroBatchIngestor, Snapshotter, split_for_replay

import common
import layers
import stats
import tracing
from common import Result, require
from hostprobe import ProbeLog
from spans import Patcher, Recorder, accounting_gap, children_index, subtree_self_times

CYCLE_EVENTS = 256
BATCH_SIZE = 64
WARM_FRACTION = 0.5
#: reference-host cycles per second of a run, replay restarts included: a
#: run does ``--seconds * CYCLES_PER_S`` cycles, a fixed amount of work, so
#: its sample count (and the rung of its tail percentile) never varies
CYCLES_PER_S = 15
#: score the refreshed model after every EVALUATE_EVERY-th full pass
EVALUATE_EVERY = 3


class Replay:
    """The base fit and the event stream, built once per set-up."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.scenario = common.make_scenario()
        self.plan = split_for_replay(self.scenario.train_graph, WARM_FRACTION)
        self.base_fit = CPDModel(self.scenario.config, rng=common.DATASET_SEED).fit(
            self.plan.base_graph
        )
        self.base_summary = GraphSummary.from_graph(self.plan.base_graph)
        n_cycles = len(self.plan.events) // CYCLE_EVENTS
        self.cycles = [
            self.plan.events[i * CYCLE_EVENTS:(i + 1) * CYCLE_EVENTS] for i in range(n_cycles)
        ]
        store = self.fresh_store()
        queries = [query.term for query in store.indexed_queries()]
        order = np.random.default_rng(seed + 3).permutation(len(queries))
        self.queries = [queries[i] for i in order]
        # held-out links in the replay's document ids (the refreshed corpus)
        remap = self.plan.doc_id_map
        self.positives = self._remap(self.scenario.positives, remap)
        self.negatives = self._remap(self.scenario.negatives, remap)

    @staticmethod
    def _remap(links, remap):
        source, target, timestamp = links
        return remap[source], remap[target], timestamp

    def fresh_store(self) -> ProfileStore:
        return ProfileStore(
            self.base_fit,
            vocabulary=self.plan.base_graph.vocabulary,
            summary=self.base_summary,
        )

    def pipeline(self, index: int):
        seed = self.seed * 1009 + 2 * index
        store = self.fresh_store()
        refresher = IncrementalRefresher(self.plan.base_graph, self.base_fit, rng=seed)
        ingestor = MicroBatchIngestor(store, refresher, batch_size=BATCH_SIZE, rng=seed + 1)
        snapshotter = Snapshotter(
            refresher, vocabulary=self.plan.base_graph.vocabulary, base_summary=self.base_summary
        )
        return store, refresher, ingestor, snapshotter


def run(seed: int, seconds: float, trace: bool) -> Result:
    probes = ProbeLog()
    replay, setup_s, setup_runs = common.timed_setups(lambda: Replay(seed), probes)
    common.require_compiled_kernel()
    require(len(replay.cycles) >= 2, "the replay is shorter than two cycles")
    result = Result()
    result.details["setup_runs_s"] = setup_runs
    result.details["cycles_per_pass"] = len(replay.cycles)
    recorder = Recorder()

    ops = {False: [], True: []}  # adjusted ms per cycle, by traced
    raw_ops: list[float] = []
    adjusted_s = adjusted_cpu_s = 0.0
    n_cycles = n_passes = 0
    quality, aucs = [], []
    target = max(2 * len(replay.cycles), round(seconds * CYCLES_PER_S))
    done = 0
    while done < target:
        traced = trace and n_passes % 2 == 1
        # a traced run replays each seed twice, untraced then traced, so the
        # overhead compares equal work
        store, refresher, ingestor, snapshotter = replay.pipeline(
            n_passes // 2 if trace else n_passes
        )
        patcher = Patcher()
        if traced:
            tracing.install_stream(patcher, recorder)
        walls, cpus = [], []
        try:
            for index, events in enumerate(replay.cycles[: target - done]):
                query = replay.queries[index % len(replay.queries)]
                cpu = time.process_time()
                started = time.perf_counter()
                if traced:
                    with recorder.span("stream.cycle"):
                        ingestor.submit_many(events)
                        ingestor.refresh()
                        snapshotter.hot_swap(store)
                        with recorder.span("serving.first_rank"):
                            answer = store.rank(query)
                else:
                    ingestor.submit_many(events)
                    ingestor.refresh()
                    snapshotter.hot_swap(store)
                    answer = store.rank(query)
                walls.append(time.perf_counter() - started)
                cpus.append(time.process_time() - cpu)
                require(len(answer) == store.n_communities, f"rank({query!r}) is incomplete")
        finally:
            patcher.restore()
        probes.boundary()
        factor = probes.factor()
        n_passes += 1
        done += len(walls)
        result.attempted += len(walls)
        applied = ingestor.stats()["events"]
        require(
            applied == len(walls) * CYCLE_EVENTS,
            f"{applied} of {len(walls) * CYCLE_EVENTS} replayed events were applied",
        )
        common.require_compiled_kernel()
        ops[traced].extend(w * factor * 1e3 for w in walls)
        if not traced:
            raw_ops.extend(w * 1e3 for w in walls)
            adjusted_s += sum(walls) * factor
            adjusted_cpu_s += sum(cpus) * factor
            n_cycles += len(walls)
        if (n_passes - 1) % EVALUATE_EVERY == 0 and len(walls) == len(replay.cycles):
            final = refresher.snapshot_result()
            require(np.all(np.isfinite(final.pi)), "refresh produced non-finite profiles")
            quality.append(common.user_nmi(final, replay.scenario.truth))
            aucs.append(common.diffusion_auc(
                final, replay.plan.full_graph, replay.positives, replay.negatives
            ))
    probes.check()

    untraced = ops[False]
    result.details["n_passes"] = n_passes
    result.details["probe_ms"] = probes.median_ms()
    result.details["raw_op_p50_ms"] = stats.median(raw_ops)
    if trace:
        values, result.details["accounting"] = _layer_values(
            recorder, untraced, ops[True], raw_ops, probes
        )
        layers.fill(result, values)
        common.write_spans("stream", recorder)
        return result
    result.add("setup_s", setup_s, "s")
    result.add("op_p50_ms", stats.median(untraced), "ms")
    result.add_tail(untraced)
    result.add("throughput_per_s", n_cycles * CYCLE_EVENTS / adjusted_s, "1/s")
    result.add("cpu_ms_per_op", adjusted_cpu_s * 1e3 / n_cycles, "ms")
    result.add("quality", stats.median(quality), "ratio")
    result.add("diffusion_auc", stats.median(aucs), "auc")
    result.add("success_ratio", 1.0 - result.failed / result.attempted, "ratio")
    result.add("peak_rss_mb", common.own_peak_rss_mb(), "MB")
    return result


def _layer_values(recorder, untraced, traced, raw_ops, probes) -> tuple[dict, dict]:
    index = children_index(recorder.spans)
    roots = [s for s in recorder.spans if s.name == "stream.cycle"]
    require(roots, "the traced run recorded no cycles")
    children_of = lambda span: index[span.span_id]
    gap = max(accounting_gap(root, children_of) for root in roots)
    require(gap < 1e-6, f"traced layer self times miss the op by {gap:.2e}")
    accounting = {"ops": len(roots), "max_gap": gap}
    totals: dict[str, float] = {}
    for root in roots:
        for span, value in subtree_self_times(root, children_of):
            totals[span.name] = totals.get(span.name, 0.0) + value
    n_ops = len(roots)
    per_op = lambda name: totals.get(name, 0.0) * 1e3 / n_ops
    named = lambda name: [s for s in recorder.spans if s.name == name]
    refreshes = named("stream.refresh")
    dirty = sum(s.attrs["dirty"] for s in refreshes)
    kernels = {s.attrs.get("kernel") for s in named("core.sweep")}
    require(kernels == {common.KERNEL}, f"traced sweeps ran kernels {kernels}")
    return {
        "core.sweep_ms": per_op("core.sweep"),
        "core.sweep_docs": sum(s.attrs["docs"] for s in named("core.sweep")) / n_ops,
        "sampling.augment_ms": per_op("sampling.augment"),
        "core.eta_ms": per_op("core.eta"),
        "serving.foldin_ms": per_op("serving.foldin"),
        "serving.foldin_docs": sum(s.attrs["docs"] for s in named("serving.foldin")) / n_ops,
        "stream.append_ms": per_op("stream.append"),
        "stream.refresh_ms": per_op("stream.refresh"),
        "stream.dirty_docs": dirty / n_ops,
        "stream.reassigned_ratio": sum(s.attrs["reassigned"] for s in refreshes) / max(dirty, 1),
        "stream.swap_ms": per_op("stream.swap"),
        "serving.first_rank_ms": per_op("serving.first_rank"),
        "stream.ingest_other_ms": per_op("stream.cycle"),
        "host.probe_ms": probes.median_ms(),
        "host.raw_op_p50_ms": stats.median(raw_ops),
        "trace.overhead_pct": 100.0 * (stats.median(traced) / stats.median(untraced) - 1.0),
    }, accounting
