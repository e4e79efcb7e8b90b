"""Thread-parallel E-step over knapsack-balanced user segments (Sect. 4.3).

The paper multithreads the Gibbs E-step; this runner does the same:

1. segment users by dominant LDA topic,
2. estimate per-segment workloads and knapsack-allocate them to workers,
3. every iteration the workers sweep their own segments against the
   iteration's state (the "little inter-dependency" approximation the paper
   relies on) and the coordinator merges the results at the barrier.

Threads run concurrently because a partition sweep is one compiled
``cpd_sweep_docs`` call through :mod:`ctypes`, which releases the GIL
(DESIGN.md §3 item 7, §7). Without a C toolchain the same code runs on the
vectorized kernel and the threads simply serialise on the GIL.

Each worker owns a private graph-free :class:`~repro.core.gibbs.CPDSampler`
built over one shared, read-only :class:`~repro.core.layout.CorpusLayout`.
Per sweep a worker copies the coordinator's mutable state into its sampler
(the coordinator is parked at the barrier, so that state cannot change),
sweeps its documents, and — fused augmentation — draws the Pólya-Gamma
variables of its contiguous link ranges and scatters its eta counts into
buffers it owns. The coordinator then merges everything in worker order,
so a seeded run is reproducible regardless of thread timing.

Documents or links appended to the coordinator's sampler *after*
construction (the streaming path) are handled by the coordinator itself:
overflow documents are swept serially after the merge and overflow links
drawn serially, while workers keep serving the fixed-size layout.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core import _compiled
from ..core.config import CPDConfig
from ..core.gibbs import CPDSampler
from ..core.layout import CorpusLayout
from ..core.parameters import DiffusionParameters
from ..core.state import CPDState
from ..graph.social_graph import SocialGraph
from ..sampling.rng import RngLike, ensure_rng
from .scheduler import Schedule, build_schedule, measure_workload_model, partition_ranges
from .segmentation import segment_users_by_topic

#: LDA iterations of the user segmentation
SEGMENTATION_LDA_ITERATIONS = 15


@dataclass
class ParallelStats:
    """Observed per-worker E-step seconds across iterations."""

    worker_seconds: np.ndarray
    iterations: int = 0

    def mean_worker_seconds(self) -> np.ndarray:
        if self.iterations == 0:
            return self.worker_seconds
        return self.worker_seconds / self.iterations


@dataclass
class _WorkerResult:
    """What one worker hands the coordinator at the barrier."""

    seconds: float
    lambdas: np.ndarray | None = None
    deltas: np.ndarray | None = None
    eta_counts: np.ndarray | None = None


class ParallelEStepRunner:
    """Drives the document sweep of Alg. 1 across a pool of worker threads.

    Usable as the ``document_sweeper`` hook of
    :class:`repro.core.model.FitOptions` (so ``CPDModel.fit`` is unchanged)
    and of :class:`repro.stream.refresh.IncrementalRefresher` (dirty-subset
    sweeps). ``close()`` (or use as a context manager) shuts the pool down.
    """

    def __init__(
        self,
        graph: SocialGraph,
        config: CPDConfig,
        n_workers: int,
        rng: RngLike = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        #: the kernel workers actually run (compiled may fall back)
        self.worker_sweep_kernel = config.sweep_kernel
        if config.sweep_kernel == "compiled":
            available, _reason = _compiled.backend_status()
            if not available:
                self.worker_sweep_kernel = "vectorized"
        self.graph = graph
        self.config = config
        self.n_workers = n_workers
        self.rng = ensure_rng(rng)
        self.stats = ParallelStats(worker_seconds=np.zeros(n_workers))
        self._closed = False
        self._fused_eta: np.ndarray | None = None

        self.segments = segment_users_by_topic(
            graph,
            config.n_topics,
            lda_iterations=SEGMENTATION_LDA_ITERATIONS,
            rng=self.rng,
        )
        calibration = CPDSampler(
            graph,
            config,
            DiffusionParameters.initial(config.n_communities, config.n_topics),
            rng=self.rng,
        )
        self.workload_model = measure_workload_model(calibration)
        self.schedule: Schedule = build_schedule(
            self.segments, self.workload_model, n_workers
        )
        self._worker_docs = [
            np.sort(self.schedule.worker_doc_ids(worker)) for worker in range(n_workers)
        ]
        self._f_ranges = partition_ranges(calibration.n_friend_links, n_workers)
        self._e_ranges = partition_ranges(calibration.n_diff_links, n_workers)

        layout = CorpusLayout.from_sampler(calibration)
        self._n_docs = layout.n_docs
        self._n_friend_links = layout.n_friend_links
        self._n_diff_links = layout.n_diff_links
        n_features = int(len(calibration.params.nu))
        self._workers = [
            CPDSampler(
                None,
                config,
                DiffusionParameters.initial(
                    config.n_communities, config.n_topics, n_features=n_features
                ),
                rng=0,
                layout=layout,
                initialize_assignments=False,
            )
            for _ in range(n_workers)
        ]
        self._pool = ThreadPoolExecutor(
            max_workers=n_workers, thread_name_prefix="repro-estep"
        )

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Shut the thread pool down. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        self._workers = []

    def __enter__(self) -> "ParallelEStepRunner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------- execution

    @property
    def fused_augmentation(self) -> bool:
        """The workers own the per-link PG draws and the eta scatter-adds
        (``CPDModel`` / ``IncrementalRefresher`` skip their serial versions)."""
        return True

    def aggregated_eta(self) -> np.ndarray | None:
        """Eta re-estimated from the workers' fused partial counts.

        ``None`` until the first fused sweep (callers fall back to the
        serial :meth:`CPDSampler.aggregate_eta`).
        """
        return self._fused_eta

    def __call__(
        self,
        sampler: CPDSampler,
        doc_ids: np.ndarray | None = None,
        fuse: bool | None = None,
    ) -> None:
        """One parallel Gibbs sweep over ``doc_ids`` (default: every document).

        ``fuse=False`` skips the link draws and eta counts for this sweep
        only — the streaming refresher passes it for all but its final
        sweep so the O(F + E) link draws run once per refresh, not once per
        sweep. If any worker raises, the error propagates and nothing from
        this sweep is applied to ``sampler``.
        """
        if self._closed:
            raise RuntimeError("runner is closed")
        with obs.span("parallel.sweep", tags={"workers": self.n_workers}):
            self._sweep(sampler, doc_ids, fuse is None or bool(fuse))

    def _sweep(
        self, sampler: CPDSampler, doc_ids: np.ndarray | None, fused: bool
    ) -> None:
        if doc_ids is None:
            # full sweep: workers cover the layout, the coordinator covers
            # any documents appended (streaming) after construction
            overflow = np.arange(self._n_docs, sampler.state.n_docs, dtype=np.int64)
            worker_ids = self._worker_docs
        else:
            doc_ids = np.unique(np.asarray(doc_ids, dtype=np.int64))
            in_layout = doc_ids[doc_ids < self._n_docs]
            overflow = doc_ids[doc_ids >= self._n_docs]
            worker_ids = [
                np.intersect1d(share, in_layout, assume_unique=True)
                for share in self._worker_docs
            ]

        seeds = [int(self.rng.integers(0, 2**63 - 1)) for _ in range(self.n_workers)]
        header = obs.current_header()
        futures = [
            self._pool.submit(
                self._worker_sweep, worker, sampler, worker_ids[worker],
                seeds[worker], fused, header,
            )
            for worker in range(self.n_workers)
        ]
        wait(futures)
        results = [future.result() for future in futures]  # re-raises

        registry = obs.get_registry()
        for worker, result in enumerate(results):
            self.stats.worker_seconds[worker] += result.seconds
            if registry.enabled:
                registry.histogram(
                    "repro_parallel_worker_seconds", {"worker": str(worker)}
                ).observe(result.seconds)
        current = sampler.state
        for worker, ids in enumerate(worker_ids):
            state = self._workers[worker].state
            communities, topics = state.doc_community[ids], state.doc_topic[ids]
            # most documents keep their assignment after burn-in; moving
            # only the changed ones keeps the serial merge short
            moved = (communities != current.doc_community[ids]) | (
                topics != current.doc_topic[ids]
            )
            sampler.apply_assignments(ids[moved], communities[moved], topics[moved])
        if len(overflow):
            sampler.sweep_documents(overflow)
        if fused:
            self._merge_fused(sampler, results)
        self.stats.iterations += 1
        if registry.enabled:
            registry.counter("repro_parallel_sweeps_total").inc()

    def _worker_sweep(
        self,
        worker: int,
        coordinator: CPDSampler,
        doc_ids: np.ndarray,
        seed: int,
        fused: bool,
        header: dict | None,
    ) -> _WorkerResult:
        """One worker's share of a sweep, run on a pool thread."""
        started = time.perf_counter()
        sampler = self._workers[worker]
        with obs.remote_span("parallel.worker_sweep", header, tags={"worker": worker}):
            self._refresh(sampler, coordinator, seed)
            sampler.sweep_documents(doc_ids)
            result = _WorkerResult(seconds=0.0)
            if fused:
                pg_started = time.perf_counter()
                config = self.config
                f_start, f_stop = self._f_ranges[worker]
                e_start, e_stop = self._e_ranges[worker]
                if f_stop > f_start and config.model_friendship:
                    result.lambdas = sampler.draw_lambda_range(f_start, f_stop)
                if e_stop > e_start and config.model_diffusion:
                    result.deltas = sampler.draw_delta_range(e_start, e_stop)
                if sampler.uses_profile_diffusion:
                    result.eta_counts = sampler.eta_counts_range(e_start, e_stop)
                registry = obs.get_registry()
                if registry.enabled:
                    registry.histogram(
                        "repro_pg_augmentation_seconds", {"worker": str(worker)}
                    ).observe(time.perf_counter() - pg_started)
        result.seconds = time.perf_counter() - started
        return result

    def _refresh(self, sampler: CPDSampler, coordinator: CPDSampler, seed: int) -> None:
        """Copy the coordinator's mutable state into a worker's sampler.

        Plain ``memcpy``\\ s of the layout-sized prefix (the coordinator may
        have grown through streaming appends); the augmentation/parameter
        arrays are fresh copies so the kernel's identity-keyed caches notice
        the new iteration.
        """
        state = sampler.state
        source = coordinator.state
        for name in CPDState.SHARED_FIELDS:
            target = getattr(state, name)
            np.copyto(target, getattr(source, name)[: target.shape[0]])
        state.n_unassigned = int(np.count_nonzero(state.doc_topic < 0))
        state._drop_caches()
        table = sampler.popularity
        table.load_counts(coordinator.popularity._counts[: table.n_time_buckets])
        sampler.lambdas = coordinator.lambdas[: self._n_friend_links].copy()
        sampler.deltas = coordinator.deltas[: self._n_diff_links].copy()
        params, source_params = sampler.params, coordinator.params
        params.eta = source_params.eta.copy()
        params.nu = source_params.nu.copy()
        params.comm_weight = source_params.comm_weight
        params.pop_weight = source_params.pop_weight
        params.bias = source_params.bias
        sampler.rng = np.random.default_rng(seed)

    def _merge_fused(self, sampler: CPDSampler, results: list[_WorkerResult]) -> None:
        """Assemble the workers' PG draws and sum their partial eta counts."""
        config = self.config
        if config.model_friendship and sampler.n_friend_links:
            lambdas = np.empty(self._n_friend_links)
            for (start, stop), result in zip(self._f_ranges, results):
                if stop > start:
                    lambdas[start:stop] = result.lambdas
            sampler.lambdas = lambdas
        if config.model_diffusion and sampler.n_diff_links:
            deltas = np.empty(sampler.n_diff_links)
            for (start, stop), result in zip(self._e_ranges, results):
                if stop > start:
                    deltas[start:stop] = result.deltas
            if sampler.n_diff_links > self._n_diff_links:  # appended links
                deltas[self._n_diff_links :] = sampler.draw_delta_range(
                    self._n_diff_links, sampler.n_diff_links
                )
            sampler.deltas = deltas
        if sampler.uses_profile_diffusion and sampler.n_diff_links:
            counts = sum(result.eta_counts for result in results) + config.eta_smoothing
            if sampler.n_diff_links > self._n_diff_links:
                sampler.eta_counts_range(self._n_diff_links, sampler.n_diff_links, out=counts)
            self._fused_eta = counts / counts.sum()
