"""Incremental refresher: warm Gibbs re-sweeps over only the dirty region.

Fold-in (:mod:`repro.serving.foldin`) assigns arriving documents against a
*frozen* model — fast, but the model itself never learns. A cold refit
learns everything but costs a full EM run. This module is the middle path
the streaming subsystem is built on: keep one warm-started
:class:`~repro.core.gibbs.CPDSampler` (counts, popularity and diffusion
parameters resuming the offline fit's end state), append arriving
documents/links to it in place (:meth:`CPDSampler.append_documents` /
:meth:`append_diffusion_links`), and periodically re-sweep only the *dirty*
documents — the appended ones plus the endpoints its new links touch —
with the vectorized sweep kernel. Everything the sweep reads (count
matrices, estimator caches, CSR layouts) is maintained incrementally, so a
refresh costs O(dirty) instead of O(corpus).

The M-step is partially refreshed too: ``eta`` is re-aggregated from the
current assignments (one scatter-add), while the factor weights
``(comm_weight, pop_weight, nu, bias)`` stay frozen from the offline fit —
they are corpus-level logistic-regression coefficients that drift far more
slowly than the assignments (DESIGN.md §6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.gibbs import CPDSampler
from ..core.result import CPDResult
from ..graph.social_graph import SocialGraph
from ..sampling.rng import RngLike


@dataclass(frozen=True)
class RefreshReport:
    """What one incremental refresh did."""

    #: documents re-swept (the dirty set)
    n_documents: int
    #: documents whose community changed in the re-sweep (drift)
    n_reassigned: int
    #: Gibbs sweeps run over the dirty set
    n_sweeps: int
    seconds: float
    #: per-community reassignment inflow, shape (C,)
    moved_into: np.ndarray


class IncrementalRefresher:
    """Warm-started sampler over a growing corpus (see module docstring)."""

    def __init__(
        self,
        graph: SocialGraph,
        result: CPDResult,
        rng: RngLike = None,
        n_sweeps: int = 2,
        update_eta: bool = True,
        document_sweeper: object | None = None,
    ) -> None:
        if n_sweeps < 1:
            raise ValueError("n_sweeps must be at least 1")
        self.sampler = CPDSampler.warm_start(graph, result, rng=rng)
        self.config = result.config
        self.n_sweeps = n_sweeps
        self.update_eta = update_eta
        #: optional replacement for the dirty-set sweep — a callable taking
        #: ``(sampler, doc_ids)``; the thread-parallel runner
        #: (:class:`repro.parallel.ParallelEStepRunner`) plugs in here. A
        #: sweeper with ``fused_augmentation`` also owns the per-link PG
        #: draws and the eta aggregation.
        self.document_sweeper = document_sweeper
        self.graph_name = graph.name
        self.n_base_documents = graph.n_documents
        self._dirty: set[int] = set()
        self.n_appended_documents = 0
        self.n_appended_links = 0
        self.n_refreshes = 0
        self.last_timestamp = int(
            max(
                (doc.timestamp for doc in graph.documents),
                default=0,
            )
        )

    # ------------------------------------------------------------- dimensions

    @property
    def n_documents(self) -> int:
        return self.sampler.state.n_docs

    @property
    def n_dirty(self) -> int:
        return len(self._dirty)

    # ---------------------------------------------------------------- appends

    def append_documents(
        self,
        documents: list[np.ndarray],
        users: np.ndarray,
        timestamps: np.ndarray,
        communities: np.ndarray,
        topics: np.ndarray,
    ) -> np.ndarray:
        """Append assigned documents (fold-in output) and mark them dirty."""
        new_ids = self.sampler.append_documents(
            documents, users, timestamps, communities=communities, topics=topics
        )
        self._dirty.update(new_ids.tolist())
        self.n_appended_documents += len(new_ids)
        if len(timestamps):
            self.last_timestamp = max(self.last_timestamp, int(np.max(timestamps)))
        return new_ids

    def append_links(
        self,
        source_docs: np.ndarray,
        target_docs: np.ndarray,
        timestamps: np.ndarray,
    ) -> None:
        """Append diffusion links; both endpoints join the dirty set."""
        source_docs = np.asarray(source_docs, dtype=np.int64)
        target_docs = np.asarray(target_docs, dtype=np.int64)
        timestamps = np.asarray(timestamps, dtype=np.int64)
        self.sampler.append_diffusion_links(source_docs, target_docs, timestamps)
        self._dirty.update(source_docs.tolist())
        self._dirty.update(target_docs.tolist())
        self.n_appended_links += len(source_docs)
        if len(timestamps):
            self.last_timestamp = max(self.last_timestamp, int(timestamps.max()))

    # ---------------------------------------------------------------- refresh

    def refresh(self) -> RefreshReport:
        """Re-sweep the dirty documents with warm state; returns a report.

        Runs ``n_sweeps`` Gibbs sweeps over the dirty set only, redraws the
        augmentation variables (they are per-link and cheap in one batch),
        and re-aggregates ``eta``. A refresh with an empty dirty set is a
        no-op report.
        """
        started = time.perf_counter()
        sampler = self.sampler
        n_communities = self.config.n_communities
        if not self._dirty:
            return RefreshReport(
                n_documents=0,
                n_reassigned=0,
                n_sweeps=0,
                seconds=time.perf_counter() - started,
                moved_into=np.zeros(n_communities, dtype=np.int64),
            )
        doc_ids = np.fromiter(self._dirty, dtype=np.int64, count=len(self._dirty))
        doc_ids.sort()
        if np.any(sampler.state.doc_topic[doc_ids] < 0):
            raise RuntimeError("refresh requires every dirty document to be assigned")
        before = sampler.state.doc_community[doc_ids].copy()
        sweeper = self.document_sweeper
        fused = getattr(sweeper, "fused_augmentation", False)
        for index in range(self.n_sweeps):
            if sweeper is None:
                sampler.sweep_documents(doc_ids)
            elif fused:
                # fuse the O(F + E) link draws into the final sweep only —
                # the serial path below also draws them once per refresh
                sweeper(sampler, doc_ids, fuse=index == self.n_sweeps - 1)
            else:
                sweeper(sampler, doc_ids)
        if not fused:
            sampler.sample_lambdas()
            sampler.sample_deltas()
        if self.update_eta and sampler.uses_profile_diffusion and sampler.n_diff_links:
            eta = sweeper.aggregated_eta() if fused else None
            sampler.params.eta = eta if eta is not None else sampler.aggregate_eta()
        after = sampler.state.doc_community[doc_ids]
        changed = after != before
        moved_into = np.bincount(
            after[changed], minlength=n_communities
        ).astype(np.int64)
        self._dirty.clear()
        self.n_refreshes += 1
        return RefreshReport(
            n_documents=len(doc_ids),
            n_reassigned=int(changed.sum()),
            n_sweeps=self.n_sweeps,
            seconds=time.perf_counter() - started,
            moved_into=moved_into,
        )

    # --------------------------------------------------------------- snapshot

    def snapshot_result(self) -> CPDResult:
        """Compact the warm state into an immutable :class:`CPDResult`.

        Exactly what :meth:`repro.core.model.CPDModel.fit` builds at the
        end of an offline run, but over the grown corpus: smoothed
        estimators from the live count matrices plus a copy of the current
        diffusion parameters.
        """
        state = self.sampler.state
        return CPDResult(
            config=self.config,
            pi=state.pi_hat(),
            theta=state.theta_hat(),
            phi=state.phi_hat(),
            diffusion=self.sampler.params.copy(),
            doc_community=state.doc_community.copy(),
            doc_topic=state.doc_topic.copy(),
            trace=[],
            graph_name=self.graph_name,
        )
