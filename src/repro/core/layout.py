"""Immutable corpus layout: every array a sampler needs besides its state.

A fitted :class:`~repro.core.gibbs.CPDSampler` derives a large family of
flat arrays from its :class:`~repro.graph.social_graph.SocialGraph` — the
word occurrence CSR, the per-document unique-word layout, the friendship
and diffusion link CSR incidence arrays, the pair features, and the sweep
kernel's multiplicity-split word layout. All of them are *immutable* for
the sampler's lifetime. :class:`CorpusLayout` bundles them so they can be

* computed **once** by a coordinator and shared read-only by the worker
  samplers of :class:`repro.parallel.ParallelEStepRunner`, and
* used to construct further samplers **without the graph** — zero list
  comprehensions over link objects, zero per-document ``np.unique`` calls
  (``CPDSampler(None, config, params, layout=layout)``).

Every field is a numpy array (or int dimension).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .state import counts_to_indptr


def split_word_multiplicity(
    doc_unique: list[tuple[np.ndarray, np.ndarray]],
) -> dict[str, np.ndarray]:
    """CSR doc -> (word, count) layout, split by multiplicity.

    Words occurring once in a document (the dominant case in short
    social-media posts) go through a plain log-gather in the vectorized
    kernel; repeated words go through the two-``gammaln``
    ascending-factorial form. Shared by :class:`repro.core.kernel.
    VectorizedKernel` and :meth:`CorpusLayout.from_sampler` so the split is
    defined in exactly one place.
    """
    single_rows: list[np.ndarray] = []
    multi_rows: list[np.ndarray] = []
    multi_count_rows: list[np.ndarray] = []
    single_lengths = np.zeros(len(doc_unique), dtype=np.int64)
    multi_lengths = np.zeros(len(doc_unique), dtype=np.int64)
    for doc_id, (words, counts) in enumerate(doc_unique):
        words = np.asarray(words, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        once = counts == 1
        single_rows.append(words[once])
        multi_rows.append(words[~once])
        multi_count_rows.append(counts[~once])
        single_lengths[doc_id] = int(once.sum())
        multi_lengths[doc_id] = len(words) - int(once.sum())

    def concat(rows: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)

    return {
        "ws_words": concat(single_rows),
        "ws_indptr": counts_to_indptr(single_lengths),
        "wm_words": concat(multi_rows),
        "wm_indptr": counts_to_indptr(multi_lengths),
        "wm_counts": concat(multi_count_rows).astype(np.float64),
    }


@dataclass
class CorpusLayout:
    """The immutable arrays of one corpus + link structure (see module doc)."""

    # dimensions
    n_users: int
    n_docs: int
    n_words: int

    # per-document scalars
    doc_user: np.ndarray  # (D,) int64
    doc_time: np.ndarray  # (D,) int64

    # flat word-occurrence CSR
    all_words: np.ndarray  # (total occurrences,) int64
    word_indptr: np.ndarray  # (D+1,) int64

    # per-document unique (word, multiplicity) CSR
    u_words: np.ndarray  # (total unique,) int64
    u_counts: np.ndarray  # (total unique,) float64
    u_indptr: np.ndarray  # (D+1,) int64

    # friendship links + per-user incidence CSR
    f_src: np.ndarray  # (F,) int64
    f_tgt: np.ndarray  # (F,) int64
    f_csr_indptr: np.ndarray  # (U+1,) int64
    f_csr_neighbor: np.ndarray  # (2F,) int64
    f_csr_link: np.ndarray  # (2F,) int64

    # diffusion links + per-document incidence CSRs
    e_src: np.ndarray  # (E,) int64
    e_tgt: np.ndarray  # (E,) int64
    e_time: np.ndarray  # (E,) int64
    e_features: np.ndarray  # (E, n_features) float64
    d_csr_indptr: np.ndarray  # (D+1,) int64
    d_csr_link: np.ndarray  # (2E,) int64
    d_csr_other: np.ndarray  # (2E,) int64
    d_csr_is_source: np.ndarray  # (2E,) bool
    dout_csr_indptr: np.ndarray  # (D+1,) int64
    dout_csr_link: np.ndarray  # (E,) int64
    dout_csr_target: np.ndarray  # (E,) int64

    # vectorized-kernel word layout (multiplicity split)
    ws_words: np.ndarray  # int64
    ws_indptr: np.ndarray  # (D+1,) int64
    wm_words: np.ndarray  # int64
    wm_indptr: np.ndarray  # (D+1,) int64
    wm_counts: np.ndarray  # float64

    # per-document word counts as float64 — the compiled kernel consumes
    # them directly for the Eq. 13 denominator and the count updates
    doc_lengths: np.ndarray  # (D,) float64

    @property
    def n_friend_links(self) -> int:
        return int(len(self.f_src))

    @property
    def n_diff_links(self) -> int:
        return int(len(self.e_src))

    @classmethod
    def array_fields(cls) -> list[str]:
        """Names of the array-valued fields, in declaration order."""
        return [f.name for f in fields(cls) if f.name not in ("n_users", "n_docs", "n_words")]

    def arrays(self) -> dict[str, np.ndarray]:
        """Name -> array mapping of every array-valued field."""
        return {name: getattr(self, name) for name in self.array_fields()}

    @classmethod
    def from_sampler(cls, sampler) -> "CorpusLayout":
        """Gather the layout from a constructed :class:`CPDSampler`.

        The sampler already derived every array; this only collects (and,
        for the unique-word CSR and — when the sampler runs the reference
        kernel — the multiplicity split, flattens) them.
        """
        state = sampler.state
        unique_lengths = np.asarray(
            [len(words) for words in state._doc_unique_words], dtype=np.int64
        )
        u_indptr = counts_to_indptr(unique_lengths)
        u_words = (
            np.concatenate(state._doc_unique_words)
            if state._doc_unique_words
            else np.zeros(0, dtype=np.int64)
        )
        u_counts = (
            np.concatenate(state._doc_unique_counts)
            if state._doc_unique_counts
            else np.zeros(0, dtype=np.float64)
        )
        kernel = sampler.kernel
        if hasattr(kernel, "ws_words"):
            word_layout = {
                "ws_words": kernel.ws_words,
                "ws_indptr": kernel.ws_indptr,
                "wm_words": kernel.wm_words,
                "wm_indptr": kernel.wm_indptr,
                "wm_counts": kernel.wm_counts,
            }
        else:
            word_layout = split_word_multiplicity(sampler._doc_unique)
        return cls(
            n_users=state.n_users,
            n_docs=state.n_docs,
            n_words=state.n_words,
            doc_user=np.asarray(sampler._doc_user, dtype=np.int64),
            doc_time=np.asarray(sampler._doc_time, dtype=np.int64),
            all_words=state._all_words,
            word_indptr=state._word_indptr,
            u_words=np.asarray(u_words, dtype=np.int64),
            u_counts=np.asarray(u_counts, dtype=np.float64),
            u_indptr=u_indptr,
            f_src=sampler.f_src,
            f_tgt=sampler.f_tgt,
            f_csr_indptr=sampler.f_csr_indptr,
            f_csr_neighbor=sampler.f_csr_neighbor,
            f_csr_link=sampler.f_csr_link,
            e_src=sampler.e_src,
            e_tgt=sampler.e_tgt,
            e_time=sampler.e_time,
            e_features=np.asarray(sampler.e_features, dtype=np.float64),
            d_csr_indptr=sampler.d_csr_indptr,
            d_csr_link=sampler.d_csr_link,
            d_csr_other=sampler.d_csr_other,
            d_csr_is_source=sampler.d_csr_is_source,
            dout_csr_indptr=sampler.dout_csr_indptr,
            dout_csr_link=sampler.dout_csr_link,
            dout_csr_target=sampler.dout_csr_target,
            doc_lengths=np.ascontiguousarray(sampler._doc_lengths, dtype=np.float64),
            **word_layout,
        )
