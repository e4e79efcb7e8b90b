"""Time-sensitive topic popularity ``n_tz`` (paper Sect. 3.1).

The diffusion sigmoid (Eq. 5) adds the popularity of the link's topic at
the link's timestamp to the logit. The paper uses the raw count of topic z
at time t; raw counts grow without bound with corpus size and would
dominate the logit, so the default here is a bounded transform (proportion
of time-bucket mass, optionally log-scaled) with ``mode="raw"`` available
for paper-literal behaviour. See DESIGN.md §3.

Counts are maintained incrementally: the Gibbs sampler moves a document's
topic, the popularity table moves one count.
"""

from __future__ import annotations

import numpy as np

_MODES = ("raw", "proportion", "log")


class TopicPopularity:
    """Mutable (time bucket x topic) count table with bounded score lookups."""

    def __init__(
        self,
        n_topics: int,
        n_time_buckets: int,
        mode: str = "proportion",
        weight: float = 1.0,
    ) -> None:
        if n_topics < 1 or n_time_buckets < 1:
            raise ValueError("need at least one topic and one time bucket")
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        self.n_topics = n_topics
        self.n_time_buckets = n_time_buckets
        self.mode = mode
        self.weight = weight
        self._counts = np.zeros((n_time_buckets, n_topics), dtype=np.float64)
        # lazily built cache of transformed score rows with dirty-row
        # invalidation; backs scores_batch on the vectorized sweep hot path
        self._score_cache: np.ndarray | None = None
        self._dirty_rows: set[int] = set()

    @classmethod
    def from_assignments(
        cls,
        timestamps: np.ndarray,
        topics: np.ndarray,
        n_topics: int,
        n_time_buckets: int,
        mode: str = "proportion",
        weight: float = 1.0,
    ) -> "TopicPopularity":
        """Build the table from current document topic assignments."""
        table = cls(n_topics, n_time_buckets, mode=mode, weight=weight)
        table.increment_many(timestamps, topics)
        return table

    # ------------------------------------------------------------ maintenance

    def increment(self, timestamp: int, topic: int) -> None:
        """Register one document of ``topic`` at ``timestamp``."""
        self._counts[timestamp, topic] += 1.0
        if self._score_cache is not None:
            self._dirty_rows.add(int(timestamp))

    def decrement(self, timestamp: int, topic: int) -> None:
        """Remove one document of ``topic`` at ``timestamp``."""
        if self._counts[timestamp, topic] <= 0.0:
            raise ValueError(
                f"popularity count underflow at (t={timestamp}, z={topic})"
            )
        self._counts[timestamp, topic] -= 1.0
        if self._score_cache is not None:
            self._dirty_rows.add(int(timestamp))

    def move(self, timestamp: int, old_topic: int, new_topic: int) -> None:
        """Reassign one document's topic at a fixed timestamp."""
        if old_topic != new_topic:
            self.decrement(timestamp, old_topic)
            self.increment(timestamp, new_topic)

    def increment_many(self, timestamps: np.ndarray, topics: np.ndarray) -> None:
        """Register one document per ``(timestamp, topic)`` pair (batched)."""
        timestamps = np.asarray(timestamps, dtype=np.int64)
        topics = np.asarray(topics, dtype=np.int64)
        if len(timestamps):
            np.add.at(self._counts, (timestamps, topics), 1.0)
            if self._score_cache is not None:
                self._dirty_rows.update(timestamps.tolist())

    def decrement_many(self, timestamps: np.ndarray, topics: np.ndarray) -> None:
        """Remove one document per ``(timestamp, topic)`` pair (batched)."""
        timestamps = np.asarray(timestamps, dtype=np.int64)
        topics = np.asarray(topics, dtype=np.int64)
        if not len(timestamps):
            return
        np.add.at(self._counts, (timestamps, topics), -1.0)
        if np.any(self._counts[timestamps, topics] < 0.0):
            np.add.at(self._counts, (timestamps, topics), 1.0)  # restore
            raise ValueError("popularity count underflow in batched decrement")
        if self._score_cache is not None:
            self._dirty_rows.update(timestamps.tolist())

    def move_many(
        self, timestamps: np.ndarray, old_topics: np.ndarray, new_topics: np.ndarray
    ) -> None:
        """Batched :meth:`move` — reassign many documents' topics at once."""
        self.decrement_many(timestamps, old_topics)
        self.increment_many(timestamps, new_topics)

    def load_counts(self, counts: np.ndarray) -> None:
        """Overwrite the full count table in place (parallel-worker refresh).

        One memcpy instead of replaying increments; the transformed-score
        cache is dropped wholesale because every row may have changed.
        """
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != self._counts.shape:
            raise ValueError(
                f"count table has shape {self._counts.shape}, got {counts.shape}"
            )
        np.copyto(self._counts, counts)
        self._score_cache = None
        self._dirty_rows.clear()

    # ---------------------------------------------------------------- lookups

    def count(self, timestamp: int, topic: int) -> float:
        """Raw count ``n_tz``."""
        return float(self._counts[timestamp, topic])

    def score(self, timestamp: int, topic: int) -> float:
        """The popularity term added to the diffusion logit."""
        return float(self.scores(timestamp)[topic])

    def scores(self, timestamp: int) -> np.ndarray:
        """Popularity term for every topic at ``timestamp`` (vectorised)."""
        return self._transform_row(self._counts[timestamp])

    def scores_batch(self, timestamps: np.ndarray) -> np.ndarray:
        """Popularity terms for every topic at each timestamp, shape (N, Z).

        Row-for-row identical to stacking :meth:`scores` over ``timestamps``;
        used by the vectorized sweep kernel to score all incident links of a
        document in one gather against the dirty-row score cache.
        """
        return self._scores_view()[timestamps]

    def scores_at(self, timestamps: np.ndarray, topics: np.ndarray) -> np.ndarray:
        """Scalar popularity terms for aligned ``(timestamp, topic)`` pairs.

        Equivalent to ``scores_batch(timestamps)[arange(n), topics]`` without
        materialising the intermediate rows.
        """
        view = self._scores_view()
        return view.ravel()[timestamps * self.n_topics + topics]

    def _scores_view(self) -> np.ndarray:
        """Cached transformed score matrix; refreshed row-wise, read-only."""
        if self._score_cache is None:
            self._score_cache = self.score_matrix()
            self._dirty_rows.clear()
        elif self._dirty_rows:
            if len(self._dirty_rows) <= 8:  # the per-document steady state
                cache = self._score_cache
                for row in self._dirty_rows:
                    cache[row] = self._transform_row(self._counts[row])
            else:
                rows = np.fromiter(
                    self._dirty_rows, dtype=np.int64, count=len(self._dirty_rows)
                )
                self._score_cache[rows] = self._transform_rows(self._counts[rows])
            self._dirty_rows.clear()
        return self._score_cache

    def _transform_row(self, row: np.ndarray) -> np.ndarray:
        """Single-row transform with scalar arithmetic (per-document hot path)."""
        if self.mode == "raw":
            transformed = row
        elif self.mode == "proportion":
            transformed = row / max(row.sum(), 1.0)
        else:  # log
            transformed = np.log1p(row)
        return self.weight * transformed

    def _transform_rows(self, rows: np.ndarray) -> np.ndarray:
        """Row-wise transform of a (N, Z) count block."""
        if self.mode == "raw":
            transformed = rows
        elif self.mode == "proportion":
            transformed = rows / np.maximum(rows.sum(axis=1, keepdims=True), 1.0)
        else:  # log
            transformed = np.log1p(rows)
        return self.weight * transformed

    def score_matrix(self) -> np.ndarray:
        """Popularity term for every (time bucket, topic) cell (vectorised)."""
        return self._transform_rows(self._counts)

    def totals_per_topic(self) -> np.ndarray:
        """Column sums — overall topic frequencies, used by case studies."""
        return self._counts.sum(axis=0)

    def counts_matrix(self) -> np.ndarray:
        """Copy of the raw (time x topic) counts (Fig. 5(b) case study)."""
        return self._counts.copy()
