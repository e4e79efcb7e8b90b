"""Inputs, model settings, quality scores and the result record.

Every workload starts from one fixed dataset, like the paper's fixed
crawls: the twitter scenario at ``medium`` scale (``DATASET_SEED``) with a
fixed 20% of its diffusion links held out, and a fixed sample of non-links,
for the Fig. 4 diffusion AUC. The models a workload starts from (the
stream's base fit, the served artifact and shards) are fitted from the
dataset seed too: they stand for the deployed model. The workload seed
draws everything the workload does to them: every measured fit's and
refresh's random stream and all generated queries. The model uses the
scenario's planted dimensions, 20 EM iterations and the compiled sweep
kernel.
"""

from __future__ import annotations

import json
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.apps import DiffusionPredictor
from repro.core import CPDConfig
from repro.core.kernel import compiled_fallback_reason
from repro.datasets import twitter_scenario
from repro.diffusion.negative_sampling import sample_negative_diffusion_pairs
from repro.evaluation import auc_score, normalized_mutual_information
from repro.evaluation.splits import split_diffusion_links

import stats

SCALE = "medium"
#: the dataset's seed (benchmarks/bench_support.py uses the same graph)
DATASET_SEED = 3
N_ITERATIONS = 20
HELDOUT_FRACTION = 0.2
KERNEL = "compiled"
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3


class GateFailure(RuntimeError):
    """A correctness gate failed: the run must not report figures."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


@dataclass
class Scenario:
    graph: object
    truth: object
    train_graph: object
    #: held-out positives and sampled non-links, each ``(src, tgt, time)``
    positives: tuple
    negatives: tuple
    config: CPDConfig


def make_scenario() -> Scenario:
    graph, truth = twitter_scenario(SCALE, rng=DATASET_SEED)
    split = split_diffusion_links(graph, HELDOUT_FRACTION, rng=DATASET_SEED + 1)
    # non-links are sampled against the full graph, so no held-out link
    # can be drawn as a negative
    sampled = sample_negative_diffusion_pairs(graph, split.n_heldout, rng=DATASET_SEED + 2)
    negatives = tuple(np.asarray(column, dtype=np.int64) for column in zip(*sampled))
    config = CPDConfig(
        n_communities=truth.n_communities,
        n_topics=truth.n_topics,
        n_iterations=N_ITERATIONS,
        rho=0.5,
        alpha=0.5,
        sweep_kernel=KERNEL,
    )
    return Scenario(graph, truth, split.train_graph, split.heldout_arrays(), negatives, config)


def diffusion_auc(result, graph, positives, negatives) -> float:
    """Held-out diffusion AUC (Fig. 4) of ``result`` over ``graph``'s corpus."""
    predictor = DiffusionPredictor(result, graph)
    return auc_score(predictor.score_pairs(*positives), predictor.score_pairs(*negatives))


def user_nmi(result, truth) -> float:
    """NMI of hard user communities against the planted primary ones."""
    return normalized_mutual_information(
        result.hard_community_per_user(), truth.primary_community
    )


def require_compiled_kernel() -> None:
    reason = compiled_fallback_reason()
    require(reason is None, f"compiled sweep kernel fell back to vectorized: {reason}")


def write_spans(workload: str, recorder) -> None:
    """Write a traced run's spans once, at the end, for inspection."""
    out = Path.cwd() / ".bench_build" / "work" / workload
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "spans": [span.to_dict() for span in recorder.spans],
        "counts": dict(recorder.counts),
    }
    (out / "spans.json").write_text(json.dumps(payload), encoding="utf-8")


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(setup, probes, repeats: int = SETUP_REPEATS):
    """Run ``setup()`` ``repeats`` times between two probe boundaries.

    Returns the last state, the median probe-adjusted seconds (set-up is
    CPU-bound: generation, fits, process start) and the raw seconds.
    Repeating makes ``setup_s`` a median, not one draw.
    """
    seconds = []
    state = None
    probes.boundary()
    for _ in range(repeats):
        if hasattr(state, "close"):
            state.close()
        started = time.perf_counter()
        state = setup()
        seconds.append(time.perf_counter() - started)
    probes.boundary()
    return state, stats.median(seconds) * probes.factor(), seconds


@dataclass
class Result:
    """What one run prints: metrics by name and unit, plus details."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def add_tail(self, values, unit: str = "ms") -> None:
        """``op_tail_ms`` by the ten-beyond rule, with its rung and sample
        count, in the details: it is printed on every run but not bounded
        (README.md, "Tail latency")."""
        found = stats.tail(values)
        require(found is not None, f"only {len(values)} ops: too few for a tail percentile")
        require(math.isfinite(found.value), "so many ops failed that the tail is a failure")
        self.details["op_tail_ms"] = {
            "value": found.value,
            "unit": unit,
            "percentile": found.percentile,
            "n_samples": found.n_samples,
            "n_beyond": found.n_beyond,
        }
