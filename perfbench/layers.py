"""The per-layer metrics of the traced run, by name and unit.

Every traced run prints all of them. A layer that a workload does not
exercise reads 0 there: that is the prediction recorded in README.md
("none on ..."), not a missing value. Times are mean self time per op.
"""

from __future__ import annotations

PER_LAYER: tuple[tuple[str, str], ...] = (
    # M-step of a fit (fit workload)
    ("diffusion.negatives_ms", "ms"),
    ("diffusion.index_builds", "count"),
    ("diffusion.negatives_yield", "ratio"),
    ("diffusion.design_ms", "ms"),
    ("diffusion.logistic_ms", "ms"),
    ("diffusion.logistic_steps", "count"),
    # sampler (fit E-step, stream refresh)
    ("core.sweep_ms", "ms"),
    ("core.sweep_docs", "count"),
    ("sampling.augment_ms", "ms"),
    ("core.eta_ms", "ms"),
    ("core.fit_other_ms", "ms"),
    # write path (stream workload)
    ("serving.foldin_ms", "ms"),
    ("serving.foldin_docs", "count"),
    ("stream.append_ms", "ms"),
    ("stream.refresh_ms", "ms"),
    ("stream.dirty_docs", "count"),
    ("stream.reassigned_ratio", "ratio"),
    ("stream.swap_ms", "ms"),
    ("serving.first_rank_ms", "ms"),
    ("stream.ingest_other_ms", "ms"),
    # request path (serve workloads)
    ("gateway.parse_ms", "ms"),
    ("gateway.admission_wait_ms", "ms"),
    ("gateway.batch_wait_ms", "ms"),
    ("gateway.batch_size", "count"),
    ("gateway.backend_ms", "ms"),
    ("gateway.render_ms", "ms"),
    ("gateway.other_ms", "ms"),
    ("serving.rank_ms", "ms"),
    ("serving.cache_hit_ratio", "ratio"),
    ("shard.gather_ms", "ms"),
    ("shard.call_ms", "ms"),
    ("shard.calls_per_gather", "count"),
    # harness health
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("host.probe_ms", "ms"),
    ("host.raw_op_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def fill(result, values: dict) -> None:
    """Add every per-layer metric to ``result``; absent layers read 0."""
    unknown = set(values) - {name for name, _unit in PER_LAYER}
    if unknown:
        raise KeyError(f"not a per-layer metric: {sorted(unknown)}")
    for name, unit in PER_LAYER:
        result.add(name, values.get(name, 0.0), unit)
