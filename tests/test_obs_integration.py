"""Acceptance: connected span trees and end-to-end telemetry.

The two headline scenarios must each yield a *single connected* span tree
under one trace id even though the work crosses thread (parallel fit) or
layer (degraded scatter-gather) boundaries; and the instrumented streaming
and durability paths must land their metrics in one registry.
"""

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core import CPDConfig, CPDModel, FitOptions
from repro.parallel import ParallelEStepRunner
from repro.resilience import FaultPlan, WriteAheadLog, inject
from repro.resilience.faults import FaultSpec
from repro.serving import ProfileStore
from repro.shard import ShardRouter
from repro.stream import DocumentArrival, MicroBatchIngestor


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.disable_telemetry()
    yield
    obs.disable_telemetry()


def _single_tree(records, root_name):
    """Assert the records form one connected tree rooted at ``root_name``."""
    trace_ids = {record["trace_id"] for record in records}
    assert len(trace_ids) == 1, f"expected one trace, got {trace_ids}"
    trees = obs.span_trees(records)
    assert len(trees) == 1, (
        f"expected one connected tree, got roots "
        f"{[t['span']['name'] for t in trees]}"
    )
    assert trees[0]["span"]["name"] == root_name
    return trees[0]


class TestParallelFitTrace:
    def test_two_worker_fit_yields_one_connected_tree(self, twitter_tiny):
        graph, _truth = twitter_tiny
        config = CPDConfig(n_communities=4, n_topics=8, n_iterations=2)
        registry, sink = obs.enable_telemetry()
        runner = ParallelEStepRunner(graph, config, n_workers=2, rng=5)
        try:
            CPDModel(config, rng=5).fit(
                graph, FitOptions(document_sweeper=runner)
            )
        finally:
            runner.close()
        records = sink.export()
        tree = _single_tree(records, "fit")

        # the tree crosses threads: each worker's span parents to its sweep
        worker_spans = [
            r for r in records if r["name"] == "parallel.worker_sweep"
        ]
        assert len(worker_spans) == config.n_iterations * 2
        by_id = {r["span_id"]: r for r in records}
        for worker_span in worker_spans:
            parent = by_id[worker_span["parent_id"]]
            assert parent["name"] == "parallel.sweep"

        # worker-thread metrics land in the one shared registry
        snapshot = registry.snapshot()
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in snapshot["counters"]
        }
        sweeps = [
            value for (name, _labels), value in counters.items()
            if name == "repro_sweeps_total"
        ]
        assert sum(sweeps) >= config.n_iterations
        assert any(
            name == "repro_parallel_sweeps_total"
            for name, _labels in counters
        )

        # convergence gauges from the fit loop
        gauges = {g["name"] for g in snapshot["gauges"]}
        assert "repro_fit_diffusion_probability" in gauges
        assert "repro_fit_diffusion_slope" in gauges

        # phase timing histograms cover all three EM phases
        phases = {
            entry["labels"].get("phase")
            for entry in snapshot["histograms"]
            if entry["name"] == "repro_fit_phase_seconds"
        }
        assert phases == {"e_step", "augmentation", "m_step"}
        assert tree["children"], "fit iterations must nest under the fit span"


class TestDegradedShardQueryTrace:
    def test_degraded_gather_yields_one_connected_tree(self, sharded_parity):
        fit = sharded_parity
        router = ShardRouter(
            [
                ProfileStore.from_fit(result, part.graph)
                for result, part in zip(fit.results, fit.plan.shards)
            ],
            [part.users for part in fit.plan.shards],
            fit.alignment,
            best_effort=True,
            retries=1,
            backoff=0.0,
            breaker_threshold=1,
        )
        term = router.indexed_terms()[0]
        plan = FaultPlan(seed=0)
        plan.arm(
            FaultSpec(point="shard.query", at=1, times=10_000, match={"shard": 1})
        )
        registry, sink = obs.enable_telemetry()
        with inject(plan):
            envelope = router.gather(term)
        assert not envelope.exact

        records = sink.export()
        tree = _single_tree(records, "router.gather")
        assert tree["span"]["tags"]["outcome"] == "degraded"
        shard_calls = tree["children"]
        assert {c["span"]["name"] for c in shard_calls} == {"shard.call"}
        assert len(shard_calls) == router.n_shards
        outcomes = {
            c["span"]["tags"]["shard"]: c["span"]["tags"]["outcome"]
            for c in shard_calls
        }
        assert outcomes[0] == "live"
        assert outcomes[1] == "failed"

        snapshot = registry.snapshot()
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in snapshot["counters"]
        }
        assert counters[
            ("repro_breaker_transitions_total", (("shard", "1"), ("to", "open")))
        ] == 1
        assert counters[
            ("repro_shard_retries_total", (("shard", "1"),))
        ] == 1
        gathered = {
            labels: value
            for (name, labels), value in counters.items()
            if name == "repro_shard_gather_total"
        }
        assert gathered[(("outcome", "live"), ("shard", "0"))] == 1
        assert gathered[(("outcome", "failed"), ("shard", "1"))] == 1


class TestStreamAndWalMetrics:
    def test_ingest_and_wal_metrics_land_in_one_registry(
        self, twitter_tiny, fitted_cpd, tmp_path
    ):
        graph, _truth = twitter_tiny
        store = ProfileStore.from_fit(fitted_cpd, graph)
        registry, _sink = obs.enable_telemetry()
        rng = np.random.default_rng(3)
        events = []
        for _ in range(6):
            source = graph.documents[int(rng.integers(0, graph.n_documents))]
            events.append(
                DocumentArrival(
                    user_id=int(rng.integers(0, graph.n_users)),
                    words=np.asarray(source.words, dtype=np.int64),
                    timestamp=int(source.timestamp),
                )
            )
        with WriteAheadLog(tmp_path / "events.wal") as wal:
            ingestor = MicroBatchIngestor(store, batch_size=3, wal=wal, rng=1)
            ingestor.submit_many(events)
            ingestor.flush()

        snapshot = registry.snapshot()
        counters = {c["name"]: c["value"] for c in snapshot["counters"]
                    if not c["labels"]}
        assert counters["repro_ingest_flushes_total"] == 2
        assert counters["repro_wal_records_total"] == 2
        assert counters["repro_wal_events_total"] == 6
        assert counters["repro_wal_bytes_total"] > 0
        histograms = {h["name"]: h for h in snapshot["histograms"]}
        assert histograms["repro_ingest_batch_lag_seconds"]["count"] == 2
        assert histograms["repro_ingest_foldin_seconds"]["count"] == 2
        assert histograms["repro_wal_append_seconds"]["count"] == 2
        assert histograms["repro_wal_fsync_seconds"]["count"] == 2
        # the fold-in path records rank-independent batch sizes
        assert histograms["repro_ingest_batch_size"]["count"] == 2
        typed = {
            tuple(sorted(c["labels"].items())): c["value"]
            for c in snapshot["counters"]
            if c["name"] == "repro_ingest_events_total"
        }
        assert typed[(("type", "doc"),)] == 6


class TestCliTelemetrySurface:
    @pytest.fixture(scope="class")
    def telemetry_run(self, tmp_path_factory):
        """One CLI fit with --telemetry, shared by the surface tests."""
        tmp = tmp_path_factory.mktemp("obs_cli")
        graph_path = tmp / "g.json.gz"
        model_path = tmp / "m.cpd.npz"
        telemetry_path = tmp / "run.telemetry.json"
        assert main([
            "generate", "--scenario", "twitter", "--scale", "tiny",
            "--seed", "3", "--out", str(graph_path),
        ]) == 0
        assert main([
            "fit", "--graph", str(graph_path), "--communities", "4",
            "--topics", "6", "--iterations", "2", "--out", str(model_path),
            "--telemetry", str(telemetry_path),
        ]) == 0
        # the command must restore the no-op default on exit
        assert not obs.telemetry_enabled()
        return telemetry_path

    def test_telemetry_file_written(self, telemetry_run):
        payload = obs.load_telemetry(telemetry_run)
        names = {c["name"] for c in payload["metrics"]["counters"]}
        assert "repro_sweeps_total" in names
        assert payload["spans"]

    def test_top_renders_table(self, telemetry_run, capsys):
        assert main(["top", "--telemetry", str(telemetry_run)]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "repro_sweeps_total" in out
        assert "p95" in out

    def test_top_renders_prometheus(self, telemetry_run, capsys):
        assert main([
            "top", "--telemetry", str(telemetry_run), "--format", "prometheus",
        ]) == 0
        out = capsys.readouterr().out
        parsed = obs.parse_prometheus(out)
        assert parsed["types"]["repro_sweeps_total"] == "counter"

    def test_trace_renders_one_fit_tree(self, telemetry_run, capsys):
        assert main(["trace", "--telemetry", str(telemetry_run)]) == 0
        out = capsys.readouterr().out
        assert "fit" in out
        assert "fit.iteration" in out
        assert "1 trace tree(s)" in out

    def test_trace_name_filter(self, telemetry_run, capsys):
        assert main([
            "trace", "--telemetry", str(telemetry_run), "--name", "no.such.span",
        ]) == 0
        assert "no matching spans" in capsys.readouterr().out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["top", "--telemetry", str(tmp_path / "absent.json")]) == 1
        assert main(["trace", "--telemetry", str(tmp_path / "absent.json")]) == 1

    def test_doctor_embeds_telemetry(self, telemetry_run, capsys):
        assert main(["doctor", "--telemetry", str(telemetry_run)]) == 0
        out = capsys.readouterr().out
        assert "telemetry" in out
        assert "spans" in out
