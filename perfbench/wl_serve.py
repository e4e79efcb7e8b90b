"""``serve_hot`` and ``serve_cold``: the HTTP gateway under an open loop.

``repro serve`` runs in its own process; this process generates the load.
``serve_hot`` serves a store artifact and sends Zipf-distributed indexed
hashtag queries, so nearly every answer is an LRU hit: it measures the
gateway request path. ``serve_cold`` serves a 4-shard manifest and sends
every request a distinct in-vocabulary word pair, so every answer misses
the caches and fans out through ``ShardRouter.gather``.

A run alternates open-loop windows at ``RATE`` requests per second
(latency, timed from when each request was due) with closed-loop windows
on ``nproc`` connections (goodput: answers that were 200 and within
``LIMIT_S``, per second; the median window). Server CPU per request is
taken over both. The traced run sends a traced open-loop window, during
which the server records spans, in place of each closed-loop window.
"""

from __future__ import annotations

import gc
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import quote

import numpy as np

from repro.core import CPDModel
from repro.core.io import save_result
from repro.serving import GraphSummary, ProfileStore
from repro.shard import CommunityAligner, fit_shards

import common
import layers
import loadgen
import stats
from common import Result, require
from hostprobe import ProbeLog
from spans import Span, accounting_gap, children_index, self_time

HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"
#: open-loop rate. ``serve_cold`` runs at half the rate: its closed loop
#: sustained 250-480 requests/s across runs of the same code, so at 300/s a
#: slow stretch of the host saturated it and its p50 went from 5 to 200 ms
RATE = {"serve_hot": 300.0, "serve_cold": 150.0}
#: probe-adjust latency and goodput: where the request is CPU-bound. A
#: ``serve_hot`` request spends half its ~4 ms in the batch window's timer,
#: which host speed does not scale, and adjusting made its p50 less steady
ADJUSTED = {"serve_hot": False, "serve_cold": True}
#: goodput latency limit
LIMIT_S = 0.025
N_SHARDS = 4
ZIPF_EXPONENT = 1.1
#: a run alternates ROUNDS open-loop and closed-loop windows, so each kind
#: is measured across the whole run's host conditions, not one stretch
ROUNDS = 5
#: requests per window for a 10 s run: (open loop, closed loop). Counts,
#: not durations, so the server has served the same sequence of requests
#: at every point of every run and its full garbage collections fall in the
#: same windows
WINDOW_REQUESTS = {"serve_hot": (180, 900), "serve_cold": (180, 300)}
WINDOW_TIMEOUT_S = 60.0
#: warm-up requests, closed loop. A fixed count: how much the server has
#: served since it started decides when its full garbage collections fall
WARM_REQUESTS = 300
WARM_TIMEOUT_S = 60.0
#: pause after switching the server's span recording on or off
SIGNAL_SETTLE_S = 0.05
#: an answer agrees when the monolithic model's top-1 community, mapped
#: through the shard alignment, is in its top AGREE_TOP (as
#: benchmarks/bench_shard_serving.py scores it)
AGREE_TOP = 2
STARTUP_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Server:
    """A ``repro serve`` subprocess and how to reach it."""

    def __init__(self, model_path: Path, work: Path, traced: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path.cwd() / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        serve_args = ["--model", str(model_path), "--host", HOST, "--port", "0"]
        self.spans_path = work / "spans.json" if traced else None
        if traced:
            command = [sys.executable, str(HERE / "serve_launcher.py"),
                       "--spans-out", str(self.spans_path), "--", *serve_args]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True
        )
        self.port = self._await_port()
        deadline = time.perf_counter() + STARTUP_TIMEOUT_S
        while loadgen.get(HOST, self.port, "/ready")[0] != 200:
            require(time.perf_counter() < deadline, "the server never became ready")
            time.sleep(0.02)

    def _await_port(self) -> int:
        marker = f"gateway serving on http://{HOST}:"
        for line in self.process.stdout:
            if line.startswith(marker):
                return int(line[len(marker):].strip())
        self.close()
        raise common.GateFailure("the server exited before it was serving")

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise common.GateFailure("no VmHWM for the server process")

    def signal(self, signum) -> None:
        self.process.send_signal(signum)

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


class Deployment:
    """Scenario, fitted artifact(s), reference answers and a live server."""

    def __init__(self, workload: str, seed: int, work: Path, traced: bool, n_requests: int) -> None:
        self.workload = workload
        scenario = common.make_scenario()
        graph = scenario.train_graph
        self.scenario = scenario
        self.fit = CPDModel(scenario.config, rng=common.DATASET_SEED).fit(graph)
        common.require_compiled_kernel()
        self.auc = common.diffusion_auc(self.fit, graph, scenario.positives, scenario.negatives)
        self.reference = ProfileStore(
            self.fit, vocabulary=graph.vocabulary, summary=GraphSummary.from_graph(graph)
        )
        rng = np.random.default_rng(seed + 4)
        work.mkdir(parents=True, exist_ok=True)
        if workload == "serve_hot":
            model_path = work / "model.cpd.npz"
            save_result(self.fit, model_path, vocabulary=graph.vocabulary,
                        graph_summary=GraphSummary.from_graph(graph))
            terms = [query.term for query in self.reference.indexed_queries()]
            require(terms, "the scenario indexed no queries")
            weights = 1.0 / np.arange(1, len(terms) + 1) ** ZIPF_EXPONENT
            picks = rng.choice(len(terms), size=n_requests, p=weights / weights.sum())
            self.queries = [terms[i] for i in picks]
            warm = terms
        else:
            sharded = fit_shards(graph, scenario.config, N_SHARDS, strategy="hash",
                                 out_dir=work / "shards", rng=common.DATASET_SEED)
            common.require_compiled_kernel()
            model_path = sharded.manifest_path
            self.mono_map = CommunityAligner().map_result(sharded.alignment, self.fit)
            self.queries = _word_pairs(list(graph.vocabulary), n_requests, rng)
            warm = self.queries[:8]
            self.queries = self.queries[8:]
        self.server = Server(model_path, work, traced)
        try:
            for query in warm:
                reply = loadgen.get(HOST, self.server.port, _path(query))
                require(reply[0] == 200, f"warm-up query {query!r} answered {reply[0]}")
        except BaseException:
            self.server.close()
            raise
        self._cursor = 0

    def take(self, n: int) -> list[str]:
        chunk = self.queries[self._cursor:self._cursor + n]
        require(len(chunk) == n, "the run ran out of generated queries")
        self._cursor += n
        return chunk

    def warm_up(self) -> None:
        replies = loadgen.closed_loop(HOST, self.server.port,
                                      map(_path, self.take(WARM_REQUESTS)),
                                      WARM_TIMEOUT_S, _connections())
        require(len(replies) == WARM_REQUESTS, "the warm-up did not finish")

    def close(self) -> None:
        self.server.close()


def _path(query: str) -> str:
    return "/rank?q=" + quote(query)


def _connections() -> int:
    return max(1, os.cpu_count() or 1)


def _word_pairs(words: list[str], n: int, rng) -> list[str]:
    """``n`` distinct unordered pairs of distinct vocabulary words."""
    n_words = len(words)
    require(n_words * (n_words - 1) // 2 >= 2 * n, "vocabulary too small for unique pairs")
    seen: set[tuple[int, int]] = set()
    pairs = []
    while len(pairs) < n:
        a, b = (int(x) for x in rng.integers(0, n_words, size=2))
        key = (min(a, b), max(a, b))
        if a == b or key in seen:
            continue
        seen.add(key)
        pairs.append(f"{words[key[0]]} {words[key[1]]}")
    return pairs


def run(workload: str, seed: int, seconds: float, trace: bool, build: Path) -> Result:
    work = build / "work" / workload
    open_n, closed_n = (round(n * seconds / 10.0) for n in WINDOW_REQUESTS[workload])
    if trace:
        closed_n = 0  # the traced run sends a traced open-loop window instead
    n_requests = WARM_REQUESTS + ROUNDS * ((2 if trace else 1) * open_n + closed_n) + 64

    def setup() -> Deployment:
        deployment = Deployment(workload, seed, work, trace, n_requests)
        try:
            deployment.warm_up()
        except BaseException:
            deployment.close()
            raise
        return deployment

    probes = ProbeLog()
    deployment, setup_s, setup_runs = common.timed_setups(setup, probes)
    result = Result()
    result.details["setup_runs_s"] = setup_runs
    server = deployment.server
    replies: dict[str, list] = {"open": [], "untraced": [], "traced": []}
    closed, goodputs, raw_goodputs = [], [], []
    latencies: list[float] = []  # open-loop, adjusted where ADJUSTED says
    raw_cpu = adjusted_cpu = 0.0

    def open_window(name: str) -> list:
        window = loadgen.open_loop(
            HOST, server.port, map(_path, deployment.take(open_n)), RATE[workload],
            _connections(),
        )
        replies[name].extend(window)
        return window

    # the generator's own full collections would stall its sends and reads:
    # freeze what set-up left behind and collect nothing while measuring
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for _round in range(ROUNDS):
            cpu = server.cpu_seconds()
            if trace:
                open_window("untraced")
                server.signal(signal.SIGUSR1)
                time.sleep(SIGNAL_SETTLE_S)
                open_window("traced")
                server.signal(signal.SIGUSR2)
                time.sleep(SIGNAL_SETTLE_S)
            else:
                opened_now = open_window("open")
                window = loadgen.closed_loop(
                    HOST, server.port, map(_path, deployment.take(closed_n)),
                    WINDOW_TIMEOUT_S, _connections(),
                )
                require(len(window) == closed_n, "a closed-loop window did not finish")
                closed.extend(window)
                elapsed = max(r.done for r in window) - min(r.sent for r in window)
                raw_goodputs.append(stats.goodput(
                    [(r.status, r.done - r.sent) for r in window], LIMIT_S, elapsed
                ))
            cpu = server.cpu_seconds() - cpu
            probes.boundary()
            factor = probes.factor()
            raw_cpu += cpu
            adjusted_cpu += cpu * factor
            if not trace:
                scale = factor if ADJUSTED[workload] else 1.0
                latencies.extend(v * scale for v in _latencies_ms(opened_now))
                goodputs.append(raw_goodputs[-1] / scale)
        peak_rss = server.peak_rss_mb()
    finally:
        gc.enable()
        gc.unfreeze()
        deployment.close()
    probes.check()

    opened = [reply for name in ("open", "untraced", "traced") for reply in replies[name]]
    everything = opened + closed
    result.attempted = len(everything)
    result.failed = sum(1 for reply in everything if reply.status != 200)
    quality = _check_answers(deployment, everything)
    late_p99 = stats.percentile([r.late * 1e3 for r in opened], 99)
    result.details["probe_ms"] = probes.median_ms()
    result.details["open_loop"] = {
        "rate": RATE[workload], "requests": len(opened), "rounds": ROUNDS,
        "connections": _connections(), "late_p99_ms": late_p99,
    }
    result.details["raw_cpu_ms_per_op"] = raw_cpu * 1e3 / len(everything)

    if trace:
        untraced = _latencies_ms(replies["untraced"])
        require(stats.median(untraced) < math.inf, "most requests failed")
        traced = _latencies_ms(replies["traced"])
        values, result.details["trace_tree"] = _layer_values(
            server.spans_path, len(replies["traced"])
        )
        values.update({
            "loadgen.late_p99_ms": late_p99,
            "loadgen.sent": float(len(opened)),
            "host.probe_ms": probes.median_ms(),
            "host.raw_op_p50_ms": stats.median(untraced),
            "trace.overhead_pct": 100.0 * (stats.median(traced) / stats.median(untraced) - 1.0),
        })
        layers.fill(result, values)
        return result

    require(stats.median(latencies) < math.inf, "most requests failed")
    result.details["raw_op_p50_ms"] = stats.median(_latencies_ms(replies["open"]))
    result.details["closed_loop"] = {
        "requests": len(closed), "raw_goodput_per_window": raw_goodputs,
    }
    result.add("setup_s", setup_s, "s")
    result.add("op_p50_ms", stats.median(latencies), "ms")
    result.add_tail(latencies)
    result.add("throughput_per_s", stats.median(goodputs), "1/s")
    result.add("cpu_ms_per_op", adjusted_cpu * 1e3 / len(everything), "ms")
    result.add("quality", quality, "ratio")
    result.add("diffusion_auc", deployment.auc, "auc")
    result.add("success_ratio", 1.0 - result.failed / result.attempted, "ratio")
    result.add("peak_rss_mb", peak_rss, "MB")
    return result


def _latencies_ms(replies) -> list[float]:
    """Latency from due time; a failed request never meets any limit."""
    return [r.latency * 1e3 if r.status == 200 else math.inf for r in replies]


def _check_answers(deployment: Deployment, replies) -> float:
    """Gate every 200 answer; returns the workload's quality share."""
    answered = [r for r in replies if r.status == 200]
    require(answered, "no request was answered")
    if deployment.workload == "serve_hot":
        expected: dict[str, list] = {}
        for reply in answered:
            body = json.loads(reply.body)
            query = body["query"]
            if query not in expected:
                expected[query] = deployment.reference.rank(query)
            got = body["ranking"]
            want = expected[query]
            require(
                [c for c, _s in got] == [c for c, _s in want]
                and np.allclose([s for _c, s in got], [s for _c, s in want], rtol=1e-9, atol=0),
                f"/rank?q={query} differs from the in-process ProfileStore.rank",
            )
        return 1.0
    agree = 0
    for reply in answered:
        body = json.loads(reply.body)
        require(
            reply.headers.get("x-repro-exact") == "1"
            and float(reply.headers.get("x-repro-coverage", "nan")) == 1.0
            and body["coverage"]["exact"],
            f"/rank?q={body['query']} was not an exact full-coverage answer",
        )
        mono_top = int(deployment.mono_map[deployment.reference.top_k(body["query"], 1)[0]])
        agree += int(mono_top in [c for c, _s in body["ranking"][:AGREE_TOP]])
    return agree / len(answered)


def _layer_values(spans_path: Path, n_requests: int) -> tuple[dict, dict]:
    """Per-request layer self times from the server's spans.

    A request runs from ``parse_request`` to ``render_response`` on its
    connection task; its batcher call waits for one batch run, which owns
    the executor-side backend call and everything under it. A batch shared
    by ``k`` requests counts ``1/k`` towards each of them.
    """
    payload = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = [Span.from_dict(item) for item in payload["spans"]]
    by_trace: dict[int, dict[str, Span]] = {}
    for span in spans:
        if span.trace is not None and span.name in (
            "gateway.parse", "gateway.admission_wait", "gateway.batcher", "gateway.render"
        ):
            by_trace.setdefault(span.trace, {})[span.name] = span
    batches = [s for s in spans if s.name == "gateway.batch"]
    backends = [s for s in spans if s.name == "gateway.backend"]
    index = children_index(s for s in spans if s.parent is not None)
    extra: dict[int, list[Span]] = {}
    for backend in backends:
        owner = min(
            (b for b in batches if b.start <= backend.start and backend.end <= b.end),
            key=lambda b: b.duration, default=None,
        )
        if owner is not None:
            extra.setdefault(owner.span_id, []).append(backend)

    requests, sharers = [], {}
    for trace_id, parts in by_trace.items():
        if not {"gateway.parse", "gateway.batcher", "gateway.render"} <= parts.keys():
            continue  # /ready and other unadmitted routes
        waiter = parts["gateway.batcher"]
        batch = min(
            (b for b in batches
             if waiter.attrs["query"] in b.attrs["queries"]
             and waiter.start <= b.start and b.end <= waiter.end),
            key=lambda b: b.duration, default=None,
        )
        root = Span(-trace_id, "gateway.request", parts["gateway.parse"].start,
                    parts["gateway.render"].end)
        extra[root.span_id] = list(parts.values())
        if batch is not None:
            extra[waiter.span_id] = [batch]
            sharers[batch.span_id] = sharers.get(batch.span_id, 0) + 1
        requests.append(root)
    require(requests, "the traced phase recorded no requests")

    children_of = lambda span: extra.get(span.span_id, index.get(span.span_id, []))
    totals: dict[str, float] = {}
    gaps = []
    for root in requests:
        gaps.append(accounting_gap(root, children_of))
        for span, value in _weighted(root, children_of, sharers):
            totals[span] = totals.get(span, 0.0) + value
    n_ops = len(requests)
    per_op = lambda name: totals.get(name, 0.0) * 1e3 / n_ops
    named = lambda name: [s for s in spans if s.name == name]
    marks = payload["cache_marks"]
    require(len(marks) >= 2, "the server recorded no cache counters for the traced phase")
    hits = marks[-1]["hits"] - marks[0]["hits"]
    misses = marks[-1]["misses"] - marks[0]["misses"]
    gathers = named("shard.gather")
    linked = [b for b in batches if b.span_id in sharers]
    return {
        "gateway.parse_ms": per_op("gateway.parse"),
        "gateway.admission_wait_ms": per_op("gateway.admission_wait"),
        "gateway.batch_wait_ms": per_op("gateway.batcher"),
        "gateway.batch_size": (
            sum(len(b.attrs["queries"]) for b in linked) / len(linked) if linked else 0.0
        ),
        "gateway.backend_ms": per_op("gateway.backend"),
        "gateway.render_ms": per_op("gateway.render"),
        "gateway.other_ms": per_op("gateway.request") + per_op("gateway.batch"),
        "serving.rank_ms": per_op("serving.rank"),
        "serving.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "shard.gather_ms": per_op("shard.gather"),
        "shard.call_ms": per_op("shard.call"),
        "shard.calls_per_gather": len(named("shard.call")) / len(gathers) if gathers else 0.0,
    }, {"requests": n_ops, "sent": n_requests, "max_accounting_gap": max(gaps)}


def _weighted(root: Span, children_of, sharers: dict) -> list[tuple[str, float]]:
    """Self times by layer name, a shared batch's subtree weighted ``1/k``."""
    out = []
    pending = [(root, 1.0)]
    while pending:
        span, weight = pending.pop()
        if span.name == "gateway.batch":
            weight = 1.0 / sharers.get(span.span_id, 1)
        children = children_of(span)
        out.append((span.name, weight * self_time(span, children)))
        pending.extend((child, weight) for child in children)
    return out
