"""Degraded scatter-gather: breakers, retries, stale fallback, best-effort.

The ISSUE 6 acceptance bar lives here: a router over 4 shards with one
shard persistently failing must keep serving best-effort (coverage
reported, no exception) and return to exact service once the failed
shard is hot-swapped.
"""

import pytest

from repro.resilience import FaultPlan, inject
from repro.resilience.faults import FaultSpec
from repro.serving import ProfileStore
from repro.shard import DegradedError, ShardRouter, fit_shards
from repro.shard.health import CLOSED, OPEN


@pytest.fixture(scope="module")
def four_shard(separated_tiny, parity_config):
    """A 4-shard hash-partitioned fit: the degraded-serving substrate."""
    graph, _truth = separated_tiny
    return fit_shards(graph, parity_config, 4, strategy="hash", rng=9)


def _router(fit, **options):
    return ShardRouter(
        [
            ProfileStore.from_fit(result, part.graph)
            for result, part in zip(fit.results, fit.plan.shards)
        ],
        [part.users for part in fit.plan.shards],
        fit.alignment,
        **options,
    )


def _always_fail(shard_id):
    plan = FaultPlan(seed=0)
    plan.arm(
        FaultSpec(
            point="shard.query", at=1, times=10_000, match={"shard": shard_id}
        )
    )
    return plan


@pytest.fixture(scope="module")
def healthy(four_shard):
    """A fault-free comparison router (module-scoped, read-only)."""
    return _router(four_shard)


class TestBestEffortOneOfFour:
    def test_serves_with_coverage_then_heals_on_hot_swap(
        self, four_shard, healthy
    ):
        router = _router(
            four_shard,
            best_effort=True,
            retries=0,
            backoff=0.0,
            breaker_threshold=1,
        )
        term = router.indexed_terms()[0]
        with inject(_always_fail(2)):
            envelope = router.gather(term)
            assert not envelope.exact
            assert sorted(envelope.answered) == [0, 1, 3]
            assert envelope.failed == [2]
            assert envelope.coverage == pytest.approx(0.75)
            assert "InjectedFault" in envelope.errors[2]
            assert envelope.ranking  # a partial merge, not an exception
            # rank() keeps serving too: the router was built best-effort
            assert router.rank(term) == envelope.ranking

        # the fault is gone but the breaker remembers: still degraded
        assert router.breakers[2].state == OPEN
        tripped = router.gather(term)
        assert not tripped.exact
        assert "circuit breaker open" in tripped.errors[2]

        # hot-swapping the shard revives it: exact service resumes
        router.hot_swap_shard(2, four_shard.results[2])
        assert router.breakers[2].state == CLOSED
        healed = router.gather(term)
        assert healed.exact and healed.coverage == 1.0
        assert healed.ranking == healthy.rank(term)

    def test_degraded_answers_never_enter_the_router_cache(self, four_shard):
        router = _router(
            four_shard, best_effort=True, retries=0, breaker_threshold=1
        )
        term = router.indexed_terms()[0]
        with inject(_always_fail(0)):
            router.rank(term)
        assert router.cache_info()["router"]["size"] == 0

    def test_partial_merge_misses_only_the_failed_shards_labels(
        self, four_shard, healthy
    ):
        router = _router(
            four_shard, best_effort=True, retries=0, breaker_threshold=1
        )
        term = router.indexed_terms()[0]
        with inject(_always_fail(3)):
            partial = {c for c, _s in router.gather(term).ranking}
        full = {c for c, _s in healthy.rank(term)}
        assert partial <= full
        lost = {
            int(g)
            for g in four_shard.alignment.local_to_global[3]
        }
        assert full - partial <= lost


class TestStrictMode:
    def test_default_rank_raises_degraded_error(self, four_shard):
        router = _router(four_shard, retries=0, breaker_threshold=1)
        term = router.indexed_terms()[0]
        with inject(_always_fail(1)):
            with pytest.raises(DegradedError, match="shard 1") as excinfo:
                router.rank(term)
        assert set(excinfo.value.failed) == {1}
        assert "best_effort" in str(excinfo.value)

    def test_unknown_term_is_a_caller_error_even_best_effort(self, four_shard):
        router = _router(four_shard, best_effort=True)
        with pytest.raises(KeyError):
            router.rank("zzzz-not-a-word")

    def test_gather_still_works_for_strict_routers(self, four_shard):
        router = _router(four_shard, retries=0, breaker_threshold=1)
        term = router.indexed_terms()[0]
        with inject(_always_fail(1)):
            envelope = router.gather(term)
        assert not envelope.exact and envelope.ranking


class TestRetriesAndDeadline:
    def test_transient_fault_is_absorbed_by_the_retry(self, four_shard):
        plan = FaultPlan(seed=0)
        plan.fail_at("shard.query", at=1, shard=0)  # first consult only
        router = _router(four_shard, retries=1, backoff=0.0)
        term = router.indexed_terms()[0]
        with inject(plan):
            envelope = router.gather(term)
        assert envelope.exact
        assert envelope.errors == {}
        assert router.breakers[0].state == CLOSED

    def test_deadline_overrun_counts_as_a_failure(self, four_shard):
        plan = FaultPlan(seed=0)
        plan.timeout_at("shard.query", delay=0.02, shard=1)
        router = _router(
            four_shard, best_effort=True, retries=0, deadline=0.001,
            breaker_threshold=1,
        )
        term = router.indexed_terms()[0]
        with inject(plan):
            envelope = router.gather(term)
        assert envelope.failed == [1]
        assert "TimeoutError" in envelope.errors[1]

    def test_timeout_fault_trips_the_deadline_under_a_fake_clock(
        self, four_shard
    ):
        """The injected stall is charged via the router's own clock, so a
        frozen fake clock still sees the deadline overrun (and the test
        does not burn real wall-clock time)."""
        plan = FaultPlan(seed=0)
        plan.timeout_at("shard.query", delay=5.0, shard=1)
        router = _router(
            four_shard, best_effort=True, retries=0, deadline=1.0,
            breaker_threshold=1, clock=lambda: 0.0,
        )
        term = router.indexed_terms()[0]
        with inject(plan):
            envelope = router.gather(term)
        assert envelope.failed == [1]
        assert "TimeoutError" in envelope.errors[1]

    def test_retries_validated(self, four_shard):
        with pytest.raises(ValueError, match="retries"):
            _router(four_shard, retries=-1)


class TestStaleFallback:
    def test_tripped_shard_serves_its_last_known_ranking(
        self, four_shard, healthy
    ):
        router = _router(
            four_shard,
            best_effort=True,
            retries=0,
            breaker_threshold=1,
            query_cache_size=1,
        )
        term_a, term_b = router.indexed_terms()[:2]
        assert router.gather(term_a).exact  # primes the stale cache ...
        assert router.gather(term_b).exact  # ... and evicts A from the LRU
        with inject(_always_fail(1)):
            envelope = router.gather(term_a)
        assert not envelope.exact
        assert envelope.stale == [1]
        assert envelope.coverage == 1.0  # every shard contributed
        # the stale entry is the live answer the shard gave moments ago,
        # so the merged ranking is indistinguishable from the exact one
        assert envelope.ranking == healthy.rank(term_a)
        assert router.stale_served[1] == 1

    def test_hot_swap_drops_the_shards_stale_entries(self, four_shard):
        router = _router(
            four_shard,
            best_effort=True,
            retries=0,
            breaker_threshold=1,
            query_cache_size=1,
        )
        term_a, term_b = router.indexed_terms()[:2]
        router.gather(term_a)
        router.gather(term_b)
        router.hot_swap_shard(1, four_shard.results[1])
        with inject(_always_fail(1)):
            envelope = router.gather(term_a)
        # no stale ranking survives the swap: the shard is simply absent
        assert envelope.failed == [1] and envelope.stale == []

    def test_stale_tables_stay_bounded_under_distinct_queries(self, four_shard):
        size = 2
        router = _router(
            four_shard,
            best_effort=True,
            retries=0,
            breaker_threshold=1,
            query_cache_size=size,
        )
        bound = router._stale[0].max_size
        assert bound >= size
        terms = router.indexed_terms()[: bound + 5]
        assert len(terms) == bound + 5
        for term in terms:
            assert router.gather(term).exact
        for table in router._stale:
            assert len(table) <= bound
        router.invalidate()  # force the next gather back to the shards
        with inject(_always_fail(1)):
            envelope = router.gather(terms[-1])
            evicted = router.gather(terms[0])
        assert envelope.stale == [1]
        assert envelope.coverage == 1.0
        # the oldest query was evicted from shard 1's table
        assert evicted.stale == [] and evicted.failed == [1]


class TestObservabilityWhileTripped:
    def test_cache_info_works_and_reports_health_while_tripped(
        self, four_shard
    ):
        router = _router(
            four_shard, best_effort=True, retries=0, breaker_threshold=1
        )
        term = router.indexed_terms()[0]
        with inject(_always_fail(2)):
            router.gather(term)
            info = router.cache_info()  # must not scatter, must not raise
        health = info["health"]
        assert len(health) == router.n_shards
        assert health[2]["state"] == OPEN
        assert health[2]["trips"] == 1
        assert all(entry["state"] == CLOSED for i, entry in enumerate(health) if i != 2)
        assert all("stale_served" in entry for entry in health)

    def test_hot_swap_while_tripped_revives_but_faults_retrip(self, four_shard):
        """Swapping in a fresh result closes the breaker; if the underlying
        fault persists, the next query trips it again."""
        router = _router(
            four_shard, best_effort=True, retries=0, breaker_threshold=1
        )
        term = router.indexed_terms()[0]
        with inject(_always_fail(2)):
            router.gather(term)
            assert router.breakers[2].state == OPEN
            router.hot_swap_shard(2, four_shard.results[2])
            assert router.breakers[2].state == CLOSED
            router.gather(term)
            assert router.breakers[2].state == OPEN
            assert router.breakers[2].n_trips == 2

    def test_breaker_half_open_probe_recloses_on_success(self, four_shard):
        ticks = [0.0]
        router = _router(
            four_shard,
            best_effort=True,
            retries=0,
            breaker_threshold=1,
            breaker_cooldown=10.0,
            clock=lambda: ticks[0],
        )
        term = router.indexed_terms()[0]
        with inject(_always_fail(3)):
            router.gather(term)
        assert router.breakers[3].state == OPEN
        ticks[0] = 11.0  # past the cooldown: the probe goes through
        envelope = router.gather(term)
        assert envelope.exact
        assert router.breakers[3].state == CLOSED


class TestBreakerTuning:
    """ISSUE 9 satellites: half-open probe count and stale max-age are
    configurable per deployment, threaded through the router kwargs."""

    def test_two_probes_required_before_reclosing(self, four_shard):
        ticks = [0.0]
        router = _router(
            four_shard,
            best_effort=True,
            retries=0,
            breaker_threshold=1,
            breaker_cooldown=10.0,
            breaker_half_open_probes=2,
            clock=lambda: ticks[0],
        )
        # distinct terms per probe: a repeat would hit the merged-rank
        # cache and never scatter, so the breaker would see no probe
        term_a, term_b = router.indexed_terms()[:2]
        with inject(_always_fail(3)):
            router.gather(term_a)
        assert router.breakers[3].state == OPEN
        ticks[0] = 11.0  # past the cooldown: probes go through
        assert router.gather(term_b).exact
        # one good probe is not enough at half_open_probes=2
        assert router.breakers[3].state == "half-open"
        assert router.breakers[3].info()["probe_successes"] == 1
        router.invalidate()
        assert router.gather(term_a).exact
        assert router.breakers[3].state == CLOSED

    def test_failed_probe_resets_the_success_streak(self, four_shard):
        ticks = [0.0]
        router = _router(
            four_shard,
            best_effort=True,
            retries=0,
            breaker_threshold=1,
            breaker_cooldown=10.0,
            breaker_half_open_probes=2,
            clock=lambda: ticks[0],
        )
        term_a, term_b = router.indexed_terms()[:2]
        with inject(_always_fail(3)):
            router.gather(term_a)
        ticks[0] = 11.0
        router.gather(term_b)  # probe 1 succeeds
        assert router.breakers[3].info()["probe_successes"] == 1
        ticks[0] = 12.0
        router.invalidate()
        with inject(_always_fail(3)):
            router.gather(term_a)  # probe 2 fails: back to open, streak reset
        assert router.breakers[3].state == OPEN
        ticks[0] = 23.0
        router.invalidate()
        router.gather(term_b)
        assert router.breakers[3].info()["probe_successes"] == 1  # restarted

    def test_probe_count_validated(self, four_shard):
        with pytest.raises(ValueError, match="half_open_probes"):
            _router(four_shard, breaker_half_open_probes=0)

    def test_kwargs_pass_through_sharded_fit_router(self, four_shard):
        router = four_shard.router(
            best_effort=True,
            breaker_half_open_probes=3,
            stale_max_age=42.0,
        )
        assert router.best_effort is True
        assert router.stale_max_age == 42.0
        assert all(b.half_open_probes == 3 for b in router.breakers)


class TestStaleMaxAge:
    def test_expired_stale_entries_are_dropped_not_served(self, four_shard):
        """A last-known ranking older than stale_max_age is too stale to
        serve: the shard reports as failed, not stale."""
        ticks = [0.0]
        router = _router(
            four_shard,
            best_effort=True,
            retries=0,
            breaker_threshold=1,
            stale_max_age=60.0,
            clock=lambda: ticks[0],
        )
        term = router.indexed_terms()[0]
        assert router.gather(term).exact  # primes the stale cache at t=0
        router.invalidate()  # drop the exact merge, keep the stale entries
        ticks[0] = 61.0  # past the max age
        with inject(_always_fail(1)):
            envelope = router.gather(term)
        assert envelope.stale == []
        assert envelope.failed == [1]

    def test_fresh_stale_entries_still_serve(self, four_shard):
        ticks = [0.0]
        router = _router(
            four_shard,
            best_effort=True,
            retries=0,
            breaker_threshold=1,
            stale_max_age=60.0,
            clock=lambda: ticks[0],
        )
        term = router.indexed_terms()[0]
        assert router.gather(term).exact
        router.invalidate()
        ticks[0] = 59.0  # inside the window
        with inject(_always_fail(1)):
            envelope = router.gather(term)
        assert envelope.stale == [1]
        assert envelope.coverage == 1.0

    def test_stale_max_age_validated(self, four_shard):
        with pytest.raises(ValueError, match="stale_max_age"):
            _router(four_shard, stale_max_age=-1.0)
