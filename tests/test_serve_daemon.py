"""The counting daemon's three-tier serve path.

Async scenarios run under ``asyncio.run`` inside plain sync tests (the
suite has no asyncio plugin); each scenario builds its own daemon,
drives :meth:`CountingDaemon.handle` directly, and drains before
returning.
"""

import asyncio
import json
import threading

import pytest

from repro.automaton.cache import clear_automaton_cache
from repro.core import stats
from repro.serve.daemon import (
    ARTIFACT_CAP,
    CountingDaemon,
    OVERLOADED,
    RATE_LIMITED,
    ServeConfig,
)
from repro.service.batch import VOLATILE_RESPONSE_KEYS, run_batch
from repro.service.request import JobRequest

COUNT_IJ = {
    "id": "pairs",
    "kind": "count",
    "formula": "1 <= i and i < j and j <= n",
    "over": ["i", "j"],
    "at": [{"n": 10}],
}

#: Alpha-renamed spellings of COUNT_IJ: identical canonical hash.
VARIANTS = [
    dict(
        COUNT_IJ,
        id="v%d" % k,
        formula="1 <= %s and %s < %s and %s <= n" % (a, a, b, b),
        over=[a, b],
    )
    for k, (a, b) in enumerate(
        [("i", "j"), ("p", "q"), ("x", "y"), ("aa", "bb"), ("u", "w")]
    )
]

#: One member job under two spellings: the same canonical content hash.
MEMBER_X = {
    "id": "a",
    "kind": "member",
    "formula": "0 <= x and x <= 5",
    "over": ["x"],
    "at": [{"x": 3}],
}
MEMBER_Y = dict(MEMBER_X, id="b", formula="0 <= y and y <= 5", over=["y"],
                at=[{"y": 3}])


def stable(response):
    return {
        k: v
        for k, v in response.items()
        if k not in VOLATILE_RESPONSE_KEYS
    }


def make_config(tmp_path, **kw):
    kw.setdefault("cache_path", str(tmp_path / "serve-cache.sqlite"))
    kw.setdefault("workers", 2)
    kw.setdefault("drain_timeout", 30.0)
    return ServeConfig(**kw)


def run_scenario(coro_fn, tmp_path, **config_kw):
    """Build + start a daemon, run the scenario, always drain."""

    async def wrapper():
        daemon = CountingDaemon(make_config(tmp_path, **config_kw))
        daemon.start()
        try:
            return await coro_fn(daemon)
        finally:
            await daemon.drain()

    return asyncio.run(wrapper())


class FakeCold:
    """A monkeypatchable cold runner: blocks until released, counts calls."""

    def __init__(self, payload=None):
        self.calls = 0
        self.budgets = []
        self.release = threading.Event()
        self.release.set()  # non-blocking unless a test clears it
        self.payload = payload or {
            "kind": "count",
            "result": "fake",
            "exactness": "exact",
            "points": [],
            "stats": {},
        }

    def __call__(self, req, budget):
        self.calls += 1
        self.budgets.append(budget)
        assert self.release.wait(30), "cold job never released"
        return {
            "ok": True,
            "payload": dict(self.payload),
            "wall_ms": 1.0,
            "attempts": 1,
        }


class TestTiers:
    def test_cold_then_warm(self, tmp_path):
        async def scenario(daemon):
            first = await daemon.handle(COUNT_IJ)
            second = await daemon.handle(COUNT_IJ)
            return first, second, daemon.metrics.snapshot()

        first, second, snap = run_scenario(scenario, tmp_path)
        assert first["ok"] and first["tier"] == "cold"
        assert first["points"] == [{"at": {"n": 10}, "value": 45}]
        assert second["ok"] and second["tier"] == "warm"
        assert second["cached"] is True
        assert stable(first) == stable(second)
        assert snap["counters"]["cold_jobs"] == 1
        assert snap["counters"]["warm_hits"] == 1
        assert snap["hit_rates"]["warm"] == 0.5

    def test_alpha_variant_hits_warm_across_names(self, tmp_path):
        async def scenario(daemon):
            first = await daemon.handle(VARIANTS[0])
            renamed = await daemon.handle(VARIANTS[1])
            return first, renamed, daemon.metrics.snapshot()

        first, renamed, snap = run_scenario(scenario, tmp_path)
        assert renamed["tier"] == "warm"
        assert snap["counters"]["cold_jobs"] == 1
        # Same answer; only the client-chosen id differs.
        a, b = stable(first), stable(renamed)
        a.pop("id"), b.pop("id")
        assert a == b

    @pytest.mark.parametrize(
        "requests",
        [
            [COUNT_IJ],
            [MEMBER_X, MEMBER_Y],
            [{"id": "typo", "kind": "count", "formula": "1 <= i <= ===",
              "over": ["i"]}],
            [{"id": "poly", "kind": "sum", "formula": "1 <= i <= n",
              "over": ["i"], "poly": "i*+"}],
            [{"id": "fields", "kind": "count"}],
        ],
        ids=["count", "member-variants", "parse-error", "bad-poly",
             "missing-field"],
    )
    def test_matches_batch_byte_for_byte_modulo_volatile(
        self, tmp_path, requests
    ):
        async def scenario(daemon):
            return [await daemon.handle(obj) for obj in requests]

        served = run_scenario(scenario, tmp_path)
        batched, _ = run_batch(requests)
        assert [json.dumps(stable(r), sort_keys=True) for r in served] == [
            json.dumps(stable(r), sort_keys=True) for r in batched
        ]

    def test_no_cache_daemon_still_answers(self, tmp_path):
        async def scenario(daemon):
            return (
                await daemon.handle(COUNT_IJ),
                await daemon.handle(COUNT_IJ),
            )

        first, second = run_scenario(scenario, tmp_path, cache_path=None)
        assert first["ok"] and second["ok"]
        assert first["tier"] == second["tier"] == "cold"

    def test_job_error_is_structured_not_cached(self, tmp_path):
        bad = {"id": "typo", "kind": "count", "formula": "1 <= i <= ===",
               "over": ["i"]}

        async def scenario(daemon):
            return (
                await daemon.handle(bad),
                await daemon.handle(bad),
                daemon.metrics.snapshot(),
            )

        first, second, snap = run_scenario(scenario, tmp_path)
        assert first["ok"] is False
        assert first["error"]["kind"] == "parse_error"
        assert first["tier"] == "front"
        # Failures never enter the results store.
        assert second["tier"] == "front"
        assert snap["counters"]["front_errors"] == 2
        assert snap["counters"]["cold_jobs"] == 0


class TestOwnSpelling:
    """A shared answer echoes each client's own variable names in points."""

    def test_warm_answer(self, tmp_path):
        async def scenario(daemon):
            return await daemon.handle(MEMBER_X), await daemon.handle(MEMBER_Y)

        first, second = run_scenario(scenario, tmp_path)
        assert second["tier"] == "warm"
        assert first["points"] == [{"at": {"x": 3}, "value": True}]
        assert second["points"] == [{"at": {"y": 3}, "value": True}]

    def test_coalesced_answer(self, tmp_path):
        # A resident automaton would answer both on the warm tier.
        clear_automaton_cache()
        release = threading.Event()

        async def scenario(daemon):
            run_cold = daemon._run_cold

            def gated(req, budget):
                assert release.wait(30), "cold job never released"
                return run_cold(req, budget)

            daemon._run_cold = gated
            tasks = [
                asyncio.ensure_future(daemon.handle(obj))
                for obj in (MEMBER_X, MEMBER_Y)
            ]
            for _ in range(500):
                entries = list(daemon._inflight.values())
                if entries and entries[0].waiters == 2:
                    break
                await asyncio.sleep(0.01)
            else:
                pytest.fail("clients never coalesced")
            release.set()
            return await asyncio.gather(*tasks)

        first, second = run_scenario(scenario, tmp_path)
        assert sorted([first["tier"], second["tier"]]) == ["coalesced", "cold"]
        assert first["points"] == [{"at": {"x": 3}, "value": True}]
        assert second["points"] == [{"at": {"y": 3}, "value": True}]


class TestFrontDoor:
    def test_non_object_request(self, tmp_path):
        async def scenario(daemon):
            return await daemon.handle([1, 2, 3])

        response = run_scenario(scenario, tmp_path)
        assert response["ok"] is False
        assert response["error"]["kind"] == "bad_request"
        assert response["tier"] == "front"

    def test_missing_fields(self, tmp_path):
        async def scenario(daemon):
            return await daemon.handle({"id": "x", "kind": "count"})

        response = run_scenario(scenario, tmp_path)
        assert response["ok"] is False
        assert response["error"]["kind"] == "bad_request"


class TestCoalescing:
    def test_variants_coalesce_to_one_computation(self, tmp_path):
        """The tentpole invariant: K concurrent alpha-renamed variants
        of one request trigger exactly one executor job, and every
        client gets the identical answer under its own request id."""
        K = len(VARIANTS)
        fake = FakeCold()
        fake.release.clear()

        async def scenario(daemon):
            daemon._run_cold = fake
            tasks = [
                asyncio.ensure_future(daemon.handle(v)) for v in VARIANTS
            ]
            # Wait for one shared in-flight entry with every client on it.
            for _ in range(500):
                entries = list(daemon._inflight.values())
                if entries and entries[0].waiters == K:
                    break
                await asyncio.sleep(0.01)
            else:
                pytest.fail("clients never coalesced")
            assert len(daemon._inflight) == 1
            fake.release.set()
            responses = await asyncio.gather(*tasks)
            return responses, daemon.metrics.snapshot()

        responses, snap = run_scenario(scenario, tmp_path)
        assert fake.calls == 1
        assert snap["counters"]["cold_jobs"] == 1
        assert snap["counters"]["coalesced"] == K - 1
        assert sorted(r["id"] for r in responses) == sorted(
            v["id"] for v in VARIANTS
        )
        tiers = sorted(r["tier"] for r in responses)
        assert tiers.count("cold") == 1
        assert tiers.count("coalesced") == K - 1
        bodies = set()
        for r in responses:
            body = stable(r)
            body.pop("id")
            bodies.add(json.dumps(body, sort_keys=True))
        assert len(bodies) == 1  # byte-identical modulo the request id

    def test_cancelled_waiter_does_not_kill_the_computation(self, tmp_path):
        fake = FakeCold()
        fake.release.clear()

        async def scenario(daemon):
            daemon._run_cold = fake
            tasks = [
                asyncio.ensure_future(daemon.handle(v)) for v in VARIANTS[:3]
            ]
            for _ in range(500):
                entries = list(daemon._inflight.values())
                if entries and entries[0].waiters == 3:
                    break
                await asyncio.sleep(0.01)
            else:
                pytest.fail("clients never coalesced")
            # One client hangs up mid-flight.
            tasks[1].cancel()
            await asyncio.sleep(0.05)
            fake.release.set()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            return results, daemon.metrics.snapshot()

        results, snap = run_scenario(scenario, tmp_path)
        assert fake.calls == 1  # the shared computation ran exactly once
        assert isinstance(results[1], asyncio.CancelledError)
        # The surviving clients still got their answers.
        assert results[0]["ok"] and results[2]["ok"]
        assert snap["counters"]["cancelled_waiters"] == 1

    def test_late_duplicate_finds_warm_not_second_cold(self, tmp_path):
        async def scenario(daemon):
            first = await daemon.handle(COUNT_IJ)
            late = await daemon.handle(dict(COUNT_IJ, id="late"))
            return first, late, daemon.metrics.snapshot()

        _first, late, snap = run_scenario(scenario, tmp_path)
        assert late["tier"] == "warm"
        assert snap["counters"]["cold_jobs"] == 1


class TestAdmission:
    def test_queue_full_sheds_with_structured_error(self, tmp_path):
        fake = FakeCold()
        fake.release.clear()
        other = dict(COUNT_IJ, id="other", formula="1 <= i <= n", over=["i"])

        async def scenario(daemon):
            daemon._run_cold = fake
            blocked = asyncio.ensure_future(daemon.handle(COUNT_IJ))
            for _ in range(500):
                if daemon._inflight:
                    break
                await asyncio.sleep(0.01)
            shed = await daemon.handle(other)
            fake.release.set()
            first = await blocked
            return first, shed, daemon.metrics.snapshot()

        first, shed, snap = run_scenario(
            scenario, tmp_path, queue_limit=1
        )
        assert first["ok"] is True
        assert shed["ok"] is False
        assert shed["error"]["kind"] == OVERLOADED
        assert shed["tier"] == "shed"
        assert snap["counters"]["shed"] == 1
        assert snap["counters"]["cold_jobs"] == 1

    def test_tenant_rate_limit(self, tmp_path):
        fake = FakeCold()
        jobs = [
            dict(COUNT_IJ, id="r%d" % k, formula="1 <= i <= n + %d" % k,
                 over=["i"])
            for k in range(3)
        ]

        async def scenario(daemon):
            daemon._run_cold = fake
            results = [await daemon.handle(j, tenant="greedy") for j in jobs]
            other = await daemon.handle(
                dict(jobs[2], id="polite"), tenant="polite"
            )
            return results, other, daemon.metrics.snapshot()

        results, other, snap = run_scenario(
            scenario, tmp_path, rate=0.001, burst=2
        )
        assert [r["ok"] for r in results] == [True, True, False]
        assert results[2]["error"]["kind"] == RATE_LIMITED
        assert results[2]["tier"] == "shed"
        # Another tenant has its own bucket and is admitted.  (Its job
        # shares a content hash with greedy's third request only if
        # that one computed -- it did not, so this dispatches cold.)
        assert other["ok"] is True
        assert snap["counters"]["rate_limited"] == 1

    def test_tenant_budget_clamps_cold_jobs(self, tmp_path):
        fake = FakeCold()
        modest = dict(COUNT_IJ, id="modest", budget=3)
        greedy = dict(
            COUNT_IJ, id="greedy", formula="1 <= i <= n", over=["i"],
            budget=10**9,
        )

        async def scenario(daemon):
            daemon._run_cold = fake
            await daemon.handle(modest)
            await daemon.handle(greedy)

        run_scenario(scenario, tmp_path, tenant_budget=1000)
        assert fake.budgets == [3, 1000]

    def test_draining_daemon_sheds_new_work(self, tmp_path):
        async def scenario(daemon):
            daemon._draining = True
            return await daemon.handle(COUNT_IJ)

        response = run_scenario(scenario, tmp_path)
        assert response["ok"] is False
        assert response["error"]["kind"] == OVERLOADED


class TestEvaluateArtifacts:
    def test_new_points_served_without_second_cold_job(self, tmp_path):
        eval1 = {
            "id": "e1",
            "kind": "evaluate",
            "formula": "1 <= i and i < j and j <= n",
            "over": ["i", "j"],
            "at": [{"n": 10}],
        }
        eval2 = dict(eval1, id="e2", at=[{"n": 20}, {"n": 7}])

        async def scenario(daemon):
            first = await daemon.handle(eval1)
            second = await daemon.handle(eval2)
            third = await daemon.handle(eval2)  # exact repeat -> plain warm
            return first, second, third, daemon.metrics.snapshot()

        first, second, third, snap = run_scenario(scenario, tmp_path)
        assert first["tier"] == "cold"
        assert second["tier"] == "warm"
        assert second["points"] == [
            {"at": {"n": 20}, "value": 190},
            {"at": {"n": 7}, "value": 21},
        ]
        assert third["tier"] == "warm" and third["cached"] is True
        assert snap["counters"]["cold_jobs"] == 1
        assert snap["counters"]["artifact_hits"] == 1
        assert snap["counters"]["warm_hits"] == 1

    def test_artifact_map_is_bounded(self, tmp_path, monkeypatch):
        import repro.serve.daemon as daemon_mod

        monkeypatch.setattr(daemon_mod, "ARTIFACT_CAP", 8)

        async def scenario(daemon):
            for k in range(20):
                daemon._remember_artifact(
                    JobRequest(
                        "evaluate",
                        "1 <= i <= n + %d" % k,  # distinct formula hashes
                        over=["i"],
                        id=k,
                        at=[{"n": 1}],
                    ),
                    {
                        "result": "r%d" % k,
                        "result_json": {"k": k},
                        "exactness": "exact",
                    },
                )
            return len(daemon._artifacts)

        assert run_scenario(scenario, tmp_path) <= 8


class TestLifecycle:
    def test_drain_restores_stats_provider_and_closes_cache(self, tmp_path):
        async def scenario(daemon):
            await daemon.handle(COUNT_IJ)
            assert "serve" in stats.engine_snapshot()

        run_scenario(scenario, tmp_path)
        assert "serve" not in stats.engine_snapshot()

    def test_drain_waits_for_inflight_then_caches(self, tmp_path):
        fake = FakeCold()
        fake.release.clear()

        async def wrapper():
            daemon = CountingDaemon(make_config(tmp_path))
            daemon.start()
            daemon._run_cold = fake
            try:
                task = asyncio.ensure_future(daemon.handle(COUNT_IJ))
                for _ in range(500):
                    if daemon._inflight:
                        break
                    await asyncio.sleep(0.01)
                # Release just before drain: drain must wait the job out.
                fake.release.set()
                return await task
            finally:
                await daemon.drain()

        response = asyncio.run(wrapper())
        assert response["ok"] is True

    def test_start_is_idempotent(self, tmp_path):
        async def scenario(daemon):
            daemon.start()
            daemon.start()
            return await daemon.handle(COUNT_IJ)

        assert run_scenario(scenario, tmp_path)["ok"] is True
