"""Serving observability: histograms, counters, the stats provider."""

from repro.core import stats
from repro.serve.metrics import (
    BUCKET_BOUNDS_MS,
    COUNTER_NAMES,
    LatencyHistogram,
    ServeMetrics,
    TIERS,
)


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.quantile_ms(0.5) == 0.0
        snap = hist.snapshot()
        assert snap == {
            "count": 0,
            "p50_ms": 0.0,
            "p99_ms": 0.0,
            "mean_ms": 0.0,
            "max_ms": 0.0,
            "buckets": [0] * (len(BUCKET_BOUNDS_MS) + 1),
            "total_ms": 0.0,
        }

    def test_quantiles_are_bucket_upper_bounds(self):
        hist = LatencyHistogram()
        for _ in range(100):
            hist.observe(3.0)  # falls in the (2, 5] bucket
        assert hist.quantile_ms(0.5) == 5.0
        assert hist.quantile_ms(0.99) == 5.0

    def test_p99_lands_in_the_tail_bucket(self):
        hist = LatencyHistogram()
        for _ in range(98):
            hist.observe(0.8)  # (0.5, 1] bucket
        hist.observe(450.0)  # (200, 500] bucket
        hist.observe(450.0)
        assert hist.quantile_ms(0.5) == 1.0
        assert hist.quantile_ms(0.99) == 500.0

    def test_open_last_bucket_reports_exact_max(self):
        hist = LatencyHistogram()
        beyond = BUCKET_BOUNDS_MS[-1] * 2
        hist.observe(beyond)
        assert hist.quantile_ms(0.99) == beyond
        assert hist.snapshot()["max_ms"] == beyond

    def test_mean_and_max(self):
        hist = LatencyHistogram()
        hist.observe(1.0)
        hist.observe(3.0)
        snap = hist.snapshot()
        assert snap["count"] == 2
        assert snap["mean_ms"] == 2.0
        assert snap["max_ms"] == 3.0


class TestServeMetrics:
    def test_snapshot_schema_is_complete_when_idle(self):
        snap = ServeMetrics().snapshot()
        assert set(snap["counters"]) == set(COUNTER_NAMES)
        assert all(v == 0 for v in snap["counters"].values())
        assert set(snap["tiers"]) == set(TIERS)
        assert snap["queue_depth"] == 0
        assert snap["uptime_seconds"] >= 0.0
        assert snap["hit_rates"] == {
            "warm": 0.0,
            "coalesced": 0.0,
            "cold": 0.0,
        }

    def test_hit_rates_partition_answered_requests(self):
        m = ServeMetrics()
        m.bump("warm_hits", 6)
        m.bump("artifact_hits", 2)
        m.bump("coalesced", 1)
        m.bump("cold_jobs", 1)
        m.bump("shed", 5)  # refused -> not in the denominator
        rates = m.hit_rates()
        assert rates["warm"] == 0.8
        assert rates["coalesced"] == 0.1
        assert rates["cold"] == 0.1
        assert abs(sum(rates.values()) - 1.0) < 1e-9

    def test_queue_probe(self):
        m = ServeMetrics()
        m.queue_probe = lambda: 7
        assert m.queue_depth() == 7
        assert m.snapshot()["queue_depth"] == 7

    def test_observe_feeds_the_right_tier(self):
        m = ServeMetrics()
        m.observe("warm", 0.3)
        m.observe("cold", 120.0)
        snap = m.snapshot()
        assert snap["tiers"]["warm"]["count"] == 1
        assert snap["tiers"]["cold"]["count"] == 1
        assert snap["tiers"]["coalesced"]["count"] == 0


class TestStatsProvider:
    def test_engine_snapshot_gains_serve_key(self):
        m = ServeMetrics()
        m.bump("requests", 3)
        previous = stats.set_serve_stats_provider(m.snapshot)
        try:
            snap = stats.engine_snapshot()
            assert snap["serve"]["counters"]["requests"] == 3
        finally:
            stats.set_serve_stats_provider(previous)
        assert "serve" not in stats.engine_snapshot()

    def test_provider_errors_are_swallowed(self):
        def broken():
            raise RuntimeError("boom")

        previous = stats.set_serve_stats_provider(broken)
        try:
            snap = stats.engine_snapshot()
            assert "serve" not in snap
            assert "sat_calls" in snap  # the rest of the snapshot intact
        finally:
            stats.set_serve_stats_provider(previous)
