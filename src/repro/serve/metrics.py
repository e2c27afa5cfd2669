"""Serving-layer observability: latency histograms and tier counters.

The daemon answers every request through one of three tiers -- warm
(persistent answer/artifact stores, zero engine work), coalesced
(joined an identical in-flight computation), cold (a fresh executor
job) -- plus the admission-control outcomes (shed, rate-limited) and
front-door failures.  This module keeps the numbers that make that
behaviour observable without a profiler:

* a **latency histogram per tier** with fixed geometric bucket bounds,
  cheap to update (one ``bisect`` per observation) and good enough for
  p50/p99 tail reads at serving volumes;
* **monotonic counters** for every request disposition (warm hits,
  coalesced waiters, cold dispatches, sheds, rate limits, cancelled
  waiters, errors);
* a **queue-depth probe** (a callable the daemon installs) so
  snapshots report instantaneous backlog next to the cumulative
  counters.

:meth:`ServeMetrics.snapshot` is the single JSON-safe view, used by
the ``/stats`` endpoint, the load generator's summary, and -- via
:func:`repro.core.stats.set_serve_stats_provider` -- by
``engine_snapshot()``'s ``"serve"`` key.

Everything here must be safe to update from the event-loop thread
while snapshots are taken; plain int increments and list-cell updates
are atomic enough under the GIL for monitoring-grade accuracy.
"""

import time
from bisect import bisect_left
from typing import Callable, Dict, Optional

#: Histogram bucket upper bounds in milliseconds (the last bucket is
#: open-ended).  Geometric spacing keeps relative error roughly
#: constant from sub-millisecond warm hits to minute-long cold jobs.
BUCKET_BOUNDS_MS = (
    0.05, 0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
    100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0, 10000.0, 30000.0, 60000.0,
)

#: The response tiers a request can be answered through.
TIERS = ("warm", "coalesced", "cold")

#: Counter names in the snapshot (always all present, zero when never
#: hit, so downstream tooling can rely on the schema).
COUNTER_NAMES = (
    "requests",  # every request entering the daemon
    "warm_hits",  # answered from the persistent results store
    "artifact_hits",  # evaluate jobs served from a compiled artifact
    "automaton_hits",  # member/count_below served by a resident automaton
    "coalesced",  # waiters that joined an in-flight computation
    "cold_jobs",  # executor jobs actually dispatched
    "shed",  # refused: cold queue full or daemon draining
    "rate_limited",  # refused: tenant token bucket empty
    "front_errors",  # bad request / parse failures before any tier
    "job_errors",  # cold jobs that settled with a structured error
    "cancelled_waiters",  # client tasks cancelled while awaiting a job
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with quantile estimates.

    Quantiles are read as the upper bound of the bucket where the
    cumulative count crosses the rank (the open last bucket reports
    the exact observed maximum), so estimates are conservative: a
    reported p99 is never below the true p99's bucket.
    """

    __slots__ = ("counts", "count", "total_ms", "max_ms", "min_ms")

    def __init__(self):
        self.counts = [0] * (len(BUCKET_BOUNDS_MS) + 1)
        self.count = 0
        self.total_ms = 0.0
        self.max_ms = 0.0
        self.min_ms: Optional[float] = None

    def observe(self, ms: float) -> None:
        self.counts[bisect_left(BUCKET_BOUNDS_MS, ms)] += 1
        self.count += 1
        self.total_ms += ms
        if ms > self.max_ms:
            self.max_ms = ms
        if self.min_ms is None or ms < self.min_ms:
            self.min_ms = ms

    def quantile_ms(self, q: float) -> float:
        """Upper bucket bound at quantile ``q`` in [0, 1] (0.0 if empty)."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                if i == len(BUCKET_BOUNDS_MS):
                    break
                return BUCKET_BOUNDS_MS[i]
        return round(self.max_ms, 3)

    def snapshot(self) -> Dict[str, float]:
        """The JSON-safe view, with the raw bucket counts and total."""
        mean = self.total_ms / self.count if self.count else 0.0
        return {
            "count": self.count,
            "p50_ms": self.quantile_ms(0.50),
            "p99_ms": self.quantile_ms(0.99),
            "mean_ms": round(mean, 3),
            "max_ms": round(self.max_ms, 3),
            "buckets": list(self.counts),
            "total_ms": self.total_ms,
        }


class ServeMetrics:
    """All serving counters, per-tier histograms and the queue probe."""

    def __init__(self):
        self.started_monotonic = time.monotonic()
        self.counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}
        self.tiers: Dict[str, LatencyHistogram] = {
            tier: LatencyHistogram() for tier in TIERS
        }
        #: Installed by the daemon: () -> current cold-queue depth.
        self.queue_probe: Optional[Callable[[], int]] = None

    def bump(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, tier: str, ms: float) -> None:
        self.tiers[tier].observe(ms)

    def uptime_seconds(self) -> float:
        return round(time.monotonic() - self.started_monotonic, 3)

    def queue_depth(self) -> int:
        probe = self.queue_probe
        if probe is None:
            return 0
        try:
            return int(probe())
        except Exception:  # pragma: no cover - defensive
            return 0

    def hit_rates(self) -> Dict[str, float]:
        """Fractions of *answered* requests per source.

        ``warm`` folds in artifact hits and resident-automaton hits
        (all three answer without dispatching an executor job);
        ``coalesced``/``cold`` complete the partition.  Shed,
        rate-limited and front-error requests were never answered, so
        they are not in the denominator.
        """
        c = self.counters
        warm = c["warm_hits"] + c["artifact_hits"] + c["automaton_hits"]
        answered = warm + c["coalesced"] + c["cold_jobs"]
        if answered == 0:
            return {"warm": 0.0, "coalesced": 0.0, "cold": 0.0}
        return {
            "warm": round(warm / answered, 6),
            "coalesced": round(c["coalesced"] / answered, 6),
            "cold": round(c["cold_jobs"] / answered, 6),
        }

    def snapshot(self) -> dict:
        """The JSON-safe serving view (``/stats``, loadgen, snapshots)."""
        return {
            "uptime_seconds": self.uptime_seconds(),
            "queue_depth": self.queue_depth(),
            "counters": dict(self.counters),
            "hit_rates": self.hit_rates(),
            "tiers": {
                tier: hist.snapshot() for tier, hist in self.tiers.items()
            },
        }


__all__ = [
    "BUCKET_BOUNDS_MS",
    "COUNTER_NAMES",
    "LatencyHistogram",
    "ServeMetrics",
    "TIERS",
]
