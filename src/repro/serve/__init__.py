"""repro.serve: a long-lived, multi-tenant counting daemon.

The batch CLI (``python -m repro batch``) pays full process start-up,
parser, and engine cost on every invocation.  This package keeps one
warm process that answers the same structured requests over HTTP or
JSONL-over-TCP, through three tiers:

1. **warm** -- the persistent results store (and, for evaluate jobs,
   compiled evaluator artifacts) answers with zero engine work;
2. **coalesced** -- requests whose canonical content hash matches a
   computation already in flight await that one computation;
3. **cold** -- everything else dispatches to the fork-per-job executor
   under admission control (bounded queue, per-tenant token buckets,
   sat-call budget clamps).

Responses come from the batch CLI's own response builder
(:mod:`repro.service.pipeline`) and are byte-identical to its (modulo
the volatile keys), so a client can move between the two freely.

Modules: :mod:`~repro.serve.daemon` (the tiered core),
:mod:`~repro.serve.http` (wire front ends + CLI),
:mod:`~repro.serve.admission` (token buckets, budget clamps),
:mod:`~repro.serve.metrics` (histograms, counters, hit rates),
:mod:`~repro.serve.loadgen` (the replay benchmark client).
"""

from repro.serve.admission import TenantTable, TokenBucket
from repro.serve.daemon import CountingDaemon, ServeConfig
from repro.serve.http import HttpFrontend, JsonlFrontend, serve_main
from repro.serve.loadgen import loadgen_main
from repro.serve.metrics import LatencyHistogram, ServeMetrics

__all__ = [
    "CountingDaemon",
    "HttpFrontend",
    "JsonlFrontend",
    "LatencyHistogram",
    "ServeConfig",
    "ServeMetrics",
    "TenantTable",
    "TokenBucket",
    "loadgen_main",
    "serve_main",
]
