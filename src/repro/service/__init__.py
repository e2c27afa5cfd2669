"""Batched counting service: requests, disk cache, executor, batch I/O.

The engine answers one query at a time; real clients (dependence
testers, cache-miss estimators, load balancers) issue *streams* of
count/sum/simplify queries whose individual cost varies by orders of
magnitude.  This package is the serving skeleton in front of the
engine:

* :mod:`repro.service.request` -- the canonical request model.  Every
  job gets a stable content hash derived from the *parsed* formula
  (invariant under variable order and alpha-renaming of the counted
  variables), the options, and the engine version.
* :mod:`repro.service.diskcache` -- a persistent, size-bounded,
  sqlite-backed result cache keyed by content hash, safe under
  concurrent writers.
* :mod:`repro.service.executor` -- a worker-pool executor running one
  process per job with per-job wall-clock timeouts and work budgets;
  a crashed worker is retried once, and every failure mode degrades
  to a structured :class:`~repro.service.executor.JobError` instead
  of failing the batch.
* :mod:`repro.service.pipeline` -- the request front (content hash or
  structured error) and the response builder that the batch front end
  and the serve daemon share.
* :mod:`repro.service.batch` -- the JSONL front end behind
  ``python -m repro batch``: one request per input line, one response
  per output line, end-of-batch summary on stderr.
"""

from repro.service.batch import BatchSummary, run_batch
from repro.service.diskcache import DiskCache
from repro.service.executor import JobError, execute_request, run_jobs
from repro.service.request import ENGINE_VERSION, JobRequest, RequestError

__all__ = [
    "BatchSummary",
    "DiskCache",
    "ENGINE_VERSION",
    "JobError",
    "JobRequest",
    "RequestError",
    "execute_request",
    "run_batch",
    "run_jobs",
]
