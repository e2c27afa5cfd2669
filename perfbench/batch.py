"""The ``batch_cold`` workload: ``run_batch`` over distinct small jobs.

Jobs are the serve load generator's count/sum/evaluate shapes with a
new constant each (:func:`perfbench.corpus.batch_jobs`), so every job
misses the store, forks a worker and writes its answer back: fork-per-
job dispatch and store writes dominate, and the engine does little.
``run_batch`` runs in this process with one worker per core the run
has (one, see :mod:`perfbench.child`) and a fresh store.  Every response is compared with an in-process
``execute_request`` answer after the timed part.
"""

import json
import os
import resource
import time

from perfbench import common
from perfbench.corpus import batch_jobs, compare, reference_response, stable

#: Jobs per ``run_batch`` call.
CHUNK = 14


class State:
    def __init__(self, ctx):
        from repro.service.diskcache import DiskCache

        self.store = DiskCache(os.path.join(ctx.tmp, "batch.sqlite"))
        self.workers = len(os.sched_getaffinity(0))
        self.steal = common.StealFree(ctx.core)


def setup(ctx):
    from repro.service.batch import run_batch
    from repro.service.diskcache import DiskCache
    from repro.service.request import JobRequest

    state = State(ctx)
    # One throwaway batch on its own store loads the worker code paths.
    with DiskCache(os.path.join(ctx.tmp, "warmup.sqlite")) as store:
        jobs = batch_jobs(ctx.seed, -1, 2 * state.workers)
        run_batch([JobRequest.from_json(o) for o in jobs], state.workers, store)
    return state


def _cpu():
    """CPU seconds this process and its reaped job workers have used."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _chunk(state, ctx, index, trace=None):
    """One ``run_batch`` call.

    Returns (jobs, responses, wall seconds, problem, steal marks at the
    start and end, CPU ms of each job).  A job's CPU ms is what this
    process and the workers used from the previous job's response (or
    the chunk's start) to its own: with one worker, jobs run one after
    another, so that is the job's dispatch, work and store write.
    """
    from repro.service.batch import run_batch
    from repro.service.request import JobRequest

    jobs = batch_jobs(ctx.seed, index, CHUNK)
    stored = len(state.store)
    start = state.steal.mark()
    entries = [JobRequest.from_json(obj) for obj in jobs]
    cpu_ms = []
    last = [_cpu()]

    def emit(_):
        now = _cpu()
        cpu_ms.append(1000.0 * (now - last[0]))
        last[0] = now

    if trace is None:
        responses, summary = run_batch(entries, state.workers, state.store, emit=emit)
    else:
        with trace.tracer.span("batch.run"):
            responses, summary = run_batch(entries, state.workers, state.store, emit=emit)
        trace.counts["batch.deduped"] += summary.deduped
    end = state.steal.mark()
    seconds = end[0] - start[0]
    problem = None
    if (
        summary.cache_misses != CHUNK
        or summary.cache_hits
        or summary.deduped
        or len(state.store) != stored + CHUNK
    ):
        problem = "chunk %d: not every job was a store miss and a store write" % index
    return jobs, responses, seconds, problem, (start, end), cpu_ms


def _check(pairs, outcome):
    """Compare responses with in-process answers; returns control ms.

    Each reference answer starts from the empty caches a fresh worker
    has, so its time is the in-process control for the forked job.
    """
    control = []
    for obj, response in pairs:
        common.cold_caches()
        t0 = time.perf_counter()
        try:
            want = reference_response(obj)
        except Exception as exc:
            outcome.record("%s: reference failed: %s" % (obj["id"], exc))
            continue
        control.append(1000.0 * (time.perf_counter() - t0))
        problem, relabelled = compare(response, want)
        outcome.relabelled += relabelled
        outcome.record(problem)
    return control


def timed(state, ctx):
    """Chunks until ``ctx.seconds`` of batching have passed.

    Throughput and median latency are medians over chunks, so a few
    seconds of a slower machine move a few chunks, not the result.  A
    chunk is too small for a p90; that is over every job of the run
    (several hundred).  A chunk's throughput is over its
    steal-free seconds (:class:`perfbench.common.StealFree`); latencies
    are the jobs' CPU ms (see :func:`_chunk`).
    """
    outcome = common.Outcome()
    pairs = []
    chunks = []
    raw = []
    problems = []
    elapsed = 0.0
    while elapsed < ctx.seconds:
        jobs, responses, seconds, problem, marks, cpu_ms = _chunk(state, ctx, len(chunks))
        elapsed += seconds
        pairs.extend(zip(jobs, responses))
        chunks.append((len(jobs) / state.steal.interval(*marks), cpu_ms))
        raw.append(len(jobs) / seconds)
        if problem:
            problems.append(problem)
    peak = common.vmhwm_mb()
    control = _check(pairs, outcome)
    ms = [r["wall_ms"] for _, r in pairs]
    return {
        "outcome": outcome,
        "metrics": {
            "throughput_rps": common.p50([rate for rate, _ in chunks]),
            "latency_p50_ms": common.p50([common.p50(c) for _, c in chunks]),
            "latency_p90_ms": common.p90([m for _, c in chunks for m in c]),
            "peak_rss_mb": peak,
        },
        "problems": problems,
        "info": {
            "jobs": len(pairs),
            "workers": state.workers,
            "control_p50_ms": common.p50(control) if control else None,
            "job_p50_ms": common.p50(ms),
            "raw_throughput_rps": common.p50(raw),
            "stolen_frac": state.steal.stolen_frac(),
        },
    }


def fixed(state, ctx, trace):
    """Four chunks, the same in the plain and the traced pass."""
    outcome = common.Outcome()
    if trace is not None:
        trace.wrap_cache(state.store)
    pairs = []
    wall = 0.0
    for index in range(4):
        jobs, responses, seconds, problem, *_ = _chunk(state, ctx, index, trace)
        wall += seconds
        pairs.extend(zip(jobs, responses))
        if problem:
            outcome.record(problem)
    for obj, response in pairs:
        outcome.record(None if response.get("ok") else "%s failed" % obj["id"])
    answers = common.digest(json.dumps(stable(r), sort_keys=True) for _, r in pairs)
    return {"outcome": outcome, "wall": wall, "traced_wall": wall, "answers": answers}


def teardown(state):
    state.store.close()
