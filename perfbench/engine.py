"""The ``engine`` workload: one closed-loop caller of ``repro.count``.

One thread asks the counting engine one question at a time on the
default backend -- no fork, store, hash or HTTP -- so routing, kernel
and memo changes show here and nowhere else.  The work comes in rounds
(:class:`perfbench.corpus.EngineCorpus`): the paper's formulas, fuzz
generator cases and the large-coefficient and deep-splinter families.
Each round starts from empty caches, like one compiler pass, and every
answer is checked after its round, outside the timed part.  Times are
the caller's CPU time: the engine does no I/O and starts no thread or
process, so that is its wall time with the time the host took the core
away left out.
"""

import gc
import time

from perfbench import common
from perfbench.corpus import EngineCorpus


#: The generated cases asked during set-up.
WARMUP_IDS = {"gen%d" % k for k in range(20)}


def _ask(item):
    from repro import count, sum_poly

    if item["poly"] is None:
        return count(item["text"], item["over"])
    return sum_poly(item["text"], item["over"], item["poly"])


def setup(ctx):
    # The traced pass also asks the genfunc and automaton backends.
    import repro.automaton  # noqa: F401
    import repro.genfunc  # noqa: F401

    corpus = EngineCorpus(ctx.seed)
    # Load the lazily imported engine modules before timing, on the
    # same formulas whatever the seed, so that set-up costs the same.
    for item in corpus.round(-1):
        if item["id"] in WARMUP_IDS:
            _ask(item)
    return corpus


def _run_round(items, outcome, corpus, latencies, trace=None, clock=time.thread_time):
    """Ask every item once; returns (seconds on ``clock``, answers)."""
    common.cold_caches()
    results = []
    # As in the repo's pytest benchmarks, the collector runs between
    # rounds, not inside one, where its pauses would land on whichever
    # formula happened to trigger them.
    gc.disable()
    start = clock()
    for item in items:
        t0 = clock()
        try:
            if trace is None:
                result = _ask(item)
            else:
                with trace.tracer.span("engine.count", item["id"]):
                    result = _ask(item)
        except Exception as exc:
            result = exc
        latencies.append(clock() - t0)
        results.append(result)
    elapsed = clock() - start
    gc.enable()
    for item, result in zip(items, results):
        if isinstance(result, Exception):
            outcome.record("%s: %s: %s" % (item["id"], type(result).__name__, result))
        else:
            outcome.record(corpus.check(item, result))
    return elapsed, results


def timed(corpus, ctx):
    """Whole rounds until ``ctx.seconds`` have passed, checks included.

    Each figure is the median over rounds of that round's figure, so a
    few seconds of a slower machine move one round, not the result.
    """
    outcome = common.Outcome()
    rounds = []
    elapsed = 0.0
    steal = common.StealFree(ctx.core)
    first = steal.mark()
    while not rounds or time.perf_counter() < first[0] + ctx.seconds:
        latencies = []
        seconds = _run_round(corpus.round(len(rounds)), outcome, corpus, latencies)[0]
        elapsed += seconds
        rounds.append((len(latencies) / seconds, [1000.0 * s for s in latencies]))
    last = steal.mark()
    steal.interval(first, last)
    return {
        "outcome": outcome,
        "metrics": dict(common.slice_medians(rounds), peak_rss_mb=common.vmhwm_mb()),
        "problems": [],
        "info": {
            "rounds": len(rounds),
            "items_per_round": len(rounds[0][1]),
            "cpu_s": elapsed,
            "wall_s": last[0] - first[0],
            "stolen_frac": steal.stolen_frac(),
        },
    }


def fixed(corpus, ctx, trace):
    """Round 0 once; traced, then the families on the other backends.

    The traced pass also asks the large-coefficient and deep-splinter
    formulas on the ``genfunc`` and ``automaton`` backends and checks
    they agree, so those engines' layers are measured too.
    """
    from repro import count

    outcome = common.Outcome()
    items = corpus.round(0)
    # Wall time, as the spans the traced pass records.
    wall, results = _run_round(items, outcome, corpus, [], trace, time.perf_counter)
    answers = common.digest(str(result) for result in results)
    if trace is None:
        return {"outcome": outcome, "wall": wall, "traced_wall": wall, "answers": answers}
    start = time.perf_counter()
    for item in items:
        if item["family"] not in ("large_coeff", "deep_splinter"):
            continue
        for backend in ("genfunc", "automaton"):
            with trace.tracer.span("engine.count", item["id"]):
                result = count(item["text"], item["over"], backend=backend)
            outcome.record(corpus.check(item, result))
    return {
        "outcome": outcome,
        "wall": wall,
        "traced_wall": wall + time.perf_counter() - start,
        "answers": answers,
    }


def teardown(corpus):
    pass
