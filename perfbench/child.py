"""One workload process (``python -m perfbench.child``), started by run.py.

Modes:

* ``setup`` -- set the workload up, report ready, tear down (the runner
  times several set-ups and reports the median);
* ``run`` -- set up, report ready, run the timed phase, check every
  answer, print the result;
* ``plain`` / ``traced`` -- the fixed pass of the traced run, without
  and with spans and engine counters;
* ``http`` -- serve workloads only: the fixed pass over HTTP.

The last stdout line is ``PERFBENCH-RESULT {json}``.
"""

import argparse
import json
import os
import signal
import sys
import tempfile

from perfbench import batch, common, engine, layers, serving

WORKLOADS = {
    "engine": engine,
    "batch_cold": batch,
    "serve_warm": serving,
    "serve_mixed": serving,
}


def _fixed_hooks(module):
    if module is serving:
        return serving.fixed_setup, serving.fixed_teardown
    return module.setup, module.teardown


def _engine_snapshot():
    from repro.core import stats

    return stats.engine_snapshot()


def _outcome_json(outcome):
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "relabelled": outcome.relabelled,
    }


def run(ctx):
    module = WORKLOADS[ctx.workload]
    if ctx.mode in ("setup", "run", "http"):
        state = module.setup(ctx)
        try:
            common.ready()
            if ctx.mode == "setup":
                return {}
            if ctx.mode == "http":
                return serving.http_pass(state, ctx)
            result = module.timed(state, ctx)
        finally:
            module.teardown(state)
        result.update(_outcome_json(result.pop("outcome")))
        return result

    setup, teardown = _fixed_hooks(module)
    state = setup(ctx)
    try:
        common.ready()
        if ctx.mode == "plain":
            result = module.fixed(state, ctx, None)
            result.pop("daemon", None)
            result.update(_outcome_json(result.pop("outcome")))
            return result
        from repro.core import stats

        trace = layers.LayerTrace()
        trace.install()
        stats.enable_stats()
        before = _engine_snapshot()
        try:
            result = module.fixed(state, ctx, trace)
        finally:
            trace.restore()
        after = _engine_snapshot()
    finally:
        teardown(state)
    counts = dict(trace.counts)
    counts.update(layers.engine_counter_deltas(before, after))
    counts.update(
        layers.daemon_counter_deltas(*result.pop("daemon", ({}, {})))
    )
    shares = trace.shares(result["traced_wall"])
    shares["executor.dispatch_frac"] = layers.dispatch_share(trace.jobs)
    os.makedirs(ctx.out, exist_ok=True)
    trace.tracer.dump(
        os.path.join(ctx.out, "trace-%s-%d.json" % (ctx.workload, ctx.seed)),
        {
            "workload": ctx.workload,
            "seed": ctx.seed,
            "traced_wall_s": result["traced_wall"],
            "per_call_ms": trace.per_call_ms(),
        },
    )
    result.update(_outcome_json(result.pop("outcome")))
    result["counts"] = counts
    result["shares"] = shares
    result.pop("warm_ms", None)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--mode", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--core", type=int, required=True)
    ctx = parser.parse_args(argv)
    # One core for the run and every process it starts, chosen by the
    # runner as the least loaded (:func:`perfbench.common.pick_core`).
    # On a small virtual machine, work that crosses cores pays for
    # waking an idle virtual CPU, and that cost drifts with the host's
    # load: the serve workloads' throughput moved by a third between
    # runs of the same code across two cores and held within a tenth
    # on one.
    os.sched_setaffinity(0, {ctx.core})
    # Each process gets its own stores, so no run sees another's answers.
    ctx.tmp = tempfile.mkdtemp(prefix=ctx.mode + "-", dir=ctx.tmp)
    # The runner stops a hung run with SIGTERM: unwind so every
    # ``finally`` drains its daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    result = run(ctx)
    print(common.RESULT + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
