"""Which program functions the traced run wraps, and the per-layer metrics.

Every per-layer metric is reported on every workload.  Counts are exact
(engine counters from ``stats.engine_snapshot()``, daemon counters from
its ``/stats`` view, and calls seen by the wrappers); a layer a workload
does not use counts 0.  Times are shares of the traced pass's wall time
spent in a layer's own code (its spans' self time), so a layer the
workload never calls reads 0 rather than a made-up duration.  The
absolute per-call times are in the span file the traced run writes.
"""

import sys
import time

from perfbench.tracing import Tracer

#: per-layer metric -> engine counter of ``stats.engine_snapshot()``.
ENGINE_COUNTERS = {
    "omega.sat_calls": "sat_calls",
    "omega.sat_cache_hits": "sat_cache_hits",
    "omega.normalize_calls": "normalize_calls",
    "omega.kernel_rows_normalized": "kernel_rows_normalized",
    "omega.fm_eliminations": "fm_eliminations",
    "omega.splinters_taken": "splinters_taken",
    "core.residue_cases": "residue_cases",
    "core.answer_memo_hits": "answer_memo_hits",
    "core.answer_memo_misses": "answer_memo_misses",
    "backend.genfunc_calls": "genfunc_calls",
    "backend.genfunc_fallbacks": "genfunc_fallbacks",
    "backend.automaton_calls": "automaton_calls",
    "backend.automaton_fallbacks": "automaton_fallbacks",
    "genfunc.cones": "genfunc_cones",
    "automaton.builds": "automaton_builds",
    "automaton.states": "automaton_states",
}

#: per-layer metric -> counter of the daemon's ``/stats`` serve view.
DAEMON_COUNTERS = {
    "daemon.warm_hits": "warm_hits",
    "daemon.artifact_hits": "artifact_hits",
    "daemon.automaton_hits": "automaton_hits",
    "daemon.coalesced": "coalesced",
    "daemon.cold_jobs": "cold_jobs",
    "daemon.shed": "shed",
    "daemon.rate_limited": "rate_limited",
}

#: Counts the wrappers and workloads keep themselves.
OWN_COUNTERS = (
    "presburger.dnf_clauses",
    "diskcache.hits",
    "diskcache.misses",
    "diskcache.puts",
    "executor.jobs",
    "batch.deduped",
)

#: per-layer share metric -> span names whose self time it sums.
SHARES = {
    "presburger.parse_frac": ("presburger.parse",),
    "presburger.dnf_frac": ("presburger.dnf", "presburger.disjointify"),
    "engine.count_frac": ("engine.count",),
    "genfunc.sum_frac": ("genfunc.sum",),
    "automaton.build_frac": ("automaton.build", "automaton.sum"),
    "automaton.query_frac": ("automaton.query",),
    "evalc.eval_frac": ("evalc.compile", "evalc.eval"),
    "canon.hash_frac": ("request.from_json", "canon.hash"),
    "diskcache.get_frac": ("diskcache.get",),
    "diskcache.put_frac": ("diskcache.put",),
    "executor.job_frac": ("executor.job", "executor.inprocess"),
    "batch.run_frac": ("batch.run",),
    "daemon.handle_frac": ("daemon.handle",),
}

#: Shares the workloads compute from two measurements.
DERIVED = (
    "executor.dispatch_frac",
    "http.overhead_frac",
    "loadgen.late_p90_frac",
    "trace.overhead_frac",
)

PER_LAYER = (
    list(ENGINE_COUNTERS)
    + list(DAEMON_COUNTERS)
    + list(OWN_COUNTERS)
    + list(SHARES)
    + list(DERIVED)
)


def unit(name):
    return "frac" if name.endswith("_frac") else "count"


class LayerTrace:
    """A :class:`Tracer` wired into every layer the benchmark measures."""

    def __init__(self):
        self.tracer = Tracer()
        self.counts = dict.fromkeys(OWN_COUNTERS, 0)
        #: (request json, wall ms) of every forked job, for the control.
        self.jobs = []

    def install(self):
        """Wrap the layers' public functions in every module already loaded.

        Modules the workload has not imported stay unwrapped and
        unimported: importing them here would spare every forked batch
        worker its own lazy imports, and the traced pass would then
        measure a different program.
        """
        wrap = self.tracer.wrap
        modules = {
            name: sys.modules[name]
            for name in (
                "repro.presburger.parser",
                "repro.core.general",
                "repro.genfunc",
                "repro.automaton",
                "repro.evalc",
                "repro.evalc.compiler",
                "repro.service.request",
                "repro.service.executor",
                "repro.service.batch",
                "repro.serve.daemon",
            )
            if name in sys.modules
        }

        def each(names, attr, span, on_result=None):
            for name in names:
                if name in modules:
                    wrap(modules[name], attr, span, on_result)

        each(
            ("repro.presburger.parser", "repro.service.request", "repro.service.executor"),
            "parse",
            "presburger.parse",
        )
        each(("repro.core.general",), "to_dnf", "presburger.dnf", self._clauses)
        each(("repro.core.general",), "disjointify", "presburger.disjointify")
        each(("repro.service.executor",), "count", "engine.count")
        each(("repro.service.executor",), "sum_poly", "engine.count")
        each(("repro.genfunc",), "genfunc_sum", "genfunc.sum")
        each(("repro.automaton",), "automaton_sum", "automaton.sum")
        each(("repro.automaton",), "automaton_for", "automaton.build")
        for attr in ("member", "count_below", "has_resident_automaton"):
            each(("repro.automaton",), attr, "automaton.query")
        each(("repro.evalc",), "compile_sum", "evalc.compile")
        if "repro.evalc.compiler" in modules:
            wrap(modules["repro.evalc.compiler"].CompiledSum, "many", "evalc.eval")
        if "repro.service.request" in modules:
            request = modules["repro.service.request"].JobRequest
            wrap(request, "from_json", "request.from_json")
            wrap(request, "content_hash", "canon.hash", self.tracer.tag_request)
            wrap(request, "formula_hash", "canon.hash")
        each(("repro.serve.daemon",), "execute_request", "executor.inprocess")
        for name in ("repro.service.batch", "repro.serve.daemon"):
            if name in modules:
                self._wrap_run_jobs(modules[name])

    def _clauses(self, clauses):
        self.counts["presburger.dnf_clauses"] += len(clauses)

    def _wrap_run_jobs(self, module):
        """``run_jobs`` with one ``executor.job`` span per forked job.

        A job runs in a child process, so its span is rebuilt from the
        outcome's ``wall_ms`` when the parent sees it settle.
        """
        original = module.run_jobs
        tracer = self.tracer
        trace = self

        def run_jobs(requests, *args, **kwargs):
            user = kwargs.pop("on_outcome", None)
            settled = {}

            def on_outcome(index, outcome):
                settled[index] = time.perf_counter()
                if user is not None:
                    user(index, outcome)

            with tracer.span("executor.run_jobs") as parent:
                outcomes = original(requests, *args, on_outcome=on_outcome, **kwargs)
            for index, outcome in enumerate(outcomes):
                end = settled.get(index, parent[2])
                start = end - outcome["wall_ms"] / 1000.0
                tracer.spans.append(["executor.job", start, end, parent, None])
                trace.counts["executor.jobs"] += 1
                if outcome["ok"]:
                    trace.jobs.append((requests[index].to_json(), outcome["wall_ms"]))
            return outcomes

        tracer.patch(module, "run_jobs", run_jobs)

    def wrap_cache(self, cache):
        """Trace one :class:`DiskCache` instance's reads and writes."""

        def on_get(payload):
            hit = payload is not None and "result" in payload
            self.counts["diskcache.hits" if hit else "diskcache.misses"] += 1

        def on_put(_):
            self.counts["diskcache.puts"] += 1

        self.tracer.wrap(cache, "get", "diskcache.get", on_get)
        self.tracer.wrap(cache, "put", "diskcache.put", on_put)

    def restore(self):
        self.tracer.restore()

    def shares(self, wall):
        """{share metric: self time / ``wall``} from the recorded spans."""
        times = self.tracer.self_times()
        return {
            metric: sum(times.get(name, (0, 0.0))[1] for name in names) / wall
            for metric, names in SHARES.items()
        }

    def per_call_ms(self):
        """{span name: [calls, mean self ms]} for the span file."""
        return {
            name: [calls, 1000.0 * total / calls]
            for name, (calls, total) in sorted(self.tracer.self_times().items())
        }


def engine_counter_deltas(before, after):
    return {
        metric: after.get(name, 0) - before.get(name, 0)
        for metric, name in ENGINE_COUNTERS.items()
    }


def daemon_counter_deltas(before, after):
    return {
        metric: after.get(name, 0) - before.get(name, 0)
        for metric, name in DAEMON_COUNTERS.items()
    }


def dispatch_share(jobs):
    """Share of a forked job's wall time that is dispatch, not work.

    Each ok job of the traced pass is re-run in process with the same
    cold caches a fresh worker starts from (the control); the rest of
    the job's wall time is fork, pipe and reap.
    """
    if not jobs:
        return 0.0
    from repro.automaton.cache import clear_automaton_cache
    from repro.core.memo import clear_answer_memo
    from repro.omega.satisfiability import clear_sat_cache
    from repro.service.executor import execute_request
    from repro.service.request import JobRequest

    wall = control = 0.0
    for obj, wall_ms in jobs:
        clear_sat_cache()
        clear_answer_memo()
        clear_automaton_cache()
        req = JobRequest.from_json(obj)
        t0 = time.perf_counter()
        execute_request(req)
        control += (time.perf_counter() - t0) * 1000.0
        wall += wall_ms
    return max(0.0, wall - control) / wall
