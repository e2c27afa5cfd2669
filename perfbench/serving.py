"""The ``serve_warm`` and ``serve_mixed`` workloads.

Both start ``python -m repro serve`` on a temporary store and port 0
(on the one core this process runs on, see :mod:`perfbench.child`) and
pre-warm the daemon with the load generator's base set
(all six request kinds) during set-up.

* ``serve_warm`` is a closed loop over two keep-alive HTTP connections.
  Every request is answered by a warm tier -- the results store, the
  evalc artifact map or a resident automaton -- so the HTTP front end,
  request parse, canonical hash and store reads do all the work.
* ``serve_mixed`` runs the same closed warm loop while an open loop
  sends cold work beside it at a fixed rate: new forked count/sum jobs,
  new member/count_below formulas whose automata the daemon builds on
  its threads, and bursts of alpha-variant duplicates that should
  coalesce.  Only the warm stream's figures are reported, so cold work
  stealing the daemon's CPU or GIL shows as lower warm throughput and
  higher warm latency.  (An open-loop warm stream was tried: its
  latency quantiles moved by a third between runs of the same code.)

Run figures are medians over two-second slices of the warm stream:
throughput over each slice's steal-free seconds, latencies as the CPU
time this process and the daemon spent while each request was out
(:class:`perfbench.common.StealFree` says why).  Every response is
compared with an in-process ``execute_request`` answer after the timed
part.
"""

import asyncio
import contextlib
import gc
import json
import os
import re
import signal
import subprocess
import sys
import time

from perfbench import common
from perfbench.corpus import (
    cold_schedule,
    compare,
    reference_response,
    stable,
    warm_requests,
)

WARM_CLIENTS = 2
#: serve_mixed's cold stream, well under the daemon's capacity.
COLD_RATE = 2.0
BURST_EVERY = 2.0
BURST_SIZE = 4
#: The cold stream repeats every 2 s: four templates at 2/s, a burst
#: every 2 s.  Run figures are medians over slices this long.
COLD_PERIOD = 2.0
#: Untimed warm requests after pre-warming, before timing starts.
WARMUP_REQUESTS = 300
#: Warm requests of the fixed pass, and the length of its cold stream.
FIXED_REQUESTS = 2000
FIXED_SECONDS = 4.0

#: Environment that would point the daemon at stores outside the run.
_FOREIGN_ENV = re.compile(r"^REPRO_(ANSWER_DB|AUTOMATON_DB|SERVE_|SHARD_|SERVICE_)")


def base_requests():
    from repro.serve.loadgen import DEFAULT_BASE_REQUESTS

    return [dict(obj) for obj in DEFAULT_BASE_REQUESTS]


class Daemon:
    """A ``repro serve`` subprocess on a temp store and a free port."""

    def __init__(self, ctx, name):
        self.log_path = os.path.join(ctx.tmp, name + ".log")
        env = {k: v for k, v in os.environ.items() if not _FOREIGN_ENV.match(k)}
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "serve",
                    "--http-port",
                    "0",
                    "--cache",
                    os.path.join(ctx.tmp, name + ".sqlite"),
                    "--workers",
                    str(common.WORKERS),
                ],
                cwd=ctx.tmp,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        self.port = self._wait_ready(60.0)
        # Linux's CPU clock id of another process (``clock_getcpuclockid``).
        self.clock = ((~self.proc.pid) << 3) | 2

    def _wait_ready(self, timeout):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as fh:
                match = re.search(r"listening on http://[^:]+:(\d+)", fh.read())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("repro serve did not start; log:\n" + self._log())

    def _log(self):
        with open(self.log_path) as fh:
            return fh.read()

    def cpu_with(self):
        """CPU seconds this process and the daemon have used.

        The daemon's count comes from its process CPU clock (all its
        threads), which, like this process's, stands still while the
        host has the core.  Forked job workers are not in it.
        """
        return time.process_time() + time.clock_gettime(self.clock)

    def peak_rss_mb(self):
        return common.vmhwm_mb(self.proc.pid)

    def stop(self):
        """SIGTERM-drain the daemon; kill it if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(40)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def call(self, method, path, doc=None):
        body = b"" if doc is None else json.dumps(doc).encode()
        self.writer.write(
            b"%s %s HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json"
            b"\r\nContent-Length: %d\r\n\r\n%s"
            % (method.encode(), path.encode(), len(body), body)
        )
        await self.writer.drain()
        await self.reader.readline()  # status line; the body says it all
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return json.loads(await self.reader.readexactly(length))

    def close(self):
        self.writer.close()


class Pool:
    """Idle connections for an open loop; opens more when all are busy."""

    def __init__(self, port):
        self.port = port
        self.idle = []
        self.opened = []

    async def fill(self, n):
        for _ in range(n):
            conn = await Connection.open(self.port)
            self.opened.append(conn)
            self.idle.append(conn)

    async def call(self, doc):
        if self.idle:
            conn = self.idle.pop()
        else:
            conn = await Connection.open(self.port)
            self.opened.append(conn)
        response = await conn.call("POST", "/job", doc)
        self.idle.append(conn)
        return response

    def close(self):
        for conn in self.opened:
            conn.close()


@contextlib.contextmanager
def quiet_collector():
    """No collector pauses in this client while it times requests."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


async def _counters(conn):
    doc = await conn.call("GET", "/stats")
    return dict(doc["serve"]["counters"])


async def _prewarm(call, seed):
    """The base set cold, then warm-up traffic; returns failures."""
    failures = []
    base = base_requests()
    for obj in base:
        response = await call(obj)
        if not response.get("ok"):
            failures.append("pre-warm %s: %s" % (obj["id"], response.get("error")))
    stream = warm_requests(seed, base, tag="warmup")
    for _ in range(WARMUP_REQUESTS):
        await call(next(stream))
    return failures


async def _closed_loop(calls, stream, stop, cpu):
    """``len(calls)`` clients, each sending its next request when answered.

    ``stop(sent)`` says when to stop; a record is (request, response,
    latency seconds, completion time, CPU latency seconds), where the
    CPU latency is what ``cpu()`` -- the CPU seconds this process and
    the daemon have used -- advanced by while the request was out.
    """
    records = []
    sent = [0]

    async def client(call):
        while not stop(sent[0]):
            obj = next(stream)
            sent[0] += 1
            c0 = cpu()
            t0 = time.perf_counter()
            response = await call(obj)
            done = time.perf_counter()
            records.append((obj, response, done - t0, done, cpu() - c0))

    await asyncio.gather(*(client(call) for call in calls))
    return records


async def _open_loop(call, schedule, start):
    """Send each request when due, whether or not earlier ones finished.

    Returns records (stream, request, response, latency from due,
    lateness of the send), in seconds.
    """
    records = []

    async def send(due, stream, obj):
        sent = time.perf_counter()
        response = await call(obj)
        records.append((stream, obj, response, time.perf_counter() - due, sent - due))

    tasks = []
    for offset, stream, obj in schedule:
        due = start + offset
        wait = due - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        tasks.append(asyncio.ensure_future(send(due, stream, obj)))
    await asyncio.gather(*tasks)
    return records


def _check(pairs, outcome):
    """Compare each response with the in-process answer to its request.

    Answers are computed once per content hash: alpha-variants share
    the stable part of their answer, except ``member`` answers, whose
    points echo the request's own variable names.
    """
    from repro.service.request import JobRequest

    seen = {}
    for obj, response in pairs:
        if obj["kind"] == "member":
            key = json.dumps([obj["formula"], obj["over"], obj["at"]], sort_keys=True)
        else:
            key = JobRequest.from_json(obj).content_hash()
        if key not in seen:
            try:
                seen[key] = reference_response(obj)
            except Exception as exc:
                seen[key] = "reference failed: %s" % exc
        want = seen[key]
        if isinstance(want, str):
            outcome.record("%s: %s" % (obj["id"], want))
            continue
        problem, relabelled = compare(dict(response, id=obj["id"]), dict(want, id=obj["id"]))
        outcome.relabelled += relabelled
        outcome.record(problem)


# -- the workloads ---------------------------------------------------------------


class State:
    def __init__(self, ctx):
        self.ctx = ctx
        self.mixed = ctx.workload == "serve_mixed"
        self.daemon = None
        self.conns = []
        self.prewarm_failures = []
        self.loop = asyncio.new_event_loop()
        self.steal = common.StealFree(ctx.core)


def setup(ctx):
    state = State(ctx)
    state.daemon = Daemon(ctx, "serve")
    try:
        state.loop.run_until_complete(_connect(state))
    except BaseException:
        teardown(state)
        raise
    return state


async def _connect(state):
    port = state.daemon.port
    state.conns = [await Connection.open(port) for _ in range(WARM_CLIENTS)]
    state.prewarm_failures = await _prewarm(_caller(state.conns[0]), state.ctx.seed)


def _caller(conn):
    return lambda obj: conn.call("POST", "/job", obj)


async def _mark_slices(steal, marks):
    """After the start's steal mark, append one at every slice edge."""
    start = marks[0][0]
    while True:
        await asyncio.sleep(start + len(marks) * COLD_PERIOD - time.perf_counter())
        marks.append(steal.mark())


async def _warm_and_cold(state, stop, cold_seconds):
    """The warm closed loop, beside the cold open loop for serve_mixed.

    Returns (warm records, cold records, steal marks at the start and
    every :data:`COLD_PERIOD` seconds after it).
    """
    ctx = state.ctx
    stream = warm_requests(ctx.seed, base_requests())
    calls = [_caller(conn) for conn in state.conns]
    pool = Pool(state.daemon.port)
    schedule = []
    if state.mixed:
        await pool.fill(BURST_SIZE)
        schedule = cold_schedule(ctx.seed, cold_seconds, COLD_RATE, BURST_EVERY, BURST_SIZE)
    marks = [state.steal.mark()]
    start = marks[0][0]
    marker = asyncio.ensure_future(_mark_slices(state.steal, marks))
    try:
        warm, cold = await asyncio.gather(
            _closed_loop(calls, stream, stop, state.daemon.cpu_with),
            _open_loop(pool.call, schedule, start),
        )
    finally:
        marker.cancel()
        pool.close()
    return warm, cold, marks


def timed(state, ctx):
    return state.loop.run_until_complete(_timed(state, ctx))


async def _timed(state, ctx):
    outcome = common.Outcome()
    problems = list(state.prewarm_failures)
    before = await _counters(state.conns[0])
    deadline = time.perf_counter() + ctx.seconds
    with quiet_collector():
        warm, cold, marks = await _warm_and_cold(
            state, lambda sent: time.perf_counter() >= deadline, ctx.seconds
        )
    after = await _counters(state.conns[0])
    peak = state.daemon.peak_rss_mb()
    delta = {name: after[name] - before[name] for name in after}
    info = {"requests": len(warm), "clients": WARM_CLIENTS}
    if not state.mixed and delta["cold_jobs"]:
        problems.append("serve_warm dispatched %d cold jobs" % delta["cold_jobs"])
    wrong_tier = [obj["id"] for obj, response, *_ in warm if response.get("tier") != "warm"]
    wrong_tier += [obj["id"] for _, obj, response, _, _ in cold if response.get("tier") == "warm"]
    if wrong_tier:
        problems.append("requests served by the wrong tier: %s" % wrong_tier[:5])
    _check(
        [(obj, response) for obj, response, *_ in warm]
        + [(obj, response) for _, obj, response, _, _ in cold],
        outcome,
    )
    slices, raw = _slices(warm, marks, state.steal)
    metrics = dict(common.slice_medians(slices), peak_rss_mb=peak)
    info["raw_throughput_rps"] = common.p50(raw)
    info["stolen_frac"] = state.steal.stolen_frac()
    if state.mixed:
        # A self-check, not a reported figure: the cold stream is too
        # short for a p90 with ten samples beyond it.
        late_p90 = common.rank_quantile([1000.0 * r[4] for r in cold], 0.9)
        info.update(
            cold_requests=len(cold),
            cold_p50_ms=common.p50([1000.0 * r[3] for r in cold]),
            late_p90_ms=late_p90,
            coalesced=delta["coalesced"],
            cold_jobs=delta["cold_jobs"],
        )
        if delta["coalesced"] <= 0:
            problems.append("no alpha-variant burst coalesced")
        # The open loop must send on time relative to what it times.
        if late_p90 > 0.25 * info["cold_p50_ms"]:
            problems.append(
                "cold generator ran %.3f ms late against cold p50 %.3f ms"
                % (late_p90, info["cold_p50_ms"])
            )
    info["slices"] = len(slices)
    return {"outcome": outcome, "metrics": metrics, "problems": problems, "info": info}


def _slices(warm, marks, steal):
    """Warm figures per slice between consecutive steal marks.

    Slices are :data:`COLD_PERIOD` seconds long, so on serve_mixed
    every slice holds the same cold work.  A slice's throughput is over
    its steal-free seconds (:class:`perfbench.common.StealFree`); its
    latencies are CPU latencies (see :func:`_closed_loop`).  Returns
    (slices, raw wall-clock throughput of each slice).
    """
    slices = []
    raw = []
    for lo, hi in zip(marks, marks[1:]):
        ms = [1000.0 * r[4] for r in warm if lo[0] <= r[3] < hi[0]]
        slices.append((len(ms) / steal.interval(lo, hi), ms))
        raw.append(len(ms) / (hi[0] - lo[0]))
    return slices, raw


def http_pass(state, ctx):
    """The fixed pass over HTTP: warm latencies for ``http.overhead_frac``."""
    return state.loop.run_until_complete(_http_pass(state))


async def _http_pass(state):
    warm, cold, _ = await _warm_and_cold(
        state, lambda sent: sent >= FIXED_REQUESTS, FIXED_SECONDS
    )
    return {
        "warm_ms": [1000.0 * r[2] for r in warm],
        "late_ms": [1000.0 * r[4] for r in cold],
        "cold_ms": [1000.0 * r[3] for r in cold],
    }


def teardown(state):
    for conn in state.conns:
        conn.close()
    state.conns = []
    if state.daemon is not None:
        state.daemon.stop()
        state.daemon = None
    state.loop.close()


# -- the in-process passes of the traced run --------------------------------------


def fixed_setup(ctx):
    """A pre-warmed ``CountingDaemon`` in this process."""
    from repro.serve.daemon import CountingDaemon, ServeConfig

    state = State(ctx)
    config = ServeConfig(
        http_port=0,
        cache_path=os.path.join(ctx.tmp, "inprocess.sqlite"),
        workers=common.WORKERS,
    )
    state.daemon = CountingDaemon(config)
    state.daemon.start()
    state.prewarm_failures = state.loop.run_until_complete(
        _prewarm(state.daemon.handle, ctx.seed)
    )
    return state


def fixed(state, ctx, trace):
    """The fixed pass through ``CountingDaemon.handle`` in this process.

    The warm requests go two at a time, as over HTTP; serve_mixed's
    cold requests go one after another beside them, each burst at once.
    Untraced, it gives the in-process latency of every warm request
    (the daemon's share of an HTTP request); traced, it records spans
    and the daemon's counter deltas.
    """
    return state.loop.run_until_complete(_fixed(state, trace))


async def _fixed(state, trace):
    ctx = state.ctx
    daemon = state.daemon
    outcome = common.Outcome()
    for problem in state.prewarm_failures:
        outcome.record(problem)
    if trace is not None:
        trace.wrap_cache(daemon.cache)
        trace.tracer.wrap(daemon, "handle", "daemon.handle")
        trace.tracer.propagate_into_executors(asyncio.get_event_loop())
    counters = dict(daemon.metrics.counters)
    warm_ms = []
    answers = {}

    async def one(obj, warm):
        t0 = time.perf_counter()
        response = await daemon.handle(obj)
        if warm:
            warm_ms.append(1000.0 * (time.perf_counter() - t0))
        answers[obj["id"]] = json.dumps(stable(response), sort_keys=True)
        outcome.record(None if response.get("ok") else "%s failed" % obj["id"])

    stream = warm_requests(ctx.seed, base_requests())
    requests = [next(stream) for _ in range(FIXED_REQUESTS)]

    async def client(share):
        for obj in share:
            await one(obj, True)

    async def cold():
        if not state.mixed:
            return
        groups = {}
        for offset, _, obj in cold_schedule(
            ctx.seed, FIXED_SECONDS, COLD_RATE, BURST_EVERY, BURST_SIZE
        ):
            groups.setdefault(offset, []).append(obj)
        for offset in sorted(groups):
            await asyncio.gather(*(one(obj, False) for obj in groups[offset]))

    start = time.perf_counter()
    await asyncio.gather(
        *(client(requests[k::WARM_CLIENTS]) for k in range(WARM_CLIENTS)), cold()
    )
    wall = time.perf_counter() - start
    return {
        "outcome": outcome,
        "wall": wall,
        "traced_wall": wall,
        "warm_ms": warm_ms,
        "daemon": (counters, dict(daemon.metrics.counters)),
        "answers": common.digest(answers[k] for k in sorted(answers)),
    }


def fixed_teardown(state):
    state.loop.run_until_complete(state.daemon.drain())
    state.loop.close()
