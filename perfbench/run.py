"""Benchmark runner: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload engine --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics.  The workload runs in a
fresh process (``perfbench.child``); before it, the same set-up runs in
two more fresh processes, and ``setup_s`` is the median time from
process start to ready over the three.  Every process of a run shares
one core, the least loaded when the run starts.  Times leave out the
time the hypervisor took that core away
(:class:`perfbench.common.StealFree`), and every timed figure is
scaled by how fast the core ran meanwhile (:mod:`perfbench.yardstick`).
``--trace 1`` instead runs a fixed pass of the workload twice in fresh
processes, once plain and once with spans and engine counters, and
reports the per-layer metrics; serve workloads add a third pass over
HTTP.  The span file goes to ``.perfbench-out/``; temporary stores and
logs live under ``.perfbench-tmp/`` and are removed at the end.

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment, the seed and
the workload's purpose.  The exit code is 0 only for a valid run with
every answer correct; 2 when the checkout has no program to measure.
"""

import argparse
import json
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import common  # noqa: E402
from perfbench.common import READY, RESULT, rank_quantile  # noqa: E402
from perfbench.layers import PER_LAYER, unit  # noqa: E402
from perfbench.yardstick import Sampler  # noqa: E402

WORKLOADS = ("engine", "batch_cold", "serve_warm", "serve_mixed")
SETUP_PROBES = 2
#: A run must end within this many seconds of starting.
RUN_LIMIT = 170.0

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class RunFailed(Exception):
    pass


class Child:
    """A workload process in its own process group."""

    def __init__(self, args, mode, tmp, out):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.steal = common.StealFree(args.core)
        self.started = self.steal.mark()
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "perfbench.child",
                "--mode", mode,
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--tmp", tmp,
                "--out", out,
                "--core", str(args.core),
            ],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def finish(self, deadline):
        """(seconds to ready, result dict); always reaps the group."""
        ready_at = None
        result = None
        try:
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise RunFailed("workload process timed out")
                try:
                    line = self.lines.get(timeout=remaining)
                except queue.Empty:
                    raise RunFailed("workload process timed out")
                if line is None:
                    break
                if line == READY and ready_at is None:
                    ready_at = self.steal.interval(self.started, self.steal.mark())
                elif line.startswith(RESULT):
                    result = json.loads(line[len(RESULT):])
                else:
                    print(line, file=sys.stderr)
            code = self.proc.wait(max(1.0, deadline - time.perf_counter()))
            if code != 0 or result is None or ready_at is None:
                raise RunFailed("workload process exited with code %s" % code)
            return ready_at, result
        finally:
            self.stop()

    def stop(self):
        """SIGTERM the process (its daemons drain), then kill the group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(45)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.reader.join(5)


#: End-to-end metrics that are times (scaled by the core's speed) and
#: rates (scaled by its inverse); see :mod:`perfbench.yardstick`.
TIMES = ("latency_p50_ms", "latency_p90_ms", "setup_s")
RATES = ("throughput_rps",)


def measure(args, tmp, out, deadline):
    """The end-to-end run: set-up probes, then the timed run."""
    sampler = Sampler(args.core)
    sampler.start()
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            ready, _ = Child(args, "setup", tmp, out).finish(deadline)
            setups.append(ready)
        ready, result = Child(args, "run", tmp, out).finish(deadline)
        setups.append(ready)
    finally:
        sampler.stop()
    raw = dict(result["metrics"])
    raw["setup_s"] = statistics.median(setups)
    scale = sampler.scale()
    metrics = dict(raw)
    for name in TIMES:
        metrics[name] = raw[name] * scale
    for name in RATES:
        metrics[name] = raw[name] / scale
    metrics["ok_frac"] = (result["attempted"] - result["failed"]) / result["attempted"]
    info = dict(
        result["info"],
        setup_samples_s=setups,
        core_scale=scale,
        yardstick_passes=len(sampler.samples),
        raw={name: raw[name] for name in TIMES + RATES},
    )
    return result, metrics, info


def measure_layers(args, tmp, out, deadline):
    """The traced run: plain and traced fixed passes (and HTTP for serve)."""
    _, plain = Child(args, "plain", tmp, out).finish(deadline)
    _, traced = Child(args, "traced", tmp, out).finish(deadline)
    metrics = dict(traced["counts"])
    metrics.update(traced["shares"])
    metrics["trace.overhead_frac"] = traced["wall"] / plain["wall"] - 1.0
    metrics["http.overhead_frac"] = 0.0
    metrics["loadgen.late_p90_frac"] = 0.0
    runs = [plain, traced]
    if args.workload.startswith("serve_"):
        _, http = Child(args, "http", tmp, out).finish(deadline)
        http_p50 = statistics.median(http["warm_ms"])
        metrics["http.overhead_frac"] = 1.0 - statistics.median(plain["warm_ms"]) / http_p50
        if http["late_ms"]:
            late = rank_quantile(http["late_ms"], 0.9)
            metrics["loadgen.late_p90_frac"] = late / statistics.median(http["cold_ms"])
    result = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "errors": [e for r in runs for e in r["errors"]],
        "relabelled": sum(r["relabelled"] for r in runs),
        "problems": [],
    }
    if plain["answers"] != traced["answers"]:
        result["problems"].append("the plain and traced passes answered differently")
    info = {
        "plain_wall_s": plain["wall"],
        "traced_wall_s": traced["wall"],
        "answers": traced["answers"],
    }
    return result, metrics, info


def _why(workload):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec["workloads"] if w["name"] == workload), None)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro under %s to measure" % ROOT, file=sys.stderr)
        return 2

    # A stopped runner unwinds, so every workload process it started
    # is stopped and reaped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.perf_counter() + RUN_LIMIT
    args.core = common.pick_core()
    tmp = os.path.join(ROOT, ".perfbench-tmp", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    out = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(tmp)
    try:
        if args.trace:
            result, metrics, info = measure_layers(args, tmp, out, deadline)
            names = PER_LAYER
            units = {name: unit(name) for name in names}
        else:
            result, metrics, info = measure(args, tmp, out, deadline)
            names = list(END_TO_END_UNITS)
            units = END_TO_END_UNITS
    except RunFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    problems = result["problems"]
    correct = result["failed"] == 0 and not problems
    record = {
        "workload": args.workload,
        "why": _why(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cores_used": 1,
        "core": args.core,
        "python": platform.python_version(),
        "REPRO_BACKEND": os.environ.get("REPRO_BACKEND", "recursion"),
        "REPRO_KERNELS": os.environ.get("REPRO_KERNELS", "dense"),
        "errors": result["errors"],
        "relabelled_member_answers": result["relabelled"],
        "invalid": problems,
    }
    record.update(info)
    print(json.dumps({"perfbench": record}))
    for problem in problems:
        print("perfbench: invalid run: %s" % problem, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {}
                if problems
                else {n: {"value": metrics[n], "unit": units[n]} for n in names},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
