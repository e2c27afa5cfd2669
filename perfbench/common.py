"""Helpers shared by the workloads."""

import gc
import hashlib
import math
import os
import statistics
import sys
import time

#: Result lines between a workload process and the runner.
READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "


def p50(values):
    return statistics.median(values)


def rank_quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def p90(values):
    """Nearest-rank 90th percentile; needs >= 100 samples (10 beyond)."""
    if len(values) < 100:
        raise ValueError("p90 of %d samples has fewer than 10 beyond it" % len(values))
    return rank_quantile(values, 0.9)


def slice_medians(slices):
    """Medians over slices of a run of (throughput, latencies in ms).

    Every slice holds at least 100 latencies, so each slice's p90 has
    ten samples beyond it.
    """
    return {
        "throughput_rps": p50([rate for rate, _ in slices]),
        "latency_p50_ms": p50([p50(ms) for _, ms in slices]),
        "latency_p90_ms": p50([p90(ms) for _, ms in slices]),
    }


def digest(lines):
    """One hash over answers, to compare two runs' answers exactly."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def vmhwm_mb(pid="self"):
    """Peak resident set size of a process, in MB (``VmHWM``)."""
    with open("/proc/%s/status" % pid, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for process %s" % pid)


_TICK = os.sysconf("SC_CLK_TCK")


def cpu_times():
    """{cpu index: (busy, steal)} seconds since boot, from ``/proc/stat``.

    Steal is time the hypervisor ran something else while this virtual
    CPU had work; the guest kernel counts it apart from busy and idle.
    """
    times = {}
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            if not line.startswith("cpu"):
                break
            fields = line.split()
            if fields[0] == "cpu":
                continue
            user, nice, system, _, _, irq, softirq, steal = map(int, fields[1:9])
            times[int(fields[0][3:])] = (
                (user + nice + system + irq + softirq) / _TICK,
                steal / _TICK,
            )
    return times


def steal_s(core):
    """Seconds stolen from ``core`` since boot (10 ms resolution)."""
    return cpu_times()[core][1]


class StealFree:
    """Wall-clock intervals with the time stolen from the run's core removed.

    A run's processes share one virtual CPU (see :mod:`perfbench.child`).
    On a shared host the hypervisor can take that CPU away while it has
    work; the guest counts that time as steal, and it is no part of the
    program's cost.  Throughput and set-up time are therefore over
    steal-free seconds, measured per interval of a fraction of a second
    or more (steal is counted in 10 ms ticks).  Per-request latencies
    are too short for that and are CPU time instead, which the guest
    kernel also keeps free of steal.  How fast the core runs while it
    is the run's is another matter (:mod:`perfbench.yardstick`).
    """

    def __init__(self, core):
        self.core = core
        self.wall = 0.0
        self.stolen = 0.0

    def mark(self):
        return time.perf_counter(), steal_s(self.core)

    def interval(self, start, end):
        """Steal-free seconds between two marks."""
        wall = end[0] - start[0]
        stolen = min(max(0.0, end[1] - start[1]), 0.9 * wall)
        self.wall += wall
        self.stolen += stolen
        return wall - stolen

    def stolen_frac(self):
        return self.stolen / self.wall if self.wall else 0.0


def pick_core(sample_s=0.25):
    """The allowed CPU with the least busy and stolen time over a short
    sample, so that a run does not share a virtual CPU with other work;
    the highest-numbered of near-ties (CPU 0 takes most interrupts)."""
    allowed = sorted(os.sched_getaffinity(0))
    before = cpu_times()
    time.sleep(sample_s)
    after = cpu_times()
    load = {
        cpu: sum(after[cpu]) - sum(before[cpu])
        for cpu in allowed
        if cpu in before and cpu in after
    }
    if not load:
        return allowed[-1]
    least = min(load.values())
    return max(cpu for cpu, used in load.items() if used <= least + 0.02)


def cold_caches():
    """Empty every in-process engine cache, as at the start of a pass."""
    from repro.automaton.cache import clear_automaton_cache
    from repro.core.memo import clear_answer_memo
    from repro.evalc import clear_cache
    from repro.omega.constraints import reset_fresh_counter
    from repro.omega.satisfiability import clear_sat_cache

    clear_answer_memo()
    clear_sat_cache()
    clear_automaton_cache()
    clear_cache()
    reset_fresh_counter()
    gc.collect()


#: The daemon's worker threads: two, so a resident-automaton query
#: need not wait for a cold job to finish.
WORKERS = 2


def ready():
    """Tell the runner set-up is over (it times process start to here)."""
    print(READY, flush=True)


class Outcome:
    """What one pass saw: attempts, failures and the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        #: Right answers whose echoed point names are another spelling's
        #: (see :func:`perfbench.corpus.compare`).
        self.relabelled = 0

    def record(self, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(str(problem)[:300])
                print("perfbench: wrong answer: %s" % problem, file=sys.stderr)
