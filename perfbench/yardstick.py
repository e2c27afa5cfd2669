"""How fast the run's core is while a workload runs.

The benchmark's host is shared.  Between runs of the same code, every
workload's times moved together by a factor of two, while the time
stolen from the virtual CPU stayed near zero: the core itself ran
slower, presumably under other tenants' load, and its speed also
drifted by a third or more within minutes.  A :class:`Sampler` thread
in the runner, on the run's core, times a fixed pass of pure Python --
tuples, dict updates, integer arithmetic and a sort, the interpreter
work every workload does -- every :data:`PERIOD` seconds while the
workload runs.
Every timed figure of the run is then scaled to a core on which the
pass takes :data:`REFERENCE_S`: times by ``REFERENCE_S`` over the mean
pass time, rates by its inverse.  The scale and the raw figures go to
the run's info line.
"""

import os
import statistics
import threading
import time

#: Loop steps of one pass (about a millisecond).
STEPS = 2000
#: Seconds between passes: the passes take about 1% of the core.
PERIOD = 0.1
#: A pass's CPU seconds on the two-virtual-CPU Xeon machine the
#: benchmark was tuned on, rounded; scaled figures read in its units.
REFERENCE_S = 0.0005


class Sampler(threading.Thread):
    """Times the pass on ``core`` until stopped: CPU seconds per pass."""

    def __init__(self, core):
        super().__init__(daemon=True)
        self.core = core
        self.samples = []
        self.stopping = threading.Event()

    def run(self):
        os.sched_setaffinity(0, {self.core})
        while not self.stopping.wait(PERIOD):
            start = time.thread_time()
            self._pass()
            self.samples.append(time.thread_time() - start)

    @staticmethod
    def _pass():
        table = {}
        total = 0
        kept = []
        for i in range(STEPS):
            row = (i, 3 * i + 1, -i)
            key = row[1] % 257
            table[key] = table.get(key, 0) + row[0] - row[2]
            total += table[key] // (key + 1)
            if i % 16 == 0:
                kept.append(row)
        kept.sort(key=lambda row: (row[1] % 11, row[0]))
        return total + len(kept)

    def stop(self):
        self.stopping.set()
        self.join()

    def scale(self):
        """Reference time over the mean pass time."""
        return REFERENCE_S / statistics.mean(self.samples)
