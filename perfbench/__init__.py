"""End-to-end and per-layer benchmark for the counting stack.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see ``BENCHMARK.json`` for the list and why each
exists) and prints one JSON result line.  The package's modules:

* :mod:`perfbench.corpus` -- seeded inputs for every workload, plus the
  reference answers they are checked against;
* :mod:`perfbench.tracing` -- spans recorded around calls into the
  program's public functions, and their self times;
* :mod:`perfbench.layers` -- which functions the traced run wraps, and
  the per-layer metrics;
* :mod:`perfbench.engine`, :mod:`perfbench.batch`,
  :mod:`perfbench.serving` -- the workloads;
* :mod:`perfbench.child` -- the per-run process the runner starts;
* :mod:`perfbench.yardstick` -- how fast the run's core ran, which
  every timed end-to-end figure is scaled by.
"""
