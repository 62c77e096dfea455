"""Performance bookkeeping for the reproduction itself.

Nothing here measures a command by re-running it: end-to-end wall
clock and its per-layer split come from the ``perfbench/`` harness,
which drives the real CLI, and the ``benchmarks/`` microbenches
record into the single ``BENCH_sweep.json`` file.  This package holds
what those readers consume:

* :mod:`repro.perf.counters` — deterministic global counters (cache
  hits for the memoized program/uop caches, trials, simulated
  cycles, lane and tape accounting).  Counting is pure bookkeeping:
  no clock, no RNG.
* :mod:`repro.perf.memo` — the program-cache memoizer used by
  :mod:`repro.workloads.gadgets` and the assembler.
* :mod:`repro.perf.observe` — the one sanctioned home of host-time
  reads (``now``/``Stopwatch``, allow-listed for the determinism
  lint: host time never touches a measurement) and
  ``write_sweep_trajectory``, the ``BENCH_sweep.json`` writer.
"""

from repro.perf.counters import COUNTERS, PerfCounters

__all__ = ["COUNTERS", "PerfCounters"]
