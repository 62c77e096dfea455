"""Run one ``repro`` CLI command with the benchmark's spans recorded.

    python perfbench/traced_cli.py TRACE.json RUN_ID -- all --out DIR ...

Times the import of :mod:`repro.cli` (with ``scipy.special`` as a
child span), wraps the layer entry points (:mod:`tracing`), runs
``repro.cli.main`` and writes the spans as Chrome trace-event JSON,
with the ``COUNTERS`` delta over the command in ``otherData``.  The
exit code is the command's.
"""

import sys

import tracing


def main() -> int:
    trace_path, run_id = sys.argv[1], int(sys.argv[2])
    if sys.argv[3] != "--":
        raise SystemExit("usage: traced_cli.py TRACE.json RUN_ID -- ARGS...")
    tracer = tracing.Tracer(run_id)
    with tracer.span("import.cli"):
        with tracer.span("import.scipy_special"):
            import scipy.special  # noqa: F401
        import repro.cli
    with tracer.span("trace.install"):
        tracing.install(tracer)
        from repro.perf.counters import COUNTERS, PerfCounters
    before = COUNTERS.snapshot()
    with tracer.span("cli.main"):
        code = repro.cli.main(sys.argv[4:])
    tracing.write_trace(trace_path, tracer.spans, {
        "counters": PerfCounters.delta(before, COUNTERS.snapshot()),
    })
    return code


if __name__ == "__main__":
    sys.exit(main())
