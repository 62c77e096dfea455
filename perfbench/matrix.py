"""One warm process running passes of the 180-cell defense matrix.

    python perfbench/matrix.py RESULT.json SEEDS SECONDS [--passes N] [--fig7]
                               [--trace TRACE.json RUN_ID]
    python perfbench/matrix.py --probe

Imports the program, runs a small warm-up cell and prints ``ready`` (the
runner times set-up up to that line; ``--probe`` stops there).  Then it
runs passes over every grid cell through
:func:`repro.harness.experiment.run_cell` on the batched backend, one
pass per comma-separated seed in turn, until the next pass would end
past ``SECONDS`` (at least two passes, at most ``--passes``).  Per-cell
outputs and latencies go to ``RESULT.json``.  With ``--fig7`` the
Figure 7 RSA leak runs after the passes, untimed.
"""

import argparse
import json
import statistics
import sys
import time

import common
import tracing

clock = time.perf_counter


def run_pass(cases, seed, experiment, parse_defense, counters):
    """Every grid cell once; outputs, latencies and the counter delta."""
    before = counters.snapshot()
    started = clock()
    cells = []
    for variant, channel, spec, predictor in cases:
        cell_started = clock()
        result = experiment.run_cell(
            variant, channel, predictor, common.MATRIX_RUNS, seed,
            defense=parse_defense(spec), backend="batched",
        )
        cells.append({
            "label": common.case_label(
                variant.name, channel.value, spec, predictor
            ),
            "pvalue": result.pvalue,
            "mean_trial_cycles": result.mean_trial_cycles,
            "latency_s": clock() - cell_started,
        })
    return {
        "seed": seed, "cells": cells, "pass_s": clock() - started,
        "counters": type(counters).delta(before, counters.snapshot()),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("result", nargs="?")
    parser.add_argument("seeds", nargs="?", default="0")
    parser.add_argument("seconds", nargs="?", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--fig7", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", nargs=2, metavar=("TRACE", "RUN_ID"))
    args = parser.parse_args()
    tracer = tracing.Tracer(int(args.trace[1])) if args.trace else None
    if tracer is not None:
        with tracer.span("import.cli"):
            with tracer.span("import.scipy_special"):
                import scipy.special  # noqa: F401
            import repro.cli  # noqa: F401
        with tracer.span("trace.install"):
            tracing.install(tracer)
    from repro.cli import parse_defense
    from repro.core.channels import ChannelType
    from repro.core.variants import ALL_VARIANTS
    from repro.harness import experiment
    from repro.perf.counters import COUNTERS

    seeds = [int(part) for part in args.seeds.split(",")]
    cases = common.matrix_cases(ALL_VARIANTS, ChannelType)
    variant, channel, spec, predictor = cases[0]
    experiment.run_cell(variant, channel, predictor, 2, seeds[0],
                        defense=parse_defense(spec), backend="batched")
    print("ready", flush=True)
    if args.probe:
        return 0

    started = clock()
    passes = []
    while args.passes is None or len(passes) < args.passes:
        if len(passes) >= 2 and clock() - started + statistics.median(
            done["pass_s"] for done in passes
        ) > args.seconds:
            break
        passes.append(run_pass(cases, seeds[len(passes) % len(seeds)],
                               experiment, parse_defense, COUNTERS))
    fig7 = None
    if args.fig7:
        from repro.harness.checkpoint import serialize_rsa

        fig7 = serialize_rsa(experiment.figure7_result())
    if tracer is not None:
        tracing.write_trace(args.trace[0], tracer.spans)
    with open(args.result, "w") as handle:
        json.dump({"passes": passes, "fig7": fig7}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
