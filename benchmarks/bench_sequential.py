"""Group-sequential early stopping on the Table III sweep.

Measures the PR 5 group-sequential measurement engine
(:mod:`repro.stats.sequential` + the incremental trial-streaming path
on :class:`repro.core.attack.AttackRunner`) against the fixed-N
protocol on the exact sweep the paper's Table III regenerates.  Three
claims are checked:

1. Verdict equivalence: every cell's attack/no-attack verdict under
   the sequential protocol matches the fixed-N verdict.
2. Prefix byte-identity: a sequential cell's timing samples are an
   exact prefix of the fixed-N cell's samples — trial k is the same
   simulation whether streamed or run cold.
3. Trial economy: decisive cells (fixed-N p-value far below alpha)
   stop at or before the half-budget look, and the sweep as a whole
   simulates meaningfully fewer trials than fixed-N.

One-shot comparative timing, ``slow``-marked like the other sweep
benches; the numbers land in the root-level ``BENCH_sweep.json``
perf trajectory.
"""

import pytest

pytestmark = pytest.mark.slow  # full regeneration; excluded from the quick CI pass

import dataclasses
import tempfile
from pathlib import Path

from benchmarks.conftest import run_once

#: Sweep shape: sweep_specs(["table3"], n_runs=40, seed=0).
_N_RUNS = 40
_SEED = 0

#: A cell is "decisive" when its fixed-N p-value clears alpha by an
#: order of magnitude either way is irrelevant — here we only demand
#: early exits from cells whose evidence is overwhelming.
_DECISIVE_P = 1e-4


def _sweep_pass(sequential=None):
    """Run the Table III sweep serially; returns (stats, cells)."""
    from repro._version import __version__
    from repro.harness.checkpoint import CheckpointStore
    from repro.harness.parallel import run_cells, sweep_specs
    from repro.harness.runner import ExecutionPolicy, SupervisedCell

    specs = sweep_specs(["table3"], n_runs=_N_RUNS, seed=_SEED)
    policy = ExecutionPolicy()
    meta = {"version": __version__, "n_runs": _N_RUNS, "seed": _SEED}
    if sequential is not None:
        policy = dataclasses.replace(policy, sequential=sequential)
        meta["sequential"] = sequential.to_meta()
    with tempfile.TemporaryDirectory() as scratch:
        store = CheckpointStore.open(
            str(Path(scratch) / "checkpoint"), meta, resume=False
        )
        stats = run_cells(specs, store, policy, workers=1)
        cells = {
            spec.cell_id: SupervisedCell.from_payload(store.load(spec.cell_id))
            for spec in specs
        }
    return stats, cells


def test_sequential_sweep_equivalence(benchmark):
    """Sequential Table III: every fixed-N verdict, fewer trials."""
    from repro.harness.runner import SequentialPolicy
    from repro.perf.counters import COUNTERS, PerfCounters
    from repro.perf.observe import write_sweep_trajectory

    # Warm the program/trace caches so neither timed pass pays
    # first-build costs the other skipped.
    _sweep_pass()

    fixed_stats, fixed = _sweep_pass()
    before = COUNTERS.snapshot()
    seq_stats, sequential = run_once(
        benchmark, _sweep_pass, SequentialPolicy()
    )
    delta = PerfCounters.delta(before, COUNTERS.snapshot())

    assert set(sequential) == set(fixed)
    decisive = early = 0
    planned_trials = effective_trials = 0
    for cell_id, fixed_cell in sorted(fixed.items()):
        seq_cell = sequential[cell_id]
        assert seq_cell.result is not None and fixed_cell.result is not None
        # 1. Verdict equivalence, cell by cell.
        assert (
            seq_cell.result.attack_succeeds
            == fixed_cell.result.attack_succeeds
        ), (
            f"{cell_id}: sequential verdict "
            f"{seq_cell.result.attack_succeeds} != fixed-N "
            f"{fixed_cell.result.attack_succeeds} "
            f"(p={seq_cell.result.pvalue} vs {fixed_cell.result.pvalue})"
        )
        # 2. Prefix byte-identity of the streamed samples.
        seq_mapped = list(seq_cell.result.comparison.mapped.samples)
        fixed_mapped = list(fixed_cell.result.comparison.mapped.samples)
        assert seq_mapped == fixed_mapped[: len(seq_mapped)], (
            f"{cell_id}: sequential samples are not a prefix of fixed-N"
        )
        record = seq_cell.sequential
        assert record is not None, f"{cell_id}: no sequential record"
        effective_n = int(record["effective_n"])
        planned_n = int(record["planned_n"])
        assert planned_n == _N_RUNS
        assert effective_n == len(seq_mapped)
        planned_trials += 2 * planned_n
        effective_trials += 2 * effective_n
        if record["stopped_early"]:
            early += 1
        # 3. Decisive cells exit at or before the half-budget look.
        if fixed_cell.result.pvalue < _DECISIVE_P:
            decisive += 1
            assert effective_n <= planned_n // 2, (
                f"{cell_id}: decisive (fixed p="
                f"{fixed_cell.result.pvalue:.2e}) yet used "
                f"{effective_n}/{planned_n} runs"
            )

    speedup = (
        fixed_stats.elapsed_s / seq_stats.elapsed_s
        if seq_stats.elapsed_s > 0 else 0.0
    )
    print(f"\nGroup-sequential Table III sweep "
          f"({len(fixed)} cells, n_runs={_N_RUNS}):")
    print(f"  fixed-N    : {fixed_stats.elapsed_s:8.3f} s  "
          f"({planned_trials} trials)")
    print(f"  sequential : {seq_stats.elapsed_s:8.3f} s  "
          f"({effective_trials} trials, {early} early stops)")
    print(f"  speedup    : {speedup:7.2f} x   "
          f"({decisive} decisive cells all stopped at <= half budget)")
    print(f"  counters   : {delta.get('sequential_looks', 0)} looks, "
          f"{delta.get('sequential_trials_avoided', 0)} trials avoided, "
          f"{delta.get('sequential_cycles_avoided', 0)} cycles avoided")

    write_sweep_trajectory("bench_sequential_sweep", {
        "cells": len(fixed),
        "n_runs": _N_RUNS,
        "wall_clock_s": seq_stats.elapsed_s,
        "cells_per_s": (
            len(fixed) / seq_stats.elapsed_s
            if seq_stats.elapsed_s > 0 else 0.0
        ),
        "fixed_wall_clock_s": fixed_stats.elapsed_s,
        "speedup_vs_fixed_n": speedup,
        "trials_planned": planned_trials,
        "trials_simulated": effective_trials,
        "trials_avoided": delta.get("sequential_trials_avoided", 0),
        "cycles_avoided": delta.get("sequential_cycles_avoided", 0),
        "early_stops": early,
        "decisive_cells": decisive,
        "verdicts_identical": True,
        "prefix_identical": True,
    })

    assert early > 0, "no cell stopped early at n_runs=40"
    assert decisive > 0, "sweep produced no decisive cells to check"
    assert effective_trials < planned_trials, (
        "sequential protocol simulated the full fixed-N budget"
    )


def test_sequential_single_cell_speedup(benchmark):
    """The canonical decisive cell: early exit with the same verdict.

    Both passes stream the identical per-trial seed schedule, so the
    sequential pass's samples are a byte-exact prefix of the fixed-N
    pass's and the verdicts must agree.
    """
    from repro.core.channels import ChannelType
    from repro.harness.experiment import cell_runner, run_cell
    from repro.harness.parallel import _variant_by_name
    from repro.harness.runner import (
        AdaptivePolicy,
        SequentialPolicy,
        run_sequential_cell,
    )
    from repro.perf.counters import COUNTERS, PerfCounters
    from repro.perf.observe import Stopwatch, write_sweep_trajectory

    n_runs, seed = 60, 0
    cell = (_variant_by_name("Train + Test"), ChannelType.TIMING_WINDOW,
            "lvp")

    run_cell(*cell, n_runs=4, seed=seed)  # warm the gadget/trace caches
    watch = Stopwatch()
    with watch:
        fixed = run_cell(*cell, n_runs=n_runs, seed=seed)
    fixed_s = watch.elapsed

    before = COUNTERS.snapshot()
    watch = Stopwatch()
    with watch:
        outcome = run_once(
            benchmark, run_sequential_cell,
            cell_runner(*cell, n_runs=n_runs, seed=seed),
            SequentialPolicy().design_for(n_runs),
            AdaptivePolicy(),
        )
    sequential_s = watch.elapsed
    delta = PerfCounters.delta(before, COUNTERS.snapshot())

    assert outcome.result.attack_succeeds == fixed.attack_succeeds, (
        "sequential verdict diverged from fixed-N: "
        f"{outcome.result.attack_succeeds} != {fixed.attack_succeeds}"
    )
    seq = {
        "cell": "Train + Test / timing-window / lvp",
        "n_runs": n_runs,
        "fixed_s": fixed_s,
        "sequential_s": sequential_s,
        "speedup": fixed_s / sequential_s if sequential_s > 0 else 0.0,
        "effective_n": outcome.effective_n,
        "stopped_early": bool(outcome.record["stopped_early"]),
        "looks": len(outcome.record["looks"]),
        "trials_avoided": delta.get("sequential_trials_avoided", 0),
        "cycles_avoided": delta.get("sequential_cycles_avoided", 0),
        "verdict_identical": True,
    }
    print(f"\nTrain + Test / timing-window (n_runs={n_runs}): "
          f"fixed {fixed_s:.3f}s, sequential {sequential_s:.3f}s, "
          f"{seq['speedup']:.2f}x; effective n {seq['effective_n']}"
          f"/{n_runs} after {seq['looks']} look(s)")
    write_sweep_trajectory(
        "bench_sequential_cell", seq, trials=2 * seq["effective_n"],
    )
    assert seq["stopped_early"], (
        "the canonical Train + Test cell should be decisive at n=60"
    )
    assert seq["effective_n"] <= n_runs // 2
    assert seq["speedup"] > 1.0, (
        f"sequential slower than fixed-N on a decisive cell: {seq}"
    )
