"""Persist reproduction artifacts to disk, fault-tolerantly.

``run_all`` regenerates the paper's core artifacts and writes, per
artifact, both a machine-readable JSON record and the human-readable
rendering the benches print.  This gives a reproduction run a durable
trail: what was measured, with which configuration, against which
paper values.

Robustness guarantees:

* every file write is **atomic** (write ``*.tmp`` + ``os.replace``) —
  a crash never leaves a truncated or corrupt record;
* every experiment cell runs under the **resilient executor**
  (:mod:`repro.harness.runner`): per-cell retry with reseeding,
  adaptive re-measurement around the significance threshold, and a
  failure classification (clean / retried / degraded / failed)
  attached to every artifact record;
* completed cells are **journaled** to ``<out_dir>/checkpoint`` so an
  interrupted sweep resumes from the last completed cell
  (``resume=True`` / ``--resume``) with byte-identical records.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro._version import __version__
from repro.core.attack import ExperimentResult
from repro.core.model import verdict_summary
from repro.crypto.leak import RsaAttackResult
from repro.errors import HarnessError
from repro.harness.checkpoint import (
    CheckpointStore,
    atomic_write_json,
    atomic_write_text,
)
from repro.harness.report import figure7_report, figure_report, table3_report
from repro.harness.runner import ExecutionPolicy, SupervisedCell
from repro.harness.tables import render_table1, render_table2

#: Execution record attached to records built outside the executor.
_UNSUPERVISED = {
    "classification": "clean",
    "attempts": [],
    "escalations": 0,
    "final_seed": None,
    "final_n_runs": None,
    "note": "unsupervised run",
}


def experiment_record(
    result: ExperimentResult,
    execution: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """A JSON-serialisable record of one experiment cell.

    Every record carries an ``execution`` failure-classification field;
    supervised runs pass the cell's
    :meth:`~repro.harness.runner.SupervisedCell.execution_record`.
    """
    return {
        "variant": result.variant_name,
        "category": result.category.value,
        "channel": result.channel.value,
        "predictor": result.predictor_name,
        "defense": result.defense_name,
        "pvalue": float(result.pvalue),
        "effective": bool(result.attack_succeeds),
        "mapped_mean": float(result.comparison.mapped.mean),
        "unmapped_mean": float(result.comparison.unmapped.mean),
        "mapped_samples": len(result.comparison.mapped),
        "transmission_rate_kbps": float(result.transmission_rate_kbps),
        "mean_trial_cycles": float(result.mean_trial_cycles),
        "execution": dict(execution if execution is not None
                          else _UNSUPERVISED),
    }


def rsa_record(
    result: RsaAttackResult,
    execution: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """A JSON-serialisable record of the Figure 7 run."""
    return {
        "bits": len(result.true_bits),
        "success_rate": float(result.success_rate),
        "transmission_rate_kbps": float(result.transmission_rate_kbps),
        "threshold": float(result.threshold),
        "decoded_bits": list(result.decoded_bits),
        "true_bits": list(result.true_bits),
        "observations": [float(value) for value in result.observations],
        "execution": dict(execution if execution is not None
                          else _UNSUPERVISED),
    }


def cell_record(cell: Optional[SupervisedCell]) -> Optional[Dict[str, object]]:
    """Artifact record for one supervised cell (``None`` for no-cell).

    The record carries the cell's static preflight classification
    (``"static"``) next to the dynamic p-value verdict, so ``repro
    report`` can show static/dynamic agreement per cell.
    """
    if cell is None:
        return None
    if cell.result is None:
        return {"execution": cell.execution_record(),
                "static": cell.preflight}
    record = experiment_record(cell.result, cell.execution_record())
    record["static"] = cell.preflight
    if cell.sequential is not None:
        # Only sequential cells carry the look trajectory; fixed-N
        # records keep their historical shape byte for byte.
        record["sequential"] = cell.sequential
    return record


def save_json(path: str, payload: object) -> None:
    """Write ``payload`` as pretty-printed JSON, atomically.

    Raises:
        HarnessError: If the parent directory does not exist.
    """
    atomic_write_json(path, payload)


def save_text(path: str, text: str) -> None:
    """Write a rendered artifact, atomically."""
    atomic_write_text(path, text)


#: Figure 5/8 renderings: (heading, mapped label, unmapped label).
_FIGURE_RENDERINGS = {
    "fig5": ("Figure 5: Train + Test attacks",
             "mapped index", "unmapped index"),
    "fig8": ("Figure 8: Test + Hit attacks",
             "mapped data", "unmapped data"),
}


def run_all(
    out_dir: str,
    n_runs: int = 100,
    seed: int = 0,
    artifacts: Optional[List[str]] = None,
    *,
    resume: bool = False,
    fault_profile_name: Optional[str] = None,
    policy: Optional[ExecutionPolicy] = None,
    workers: Optional[int] = None,
    cell_timeout_s: Optional[float] = None,
) -> Dict[str, str]:
    """Regenerate and persist the selected artifacts, resumably.

    The supervised cells of every chosen artifact come from
    :func:`repro.harness.parallel.artifact_plan` and run in one
    :func:`repro.harness.parallel.run_cells` call; the artifacts are
    rendered from the cells it returns.

    Args:
        out_dir: Existing directory to write into.
        n_runs: Trials per hypothesis for the attack experiments.
        seed: Base seed.
        artifacts: Subset of {"table1", "table2", "fig5", "fig7",
            "fig8", "table3"}; all of them when omitted.
        resume: Reuse cells journaled under ``<out_dir>/checkpoint``
            by a previous (interrupted) run with the same parameters.
        fault_profile_name: Optional fault profile to inject (mainly
            for robustness testing of the harness itself).
        policy: Execution policy for every cell; default
            :meth:`ExecutionPolicy.robust`.  Its ``sequential`` policy
            is recorded in the checkpoint metadata, so a ``--resume``
            across modes is rejected.  Its ``backend`` and
            ``strict_preflight`` are deliberately *not* recorded: they
            change no journaled bytes (backends are byte-identical by
            contract), so resuming a scalar checkpoint under
            ``batched`` is sound and replays the same records.
        workers: Supervised-pool width for the cells; ``None`` reads
            :data:`repro.harness.parallel.WORKERS_ENV` and falls back
            to 1 (in-process).  Records are byte-identical for any
            worker count.
        cell_timeout_s: Per-cell wall-clock deadline with
            ``workers > 1`` (``None`` uses
            :data:`repro.harness.parallel.DEFAULT_CELL_TIMEOUT_S`).  A
            hung worker is killed at the deadline and the cell is
            redispatched deterministically.

    Returns:
        Mapping from artifact name to the path of its rendering.

    Raises:
        HarnessError: For unknown artifact names, a missing out_dir,
            or a resume against an incompatible checkpoint.
    """
    from repro.harness.parallel import (
        DEFAULT_CELL_TIMEOUT_S,
        artifact_plan,
        default_workers,
        run_cells,
        table3_grid,
    )

    if not os.path.isdir(out_dir):
        raise HarnessError(f"output directory {out_dir!r} does not exist")
    known = ("table1", "table2", "fig5", "fig7", "fig8", "table3")
    chosen = list(artifacts) if artifacts is not None else list(known)
    for name in chosen:
        if name not in known:
            raise HarnessError(f"unknown artifact {name!r}; choose from {known}")
    policy = policy or ExecutionPolicy.robust()

    written: Dict[str, str] = {}
    meta: Dict[str, object] = {
        "version": __version__, "n_runs": n_runs, "seed": seed,
    }
    if policy.sequential is not None:
        # Only recorded when on: fixed-N checkpoint metadata keeps its
        # historical shape, and a resume across fixed-N/sequential
        # modes (or differing look schedules) is rejected by the
        # compatibility check.
        meta["sequential"] = policy.sequential.to_meta()
    plan = artifact_plan(chosen, n_runs=n_runs, seed=seed)
    cells: Dict[str, SupervisedCell] = {}
    if plan:
        store = CheckpointStore.open(
            os.path.join(out_dir, "checkpoint"), meta, resume=resume,
        )
        cells = run_cells(
            [spec for rows in plan.values() for _, spec in rows],
            store,
            policy,
            workers=workers if workers is not None else default_workers(),
            fault_profile_name=fault_profile_name,
            fault_seed=seed,
            cell_timeout_s=(
                cell_timeout_s if cell_timeout_s is not None
                else DEFAULT_CELL_TIMEOUT_S
            ),
        ).cells

    if "table1" in chosen:
        path = os.path.join(out_dir, "table1.txt")
        save_text(path, render_table1())
        written["table1"] = path
    if "table2" in chosen:
        path = os.path.join(out_dir, "table2.txt")
        save_text(path, render_table2())
        save_json(
            os.path.join(out_dir, "table2.json"),
            {**meta, "verdicts": {
                verdict.value: count
                for verdict, count in verdict_summary().items()
            }},
        )
        written["table2"] = path
    for figure, (heading, mapped, unmapped) in _FIGURE_RENDERINGS.items():
        if figure not in plan:
            continue
        panels = [(title, cells[spec.cell_id]) for title, spec in plan[figure]]
        path = os.path.join(out_dir, f"{figure}.txt")
        save_text(path, figure_report(
            heading,
            [(title, cell.result) for title, cell in panels
             if cell.result is not None],
            mapped_label=mapped, unmapped_label=unmapped,
        ))
        save_json(
            os.path.join(out_dir, f"{figure}.json"),
            {**meta, "panels": {
                title: cell_record(cell) for title, cell in panels
            }},
        )
        written[figure] = path
    if "fig7" in plan:
        [(_, spec)] = plan["fig7"]
        cell = cells[spec.cell_id]
        path = os.path.join(out_dir, "fig7.txt")
        if cell.result is not None:
            save_text(path, figure7_report(cell.result))
            save_json(
                os.path.join(out_dir, "fig7.json"),
                {**meta, **rsa_record(cell.result, cell.execution_record())},
            )
        else:
            save_text(path, "Figure 7: cell failed permanently")
            save_json(
                os.path.join(out_dir, "fig7.json"),
                {**meta, "execution": cell.execution_record()},
            )
        written["fig7"] = path
    if "table3" in plan:
        rows = plan["table3"]
        path = os.path.join(out_dir, "table3.txt")
        save_text(path, table3_report(
            table3_grid(rows, lambda spec: cells[spec.cell_id].result)
        ))
        records = table3_grid(
            rows, lambda spec: cell_record(cells[spec.cell_id])
        )
        save_json(
            os.path.join(out_dir, "table3.json"),
            {**meta, "cells": {
                category.value: slots for category, slots in records.items()
            }},
        )
        written["table3"] = path

    if plan:
        processed = list(cells.values())
        summary: Dict[str, int] = {}
        for cell in processed:
            label = cell.classification.value
            summary[label] = summary.get(label, 0) + 1
        payload: Dict[str, object] = {
            **meta, "cells": len(processed), "classifications": summary,
        }
        seq_records = [
            cell.sequential for cell in processed
            if cell.sequential is not None
        ]
        if seq_records:
            # Sweep-level early-stopping yield (only present when the
            # sequential engine ran, so fixed-N summaries keep their
            # historical shape).
            planned = sum(2 * int(s["planned_n"]) for s in seq_records)
            effective = sum(2 * int(s["effective_n"]) for s in seq_records)
            payload["sequential_summary"] = {
                "cells": len(seq_records),
                "early_stops": sum(
                    1 for s in seq_records if s["stopped_early"]
                ),
                "planned_trials": planned,
                "effective_trials": effective,
                "trials_avoided": sum(
                    int(s["trials_avoided"]) for s in seq_records
                ),
            }
        save_json(os.path.join(out_dir, "run_summary.json"), payload)
    return written
