"""Dynamic confirmation of the static hunt's survivors.

The static certification (:mod:`repro.analysis.enumerate`) classifies
all 576 Table I combinations in seconds; this module closes the loop
by *measuring* the combos that matter — the twelve model-effective
classes plus any completeness counterexample the static pass flags
(candidate new variants; expected none) — through the standard
supervised harness:

* each target becomes a :class:`~repro.workloads.combos.ComboAttack`
  built from its static witness counts, so the dynamic trial realises
  exactly the count choice the abstract interpreter found admissible;
* cells stream through the group-sequential early-stopping policy
  (:class:`~repro.harness.runner.SequentialPolicy`), journaled to a
  :class:`~repro.harness.checkpoint.CheckpointStore` under
  ``<out>/hunt_checkpoint`` so an interrupted confirmation resumes;
* the static and dynamic verdicts are merged into one agreement table
  (``hunt_dynamic.json``), rendered by ``repro report --hunt``.

The static certificate (``hunt_certificate.json``) is written
separately and never depends on measurement, so ``repro hunt
--static`` output stays byte-identical across runs and machines.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.analysis.enumerate import (
    ComboVerdict,
    build_certificate,
    dynamic_targets,
    hunt_records,
)
from repro.core.channels import ChannelType
from repro.core.model import AttackCategory, _EVAL_CONFIDENCE
from repro.harness.checkpoint import CheckpointStore, atomic_write_json
from repro.harness.parallel import _slug
from repro.harness.runner import (
    ExecutionPolicy,
    ResilientExecutor,
    SequentialPolicy,
    SupervisedCell,
)
from repro.workloads.combos import ComboAttack

CERTIFICATE_FILENAME = "hunt_certificate.json"
DYNAMIC_FILENAME = "hunt_dynamic.json"


def write_certificate(
    out_dir: str, *, confidence: int = _EVAL_CONFIDENCE
) -> Dict[str, object]:
    """Run the static hunt and write ``hunt_certificate.json``.

    Returns the certificate payload; the file is deterministic
    (sorted keys, no timestamps) so repeated runs are byte-identical.
    """
    records = hunt_records(confidence=confidence)
    certificate = build_certificate(records, confidence=confidence)
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_json(
        os.path.join(out_dir, CERTIFICATE_FILENAME), certificate
    )
    return certificate


def _target_variant(record: ComboVerdict) -> ComboAttack:
    """The dynamic variant realising one static target's witness."""
    witness = record.witness
    category = record.terminal.category or record.model.category
    if category is None:
        # A candidate new variant outside Table II (completeness
        # counterexample path, expected empty): no class fits, so the
        # report row carries the combo symbol and the result record
        # borrows the enum's first slot.
        category = AttackCategory.TRAIN_TEST
    return ComboAttack(
        record.combo,
        category=category,
        train_count=witness.train_count if witness else "confidence",
        modify_count=witness.modify_count if witness else "one",
    )


def confirm_dynamic(
    records: List[ComboVerdict],
    out_dir: str,
    *,
    n_runs: int = 60,
    seed: int = 0,
    confidence: int = _EVAL_CONFIDENCE,
    predictor: str = "lvp",
    resume: bool = True,
    executor: Optional[ResilientExecutor] = None,
) -> Dict[str, object]:
    """Measure every dynamic target; write the agreement table.

    Static evidence (the witness count choice and the certificate
    verdict) and dynamic evidence (the supervised cell's sequential
    t-test) are combined per combo; ``agree`` is true when the
    measurement confirms the static leak verdict.
    """
    targets = dynamic_targets(records)
    os.makedirs(out_dir, exist_ok=True)
    if executor is None:
        store = CheckpointStore.open(
            os.path.join(out_dir, "hunt_checkpoint"),
            meta={
                "kind": "hunt-dynamic",
                "n_runs": n_runs,
                "seed": seed,
                "confidence": confidence,
                "predictor": predictor,
            },
            resume=resume,
        )
        executor = ResilientExecutor(
            policy=ExecutionPolicy(
                sequential=SequentialPolicy(),
                # ComboAttack programs are certified by the hunt's own
                # static pass; the 12-variant preflight analyzer does
                # not model arbitrary combos.
                preflight=False,
            ),
            store=store,
        )

    rows: List[Dict[str, object]] = []
    all_agree = True
    for index, record in enumerate(targets):
        variant = _target_variant(record)
        cell_id = f"hunt/{index:03d}-{_slug(record.combo.symbol)}"
        cell: SupervisedCell = executor.run_cell_supervised(
            cell_id, variant, ChannelType.TIMING_WINDOW, predictor,
            n_runs, seed, confidence=confidence,
        )
        result = cell.result
        dynamic = bool(result.attack_succeeds) if result is not None else None
        agree = dynamic is not None and dynamic == record.timing_leak
        all_agree = all_agree and agree
        witness = record.witness
        rows.append({
            "cell_id": cell_id,
            "symbol": record.combo.symbol,
            "category": (
                record.terminal.category.value
                if record.terminal.category else None
            ),
            "terminal": record.chain[-1],
            "static_effective": record.timing_leak,
            "witness": (
                f"{witness.train_count}/{witness.modify_count}"
                if witness else None
            ),
            "dynamic_effective": dynamic,
            "pvalue": result.pvalue if result is not None else None,
            "effective_n": (
                len(result.comparison.mapped) if result is not None else 0
            ),
            "classification": cell.classification.value,
            "agree": agree,
        })

    payload = {
        "schema": "hunt-dynamic/v1",
        "settings": {
            "n_runs": n_runs,
            "seed": seed,
            "confidence": confidence,
            "predictor": predictor,
            "channel": ChannelType.TIMING_WINDOW.value,
        },
        "targets": len(rows),
        "rows": rows,
        "all_agree": all_agree,
    }
    atomic_write_json(os.path.join(out_dir, DYNAMIC_FILENAME), payload)
    return payload


def run_hunt(
    out_dir: str,
    *,
    static_only: bool = False,
    n_runs: int = 60,
    seed: int = 0,
    confidence: int = _EVAL_CONFIDENCE,
    predictor: str = "lvp",
    resume: bool = True,
) -> Dict[str, object]:
    """The full hunt: static certification, then dynamic confirmation.

    Returns ``{"certificate": ..., "dynamic": ...}``; ``dynamic`` is
    ``None`` under ``static_only``.
    """
    records = hunt_records(confidence=confidence)
    certificate = build_certificate(records, confidence=confidence)
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_json(
        os.path.join(out_dir, CERTIFICATE_FILENAME), certificate
    )
    dynamic = None
    if not static_only:
        dynamic = confirm_dynamic(
            records, out_dir, n_runs=n_runs, seed=seed,
            confidence=confidence, predictor=predictor, resume=resume,
        )
    return {"certificate": certificate, "dynamic": dynamic}
