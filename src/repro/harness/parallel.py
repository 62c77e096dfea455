"""The paper's cell plan and the one engine that runs it.

The paper's artifacts decompose into independent *cells* — one
(variant, channel, predictor) experiment or the Figure 7 RSA run.
:func:`artifact_plan` is the only enumeration of those cells: every
driver (``repro all``, the ``fig5``/``fig8``/``table3``/``fig7``
commands, the benches) reads its cells from it.

Every cell is a pure function of its ``(cell_id, seed, policy, fault
profile)`` inputs:

* trial seeds derive only from the cell's base seed and trial index;
* fault-injection draws are keyed by ``(profile, seed, cell_id,
  attempt)`` (order-independent by construction, see
  :mod:`repro.harness.faults`);
* retry reseeding mixes in the cell id
  (:func:`repro.harness.runner.cell_seed_index`), so retry streams do
  not depend on which cells ran before.

Cells can therefore execute in any order, in any process, and produce
byte-identical journal payloads.  :func:`run_cells` exploits that: it
runs the cells in-process or shards them across a supervised
persistent worker pool (:mod:`repro.serve.supervisor` — heartbeats,
hang detection, per-cell deadlines, restart backoff).  Either way each
cell goes through :func:`run_spec`, the parent is the **single
writer** of the :class:`~repro.harness.checkpoint.CheckpointStore`
(atomic per-cell files), and every spec's
:class:`~repro.harness.runner.SupervisedCell` comes back in
:attr:`SweepStats.cells` — cached, run or failed — so callers render
from the returned cells without a second pass.

Failed cells are deliberately **not** journaled (matching the
executor): a resumed sweep re-attempts them, deterministically
reproducing the same failure record.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import threading
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.core.channels import ChannelType
from repro.core.model import AttackCategory
from repro.core.variants import ALL_VARIANTS, AttackVariant
from repro.errors import HarnessError
from repro.harness.checkpoint import CheckpointStore
from repro.harness.faults import FaultInjector, FaultProfile, fault_profile
from repro.harness.runner import (
    CellClassification,
    ExecutionPolicy,
    ResilientExecutor,
    SupervisedCell,
)
from repro.memory.hierarchy import MemoryConfig
from repro.perf.counters import COUNTERS, PerfCounters
from repro.perf.observe import now
from repro.sim import (
    clear_fallback_journal,
    fallback_journal,
    record_fallbacks,
)

#: Environment variable consulted for a default worker count (used by
#: the CI matrix job to run the whole quick suite under ``--workers 2``
#: without threading a flag through every entry point).
WORKERS_ENV = "REPRO_WORKERS"

#: Default per-cell wall-clock budget in the parallel path.  Generous —
#: the slowest Table III cell is seconds, not minutes — but finite, so
#: a hung worker can no longer stall a sweep forever.
DEFAULT_CELL_TIMEOUT_S = 600.0

#: Dispatch attempts per cell before the sweep gives up loudly.
#: Redispatches are deterministic (the cell payload is a pure function
#: of its spec), so retrying after a worker death cannot change the
#: result — only recover it.
DEFAULT_CELL_DISPATCHES = 5


def default_workers() -> int:
    """Worker count from :data:`WORKERS_ENV`, else 1 (serial)."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise HarnessError(
            f"{WORKERS_ENV} must be an integer, got {raw!r}"
        ) from None
    if workers < 1:
        raise HarnessError(f"{WORKERS_ENV} must be >= 1, got {workers}")
    return workers


# ----------------------------------------------------------------------
# Cell specifications and the paper's cell plan
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CellSpec:
    """A pickle-safe description of one supervised sweep cell.

    ``kind`` is ``"experiment"`` (a mapped-vs-unmapped attack cell) or
    ``"rsa"`` (the Figure 7 exponent leak).  Variants are referenced by
    their public name and resolved in the executing process, so a spec
    never carries live simulator state across the process boundary.
    """

    cell_id: str
    kind: str = "experiment"
    variant: str = ""
    channel: str = ""
    predictor: str = ""
    n_runs: int = 100
    seed: int = 0
    exponent: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("experiment", "rsa"):
            raise HarnessError(f"unknown cell kind {self.kind!r}")
        if self.kind == "experiment" and not self.variant:
            raise HarnessError(f"cell {self.cell_id!r} names no variant")


def _variant_by_name(name: str) -> AttackVariant:
    for variant in ALL_VARIANTS:
        if variant.name == name:
            return variant
    raise HarnessError(f"unknown attack variant {name!r}")


def _slug(text: str) -> str:
    collapsed = re.sub(
        r"-+", "-",
        "".join(ch if ch.isalnum() else "-" for ch in text.lower()),
    )
    return collapsed.strip("-")


#: The attacked variant of each Figure 5/8, by artifact name.
_FIGURE_VARIANTS = {"fig5": "Train + Test", "fig8": "Test + Hit"}

#: The four Figure 5/8 panels, in paper order: (title, channel,
#: predictor).
_FIGURE_PANELS: Tuple[Tuple[str, ChannelType, str], ...] = (
    ("(1) Timing-Window Channel (no VP)", ChannelType.TIMING_WINDOW, "none"),
    ("(2) Timing-Window Channel (LVP)", ChannelType.TIMING_WINDOW, "lvp"),
    ("(3) Persistent Channel (no VP)", ChannelType.PERSISTENT, "none"),
    ("(4) Persistent Channel (LVP)", ChannelType.PERSISTENT, "lvp"),
)

#: Table III's per-category slots, in column order; a variant without
#: the persistent channel leaves its ``pc_*`` slots empty.
_TABLE3_SLOTS = ("tw_novp", "tw_vp", "pc_novp", "pc_vp")

#: A plan row's label: a panel title (fig5/fig8), ``None`` (fig7) or a
#: ``(category, slot)`` pair (table3).
PlanLabel = Union[str, None, Tuple[AttackCategory, str]]


def artifact_plan(
    artifacts: Sequence[str],
    n_runs: int = 100,
    seed: int = 0,
    predictor: str = "lvp",
) -> Dict[str, List[Tuple[PlanLabel, CellSpec]]]:
    """The supervised cells behind the chosen artifacts, per artifact.

    The single enumeration of the paper's cells: ids, per-cell
    parameters and order are decided here and nowhere else.  Artifacts
    without cells (``table1``/``table2``) are skipped; the result keeps
    the fixed order fig5, fig8, fig7, table3 whatever order
    ``artifacts`` names them in.  ``predictor`` is Table III's VP
    column; the figure panels always use the LVP.
    """
    plan: Dict[str, List[Tuple[PlanLabel, CellSpec]]] = {}
    for figure, variant_name in _FIGURE_VARIANTS.items():
        if figure in artifacts:
            plan[figure] = [
                (title, CellSpec(
                    cell_id=f"{figure}/{channel.value}-{panel_predictor}",
                    variant=variant_name,
                    channel=channel.value,
                    predictor=panel_predictor,
                    n_runs=n_runs,
                    seed=seed,
                ))
                for title, channel, panel_predictor in _FIGURE_PANELS
            ]
    if "fig7" in artifacts:
        from repro.harness.experiment import FIGURE7_EXPONENT

        plan["fig7"] = [(None, CellSpec(
            cell_id="fig7/rsa", kind="rsa", seed=7,
            exponent=FIGURE7_EXPONENT,
        ))]
    if "table3" in artifacts:
        rows: List[Tuple[PlanLabel, CellSpec]] = []
        for variant in ALL_VARIANTS:
            slug = _slug(variant.category.value)
            cells = [
                ("tw_novp", ChannelType.TIMING_WINDOW, "none"),
                ("tw_vp", ChannelType.TIMING_WINDOW, predictor),
            ]
            if ChannelType.PERSISTENT in variant.supported_channels:
                cells += [
                    ("pc_novp", ChannelType.PERSISTENT, "none"),
                    ("pc_vp", ChannelType.PERSISTENT, predictor),
                ]
            for slot, channel, cell_predictor in cells:
                rows.append(((variant.category, slot), CellSpec(
                    cell_id=f"table3/{slug}/{slot}",
                    variant=variant.name,
                    channel=channel.value,
                    predictor=cell_predictor,
                    n_runs=n_runs,
                    seed=seed,
                )))
        plan["table3"] = rows
    return plan


def sweep_specs(
    artifacts: Sequence[str],
    n_runs: int = 100,
    seed: int = 0,
    predictor: str = "lvp",
) -> List[CellSpec]:
    """The :func:`artifact_plan` cells of ``artifacts``, flattened."""
    return [
        spec
        for rows in artifact_plan(artifacts, n_runs, seed, predictor).values()
        for _, spec in rows
    ]


def table3_grid(
    rows: Sequence[Tuple[Any, CellSpec]],
    value_of: Callable[[CellSpec], Any],
) -> Dict[AttackCategory, Dict[str, Any]]:
    """Table III's category x slot grid over the plan's table3 rows.

    ``value_of`` maps each planned spec to its grid entry; slots a
    variant does not run stay ``None``.
    """
    grid: Dict[AttackCategory, Dict[str, Any]] = {}
    for (category, slot), spec in rows:
        grid.setdefault(category, dict.fromkeys(_TABLE3_SLOTS))[slot] = (
            value_of(spec)
        )
    return grid


def execute_spec(spec: CellSpec, executor: ResilientExecutor) -> SupervisedCell:
    """Run one spec through an executor."""
    if spec.kind == "rsa":
        from repro.harness.experiment import RSA_DRAM

        return executor.run_rsa_supervised(
            spec.cell_id,
            spec.exponent if spec.exponent is not None else 0,
            seed=spec.seed,
            memory_config=MemoryConfig(dram=RSA_DRAM),
        )
    return executor.run_cell_supervised(
        spec.cell_id,
        _variant_by_name(spec.variant),
        ChannelType(spec.channel),
        spec.predictor,
        spec.n_runs,
        spec.seed,
    )


def run_spec(spec: CellSpec, executor: ResilientExecutor) -> Dict[str, object]:
    """Run one spec; return its cell payload plus telemetry.

    The one cell body of every sweep and serve path, in-process or in
    a worker.  The result is picklable: ``payload`` is the cell's
    journal payload (shipped for failed cells too, which the caller
    must not journal), ``counters`` the perf-counter delta,
    ``fallbacks`` the batched→scalar fallback events this cell added
    to the process-local journal, and ``busy_s`` its wall clock.
    """
    before = COUNTERS.snapshot()
    fallback_mark = len(fallback_journal())
    started = now()
    cell = execute_spec(spec, executor)
    return {
        "cell_id": spec.cell_id,
        "failed": cell.classification is CellClassification.FAILED,
        "payload": cell.to_payload(),
        "note": cell.note,
        "counters": PerfCounters.delta(before, COUNTERS.snapshot()),
        "fallbacks": fallback_journal()[fallback_mark:],
        "busy_s": now() - started,
    }


# ----------------------------------------------------------------------
# Worker side (shared by sweeps and the serve daemon)
# ----------------------------------------------------------------------

_WORKER_INJECTOR: Optional[FaultInjector] = None


def init_worker(profile: Optional[FaultProfile], fault_seed: int) -> None:
    """Per-process worker state: the fault injector, fresh telemetry."""
    global _WORKER_INJECTOR
    _WORKER_INJECTOR = (
        FaultInjector(profile, seed=fault_seed)
        if profile is not None else None
    )
    COUNTERS.reset()
    clear_fallback_journal()


def run_task(task: Tuple[CellSpec, ExecutionPolicy]) -> Dict[str, object]:
    """Worker entry: :func:`run_spec` under the task's policy.

    The executor has no store: the parent journals the shipped payload.
    """
    spec, policy = task
    return run_spec(spec, ResilientExecutor(policy, injector=_WORKER_INJECTOR))


def _resolve_profile(
    fault_profile_name: Optional[str],
    fault_profile_obj: Optional[FaultProfile],
) -> Optional[FaultProfile]:
    """One profile from either a registry name or a literal object."""
    if fault_profile_obj is not None:
        return fault_profile_obj
    if fault_profile_name:
        return fault_profile(fault_profile_name)
    return None


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

@dataclass
class SweepStats:
    """What one :func:`run_cells` call did, and every cell it returns."""

    workers: int
    #: Workers that could actually run cells concurrently: 1 when the
    #: in-process path executed (workers == 1 or <= 1 pending cell),
    #: else ``min(workers, pending cells)``.  Benches use this to
    #: refuse to stamp a "parallel" record that effectively ran
    #: serially.
    effective_workers: int = 0
    cells_total: int = 0
    cells_cached: int = 0
    cells_run: int = 0
    cells_failed: int = 0
    elapsed_s: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    #: (cell, reason) batched→scalar fallbacks from every process that
    #: ran cells for this pass — workers ship theirs back, so this is
    #: the sweep-wide view, not the parent's.
    fallback_events: List[tuple] = field(default_factory=list)
    #: Every spec's cell by cell id — replayed from the journal, run,
    #: or failed (failed cells are returned but never journaled).
    cells: Dict[str, SupervisedCell] = field(default_factory=dict)

    @property
    def cells_per_s(self) -> float:
        """Cells completed per wall-clock second."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.cells_run / self.elapsed_s


def run_cells(
    specs: Sequence[CellSpec],
    store: Optional[CheckpointStore],
    policy: Optional[ExecutionPolicy] = None,
    *,
    workers: int = 1,
    fault_profile_name: Optional[str] = None,
    fault_seed: int = 0,
    fault_profile_obj: Optional[FaultProfile] = None,
    cell_timeout_s: Optional[float] = DEFAULT_CELL_TIMEOUT_S,
    max_dispatches: int = DEFAULT_CELL_DISPATCHES,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepStats:
    """Execute ``specs``, journaling results into ``store``.

    Cells already in the store are replayed through an executor bound
    to it (no simulation; ``strict_preflight`` still checks the
    journaled verdicts).  The rest go through :func:`run_spec`:

    * with ``workers == 1`` (or at most one pending cell) in-process;
    * otherwise on a supervised persistent worker pool
      (:class:`repro.serve.supervisor.WorkerSupervisor`), which adds a
      per-cell wall-clock deadline (``cell_timeout_s``), heartbeat-based
      hang detection, and deterministic redispatch after a worker
      death — a redispatched cell reruns the identical spec and yields
      the byte-identical payload.  A cell that exhausts
      ``max_dispatches`` or raises out of the executor fails the sweep
      loudly.  (No deadline applies in-process: the parent cannot
      preempt itself.)

    In both modes the parent journals each non-failed payload as soon
    as it arrives, so an interrupt or crash later loses nothing already
    completed.  When called from the main thread with ``workers > 1``,
    SIGINT is handled cleanly: outstanding cells are cancelled and
    ``KeyboardInterrupt`` is raised so the CLI exits nonzero and
    ``--resume`` picks up from the flushed journal.

    Every spec's cell is returned in :attr:`SweepStats.cells`.  Journal
    payloads and returned cells are byte-identical for any worker
    count; the determinism tests hash them across worker counts.
    """
    if workers < 1:
        raise HarnessError(f"workers must be >= 1, got {workers}")
    policy = policy or ExecutionPolicy()
    profile = _resolve_profile(fault_profile_name, fault_profile_obj)
    injector = (
        FaultInjector(profile, seed=fault_seed)
        if profile is not None else None
    )
    stats = SweepStats(workers=workers, cells_total=len(specs))
    started = now()
    counters = PerfCounters()

    replay = ResilientExecutor(policy, injector=injector, store=store)
    pending: List[CellSpec] = []
    for spec in specs:
        if store is not None and store.has(spec.cell_id):
            stats.cells_cached += 1
            stats.cells[spec.cell_id] = execute_spec(spec, replay)
        else:
            pending.append(spec)

    def collect(result: Dict[str, object]) -> None:
        cell_id = str(result["cell_id"])
        payload = result["payload"]
        counters.add(result["counters"])
        stats.fallback_events.extend(result["fallbacks"])
        stats.cells_run += 1
        if result["failed"]:
            stats.cells_failed += 1
        elif store is not None:
            store.save(cell_id, payload)
        cell = SupervisedCell.from_payload(payload)
        stats.cells[cell_id] = cell
        if progress is not None:
            progress(f"{cell_id}: {cell.classification.value}")

    if workers == 1 or len(pending) <= 1:
        stats.effective_workers = 1
        executor = ResilientExecutor(policy, injector=injector)
        for spec in pending:
            collect(run_spec(spec, executor))
        stats.elapsed_s = now() - started
        stats.counters = counters.snapshot()
        return stats

    from repro.serve.supervisor import SupervisorPolicy, WorkerSupervisor

    stats.effective_workers = min(workers, len(pending))
    outcomes: "queue.Queue" = queue.Queue()
    supervisor = WorkerSupervisor(
        SupervisorPolicy(
            workers=workers,
            job_timeout_s=cell_timeout_s,
            max_dispatches=max_dispatches,
        ),
        run_fn=run_task,
        init_fn=init_worker,
        init_args=(profile, fault_seed),
        fault_profile=profile,
        fault_seed=fault_seed,
    ).start()

    interrupted = threading.Event()
    previous_handler: Any = None
    in_main_thread = (
        threading.current_thread() is threading.main_thread()
    )
    if in_main_thread:
        def _on_sigint(signum: int, frame: object) -> None:
            interrupted.set()
            supervisor.interrupt()

        previous_handler = signal.signal(signal.SIGINT, _on_sigint)

    failure: Optional[str] = None
    try:
        for spec in pending:
            supervisor.submit(spec.cell_id, (spec, policy), outcomes.put)
        received = 0
        while received < len(pending):
            try:
                outcome = outcomes.get(timeout=0.2)
            except queue.Empty:
                if interrupted.is_set():
                    break
                continue
            received += 1
            if outcome.status == "done":
                # Fold the worker's fallbacks into this process's
                # journal too, so `fallback_journal()` stays the one
                # source of truth regardless of sharding.
                record_fallbacks(outcome.value["fallbacks"])
                collect(outcome.value)
            elif outcome.status == "cancelled":
                continue
            else:  # "error" or "lost": fail the sweep loudly
                failure = (
                    f"cell {outcome.task_id!r} {outcome.status} after "
                    f"{outcome.dispatches} dispatch(es): {outcome.error}"
                )
                break
    finally:
        supervisor.shutdown()
        supervisor.join(timeout=30.0)
        if in_main_thread:
            signal.signal(signal.SIGINT, previous_handler)

    stats.elapsed_s = now() - started
    stats.counters = counters.snapshot()
    # Fold worker counters into this process's totals so counter
    # readers see the whole sweep regardless of sharding.
    COUNTERS.add(stats.counters)
    if failure is not None:
        raise HarnessError(failure)
    if interrupted.is_set():
        raise KeyboardInterrupt
    return stats
