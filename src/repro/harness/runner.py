"""The resilient execution layer: supervised experiment cells.

The paper's headline artifacts are statistical sweeps — Table III runs
all twelve attack variants across channels and predictors with
100-run t-tests — and a single noisy cell, hung simulation or crash
mid-sweep must not lose the run.  :class:`ResilientExecutor` wraps
every experiment cell with:

* **retry with reseeding** — any
  :class:`~repro.errors.ReproError` raised by a cell (including
  injected crashes and watchdog aborts) is retried up to
  ``max_retries`` times, each attempt under a deterministically
  derived fresh seed;
* a **cycle-budget watchdog** — a per-trial bound threaded into the
  core's ``max_cycles`` (runaway simulations abort with
  :class:`~repro.errors.SimulationError`) plus a per-cell budget that
  stops adaptive escalation once the cell has simulated that many
  cycles;
* **one streaming attempt per cell** — every experiment cell streams
  its trials through :func:`run_sequential_cell`.  A fixed-N cell is
  the one-look design ``(n_runs,)``; under :class:`SequentialPolicy`
  the cell is examined at pre-registered interim looks against an
  alpha-spending boundary (:mod:`repro.stats.sequential`) and stops
  as soon as the verdict is decisive;
* **adaptive re-measurement** — when the last look lands in an
  inconclusive band around ``ALPHA``, the cell *extends* the same
  stream to ``n_runs * escalation_factor`` trials instead of reporting
  a flaky verdict: all prior trials are kept and more are drawn from
  the same per-trial seed schedule, so the extended sample is
  byte-identical to a cold run at the larger ``n_runs``;
* **checkpoint/resume** — completed cells are journaled atomically to
  a :class:`~repro.harness.checkpoint.CheckpointStore`, and re-running
  a sweep over the same store reuses every journaled cell verbatim.

Every cell carries a **failure classification** into its artifact
record: ``clean`` (first attempt, no intervention), ``retried``
(recovered after retries or escalation), ``degraded`` (produced a
result with weakened guarantees) or ``failed`` (no result).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace as dc_replace
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.attack import (
    AttackRunner,
    ExperimentResult,
    make_predictor,
)
from repro.core.channels import ChannelType
from repro.core.variants import AttackVariant
from repro.crypto.leak import RsaAttackConfig, RsaVpAttack
from repro.crypto.mpi import Mpi
from repro.errors import (
    BudgetExceededError,
    HarnessError,
    ReproError,
)
from repro.harness.checkpoint import (
    CheckpointStore,
    deserialize_result,
    serialize_result,
)
from repro.harness.faults import FaultInjector
from repro.memory.hierarchy import MemoryConfig
from repro.perf.counters import COUNTERS
from repro.stats.distributions import TimingDistribution
from repro.stats.sequential import (
    DEFAULT_LOOK_FRACTIONS,
    GroupSequentialTest,
    MIN_LOOK_TRIALS,
    SequentialDesign,
    default_looks,
)
from repro.stats.summary import DistributionComparison
from repro.stats.ttest import ALPHA


def reseed(base_seed: int, attempt: int, cell_index: int = 0) -> int:
    """Deterministic per-attempt seed; attempt 0 is the base seed.

    ``cell_index`` decorrelates retry streams between cells: the whole
    sweep shares one base seed, so without it every cell's attempt-1
    seed would be identical — correlated retry noise that a parallel
    run (which executes cells in arbitrary order) would bake into the
    artifacts.  Pass a stable per-cell value
    (:func:`cell_seed_index` of the cell id); attempt 0 always returns
    the base seed so first attempts match the historical serial
    behaviour.
    """
    if attempt == 0:
        return base_seed
    return (
        base_seed * 1_000_003 + attempt * 7_919_993 + cell_index * 65_537
    ) % 2_147_483_647


def cell_seed_index(cell_id: str) -> int:
    """A stable small integer derived from a cell id (for reseeding)."""
    return zlib.crc32(cell_id.encode("utf-8"))


class CellClassification(str, Enum):
    """Failure classification attached to every artifact record."""

    CLEAN = "clean"
    RETRIED = "retried"
    DEGRADED = "degraded"
    FAILED = "failed"


@dataclass(frozen=True)
class RetryPolicy:
    """Per-cell retry behaviour.

    Attributes:
        max_retries: Retries after the first attempt (0 = fail fast).
    """

    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise HarnessError("max_retries must be >= 0")


@dataclass(frozen=True)
class AdaptivePolicy:
    """Re-measurement escalation around the significance threshold.

    A p-value inside ``[band_low, band_high)`` is *inconclusive*: too
    close to ``ALPHA`` for the verdict to be trusted at the current
    sample size.  :func:`run_sequential_cell` then extends the cell's
    sample by ``escalation_factor`` (up to ``max_escalations`` times)
    instead of reporting a flaky verdict.
    """

    band_low: float = ALPHA / 2
    band_high: float = ALPHA * 2
    escalation_factor: int = 2
    max_escalations: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.band_low < self.band_high <= 1.0:
            raise HarnessError(
                "inconclusive band must satisfy 0 <= low < high <= 1"
            )
        if self.escalation_factor < 2:
            raise HarnessError("escalation_factor must be >= 2")
        if self.max_escalations < 0:
            raise HarnessError("max_escalations must be >= 0")

    def inconclusive(self, pvalue: float) -> bool:
        """True when the verdict should not be trusted yet."""
        return self.band_low <= pvalue < self.band_high


@dataclass(frozen=True)
class SequentialPolicy:
    """Group-sequential early stopping for experiment cells.

    Each cell's requested ``n_runs`` becomes the hard cap of a
    group-sequential design (:class:`repro.stats.sequential.SequentialDesign`):
    trials stream in boundary-aligned batches and the cell stops as
    soon as an interim look crosses the alpha-spending boundary.  The
    final look applies the paper's plain fixed-N criterion, so a cell
    that never stops early reports exactly the fixed-N verdict.

    Attributes:
        looks: Explicit cumulative trial counts; ``None`` uses the
            classic 20/40/60/80/100% five-look plan of each cell's
            ``n_runs``.  Counts at or above a cell's ``n_runs`` are
            dropped and the cap itself is always appended, so one
            schedule serves sweeps with mixed per-cell budgets.
    """

    looks: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.looks is not None:
            if not self.looks:
                raise HarnessError("explicit looks must be non-empty")
            if any(n < MIN_LOOK_TRIALS for n in self.looks):
                raise HarnessError(
                    f"every look needs >= {MIN_LOOK_TRIALS} trials, "
                    f"got {self.looks}"
                )
            if any(b <= a for a, b in zip(self.looks, self.looks[1:])):
                raise HarnessError(
                    f"looks must be strictly increasing, got {self.looks}"
                )

    def design_for(self, n_runs: int) -> SequentialDesign:
        """The concrete design for a cell with cap ``n_runs``."""
        if self.looks is not None:
            counts = tuple(n for n in self.looks if n < n_runs) + (n_runs,)
        else:
            counts = default_looks(n_runs)
        return SequentialDesign(looks=counts)

    def to_meta(self) -> Dict[str, object]:
        """JSON-safe settings record (checkpoint-manifest comparable).

        The fraction plan, alpha, spending function and final-look rule
        are constants; they stay in the record so existing checkpoint
        manifests keep comparing equal.
        """
        return {
            "look_fractions": list(DEFAULT_LOOK_FRACTIONS),
            "looks": list(self.looks) if self.looks is not None else None,
            "alpha": ALPHA,
            "spending": "obrien-fleming",
            "final_level": "fixed-n",
        }


@dataclass(frozen=True)
class ExecutionPolicy:
    """Everything the supervised executor enforces per cell.

    Attributes:
        retry: Retry behaviour.
        adaptive: Optional inconclusive-band re-measurement: the cell
            keeps all prior trials and extends its stream.
        sequential: Optional group-sequential early stopping
            (:class:`SequentialPolicy`); ``None`` runs each cell as the
            one-look fixed-N design.
        max_trial_cycles: Per-trial watchdog, threaded into the core's
            ``max_cycles`` bound.
        cell_cycle_budget: Simulated-cycle budget per cell: no
            escalation starts once the cell has simulated this many
            cycles, and a budget of 0 or less fails the cell with
            :class:`~repro.errors.BudgetExceededError` before it runs.
        fail_fast: Re-raise instead of recording a ``failed`` cell.
        preflight: Statically validate each cell with
            :func:`repro.analysis.preflight.preflight_cell` before its
            first attempt, raising
            :class:`~repro.errors.AnalysisError` on contradictions so
            no simulation budget is spent on a doomed cell.  Cached
            (resumed) cells are never re-analysed.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    adaptive: Optional[AdaptivePolicy] = None
    sequential: Optional[SequentialPolicy] = None
    max_trial_cycles: Optional[int] = None
    #: Simulation backend for every cell's trial loop (repro.sim);
    #: ``None`` follows ``$REPRO_BACKEND`` and defaults to scalar.
    #: Explicit per-cell ``backend`` overrides still win.
    backend: Optional[str] = None
    cell_cycle_budget: Optional[float] = None
    fail_fast: bool = False
    preflight: bool = True
    #: Treat a static/dynamic verdict disagreement as a hard
    #: :class:`~repro.errors.AnalysisSoundnessError` instead of a
    #: report-time warning.  Applies after the cell completes (cached
    #: cells included: the journaled preflight record is compared
    #: against the journaled dynamic verdict).
    strict_preflight: bool = False

    @classmethod
    def compat(cls) -> "ExecutionPolicy":
        """The default policy, ``cls()``, under an older name.

        Kept only because ``perfbench/oracle.py`` still calls it; new
        code writes ``ExecutionPolicy()``.
        """
        return cls()

    @classmethod
    def robust(cls, max_retries: int = 2) -> "ExecutionPolicy":
        """The full-sweep policy: retries plus adaptive re-measurement."""
        return cls(
            retry=RetryPolicy(max_retries=max_retries),
            adaptive=AdaptivePolicy(),
        )


@dataclass
class AttemptRecord:
    """One attempt at one cell."""

    attempt: int
    seed: int
    n_runs: Optional[int]
    error: Optional[str] = None
    error_type: Optional[str] = None

    def to_payload(self) -> Dict[str, object]:
        return {
            "attempt": self.attempt,
            "seed": self.seed,
            "n_runs": self.n_runs,
            # Retries never wait; the key stays for the record format.
            "backoff_s": 0.0,
            "error": self.error,
            "error_type": self.error_type,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "AttemptRecord":
        return cls(
            attempt=int(payload["attempt"]),
            seed=int(payload["seed"]),
            n_runs=(None if payload.get("n_runs") is None
                    else int(payload["n_runs"])),
            error=payload.get("error"),
            error_type=payload.get("error_type"),
        )


@dataclass
class AttemptOutcome:
    """What one successful attempt at a cell produced.

    The value every ``attempt_fn`` handed to
    :meth:`ResilientExecutor.supervise` returns.

    Attributes:
        result: The cell's result.
        levels: ``n_runs`` of each attempt record to journal, the
            attempt's own first; every later entry is one escalation
            that extended the sample (the fixed-N record shape).  Empty
            keeps the requested ``n_runs``.
        escalations: Inconclusive-band escalations performed.
        note: Why the result is degraded; empty when it is not.
        sequential: Look trajectory of a group-sequential cell
            (:attr:`SequentialOutcome.record`); ``None`` otherwise.
    """

    result: object
    levels: Tuple[int, ...] = ()
    escalations: int = 0
    note: str = ""
    sequential: Optional[Dict[str, object]] = None


@dataclass
class SequentialOutcome:
    """What one streaming attempt at an experiment cell produced.

    Returned by :func:`run_sequential_cell`.

    Attributes:
        result: The experiment result over every trial actually
            streamed (its t-test covers the full collected sample, so
            ``attack_succeeds`` stays the authoritative verdict).
        record: JSON-safe look trajectory / boundary record, including
            the ``extensions`` the adaptive policy made.
        note: Degradation reason when the cell stayed inconclusive
            after its last permitted extension (empty otherwise).
    """

    result: ExperimentResult
    record: Dict[str, object]
    note: str = ""

    @property
    def extensions(self) -> int:
        """Adaptive inconclusive-band extensions performed."""
        return len(self.record["extensions"])

    @property
    def effective_n(self) -> int:
        """Trials per hypothesis actually simulated."""
        return int(self.record["effective_n"])


def run_sequential_cell(
    runner: AttackRunner,
    design: SequentialDesign,
    adaptive: Optional[AdaptivePolicy] = None,
    cycle_budget: Optional[float] = None,
) -> SequentialOutcome:
    """Stream one cell's trials through its looks, then escalate.

    Every supervised experiment cell runs here.  A fixed-N cell is the
    one-look design ``(n_runs,)``; a group-sequential design feeds the
    interim p-value of each scheduled look to its alpha-spending
    boundary and stops on the first decisive look.  Trials advance in
    boundary-aligned batches via
    :meth:`~repro.core.attack.AttackRunner.run_incremental`.

    When the last look lands in the adaptive policy's inconclusive
    band, the sample is *extended* to ``n * escalation_factor`` trials:
    all prior trials are kept and more are drawn from the same
    per-trial seed schedule, so the result is byte-identical to a cold
    run at the larger ``n``.  Extension stops after
    ``adaptive.max_escalations`` steps, or before a step once the
    cycles simulated so far reach ``cycle_budget``; a cell still
    inconclusive then carries a degradation note.

    Deterministic: the trials simulated depend only on the runner's
    seed/config, the design, the adaptive band and the budget.
    """
    experiment = runner.run_incremental()
    test = GroupSequentialTest(design)
    state = None
    # Pull exactly what each look demands (SequentialDesign.next_demand
    # is the admission contract demand-driven lane schedulers honour).
    while (demand := design.next_demand(experiment.trials_done)) > 0:
        state = experiment.advance(experiment.trials_done + demand)
        if design.num_looks > 1:  # a fixed-N cell is not a sequential look
            COUNTERS.sequential_looks += 1
        if test.decide(state.comparison.pvalue).decision != "continue":
            break
    assert state is not None  # designs always have >= 1 look

    trials_avoided = 0
    if test.stopped_early:
        trials_avoided = 2 * (design.n_max - experiment.trials_done)
        COUNTERS.sequential_early_stops += 1
        COUNTERS.sequential_trials_avoided += trials_avoided
        COUNTERS.sequential_cycles_avoided += int(
            trials_avoided * state.mean_trial_cycles
        )
        # Demand-driven backends account the tail trials a
        # fill-every-lane dispatcher would have already burnt past
        # this decisive look (duck-typed: only the pool implements it).
        clip = getattr(runner.backend, "note_early_stop", None)
        if clip is not None:
            clip(runner, experiment.trials_done)

    extensions: List[Dict[str, object]] = []
    note = ""
    if adaptive is not None and not test.stopped_early:
        while adaptive.inconclusive(state.comparison.pvalue):
            spent = 2 * experiment.trials_done * state.mean_trial_cycles
            if len(extensions) == adaptive.max_escalations or (
                cycle_budget is not None and spent >= cycle_budget
            ):
                note = (
                    f"p-value {state.comparison.pvalue:.4f} still "
                    f"inconclusive after {len(extensions)} escalation(s)"
                )
                break
            reused = 2 * experiment.trials_done
            target = experiment.trials_done * adaptive.escalation_factor
            state = experiment.advance(target)
            COUNTERS.escalation_trials_reused += reused
            extensions.append({
                "n": target,
                "pvalue": state.comparison.pvalue,
                "trials_reused": reused,
            })

    record: Dict[str, object] = {
        "design": design.to_payload(),
        "looks": [look.to_payload() for look in test.looks],
        "extensions": extensions,
        "stopped_early": test.stopped_early,
        "planned_n": design.n_max,
        "effective_n": experiment.trials_done,
        "trials_avoided": trials_avoided,
    }
    return SequentialOutcome(
        result=experiment.result(), record=record, note=note,
    )


@dataclass
class SupervisedCell:
    """Outcome of one supervised cell: result + execution metadata."""

    cell_id: str
    result: Optional[object]
    classification: CellClassification
    attempts: List[AttemptRecord] = field(default_factory=list)
    escalations: int = 0
    note: str = ""
    #: Static preflight classification payload
    #: (:meth:`repro.analysis.preflight.PreflightReport.to_payload`),
    #: journaled with the cell so resumed runs stay byte-identical.
    preflight: Optional[Dict[str, object]] = None
    #: Group-sequential look trajectory / boundary record
    #: (:attr:`SequentialOutcome.record`); ``None`` for fixed-N cells,
    #: and omitted from journal payloads then so fixed-N journals stay
    #: byte-identical with historical runs.
    sequential: Optional[Dict[str, object]] = None

    @property
    def final_attempt(self) -> Optional[AttemptRecord]:
        """The attempt that produced the result (last successful one)."""
        for record in reversed(self.attempts):
            if record.error is None:
                return record
        return None

    def execution_record(self) -> Dict[str, object]:
        """The failure-classification payload carried by artifacts."""
        final = self.final_attempt
        return {
            "classification": self.classification.value,
            "attempts": [record.to_payload() for record in self.attempts],
            "escalations": self.escalations,
            "final_seed": final.seed if final else None,
            "final_n_runs": final.n_runs if final else None,
            "note": self.note,
        }

    def to_payload(self) -> Dict[str, object]:
        """Checkpoint-journal payload (atomic JSON)."""
        payload: Dict[str, object] = {
            "cell_id": self.cell_id,
            "execution": self.execution_record(),
            "result": (
                serialize_result(self.result)
                if self.result is not None else None
            ),
            "preflight": self.preflight,
        }
        if self.sequential is not None:
            payload["sequential"] = self.sequential
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "SupervisedCell":
        execution = payload.get("execution", {})
        return cls(
            cell_id=str(payload["cell_id"]),
            result=(
                deserialize_result(payload["result"])
                if payload.get("result") is not None else None
            ),
            classification=CellClassification(
                execution.get("classification", "clean")
            ),
            attempts=[
                AttemptRecord.from_payload(record)
                for record in execution.get("attempts", [])
            ],
            escalations=int(execution.get("escalations", 0)),
            note=str(execution.get("note", "")),
            preflight=payload.get("preflight"),
            sequential=payload.get("sequential"),
        )


class ResilientExecutor:
    """Supervises experiment cells per an :class:`ExecutionPolicy`."""

    def __init__(
        self,
        policy: Optional[ExecutionPolicy] = None,
        injector: Optional[FaultInjector] = None,
        store: Optional[CheckpointStore] = None,
    ) -> None:
        self.policy = policy or ExecutionPolicy()
        self.injector = injector
        self.store = store

    # ------------------------------------------------------------------
    def supervise(
        self,
        cell_id: str,
        attempt_fn: Callable[[int], AttemptOutcome],
        *,
        seed: int,
        n_runs: Optional[int] = None,
        preflight: Optional[Dict[str, object]] = None,
    ) -> SupervisedCell:
        """Run one cell under the policy; never raises unless fail_fast.

        Retries, the zero-budget check, injected crashes,
        classification and journaling live here; the attempt itself
        (including any escalation) is ``attempt_fn``'s.

        Args:
            cell_id: Stable identifier (also the checkpoint key).
            attempt_fn: ``seed -> AttemptOutcome``.  A
                :class:`~repro.errors.ReproError` it raises fails the
                attempt, which is retried under a fresh seed.
            seed: Base seed; retries derive fresh seeds from it.
            n_runs: Requested sample count, journaled with each attempt;
                ``None`` for cells without one (Figure 7).
            preflight: Static-classification payload to attach to (and
                journal with) the cell.
        """
        if self.store is not None and self.store.has(cell_id):
            return SupervisedCell.from_payload(self.store.load(cell_id))

        policy = self.policy
        cell = SupervisedCell(
            cell_id=cell_id, result=None,
            classification=CellClassification.FAILED, preflight=preflight,
        )
        cell_index = cell_seed_index(cell_id)
        error: Optional[ReproError] = None
        for attempt in range(policy.retry.max_retries + 1):
            record = AttemptRecord(
                attempt=attempt, seed=reseed(seed, attempt, cell_index),
                n_runs=n_runs,
            )
            cell.attempts.append(record)
            try:
                budget = policy.cell_cycle_budget
                if budget is not None and budget <= 0:
                    raise BudgetExceededError(
                        f"cell {cell_id!r} has no cycle budget "
                        f"({budget:.0f} simulated cycles)"
                    )
                if self.injector is not None:
                    self.injector.maybe_crash(cell_id, attempt)
                outcome = attempt_fn(record.seed)
            except BudgetExceededError as failure:
                # The budget is gone; retrying cannot restore it.
                record.error = cell.note = str(failure)
                record.error_type = type(failure).__name__
                return self._conclude(cell, failure)
            except ReproError as failure:
                record.error = str(failure)
                record.error_type = type(failure).__name__
                error = failure
                continue
            break
        else:
            cell.note = f"gave up after {len(cell.attempts)} failed attempts"
            return self._conclude(cell, error)

        if outcome.levels:
            record.n_runs = outcome.levels[0]
        cell.attempts.extend(
            AttemptRecord(attempt=attempt + step, seed=record.seed,
                          n_runs=level)
            for step, level in enumerate(outcome.levels[1:], start=1)
        )
        cell.result = outcome.result
        cell.escalations = outcome.escalations
        cell.note = outcome.note
        cell.sequential = outcome.sequential
        if cell.note:
            cell.classification = CellClassification.DEGRADED
        elif attempt or cell.escalations:
            cell.classification = CellClassification.RETRIED
        else:
            cell.classification = CellClassification.CLEAN
        return self._conclude(cell, None)

    def _conclude(
        self, cell: SupervisedCell, error: Optional[ReproError],
    ) -> SupervisedCell:
        if cell.classification is CellClassification.FAILED:
            if self.policy.fail_fast and error is not None:
                raise error
            # Failed cells are not journaled: a resumed run should
            # re-attempt them rather than pin the failure forever.
            return cell
        if self.store is not None:
            self.store.save(cell.cell_id, cell.to_payload())
        return cell

    # ------------------------------------------------------------------
    def run_cell_supervised(
        self,
        cell_id: str,
        variant: AttackVariant,
        channel: ChannelType,
        predictor: str,
        n_runs: int = 100,
        seed: int = 0,
        **overrides,
    ) -> SupervisedCell:
        """Supervised version of :func:`repro.harness.experiment.run_cell`.

        When :attr:`ExecutionPolicy.preflight` is set (the default),
        the cell is first validated statically — an
        :class:`~repro.errors.AnalysisError` aborts the cell before any
        simulation budget is spent.  Cells already present in the
        checkpoint store skip the analysis (their journaled payload,
        including the stored preflight record, is reused verbatim so
        resumed artifacts stay byte-identical).

        Every attempt streams the cell through
        :func:`run_sequential_cell`: the one-look design ``(n_runs,)``
        for a fixed-N cell, the :attr:`ExecutionPolicy.sequential`
        design otherwise.  A fixed-N cell journals one attempt record
        per escalation level (``n_runs``, ``2 * n_runs``, ... under the
        same seed); a sequential cell journals one attempt with its
        effective ``n`` plus its look trajectory.
        """
        from repro.harness.experiment import cell_runner

        preflight_payload = self._preflight_payload(
            cell_id, variant, channel, predictor, overrides
        )

        injector = self.injector
        seq_policy = self.policy.sequential

        def build_kwargs(seed_now: int) -> Tuple[Dict[str, object], object]:
            kwargs = dict(overrides)
            if self.policy.max_trial_cycles is not None:
                kwargs.setdefault(
                    "max_trial_cycles", self.policy.max_trial_cycles
                )
            if self.policy.backend is not None:
                kwargs.setdefault("backend", self.policy.backend)
            predictor_arg: object = predictor
            if injector is not None:
                if injector.profile.perturbs_dram:
                    memory_config = kwargs.get("memory_config")
                    if memory_config is None:
                        from repro.core.attack import attack_dram_config
                        memory_config = MemoryConfig(
                            dram=attack_dram_config()
                        )
                    kwargs["memory_config"] = dc_replace(
                        memory_config,
                        dram=injector.perturb_dram(memory_config.dram),
                    )
                if injector.profile.vp_corrupt_rate:
                    def corrupting_factory(confidence: int):
                        return injector.wrap_predictor(
                            make_predictor(predictor, confidence),
                            cell_id, seed_now,
                        )
                    # Preserve the reported predictor name.
                    corrupting_factory.__name__ = predictor
                    predictor_arg = corrupting_factory
            return kwargs, predictor_arg

        def attempt_fn(seed_now: int) -> AttemptOutcome:
            kwargs, predictor_arg = build_kwargs(seed_now)
            runner = cell_runner(
                variant, channel, predictor_arg, n_runs, seed_now, **kwargs,
            )
            design = (
                seq_policy.design_for(n_runs) if seq_policy is not None
                else SequentialDesign(looks=(n_runs,))
            )
            outcome = run_sequential_cell(
                runner, design, self.policy.adaptive,
                self.policy.cell_cycle_budget,
            )
            result, note = outcome.result, outcome.note
            if injector is not None and injector.profile.perturbs_samples:
                result = _apply_sample_faults(
                    injector, result, cell_id, seed_now
                )
                survivors = min(
                    len(result.comparison.mapped),
                    len(result.comparison.unmapped),
                )
                if survivors < outcome.effective_n and not note:
                    note = (
                        f"only {survivors}/{outcome.effective_n} "
                        "samples survived fault injection"
                    )
            if seq_policy is not None:
                return AttemptOutcome(
                    result, levels=(outcome.effective_n,),
                    escalations=outcome.extensions, note=note,
                    sequential=outcome.record,
                )
            return AttemptOutcome(
                result,
                levels=(n_runs,) + tuple(
                    int(extension["n"])
                    for extension in outcome.record["extensions"]
                ),
                escalations=outcome.extensions, note=note,
            )

        cell = self.supervise(
            cell_id, attempt_fn, seed=seed, n_runs=n_runs,
            preflight=preflight_payload,
        )
        self._enforce_static_agreement(cell, predictor)
        return cell

    def _enforce_static_agreement(
        self, cell: "SupervisedCell", predictor: object
    ) -> None:
        """Under ``strict_preflight``, verify static == dynamic verdict.

        Raises:
            AnalysisSoundnessError: When the static classification
                predicts one verdict and the measurement produced the
                other.  Control cells (``predictor="none"``) are
                expected ineffective regardless of the static verdict,
                matching the report-time agreement semantics.
        """
        if not self.policy.strict_preflight:
            return
        payload = cell.preflight if isinstance(cell.preflight, dict) else None
        classification = (
            payload.get("classification") if payload is not None else None
        )
        if not isinstance(classification, dict) or cell.result is None:
            return
        static_effective = classification.get("effective")
        if static_effective is None:
            return
        predictor_name = (
            predictor if isinstance(predictor, str)
            else getattr(predictor, "__name__", "custom")
        )
        predicted = bool(static_effective) and predictor_name not in ("none", "")
        dynamic = bool(cell.result.attack_succeeds)
        if predicted != dynamic:
            from repro.errors import AnalysisSoundnessError

            raise AnalysisSoundnessError(
                f"cell {cell.cell_id!r}: static analysis predicts "
                f"{'effective' if predicted else 'ineffective'} "
                f"({classification.get('symbol', '?')}, predictor "
                f"{predictor_name!r}) but the measurement is "
                f"{'effective' if dynamic else 'ineffective'} "
                f"(p={cell.result.pvalue:.3g})"
            )

    def _preflight_payload(
        self,
        cell_id: str,
        variant: AttackVariant,
        channel: ChannelType,
        predictor: str,
        overrides: Dict[str, object],
    ) -> Optional[Dict[str, object]]:
        """Statically validate a cell about to run for the first time.

        Raises:
            AnalysisError: When the static analyzer finds a
                contradiction (via
                :meth:`~repro.analysis.preflight.PreflightReport.raise_if_failed`).
        """
        if not self.policy.preflight:
            return None
        if self.store is not None and self.store.has(cell_id):
            return None
        from repro.analysis.preflight import preflight_cell

        kwargs: Dict[str, object] = {}
        for key in ("confidence", "chain_length", "modify_mode", "layout"):
            if overrides.get(key) is not None:
                kwargs[key] = overrides[key]
        predictor_name = (
            predictor if isinstance(predictor, str)
            else getattr(predictor, "__name__", "custom")
        )
        report = preflight_cell(
            variant, channel, predictor=predictor_name, **kwargs
        )
        report.raise_if_failed()
        return report.to_payload()

    def run_rsa_supervised(
        self,
        cell_id: str,
        exponent: int,
        seed: int = 7,
        memory_config: Optional[MemoryConfig] = None,
        **config_overrides,
    ) -> SupervisedCell:
        """Supervised version of the Figure 7 RSA exponent leak."""
        injector = self.injector

        def attempt_fn(seed_now: int) -> AttemptOutcome:
            mem = memory_config
            if (
                injector is not None
                and injector.profile.perturbs_dram
                and mem is not None
            ):
                mem = dc_replace(
                    mem, dram=injector.perturb_dram(mem.dram)
                )
            kwargs = dict(config_overrides)
            if self.policy.max_trial_cycles is not None:
                kwargs.setdefault(
                    "max_trial_cycles", self.policy.max_trial_cycles
                )
            config = RsaAttackConfig(
                seed=seed_now, memory_config=mem, **kwargs
            )
            return AttemptOutcome(
                RsaVpAttack(config).run(Mpi.from_int(exponent))
            )

        return self.supervise(cell_id, attempt_fn, seed=seed)


def _apply_sample_faults(
    injector: FaultInjector,
    result: ExperimentResult,
    cell_id: str,
    attempt_seed: int,
) -> ExperimentResult:
    """Rebuild a result after dropping/duplicating timing samples.

    Raises (via the t-test) :class:`~repro.errors.StatsError` when too
    few samples survive — the empty-sample degraded path the executor
    retries.
    """
    comparison = result.comparison
    mapped = TimingDistribution(
        comparison.mapped.label,
        injector.corrupt_samples(
            comparison.mapped.samples, cell_id, attempt_seed, "mapped"
        ),
    )
    unmapped = TimingDistribution(
        comparison.unmapped.label,
        injector.corrupt_samples(
            comparison.unmapped.samples, cell_id, attempt_seed, "unmapped"
        ),
    )
    return dc_replace(
        result, comparison=DistributionComparison.compare(mapped, unmapped)
    )
