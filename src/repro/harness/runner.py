"""The resilient execution layer: supervised experiment cells.

The paper's headline artifacts are statistical sweeps — Table III runs
all twelve attack variants across channels and predictors with
100-run t-tests — and a single noisy cell, hung simulation or crash
mid-sweep must not lose the run.  :class:`ResilientExecutor` wraps
every experiment cell with:

* **retry with reseeding and exponential backoff** — any
  :class:`~repro.errors.ReproError` raised by a cell (including
  injected crashes and watchdog aborts) is retried up to
  ``max_retries`` times, each attempt under a deterministically
  derived fresh seed;
* a **cycle-budget watchdog** — a per-trial bound threaded into the
  core's ``max_cycles`` (runaway simulations abort with
  :class:`~repro.errors.SimulationError`) plus a per-cell budget over
  all attempts, exhausted budgets raising
  :class:`~repro.errors.BudgetExceededError`;
* **adaptive re-measurement** — when a t-test lands in an
  inconclusive band around ``ALPHA``, the cell re-runs with an
  escalated ``n_runs`` instead of reporting a flaky verdict (under a
  :class:`SequentialPolicy` the escalation *extends* the streamed
  sample in place — all prior trials are kept and more are drawn from
  the same per-trial seed schedule — instead of re-simulating from
  scratch);
* **group-sequential early stopping** — opt-in via
  :class:`SequentialPolicy`: each cell streams its trials through
  :meth:`repro.core.attack.AttackRunner.run_incremental` and is
  examined at pre-registered interim looks against an alpha-spending
  boundary (:mod:`repro.stats.sequential`), stopping as soon as the
  verdict is decisive instead of burning the full fixed-N budget;
* **checkpoint/resume** — completed cells are journaled atomically to
  a :class:`~repro.harness.checkpoint.CheckpointStore`, and re-running
  a sweep over the same store reuses every journaled cell verbatim.

Every cell carries a **failure classification** into its artifact
record: ``clean`` (first attempt, no intervention), ``retried``
(recovered after retries or escalation), ``degraded`` (produced a
result with weakened guarantees) or ``failed`` (no result).
"""

from __future__ import annotations

import time
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
        backoff_base: Seconds slept before the first retry; 0 disables
            sleeping (the schedule is still recorded).
        backoff_factor: Multiplier between consecutive retries.
    """

    max_retries: int = 2
    backoff_base: float = 0.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise HarnessError("max_retries must be >= 0")
        if self.backoff_base < 0.0:
            raise HarnessError("backoff_base must be >= 0")
        if self.backoff_factor < 1.0:
            raise HarnessError("backoff_factor must be >= 1")

    def backoff_before(self, attempt: int) -> float:
        """Seconds to wait before ``attempt`` (attempt 0 never waits)."""
        if attempt == 0 or self.backoff_base == 0.0:
            return 0.0
        return self.backoff_base * self.backoff_factor ** (attempt - 1)


@dataclass(frozen=True)
class AdaptivePolicy:
    """Re-measurement escalation around the significance threshold.

    A p-value inside ``[band_low, band_high)`` is *inconclusive*: too
    close to ``ALPHA`` for the verdict to be trusted at the current
    sample size.  The executor then escalates ``n_runs`` by
    ``escalation_factor`` (up to ``max_escalations`` times) instead of
    reporting a flaky verdict.
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
    final look applies the paper's plain fixed-N criterion by default,
    so a cell that never stops early reports exactly the fixed-N
    verdict.

    Attributes:
        look_fractions: Interim-look schedule as fractions of
            ``n_runs`` (used when ``looks`` is unset); the default is
            the classic 20/40/60/80/100% five-look plan.
        looks: Explicit cumulative trial counts instead of fractions.
            Counts at or above a cell's ``n_runs`` are dropped and the
            cap itself is always appended, so one schedule serves
            sweeps with mixed per-cell budgets.
        alpha: Overall significance level.
        spending: Alpha-spending function name
            (:data:`repro.stats.sequential.SPENDING_FUNCTIONS`).
        final_level: Passed through to the design; ``"fixed-n"``
            (default) keeps the fixed-N answer recoverable.
    """

    look_fractions: Tuple[float, ...] = DEFAULT_LOOK_FRACTIONS
    looks: Optional[Tuple[int, ...]] = None
    alpha: float = ALPHA
    spending: str = "obrien-fleming"
    final_level: str = "fixed-n"

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
        if not self.look_fractions:
            raise HarnessError("look_fractions must be non-empty")

    def design_for(self, n_runs: int) -> SequentialDesign:
        """The concrete design for a cell with cap ``n_runs``."""
        if self.looks is not None:
            counts = tuple(n for n in self.looks if n < n_runs) + (n_runs,)
        else:
            counts = default_looks(n_runs, self.look_fractions)
        return SequentialDesign(
            looks=counts,
            alpha=self.alpha,
            spending=self.spending,
            final_level=self.final_level,
        )

    def to_meta(self) -> Dict[str, object]:
        """JSON-safe settings record (checkpoint-manifest comparable)."""
        return {
            "look_fractions": list(self.look_fractions),
            "looks": list(self.looks) if self.looks is not None else None,
            "alpha": self.alpha,
            "spending": self.spending,
            "final_level": self.final_level,
        }


@dataclass(frozen=True)
class ExecutionPolicy:
    """Everything the supervised executor enforces per cell.

    Attributes:
        retry: Retry/backoff behaviour.
        adaptive: Optional inconclusive-band re-measurement.  Under a
            sequential policy the escalation keeps all prior trials
            and extends the stream; otherwise it re-runs the cell at
            the escalated ``n_runs`` from scratch.
        sequential: Optional group-sequential early stopping
            (:class:`SequentialPolicy`); ``None`` preserves the
            historical fixed-N behaviour byte for byte.
        max_trial_cycles: Per-trial watchdog, threaded into the core's
            ``max_cycles`` bound.
        cell_cycle_budget: Simulated-cycle budget per cell summed over
            attempts; exceeding it raises
            :class:`~repro.errors.BudgetExceededError`.
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
    backoff_s: float = 0.0
    error: Optional[str] = None
    error_type: Optional[str] = None

    def to_payload(self) -> Dict[str, object]:
        return {
            "attempt": self.attempt,
            "seed": self.seed,
            "n_runs": self.n_runs,
            "backoff_s": self.backoff_s,
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
            backoff_s=float(payload.get("backoff_s", 0.0)),
            error=payload.get("error"),
            error_type=payload.get("error_type"),
        )


@dataclass
class SequentialOutcome:
    """What one group-sequential attempt at a cell produced.

    Returned by :func:`run_sequential_cell`; the executor's
    :meth:`ResilientExecutor.supervise` unwraps it transparently, so
    ``attempt_fn`` callables may return either a plain result or one
    of these.

    Attributes:
        result: The experiment result over every trial actually
            streamed (its t-test covers the full collected sample, so
            ``attack_succeeds`` stays the authoritative verdict).
        record: JSON-safe look trajectory / boundary record, journaled
            with the cell and carried into artifact records.
        extensions: Adaptive inconclusive-band extensions performed
            (counted as escalations by the executor).
        note: Degradation reason when the cell stayed inconclusive
            after every extension (empty otherwise).
    """

    result: ExperimentResult
    record: Dict[str, object]
    extensions: int = 0
    note: str = ""

    @property
    def effective_n(self) -> int:
        """Trials per hypothesis actually simulated."""
        return int(self.record["effective_n"])


def run_sequential_cell(
    runner: AttackRunner,
    design: SequentialDesign,
    adaptive: Optional[AdaptivePolicy] = None,
) -> SequentialOutcome:
    """Stream one cell's trials through a group-sequential boundary.

    Trials advance in boundary-aligned batches via
    :meth:`~repro.core.attack.AttackRunner.run_incremental`; after each
    scheduled look the interim p-value is fed to the alpha-spending
    boundary and the cell stops on the first decisive look.  When the
    final look lands in the adaptive policy's inconclusive band, the
    sample is *extended* — all prior trials are kept and more are
    drawn from the same per-trial seed schedule — up to
    ``adaptive.max_escalations`` times, replacing the legacy
    from-scratch 2xN re-run.

    Deterministic: the trials simulated depend only on the runner's
    seed/config, the design, and the adaptive band.
    """
    experiment = runner.run_incremental()
    test = GroupSequentialTest(design)
    state = None
    # Pull exactly what each look demands (SequentialDesign.next_demand
    # is the admission contract demand-driven lane schedulers honour).
    while (demand := design.next_demand(experiment.trials_done)) > 0:
        state = experiment.advance(experiment.trials_done + demand)
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

    extensions = 0
    extension_records: List[Dict[str, object]] = []
    note = ""
    if (
        not test.stopped_early
        and adaptive is not None
        and adaptive.inconclusive(state.comparison.pvalue)
    ):
        while extensions < adaptive.max_escalations:
            reused = 2 * experiment.trials_done
            target = experiment.trials_done * adaptive.escalation_factor
            state = experiment.advance(target)
            extensions += 1
            COUNTERS.escalation_trials_reused += reused
            extension_records.append({
                "n": target,
                "pvalue": state.comparison.pvalue,
                "trials_reused": reused,
            })
            if not adaptive.inconclusive(state.comparison.pvalue):
                break
        if adaptive.inconclusive(state.comparison.pvalue):
            note = (
                f"p-value {state.comparison.pvalue:.4f} still "
                f"inconclusive after {extensions} escalation(s)"
            )

    record: Dict[str, object] = {
        "design": design.to_payload(),
        "looks": [look.to_payload() for look in test.looks],
        "extensions": extension_records,
        "stopped_early": test.stopped_early,
        "planned_n": design.n_max,
        "effective_n": experiment.trials_done,
        "trials_avoided": trials_avoided,
    }
    return SequentialOutcome(
        result=experiment.result(),
        record=record,
        extensions=extensions,
        note=note,
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
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.policy = policy or ExecutionPolicy()
        self.injector = injector
        self.store = store
        self._sleep = sleep

    # ------------------------------------------------------------------
    def supervise(
        self,
        cell_id: str,
        attempt_fn: Callable[[int, Optional[int]], object],
        *,
        seed: int,
        n_runs: Optional[int] = None,
        pvalue_of: Optional[Callable[[object], float]] = None,
        cycles_of: Optional[Callable[[object], float]] = None,
        degraded_note: Optional[Callable[[object], Optional[str]]] = None,
        preflight: Optional[Dict[str, object]] = None,
    ) -> SupervisedCell:
        """Run one cell under the policy; never raises unless fail_fast.

        Args:
            cell_id: Stable identifier (also the checkpoint key).
            attempt_fn: ``(seed, n_runs) -> result``; ``n_runs`` is
                ``None`` for cells without a sample count (Figure 7).
            seed: Base seed; retries derive fresh seeds from it.
            n_runs: Requested sample count, escalated adaptively.
            pvalue_of: Extracts the decision p-value (enables the
                adaptive policy).
            cycles_of: Extracts simulated cycles spent by one attempt
                (enables the per-cell budget).
            degraded_note: Returns a reason string when the result is
                usable but degraded (e.g. samples lost to faults).
            preflight: Static-classification payload to attach to (and
                journal with) the cell.
        """
        if self.store is not None and self.store.has(cell_id):
            return SupervisedCell.from_payload(self.store.load(cell_id))

        policy = self.policy
        attempts: List[AttemptRecord] = []
        n_runs_now = n_runs
        escalations = 0
        failures = 0
        cycles_spent = 0.0
        note = ""
        result: Optional[object] = None
        sequential_payload: Optional[Dict[str, object]] = None
        attempt = 0

        cell_index = cell_seed_index(cell_id)
        while True:
            seed_now = reseed(seed, attempt - escalations, cell_index)
            backoff = policy.retry.backoff_before(attempt - escalations)
            if backoff:
                self._sleep(backoff)
            record = AttemptRecord(
                attempt=attempt, seed=seed_now, n_runs=n_runs_now,
                backoff_s=backoff,
            )
            try:
                if (
                    policy.cell_cycle_budget is not None
                    and cycles_spent >= policy.cell_cycle_budget
                ):
                    raise BudgetExceededError(
                        f"cell {cell_id!r} exhausted its cycle budget "
                        f"({cycles_spent:.0f} >= "
                        f"{policy.cell_cycle_budget:.0f} simulated cycles)"
                    )
                if self.injector is not None:
                    self.injector.maybe_crash(cell_id, attempt)
                result = attempt_fn(seed_now, n_runs_now)
            except BudgetExceededError as error:
                # The budget is gone; retrying cannot restore it.
                record.error = str(error)
                record.error_type = type(error).__name__
                attempts.append(record)
                return self._conclude(
                    cell_id, None, CellClassification.FAILED, attempts,
                    escalations, str(error), error, preflight,
                )
            except ReproError as error:
                record.error = str(error)
                record.error_type = type(error).__name__
                attempts.append(record)
                failures += 1
                if failures > policy.retry.max_retries:
                    return self._conclude(
                        cell_id, None, CellClassification.FAILED, attempts,
                        escalations,
                        f"gave up after {failures} failed attempts", error,
                        preflight,
                    )
                attempt += 1
                continue

            attempts.append(record)
            outcome: Optional[SequentialOutcome] = None
            if isinstance(result, SequentialOutcome):
                # A sequential attempt did its own escalation (by
                # extension) internally; unwrap it and skip the
                # from-scratch adaptive re-run below.
                outcome = result
                sequential_payload = outcome.record
                escalations += outcome.extensions
                if outcome.note:
                    note = outcome.note
                record.n_runs = outcome.effective_n
                result = outcome.result
            if cycles_of is not None:
                cycles_spent += float(cycles_of(result))
            if degraded_note is not None:
                reason = degraded_note(result)
                if reason:
                    note = reason
            if (
                outcome is None
                and policy.adaptive is not None
                and pvalue_of is not None
                and n_runs_now is not None
                and policy.adaptive.inconclusive(pvalue_of(result))
            ):
                budget_left = (
                    policy.cell_cycle_budget is None
                    or cycles_spent < policy.cell_cycle_budget
                )
                if (
                    escalations < policy.adaptive.max_escalations
                    and budget_left
                ):
                    escalations += 1
                    n_runs_now *= policy.adaptive.escalation_factor
                    attempt += 1
                    continue
                note = note or (
                    f"p-value {pvalue_of(result):.4f} still inconclusive "
                    f"after {escalations} escalation(s)"
                )
                return self._conclude(
                    cell_id, result, CellClassification.DEGRADED,
                    attempts, escalations, note, None, preflight,
                    sequential_payload,
                )
            break

        if note:
            classification = CellClassification.DEGRADED
        elif failures or escalations:
            classification = CellClassification.RETRIED
        else:
            classification = CellClassification.CLEAN
        return self._conclude(
            cell_id, result, classification, attempts, escalations, note,
            None, preflight, sequential_payload,
        )

    def _conclude(
        self,
        cell_id: str,
        result: Optional[object],
        classification: CellClassification,
        attempts: List[AttemptRecord],
        escalations: int,
        note: str,
        error: Optional[BaseException],
        preflight: Optional[Dict[str, object]] = None,
        sequential: Optional[Dict[str, object]] = None,
    ) -> SupervisedCell:
        cell = SupervisedCell(
            cell_id=cell_id,
            result=result,
            classification=classification,
            attempts=attempts,
            escalations=escalations,
            note=note,
            preflight=preflight,
            sequential=sequential,
        )
        if classification is CellClassification.FAILED:
            if self.policy.fail_fast and error is not None:
                raise error
            # Failed cells are not journaled: a resumed run should
            # re-attempt them rather than pin the failure forever.
            return cell
        if self.store is not None:
            self.store.save(cell_id, cell.to_payload())
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

        Under :attr:`ExecutionPolicy.sequential` the cell streams its
        trials through :func:`run_sequential_cell` instead of running
        the fixed-N experiment; the supervision contract (retries,
        budget, fault injection, journaling) is unchanged.
        """
        from repro.harness.experiment import cell_runner, run_cell

        preflight_payload = self._preflight_payload(
            cell_id, variant, channel, predictor, overrides
        )

        injector = self.injector
        requested_runs = n_runs
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

        def attempt_fn(seed_now: int, n_runs_now: Optional[int]):
            kwargs, predictor_arg = build_kwargs(seed_now)
            if seq_policy is None:
                result = run_cell(
                    variant, channel, predictor_arg, n_runs_now, seed_now,
                    **kwargs,
                )
                if (
                    injector is not None
                    and injector.profile.perturbs_samples
                ):
                    result = _apply_sample_faults(
                        injector, result, cell_id, seed_now
                    )
                return result

            runner = cell_runner(
                variant, channel, predictor_arg, n_runs_now, seed_now,
                **kwargs,
            )
            outcome = run_sequential_cell(
                runner, seq_policy.design_for(n_runs_now),
                self.policy.adaptive,
            )
            if injector is not None and injector.profile.perturbs_samples:
                corrupted = _apply_sample_faults(
                    injector, outcome.result, cell_id, seed_now
                )
                survivors = min(
                    len(corrupted.comparison.mapped),
                    len(corrupted.comparison.unmapped),
                )
                if survivors < outcome.effective_n and not outcome.note:
                    outcome.note = (
                        f"only {survivors}/{outcome.effective_n} "
                        "samples survived fault injection"
                    )
                outcome.result = corrupted
            return outcome

        def degraded_note(result) -> Optional[str]:
            if seq_policy is not None:
                # Sequential attempts size their own samples; any
                # fault-injection degradation note is attached by
                # attempt_fn above.
                return None
            mapped = len(result.comparison.mapped)
            unmapped = len(result.comparison.unmapped)
            if mapped < requested_runs or unmapped < requested_runs:
                return (
                    f"only {min(mapped, unmapped)}/{requested_runs} "
                    "samples survived fault injection"
                )
            return None

        cell = self.supervise(
            cell_id,
            attempt_fn,
            seed=seed,
            n_runs=n_runs,
            pvalue_of=lambda result: result.pvalue,
            cycles_of=lambda result: (
                result.mean_trial_cycles * 2
                * len(result.comparison.mapped)
            ),
            degraded_note=degraded_note,
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

        def attempt_fn(seed_now: int, n_runs_now: Optional[int]):
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
            return RsaVpAttack(config).run(Mpi.from_int(exponent))

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
