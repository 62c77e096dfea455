"""Attack execution machinery: configuration, environment, runner.

An :class:`AttackRunner` evaluates one attack variant under one
configuration exactly the way the paper does (Section IV-C/D): run the
attack ``n_runs`` times for each hypothesis ("mapped" and "unmapped"),
collect the receiver's measurements into two timing distributions, and
decide success by a Student's t-test p-value below 0.05.  It also
estimates the attack's transmission rate (Table III's "Tran. Rate").

Every trial observes a **fresh machine** (memory hierarchy + predictor
+ core) with a trial-specific seed, so run-to-run variation comes from
the modelled DRAM/interconnect jitter, matching the paper's
distribution-based methodology.  "Fresh" is semantic, not allocative:
the first trial builds the machine and the runner resets it in place
for every later trial via the warm-machine reset protocol
(:meth:`repro.memory.hierarchy.MemorySystem.reset` +
:meth:`repro.pipeline.core.Core.reset`), which is byte-identical to
reconstruction and several times faster.  The predictor chain is the
exception — it is rebuilt per trial exactly as the cold path does,
because defenses like
:class:`~repro.defenses.random_window.RandomWindowDefense` thread one
RNG through every wrapper they create and resetting instead of
re-wrapping would advance that stream differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.channels import ChannelType
from repro.core.model import AttackCategory
from repro.defenses.base import Defense
from repro.errors import AttackError
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.memory.memsys import DramConfig
from repro.perf.counters import COUNTERS
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.sim import get_backend, resolve_backend_name
from repro.stats.distributions import TimingDistribution
from repro.stats.summary import DistributionComparison
from repro.stats.bandwidth import transmission_rate_kbps
from repro.vp.base import ValuePredictor
from repro.vp.lvp import LastValuePredictor
from repro.vp.nopred import NoPredictor
from repro.vp.oracle import OracleTargetPredictor
from repro.vp.vtage import VtagePredictor
from repro.workloads.gadgets import Layout

if TYPE_CHECKING:
    from repro.core.variants import AttackVariant
    from repro.sim import SimBackend


def attack_dram_config() -> DramConfig:
    """DRAM timing used for attack experiments.

    Wider jitter than the performance default: the paper's measured
    distributions (Figures 5 and 8) spread over hundreds of cycles,
    and the defense evaluation (minimum R-type windows) only makes
    sense against realistic measurement noise.
    """
    return DramConfig(
        base_latency=180, jitter=170, tail_probability=0.04, tail_extra=120
    )


def make_predictor(kind: str, confidence: int) -> ValuePredictor:
    """Construct a predictor by name: ``lvp``, ``vtage`` or ``none``."""
    if kind == "lvp":
        return LastValuePredictor(confidence_threshold=confidence)
    if kind == "vtage":
        return VtagePredictor(confidence_threshold=confidence)
    if kind == "none":
        return NoPredictor()
    raise AttackError(f"unknown predictor kind {kind!r}")


@dataclass
class AttackConfig:
    """Configuration of one attack experiment.

    Attributes:
        confidence: The VPS confidence threshold (the paper's
            ``confidence`` parameter).
        n_runs: Trials per hypothesis (paper: 100).
        channel: Encode/decode channel family.
        predictor: ``"lvp"``, ``"vtage"``, ``"none"``, or a factory
            ``confidence -> ValuePredictor``.
        use_oracle: Wrap the predictor so it predicts only for the
            variant's trigger PC, matching the paper's "oracle"
            experimental setup.
        defense: Optional defense (stack) applied to predictor/core.
        chain_length: Dependent-chain length of the trigger window;
            ``None`` uses the variant's own default.
        modify_mode: For variants with a modify step: ``"retrain"``
            (confidence-count accesses, the mispredict flavour) or
            ``"invalidate"`` (one access, the no-prediction flavour).
        sync_base_cycles / sync_phase_cycles: Modelled scheduling and
            synchronisation cost per trial and per victim/attacker
            hand-off (the ``sleep()`` calls of Figures 3/4).  Real
            cross-process attacks are dominated by this overhead —
            which is why Table III's rates sit in single-digit Kbps —
            so it is charged to transmission-rate reporting only; it
            never touches the measured timing distributions.
        decode_cycles_per_line: Persistent-channel decode cost per
            probe line (the receiver reloads the full probe array,
            Figure 4 lines 18-24; the experiment itself only needs the
            target line's latency).
        seed: Base seed; each trial derives its own.
        max_trial_cycles: Per-trial cycle watchdog; when set it
            overrides the core's ``max_cycles`` safety bound, so a
            runaway simulation aborts with
            :class:`~repro.errors.SimulationError` instead of burning
            the sweep's budget.
        backend: Simulation backend executing the trial loop
            (:mod:`repro.sim`): ``"scalar"`` (the historical
            interpreter loop), ``"batched"`` (numpy lockstep lanes,
            byte-identical results), or ``None`` to follow
            ``$REPRO_BACKEND`` and default to scalar.  Validated at
            runner construction so typos fail before any simulation.
    """

    confidence: int = 4
    n_runs: int = 100
    channel: ChannelType = ChannelType.TIMING_WINDOW
    predictor: object = "lvp"
    use_oracle: bool = False
    defense: Optional[Defense] = None
    chain_length: Optional[int] = None
    modify_mode: str = "retrain"
    sync_base_cycles: int = 190_000
    sync_phase_cycles: int = 25_000
    decode_cycles_per_line: int = 120
    seed: int = 0
    max_trial_cycles: Optional[int] = None
    memory_config: Optional[MemoryConfig] = None
    core_config: Optional[CoreConfig] = None
    layout: Layout = field(default_factory=Layout)
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.confidence < 1:
            raise AttackError("confidence must be >= 1")
        if self.n_runs < 2:
            raise AttackError("n_runs must be >= 2 for the t-test")
        if self.modify_mode not in ("retrain", "invalidate"):
            raise AttackError(f"unknown modify_mode {self.modify_mode!r}")
        if self.max_trial_cycles is not None and self.max_trial_cycles < 1:
            raise AttackError("max_trial_cycles must be >= 1")


@dataclass
class TrialEnv:
    """Everything a variant needs to run one trial."""

    core: Core
    memory: MemorySystem
    layout: Layout
    confidence: int
    channel: ChannelType
    chain_length: int
    modify_mode: str

    def write_sender_value(self, addr: int, value: int) -> None:
        """Architectural write into the sender's address space."""
        self.memory.write_value(self.layout.sender_pid, addr, value)

    def write_receiver_value(self, addr: int, value: int) -> None:
        """Architectural write into the receiver's address space."""
        self.memory.write_value(self.layout.receiver_pid, addr, value)

    @property
    def retrain_count(self) -> int:
        """Accesses needed to re-train a conflicting entry to confidence."""
        return self.confidence + 1


@dataclass
class TrialResult:
    """One trial's receiver measurement plus its simulated cost."""

    measurement: float
    sim_cycles: int


@dataclass
class ExperimentResult:
    """Outcome of a full mapped-vs-unmapped experiment."""

    variant_name: str
    category: AttackCategory
    channel: ChannelType
    predictor_name: str
    defense_name: str
    comparison: DistributionComparison
    mean_trial_cycles: float
    transmission_rate_kbps: float

    @property
    def pvalue(self) -> float:
        """The comparison's two-sided p-value."""
        return self.comparison.pvalue

    @property
    def attack_succeeds(self) -> bool:
        """The paper's criterion: p-value below 0.05."""
        return self.comparison.attack_succeeds

    def describe(self) -> str:
        """One-line human-readable summary."""
        status = "EFFECTIVE" if self.attack_succeeds else "not effective"
        return (
            f"{self.variant_name} [{self.channel.value}] "
            f"vp={self.predictor_name} defense={self.defense_name}: "
            f"pvalue={self.pvalue:.4f} ({status}), "
            f"{self.transmission_rate_kbps:.2f} Kbps"
        )


class AttackRunner:
    """Runs a variant's mapped/unmapped trials and aggregates statistics."""

    def __init__(
        self,
        variant: "AttackVariant",
        config: Optional[AttackConfig] = None,
    ) -> None:
        self.variant = variant
        self.config = config or AttackConfig()
        if self.config.channel not in variant.supported_channels:
            raise AttackError(
                f"{variant.name} does not support the "
                f"{self.config.channel.value} channel (Table II/III)"
            )
        # The warm machine reused across trials (None until the first
        # trial builds it cold).
        self._warm: Optional[Tuple[MemorySystem, Core]] = None
        # The trial-loop executor (repro.sim): resolved eagerly so an
        # unknown name or unavailable backend fails here, not mid-sweep.
        self.backend: "SimBackend" = get_backend(
            resolve_backend_name(self.config.backend)
        )

    # ------------------------------------------------------------------
    def _fresh_predictor(self) -> ValuePredictor:
        """Build the trial's predictor chain, exactly as a cold trial.

        Called once per trial on both the cold and the warm path: the
        chain must be *rebuilt*, not reset, because stateful defenses
        (e.g. random-window) deliberately share an RNG across the
        wrappers they create and the stream position is part of the
        experiment's determinism contract.
        """
        config = self.config
        if callable(config.predictor):
            predictor = config.predictor(config.confidence)
        else:
            predictor = make_predictor(str(config.predictor), config.confidence)
        if config.defense is not None:
            predictor = config.defense.wrap_predictor(predictor)
        if config.use_oracle:
            predictor = OracleTargetPredictor(
                predictor, self.variant.trigger_pcs(config.layout)
            )
        return predictor

    def _core_config(self) -> CoreConfig:
        """The effective core configuration (defense adjustments applied)."""
        config = self.config
        core_config = config.core_config or CoreConfig()
        if config.defense is not None:
            core_config = config.defense.adjust_config(core_config)
        if config.max_trial_cycles is not None:
            core_config = replace(
                core_config, max_cycles=config.max_trial_cycles
            )
        return core_config

    def _machine(self, trial_seed: int) -> Tuple[MemorySystem, Core]:
        """A (memory, core) pair seeded for one trial.

        Cold path (first trial): construct the hierarchy and core from
        scratch.  Warm path (every later trial): reset both in place
        under the trial seed — observationally identical to the cold
        path because the reset protocol restores as-constructed state
        and shared-region registration survives (the address mapper is
        stateless for translation purposes).
        """
        config = self.config
        if self._warm is not None:
            memory, core = self._warm
            memory.reset(trial_seed)
            core.reset(predictor=self._fresh_predictor())
            COUNTERS.warm_resets += 1
            return memory, core
        memory_config = config.memory_config or MemoryConfig(
            dram=attack_dram_config()
        )
        memory_config = replace(memory_config, seed=trial_seed)
        memory = MemorySystem(memory_config)
        memory.add_shared_region(
            config.layout.probe_base,
            config.layout.probe_lines * config.layout.probe_stride,
        )
        core = Core(memory, self._fresh_predictor(), self._core_config())
        self._warm = (memory, core)
        return memory, core

    def _build_env(self, trial_seed: int) -> TrialEnv:
        memory, core = self._machine(trial_seed)
        return self._env_around(memory, core)

    def run_trial(self, mapped: bool, trial_index: int) -> TrialResult:
        """Run one end-to-end attack trial for one hypothesis."""
        trial_seed = (
            self.config.seed * 1_000_003
            + trial_index * 7919
            + (1 if mapped else 0)
        )
        COUNTERS.trials += 1
        env = self._build_env(trial_seed)
        measurement = self.variant.run(env, mapped)
        return self._finish_trial(env, measurement)

    def _finish_trial(self, env: TrialEnv, measurement: float) -> TrialResult:
        """Charge the trial's modelled costs on top of its simulation."""
        sim_cycles = (
            env.core.cycle
            + self.config.sync_base_cycles
            + self.config.sync_phase_cycles * self.variant.num_phases
        )
        if self.config.channel is ChannelType.PERSISTENT:
            sim_cycles += (
                self.config.decode_cycles_per_line
                * self.config.layout.probe_lines
            )
        return TrialResult(measurement=measurement, sim_cycles=sim_cycles)

    def _env_around(self, memory: MemorySystem, core: Core) -> TrialEnv:
        """A :class:`TrialEnv` view over an already-prepared machine."""
        config = self.config
        chain = (
            config.chain_length
            if config.chain_length is not None
            else self.variant.default_chain_length
        )
        return TrialEnv(
            core=core,
            memory=memory,
            layout=config.layout,
            confidence=config.confidence,
            channel=config.channel,
            chain_length=chain,
            modify_mode=config.modify_mode,
        )

    def run_incremental(self) -> "IncrementalExperiment":
        """Open a trial-streaming view over this experiment.

        The returned :class:`IncrementalExperiment` yields trials in
        boundary-aligned batches via :meth:`IncrementalExperiment.advance`
        without re-simulating earlier ones.  Because every trial's seed
        is a pure function of ``(config.seed, trial_index, hypothesis)``
        — see :meth:`run_trial` — trial ``k`` is byte-identical whether
        reached by streaming or by a cold fixed-N
        :meth:`run_experiment`, and the protocol composes with warm
        batching unchanged (it lives below :meth:`run_trial`).
        """
        return IncrementalExperiment(self)

    def run_experiment(self) -> ExperimentResult:
        """Run the full mapped-vs-unmapped experiment (paper: 100 runs)."""
        experiment = self.run_incremental()
        experiment.advance(self.config.n_runs)
        return experiment.result()


@dataclass(frozen=True)
class InterimComparison:
    """Point-in-time view of a streaming experiment at one look.

    Attributes:
        n: Trials per hypothesis consumed so far.
        comparison: The t-test over everything measured so far.
        mean_trial_cycles: Mean simulated cycles per trial so far.
    """

    n: int
    comparison: DistributionComparison
    mean_trial_cycles: float


class IncrementalExperiment:
    """Streams one experiment's trials without re-simulating prefixes.

    Trials are appended strictly in the canonical schedule order —
    mapped(i), unmapped(i) for ascending ``i`` — which is load-bearing
    twice over: the per-trial seeds are indexed by ``i``, and stateful
    defense RNG streams advance once per predictor build, so any other
    interleaving would sample a different (valid but non-reproducible)
    path.  Advancing to ``n`` therefore leaves the experiment in
    exactly the state a cold fixed-``n`` run ends in, byte for byte;
    the group-sequential harness exploits this to stop early, and the
    adaptive-escalation path to *extend* a sample instead of
    re-simulating it from scratch.

    ``advance`` may exceed the runner's configured ``n_runs`` — the
    cap is a property of the sequential design, not of the trial seed
    schedule, which is defined for every index.
    """

    def __init__(self, runner: AttackRunner) -> None:
        self.runner = runner
        self._mapped = TimingDistribution("mapped")
        self._unmapped = TimingDistribution("unmapped")
        self._total_cycles = 0
        self._trials_done = 0
        self._comparison: Optional[DistributionComparison] = None

    @property
    def trials_done(self) -> int:
        """Trials per hypothesis simulated so far."""
        return self._trials_done

    def advance(self, target_n: int) -> InterimComparison:
        """Simulate forward to ``target_n`` trials per hypothesis.

        Only trials ``trials_done .. target_n-1`` are run; everything
        before is kept.  Returns the interim comparison at
        ``target_n``.
        """
        if target_n < self._trials_done:
            raise AttackError(
                f"cannot rewind a streaming experiment: at "
                f"{self._trials_done} trials, asked for {target_n}"
            )
        pairs = self.runner.backend.run_pairs(
            self.runner, self._trials_done, target_n
        )
        for mapped_trial, unmapped_trial in pairs:
            self._mapped.add(mapped_trial.measurement)
            self._unmapped.add(unmapped_trial.measurement)
            self._total_cycles += (
                mapped_trial.sim_cycles + unmapped_trial.sim_cycles
            )
        self._trials_done = target_n
        self._comparison = DistributionComparison.compare(
            self._mapped, self._unmapped
        )
        return InterimComparison(
            n=target_n,
            comparison=self._comparison,
            mean_trial_cycles=self.mean_trial_cycles,
        )

    @property
    def mean_trial_cycles(self) -> float:
        """Mean simulated cycles per trial over everything run so far."""
        if self._trials_done == 0:
            return 0.0
        return self._total_cycles / (2 * self._trials_done)

    def result(self) -> ExperimentResult:
        """The :class:`ExperimentResult` over every trial streamed so far.

        After ``advance(config.n_runs)`` this is byte-identical to
        what :meth:`AttackRunner.run_experiment` returns for the same
        configuration.
        """
        if self._trials_done < 2:
            raise AttackError(
                "an experiment needs at least 2 trials per hypothesis "
                f"for the t-test, got {self._trials_done}"
            )
        comparison = self._comparison
        if comparison is None:
            comparison = DistributionComparison.compare(
                self._mapped, self._unmapped
            )
        runner = self.runner
        config = runner.config
        mean_cycles = self.mean_trial_cycles
        # The rate must be computed at the clock the trials actually ran
        # at — i.e. after defense config adjustments — not the bare
        # default CoreConfig.
        clock = runner._core_config().clock_ghz
        rate = transmission_rate_kbps(1.0, mean_cycles, clock)
        predictor_name = (
            config.predictor
            if isinstance(config.predictor, str)
            else getattr(config.predictor, "__name__", "custom")
        )
        return ExperimentResult(
            variant_name=runner.variant.name,
            category=runner.variant.category,
            channel=config.channel,
            predictor_name=str(predictor_name),
            defense_name=(
                config.defense.name if config.defense else "none"
            ),
            comparison=comparison,
            mean_trial_cycles=mean_cycles,
            transmission_rate_kbps=rate,
        )
