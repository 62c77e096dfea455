"""Tests for the resilient executor (retry, watchdog, adaptive paths)."""

import dataclasses

import pytest

from repro.core.channels import ChannelType
from repro.core.variants import FillUpAttack, TrainTestAttack
from repro.errors import (
    BudgetExceededError,
    SimulationError,
    StatsError,
)
from repro.harness.checkpoint import serialize_result
from repro.harness.experiment import run_cell
from repro.harness.faults import FaultInjector, FaultProfile
from repro.harness.parallel import artifact_plan, execute_spec
from repro.harness.runner import (
    AdaptivePolicy,
    AttemptOutcome,
    CellClassification,
    ExecutionPolicy,
    ResilientExecutor,
    RetryPolicy,
    reseed,
)
from repro.perf.counters import COUNTERS


class FakeResult:
    def __init__(self, pvalue):
        self.pvalue = pvalue


def fake(pvalue):
    """An attempt outcome around a stand-in result."""
    return AttemptOutcome(FakeResult(pvalue))


class TestReseed:
    def test_attempt_zero_is_base_seed(self):
        assert reseed(42, 0) == 42

    def test_attempts_derive_distinct_seeds(self):
        seeds = [reseed(42, attempt) for attempt in range(5)]
        assert len(set(seeds)) == 5

    def test_deterministic(self):
        assert reseed(7, 3) == reseed(7, 3)


class TestPolicies:
    def test_retry_policy_validation(self):
        from repro.errors import HarnessError
        with pytest.raises(HarnessError):
            RetryPolicy(max_retries=-1)

    def test_adaptive_band(self):
        adaptive = AdaptivePolicy()
        assert adaptive.inconclusive(0.05)
        assert adaptive.inconclusive(0.03)
        assert not adaptive.inconclusive(0.001)
        assert not adaptive.inconclusive(0.5)

    def test_adaptive_validation(self):
        from repro.errors import HarnessError
        with pytest.raises(HarnessError):
            AdaptivePolicy(band_low=0.2, band_high=0.1)


class TestRetryPath:
    def test_clean_first_attempt(self):
        executor = ResilientExecutor()
        cell = executor.supervise(
            "c", lambda seed: fake(0.5), seed=3, n_runs=10
        )
        assert cell.classification is CellClassification.CLEAN
        assert cell.result.pvalue == 0.5
        assert [a.seed for a in cell.attempts] == [3]

    def test_retry_after_errors_reseeds(self):
        calls = []

        def flaky(seed):
            calls.append(seed)
            if len(calls) < 3:
                raise StatsError("empty sample")
            return fake(0.9)

        executor = ResilientExecutor(
            ExecutionPolicy(retry=RetryPolicy(max_retries=3))
        )
        cell = executor.supervise("c", flaky, seed=5, n_runs=10)
        assert cell.classification is CellClassification.RETRIED
        assert len(cell.attempts) == 3
        assert cell.attempts[0].error_type == "StatsError"
        assert cell.attempts[2].error is None
        assert len(set(calls)) == 3  # every retry used a fresh seed

    def test_gives_up_after_max_retries(self):
        def always_fails(seed):
            raise StatsError("nope")

        executor = ResilientExecutor(
            ExecutionPolicy(retry=RetryPolicy(max_retries=2))
        )
        cell = executor.supervise("c", always_fails, seed=0, n_runs=10)
        assert cell.classification is CellClassification.FAILED
        assert cell.result is None
        assert len(cell.attempts) == 3

    def test_fail_fast_reraises(self):
        def always_fails(seed):
            raise StatsError("nope")

        executor = ResilientExecutor(
            ExecutionPolicy(retry=RetryPolicy(max_retries=0), fail_fast=True)
        )
        with pytest.raises(StatsError):
            executor.supervise("c", always_fails, seed=0, n_runs=10)


class TestAdaptiveRemeasurement:
    """Escalation extends the streamed sample of a real cell."""

    def _cell(self, adaptive):
        executor = ResilientExecutor(ExecutionPolicy(adaptive=adaptive))
        return executor.run_cell_supervised(
            "c", TrainTestAttack(), ChannelType.TIMING_WINDOW, "none",
            n_runs=4, seed=9,
        )

    def test_escalates_out_of_inconclusive_band(self):
        first = run_cell(
            TrainTestAttack(), ChannelType.TIMING_WINDOW, "none", 4, 9
        ).pvalue
        second = run_cell(
            TrainTestAttack(), ChannelType.TIMING_WINDOW, "none", 8, 9
        )
        assert first != second.pvalue
        # A band holding the 4-run p-value but not the 8-run one.
        low, high = sorted((first, second.pvalue))
        middle = (low + high) / 2
        band = (
            AdaptivePolicy(band_low=0.0, band_high=middle)
            if first < second.pvalue
            else AdaptivePolicy(band_low=middle, band_high=1.0)
        )
        cell = self._cell(band)
        assert cell.classification is CellClassification.RETRIED
        assert cell.escalations == 1
        # Same seed, doubled runs: the escalation extends the sample.
        assert [(a.seed, a.n_runs) for a in cell.attempts] == [(9, 4), (9, 8)]
        assert serialize_result(cell.result) == serialize_result(second)

    def test_still_inconclusive_is_degraded(self):
        cell = self._cell(AdaptivePolicy(
            band_low=0.0, band_high=1.0, max_escalations=2
        ))
        assert cell.classification is CellClassification.DEGRADED
        assert cell.escalations == 2
        assert [a.n_runs for a in cell.attempts] == [4, 8, 16]
        assert cell.result is not None
        assert "inconclusive" in cell.note

    def test_conclusive_pvalue_never_escalates(self):
        adaptive = AdaptivePolicy()
        executor = ResilientExecutor(ExecutionPolicy(adaptive=adaptive))
        cell = executor.run_cell_supervised(
            "c", TrainTestAttack(), ChannelType.TIMING_WINDOW, "lvp",
            n_runs=8, seed=1,
        )
        assert not adaptive.inconclusive(cell.result.pvalue)
        assert cell.classification is CellClassification.CLEAN
        assert cell.escalations == 0
        assert [a.n_runs for a in cell.attempts] == [8]

    def test_table3_escalation_extends_instead_of_rerunning(self):
        """Table III Fill Up / pc_novp at seed 2 is inconclusive at 100
        runs; escalating simulates 100 more, not 200 from scratch."""
        rows = artifact_plan(["table3"], 100, 2)["table3"]
        [spec] = [
            spec for (_, slot), spec in rows
            if spec.variant == "Fill Up" and slot == "pc_novp"
        ]
        policy = dataclasses.replace(
            ExecutionPolicy.robust(), backend="batched"
        )
        before = COUNTERS.trials
        cell = execute_spec(spec, ResilientExecutor(policy))
        trials = COUNTERS.trials - before
        cold = run_cell(
            FillUpAttack(), ChannelType.PERSISTENT, "none",
            n_runs=200, seed=2, backend="batched",
        )
        assert serialize_result(cell.result) == serialize_result(cold)
        assert [a.n_runs for a in cell.attempts] == [100, 200]
        assert {a.seed for a in cell.attempts} == {2}
        assert trials == 400


class TestCycleBudget:
    def test_budget_exhausted_before_first_attempt_fails(self):
        executor = ResilientExecutor(
            ExecutionPolicy(cell_cycle_budget=0.0)
        )
        cell = executor.supervise(
            "c", lambda seed: fake(0.5), seed=0, n_runs=4,
        )
        assert cell.classification is CellClassification.FAILED
        assert cell.attempts[0].error_type == "BudgetExceededError"

    def test_budget_stops_escalation_with_degraded_result(self):
        # Every p-value is inconclusive, but the first 4 runs already
        # spend more than the budget, so no extension starts.
        executor = ResilientExecutor(
            ExecutionPolicy(
                adaptive=AdaptivePolicy(band_low=0.0, band_high=1.0),
                cell_cycle_budget=100.0,
            )
        )
        cell = executor.run_cell_supervised(
            "c", TrainTestAttack(), ChannelType.TIMING_WINDOW, "none",
            n_runs=4, seed=0,
        )
        assert cell.classification is CellClassification.DEGRADED
        assert cell.result is not None
        assert cell.escalations == 0
        assert [a.n_runs for a in cell.attempts] == [4]
        assert "inconclusive after 0 escalation(s)" in cell.note

    def test_budget_error_not_retried(self):
        calls = []

        def fn(seed):
            calls.append(seed)
            raise BudgetExceededError("gone")

        executor = ResilientExecutor(
            ExecutionPolicy(retry=RetryPolicy(max_retries=5))
        )
        cell = executor.supervise("c", fn, seed=0, n_runs=4)
        assert cell.classification is CellClassification.FAILED
        assert len(calls) == 1


class TestWatchdog:
    def test_max_trial_cycles_aborts_runaway_simulation(self):
        with pytest.raises(SimulationError):
            run_cell(
                TrainTestAttack(), ChannelType.TIMING_WINDOW, "lvp",
                n_runs=2, seed=0, max_trial_cycles=10,
            )

    def test_supervised_watchdog_classifies_failed(self):
        executor = ResilientExecutor(
            ExecutionPolicy(retry=RetryPolicy(max_retries=0),
                            max_trial_cycles=10)
        )
        cell = executor.run_cell_supervised(
            "watchdog", TrainTestAttack(), ChannelType.TIMING_WINDOW,
            "lvp", n_runs=2, seed=0,
        )
        assert cell.classification is CellClassification.FAILED
        assert cell.attempts[0].error_type == "SimulationError"


class TestInjectedFaultsEndToEnd:
    def test_retry_after_injected_crash(self):
        profile = FaultProfile(name="t", crash_cells=("doomed",))
        executor = ResilientExecutor(
            ExecutionPolicy(retry=RetryPolicy(max_retries=1)),
            injector=FaultInjector(profile, seed=0),
        )
        cell = executor.run_cell_supervised(
            "doomed", TrainTestAttack(), ChannelType.TIMING_WINDOW,
            "lvp", n_runs=3, seed=1,
        )
        assert cell.classification is CellClassification.RETRIED
        assert cell.result is not None
        assert cell.attempts[0].error_type == "InjectedCrashError"
        assert cell.attempts[1].error is None
        # The recovery attempt ran under a fresh seed.
        assert cell.attempts[1].seed != cell.attempts[0].seed

    def test_total_sample_loss_raises_stats_error_then_fails(self):
        profile = FaultProfile(name="t", sample_drop_rate=1.0)
        executor = ResilientExecutor(
            ExecutionPolicy(retry=RetryPolicy(max_retries=1)),
            injector=FaultInjector(profile, seed=0),
        )
        cell = executor.run_cell_supervised(
            "lossy", TrainTestAttack(), ChannelType.TIMING_WINDOW,
            "lvp", n_runs=3, seed=1,
        )
        assert cell.classification is CellClassification.FAILED
        assert all(a.error_type == "StatsError" for a in cell.attempts)

    def test_partial_sample_loss_degrades(self):
        profile = FaultProfile(name="t", sample_drop_rate=0.3)
        executor = ResilientExecutor(
            ExecutionPolicy(retry=RetryPolicy(max_retries=2)),
            injector=FaultInjector(profile, seed=2),
        )
        cell = executor.run_cell_supervised(
            "partial", TrainTestAttack(), ChannelType.TIMING_WINDOW,
            "lvp", n_runs=8, seed=1,
        )
        assert cell.result is not None
        assert cell.classification is CellClassification.DEGRADED
        assert "survived fault injection" in cell.note

    def test_vp_corruption_profile_still_yields_result(self):
        profile = FaultProfile(name="t", vp_corrupt_rate=0.05)
        executor = ResilientExecutor(
            ExecutionPolicy(retry=RetryPolicy(max_retries=2)),
            injector=FaultInjector(profile, seed=0),
        )
        cell = executor.run_cell_supervised(
            "corrupt", TrainTestAttack(), ChannelType.TIMING_WINDOW,
            "lvp", n_runs=3, seed=1,
        )
        assert cell.result is not None
        # The reported predictor name survives the corruption wrapper.
        assert cell.result.predictor_name == "lvp"


class TestExecutionRecord:
    def test_record_carries_classification_and_attempts(self):
        executor = ResilientExecutor()
        cell = executor.supervise(
            "c", lambda seed: fake(0.4), seed=1, n_runs=6
        )
        record = cell.execution_record()
        assert record["classification"] == "clean"
        assert record["final_seed"] == 1
        assert record["final_n_runs"] == 6
        assert len(record["attempts"]) == 1
