"""Group-sequential measurement engine: boundaries, streaming, supervision.

Three layers under test:

* :mod:`repro.stats.sequential` — the alpha-spending boundary math
  (pure arithmetic, including a slow Monte-Carlo type-I calibration);
* :class:`repro.core.attack.IncrementalExperiment` — trial streaming
  with the byte-identity guarantee (trial k is the same simulation
  whether streamed in batches or run cold);
* the harness plumbing — :func:`repro.harness.runner.run_sequential_cell`,
  the supervised executor, persistence, parallelism and resume.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.core.attack import AttackConfig, AttackRunner
from repro.core.channels import ChannelType
from repro.core.variants import TrainTestAttack
from repro.errors import AttackError, HarnessError, StatsError
from repro.harness.checkpoint import CheckpointStore
from repro.harness.experiment import cell_runner
from repro.harness.parallel import run_cells, sweep_specs
from repro.harness.persistence import run_all
from repro.harness.runner import (
    AdaptivePolicy,
    CellClassification,
    ExecutionPolicy,
    ResilientExecutor,
    RetryPolicy,
    SequentialPolicy,
    run_sequential_cell,
)
from repro.perf.counters import COUNTERS
from repro.stats.sequential import (
    DEFAULT_LOOK_FRACTIONS,
    GroupSequentialTest,
    SequentialDesign,
    default_looks,
    obrien_fleming_spending,
    pocock_spending,
    run_group_sequential,
)
from repro.stats.ttest import ALPHA


# ----------------------------------------------------------------------
# Boundary math
# ----------------------------------------------------------------------

class TestSpendingFunctions:
    def test_obf_boundary_values(self):
        assert obrien_fleming_spending(0.0) == 0.0
        assert obrien_fleming_spending(-1.0) == 0.0
        assert obrien_fleming_spending(1.0) == ALPHA
        assert obrien_fleming_spending(2.0) == ALPHA

    def test_obf_monotone_nondecreasing(self):
        grid = [i / 20 for i in range(21)]
        values = [obrien_fleming_spending(t) for t in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_obf_releases_almost_nothing_early(self):
        # The property the attack sweep relies on: only overwhelming
        # evidence can stop a cell at the first look.
        assert obrien_fleming_spending(0.2) < 1e-4
        assert obrien_fleming_spending(0.4) < 0.005

    def test_pocock_spends_faster_early(self):
        for t in (0.2, 0.4, 0.6):
            assert pocock_spending(t) > obrien_fleming_spending(t)
        assert pocock_spending(1.0) == ALPHA

    def test_alpha_parameter_respected(self):
        assert obrien_fleming_spending(1.0, alpha=0.01) == 0.01
        assert pocock_spending(0.5, alpha=0.01) < 0.01


class TestDefaultLooks:
    def test_canonical_five_look_plan(self):
        assert default_looks(100) == (20, 40, 60, 80, 100)

    def test_small_budget_drops_degenerate_looks(self):
        # round(0.2 * 4) = 1 is below the t-test minimum and dropped;
        # duplicates collapse; the cap always terminates the plan.
        looks = default_looks(4)
        assert looks[-1] == 4
        assert looks == tuple(sorted(set(looks)))
        assert all(n >= 2 for n in looks)

    def test_always_ends_at_cap(self):
        for n_max in (2, 3, 7, 10, 33, 100):
            assert default_looks(n_max)[-1] == n_max

    def test_validation(self):
        with pytest.raises(StatsError):
            default_looks(1)
        with pytest.raises(StatsError):
            default_looks(100, fractions=(0.0, 1.0))
        with pytest.raises(StatsError):
            default_looks(100, fractions=(0.5, 1.5))


class TestSequentialDesign:
    def test_validation(self):
        with pytest.raises(StatsError):
            SequentialDesign(looks=())
        with pytest.raises(StatsError):
            SequentialDesign(looks=(1, 10))  # below MIN_LOOK_TRIALS
        with pytest.raises(StatsError):
            SequentialDesign(looks=(10, 10))  # not strictly increasing
        with pytest.raises(StatsError):
            SequentialDesign(looks=(10, 20), alpha=1.5)
        with pytest.raises(StatsError):
            SequentialDesign(looks=(10, 20), spending="bogus")
        with pytest.raises(StatsError):
            SequentialDesign(looks=(10, 20), final_level="bogus")

    def test_fixed_n_final_level_is_plain_alpha(self):
        design = SequentialDesign(looks=(20, 40, 60, 80, 100))
        assert design.level_at(design.num_looks - 1) == ALPHA

    def test_interim_levels_are_spending_increments(self):
        design = SequentialDesign(looks=(20, 40, 60, 80, 100))
        total = sum(design.level_at(k) for k in range(design.num_looks - 1))
        assert total == pytest.approx(design.interim_spend())
        # OBF releases alpha back-loaded: later interim looks are
        # strictly more permissive than earlier ones.
        levels = [design.level_at(k) for k in range(design.num_looks - 1)]
        assert all(b > a for a, b in zip(levels, levels[1:]))

    def test_spend_final_level_bounds_total_by_alpha(self):
        design = SequentialDesign(
            looks=(20, 40, 60, 80, 100), final_level="spend"
        )
        total = sum(design.level_at(k) for k in range(design.num_looks))
        assert total == pytest.approx(ALPHA)

    def test_single_look_design_is_fixed_n(self):
        design = SequentialDesign(looks=(100,))
        assert design.interim_spend() == 0.0
        assert design.level_at(0) == ALPHA

    def test_payload_is_json_serialisable(self):
        design = SequentialDesign(looks=(20, 40))
        payload = json.loads(json.dumps(design.to_payload()))
        assert payload["looks"] == [20, 40]
        assert len(payload["levels"]) == 2


class TestGroupSequentialTest:
    def test_early_rejection(self):
        test = GroupSequentialTest(SequentialDesign(looks=(20, 40, 100)))
        decision = test.decide(1e-9)
        assert decision.decision == "reject"
        assert test.done and test.effective and test.stopped_early
        assert test.effective_n == 20

    def test_acceptance_at_final_look(self):
        test = GroupSequentialTest(SequentialDesign(looks=(20, 100)))
        assert test.decide(0.5).decision == "continue"
        assert test.decide(0.5).decision == "accept"
        assert test.done and not test.effective and not test.stopped_early
        assert test.effective_n == 100

    def test_final_look_rejection_is_not_early(self):
        test = GroupSequentialTest(SequentialDesign(looks=(20, 100)))
        test.decide(0.5)
        assert test.decide(0.001).decision == "reject"
        assert test.effective and not test.stopped_early

    def test_decide_after_terminal_raises(self):
        test = GroupSequentialTest(SequentialDesign(looks=(20, 100)))
        test.decide(1e-9)
        with pytest.raises(StatsError):
            test.decide(0.5)

    def test_trajectory_payload(self):
        test = GroupSequentialTest(SequentialDesign(looks=(20, 40, 100)))
        test.decide(0.5)
        test.decide(1e-9)
        payload = json.loads(json.dumps(test.to_payload()))
        assert [look["decision"] for look in payload["looks"]] == [
            "continue", "reject",
        ]
        assert payload["stopped_early"] is True
        assert payload["effective_n"] == 40


class TestRunGroupSequential:
    def test_separated_samples_stop_early(self):
        rng = random.Random(1)
        a = [100 + rng.gauss(0, 5) for _ in range(100)]
        b = [150 + rng.gauss(0, 5) for _ in range(100)]
        test = run_group_sequential(
            SequentialDesign(looks=(20, 40, 60, 80, 100)), a, b
        )
        assert test.effective and test.stopped_early
        assert test.effective_n == 20

    def test_null_samples_run_to_cap(self):
        rng = random.Random(2)
        a = [100 + rng.gauss(0, 5) for _ in range(40)]
        b = [100 + rng.gauss(0, 5) for _ in range(40)]
        test = run_group_sequential(
            SequentialDesign(looks=(10, 20, 40)), a, b
        )
        assert test.done and test.effective_n == 40

    def test_short_samples_rejected(self):
        with pytest.raises(StatsError):
            run_group_sequential(
                SequentialDesign(looks=(10, 20)), [1.0] * 5, [1.0] * 20
            )

    @pytest.mark.slow
    def test_monte_carlo_type_one_error_near_alpha(self):
        """Null-cell rejection rate stays near the design alpha.

        With ``final_level="fixed-n"`` the worst-case bound is
        ``alpha + interim_spend`` (union bound); empirically the rate
        is near alpha because interim crossings under the null almost
        always imply final-look rejections too.  2000 replicates give
        a standard error of ~0.5% at alpha = 5%.
        """
        design = SequentialDesign(looks=default_looks(40))
        rng = random.Random(0)
        replicates = 2000
        rejections = 0
        for _ in range(replicates):
            a = [rng.gauss(0, 1) for _ in range(40)]
            b = [rng.gauss(0, 1) for _ in range(40)]
            if run_group_sequential(design, a, b).effective:
                rejections += 1
        rate = rejections / replicates
        bound = design.alpha + design.interim_spend()
        assert rate <= bound, f"type-I rate {rate:.4f} exceeds {bound:.4f}"
        assert design.alpha * 0.4 <= rate <= design.alpha * 1.5, (
            f"type-I rate {rate:.4f} implausibly far from "
            f"alpha={design.alpha}"
        )


# ----------------------------------------------------------------------
# Incremental trial streaming
# ----------------------------------------------------------------------

class TestIncrementalStreaming:
    def test_streamed_trials_match_cold_run(self):
        config = AttackConfig(n_runs=10, seed=3)
        cold = AttackRunner(TrainTestAttack(), config).run_experiment()

        experiment = AttackRunner(
            TrainTestAttack(), AttackConfig(n_runs=10, seed=3)
        ).run_incremental()
        experiment.advance(4)
        experiment.advance(7)
        experiment.advance(10)
        streamed = experiment.result()

        assert (
            streamed.comparison.mapped.samples
            == cold.comparison.mapped.samples
        )
        assert (
            streamed.comparison.unmapped.samples
            == cold.comparison.unmapped.samples
        )
        assert streamed.pvalue == cold.pvalue

    def test_interim_comparison_exposes_pvalue(self):
        experiment = AttackRunner(
            TrainTestAttack(), AttackConfig(n_runs=10, seed=3)
        ).run_incremental()
        state = experiment.advance(4)
        assert state.n == 4
        assert 0.0 <= state.comparison.pvalue <= 1.0
        assert state.mean_trial_cycles > 0

    def test_rewind_rejected(self):
        experiment = AttackRunner(
            TrainTestAttack(), AttackConfig(n_runs=10, seed=3)
        ).run_incremental()
        experiment.advance(6)
        with pytest.raises(AttackError):
            experiment.advance(4)

    def test_result_requires_two_trials(self):
        experiment = AttackRunner(
            TrainTestAttack(), AttackConfig(n_runs=10, seed=3)
        ).run_incremental()
        with pytest.raises(AttackError):
            experiment.result()

    def test_extension_past_requested_n_runs(self):
        # Adaptive extension draws beyond config.n_runs from the same
        # seed schedule: the prefix must match a larger cold run.
        large = AttackRunner(
            TrainTestAttack(), AttackConfig(n_runs=12, seed=3)
        ).run_experiment()
        experiment = AttackRunner(
            TrainTestAttack(), AttackConfig(n_runs=6, seed=3)
        ).run_incremental()
        experiment.advance(6)
        experiment.advance(12)
        assert (
            experiment.result().comparison.mapped.samples
            == large.comparison.mapped.samples
        )


# ----------------------------------------------------------------------
# run_sequential_cell
# ----------------------------------------------------------------------

class TestRunSequentialCell:
    def test_decisive_cell_stops_early(self):
        runner = cell_runner(
            TrainTestAttack(), ChannelType.TIMING_WINDOW, "lvp",
            n_runs=40, seed=1,
        )
        fixed = cell_runner(
            TrainTestAttack(), ChannelType.TIMING_WINDOW, "lvp",
            n_runs=40, seed=1,
        ).run_experiment()
        before = COUNTERS.snapshot()
        outcome = run_sequential_cell(
            runner, SequentialPolicy().design_for(40)
        )
        assert outcome.record["stopped_early"]
        assert outcome.record["effective_n"] < 40
        assert outcome.record["planned_n"] == 40
        assert outcome.result.attack_succeeds == fixed.attack_succeeds
        # The streamed sample is an exact prefix of the fixed-N one.
        n = len(outcome.result.comparison.mapped)
        assert (
            outcome.result.comparison.mapped.samples
            == fixed.comparison.mapped.samples[:n]
        )
        assert (
            COUNTERS.sequential_early_stops
            == before["sequential_early_stops"] + 1
        )
        assert (
            COUNTERS.sequential_trials_avoided
            > before["sequential_trials_avoided"]
        )

    def test_null_cell_runs_to_cap_with_fixed_n_verdict(self):
        runner = cell_runner(
            TrainTestAttack(), ChannelType.TIMING_WINDOW, "none",
            n_runs=20, seed=1,
        )
        fixed = cell_runner(
            TrainTestAttack(), ChannelType.TIMING_WINDOW, "none",
            n_runs=20, seed=1,
        ).run_experiment()
        outcome = run_sequential_cell(
            runner, SequentialPolicy().design_for(20)
        )
        assert not outcome.record["stopped_early"]
        assert outcome.record["effective_n"] == 20
        assert outcome.result.pvalue == fixed.pvalue
        assert outcome.result.attack_succeeds == fixed.attack_succeeds

    def test_inconclusive_final_look_extends_in_place(self):
        # A band of [0, 1) declares every p-value inconclusive, so the
        # null cell must extend (keeping its prior trials) until the
        # escalation budget is spent, then report a degradation note.
        adaptive = AdaptivePolicy(
            band_low=0.0, band_high=1.0, max_escalations=2
        )
        runner = cell_runner(
            TrainTestAttack(), ChannelType.TIMING_WINDOW, "none",
            n_runs=10, seed=1,
        )
        before = COUNTERS.snapshot()
        outcome = run_sequential_cell(
            runner, SequentialPolicy().design_for(10), adaptive
        )
        assert outcome.extensions == 2
        assert outcome.record["effective_n"] == 40  # 10 -> 20 -> 40
        assert [ext["n"] for ext in outcome.record["extensions"]] == [20, 40]
        assert outcome.record["extensions"][0]["trials_reused"] == 20
        assert "inconclusive" in outcome.note
        assert (
            COUNTERS.escalation_trials_reused
            == before["escalation_trials_reused"] + 20 + 40
        )
        # The extended sample is a prefix of an equivalent cold run.
        large = cell_runner(
            TrainTestAttack(), ChannelType.TIMING_WINDOW, "none",
            n_runs=40, seed=1,
        ).run_experiment()
        assert (
            outcome.result.comparison.mapped.samples
            == large.comparison.mapped.samples
        )

    def test_conclusive_extension_stops(self):
        # Decisive cell with an interim-proof band: the first look that
        # lands conclusive ends the extension loop.
        adaptive = AdaptivePolicy(
            band_low=0.0, band_high=1.0, max_escalations=5
        )
        runner = cell_runner(
            TrainTestAttack(), ChannelType.TIMING_WINDOW, "lvp",
            n_runs=40, seed=1,
        )
        outcome = run_sequential_cell(
            runner, SequentialPolicy().design_for(40), adaptive
        )
        # lvp at seed 1 stops early (decisively), so the adaptive band
        # is never consulted.
        assert outcome.extensions == 0
        assert outcome.note == ""


# ----------------------------------------------------------------------
# Supervised execution and journaling
# ----------------------------------------------------------------------

class TestSupervisedSequential:
    def test_supervised_cell_records_trajectory(self):
        executor = ResilientExecutor(
            ExecutionPolicy(sequential=SequentialPolicy())
        )
        cell = executor.run_cell_supervised(
            "seq", TrainTestAttack(), ChannelType.TIMING_WINDOW, "lvp",
            n_runs=40, seed=1,
        )
        assert cell.classification is CellClassification.CLEAN
        assert cell.sequential is not None
        assert cell.sequential["stopped_early"]
        assert cell.sequential["effective_n"] < 40
        # The journaled attempt reflects the trials actually run.
        assert cell.final_attempt.n_runs == cell.sequential["effective_n"]

    def test_fixed_n_payload_has_no_sequential_key(self):
        # Byte-identity guarantee: journals of fixed-N runs must not
        # change shape because the sequential engine exists.
        executor = ResilientExecutor(ExecutionPolicy())
        cell = executor.run_cell_supervised(
            "fixed", TrainTestAttack(), ChannelType.TIMING_WINDOW, "lvp",
            n_runs=4, seed=1,
        )
        assert "sequential" not in cell.to_payload()

    def test_payload_roundtrip(self):
        executor = ResilientExecutor(
            ExecutionPolicy(sequential=SequentialPolicy())
        )
        cell = executor.run_cell_supervised(
            "seq", TrainTestAttack(), ChannelType.TIMING_WINDOW, "lvp",
            n_runs=20, seed=1,
        )
        payload = json.loads(json.dumps(cell.to_payload()))
        from repro.harness.runner import SupervisedCell
        rebuilt = SupervisedCell.from_payload(payload)
        assert rebuilt.sequential == cell.sequential
        assert rebuilt.to_payload() == payload

    def test_sequential_policy_validation(self):
        with pytest.raises(HarnessError):
            SequentialPolicy(looks=())
        with pytest.raises(HarnessError):
            SequentialPolicy(looks=(1, 10))
        with pytest.raises(HarnessError):
            SequentialPolicy(looks=(10, 10))
        with pytest.raises(HarnessError):
            SequentialPolicy(look_fractions=())

    def test_policy_design_for_mixed_budgets(self):
        policy = SequentialPolicy(looks=(10, 20, 50))
        assert policy.design_for(40).looks == (10, 20, 40)
        assert policy.design_for(100).looks == (10, 20, 50, 100)
        meta = json.loads(json.dumps(policy.to_meta()))
        assert meta["looks"] == [10, 20, 50]


class TestSequentialParallelDeterminism:
    def test_workers_match_serial_byte_for_byte(self, tmp_path):
        specs = sweep_specs(["fig5"], n_runs=8, seed=1)
        policy = ExecutionPolicy(sequential=SequentialPolicy())
        meta = {"version": "test", "n_runs": 8, "seed": 1}

        def one_pass(name, workers):
            store = CheckpointStore.open(
                str(tmp_path / name / "checkpoint"), dict(meta),
                resume=False,
            )
            run_cells(specs, store, policy, workers=workers)
            return {spec.cell_id: store.load(spec.cell_id)
                    for spec in specs}

        assert one_pass("serial", 1) == one_pass("parallel", 2)


#: What ``repro all --sequential`` runs under.
SEQUENTIAL_ROBUST = dataclasses.replace(
    ExecutionPolicy.robust(), sequential=SequentialPolicy()
)


class TestRunAllSequential:
    def test_sequential_artifacts_and_summary(self, tmp_path):
        run_all(
            str(tmp_path), n_runs=8, seed=1, artifacts=["fig5"],
            policy=SEQUENTIAL_ROBUST,
        )
        fig5 = json.load(open(str(tmp_path / "fig5.json")))
        records = list(fig5["panels"].values())
        assert all("sequential" in record for record in records)
        summary = json.load(open(str(tmp_path / "run_summary.json")))
        sequential = summary["sequential_summary"]
        assert sequential["cells"] == len(records)
        assert (
            sequential["effective_trials"] + sequential["trials_avoided"]
            == sequential["planned_trials"]
        )

    def test_fixed_n_summary_has_no_sequential_section(self, tmp_path):
        run_all(str(tmp_path), n_runs=4, seed=1, artifacts=["fig5"])
        summary = json.load(open(str(tmp_path / "run_summary.json")))
        assert "sequential_summary" not in summary
        fig5 = json.load(open(str(tmp_path / "fig5.json")))
        assert all(
            "sequential" not in record
            for record in fig5["panels"].values()
        )

    def test_resume_across_modes_rejected(self, tmp_path):
        run_all(str(tmp_path), n_runs=4, seed=1, artifacts=["fig5"])
        with pytest.raises(HarnessError, match="resume"):
            run_all(
                str(tmp_path), n_runs=4, seed=1, artifacts=["fig5"],
                resume=True, policy=SEQUENTIAL_ROBUST,
            )

    def test_sequential_resume_byte_identity(self, tmp_path):
        """Kill/resume parity: a partial sequential journal resumes to
        the same bytes as an uninterrupted run."""
        full = tmp_path / "full"
        killed = tmp_path / "killed"
        full.mkdir()
        killed.mkdir()
        kwargs = dict(
            n_runs=8, seed=1, artifacts=["fig5"], policy=SEQUENTIAL_ROBUST,
        )
        run_all(str(full), **kwargs)
        run_all(str(killed), **kwargs)
        # Simulate a mid-sweep kill: drop half the journaled cells and
        # every rendered artifact, then resume.
        cells = sorted((killed / "checkpoint" / "cells").glob("*.json"))
        assert len(cells) >= 2
        for stale in cells[len(cells) // 2:]:
            stale.unlink()
        for artifact in killed.glob("*.json"):
            artifact.unlink()
        run_all(str(killed), resume=True, **kwargs)
        assert (
            (killed / "fig5.json").read_bytes()
            == (full / "fig5.json").read_bytes()
        )

    def test_escalating_resume_byte_identity(self, tmp_path):
        """Adaptive extension escalation survives kill/resume intact."""
        policy = ExecutionPolicy(
            retry=RetryPolicy(max_retries=2),
            adaptive=AdaptivePolicy(
                band_low=0.0, band_high=1.0, max_escalations=1
            ),
            sequential=SequentialPolicy(),
        )
        full = tmp_path / "full"
        killed = tmp_path / "killed"
        full.mkdir()
        killed.mkdir()
        kwargs = dict(n_runs=8, seed=1, artifacts=["fig5"], policy=policy)
        run_all(str(full), **kwargs)
        fig5 = json.load(open(str(full / "fig5.json")))
        assert any(
            record["sequential"]["extensions"]
            for record in fig5["panels"].values()
        ), "escalation-forcing band produced no extensions"
        run_all(str(killed), **kwargs)
        cells = sorted((killed / "checkpoint" / "cells").glob("*.json"))
        for stale in cells[1:]:
            stale.unlink()
        for artifact in killed.glob("*.json"):
            artifact.unlink()
        run_all(str(killed), resume=True, **kwargs)
        assert (
            (killed / "fig5.json").read_bytes()
            == (full / "fig5.json").read_bytes()
        )
