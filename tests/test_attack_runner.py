"""Tests for AttackConfig/AttackRunner plumbing."""

import pytest

from repro.core.attack import (
    AttackConfig,
    AttackRunner,
    attack_dram_config,
    make_predictor,
)
from repro.core.channels import ChannelType
from repro.core.variants import SpillOverAttack, TestHitAttack, TrainTestAttack
from repro.defenses import RandomWindowDefense
from repro.errors import AttackError
from repro.perf.counters import COUNTERS
from repro.vp.lvp import LastValuePredictor
from repro.vp.nopred import NoPredictor
from repro.vp.vtage import VtagePredictor


class TestConfig:
    def test_defaults_valid(self):
        AttackConfig()

    def test_confidence_validation(self):
        with pytest.raises(AttackError):
            AttackConfig(confidence=0)

    def test_n_runs_validation(self):
        with pytest.raises(AttackError):
            AttackConfig(n_runs=1)

    def test_modify_mode_validation(self):
        with pytest.raises(AttackError):
            AttackConfig(modify_mode="bogus")


class TestPredictorFactory:
    def test_lvp(self):
        predictor = make_predictor("lvp", 4)
        assert isinstance(predictor, LastValuePredictor)
        assert predictor.confidence_threshold == 4

    def test_vtage(self):
        assert isinstance(make_predictor("vtage", 4), VtagePredictor)

    def test_none(self):
        assert isinstance(make_predictor("none", 4), NoPredictor)

    def test_unknown(self):
        with pytest.raises(AttackError):
            make_predictor("magic", 4)

    def test_callable_predictor(self):
        config = AttackConfig(
            n_runs=2, predictor=lambda c: LastValuePredictor(
                confidence_threshold=c
            )
        )
        runner = AttackRunner(TrainTestAttack(), config)
        result = runner.run_experiment()
        assert len(result.comparison.mapped) == 2


class TestRunner:
    def test_unsupported_channel_rejected(self):
        # Spill Over is timing-window only (Table III).
        config = AttackConfig(n_runs=2, channel=ChannelType.PERSISTENT)
        with pytest.raises(AttackError):
            AttackRunner(SpillOverAttack(), config)

    def test_trials_are_reproducible(self):
        config = AttackConfig(n_runs=2, seed=9)
        first = AttackRunner(TrainTestAttack(), config).run_trial(True, 0)
        second = AttackRunner(TrainTestAttack(), config).run_trial(True, 0)
        assert first.measurement == second.measurement

    @pytest.mark.parametrize("channel, defended", [
        (ChannelType.TIMING_WINDOW, False),
        (ChannelType.PERSISTENT, False),
        (ChannelType.TIMING_WINDOW, True),
    ])
    def test_warm_reset_matches_cold_construction(self, channel, defended):
        # One runner's trial stream (first trial builds the machine,
        # later trials reset it in place) against a fresh runner per
        # trial.  The defended cell's R-type wrappers share one RNG per
        # defense instance, so both sides get an identically seeded
        # defense and consume it in the same trial order.
        def config():
            return AttackConfig(
                n_runs=3, seed=5, channel=channel,
                defense=RandomWindowDefense(3) if defended else None,
            )

        schedule = [(mapped, index) for index in range(3)
                    for mapped in (True, False)]
        before = COUNTERS.warm_resets
        runner = AttackRunner(TrainTestAttack(), config())
        warm = [runner.run_trial(mapped, index)
                for mapped, index in schedule]
        assert COUNTERS.warm_resets - before == len(schedule) - 1

        cold_config = config()
        cold = [AttackRunner(TrainTestAttack(), cold_config)
                .run_trial(mapped, index) for mapped, index in schedule]
        assert [(t.measurement, t.sim_cycles) for t in warm] == [
            (t.measurement, t.sim_cycles) for t in cold
        ]

    def test_different_trials_vary(self):
        config = AttackConfig(n_runs=2, seed=9)
        runner = AttackRunner(TrainTestAttack(), config)
        measurements = {
            runner.run_trial(False, index).measurement for index in range(8)
        }
        assert len(measurements) > 1  # jitter produces a distribution

    def test_experiment_result_fields(self):
        config = AttackConfig(n_runs=3, seed=1)
        result = AttackRunner(TestHitAttack(), config).run_experiment()
        assert result.variant_name == "Test + Hit"
        assert result.predictor_name == "lvp"
        assert result.defense_name == "none"
        assert result.transmission_rate_kbps > 0
        assert "Test + Hit" in result.describe()

    def test_persistent_decode_cost_charged(self):
        timing = AttackRunner(
            TestHitAttack(), AttackConfig(n_runs=2, seed=1)
        ).run_experiment()
        persistent = AttackRunner(
            TestHitAttack(),
            AttackConfig(n_runs=2, seed=1, channel=ChannelType.PERSISTENT),
        ).run_experiment()
        # The full-array reload decode makes persistent attacks slower.
        assert (
            persistent.transmission_rate_kbps < timing.transmission_rate_kbps
        )

    def test_oracle_mode_runs(self):
        config = AttackConfig(n_runs=2, seed=1, use_oracle=True)
        result = AttackRunner(TrainTestAttack(), config).run_experiment()
        assert len(result.comparison.mapped) == 2

    def test_attack_dram_config_has_wide_jitter(self):
        config = attack_dram_config()
        assert config.jitter > 100
