"""--strict-preflight: static/dynamic disagreement is a hard error."""

import dataclasses

import pytest

from repro.core.channels import ChannelType
from repro.core.variants import TrainTestAttack
from repro.defenses import DelaySideEffectsDefense
from repro.errors import AnalysisSoundnessError, ReproError
from repro.harness.runner import ExecutionPolicy, ResilientExecutor

#: Train + Test over the persistent channel is statically effective,
#: but delaying predicted-load side effects (defense D) closes the
#: persistent channel, so the measurement is ineffective: the exact
#: static/dynamic split strict mode must escalate.
DEFEATED = dict(
    channel=ChannelType.PERSISTENT,
    defense=DelaySideEffectsDefense(),
)


def _run(policy, **overrides):
    executor = ResilientExecutor(policy)
    return executor.run_cell_supervised(
        "strict/train-test", TrainTestAttack(),
        overrides.pop("channel", ChannelType.TIMING_WINDOW),
        "lvp", 20, 0, **overrides,
    )


def test_strict_preflight_raises_on_disagreement():
    with pytest.raises(AnalysisSoundnessError) as excinfo:
        _run(ExecutionPolicy(strict_preflight=True), **DEFEATED)
    message = str(excinfo.value)
    assert "static analysis predicts effective" in message
    assert "measurement is ineffective" in message


def test_soundness_error_is_a_repro_error():
    # The CLI maps ReproError to exit code 1; strict mode must ride
    # that path rather than crash with a bare traceback.
    assert issubclass(AnalysisSoundnessError, ReproError)


def test_default_policy_tolerates_disagreement():
    cell = _run(ExecutionPolicy(), **DEFEATED)
    assert cell.result is not None
    assert not cell.result.attack_succeeds


def test_strict_preflight_passes_on_agreement():
    cell = _run(ExecutionPolicy(strict_preflight=True))
    assert cell.result is not None
    assert cell.result.attack_succeeds


def test_run_all_threads_strict_preflight(tmp_path):
    # A defenseless run agrees everywhere: strict mode must not
    # perturb the artifacts (byte-identical policy contract).
    from repro.harness.persistence import run_all

    written = run_all(
        str(tmp_path), n_runs=10, artifacts=["table1"],
        policy=dataclasses.replace(
            ExecutionPolicy.robust(), strict_preflight=True
        ),
    )
    assert "table1" in written
