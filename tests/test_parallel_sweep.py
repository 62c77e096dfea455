"""Determinism of the supervised sweep engine.

The contract under test: journal payloads and artifact records are
byte-identical for any worker count — including the serial fallback,
under fault injection, and across a mid-sweep crash + resume.  The
tests hash the rendered records, so any divergence (seed derivation,
ordering, float formatting) fails loudly.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.errors import HarnessError
from repro.harness.checkpoint import CheckpointStore
from repro.harness.parallel import (
    CellSpec,
    WORKERS_ENV,
    default_workers,
    run_cells,
    sweep_specs,
)
from repro.harness.persistence import run_all
from repro.harness.runner import (
    AdaptivePolicy,
    ExecutionPolicy,
    RetryPolicy,
    cell_seed_index,
    reseed,
)

META = {"version": "test", "n_runs": 4, "seed": 0}


def _digest(payloads) -> str:
    return hashlib.sha256(
        json.dumps(payloads, sort_keys=True).encode()
    ).hexdigest()


def _run(tmp_path, specs, name, **kwargs):
    store = CheckpointStore.open(
        str(tmp_path / name / "checkpoint"), dict(META), resume=False
    )
    stats = run_cells(specs, store, ExecutionPolicy(), **kwargs)
    return stats, {spec.cell_id: store.load(spec.cell_id) for spec in specs}


class TestSpecEnumeration:
    def test_fig_panels_and_rsa(self):
        specs = sweep_specs(["fig5", "fig7"], n_runs=8, seed=3)
        ids = [spec.cell_id for spec in specs]
        assert "fig5/timing-window-none" in ids
        assert "fig5/timing-window-lvp" in ids
        assert "fig5/persistent-lvp" in ids
        assert "fig7/rsa" in ids
        rsa = next(spec for spec in specs if spec.kind == "rsa")
        assert rsa.seed == 7  # Figure 7 pins its own seed
        assert rsa.exponent is not None
        for spec in specs:
            if spec.kind == "experiment":
                assert spec.n_runs == 8 and spec.seed == 3

    def test_table3_covers_all_variants(self):
        from repro.core.variants import ALL_VARIANTS

        specs = sweep_specs(["table3"], n_runs=4, seed=0)
        # Every variant has the two timing-window cells; persistent
        # cells appear only where the channel is supported.
        assert len(specs) == sum(
            2 + 2 * ("persistent" in
                     {c.value for c in v.supported_channels})
            for v in ALL_VARIANTS
        )
        assert len({spec.cell_id for spec in specs}) == len(specs)

    def test_spec_validation(self):
        with pytest.raises(HarnessError):
            CellSpec(cell_id="x", kind="bogus")
        with pytest.raises(HarnessError):
            CellSpec(cell_id="x", kind="experiment", variant="")


class TestWorkerCountInvariance:
    def test_parallel_matches_serial_fallback(self, tmp_path):
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)
        _, serial = _run(tmp_path, specs, "serial", workers=1)
        _, par2 = _run(tmp_path, specs, "par2", workers=2)
        _, par4 = _run(tmp_path, specs, "par4", workers=4)
        assert _digest(serial) == _digest(par2) == _digest(par4)

    def test_parallel_matches_under_chaos_faults(self, tmp_path):
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)
        _, serial = _run(
            tmp_path, specs, "serial", workers=1,
            fault_profile_name="chaos", fault_seed=0,
        )
        _, par = _run(
            tmp_path, specs, "par", workers=2,
            fault_profile_name="chaos", fault_seed=0,
        )
        assert _digest(serial) == _digest(par)

    def test_cached_cells_are_skipped(self, tmp_path):
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)
        store = CheckpointStore.open(
            str(tmp_path / "checkpoint"), dict(META), resume=False
        )
        first = run_cells(specs, store, ExecutionPolicy(), workers=2)
        second = run_cells(specs, store, ExecutionPolicy(), workers=2)
        assert first.cells_run == len(specs)
        assert second.cells_cached == len(specs)
        assert second.cells_run == 0

    def test_stats_telemetry(self, tmp_path):
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)
        stats, _ = _run(tmp_path, specs, "stats", workers=2)
        assert stats.cells_total == len(specs)
        assert stats.cells_failed == 0
        assert stats.elapsed_s > 0
        assert stats.cells_per_s > 0
        assert stats.workers == stats.effective_workers == 2
        assert stats.counters["trials"] > 0
        assert stats.counters["simulated_cycles"] > 0

    def test_rejects_bad_worker_count(self, tmp_path):
        with pytest.raises(HarnessError):
            run_cells([], None, workers=0)


class TestRunAllParallel:
    def _artifact_digests(self, out_dir):
        digests = {}
        for name in sorted(os.listdir(out_dir)):
            path = os.path.join(out_dir, name)
            if os.path.isfile(path):
                with open(path, "rb") as handle:
                    digests[name] = hashlib.sha256(
                        handle.read()
                    ).hexdigest()
        return digests

    def test_run_all_byte_identical_across_workers(self, tmp_path):
        kwargs = dict(n_runs=4, seed=0, artifacts=["fig5", "table3"])
        serial_dir = tmp_path / "serial"
        par_dir = tmp_path / "par"
        serial_dir.mkdir()
        par_dir.mkdir()
        run_all(str(serial_dir), **kwargs)
        run_all(str(par_dir), workers=2, **kwargs)
        assert (self._artifact_digests(serial_dir)
                == self._artifact_digests(par_dir))

    def test_crash_resume_under_chaos_matches_serial(self, tmp_path):
        """Mid-sweep crash + --resume with workers under fault chaos.

        A partial parallel ``run_cells`` stands in for the crash: the
        journal holds some cells, the process died, and the resumed
        parallel run must complete the sweep byte-identically to an
        uninterrupted serial run under the same fault profile.
        """
        kwargs = dict(n_runs=4, seed=0, artifacts=["fig5"],
                      fault_profile_name="chaos")
        serial_dir = tmp_path / "serial"
        serial_dir.mkdir()
        run_all(str(serial_dir), **kwargs)

        resumed_dir = tmp_path / "resumed"
        resumed_dir.mkdir()
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)
        # "Crash" after the first half of the cells is journaled.
        from repro._version import __version__

        partial = CheckpointStore.open(
            str(resumed_dir / "checkpoint"),
            {"version": __version__, "n_runs": 4, "seed": 0},
            resume=False,
        )
        # Same policy run_all supervises with, so the journaled half
        # retries/escalates exactly as the uninterrupted run would.
        policy = ExecutionPolicy(
            retry=RetryPolicy(max_retries=2), adaptive=AdaptivePolicy()
        )
        run_cells(
            specs[: len(specs) // 2], partial, policy,
            workers=2, fault_profile_name="chaos", fault_seed=0,
        )
        run_all(str(resumed_dir), resume=True, workers=2, **kwargs)
        assert (self._artifact_digests(serial_dir)
                == self._artifact_digests(resumed_dir))

    def test_failed_cells_match_across_workers_and_rerun_on_resume(
        self, tmp_path
    ):
        """Failed cells ship back from workers but are never journaled.

        Under the ``crash`` profile with no retries some cells fail for
        good.  Every worker count must render them identically and
        journal exactly the plan's other cells; a resumed run (here
        without faults) re-attempts the failed ones.
        """
        kwargs = dict(
            n_runs=4, seed=0, artifacts=["fig5", "fig7", "table3"],
            policy=ExecutionPolicy(retry=RetryPolicy(max_retries=0)),
        )
        plan_ids = {
            spec.cell_id
            for spec in sweep_specs(kwargs["artifacts"], n_runs=4, seed=0)
        }

        def journal(out_dir):
            return {
                path.name: path.read_bytes()
                for path in (out_dir / "checkpoint" / "cells").glob("*.json")
            }

        digests = {}
        for workers in (1, 2):
            out_dir = tmp_path / f"workers{workers}"
            out_dir.mkdir()
            run_all(str(out_dir), workers=workers,
                    fault_profile_name="crash", **kwargs)
            digests[workers] = self._artifact_digests(out_dir)
            summary = json.loads((out_dir / "run_summary.json").read_text())
            assert summary["cells"] == len(plan_ids) == 23
            assert summary["classifications"] == {"clean": 16, "failed": 7}
            journaled = {
                json.loads(record)["cell_id"]
                for record in journal(out_dir).values()
            }
            assert len(journaled) == 16 and journaled < plan_ids
        assert digests[1] == digests[2]

        out_dir = tmp_path / "workers2"
        before = journal(out_dir)
        run_all(str(out_dir), workers=2, resume=True, **kwargs)
        summary = json.loads((out_dir / "run_summary.json").read_text())
        assert summary["classifications"] == {"clean": 23}
        after = journal(out_dir)
        assert len(after) == 23
        assert all(after[name] == record for name, record in before.items())


class TestDefaultWorkers:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert default_workers() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert default_workers() == 3

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(HarnessError):
            default_workers()
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(HarnessError):
            default_workers()


class TestReseedCellMixing:
    def test_attempt_zero_preserves_base_seed(self):
        assert reseed(42, 0) == 42
        assert reseed(42, 0, cell_index=cell_seed_index("a/b")) == 42

    def test_cells_decorrelate_retry_streams(self):
        index_a = cell_seed_index("table3/direct/tw_vp")
        index_b = cell_seed_index("table3/spill-over/tw_vp")
        assert index_a != index_b
        streams_a = [reseed(7, k, index_a) for k in range(1, 5)]
        streams_b = [reseed(7, k, index_b) for k in range(1, 5)]
        assert streams_a != streams_b

    def test_cell_index_is_stable(self):
        assert cell_seed_index("fig7/rsa") == cell_seed_index("fig7/rsa")
