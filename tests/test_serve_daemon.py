"""End-to-end contract of the attack-evaluation daemon.

The acceptance invariants under test:

* served verdicts are byte-identical to a clean serial
  :func:`repro.harness.parallel.execute_spec` run of the same cell —
  including under injected worker kills;
* concurrent clients asking the same question share one simulation
  (content-addressed cache);
* the bounded queue rejects with a ``retry_after_s`` hint instead of
  growing without bound;
* a drained daemon restarted on the same root serves journaled cells
  without re-simulating (trial-counter delta zero) and resumes jobs
  that were still open;
* the unhealthy/draining daemon sheds load but still serves cached
  results, marking TTL-expired ones stale.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading

import pytest

from repro.errors import HarnessError
from repro.harness.checkpoint import CheckpointStore
from repro.harness.faults import FaultProfile
from repro.harness.parallel import execute_spec
from repro.harness.runner import ExecutionPolicy, ResilientExecutor
from repro.perf.counters import COUNTERS
from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient
from repro.serve.daemon import ReproDaemon, ServePolicy
from repro.serve.jobqueue import JobQueue, QueueFullError
from repro.serve.protocol import (
    job_key,
    normalize_policy,
    normalize_spec,
    parse_http_request,
    spec_to_cell,
)

N_RUNS = 4

FAST_POLICY = dict(workers=2, job_timeout_s=60.0, cache_ttl_s=300.0,
                   http=False)


def _spec(variant="Train + Hit", seed=1, n_runs=N_RUNS):
    return {"variant": variant, "channel": "timing-window",
            "predictor": "lvp", "n_runs": n_runs, "seed": seed}


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _serial_baseline(spec):
    """The clean serial payload the daemon must match byte-for-byte."""
    normalized = normalize_spec(dict(spec))
    key = job_key(normalized, "compat")
    executor = ResilientExecutor(ExecutionPolicy())
    cell = execute_spec(spec_to_cell(normalized, key), executor)
    return key, cell.to_payload()


class _Daemon:
    """Host one daemon in a thread for the duration of a test."""

    def __init__(self, root, policy=None, **kwargs):
        self.daemon = ReproDaemon(str(root), policy, **kwargs)
        self.thread = None

    def __enter__(self):
        ready = threading.Event()
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.daemon.run(ready)),
            daemon=True,
        )
        self.thread.start()
        assert ready.wait(30.0), "daemon did not come up"
        return self.daemon

    def __exit__(self, *exc):
        self.daemon.request_shutdown()
        self.thread.join(30.0)
        assert not self.thread.is_alive(), "daemon did not drain"


class TestProtocol:
    def test_normalize_fills_defaults_and_validates(self):
        spec = normalize_spec({"variant": "Train + Hit"})
        assert spec["channel"] == "timing-window"
        assert spec["n_runs"] == 100 and spec["predictor"] == "lvp"
        with pytest.raises(HarnessError):
            normalize_spec({"variant": "No Such Attack"})
        with pytest.raises(HarnessError):
            normalize_spec({"variant": "Train + Hit", "bogus": 1})
        with pytest.raises(HarnessError, match="snapshot_trials"):
            normalize_spec({"variant": "Train + Hit", "snapshot_trials": True})
        with pytest.raises(HarnessError):
            normalize_spec({"variant": "Train + Hit", "n_runs": 0})
        with pytest.raises(HarnessError):
            normalize_policy("yolo")

    def test_job_key_is_content_addressed(self):
        base = normalize_spec(_spec())
        spelled_out = normalize_spec({**_spec(), "kind": "experiment"})
        assert job_key(base, "compat") == job_key(spelled_out, "compat")
        assert job_key(base, "compat") != job_key(base, "robust")
        assert (job_key(normalize_spec(_spec(seed=2)), "compat")
                != job_key(base, "compat"))

    def test_parse_http_request(self):
        method, path, headers, body = parse_http_request(
            b"POST /submit HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
        )
        assert (method, path) == ("POST", "/submit")
        assert headers["content-length"] == "2"
        with pytest.raises(HarnessError):
            parse_http_request(b"garbage with no terminator")


class TestJobQueue:
    def test_backpressure_and_coalescing(self, tmp_path):
        jobs = JobQueue(str(tmp_path), capacity=2)
        jobs.admit("a", {"spec": {}}, retry_after_s=1.0)
        again = jobs.admit("a", {"spec": {}}, retry_after_s=1.0)
        assert again["job_id"] == "a"  # idempotent coalesce
        jobs.admit("b", {"spec": {}}, retry_after_s=1.0)
        with pytest.raises(QueueFullError) as excinfo:
            jobs.admit("c", {"spec": {}}, retry_after_s=2.5)
        assert excinfo.value.retry_after_s == 2.5
        # Finishing a job frees its slot.
        assert jobs.next_queued()["job_id"] == "a"
        jobs.mark("a", "done")
        jobs.admit("c", {"spec": {}}, retry_after_s=1.0)

    def test_recovery_requeues_open_jobs(self, tmp_path):
        jobs = JobQueue(str(tmp_path), capacity=8)
        jobs.admit("a", {"spec": {}}, retry_after_s=1.0)
        jobs.admit("b", {"spec": {}}, retry_after_s=1.0)
        jobs.next_queued()  # a -> running
        jobs.mark("a", "done")
        # New incarnation over the same journal directory.
        fresh = JobQueue(str(tmp_path), capacity=8)
        recovered = fresh.recover()
        assert [job["job_id"] for job in recovered] == ["b"]
        assert fresh.get("a")["state"] == "done"
        assert fresh.get("b")["recovered"] is True

    def test_recovery_quarantines_torn_job_files(self, tmp_path):
        jobs = JobQueue(str(tmp_path), capacity=8)
        jobs.admit("a", {"spec": {}}, retry_after_s=1.0)
        (tmp_path / "a.json").write_text('{"job_id": "a", "sta')
        fresh = JobQueue(str(tmp_path), capacity=8)
        assert fresh.recover() == []
        assert (tmp_path / "a.json.corrupt").exists()


class TestResultCache:
    def _store(self, tmp_path):
        return CheckpointStore.open(
            str(tmp_path / "checkpoint"), {"version": "test"},
            resume=False,
        )

    def test_lookup_ladder(self, tmp_path):
        store = self._store(tmp_path)
        cache = ResultCache(store, ttl_s=300.0)
        assert cache.lookup("k") is None  # miss
        store.save("serve/k", {"cell_id": "serve/k"})
        hit = cache.lookup("k")
        assert hit["source"] == "journal" and hit["stale"] is False
        assert cache.lookup("k")["source"] == "memory"

    def test_stale_requires_permission(self, tmp_path):
        store = self._store(tmp_path)
        cache = ResultCache(store, ttl_s=1e-9)
        cache.put("k", {"cell_id": "serve/k"})
        # TTL instantly expired and nothing journaled under the cell id
        # (put assumes the daemon journaled separately): stale-only.
        assert cache.lookup("k", allow_stale=False) is None
        stale = cache.lookup("k", allow_stale=True)
        assert stale["stale"] is True and stale["age_s"] > 0

    def test_eviction_bounded(self, tmp_path):
        cache = ResultCache(self._store(tmp_path), max_entries=2)
        for index in range(4):
            cache.put(f"k{index}", {"cell_id": f"serve/k{index}"})
        assert len(cache) == 2


class TestDaemonEndToEnd:
    def test_concurrent_clients_match_serial_baseline(self, tmp_path):
        """3 clients, duplicate load, verdicts byte-identical to serial."""
        specs = [_spec("Train + Hit"), _spec("Train + Test")]
        baselines = {key: payload for key, payload in
                     (_serial_baseline(spec) for spec in specs)}
        before = COUNTERS.snapshot()
        with _Daemon(tmp_path, ServePolicy(**FAST_POLICY)) as daemon:
            responses = []
            errors = []

            def one_client(index):
                client = ServeClient(str(tmp_path))
                for spec in specs:
                    response = client.submit(
                        spec, wait=True, timeout_s=120.0
                    )
                    if response.get("state") != "done":
                        errors.append(response)
                    responses.append(response)

            threads = [threading.Thread(target=one_client, args=(i,))
                       for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
            assert not errors, errors
            assert len(responses) == 6
            for response in responses:
                expected = baselines[response["job_id"]]
                assert _digest(response["result"]) == _digest(expected)
            # The daemon journaled exactly the serial payloads.
            for key, payload in baselines.items():
                assert _digest(daemon.store.load(f"serve/{key}")) \
                    == _digest(payload)
            delta = COUNTERS.delta(before, COUNTERS.snapshot())
            served = delta.get("serve_cache_hits", 0) \
                + delta.get("serve_cache_journal_hits", 0)
            assert served >= 1  # duplicate load hit the cache
            assert delta.get("serve_jobs_done", 0) == len(specs)

    def test_worker_kill_chaos_still_byte_identical(self, tmp_path):
        spec = _spec("Train + Hit")
        key, baseline = _serial_baseline(spec)
        profile = FaultProfile(
            name="test-kill", kill_cells=(f"serve/{key}",)
        )
        restarts_before = COUNTERS.serve_worker_restarts
        with _Daemon(
            tmp_path, ServePolicy(**FAST_POLICY),
            fault_profile_obj=profile,
        ):
            client = ServeClient(str(tmp_path))
            response = client.submit(spec, wait=True, timeout_s=120.0)
            assert response["state"] == "done", response
            assert _digest(response["result"]) == _digest(baseline)
        assert COUNTERS.serve_worker_restarts > restarts_before

    def test_queue_backpressure_rejects_with_retry_hint(self, tmp_path):
        policy = ServePolicy(workers=1, queue_limit=1,
                             job_timeout_s=60.0, http=False)
        with _Daemon(tmp_path, policy):
            client = ServeClient(str(tmp_path))
            first = client.submit(_spec(seed=1))
            assert first["ok"], first
            rejected = None
            for seed in range(2, 12):
                response = client.submit(_spec(seed=seed))
                if not response.get("ok"):
                    rejected = response
                    break
            assert rejected is not None, "queue never pushed back"
            assert rejected["reason"] == "queue-full"
            assert rejected["retry_after_s"] > 0

    def test_restart_serves_journal_without_resimulation(self, tmp_path):
        spec = _spec("Train + Hit")
        with _Daemon(tmp_path, ServePolicy(**FAST_POLICY)):
            client = ServeClient(str(tmp_path))
            done = client.submit(spec, wait=True, timeout_s=120.0)
            assert done["state"] == "done"
            first_payload = done["result"]
        # Second incarnation, same root: the journal must answer.
        trials_before = COUNTERS.trials
        with _Daemon(tmp_path, ServePolicy(**FAST_POLICY)):
            client = ServeClient(str(tmp_path))
            again = client.submit(spec, wait=True, timeout_s=30.0)
            assert again["state"] == "done"
            assert again["cached"] is True
            assert again["source"] == "journal"
            assert _digest(again["result"]) == _digest(first_payload)
        assert COUNTERS.trials == trials_before  # nothing re-simulated

    def test_restart_resumes_open_jobs(self, tmp_path):
        """A job still queued at drain completes after a restart."""
        spec = _spec("Train + Test", seed=5)
        _, baseline = _serial_baseline(spec)
        with _Daemon(tmp_path, ServePolicy(**FAST_POLICY)):
            client = ServeClient(str(tmp_path))
            accepted = client.submit(spec)  # no wait: may still be open
            assert accepted["ok"]
            job_id = accepted["job_id"]
        with _Daemon(tmp_path, ServePolicy(**FAST_POLICY)):
            client = ServeClient(str(tmp_path))
            outcome = client.wait(job_id, timeout_s=120.0)
            assert outcome["state"] == "done", outcome
            assert _digest(outcome["result"]) == _digest(baseline)

    def test_shedding_serves_stale_with_marker(self, tmp_path):
        """An unhealthy pool sheds misses but serves cached results."""
        spec = _spec("Train + Hit")
        policy = ServePolicy(workers=1, queue_limit=4,
                             job_timeout_s=60.0, cache_ttl_s=1e-9,
                             restart_budget=0, http=False)
        with _Daemon(tmp_path, policy) as daemon:
            client = ServeClient(str(tmp_path))
            done = client.submit(spec, wait=True, timeout_s=120.0)
            assert done["state"] == "done"
            # Force the degraded mode the breaker would reach.
            daemon._draining = True
            # Cached-with-TTL-expired: journal layer answers first; the
            # stale path needs the journal gone.
            daemon.store.clear()
            daemon.cache.put("primed", {"cell_id": "x"})
            stale = client.submit(spec)
            assert stale["ok"] and stale["cached"]
            assert stale["stale"] is True and stale["age_s"] > 0
            fresh_question = client.submit(_spec(seed=99))
            assert fresh_question["ok"] is False
            assert fresh_question["reason"] == "shedding"
            daemon._draining = False  # let __exit__ drain normally
