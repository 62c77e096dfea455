"""The attack-evaluation daemon: asyncio front, supervised pool back.

``repro serve`` runs one :class:`ReproDaemon` over a root directory::

    <root>/serve.sock          UNIX socket (JSON lines)
    <root>/serve.json          endpoints file (socket path, HTTP port)
    <root>/state/jobs/         journaled job queue (crash recovery)
    <root>/state/checkpoint/   checkpoint journal = durable result cache

Request ladder for a submitted job:

1. cache lookup (memory TTL, then checkpoint journal) — a hit answers
   without simulating;
2. admission to the bounded journaled queue — when full, the client
   gets a reject with a ``retry_after_s`` hint (backpressure, never
   unbounded growth);
3. dispatch to the supervised worker pool
   (:mod:`repro.serve.supervisor`) — heartbeats, hang detection,
   restart backoff, per-job timeouts, deterministic redispatch.

Degradation ladder, in order of escalating trouble:

* **healthy** — misses simulate, hits serve from cache;
* **backpressure** — queue at capacity: reject-with-retry-after;
* **shedding** — the supervisor's restart budget is exhausted (or the
  daemon is draining): cached results still serve, including
  TTL-expired entries marked ``stale`` with their age; everything
  needing a simulation is refused;
* **drain** — on SIGTERM: stop accepting, finish in-flight work
  (bounded by the supervisor's drain timeout), demote the rest to
  ``queued`` in the journal, exit 0.  A restarted daemon recovers the
  queue journal and serves every already-journaled cell without
  re-simulation — byte-identical, because the journal is the cache.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional

from repro._version import __version__
from repro.errors import HarnessError, ReproError
from repro.harness.checkpoint import CheckpointStore, atomic_write_json
from repro.harness.faults import FaultProfile
from repro.harness.parallel import init_worker, run_task
from repro.harness.runner import SupervisedCell
from repro.perf.counters import COUNTERS
from repro.perf.observe import now
from repro.serve.cache import ResultCache
from repro.serve.jobqueue import JobQueue, QueueFullError
from repro.serve.protocol import (
    decode_message,
    encode_message,
    error_response,
    execution_policy,
    http_response,
    job_key,
    normalize_policy,
    normalize_spec,
    parse_http_request,
    spec_to_cell,
)
from repro.serve.supervisor import (
    SupervisorPolicy,
    TaskOutcome,
    WorkerSupervisor,
)
from repro.sim import fallback_histogram, record_fallbacks

#: Name of the endpoints discovery file under the daemon root.
ENDPOINTS_FILE = "serve.json"

#: Name of the UNIX socket under the daemon root.
SOCKET_FILE = "serve.sock"


@dataclass(frozen=True)
class ServePolicy:
    """Daemon-level knobs (supervision knobs ride along)."""

    workers: int = 2
    queue_limit: int = 16
    cache_ttl_s: float = 300.0
    job_timeout_s: Optional[float] = 600.0
    max_dispatches: int = 5
    heartbeat_interval_s: float = 0.05
    heartbeat_timeout_s: float = 2.0
    restart_budget: Optional[int] = 16
    drain_timeout_s: float = 30.0
    http: bool = True
    http_host: str = "127.0.0.1"
    http_port: int = 0  # 0: ephemeral, recorded in serve.json

    def supervisor_policy(self) -> SupervisorPolicy:
        """The matching worker-pool policy."""
        return SupervisorPolicy(
            workers=self.workers,
            heartbeat_interval_s=self.heartbeat_interval_s,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            job_timeout_s=self.job_timeout_s,
            max_dispatches=self.max_dispatches,
            restart_budget=self.restart_budget,
            drain_timeout_s=self.drain_timeout_s,
        )


def verdict_summary(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Compact client-facing verdict of one journaled cell payload."""
    cell = SupervisedCell.from_payload(payload)
    summary: Dict[str, Any] = {
        "classification": cell.classification.value,
    }
    result = cell.result
    if result is None:
        return summary
    if hasattr(result, "pvalue"):
        summary["kind"] = "experiment"
        summary["pvalue"] = float(result.pvalue)
        summary["effective"] = bool(result.attack_succeeds)
    else:
        summary["kind"] = "rsa"
        summary["success_rate"] = float(result.success_rate)
    return summary


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------

class ReproDaemon:
    """One long-running evaluation service over a root directory."""

    def __init__(
        self,
        root: str,
        policy: Optional[ServePolicy] = None,
        fault_profile_obj: Optional[FaultProfile] = None,
        fault_seed: int = 0,
    ) -> None:
        self.root = root
        self.policy = policy or ServePolicy()
        os.makedirs(os.path.join(root, "state"), exist_ok=True)
        self.socket_path = os.path.join(root, SOCKET_FILE)
        self.endpoints_path = os.path.join(root, ENDPOINTS_FILE)
        self.store = CheckpointStore.open(
            os.path.join(root, "state", "checkpoint"),
            {"version": __version__, "serve": True},
            resume=True,
        )
        self.queue = JobQueue(
            os.path.join(root, "state", "jobs"),
            capacity=self.policy.queue_limit,
        )
        self.cache = ResultCache(self.store, ttl_s=self.policy.cache_ttl_s)
        self.supervisor = WorkerSupervisor(
            self.policy.supervisor_policy(),
            run_fn=run_task,
            init_fn=init_worker,
            init_args=(fault_profile_obj, fault_seed),
            fault_profile=fault_profile_obj,
            fault_seed=fault_seed,
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop = asyncio.Event()
        self._draining = False
        self._waiters: Dict[str, asyncio.Event] = {}
        self._busy_samples: Deque[float] = deque(maxlen=32)
        self._started_at = 0.0

    # -- degradation ladder --------------------------------------------

    @property
    def shedding(self) -> bool:
        """True when jobs requiring simulation must be refused."""
        return self._draining or not self.supervisor.healthy

    def retry_after_s(self) -> float:
        """Backpressure hint: expected time for one queue slot to free."""
        mean_busy = (
            sum(self._busy_samples) / len(self._busy_samples)
            if self._busy_samples else 1.0
        )
        estimate = (
            mean_busy * max(1, self.queue.open_count())
            / max(1, self.policy.workers)
        )
        return min(30.0, max(0.2, estimate))

    # -- lifecycle -----------------------------------------------------

    def request_shutdown(self) -> None:
        """Begin the drain (idempotent; signal-handler safe)."""
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._stop.set)

    async def run(
        self, ready: Optional[threading.Event] = None
    ) -> int:
        """Serve until SIGTERM/SIGINT (or a shutdown op), then drain."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._started_at = now()
        self.supervisor.start()
        recovered = self.queue.recover()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        unix_server = await asyncio.start_unix_server(
            self._handle_unix, path=self.socket_path
        )
        http_server = None
        http_port: Optional[int] = None
        if self.policy.http:
            http_server = await asyncio.start_server(
                self._handle_http,
                host=self.policy.http_host,
                port=self.policy.http_port,
            )
            http_port = http_server.sockets[0].getsockname()[1]
        atomic_write_json(self.endpoints_path, {
            "socket": self.socket_path,
            "http_host": self.policy.http_host if http_server else None,
            "http_port": http_port,
            "pid": os.getpid(),
            "version": __version__,
        })
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                # Hosted in a non-main thread (tests) or an embedding
                # loop: callers drive request_shutdown() instead.
                break
        if recovered:
            self._pump()
        if ready is not None:
            ready.set()
        try:
            await self._stop.wait()
        finally:
            self._draining = True
            # Drain: the supervisor finishes in-flight jobs (bounded),
            # cancels the rest; cancelled jobs are demoted to "queued"
            # in the journal so a restart resumes them.
            self.supervisor.shutdown()
            await loop.run_in_executor(None, self.supervisor.join, 60.0)
            self.queue.requeue_running()
            unix_server.close()
            await unix_server.wait_closed()
            if http_server is not None:
                http_server.close()
                await http_server.wait_closed()
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
            for waiter in self._waiters.values():
                waiter.set()
        return 0

    # -- job flow ------------------------------------------------------

    def _waiter(self, job_id: str) -> asyncio.Event:
        event = self._waiters.get(job_id)
        if event is None:
            event = asyncio.Event()
            self._waiters[job_id] = event
        return event

    def _resolve(self, job_id: str) -> None:
        event = self._waiters.pop(job_id, None)
        if event is not None:
            event.set()

    def _pump(self) -> None:
        """Dispatch queued jobs (journal-served ones short-circuit)."""
        while True:
            job = self.queue.next_queued()
            if job is None:
                return
            job_id = job["job_id"]
            cell_id = f"serve/{job_id}"
            if self.store.has(cell_id):
                # Completed by a previous daemon incarnation (or a
                # concurrent duplicate): serve the journal verbatim —
                # this is the no-re-simulation restart path.
                payload = self.store.load(cell_id)
                self.cache.put(job_id, payload)
                COUNTERS.serve_cache_journal_hits += 1
                self.queue.mark(
                    job_id, "done", verdict=verdict_summary(payload),
                    served_from="journal",
                )
                self._resolve(job_id)
                continue
            task = (
                spec_to_cell(job["spec"], job_id),
                execution_policy(job["policy"]),
            )
            self.supervisor.submit(cell_id, task, self._outcome_threadsafe)

    def _outcome_threadsafe(self, outcome: TaskOutcome) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._on_outcome, outcome)

    def _on_outcome(self, outcome: TaskOutcome) -> None:
        job_id = outcome.task_id[len("serve/"):]
        job = self.queue.get(job_id)
        if job is None:
            return
        if outcome.status == "done":
            result = outcome.value
            COUNTERS.add(result["counters"])
            record_fallbacks(result["fallbacks"])
            self._busy_samples.append(float(result["busy_s"]))
            if result["failed"]:
                self.queue.mark(
                    job_id, "failed",
                    error=f"cell failed permanently: {result['note']}",
                )
            else:
                payload = result["payload"]
                self.store.save(outcome.task_id, payload)
                self.cache.put(job_id, payload)
                self.queue.mark(
                    job_id, "done", verdict=verdict_summary(payload),
                    served_from="simulation",
                )
        elif outcome.status == "cancelled":
            # Drain or interrupt: back to queued — the journal now says
            # "resume me"; a restarted daemon picks the job up.
            if job.get("state") == "running":
                self.queue.mark(job_id, "queued")
            return
        else:  # "error" | "lost"
            self.queue.mark(
                job_id, "failed",
                error=f"{outcome.status}: {outcome.error}",
            )
        self._resolve(job_id)
        self._pump()

    # -- operations ----------------------------------------------------

    def _job_response(self, job: Dict[str, Any]) -> Dict[str, Any]:
        response: Dict[str, Any] = {
            "ok": True,
            "job_id": job["job_id"],
            "state": job["state"],
        }
        for key in ("verdict", "error", "served_from", "recovered"):
            if key in job:
                response[key] = job[key]
        if job["state"] == "done":
            cached = self.cache.lookup(job["job_id"])
            if cached is not None:
                response["result"] = cached["payload"]
        return response

    def _op_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        spec = normalize_spec(dict(request.get("spec") or {}))
        policy = normalize_policy(request.get("policy"))
        key = job_key(spec, policy)
        cached = self.cache.lookup(key, allow_stale=self.shedding)
        if cached is not None:
            return {
                "ok": True,
                "job_id": key,
                "state": "done",
                "cached": True,
                "source": cached["source"],
                "stale": cached["stale"],
                "age_s": cached["age_s"],
                "verdict": verdict_summary(cached["payload"]),
                "result": cached["payload"],
            }
        if self.shedding:
            COUNTERS.serve_jobs_shed += 1
            return error_response(
                "shedding load (supervisor unhealthy or draining); "
                "no cached result for this job",
                reason="shedding",
            )
        try:
            job = self.queue.admit(
                key,
                {"spec": spec, "policy": policy},
                retry_after_s=self.retry_after_s(),
            )
        except QueueFullError as error:
            COUNTERS.serve_jobs_rejected += 1
            return error_response(
                str(error), reason="queue-full",
                retry_after_s=error.retry_after_s,
            )
        COUNTERS.serve_jobs_accepted += 1
        self._pump()
        return {
            "ok": True,
            "job_id": key,
            "state": job["state"],
            "cached": False,
            "queue_open": self.queue.open_count(),
        }

    async def _op_wait(
        self, job_id: str, timeout_s: float
    ) -> Dict[str, Any]:
        job = self.queue.get(job_id)
        if job is None:
            return error_response(f"unknown job {job_id!r}")
        if job["state"] in ("queued", "running"):
            try:
                await asyncio.wait_for(
                    self._waiter(job_id).wait(), timeout=timeout_s
                )
            except asyncio.TimeoutError:
                return error_response(
                    f"timeout waiting for job {job_id!r}",
                    reason="timeout", state=self.queue.get(job_id)["state"],
                )
            job = self.queue.get(job_id)
        return self._job_response(job)

    def stats_payload(self) -> Dict[str, Any]:
        """Service counters for the ``stats`` request."""
        jobs = self.queue.jobs()
        states: Dict[str, int] = {}
        for job in jobs:
            states[job["state"]] = states.get(job["state"], 0) + 1
        counters = COUNTERS.snapshot()
        vector_trials = int(counters.get("batched_vector_trials", 0))
        fallback_trials = int(counters.get("batched_fallback_trials", 0))
        covered = vector_trials + fallback_trials
        return {
            "ok": True,
            "uptime_s": now() - self._started_at,
            "draining": self._draining,
            "shedding": self.shedding,
            "queue": {
                "capacity": self.policy.queue_limit,
                "open": self.queue.open_count(),
                "states": states,
            },
            "cache": {
                "entries": len(self.cache),
                "ttl_s": self.policy.cache_ttl_s,
            },
            "supervisor": self.supervisor.stats(),
            "counters": {
                name: value
                for name, value in counters.items()
                if name.startswith("serve_") or name in (
                    "trials", "simulated_cycles",
                )
            },
            "backend": {
                "vectorized_fraction": (
                    vector_trials / covered if covered else None
                ),
                "vector_trials": vector_trials,
                "fallback_trials": fallback_trials,
                "fallback_reasons": fallback_histogram(),
            },
            "serve_cache_hit_rate": COUNTERS.serve_cache_hit_rate,
            "serve_mean_queue_wait_ms": COUNTERS.serve_mean_queue_wait_ms,
        }

    async def _dispatch_op(
        self, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        op = request.get("op")
        if op == "submit":
            response = self._op_submit(request)
            if response.get("ok") and request.get("wait") and (
                response["state"] in ("queued", "running")
            ):
                return await self._op_wait(
                    response["job_id"],
                    float(request.get("timeout_s", 300.0)),
                )
            return response
        if op == "status":
            job = self.queue.get(str(request.get("job_id", "")))
            if job is None:
                return error_response("unknown job")
            return self._job_response(job)
        if op == "wait":
            return await self._op_wait(
                str(request.get("job_id", "")),
                float(request.get("timeout_s", 300.0)),
            )
        if op == "jobs":
            return {
                "ok": True,
                "jobs": [dict(job) for job in self.queue.jobs()],
            }
        if op == "stats":
            return self.stats_payload()
        if op == "shutdown":
            self._stop.set()
            return {"ok": True, "state": "draining"}
        return error_response(f"unknown op {op!r}")

    # -- transports ----------------------------------------------------

    async def _handle_unix(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    response = await self._dispatch_op(
                        decode_message(line)
                    )
                except ReproError as error:
                    response = error_response(str(error))
                writer.write(encode_message(response))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            method, path, headers, _ = parse_http_request(head)
            body = b""
            length = int(headers.get("content-length", "0") or "0")
            if length:
                body = await reader.readexactly(length)
            status, payload = await self._http_route(method, path, body)
            writer.write(http_response(status, payload))
            await writer.drain()
        except (ReproError, ValueError) as error:
            try:
                writer.write(http_response(
                    400, error_response(str(error))
                ))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _http_route(
        self, method: str, path: str, body: bytes
    ) -> Any:
        if method == "GET" and path == "/healthz":
            if self.shedding:
                return 503, {"ok": False, "shedding": True,
                             "draining": self._draining}
            return 200, {"ok": True, "healthy": True}
        if method == "GET" and path == "/stats":
            return 200, self.stats_payload()
        if method == "GET" and path == "/jobs":
            return 200, await self._dispatch_op({"op": "jobs"})
        if method == "GET" and path.startswith("/jobs/"):
            response = await self._dispatch_op(
                {"op": "status", "job_id": path[len("/jobs/"):]}
            )
            return (200 if response.get("ok") else 404), response
        if method == "POST" and path == "/submit":
            request = decode_message(body or b"{}")
            request["op"] = "submit"
            response = await self._dispatch_op(request)
            if response.get("ok"):
                status = 200 if response["state"] == "done" else 202
            elif response.get("reason") == "queue-full":
                status = 429
            elif response.get("reason") == "shedding":
                status = 503
            else:
                status = 400
            return status, response
        return 404, error_response(f"no route {method} {path}")
