"""End-to-end benchmark of the reproduction: real commands, cold and warm.

    python3 perfbench/run.py --workload paper_all --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

* ``paper_all``: cold ``python -m repro all --runs 100 --backend batched``
  subprocesses, one fresh ``--out`` each, cycling over three CLI seeds.
* ``paper_sequential``: the same with ``--sequential --backend pool``.
* ``defense_matrix``: warm processes, each running one pass of the
  180-cell defense grid through ``run_cell(..., backend="batched")``.
* ``serve_jobs``: ``repro serve --workers 2 --no-http --backend batched``
  driven by a closed loop of 2 clients; each stream is a fresh daemon.

Every output is checked against the scalar oracle (:mod:`oracle`).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced units and prints the per-layer metrics.  The last
line of standard output is one JSON object; the exit code is nonzero
when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import common
import oracle
import tracing

clock = tracing.clock

WORKLOADS = ("paper_all", "paper_sequential", "defense_matrix", "serve_jobs")

#: Units per run at least, whatever ``--seconds`` says.
MIN_UNITS = 2
#: Set-up-only matrix processes per ``defense_matrix`` run.
MATRIX_PROBES = 3
#: Jobs per serve stream; about a third repeat an earlier job.
SERVE_JOBS = 90
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
#: Bound on any single child process.
CHILD_TIMEOUT_S = 150.0


class PeakRss:
    """Largest resident set (VmHWM) seen among this process's descendants.

    Sampled from ``/proc`` by a background thread.  ``ru_maxrss`` of
    children cannot serve: a child inherits its parent's resident set as
    its high-water mark when it is spawned, so it would report the
    runner's own size.  VmHWM belongs to an address space and starts
    afresh at ``exec``.
    """

    def __init__(self, interval_s: float = 0.25) -> None:
        self.peak_kb = 0
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval_s):
            self.sample()

    def sample(self) -> None:
        parents: Dict[int, List[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    stat = handle.read()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            parents.setdefault(ppid, []).append(int(entry))
        pending = list(parents.get(os.getpid(), []))
        while pending:
            pid = pending.pop()
            pending.extend(parents.get(pid, []))
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            self.peak_kb = max(self.peak_kb, int(line.split()[1]))
                            break
            except OSError:
                continue

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


class Run:
    """One benchmark run: its scratch directory, environment and results."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, held_out: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.held_out = held_out
        os.makedirs(common.TMP_ROOT, exist_ok=True)
        # Short names: the serve daemon's UNIX socket lives under here,
        # and socket paths are limited to 107 bytes.
        self.tmp = tempfile.mkdtemp(prefix="r", dir=common.TMP_ROOT)
        self.pycache = os.path.join(self.tmp, "pycache")
        self.env = common.hermetic_env(self.pycache)
        common.use_checkout(self.pycache)
        self.oracle = oracle.Oracle()
        self.outcomes = common.Outcomes()
        self.setup: List[float] = []
        self.walls: List[float] = []
        self.traced_walls: List[float] = []
        self.latencies: List[float] = []
        self.cells: List[float] = []
        self.cycles: List[float] = []
        self.agreement: List[float] = []
        self.rsa: List[float] = []
        self.layers: List[Dict[str, float]] = []
        self.spans: List[tracing.Span] = []
        self.rss = PeakRss()
        self._dirs = 0

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.tmp, f"{label}-{self._dirs}")
        os.mkdir(path)
        return path

    def python(self, *argv: str) -> List[str]:
        return [sys.executable, *argv]

    def close(self) -> None:
        self.rss.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

def timed(run: Run, argv: Sequence[str]) -> Tuple[float, int, str]:
    """Wall clock, exit code and stderr tail of one child process."""
    started = clock()
    proc = subprocess.run(
        list(argv), env=run.env, cwd=run.tmp, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
    )
    return clock() - started, proc.returncode, proc.stderr.decode()[-400:]


def warm_bytecode(run: Run) -> None:
    """Compile the package into the run's bytecode cache, untimed."""
    subprocess.run(
        run.python("-m", "compileall", "-q", "-j", "1",
                   os.path.join(common.SRC, "repro")),
        env=run.env, cwd=run.tmp, stdout=subprocess.DEVNULL, check=True,
        timeout=CHILD_TIMEOUT_S,
    )


def probe_import(run: Run) -> None:
    """A set-up sample: interpreter start plus ``import repro.cli``."""
    wall, code, err = timed(run, run.python("-c", "import repro.cli"))
    if code != 0:
        raise SystemExit(f"error: import repro.cli failed: {err}")
    run.setup.append(wall)


def unit_indices(run: Run):
    """Unit indices, until the next unit would end past ``--seconds``.

    The next unit is expected to take as long as the median unit so
    far, so a run ends close to its budget instead of overshooting by
    up to a whole unit.
    """
    started = last = clock()
    durations: List[float] = []
    index = 0
    while True:
        now = clock()
        if index:
            durations.append(now - last)
        last = now
        if index >= MIN_UNITS and (
            now - started + common.median(durations) > run.seconds
        ):
            return
        yield index
        index += 1


# ----------------------------------------------------------------------
# paper_all / paper_sequential
# ----------------------------------------------------------------------

def _records(payloads: Dict[str, Dict]) -> List[Dict]:
    out = []
    for payload in payloads.values():
        out.extend(v for v in payload.get("panels", {}).values()
                   if isinstance(v, dict))
        for cells in payload.get("cells", {}).values():
            if isinstance(cells, dict):
                out.extend(v for v in cells.values() if isinstance(v, dict))
    return out


def check_paper_outputs(out: str, expected: Dict[str, str]) -> Tuple[List[str], Dict]:
    """Oracle and health checks of one ``repro all`` output directory.

    Returns the failure reasons and the facts the metrics need.
    """
    from repro.analysis.report import agreement_rows

    reasons = []
    digests = oracle.paper_digests(out)
    for name in common.PAPER_ARTIFACTS:
        if digests.get(name) != expected.get(name):
            reasons.append(f"{name} differs from the scalar oracle")
    facts: Dict[str, float] = {}
    try:
        payloads = {}
        for name in ("fig5", "fig8", "table3", "fig7", "run_summary"):
            with open(os.path.join(out, f"{name}.json")) as handle:
                payloads[name] = json.load(handle)
    except (OSError, ValueError) as error:
        return reasons + [f"unreadable artifact: {error}"], facts
    summary = payloads.pop("run_summary")
    fig7 = payloads.pop("fig7")
    unclean = {k: v for k, v in summary.get("classifications", {}).items()
               if k != "clean"}
    if unclean:
        reasons.append(f"non-clean cells: {unclean}")
    rows = agreement_rows(payloads)
    judged = [row for row in rows if row["agree"] is not None]
    records = _records(payloads)
    facts["cells"] = summary.get("cells", 0)
    facts["agreement"] = (
        sum(1 for row in judged if row["agree"]) / len(judged) if judged else 0.0
    )
    facts["rsa"] = fig7.get("success_rate", 0.0)
    facts["cycles"] = sum(
        float(r.get("mean_trial_cycles", 0.0)) * 2 * int(
            (r.get("sequential") or {}).get("effective_n", r.get("mapped_samples", 0))
        ) for r in records
    )
    facts["retries"] = sum(
        max(0, len(r.get("execution", {}).get("attempts", [])) - 1)
        for r in records + [fig7]
    )
    return reasons, facts


def paper(run: Run) -> None:
    workload = run.workload
    # Cells whose p-value lands near alpha are re-measured and classified
    # "retried", which counts as a failure; seeds whose scalar reference
    # run does that are skipped (none in the shipped pool).
    expected: Dict[int, Dict] = {}
    for seed in common.cli_seeds(workload, run.seed, 12, run.held_out):
        entry = run.oracle.get(
            oracle.paper_key(workload, seed),
            lambda seed=seed: oracle.compute_paper(workload, seed),
        )
        if entry.get("clean", True):
            expected[seed] = entry
        if len(expected) == len(common.PAPER_SEEDS):
            break
    seeds = list(expected)
    flags = common.WORKLOAD_BACKENDS[workload]

    def command(seed: int, out: str) -> List[str]:
        return ["all", "--out", out, "--runs", str(common.PAPER_RUNS),
                "--seed", str(seed), *flags]

    warm_bytecode(run)
    timed(run, run.python("-m", "repro", *command(seeds[0], run.fresh_dir("warm"))))
    for units in unit_indices(run):
        probe_import(run)
        seed = seeds[units % len(seeds)]
        out = run.fresh_dir("out")
        wall, code, err = timed(run, run.python("-m", "repro", *command(seed, out)))
        reasons = [f"exit {code}: {err.strip()}"] if code else []
        more, facts = check_paper_outputs(out, expected[seed])
        reasons += more
        if run.trace:
            traced_out = run.fresh_dir("traced")
            trace_file = os.path.join(run.tmp, f"trace-{units}.json")
            traced_wall, code, err = timed(run, run.python(
                os.path.join(common.BENCH_DIR, "traced_cli.py"),
                trace_file, str(units), "--", *command(seed, traced_out),
            ))
            if code:
                reasons.append(f"traced exit {code}: {err.strip()}")
            elif oracle.paper_digests(traced_out) != oracle.paper_digests(out):
                reasons.append("traced artifacts differ from untraced")
            else:
                spans, meta = tracing.read_trace(trace_file)
                layers = tracing.layer_metrics(spans, meta["counters"], traced_wall)
                layers["harness.retries"] = facts.get("retries", 0)
                run.layers.append(layers)
                run.spans.extend(spans)
                run.traced_walls.append(traced_wall)
        run.outcomes.record(reasons)
        if not reasons:
            run.walls.append(wall)
            run.latencies.append(wall)
            run.cells.append(facts["cells"] / wall)
            run.cycles.append(facts["cycles"] / wall)
            run.agreement.append(facts["agreement"])
            run.rsa.append(facts["rsa"])
        shutil.rmtree(out, ignore_errors=True)


# ----------------------------------------------------------------------
# defense_matrix
# ----------------------------------------------------------------------

MATRIX = os.path.join(common.BENCH_DIR, "matrix.py")


def matrix_probe(run: Run) -> None:
    """A set-up sample: process start, import and the warm-up cell."""
    wall, code, err = timed(run, run.python(MATRIX, "--probe"))
    if code != 0:
        raise SystemExit(f"error: matrix set-up failed: {err}")
    run.setup.append(wall)


def matrix_child(run: Run, seeds: Sequence[int], index: int, seconds: float,
                 *flags: str) -> Optional[Dict]:
    """One warm matrix process; its result payload, or None if it failed."""
    result_path = os.path.join(run.tmp, f"matrix-{index}.json")
    argv = run.python(MATRIX, result_path, ",".join(map(str, seeds)),
                      str(seconds), *flags)
    started = clock()
    proc = subprocess.Popen(argv, env=run.env, cwd=run.tmp,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        setup = clock() - started
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != b"ready":
        run.outcomes.record([f"matrix exit {proc.returncode}: "
                             f"{err.decode()[-400:].strip()}"])
        return None
    with open(result_path) as handle:
        payload = json.load(handle)
    payload["setup_s"] = setup
    payload["wall_s"] = clock() - started
    return payload


def check_matrix(run: Run, payload: Dict, expected: Dict[int, Dict],
                 fig7_expected: str, traced: bool) -> None:
    """Oracle checks and samples of every pass of one matrix process.

    The pass time is the sum over cells of each cell's median latency
    across the clean passes: a slow phase of a shared host that hits
    part of one pass then moves no cell's median.
    """
    run.setup.append(payload["setup_s"])
    clean = []
    for done in payload["passes"]:
        matching = 0
        for cell in done["cells"]:
            got = oracle.cell_digest(cell["pvalue"], cell["mean_trial_cycles"])
            ok = got == expected[done["seed"]].get(cell["label"])
            run.outcomes.record([] if ok else [
                f"{cell['label']} (seed {done['seed']}) differs from the scalar oracle"
            ])
            matching += ok
            run.latencies.append(cell["latency_s"])
        run.agreement.append(matching / len(done["cells"]))
        if matching == len(done["cells"]):
            clean.append(done)
    if clean:
        pass_s = sum(
            common.median([done["cells"][i]["latency_s"] for done in clean])
            for i in range(len(clean[0]["cells"]))
        )
        if traced:
            run.traced_walls.append(pass_s)
        else:
            run.walls.append(pass_s)
            run.cells.append(len(clean[0]["cells"]) / pass_s)
            run.cycles.append(common.median(
                [done["counters"].get("simulated_cycles", 0) for done in clean]
            ) / pass_s)
    if payload["fig7"] is not None:
        ok = common.sha(common.canonical(payload["fig7"])) == fig7_expected
        run.outcomes.record([] if ok else ["Figure 7 differs from the scalar oracle"])
        if ok:
            run.rsa.append(payload["fig7"]["success_rate"])


def defense_matrix(run: Run) -> None:
    seeds = common.cli_seeds("defense_matrix", run.seed, 3, run.held_out)
    expected = {
        seed: run.oracle.get(oracle.matrix_key(seed),
                             lambda seed=seed: oracle.compute_matrix(seed))
        for seed in seeds
    }
    fig7_expected = run.oracle.get(oracle.FIG7_KEY, oracle.compute_fig7)
    warm_bytecode(run)
    for _ in range(MATRIX_PROBES):
        matrix_probe(run)
    payload = matrix_child(run, seeds, 0,
                           run.seconds / 2 if run.trace else run.seconds,
                           "--fig7")
    if payload is not None:
        check_matrix(run, payload, expected, fig7_expected, traced=False)
    if not run.trace:
        return
    # One traced pass, checked against the same oracle digests as the
    # untraced passes, so passing both makes their outputs identical.
    trace_file = os.path.join(run.tmp, "trace-1.json")
    traced = matrix_child(run, seeds[:1], 1, 0.0, "--passes", "1",
                          "--trace", trace_file, "1")
    if traced is None or not traced["passes"]:
        return
    check_matrix(run, traced, expected, fig7_expected, traced=True)
    spans, _ = tracing.read_trace(trace_file)
    layers = tracing.layer_metrics(spans, traced["passes"][0]["counters"],
                                   traced["wall_s"])
    layers["harness.retries"] = 0
    run.layers.append(layers)
    run.spans.extend(spans)


# ----------------------------------------------------------------------
# serve_jobs
# ----------------------------------------------------------------------

def serve_stream(run: Run, stream: List[Dict], expected: Dict[str, str],
                 index: int, traced: bool) -> None:
    """One fresh daemon, one closed-loop job stream, then a clean drain."""
    from repro.errors import HarnessError
    from repro.serve.client import ServeClient

    root = run.fresh_dir("s")
    args = ["serve", "--root", root, "--workers", str(SERVE_WORKERS),
            "--no-http", "--backend", "batched"]
    trace_file = os.path.join(run.tmp, f"trace-{index}.json")
    if traced:
        argv = run.python(os.path.join(common.BENCH_DIR, "traced_cli.py"),
                          trace_file, str(index), "--", *args)
    else:
        argv = run.python("-m", "repro", *args)
    tracer = tracing.Tracer(index) if traced else None
    client = ServeClient(root, timeout_s=CHILD_TIMEOUT_S)
    submit = client.submit
    if tracer is not None:
        submit = tracer.wrap(ServeClient.submit, "serve.submit").__get__(client)
    started = clock()
    proc = subprocess.Popen(argv, env=run.env, cwd=run.tmp,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        while True:
            try:
                if client.stats().get("ok"):
                    break
            except HarnessError:
                pass
            if proc.poll() is not None or clock() - started > 60:
                raise SystemExit(
                    f"error: serve daemon did not come up: "
                    f"{proc.stderr.read().decode()[-400:]}"
                )
            threading.Event().wait(0.005)
        setup = clock() - started
        jobs = iter(stream)
        lock = threading.Lock()
        results: List[Tuple[Dict, Dict, float]] = []

        def client_loop() -> None:
            while True:
                with lock:
                    spec = next(jobs, None)
                if spec is None:
                    return
                sent = clock()
                try:
                    response = submit(spec, wait=True, timeout_s=120.0)
                except HarnessError as error:
                    response = {"ok": False, "error": str(error)}
                latency = clock() - sent
                with lock:
                    results.append((spec, response, latency))

        stream_started = clock()
        threads = [threading.Thread(target=client_loop)
                   for _ in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = clock() - stream_started
        stats = client.stats()
        client.shutdown()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    verdicts = 0
    bad = 0
    for spec, response, latency in results:
        reasons = []
        if not response.get("ok"):
            reasons.append(f"job failed or rejected: {response.get('error')}")
        elif response.get("state") != "done":
            reasons.append(f"job ended {response.get('state')}")
        elif oracle.verdict_digest(response["verdict"]) != expected[oracle.serve_key(spec)]:
            reasons.append(f"verdict for {spec} differs from the scalar oracle")
        if run.outcomes.record(reasons):
            verdicts += 1
            run.latencies.append(latency)
            if spec.get("kind") == "rsa":
                run.rsa.append(response["verdict"]["success_rate"])
        bad += bool(reasons)
    run.setup.append(setup)
    run.agreement.append(verdicts / len(results))
    if bad:
        return
    counters = stats.get("counters", {})
    if traced:
        spans = list(tracer.spans)
        if proc.returncode == 0 and os.path.exists(trace_file):
            daemon_spans, _ = tracing.read_trace(trace_file)
            spans += [s for s in daemon_spans if s.name.startswith("import")]
        layers = tracing.layer_metrics(spans, {}, wall)
        backend = stats.get("backend", {})
        jobs_done = counters.get("serve_jobs_done", 0)
        layers.update({
            "serve.queue_wait_s": (
                counters.get("serve_queue_wait_us", 0) / 1e6 / jobs_done
                if jobs_done else 0.0
            ),
            "serve.cache_hit_frac": stats.get("serve_cache_hit_rate", 0.0),
            "serve.jobs_done": jobs_done,
            "serve.rejected": counters.get("serve_jobs_rejected", 0),
            "serve.redispatches": counters.get("serve_job_redispatches", 0),
            "serve.worker_restarts": counters.get("serve_worker_restarts", 0),
            "sim.trials": counters.get("trials", 0),
            "sim.sim_cycles": counters.get("simulated_cycles", 0),
            "sim.vector_trials": backend.get("vector_trials", 0),
            "sim.fallback_trials": backend.get("fallback_trials", 0),
            "sim.fallback_frac": backend.get("vectorized_fraction") is not None
            and 1.0 - backend["vectorized_fraction"] or 0.0,
            "trace.coverage_frac": tracing.covered(
                (s.start, s.end) for s in tracer.spans
            ) / wall,
        })
        run.layers.append(layers)
        run.spans.extend(spans)
        run.traced_walls.append(wall)
    else:
        run.walls.append(wall)
        run.cells.append(verdicts / wall)
        run.cycles.append(counters.get("simulated_cycles", 0) / wall)


def serve_jobs(run: Run) -> None:
    seeds = common.cli_seeds("serve_jobs", run.seed, 3, run.held_out)
    universe = common.serve_universe(seeds)
    rsa = oracle.rsa_spec()
    expected = {
        oracle.serve_key(spec): run.oracle.get(
            oracle.serve_key(spec),
            lambda spec=spec: oracle.compute_serve(spec),
        )
        for spec in universe + [rsa]
    }
    warm_bytecode(run)
    rng = random.Random(f"serve_jobs:{run.seed}:stream")
    for units in unit_indices(run):
        stream = common.serve_stream(rng, universe, SERVE_JOBS - 1)
        stream.insert(rng.randrange(len(stream)), dict(rsa))
        serve_stream(run, stream, expected, units,
                     traced=run.trace and units % 2 == 1)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def _median(values: Sequence[float]) -> float:
    return common.median(values) if values else 0.0


def end_to_end(run: Run) -> Dict[str, float]:
    latencies = run.latencies or [0.0]
    return {
        "setup_s": _median(run.setup),
        "wall_s": _median(run.walls),
        "cells_per_s": _median(run.cells),
        "sim_cycles_per_s": _median(run.cycles),
        "peak_rss_mb": run.rss.peak_kb / 1024.0,
        "ok_frac": 1.0 - run.outcomes.failed_frac,
        "job_p50_s": common.percentile(latencies, 50.0),
        "job_p90_s": common.percentile(latencies, 90.0),
        "verdict_agreement": _median(run.agreement),
        "rsa_bit_success": _median(run.rsa),
    }


def per_layer(run: Run, layer_names: Sequence[str]) -> Dict[str, float]:
    out = {name: _median([layers.get(name, 0.0) for layers in run.layers])
           if run.layers else 0.0 for name in layer_names}
    out["trace.overhead_s"] = (
        _median(run.traced_walls) - _median(run.walls)
        if run.traced_walls and run.walls else 0.0
    )
    return out


def stamp() -> Dict[str, object]:
    """Provenance of the numbers: commit, host and library versions."""
    import numpy
    import scipy

    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=common.ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def bench_metadata() -> Dict[str, object]:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def report(run: Run, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    """Human-readable lines before the JSON result line."""
    print(f"# workload {run.workload} seed {run.seed} "
          f"{'traced' if run.trace else 'untraced'}: "
          f"{run.outcomes.attempted} operations, {run.outcomes.failed} failed")
    print(f"# stamp {json.dumps(stamp(), sort_keys=True)}")
    for label, samples in (("setup_s", run.setup), ("unit wall_s", run.walls),
                           ("job latency_s", run.latencies)):
        if not samples:
            continue
        tail = common.tail_percentile(samples)
        tail_text = (f"p{tail[0]:g} {tail[1]:.4f}" if tail
                     else "no tail percentile (<20 samples)")
        print(f"#   {label:16s} median {common.median(samples):.4f}  "
              f"{tail_text}  n={len(samples)}")
    for name, value in metrics.items():
        print(f"#   {name:32s} {value:.6g} {units[name]}")
    distinct: Dict[str, int] = {}
    for reason in run.outcomes.reasons:
        distinct[reason] = distinct.get(reason, 0) + 1
    for reason, count in list(distinct.items())[:20]:
        print(f"# FAILED ({count}x): {reason}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--held-out", action="store_true",
        help="draw CLI seeds outside the development pools; their scalar "
             "oracle digests are computed once and cached in .bench_cache/",
    )
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(common.SRC, "repro", "cli.py")):
        print(f"error: no program source under {common.SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.held_out)
    try:
        {"paper_all": paper, "paper_sequential": paper,
         "defense_matrix": defense_matrix, "serve_jobs": serve_jobs,
         }[args.workload](run)
        meta = bench_metadata()
        if run.trace:
            names = [m["name"] for m in meta["per_layer"]]
            metrics = per_layer(run, names)
            units = {m["name"]: m["unit"] for m in meta["per_layer"]}
            if run.spans:
                tracing.write_trace(
                    os.path.join(common.OUT_ROOT,
                                 f"trace-{run.workload}-seed{run.seed}.json"),
                    run.spans, {"workload": run.workload, "seed": run.seed},
                )
        else:
            metrics = end_to_end(run)
            units = {m["name"]: m["unit"] for m in meta["end_to_end"]}
        metrics = {name: metrics[name] for name in units}
        report(run, metrics, units)
    finally:
        run.close()
    correct = run.outcomes.correct and (bool(run.layers) or not run.trace)
    print(json.dumps({
        "correct": correct,
        "attempted": run.outcomes.attempted,
        "failed": run.outcomes.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
