"""Shared definitions of the end-to-end benchmark.

Workload inputs (seed pools, the defense grid, the serve job universe),
the hermetic child-process environment, digests and the small
statistics ``run.py`` reports.  Nothing here imports :mod:`repro`, so
``run.py`` can refuse to run before touching the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space of one run (temporary output dirs, bytecode); removed
#: when the run ends.
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
#: Traces the ``--trace 1`` runs leave behind, for Perfetto.
OUT_ROOT = os.path.join(ROOT, ".bench_out")
#: Scalar-oracle digests computed for seeds outside the shipped pools.
CACHE_PATH = os.path.join(ROOT, ".bench_cache", "oracle.json")
SHIPPED_ORACLE = os.path.join(BENCH_DIR, "oracle_digests.json")

#: Program knobs that would silently change what is measured.
REPRO_ENV = ("REPRO_BACKEND", "REPRO_WORKERS", "REPRO_BENCH_FORCE")
#: Everything the children's environment drops or sets itself.
SCRUBBED_ENV = REPRO_ENV + (
    "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONPATH",
    "PYTHONHASHSEED", "PYTHONSTARTUP",
)

#: Development seed pools: every ``--seed`` draws its CLI seeds from
#: these, so the scalar-oracle digests ship with the benchmark.
#: ``--held-out`` draws seeds outside them instead.
PAPER_SEEDS = (11, 29, 47, 3, 131, 197)
MATRIX_SEEDS = (5, 17, 31, 59, 97, 173)
SERVE_SEEDS = (2, 13, 41, 71)

PAPER_RUNS = 100
#: Trials per hypothesis of a defense-matrix cell.  Smaller than the
#: paper's 100 so that one pass fits a run several times over.
MATRIX_RUNS = 4
SERVE_RUNS = 100

#: Artifacts whose bytes the ``paper_*`` oracle pins.
PAPER_ARTIFACTS = (
    "table2.json", "fig5.json", "fig7.json", "fig8.json", "table3.json",
    "run_summary.json",
)

WORKLOAD_BACKENDS = {
    "paper_all": ["--backend", "batched"],
    "paper_sequential": ["--sequential", "--backend", "pool"],
}

DEFENSE_SPECS = (
    "R[3]", "R[8]", "A[history]", "A[fixed]", "D", "invisispec",
    "A[fixed]+D", "A[history]+D", "R[3]+D", "invisispec+D",
)


def matrix_cases(variants: Sequence, channel_type) -> List[Tuple]:
    """The 180-cell defense grid as (variant, channel, defense, predictor).

    6 variants x {timing-window, persistent where supported} x 10
    defenses x {lvp, vtage}.
    """
    cases = []
    for variant in variants:
        channels = [channel_type.TIMING_WINDOW]
        if channel_type.PERSISTENT in variant.supported_channels:
            channels.append(channel_type.PERSISTENT)
        for channel in channels:
            for spec in DEFENSE_SPECS:
                for predictor in ("lvp", "vtage"):
                    cases.append((variant, channel, spec, predictor))
    return cases


def case_label(variant_name: str, channel: str, spec: str, predictor: str) -> str:
    return f"{variant_name}/{channel}/{spec}/{predictor}"


#: (variant, channel) pairs of Table III; serve jobs range over these
#: times {none, lvp, vtage} times :data:`SERVE_SEEDS`.
TABLE3_CELLS = (
    ("Train + Test", "timing-window"), ("Train + Test", "persistent"),
    ("Test + Hit", "timing-window"), ("Test + Hit", "persistent"),
    ("Fill Up", "timing-window"), ("Fill Up", "persistent"),
    ("Spill Over", "timing-window"),
    ("Modify + Test", "timing-window"), ("Train + Hit", "timing-window"),
)
SERVE_PREDICTORS = ("none", "lvp", "vtage")


def serve_universe(seeds: Iterable[int]) -> List[Dict[str, object]]:
    """Every experiment job spec the ``serve_jobs`` stream may submit."""
    return [
        {"kind": "experiment", "variant": variant, "channel": channel,
         "predictor": predictor, "n_runs": SERVE_RUNS, "seed": seed}
        for seed in seeds
        for variant, channel in TABLE3_CELLS
        for predictor in SERVE_PREDICTORS
    ]


#: Share of a serve stream's jobs that repeat an earlier job.
REPEAT_SHARE = 1 / 3


def serve_stream(rng: random.Random, universe: Sequence[Dict],
                 jobs: int) -> List[Dict[str, object]]:
    """A job list in which about :data:`REPEAT_SHARE` repeat an earlier job."""
    fresh = rng.sample(list(universe), jobs - round(jobs * REPEAT_SHARE))
    stream: List[Dict[str, object]] = []
    pending = list(fresh)
    while len(stream) < jobs:
        if stream and (not pending or rng.random() < REPEAT_SHARE):
            stream.append(dict(rng.choice(stream)))
        else:
            stream.append(pending.pop(0))
    return stream


def cli_seeds(workload: str, seed: int, count: int,
              held_out: bool = False) -> List[int]:
    """The program seeds one benchmark run uses, derived from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if held_out:
        pool = set(PAPER_SEEDS + MATRIX_SEEDS + SERVE_SEEDS)
        out: List[int] = []
        while len(out) < count:
            candidate = rng.randrange(1000, 1_000_000)
            if candidate not in pool and candidate not in out:
                out.append(candidate)
        return out
    pool_by_workload = {
        "paper_all": PAPER_SEEDS, "paper_sequential": PAPER_SEEDS,
        "defense_matrix": MATRIX_SEEDS, "serve_jobs": SERVE_SEEDS,
    }
    pool = list(pool_by_workload[workload])
    rng.shuffle(pool)
    return pool[:count]


def hermetic_env(pycache: str) -> Dict[str, str]:
    """Child environment: no backend/worker overrides, one BLAS thread.

    Bytecode goes to ``pycache`` (so no ``__pycache__`` lands in
    ``src/``), and the package is imported from this checkout.
    """
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.update(
        PYTHONPATH=SRC,
        PYTHONPYCACHEPREFIX=pycache,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def use_checkout(pycache: str) -> None:
    """Point this process at the checkout's ``src`` like its children."""
    sys.pycache_prefix = pycache
    sys.dont_write_bytecode = False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in REPRO_ENV:
        os.environ.pop(name, None)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def canonical(payload: object) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

#: Percentiles the tail rule may pick, highest last.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest ladder percentile with at least 10 samples beyond it.

    Returns ``(pct, value)``, or ``None`` when even the median has
    fewer than ten samples above it (fewer than 20 samples).
    """
    n = len(samples)
    chosen = None
    for pct in TAIL_LADDER:
        beyond = n - 1 - math.floor((n - 1) * pct / 100.0)
        if beyond >= 10:
            chosen = pct
    if chosen is None:
        return None
    return chosen, percentile(samples, chosen)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


class Outcomes:
    """Attempted/failed operation counts of one workload.

    An operation is a cold invocation (``paper_*``), one cell of a
    matrix pass (``defense_matrix``) or one submitted job
    (``serve_jobs``).  Each failed operation counts once, whatever the
    number of reasons, and every reason is kept for the report.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, reasons: Sequence[str]) -> bool:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.extend(reasons)
        return not reasons

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0
