"""Scalar-oracle digests of every output the benchmark checks.

The scalar backend is the reference interpreter; every other backend
must reproduce its results byte for byte.  The benchmark therefore
compares, per workload:

* ``paper_*``: the bytes of each JSON artifact of ``repro all``;
* ``defense_matrix``: each cell's ``(pvalue, mean_trial_cycles)``, and
  the Figure 7 record;
* ``serve_jobs``: each verdict payload, against a serial
  :func:`repro.harness.parallel.execute_spec` run of the same spec.

Digests for the development seed pools ship in ``oracle_digests.json``
(rebuild with ``python perfbench/oracle.py build <part> --out FILE``
and ``merge``).  Digests for any other seed are computed on first use
and cached under ``.bench_cache/`` in the checkout, which git ignores.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from typing import Callable, Dict, List, Optional, Sequence

import common


# ----------------------------------------------------------------------
# Digests of program outputs
# ----------------------------------------------------------------------

def paper_digests(out_dir: str) -> Dict[str, str]:
    """Digest of each pinned ``repro all`` artifact in ``out_dir``."""
    digests = {}
    for name in common.PAPER_ARTIFACTS:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as handle:
                digests[name] = common.sha(handle.read())
    return digests


def cell_digest(pvalue: float, mean_trial_cycles: float) -> str:
    return common.sha(common.canonical([pvalue, mean_trial_cycles]))


def rsa_digest(result) -> str:
    from repro.harness.checkpoint import serialize_rsa

    return common.sha(common.canonical(serialize_rsa(result)))


def verdict_digest(verdict: Dict[str, object]) -> str:
    return common.sha(common.canonical(verdict))


def serve_key(spec: Dict[str, object]) -> str:
    return "serve/" + common.sha(common.canonical(spec))


def paper_key(workload: str, seed: int) -> str:
    return f"{workload}/{seed}"


def matrix_key(seed: int) -> str:
    return f"defense_matrix/n{common.MATRIX_RUNS}/{seed}"


FIG7_KEY = "fig7/rsa"


def rsa_spec() -> Dict[str, object]:
    """The serve job that runs the Figure 7 exponent leak."""
    from repro.harness.experiment import FIGURE7_EXPONENT

    return {"kind": "rsa", "seed": 7, "exponent": FIGURE7_EXPONENT}


# ----------------------------------------------------------------------
# Scalar reference runs
# ----------------------------------------------------------------------

def compute_paper(workload: str, seed: int) -> Dict[str, str]:
    """Digests of a scalar ``repro all`` run (a cold subprocess)."""
    os.makedirs(common.TMP_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=common.TMP_ROOT) as tmp:
        out = os.path.join(tmp, "out")
        os.mkdir(out)
        argv = [sys.executable, "-m", "repro", "all", "--out", out,
                "--runs", str(common.PAPER_RUNS), "--seed", str(seed),
                "--backend", "scalar"]
        if workload == "paper_sequential":
            argv.append("--sequential")
        subprocess.run(
            argv, env=common.hermetic_env(os.path.join(tmp, "pyc")),
            stdout=subprocess.DEVNULL, check=True, cwd=tmp,
        )
        with open(os.path.join(out, "run_summary.json")) as handle:
            classifications = json.load(handle)["classifications"]
        return {**paper_digests(out), "clean": set(classifications) == {"clean"}}


def compute_matrix(seed: int) -> Dict[str, str]:
    """Per-cell digests of one scalar defense-matrix pass."""
    from repro.cli import parse_defense
    from repro.core.channels import ChannelType
    from repro.core.variants import ALL_VARIANTS
    from repro.harness.experiment import run_cell

    digests = {}
    for variant, channel, spec, predictor in common.matrix_cases(
        ALL_VARIANTS, ChannelType
    ):
        result = run_cell(
            variant, channel, predictor, common.MATRIX_RUNS, seed,
            defense=parse_defense(spec), backend="scalar",
        )
        label = common.case_label(variant.name, channel.value, spec, predictor)
        digests[label] = cell_digest(result.pvalue, result.mean_trial_cycles)
    return digests


def compute_fig7() -> str:
    from repro.harness.experiment import figure7_result

    return rsa_digest(figure7_result())


def compute_serve(spec: Dict[str, object]) -> str:
    """Digest of the verdict a serial scalar ``execute_spec`` gives."""
    from repro.harness.parallel import execute_spec
    from repro.harness.runner import ExecutionPolicy, ResilientExecutor
    from repro.serve.daemon import verdict_summary
    from repro.serve.protocol import job_key, normalize_spec, spec_to_cell

    normalized = normalize_spec(dict(spec))
    key = job_key(normalized, "compat")
    policy = dataclasses.replace(ExecutionPolicy.compat(), backend="scalar")
    cell = execute_spec(spec_to_cell(normalized, key), ResilientExecutor(policy))
    return verdict_digest(verdict_summary(cell.to_payload()))


# ----------------------------------------------------------------------
# Lookup
# ----------------------------------------------------------------------

def _read(path: str) -> Dict[str, object]:
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)


def _write(path: str, payload: Dict[str, object]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


class Oracle:
    """Shipped digests first, then the checkout-local cache, then compute."""

    def __init__(self, shipped: str = common.SHIPPED_ORACLE,
                 cache: str = common.CACHE_PATH) -> None:
        self.shipped = _read(shipped)
        self.cache_path = cache
        self.cache = _read(cache)
        self.computed = 0

    def get(self, key: str, compute: Callable[[], object]) -> object:
        if key in self.shipped:
            return self.shipped[key]
        if key not in self.cache:
            self.cache[key] = compute()
            self.computed += 1
            _write(self.cache_path, self.cache)
        return self.cache[key]


# ----------------------------------------------------------------------
# Building the shipped file
# ----------------------------------------------------------------------

def build(part: str, seeds: Sequence[int] = ()) -> Dict[str, object]:
    out: Dict[str, object] = {}
    if part in ("paper_all", "paper_sequential"):
        for seed in seeds or common.PAPER_SEEDS:
            out[paper_key(part, seed)] = compute_paper(part, seed)
    elif part == "defense_matrix":
        out[FIG7_KEY] = compute_fig7()
        for seed in common.MATRIX_SEEDS:
            out[matrix_key(seed)] = compute_matrix(seed)
    elif part == "serve_jobs":
        out[FIG7_KEY] = compute_fig7()
        for spec in common.serve_universe(common.SERVE_SEEDS) + [rsa_spec()]:
            out[serve_key(spec)] = compute_serve(spec)
    else:
        raise SystemExit(f"unknown part {part!r}")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    build_cmd = sub.add_parser("build", help="compute one part's digests")
    build_cmd.add_argument("part", choices=[
        "paper_all", "paper_sequential", "defense_matrix", "serve_jobs",
    ])
    build_cmd.add_argument("--out", required=True)
    build_cmd.add_argument("--seeds", type=int, nargs="*", default=(),
                           help="paper parts: these seeds, not the pool")
    merge_cmd = sub.add_parser("merge", help="merge part files")
    merge_cmd.add_argument("parts", nargs="+")
    merge_cmd.add_argument("--out", default=common.SHIPPED_ORACLE)
    args = parser.parse_args(argv)
    os.makedirs(common.TMP_ROOT, exist_ok=True)
    common.use_checkout(os.path.join(common.TMP_ROOT, "pyc-oracle"))
    if args.command == "build":
        _write(os.path.abspath(args.out), build(args.part, args.seeds))
    else:
        merged: Dict[str, object] = {}
        for path in args.parts:
            merged.update(_read(path))
        _write(os.path.abspath(args.out), merged)
    return 0


if __name__ == "__main__":
    sys.exit(main())
