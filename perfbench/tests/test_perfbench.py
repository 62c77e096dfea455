"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q

The last two tests run ``run.py`` for real (about 30 s together).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import common  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def _tree():
    # root [0, 10]
    #   a [1, 4]      (a.inner [2, 3] nested in it)
    #   b [3, 6]      overlaps a: another thread under the same parent
    #   same-name recursion: r [6.5, 9] > r [7, 8]
    return [
        Span(1, "root", 0.0, 10.0, 0, 0),
        Span(2, "a", 1.0, 4.0, 1, 0),
        Span(3, "a.inner", 2.0, 3.0, 2, 0),
        Span(4, "b", 3.0, 6.0, 1, 0),
        Span(5, "r", 6.5, 9.0, 1, 0, work=5.0),
        Span(6, "r", 7.0, 8.0, 5, 0, work=2.0),
        # Same ids in another run must not be confused with run 0.
        Span(1, "root", 20.0, 21.0, 0, 1),
    ]


def test_self_time_subtracts_union_of_children():
    selfs = tracing.self_times(_tree())
    assert selfs[(0, 1)] == pytest.approx(10.0 - (6.0 - 1.0) - (9.0 - 6.5))
    assert selfs[(0, 2)] == pytest.approx(3.0 - 1.0)
    assert selfs[(0, 4)] == pytest.approx(3.0)
    assert selfs[(0, 5)] == pytest.approx(2.5 - 1.0)
    assert selfs[(1, 1)] == pytest.approx(1.0)


def test_child_outside_parent_is_clipped():
    spans = [Span(1, "p", 0.0, 2.0, 0, 0), Span(2, "c", 1.0, 5.0, 1, 0)]
    assert tracing.self_times(spans)[(0, 1)] == pytest.approx(1.0)


def test_layer_totals_count_recursion_once():
    totals = tracing.layer_totals(_tree())
    assert totals["r"]["calls"] == 1
    assert totals["r"]["s"] == pytest.approx(2.5)
    assert totals["r"]["self_s"] == pytest.approx(1.5 + 1.0)
    assert totals["r"]["work"] == 5.0
    assert totals["root"]["calls"] == 2


def test_coverage_is_union_length():
    assert tracing.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert tracing.covered([]) == 0.0


def test_chrome_round_trip(tmp_path):
    path = str(tmp_path / "t.json")
    tracing.write_trace(path, _tree(), {"counters": {"trials": 3}})
    spans, meta = tracing.read_trace(path)
    assert meta == {"counters": {"trials": 3}}
    assert [(s.id, s.name, s.parent, s.run) for s in spans] == [
        (s.id, s.name, s.parent, s.run) for s in _tree()
    ]
    assert tracing.self_times(spans)[(0, 1)] == pytest.approx(2.5)


def test_wrap_records_parent_and_work():
    tracer = tracing.Tracer(run=7)

    def inner(x):
        return [x, x]

    wrapped_inner = tracer.wrap(inner, "inner", work=len)
    outer = tracer.wrap(lambda: wrapped_inner(1), "outer")
    assert outer() == [1, 1]
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].work == 2
    assert {s.run for s in tracer.spans} == {7}


@pytest.mark.parametrize("n, pct", [
    (1, None), (19, None), (20, 50.0), (91, 50.0), (92, 90.0),
    (901, 90.0), (902, 99.0), (9001, 99.0), (9002, 99.9),
])
def test_tail_percentile_has_ten_samples_beyond(n, pct):
    samples = [float(i) for i in range(n)]
    chosen = common.tail_percentile(samples)
    if pct is None:
        assert chosen is None
        return
    assert chosen[0] == pct
    assert sum(1 for x in samples if x > chosen[1]) >= 10


def test_percentile_interpolates():
    assert common.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert common.percentile([5.0], 90.0) == 5.0


def test_failed_frac_counts_operations_not_reasons():
    outcomes = common.Outcomes()
    assert outcomes.failed_frac == 1.0 and not outcomes.correct
    outcomes.record([])
    outcomes.record(["exit 1", "table3.json differs from the scalar oracle"])
    outcomes.record([])
    assert (outcomes.attempted, outcomes.failed) == (3, 1)
    assert outcomes.failed_frac == pytest.approx(1 / 3)
    assert len(outcomes.reasons) == 2
    assert not outcomes.correct


def test_serve_stream_repeats_a_third():
    import random

    universe = common.serve_universe(common.SERVE_SEEDS)
    stream = common.serve_stream(random.Random(0), universe, 36)
    keys = [json.dumps(spec, sort_keys=True) for spec in stream]
    assert len(stream) == 36
    assert len(set(keys)) == 36 - 12


def test_cli_seeds_come_from_pool_or_outside_it():
    pool = common.cli_seeds("defense_matrix", 3, 3)
    assert pool == common.cli_seeds("defense_matrix", 3, 3)
    assert set(pool) <= set(common.MATRIX_SEEDS)
    held = common.cli_seeds("defense_matrix", 3, 3, held_out=True)
    assert not set(held) & set(common.MATRIX_SEEDS)


def test_refuses_to_run_without_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tampered_artifact_fails_the_run(monkeypatch, capsys):
    import run

    original = run.timed

    def tampering(bench_run, argv):
        result = original(bench_run, argv)
        if "all" in argv:
            out = argv[argv.index("--out") + 1]
            path = os.path.join(out, "table3.json")
            with open(path, "r+b") as handle:
                first = handle.read(1)
                handle.seek(0)
                handle.write(b" " if first != b" " else b"\n")
        return result

    monkeypatch.setattr(run, "timed", tampering)
    code = run.main(["--workload", "paper_all", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] >= run.MIN_UNITS
