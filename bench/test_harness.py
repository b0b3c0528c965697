"""Fast self-check of the benchmark harness (a few seconds).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import signal
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from probes import fraction_rank, sparse_int_matrix  # noqa: E402
from reference import ReferenceBursts, in_reference_units  # noqa: E402
from tracer import Tracer, targets  # noqa: E402
from workloads import (WORKLOADS, expected_key, invariants,  # noqa: E402
                       load_expected, mismatches)

QUADRIC3 = os.path.join(ROOT, "inputs", "quadric3.pres")


def _cli(argv):
    from ncquadric import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_stage_names_match_the_pipeline():
    from ncquadric.pipeline import STAGES
    assert run.STAGES == STAGES


def test_every_workload_input_has_expected_invariants():
    expected = load_expected()
    for w in WORKLOADS.values():
        for path in w["inputs"]:
            assert os.path.isfile(os.path.join(ROOT, path))
            assert expected_key(path, w["degree"], w["stage"]) in expected


def _originals():
    import ncquadric.pipeline as pipeline
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _, _ in targets()]
    return saved + [(pipeline, "StageReport", pipeline.StageReport)]


def test_tracer_restores_every_original_even_on_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert any(owner.__dict__[attr] is not original
                       for owner, attr, original in before)
            raise RuntimeError("boom")
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_traced_report_is_identical_and_spans_account_for_the_run():
    argv = [QUADRIC3, "--degree", "4", "--seed", "1"]
    plain_code, plain = _cli(argv)
    tracer = Tracer()
    with tracer:
        tracer.begin_run("quadric3")
        code, traced = _cli(argv)
    assert (code, traced) == (plain_code, plain)
    stages = tracer.stage_seconds()
    assert list(stages) == list(run.STAGES)
    pipeline_s = tracer.total["pipeline.run_pipeline"]
    assert sum(stages.values()) == pytest.approx(pipeline_s, rel=0.02)
    # self times partition the root span: they add up to its duration
    assert sum(tracer.self_time.values()) == pytest.approx(
        pipeline_s + tracer.total["presentation.parse_file"], rel=1e-6)
    assert tracer.calls["modules.hom_space"] > 0
    assert len(tracer.starts) == sum(tracer.calls.values())
    metrics = run.layer_metrics({
        "calls": tracer.calls, "self_s": tracer.self_time,
        "counters": tracer.counters, "stages_s": stages})
    assert metrics["modules.hom_space_calls"] == tracer.calls[
        "modules.hom_space"]
    assert 0.0 < metrics["quadratic.component_hit_ratio"] < 1.0
    assert set(metrics) | set(run.PROBES) | {
        "trace_overhead_ratio", "trace.stage_coverage_ratio"} == set(
        run.PER_LAYER)


def test_reference_bursts_run_during_a_pass_and_stop_after_it():
    argv = [QUADRIC3, "--degree", "4", "--seed", "1"]
    plain = _cli(argv)
    handler = signal.getsignal(signal.SIGALRM)
    bursts = ReferenceBursts()
    with bursts:
        assert _cli(argv) == plain
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert bursts.bursts and all(d > 0 for _, d in bursts.bursts)


def test_reference_units_follow_the_local_burst_time():
    # 0.5 s of program time before each burst and after the last; the first
    # burst takes 0.5 ms, the other four 1 ms
    durations = [0.0005, 0.001, 0.001, 0.001, 0.001]
    bursts, clock = [], 0.0
    for duration in durations:
        clock += 0.5
        bursts.append((clock, duration))
        clock += duration
    wall = clock + 0.5
    assert in_reference_units(wall, bursts, window=0) == pytest.approx(
        0.5 / 0.0005 + 5 * 0.5 / 0.001)
    # a wider window takes the median of the neighbouring bursts, which
    # for the first burst are itself and the next
    assert in_reference_units(wall, bursts, window=1) == pytest.approx(
        0.5 / 0.00075 + 5 * 0.5 / 0.001)


def test_invariants_are_read_from_a_report():
    _, report = _cli([QUADRIC3, "--degree", "4"])
    got = invariants(report)
    assert got == {"exit code": 0, "verdict": "isolated singularity: yes",
                   "dim end algebra": 4, "radical dim": 0, "summands": 4,
                   "dual-crosscheck": "ok"}
    assert mismatches(report, got) == []
    wrong = dict(got, summands=3)
    assert mismatches(report, wrong) == ["summands: expected 3, got 4"]
    _, stopped = _cli([QUADRIC3, "--degree", "4", "--stage", "verdict"])
    assert invariants(stopped)["summands"] is None


def test_fraction_rank_matches_matrix_rank():
    from ncquadric.fields import Field
    from ncquadric.linalg import Matrix
    q = Field.rationals()
    rng = random.Random(7)
    for density in (0.05, 0.3):
        rows = sparse_int_matrix(rng, n=12, density=density)
        rows.append([a + b for a, b in zip(rows[0], rows[1])])
        assert fraction_rank(rows) == Matrix(q, rows, ncols=12).rank()


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "g3-deep", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
