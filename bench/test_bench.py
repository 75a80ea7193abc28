"""Tests of the benchmark itself: metric tables, failure counting, checks, spans.

Run with ``python3 -m pytest bench``. They use a narrow hidden layer so each
pass takes seconds; the workloads are otherwise the real ones.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import elmbench as eb
import harness
import tracing
from elmbench.errors import SingularMatrix

HERE = Path(__file__).resolve().parent
HIDDEN = 20


def small(name):
    return dataclasses.replace(harness.WORKLOADS[name], hidden=HIDDEN)


def test_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(w.name, w.why) for w in harness.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.per_layer_table()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_every_metric_present(name, trace, tmp_path):
    result, report = harness.run_benchmark(small(name), seed=7, seconds=0,
                                           trace=trace, workdir=tmp_path, setups=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    table = tracing.per_layer_table() if trace else harness.END_TO_END
    assert list(result["metrics"]) == [n for n, _, _ in table]
    for metric, unit, better in table:
        assert result["metrics"][metric] == {
            "value": report["metrics"][metric]["value"], "unit": unit}
        assert report["metrics"][metric]["better"] == better
        assert np.isfinite(result["metrics"][metric]["value"])
    if not trace:
        assert all(name in report["metrics"] for name, _, _ in harness.TRAIN_DETAIL)
    env = report["environment"]
    assert env["seed"] == 7 and env["trace"] is trace
    assert {"numpy", "blas", "blas_threads", "nproc", "python", "git_sha"} <= set(env)


def test_linalg_error_fails_only_that_route(tmp_path):
    prep = harness.prepare(small("erp-cv"), 7, tmp_path)

    def solve(h, t, kind, lam):
        if kind is eb.SolverKind.LU:
            raise SingularMatrix("injected")
        return eb.solve_output_weights(h, t, kind, lam)

    result = harness.run_pass(prep, solve=solve)
    assert len(result.cells) == len(harness.ROUTES) * len(prep.folds)
    for cell in result.cells:
        if cell.route == "lu":
            assert cell.failure.startswith("SingularMatrix")
        else:
            assert cell.failure is None and cell.report is not None
    failed = harness.failures([result])
    assert len(failed) == len(prep.folds)


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_perturbed_weights_fail_residual_check(lam):
    rng = np.random.default_rng(3)
    h = rng.uniform(0.0, 1.0, (120, 15))
    t = (rng.uniform(size=120) < 0.3).astype(float)
    w = eb.solve_output_weights(h, t, eb.SolverKind.HH_QR, lam)
    assert harness.residual_ok(h, t, w, lam)
    w_bad = w.copy()
    w_bad[0] += 1e-6 * np.abs(w).max()
    assert not harness.residual_ok(h, t, w_bad, lam)


def test_leverage_check_bounds():
    assert harness.leverage_ok(np.array([0.5, 1.0]))
    assert not harness.leverage_ok(np.array([0.5, 0.0]))
    assert not harness.leverage_ok(np.array([0.5, 1.0 + 1e-12]))


def test_traced_self_times_within_spans(tmp_path):
    tracer = tracing.Tracer()
    original = eb.linalg.svd
    tracer.install()
    try:
        prep = harness.prepare(small("ridge-leverage"), 7, tmp_path, span=tracer.span)
        harness.measure(prep, 0, span=tracer.span, after_pass=tracer.run_direct)
    finally:
        tracer.uninstall()
    assert eb.linalg.svd is original and eb.svd is original
    spans = tracer.spans
    selfs = tracer.self_times()
    assert any(s[5] for s in spans), "no direct spans recorded"
    for (name, start, end, parent, cell, direct), self_s in zip(spans, selfs):
        assert 0.0 <= self_s <= end - start, name
        if parent is not None and not direct:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    # mgs-qr and hh-qr factorizations are visible only as direct spans.
    names = {(s[0], s[5]) for s in spans}
    assert ("linalg.mgs_qr", False) not in names
    assert ("linalg.mgs_qr", True) in names and ("linalg.householder_qr", True) in names


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "erp-cv",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
