"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The random-system battery behind criteria 1 and 2 is computed once and its
wall time is charged to both.
"""

import json
import math
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from elmbench import (
    ConfusionCounts,
    ElmConfig,
    SolverKind,
    hat_diagnostic,
    hessenberg_reduce,
    hidden_output,
    householder_qr,
    init_random_layer,
    lu_decompose,
    metric_report,
    mgs_qr,
    predict,
    schur_decompose,
    session_kfold,
    solve_output_weights,
    svd,
    train,
)
from elmbench.cli import main

ALL_SOLVERS = list(SolverKind)


def fro(a):
    return np.linalg.norm(a)


def _passed(num, text):
    print(f"criterion {num:02d} PASS: {text}")


@pytest.fixture(scope="module")
def solver_battery():
    """100 random 200x50 systems solved by all six routes, with wall time."""
    rng = np.random.default_rng(1234)
    systems = []
    start = time.perf_counter()
    for _ in range(100):
        h = rng.uniform(-1.0, 1.0, (200, 50))
        t = rng.uniform(-1.0, 1.0, 200)
        ws = {kind: solve_output_weights(h, t, kind) for kind in ALL_SOLVERS}
        systems.append((h, t, ws))
    elapsed = time.perf_counter() - start
    return systems, elapsed


def test_criterion_01_normal_equations_residual(solver_battery):
    systems, elapsed = solver_battery
    for h, t, ws in systems:
        bound = 1e-8 * fro(h.T @ t)
        for kind, w in ws.items():
            assert fro(h.T @ (h @ w - t)) <= bound, kind
    assert elapsed < 30.0
    _passed(1, f"600 residuals within 1e-8 relative ({elapsed:.1f}s battery)")


def test_criterion_02_solver_agreement(solver_battery):
    systems, elapsed = solver_battery
    for _, _, ws in systems:
        ref = ws[SolverKind.SVD]
        scale = fro(ref)
        for kind in ALL_SOLVERS:
            assert fro(ws[kind] - ref) <= 1e-6 * scale, kind
    assert elapsed < 30.0
    _passed(2, "five routes match the SVD route within 1e-6 relative")


def test_criterion_03_factorization_invariants():
    rng = np.random.default_rng(4321)
    start = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(10, 201))
        m = int(rng.integers(2, n + 1))

        a = rng.standard_normal((n, n))
        f = lu_decompose(a)
        assert fro(a[f.perm] - f.l @ f.u) <= 1e-10 * fro(a)
        assert np.abs(np.tril(f.u, -1)).max() <= 1e-12 * fro(a)
        assert np.abs(np.triu(f.l, 1)).max() <= 1e-12 * fro(a)

        b = rng.standard_normal((n, m))
        for factorize in (mgs_qr, householder_qr):
            f = factorize(b)
            assert fro(b - f.q @ f.r) <= 1e-10 * fro(b)
            assert fro(f.q.T @ f.q - np.eye(m)) <= 1e-10
            assert np.abs(np.tril(f.r, -1)).max() <= 1e-12 * fro(b)

        s = rng.standard_normal((n, n))
        s = s + s.T
        f = hessenberg_reduce(s)
        assert fro(s - f.q @ f.t @ f.q.T) <= 1e-10 * fro(s)
        assert fro(f.q.T @ f.q - np.eye(n)) <= 1e-10
        beyond = f.t - np.tril(np.triu(f.t, -1), 1)
        assert np.abs(beyond).max() <= 1e-12 * fro(s)

        g = rng.standard_normal((n, m))
        psd = g.T @ g
        f = schur_decompose(psd)
        assert fro(psd - f.q @ f.t @ f.q.T) <= 1e-10 * fro(psd)
        assert fro(f.q.T @ f.q - np.eye(m)) <= 1e-10
        assert np.abs(f.t - np.diag(np.diag(f.t))).max() <= 1e-12 * fro(psd)

        f = svd(b)
        assert fro(b - f.u @ np.diag(f.sigma) @ f.v.T) <= 1e-10 * fro(b)
        assert fro(f.u.T @ f.u - np.eye(m)) <= 1e-10
        assert fro(f.v.T @ f.v - np.eye(m)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(3, f"50 sweeps per factorization up to 200x200 ({elapsed:.1f}s)")


def test_criterion_04_majority_baseline_metrics():
    rep = metric_report(ConfusionCounts(tp=0, fn=72, fp=0, tn=792))
    assert abs(rep.accuracy - 0.91667) <= 1e-4
    assert rep.sensitivity == 0.0
    assert rep.mcc == 0.0
    _passed(4, "all-negative predictor scores 0.91667 accuracy, 0 sens, 0 mcc")


def test_criterion_05_zero_training_error_square_hidden():
    rng = np.random.default_rng(101)
    x = rng.uniform(0.0, 1.0, (64, 8))
    y = rng.integers(0, 2, 64).astype(float)
    worst = 0.0
    for kind in ALL_SOLVERS:
        cfg = ElmConfig(hidden_neurons=64, rng_seed=2, solver=kind)
        res = train(x, y, cfg)
        scores, _ = predict(res.model, x)
        mse = float(np.mean((scores - y) ** 2))
        worst = max(worst, mse)
        assert mse <= 1e-6, kind
    _passed(5, f"square-hidden training MSE <= 1e-6 (worst {worst:.1e})")


def test_criterion_06_end_to_end_benchmark(tmp_path):
    csv = tmp_path / "bench.csv"
    out = tmp_path / "report.json"
    assert main(["generate", "--seed", "7", "--snr", "3", "--out", str(csv)]) == 0
    start = time.perf_counter()
    code = main(["evaluate", str(csv), "--solvers", "all", "--hidden", "100",
                 "--seed", "7", "--json", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 120.0
    report = json.loads(out.read_text())
    assert len(report["solvers"]) == 6
    for row in report["solvers"]:
        assert row.get("error") is None
        assert row["accuracy"] >= 0.95, row["name"]
        assert row["accuracy"] >= 792.0 / 864.0  # majority baseline
    _passed(6, f"6 solvers x 12 folds in {elapsed:.1f}s, accuracy >= 0.95 everywhere")


def test_criterion_07_flop_model_grid(capsys):
    def oracle(kind, m, n):
        m, n = Fraction(m), Fraction(n)
        table = {
            "hh-qr": 2 * n * n * (m - n / 3),
            "mgs-qr": 2 * m * n * n,
            "svd": 2 * m * n + 11 * n ** 3,
            "lu": 2 * n ** 3 / 3,
            "hessenberg": 10 * n ** 3 / 3,
            "schur": 2 * m * n * n,
        }
        return math.floor(table[kind])

    points = [(max(int(ratio * n), 1), n)
              for n in (10, 20, 50, 100, 200)
              for ratio in (0.5, 1, 2, 5)]
    assert len(points) == 20
    for m, n in points:
        assert main(["flops", "--m", str(m), "--n", str(n)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = {}
        for line in lines:
            parts = line.split()
            if len(parts) == 2 and parts[0] in {k.value for k in SolverKind}:
                values[parts[0]] = int(parts[1].replace(",", ""))
        assert len(values) == 6
        for name, got in values.items():
            assert got == oracle(name, m, n), (name, m, n)
        svd_count = values.pop("svd")
        assert all(svd_count > v for v in values.values()), (m, n)
        assert any("highest flop count" in line for line in lines)
    _passed(7, "flop table exact on 20 grid points, SVD the strict maximum")


@pytest.mark.slow
def test_criterion_08_speed_ordering_at_scale():
    rng = np.random.default_rng(77)
    features = rng.uniform(0.0, 1.0, (5000, 64))
    targets = rng.integers(0, 2, 5000).astype(float)
    cfg = ElmConfig(hidden_neurons=500, rng_seed=7)
    weights, biases = init_random_layer(cfg, 64)

    def run_route(kind):
        times = []
        for rep in range(11):  # first repetition is the warmup
            t0 = time.perf_counter()
            h = hidden_output(features, weights, biases, cfg.activation)
            solve_output_weights(h, targets, kind)
            dt = time.perf_counter() - t0
            if rep > 0:
                times.append(dt)
        return statistics.median(times)

    med_hess = run_route(SolverKind.HESSENBERG)
    med_svd = run_route(SolverKind.SVD)
    assert med_hess <= med_svd
    _passed(8, f"hessenberg median {med_hess:.2f}s <= svd median {med_svd:.2f}s "
               f"(ratio {med_svd / med_hess:.1f}x)")


def test_criterion_09_hat_diagnostic_battery():
    rng = np.random.default_rng(909)
    lam = 0.1
    for _ in range(20):
        h = rng.standard_normal((50, 10))
        vals = hat_diagnostic(h, lam)
        oracle = 1.0 - np.diag(h @ np.linalg.inv(h.T @ h + lam * np.eye(10)) @ h.T)
        assert np.abs(vals - oracle).max() <= 1e-10
        assert np.all((vals > 0.0) & (vals <= 1.0))
    _passed(9, "20 leverage vectors match the dense-inverse assembly to 1e-10")


def test_criterion_10_session_fold_partition():
    plan = session_kfold(12, 6, 12, n_samples=864)
    assert len(plan.folds) == 12
    seen = np.concatenate([test for _, test in plan.folds])
    assert sorted(seen.tolist()) == list(range(864))
    for train_idx, test_idx in plan.folds:
        assert len(test_idx) == 72
        assert len(train_idx) == 792
        assert not set(train_idx.tolist()) & set(test_idx.tolist())
    _passed(10, "12 disjoint covering folds, test 72 / train 792")
