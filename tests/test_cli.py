"""End-to-end tests for the generate / evaluate / flops subcommands."""

import json

import numpy as np
import pytest

from elmbench import Dataset, load_csv, write_csv
from elmbench.cli import main, parse_solvers
from elmbench.evaluate import evaluate_dataset
from elmbench.linalg import SolverKind, flop_estimate

ROW_KEYS = {"name", "sensitivity", "precision", "f_measure", "specificity",
            "mcc", "accuracy", "train_s", "test_s", "flops"}


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _tiny_dataset(tmp_path, seed=0, sessions=4, runs=2, images=3, width=4,
                  separable=True):
    """Small session-grid dataset with a feature that encodes the label."""
    rng = np.random.default_rng(seed)
    rows = sessions * runs * images
    layout = np.array([[s, r, i]
                       for s in range(sessions)
                       for r in range(runs)
                       for i in range(images)], dtype=np.int64)
    labels = (layout[:, 2] == 0).astype(np.int64)  # image 0 is the target
    feats = rng.standard_normal((rows, width))
    if separable:
        feats[:, 0] += 6.0 * labels
    path = tmp_path / "tiny.csv"
    write_csv(Dataset(features=feats, labels=labels, layout=layout), path)
    return path


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_864_rows(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["generate", "--seed", "7", "--out", str(out)]) == 0
    ds = load_csv(out)
    assert ds.features.shape == (864, 64)
    assert int(ds.labels.sum()) == 72


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["generate", "--seed", "9", "--out", str(a)]) == 0
    assert main(["generate", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_zero_snr(tmp_path, capsys):
    code = main(["generate", "--seed", "1", "--snr", "0.0",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "snr must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("snr", ["nan", "inf"])
def test_generate_rejects_nonfinite_snr(tmp_path, capsys, snr):
    out = tmp_path / "x.csv"
    assert main(["generate", "--seed", "1", "--snr", snr, "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# flops
# ---------------------------------------------------------------------------

def test_flops_reference_point(capsys):
    assert main(["flops", "--m", "100", "--n", "50"]) == 0
    out = capsys.readouterr().out
    svd_line = next(ln for ln in out.splitlines() if ln.startswith("svd"))
    assert "1,385,000" in svd_line


def test_flops_floor_at_tiny_n(capsys):
    assert main(["flops", "--m", "2", "--n", "1"]) == 0
    out = capsys.readouterr().out
    lu_line = next(ln for ln in out.splitlines() if ln.startswith("lu "))
    assert lu_line.split()[-1] == "0"


def test_flops_marks_svd_maximum(capsys):
    assert main(["flops", "--m", "100", "--n", "50"]) == 0
    assert "highest flop count" in capsys.readouterr().out


def test_flops_svd_strict_maximum_on_grid():
    # verified region: n >= 10 with m up to 5n (beyond ~5.5n the
    # Gram-Schmidt/Schur count overtakes the SVD count)
    for n in (10, 20, 50, 100, 200):
        for ratio in (0.5, 1, 2, 5):
            m = max(int(ratio * n), 1)
            counts = {k: flop_estimate(k, m, n) for k in SolverKind}
            svd_count = counts.pop(SolverKind.SVD)
            assert all(svd_count > c for c in counts.values()), (m, n)


def test_flops_validation(capsys):
    assert main(["flops", "--m", "0", "--n", "5"]) == 1
    assert "m and n must be positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_json_schema_and_metrics(tmp_path):
    path = _tiny_dataset(tmp_path)
    out = tmp_path / "rep.json"
    code = main(["evaluate", str(path), "--solvers", "all", "--hidden", "8",
                 "--seed", "3", "--repeats", "1", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text(), parse_constant=_refuse_constant)
    assert set(report) == {"config", "solvers"}
    assert report["config"] == {"seed": 3, "hidden": 8, "lambda": 0.0,
                                "repeats": 1,
                                "solvers": [k.value for k in SolverKind]}
    assert len(report["solvers"]) == 6
    for row in report["solvers"]:
        assert ROW_KEYS <= set(row)
        assert row["train_s"] > 0.0 and row["test_s"] > 0.0
        assert row["accuracy"] >= 0.9  # separable feature
        assert row["flops"] == flop_estimate(
            SolverKind(row["name"]), 18, 8)  # 18 training rows per fold


def test_evaluate_separable_limit_perfect_accuracy(tmp_path):
    csv = tmp_path / "sep.csv"
    out = tmp_path / "rep.json"
    assert main(["generate", "--seed", "3", "--snr", "50", "--out", str(csv)]) == 0
    assert main(["evaluate", str(csv), "--solvers", "svd", "--hidden", "40",
                 "--repeats", "1", "--json", str(out)]) == 0
    row = json.loads(out.read_text())["solvers"][0]
    # fold-averaged accuracy of 1.0 means every fold scored 1.0
    assert row["accuracy"] == 1.0


def test_evaluate_metrics_reproducible(tmp_path):
    path = _tiny_dataset(tmp_path)
    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["evaluate", str(path), "--solvers", "svd,lu",
                     "--hidden", "6", "--seed", "5", "--repeats", "1",
                     "--json", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    for r1, r2 in zip(reports[0]["solvers"], reports[1]["solvers"]):
        for key in ("sensitivity", "precision", "f_measure", "specificity",
                    "mcc", "accuracy", "flops"):
            assert r1[key] == r2[key]


def test_evaluate_shares_hidden_matrix_across_solvers(tmp_path, monkeypatch):
    from elmbench import elm

    ds = load_csv(_tiny_dataset(tmp_path))
    real = elm.solve_output_weights
    seen = {}

    def recording(h, targets, solver, ridge_lambda=0.0):
        seen.setdefault(solver, []).append(h.tobytes())
        return real(h, targets, solver, ridge_lambda)

    monkeypatch.setattr("elmbench.elm.solve_output_weights", recording)
    solvers = [SolverKind.SVD, SolverKind.LU, SolverKind.SCHUR]
    report = evaluate_dataset(ds, solvers, hidden=6, ridge_lambda=0.0,
                              seed=11, repeats=2)
    assert not any(row.get("error") for row in report["solvers"])
    assert list(seen) == solvers
    # 4 session folds, each one warmup solve and 2 timed repeats
    assert len(seen[SolverKind.SVD]) == 4 * 3
    assert len(set(seen[SolverKind.SVD])) == 4
    assert seen[SolverKind.LU] == seen[SolverKind.SVD]
    assert seen[SolverKind.SCHUR] == seen[SolverKind.SVD]


def test_evaluate_dataset_rejects_zero_repeats_before_solving(tmp_path,
                                                             monkeypatch):
    ds = load_csv(_tiny_dataset(tmp_path))

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the repeats check")

    monkeypatch.setattr("elmbench.elm.solve_output_weights", no_solve)
    with pytest.raises(ValueError, match="repeats"):
        evaluate_dataset(ds, [SolverKind.LU], hidden=6, ridge_lambda=0.0,
                         seed=11, repeats=0)


def test_evaluate_dataset_rejects_non_integral_repeats_before_solving(
        tmp_path, monkeypatch):
    ds = load_csv(_tiny_dataset(tmp_path))

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the repeats check")

    monkeypatch.setattr("elmbench.elm.solve_output_weights", no_solve)
    with pytest.raises(ValueError, match="^repeats must be"):
        evaluate_dataset(ds, [SolverKind.LU], hidden=6, ridge_lambda=0.0,
                         seed=11, repeats=1.5)


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_evaluate_equals_train_predict_per_fold(tmp_path, lam):
    from elmbench import elm, metrics
    from elmbench.data import grid_shape

    ds = load_csv(_tiny_dataset(tmp_path, separable=False))
    report = evaluate_dataset(ds, list(SolverKind), hidden=6,
                              ridge_lambda=lam, seed=11, repeats=2)
    plan = metrics.session_kfold(*grid_shape(ds.layout),
                                 n_samples=ds.features.shape[0])
    for kind, row in zip(SolverKind, report["solvers"]):
        cfg = elm.ElmConfig(hidden_neurons=6, solver=kind, rng_seed=11,
                            ridge_lambda=lam)
        folds = []
        for train_idx, test_idx in plan.folds:
            model = elm.train(ds.features[train_idx], ds.labels[train_idx],
                              cfg).model
            _, pred = elm.predict(model, ds.features[test_idx])
            folds.append(metrics.metric_report(
                metrics.confusion(pred, ds.labels[test_idx])))
        assert row["name"] == kind.value and "error" not in row
        for key in ("sensitivity", "precision", "f_measure", "specificity",
                    "mcc", "accuracy"):
            assert row[key] == float(np.mean([getattr(r, key) for r in folds]))
        assert row["flops"] == flop_estimate(kind, 18, 6)


def test_evaluate_refuses_one_training_row_per_fold(tmp_path, capsys):
    # 2 sessions x 1 run x 1 image: each fold trains on a single row
    path = _tiny_dataset(tmp_path, sessions=2, runs=1, images=1)
    assert main(["evaluate", str(path), "--solvers", "lu", "--hidden", "1",
                 "--repeats", "1"]) == 1
    assert "need at least 2 samples" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--hidden", "0", "hidden_neurons must be >= 1"),
    ("--lambda", "-1", "ridge_lambda must be >= 0"),
    ("--repeats", "0", "repeats must be >= 1"),
])
def test_evaluate_rejects_bad_flag_values(tmp_path, capsys, flag, value,
                                          message):
    path = _tiny_dataset(tmp_path)
    assert main(["evaluate", str(path), "--solvers", "lu", "--hidden", "6",
                 "--repeats", "1", flag, value]) == 1
    assert message in capsys.readouterr().err


def test_evaluate_has_no_snr_flag(tmp_path, capsys):
    path = _tiny_dataset(tmp_path)
    assert main(["evaluate", str(path), "--solvers", "lu", "--hidden", "6",
                 "--repeats", "1", "--snr", "3"]) == 1
    assert "unrecognized arguments: --snr" in capsys.readouterr().err


def test_evaluate_isolates_failing_solvers(tmp_path):
    # constant features collapse the hidden matrix to rank one
    rows = 2 * 1 * 2
    layout = np.array([[s, 0, i] for s in range(2) for i in range(2)],
                      dtype=np.int64)
    ds = Dataset(features=np.ones((rows, 3)),
                 labels=(layout[:, 2] == 0).astype(np.int64), layout=layout)
    path = tmp_path / "flat.csv"
    write_csv(ds, path)
    out = tmp_path / "rep.json"
    code = main(["evaluate", str(path), "--solvers", "all", "--hidden", "2",
                 "--repeats", "1", "--json", str(out)])
    assert code == 2  # every solver failed
    report = json.loads(out.read_text())
    assert len(report["solvers"]) == 6
    for row in report["solvers"]:
        assert row["error"] in {"RankDeficient", "SingularMatrix", "NoConvergence"}
        assert ROW_KEYS <= set(row)
        assert all(row[key] is None for key in ROW_KEYS - {"name", "flops"})


def test_evaluate_partial_failure_keeps_other_rows(tmp_path, monkeypatch):
    from elmbench import elm
    from elmbench.errors import RankDeficient

    path = _tiny_dataset(tmp_path)
    real = elm.solve_output_weights

    def flaky(h, targets, solver, ridge_lambda=0.0):
        if solver is SolverKind.LU:
            raise RankDeficient("forced failure")
        return real(h, targets, solver, ridge_lambda)

    monkeypatch.setattr("elmbench.elm.solve_output_weights", flaky)
    out = tmp_path / "rep.json"
    code = main(["evaluate", str(path), "--solvers", "svd,lu", "--hidden", "6",
                 "--repeats", "1", "--json", str(out)])
    assert code == 0
    rows = {row["name"]: row for row in json.loads(out.read_text())["solvers"]}
    assert rows["lu"]["error"] == "RankDeficient"
    assert rows["svd"]["accuracy"] is not None


def test_evaluate_rejects_hidden_above_training_rows(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    assert main(["generate", "--seed", "7", "--out", str(csv)]) == 0
    capsys.readouterr()
    assert main(["evaluate", str(csv), "--hidden", "900", "--repeats", "1"]) == 1
    assert "792" in capsys.readouterr().err


def test_evaluate_unknown_solver(tmp_path, capsys):
    path = _tiny_dataset(tmp_path)
    assert main(["evaluate", str(path), "--solvers", "qz"]) == 1
    assert "unknown solver" in capsys.readouterr().err


def test_evaluate_contract_violation_exit_code(tmp_path, capsys):
    # a duplicated and a missing grid key, sorted: not a 2x1x2 grid
    layout = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 1], [1, 0, 1]],
                      dtype=np.int64)
    grid = tmp_path / "grid.csv"
    write_csv(Dataset(features=np.ones((4, 2)), labels=np.array([1, 0, 0, 0]),
                      layout=layout), grid)
    assert main(["evaluate", str(grid), "--repeats", "1"]) == 1
    assert "do not fill a 2x1x2 grid" in capsys.readouterr().err
    garbage = tmp_path / "garbage.csv"
    garbage.write_text("session,run,image,label,f0\n0,0,0,1,oops\n")
    assert main(["evaluate", str(garbage), "--repeats", "1"]) == 1
    assert "row 1" in capsys.readouterr().err
    garbage.write_text("session,run,image,label,f0\n0,0,0,1,1_000\n")
    assert main(["evaluate", str(garbage), "--repeats", "1"]) == 1
    assert "row 1, column f0" in capsys.readouterr().err


def test_evaluate_rejects_header_only_file(tmp_path, capsys):
    path = tmp_path / "header.csv"
    path.write_text("session,run,image,label,f0\n")
    assert main(["evaluate", str(path), "--repeats", "1"]) == 1
    assert "no data rows" in capsys.readouterr().err


def test_evaluate_repeated_solver(tmp_path, capsys):
    path = _tiny_dataset(tmp_path)
    assert main(["evaluate", str(path), "--solvers", "svd,lu,svd",
                 "--repeats", "1"]) == 1
    assert "solver 'svd' is listed twice" in capsys.readouterr().err


def test_evaluate_missing_file():
    assert main(["evaluate", "/nonexistent/x.csv"]) == 2


def test_parse_solvers_all():
    assert len(parse_solvers("all")) == 6
    assert parse_solvers("svd,hessenberg") == [SolverKind.SVD,
                                               SolverKind.HESSENBERG]


def test_parse_solvers_rejects_repeats():
    with pytest.raises(ValueError, match="'hh-qr' is listed twice"):
        parse_solvers("hh-qr, LU,HH-QR")


def test_cli_usage_error_exit_code():
    assert main(["bogus-subcommand"]) == 1
