"""Session-fold benchmark: ``elm.train`` + ``elm.predict`` per route and fold.

The library, the CLI and the benchmark share one training-cost span:
hidden output plus solve, which ``TrainResult.train_s`` records here. The
benchmark (``bench/harness.run_cell``) times that span itself, in its own
fold loop, and never calls ``elm.train``; one shared loop is ROADMAP item 16.
"""

from __future__ import annotations

import dataclasses
import numbers
import statistics
import time

import numpy as np

from . import data as data_io
from . import elm, metrics
from .errors import LinAlgError
from .linalg import SolverKind, flop_estimate

METRIC_KEYS = tuple(f.name for f in dataclasses.fields(metrics.MetricReport))


def evaluate_dataset(dataset: data_io.Dataset, solvers: list[SolverKind],
                     hidden: int, ridge_lambda: float, seed: int,
                     repeats: int) -> dict:
    """Run every solver through the session folds of a dataset.

    Per route and fold, a warmup ``elm.train`` gives the scored model, then
    ``repeats`` more ``train`` calls give the training times and ``repeats``
    ``elm.predict`` calls on the test rows the test times (medians reported).
    Every ``train`` draws the same seeded layer, so all solvers see the same
    hidden output matrix within a fold. Returns the report dict (JSON
    schema); a route's ``LinAlgError`` is recorded in its row only.
    """
    if not isinstance(repeats, numbers.Integral) or repeats < 1:
        raise ValueError(f"repeats must be >= 1 and integral, got {repeats!r}")
    cfg = elm.ElmConfig(hidden_neurons=hidden, rng_seed=seed,
                        ridge_lambda=ridge_lambda)
    plan = metrics.session_kfold(*data_io.grid_shape(dataset.layout),
                                 n_samples=dataset.features.shape[0])
    train_rows = min(train_idx.size for train_idx, _ in plan.folds)
    if hidden > train_rows:
        raise ValueError(
            f"hidden must be <= {train_rows}, the number of training rows "
            f"per fold, got {hidden}")

    rows = []
    for kind in solvers:
        route = dataclasses.replace(cfg, solver=kind)
        row = {"name": kind.value}
        fold_reports = []
        train_times: list[float] = []
        test_times: list[float] = []
        try:
            for train_idx, test_idx in plan.folds:
                fit = (dataset.features[train_idx], dataset.labels[train_idx])
                model = elm.train(*fit, route).model
                train_times += [elm.train(*fit, route).train_s
                                for _ in range(repeats)]
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    _, pred = elm.predict(model, dataset.features[test_idx])
                    test_times.append(time.perf_counter() - t0)
                fold_reports.append(metrics.metric_report(
                    metrics.confusion(pred, dataset.labels[test_idx])))
        except LinAlgError as exc:
            row.update(dict.fromkeys(METRIC_KEYS + ("train_s", "test_s")),
                       error=type(exc).__name__)
        else:
            for key in METRIC_KEYS:
                row[key] = float(np.mean([getattr(r, key) for r in fold_reports]))
            row["train_s"] = statistics.median(train_times)
            row["test_s"] = statistics.median(test_times)
        row["flops"] = flop_estimate(kind, train_rows, hidden)
        rows.append(row)

    return {
        "config": {
            "seed": seed,
            "hidden": hidden,
            "lambda": ridge_lambda,
            "repeats": repeats,
            "solvers": [k.value for k in solvers],
        },
        "solvers": rows,
    }
