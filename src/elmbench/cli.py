"""Command-line front end: generate data, run the fold benchmark, print flops.

Exit codes: 0 on success, 1 on a flag or input file that breaks the contract
(any ValueError), 2 on I/O and numerical errors or when every solver failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import time

import numpy as np

from . import data as data_io
from . import elm, metrics
from .errors import LinAlgError
from .linalg import SolverKind, flop_estimate

SOLVER_ORDER = tuple(SolverKind)

_METRIC_KEYS = tuple(f.name for f in dataclasses.fields(metrics.MetricReport))


def parse_solvers(spec: str) -> list[SolverKind]:
    if spec.strip().lower() == "all":
        return list(SOLVER_ORDER)
    kinds = []
    by_value = {k.value: k for k in SolverKind}
    for token in spec.split(","):
        token = token.strip().lower()
        if token not in by_value:
            raise ValueError(
                f"unknown solver '{token}' (choose from "
                f"{', '.join(sorted(by_value))}, or 'all')")
        if by_value[token] in kinds:
            raise ValueError(f"solver '{token}' is listed twice")
        kinds.append(by_value[token])
    return kinds


# ---------------------------------------------------------------------------
# evaluate: session-fold benchmark over the requested solvers
# ---------------------------------------------------------------------------

def evaluate_dataset(dataset: data_io.Dataset, solvers: list[SolverKind],
                     hidden: int, ridge_lambda: float, seed: int,
                     repeats: int) -> dict:
    """Run every solver through the session folds of a dataset.

    Returns the report dict (JSON schema). All solvers share one hidden
    output matrix per fold. Per-solver failures are captured in the report
    without aborting the others.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    cfg = elm.ElmConfig(hidden_neurons=hidden, solver=SolverKind.SVD,
                        rng_seed=seed, ridge_lambda=ridge_lambda)
    plan = metrics.session_kfold(*data_io.grid_shape(dataset.layout),
                                 n_samples=dataset.features.shape[0])
    train_rows = min(train_idx.size for train_idx, _ in plan.folds)
    if hidden > train_rows:
        raise ValueError(
            f"hidden must be <= {train_rows}, the number of training rows "
            f"per fold, got {hidden}")
    weights, biases = elm.init_random_layer(cfg, dataset.features.shape[1])

    fold_inputs = []
    for train_idx, test_idx in plan.folds:
        nrm = elm.fit_normalizer(dataset.features[train_idx])
        x_train = elm.apply_normalizer(nrm, dataset.features[train_idx])
        x_test = elm.apply_normalizer(nrm, dataset.features[test_idx])
        h_train = elm.hidden_output(x_train, weights, biases, cfg.activation)
        fold_inputs.append((x_train, x_test, h_train,
                            dataset.labels[train_idx].astype(float),
                            dataset.labels[test_idx]))

    rows = []
    for kind in solvers:
        row = {"name": kind.value}
        fold_reports = []
        train_times: list[float] = []
        test_times: list[float] = []
        try:
            for x_train, x_test, h_train, t_train, y_test in fold_inputs:
                # The first solve is the warmup and yields the weights used
                # for prediction; the timed section covers hidden output plus
                # the solve, matching the training-cost definition.
                w_out = elm.solve_output_weights(h_train, t_train, kind,
                                                 ridge_lambda)
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    h_rep = elm.hidden_output(x_train, weights, biases,
                                              cfg.activation)
                    elm.solve_output_weights(h_rep, t_train, kind, ridge_lambda)
                    train_times.append(time.perf_counter() - t0)
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    h_test = elm.hidden_output(x_test, weights, biases,
                                               cfg.activation)
                    pred = ((h_test @ w_out) >= 0.5).astype(np.int64)
                    test_times.append(time.perf_counter() - t0)
                fold_reports.append(
                    metrics.metric_report(metrics.confusion(pred, y_test)))
        except LinAlgError as exc:
            row.update(dict.fromkeys(_METRIC_KEYS + ("train_s", "test_s")),
                       error=type(exc).__name__)
        else:
            for key in _METRIC_KEYS:
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


def _format_table(rows: list[dict]) -> str:
    headers = ["solver", "sens", "prec", "f1", "spec", "mcc", "acc",
               "train_s", "test_s", "flops"]
    lines = ["  ".join(f"{h:>10}" for h in headers)]
    for row in rows:
        if row.get("error"):
            lines.append(f"{row['name']:>10}  error: {row['error']}")
            continue
        cells = [f"{row['name']:>10}"]
        for key in _METRIC_KEYS:
            cells.append(f"{row[key]:>10.4f}")
        cells.append(f"{row['train_s']:>10.4f}")
        cells.append(f"{row['test_s']:>10.6f}")
        cells.append(f"{row['flops']:>10d}")
        lines.append("  ".join(cells))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    epochs = data_io.synth_epochs(seed=args.seed, snr=args.snr)
    feats = metrics.grand_average(epochs)
    dataset = data_io.Dataset(features=feats, labels=epochs.labels,
                              layout=epochs.layout)
    data_io.write_csv(dataset, args.out)
    print(f"wrote {feats.shape[0]} trials x {feats.shape[1]} features to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    solvers = parse_solvers(args.solvers)
    dataset = data_io.load_csv(args.dataset)
    report = evaluate_dataset(dataset, solvers, args.hidden,
                              args.ridge_lambda, args.seed, args.repeats)
    print(_format_table(report["solvers"]))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"report written to {args.json}")
    if all(row.get("error") for row in report["solvers"]):
        print("all solvers failed", file=sys.stderr)
        return 2
    return 0


def cmd_flops(args) -> int:
    counts = {kind: flop_estimate(kind, args.m, args.n) for kind in SOLVER_ORDER}
    width = max(len(k.value) for k in SOLVER_ORDER)
    for kind in SOLVER_ORDER:
        print(f"{kind.value:<{width}}  {counts[kind]:>16,d}")
    svd_count = counts[SolverKind.SVD]
    if all(svd_count > c for k, c in counts.items() if k is not SolverKind.SVD):
        print("note: SVD carries the highest flop count at this size")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="elmbench",
                     description="Benchmark direct linear solvers for "
                                 "single-hidden-layer network training.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset CSV")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--snr", type=float, default=3.0)
    gen.set_defaults(func=cmd_generate)

    ev = sub.add_parser("evaluate", help="run solvers under session folds")
    ev.add_argument("dataset")
    ev.add_argument("--solvers", default="all")
    ev.add_argument("--hidden", type=int, default=100)
    ev.add_argument("--lambda", dest="ridge_lambda", type=float, default=0.0)
    ev.add_argument("--seed", type=int, default=7)
    ev.add_argument("--repeats", type=int, default=5)
    ev.add_argument("--json", default=None)
    ev.set_defaults(func=cmd_evaluate)

    fl = sub.add_parser("flops", help="print the flop model for one size")
    fl.add_argument("--m", type=int, required=True)
    fl.add_argument("--n", type=int, required=True)
    fl.set_defaults(func=cmd_flops)
    return parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
