"""Command-line shell over ``evaluate``: flags, the report table, exit codes.

Exit codes: 0 on success, 1 on a flag or input file that breaks the contract
(any ValueError), 2 on I/O and numerical errors or when every solver failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import data as data_io
from . import metrics
from .errors import LinAlgError
from .evaluate import METRIC_KEYS, evaluate_dataset
from .linalg import SolverKind, flop_estimate

SOLVER_ORDER = tuple(SolverKind)


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


def _format_table(rows: list[dict]) -> str:
    headers = ["solver", "sens", "prec", "f1", "spec", "mcc", "acc",
               "train_s", "test_s", "flops"]
    lines = ["  ".join(f"{h:>10}" for h in headers)]
    for row in rows:
        if row.get("error"):
            lines.append(f"{row['name']:>10}  error: {row['error']}")
            continue
        cells = [f"{row['name']:>10}"]
        for key in METRIC_KEYS:
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
