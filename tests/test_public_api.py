"""The package's public names, which the benchmark harness is limited to."""

import ast
import importlib
from pathlib import Path

import elmbench

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# The benchmark (bench/harness.py) talks to the library through these names
# only, so adding, renaming or dropping one is a deliberate change to both.
PUBLIC_NAMES = [
    "ActivationKind",
    "ConfusionCounts",
    "Dataset",
    "ElmConfig",
    "ElmModel",
    "EpochSet",
    "FoldPlan",
    "LuFactors",
    "MetricReport",
    "Normalizer",
    "QrFactors",
    "SimilarityFactors",
    "SolverKind",
    "SvdFactors",
    "TrainResult",
    "apply_normalizer",
    "backward_substitute",
    "confusion",
    "fit_normalizer",
    "flop_estimate",
    "forward_substitute",
    "grand_average",
    "hat_diagnostic",
    "hessenberg_reduce",
    "hidden_output",
    "householder_qr",
    "init_random_layer",
    "load_csv",
    "lu_decompose",
    "metric_report",
    "mgs_qr",
    "predict",
    "schur_decompose",
    "session_kfold",
    "solve_output_weights",
    "svd",
    "synth_epochs",
    "train",
    "triangular_inverse",
    "tridiagonal_solve",
    "write_csv",
]


def test_all_is_pinned():
    assert elmbench.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(elmbench, name, None) is not None, name


def test_traced_names_exist():
    # The traced benchmark run wraps these functions by name, so dropping or
    # renaming one breaks only that run. Read the table without importing
    # the benchmark code.
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    assert traced
    for module_name, names in traced.items():
        module = importlib.import_module(f"elmbench.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
