"""Compare the six routes' output arrays between two checkouts, array by array.

    python3 tools/route_diff.py OLD_ROOT NEW_ROOT

Each root is a checkout with the package under ``src/``. One subprocess per
checkout, with a single OpenBLAS thread and that checkout's ``src`` first on
the path, computes 432 arrays: for each of the six routes,
``solve_output_weights`` at ridge 0 and 0.1 and ``hat_diagnostic`` at 0.1,
on the 12 ``erp-cv`` folds of seeds 7 and 23. The folds come from
``bench/harness.prepare`` of the checkout holding this script, so both
checkouts solve the same inputs.

Per route it prints how many arrays are ``np.array_equal`` to OLD_ROOT's,
the largest relative change ``||new - old|| / ||old||``, and the largest
relative distance of NEW_ROOT's array from the ``hh-qr`` route's. It then
compares the work counts: per fold, the ``iterations`` of ``svd(h)``,
``svd(G)`` and ``schur_decompose(G)`` with ``G = h.T h + 0.1 I``, and prints
for each factorization how many folds count the same in both checkouts. A
route that raises in either checkout stops the run. It is a review aid, not
a test.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEEDS = (7, 23)
LAMBDAS = (0.0, 0.1)
HAT_LAMBDA = 0.1
REFERENCE = "hh-qr"
# Prefix of the work-count entries, which are not route arrays.
WORK = "iterations:"


def dump(root: Path, out: Path) -> None:
    """Write every route array of the checkout at root to out (.npz)."""
    sys.path[:0] = [str(root / "src"), str(BENCH)]
    import numpy as np

    import elmbench as eb
    import harness
    if Path(eb.__file__).resolve().parent != (root / "src" / "elmbench").resolve():
        raise SystemExit(f"imported elmbench from {eb.__file__}, not {root / 'src'}")
    arrays = {}
    for seed in SEEDS:
        prep = harness.prepare(harness.WORKLOADS["erp-cv"], seed,
                               out.parent / f"data-{seed}")
        for i, fold in enumerate(prep.folds):
            h = eb.hidden_output(fold.x_train, prep.weights, prep.biases,
                                 harness.ACTIVATION)
            for kind in eb.SolverKind:
                for lam in LAMBDAS:
                    arrays[f"{kind.value}/w{lam}/{seed}/{i}"] = eb.solve_output_weights(
                        h, fold.t_train, kind, lam)
                arrays[f"{kind.value}/hat{HAT_LAMBDA}/{seed}/{i}"] = eb.hat_diagnostic(
                    h, HAT_LAMBDA, kind)
            g = h.T @ h + 0.1 * np.eye(h.shape[1])
            for name, factor, matrix in (("svd(h)", eb.svd, h), ("svd(G)", eb.svd, g),
                                         ("schur_decompose(G)", eb.schur_decompose, g)):
                arrays[f"{WORK}{name}/{seed}/{i}"] = factor(matrix).iterations
    np.savez(out, **arrays)


def run_tree(root: Path, out: Path) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, __file__, "--dump", str(root), str(out)],
                   env=env, check=True)


def report(old: dict, new: dict) -> None:
    import numpy as np

    def rel(x, y):
        return float(np.linalg.norm(x - y) / max(np.linalg.norm(y), np.finfo(float).tiny))

    print(f"{'route':<12}{'equal':>8}{'max rel change':>17}"
          f"{'max dist from ' + REFERENCE:>22}")
    for route in dict.fromkeys(k.split("/", 1)[0] for k in new if not k.startswith(WORK)):
        keys = [k for k in new if k.split("/", 1)[0] == route]
        equal = sum(np.array_equal(new[k], old[k]) for k in keys)
        change = max(rel(new[k], old[k]) for k in keys)
        dist = max(rel(new[k], new[REFERENCE + k[len(route):]]) for k in keys)
        print(f"{route:<12}{f'{equal}/{len(keys)}':>8}{change:>17.2e}{dist:>22.2e}")
    print(f"\n{'iterations of':<20}{'equal':>8}")
    for name in dict.fromkeys(k.split("/", 1)[0] for k in new if k.startswith(WORK)):
        keys = [k for k in new if k.split("/", 1)[0] == name]
        equal = sum(int(new[k]) == int(old[k]) for k in keys)
        print(f"{name[len(WORK):]:<20}{f'{equal}/{len(keys)}':>8}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--dump"]:  # the per-checkout subprocess: --dump ROOT OUT
        dump(Path(argv[1]), Path(argv[2]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    args = parser.parse_args(argv)
    import numpy as np
    with tempfile.TemporaryDirectory() as tmp:
        arrays = []
        for name, root in (("old", args.old_root), ("new", args.new_root)):
            (Path(tmp) / name).mkdir()
            out = Path(tmp) / name / "routes.npz"
            run_tree(root.resolve(), out)
            with np.load(out) as data:
                arrays.append(dict(data))
    report(*arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
