"""Time the public linalg calls of two checkouts on identical inputs, round by round.

    python3 tools/kernel_ab.py OLD_ROOT NEW_ROOT

Each root is a checkout with the package under ``src/``. The inputs are fold
0 of the ``erp-cv`` workload, seed 7, built once by ``bench/harness.prepare``
of the checkout holding this script and handed to both checkouts, so both
time the same arrays. Each of 6 rounds runs one subprocess per checkout, with
a single OpenBLAS thread and that checkout's ``src`` first on the path; the
checkout that goes first alternates from round to round. A subprocess times
public calls only, each after one warm-up call, repeated for about 0.1 s and
at least 5 times, and keeps the median of each:

- ``hidden_output`` of the fold;
- the six factorizations of ``G = h.T h + 0.1 I``, and ``svd``, ``mgs_qr``
  and ``householder_qr`` of ``h``;
- each factor of ``G``'s ``solve`` on the vector ``h.T t`` and on the
  100 x 792 ``h.T``;
- ``tridiagonal_solve`` of ``hessenberg_reduce(G).t`` on the same two.

Per call it prints each checkout's median over the rounds with its
quartiles, in ms, the ratio NEW/OLD of the medians, and in how many rounds
NEW was faster. It is a review aid, not a test.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
FOLD = 0
RIDGE = 0.1
ROUNDS = 6
MIN_REPEATS = 5
TARGET_S = 0.1


def write_inputs(out: Path) -> None:
    """Write fold FOLD of erp-cv at seed SEED, as prepare builds it, to out (.npz)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import numpy as np

    import harness
    prep = harness.prepare(harness.WORKLOADS["erp-cv"], SEED, out.parent / "data")
    fold = prep.folds[FOLD]
    np.savez(out, x=fold.x_train, t=fold.t_train, weights=prep.weights,
             biases=prep.biases)


def median_call_s(call) -> float:
    """Median seconds of call() over at least MIN_REPEATS runs and about TARGET_S."""
    call()
    start = time.perf_counter()
    call()
    repeats = max(MIN_REPEATS, int(TARGET_S / (time.perf_counter() - start)))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def time_calls(root: Path, inputs: Path, out: Path) -> None:
    """Write the median seconds of each public call of the checkout at root to out (.json)."""
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    import elmbench as eb
    if Path(eb.__file__).resolve().parent != (root / "src" / "elmbench").resolve():
        raise SystemExit(f"imported elmbench from {eb.__file__}, not {root / 'src'}")
    with np.load(inputs) as data:
        x, t, weights, biases = data["x"], data["t"], data["weights"], data["biases"]
    activation = eb.ActivationKind.LOGISTIC_SIGMOID
    h = eb.hidden_output(x, weights, biases, activation)
    g = h.T @ h + RIDGE * np.eye(h.shape[1])
    rhs = {"h.T t": h.T @ t, "h.T": h.T}
    calls = {"hidden_output": lambda: eb.hidden_output(x, weights, biases, activation)}
    factorizations = (eb.lu_decompose, eb.mgs_qr, eb.householder_qr,
                      eb.hessenberg_reduce, eb.schur_decompose, eb.svd)
    for factorize in factorizations:
        calls[f"{factorize.__name__}(G)"] = lambda f=factorize: f(g)
    for factorize in (eb.svd, eb.mgs_qr, eb.householder_qr):
        calls[f"{factorize.__name__}(h)"] = lambda f=factorize: f(h)
    for factorize in factorizations:
        factors = factorize(g)
        for name, b in rhs.items():
            calls[f"{factorize.__name__}(G).solve({name})"] = (
                lambda s=factors.solve, b=b: s(b))
    tri = eb.hessenberg_reduce(g).t
    for name, b in rhs.items():
        calls[f"tridiagonal_solve({name})"] = lambda b=b: eb.tridiagonal_solve(tri, b)
    out.write_text(json.dumps({name: median_call_s(call) for name, call in calls.items()}))


def run(args: list, root: Path) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, __file__, *map(str, args)], env=env, check=True)


def report(old: list, new: list) -> None:
    def quartiles(values):
        q1, med, q3 = statistics.quantiles(values, n=4)
        return f"{1e3 * med:8.3f} [{1e3 * q1:7.3f}, {1e3 * q3:7.3f}]"

    print(f"{'call (ms)':<34}{'OLD median [q1, q3]':>28}{'NEW median [q1, q3]':>28}"
          f"{'NEW/OLD':>9}{'NEW faster':>12}")
    for name in new[0]:
        a = [r[name] for r in old]
        b = [r[name] for r in new]
        ratio = statistics.median(b) / statistics.median(a)
        faster = sum(y < x for x, y in zip(a, b))
        print(f"{name:<34}{quartiles(a):>28}{quartiles(b):>28}{ratio:>9.3f}"
              f"{f'{faster}/{len(a)}':>12}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--inputs"]:  # the set-up subprocess: --inputs OUT
        write_inputs(Path(argv[1]))
        return 0
    if argv[:1] == ["--time"]:  # a timing subprocess: --time ROOT INPUTS OUT
        time_calls(Path(argv[1]), Path(argv[2]), Path(argv[3]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    args = parser.parse_args(argv)
    roots = {"old": args.old_root.resolve(), "new": args.new_root.resolve()}
    results = {"old": [], "new": []}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs.npz"
        run(["--inputs", inputs], ROOT)
        for i in range(ROUNDS):
            for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
                out = Path(tmp) / f"{side}-{i}.json"
                run(["--time", roots[side], inputs, out], roots[side])
                results[side].append(json.loads(out.read_text()))
    report(results["old"], results["new"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
