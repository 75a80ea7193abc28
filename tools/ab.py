"""Compare two checkouts on the same inputs: route bits, work counts and call times.

    python3 tools/ab.py OLD_ROOT NEW_ROOT
    python3 tools/ab.py OLD_ROOT NEW_ROOT --scale

Each root is a checkout with the package under ``src/``. The checkout
holding this script builds the inputs once with ``bench/harness.prepare``:
the 12 ``erp-cv`` folds of seeds 7 and 23, each fold's ``x_train`` and
``t_train`` with its seed's ``weights`` and ``biases``, and the harness's
activation. Both checkouts read that one ``.npz``, so a change to data
generation, the CSV format or the normalizer cannot move what they compute.
With them it writes an oracle: for each fold's ``h`` and each ridge
``lam`` in {0, 0.1}, ``numpy.linalg.lstsq``'s solution of
``[h; sqrt(lam) I] w = [t; 0]``, computed in the tool's own process and
never in the package.
Every subprocess runs with a single OpenBLAS thread and its checkout's
``src`` first on the path.

One ``--dump`` subprocess per checkout computes, on every fold, 432 route
arrays: each of the six routes' ``solve_output_weights`` at ridge 0 and 0.1
and ``hat_diagnostic`` at 0.1. It also records the ``iterations`` of
``svd(h)``, ``svd(G)`` and ``schur_decompose(G)``, with ``G = h.T h + 0.1 I``:
72 counts. Per route the tool prints how many arrays are ``np.array_equal``
to OLD_ROOT's, the largest relative change ``||new - old|| / ||old||`` and,
OLD_ROOT's next to NEW_ROOT's, the largest relative distance of each
checkout's array from its own ``hh-qr`` route's, and, OLD_ROOT's next to
NEW_ROOT's at each ridge, the largest forward error ``||w - w_oracle|| /
||w_oracle||`` of its weights. Per factorization it prints how many folds
count the same iterations. A route that raises in either checkout stops
the run.

Then 6 rounds each run one ``--time`` subprocess per checkout, and the
checkout that goes first alternates. On fold 0 of seed 7 a subprocess times
26 public calls, each after one warm-up call, repeated for about 0.1 s and
at least 5 times, and keeps the median of each:

- ``hidden_output`` of the fold;
- the six factorizations of ``G``, and ``svd``, ``mgs_qr`` and
  ``householder_qr`` of ``h``;
- the ridge-0 applies ``svd(h).solve(t)`` and ``householder_qr(h).solve(t)``;
- each factor of ``G``'s ``solve`` on the vector ``h.T t`` and on the
  100 x 792 ``h.T``;
- ``tridiagonal_solve`` of ``hessenberg_reduce(G).t`` on the same two.

Per call it prints each checkout's median over the rounds with its
quartiles, in ms, the ratio NEW/OLD of the medians, and in how many rounds
NEW was faster. It is a review aid, not a test.

With ``--scale`` the tool times the six public factorizations at other
shapes instead, and computes no route arrays. This checkout builds four
layers once: criterion 01's first 200 x 50 system, fold 0 of seed 7's
``erp-cv`` training rows with the harness's layer (792 x 100) and with a
layer of width 780 redrawn from the same seed (792 x 780), and criterion
08's 5000 x 500 layer. Both checkouts factor those same arrays. On each
layer the routes that factor ``h`` at ridge 0 (``svd``, ``mgs_qr``,
``householder_qr``) factor ``h``; the others factor ``G = h.T h + 0.1 I``.
Each call is timed as above, but at least 3 times, in the same
alternating rounds, and printed in the same table. Then, per layer and
checkout, it prints ``||Q.T Q - I||_F`` of ``mgs_qr(h)``'s ``q``. A run
takes a few minutes.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 23)
RIDGE = 0.1
LAMBDAS = (0.0, RIDGE)
REFERENCE = "hh-qr"
# Prefix of the work-count entries, which are not route arrays.
WORK = "iterations:"
# Prefix of the oracle's weights in the inputs.
ORACLE = "oracle/"
TIMED_FOLD = "7/0"
ROUNDS = 6
MIN_REPEATS = 5
TARGET_S = 0.1
SCALE_REPEATS = 3
SCALE_WIDTH = 780
FACTORIZATIONS = ("lu_decompose", "mgs_qr", "householder_qr",
                  "hessenberg_reduce", "schur_decompose", "svd")
# The factorizations whose routes factor h itself at ridge 0.
FACTOR_H = ("svd", "mgs_qr", "householder_qr")


def oracle_weights(h, t, lam: float):
    """numpy.linalg.lstsq's w for [h; sqrt(lam) I] w = [t; 0]."""
    import numpy as np
    m = h.shape[1]
    a = np.vstack([h, math.sqrt(lam) * np.eye(m)])
    b = np.concatenate([t, np.zeros((m,) + t.shape[1:])])
    return np.linalg.lstsq(a, b, rcond=None)[0]


def write_inputs(out: Path) -> None:
    """Write the folds of SEEDS, as this checkout's prepare builds them, and the oracle, to out."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import numpy as np

    import elmbench as eb
    import harness
    inputs = {"activation": harness.ACTIVATION.value}
    for seed in SEEDS:
        prep = harness.prepare(harness.WORKLOADS["erp-cv"], seed,
                               out.parent / f"data-{seed}")
        for i, fold in enumerate(prep.folds):
            inputs.update({f"{seed}/{i}/x": fold.x_train, f"{seed}/{i}/t": fold.t_train,
                           f"{seed}/{i}/weights": prep.weights,
                           f"{seed}/{i}/biases": prep.biases})
            h = eb.hidden_output(fold.x_train, prep.weights, prep.biases, harness.ACTIVATION)
            for lam in LAMBDAS:
                inputs[f"{ORACLE}w{lam}/{seed}/{i}"] = oracle_weights(h, fold.t_train, lam)
    np.savez(out, **inputs)


def write_scale_inputs(out: Path) -> None:
    """Write the --scale layers h, as this checkout builds them, to out (.npz)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import numpy as np

    import elmbench as eb
    import harness
    seed = SEEDS[0]
    prep = harness.prepare(harness.WORKLOADS["erp-cv"], seed, out.parent / f"data-{seed}")
    x = prep.folds[0].x_train
    wide = eb.init_random_layer(eb.ElmConfig(hidden_neurons=SCALE_WIDTH, rng_seed=seed),
                                x.shape[1])
    # Criterion 01's first system and criterion 08's layer, as
    # tests/test_acceptance.py draws them.
    features = np.random.default_rng(77).uniform(0.0, 1.0, (5000, 64))
    cfg = eb.ElmConfig(hidden_neurons=500, rng_seed=7)
    layers = [np.random.default_rng(1234).uniform(-1.0, 1.0, (200, 50)),
              eb.hidden_output(x, prep.weights, prep.biases, harness.ACTIVATION),
              eb.hidden_output(x, *wide, harness.ACTIVATION),
              eb.hidden_output(features, *eb.init_random_layer(cfg, 64), cfg.activation)]
    np.savez(out, **{"x".join(map(str, h.shape)): h for h in layers})


def package(root: Path):
    """The elmbench of root's src."""
    sys.path.insert(0, str(root / "src"))
    import elmbench as eb
    if Path(eb.__file__).resolve().parent != (root / "src" / "elmbench").resolve():
        raise SystemExit(f"imported elmbench from {eb.__file__}, not {root / 'src'}")
    return eb


def checkout(root: Path, inputs: Path):
    """The elmbench of root's src, the activation, and {"seed/i": (x, t, weights, biases)}."""
    eb = package(root)
    import numpy as np
    with np.load(inputs) as data:
        folds = {k[:-2]: tuple(data[k[:-1] + name] for name in ("x", "t", "weights", "biases"))
                 for k in data.files if k.endswith("/x")}
        return eb, eb.ActivationKind(str(data["activation"])), folds


def dump(root: Path, inputs: Path, out: Path) -> None:
    """Write the route arrays and work counts of the checkout at root to out (.npz)."""
    eb, activation, folds = checkout(root, inputs)
    import numpy as np
    arrays = {}
    for fold, (x, t, weights, biases) in folds.items():
        h = eb.hidden_output(x, weights, biases, activation)
        for kind in eb.SolverKind:
            for lam in LAMBDAS:
                arrays[f"{kind.value}/w{lam}/{fold}"] = eb.solve_output_weights(
                    h, t, kind, lam)
            arrays[f"{kind.value}/hat{RIDGE}/{fold}"] = eb.hat_diagnostic(h, RIDGE, kind)
        g = h.T @ h + RIDGE * np.eye(h.shape[1])
        for name, factor, matrix in (("svd(h)", eb.svd, h), ("svd(G)", eb.svd, g),
                                     ("schur_decompose(G)", eb.schur_decompose, g)):
            arrays[f"{WORK}{name}/{fold}"] = factor(matrix).iterations
    np.savez(out, **arrays)


def median_call_s(call, min_repeats: int = MIN_REPEATS) -> float:
    """Median seconds of call() over at least min_repeats runs and about TARGET_S."""
    call()
    start = time.perf_counter()
    call()
    repeats = max(min_repeats, int(TARGET_S / (time.perf_counter() - start)))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def time_calls(root: Path, inputs: Path, out: Path) -> None:
    """Write the median seconds of each public call of the checkout at root to out (.json)."""
    eb, activation, folds = checkout(root, inputs)
    import numpy as np
    x, t, weights, biases = folds[TIMED_FOLD]
    h = eb.hidden_output(x, weights, biases, activation)
    g = h.T @ h + RIDGE * np.eye(h.shape[1])
    rhs = {"h.T t": h.T @ t, "h.T": h.T}
    calls = {"hidden_output": lambda: eb.hidden_output(x, weights, biases, activation)}
    factorizations = [getattr(eb, name) for name in FACTORIZATIONS]
    for factorize in factorizations:
        calls[f"{factorize.__name__}(G)"] = lambda f=factorize: f(g)
    for name in FACTOR_H:
        calls[f"{name}(h)"] = lambda f=getattr(eb, name): f(h)
    for factorize in (eb.svd, eb.householder_qr):
        calls[f"{factorize.__name__}(h).solve(t)"] = lambda s=factorize(h).solve: s(t)
    for factorize in factorizations:
        factors = factorize(g)
        for name, b in rhs.items():
            calls[f"{factorize.__name__}(G).solve({name})"] = (
                lambda s=factors.solve, b=b: s(b))
    tri = eb.hessenberg_reduce(g).t
    for name, b in rhs.items():
        calls[f"tridiagonal_solve({name})"] = lambda b=b: eb.tridiagonal_solve(tri, b)
    out.write_text(json.dumps({name: median_call_s(call) for name, call in calls.items()}))


def time_scale(root: Path, inputs: Path, out: Path) -> None:
    """Write each factorization's median seconds and mgs_qr's ||Q.T Q - I||_F per --scale layer."""
    eb = package(root)
    import numpy as np
    with np.load(inputs) as data:
        layers = {shape: data[shape] for shape in data.files}
    seconds, loss = {}, {}
    for shape, h in layers.items():
        g = h.T @ h + RIDGE * np.eye(h.shape[1])
        for name in FACTORIZATIONS:
            arg, matrix = ("h", h) if name in FACTOR_H else ("G", g)
            seconds[f"{name}({arg}) {shape}"] = median_call_s(
                lambda f=getattr(eb, name), a=matrix: f(a), SCALE_REPEATS)
        q = eb.mgs_qr(h).q
        loss[shape] = float(np.linalg.norm(q.T @ q - np.eye(q.shape[1])))
    out.write_text(json.dumps({"seconds": seconds, "loss": loss}))


def run(args: list, root: Path) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, __file__, *map(str, args)], env=env, check=True)


def report_routes(old: dict, new: dict, oracle: dict) -> None:
    """Print the route table and the iterations table of two dumps.

    oracle maps "w{lam}/{fold}" to the oracle's weights; each of its
    ridges adds an OLD and a NEW column of the routes' forward errors.
    """
    import numpy as np

    def rel(x, y):
        return float(np.linalg.norm(x - y) / max(np.linalg.norm(y), np.finfo(float).tiny))

    ridges = list(dict.fromkeys(k.split("/", 1)[0] for k in oracle))
    print(f"{'route':<12}{'equal':>8}{'max rel change':>17}"
          f"{'max dist from ' + REFERENCE + ': OLD':>27}{'NEW':>10}"
          + "".join(f"{'fwd err ' + w + ': OLD':>19}{'NEW':>10}" for w in ridges))
    for route in dict.fromkeys(k.split("/", 1)[0] for k in new if not k.startswith(WORK)):
        keys = [k for k in new if k.split("/", 1)[0] == route]
        equal = sum(np.array_equal(new[k], old[k]) for k in keys)
        change = max(rel(new[k], old[k]) for k in keys)
        dist = [max(rel(side[k], side[REFERENCE + k[len(route):]]) for k in keys)
                for side in (old, new)]
        errors = [[max(rel(side[f"{route}/{k}"], oracle[k]) for k in oracle
                       if k.startswith(w + "/")) for side in (old, new)] for w in ridges]
        print(f"{route:<12}{f'{equal}/{len(keys)}':>8}{change:>17.2e}"
              f"{dist[0]:>27.2e}{dist[1]:>10.2e}"
              + "".join(f"{e[0]:>19.2e}{e[1]:>10.2e}" for e in errors))
    print(f"\n{'iterations of':<20}{'equal':>8}")
    for name in dict.fromkeys(k.split("/", 1)[0] for k in new if k.startswith(WORK)):
        keys = [k for k in new if k.split("/", 1)[0] == name]
        equal = sum(int(new[k]) == int(old[k]) for k in keys)
        print(f"{name[len(WORK):]:<20}{f'{equal}/{len(keys)}':>8}")


def report_times(old: list, new: list) -> None:
    """Print the timing table of two checkouts' rounds, one {call: seconds} per round."""
    def quartiles(values):
        q1, med, q3 = statistics.quantiles(values, n=4)
        return f"{1e3 * med:9.3f} [{1e3 * q1:8.3f}, {1e3 * q3:8.3f}]"

    print(f"{'call (ms)':<34}{'OLD median [q1, q3]':>31}{'NEW median [q1, q3]':>31}"
          f"{'NEW/OLD':>9}{'NEW faster':>12}")
    for name in new[0]:
        a = [r[name] for r in old]
        b = [r[name] for r in new]
        ratio = statistics.median(b) / statistics.median(a)
        faster = sum(y < x for x, y in zip(a, b))
        print(f"{name:<34}{quartiles(a):>31}{quartiles(b):>31}{ratio:>9.3f}"
              f"{f'{faster}/{len(a)}':>12}")


def report_orthogonality(old: dict, new: dict) -> None:
    """Print each layer's ||Q.T Q - I||_F of mgs_qr(h) in two checkouts, {layer: loss}."""
    print(f"{'||Q.T Q - I||_F of mgs_qr(h)':<34}{'OLD':>10}{'NEW':>10}")
    for shape in new:
        print(f"{shape:<34}{old[shape]:>10.2e}{new[shape]:>10.2e}")


def scale(roots: dict, tmp: Path) -> None:
    """Time and print the --scale factorizations of the two checkouts in roots."""
    inputs = tmp / "layers.npz"
    run(["--scale-inputs", inputs], ROOT)
    times, loss = {"old": [], "new": []}, {}
    for i in range(ROUNDS):
        for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
            out = tmp / f"{side}-{i}.json"
            run(["--scale-time", roots[side], inputs, out], roots[side])
            result = json.loads(out.read_text())
            times[side].append(result["seconds"])
            loss[side] = result["loss"]
    report_times(times["old"], times["new"])
    print()
    report_orthogonality(loss["old"], loss["new"])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A subprocess: --inputs or --scale-inputs OUT, or --dump, --time or
    # --scale-time ROOT INPUTS OUT.
    modes = {"--inputs": write_inputs, "--dump": dump, "--time": time_calls,
             "--scale-inputs": write_scale_inputs, "--scale-time": time_scale}
    if argv[:1] and argv[0] in modes:
        modes[argv[0]](*map(Path, argv[1:]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--scale", action="store_true",
                        help="time the factorizations at 200x50, 792x100, 792x780 and 5000x500")
    args = parser.parse_args(argv)
    roots = {"old": args.old_root.resolve(), "new": args.new_root.resolve()}
    if args.scale:
        with tempfile.TemporaryDirectory() as tmp:
            scale(roots, Path(tmp))
        return 0
    import numpy as np
    arrays, times = {}, {"old": [], "new": []}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs.npz"
        run(["--inputs", inputs], ROOT)
        with np.load(inputs) as data:
            oracle = {k[len(ORACLE):]: data[k] for k in data.files if k.startswith(ORACLE)}
        for side, root in roots.items():
            out = Path(tmp) / f"{side}.npz"
            run(["--dump", root, inputs, out], root)
            with np.load(out) as data:
                arrays[side] = dict(data)
        for i in range(ROUNDS):
            for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
                out = Path(tmp) / f"{side}-{i}.json"
                run(["--time", roots[side], inputs, out], roots[side])
                times[side].append(json.loads(out.read_text()))
    report_routes(arrays["old"], arrays["new"], oracle)
    print()
    report_times(times["old"], times["new"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
