"""Workloads, the closed-loop pass runner, correctness checks and metrics.

One operation is one *cell*: a solver route on one session fold. A *pass*
visits every (route, fold) cell in a fixed order from a single caller, so the
next cell starts only when the previous one has finished (closed loop, one
client). The benchmark talks to the library through its public API only:
the names in ``elmbench.__all__``, ``elmbench.cli.main`` and the typed
``LinAlgError`` the routes raise. ``elmbench`` must be importable before this
module is imported; ``run.py`` puts the checkout's ``src`` first on the path.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import elmbench as eb
import elmbench.cli
from elmbench.errors import LinAlgError

import tracing

ROUTES = tuple(eb.SolverKind)
ACTIVATION = eb.ActivationKind.LOGISTIC_SIGMOID
# Criterion 01's bound on the relative normal-equation residual.
RESIDUAL_RTOL = 1e-8
# Target peak amplitude of the synthetic ERP. At 3 every route scores MCC 1.0;
# at 0.5 MCC sits near 0.8, so a loss of quality still shows.
SNR = 0.5
# Set-ups per untraced run; setup_s is their median.
SETUPS = 3
# Nominal time of reference_kernel on the reference machine (see README).
REFERENCE_S = 0.008
_REF_SQUARE = np.random.default_rng(0).uniform(size=(100, 100)) + 100.0 * np.eye(100)
_REF_TALL = np.random.default_rng(1).uniform(size=(792, 24))


@dataclass(frozen=True)
class Workload:
    """One benchmark input: the ERP dataset, the hidden width and the ridge term.

    With ``ridge_lambda > 0`` every cell also computes the leave-one-out
    leverage through the same route.
    """

    name: str
    why: str
    ridge_lambda: float
    hidden: int = 100


WORKLOADS = {
    w.name: w for w in (
        Workload("erp-cv", "the paper's comparison: 792x100 least squares, six "
                 "routes, session folds; the Jacobi SVD dominates", 0.0),
        Workload("ridge-leverage", "ridge 0.1 on the same folds: every route "
                 "factors the 100x100 normal matrix and applies it to 792 "
                 "leverage columns", 0.1),
    )
}

END_TO_END = (
    [("setup_s", "s", "lower"), ("report_s", "s", "lower")]
    + [(f"cell_s.{k.value}", "s", "lower") for k in ROUTES]
    + [("mcc_min", "-", "higher")]
)
# Training time alone goes to the report line only. One ridge-leverage pass
# gives 12 samples per route, and their median spread up to 0.22 across ten
# seeds (schur), too close to the largest bound a metric may have.
TRAIN_DETAIL = [(f"train_s.{k.value}", "s", "lower") for k in ROUTES]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fold:
    x_train: np.ndarray   # normalized training features
    t_train: np.ndarray   # 0/1 targets as floats
    normalizer: eb.Normalizer
    x_test: np.ndarray    # raw held-out features; predict normalizes them
    y_test: np.ndarray


@dataclass(frozen=True)
class Prepared:
    workload: Workload
    weights: np.ndarray
    biases: np.ndarray
    folds: tuple[Fold, ...]
    majority_share: float


def prepare(workload: Workload, seed: int, workdir: Path,
            span=None) -> Prepared:
    """Generate the ERP CSV through the CLI, read it back and plan the folds.

    Ends with one warmup cell per route, so lazy costs stay out of the timed
    cells.
    """
    span = span or _no_span
    workdir.mkdir(parents=True, exist_ok=True)
    csv = workdir / f"{workload.name}.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = eb.cli.main(["generate", "--seed", str(seed), "--snr",
                            repr(SNR), "--out", str(csv)])
    if code != 0:
        raise RuntimeError(f"elmbench generate exited with {code}")
    data = eb.load_csv(csv)
    grid = [len(np.unique(data.layout[:, c])) for c in range(3)]
    plan = eb.session_kfold(*grid, n_samples=data.features.shape[0])
    cfg = eb.ElmConfig(hidden_neurons=workload.hidden, rng_seed=seed,
                       ridge_lambda=workload.ridge_lambda)
    weights, biases = eb.init_random_layer(cfg, data.features.shape[1])
    folds = []
    for train_idx, test_idx in plan.folds:
        nrm = eb.fit_normalizer(data.features[train_idx])
        folds.append(Fold(x_train=eb.apply_normalizer(nrm, data.features[train_idx]),
                          t_train=data.labels[train_idx].astype(float),
                          normalizer=nrm,
                          x_test=data.features[test_idx],
                          y_test=data.labels[test_idx]))
    positives = float(np.mean(data.labels))
    prep = Prepared(workload=workload, weights=weights, biases=biases,
                    folds=tuple(folds),
                    majority_share=max(positives, 1.0 - positives))
    for kind in ROUTES:
        with span("bench.cell", cell=f"warmup/{kind.value}"):
            run_cell(prep, kind, 0, span=span)
    return prep


# ---------------------------------------------------------------------------
# Cells and passes
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _no_span(name, cell=None):
    yield


@dataclass
class CellResult:
    route: str
    fold: int
    train_s: float = math.nan
    cell_s: float = math.nan
    report: eb.MetricReport | None = None
    failure: str | None = None


def residual_ok(h: np.ndarray, t: np.ndarray, w: np.ndarray,
                ridge_lambda: float) -> bool:
    """||(H^T H + lambda I) w - H^T t|| <= RESIDUAL_RTOL * ||H^T t||.

    With lambda = 0 this is criterion 01's normal-equation residual.
    """
    residual = h.T @ (h @ w - t) + ridge_lambda * w
    return bool(np.linalg.norm(residual) <= RESIDUAL_RTOL * np.linalg.norm(h.T @ t))


def leverage_ok(leverage: np.ndarray) -> bool:
    return bool(np.all((leverage > 0.0) & (leverage <= 1.0)))


def run_cell(prep: Prepared, kind: eb.SolverKind, fold: int,
             solve: Callable | None = None, span=None) -> CellResult:
    """Train route ``kind`` on one fold, score the held-out rows, check the answer.

    Training is ``hidden_output`` plus ``solve_output_weights``, the span
    ``elmbench evaluate`` times. ``solve`` replaces ``solve_output_weights``
    (tests use it to inject failures). A ``LinAlgError`` or a failed check
    marks the cell failed; the checks run after the timed work.
    """
    span = span or _no_span
    solve = solve or eb.solve_output_weights
    f = prep.folds[fold]
    lam = prep.workload.ridge_lambda
    res = CellResult(route=kind.value, fold=fold)
    leverage = None
    try:
        start = time.perf_counter()
        with span("bench.train"):
            h = eb.hidden_output(f.x_train, prep.weights, prep.biases, ACTIVATION)
            w = solve(h, f.t_train, kind, lam)
        res.train_s = time.perf_counter() - start
        with span("bench.score"):
            model = eb.ElmModel(input_weights=prep.weights, biases=prep.biases,
                                output_weights=w, normalizer=f.normalizer,
                                activation=ACTIVATION)
            _, labels = eb.predict(model, f.x_test)
            res.report = eb.metric_report(eb.confusion(labels, f.y_test))
        if lam > 0.0:
            with span("bench.leverage"):
                leverage = eb.hat_diagnostic(h, lam, kind)
        res.cell_s = time.perf_counter() - start
    except LinAlgError as exc:
        res.failure = f"{type(exc).__name__}: {exc}"
        return res
    if not residual_ok(h, f.t_train, w, lam):
        res.failure = "normal-equation residual above bound"
    elif leverage is not None and not leverage_ok(leverage):
        res.failure = "leverage outside (0, 1]"
    return res


@dataclass
class PassResult:
    wall_s: float  # excludes the reference kernel
    cells: list[CellResult]
    reference_s: list[float]

    def route_means(self, key: str) -> dict[str, float]:
        """Fold average of one MetricReport field per route, over scored cells."""
        out = {}
        for kind in ROUTES:
            vals = [getattr(c.report, key) for c in self.cells
                    if c.route == kind.value and c.report is not None]
            if vals:
                out[kind.value] = float(np.mean(vals))
        return out


def run_pass(prep: Prepared, solve: Callable | None = None, span=None,
             pass_id: int = 0) -> PassResult:
    """Visit every (route, fold) cell once; fail routes below the majority baseline.

    Cells run fold by fold, each fold through every route, so each route's
    samples spread over the whole pass rather than one short stretch of it,
    and a burst of interference from other tenants of the machine lands on
    few samples of any one route.
    """
    span = span or _no_span
    start = time.perf_counter()
    cells = []
    reference = []
    for fold in range(len(prep.folds)):
        for kind in ROUTES:
            reference.append(time_reference())
            with span("bench.cell", cell=f"{pass_id}/{kind.value}/{fold}"):
                cells.append(run_cell(prep, kind, fold, solve=solve, span=span))
    wall_s = time.perf_counter() - start - sum(reference)
    result = PassResult(wall_s=wall_s, cells=cells, reference_s=reference)
    for route, acc in result.route_means("accuracy").items():
        if acc < prep.majority_share:
            for c in cells:
                if c.route == route and c.failure is None:
                    c.failure = (f"fold-averaged accuracy {acc:.4f} below the "
                                 f"majority baseline {prep.majority_share:.4f}")
    return result


def measure(prep: Prepared, seconds: float, span=None,
            after_pass: Callable | None = None) -> list[PassResult]:
    """Run whole passes until ``seconds`` have elapsed; always at least one."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(prep, span=span, pass_id=len(passes)))
        if after_pass is not None:
            after_pass()
    return passes


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

def reference_kernel() -> float:
    """Fixed work shaped like the routes' inner loops; no library code.

    Rank-1 eliminations on a 100x100 matrix (as in LU and the reflector
    updates) and one sweep of column rotations on a 792x24 matrix (as in the
    Jacobi SVD).
    """
    a = _REF_SQUARE.copy()
    for k in range(a.shape[0] - 1):
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:]) / a[k, k]
    b = _REF_TALL.copy()
    total = 0.0
    for i in range(b.shape[1] - 1):
        for j in range(i + 1, b.shape[1]):
            total += b[:, i] @ b[:, j]
            bi = b[:, i].copy()
            b[:, i] = 0.8 * bi - 0.6 * b[:, j]
            b[:, j] = 0.6 * bi + 0.8 * b[:, j]
    return total + a[-1, -1]


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def speed_factor(samples: list[float]) -> float:
    """REFERENCE_S over the median reference time: above 1 on a fast stretch."""
    return REFERENCE_S / statistics.median(samples)


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------

def tail_percentile(values: list[float]) -> tuple[int | None, float | None]:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, float(np.percentile(values, p))
    return None, None


def end_to_end(setup_times: list[float], setup_reference: list[float],
               passes: list[PassResult]) -> dict:
    """END_TO_END and TRAIN_DETAIL metrics: unit, direction, sample count, raw value.

    Timings are scaled to the reference machine's speed: each is multiplied
    by the speed factor of the reference kernel, timed before each set-up and
    before each cell of a pass. ``raw_value`` is the unscaled median.
    """
    factor = speed_factor(setup_reference + [r for p in passes for r in p.reference_s])
    samples: dict[str, list[float]] = {
        "setup_s": setup_times,
        "report_s": [p.wall_s for p in passes],
    }
    cells = [c for p in passes for c in p.cells if c.failure is None]
    for kind in ROUTES:
        mine = [c for c in cells if c.route == kind.value]
        samples[f"train_s.{kind.value}"] = [c.train_s for c in mine]
        samples[f"cell_s.{kind.value}"] = [c.cell_s for c in mine]
    mcc = passes[0].route_means("mcc")
    out = {}
    for name, unit, better in END_TO_END + TRAIN_DETAIL:
        if name == "mcc_min":
            out[name] = {"value": min(mcc.values()) if mcc else math.nan,
                         "unit": unit, "better": better, "n": len(mcc)}
            continue
        vals = samples[name]
        raw = statistics.median(vals) if vals else math.nan
        p, p_value = tail_percentile(vals)
        out[name] = {"value": raw * factor, "unit": unit, "better": better,
                     "n": len(vals), "raw_value": raw, "speed_factor": factor,
                     "percentile": p,
                     "percentile_value": None if p is None else p_value * factor}
    return out


def scaled_report_s(passes: list[PassResult]) -> float:
    """Median pass wall time scaled by the speed factor of those passes."""
    return (statistics.median(p.wall_s for p in passes)
            * speed_factor([r for p in passes for r in p.reference_s]))


def failures(passes: list[PassResult]) -> list[dict]:
    return [{"route": c.route, "fold": c.fold, "reason": c.failure}
            for p in passes for c in p.cells if c.failure is not None]


# ---------------------------------------------------------------------------
# One run and its environment block
# ---------------------------------------------------------------------------

def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(root: Path, seed: int, trace: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "seed": seed,
        "trace": trace,
    }


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  workdir: Path, setups: int = SETUPS) -> tuple[dict, dict]:
    """One benchmark run: (the result line, the detailed report).

    Untraced, it sets up ``setups`` times and then measures whole passes for
    ``seconds``. Traced, it measures untraced passes first, then repeats set-up
    and passes with every layer wrapped, and reports per-layer metrics; the
    untraced passes give the tracing overhead.
    """
    if not trace:
        setup_times, setup_reference = [], []
        for _ in range(setups):
            setup_reference += [time_reference() for _ in range(3)]
            start = time.perf_counter()
            prep = prepare(workload, seed, workdir)
            setup_times.append(time.perf_counter() - start)
        passes = measure(prep, seconds)
        metrics = end_to_end(setup_times, setup_reference, passes)
    else:
        prep = prepare(workload, seed, workdir)
        untraced = measure(prep, seconds)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                prep = prepare(workload, seed, workdir, span=tracer.span)
            traced = measure(prep, seconds, span=tracer.span,
                             after_pass=tracer.run_direct)
        finally:
            tracer.uninstall()
        overhead = scaled_report_s(traced) - scaled_report_s(untraced)
        rows = prep.folds[0].x_train.shape[0]
        metrics = tracing.layer_metrics(tracer, workload, rows, overhead)
        tracer.write(workdir / f"spans-{workload.name}-seed{seed}.json")
        passes = untraced + traced
    failed = failures(passes)
    attempted = sum(len(p.cells) for p in passes)
    table = tracing.per_layer_table() if trace else END_TO_END
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name]["value"], "unit": unit}
                    for name, unit, _ in table},
    }
    report = {
        "workload": workload.name,
        "why": workload.why,
        "environment": environment(Path(__file__).resolve().parent.parent, seed, trace),
        "passes": len(passes),
        "attempted": attempted,
        "failures": failed,
        "metrics": metrics,
    }
    return result, report
