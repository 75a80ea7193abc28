"""Spans for the traced run, recorded from outside the library.

``Tracer.install`` replaces public functions of ``elmbench.data``,
``elmbench.metrics``, ``elmbench.elm``, ``elmbench.linalg`` and
``elmbench.cli`` (and the package-level re-exports of the same objects) with
wrappers that record a span per call: name, start, end, parent span, cell id
and whether the span was measured by a direct call. Spans stay in memory and
are written out when the run ends.

``elm`` binds ``linalg.mgs_qr`` and ``linalg.householder_qr`` into its route
tables at import, so no wrapper sees those calls. The wrappers around
``solve_output_weights`` and ``hat_diagnostic`` remember the matrix such a
route factors; after each pass ``run_direct`` factors the same matrix again by
a direct call and records that span with ``direct`` set. Direct spans do not
count as covered time of their parent.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import elmbench as eb
import elmbench.cli

ROUTES = tuple(eb.SolverKind)

TRACED = {
    "data": ("synth_epochs", "write_csv", "load_csv"),
    "cli": ("main",),
    "metrics": ("grand_average", "session_kfold", "confusion", "metric_report"),
    "elm": ("init_random_layer", "fit_normalizer", "apply_normalizer",
            "hidden_output", "solve_output_weights", "hat_diagnostic", "predict"),
    "linalg": ("svd", "lu_decompose", "forward_substitute", "backward_substitute",
               "mgs_qr", "householder_qr", "triangular_inverse",
               "hessenberg_reduce", "tridiagonal_solve", "schur_decompose"),
}
DIRECT = {eb.SolverKind.MGS_QR: "mgs_qr", eb.SolverKind.HH_QR: "householder_qr"}
# The factorization whose span gflops_computed divides by, per route.
FACTORIZATION = {
    eb.SolverKind.SVD: "svd",
    eb.SolverKind.LU: "lu_decompose",
    eb.SolverKind.MGS_QR: "mgs_qr",
    eb.SolverKind.HH_QR: "householder_qr",
    eb.SolverKind.HESSENBERG: "hessenberg_reduce",
    eb.SolverKind.SCHUR: "schur_decompose",
}
FIELDS = ("name", "start", "end", "parent", "cell", "direct")

# Per-layer metrics taken from the traced set-up: total self time of one call site.
SETUP_LAYERS = (
    ("data.synth_epochs_s", "data.synth_epochs"),
    ("data.write_csv_s", "data.write_csv"),
    ("data.load_csv_s", "data.load_csv"),
    ("cli.generate.self_s", "cli.main"),
    ("metrics.grand_average_s", "metrics.grand_average"),
    ("metrics.session_kfold_s", "metrics.session_kfold"),
    ("elm.init_random_layer_s", "elm.init_random_layer"),
    ("elm.fit_normalizer_s", "elm.fit_normalizer"),
)
# Per-layer metrics taken per timed cell: (span name, parent span name).
CELL_LAYERS = (
    ("elm.hidden_output_s", ("elm.hidden_output", "bench.train")),
    ("elm.apply_normalizer_s", ("elm.apply_normalizer", "elm.predict")),
    ("metrics.confusion_s", ("metrics.confusion", "bench.score")),
    ("metrics.metric_report_s", ("metrics.metric_report", "bench.score")),
)
ROUTE_LAYERS = (
    ("elm.solve_output_weights.self_s", ("elm.solve_output_weights", "bench.train")),
    ("elm.hat_diagnostic.self_s", ("elm.hat_diagnostic", "bench.leverage")),
    ("trace.train_gap_s", ("bench.train", "bench.cell")),
)


def per_layer_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    rows = [(name, "s", "lower") for name, _ in SETUP_LAYERS + CELL_LAYERS]
    rows += [(f"{prefix}.{k.value}", "s", "lower")
             for prefix, _ in ROUTE_LAYERS for k in ROUTES]
    for fn in TRACED["linalg"]:
        rows += [(f"linalg.{fn}.self_s", "s", "lower"),
                 (f"linalg.{fn}.calls", "count", "lower")]
    rows += [(f"linalg.{k.value}.gflops_computed", "GFLOP/s", "higher")
             for k in ROUTES]
    rows.append(("trace.overhead_s", "s", "lower"))
    return rows


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._cell: str | None = None
        self._saved: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        # (parent span, cell, linalg function, h, ridge lambda or None to factor h)
        self._pending: list[tuple[int, str | None, str, np.ndarray, float | None]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
               self._cell, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, cell: str | None = None):
        """A benchmark-side span; ``cell`` tags it and every span inside it."""
        outer = self._cell
        if cell is not None:
            self._cell = cell
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)
            self._cell = outer

    def _wrap(self, name: str, fn):
        remember = None
        if name in ("elm.solve_output_weights", "elm.hat_diagnostic"):
            sig = inspect.signature(fn)

            def remember(sid, args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                kind = bound.arguments["solver"]
                if kind in DIRECT:
                    lam = bound.arguments["ridge_lambda"]
                    gram = lam > 0.0 or name == "elm.hat_diagnostic"
                    self._pending.append((sid, self._cell, DIRECT[kind],
                                          bound.arguments["h"], lam if gram else None))

        def traced(*args, **kwargs):
            sid = len(self.spans)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if remember is not None:
                remember(sid, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, fns in TRACED.items():
            module = getattr(eb, module_name)
            for fn_name in fns:
                orig = getattr(module, fn_name)
                self._originals[f"{module_name}.{fn_name}"] = orig
                wrapper = self._wrap(f"{module_name}.{fn_name}", orig)
                targets = [module]
                if getattr(eb, fn_name, None) is orig:
                    targets.append(eb)
                for target in targets:
                    self._saved.append((target, fn_name, orig))
                    setattr(target, fn_name, wrapper)

    def uninstall(self) -> None:
        for target, fn_name, orig in reversed(self._saved):
            setattr(target, fn_name, orig)
        self._saved.clear()

    def run_direct(self) -> None:
        """Factor each remembered matrix by a direct call, outside any timed pass.

        The matrix is ``h`` itself, or the ridge normal matrix built with the
        same operations as ``elm`` builds it.
        """
        for parent, cell, fn_name, h, lam in self._pending:
            fn = self._originals[f"linalg.{fn_name}"]
            matrix = h if lam is None else h.T @ h + lam * np.eye(h.shape[1])
            start = time.perf_counter()
            fn(matrix)
            end = time.perf_counter()
            self.spans.append([f"linalg.{fn_name}", start, end, parent, cell, True])
        self._pending.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the time covered by non-direct child spans.

        One caller makes the spans, so children of one parent never overlap
        and their covered time is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, cell, direct in self.spans:
            if parent is not None and not direct:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_, start, end, *_rest) in enumerate(self.spans)]


def layer_metrics(tracer: Tracer, workload, rows: int, overhead_s: float) -> dict:
    """Every per-layer metric of one traced run, each with unit and direction.

    ``rows`` is the training-row count of a fold; with the hidden width it
    gives the shape each route factors for the flop model.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    setup = defaultdict(float)
    per_cell: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, cell, direct) in enumerate(spans):
        if cell is None:
            setup[name] += selfs[i]
            continue
        if cell.startswith("warmup"):
            continue
        tot = per_cell[cell]
        parent_name = spans[parent][0] if parent is not None else None
        tot[(name, parent_name)] += selfs[i]
        tot[("dur", name, parent_name)] += end - start
        tot[name] += selfs[i]
        tot[("calls", name)] += 1
    route_cells = defaultdict(list)
    for cell, tot in per_cell.items():
        route_cells[cell.split("/")[1]].append(tot)
    all_cells = list(per_cell.values())

    def med(values):
        return statistics.median(values) if values else 0.0

    values = {}
    for metric, span_name in SETUP_LAYERS:
        values[metric] = setup[span_name]
    for metric, key in CELL_LAYERS:
        values[metric] = med([tot[key] for tot in all_cells])
    for prefix, key in ROUTE_LAYERS:
        for kind in ROUTES:
            values[f"{prefix}.{kind.value}"] = med(
                [tot[key] for tot in route_cells[kind.value]])
    for fn in TRACED["linalg"]:
        name = f"linalg.{fn}"
        callers = [tot for tot in all_cells if tot[("calls", name)]]
        values[f"{name}.self_s"] = med([tot[name] for tot in callers])
        values[f"{name}.calls"] = med([tot[("calls", name)] for tot in callers])
    lam = workload.ridge_lambda
    for kind in ROUTES:
        shape = ((rows, workload.hidden) if lam == 0.0 and kind in
                 (eb.SolverKind.SVD, eb.SolverKind.MGS_QR, eb.SolverKind.HH_QR)
                 else (workload.hidden, workload.hidden))
        flops = eb.flop_estimate(kind, *shape)
        key = ("dur", f"linalg.{FACTORIZATION[kind]}", "elm.solve_output_weights")
        values[f"linalg.{kind.value}.gflops_computed"] = med(
            [flops / tot[key] / 1e9 for tot in route_cells[kind.value] if tot[key] > 0])
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit, "better": better}
            for name, unit, better in per_layer_table()}
