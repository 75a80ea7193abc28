"""Single-hidden-layer network trained by direct least-squares solves.

The hidden layer is fixed at random; the output weights come from one linear
solve: a route factors its matrix by one of the six public factorizations
in ``linalg`` and calls the factors' ``solve`` on the right-hand side. Routes
that square the system solve the m x m normal equations; the QR and SVD
routes factor the hidden-output matrix itself unless a ridge term forces them
onto the (augmented) normal matrix as well.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidLabel
from .linalg import SolverKind, as_matrix, as_vector, power_of_two_below


class ActivationKind(Enum):
    LOGISTIC_SIGMOID = "logistic-sigmoid"
    TANH = "hyperbolic-tangent"
    IDENTITY = "identity"


def apply_activation(kind: ActivationKind, z: np.ndarray) -> np.ndarray:
    if kind is ActivationKind.LOGISTIC_SIGMOID:
        # Clip to keep exp() finite on extrapolated inputs.
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))
    if kind is ActivationKind.TANH:
        return np.tanh(z)
    if kind is ActivationKind.IDENTITY:
        return z
    raise ValueError(f"unknown activation {kind!r}")


@dataclass(frozen=True)
class ElmConfig:
    """Training configuration: layer width, activation, solver route, seed, ridge."""

    hidden_neurons: int
    activation: ActivationKind = ActivationKind.LOGISTIC_SIGMOID
    solver: SolverKind = SolverKind.SVD
    rng_seed: int = 0
    ridge_lambda: float = 0.0

    def __post_init__(self) -> None:
        n = self.hidden_neurons
        if not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"hidden_neurons must be >= 1 and integral, got {n!r}")
        if not isinstance(self.activation, ActivationKind):
            raise ValueError(f"activation must be an ActivationKind, got {self.activation!r}")
        seed = self.rng_seed
        if not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"rng_seed must be >= 0 and integral, got {seed!r}")
        _check_solve_args(self.solver, self.ridge_lambda)


@dataclass(frozen=True)
class Normalizer:
    """Per-feature min/max captured from training data."""

    min_vals: np.ndarray
    max_vals: np.ndarray


@dataclass(frozen=True)
class ElmModel:
    input_weights: np.ndarray  # (n_features, hidden)
    biases: np.ndarray         # (hidden,)
    output_weights: np.ndarray  # (hidden,)
    normalizer: Normalizer
    activation: ActivationKind


@dataclass(frozen=True)
class TrainResult:
    model: ElmModel
    train_s: float


def fit_normalizer(train_features) -> Normalizer:
    """Capture per-column min and max from training data only."""
    x = as_matrix(train_features, "train_features")
    return Normalizer(min_vals=x.min(axis=0), max_vals=x.max(axis=0))


def apply_normalizer(nrm: Normalizer, features) -> np.ndarray:
    """Map each entry to (x - min) / (max - min).

    Values outside the training range extrapolate past [0, 1]; constant
    training columns (max == min) map to 0.
    """
    x = as_matrix(features, "features")
    if x.shape[1] != nrm.min_vals.size:
        raise DimensionMismatch(
            f"features have {x.shape[1]} columns, normalizer expects {nrm.min_vals.size}")
    span = nrm.max_vals - nrm.min_vals
    out = np.zeros_like(x)
    live = span > 0.0
    out[:, live] = (x[:, live] - nrm.min_vals[live]) / span[live]
    return out


def init_random_layer(cfg: ElmConfig, n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw input weights and biases i.i.d. uniform on [-1, 1] from the seed."""
    if not isinstance(n_features, numbers.Integral) or n_features < 1:
        raise ValueError(f"n_features must be >= 1 and integral, got {n_features!r}")
    rng = np.random.default_rng(cfg.rng_seed)
    weights = rng.uniform(-1.0, 1.0, size=(n_features, cfg.hidden_neurons))
    biases = rng.uniform(-1.0, 1.0, size=cfg.hidden_neurons)
    return weights, biases


def hidden_output(features, input_weights, biases, activation: ActivationKind) -> np.ndarray:
    """Activated hidden responses: phi(features @ input_weights + biases)."""
    x = as_matrix(features, "features")
    w = as_matrix(input_weights, "input_weights")
    b = as_vector(biases, "biases")
    if x.shape[1] != w.shape[0]:
        raise DimensionMismatch(
            f"features have {x.shape[1]} columns, weights expect {w.shape[0]}")
    if b.size != w.shape[1]:
        raise DimensionMismatch(
            f"{b.size} biases for {w.shape[1]} hidden neurons")
    return apply_activation(activation, x @ w + b)


# ---------------------------------------------------------------------------
# Output-weight solves: one factorization per route, any right-hand side
# ---------------------------------------------------------------------------

def solve_output_weights(h, targets, solver: SolverKind,
                         ridge_lambda: float = 0.0) -> np.ndarray:
    """Least-squares output weights for h @ w ~= targets via the chosen route.

    With ridge_lambda > 0 every route solves the augmented normal equations
    (h.T h + lambda I) w = h.T t through its own factorization; with
    ridge_lambda = 0 the QR and SVD routes factor h directly.
    """
    _check_solve_args(solver, ridge_lambda)
    h = as_matrix(h, "h")
    t = as_vector(targets, "targets")
    if h.shape[0] != t.size:
        raise DimensionMismatch(
            f"h has {h.shape[0]} rows but targets has length {t.size}")
    if h.shape[0] < h.shape[1]:
        raise DimensionMismatch(
            f"need at least as many samples as hidden neurons, got {h.shape}")
    if ridge_lambda == 0.0 and solver in _FACTOR_H:
        return _FACTOR[solver](h).solve(t)
    factors, s = _normal_factor(h, solver, ridge_lambda)
    return factors.solve(h.T @ t / s)


def _check_solve_args(solver, ridge_lambda) -> None:
    """Raise ValueError unless ridge_lambda is a finite real >= 0 and solver a SolverKind."""
    if not isinstance(ridge_lambda, numbers.Real) or not math.isfinite(ridge_lambda):
        raise ValueError(f"ridge_lambda must be a finite real number, got {ridge_lambda!r}")
    if not isinstance(solver, SolverKind):
        raise ValueError(f"solver must be a SolverKind, got {solver!r}")
    if ridge_lambda < 0.0:
        raise ValueError("ridge_lambda must be >= 0")


def _normal_factor(h: np.ndarray, solver: SolverKind, lam: float) -> tuple[object, float]:
    """Divide h in place by s and factor h.T h + (lam / s**2) I; return the factors and s.

    s is power_of_two_below(max(max |h|, sqrt(lam))): it rounds
    nothing, lam / s**2 < 4, and the scaled system's largest diagonal entry
    is at least 1, so neither a huge nor a tiny h overflows or underflows it.
    """
    s = power_of_two_below(max(np.abs(h).max(), math.sqrt(lam)))
    h /= s
    return _FACTOR[solver](h.T @ h + lam / s / s * np.eye(h.shape[1])), s


# The routes that factor h itself at ridge_lambda = 0.
_FACTOR_H = (SolverKind.SVD, SolverKind.MGS_QR, SolverKind.HH_QR)

# Each route's factorization. The lambdas look linalg up at call time, so the
# traced benchmark run (bench/tracing.py), which wraps the public linalg
# functions after import, sees those calls. The two QR factorizations are
# bound here, so it does not see them; it factors their matrix again by a
# direct call, so each QR is counted once.
_FACTOR = {
    SolverKind.SVD: lambda a: linalg.svd(a),
    SolverKind.LU: lambda a: linalg.lu_decompose(a),
    SolverKind.MGS_QR: linalg.mgs_qr,
    SolverKind.HH_QR: linalg.householder_qr,
    SolverKind.HESSENBERG: lambda a: linalg.hessenberg_reduce(a),
    SolverKind.SCHUR: lambda a: linalg.schur_decompose(a),
}


# ---------------------------------------------------------------------------
# Train / predict / leverage diagnostic
# ---------------------------------------------------------------------------

def train(features, targets, cfg: ElmConfig) -> TrainResult:
    """Fit normalizer, draw the hidden layer, and solve the output weights.

    ``train_s`` times the hidden output and the solve, nothing before them.
    """
    t = as_vector(targets, "targets")
    nrm = fit_normalizer(features)
    weights, biases = init_random_layer(cfg, nrm.min_vals.size)
    x = apply_normalizer(nrm, features)
    if x.shape[0] != t.size:
        raise DimensionMismatch(
            f"{x.shape[0]} feature rows for {t.size} targets")
    if x.shape[0] < 2:
        raise DimensionMismatch("need at least 2 samples")
    if not np.all(np.isin(t, (0.0, 1.0))):
        raise InvalidLabel("targets must be encoded {0, 1}")
    start = time.perf_counter()
    h = hidden_output(x, weights, biases, cfg.activation)
    w_out = solve_output_weights(h, t, cfg.solver, cfg.ridge_lambda)
    elapsed = time.perf_counter() - start
    model = ElmModel(input_weights=weights, biases=biases, output_weights=w_out,
                     normalizer=nrm, activation=cfg.activation)
    return TrainResult(model=model, train_s=elapsed)


def predict(model: ElmModel, features) -> tuple[np.ndarray, np.ndarray]:
    """Scores and 0/1 labels (threshold 0.5) for new feature rows."""
    h = hidden_output(apply_normalizer(model.normalizer, features),
                      model.input_weights, model.biases, model.activation)
    scores = h @ model.output_weights
    labels = (scores >= 0.5).astype(np.int64)
    return scores, labels


def hat_diagnostic(h, ridge_lambda: float,
                   solver: SolverKind = SolverKind.SVD) -> np.ndarray:
    """Leave-one-out leverage: 1 - diag(h (h.T h + lambda I)^-1 h.T).

    The inner inverse is applied through the requested decomposition route;
    ridge_lambda must be positive so the regularized normal matrix is
    invertible in exact arithmetic; a route that finds it numerically
    singular raises a LinAlgError. Every entry lies in (0, 1].
    """
    _check_solve_args(solver, ridge_lambda)
    if ridge_lambda <= 0.0:
        raise ValueError("ridge_lambda must be positive")
    h = as_matrix(h, "h")
    # (m, n) columns of (h.T h + lam I)^-1 h.T; the scale of h cancels
    inner = _normal_factor(h, solver, ridge_lambda)[0].solve(h.T)
    return 1.0 - np.einsum("ij,ji->i", h, inner)

