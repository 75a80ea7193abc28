"""Tests for normalization, the random layer, solver routes, and diagnostics."""

import time

import numpy as np
import pytest

from elmbench import (
    ActivationKind,
    ElmConfig,
    ElmModel,
    SolverKind,
    apply_normalizer,
    fit_normalizer,
    hat_diagnostic,
    hidden_output,
    init_random_layer,
    linalg,
    predict,
    solve_output_weights,
    train,
)
from elmbench.elm import apply_activation
from elmbench.errors import DimensionMismatch, InvalidLabel, LinAlgError, RankDeficient

ALL_SOLVERS = list(SolverKind)


# ---------------------------------------------------------------------------
# Normalizer
# ---------------------------------------------------------------------------

def test_fit_normalizer_minmax():
    nrm = fit_normalizer([[0.0], [1.0]])
    assert nrm.min_vals[0] == 0.0 and nrm.max_vals[0] == 1.0


def test_fit_normalizer_constant_column_maps_to_zero():
    nrm = fit_normalizer([[5.0], [5.0], [5.0]])
    assert nrm.min_vals[0] == nrm.max_vals[0] == 5.0
    out = apply_normalizer(nrm, [[5.0], [7.0]])
    assert np.array_equal(out, [[0.0], [0.0]])


def test_apply_normalizer_midpoint():
    nrm = fit_normalizer([[-2.0], [0.0], [2.0]])
    assert apply_normalizer(nrm, [[0.0]])[0, 0] == 0.5


def test_apply_normalizer_endpoints_and_extrapolation():
    nrm = fit_normalizer([[0.0], [10.0]])
    out = apply_normalizer(nrm, [[0.0], [10.0], [15.0]])
    assert np.allclose(out.ravel(), [0.0, 1.0, 1.5])


def test_apply_normalizer_hand_value():
    nrm = fit_normalizer([[-2.0], [2.0]])
    assert apply_normalizer(nrm, [[1.0]])[0, 0] == 0.75


def test_apply_normalizer_idempotent_on_train():
    rng = np.random.default_rng(4)
    x = rng.uniform(-3.0, 9.0, (20, 5))
    nrm = fit_normalizer(x)
    out = apply_normalizer(nrm, x)
    assert np.allclose(out.min(axis=0), 0.0)
    assert np.allclose(out.max(axis=0), 1.0)


def test_apply_normalizer_column_mismatch():
    nrm = fit_normalizer([[0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        apply_normalizer(nrm, [[1.0]])


# ---------------------------------------------------------------------------
# Random layer and hidden output
# ---------------------------------------------------------------------------

def test_layer_deterministic_per_seed():
    cfg = ElmConfig(hidden_neurons=3, rng_seed=42)
    w1, b1 = init_random_layer(cfg, 4)
    w2, b2 = init_random_layer(cfg, 4)
    assert w1.tobytes() == w2.tobytes() and b1.tobytes() == b2.tobytes()
    assert w1.shape == (4, 3) and b1.shape == (3,)


@pytest.mark.parametrize("n_features", [2.5, 2.0, "2", 0])
def test_layer_rejects_a_width_that_is_not_a_positive_integer(n_features):
    cfg = ElmConfig(hidden_neurons=3)
    with pytest.raises(ValueError, match="^n_features must be"):
        init_random_layer(cfg, n_features)
    assert init_random_layer(cfg, np.int64(2))[0].shape == (2, 3)


def test_layer_range_and_mean():
    cfg = ElmConfig(hidden_neurons=100, rng_seed=1)
    w, b = init_random_layer(cfg, 100)
    draws = np.concatenate([w.ravel(), b])
    assert draws.min() >= -1.0 and draws.max() <= 1.0
    assert abs(draws.mean()) < 0.1  # 10100 draws


def test_hidden_output_rejects_bias_count():
    with pytest.raises(DimensionMismatch, match="3 biases for 2 hidden neurons"):
        hidden_output([[1.0, 2.0]], np.zeros((2, 2)), np.zeros(3),
                      ActivationKind.IDENTITY)


def test_hidden_output_zero_weights():
    h = hidden_output([[1.0, 2.0]], np.zeros((2, 3)), np.zeros(3),
                      ActivationKind.IDENTITY)
    assert np.array_equal(h, np.zeros((1, 3)))


def test_hidden_output_sigmoid_at_zero():
    h = hidden_output([[1.0, 2.0]], np.zeros((2, 2)), np.zeros(2),
                      ActivationKind.LOGISTIC_SIGMOID)
    assert np.array_equal(h, np.full((1, 2), 0.5))


def test_hidden_output_hand_dot_product():
    h = hidden_output([[1.0, 2.0]], [[3.0], [-1.0]], [0.5],
                      ActivationKind.IDENTITY)
    assert np.allclose(h, [[1.5]])


def test_sigmoid_range():
    z = np.linspace(-30.0, 30.0, 101)
    out = 1.0 / (1.0 + np.exp(-z))
    got = hidden_output(z[:, None], [[1.0]], [0.0], ActivationKind.LOGISTIC_SIGMOID)
    assert np.allclose(got.ravel(), out)
    assert np.all((got > 0.0) & (got < 1.0))


def test_tanh_activation_is_numpy_tanh():
    z = np.linspace(-30.0, 30.0, 101).reshape(-1, 1)
    assert np.array_equal(apply_activation(ActivationKind.TANH, z), np.tanh(z))


def test_activation_outside_the_enum_raises():
    with pytest.raises(ValueError, match="unknown activation"):
        apply_activation("hyperbolic-tangent", np.zeros(2))


# ---------------------------------------------------------------------------
# Output-weight solves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_SOLVERS)
def test_solve_identity_system(kind):
    t = np.array([0.3, -1.2, 4.0])
    w = solve_output_weights(np.eye(3), t, kind)
    assert np.allclose(w, t, atol=1e-10)


@pytest.mark.parametrize("kind", ALL_SOLVERS)
def test_solve_orthonormal_columns(kind):
    rng = np.random.default_rng(6)
    q = np.linalg.qr(rng.standard_normal((12, 4)))[0]
    t = rng.standard_normal(12)
    w = solve_output_weights(q, t, kind)
    assert np.allclose(w, q.T @ t, atol=1e-9)


def test_solvers_agree_with_svd_route():
    rng = np.random.default_rng(19)
    h = rng.uniform(-1.0, 1.0, (50, 10))
    t = rng.uniform(-1.0, 1.0, 50)
    w_ref = solve_output_weights(h, t, SolverKind.SVD)
    for kind in ALL_SOLVERS:
        w = solve_output_weights(h, t, kind)
        assert np.linalg.norm(w - w_ref) <= 1e-8 * np.linalg.norm(w_ref)


def test_solvers_pairwise_equivalent_when_well_conditioned():
    rng = np.random.default_rng(20)
    h = rng.uniform(-1.0, 1.0, (60, 12))
    assert np.linalg.cond(h.T @ h) < 1e6
    t = rng.uniform(-1.0, 1.0, 60)
    ws = [solve_output_weights(h, t, kind) for kind in ALL_SOLVERS]
    scale = np.linalg.norm(ws[0])
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            assert np.linalg.norm(ws[i] - ws[j]) <= 1e-6 * scale


def test_small_norm_hidden_output_solves_through_hessenberg():
    # The tridiagonal pivot test is relative to the normal matrix, so scaling
    # h by 1e-6 (its Gram matrix by 1e-12) does not make it singular.
    rng = np.random.default_rng(5)
    h = hidden_output(rng.uniform(0.0, 1.0, (60, 6)), rng.uniform(-1.0, 1.0, (6, 12)),
                      rng.uniform(-1.0, 1.0, 12), ActivationKind.LOGISTIC_SIGMOID)
    t = (rng.random(60) < 0.5).astype(float)
    w = solve_output_weights(h * 1e-6, t, SolverKind.HESSENBERG)
    w_lu = solve_output_weights(h * 1e-6, t, SolverKind.LU)
    assert np.linalg.norm(w - w_lu) <= 1e-8 * np.linalg.norm(w_lu)


def test_normal_equations_residual():
    rng = np.random.default_rng(23)
    h = rng.uniform(-1.0, 1.0, (40, 8))
    t = rng.uniform(-1.0, 1.0, 40)
    for kind in ALL_SOLVERS:
        w = solve_output_weights(h, t, kind)
        assert (np.linalg.norm(h.T @ (h @ w - t))
                <= 1e-8 * np.linalg.norm(h.T @ t))


def test_ill_conditioned_normal_equations_residual():
    # cond(h.T h) = 1e10: Schur's deflation must stay relative to the small
    # eigenvalues, or its residual lands far above the other routes'.
    rng = np.random.default_rng(3)
    u = np.linalg.qr(rng.standard_normal((60, 20)))[0]
    v = np.linalg.qr(rng.standard_normal((20, 20)))[0]
    h = u @ np.diag(np.geomspace(1.0, 1e-5, 20)) @ v.T
    t = rng.standard_normal(60)
    for kind in ALL_SOLVERS:
        w = solve_output_weights(h, t, kind)
        assert (np.linalg.norm(h.T @ (h @ w - t))
                <= 1e-9 * np.linalg.norm(h.T @ t)), kind


@pytest.mark.parametrize("kind", ALL_SOLVERS)
def test_ridge_matches_dense_oracle(kind):
    rng = np.random.default_rng(29)
    h = rng.uniform(-1.0, 1.0, (30, 6))
    t = rng.uniform(-1.0, 1.0, 30)
    lam = 0.7
    oracle = np.linalg.solve(h.T @ h + lam * np.eye(6), h.T @ t)
    w = solve_output_weights(h, t, kind, ridge_lambda=lam)
    assert np.linalg.norm(w - oracle) <= 1e-8 * np.linalg.norm(oracle)


@pytest.mark.parametrize("kind", [SolverKind.SVD, SolverKind.SCHUR])
def test_route_agrees_with_hh_qr_at_benchmark_shape(kind):
    rng = np.random.default_rng(31)
    x = rng.uniform(0.0, 1.0, (792, 64))
    cfg = ElmConfig(hidden_neurons=100, rng_seed=31)
    weights, biases = init_random_layer(cfg, 64)
    h = hidden_output(x, weights, biases, cfg.activation)
    t = (rng.uniform(size=792) < 0.1).astype(float)
    for lam in (0.0, 0.1):
        w_ref = solve_output_weights(h, t, SolverKind.HH_QR, lam)
        w = solve_output_weights(h, t, kind, lam)
        assert np.linalg.norm(w - w_ref) <= 1e-9 * np.linalg.norm(w_ref), lam
    ref = hat_diagnostic(h, 0.1, SolverKind.HH_QR)
    assert np.abs(hat_diagnostic(h, 0.1, kind) - ref).max() <= 1e-10


QR_SOLVERS = [SolverKind.MGS_QR, SolverKind.HH_QR]


@pytest.mark.parametrize("kind", QR_SOLVERS)
def test_qr_routes_solve_without_explicit_inverse(kind, monkeypatch):
    def no_inverse(r):
        raise AssertionError("a QR route formed the inverse of r")

    monkeypatch.setattr("elmbench.linalg.triangular_inverse", no_inverse)
    rng = np.random.default_rng(29)
    h = rng.uniform(-1.0, 1.0, (30, 6))
    t = rng.uniform(-1.0, 1.0, 30)
    for lam in (0.0, 0.1):
        oracle = np.linalg.solve(h.T @ h + lam * np.eye(6), h.T @ t)
        w = solve_output_weights(h, t, kind, ridge_lambda=lam)
        assert np.linalg.norm(w - oracle) <= 1e-8 * np.linalg.norm(oracle), lam
    inner = np.linalg.solve(h.T @ h + 0.1 * np.eye(6), h.T)
    leverage = 1.0 - np.einsum("ij,ji->i", h, inner)
    vals = hat_diagnostic(h, 0.1, solver=kind)
    assert np.linalg.norm(vals - leverage) <= 1e-8 * np.linalg.norm(leverage)


def test_hh_qr_route_never_forms_q(monkeypatch):
    def no_q(*args):
        raise AssertionError("the hh-qr route formed an orthogonal factor")

    monkeypatch.setattr("elmbench.linalg._apply_reflectors", no_q)
    rng = np.random.default_rng(29)
    h = rng.uniform(-1.0, 1.0, (30, 6))
    t = rng.uniform(-1.0, 1.0, 30)
    for lam in (0.0, 0.1):
        oracle = np.linalg.solve(h.T @ h + lam * np.eye(6), h.T @ t)
        w = solve_output_weights(h, t, SolverKind.HH_QR, ridge_lambda=lam)
        assert np.linalg.norm(w - oracle) <= 1e-8 * np.linalg.norm(oracle), lam
    inner = np.linalg.solve(h.T @ h + 0.1 * np.eye(6), h.T)
    leverage = 1.0 - np.einsum("ij,ji->i", h, inner)
    vals = hat_diagnostic(h, 0.1, SolverKind.HH_QR)
    assert np.linalg.norm(vals - leverage) <= 1e-8 * np.linalg.norm(leverage)
    # The factorization itself forms no q either; only reading q does.
    fac = linalg.householder_qr(h)
    assert np.array_equal(fac.solve(t), solve_output_weights(h, t, SolverKind.HH_QR))
    with pytest.raises(AssertionError, match="formed an orthogonal factor"):
        fac.q
    h[:, 4] = h[:, 1]
    with pytest.raises(RankDeficient, match="column 4 "):
        solve_output_weights(h, t, SolverKind.HH_QR)


@pytest.mark.parametrize("kind, name", [
    (SolverKind.SVD, "svd"),
    (SolverKind.LU, "lu_decompose"),
    (SolverKind.HESSENBERG, "hessenberg_reduce"),
    (SolverKind.SCHUR, "schur_decompose"),
])
def test_routes_look_up_their_factorization_at_call_time(kind, name, monkeypatch):
    # The traced benchmark run wraps these module attributes after import; a
    # route bound to the function at import would bypass the wrapper.
    real = getattr(linalg, name)
    shapes = []

    def counting(a):
        shapes.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(linalg, name, counting)
    rng = np.random.default_rng(41)
    h = rng.uniform(-1.0, 1.0, (30, 6))
    t = rng.uniform(-1.0, 1.0, 30)
    solve_output_weights(h, t, kind)
    solve_output_weights(h, t, kind, ridge_lambda=0.1)
    hat_diagnostic(h, 0.1, kind)
    gram_at_zero = kind in (SolverKind.LU, SolverKind.HESSENBERG, SolverKind.SCHUR)
    assert shapes == [(6, 6) if gram_at_zero else (30, 6), (6, 6), (6, 6)]


@pytest.mark.parametrize("kind", QR_SOLVERS)
def test_qr_routes_scale_invariant_rank_check(kind):
    # Full rank, one column tiny: the factorization's per-column check passes
    # it, and substitution does not judge r's diagonal against max |r|.
    rng = np.random.default_rng(37)
    h = rng.uniform(-1.0, 1.0, (30, 4))
    h[:, 2] *= 1e-13
    t = rng.uniform(-1.0, 1.0, 30)
    w = solve_output_weights(h, t, kind)
    assert (np.linalg.norm(h.T @ (h @ w - t))
            <= 1e-8 * np.linalg.norm(h.T @ t))


def test_ridge_shrinks_weights():
    rng = np.random.default_rng(31)
    h = rng.uniform(-1.0, 1.0, (30, 6))
    t = rng.uniform(-1.0, 1.0, 30)
    lams = [0.0, 0.01, 0.1, 1.0, 10.0]
    norms = [np.linalg.norm(solve_output_weights(h, t, SolverKind.HH_QR, lam))
             for lam in lams]
    for lo, hi in zip(norms[1:], norms[:-1]):
        assert lo <= hi * (1.0 + 1e-12)


def test_solve_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        solve_output_weights(np.ones((3, 2)), np.ones(4), SolverKind.SVD)
    with pytest.raises(DimensionMismatch):
        solve_output_weights(np.ones((2, 3)), np.ones(2), SolverKind.SVD)


@pytest.mark.parametrize("kind", ALL_SOLVERS)
def test_solve_rank_deficient_raises(kind):
    h = np.ones((10, 3))  # all columns identical
    t = np.ones(10)
    with pytest.raises(LinAlgError):
        solve_output_weights(h, t, kind)


@pytest.mark.parametrize("kind", ALL_SOLVERS, ids=[k.value for k in ALL_SOLVERS])
@pytest.mark.parametrize("solve, exact", [
    (lambda h, kind: solve_output_weights(h, np.ones(5), kind, 1e-320), 0.0),
    (lambda h, kind: hat_diagnostic(h, 1e-320, kind), 1.0),
], ids=["solve", "hat"])
def test_underflowed_ridge_normal_matrix_raises(solve, exact, kind):
    # lambda * I alone is subnormal, but the squared system is built scaled
    # by a power of two that brings lambda / s**2 into [1, 4), so every route
    # solves the ridge system of a zero h exactly: w == 0 and leverage == 1.
    out = solve(np.zeros((5, 3)), kind)
    assert out.size and np.all(out == exact)


def test_routes_agree_with_hh_qr_on_a_well_conditioned_h():
    # cond(h) is 6.1, so every route's weights sit within a few eps of
    # hh-qr's.
    rng = np.random.default_rng(0)
    h = rng.uniform(size=(40, 5))
    t = rng.uniform(size=40)
    ref = solve_output_weights(h, t, SolverKind.HH_QR)
    for kind in ALL_SOLVERS:
        w = solve_output_weights(h, t, kind)
        assert np.linalg.norm(w - ref) <= 1e-14 * np.linalg.norm(ref), kind


@pytest.mark.parametrize("kind", ALL_SOLVERS)
@pytest.mark.parametrize("exponent", [500, 520, 1000, -500, -520, -560])
def test_routes_solve_or_raise_at_extreme_scales(kind, exponent):
    # Sums of squares of entries near 2**500 overflow and near 2**-500
    # underflow unless the working copy, or h before it is squared, is
    # scaled first. The oracle solves the stacked system [h; sqrt(lam) I] in
    # the coordinates of the unscaled h, where the ridge rows are
    # sqrt(lam) * 2**-exponent. lam = 0.1 is tried at positive exponents
    # only: at negative ones those rows are huge and the oracle overflows.
    rng = np.random.default_rng(0)
    h = rng.uniform(size=(40, 5))
    t = rng.uniform(size=40)
    for lam in (0.0, 0.1) if exponent > 0 else (0.0,):
        stacked = np.vstack([h, np.ldexp(np.sqrt(lam), -exponent) * np.eye(5)])
        w_ref = np.linalg.lstsq(stacked, np.append(t, np.zeros(5)), rcond=None)[0]
        w = np.ldexp(solve_output_weights(np.ldexp(h, exponent), t, kind, lam), exponent)
        # Under ridge every route solves the squared system, whose condition
        # number is cond(h)**2.
        tol = 1e-12 * (np.linalg.cond(h) ** 2 if lam else 1.0)
        assert np.linalg.norm(w - w_ref) <= tol * np.linalg.norm(w_ref)
        if lam:
            leverage = hat_diagnostic(np.ldexp(h, exponent), lam, kind)
            assert np.all((leverage > 0.0) & (leverage <= 1.0))


# ---------------------------------------------------------------------------
# Train / predict
# ---------------------------------------------------------------------------

def _blobs(rng, n=200):
    x0 = rng.normal((-2.0, -2.0), 0.5, size=(n // 2, 2))
    x1 = rng.normal((2.0, 2.0), 0.5, size=(n // 2, 2))
    x = np.vstack([x0, x1])
    y = np.array([0.0] * (n // 2) + [1.0] * (n // 2))
    return x, y


def test_train_zero_error_square_hidden():
    rng = np.random.default_rng(37)
    x = rng.uniform(0.0, 1.0, (16, 4))
    y = rng.integers(0, 2, 16).astype(float)
    cfg = ElmConfig(hidden_neurons=16, rng_seed=2)
    res = train(x, y, cfg)
    scores, _ = predict(res.model, x)
    assert np.mean((scores - y) ** 2) <= 1e-6
    assert res.train_s > 0.0


def test_train_and_predict_with_tanh():
    rng = np.random.default_rng(37)
    x = rng.uniform(0.0, 1.0, (16, 4))
    y = rng.integers(0, 2, 16).astype(float)
    model = train(x, y, ElmConfig(hidden_neurons=16, activation=ActivationKind.TANH,
                                  rng_seed=2)).model
    assert model.activation is ActivationKind.TANH
    scores, _ = predict(model, x)
    h = np.tanh(apply_normalizer(model.normalizer, x) @ model.input_weights + model.biases)
    assert np.array_equal(scores, h @ model.output_weights)
    assert np.mean((scores - y) ** 2) <= 1e-6


def test_train_time_covers_hidden_output_and_solve_only(monkeypatch):
    from elmbench import elm

    real = elm.fit_normalizer

    def slow_fit(features):
        time.sleep(0.2)
        return real(features)

    monkeypatch.setattr(elm, "fit_normalizer", slow_fit)
    rng = np.random.default_rng(47)
    x = rng.uniform(0.0, 1.0, (40, 5))
    y = rng.integers(0, 2, 40).astype(float)
    res = train(x, y, ElmConfig(hidden_neurons=8, solver=SolverKind.LU))
    assert 0.0 < res.train_s < 0.2


def test_train_accepts_consistent_duplicates():
    x = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    y = np.array([1.0, 1.0, 0.0])
    res = train(x, y, ElmConfig(hidden_neurons=2, rng_seed=0))
    assert res.model.output_weights.shape == (2,)


def test_train_deterministic_models():
    rng = np.random.default_rng(41)
    x, y = _blobs(rng)
    cfg = ElmConfig(hidden_neurons=10, rng_seed=5)
    m1 = train(x, y, cfg).model
    m2 = train(x, y, cfg).model
    assert m1.input_weights.tobytes() == m2.input_weights.tobytes()
    assert m1.biases.tobytes() == m2.biases.tobytes()
    assert m1.output_weights.tobytes() == m2.output_weights.tobytes()


def test_train_validates_inputs():
    with pytest.raises(DimensionMismatch):
        train([[1.0]], [1.0], ElmConfig(hidden_neurons=1))
    with pytest.raises(DimensionMismatch, match="3 feature rows for 2 targets"):
        train([[1.0], [2.0], [3.0]], [0.0, 1.0], ElmConfig(hidden_neurons=1))
    with pytest.raises(InvalidLabel):
        train([[1.0], [2.0]], [0.0, 2.0], ElmConfig(hidden_neurons=1))


def test_predict_memorizes_training_set():
    rng = np.random.default_rng(43)
    x = rng.uniform(0.0, 1.0, (12, 3))
    y = rng.integers(0, 2, 12).astype(float)
    res = train(x, y, ElmConfig(hidden_neurons=12, rng_seed=3))
    _, labels = predict(res.model, x)
    assert np.array_equal(labels, y.astype(int))


def test_predict_zero_output_weights():
    rng = np.random.default_rng(47)
    x, y = _blobs(rng, n=20)
    model = train(x, y, ElmConfig(hidden_neurons=4, rng_seed=1)).model
    from dataclasses import replace
    zeroed = replace(model, output_weights=np.zeros(4))
    scores, labels = predict(zeroed, x)
    assert np.array_equal(scores, np.zeros(20))
    assert np.array_equal(labels, np.zeros(20, dtype=int))


def test_predict_separable_blobs():
    rng = np.random.default_rng(53)
    x, y = _blobs(rng, n=200)
    res = train(x, y, ElmConfig(hidden_neurons=20, rng_seed=7))
    _, labels = predict(res.model, x)
    assert (labels == y).mean() >= 0.99


def test_predict_checks_widths_through_normalizer_and_hidden_output():
    # predict leaves its width checks to apply_normalizer (against the
    # normalizer) and hidden_output (against the input weights)
    model = ElmModel(input_weights=np.ones((2, 4)), biases=np.zeros(4),
                     output_weights=np.zeros(4), normalizer=fit_normalizer(np.eye(3)),
                     activation=ActivationKind.IDENTITY)
    for width in (2, 3):
        with pytest.raises(DimensionMismatch):
            predict(model, np.ones((5, width)))


def test_train_and_predict_reject_nan_features():
    x = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    y = np.array([0.0, 1.0, 0.0])
    bad = x.copy()
    bad[1, 1] = np.nan
    with pytest.raises(ValueError, match="NaN or infinite"):
        train(bad, y, ElmConfig(hidden_neurons=2))
    model = train(x, y, ElmConfig(hidden_neurons=2)).model
    with pytest.raises(ValueError, match="NaN or infinite"):
        predict(model, bad)


def test_predict_rejects_wrong_width():
    rng = np.random.default_rng(59)
    x, y = _blobs(rng, n=20)
    model = train(x, y, ElmConfig(hidden_neurons=4, rng_seed=1)).model
    with pytest.raises(DimensionMismatch):
        predict(model, np.ones((3, 5)))


def test_config_validation():
    with pytest.raises(ValueError):
        ElmConfig(hidden_neurons=0)
    with pytest.raises(ValueError):
        ElmConfig(hidden_neurons=1, ridge_lambda=-0.5)


@pytest.mark.parametrize("width", [2.5, 2.0, "3", None])
def test_config_rejects_non_integral_width(width):
    # init_random_layer would otherwise fail later, inside train
    with pytest.raises(ValueError, match="^hidden_neurons must be"):
        ElmConfig(hidden_neurons=width)


def test_config_accepts_numpy_integer_width():
    cfg = ElmConfig(hidden_neurons=np.int64(3), rng_seed=np.int64(4))
    assert init_random_layer(cfg, 2)[0].shape == (2, 3)


@pytest.mark.parametrize("field, value", [
    ("activation", "tanh"),
    ("activation", "hyperbolic-tangent"),
    ("activation", None),
    ("rng_seed", 1.5),
    ("rng_seed", -1),
    ("rng_seed", "7"),
    ("rng_seed", None),
])
def test_config_rejects_bad_activation_or_seed(field, value):
    # train would otherwise fail late: the activation after the normalizer
    # and hidden-layer work, the seed inside numpy's SeedSequence
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ElmConfig(hidden_neurons=3, **{field: value})


# ---------------------------------------------------------------------------
# HAT diagnostic
# ---------------------------------------------------------------------------

def test_hat_zero_matrix_is_one():
    h = np.zeros((5, 2))
    assert np.array_equal(hat_diagnostic(h, 0.5), np.ones(5))


def test_hat_identity_small_lambda():
    vals = hat_diagnostic(np.eye(4), 1e-9)
    assert np.all(vals <= 1e-8)
    assert np.all(vals > 0.0)


def test_hat_matches_dense_inverse():
    rng = np.random.default_rng(61)
    h = rng.standard_normal((20, 5))
    lam = 0.1
    oracle = 1.0 - np.diag(h @ np.linalg.inv(h.T @ h + lam * np.eye(5)) @ h.T)
    for kind in ALL_SOLVERS:
        vals = hat_diagnostic(h, lam, solver=kind)
        assert np.abs(vals - oracle).max() <= 1e-10
        assert np.all((vals > 0.0) & (vals <= 1.0))


def test_hat_trace_bound():
    rng = np.random.default_rng(67)
    h = rng.standard_normal((25, 6))
    vals = hat_diagnostic(h, 0.3)
    # sum of leverages = trace of the hat matrix <= number of hidden units
    assert (1.0 - vals).sum() <= 6.0 + 1e-9


def test_hat_requires_positive_lambda():
    with pytest.raises(ValueError):
        hat_diagnostic(np.eye(3), 0.0)


@pytest.mark.parametrize("call, name", [
    (lambda h: hat_diagnostic(h, SolverKind.HH_QR, 0.1), "ridge_lambda"),
    (lambda h: solve_output_weights(h, np.ones(6), "svd"), "solver"),
    (lambda h: ElmConfig(hidden_neurons=2, solver="svd"), "solver"),
    (lambda h: ElmConfig(hidden_neurons=2, ridge_lambda="0.1"), "ridge_lambda"),
], ids=["hat-swapped-arguments", "solve-solver-string", "config-solver-string",
        "config-ridge-string"])
def test_rejects_mistyped_route_arguments(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(np.ones((6, 2)))
