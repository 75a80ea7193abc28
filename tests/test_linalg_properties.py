"""Randomized invariant sweeps for every factorization.

Each factorization is checked for reconstruction, orthogonality of its q
factors, and the claimed triangular/tridiagonal structure over seeded random
inputs. The acceptance suite re-runs the same checks at full size.
"""

import numpy as np
import pytest

from elmbench import (
    backward_substitute,
    forward_substitute,
    hessenberg_reduce,
    householder_qr,
    linalg,
    lu_decompose,
    mgs_qr,
    schur_decompose,
    svd,
    tridiagonal_solve,
)


def fro(a):
    return np.linalg.norm(a)


# Column counts either side of the Householder kernel's block boundaries.
NB = linalg._NB
BLOCK_COLUMNS = {"nb-1": NB - 1, "nb": NB, "nb+1": NB + 1, "2nb+1": 2 * NB + 1}


@pytest.mark.parametrize("seed", range(8))
def test_lu_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    a = rng.standard_normal((n, n))
    f = lu_decompose(a)
    assert fro(a[f.perm] - f.l @ f.u) <= 1e-10 * fro(a)
    assert np.abs(np.triu(f.l, 1)).max() <= 1e-12 * fro(a)
    assert np.abs(np.tril(f.u, -1)).max() <= 1e-12 * fro(a)
    assert sorted(f.perm) == list(range(n))


@pytest.mark.parametrize("seed", range(8))
def test_substitution_solves_pivoted_system(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 40))
    a = rng.standard_normal((n, n))
    t = rng.standard_normal(n)
    f = lu_decompose(a)
    w = backward_substitute(f.u, forward_substitute(f.l, t[f.perm]))
    assert fro(a @ w - t) <= 1e-10 * fro(t)


@pytest.mark.parametrize("case", [*range(8), *BLOCK_COLUMNS])
def test_qr_invariants(case):
    if case in BLOCK_COLUMNS:
        m = BLOCK_COLUMNS[case]
        a = np.random.default_rng(210).standard_normal((m + 9, m))
    else:
        rng = np.random.default_rng(200 + case)
        n = int(rng.integers(4, 60))
        m = int(rng.integers(1, n + 1))
        a = rng.standard_normal((n, m))
    for factorize in (mgs_qr, householder_qr):
        f = factorize(a)
        assert fro(f.q.T @ f.q - np.eye(m)) <= 1e-10
        assert fro(a - f.q @ f.r) <= 1e-10 * fro(a)
        assert np.abs(np.tril(f.r, -1)).max() <= 1e-12 * fro(a)
        assert np.all(np.diag(f.r) >= 0.0)


@pytest.mark.parametrize("case", [*range(8), *BLOCK_COLUMNS])
def test_hessenberg_invariants(case):
    if case in BLOCK_COLUMNS:
        n = BLOCK_COLUMNS[case]
        a = np.random.default_rng(310).standard_normal((n, n))
    else:
        rng = np.random.default_rng(300 + case)
        n = int(rng.integers(2, 50))
        a = rng.standard_normal((n, n))
    a = a + a.T
    f = hessenberg_reduce(a)
    assert fro(a - f.q @ f.t @ f.q.T) <= 1e-10 * fro(a)
    assert fro(f.q.T @ f.q - np.eye(n)) <= 1e-10
    beyond = f.t - np.tril(np.triu(f.t, -1), 1)
    assert np.abs(beyond).max() <= 1e-12 * fro(a)
    assert np.abs(f.t - f.t.T).max() <= 1e-12 * fro(a)


@pytest.mark.parametrize("seed", range(8))
def test_schur_invariants(seed):
    rng = np.random.default_rng(400 + seed)
    n = int(rng.integers(2, 40))
    g = rng.standard_normal((n + 3, n))
    a = g.T @ g
    f = schur_decompose(a)
    assert fro(a - f.q @ f.t @ f.q.T) <= 1e-10 * fro(a)
    assert fro(f.q.T @ f.q - np.eye(n)) <= 1e-10
    d = np.diag(f.t)
    assert np.all(np.diff(d) <= 1e-12 * max(abs(d[0]), 1.0))  # descending
    assert np.abs(f.t - np.diag(d)).max() == 0.0


def _zero_column_second_block(rng):
    # The preconditioner's reflector for the zero column is zero, the
    # identity, inside the second block, and the 2NB + 5 live columns of u
    # are completed through the blocked reduction.
    a = rng.standard_normal((2 * NB + 16, 2 * NB + 6))
    a[:, NB + 8] = 0.0
    return a


def _duplicate_columns(rng):
    # Rank 6 in 8 columns: two singular values are zero up to round-off.
    b = rng.standard_normal((30, 6))
    return np.hstack((b, b[:, :2]))


SVD_SHAPED_INPUTS = {
    "zero-middle-column": lambda rng: rng.standard_normal((12, 5)) * [1, 1, 0, 1, 1],
    "rank-4": lambda rng: rng.standard_normal((50, 4)) @ rng.standard_normal((4, 10)),
    "wide-5x9": lambda rng: rng.standard_normal((5, 9)),
    "zero-column-second-block": _zero_column_second_block,
    "graded-columns": lambda rng: rng.standard_normal((40, 12)) * np.logspace(0, -8, 12),
    "duplicate-columns": _duplicate_columns,
}


@pytest.mark.parametrize("case", [*range(8), *SVD_SHAPED_INPUTS, *BLOCK_COLUMNS])
def test_svd_invariants(case):
    if case in BLOCK_COLUMNS:
        m = BLOCK_COLUMNS[case]
        a = np.random.default_rng(520).standard_normal((m + 9, m))
    elif case in SVD_SHAPED_INPUTS:
        a = SVD_SHAPED_INPUTS[case](np.random.default_rng(510))
    else:
        rng = np.random.default_rng(500 + case)
        n = int(rng.integers(3, 60))
        m = int(rng.integers(1, n + 1))
        a = rng.standard_normal((n, m))
    k = min(a.shape)
    f = svd(a)
    assert fro(a - f.u @ np.diag(f.sigma) @ f.v.T) <= 1e-10 * fro(a)
    assert fro(f.u.T @ f.u - np.eye(k)) <= 1e-10
    assert fro(f.v.T @ f.v - np.eye(k)) <= 1e-10
    assert np.all(f.sigma >= 0.0)
    assert np.all(np.diff(f.sigma) <= 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_svd_schur_cross_agreement(seed):
    rng = np.random.default_rng(600 + seed)
    n = int(rng.integers(6, 50))
    m = int(rng.integers(2, min(n, 20)))
    a = rng.standard_normal((n, m))
    sig = svd(a).sigma
    eig = np.diag(schur_decompose(a.T @ a).t)
    eig = np.clip(eig, 0.0, None)
    assert np.abs(sig - np.sqrt(eig)).max() <= 1e-8 * sig[0]


@pytest.mark.parametrize("seed", range(6))
def test_tridiagonal_residual(seed):
    rng = np.random.default_rng(700 + seed)
    n = int(rng.integers(2, 60))
    t = np.diag(rng.uniform(4.0, 8.0, n))
    if n > 1:
        off = rng.uniform(-1.0, 1.0, n - 1)
        t += np.diag(off, 1) + np.diag(off, -1)
    b = rng.standard_normal((n, 3))
    x = tridiagonal_solve(t, b)
    assert fro(t @ x - b) <= 1e-12 * fro(b)
