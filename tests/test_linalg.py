"""Unit tests for the factorizations, substitutions, and the flop model, plus
guards on caller data, memory order and the ban on numpy.linalg."""

import ast
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import elmbench
from elmbench import (
    Dataset,
    ElmConfig,
    EpochSet,
    SolverKind,
    apply_normalizer,
    backward_substitute,
    fit_normalizer,
    flop_estimate,
    forward_substitute,
    grand_average,
    hat_diagnostic,
    hessenberg_reduce,
    hidden_output,
    householder_qr,
    init_random_layer,
    linalg,
    lu_decompose,
    mgs_qr,
    schur_decompose,
    session_kfold,
    solve_output_weights,
    svd,
    synth_epochs,
    train,
    triangular_inverse,
    tridiagonal_solve,
    write_csv,
)
from elmbench.errors import (
    DimensionMismatch,
    NoConvergence,
    NotSymmetric,
    RankDeficient,
    SingularMatrix,
)


def fro(a):
    return np.linalg.norm(a)


# ---------------------------------------------------------------------------
# LU and substitutions
# ---------------------------------------------------------------------------

def test_lu_identity():
    f = lu_decompose(np.eye(3))
    assert np.array_equal(f.l, np.eye(3))
    assert np.array_equal(f.u, np.eye(3))
    assert np.array_equal(f.perm, [0, 1, 2])


def test_lu_pure_permutation():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = lu_decompose(a)
    assert np.array_equal(f.perm, [1, 0])
    assert np.array_equal(f.l, np.eye(2))
    assert np.array_equal(a[f.perm], f.l @ f.u)


def test_lu_reconstruction_random():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 5))
    f = lu_decompose(a)
    assert fro(a[f.perm] - f.l @ f.u) <= 1e-12 * fro(a)
    # structure
    assert np.array_equal(np.diag(f.l), np.ones(5))
    assert np.abs(np.triu(f.l, 1)).max() == 0.0
    assert np.abs(np.tril(f.u, -1)).max() == 0.0


def _fancy_index_lu(a):
    # Row swaps by fancy indexing and the update by np.outer: the same
    # arithmetic as lu_decompose, its bookkeeping written the plain way.
    lu = a.copy()
    n = lu.shape[0]
    perm = np.arange(n)
    swaps = 0
    for k in range(n):
        piv = k + int(np.argmax(np.abs(lu[k:, k])))
        if piv != k:
            lu[[k, piv]] = lu[[piv, k]]
            perm[[k, piv]] = perm[[piv, k]]
            swaps += 1
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return np.tril(lu, -1) + np.eye(n), np.triu(lu), perm, swaps


def test_lu_row_swaps_match_a_fancy_index_reference():
    a = np.random.default_rng(12).standard_normal((40, 40))
    l, u, perm, swaps = _fancy_index_lu(a)
    assert swaps >= 30
    f = lu_decompose(a)
    assert np.array_equal(f.l, l)
    assert np.array_equal(f.u, u)
    assert np.array_equal(f.perm, perm)


def test_lu_singular_raises():
    with pytest.raises(SingularMatrix):
        lu_decompose(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_lu_rejects_rectangular():
    with pytest.raises(DimensionMismatch):
        lu_decompose(np.ones((3, 2)))


def test_forward_substitute_identity():
    assert np.array_equal(forward_substitute(np.eye(2), [3.0, -1.0]), [3.0, -1.0])


def test_forward_substitute_diagonal():
    assert np.array_equal(
        forward_substitute(np.diag([2.0, 4.0]), [4.0, 8.0]), [2.0, 2.0])


def test_forward_substitute_lower():
    l = np.array([[2.0, 0.0, 0.0], [1.0, 3.0, 0.0], [0.0, 1.0, 4.0]])
    t = np.array([2.0, 5.0, 6.0])
    y = forward_substitute(l, t)
    assert np.allclose(y, [1.0, 4.0 / 3.0, 7.0 / 6.0])
    assert np.allclose(l @ y, t)


def test_forward_substitute_zero_diagonal():
    with pytest.raises(SingularMatrix):
        forward_substitute(np.array([[0.0, 0.0], [1.0, 1.0]]), [1.0, 1.0])


def test_backward_substitute_identity():
    assert np.array_equal(backward_substitute(np.eye(2), [1.0, 2.0]), [1.0, 2.0])


def test_backward_substitute_1x1():
    assert np.array_equal(backward_substitute([[5.0]], [10.0]), [2.0])


def test_backward_substitute_upper():
    u = np.array([[2.0, 1.0], [0.0, 3.0]])
    y = np.array([5.0, 6.0])
    w = backward_substitute(u, y)
    assert np.allclose(w, [1.5, 2.0])
    assert np.allclose(u @ w, y)


def test_backward_substitute_zero_diagonal():
    with pytest.raises(SingularMatrix):
        backward_substitute(np.array([[1.0, 1.0], [0.0, 0.0]]), [1.0, 1.0])


def test_lu_substitution_solves_system():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal(8)
    f = lu_decompose(a)
    y = forward_substitute(f.l, b[f.perm])
    x = backward_substitute(f.u, y)
    assert fro(a @ x - b) <= 1e-10 * fro(b)
    assert np.allclose(x, np.linalg.solve(a, b))


def test_substitutions_take_matrix_right_hand_sides():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 5))
    f = lu_decompose(a)
    x = backward_substitute(f.u, forward_substitute(f.l, b[f.perm]))
    assert x.shape == (8, 5)
    assert fro(a @ x - b) <= 1e-10 * fro(b)
    # each column matches the vector solve of that column
    for j in range(5):
        col = backward_substitute(f.u, forward_substitute(f.l, b[f.perm, j]))
        assert np.allclose(x[:, j], col, rtol=1e-12, atol=1e-14)
    with pytest.raises(DimensionMismatch):
        forward_substitute(f.l, b[:7])


# ---------------------------------------------------------------------------
# QR variants
# ---------------------------------------------------------------------------

def test_mgs_identity():
    f = mgs_qr(np.eye(3))
    assert np.allclose(f.q, np.eye(3))
    assert np.allclose(f.r, np.eye(3))


def test_mgs_orthogonal_columns_scale():
    a = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    f = mgs_qr(a)
    assert np.allclose(f.r, np.diag([2.0, 3.0]))


def test_mgs_random_reconstruction():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 3))
    f = mgs_qr(a)
    assert fro(f.q.T @ f.q - np.eye(3)) <= 1e-12
    assert fro(a - f.q @ f.r) <= 1e-12 * fro(a)
    assert np.all(np.diag(f.r) > 0.0)


def test_mgs_rank_deficient():
    a = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(RankDeficient):
        mgs_qr(a)


def _left_looking_mgs(a):
    """Reference: orthogonalize each column against the finished q columns."""
    q = a.copy()
    m = a.shape[1]
    r = np.zeros((m, m))
    for j in range(m):
        for i in range(j):
            r[i, j] = q[:, i] @ q[:, j]
            q[:, j] -= r[i, j] * q[:, i]
        r[j, j] = np.sqrt(q[:, j] @ q[:, j])
        q[:, j] /= r[j, j]
    return q, r


@pytest.mark.parametrize("shape", [(40, 12), (12, 12), (1, 1), (30, 1)])
def test_mgs_matches_left_looking_loop(shape):
    a = np.random.default_rng(43).standard_normal(shape)
    f = mgs_qr(a)
    q, r = _left_looking_mgs(a)
    # Same projections in the same order; only the inner-product kernels
    # differ, so agreement is to round-off.
    tol = 100 * shape[0] * np.finfo(float).eps
    assert fro(f.q - q) <= tol * math.sqrt(shape[1])
    assert fro(f.r - r) <= tol * fro(a)


def test_householder_rank_deficient():
    duplicate = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    zero_middle = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 1.0], [0.0, 0.0, 5.0]])
    # A zero column in the second block stays exactly zero under the first
    # block's update, so its pivot is exactly zero.
    nb = linalg._NB
    zero_late = np.random.default_rng(37).standard_normal((nb + 20, nb + 5))
    zero_late[:, nb + 2] = 0.0
    for a, col in ((duplicate, 1), (zero_middle, 1), (zero_late, nb + 2)):
        with pytest.raises(RankDeficient, match=f"column {col} "):
            householder_qr(a)


def _reflector_loop_reduce(work):
    """Reference: reflect one column at a time, updating every later column."""
    reflectors = []
    for j in range(work.shape[1]):
        v = linalg._reflector(work[j:, j])
        work[j:, j:] -= 2.0 * np.outer(v, v @ work[j:, j:])
        reflectors.append(v)
    return reflectors


def _reflector_loop_apply(reflectors, n, top):
    """Reference: q @ [top; 0] by one reflector at a time, last to first."""
    out = np.zeros((n, top.shape[1]))
    out[:top.shape[0]] = top
    for j in range(len(reflectors) - 1, -1, -1):
        v = reflectors[j]
        out[j:] -= 2.0 * np.outer(v, v @ out[j:])
    return out


def _reflector_loop_apply_t(reflectors, b):
    """Reference: q.T @ b by one reflector at a time, first to last."""
    out = b.copy()
    for j, v in enumerate(reflectors):
        out[j:] -= 2.0 * np.multiply.outer(v, v @ out[j:])
    return out


def _reflectors_of(blocks):
    """The flat reflector list of compact-WY blocks: column i of v below i zeros."""
    return [v[i:, i] for _, v, _ in blocks for i in range(v.shape[1])]


@pytest.mark.parametrize("cols", [1, linalg._NB - 1, linalg._NB + 1, 2 * linalg._NB + 1])
def test_blocked_householder_matches_reflector_loop(cols):
    rng = np.random.default_rng(41)
    a = rng.standard_normal((cols + 15, cols))
    a[:, cols // 2] = 0.0  # a zero (identity) reflector inside a block
    n = a.shape[0]
    blocked, looped = a.copy(), a.copy()
    blocks = linalg._householder_reduce(blocked)
    refl = _reflectors_of(blocks)
    ref_refl = _reflector_loop_reduce(looped)
    # The blocked update reorders the sums, so agreement is to round-off.
    tol = 100 * n * np.finfo(float).eps
    for reflectors in (refl, ref_refl):
        assert [j for j, v in enumerate(reflectors) if not v.any()] == [cols // 2]
    assert fro(np.triu(blocked[:cols]) - np.triu(looped[:cols])) <= tol * fro(a)
    for top in (np.eye(cols), rng.standard_normal((cols, cols))):
        got = linalg._apply_reflectors(blocks, n, top)
        want = _reflector_loop_apply(refl, n, top)
        assert fro(got - want) <= tol * fro(top)
    # q.T applied in place, block by block, to a vector and to a matrix.
    for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        got = b.copy()
        linalg._apply_qt(blocks, got)
        want = _reflector_loop_apply_t(refl, b)
        assert fro(got - want) <= tol * fro(b)


def _rank_four_with_zero_column():
    rng = np.random.default_rng(43)
    a = rng.standard_normal((10, 4)) @ rng.standard_normal((4, 10))
    a[:, 6] = 0.0
    return a


# Square inputs to _pivoted_reduce with their ranks.
_PIVOTED_INPUTS = {
    "random": (np.random.default_rng(42).standard_normal((30, 30)), 30),
    "rank4": (_rank_four_with_zero_column(), 4),
}


@pytest.mark.parametrize("a, rank", _PIVOTED_INPUTS.values(), ids=_PIVOTED_INPUTS.keys())
def test_pivoted_reduce_picks_the_largest_remaining_column(a, rank):
    m = a.shape[0]
    work = a.copy()
    blocks, perm = linalg._pivoted_reduce(work)
    r = np.triu(work)
    assert sorted(perm.tolist()) == list(range(m))
    q = linalg._apply_reflectors(blocks, m, np.eye(m))
    assert fro(a[:, perm] - q @ r) <= 1e-12 * fro(a)
    # Businger-Golub: each pivot is at least the norm of every later column
    # on and below its row, up to round-off in the scale of a.
    tol = 100 * m * np.finfo(float).eps * fro(a)
    for j in range(m):
        for k in range(j + 1, m):
            assert np.linalg.norm(r[j:, k]) <= abs(r[j, j]) + tol, (j, k)
    if rank < m:
        # The zero column stays exactly zero and goes behind the independent
        # columns; the dependent ones leave round-off pivots.
        assert abs(r[rank - 1, rank - 1]) > 1e-3 * fro(a)
        assert np.abs(np.diag(r)[rank:]).max() <= tol
        zero = perm.tolist().index(6)
        assert zero >= rank and not r[:, zero].any()


def _fancy_index_pivoted_reduce(work):
    # _pivoted_reduce with its row swaps written by fancy indexing.
    m = work.shape[1]
    wt = np.ascontiguousarray(work.T)
    perm = np.arange(m)
    reflectors = []
    for j in range(m):
        rest = wt[j:, j:]
        p = j + int(np.argmax(np.einsum("ij,ij->i", rest, rest)))
        if p != j:
            wt[[j, p]] = wt[[p, j]]
            perm[[j, p]] = perm[[p, j]]
        v = linalg._reflector(wt[j, j:])
        rest -= np.outer(2.0 * (rest @ v), v)
        reflectors.append(v)
    return linalg._wy_blocks(reflectors, m), perm, wt.T


@pytest.mark.parametrize("name", list(_PIVOTED_INPUTS))
def test_pivoted_reduce_matches_a_fancy_index_reference(name):
    a = _PIVOTED_INPUTS[name][0]
    want_blocks, want_perm, want_r = _fancy_index_pivoted_reduce(a.copy())
    work = a.copy()
    blocks, perm = linalg._pivoted_reduce(work)
    assert np.array_equal(work, want_r)
    assert np.array_equal(perm, want_perm)
    assert len(blocks) == len(want_blocks)
    for (j0, v, t), (want_j0, want_v, want_t) in zip(blocks, want_blocks):
        assert j0 == want_j0
        assert np.array_equal(v, want_v) and np.array_equal(t, want_t)


def test_householder_identity():
    f = householder_qr(np.eye(2))
    assert np.allclose(f.q, np.eye(2))
    assert np.allclose(f.r, np.eye(2))


def test_householder_single_column():
    a = np.array([[3.0], [4.0]])
    f = householder_qr(a)
    assert np.allclose(f.r, [[5.0]])
    assert np.allclose(f.q, [[0.6], [0.8]])
    assert np.allclose(f.q @ f.r, a)


def test_householder_matches_mgs():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((8, 4))
    fh = householder_qr(a)
    fm = mgs_qr(a)
    # both enforce a non-negative diagonal, so r compares directly
    assert np.abs(fh.r - fm.r).max() <= 1e-10


def test_householder_matches_numpy():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((10, 5))
    f = householder_qr(a)
    r_np = np.linalg.qr(a)[1]
    r_np = r_np * np.sign(np.diag(r_np))[:, None]
    assert np.allclose(f.r, r_np)
    assert fro(a - f.q @ f.r) <= 1e-12 * fro(a)


def test_qr_rejects_wide():
    with pytest.raises(DimensionMismatch):
        householder_qr(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        mgs_qr(np.ones((2, 3)))


def test_triangular_inverse_identity():
    assert np.allclose(triangular_inverse(np.eye(3)), np.eye(3))


def test_triangular_inverse_diagonal():
    assert np.allclose(triangular_inverse(np.diag([2.0, 4.0])),
                       np.diag([0.5, 0.25]))


def test_triangular_inverse_upper():
    r = np.array([[1.0, 2.0], [0.0, 4.0]])
    inv = triangular_inverse(r)
    assert np.allclose(inv, [[1.0, -0.5], [0.0, 0.25]])
    assert np.allclose(r @ inv, np.eye(2))


def test_triangular_inverse_singular():
    with pytest.raises(SingularMatrix):
        triangular_inverse(np.array([[1.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# Symmetric reductions
# ---------------------------------------------------------------------------

def test_hessenberg_diagonal_input():
    a = np.diag([1.0, 2.0, 3.0])
    f = hessenberg_reduce(a)
    assert np.allclose(f.t, a)
    assert np.allclose(np.abs(f.q), np.eye(3))


def test_hessenberg_2x2_passthrough():
    a = np.array([[2.0, 1.0], [1.0, 5.0]])
    f = hessenberg_reduce(a)
    assert np.array_equal(f.t, a)
    assert np.array_equal(f.q, np.eye(2))


@pytest.mark.parametrize("factorize", [hessenberg_reduce, schur_decompose])
def test_similarity_1x1(factorize):
    f = factorize([[-2.5]])
    assert np.array_equal(f.q, [[1.0]])
    assert np.array_equal(f.t, [[-2.5]])


def test_hessenberg_random_symmetric():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((6, 6))
    a = a + a.T
    f = hessenberg_reduce(a)
    beyond = f.t - np.tril(np.triu(f.t, -1), 1)
    assert np.abs(beyond).max() <= 1e-12 * fro(a)
    assert fro(a - f.q @ f.t @ f.q.T) <= 1e-12 * fro(a)
    assert fro(f.q.T @ f.q - np.eye(6)) <= 1e-12


def test_hessenberg_zero_reflector_mid_loop():
    # Blocks of 5 and 4 keep column 4 exactly zero below row 5, so step 4
    # meets a zero sub-column between steps with live reflectors.
    rng = np.random.default_rng(12)
    a = np.zeros((9, 9))
    for lo, hi in ((0, 5), (5, 9)):
        b = rng.standard_normal((hi - lo, hi - lo))
        a[lo:hi, lo:hi] = b + b.T
    f = hessenberg_reduce(a)
    assert f.t[5, 4] == 0.0
    assert not np.triu(f.t, 2).any() and not np.tril(f.t, -2).any()
    assert np.array_equal(f.t, f.t.T)
    assert fro(a - f.q @ f.t @ f.q.T) <= 1e-12 * fro(a)
    assert fro(f.q.T @ f.q - np.eye(9)) <= 1e-12


def test_hessenberg_matches_eigenvalues():
    b = np.random.default_rng(15).standard_normal((150, 150))
    a = b + b.T
    t = hessenberg_reduce(a).t
    err = np.abs(np.linalg.eigvalsh(t) - np.linalg.eigvalsh(a)).max()
    assert err <= 1e-12 * np.linalg.norm(a, 2)


def test_hessenberg_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        hessenberg_reduce(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_schur_diagonal_descending():
    f = schur_decompose(np.diag([4.0, 1.0]))
    assert np.allclose(f.t, np.diag([4.0, 1.0]))
    assert np.allclose(np.abs(f.q), np.eye(2))


def test_schur_2x2_eigenvalues():
    # characteristic polynomial of [[2,1],[1,2]] has roots 3 and 1
    f = schur_decompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(np.diag(f.t), [3.0, 1.0])


def test_schur_psd_matches_singular_values():
    rng = np.random.default_rng(30)
    g = rng.standard_normal((12, 8))
    a = g.T @ g
    f = schur_decompose(a)
    expected = np.sort(np.linalg.svd(g, compute_uv=False) ** 2)[::-1]
    assert np.abs(np.diag(f.t) - expected).max() <= 1e-8 * expected[0]
    assert fro(a - f.q @ f.t @ f.q.T) <= 1e-10 * fro(a)
    # off-diagonal is exactly zero by construction
    assert np.abs(f.t - np.diag(np.diag(f.t))).max() == 0.0


def _rotation_loop_eigen(d, e, zt):
    """Reference: the QL loop applying each rotation to zt as it is made."""
    n = d.size
    eps = np.finfo(float).eps
    d, e = d.tolist(), e.tolist() + [0.0]
    total = 0
    for l in range(n):
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > eps * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            total += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            restart = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    restart = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                zt[i:i + 2] = np.array([[c, -s], [s, c]]) @ zt[i:i + 2]
            if not restart:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return np.array(d), total


def _wavefront_cases():
    rng = np.random.default_rng(47)
    x = rng.standard_normal((60, 40))
    u = rng.standard_normal(30)
    g = np.logspace(0, -5, 25)  # cond(a) about 1e10
    b = rng.standard_normal((25, 25))
    h = 1.0 / (1.0 + np.exp(-rng.uniform(-1.0, 1.0, (300, 120))))
    # Block-diagonal inputs tridiagonalize with exact zeros at the block
    # edges, odd and even, so QL chains start on untouched rows of both
    # parities and some wavefront layers stay empty.
    split = {}
    for sizes in ((5, 4), (4, 5), (3, 6, 2)):
        a = np.zeros((sum(sizes), sum(sizes)))
        edge = 0
        for k in sizes:
            y = rng.standard_normal((k + 2, k))
            a[edge:edge + k, edge:edge + k] = y.T @ y
            edge += k
        split["blocks-" + "+".join(map(str, sizes))] = a
    return {
        "psd-40": x.T @ x,
        "identity-plus-rank-one": np.eye(30) + np.outer(u, u),
        "diagonal": np.diag([3.0, 1.0, 4.0, 1.5, 9.0]),
        "2x2": np.array([[2.0, 1.0], [1.0, 3.0]]),
        "graded": g[:, None] * (b @ b.T + 25.0 * np.eye(25)) * g[None, :],
        "sigmoid-gram-120": h.T @ h,
        **split,
    }


@pytest.mark.parametrize("name", list(_wavefront_cases()))
def test_schur_wavefront_matches_rotation_loop(name):
    a = _wavefront_cases()[name]
    n = a.shape[0]
    base = hessenberg_reduce(a)
    d_diag, e_diag = np.diag(base.t), np.diag(base.t, -1)
    zt = np.ascontiguousarray(base.q.T)
    got = zt.copy()
    d_got, total_got = linalg._tridiag_eigen(d_diag, e_diag, got, linalg.EIGEN_ITER_FACTOR * n)
    d, total = _rotation_loop_eigen(d_diag, e_diag, zt)
    # The same rotations reach each row in the same order, so nothing but
    # the batching of the products can differ.
    assert np.array_equal(d_got, d)
    assert np.abs(got - zt).max() <= 8 * n * np.finfo(float).eps
    assert total_got == total
    if n <= linalg._NB:
        # No tear: Schur's eigenvalues are the wavefront's, bit for bit.
        assert np.array_equal(np.diag(schur_decompose(a).t), np.sort(d)[::-1])


def _dc_cases():
    rng = np.random.default_rng(61)
    psd = {}
    for n in (33, 64, 65, 100):
        x = rng.standard_normal((n + 5, n))
        psd[f"psd-{n}"] = x.T @ x
    u = rng.standard_normal(64)
    off = 1e-14 * rng.standard_normal(79)
    q = np.linalg.qr(rng.standard_normal((70, 70)))[0]
    eigs = rng.uniform(1.0, 5.0, 70)
    eigs[20:23] = 2.5
    g = np.logspace(0, -6, 90)
    b = rng.standard_normal((90, 90))
    # Two copies of a palindromic 32-row tridiagonal, coupled at the tear:
    # both halves keep one spectrum after it, so every pole is doubled.
    r, w = rng.uniform(1.0, 2.0, 32), rng.uniform(0.1, 0.5, 31)
    half_d, half_e = r + r[::-1], w + w[::-1]
    e = np.concatenate((half_e, [0.7], half_e))
    glued = np.diag(np.concatenate((half_d, half_d))) + np.diag(e, 1) + np.diag(e, -1)
    split = {}
    # _tears halves 64 rows once, at row 32.
    for name, sizes in (("at-the-tear", (32, 32)), ("off-the-tear", (20, 44))):
        a = np.zeros((64, 64))
        edge = 0
        for k in sizes:
            y = rng.standard_normal((k + 3, k))
            a[edge:edge + k, edge:edge + k] = y.T @ y
            edge += k
        split[f"blocks-zero-{name}"] = a
    return {
        **psd,
        "identity-plus-rank-one": np.eye(64) + np.outer(u, u),
        "diagonal-tiny-off": (np.diag(rng.uniform(1.0, 10.0, 80))
                              + np.diag(off, 1) + np.diag(off, -1)),
        "glued-copies": glued,
        "triple-eigenvalue": q @ np.diag(eigs) @ q.T,
        "graded": g[:, None] * (b @ b.T + 90.0 * np.eye(90)) * g[None, :],
        **split,
    }


def _assert_schur(a, f):
    n = a.shape[0]
    d = np.diag(f.t)
    assert fro(a - f.q @ f.t @ f.q.T) <= 1e-12 * fro(a)
    assert fro(f.q.T @ f.q - np.eye(n)) <= 1e-12
    assert np.array_equal(f.t, np.diag(d))
    assert np.all(np.diff(d) <= 0.0)
    oracle = np.linalg.eigvalsh(a)[::-1]
    assert np.abs(d - oracle).max() <= 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("name", list(_dc_cases()))
def test_schur_divide_and_conquer(name):
    # Every case is wider than one QL block, so the tridiagonal is torn and
    # merged. Close poles (the glued copies, the triple eigenvalue) deflate
    # by rotation; identity plus rank one tridiagonalizes to a coupling at
    # round-off level, so all its poles deflate by their small z, as do the
    # tiny couplings; an exact zero coupling leaves rho == 0 at a tear; the
    # graded matrix spans six decades.
    a = _dc_cases()[name]
    assert a.shape[0] > linalg._NB
    _assert_schur(a, schur_decompose(a))


@pytest.mark.parametrize("name", ["psd-65", "graded"])
def test_schur_ql_blocks_turn_block_local_rows(name):
    # Torn as _tridiag_dc tears it, psd-65 has blocks of 32, 16 and 17 rows
    # and graded (90 rows) four blocks, two of them starting on odd rows.
    # Rows that hold only their own block's columns must end as the n-wide
    # identity rows do, bit for bit.
    a = _dc_cases()[name]
    n = a.shape[0]
    t = hessenberg_reduce(a).t
    d, e = np.diag(t).copy(), np.diag(t, -1).copy()
    tears = linalg._tears(0, n)
    for _, mid, _ in tears:
        d[mid - 1:mid + 1] -= abs(e[mid - 1])
        e[mid - 1] = 0.0
    cuts = [0] + sorted(mid for _, mid, _ in tears) + [n]
    blocks = list(zip(cuts[:-1], cuts[1:]))
    wide = np.eye(n)
    local = np.zeros((n, max(hi - lo for lo, hi in blocks)))
    for lo, hi in blocks:
        local[lo:hi, :hi - lo] = np.eye(hi - lo)
    assert local.shape[1] < n
    budget = linalg.EIGEN_ITER_FACTOR * n
    d_wide, total_wide = linalg._tridiag_eigen(d, e, wide, budget)
    d_local, total_local = linalg._tridiag_eigen(d, e, local, budget)
    assert np.array_equal(d_local, d_wide)
    assert total_local == total_wide
    for lo, hi in blocks:
        assert np.array_equal(local[lo:hi, :hi - lo], wide[lo:hi, lo:hi])
        assert not wide[lo:hi, :lo].any() and not wide[lo:hi, hi:].any()


def test_schur_secular_passes_count_against_the_budget(monkeypatch):
    # The blocks' QL iterations and the merges' secular passes share one
    # budget: set half an iteration below what psd-65 uses, the last
    # secular pass is one too many.
    a = _dc_cases()["psd-65"]
    used = schur_decompose(a).iterations
    assert used <= linalg.EIGEN_ITER_FACTOR * 65
    monkeypatch.setattr(linalg, "EIGEN_ITER_FACTOR", (used - 0.5) / 65)
    with pytest.raises(NoConvergence, match="secular"):
        schur_decompose(a)


def test_schur_ql_restart_on_an_exactly_zero_rotation_radius():
    # The QL chase meets a rotation radius that is exactly zero, so
    # _tridiag_eigen deflates there and restarts. Four of the eigenvalues
    # are +-2**-600; numpy's eigvalsh returns 5e-324 for all four, so this
    # also holds the relative deflation to its word.
    d = np.array([2.0 ** -1074] * 4 + [0.0, 2.0 ** -540])
    e = np.array([2.0 ** -600, -2.0 ** -1074, 2.0 ** -600, 2.0 ** -1074, -0.5])
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    f = schur_decompose(t)
    assert fro(f.q @ f.t @ f.q.T - t) <= 1e-15 * fro(t)
    assert fro(f.q.T @ f.q - np.eye(6)) <= 1e-15
    tiny = 2.0 ** -600
    exact = np.array([-0.5, -tiny, -tiny, tiny, tiny, 0.5])
    assert np.all(np.abs(np.sort(np.diag(f.t)) - exact) <= 1e-15 * np.abs(exact))


def test_schur_divide_and_conquer_at_width_500():
    # 500 rows tear into 16 blocks of 31 or 32: four levels of merges on a
    # sigmoid Gram matrix whose eigenvalues spread over many decades.
    h = _sigmoid_hidden(1000, 500, 83)
    a = h.T @ h
    _assert_schur(a, schur_decompose(a))


def test_solver_work_counts():
    a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    assert 0 < schur_decompose(a).iterations <= linalg.EIGEN_ITER_FACTOR * 3
    assert hessenberg_reduce(a).iterations == 0
    # Even a diagonal matrix's Golub-Kahan tridiagonal has a zero diagonal,
    # so each of its 2 x 2 blocks takes a QL iteration.
    assert 0 < svd(np.diag([3.0, 2.0, 1.0])).iterations <= linalg.EIGEN_ITER_FACTOR * 6


def test_schur_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        schur_decompose(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_tridiagonal_solve_identity():
    b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(tridiagonal_solve(np.eye(3), b), b)


def test_tridiagonal_solve_1x1():
    assert np.array_equal(tridiagonal_solve([[2.0]], [6.0]), [3.0])


def test_tridiagonal_solve_random():
    rng = np.random.default_rng(5)
    n = 6
    t = np.diag(rng.uniform(4.0, 6.0, n))
    off = rng.uniform(-1.0, 1.0, n - 1)
    t += np.diag(off, 1) + np.diag(off, -1)
    b = rng.standard_normal((n, 2))
    x = tridiagonal_solve(t, b)
    assert fro(t @ x - b) <= 1e-12 * fro(b)


def test_tridiagonal_solve_singular():
    with pytest.raises(SingularMatrix):
        tridiagonal_solve(np.zeros((3, 3)), np.ones(3))


@pytest.mark.parametrize("t, row", [
    ([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], 0),
    ([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], 1),
    ([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]], 2),
])
def test_tridiagonal_solve_names_the_vanishing_pivot_row(t, row):
    with pytest.raises(SingularMatrix, match=f"vanishing pivot at row {row}$"):
        tridiagonal_solve(np.array(t), np.ones(3))


def test_tridiagonal_solve_columns_match_vector_solves():
    # One Thomas loop serves both right-hand-side types, so a column of a
    # matrix solve has the bits of the vector solve of that column.
    x = np.random.default_rng(13).uniform(0.0, 1.0, (200, 16))
    cfg = ElmConfig(hidden_neurons=100, rng_seed=13)
    weights, biases = init_random_layer(cfg, 16)
    h = hidden_output(x, weights, biases, cfg.activation)
    t = hessenberg_reduce(h.T @ h + 0.1 * np.eye(100)).t
    b = np.random.default_rng(14).standard_normal((100, 7))
    cols = tridiagonal_solve(t, b)
    assert cols.shape == (100, 7)
    for j in range(7):
        col = tridiagonal_solve(t, b[:, j])
        assert col.shape == (100,)
        assert np.array_equal(cols[:, j], col), j


def test_tridiagonal_solve_pivot_test_is_relative():
    # Pivots are compared with the largest entry of t, however small it is.
    x = tridiagonal_solve(1e-13 * np.eye(3), np.ones(3))
    assert np.allclose(x, 1e13, rtol=1e-15, atol=0.0)


def test_tridiagonal_solve_of_a_t_near_the_largest_float():
    # Unscaled, the multiplier 1 / 1.0001e-12 makes the second pivot about
    # -1e312, which overflows to -inf and turns x[1] into 0. The sweeps run
    # on t divided by a power of two, so the pivots stay near 1e12 at most.
    # The exact answer is [0, 1e-300, 0], whatever t[0, 0].
    t = 1e300 * np.array([[1.0001e-12, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    x = tridiagonal_solve(t, np.ones(3))
    assert np.abs(t @ x - 1.0).max() <= 1e-12
    assert np.abs(x - [0.0, 1e-300, 0.0]).max() <= 1e-12 * 1e-300


# ---------------------------------------------------------------------------
# SVD
# ---------------------------------------------------------------------------

def test_svd_diagonal():
    f = svd(np.diag([3.0, 1.0]))
    assert np.allclose(f.sigma, [3.0, 1.0])


def test_svd_rank_one():
    u1 = np.array([0.6, 0.8, 0.0]) * 2.0      # norm 2
    v1 = np.array([3.0, 0.0, 4.0, 0.0])       # norm 5
    a = np.outer(u1, v1)
    f = svd(a)
    assert abs(f.sigma[0] - 10.0) <= 1e-10
    assert f.sigma[1] <= 1e-10 * f.sigma[0]
    assert fro(f.u.T @ f.u - np.eye(3)) <= 1e-10
    assert fro(f.v.T @ f.v - np.eye(3)) <= 1e-10
    assert fro(a - f.u @ np.diag(f.sigma) @ f.v.T) <= 1e-10 * fro(a)


def test_svd_cross_check_with_schur():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((10, 4))
    f = svd(a)
    eig = np.diag(schur_decompose(a.T @ a).t)
    assert np.abs(f.sigma - np.sqrt(eig)).max() <= 1e-8 * f.sigma[0]


def test_svd_matches_numpy():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((9, 6))
    f = svd(a)
    ref = np.linalg.svd(a, compute_uv=False)
    assert np.abs(f.sigma - ref).max() <= 1e-12 * ref[0]


def test_svd_zero_matrix():
    f = svd(np.zeros((4, 2)))
    assert np.array_equal(f.sigma, [0.0, 0.0])
    assert fro(f.u.T @ f.u - np.eye(2)) <= 1e-12
    assert fro(f.v.T @ f.v - np.eye(2)) <= 1e-12


def test_svd_wide_matrix():
    a = np.array([[1.0, 2.0, 3.0]])
    f = svd(a)
    assert f.u.shape == (1, 1) and f.v.shape == (3, 1)
    assert abs(f.sigma[0] - math.sqrt(14.0)) <= 1e-12
    assert fro(a - f.u @ np.diag(f.sigma) @ f.v.T) <= 1e-10 * fro(a)


def test_svd_solve_of_a_wide_matrix_gives_the_minimum_norm_solution(monkeypatch):
    # A wide a is factored through its transpose, so solve applies that
    # reduction's q to a vector or to columns, with v never formed.
    rng = np.random.default_rng(71)
    a = rng.standard_normal((5, 40))
    f = svd(a)

    def no_v(self):
        raise AssertionError("the wide solve formed v")

    monkeypatch.setattr(linalg.SvdFactors, "v", property(no_v))
    for b in (rng.standard_normal(5), rng.standard_normal((5, 3))):
        want = np.linalg.lstsq(a, b, rcond=None)[0]
        got = f.solve(b)
        assert got.shape == want.shape
        assert fro(got - want) <= 1e-13 * fro(want)


def test_svd_iterations_on_hidden_and_ridge_matrices():
    # Both matrices have full rank 50, so the Golub-Kahan tridiagonal is
    # 100 x 100 and its budget EIGEN_ITER_FACTOR * 100.
    x = np.random.default_rng(3).uniform(0.0, 1.0, (200, 16))
    cfg = ElmConfig(hidden_neurons=50, rng_seed=3)
    weights, biases = init_random_layer(cfg, 16)
    h = hidden_output(x, weights, biases, cfg.activation)
    for a in (h, h.T @ h + 0.1 * np.eye(50)):
        f = svd(a)
        assert 0 < f.iterations <= linalg.EIGEN_ITER_FACTOR * 100
        assert fro(f.u.T @ f.u - np.eye(50)) <= 1e-12


def _run_one_blas_thread(script):
    # Iteration counts move with round-off, and OpenBLAS's bits with its
    # thread count, so fold matrices are factored as the benchmark factors
    # them: in a fresh interpreter with one BLAS thread.
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return json.loads(run.stdout)


_ERP_CV_SVD = """
import json
import numpy as np
from elmbench import (ElmConfig, apply_normalizer, fit_normalizer, grand_average,
                      hidden_output, init_random_layer, session_kfold, svd, synth_epochs)
features = grand_average(synth_epochs(seed=7, snr=0.5))
cfg = ElmConfig(hidden_neurons=100, rng_seed=7)
weights, biases = init_random_layer(cfg, features.shape[1])
out = []
for train_idx, _ in session_kfold(12, 6, 12, n_samples=864).folds:
    x = apply_normalizer(fit_normalizer(features[train_idx]), features[train_idx])
    h = hidden_output(x, weights, biases, cfg.activation)
    for a in (h, h.T @ h + 0.1 * np.eye(100)):
        f = svd(a)
        out.append((f.iterations, float(np.linalg.norm(f.u.T @ f.u - np.eye(100)))))
print(json.dumps(out))
"""


def test_svd_iterations_on_the_erp_cv_folds():
    # The benchmark's erp-cv shape: the 792 x 100 h of each of the 12 folds
    # (seed 7) and its ridge-leverage normal matrix, each of full rank, so
    # each Golub-Kahan tridiagonal is 200 x 200.
    results = _run_one_blas_thread(_ERP_CV_SVD)
    assert len(results) == 24
    for iterations, orthogonality in results:
        assert 0 < iterations <= linalg.EIGEN_ITER_FACTOR * 200
        assert orthogonality <= 1e-12


_ERP_CV_SCHUR = """
import json
import numpy as np
from elmbench import (ElmConfig, apply_normalizer, fit_normalizer, grand_average,
                      hidden_output, init_random_layer, linalg, schur_decompose,
                      session_kfold, synth_epochs)
features = grand_average(synth_epochs(seed=7, snr=0.5))
cfg = ElmConfig(hidden_neurons=100, rng_seed=7)
weights, biases = init_random_layer(cfg, features.shape[1])
out = []
for train_idx, _ in session_kfold(12, 6, 12, n_samples=864).folds:
    x = apply_normalizer(fit_normalizer(features[train_idx]), features[train_idx])
    h = hidden_output(x, weights, biases, cfg.activation)
    for lam in (0.0, 0.1):
        a = h.T @ h + lam * np.eye(100)
        f = schur_decompose(a)
        out.append((f.iterations, linalg.EIGEN_ITER_FACTOR * 100,
                    float(np.linalg.norm(a - f.q @ f.t @ f.q.T) / np.linalg.norm(a)),
                    float(np.linalg.norm(f.q.T @ f.q - np.eye(100)))))
print(json.dumps(out))
"""


def test_schur_on_the_erp_cv_folds():
    # The benchmark's normal matrices, 100 x 100 at ridge 0 and 0.1 on the
    # 12 folds of seed 7, each torn into four blocks and merged in two levels.
    results = _run_one_blas_thread(_ERP_CV_SCHUR)
    assert len(results) == 24
    for iterations, budget, reconstruction, orthogonality in results:
        assert 0 < iterations <= budget
        assert reconstruction <= 1e-12
        assert orthogonality <= 1e-12


def test_svd_orthogonality_at_the_widest_erp_layer():
    # Criterion 03 holds ||U^T U - I|| to 1e-10 on inputs up to 200 x 200;
    # this holds the same bound on the 792 x 780 sigmoid h of erp-cv fold 0,
    # nearly as wide as the fold's 792 training rows allow.
    features = grand_average(synth_epochs(seed=7, snr=0.5))
    train_idx, _ = session_kfold(12, 6, 12, n_samples=864).folds[0]
    x = features[train_idx]
    x = apply_normalizer(fit_normalizer(x), x)
    cfg = ElmConfig(hidden_neurons=780, rng_seed=7)
    weights, biases = init_random_layer(cfg, x.shape[1])
    f = svd(hidden_output(x, weights, biases, cfg.activation))
    assert fro(f.u.T @ f.u - np.eye(780)) <= 1e-10


def _sigmoid_hidden(rows, width, seed):
    x = np.random.default_rng(seed).uniform(0.0, 1.0, (rows, 64))
    cfg = ElmConfig(hidden_neurons=width, rng_seed=seed)
    weights, biases = init_random_layer(cfg, 64)
    return hidden_output(x, weights, biases, cfg.activation)


@pytest.mark.parametrize("matrix", ["hidden", "ridge-gram"])
def test_svd_invariants_at_400x200(matrix):
    # Wider than the property sweep: a 400 x 400 Golub-Kahan tridiagonal,
    # torn into 16 blocks and merged in four levels.
    h = _sigmoid_hidden(400, 200, 21)
    a = h if matrix == "hidden" else h.T @ h + 1e-3 * np.eye(200)
    f = svd(a)
    assert fro(f.u.T @ f.u - np.eye(200)) <= 1e-12
    assert fro(f.v.T @ f.v - np.eye(200)) <= 1e-12
    assert fro(a - f.u @ np.diag(f.sigma) @ f.v.T) <= 1e-13 * fro(a)


def _with_zero_columns(*cols, rows=20):
    a = np.random.default_rng(530).standard_normal((rows, 7))
    a[:, list(cols)] = 0.0
    return a


EXACTLY_RANK_DEFICIENT = {
    # The pivoted reduction moves the zero column from first to last.
    "first-column-zero": _with_zero_columns(0),
    "two-zero-columns": _with_zero_columns(1, 4),
    "single-nonzero-column": _with_zero_columns(0, 1, 2, 4, 5, 6),
    "all-zero": np.zeros((20, 7)),
    # A square a goes straight to the pivoted reduction.
    "square-two-zero-columns": _with_zero_columns(1, 4, rows=7),
    "square-all-zero": np.zeros((7, 7)),
}


@pytest.mark.parametrize("case", EXACTLY_RANK_DEFICIENT)
def test_svd_exact_rank_deficiency(case):
    # rp has exactly zero trailing rows here, so only its leading rows are
    # bidiagonalized and v is completed by the left reflectors' columns.
    a = EXACTLY_RANK_DEFICIENT[case]
    f = svd(a)
    null = f.sigma == 0.0
    assert np.count_nonzero(null) == 7 - np.count_nonzero(a.any(axis=0))
    assert fro(f.v.T @ f.v - np.eye(7)) <= 1e-13
    assert fro(f.u.T @ f.u - np.eye(7)) <= 1e-10
    assert np.all(a @ f.v[:, null] == 0.0)
    assert fro(a - f.u @ np.diag(f.sigma) @ f.v.T) <= 1e-14 * max(fro(a), 1.0)


def test_svd_square_singular_psd_gives_an_exact_zero():
    # Columns 2 and 5 of a.T a are equal, so the pivoted reduction keeps
    # their bits equal: once one is the pivot, the other keeps what the
    # reflector leaves below the pivot's diagonal, exact zeros here.
    b = np.random.default_rng(531).standard_normal((20, 7))
    b[:, 5] = b[:, 2]
    a = b.T @ b
    assert np.array_equal(a[:, 5], a[:, 2])
    f = svd(a)
    assert np.count_nonzero(f.sigma == 0.0) == 1 and f.sigma[-1] == 0.0
    assert fro(f.u.T @ f.u - np.eye(7)) <= 1e-13
    assert fro(f.v.T @ f.v - np.eye(7)) <= 1e-13
    assert fro(a - f.u @ np.diag(f.sigma) @ f.v.T) <= 1e-14 * fro(a)


def test_square_svd_skips_the_tall_reduction(monkeypatch):
    # A square a is already m x m; a tall a is reduced to m x m first, and
    # that is the only _householder_reduce call of a full-rank input.
    calls = []
    reduce = linalg._householder_reduce

    def counted(work):
        calls.append(work.shape)
        return reduce(work)

    monkeypatch.setattr(linalg, "_householder_reduce", counted)
    a = np.random.default_rng(61).standard_normal((9, 6))
    svd(a)
    tall, calls[:] = calls[:], []
    svd(a[:6])
    assert calls == []
    assert tall == [(9, 6)]


def test_svd_halves_take_the_householder_qr_only_when_degenerate(monkeypatch):
    # The halves of a full-rank input's eigenvectors are orthonormal to far
    # below sqrt(eps), so one Newton-Schulz step finishes them. A zero
    # input's sigma == 0 pair has halves of norm 1 and 0, which only the
    # Householder QR makes orthonormal.
    calls = []
    factors = linalg._householder_factors

    def counted(work, *args):
        calls.append(work.shape)
        return factors(work, *args)

    monkeypatch.setattr(linalg, "_householder_factors", counted)
    h = _sigmoid_hidden(200, 50, 3)
    for a in (h, h.T @ h + 0.1 * np.eye(50)):
        svd(a)
    assert calls == []
    for a in (np.zeros((4, 2)), np.zeros((20, 7)), np.zeros((7, 7))):
        calls.clear()
        f = svd(a)
        assert calls == [(1, 1), (1, 1)]
        m = a.shape[1]
        assert fro(f.u.T @ f.u - np.eye(m)) <= 1e-13
        assert fro(f.v.T @ f.v - np.eye(m)) <= 1e-13


def test_svd_pivots_only_a_square_or_nearly_rank_deficient_input(monkeypatch):
    # A tall a's r goes to the column-pivoted reduction only when one of its
    # diagonal entries is below _zero_below the largest; a square a has no r
    # of its own and always goes. A wide a is factored through its transpose.
    calls = []
    pivoted = linalg._pivoted_reduce

    def counted(work):
        calls.append(work.shape)
        return pivoted(work)

    monkeypatch.setattr(linalg, "_pivoted_reduce", counted)
    h = _sigmoid_hidden(200, 50, 3)  # r's diagonal ratio min / max is 2.6e-3
    equal = np.random.default_rng(531).standard_normal((20, 7))
    equal[:, 5] = equal[:, 2]  # r's diagonal ratio is 7.1e-17
    cases = {
        "full-rank hidden": (h, 0),
        "full-rank wide": (h.T, 0),
        "zero column": (_with_zero_columns(3), 1),
        "equal columns": (equal, 1),
        "square": (h[:50], 1),
        "square normal matrix": (h.T @ h, 1),
    }
    for name, (a, want) in cases.items():
        calls.clear()
        svd(a)
        assert len(calls) == want, name


def test_svd_route_never_forms_u(monkeypatch):
    # solve reads u only as u.T b: q.T from the tall reduction's blocks,
    # applied block by block, then the m x m top's transpose.
    def no_u(self):
        raise AssertionError("the svd route formed u")

    monkeypatch.setattr(linalg.SvdFactors, "u", property(no_u))
    h = _sigmoid_hidden(200, 50, 3)
    t = np.random.default_rng(5).uniform(0.0, 1.0, 200)
    w = solve_output_weights(h, t, SolverKind.SVD)
    oracle = np.linalg.lstsq(h, t, rcond=None)[0]
    assert fro(w - oracle) <= 1e-10 * fro(oracle)
    with pytest.raises(AssertionError, match="formed u"):
        svd(h).u


def test_reflector_of_a_column_whose_square_underflows():
    # The trailing block sits 1e-160 below the leading entry, so x @ x of
    # each of its columns is subnormal and has lost most of its bits; the
    # reflector is built from the column scaled by a power of two.
    a = np.zeros((8, 6))
    a[0, 0] = 1.0
    a[1:, 1:] = 1e-160 * np.random.default_rng(1).standard_normal((7, 5))
    q = householder_qr(a).q
    f = svd(a)
    for m in (q, f.u, f.v):
        assert fro(m.T @ m - np.eye(6)) <= 1e-12


def test_svd_pairs_whose_norms_underflow_never_rotate():
    # The trailing block sits 1e-100 below the leading entry, so the
    # product of two of its squared column norms underflows to zero. Its
    # singular values must still come out to full relative accuracy,
    # against numpy's on the block scaled up by a power of two, not as
    # column norms that no rotation ever touched.
    a = np.zeros((8, 6))
    a[0, 0] = 1.0
    a[1:, 1:] = 1e-100 * np.random.default_rng(67).standard_normal((7, 5))
    f = svd(a)
    ref = np.append(1.0, np.linalg.svd(a[1:, 1:] * 2.0 ** 332, compute_uv=False) * 2.0 ** -332)
    assert np.all(np.abs(f.sigma - ref) <= 1e-12 * ref)
    assert fro(f.u.T @ f.u - np.eye(6)) <= 1e-13
    assert fro(f.v.T @ f.v - np.eye(6)) <= 1e-13
    assert fro(a - f.u @ np.diag(f.sigma) @ f.v.T) <= 1e-14 * fro(a)


def test_svd_iteration_budget_raises(monkeypatch):
    monkeypatch.setattr(linalg, "EIGEN_ITER_FACTOR", 0)
    with pytest.raises(NoConvergence):
        svd(np.random.default_rng(15).standard_normal((30, 10)))


def test_schur_iteration_budget_raises(monkeypatch):
    monkeypatch.setattr(linalg, "EIGEN_ITER_FACTOR", 0)
    with pytest.raises(NoConvergence):
        schur_decompose(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]))


def test_constructors_reject_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        lu_decompose(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# A float cast would keep only the real part, with at most a ComplexWarning:
# lu_decompose would factor [[2, 0], [0, 1]].
_COMPLEX_CASES = {
    "lu_decompose": (lambda: lu_decompose([[2 + 5j, 0], [0, 1]]), "a"),
    "svd": (lambda: svd(np.eye(3) * 1j), "a"),
    "forward_substitute": (lambda: forward_substitute(np.eye(2), [1j, 0.0]), "t"),
    "factor-solve": (lambda: lu_decompose(np.eye(2)).solve(np.eye(2) + 0j), "b"),
    "solve_output_weights-h": (
        lambda: solve_output_weights(np.ones((3, 2)) + 1j, np.ones(3), SolverKind.LU), "h"),
    "solve_output_weights-targets": (
        lambda: solve_output_weights(np.eye(3), [1j, 0, 1], SolverKind.SVD), "targets"),
    "hat_diagnostic": (lambda: hat_diagnostic(np.eye(3) * (1 + 1j), 0.1), "h"),
    "hidden_output": (lambda: hidden_output([[1.0]], [[1.0]], [0.5j],
                                            elmbench.ActivationKind.IDENTITY), "biases"),
    "fit_normalizer": (lambda: fit_normalizer(np.eye(2, dtype=complex)), "train_features"),
    "train": (lambda: train(np.eye(3, dtype=np.complex64), [0.0, 1.0, 0.0],
                            ElmConfig(hidden_neurons=2)), "train_features"),
    "write_csv": (lambda: write_csv(Dataset(features=np.ones((1, 1)) * 1j, labels=np.zeros(1),
                                            layout=np.zeros((1, 3))), os.devnull),
                  "dataset.features"),
    "grand_average": (lambda: grand_average(EpochSet(data=np.ones((1, 1, 1)) * 1j,
                                                     labels=np.zeros(1),
                                                     layout=np.zeros((1, 3)))),
                      "epochs.data"),
}


@pytest.mark.parametrize("case", list(_COMPLEX_CASES))
def test_public_entry_points_refuse_complex_input(case):
    call, name = _COMPLEX_CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be real"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: lu_decompose(np.ones(3)), "a must be 2-D, got 1-D"),
    (lambda: mgs_qr(np.ones((0, 2))), "a must not be empty"),
    (lambda: solve_output_weights(np.eye(2), np.ones((2, 1)), SolverKind.LU),
     "targets must be 1-D, got 2-D"),
    (lambda: solve_output_weights(np.eye(2), [], SolverKind.LU), "targets must not be empty"),
], ids=["matrix-not-2-D", "matrix-empty", "vector-not-1-D", "vector-empty"])
def test_public_entry_points_refuse_bad_shapes(call, message):
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        call()


# ---------------------------------------------------------------------------
# Factor solve: one factorization, any right-hand side
# ---------------------------------------------------------------------------

def _factor_cases():
    rng = np.random.default_rng(47)
    tall = rng.standard_normal((15, 6))
    sym = tall.T @ tall + np.eye(6)
    return {
        "lu_decompose": (lu_decompose, sym),
        "mgs_qr": (mgs_qr, tall),
        "householder_qr": (householder_qr, tall),
        "hessenberg_reduce": (hessenberg_reduce, sym),
        "schur_decompose": (schur_decompose, sym),
        "svd": (svd, tall),
    }


_FACTOR_CASES = _factor_cases()


@pytest.mark.parametrize("case", list(_FACTOR_CASES))
def test_factor_solve_takes_a_vector_or_columns(case):
    factorize, a = _FACTOR_CASES[case]
    b = np.random.default_rng(53).standard_normal((a.shape[0], 4))
    before = b.copy()
    fac = factorize(a)
    x = fac.solve(b)
    assert x.shape == (a.shape[1], 4)
    for j in range(b.shape[1]):
        xj = fac.solve(b[:, j])
        assert xj.shape == (a.shape[1],)
        assert fro(xj - x[:, j]) <= 1e-13 * fro(x[:, j])
    assert np.array_equal(b, before)
    # a is well conditioned, so the least-squares solution is accurate.
    oracle = np.linalg.lstsq(a, b, rcond=None)[0]
    assert fro(x - oracle) <= 1e-12 * fro(oracle)


@pytest.mark.parametrize("case", list(_FACTOR_CASES))
def test_factor_solve_validates_the_right_hand_side(case):
    factorize, a = _FACTOR_CASES[case]
    fac = factorize(a)
    rows = a.shape[0]
    b = np.arange(1.0, rows + 1.0)
    assert np.array_equal(fac.solve(b.tolist()), fac.solve(b))
    for short_or_long in (b[:-1], np.append(b, 1.0), np.ones((rows + 1, 2))):
        with pytest.raises(DimensionMismatch, match="^b has"):
            fac.solve(short_or_long)
    b[1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        fac.solve(b)


def test_householder_qr_solve_agrees_with_its_blocked_factors():
    # solve applies q.T block by block; the reference forms q from the
    # same blocks and applies it as one product.
    rng = np.random.default_rng(59)
    a = rng.standard_normal((90, 2 * linalg._NB + 3))  # three WY blocks
    f = householder_qr(a)
    assert len(f.blocks) == 3 and (np.diag(f.r) > 0.0).all()
    for b in (rng.standard_normal(90), rng.standard_normal((90, 3))):
        want = backward_substitute(f.r, f.q.T @ b)
        got = f.solve(b)
        assert fro(got - want) <= 1e-12 * fro(want)


def _hh_qr_composition(f, b):
    qtb = b.copy()
    linalg._apply_qt(f.blocks, qtb)
    m = f.r.shape[0]
    return backward_substitute(f.r, qtb[:m] * linalg._by_row(f.signs, qtb))


# The composition through the public wrappers that each solve must match
# bit for bit; hh-qr's applies q.T block by block, as its solve does.
_SOLVE_COMPOSITIONS = {
    lu_decompose: lambda f, b: backward_substitute(f.u, forward_substitute(f.l, b[f.perm])),
    mgs_qr: lambda f, b: backward_substitute(f.r, f.q.T @ b),
    householder_qr: _hh_qr_composition,
    hessenberg_reduce: lambda f, b: f.q @ tridiagonal_solve(f.t, f.q.T @ b),
}


@pytest.mark.parametrize("factorize", [lu_decompose, mgs_qr, householder_qr,
                                       hessenberg_reduce, schur_decompose, svd])
def test_factor_solves_validate_b_once(factorize, monkeypatch):
    rng = np.random.default_rng(61)
    tall = rng.standard_normal((9, 5))
    f = factorize(tall.T @ tall + np.eye(5))
    as_array, calls = linalg._as_array, []
    monkeypatch.setattr(linalg, "_as_array",
                        lambda a, name, ndim: calls.append(name) or as_array(a, name, ndim))
    for b in (rng.standard_normal(5), rng.standard_normal((5, 2))):
        calls.clear()
        x = f.solve(b)
        assert calls == ["b"]
        if factorize in _SOLVE_COMPOSITIONS:
            assert np.array_equal(x, _SOLVE_COMPOSITIONS[factorize](f, b))


def test_svd_solve_rejects_rank_deficient_factors():
    fac = svd(np.ones((10, 3)))
    with pytest.raises(RankDeficient):
        fac.solve(np.ones(10))


@pytest.mark.parametrize("solve", [
    lambda a: lu_decompose(a).solve(np.ones(3)),
    lambda a: mgs_qr(a).solve(np.ones(3)),
    lambda a: householder_qr(a).solve(np.ones(3)),
    lambda a: hessenberg_reduce(a).solve(np.ones(3)),
    lambda a: schur_decompose(a).solve(np.ones(3)),
    lambda a: svd(a).solve(np.ones(3)),
    lambda a: tridiagonal_solve(a, np.ones(3)),
    triangular_inverse,
    lambda a: forward_substitute(a, np.ones(3)),
    lambda a: backward_substitute(a, np.ones(3)),
], ids=["lu_decompose", "mgs_qr", "householder_qr", "hessenberg_reduce",
        "schur_decompose", "svd", "tridiagonal_solve", "triangular_inverse",
        "forward_substitute", "backward_substitute"])
def test_subnormal_pivots_raise(solve):
    # Dividing by a subnormal pivot overflows to inf, so a subnormal pivot
    # counts as zero at any scale, even where it is the largest entry.
    with pytest.raises((SingularMatrix, RankDeficient)):
        solve(1e-320 * np.eye(3))


_SOLVES = {
    "forward_substitute": forward_substitute,
    "backward_substitute": backward_substitute,
    "tridiagonal_solve": tridiagonal_solve,
    **{f.__name__: lambda a, b, f=f: f(a).solve(b)
       for f in (lu_decompose, mgs_qr, householder_qr, hessenberg_reduce,
                 schur_decompose, svd)},
}


@pytest.mark.parametrize("b", [np.array([1.5e308, 1.0]),
                               np.array([[1.5e308, 1.0], [1.0, 1.0]])],
                         ids=["vector", "columns"])
@pytest.mark.parametrize("name", list(_SOLVES))
def test_a_solution_that_overflows_raises(name, b):
    # 0.5 I is well conditioned, but its solution of this finite b is past
    # the largest float. Every solve refuses it as singular for b instead
    # of returning inf or blaming b, and warns of nothing on the way.
    with pytest.raises(SingularMatrix, match="overflows"):
        _SOLVES[name](0.5 * np.eye(2), b)


def _hh_qtb(f, b):
    linalg._apply_qt(f.blocks, b)
    return linalg._finite(b)


_OVERFLOW_INSIDE = {
    # (factorize, a, b, the solve's first step), which already overflows:
    # only the check of the answer is left to catch it.
    "lu": (lu_decompose, [[1.0, 0.0], [-1.0, 0.5]], [1e308, 1e308],
           lambda f, b: forward_substitute(f.l, b[f.perm])),
    "mgs-qr": (mgs_qr, [[0.5, 0.5], [0.5, -0.5]], [1.5e308, 1.5e308],
               lambda f, b: linalg._finite(f.q.T @ b)),
    "hh-qr": (householder_qr, [[0.5, 0.5], [0.5, -0.5]], [1.5e308, 1.5e308], _hh_qtb),
    "hessenberg": (hessenberg_reduce, [[1.0, 1.0], [1.0, 2.0]], [1e308, -1e308],
                   lambda f, b: tridiagonal_solve(f.t, f.q.T @ b)),
}


@pytest.mark.parametrize("columns", [False, True], ids=["vector", "columns"])
@pytest.mark.parametrize("case", list(_OVERFLOW_INSIDE))
def test_a_solve_that_overflows_before_its_last_step_raises(case, columns):
    factorize, a, b, first_step = _OVERFLOW_INSIDE[case]
    b = np.column_stack((b, np.ones(2))) if columns else np.array(b)
    f = factorize(np.array(a))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SingularMatrix, match="overflows"):
        first_step(f, b.copy())
    with pytest.raises(SingularMatrix, match="overflows"):
        f.solve(b)


def test_triangular_inverse_that_overflows_raises():
    # Each pivot passes the relative test, but the corner of the inverse,
    # -1e-291 / (1e-302 * 1e-302), is past the largest float.
    with pytest.raises(SingularMatrix, match="overflows"):
        triangular_inverse(np.array([[1e-302, 1e-291], [0.0, 1e-302]]))


# ---------------------------------------------------------------------------
# Caller data
# ---------------------------------------------------------------------------

def _mutation_cases():
    rng = np.random.default_rng(29)
    tall = rng.standard_normal((12, 5))
    sym = tall.T @ tall + np.eye(5)
    lower = np.tril(rng.standard_normal((5, 5))) + 5.0 * np.eye(5)
    upper = lower.T.copy()
    tri = np.diag(np.full(5, 4.0)) + np.diag(np.ones(4), 1) + np.diag(np.ones(4), -1)
    vec, cols = rng.standard_normal(5), rng.standard_normal((5, 3))
    targets = (rng.random(12) < 0.5).astype(float)
    cases = {
        "lu_decompose": (lu_decompose, sym),
        "mgs_qr": (mgs_qr, tall),
        "householder_qr": (householder_qr, tall),
        "hessenberg_reduce": (hessenberg_reduce, sym),
        "schur_decompose": (schur_decompose, sym),
        "svd": (svd, tall),
        "triangular_inverse": (triangular_inverse, upper),
        "forward_substitute-vector": (forward_substitute, lower, vec),
        "forward_substitute-matrix": (forward_substitute, lower, cols),
        "backward_substitute-vector": (backward_substitute, upper, vec),
        "backward_substitute-matrix": (backward_substitute, upper, cols),
        "tridiagonal_solve-vector": (tridiagonal_solve, tri, vec),
        "tridiagonal_solve-matrix": (tridiagonal_solve, tri, cols),
    }
    for kind in SolverKind:
        for lam in (0.0, 0.1):
            cases[f"solve_output_weights-{kind.value}-{lam}"] = (
                partial(solve_output_weights, solver=kind, ridge_lambda=lam),
                tall, targets)
        cases[f"hat_diagnostic-{kind.value}"] = (
            partial(hat_diagnostic, ridge_lambda=0.1, solver=kind), tall)
    return cases


_MUTATION_CASES = _mutation_cases()


@pytest.mark.parametrize("case", list(_MUTATION_CASES))
def test_never_mutates_caller_data(case):
    fn, *args = _MUTATION_CASES[case]
    before = [arg.copy() for arg in args]
    fn(*args)
    for arg, orig in zip(args, before):
        assert arg.tobytes() == orig.tobytes()


@pytest.mark.parametrize("factorize", [lu_decompose, mgs_qr, householder_qr,
                                       hessenberg_reduce, schur_decompose, svd])
def test_factorization_ignores_memory_order(factorize):
    rng = np.random.default_rng(31)
    a = rng.standard_normal((12, 5))
    if factorize in (lu_decompose, hessenberg_reduce, schur_decompose):
        a = a.T @ a + np.eye(5)
    c_fac, f_fac = factorize(a), factorize(np.asfortranarray(a))
    for field in vars(c_fac):
        c_vals, f_vals = (_stored_arrays(getattr(fac, field)) for fac in (c_fac, f_fac))
        assert len(c_vals) == len(f_vals), field
        for c_val, f_val in zip(c_vals, f_vals):
            assert c_val.shape == f_val.shape and c_val.tobytes() == f_val.tobytes(), field


def test_householder_factors_ignore_their_input_layout():
    # 40 columns span two panels, so the trailing compact-WY update runs
    # too. Reduced in its own layout, an F-ordered copy would differ from
    # the C-ordered one in the last bits.
    a = np.random.default_rng(59).standard_normal((100, 40))
    c_fac = linalg._householder_factors(np.array(a, order="C"))
    f_fac = linalg._householder_factors(np.array(a, order="F"))
    for field in ("r", "signs", "q"):
        assert np.array_equal(getattr(c_fac, field), getattr(f_fac, field)), field


def _stored_arrays(value):
    """Every array a factor field stores; householder_qr's blocks are (j0, v, t) tuples."""
    if isinstance(value, (list, tuple)):
        return [arr for item in value for arr in _stored_arrays(item)]
    return [np.asarray(value)]


def test_package_makes_no_numpy_linalg_call():
    # The routes are compared as written out; numpy.linalg stays a test oracle.
    banned = re.compile(r"\b(np|numpy)\.linalg\b|from numpy import [^\n]*\blinalg\b")
    sources = sorted(Path(elmbench.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            assert not banned.search(line), f"{path.name}:{lineno}: {line.strip()}"


def test_package_reads_no_private_name_of_another_module():
    # A module uses what another exports: the routes reach linalg through
    # its public factorizations only.
    package = Path(elmbench.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    reads = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        siblings = set()  # names bound to sibling modules, as `from . import linalg`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "elmbench"):
                reads += [f"{path.name}:{node.lineno}: {alias.name}"
                          for alias in node.names if private(alias.name)]
                siblings |= {alias.asname or alias.name for alias in node.names
                             if node.module in (None, "elmbench") and alias.name in modules}
        reads += [f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in siblings and private(node.attr)]
    assert not reads


# ---------------------------------------------------------------------------
# Flop model
# ---------------------------------------------------------------------------

def _flop_oracle(kind, m, n):
    m, n = Fraction(m), Fraction(n)
    table = {
        SolverKind.HH_QR: 2 * n * n * (m - n / 3),
        SolverKind.MGS_QR: 2 * m * n * n,
        SolverKind.SVD: 2 * m * n + 11 * n ** 3,
        SolverKind.LU: 2 * n ** 3 / 3,
        SolverKind.HESSENBERG: 10 * n ** 3 / 3,
        SolverKind.SCHUR: 2 * m * n * n,
    }
    return math.floor(table[kind])


def test_flop_svd_reference_point():
    assert flop_estimate(SolverKind.SVD, 100, 50) == 1_385_000


def test_flop_lu_small():
    assert flop_estimate(SolverKind.LU, 5, 3) == 18
    assert flop_estimate(SolverKind.LU, np.int64(5), np.int32(3)) == 18


def test_flop_hessenberg_floor():
    assert flop_estimate(SolverKind.HESSENBERG, 20, 10) == 3333


def test_flop_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        flop_estimate("svd", 3, 2)


@pytest.mark.parametrize("m, n", [(10, 2.9), (1.5, 3), ("5", 3), (5, None),
                                  (0, 3), (5, -1)])
def test_flop_rejects_sizes_that_are_not_positive_integers(m, n):
    # A float would be floored to a wrong count; a string would reach a
    # comparison and raise TypeError.
    with pytest.raises(ValueError, match="^m and n must be positive"):
        flop_estimate(SolverKind.LU, m, n)


@pytest.mark.parametrize("kind", list(SolverKind))
def test_flop_matches_exact_oracle(kind):
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 300))
        m = int(rng.integers(n, 3000))
        assert flop_estimate(kind, m, n) == _flop_oracle(kind, m, n)


def test_flop_pure_and_monotone():
    grid = [1, 2, 5, 10, 40, 100]
    for kind in SolverKind:
        for n in grid:
            for m in grid:
                if m < n:
                    continue
                val = flop_estimate(kind, m, n)
                assert val == flop_estimate(kind, m, n)
                assert flop_estimate(kind, m + 7, n) >= val
                if m >= n + 1:
                    assert flop_estimate(kind, m, n + 1) >= val
