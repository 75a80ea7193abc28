"""Dense real-matrix factorizations, triangular solvers, and a flop-cost model.

Every routine works on plain 2-D float64 numpy arrays, validates its input,
and never mutates caller data. The factorizations are written out explicitly
(numpy is used for array arithmetic only, not for its decomposition routines)
so that each solver route stays self-contained and auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotSymmetric,
    RankDeficient,
    SingularMatrix,
)

# Relative thresholds: pivots/diagonals below PIVOT_RTOL * scale are treated
# as zero; iterative off-diagonals must deflate below DEFLATE_RTOL * ||a||_F.
PIVOT_RTOL = 1e-12
DEFLATE_RTOL = 1e-12
SYMMETRY_RTOL = 1e-10
SVD_MAX_SWEEPS = 60
EIGEN_ITER_FACTOR = 100


class SolverKind(Enum):
    """The six output-weight solution routes."""

    SVD = "svd"
    LU = "lu"
    MGS_QR = "mgs-qr"
    HH_QR = "hh-qr"
    HESSENBERG = "hessenberg"
    SCHUR = "schur"


@dataclass(frozen=True)
class LuFactors:
    """Row-pivoted factorization: a[perm] == l @ u."""

    l: np.ndarray
    u: np.ndarray
    perm: np.ndarray


@dataclass(frozen=True)
class QrFactors:
    """Thin factorization a == q @ r with orthonormal q columns."""

    q: np.ndarray
    r: np.ndarray


@dataclass(frozen=True)
class SimilarityFactors:
    """Orthogonal similarity a == q @ t @ q.T."""

    q: np.ndarray
    t: np.ndarray


@dataclass(frozen=True)
class SvdFactors:
    """Thin singular value decomposition a ~= u @ diag(sigma) @ v.T."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and copy input into a 2-D float64 array with finite entries.

    The copy keeps the input's memory order. LU, both QRs and the Hessenberg
    reduction work on np.ascontiguousarray of it, which copies again only
    Fortran-ordered input, so their results do not depend on that order.
    """
    m = np.array(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got {m.ndim}-D")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatch(f"{name} must have at least one row and column")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    return m


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and copy input into a 1-D float64 array with finite entries."""
    w = np.array(v, dtype=float)
    if w.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got {w.ndim}-D")
    if w.size < 1:
        raise DimensionMismatch(f"{name} must not be empty")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    return w


def _require_square(a: np.ndarray, name: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {a.shape}")


def _require_symmetric(a: np.ndarray, name: str) -> None:
    _require_square(a, name)
    scale = np.abs(a).max()
    if scale > 0.0 and np.abs(a - a.T).max() > SYMMETRY_RTOL * scale:
        raise NotSymmetric(f"{name} is not symmetric to {SYMMETRY_RTOL:g} relative")


# ---------------------------------------------------------------------------
# LU with partial pivoting, forward/backward substitution
# ---------------------------------------------------------------------------

def lu_decompose(a) -> LuFactors:
    """Factor a square matrix with partial (row) pivoting.

    Returns factors with unit lower-triangular l and upper-triangular u such
    that a[perm] == l @ u. Raises SingularMatrix when a pivot falls below
    PIVOT_RTOL relative to the largest entry of a.
    """
    a = as_matrix(a, "a")
    _require_square(a, "a")
    n = a.shape[0]
    scale = np.abs(a).max()
    lu = np.ascontiguousarray(a)
    perm = np.arange(n)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[piv, k]) < PIVOT_RTOL * scale or lu[piv, k] == 0.0:
            raise SingularMatrix(f"pivot {k} below tolerance")
        if piv != k:
            lu[[k, piv]] = lu[[piv, k]]
            perm[[k, piv]] = perm[[piv, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    l = np.tril(lu, -1) + np.eye(n)
    u = np.triu(lu)
    return LuFactors(l=l, u=u, perm=perm)


def _as_rhs(b, name: str) -> np.ndarray:
    """Validate a right-hand side: a vector, or a matrix of columns."""
    arr = np.array(b, dtype=float)
    if arr.ndim == 2:
        return as_matrix(arr, name)
    return as_vector(arr, name)


def forward_substitute(l, t) -> np.ndarray:
    """Solve l @ y = t reading only the lower triangle of l.

    t may be a vector or a matrix of right-hand-side columns.
    """
    l = as_matrix(l, "l")
    t = _as_rhs(t, "t")
    _require_square(l, "l")
    n = l.shape[0]
    if t.shape[0] != n:
        raise DimensionMismatch(f"t has {t.shape[0]} rows, expected {n}")
    y = np.zeros_like(t)
    for i in range(n):
        if l[i, i] == 0.0:
            raise SingularMatrix(f"zero diagonal at row {i}")
        y[i] = (t[i] - l[i, :i] @ y[:i]) / l[i, i]
    return y


def backward_substitute(u, y) -> np.ndarray:
    """Solve u @ w = y reading only the upper triangle of u.

    y may be a vector or a matrix of right-hand-side columns.
    """
    u = as_matrix(u, "u")
    y = _as_rhs(y, "y")
    _require_square(u, "u")
    n = u.shape[0]
    if y.shape[0] != n:
        raise DimensionMismatch(f"y has {y.shape[0]} rows, expected {n}")
    w = np.zeros_like(y)
    for i in range(n - 1, -1, -1):
        if u[i, i] == 0.0:
            raise SingularMatrix(f"zero diagonal at row {i}")
        w[i] = (y[i] - u[i, i + 1:] @ w[i + 1:]) / u[i, i]
    return w


# ---------------------------------------------------------------------------
# Thin QR: modified Gram-Schmidt and Householder reflections
# ---------------------------------------------------------------------------

def mgs_qr(a) -> QrFactors:
    """Thin QR by the modified Gram-Schmidt process.

    Each column is orthogonalized against the already-finished q columns one
    projection at a time, using the partially reduced column for every inner
    product. The diagonal of r is non-negative by construction.
    """
    a = as_matrix(a, "a")
    n, m = a.shape
    if n < m:
        raise DimensionMismatch(f"need rows >= cols, got {a.shape}")
    col_scale = np.sqrt(np.sum(a * a, axis=0))
    q = np.ascontiguousarray(a)
    r = np.zeros((m, m))
    for j in range(m):
        v = q[:, j]
        for i in range(j):
            rij = q[:, i] @ v
            v -= rij * q[:, i]
            r[i, j] = rij
        nrm = math.sqrt(v @ v)
        if nrm < PIVOT_RTOL * col_scale[j] or nrm == 0.0:
            raise RankDeficient(f"column {j} collapsed during orthogonalization")
        r[j, j] = nrm
        v /= nrm
    return QrFactors(q=q, r=r)


def _householder_reduce(work: np.ndarray) -> tuple[list, np.ndarray]:
    """Reduce work (rows >= cols) in place to upper-triangular form.

    Returns the unit reflector of each column, None for a column that is
    already zero on and below the diagonal and so is left alone, and the norm
    each column had there when it was reflected (|r[j, j]|).
    """
    m = work.shape[1]
    reflectors: list[np.ndarray | None] = []
    pivots = np.zeros(m)
    for j in range(m):
        x = work[j:, j]
        nrm = math.sqrt(x @ x)
        pivots[j] = nrm
        if nrm == 0.0:
            reflectors.append(None)
            continue
        v = x.copy()
        v[0] += math.copysign(nrm, x[0]) if x[0] != 0.0 else nrm
        v /= math.sqrt(v @ v)
        work[j:, j:] -= np.outer(v, 2.0 * (v @ work[j:, j:]))
        reflectors.append(v)
    return reflectors, pivots


def _apply_reflectors(reflectors: list, n: int, top: np.ndarray) -> np.ndarray:
    """Return q @ [top; 0], q the n-row product of the stored reflectors.

    The reflectors are applied last to first, reflector j to rows j: only.
    """
    out = np.zeros((n, top.shape[1]))
    out[:top.shape[0]] = top
    for j in range(len(reflectors) - 1, -1, -1):
        v = reflectors[j]
        if v is not None:
            out[j:, :] -= np.outer(v, 2.0 * (v @ out[j:, :]))
    return out


def householder_qr(a) -> QrFactors:
    """Thin QR assembled from successive Householder reflectors.

    Sign convention: the diagonal of r is made non-negative by flipping the
    sign of matching q columns, so r is comparable across QR methods.
    """
    a = as_matrix(a, "a")
    n, m = a.shape
    if n < m:
        raise DimensionMismatch(f"need rows >= cols, got {a.shape}")
    col_scale = np.sqrt(np.sum(a * a, axis=0))
    r_work = np.ascontiguousarray(a)
    reflectors, pivots = _householder_reduce(r_work)
    collapsed = np.flatnonzero((pivots < PIVOT_RTOL * col_scale) | (pivots == 0.0))
    if collapsed.size:
        raise RankDeficient(f"column {collapsed[0]} collapsed during reflection")
    q = _apply_reflectors(reflectors, n, np.eye(m))
    r = np.triu(r_work[:m, :m])
    flip = np.diag(r) < 0.0
    r[flip, :] *= -1.0
    q[:, flip] *= -1.0
    return QrFactors(q=q, r=r)


def triangular_inverse(r) -> np.ndarray:
    """Invert an upper-triangular matrix column by column.

    Raises SingularMatrix when a diagonal entry falls below PIVOT_RTOL
    relative to the largest entry of r.
    """
    r = as_matrix(r, "r")
    _require_square(r, "r")
    scale = np.abs(r).max()
    if np.any(np.abs(np.diag(r)) < PIVOT_RTOL * scale) or np.any(np.diag(r) == 0.0):
        raise SingularMatrix("triangular matrix has a near-zero diagonal entry")
    return backward_substitute(r, np.eye(r.shape[0]))


# ---------------------------------------------------------------------------
# Orthogonal similarity reductions for symmetric matrices
# ---------------------------------------------------------------------------

def hessenberg_reduce(a) -> SimilarityFactors:
    """Reduce a symmetric matrix to tridiagonal form by Householder reflectors.

    Returns q orthogonal and t symmetric tridiagonal with q @ t @ q.T == a
    within round-off. Matrices of size <= 2 are already tridiagonal and are
    returned with q = identity.
    """
    a = as_matrix(a, "a")
    _require_symmetric(a, "a")
    n = a.shape[0]
    work = np.ascontiguousarray(a)
    q = np.eye(n)
    for k in range(n - 2):
        x = work[k + 1:, k]
        nrm = math.sqrt(x @ x)
        if nrm == 0.0:
            continue
        v = x.copy()
        v[0] += math.copysign(nrm, x[0]) if x[0] != 0.0 else nrm
        v /= math.sqrt(v @ v)
        # Two-sided application keeps the trailing block symmetric.
        work[k + 1:, k:] -= 2.0 * np.outer(v, v @ work[k + 1:, k:])
        work[:, k + 1:] -= 2.0 * np.outer(work[:, k + 1:] @ v, v)
        q[:, k + 1:] -= 2.0 * np.outer(q[:, k + 1:] @ v, v)
    diag = np.diag(work).copy()
    off = np.diag(work, -1).copy() if n > 1 else np.zeros(0)
    t = np.diag(diag)
    if n > 1:
        t += np.diag(off, -1) + np.diag(off, 1)
    return SimilarityFactors(q=q, t=t)


def _tridiag_eigen(d: np.ndarray, e: np.ndarray, z: np.ndarray,
                   deflate_tol: float, max_iter: int) -> None:
    """Shifted QL iteration on a tridiagonal (d, e) with rotations folded into z.

    d and z are updated in place; d ends up holding the eigenvalues and the
    columns of z the matching eigenvectors.
    """
    n = d.size
    eps = np.finfo(float).eps
    e = np.append(e, 0.0)
    total = 0
    for l in range(n):
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= max(deflate_tol, eps * dd):
                    break
                m += 1
            if m == l:
                break
            total += 1
            if total > max_iter:
                raise NoConvergence(
                    f"off-diagonal failed to deflate within {max_iter} sweeps")
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
                zi = z[:, i].copy()
                zi1 = z[:, i + 1].copy()
                z[:, i + 1] = s * zi + c * zi1
                z[:, i] = c * zi - s * zi1
            if not restart:
                d[l] -= p
                e[l] = g
                e[m] = 0.0


def schur_decompose(a) -> SimilarityFactors:
    """Real Schur form of a symmetric (PSD in practice) matrix.

    Tridiagonalizes with Householder reflectors, then drives the off-diagonal
    to zero with shifted QL iterations. For symmetric input t is diagonal with
    eigenvalues in descending order; q columns are permuted to match.
    """
    a = as_matrix(a, "a")
    _require_symmetric(a, "a")
    n = a.shape[0]
    base = hessenberg_reduce(a)
    d = np.diag(base.t).copy()
    e = np.diag(base.t, -1).copy() if n > 1 else np.zeros(0)
    z = base.q
    fro = math.sqrt(float(np.sum(a * a)))
    _tridiag_eigen(d, e, z, DEFLATE_RTOL * fro, EIGEN_ITER_FACTOR * n)
    order = np.argsort(d)[::-1]
    return SimilarityFactors(q=z[:, order], t=np.diag(d[order]))


def tridiagonal_solve(t, b) -> np.ndarray:
    """Solve t @ x = b for tridiagonal t without forming an inverse.

    b may be a vector or a matrix of right-hand-side columns; only the three
    central diagonals of t are read, so the cost is O(n) per column. Raises
    SingularMatrix when an elimination pivot vanishes.
    """
    t = as_matrix(t, "t")
    _require_square(t, "t")
    n = t.shape[0]
    b_arr = np.array(b, dtype=float)
    vector_input = b_arr.ndim == 1
    if vector_input:
        b_arr = b_arr[:, None]
    if b_arr.shape[0] != n:
        raise DimensionMismatch(f"b has {b_arr.shape[0]} rows, expected {n}")
    if not np.all(np.isfinite(b_arr)):
        raise ValueError("b contains NaN or infinite entries")
    scale = max(np.abs(t).max(), 1.0)
    diag = np.diag(t).copy()
    lower = np.diag(t, -1).copy() if n > 1 else np.zeros(0)
    upper = np.diag(t, 1).copy() if n > 1 else np.zeros(0)
    rhs = np.ascontiguousarray(b_arr)
    # Thomas elimination: sweep down, then back-substitute.
    for i in range(1, n):
        piv = diag[i - 1]
        if abs(piv) < PIVOT_RTOL * scale:
            raise SingularMatrix(f"vanishing pivot at row {i - 1}")
        w = lower[i - 1] / piv
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    if abs(diag[n - 1]) < PIVOT_RTOL * scale:
        raise SingularMatrix(f"vanishing pivot at row {n - 1}")
    x = np.zeros_like(rhs)
    x[n - 1] = rhs[n - 1] / diag[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (rhs[i] - upper[i] * x[i + 1]) / diag[i]
    return x[:, 0] if vector_input else x


# ---------------------------------------------------------------------------
# One-sided Jacobi SVD
# ---------------------------------------------------------------------------

def _round_robin(m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Round-robin (Brent-Luk) schedule of disjoint column pairs for one sweep.

    Returns one (p, q) pair of index arrays per round, with p < q; together
    the rounds meet every pair of range(m) exactly once. The last slot stays
    put while the others move one place round a ring each round, so a sweep
    is m - 1 rounds of m/2 pairs. Odd m is padded with a column that sits
    out, giving m rounds of (m - 1)/2 pairs.
    """
    slots = m + m % 2
    ring = slots - 1
    r = np.arange(ring)[:, None]
    offsets = np.arange(1, slots // 2)
    i = np.hstack((r, (r + offsets) % ring))
    j = np.hstack((np.full_like(r, ring), (r - offsets) % ring))
    if m % 2:
        i, j = i[:, 1:], j[:, 1:]
    return [(p, q) for p, q in zip(np.minimum(i, j), np.maximum(i, j)) if p.size]


def svd(a) -> SvdFactors:
    """Thin SVD by QR-preconditioned one-sided Jacobi in round-robin order.

    A wide matrix is factored through its transpose. A tall n x m matrix is
    first reduced by Householder reflectors to its m x m triangular factor r.
    The columns of r are then rotated pairwise until mutually orthogonal,
    each round rotating a round-robin set of disjoint pairs at once; their
    norms become the singular values (sorted descending) and the accumulated
    rotations give v. The normalized columns are mapped back through the
    reflectors to give u. Columns whose singular value underflows are
    completed to an orthonormal basis so u always has orthonormal columns.
    """
    a = as_matrix(a, "a")
    wide = a.shape[0] < a.shape[1]
    if wide:
        a = np.ascontiguousarray(a.T)
    n, m = a.shape
    reflectors, _ = _householder_reduce(a)
    # Row i holds column i of r followed by column i of v, so one gather
    # fetches everything a round rotates. Each round's pairs are interleaved
    # (p0, q0, p1, q1, ...) so a pair is one 2 x 2m slab of the gather.
    rows = np.zeros((m, 2 * m))
    rows[:, :m] = np.triu(a[:m]).T
    rows[:, m:] = np.eye(m)
    rounds = [np.column_stack((p, q)).ravel() for p, q in _round_robin(m)]
    tol = DEFLATE_RTOL
    for _ in range(SVD_MAX_SWEEPS):
        # Squared column norms are refreshed once per sweep and then tracked
        # through the exact rotation update.
        norms2 = np.einsum("ij,ij->i", rows[:, :m], rows[:, :m])
        rotated = False
        for pq in rounds:
            half = pq.size // 2
            pair = rows[pq].reshape(half, 2, 2 * m)
            n2 = norms2[pq].reshape(half, 2)
            npp, nqq = n2[:, 0], n2[:, 1]
            g = np.einsum("ij,ij->i", pair[:, 0, :m], pair[:, 1, :m])
            # Columns with underflowed norms are numerically zero and cannot
            # be rotated against anything; the rest rotate only when their
            # cosine exceeds the threshold.
            live = (np.minimum(npp, nqq) > 0.0) & (np.abs(g) > tol * np.sqrt(npp * nqq))
            if not live.any():
                continue
            rotated = True
            tau = (nqq - npp) / (2.0 * np.where(live, g, 1.0))
            at = np.abs(tau)
            t = np.where(at > 1e8, 0.5 / np.maximum(at, 1e8),  # asymptotic form
                         1.0 / (at + np.hypot(1.0, at)))
            t = np.copysign(t * live, tau)  # identity rotation below threshold
            c = 1.0 / np.hypot(1.0, t)
            s = c * t
            rot = np.empty((half, 2, 2))
            rot[:, 0, 0] = c
            rot[:, 0, 1] = -s
            rot[:, 1, 0] = s
            rot[:, 1, 1] = c
            rows[pq] = (rot @ pair).reshape(2 * half, 2 * m)
            n2 += (t * g)[:, None] * [-1.0, 1.0]
            norms2[pq] = np.maximum(n2, 0.0).ravel()
        if not rotated:
            break
    else:
        raise NoConvergence(f"columns not orthogonal after {SVD_MAX_SWEEPS} sweeps")
    sigma_all = np.sqrt(np.einsum("ij,ij->i", rows[:, :m], rows[:, :m]))
    order = np.argsort(sigma_all)[::-1]
    sigma = sigma_all[order]
    v = np.ascontiguousarray(rows[order, m:].T)
    u_r = np.zeros((m, m))
    floor = sigma[0] * np.finfo(float).eps if sigma[0] > 0.0 else 0.0
    alive = (sigma > floor) & (sigma > 0.0)
    u_r[:, alive] = rows[order[alive], :m].T / sigma[alive]
    if not alive.all():
        _fill_orthonormal(u_r, np.flatnonzero(~alive).tolist())
    u = _apply_reflectors(reflectors, n, u_r)
    if wide:
        return SvdFactors(u=v, sigma=sigma, v=u)
    return SvdFactors(u=u, sigma=sigma, v=v)


def _fill_orthonormal(u: np.ndarray, dead: list[int]) -> None:
    """Replace the listed columns with unit vectors orthogonal to the rest."""
    n = u.shape[0]
    filled = [idx for idx in range(u.shape[1]) if idx not in dead]
    for idx in dead:
        for basis in range(n):
            cand = np.zeros(n)
            cand[basis] = 1.0
            for _ in range(2):
                for other in filled:
                    cand -= (u[:, other] @ cand) * u[:, other]
            nrm = math.sqrt(cand @ cand)
            if nrm > 0.1:
                u[:, idx] = cand / nrm
                filled.append(idx)
                break


# ---------------------------------------------------------------------------
# Flop-count model
# ---------------------------------------------------------------------------

def flop_estimate(method: SolverKind, m: int, n: int) -> int:
    """Flop count of factorizing an m x n matrix with the given method.

    The counts follow the standard cost model for each factorization, floored
    to an integer. m is the row count and n the column count; the published
    convention has the row dimension dominating (m >= n), and the formulas
    are applied verbatim for any positive pair.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    m = int(m)
    n = int(n)
    if method is SolverKind.HH_QR:
        return (6 * n * n * m - 2 * n ** 3) // 3
    if method is SolverKind.MGS_QR:
        return 2 * m * n * n
    if method is SolverKind.SVD:
        return 2 * m * n + 11 * n ** 3
    if method is SolverKind.LU:
        return (2 * n ** 3) // 3
    if method is SolverKind.HESSENBERG:
        return (10 * n ** 3) // 3
    if method is SolverKind.SCHUR:
        return 2 * m * n * n
    raise ValueError(f"unknown method {method!r}")
