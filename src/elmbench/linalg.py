"""Dense real-matrix factorizations, triangular solvers, and a flop-cost model.

Every routine works on plain 2-D float64 numpy arrays, validates its input,
and never mutates caller data. The factorizations are written out explicitly
(numpy is used for array arithmetic only, not for its decomposition routines)
so that each solver route stays self-contained and auditable.
"""

from __future__ import annotations

import math
import numbers
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

# Thresholds: a pivot or diagonal below _zero_below(scale), PIVOT_RTOL * scale
# floored at LAPACK's safe minimum, is zero.
PIVOT_RTOL = 1e-12
SYMMETRY_RTOL = 1e-10
SVD_MAX_SWEEPS = 60
EIGEN_ITER_FACTOR = 100
# Reflectors per compact-WY block of the Householder kernel. Of 16, 24, 32
# and 48, 32 gave the fastest reduction at 5000x500 and was within timing
# noise of the fastest reduction plus q at 792x100 (1 BLAS thread).
_NB = 32


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

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with a @ x == b, b a vector or a matrix of columns."""
        b = _as_rhs(b, "b", self.perm.size)
        return backward_substitute(self.u, forward_substitute(self.l, b[self.perm]))


@dataclass(frozen=True)
class QrFactors:
    """Thin factorization a == q @ r with orthonormal q columns."""

    q: np.ndarray
    r: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Least-squares x for a @ x ~= b, b a vector or a matrix of columns."""
        return backward_substitute(self.r, self.q.T @ _as_rhs(b, "b", self.q.shape[0]))


@dataclass(frozen=True)
class SimilarityFactors:
    """Orthogonal similarity a == q @ t @ q.T.

    iterations counts the QL iterations Schur used (budget
    EIGEN_ITER_FACTOR * n); a direct reduction reports 0.
    """

    q: np.ndarray
    t: np.ndarray
    iterations: int = 0

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with a @ x == b, b a vector or a matrix of columns."""
        b = _as_rhs(b, "b", self.q.shape[0])
        return self.q @ tridiagonal_solve(self.t, self.q.T @ b)


@dataclass(frozen=True)
class SvdFactors:
    """Thin singular value decomposition a ~= u @ diag(sigma) @ v.T.

    sweeps counts the Jacobi sweeps run (budget SVD_MAX_SWEEPS), the last
    one being the sweep that found nothing left to rotate.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    sweeps: int = 0

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Least-squares x for a @ x ~= b; RankDeficient below _zero_below(sigma[0])."""
        b, s = _as_rhs(b, "b", self.u.shape[0]), self.sigma
        if s[-1] < _zero_below(s[0]):
            raise RankDeficient("singular values collapse below tolerance")
        return self.v @ ((self.u.T @ b) / _by_row(s, b))


def _by_row(d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d shaped to scale the rows of b, a vector or a matrix of columns."""
    return d if b.ndim == 1 else d[:, None]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and copy input into a C-ordered 2-D float64 array with finite entries.

    The factorizations work in place on this copy, so their results do not
    depend on the input's memory order.
    """
    m = np.array(a, dtype=float, order="C")
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


def _zero_below(scale):
    """PIVOT_RTOL * scale, elementwise, floored so a subnormal pivot counts as zero."""
    return np.maximum(PIVOT_RTOL * scale, np.finfo(float).tiny)


def _unit_scale(work: np.ndarray) -> float:
    """Divide work in place by the power of two at or below max |work|; return it.

    Sums of squares of the scaled entries neither overflow nor underflow
    (Blue, ACM TOMS 4(1), 1978), and a power of two rounds nothing: the scale
    multiplied back into sigma, r or t gives the unscaled factorization's bits.
    """
    scale = math.ldexp(0.5, math.frexp(np.abs(work).max())[1])
    work /= scale
    return scale


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
    _zero_below the largest entry of a.
    """
    lu = as_matrix(a, "a")
    _require_square(lu, "a")
    n = lu.shape[0]
    floor = _zero_below(np.abs(lu).max())
    perm = np.arange(n)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[piv, k]) < floor:
            raise SingularMatrix(f"pivot {k} below tolerance")
        if piv != k:
            lu[[k, piv]] = lu[[piv, k]]
            perm[[k, piv]] = perm[[piv, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    l = np.tril(lu, -1) + np.eye(n)
    u = np.triu(lu)
    return LuFactors(l=l, u=u, perm=perm)


def _as_rhs(b, name: str, rows: int) -> np.ndarray:
    """A validated copy of b, a vector or a matrix of columns, with rows rows."""
    b = as_matrix(b, name) if np.ndim(b) == 2 else as_vector(b, name)
    if b.shape[0] != rows:
        raise DimensionMismatch(f"{name} has {b.shape[0]} rows, expected {rows}")
    return b


def _square_system(a, b, a_name: str, b_name: str) -> tuple[np.ndarray, np.ndarray]:
    """Validate a square matrix a and a right-hand side b with as many rows."""
    a = as_matrix(a, a_name)
    _require_square(a, a_name)
    return a, _as_rhs(b, b_name, a.shape[0])


def _substitute(tri: np.ndarray, rhs: np.ndarray, lower: bool) -> np.ndarray:
    """Solve tri @ x = rhs reading only the lower or the upper triangle of tri."""
    n = tri.shape[0]
    x = np.zeros_like(rhs)
    floor = _zero_below(0.0)  # zero or subnormal: judges structure, not size
    for i in range(n) if lower else range(n - 1, -1, -1):
        if abs(tri[i, i]) < floor:
            raise SingularMatrix(f"zero or subnormal diagonal at row {i}")
        done = slice(0, i) if lower else slice(i + 1, n)
        x[i] = (rhs[i] - tri[i, done] @ x[done]) / tri[i, i]
    return x


def forward_substitute(l, t) -> np.ndarray:
    """Solve l @ y = t reading only the lower triangle of l.

    t may be a vector or a matrix of right-hand-side columns.
    """
    return _substitute(*_square_system(l, t, "l", "t"), lower=True)


def backward_substitute(u, y) -> np.ndarray:
    """Solve u @ w = y reading only the upper triangle of u.

    y may be a vector or a matrix of right-hand-side columns.
    """
    return _substitute(*_square_system(u, y, "u", "y"), lower=False)


# ---------------------------------------------------------------------------
# Thin QR: modified Gram-Schmidt and Householder reflections
# ---------------------------------------------------------------------------

def _tall_work(a) -> tuple[np.ndarray, float, np.ndarray]:
    """Unit-scaled copy of a (rows >= cols), its scale, and _zero_below each column norm."""
    a = as_matrix(a, "a")
    if a.shape[0] < a.shape[1]:
        raise DimensionMismatch(f"need rows >= cols, got {a.shape}")
    scale = _unit_scale(a)
    return a, scale, _zero_below(np.sqrt(np.sum(a * a, axis=0)) * scale)


def mgs_qr(a) -> QrFactors:
    """Thin QR by the modified Gram-Schmidt process, right-looking.

    Each finished q column is projected out of every later column at once,
    so each column still gets its projections in order, each inner product
    taken with the partially reduced column. r has a non-negative diagonal.
    """
    a, scale, floor = _tall_work(a)
    n, m = a.shape
    # The matrix is worked on transposed, so each column is a contiguous row.
    qt = np.ascontiguousarray(a.T)
    r = np.zeros((m, m))
    for j in range(m):
        v = qt[j]
        nrm = math.sqrt(v @ v)
        if nrm * scale < floor[j]:
            raise RankDeficient(f"column {j} collapsed during orthogonalization")
        r[j, j] = nrm
        v /= nrm
        r[j, j + 1:] = qt[j + 1:] @ v
        qt[j + 1:] -= np.outer(r[j, j + 1:], v)
    return QrFactors(q=np.ascontiguousarray(qt.T), r=r * scale)


def _reflector(x: np.ndarray) -> np.ndarray:
    """Unit v with (I - 2 v v.T) @ x a multiple of e_0; zero, the identity, if x == 0.

    The leading entry is shifted away from zero, so v @ v cannot cancel.
    """
    nrm = math.sqrt(x @ x)
    if nrm == 0.0:
        return np.zeros_like(x)
    v = x.copy()
    v[0] += math.copysign(nrm, x[0]) if x[0] != 0.0 else nrm
    v /= math.sqrt(v @ v)
    return v


def _compact_wy(block: list, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Compact-WY form of a block of consecutive reflectors on their rows.

    Reflector i of the block acts on rows i: of the block's rows. Returns
    v (rows x k), whose column i is reflector i below i leading zeros, and
    the upper-triangular t such that H_0 H_1 ... H_k-1 == I - v @ t @ v.T.
    A zero reflector is a zero column of v; its row and column of t are then
    zero off the diagonal, so its factor is the identity.
    """
    vt = np.zeros((len(block), rows))
    for i, u in enumerate(block):
        vt[i, i:] = u
    g = vt @ vt.T
    t = 2.0 * np.eye(len(block))
    for i in range(1, len(block)):
        t[:i, i] = -2.0 * (t[:i, :i] @ g[:i, i])
    return vt.T, t


def _wy_blocks(reflectors: list, n: int) -> list:
    """Compact-WY blocks (j0, v, t) of a flat list of reflectors on n rows.

    Reflector j acts on rows j:. Each block holds _NB consecutive
    reflectors from j0 on, as _compact_wy forms them on rows j0:.
    """
    return [(j0, *_compact_wy(reflectors[j0:j0 + _NB], n - j0))
            for j0 in range(0, len(reflectors), _NB)]


def _apply_qt(blocks: list, c: np.ndarray) -> None:
    """Overwrite c, a vector or a matrix of columns, with q.T @ c.

    q is the product of the blocks' reflectors, each block a compact-WY
    factor I - v t v.T on rows j0:. They are applied first to last, as
    c -= v (t.T (v.T c)) on rows j0: (LAPACK's dormqr; Schreiber & Van
    Loan, SIAM J. Sci. Stat. Comput. 10(1), 1989). A column that is zero on
    those rows stays exactly zero, since v.T c is zero for it.
    """
    for j0, v, t in blocks:
        rows = c[j0:]
        rows -= v @ (t.T @ (v.T @ rows))


def _householder_reduce(work: np.ndarray) -> list:
    """Reduce work (rows >= cols) in place to upper-triangular form.

    Returns the compact-WY blocks (j0, v, t) of the reflectors, one per
    panel of _NB columns, as _wy_blocks forms them. A column already zero
    on and below the diagonal gets a zero reflector, the identity. Inside a
    panel each reflector updates the panel's remaining columns only; then
    the panel's block updates every column right of it at once, through
    _apply_qt.
    """
    n, m = work.shape
    blocks = []
    for j0 in range(0, m, _NB):
        j1 = min(j0 + _NB, m)
        # The panel is reduced transposed, so each column is a contiguous row.
        panel = np.ascontiguousarray(work[j0:, j0:j1].T)
        reflectors = []
        for i in range(j1 - j0):
            v = _reflector(panel[i, i:])
            panel[i:, i:] -= np.outer(2.0 * (panel[i:, i:] @ v), v)
            reflectors.append(v)
        work[j0:, j0:j1] = panel.T
        blocks.append((j0, *_compact_wy(reflectors, n - j0)))
        if j1 < m:
            _apply_qt(blocks[-1:], work[:, j1:])
    return blocks


def _pivoted_reduce(work: np.ndarray) -> tuple[list, np.ndarray]:
    """Reduce a square work in place to upper-triangular form, pivoting columns.

    Returns the compact-WY blocks of the reflectors, as _householder_reduce
    does, and perm with work[:, perm] == q r for the input work. Step j
    swaps the remaining column of largest norm over rows j: into place
    (Businger & Golub, Numer. Math. 7, 1965), so |r[j, j]| >= ||r[j:, k]||
    for every k > j. The reduction is unblocked, since a pivot choice needs
    the norms after every previous step; its reflectors are blocked once,
    at the end.
    """
    m = work.shape[1]
    # Reduced transposed, so each column is a contiguous row.
    wt = np.ascontiguousarray(work.T)
    perm = np.arange(m)
    reflectors: list[np.ndarray] = []
    for j in range(m):
        rest = wt[j:, j:]
        p = j + int(np.argmax(np.einsum("ij,ij->i", rest, rest)))
        if p != j:
            wt[[j, p]] = wt[[p, j]]
            perm[[j, p]] = perm[[p, j]]
        v = _reflector(wt[j, j:])
        rest -= np.outer(2.0 * (rest @ v), v)
        reflectors.append(v)
    work[:] = wt.T
    return _wy_blocks(reflectors, m), perm


def _apply_reflectors(blocks: list, n: int, top: np.ndarray) -> np.ndarray:
    """Return q @ [top; 0], q the n-row product of the compact-WY blocks.

    Every orthogonal factor that is formed at all is formed here: q of
    hessenberg_reduce from top = identity, q of householder_qr from its
    diagonal of signs, the SVD's u from its rotated triangular factor. The
    blocks are applied last to first, block j0 to rows j0: as
    out -= v (t (v.T out)), reusing the v and t that the reduction built.
    When top is upper triangular, as a diagonal is, columns < j0 are still
    zero in rows j0: when block j0 comes, so it cannot change them and is
    applied to columns j0: only.
    """
    out = np.zeros((n, top.shape[1]))
    out[:top.shape[0]] = top
    triangular = not np.tril(top, -1).any()
    for j0, v, t in reversed(blocks):
        block = out[j0:, j0 if triangular else 0:]
        block -= v @ (t @ (v.T @ block))
    return out


@dataclass(frozen=True)
class _HouseholderFactors:
    """a == q[:, :m] @ r, q kept as compact-WY blocks and formed only when read.

    r has a non-negative diagonal: its row j is the reduced row j times
    signs[j], the sign that reflector j left on the diagonal.
    """

    blocks: list
    r: np.ndarray
    signs: np.ndarray

    @property
    def q(self) -> np.ndarray:
        """The thin orthonormal factor, its column j times signs[j]."""
        return _apply_reflectors(self.blocks, self.blocks[0][1].shape[0],
                                 np.diag(self.signs))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Least-squares x for a @ x ~= b, applying q.T block by block."""
        qtb = _as_rhs(b, "b", self.blocks[0][1].shape[0])  # block 0 spans all rows
        _apply_qt(self.blocks, qtb)
        m = self.r.shape[0]
        qtb[:m] *= _by_row(self.signs, qtb)
        return backward_substitute(self.r, qtb[:m])


def householder_qr(a) -> _HouseholderFactors:
    """Thin QR by blocked (compact-WY) Householder reflections, a with rows >= cols.

    Returns the compact-WY blocks of q, as _householder_reduce gives them,
    and the m x m upper-triangular r with a == q[:, :m] @ r. Sign
    convention: the diagonal of r is made non-negative by flipping the sign
    of matching q columns, so r is comparable across QR methods. q is formed
    from the blocks only when read; solve applies q.T block by block.
    Raises RankDeficient, naming the first column whose pivot falls below
    _zero_below that column's norm in a.
    """
    a, scale, floor = _tall_work(a)
    n, m = a.shape
    blocks = _householder_reduce(a)
    r = np.triu(a[:m, :m]) * scale
    # |r[j, j]| is the norm column j had on and below the diagonal when it
    # was reflected.
    collapsed = np.flatnonzero(np.abs(np.diag(r)) < floor)
    if collapsed.size:
        raise RankDeficient(f"column {collapsed[0]} collapsed during reflection")
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return _HouseholderFactors(blocks=blocks, r=r * signs[:, None], signs=signs)


def triangular_inverse(r) -> np.ndarray:
    """Invert an upper-triangular matrix column by column.

    Raises SingularMatrix when a diagonal entry falls below _zero_below the
    largest entry of r.

    No solver route calls it: the QR routes solve r by backward_substitute.
    It stays public because the traced benchmark run (bench/tracing.py)
    wraps it by name and reports its per-layer metrics; it goes when those
    do.
    """
    r = as_matrix(r, "r")
    _require_square(r, "r")
    if np.any(np.abs(np.diag(r)) < _zero_below(np.abs(r).max())):
        raise SingularMatrix("triangular matrix has a near-zero diagonal entry")
    return _substitute(r, np.eye(r.shape[0]), lower=False)


# ---------------------------------------------------------------------------
# Orthogonal similarity reductions for symmetric matrices
# ---------------------------------------------------------------------------

def hessenberg_reduce(a) -> SimilarityFactors:
    """Reduce a symmetric matrix to tridiagonal form by Householder reflectors.

    Returns q orthogonal and t symmetric tridiagonal with q @ t @ q.T == a
    within round-off. Matrices of size <= 2 are already tridiagonal and are
    returned with q = identity.

    Step k takes reflector v from column k below the diagonal, records the
    sub-diagonal entry it leaves there, and updates the trailing block
    A = work[k + 1:, k + 1:] only, by the symmetric rank-2 update
    A -= v w.T + w v.T with y = A v and w = 2 (y - (v.T y) v), as one
    (s x 2) @ (2 x s) product (the update of LAPACK's dsytrd; Dongarra,
    Hammarling & Sorensen, J. Comput. Appl. Math. 27, 1989). Rows and
    columns <= k are never touched again. t is assembled from the diagonal
    and the recorded sub-diagonal, so it is exactly symmetric.
    """
    work = as_matrix(a, "a")
    _require_symmetric(work, "a")
    n = work.shape[0]
    scale = _unit_scale(work)
    # Reflector k acts on rows k + 1:, so it is stored at index k + 1.
    reflectors = [np.zeros(n)]
    off = np.zeros(n - 1)
    # [v w] and [w; v]: their product is v w.T + w v.T.
    vw = np.empty((n, 2))
    wv = np.empty((2, n))
    for k in range(n - 2):
        x = work[k + 1:, k]
        v = _reflector(x)
        reflectors.append(v)
        off[k] = x[0] - 2.0 * (v @ x) * v[0]
        trailing = work[k + 1:, k + 1:]
        y = trailing @ v
        size = n - k - 1
        left, right = vw[:size], wv[:, :size]
        left[:, 0] = right[1] = v
        left[:, 1] = right[0] = 2.0 * (y - (v @ y) * v)
        trailing -= left @ right
    # The last sub-diagonal entry is final only once the last step is done.
    if n > 1:
        off[n - 2] = work[n - 1, n - 2]
    t = (np.diag(np.diag(work)) + np.diag(off, -1) + np.diag(off, 1)) * scale
    q = _apply_reflectors(_wy_blocks(reflectors, n), n, np.eye(n))
    return SimilarityFactors(q=q, t=t)


def _rotations(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Blocks [[c, -s], [s, c]] that turn each row pair p, q into c p - s q, s p + c q."""
    rot = np.empty((c.size, 2, 2))
    rot[:, 0, 0] = rot[:, 1, 1] = c
    rot[:, 0, 1] = -s
    rot[:, 1, 0] = s
    return rot


def _tridiag_eigen(d: np.ndarray, e: np.ndarray, zt: np.ndarray,
                   max_iter: int) -> tuple[np.ndarray, int]:
    """Shifted QL iteration on a tridiagonal (d, e) with rotations folded into zt.

    Returns the eigenvalues and the number of QL iterations used; the rows of
    zt, updated in place, become the matching eigenvectors. e[m] deflates
    once |e[m]| <= eps * (|d[m]| + |d[m + 1]|), relative to its own
    neighbours, so small eigenvalues keep their relative accuracy. It works
    in three steps:

    - record: the scalar QL loop runs on Python floats, which are faster
      here than numpy's, and records each rotation of rows i and i + 1 as
      (layer, i, c, s) in four flat lists instead of applying it. The
      rotation goes to the first layer k past every layer that touched row
      i or row i + 1 with k + i even. Layers only move later, so every row
      meets its rotations in recorded order; all pairs of a layer start on
      rows of one parity, so they are disjoint, consecutive pairs of one
      slab of zt;
    - blocks: one (slots, 2, 2) array holds every layer's rotations, slab
      by slab, with the identity on each pair of a slab that its layer
      does not turn;
    - apply: each layer rotates its slab in place, as a strided view of
      zt, by one batched 2 x 2 product. No rows are gathered or scattered,
      and an identity block changes no bit.

    Rotations of one layer commute, so zt ends as the recorded order leaves
    it. This is the wavefront order of Van Zee, van de Geijn & Quintana-Orti,
    "Restructuring the tridiagonal and bidiagonal QR algorithms for
    performance" (ACM TOMS 40(3), 2014).
    """
    n = d.size
    eps = float(np.finfo(float).eps)
    d, e = d.tolist(), e.tolist() + [0.0]
    depth = [0] * n
    # Rotation j is in layer layer_of[j] and turns rows row_of[j] and
    # row_of[j] + 1 by cos_of[j], sin_of[j]. The appends are bound once,
    # outside the hot loop.
    layer_of: list[int] = []
    row_of: list[int] = []
    cos_of: list[float] = []
    sin_of: list[float] = []
    add_layer, add_row = layer_of.append, row_of.append
    add_cos, add_sin = cos_of.append, sin_of.append
    total = 0
    for l in range(n):
        while True:
            m = l
            while m < n - 1:
                if abs(e[m]) <= eps * (abs(d[m]) + abs(d[m + 1])):
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
                k, k1 = depth[i], depth[i + 1]
                if k1 > k:
                    k = k1
                k += (k + i) & 1
                depth[i] = depth[i + 1] = k + 1
                add_layer(k)
                add_row(i)
                add_cos(c)
                add_sin(s)
            if not restart:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    layer = np.array(layer_of, dtype=np.intp)
    row = np.array(row_of, dtype=np.intp)
    lo = np.full(max(depth), n)  # depth[i] is one past row i's last layer
    hi = np.full(max(depth), -1)
    np.minimum.at(lo, layer, row)
    np.maximum.at(hi, layer, row)
    # Layer k owns the slab zt[lo[k]:hi[k] + 2], as (hi[k] - lo[k]) / 2 + 1
    # consecutive row pairs; a layer the parity rule left empty owns the
    # empty slab zt[n:n].
    pairs = np.where(hi < lo, 0, (hi - lo) // 2 + 1)
    start = np.cumsum(pairs) - pairs
    slots = int(pairs.sum())
    slot = start[layer] + (row - lo[layer]) // 2
    # A pair its layer does not turn keeps c = 1, s = 0: the identity.
    c = np.ones(slots)
    s = np.zeros(slots)
    c[slot] = cos_of
    s[slot] = sin_of
    rot = _rotations(c, s)
    for first, j0, j1 in zip(lo.tolist(), start.tolist(), (start + pairs).tolist()):
        blk = zt[first:first + 2 * (j1 - j0)].reshape(j1 - j0, 2, n)
        blk[...] = rot[j0:j1] @ blk
    return np.array(d), total


@dataclass(frozen=True)
class _SchurFactors(SimilarityFactors):
    """SimilarityFactors whose t is diagonal: the eigenvalues, descending."""

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with a @ x == b; SingularMatrix below _zero_below(max |t|)."""
        b, eigs = _as_rhs(b, "b", self.q.shape[0]), np.diag(self.t)
        if np.abs(eigs).min() < _zero_below(np.abs(eigs).max()):
            raise SingularMatrix("eigenvalue of the normal matrix is below tolerance")
        return self.q @ ((self.q.T @ b) / _by_row(eigs, b))


def schur_decompose(a) -> SimilarityFactors:
    """Real Schur form of a symmetric (PSD in practice) matrix.

    Tridiagonalizes with Householder reflectors, then drives the off-diagonal
    to zero with shifted QL iterations; an off-diagonal entry deflates below
    eps times the sum of its two diagonal neighbours. t is diagonal with
    eigenvalues in descending order; q columns are permuted to match.
    """
    base = hessenberg_reduce(a)
    n = base.t.shape[0]
    zt = np.ascontiguousarray(base.q.T)
    d, iterations = _tridiag_eigen(np.diag(base.t), np.diag(base.t, -1), zt,
                                   EIGEN_ITER_FACTOR * n)
    order = np.argsort(d)[::-1]
    return _SchurFactors(q=np.ascontiguousarray(zt[order].T),
                         t=np.diag(d[order]), iterations=iterations)


def tridiagonal_solve(t, b) -> np.ndarray:
    """Solve t @ x = b for tridiagonal t without forming an inverse.

    b may be a vector or a matrix of right-hand-side columns; only the three
    central diagonals of t are read, so the cost is O(n) per column. Raises
    SingularMatrix when an elimination pivot falls below _zero_below the
    largest entry of t.
    """
    t, b = _square_system(t, b, "t", "b")
    n = t.shape[0]
    floor = _zero_below(np.abs(t).max())
    diag = np.diag(t).copy()
    lower = np.diag(t, -1)
    upper = np.diag(t, 1)
    # A view of b, which _as_rhs copied: the elimination may work in place.
    rhs = b.reshape(n, -1)
    # Thomas elimination: sweep down, then back-substitute.
    for i in range(n):
        if i > 0:
            w = lower[i - 1] / diag[i - 1]
            diag[i] -= w * upper[i - 1]
            rhs[i] -= w * rhs[i - 1]
        if abs(diag[i]) < floor:
            raise SingularMatrix(f"vanishing pivot at row {i}")
    x = np.zeros_like(rhs)
    x[n - 1] = rhs[n - 1] / diag[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (rhs[i] - upper[i] * x[i + 1]) / diag[i]
    return x.reshape(b.shape)


# ---------------------------------------------------------------------------
# One-sided Jacobi SVD
# ---------------------------------------------------------------------------

def _ring_shift(dst: np.ndarray, src: np.ndarray) -> None:
    """Copy src, h pairs of slots, into dst one round on in Brent & Luk's ring order.

    Slot (0, 0) stays put. Every other slot takes the entry of the next one
    round the ring (0, 1), (1, 0), (2, 0), ..., (h - 1, 0), (h - 1, 1),
    (h - 2, 1), ..., (1, 1) (SIAM J. Sci. Stat. Comput. 6(1), 1985).
    """
    h = src.shape[0]
    if h == 1:
        dst[...] = src
        return
    dst[0, 0] = src[0, 0]
    dst[1:h - 1, 0] = src[2:, 0]
    dst[h - 1, 0] = src[h - 1, 1]
    dst[1:, 1] = src[:h - 1, 1]
    dst[0, 1] = src[1, 0]


def svd(a) -> SvdFactors:
    """Thin SVD by QR-LQ-preconditioned one-sided Jacobi in round-robin order.

    A wide matrix is factored through its transpose. A tall n x m matrix is
    preconditioned by three Householder reductions, a square one by the last
    two, since it is already m x m:

    - the blocked reduction a == q r to its m x m triangular factor r;
    - a column-pivoted reduction r[:, perm] == qp rp (Businger & Golub,
      "Linear least squares solutions by Householder transformations",
      Numer. Math. 7, 1965). Since a[:, perm] == (q qp) rp, this is the
      pivoted QR of a, while the tall reduction stays blocked;
    - the LQ step, a reduction of rp.T == q2 r2, so rp == r2.T q2.T
      (Drmac & Veselic, "New fast and accurate Jacobi SVD algorithm I",
      SIMAX 29(4), 2008).

    The columns of r2.T are closer to orthogonal than those of r, and more
    so with the pivoting, so fewer sweeps remain. They are then rotated
    pairwise until no pair's cosine exceeds m * eps (dgesvj's stop), to
    r2.T w == y diag(sigma). They are held as ceil(m / 2) adjacent pairs of
    rows, an odd m padded by a zero row: a round rotates all its pairs
    through views by one batched 2 x 2 product, and _ring_shift then moves
    each column one slot round Brent & Luk's ring, with no gather or
    scatter. Each round rotates the m columns of r2.T only:
    the rotations w are not accumulated, but recovered after the sweeps by
    one triangular solve, w == r2.T^-1 y diag(sigma), since r2.T is lower
    triangular (the "V by a triangular solve" of Drmac & Veselic). The
    column norms become the singular values (sorted descending). The
    normalized columns y are mapped back through qp's and then q's
    reflectors to give u; w is mapped through q2's reflectors and its rows
    put back in the order of a's columns to give v. Columns whose singular
    value is below _zero_below(sigma[0]), where solve refuses, sort last;
    they are completed to an orthonormal basis from the same reflector
    kernel, so u always has orthonormal columns.

    An exactly rank-deficient a needs no second path. The pivoting gives
    |rp[j, j]| >= ||rp[j:, k]|| for k > j, so a zero pivot leaves every
    later row of rp zero, and those columns of rp.T, and so of r2, stay
    exactly zero through the LQ step. The zero diagonal entries of r2 thus
    trail, r2 == diag(r2_11, 0) with r2_11 nonsingular, and Jacobi never
    rotates a zero column, so w == diag(w_11, I). The solve runs on the
    r2_11 block only.
    """
    a = as_matrix(a, "a")
    wide = a.shape[0] < a.shape[1]
    a = np.ascontiguousarray(a.T if wide else a)
    n, m = a.shape
    scale = _unit_scale(a)
    blocks = _householder_reduce(a) if n > m else []
    r = np.triu(a[:m]) if blocks else a
    pivot_blocks, perm = _pivoted_reduce(r)
    # r now holds rp. The LQ step reduces rp.T, so the columns of r2.T that
    # Jacobi rotates come out as the rows of r2, the upper triangle of rt.
    rt = np.ascontiguousarray(np.triu(r).T)
    blocks2 = _householder_reduce(rt)
    # Pair k starts with columns k and ring - k, pair 0 with ring (the pad
    # when m is odd) and 0; every ring rounds bring each column back there.
    # Each slot's squared norm rides in its last entry, so _ring_shift moves
    # it with its row; the batched product garbles it, and the exact update
    # replaces it.
    h = (m + 1) // 2
    ring = 2 * h - 1
    start = np.column_stack((np.arange(h), (ring - np.arange(h)) % ring))
    start[0, 0] = ring
    slot = np.argsort(start, axis=None)[:m]  # column c sits in slot[c]
    pairs = np.zeros((h, 2, m + 1))
    pairs.reshape(2 * h, m + 1)[slot, :m] = np.triu(rt)
    spare = np.empty_like(pairs)
    rot = np.empty((h, 2, 2))
    tol2 = (m * np.finfo(float).eps) ** 2
    signs = np.array([-1.0, 1.0])
    for sweep in range(SVD_MAX_SWEEPS):
        # Squared norms are refreshed once per sweep, then tracked through
        # the exact rotation update.
        pairs[..., m] = np.einsum("ijk,ijk->ij", pairs[..., :m], pairs[..., :m])
        rotated = False
        for _ in range(ring):
            npp, nqq = pairs[:, 0, m], pairs[:, 1, m]
            g = np.einsum("ij,ij->i", pairs[:, 0, :m], pairs[:, 1, :m])
            # A pair whose squared norms multiply to zero, if only by
            # underflow, is numerically zero and never rotates; the rest
            # rotate while their cosine exceeds m * eps.
            prod = npp * nqq
            live = (prod > 0.0) & (g * g > tol2 * prod)
            if np.count_nonzero(live):
                rotated = True
                tau = (nqq - npp) / (2.0 * np.where(live, g, 1.0))
                at = np.abs(tau)
                t = np.copysign(live / (at + np.hypot(1.0, at)), tau)  # 0 if dead
                c = 1.0 / np.hypot(1.0, t)
                rot.reshape(h, 4)[:, ::3] = c[:, None]  # rot[k] = [[c, -s], [s, c]]
                rot.reshape(h, 4)[:, 1:3] = (c * t)[:, None] * signs
                np.matmul(rot, pairs, out=spare)
                spare[..., m] = np.maximum(pairs[..., m] + (t * g)[:, None] * signs, 0.0)
            else:
                pairs, spare = spare, pairs
            _ring_shift(pairs, spare)
        if not rotated:
            break
    else:
        raise NoConvergence(f"columns not orthogonal after {SVD_MAX_SWEEPS} sweeps")
    rows = pairs.reshape(2 * h, m + 1)[slot, :m]
    sigma_all = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    order = np.argsort(sigma_all)[::-1]
    sigma = sigma_all[order]
    # w[:, order] from r2.T w == y, solved on the leading k x k block of r2.T,
    # whose diagonal is nonzero. Past it r2 is exactly zero (see the
    # docstring), so those columns were never rotated and their rows of w
    # are identity rows.
    k = int(np.count_nonzero(np.diag(rt)))
    w = np.empty((m, m))
    w[:k] = _substitute(np.ascontiguousarray(rt[:k, :k].T),
                        np.ascontiguousarray(rows[order, :k].T), lower=True)
    w[k:] = np.eye(m)[k:, order]
    v = np.empty((m, m))
    v[perm] = _apply_reflectors(blocks2, m, w)
    u_r = np.zeros((m, m))
    live = int(np.count_nonzero(sigma >= _zero_below(sigma[0])))
    u_r[:, :live] = rows[order[:live]].T / sigma[:live]
    if live < m:
        # The trailing columns of the reflector product that triangularizes
        # the live block span its orthogonal complement.
        fill = _householder_reduce(u_r[:, :live].copy())
        u_r[:, live:] = _apply_reflectors(fill, m, np.eye(m))[:, live:]
    u = _apply_reflectors(blocks, n, _apply_reflectors(pivot_blocks, m, u_r))
    if wide:
        u, v = v, u
    return SvdFactors(u=u, sigma=sigma * scale, v=v, sweeps=sweep + 1)


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
    if not all(isinstance(k, numbers.Integral) and k >= 1 for k in (m, n)):
        raise ValueError(f"m and n must be positive integers, got {m!r}, {n!r}")
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
