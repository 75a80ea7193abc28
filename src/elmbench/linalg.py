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
EIGEN_ITER_FACTOR = 100
# Reflectors per compact-WY block of the Householder kernel. Of 16, 24, 32
# and 48, 32 gave the fastest reduction at 5000x500 and was within timing
# noise of the fastest reduction plus q at 792x100 (1 BLAS thread). It also
# bounds the blocks that Schur's divide and conquer solves by QL: of 16, 32
# and 64, 32 gave the fastest schur_decompose at width 100 and was within
# 8% of 16 at width 500.
_NB = 32
_EPS = float(np.finfo(float).eps)
_TINY_OVER_EPS = float(np.finfo(float).tiny) / _EPS
# Decorates every solve, which then checks its result once by _finite: with
# overflow warnings off, an overflow shows as inf or NaN there. As a
# decorator an errstate keeps its state per call, so nested solves are safe.
_QUIET = np.errstate(over="ignore", invalid="ignore")


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

    @_QUIET
    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with a @ x == b, b a vector or a matrix of columns."""
        b = _as_rhs(b, "b", self.perm.size)
        y = _substitute(self.l, b[self.perm], lower=True)
        return _finite(_substitute(self.u, y, lower=False))


@dataclass(frozen=True)
class QrFactors:
    """Thin factorization a == q @ r with orthonormal q columns."""

    q: np.ndarray
    r: np.ndarray

    @_QUIET
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Least-squares x for a @ x ~= b, b a vector or a matrix of columns."""
        qtb = self.q.T @ _as_rhs(b, "b", self.q.shape[0])
        return _finite(_substitute(self.r, qtb, lower=False))


@dataclass(frozen=True)
class SimilarityFactors:
    """Orthogonal similarity a == q @ t @ q.T.

    iterations counts Schur's work as _tridiag_dc counts it, against
    _tridiag_dc's budget for the n x n tridiagonal; a direct reduction
    reports 0.
    """

    q: np.ndarray
    t: np.ndarray
    iterations: int = 0

    @_QUIET
    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with a @ x == b, b a vector or a matrix of columns."""
        b = _as_rhs(b, "b", self.q.shape[0])
        return _finite(self.q @ _thomas(self.t, self.q.T @ b))


@dataclass(frozen=True)
class SvdFactors:
    """Thin singular value decomposition a ~= u @ diag(sigma) @ v.T.

    u and v are each q @ [top; 0], q the product of compact-WY blocks, and
    are formed only when read, as _HouseholderFactors.q is. A tall a keeps
    the blocks of its reduction a == q r in u_blocks and an m x m factor in
    u_top, so u is n x m; a wide a, factored through its transpose, keeps
    them in v_blocks and v_top. Every other factor has no blocks and is its
    top. solve applies q.T block by block, as LAPACK's dgesdd applies its
    reflectors (dormbr), and never forms u.

    iterations counts the work as _tridiag_dc counts it, against
    _tridiag_dc's budget for the 2k x 2k Golub-Kahan tridiagonal, k the
    nonzero pivots.
    """

    u_blocks: list
    u_top: np.ndarray
    sigma: np.ndarray
    v_blocks: list
    v_top: np.ndarray
    iterations: int = 0

    @property
    def u(self) -> np.ndarray:
        """The orthonormal left factor, n x m for a tall a."""
        return _q_times(self.u_blocks, self.u_top)

    @property
    def v(self) -> np.ndarray:
        """The orthonormal right factor, n x m for a wide a."""
        return _q_times(self.v_blocks, self.v_top)

    @_QUIET
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Least-squares x for a @ x ~= b; RankDeficient below _zero_below(sigma[0])."""
        rows = (self.u_blocks[0][1] if self.u_blocks else self.u_top).shape[0]
        b, s = _as_rhs(b, "b", rows), self.sigma
        if s[-1] < _zero_below(s[0]):
            raise RankDeficient("singular values collapse below tolerance")
        _apply_qt(self.u_blocks, b)
        y = (self.u_top.T @ b[:s.size]) / _by_row(s, b)
        return _finite(_q_times(self.v_blocks, self.v_top @ y))


def _by_row(d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d shaped to scale the rows of b, a vector or a matrix of columns."""
    return d if b.ndim == 1 else d[:, None]


def _as_array(a, name: str, ndim: int) -> np.ndarray:
    """Validate and copy input into a C-ordered ndim-D float64 array with finite real entries."""
    if np.iscomplexobj(a):  # a float cast would keep the real part only
        raise ValueError(f"{name} must be real, got complex entries")
    w = np.array(a, dtype=float, order="C")
    if w.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-D, got {w.ndim}-D")
    if w.size < 1:
        raise DimensionMismatch(f"{name} must not be empty")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    return w


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and copy input into a C-ordered 2-D float64 array with finite real entries.

    The factorizations work in place on this copy, so their results do not
    depend on the input's memory order.
    """
    return _as_array(a, name, 2)


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and copy input into a 1-D float64 array with finite real entries."""
    return _as_array(v, name, 1)


def _finite(x: np.ndarray) -> np.ndarray:
    """x, refused with SingularMatrix if an entry is inf or NaN.

    Callers pass what they computed from validated, finite inputs, so a
    non-finite entry means the solution, or a step toward it, overflowed:
    the system is too close to singular for the size of its right-hand side.
    """
    if not np.isfinite(x).all():
        raise SingularMatrix("solution overflows: the system is too close to singular for b")
    return x


def _zero_below(scale):
    """PIVOT_RTOL * scale, elementwise, floored so a subnormal pivot counts as zero."""
    return np.maximum(PIVOT_RTOL * scale, np.finfo(float).tiny)


def _power_of_two_below(x: float) -> float:
    """The power of two at or below x > 0; 0.5 for x == 0."""
    return math.ldexp(0.5, math.frexp(x)[1])


def _unit_scale(work: np.ndarray) -> float:
    """Divide work in place by the power of two at or below max |work|; return it.

    Sums of squares of the scaled entries neither overflow nor underflow
    (Blue, ACM TOMS 4(1), 1978), and a power of two rounds nothing: the scale
    multiplied back into sigma, r or t gives the unscaled factorization's bits.
    """
    scale = _power_of_two_below(np.abs(work).max())
    work /= scale
    return scale


def _square(a, name: str) -> np.ndarray:
    """as_matrix(a, name), refused unless square."""
    a = as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {a.shape}")
    return a


def _symmetric(a, name: str) -> np.ndarray:
    """_square(a, name), refused unless symmetric to SYMMETRY_RTOL relative."""
    a = _square(a, name)
    scale = np.abs(a).max()
    if scale > 0.0 and np.abs(a - a.T).max() > SYMMETRY_RTOL * scale:
        raise NotSymmetric(f"{name} is not symmetric to {SYMMETRY_RTOL:g} relative")
    return a


def _swap_rows(a: np.ndarray, i: int, j: int) -> None:
    """Swap rows i and j of a in place through one row copy.

    Cheaper than fancy indexing at width 100. A tuple swap of the two rows
    would not do: both sides are views, so one row would overwrite the other.
    """
    row = a[i].copy()
    a[i] = a[j]
    a[j] = row


# ---------------------------------------------------------------------------
# LU with partial pivoting, forward/backward substitution
# ---------------------------------------------------------------------------

def lu_decompose(a) -> LuFactors:
    """Factor a square matrix with partial (row) pivoting.

    Returns factors with unit lower-triangular l and upper-triangular u such
    that a[perm] == l @ u. Raises SingularMatrix when a pivot falls below
    _zero_below the largest entry of a.
    """
    lu = _square(a, "a")
    n = lu.shape[0]
    floor = _zero_below(np.abs(lu).max())
    perm = np.arange(n)
    for k in range(n):
        piv = k + int(np.abs(lu[k:, k]).argmax())
        if abs(lu[piv, k]) < floor:
            raise SingularMatrix(f"pivot {k} below tolerance")
        if piv != k:
            _swap_rows(lu, k, piv)
            perm[k], perm[piv] = perm[piv], perm[k]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= lu[k + 1:, k, None] * lu[k, k + 1:]
    l = np.tril(lu, -1) + np.eye(n)
    u = np.triu(lu)
    return LuFactors(l=l, u=u, perm=perm)


def _as_rhs(b, name: str, rows: int) -> np.ndarray:
    """A validated copy of b, a vector or a matrix of columns, with rows rows."""
    b = _as_array(b, name, 2 if np.ndim(b) == 2 else 1)
    if b.shape[0] != rows:
        raise DimensionMismatch(f"{name} has {b.shape[0]} rows, expected {rows}")
    return b


def _square_system(a, b, a_name: str, b_name: str) -> tuple[np.ndarray, np.ndarray]:
    """Validate a square matrix a and a right-hand side b with as many rows."""
    a = _square(a, a_name)
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


@_QUIET
def forward_substitute(l, t) -> np.ndarray:
    """Solve l @ y = t reading only the lower triangle of l.

    t may be a vector or a matrix of right-hand-side columns.
    """
    return _finite(_substitute(*_square_system(l, t, "l", "t"), lower=True))


@_QUIET
def backward_substitute(u, y) -> np.ndarray:
    """Solve u @ w = y reading only the upper triangle of u.

    y may be a vector or a matrix of right-hand-side columns.
    """
    return _finite(_substitute(*_square_system(u, y, "u", "y"), lower=False))


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
    An x whose x @ x is below tiny / eps, where underflow may have eaten its
    bits, is first divided by the power of two at or below max |x|; v does
    not depend on the length of x.
    """
    xx = x @ x
    if xx < _TINY_OVER_EPS:
        if not x.any():
            return np.zeros_like(x)
        x = x.copy()
        _unit_scale(x)
        xx = x @ x
    nrm = math.sqrt(xx)
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
    """Reduce work (rows >= cols, C-contiguous) in place to upper-triangular form.

    Returns the compact-WY blocks (j0, v, t) of the reflectors, one per
    panel of _NB columns, as _wy_blocks forms them. A column already zero
    on and below the diagonal gets a zero reflector, the identity. Inside a
    panel each reflector updates the panel's remaining columns only; then
    the panel's block updates every column right of it at once, through
    _apply_qt. The panel transposes and _apply_qt's products run on work's
    layout, so their bits depend on it: work must be C-contiguous.
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
            _swap_rows(wt, j, p)
            perm[j], perm[p] = perm[p], perm[j]
        v = _reflector(wt[j, j:])
        rest -= np.outer(2.0 * (rest @ v), v)
        reflectors.append(v)
    work[:] = wt.T
    return _wy_blocks(reflectors, m), perm


def _apply_reflectors(blocks: list, n: int, top: np.ndarray) -> np.ndarray:
    """Return q @ [top; 0], q the n-row product of the compact-WY blocks.

    top is a vector or a matrix of columns. Every orthogonal factor that is
    formed at all is formed here: q of hessenberg_reduce from top =
    identity, q of householder_qr from its diagonal of signs, the SVD's u
    and v from their m x m tops. The blocks are applied last to first,
    block j0 to rows j0: as out -= v (t (v.T out)), reusing the v and t that
    the reduction built. When top is an upper-triangular matrix, as a
    diagonal is, columns < j0 are still zero in rows j0: when block j0
    comes, so it cannot change them and is applied to columns j0: only.
    """
    out = np.zeros((n,) + top.shape[1:])
    out[:top.shape[0]] = top
    triangular = top.ndim == 2 and not np.tril(top, -1).any()
    for j0, v, t in reversed(blocks):
        block = out[j0:, j0:] if triangular else out[j0:]
        block -= v @ (t @ (v.T @ block))
    return out


def _q_times(blocks: list, top: np.ndarray) -> np.ndarray:
    """q @ [top; 0], q the product of blocks, block 0 on all its rows; top if there are none."""
    return _apply_reflectors(blocks, blocks[0][1].shape[0], top) if blocks else top


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
        return _q_times(self.blocks, np.diag(self.signs))

    @_QUIET
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Least-squares x for a @ x ~= b, applying q.T block by block."""
        qtb = _as_rhs(b, "b", self.blocks[0][1].shape[0])  # block 0 spans all rows
        _apply_qt(self.blocks, qtb)
        m = self.r.shape[0]
        qtb[:m] *= _by_row(self.signs, qtb)
        return _finite(_substitute(self.r, qtb[:m], lower=False))


def _householder_factors(work: np.ndarray, scale: float = 1.0) -> _HouseholderFactors:
    """Reduce work (rows >= cols); its factors, r times scale, with diag(r) >= 0.

    work is consumed: reduced in place when C-contiguous, reduced through a
    copy otherwise, so the factors do not depend on its layout. A column
    already zero on and below the diagonal gets a zero reflector, so q is
    orthonormal whatever work is.
    """
    work = np.ascontiguousarray(work)
    blocks = _householder_reduce(work)
    r = np.triu(work[:work.shape[1]]) * scale
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return _HouseholderFactors(blocks=blocks, r=r * signs[:, None], signs=signs)


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
    factors = _householder_factors(a, scale)
    # r[j, j] is the norm column j had on and below the diagonal when it
    # was reflected.
    collapsed = np.flatnonzero(np.diag(factors.r) < floor)
    if collapsed.size:
        raise RankDeficient(f"column {collapsed[0]} collapsed during reflection")
    return factors


@_QUIET
def triangular_inverse(r) -> np.ndarray:
    """Invert an upper-triangular matrix column by column.

    Raises SingularMatrix when a diagonal entry falls below _zero_below the
    largest entry of r.

    No solver route calls it: the QR routes solve r by _substitute.
    It stays public because the traced benchmark run (bench/tracing.py)
    wraps it by name and reports its per-layer metrics; it goes when those
    do.
    """
    r = _square(r, "r")
    if np.any(np.abs(np.diag(r)) < _zero_below(np.abs(r).max())):
        raise SingularMatrix("triangular matrix has a near-zero diagonal entry")
    return _finite(_substitute(r, np.eye(r.shape[0]), lower=False))


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
    work = _symmetric(a, "a")
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


def _tridiag_eigen(d: np.ndarray, e: np.ndarray, zt: np.ndarray,
                   max_iter: int) -> tuple[np.ndarray, int]:
    """Shifted QL iteration on a tridiagonal (d, e) with rotations folded into zt.

    Returns the eigenvalues and the number of QL iterations used; the rows of
    zt, updated in place, become the matching eigenvectors. e[m] deflates
    once |e[m]| <= eps * (|d[m]| + |d[m + 1]|), relative to its own
    neighbours, so small eigenvalues keep their relative accuracy. zt is
    C-contiguous and its rows may have any width. Schur's divide and
    conquer calls it once, on the torn tridiagonal against block-local
    identity rows: an exact zero in e deflates at once, so every chase
    stays inside its block, and the wavefront interleaves the blocks'
    layers. It works in three steps:

    - record: the scalar QL loop runs on Python floats, which are faster
      here than numpy's, and records each rotation of rows i and i + 1 as
      (layer, i, c, s) in four flat lists instead of applying it. The
      rotation goes to the first layer k past every layer that touched row
      i or row i + 1 with k + i even. Layers only move later, so every row
      meets its rotations in recorded order;
    - blocks: layer k acts on every row pair (i, i + 1) with i == k mod 2,
      which are disjoint. One (layers, n // 2, 2, 2) array holds the
      rotation of pair i in layer k at [k, i // 2], and the identity on
      each pair that its layer does not turn;
    - apply: each layer rotates its pairs in place, as a view of zt, by one
      batched 2 x 2 product. No rows are gathered or scattered, and an
      identity block changes no bit.

    Rotations of one layer commute, so zt ends as the recorded order leaves
    it. This is the wavefront order of Van Zee, van de Geijn & Quintana-Orti,
    "Restructuring the tridiagonal and bidiagonal QR algorithms for
    performance" (ACM TOMS 40(3), 2014).
    """
    n = d.size
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
                if abs(e[m]) <= _EPS * (abs(d[m]) + abs(d[m + 1])):
                    break
                m += 1
            if m == l:
                break
            total += 1
            if total > max_iter:
                raise NoConvergence(
                    f"off-diagonal failed to deflate within {max_iter} iterations")
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
    # A pair its layer does not turn keeps c = 1, s = 0: the identity.
    at =(np.array(layer_of, dtype=np.intp), np.array(row_of, dtype=np.intp) // 2)
    c = np.ones((max(depth), n // 2))  # depth[i] is one past row i's last layer
    s = np.zeros_like(c)
    c[at] = cos_of
    s[at] = sin_of
    rot = np.stack((c, -s, s, c), axis=-1).reshape(c.shape + (2, 2))
    for k in range(rot.shape[0]):
        count = (n - (k & 1)) // 2
        blk = zt[k & 1:(k & 1) + 2 * count].reshape(count, 2, -1)
        blk[...] = rot[k, :count] @ blk
    return np.array(d), total


@dataclass(frozen=True)
class _SchurFactors(SimilarityFactors):
    """SimilarityFactors whose t is diagonal: the eigenvalues, descending."""

    @_QUIET
    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with a @ x == b; SingularMatrix below _zero_below(max |t|)."""
        b, eigs = _as_rhs(b, "b", self.q.shape[0]), np.diag(self.t)
        if np.abs(eigs).min() < _zero_below(np.abs(eigs).max()):
            raise SingularMatrix("eigenvalue of the normal matrix is below tolerance")
        return _finite(self.q @ ((self.q.T @ b) / _by_row(eigs, b)))


def _tears(lo: int, hi: int) -> list:
    """The (lo, mid, hi) splits that halve rows lo:hi into blocks of <= _NB, parents first."""
    if hi - lo <= _NB:
        return []
    mid = (lo + hi) // 2
    return [(lo, mid, hi)] + _tears(lo, mid) + _tears(mid, hi)


def _two_pole_step(c, s, big_s, dp, dq, t, lo, hi):
    """t + x for the root x of c + s / (dp - x) + big_s / (dq - x) with t + x in (lo, hi).

    The model's two roots come from the quadratic c x^2 - a x + b == 0
    without cancellation. If neither lands in the bracket, it is bisected.
    """
    a = c * (dp + dq) + s + big_s
    b = c * dp * dq + s * dq + big_s * dp
    qq = a + np.copysign(np.sqrt(np.abs(a * a - 4.0 * b * c)), a)
    small = t + np.divide(2.0 * b, qq, out=np.full_like(qq, np.nan), where=qq != 0.0)
    large = t + np.divide(qq, 2.0 * c, out=np.full_like(qq, np.nan), where=c != 0.0)
    return np.where((small > lo) & (small < hi), small,
                    np.where((large > lo) & (large < hi), large, 0.5 * (lo + hi)))


def _secular_roots(d: np.ndarray, z: np.ndarray, rho: float,
                   budget: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Roots of 1 / rho + sum_j z_j^2 / (d_j - lam) == 0 for ascending, distinct d.

    Returns lam, delta with delta[j, i] == d_j - lam_i to full relative
    accuracy, and the passes used. Root i lies in (d_i, d_i+1), the last in
    (d_k-1, d_k-1 + rho z.z]. Each root is held as tau from its origin, the
    pole nearer to it, which the secular function's sign at the interval's
    midpoint names (LAPACK's dlaed4); then d_j - lam_i == (d_j - d_origin)
    - tau cancels nothing. Every pass evaluates the function at every root
    and moves each one not yet converged to the root of a two-pole rational
    model that matches the function's value and slope: poles d_p and d_q,
    weighted by the slopes of the sums over the poles below d_q and from
    d_q up (the "middle way" of R.-C. Li, LAPACK Working Note 89, 1994).
    q is i + 1 and p is i, except for the last root, which lies above both
    of its model's poles k - 2 and k - 1. A step that leaves the root's
    bracket, narrowed by the sign at every pass, bisects it. A root stops
    when |f| <= eps times dlaed4's bound on the rounding error of the sum.
    Raises NoConvergence past budget passes.
    """
    k = d.size
    z2 = z * z
    idx = np.arange(k)
    q = np.minimum(idx + 1, k - 1)
    p = np.maximum(q - 1, 0)
    # The last root's bracket ends at d_k-1 + 2 rho z.z, where f > 0, so the
    # root, at most d_k-1 + rho z.z, lies strictly inside it.
    gap = np.append(np.diff(d), 2.0 * rho * z2.sum())
    mid = 0.5 * gap
    span = d[None, :] - d[:, None]  # span[i, j] == d_j - d_i
    at_mid = span - mid[:, None]
    f_mid = 1.0 / rho + (z2 / at_mid).sum(axis=1)
    right = (f_mid < 0.0) & (idx < k - 1)
    origin = idx + right
    base = span[origin]  # d_j - d_origin
    lo = np.where(f_mid < 0.0, np.where(right, mid - gap, mid), 0.0)
    hi = np.where(f_mid < 0.0, np.where(right, 0.0, gap), mid)
    # The first step: the model's poles exact and the other terms frozen at
    # the midpoint (dlaed4's start). A one-pole problem (k == 1) has p == q
    # and s == 0.
    zp2 = np.where(p < q, z2[p], 0.0)
    rest = f_mid - zp2 / at_mid[idx, p] - z2[q] / at_mid[idx, q]
    tau = _two_pole_step(rest, zp2, z2[q], base[idx, p], base[idx, q], 0.0, lo, hi)
    # The error bound weights each term by how often it enters dlaed4's
    # running partial sums (|origin - j|), plus 8 off the origin, 3 at it.
    weight = np.abs(origin[:, None] - idx[None, :]) + 8.0
    weight[idx, origin] = 3.0
    below = (idx[None, :] < q[:, None]).astype(float)
    live = np.ones(k, dtype=bool)
    passes = 0
    while True:
        passes += 1
        if passes > budget:
            raise NoConvergence(f"secular equation unsolved within {budget} passes")
        delta = base - tau[:, None]
        term = z2 / delta
        slope = term / delta
        f = 1.0 / rho + term.sum(axis=1)
        dw = slope.sum(axis=1)
        bound = np.einsum("ij,ij->i", weight, np.abs(term)) + 2.0 / rho + np.abs(tau) * dw
        live &= np.abs(f) > _EPS * bound
        if not live.any():
            break
        lo = np.where(f < 0.0, tau, lo)
        hi = np.where(f > 0.0, tau, hi)
        dp, dq = delta[idx, p], delta[idx, q]
        psi = np.einsum("ij,ij->i", below, slope)
        phi = dw - psi
        step = _two_pole_step(f - dp * psi - dq * phi, dp * dp * psi, dq * dq * phi,
                              dp, dq, tau, lo, hi)
        tau = np.where(live, step, tau)
    return d[origin] + tau, delta.T, passes


def _merge(d: np.ndarray, vecs: np.ndarray, split: int, beta: float,
           budget: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Eigenpairs of a tridiagonal from those of its two halves, torn at split.

    d and the columns of vecs are the eigenpairs of rows :split and split:
    after Cuppen's tear, which subtracted |beta| from the diagonal on both
    sides of it; the tridiagonal is then diag(T1, T2) + rho v v.T with v the
    unit (e_split-1 + sign(beta) e_split) / sqrt(2) and rho == 2 |beta|.
    The merge follows LAPACK's dlaed2/dlaed3 (Gu & Eisenstat, SIMAX 16(1),
    1995): z, the vector v seen from the halves' eigenvectors, comes from
    the two boundary rows of vecs. A pole whose rho |z_j| is below tol ==
    8 eps max(|d|, |z|) keeps its pair; a pole that Givens rotation of its
    z entry into the next one's changes by less than tol keeps its rotated
    pair. The rest solve the secular equation, and their z is recomputed
    from the computed roots by the Loewner formula, so the new eigenvectors
    are orthogonal to working accuracy however close the roots are. They
    reach vecs by one product. Returns d, vecs and the secular passes.
    """
    z = (vecs[split - 1] + math.copysign(1.0, beta) * vecs[split]) / math.sqrt(2.0)
    rho = 2.0 * abs(beta)
    order = np.argsort(d, kind="stable")
    d, z, vecs = d[order], z[order], vecs[:, order]
    tol = 8.0 * _EPS * max(np.abs(d).max(), np.abs(z).max())
    poles = np.flatnonzero(rho * np.abs(z) > tol)
    if not poles.size:
        return d, vecs, 0
    # Pairs are tested in order, since a rotation changes the next pair's d.
    # The scan runs on Python floats, which are faster here than numpy's.
    d, z = d.tolist(), z.tolist()
    keep = []
    prev = int(poles[0])
    for j in poles[1:].tolist():
        if abs((d[j] - d[prev]) * z[j] * z[prev]) <= tol * (z[prev] ** 2 + z[j] ** 2):
            tau = math.hypot(z[prev], z[j])
            c, s = z[j] / tau, -z[prev] / tau
            vecs[:, [prev, j]] = vecs[:, [prev, j]] @ np.array([[c, -s], [s, c]])
            z[prev], z[j] = 0.0, tau
            d[prev], d[j] = (d[prev] * c * c + d[j] * s * s,
                             d[prev] * s * s + d[j] * c * c)
        else:
            keep.append(prev)
        prev = j
    keep.append(prev)
    d, z, keep = np.array(d), np.array(z), np.array(keep)
    lam, delta, passes = _secular_roots(d[keep], z[keep], rho, budget)
    # The Loewner formula: zhat_j^2 == prod_i (lam_i - d_j) / prod_(i != j) (d_i - d_j),
    # up to the factor rho that the normalization drops, taken as a product
    # of ratios near 1 so that it neither overflows nor underflows.
    span = d[keep][:, None] - d[keep][None, :]
    np.fill_diagonal(span, 1.0)
    zhat = np.copysign(np.sqrt(-np.prod(delta / span, axis=1)), z[keep])
    u = zhat[:, None] / delta
    u /= np.sqrt(np.einsum("ij,ij->j", u, u))
    d[keep] = lam
    vecs[:, keep] = vecs[:, keep] @ u
    return d, vecs, passes


def _tridiag_dc(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Eigenpairs of the symmetric tridiagonal with diagonal d and off-diagonal e.

    The one entry to the tridiagonal eigenproblem, for Schur and the SVD
    (as LAPACK's dstedc). (d, e) is divided by _unit_scale first, so the
    secular equations neither overflow nor underflow. Returns the
    eigenvalues, scaled back, in descending order; the matching
    eigenvector columns; and the work, the QL iterations plus the secular
    passes, against one budget of EIGEN_ITER_FACTOR * n, past which
    NoConvergence is raised.

    Cuppen's rank-one tears (Numer. Math. 36, 1981), rho == |beta| at each,
    halve the tridiagonal until every block has at most _NB rows. The
    blocks are solved together by one _tridiag_eigen call on the torn
    tridiagonal: its zeros at the tears keep every QL chase inside its
    block. A block's eigenvector rows are zero outside its own columns, so
    the call turns block-local rows: column j of row i stands for column
    j of the block that holds row i. The blocks are then merged bottom-up
    by _merge.
    """
    n = d.size
    de = np.concatenate((d, e))
    scale = _unit_scale(de)
    d, e = de[:n], de[n:]
    max_iter = EIGEN_ITER_FACTOR * n
    tears = [(lo, mid, hi, float(e[mid - 1])) for lo, mid, hi in _tears(0, n)]
    for _, mid, _, beta in tears:
        d[mid - 1] -= abs(beta)
        d[mid] -= abs(beta)
        e[mid - 1] = 0.0
    cuts = [0] + sorted(mid for _, mid, _, _ in tears) + [n]
    blocks = list(zip(cuts[:-1], cuts[1:]))
    zt = np.zeros((n, max(hi - lo for lo, hi in blocks)))
    for lo, hi in blocks:
        zt[lo:hi, :hi - lo] = np.eye(hi - lo)
    d, total = _tridiag_eigen(d, e, zt, max_iter)
    vecs = np.zeros((n, n))
    for lo, hi in blocks:
        vecs[lo:hi, lo:hi] = zt[lo:hi, :hi - lo].T
    for lo, mid, hi, beta in reversed(tears):
        d[lo:hi], vecs[lo:hi, lo:hi], passes = _merge(d[lo:hi], vecs[lo:hi, lo:hi],
                                                      mid - lo, beta, max_iter - total)
        total += passes
    order = np.argsort(d)[::-1]
    return d[order] * scale, vecs[:, order], total


def schur_decompose(a) -> SimilarityFactors:
    """Real Schur form of a symmetric (PSD in practice) matrix.

    Tridiagonalizes with Householder reflectors, then finds the
    tridiagonal's eigenpairs by divide and conquer, _tridiag_dc, whose
    scale, budget and order rules hold here. t is diagonal with the
    eigenvalues in descending order, and q is the reduction's q times the
    matching eigenvectors.
    """
    base = hessenberg_reduce(a)
    d, vecs, iterations = _tridiag_dc(np.diag(base.t), np.diag(base.t, -1))
    return _SchurFactors(q=base.q @ vecs, t=np.diag(d), iterations=iterations)


@_QUIET
def tridiagonal_solve(t, b) -> np.ndarray:
    """Solve t @ x = b for tridiagonal t without forming an inverse.

    b may be a vector or a matrix of right-hand-side columns; only the three
    central diagonals of t are read, so the cost is O(n) per column. Raises
    SingularMatrix when an elimination pivot falls below _zero_below the
    largest entry of t.
    """
    return _finite(_thomas(*_square_system(t, b, "t", "b")))


def _thomas(t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve t @ x = b by Thomas elimination, reading only t's three central diagonals."""
    n = t.shape[0]
    peak = np.abs(t).max()
    # The sweeps solve (t / scale) y == b, so no elimination pivot of a huge
    # t overflows; x is y / scale. A power of two rounds nothing, so
    # neither the pivot test nor the answer changes a bit on other input.
    scale = _power_of_two_below(peak)
    floor = _zero_below(peak) / scale
    # The sweeps run on Python floats, which are faster here than numpy's.
    # A row of rhs is a float for a vector b and a row array for a matrix,
    # so one loop serves both.
    diag, lower, upper = ((np.diag(t, k) / scale).tolist() for k in (0, -1, 1))
    rhs = b.tolist() if b.ndim == 1 else list(b)
    # Thomas elimination: sweep down, then back-substitute.
    for i in range(n):
        if i > 0:
            w = lower[i - 1] / diag[i - 1]
            diag[i] -= w * upper[i - 1]
            rhs[i] = rhs[i] - w * rhs[i - 1]
        if abs(diag[i]) < floor:
            raise SingularMatrix(f"vanishing pivot at row {i}")
    rhs[n - 1] = rhs[n - 1] / diag[n - 1]
    for i in range(n - 2, -1, -1):
        rhs[i] = (rhs[i] - upper[i] * rhs[i + 1]) / diag[i]
    return np.array(rhs) / scale


# ---------------------------------------------------------------------------
# SVD by Golub-Kahan bidiagonalization
# ---------------------------------------------------------------------------

def _orthonormal_half(half: np.ndarray) -> np.ndarray:
    """half, k x k rows of the Golub-Kahan eigenvectors, made orthonormal by svd's rule."""
    y = math.sqrt(2.0) * half
    g = y.T @ y
    g[np.diag_indices_from(g)] -= 1.0
    if np.abs(g).max() <= math.sqrt(_EPS):
        return y - 0.5 * (y @ g)
    return _householder_factors(half).q


def svd(a) -> SvdFactors:
    """Thin SVD by Golub-Kahan bidiagonalization and tridiagonal divide and conquer.

    A wide matrix is factored through its transpose. A tall n x m matrix is
    first reduced by the blocked reduction a == q r to its m x m triangular
    factor r (Chan, ACM TOMS 8(1), 1982); a square one is already m x m.
    Then:

    - a column-pivoted reduction r[:, perm] == qp rp (Businger & Golub,
      Numer. Math. 7, 1965), for a square a and for a tall a whose r has a
      diagonal entry below _zero_below the largest; any other r has full
      rank and goes on as rp == r, with qp == I and perm the identity. The
      reduction gives |rp[j, j]| >= ||rp[j:, c]|| for c > j, so a zero pivot
      leaves every later row of rp exactly zero. Only the k rows above the
      first zero pivot go on; the trailing m - k singular values are exact
      zeros;
    - t == rp[:k].T, m x k, is bidiagonalized by reflectors on rows j:
      from the left and on columns j + 1: from the right, t == pl [b; 0]
      pr.T with b upper bidiagonal, diagonal d and superdiagonal f (Golub &
      Kahan, SIAM J. Numer. Anal. 2(2), 1965);
    - the 2k x 2k tridiagonal with zero diagonal and off-diagonal
      (d0, f0, d1, f1, ...) has eigenvalues +-sigma, and _tridiag_dc finds
      them as it does Schur's, under its scale, budget and order rules.
      The eigenvector of +sigma holds v_b in its even rows and u_b in its
      odd rows, with b v_b == sigma u_b;
    - for close +- pairs the two halves lose orthogonality separately
      (Willems, Lang & Vomel, SIMAX 28(3), 2006). A half of the k largest
      eigenpairs' vectors, columns in descending sigma, has columns of norm
      1 / sqrt(2), so y == sqrt(2) half is near orthonormal. If every entry
      of g == y.T y - I is within sqrt(eps), one Newton-Schulz step toward
      the nearest orthonormal matrix (Bjorck & Bowie, SIAM J. Numer. Anal.
      8(2), 1971), y - y g / 2, leaves about 3/4 ||g||^2 plus rounding.
      Otherwise, as for the halves of a sigma == 0 pair, which can be
      anything, the half is replaced by the q of its Householder QR, which
      is orthonormal even when the half is degenerate.

    Since a[:, perm] == q qp rp and rp[:k] == pr v_b diag(sigma) u_b.T
    pl[:, :k].T, u is q qp diag(pr v_b, I) and v[perm] is pl diag(u_b, I).
    The factors keep q as its compact-WY blocks and qp diag(pr v_b, I) as
    u's m x m top, so the n x m u is formed only when read.
    """
    a = as_matrix(a, "a")
    wide = a.shape[0] < a.shape[1]
    a = np.ascontiguousarray(a.T if wide else a)
    n, m = a.shape
    scale = _unit_scale(a)
    blocks = _householder_reduce(a) if n > m else []
    r = np.triu(a[:m]) if blocks else a
    pivots = np.abs(np.diag(r))
    if blocks and pivots.min() >= _zero_below(pivots.max()):
        pivot_blocks, perm, k = [], np.arange(m), m
    else:
        pivot_blocks, perm = _pivoted_reduce(r)
        # An all-zero rp still bidiagonalizes one zero column, to sigma == 0.
        k = max(int(np.count_nonzero(np.diag(r))), 1)
    t = np.ascontiguousarray(np.triu(r)[:k].T)
    # Right reflector j acts on columns j + 1:, so it is stored at index j + 1.
    left, right = [], [np.zeros(k)]
    for j in range(k):
        v = _reflector(t[j:, j])
        rest = t[j:, j:]
        rest -= np.outer(v, 2.0 * (v @ rest))
        left.append(v)
        if j < k - 1:
            w = _reflector(t[j, j + 1:])
            rest = t[j:, j + 1:]
            rest -= np.outer(2.0 * (rest @ w), w)
            right.append(w)
    e = np.empty(2 * k - 1)
    e[0::2], e[1::2] = np.diag(t), np.diag(t, 1)
    lam, vecs, iterations = _tridiag_dc(np.zeros(2 * k), e)
    u_r, v_r = np.eye(m), np.eye(m)
    u_r[:k, :k] = _apply_reflectors(_wy_blocks(right, k), k,
                                    _orthonormal_half(vecs[0::2, :k]))
    v_r[:k, :k] = _orthonormal_half(vecs[1::2, :k])
    v = np.empty((m, m))
    v[perm] = _apply_reflectors(_wy_blocks(left, m), m, v_r)
    sigma = np.zeros(m)
    sigma[:k] = lam[:k] * scale
    u_side, v_side = (blocks, _q_times(pivot_blocks, u_r)), ([], v)
    if wide:
        u_side, v_side = v_side, u_side
    return SvdFactors(*u_side, sigma, *v_side, iterations=iterations)


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
