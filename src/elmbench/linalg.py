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
# Reflectors per compact-WY block of the Householder kernel, and columns per
# panel of modified Gram-Schmidt. With each panel split recursively into
# leaves of 8 columns, householder_qr read 3.69, 3.58 and 3.68 ms at 16, 32
# and 64 on a 792x100 layer, and 252, 206 and 162 ms at 5000x500; MGS and
# the two-sided reductions' reflector blocks share the width, so 64 waits
# for a change that measures them too. Leaves have at most _NB // 4
# columns: leaves of 4, 8 and 16 gave householder_qr 3.96, 4.06 and 4.55 ms
# at 792x100, 64.1, 62.8 and 64.1 ms at 792x780 and 170, 166 and 173 ms at
# 5000x500 (1 BLAS thread, alternating in one process, medians of 5 rounds).
_NB = 32
# Most rows of a block that divide and conquer solves by QL, not by tearing.
# With one secular solve per tree level, leaves of 8, 16 and 32 rows gave
# svd 18.4-19.2, 18.6-19.1 and 19.8-20.2 ms and schur_decompose 7.3-7.7,
# 7.0-7.3 and 7.5-7.7 ms on a width-100 ridge normal matrix, and svd 0.68,
# 0.63 and 0.64 s at 5000x500, schur within 5% (1 BLAS thread).
_LEAF = 16
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
    """Orthogonal similarity a == q @ t @ q.T, t tridiagonal or diagonal.

    hessenberg_reduce leaves t tridiagonal and schur_decompose leaves it
    diagonal. Both solve by q @ _thomas(t, q.T @ b), in which a zero
    coupling takes no elimination step, so a diagonal t costs one division
    per row.

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
    are formed by _apply_reflectors only when read, as _HouseholderFactors.q
    is. A tall or square a keeps the blocks of its one reduction
    a[:, perm] == q r, pivoted or not, in u_blocks and an m x m factor in
    u_top, so u is n x m; a wide a, factored through its transpose, keeps
    them in v_blocks and v_top. The other factor has no blocks and is its
    top. solve applies q.T block by block, as LAPACK's dgesdd applies its
    reflectors (dormbr), and never forms u.

    iterations counts _bidiag_dc's work, the leaves' QL iterations plus the
    merges' secular passes, against its budget EIGEN_ITER_FACTOR * 2k, k
    the nonzero pivots: the budget of the 2k x 2k Golub-Kahan tridiagonal.
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
        return _apply_reflectors(self.u_blocks, self.u_top)

    @property
    def v(self) -> np.ndarray:
        """The orthonormal right factor, n x m for a wide a."""
        return _apply_reflectors(self.v_blocks, self.v_top)

    @_QUIET
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Least-squares x for a @ x ~= b; RankDeficient below _zero_below(sigma[0])."""
        rows = (self.u_blocks[0][1] if self.u_blocks else self.u_top).shape[0]
        b, s = _as_rhs(b, "b", rows), self.sigma
        if s[-1] < _zero_below(s[0]):
            raise RankDeficient("singular values collapse below tolerance")
        _apply_qt(self.u_blocks, b)
        y = (self.u_top.T @ b[:s.size]) / _by_row(s, b)
        return _finite(_apply_reflectors(self.v_blocks, self.v_top @ y))


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


def power_of_two_below(x: float) -> float:
    """The power of two at or below x > 0; 0.5 for x == 0."""
    return math.ldexp(0.5, math.frexp(x)[1])


def _unit_scale(work: np.ndarray) -> float:
    """Divide work in place by the power of two at or below max |work|; return it.

    Sums of squares of the scaled entries neither overflow nor underflow
    (Blue, ACM TOMS 4(1), 1978), and a power of two rounds nothing: the scale
    multiplied back into sigma, r or t gives the unscaled factorization's bits.
    """
    scale = power_of_two_below(np.abs(work).max())
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
    ndim = np.ndim(b)
    if ndim not in (1, 2):
        raise DimensionMismatch(f"{name} must be a vector or a matrix of columns, got {ndim}-D")
    b = _as_array(b, name, ndim)
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
    """Thin QR by the modified Gram-Schmidt process, a panel of _NB columns at a time.

    Within a panel each finished q column is projected out of the panel's
    later columns. The panel's q columns, the rows of v, then reach every
    column past the panel at once: their projections in sequence,
    (I - v_k v_k.T) ... (I - v_0 v_0.T), are I - v.T L^-1 v with
    L = I + tril(v v.T, -1) (Bjorck & Paige, SIMAX 13(1), 1992), so the
    panel's rows of r are L^-1 (v x.T) and x loses r.T v. In exact
    arithmetic these are MGS's r and q, each inner product taken with the
    partially reduced column; orthogonality is lost as MGS loses it, in
    proportion to eps times the condition number (Swirydowicz et al.,
    Numer. Linear Algebra Appl. 28(2), 2021). r has a non-negative diagonal.
    """
    a, scale, floor = _tall_work(a)
    n, m = a.shape
    # The matrix is worked on transposed, so each column is a contiguous row.
    qt = np.ascontiguousarray(a.T)
    r = np.zeros((m, m))
    for lo in range(0, m, _NB):
        hi = min(lo + _NB, m)
        for j in range(lo, hi):
            v = qt[j]
            nrm = math.sqrt(v @ v)
            if nrm * scale < floor[j]:
                raise RankDeficient(f"column {j} collapsed during orthogonalization")
            r[j, j] = nrm
            v /= nrm
            r[j, j + 1:hi] = qt[j + 1:hi] @ v
            qt[j + 1:hi] -= np.outer(r[j, j + 1:hi], v)
        if hi < m:
            v = qt[lo:hi]
            l = v @ v.T  # read below the diagonal only
            np.fill_diagonal(l, 1.0)
            r[lo:hi, hi:] = _substitute(l, v @ qt[hi:].T, lower=True)
            qt[hi:] -= r[lo:hi, hi:].T @ v
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


def _reduce_panel(pt: np.ndarray, v: np.ndarray, t: np.ndarray) -> None:
    """Reduce the transposed panel pt (cols x rows) in place; fill its compact-WY v and t.

    v (rows x cols) and t (cols x cols), zero on entry, get the panel's
    reflectors as _compact_wy lays them out, and t to round-off. At most
    _NB // 4 columns are reduced one reflector at a time, each updating the
    leaf's remaining columns only, and blocked by _compact_wy. A wider
    panel is split in half (Elmroth & Gustavson, IBM J. Res. Dev. 44(4),
    2000; LAPACK's dgeqrt3): the left half is reduced, its q1.T = I - v1
    t1.T v1.T reaches the right half in one product, the right half is
    reduced on the rows below the left half, and the two factors merge with
    t12 = -t1 (v1.T v2) t2.
    """
    cols = pt.shape[0]
    if cols <= _NB // 4:
        reflectors = []
        for i in range(cols):
            u = _reflector(pt[i, i:])
            pt[i:, i:] -= np.outer(2.0 * (pt[i:, i:] @ u), u)
            reflectors.append(u)
        v[:], t[:] = _compact_wy(reflectors, pt.shape[1])
        return
    h = cols // 2
    v1, t1, v2, t2 = v[:, :h], t[:h, :h], v[h:, h:], t[h:, h:]
    _reduce_panel(pt[:h], v1, t1)
    right = pt[h:]
    right -= ((right @ v1) @ t1) @ v1.T
    _reduce_panel(pt[h:, h:], v2, t2)
    t[:h, h:] = -t1 @ ((v1[h:].T @ v2) @ t2)


def _householder_reduce(work: np.ndarray) -> list:
    """Reduce work (rows >= cols, C-contiguous) in place to upper-triangular form.

    Returns the compact-WY blocks (j0, v, t) of the reflectors, one per
    panel of _NB columns: the v that _wy_blocks would form from them and,
    to round-off, its t. A column already zero on and below the diagonal
    gets a zero reflector, the identity. Each panel is reduced transposed,
    by _reduce_panel's recursive halves, so a reflector updates only the
    columns of its leaf; then the panel's block updates every column right
    of it at once, through _apply_qt. The panel transposes and the products
    run on work's layout, so their bits depend on it: work must be
    C-contiguous.
    """
    n, m = work.shape
    blocks = []
    for j0 in range(0, m, _NB):
        j1 = min(j0 + _NB, m)
        # The panel is reduced transposed, so each column is a contiguous row.
        panel = np.ascontiguousarray(work[j0:, j0:j1].T)
        v, t = np.zeros((n - j0, j1 - j0)), np.zeros((j1 - j0, j1 - j0))
        _reduce_panel(panel, v, t)
        work[j0:, j0:j1] = panel.T
        blocks.append((j0, v, t))
        if j1 < m:
            _apply_qt(blocks[-1:], work[:, j1:])
    return blocks


def _pivoted_reduce(work: np.ndarray) -> tuple[list, np.ndarray]:
    """Reduce work (rows >= cols) in place to upper-triangular form, pivoting columns.

    Returns the compact-WY blocks of the reflectors on all of work's rows,
    as _householder_reduce does, and perm with work[:, perm] == q r for the
    input work. Step j swaps the remaining column of largest norm over rows
    j: into place (Businger & Golub, Numer. Math. 7, 1965), so |r[j, j]| >=
    ||r[j:, k]|| for every k > j. The reduction is unblocked, since a pivot
    choice needs the norms after every previous step; its reflectors are
    blocked once, at the end.
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
    return _wy_blocks(reflectors, work.shape[0]), perm


def _apply_reflectors(blocks: list, top: np.ndarray) -> np.ndarray:
    """Return q @ [top; 0], q the product of the compact-WY blocks; top if there are none.

    top is a vector or a matrix of columns, and block 0 spans all of q's
    rows. Every orthogonal factor that is formed at all is formed here: q
    of hessenberg_reduce from top = identity, q of householder_qr from its
    diagonal of signs, the SVD's u and v from their m x m tops. The blocks
    are applied last to first, block j0 to rows j0: as out -= v (t (v.T
    out)), reusing the v and t that the reduction built.
    """
    if not blocks:
        return top
    out = np.zeros((blocks[0][1].shape[0],) + top.shape[1:])
    out[:top.shape[0]] = top
    for j0, v, t in reversed(blocks):
        rows = out[j0:]
        rows -= v @ (t @ (v.T @ rows))
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
        return _apply_reflectors(self.blocks, np.diag(self.signs))

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
    q = _apply_reflectors(_wy_blocks(reflectors, n), np.eye(n))
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


def _tears(lo: int, hi: int, leaf: int = _LEAF, skip: int = 0) -> list:
    """The (lo, mid, hi) splits that halve rows lo:hi into blocks of <= leaf rows.

    A split's halves are rows lo:mid and mid + skip:hi; skip == 1 leaves out
    row mid, the bidiagonal merge row of _bidiag_dc. One list per depth of
    the tree, the top split first. The splits of one depth hold disjoint
    rows, and each lies inside one split of the depth above, so a depth can
    be merged once the one below it is.
    """
    levels, spans = [], [(lo, hi)]
    while True:
        level = [(a, (a + b) // 2, b) for a, b in spans if b - a > leaf]
        if not level:
            return levels
        levels.append(level)
        spans = [half for a, mid, b in level for half in ((a, mid), (mid + skip, b))]


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


def _squares_apart(a, b):
    """a^2 - b^2 as (a - b)(a + b), to full relative accuracy however close a and b are."""
    return (a - b) * (a + b)


def _secular_roots(problems: list, budget: int, *, squared: bool = False) -> list:
    """Roots of 1 / rho + sum_j z_j^2 / (d_j - lam) == 0 for each (d, z, rho) of problems.

    Each d is ascending and distinct. Returns one (lam, delta, passes) per
    problem, with delta[j, i] == d_j - lam_i to full relative accuracy and
    passes the pass at which the problem's last root stopped. Root i lies
    in (d_i, d_i+1), the last in (d_k-1, d_k-1 + rho z.z]. Each root is held
    as tau from its origin, the pole nearer to it, which the secular
    function's sign at the interval's midpoint names (LAPACK's dlaed4);
    then d_j - lam_i == (d_j - d_origin) - tau cancels nothing. Every pass
    evaluates the function at every root and moves each one not yet
    converged to the root of a two-pole rational model that matches the
    function's value and slope: poles d_p and d_q, weighted by the slopes
    of the sums over the poles below d_q and from d_q up (the "middle way"
    of R.-C. Li, LAPACK Working Note 89, 1994). q is i + 1 and p is i,
    except for the last root, which lies above both of its model's poles
    k - 2 and k - 1. A step that leaves the root's bracket, narrowed by the
    sign at every pass, bisects it. A root stops when |f| <= eps times
    dlaed4's bound on the rounding error of the sum.

    With squared, each problem's d holds the nonnegative D of the
    bidiagonal merge's 1 + sum_j z_j^2 / (D_j^2 - sigma^2) == 0 (rho == 1,
    lam == sigma^2), and every difference of two poles, d_j - d_origin
    among them, is formed as (D_j - D_origin)(D_j + D_origin), as dlasd4
    forms its differences of squares. So delta keeps full relative accuracy
    where D_j^2 - D_origin^2 would cancel the rounding of both squares.

    All problems are solved in one set of passes, one root per row, so a
    batch costs the numpy calls of one problem. A row's poles are its own
    problem's, padded out to the widest problem with poles at +inf of
    z == 0, whose term is exactly 0 / inf == 0; rho, the bracket, p, q and
    the origin are per row. The padding changes only the order of the sums.
    Raises NoConvergence once the problems' passes so far sum past budget.
    """
    apart = _squares_apart if squared else np.subtract
    sizes = [d.size for d, _, _ in problems]
    width, rows = max(sizes), sum(sizes)
    pad_d = np.full((len(problems), width), np.inf)
    pad_z2 = np.zeros((len(problems), width))
    for i, (d, z, _) in enumerate(problems):
        pad_d[i, :d.size] = d
        pad_z2[i, :d.size] = z * z
    starts = np.cumsum([0] + sizes[:-1])
    owner = np.repeat(np.arange(len(problems)), sizes)
    rho = np.array([r for _, _, r in problems])[owner]
    k = np.array(sizes)[owner]
    poles, z2 = pad_d[owner], pad_z2[owner]
    row = np.arange(rows)
    idx = row - starts[owner]
    col = np.arange(width)
    last = idx == k - 1
    q = np.minimum(idx + 1, k - 1)
    p = np.maximum(q - 1, 0)
    # The last root's bracket ends at d_k-1 + 2 rho z.z, where f > 0, so the
    # root, at most d_k-1 + rho z.z, lies strictly inside it.
    own = poles[row, idx]
    gap = np.where(last, 2.0 * rho * pad_z2.sum(axis=1)[owner],
                   apart(poles[row, np.minimum(idx + 1, width - 1)], own))
    mid = 0.5 * gap
    span = apart(poles, own[:, None])  # span[i, j] == d_j - d_i
    at_mid = span - mid[:, None]
    f_mid = 1.0 / rho + (z2 / at_mid).sum(axis=1)
    right = (f_mid < 0.0) & ~last
    origin = idx + right
    at_origin = poles[row, origin]
    base = apart(poles, at_origin[:, None])  # d_j - d_origin
    lo = np.where(f_mid < 0.0, np.where(right, mid - gap, mid), 0.0)
    hi = np.where(f_mid < 0.0, np.where(right, 0.0, gap), mid)
    # The first step: the model's poles exact and the other terms frozen at
    # the midpoint (dlaed4's start). A one-pole problem (k == 1) has p == q
    # and s == 0.
    zp2 = np.where(p < q, z2[row, p], 0.0)
    rest = f_mid - zp2 / at_mid[row, p] - z2[row, q] / at_mid[row, q]
    tau = _two_pole_step(rest, zp2, z2[row, q], base[row, p], base[row, q], 0.0, lo, hi)
    # The error bound weights each term by how often it enters dlaed4's
    # running partial sums (|origin - j|), plus 8 off the origin, 3 at it.
    weight = np.abs(origin[:, None] - col[None, :]) + 8.0
    weight[row, origin] = 3.0
    below = (col[None, :] < q[:, None]).astype(float)
    live = np.ones(rows, dtype=bool)
    unsolved = np.ones(len(problems), dtype=bool)
    passes = np.zeros(len(problems), dtype=int)
    while True:
        passes += unsolved
        if passes.sum() > budget:
            raise NoConvergence(f"secular equation unsolved within {budget} passes")
        delta = base - tau[:, None]
        term = z2 / delta
        slope = term / delta
        f = 1.0 / rho + term.sum(axis=1)
        dw = slope.sum(axis=1)
        bound = np.einsum("ij,ij->i", weight, np.abs(term)) + 2.0 / rho + np.abs(tau) * dw
        live &= np.abs(f) > _EPS * bound
        unsolved = np.logical_or.reduceat(live, starts)
        if not unsolved.any():
            break
        lo = np.where(f < 0.0, tau, lo)
        hi = np.where(f > 0.0, tau, hi)
        dp, dq = delta[row, p], delta[row, q]
        psi = np.einsum("ij,ij->i", below, slope)
        phi = dw - psi
        step = _two_pole_step(f - dp * psi - dq * phi, dp * dp * psi, dq * dq * phi,
                              dp, dq, tau, lo, hi)
        tau = np.where(live, step, tau)
    lam = (at_origin * at_origin if squared else at_origin) + tau
    return [(lam[s:s + size], delta[s:s + size, :size].T, int(n))
            for s, size, n in zip(starts.tolist(), sizes, passes)]


def _rotate_close_poles(d: list, z: list, poles: list, tol: float, mats: tuple) -> list:
    """Deflate by rotation each pole of poles, ascending in d, that is close to the next; keep.

    A pole that Givens rotation of its z entry into the next one's changes
    by less than tol keeps its rotated pair: the rotation zeroes its z
    entry, turns the two columns of every matrix in mats, and moves both
    poles to the rotated diagonal's. Pairs are tested in order, since a
    rotation changes the next pair's d. d and z, Python floats, which are
    faster here than numpy's, and mats are updated in place. Returns keep,
    the poles left.
    """
    keep = []
    prev = poles[0]
    for j in poles[1:]:
        if abs((d[j] - d[prev]) * z[j] * z[prev]) <= tol * (z[prev] ** 2 + z[j] ** 2):
            tau = math.hypot(z[prev], z[j])
            c, s = z[j] / tau, -z[prev] / tau
            turn = np.array([[c, -s], [s, c]])
            for mat in mats:
                mat[:, [prev, j]] = mat[:, [prev, j]] @ turn
            z[prev], z[j] = 0.0, tau
            d[prev], d[j] = (d[prev] * c * c + d[j] * s * s,
                             d[prev] * s * s + d[j] * c * c)
        else:
            keep.append(prev)
        prev = j
    keep.append(prev)
    return keep


def _merge_deflate(d: np.ndarray, vecs: np.ndarray, split: int,
                   beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """The first half of a merge: the deflation, and the secular problem it leaves.

    d and the columns of vecs are the eigenpairs of rows :split and split:
    after Cuppen's tear, which subtracted |beta| from the diagonal on both
    sides of it; the tridiagonal is then diag(T1, T2) + rho v v.T with v the
    unit (e_split-1 + sign(beta) e_split) / sqrt(2) and rho == 2 |beta|.
    d and vecs are the node's slices of _tridiag_dc's arrays, and the merge
    works in them: they are sorted and rotated in place. The merge follows
    LAPACK's dlaed2/dlaed3 (Gu & Eisenstat, SIMAX 16(1), 1995): z, the
    vector v seen from the halves' eigenvectors, comes from the two
    boundary rows of vecs, and the pairs are sorted by d. A pole whose
    rho |z_j| is below tol == 8 eps max(|d|, |z|) keeps its pair; a pole
    close to the next is deflated by _rotate_close_poles. Returns d and
    vecs; keep, the indices of the poles left; and their secular problem
    (d[keep], z[keep], rho) for _secular_roots. keep is empty when every
    pole deflates, and then d and vecs hold the merged eigenpairs.
    """
    z = (vecs[split - 1] + math.copysign(1.0, beta) * vecs[split]) / math.sqrt(2.0)
    rho = 2.0 * abs(beta)
    order = np.argsort(d, kind="stable")
    d[:], z, vecs[:] = d[order], z[order], vecs[:, order]
    tol = 8.0 * _EPS * max(np.abs(d).max(), np.abs(z).max())
    poles = np.flatnonzero(rho * np.abs(z) > tol)
    if not poles.size:
        return d, vecs, poles, (d[poles], z[poles], rho)
    d_list, z = d.tolist(), z.tolist()
    keep = np.array(_rotate_close_poles(d_list, z, poles.tolist(), tol, (vecs,)))
    d[:], z = d_list, np.array(z)
    return d, vecs, keep, (d[keep], z[keep], rho)


def _loewner(z: np.ndarray, delta: np.ndarray, span: np.ndarray) -> np.ndarray:
    """The z whose secular equation has the computed roots exactly, signed as z.

    The Loewner formula (Gu & Eisenstat): zhat_j^2 == prod_i (lam_i - d_j) /
    prod_(i != j) (d_i - d_j), up to the factor rho that normalized vectors
    drop, taken as a product of ratios near 1 so that it neither overflows
    nor underflows. delta[j, i] == d_j - lam_i and span[j, i] == d_j - d_i,
    whose diagonal is overwritten by 1. Vectors built on zhat are orthogonal
    to working accuracy however close the roots are.
    """
    np.fill_diagonal(span, 1.0)
    return np.copysign(np.sqrt(-np.prod(delta / span, axis=1)), z)


def _unit_columns(x: np.ndarray) -> np.ndarray:
    """x with each column divided in place by its norm."""
    x /= np.sqrt(np.einsum("ij,ij->j", x, x))
    return x


def _merge_vectors(d: np.ndarray, vecs: np.ndarray, keep: np.ndarray, problem: tuple,
                   lam: np.ndarray, delta: np.ndarray) -> None:
    """The second half of a merge: the poles keep of d and vecs become the roots' eigenpairs.

    d, vecs, keep and problem are _merge_deflate's, lam and delta
    _secular_roots' for problem; d and vecs, the node's slices, are updated
    in place, which finishes the merge. The eigenvectors zhat_j / (d_j -
    lam_i) are built on _loewner's zhat and reach vecs by one product.
    """
    poles, z, _ = problem
    zhat = _loewner(z, delta, poles[:, None] - poles[None, :])
    d[keep] = lam
    vecs[:, keep] = vecs[:, keep] @ _unit_columns(zhat[:, None] / delta)


def _tridiag_dc(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Eigenpairs of the symmetric tridiagonal with diagonal d and off-diagonal e.

    Schur's divide and conquer, as LAPACK's dstedc; the SVD has its own,
    _bidiag_dc. (d, e) is divided by _unit_scale first, so the
    secular equations neither overflow nor underflow. Returns the
    eigenvalues, scaled back, in descending order; the matching
    eigenvector columns; and the work, the QL iterations plus the secular
    passes, against one budget of EIGEN_ITER_FACTOR * n, past which
    NoConvergence is raised.

    Cuppen's rank-one tears (Numer. Math. 36, 1981), rho == |beta| at each,
    halve the tridiagonal until every block has at most _LEAF rows. The
    blocks are solved together by one _tridiag_eigen call on the torn
    tridiagonal: its zeros at the tears keep every QL chase inside its
    block. A block's eigenvector rows are zero outside its own columns, so
    the call turns block-local rows: column j of row i stands for column
    j of the block that holds row i. The blocks are then merged bottom-up,
    one depth of _tears at a time. The merges of a depth hold disjoint
    rows: each is deflated by _merge_deflate, the secular problems left
    are solved by one _secular_roots call, and each merge is finished by
    _merge_vectors. Both work in the node's slices of d and vecs, so no
    merge is copied back.
    """
    n = d.size
    de = np.concatenate((d, e))
    scale = _unit_scale(de)
    d, e = de[:n], de[n:]
    max_iter = EIGEN_ITER_FACTOR * n
    levels = [[(lo, mid, hi, float(e[mid - 1])) for lo, mid, hi in level]
              for level in _tears(0, n)]
    tears = [tear for level in levels for tear in level]
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
    for level in reversed(levels):
        merges = [_merge_deflate(d[lo:hi], vecs[lo:hi, lo:hi], mid - lo, beta)
                  for lo, mid, hi, beta in level]
        solved = [merge for merge in merges if merge[2].size]
        if solved:
            roots = _secular_roots([problem for *_, problem in solved], max_iter - total)
            for merge, (lam, delta, passes) in zip(solved, roots):
                _merge_vectors(*merge, lam, delta)
                total += passes
    order = np.argsort(d)[::-1]
    return d[order] * scale, vecs[:, order], total


def schur_decompose(a) -> SimilarityFactors:
    """Real Schur form of a symmetric (PSD in practice) matrix.

    Tridiagonalizes with Householder reflectors, then finds the
    tridiagonal's eigenpairs by divide and conquer, _tridiag_dc, whose
    scale, budget and order rules hold here. t is diagonal with the
    eigenvalues in descending order, and q is the reduction's q times the
    matching eigenvectors. The factors solve as hessenberg_reduce's do,
    through Thomas elimination, whose pivots here are the eigenvalues: an
    eigenvalue below _zero_below the largest |eigenvalue| raises
    SingularMatrix naming its row.
    """
    base = hessenberg_reduce(a)
    d, vecs, iterations = _tridiag_dc(np.diag(base.t), np.diag(base.t, -1))
    return SimilarityFactors(q=base.q @ vecs, t=np.diag(d), iterations=iterations)


@_QUIET
def tridiagonal_solve(t, b) -> np.ndarray:
    """Solve t @ x = b for tridiagonal t without forming an inverse.

    b may be a vector or a matrix of right-hand-side columns; only the three
    central diagonals of t are read, so the cost is O(n) per column. Raises
    SingularMatrix when an elimination pivot falls below _zero_below the
    largest entry of those diagonals.
    """
    return _finite(_thomas(*_square_system(t, b, "t", "b")))


def _thomas(t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve t @ x = b by Thomas elimination, reading only t's three central diagonals.

    t is tridiagonal or diagonal. A zero coupling takes no elimination step,
    since x - 0 * y is x, so a diagonal t costs about one division per row.
    A matrix b is overwritten by the answer and returned.
    """
    n = t.shape[0]
    bands = [np.diag(t, k) for k in (0, -1, 1)]
    peak = max(np.abs(band).max(initial=0.0) for band in bands)
    # The sweeps solve (t / scale) y == b, so no elimination pivot of a huge
    # t overflows; x is y / scale. A power of two rounds nothing, so
    # neither the pivot test nor the answer changes a bit on other input.
    scale = power_of_two_below(peak)
    floor = _zero_below(peak) / scale
    # The sweeps run on Python floats, which are faster here than numpy's.
    # A row of x is a float for a vector b and a row of b, updated in
    # place, for a matrix, so one loop serves both.
    diag, lower, upper = ((band / scale).tolist() for band in bands)
    x = b.tolist() if b.ndim == 1 else b
    # Thomas elimination: sweep down, then back-substitute.
    for i in range(n):
        if i > 0 and lower[i - 1]:
            w = lower[i - 1] / diag[i - 1]
            diag[i] -= w * upper[i - 1]
            x[i] -= w * x[i - 1]
        if abs(diag[i]) < floor:
            raise SingularMatrix(f"vanishing pivot at row {i}")
    for i in range(n - 1, -1, -1):
        if i < n - 1 and upper[i]:
            x[i] -= upper[i] * x[i + 1]
        x[i] /= diag[i]
    x = np.asarray(x)
    x /= scale
    return x


# ---------------------------------------------------------------------------
# SVD by Golub-Kahan bidiagonalization
# ---------------------------------------------------------------------------

def _orthonormal_half(y: np.ndarray) -> np.ndarray:
    """y, whose columns are near orthonormal, made orthonormal.

    If every entry of g == y.T y - I is within sqrt(eps), one Newton-Schulz
    step toward the nearest orthonormal matrix (Bjorck & Bowie, SIAM J.
    Numer. Anal. 8(2), 1971), y - y g / 2, leaves about 3/4 ||g||^2 plus
    rounding. Otherwise y is replaced by the q of its Householder QR, which
    is orthonormal even when y is degenerate and keeps the span of each
    leading set of columns.
    """
    g = y.T @ y
    g[np.diag_indices_from(g)] -= 1.0
    if np.abs(g).max() <= math.sqrt(_EPS):
        return y - 0.5 * (y @ g)
    return _householder_factors(y).q


def _bidiag_deflate(sig: np.ndarray, u: np.ndarray, v: np.ndarray, split: int,
                    alpha: float, beta: float) -> tuple:
    """The first half of a bidiagonal merge: the deflation, and the secular problem it leaves.

    The merge follows LAPACK's dlasd1/dlasd2. sig, u and v are a node's
    slices of _bidiag_dc's arrays, and the merge works in them: n rows,
    n + sq columns, row split the merge row, which holds alpha at column
    split and beta at split + 1. u and v hold the children's singular
    vectors, so u.T b v == [M, w]: M == diag(D) + e_split z.T with D the
    children's singular values, sig[split] read as D_split == 0 for the
    left child's null vector, and z == alpha v[split] + beta v[split + 1],
    the last row of the left child's v and the first row of the right's.
    With sq == 1, w is z's last entry times e_split, the right child's null
    vector; a rotation of the two null columns moves it into z_split, and
    the rotated column, last in v, is the node's null vector.

    The merge is divided by the power of two at or below max(|D|, |z|)
    (dlasd1's ORGNRM), so that the secular equation's squares neither
    underflow nor overflow, and the poles are sorted by D, the zero pole
    first. With tol == 8 eps of the scaled max: the zero pole never
    deflates, and its z is floored at tol; a pole with |z_j| <= tol keeps
    its columns, with sigma == D_j; a pole close to the next is deflated by
    _rotate_close_poles, which turns u's and v's columns alike. The first
    pole left after the zero pole is moved up to tol / 2 if it is within
    that of zero (dlasd2), so the poles stay distinct. sig becomes the
    scaled D, and sig, u and v are sorted and rotated in place. Returns the
    scale; sig, u and v; keep, the poles left, the zero pole first; and
    their squared-mode secular problem (D[keep], z[keep], 1).
    """
    n = sig.size
    z = alpha * v[split] + beta * v[split + 1]
    sig[split] = 0.0
    peak = max(np.abs(sig).max(), np.abs(z).max())
    scale = power_of_two_below(peak)
    sig /= scale
    z /= scale
    tol = 8.0 * _EPS * max(peak / scale, 1.0)
    if v.shape[1] > n:
        null = math.hypot(z[split], z[n])
        if null > tol:
            c, s = z[split] / null, z[n] / null
            v[:, [split, n]] = v[:, [split, n]] @ np.array([[c, -s], [s, c]])
            z[split] = null
    key = sig.copy()
    key[split] = -1.0
    order = np.argsort(key, kind="stable")
    sig[:], z, u[:] = sig[order], z[order], u[:, order]
    v[:, :n] = v[:, order]
    z[0] = z[0] if abs(z[0]) > tol else tol
    poles = (1 + np.flatnonzero(np.abs(z[1:]) > tol)).tolist()
    d, z = sig.tolist(), z.tolist()
    keep = [0] + (_rotate_close_poles(d, z, poles, tol, (u, v)) if poles else [])
    if len(keep) > 1 and abs(d[keep[1]]) <= 0.5 * tol:
        d[keep[1]] = 0.5 * tol
    sig[:], z, keep = d, np.array(z), np.array(keep)
    return scale, sig, u, v, keep, (sig[keep], z[keep], 1.0)


def _bidiag_vectors(scale: float, d: np.ndarray, u: np.ndarray, v: np.ndarray,
                    keep: np.ndarray, problem: tuple, lam: np.ndarray,
                    delta: np.ndarray) -> None:
    """The second half of a bidiagonal merge: the poles keep become the roots' triplets.

    scale, d, u, v, keep and problem are _bidiag_deflate's, lam and delta
    _secular_roots' for problem in squared mode; d, u and v, the node's
    slices, are updated in place, which finishes the merge, and d is scaled
    back. As in dlasd3, on _loewner's zhat for the squared poles, M's right
    singular vector of sigma_i is zhat_j / (D_j^2 - sigma_i^2), and its left
    one D_j zhat_j / (D_j^2 - sigma_i^2), with -1 at the zero pole. Each
    reaches its factor by one product.
    """
    poles, z, _ = problem
    zhat = _loewner(z, delta, _squares_apart(poles[:, None], poles[None, :]))
    right = zhat[:, None] / delta
    left = (poles * zhat)[:, None] / delta
    left[0] = -1.0
    d[keep] = np.sqrt(lam)
    d *= scale
    u[:, keep] = u[:, keep] @ _unit_columns(left)
    v[:, keep] = v[:, keep] @ _unit_columns(right)


def _bidiag_dc(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """SVD b == u_b diag(sigma) v_b.T of the upper bidiagonal b, diagonal d, superdiagonal e.

    The SVD's divide and conquer, as LAPACK's dbdsdc (Gu & Eisenstat,
    "A divide-and-conquer algorithm for the bidiagonal SVD", SIMAX 16(1),
    1995). (d, e) is divided by _unit_scale first. Returns sigma, scaled
    back, in descending order; the matching columns of u_b and v_b; and the
    work, the QL iterations plus the secular passes, against one budget of
    EIGEN_ITER_FACTOR * 2k, k == d.size, past which NoConvergence is raised.

    A node of the tree (dlasd0) is rows lo:hi and columns lo:hi + sq of b,
    with sq == 1 when hi < k. _tears(0, k, _LEAF // 2, 1) splits it at
    row r == (lo + hi) // 2 into a left child, rows lo:r and columns
    lo:r + 1, so with sq == 1; the merge row r, d[r] at column r and e[r]
    at r + 1; and a right child, rows r + 1:hi, with the node's sq.
    Children hold disjoint rows and columns, so u and v stay k x k
    block-diagonal arrays: each node's block holds its singular vectors,
    and an sq node's v its null vector last.

    The leaves, of at most _LEAF // 2 rows, are solved together by one
    _tridiag_eigen call on the Golub-Kahan tridiagonal (Golub & Kahan,
    SIAM J. Numer. Anal. 2(2), 1965): zero diagonal, off-diagonal (d0, e0,
    d1, e1, ...), torn at each merge row, so a leaf's own tridiagonal has
    at most _LEAF + 1 rows. Its eigenvector of +sigma holds v in its even
    rows and u in its odd rows, each of norm 1 / sqrt(2); an sq leaf's
    null vector is the even part of its zero eigenvector. For close +-
    pairs the halves lose orthogonality separately (Willems, Lang & Vomel,
    SIMAX 28(3), 2006), so the halves, scaled by sqrt(2) (a null vector as
    it is), go through _orthonormal_half, one call for all of u and one for
    all of v: a reflector of a block-diagonal matrix stays inside its block.

    The nodes are then merged bottom-up, one depth of the tree at a time:
    each by _bidiag_deflate, the depth's secular problems by one
    squared-mode _secular_roots call, each merge finished by
    _bidiag_vectors. Both work in the node's slices of sigma, u and v, so
    no merge is copied back. A merge solves for its n singular values over
    n poles, where the Golub-Kahan tridiagonal's would solve for 2n
    eigenvalues.
    """
    k = d.size
    de = np.concatenate((d, e))
    scale = _unit_scale(de)
    d, e = de[:k], de[k:]
    max_iter = EIGEN_ITER_FACTOR * 2 * k
    levels = [[(lo, r, hi, int(hi < k)) for lo, r, hi in level]
              for level in _tears(0, k, _LEAF // 2, 1)]
    rows = sorted(r for level in levels for _, r, _, _ in level)
    # Leaf rows lo:hi, columns lo:hi + sq, are rows 2 lo:2 hi + sq of the
    # Golub-Kahan tridiagonal.
    leaves = [(lo, hi, int(hi < k))
              for lo, hi in zip([0] + [r + 1 for r in rows], rows + [k])]
    gk = np.empty(2 * k - 1)
    gk[0::2], gk[1::2] = d, e
    for r in rows:
        gk[2 * r:2 * r + 2] = 0.0
    zt = np.zeros((2 * k, max(2 * (hi - lo) + sq for lo, hi, sq in leaves)))
    for lo, hi, sq in leaves:
        size = 2 * (hi - lo) + sq
        zt[2 * lo:2 * lo + size, :size] = np.eye(size)
    lam, total = _tridiag_eigen(np.zeros(2 * k), gk, zt, max_iter)
    sigma = np.zeros(k)
    # A merge row's column of u is its own row until its merge.
    u, v = np.eye(k), np.zeros((k, k))
    for lo, hi, sq in leaves:
        n, size = hi - lo, 2 * (hi - lo) + sq
        # The n + sq largest eigenvalues: the leaf's sigmas, then its null vector's zero.
        top = 2 * lo + np.argsort(lam[2 * lo:2 * lo + size])[::-1][:n + sq]
        y = zt[top, :size]
        y[:n] *= math.sqrt(2.0)
        sigma[lo:hi] = lam[top[:n]]
        u[lo:hi, lo:hi] = y[:n, 1::2].T
        v[lo:hi + sq, lo:hi + sq] = y[:, 0::2].T
    u, v = _orthonormal_half(u), _orthonormal_half(v)
    for level in reversed(levels):
        merges = [_bidiag_deflate(sigma[lo:hi], u[lo:hi, lo:hi], v[lo:hi + sq, lo:hi + sq],
                                  r - lo, d[r], e[r]) for lo, r, hi, sq in level]
        roots = _secular_roots([merge[-1] for merge in merges], max_iter - total,
                               squared=True)
        for merge, (lam, delta, passes) in zip(merges, roots):
            _bidiag_vectors(*merge, lam, delta)
            total += passes
    order = np.argsort(sigma)[::-1]
    return sigma[order] * scale, u[:, order], v[:, order], total


def _bidiagonalize(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, list, list]:
    """Reduce t (m x k, m >= k, C-contiguous) in place to upper bidiagonal form.

    Returns the diagonal d, the superdiagonal e, the k left reflectors,
    reflector j on rows j:, and the k right reflectors, reflector j on
    columns j: and the first one zero, the identity. Step j reads the
    trailing block rest = t[j:, j:] twice and rewrites it once (Howell et
    al., ACM TOMS 34(3), 2008): v reflects column j, y = 2 v.T rest, and w
    reflects row j as the left update leaves it, rest[0] - v[0] y, which
    is not written back. Both updates then go in as one rank-2 product,
    rest -= [v z] [y; w] with z = 2 (rest w - v (y.w)), as
    hessenberg_reduce builds its steps.
    """
    m, k = t.shape
    left, right = [], [np.zeros(k)]
    # [v z] on t's m rows and [y; w] on its k columns. w's leading entry
    # stays zero, so column j takes the left update only.
    vz, yw = np.empty((m, 2)), np.zeros((2, k))
    for j in range(k):
        rest = t[j:, j:]
        v = _reflector(rest[:, 0])
        y = 2.0 * (v @ rest)
        left.append(v)
        if j == k - 1:
            rest -= np.outer(v, y)
            break
        w = _reflector(rest[0, 1:] - v[0] * y[1:])
        right.append(w)
        a, b = vz[:m - j], yw[:, :k - j]
        a[:, 0], b[0], b[1, 1:] = v, y, w
        a[:, 1] = 2.0 * (rest[:, 1:] @ w - (y[1:] @ w) * v)
        rest -= a @ b
    return np.diag(t), np.diag(t, 1), left, right


def svd(a) -> SvdFactors:
    """Thin SVD by Golub-Kahan bidiagonalization and bidiagonal divide and conquer.

    A wide matrix is factored through its transpose. Every other n x m
    matrix, square or tall, is first reduced by _householder_reduce's
    recursive panels, a == q r, to its m x m triangular factor r (Chan,
    ACM TOMS 8(1), 1982). Then:

    - if r has a diagonal entry below _zero_below the largest, the reduction
      is discarded and a is reduced again, by the column-pivoted reduction
      a[:, perm] == q r (Businger & Golub, Numer. Math. 7, 1965). It gives
      |r[j, j]| >= ||r[j:, c]|| for c > j, so a zero pivot leaves every
      later row of r exactly zero. Only the k rows above the first zero
      pivot go on; the trailing m - k singular values are exact zeros. Any
      other r has full rank and goes on whole, with perm the identity;
    - t == r[:k].T, m x k, is bidiagonalized by _bidiagonalize, by
      reflectors on rows j: from the left and on columns j + 1: from the
      right, t == pl [b; 0] pr.T with b upper bidiagonal, diagonal d and
      superdiagonal e (Golub & Kahan, SIAM J. Numer. Anal. 2(2), 1965).
      Each step's two reflectors update the trailing block in one rank-2
      product, one pass over it;
    - _bidiag_dc gives b == u_b diag(sigma) v_b.T under its scale, budget
      and order rules.

    Since a[:, perm] == q r and r[:k] == pr v_b diag(sigma) u_b.T
    pl[:, :k].T, u is q diag(pr v_b, I) and v[perm] is pl diag(u_b, I).
    The factors keep q as its compact-WY blocks and diag(pr v_b, I) as u's
    m x m top, so the n x m u is formed only when read.
    """
    work = as_matrix(a, "a")
    wide = work.shape[0] < work.shape[1]
    work = np.ascontiguousarray(work.T if wide else work)
    m = work.shape[1]
    scale = _unit_scale(work)
    blocks = _householder_reduce(work)
    perm, k = np.arange(m), m
    pivots = np.abs(np.diag(work))
    if pivots.min() < _zero_below(pivots.max()):
        # A fresh copy of a, divided by the same power of two: the bits
        # that _householder_reduce started from.
        work = as_matrix(a, "a")
        work = (work.T if wide else work) / scale
        blocks, perm = _pivoted_reduce(work)
        # An all-zero r still bidiagonalizes one zero column, to sigma == 0.
        k = max(int(np.count_nonzero(np.diag(work))), 1)
    d, e, left, right = _bidiagonalize(np.ascontiguousarray(np.triu(work[:k]).T))
    sigma_b, u_b, v_b, iterations = _bidiag_dc(d, e)
    u_r, v_r = np.eye(m), np.eye(m)
    u_r[:k, :k] = _apply_reflectors(_wy_blocks(right, k), v_b)
    v_r[:k, :k] = u_b
    v = np.empty((m, m))
    v[perm] = _apply_reflectors(_wy_blocks(left, m), v_r)
    sigma = np.zeros(m)
    sigma[:k] = sigma_b * scale
    u_side, v_side = (blocks, u_r), ([], v)
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
