"""Low-rank tools: scaled Taylor and Lagrange farfield bases, strong
rank-revealing QR, row interpolative compression, and the columns that span
a nearfield block to a tolerance, taken from a Gaussian sketch of a wide
block.

The Taylor basis for 1/(x-y) uses per-order scaling factors eta so that basis
entries stay O(1) on the box; the coupling table that reproduces the kernel is
anti-triangular in the two expansion orders.  Compression selects skeleton
rows with a pivoted QR followed by bounded-entry swaps, which keeps the
interpolation coefficients no larger than the swap threshold s.

The pivoted QR, the swap loop's refactorizations and its triangular solves
call LAPACK's geqp3, geqrf and trtrs directly.  Each node's blocks are a
few dozen rows and columns, and at that size scipy.linalg spent more time
around LAPACK than in it: on a 2-core x86-64 VM with OpenBLAS, the pivoted
QR of a 22 x 16 complex block took 37 us through ``scipy.linalg.qr`` and 24
us direct, and a 22 x 22 triangular solve against 22 columns 35 us through
``solve_triangular`` and 16 us direct.  The direct calls keep everything
that sets the bits of the result, so the factors are scipy's bit for bit:
the workspace query (lwork = -1) scipy makes first, since geqp3 and geqrf
choose their blocking from the workspace they are given; R as the upper
triangle np.triu returns, in its memory order; and solve_triangular's
choice of the transposed system for a triangle that is not F-ordered.
Non-finite input is still refused with ValueError, once per factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

_DEFICIENCY_RTOL = 1e-14  # rank cut: R11 diagonal against its first entry
_SWAP_BOUND = 2.0         # the bound s on the interpolation coefficients
_MAX_SWAPS = 200
_LOG_MAX = math.log(np.finfo(float).max)


# ---------------------------------------------------------------------------
# scaled Taylor expansion of the Cauchy kernel
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _taylor_orders(r: int):
    """(l, (l/e) (2 pi r)^(1/(2r)), l!) for l = 0..r-1, as read-only float
    arrays: what the scaled Taylor basis of order r needs besides the box."""
    ls = np.arange(r, dtype=float)
    base = (ls / math.e) * (2 * math.pi * r) ** (1.0 / (2 * r))
    fact = np.array([math.factorial(l) for l in range(r)], dtype=float)
    for a in (ls, base, fact):
        a.setflags(write=False)
    return ls, base, fact


def taylor_eta(r: int, delta: float) -> np.ndarray:
    """Scaling factors eta_l = ((l/e) * (2 pi r)^(1/(2r)) / delta)^l, eta_0 = 1.
    Raises ValueError if one of them is past the double range."""
    if delta <= 0:
        raise ValueError("box radius must be positive")
    ls, base, _ = _taylor_orders(r)
    # once eta_l passes 1 it grows with l, so the last one is the largest
    if r > 1 and (r - 1) * (math.log(base[-1]) - math.log(delta)) > _LOG_MAX:
        raise ValueError("the Taylor basis of order r = %d overflows on a box "
                         "of radius %g; use a lower order" % (r, delta))
    out = np.ones(r)
    out[1:] = (base[1:] / delta) ** ls[1:]
    return out


def taylor_basis(center, delta: float, pts: np.ndarray, r: int) -> np.ndarray:
    """Columns eta_l (z - c)^l / l! for l = 0..r-1, evaluated at scalar
    (real or complex) points z."""
    pts = np.asarray(pts)
    eta = taylor_eta(r, delta)
    dz = (pts - center)[:, None]
    pows = np.ones((pts.size, r), dtype=dz.dtype)
    if r > 1:
        pows[:, 1:] = np.cumprod(np.repeat(dz, r - 1, axis=1), axis=1)
    return pows * (eta / _taylor_orders(r)[2])[None, :]


def taylor_coupling(center_a, delta_a: float, center_b, delta_b: float, r: int):
    """Anti-triangular table T with T[l, m] = coefficient of the (l, m) basis
    pair, nonzero only for l + m <= r - 1."""
    D = center_a - center_b
    if D == 0:
        raise ValueError("expansion centers coincide")
    eta_a = taylor_eta(r, delta_a)
    eta_b = taylor_eta(r, delta_b)
    dtype = complex if isinstance(D, complex) else float
    T = np.zeros((r, r), dtype=dtype)
    # coefficient of dx^l dy^m in 1/(x-y): (-1)^l (l+m)! / D^(l+m+1),
    # divided by the eta scalings baked into the basis columns
    for l in range(r):
        for m in range(r - l):
            k = l + m
            T[l, m] = ((-1.0) ** l) * math.factorial(k) / (
                D ** (k + 1) * eta_a[l] * eta_b[m])
    return T


def taylor_bases(center_a, delta_a: float, center_b, delta_b: float,
                 pts_a, pts_b, r: int):
    """(U, T, V) with U T V^T approximating 1/(x-y) on a well-separated pair
    of boxes, given by their centers and radii; centers and points are
    scalars (complex for planar sets)."""
    U = taylor_basis(center_a, delta_a, np.asarray(pts_a), r)
    V = taylor_basis(center_b, delta_b, np.asarray(pts_b), r)
    T = taylor_coupling(center_a, delta_a, center_b, delta_b, r)
    return U, T, V


def taylor_tail_bound(tau: float, r: int) -> float:
    """Entrywise truncation bound (1 + tau) tau^r / (1 - tau), relative to the
    largest kernel value on the admissible block."""
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0, 1)")
    return (1 + tau) * tau ** r / (1 - tau)


# ---------------------------------------------------------------------------
# Lagrange interpolation basis
# ---------------------------------------------------------------------------


def _cheb_nodes(a: float, b: float, m: int) -> np.ndarray:
    k = np.arange(m)
    return 0.5 * (a + b) + 0.5 * (b - a) * np.cos((2 * k + 1) * np.pi / (2 * m))


def _lagrange_cols(x: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Barycentric evaluation of all cardinal polynomials at the points x."""
    m = nodes.size
    w = (-1.0) ** np.arange(m) * np.sin((2 * np.arange(m) + 1) * np.pi / (2 * m))
    diff = x[:, None] - nodes[None, :]
    exact = diff == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = w[None, :] / diff
        L = terms / terms.sum(axis=1)[:, None]
    hit = exact.any(axis=1)
    if np.any(hit):
        L[hit] = exact[hit].astype(float)
    return L


def interp_basis(lo, hi, pts: np.ndarray, r: int) -> np.ndarray:
    """Lagrange cardinal basis at Chebyshev points of the box with corners
    lo and hi, evaluated at pts; in 2-d a tensor grid of ceil(sqrt(r))^2
    nodes is trimmed back to r columns by total degree."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    scale = max(np.max(hi - lo), 1.0)
    for a, b in zip(lo, hi):
        if not b - a > 1e-14 * scale:
            raise ValueError("degenerate box dimension; interpolation nodes "
                             "would coincide")
    d = lo.size
    if d == 1:
        return _lagrange_cols(pts[:, 0], _cheb_nodes(lo[0], hi[0], r))
    if d != 2:
        raise ValueError("interpolation basis supports d = 1 or 2")
    m = math.ceil(math.sqrt(r))
    L1 = _lagrange_cols(pts[:, 0], _cheb_nodes(lo[0], hi[0], m))
    L2 = _lagrange_cols(pts[:, 1], _cheb_nodes(lo[1], hi[1], m))
    pairs = sorted(((i + j, i, j) for i in range(m) for j in range(m)))[:r]
    return np.column_stack([L1[:, i] * L2[:, j] for _, i, j in pairs])


# ---------------------------------------------------------------------------
# strong rank-revealing QR and interpolative row compression
# ---------------------------------------------------------------------------


def _qr_r(M: np.ndarray, rows: int, pivoting: bool):
    """The first ``rows`` rows of R in the QR of the finite M, and with
    ``pivoting`` the column pivots (0-based): the bits of
    ``scipy.linalg.qr(M, mode="r", pivoting=pivoting)`` from one geqp3 or
    geqrf call, after the same workspace query."""
    name = "geqp3" if pivoting else "geqrf"
    f, = get_lapack_funcs((name,), (M,))
    lwork = f(M, lwork=-1)[-2][0].real.astype(np.int_)
    out = f(M, lwork=lwork)
    if out[-1] < 0:
        raise ValueError("illegal value in argument %d of LAPACK %s%s"
                         % (-out[-1], f.typecode, name))
    # np.triu as scipy applies it, so R has the layout scipy's has: the
    # layout picks the LAPACK path of the triangular solve, and its rounding
    R = np.triu(out[0][:rows])
    return (R, out[1] - 1) if pivoting else R


def _solve_r11(R: np.ndarray, k: int) -> np.ndarray:
    """R11^{-1} R12 for the leading k rows of _qr_r's R, from one trtrs
    call: the bits of ``scipy.linalg.solve_triangular(R11, R12)``, which
    solves the transposed lower system where R11 is not F-ordered."""
    A, B = R[:k, :k], R[:k, k:]
    f, = get_lapack_funcs(("trtrs",), (A, B))
    W, info = (f(A, B, lower=0, trans=0) if A.flags.f_contiguous
               else f(A.T, B, lower=1, trans=1))
    if info > 0:
        raise np.linalg.LinAlgError("singular R11 at diagonal %d" % (info - 1))
    if info < 0:
        raise ValueError("illegal value in argument %d of LAPACK %strtrs"
                         % (-info, f.typecode))
    return W


@dataclass
class SrrqrResult:
    perm: np.ndarray      # column permutation (indices into the input)
    R11: np.ndarray
    R12: np.ndarray
    R22: np.ndarray
    W: np.ndarray         # R11^{-1} R12, k x (n - k)
    rank: int
    swaps: int


def srrqr(M: np.ndarray, k: int = None) -> SrrqrResult:
    """Column-pivoted QR with bounded-entry postprocessing; R only.

    After the initial pivoted factorization, any entry of W = R11^{-1} R12
    larger than s = 2 triggers a column swap and refactorization, so the
    returned factorization satisfies max|W| <= s.  The rank k is capped at
    the numerical rank (trailing R11 diagonal below 1e-14 times the leading
    one); pass k=None for rank detection alone.
    """
    M = np.asarray(M)
    m, n = M.shape
    kmax = min(m, n)
    if kmax == 0:
        e = np.empty((0, n), dtype=M.dtype)
        return SrrqrResult(np.arange(n), e[:, :0], e, M.copy(), e, 0, 0)
    if not np.isfinite(M).all():
        raise ValueError("array must not contain infs or NaNs")
    R, piv = _qr_r(M, kmax, pivoting=True)
    k = kmax if k is None else min(k, kmax)
    d = np.abs(np.diag(R))  # not empty: kmax > 0
    k = int(min(k, np.count_nonzero(d > _DEFICIENCY_RTOL * d[0])))
    swaps = 0
    while True:
        W = (_solve_r11(R, k) if 0 < k < n
             else np.empty((k, n - k), dtype=R.dtype))
        if W.size == 0 or np.max(np.abs(W)) <= _SWAP_BOUND:
            break
        if swaps >= _MAX_SWAPS:
            raise RuntimeError("srrqr swap loop exceeded %d iterations"
                               % _MAX_SWAPS)
        i, j = np.unravel_index(np.argmax(np.abs(W)), W.shape)
        piv = piv.copy()
        piv[i], piv[k + j] = piv[k + j], piv[i]
        R = _qr_r(M[:, piv], kmax, pivoting=False)
        swaps += 1
    return SrrqrResult(piv, R[:k, :k], R[:k, k:], R[k:, k:], W, k, swaps)


@dataclass
class InterpolativeFactor:
    """Row interpolation C ~= X C[skel_local] with X = P [I; G] and |G| <= s.

    ``skel`` holds the caller's labels for the selected rows (the entries of
    the ibar argument), ``skel_local`` their positions within it.
    """

    perm: np.ndarray
    G: np.ndarray
    skel: np.ndarray

    @property
    def rank(self) -> int:
        return self.skel.size

    @property
    def skel_local(self) -> np.ndarray:
        return self.perm[:self.rank]

    def apply_t(self, Q: np.ndarray) -> np.ndarray:
        """X.T @ Q without forming X."""
        k = self.rank
        return Q[self.perm[:k]] + self.G.T @ Q[self.perm[k:]]

    def expand(self) -> np.ndarray:
        X = np.zeros((self.perm.size, self.rank), dtype=self.G.dtype)
        X[self.perm[:self.rank]] = np.eye(self.rank, dtype=self.G.dtype)
        X[self.perm[self.rank:]] = self.G
        return X


def compr(C: np.ndarray, ibar: np.ndarray) -> InterpolativeFactor:
    """Interpolative row compression of C, labeling rows by ibar.

    The cut keeps the full numerical rank, so the skeleton reproduces C to
    working precision; C with no columns (or all zeros) yields an empty
    skeleton.
    """
    C = np.asarray(C)
    ibar = np.asarray(ibar, dtype=np.int64)
    if C.shape[0] != ibar.size:
        raise ValueError("row labels do not match C")
    res = srrqr(C.T)
    k = res.rank
    return InterpolativeFactor(
        perm=np.asarray(res.perm, dtype=np.int64),
        G=res.W.T,
        skel=ibar[res.perm[:k]],
    )


def _core(M: np.ndarray) -> np.ndarray:
    """M's square core: R^H from the QR of a wide M^H (M = R^H Q^H), with
    M's column space and singular values; M itself when not wide."""
    m, n = M.shape
    if m >= n:
        return M
    # R alone from one geqrf call, as srrqr takes it: 27 ms on a 1869 x 496
    # block where scipy.linalg.qr(mode="raw") took 39 ms (the VM above, one
    # BLAS thread)
    return _qr_r(M.conj().T, m, pivoting=False).conj().T


_DRAW_BLOCK = (1024, 64)  # rows and columns of each block of gaussian()


def gaussian(rows: int, cols: int, old: np.ndarray = None) -> np.ndarray:
    """A standard normal matrix of at least rows x cols, drawn in blocks of
    1024 x 64, each from its own ``default_rng([0, row block, column
    block])``: an entry depends on its position alone, not on the size
    drawn.  The blocks ``old`` (an earlier result) holds are copied, not
    drawn again; ``old`` itself is returned when it is large enough."""
    br, bc = _DRAW_BLOCK
    have = (0, 0) if old is None else old.shape
    R = max(-(-rows // br) * br, have[0])
    C = max(-(-cols // bc) * bc, have[1])
    if old is not None and (R, C) == have:
        return old
    out = np.empty((R, C))
    if old is not None:
        out[:have[0], :have[1]] = old
    for a in range(0, R, br):
        for b in range(have[1] if a < have[0] else 0, C, bc):
            rng = np.random.default_rng([0, a // br, b // bc])
            out[a:a + br, b:b + bc] = rng.standard_normal((br, bc))
    return out


def range_columns(M: np.ndarray, eps: float, omega: np.ndarray) -> np.ndarray:
    """Columns spanning M's column space to eps relative, without an SVD.

    A wide m x n M (m < n) is first sketched, ``Y = M @ omega[:n, :m]``: one
    product with a standard normal test matrix (``gaussian``), which spans
    M's column space with high probability (the randomized range finder of
    Halko, Martinsson and Tropp, SIAM Review 2011).  A block that is not
    wide is its own Y.  The columns returned are the leading pivots of a
    column-pivoted QR of Y: the fewest whose remainder R22 has a Frobenius
    norm of at most eps times the first pivot.  The sketch is taken of M in
    C order, so it depends on M's values, not on its layout: M and -M give
    exact negatives.  A complex M is sketched by its real and imaginary
    parts, stacked, in one real product.  The columns keep their
    magnitudes; eps = 0 keeps every pivot with a nonzero remainder.
    """
    M = np.asarray(M)
    m, n = M.shape
    if M.size == 0:
        return M[:, :0]
    Y = M
    if m < n:
        test = omega[:n, :m]
        if M.dtype.kind == "c":
            Y = np.vstack([M.real, M.imag]) @ test
            Y = Y[:m] + 1j * Y[m:]
        else:
            Y = np.ascontiguousarray(M) @ test
    R, piv = _qr_r(Y, min(Y.shape), pivoting=True)
    # squared Frobenius norm of R[k:, k:] for each k: R is upper triangular
    rest = np.cumsum(np.sum(np.abs(R) ** 2, axis=1)[::-1])[::-1]
    return Y[:, piv[:np.count_nonzero(rest > (eps * abs(R[0, 0])) ** 2)]]


@dataclass
class TruncatedSvd:
    S: np.ndarray        # kept left singular vectors
    sigma: np.ndarray


def truncated_svd(M: np.ndarray, eps: float) -> TruncatedSvd:
    """SVD truncation keeping singular values >= eps times the largest.

    A wide M = R^H Q^H (from the QR of M^H) shares its left singular vectors
    and singular values with the square R^H, so only R is formed and the SVD
    runs on m x m instead of m x n (Chan's R-SVD).
    """
    M = np.asarray(M)
    m, n = M.shape
    if min(m, n) == 0:
        return TruncatedSvd(np.zeros((m, 0), dtype=M.dtype), np.zeros(0))
    # numpy's SVD releases the interpreter lock as scipy's QR does
    U, sig, _ = np.linalg.svd(_core(M), full_matrices=False)
    if sig[0] == 0:
        keep = 0
    else:
        keep = int(np.count_nonzero(sig >= eps * sig[0]))
    return TruncatedSvd(U[:, :keep], sig[:keep])
