"""Fast application and direct solution of structured matrices.

matvec runs the three-sweep scheme (upward basis projections, skeleton
couplings, downward transfers plus dense nearfield); matvec_levelwise is a
second name for it, on any tree.  The ULV factorization eliminates, per
node, the redundant rows of its interpolative row factor P [I; G] (each row
minus G times the skeleton rows couples to nothing outside the node)
against as many of the node's own unknowns, which the interpolative factor
of those equations' columns picks.  Its skeleton rows and other unknowns
pass up by label to a small dense root system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg as sla

from ._threads import one_blas_thread
from .lowrank import InterpolativeFactor, compr

_PIVOT_RTOL = 1e-13


# ---------------------------------------------------------------------------
# matrix-vector products
# ---------------------------------------------------------------------------


def _as_columns(q, n):
    q = np.asarray(q)
    if q.shape[0] != n:
        raise ValueError("vector length %d does not match matrix (%d)"
                         % (q.shape[0], n))
    return (q[:, None], True) if q.ndim == 1 else (q, False)


@one_blas_thread()
def matvec_nodewise(M, q) -> np.ndarray:
    """A @ q through the compressed representation, caller ordering.

    Three sweeps over the tree, on one flat vector of column coefficients
    and one of row coefficients, laid out level by level so that siblings
    are adjacent (``M.coefficient_layout``).  Upward, in postorder, each
    node projects its leaf slice, or its children's coefficients read as
    one slice, with its column basis.  Across, each kept coupling row maps
    its sources' gathered coefficients to its node's in one product; a
    mirrored row also adds the transposed pairs (``_apply_rows``).
    Downward, each node applies its row basis once and adds the result to
    its leaf slice or its children's slice.  Each leaf's nearfield row
    multiplies its sources' gathered entries, again in one product, and a
    mirrored one adds the transposed pairs but not its diagonal block.
    Runs on one BLAS thread.
    """
    tr = M.tree
    Q, single = _as_columns(q, M.n_col)
    dtype = np.result_type(M.dtype, Q.dtype)
    qt = Q[tr.perm_col]
    nodes = tr.nodes[:tr.root]  # postorder: children before parents
    qs, _, nq = M.coefficient_layout("col")
    zs, _, nz = M.coefficient_layout("row")

    def kids(at, nd):
        return slice(at[nd.children[0]].start, at[nd.children[-1]].stop)

    qf = np.empty((nq, Q.shape[1]), dtype=dtype)
    for nd in nodes:
        src = (qt[nd.col_start:nd.col_stop] if nd.is_leaf
               else qf[kids(qs, nd)])
        qf[qs[nd.index]] = M.colfac[nd.index].apply_t(src)

    zf = np.zeros((nz, Q.shape[1]), dtype=dtype)
    _apply_rows(zf, qf, [(zs[i], row) for i, row in M.block_rows("L")])

    zt = np.zeros((M.n_row, Q.shape[1]), dtype=dtype)
    for nd in reversed(nodes):
        e = M.rowfac[nd.index].apply(zf[zs[nd.index]])
        if nd.is_leaf:
            zt[nd.row_start:nd.row_stop] += e
        else:
            zf[kids(zs, nd)] += e

    nds = tr.nodes
    _apply_rows(zt, qt, [(slice(nds[i].row_start, nds[i].row_stop), row)
                         for i, row in M.block_rows("Lm")])

    z = np.empty_like(zt)
    z[tr.perm_row] = zt
    return z[:, 0] if single else z


def _apply_rows(z, x, rows):
    """z += A x over block rows, given as (own slice of z, row): each row
    maps its sources' gathered entries of x to its own slice in one product.
    A mirrored row, whose own slice is the same in x (one point set, one
    basis per node), also stands for the transposed pairs: minus
    ``row.back`` (its blocks past the first ``skip`` columns, transposed)
    times its own slice of x goes to their positions ``row.tail`` in z.
    Rows share sources, so those products are held back and scattered
    together: whenever they reach the length of z, which keeps what is held
    about as large as z, and at the end."""
    held, size = [], 0
    for own, row in rows:
        z[own] += row.A @ x.take(row.cols, axis=0)
        if row.mirrored and row.tail.size:  # HSS leaves mirror nothing
            held.append((row.tail, row.back @ x[own]))
            size += row.tail.size
            if size >= len(z):
                _subtract_at(z, held)
                held, size = [], 0
    _subtract_at(z, held)


def _subtract_at(z, held):
    """z[pos] -= vals over the (pos, vals) pairs held, adding up repeated
    positions."""
    if held:
        pos = np.concatenate([p for p, _ in held])
        vals = np.concatenate([v for _, v in held])
        for k in range(z.shape[1]):  # 1-d ufunc.at is the fast one
            np.subtract.at(z[:, k], pos, vals[:, k])


def matvec_levelwise(M, q) -> np.ndarray:
    """matvec_nodewise under the name its callers use."""
    return matvec_nodewise(M, q)


# ---------------------------------------------------------------------------
# ULV factorization and solve
# ---------------------------------------------------------------------------


@dataclass
class _UlvNode:
    """One node's elimination: its t local equations Bbot equal
    Bbot[:, s] [I Gᵀ] Pᵀ through ``elim``, the interpolative factor of their
    columns; s = ``elim.skel`` are solved for and ``keep`` pass up."""
    elim: InterpolativeFactor
    keep: np.ndarray              # labels of the unknowns the parent gets
    lu: tuple                     # LU factors of Bbot[:, s]
    Dcorr: np.ndarray             # rhs correction block Dk[:, s], k_r x t
    Mcorr: np.ndarray             # g correction block V[s]ᵀ, k_c x t

    @property
    def t(self) -> int:           # unknowns eliminated at this node
        return self.elim.rank


@dataclass
class UlvFactorization:
    matrix: object
    nodes: dict = field(default_factory=dict)
    root_lu: object = None
    root_keep: np.ndarray = None  # labels of the root system's unknowns
    dtype: object = float

    @property
    def root_n(self) -> int:
        return self.root_keep.size


def _lu(A, what, i):
    """LU factors of the square A; LinAlgError, naming node i, when a pivot
    is negligible against A's norm."""
    lu, piv = sla.lu_factor(A)
    if A.size and np.abs(np.diag(lu)).min() <= _PIVOT_RTOL * max(
            np.linalg.norm(A, np.inf), 1e-300):
        raise np.linalg.LinAlgError(
            "ULV %s is numerically singular (node %d)" % (what, i))
    return lu, piv


def _reduce_node(i, D, V, fac, unknowns):
    """Eliminate node i's redundant rows against as many of its unknowns.

    Returns (record, D_red, V_red).  The row factor X = P [I; G] says that,
    outside the node, rows perm[k:] equal G times the skeleton rows
    perm[:k]; so Bbot = D[perm[k:]] - G D[perm[:k]] are local equations.  The
    interpolative factor of Bbot's columns picks the unknowns they eliminate;
    the skeleton rows, in skeleton order, and the other unknowns remain.
    """
    k = fac.rank
    t = D.shape[0] - k
    Dk = D[fac.perm[:k]]
    Bbot = D[fac.perm[k:]] - fac.G @ Dk
    e = compr(Bbot.T, unknowns)
    if e.rank < t:  # also when t exceeds the number of unknowns
        raise np.linalg.LinAlgError(
            "ULV elimination at node %d: %d redundant rows on %d unknowns are "
            "linearly dependent (rank %d)" % (i, t, D.shape[1], e.rank))
    s, r = e.perm[:t], e.perm[t:]
    rec = _UlvNode(elim=e, keep=unknowns[r],
                   lu=_lu(Bbot[:, s], "local block", i),
                   Dcorr=Dk[:, s], Mcorr=V[s].T)
    return rec, Dk[:, r] - Dk[:, s] @ e.G.T, V[r] - e.G @ V[s]


@one_blas_thread()
def ulv_factor(M) -> UlvFactorization:
    """Factor an HSS matrix for repeated solves.

    Raises LinAlgError, naming the node, when a node's redundant rows are
    linearly dependent (as when they outnumber its unknowns), or when a local
    block or the root system is numerically singular; nothing is regularized.
    Runs on one BLAS thread.
    """
    if M.kind != "hss":
        raise ValueError("ULV factorization expects an HSS matrix")
    tr = M.tree
    dtype = np.result_type(M.dtype, float)
    F = UlvFactorization(matrix=M, dtype=dtype)
    red = {}
    for i in range(len(tr.nodes)):
        nd = tr.nodes[i]
        if nd.is_leaf:
            D = np.asarray(M.NF(i, i), dtype=dtype)
            unknowns = np.arange(nd.col_start, nd.col_stop)
            if i != tr.root:  # a single-leaf tree has no bases at all
                V = np.asarray(M.V(i), dtype=dtype)
        else:
            # the children's remaining rows are their row skeletons, whose
            # couplings are M.B itself
            c1, c2 = nd.children
            (D1, V1, u1), (D2, V2, u2) = red.pop(c1), red.pop(c2)
            D = np.block([[D1, M.B(c1, c2) @ V2.T],
                          [M.B(c2, c1) @ V1.T, D2]])
            unknowns = np.concatenate([u1, u2])
            if i != tr.root:
                W1, W2 = M.transfers(i, "col")
                V = np.vstack([V1 @ W1, V2 @ W2])
        if i == tr.root:
            if D.shape[0] != D.shape[1]:
                raise np.linalg.LinAlgError(
                    "ULV root system is %dx%d, not square" % D.shape)
            F.root_keep = unknowns
            F.root_lu = _lu(D, "root system", i)
        else:
            rec, Dr, Vr = _reduce_node(i, D, V, M.rowfac[i], unknowns)
            F.nodes[i] = rec
            red[i] = (Dr, Vr, rec.keep)
    return F


def ulv_solve(F: UlvFactorization, b) -> np.ndarray:
    """Solve A x = b with a ULV factorization; b may hold several columns."""
    M = F.matrix
    tr = M.tree
    B, single = _as_columns(b, M.n_row)
    dtype = np.result_type(F.dtype, B.dtype)
    bt = np.asarray(B, dtype=dtype)[tr.perm_row]

    # upward, children before parents: each node solves its local equations
    # for z = x[s] + Gᵀ x[keep], and hands its parent the skeleton rows'
    # right-hand side and the coefficients g its unknowns send outside
    zs, gs, bred = {}, {}, {}
    for i in range(len(tr.nodes)):
        nd = tr.nodes[i]
        gpre = None
        if nd.is_leaf:
            bcur = bt[nd.row_start:nd.row_stop]
        else:
            c1, c2 = nd.children
            b1, b2 = bred.pop(c1), bred.pop(c2)
            g1, g2 = gs.pop(c1), gs.pop(c2)
            bcur = np.vstack([b1 - M.B(c1, c2) @ g2, b2 - M.B(c2, c1) @ g1])
            if i != tr.root:  # the column transfers toward the parent
                gpre = M.colfac[i].apply_t(np.vstack([g1, g2]))
        if i == tr.root:
            break
        rec, fac = F.nodes[i], M.rowfac[i]
        bk = bcur[fac.perm[:fac.rank]]
        z = bcur[fac.perm[fac.rank:]] - fac.G @ bk
        if rec.t:  # over half the nodes eliminate nothing
            z = sla.lu_solve(rec.lu, z)
        zs[i] = z
        bred[i] = bk - rec.Dcorr @ z
        gown = rec.Mcorr @ z
        gs[i] = gown if gpre is None else gpre + gown

    # downward, parents before children: every kept unknown is known by the
    # time its node's eliminated ones are filled in
    xt = np.zeros((M.n_col, bt.shape[1]), dtype=dtype)
    xt[F.root_keep] = sla.lu_solve(F.root_lu, bcur)
    for i in reversed(range(tr.root)):
        rec = F.nodes[i]
        if rec.t:
            xt[rec.elim.skel] = zs[i] - rec.elim.G.T @ xt[rec.keep]
    x = np.empty_like(xt)
    x[tr.perm_col] = xt
    return x[:, 0] if single else x


# ---------------------------------------------------------------------------
# vector file IO
# ---------------------------------------------------------------------------


def read_vector(path) -> np.ndarray:
    """Load a vector: raw little-endian float64 for .bin/.f64 files, one
    number per line otherwise (complex entries accepted).  A raw file whose
    size is not a whole number of entries, or a NaN or an infinite entry,
    raises ValueError naming the file."""
    p = str(path)
    if p.endswith((".bin", ".f64")):
        raw = Path(p).read_bytes()
        if len(raw) % 8:
            raise ValueError("%s: %d bytes is not a whole number of 8-byte "
                             "float64 entries" % (p, len(raw)))
        vec = np.frombuffer(raw, dtype="<f8").copy()
    else:
        try:
            vec = np.loadtxt(p, dtype=float, ndmin=1)
        except ValueError:
            vec = np.loadtxt(p, dtype=complex, ndmin=1)
    bad = np.flatnonzero(~np.isfinite(vec))
    if bad.size:
        raise ValueError("%s: entry %d is %s; vector entries must be finite"
                         % (p, bad[0], vec.flat[bad[0]]))
    return vec


def write_vector(path, vec) -> None:
    """Save a vector in the format ``read_vector`` reads back.  A raw file
    holds real entries only, so a vector with a nonzero imaginary part
    raises ValueError naming the file before anything is written."""
    p = str(path)
    vec = np.asarray(vec)
    if p.endswith((".bin", ".f64")):
        if np.any(vec.imag):
            raise ValueError("%s: a raw float64 file cannot hold complex "
                             "entries; write a text file, which keeps them"
                             % p)
        np.asarray(vec.real, dtype="<f8").tofile(p)
    else:
        np.savetxt(p, vec)
