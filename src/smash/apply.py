"""Fast application and direct solution of structured matrices.

matvec runs the three-sweep scheme (upward basis projections, skeleton
couplings, downward transfers plus dense nearfield); the level-synchronous
name runs the same core and is limited to perfect trees.  The ULV
factorization eliminates, per node, the equations orthogonal to the row
basis against an equal count of unknowns, shrinking each subtree to its
skeleton until a small dense root system remains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from ._threads import one_blas_thread

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


def matvec_nodewise(M, q) -> np.ndarray:
    """A @ q through the compressed representation, caller ordering.

    Three sweeps over the postordered tree: upward, each node projects its
    leaf slice (or its children's stacked coefficients) with its column
    basis; across, each node's coupling row maps its sources' stacked
    column coefficients to row coefficients in one product; downward, each
    node applies its row basis once and hands the result to its leaf slice
    or splits it among its children.  Each leaf's nearfield row multiplies
    its sources' gathered entries, again in one product.
    """
    tr = M.tree
    Q, single = _as_columns(q, M.n_col)
    dtype = np.result_type(M.dtype, Q.dtype)
    qt = Q[tr.perm_col]
    nodes = tr.nodes[:tr.root]  # postorder: children before parents

    qhat = {}
    for nd in nodes:
        src = (qt[nd.col_start:nd.col_stop] if nd.is_leaf
               else np.vstack([qhat[c] for c in nd.children]))
        qhat[nd.index] = M.colfac[nd.index].apply_t(src)

    zhat = {}
    for i, row in M.block_rows("L"):
        js = row.sources  # HSS rows have one source: no copy then
        src = qhat[js[0]] if len(js) == 1 else np.concatenate(
            [qhat[j] for j in js])
        zhat[i] = row.A @ src

    zt = np.zeros((M.n_row, Q.shape[1]), dtype=dtype)
    for nd in reversed(nodes):
        zi = zhat.pop(nd.index, None)
        if zi is None:
            continue
        e = M.rowfac[nd.index].apply(zi)
        if nd.is_leaf:
            zt[nd.row_start:nd.row_stop] += e
            continue
        pos = 0
        for c in nd.children:
            part = e[pos:pos + M.rank_row(c)]
            pos += part.shape[0]
            zhat[c] = part if c not in zhat else zhat[c] + part

    for i, row in M.block_rows("Lm"):
        nd = tr.nodes[i]
        zt[nd.row_start:nd.row_stop] += row.A @ qt.take(row.cols, axis=0)

    z = np.empty_like(zt)
    z[tr.perm_row] = zt
    return z[:, 0] if single else z


def _check_perfect(tree):
    depth = tree.n_levels
    width = None
    for nd in tree.nodes:
        if nd.is_leaf:
            if nd.level != depth:
                raise ValueError("level-synchronous matvec needs all leaves "
                                 "at the deepest level")
        else:
            if width is None:
                width = len(nd.children)
            elif len(nd.children) != width:
                raise ValueError("level-synchronous matvec needs a perfect tree")


def matvec_levelwise(M, q) -> np.ndarray:
    """matvec_nodewise restricted to perfect trees (all leaves at the
    deepest level, one child count), which it checks first."""
    _check_perfect(M.tree)
    return matvec_nodewise(M, q)


# ---------------------------------------------------------------------------
# ULV factorization and solve
# ---------------------------------------------------------------------------


@dataclass
class _UlvNode:
    t: int = 0                    # unknowns eliminated at this node
    Q: np.ndarray = None          # row transform (m_r x m_r)
    Qz: np.ndarray = None         # unknown rotation (x = Qz @ [z1; x_rest])
    Ltri: np.ndarray = None       # t x t lower-triangular local solve
    Dcorr: np.ndarray = None      # rhs correction block, (m_r - t) x t
    Mcorr: np.ndarray = None      # g correction block, k_c x t
    CP: np.ndarray = None         # reduced row basis times coupling (to sibling)
    mc_red: int = 0               # unknowns remaining after reduction


@dataclass
class UlvFactorization:
    matrix: object
    nodes: dict = field(default_factory=dict)
    root_lu: object = None
    root_n: int = 0
    dtype: object = float


def _reduce_node(i, D, U, V, dtype):
    """Eliminate min(rows - rank, cols) unknowns of the block at node i.

    Returns (record, D_red, U_red, V_red).  Rows beyond the row-basis rank
    carry no coupling to the rest of the system, so after a row QR they form
    local equations; rotating the unknowns against those rows leaves a
    lower-triangular local solve and a shrunken block.
    """
    m_r, k_r = U.shape
    m_c = D.shape[1]
    rec = _UlvNode(mc_red=m_c)
    e = m_r - k_r
    t = min(e, m_c) if e > 0 else 0
    if t == 0:
        return rec, D, U, V
    Q, _ = np.linalg.qr(U, mode="complete")
    Dp = Q.conj().T @ D
    Bbot = Dp[m_r - t:]
    Qz, Rt = np.linalg.qr(Bbot.conj().T, mode="complete")
    Ltri = Rt[:t].conj().T
    dmin = np.min(np.abs(np.diag(Ltri))) if t else np.inf
    if dmin <= _PIVOT_RTOL * max(np.linalg.norm(Bbot, np.inf), 1e-300):
        raise np.linalg.LinAlgError(
            "ULV elimination hit a singular local block at node %d" % i)
    Dtrans = Dp[:m_r - t] @ Qz
    Mfull = V.T @ Qz
    rec.t = t
    rec.Q = np.ascontiguousarray(Q.astype(dtype, copy=False))
    rec.Qz = np.ascontiguousarray(Qz.astype(dtype, copy=False))
    rec.Ltri = Ltri
    rec.Dcorr = Dtrans[:, :t]
    rec.Mcorr = Mfull[:, :t]
    rec.mc_red = m_c - t
    D_red = Dtrans[:, t:]
    U_red = (Q.conj().T @ U)[:m_r - t]
    V_red = Mfull[:, t:].T
    return rec, D_red, U_red, V_red


@one_blas_thread()
def ulv_factor(M) -> UlvFactorization:
    """Factor an HSS matrix for repeated solves.

    Raises LinAlgError when a local elimination block or the final root system
    is numerically singular (reported with the node id; nothing is
    regularized).  Runs on one BLAS thread.
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
            if i != tr.root:  # a single-leaf tree has no bases at all
                U = np.asarray(M.U(i), dtype=dtype)
                V = np.asarray(M.V(i), dtype=dtype)
        else:
            c1, c2 = nd.children
            r1, r2 = red.pop(c1), red.pop(c2)
            B12 = M.B(c1, c2)
            B21 = M.B(c2, c1)
            F.nodes[c1].CP = r1["U"] @ B12
            F.nodes[c2].CP = r2["U"] @ B21
            D = np.block([
                [r1["D"], F.nodes[c1].CP @ r2["V"].T],
                [F.nodes[c2].CP @ r1["V"].T, r2["D"]],
            ])
            if i != tr.root:
                R1, R2 = M.transfers(i, "row")
                W1, W2 = M.transfers(i, "col")
                U = np.vstack([r1["U"] @ R1, r2["U"] @ R2])
                V = np.vstack([r1["V"] @ W1, r2["V"] @ W2])
        if i == tr.root:
            if D.shape[0] != D.shape[1]:
                raise np.linalg.LinAlgError(
                    "ULV root system is %dx%d, not square" % D.shape)
            F.root_n = D.shape[0]
            if F.root_n:
                lu, piv = sla.lu_factor(D)
                diag = np.abs(np.diag(lu))
                if diag.size and diag.min() <= _PIVOT_RTOL * max(
                        np.linalg.norm(D, np.inf), 1e-300):
                    raise np.linalg.LinAlgError(
                        "ULV root system is numerically singular (node %d)" % i)
                F.root_lu = (lu, piv)
        else:
            rec, Dr, Ur, Vr = _reduce_node(i, D, U, V, dtype)
            F.nodes[i] = rec
            red[i] = {"D": Dr, "U": Ur, "V": Vr}
    return F


def ulv_solve(F: UlvFactorization, b) -> np.ndarray:
    """Solve A x = b with a ULV factorization; b may hold several columns."""
    M = F.matrix
    tr = M.tree
    B, single = _as_columns(b, M.n_row)
    dtype = np.result_type(F.dtype, B.dtype)
    bt = np.asarray(B, dtype=dtype)[tr.perm_row]
    ncols = bt.shape[1]

    z1s, gs, bred, xroot = {}, {}, {}, None
    for i in range(len(tr.nodes)):
        nd = tr.nodes[i]
        if nd.is_leaf:
            bcur = bt[nd.row_start:nd.row_stop]
            gpre = None
        else:
            c1, c2 = nd.children
            b1, b2 = bred.pop(c1), bred.pop(c2)
            g1, g2 = gs.pop(c1), gs.pop(c2)
            n1, n2 = F.nodes[c1], F.nodes[c2]
            bcur = np.vstack([b1 - n1.CP @ g2, b2 - n2.CP @ g1])
            gpre = None
            if i != tr.root:  # the column transfers toward the parent
                gpre = M.colfac[i].apply_t(np.vstack([g1, g2]))
        if i == tr.root:
            if F.root_n:
                xroot = sla.lu_solve(F.root_lu, bcur)
            else:
                xroot = np.zeros((0, ncols), dtype=dtype)
            break
        rec = F.nodes[i]
        if rec.t > 0:
            bp = rec.Q.conj().T @ bcur
            z1 = sla.solve_triangular(rec.Ltri, bp[-rec.t:], lower=True)
            z1s[i] = z1
            bred[i] = bp[:-rec.t] - rec.Dcorr @ z1
            gown = rec.Mcorr @ z1
        else:
            # nothing eliminated here; g picks up no local contribution
            bred[i] = bcur
            gown = np.zeros((M.rank_col(i), ncols), dtype=dtype)
        gs[i] = gown if gpre is None else gpre + gown

    xt = np.zeros((M.n_col, ncols), dtype=dtype)

    def descend(i, xvec):
        nd = tr.nodes[i]
        rec = F.nodes.get(i)
        if rec is not None and rec.t > 0:
            xvec = rec.Qz @ np.vstack([z1s[i], xvec])
        if nd.is_leaf:
            xt[nd.col_start:nd.col_stop] = xvec
            return
        pos = 0
        for c in nd.children:
            w = F.nodes[c].mc_red
            descend(c, xvec[pos:pos + w])
            pos += w

    descend(tr.root, xroot)
    x = np.empty_like(xt)
    x[tr.perm_col] = xt
    return x[:, 0] if single else x


# ---------------------------------------------------------------------------
# vector file IO
# ---------------------------------------------------------------------------


def read_vector(path) -> np.ndarray:
    """Load a vector: raw little-endian float64 for .bin/.f64 files, one
    number per line otherwise (complex entries accepted)."""
    p = str(path)
    if p.endswith((".bin", ".f64")):
        return np.fromfile(p, dtype="<f8")
    try:
        return np.loadtxt(p, dtype=float, ndmin=1)
    except ValueError:
        return np.loadtxt(p, dtype=complex, ndmin=1)


def write_vector(path, vec) -> None:
    p = str(path)
    vec = np.asarray(vec)
    if p.endswith((".bin", ".f64")):
        np.asarray(vec.real, dtype="<f8").tofile(p)
    else:
        np.savetxt(p, vec)
