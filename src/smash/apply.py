"""Fast application and direct solution of structured matrices.

matvec runs the three-sweep scheme (upward basis projections, skeleton
couplings, downward transfers plus dense nearfield) on groups of equal
shape, one stacked product per group: per level, the factors of one shape,
with one gather and one scatter for the whole level, and the block rows of
one kind and shape, with one gather and one scatter each; matvec_levelwise
is a second name for it, on any tree.  The ULV factorization eliminates, per
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

from ._threads import map_nodes, one_blas_thread
from .lowrank import InterpolativeFactor, compr

_PIVOT_RTOL = 1e-13
# the bytes of one kind's stacked block rows from which a one-column apply
# computes their products on both cores: about 3 ms of products on one,
# 15 to 40 times what a map_nodes call costs (80-190 µs on 2 cores)
_SHARED_BYTES = 16 << 20
# numpy's stacked matmul keeps the interpreter lock through a product of at
# most this many output entries, so two threads gain nothing on slices of
# that few rows, and their bytes do not count toward _SHARED_BYTES
_LOCKED_OUTPUTS = 500


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

    Three sweeps over the tree on two flat vectors, one per side, each
    holding that side's entries in tree order and then the coefficients of
    every node's basis, laid out level by level (``M.flat_layout``).  Each
    sweep works on groups of equal shape (``M.basis_groups``,
    ``M.block_groups``), one stacked product a group.  Upward, level by
    level from the leaves, one gather takes the level's leaf entries and
    children's coefficients, each group of column factors projects its
    nodes' share, and one scatter writes the level's coefficients.
    Across, each group of coupling rows maps its sources' coefficients to
    its targets'; a mirrored group also adds the transposed pairs.
    Downward, level by level from the root, the level's coefficients are
    gathered once, each group of row factors expands its nodes' share, and
    one scatter adds the level's results to leaf entries or children's
    coefficients.  Last, each group of nearfield rows adds its sources'
    entries, a mirrored one also the transposed pairs but not its diagonal
    blocks.  Runs on one BLAS thread: with one column and at least
    ``_SHARED_BYTES`` of block rows of a kind in large enough slices
    (``_apply_groups``), their products run on the calling thread and one
    pool thread, and the calling thread adds them up in group order, so the
    result is the same bits on any core count.
    """
    tr = M.tree
    Q, single = _as_columns(q, M.n_col)
    dtype = np.result_type(M.dtype, Q.dtype)
    c = Q.shape[1]
    n, length, _ = M.flat_layout("col")
    x = np.empty((length, c), dtype=dtype)
    x[:n] = Q[tr.perm_col]
    n, length, _ = M.flat_layout("row")
    z = np.zeros((length, c), dtype=dtype)
    # the entries, over all columns, that one step of a group gathers at
    # most: a quarter of the output, or 2^16 where that is more
    cap = max(max(n, M.n_col) * c // 4, 1 << 16)

    for level in reversed(M.basis_groups("col")):
        for stacks, sk, rd in _batches(level, c, cap):
            vals = x.take(level.skel[sk], axis=0)
            xr = x.take(level.red[rd], axis=0)
            for G, a, b in _offsets(stacks):
                v = vals[a[0]:a[1]].reshape(len(G), G.shape[2], c)
                v += G.transpose(0, 2, 1) @ xr[b[0]:b[1]].reshape(
                    G.shape[:2] + (c,))
            x[level.coef[sk]] = vals
    _apply_groups(z, x, M.block_groups("L"), cap)
    for level in M.basis_groups("row"):
        for stacks, sk, rd in _batches(level, c, cap):
            y = z.take(level.coef[sk], axis=0)
            z[level.skel[sk]] += y
            e = np.empty((rd.stop - rd.start, c), dtype=dtype)
            for G, a, b in _offsets(stacks):
                np.matmul(G, y[a[0]:a[1]].reshape(len(G), G.shape[2], c),
                          out=e[b[0]:b[1]].reshape(G.shape[:2] + (c,)))
            y = None  # not held through the scatter of a many-column apply
            z[level.red[rd]] += e
    _apply_groups(z, x, M.block_groups("Lm"), cap)

    out = np.empty((n, c), dtype=dtype)
    out[tr.perm_row] = z[:n]
    return out[:, 0] if single else out


def _batches(level, c, cap):
    """(stacks, skel slice, red slice) of a level's steps: the whole level
    where its gathers, over c columns, stay within cap entries, and
    otherwise slices of each group's rows that do (one row at least)."""
    if (len(level.skel) + len(level.red)) * c <= cap:
        return ((level.stacks, slice(0, len(level.skel)),
                 slice(0, len(level.red))),)
    out, a, b = [], 0, 0
    for G in level.stacks:
        R, mk, k = G.shape
        step = max(1, cap // ((mk + k) * c))
        for r in range(0, R, step):
            s = G[r:r + step]
            out.append(((s,), slice(a + r * k, a + (r + len(s)) * k),
                        slice(b + r * mk, b + (r + len(s)) * mk)))
        a, b = a + R * k, b + R * mk
    return out


def _offsets(stacks):
    """(G, its rows' range of a batch's skeleton entries, of its other
    entries) for each stack of a batch, in order."""
    a = b = 0
    for G in stacks:
        R, mk, k = G.shape
        yield G, (a, a + R * k), (b, b + R * mk)
        a, b = a + R * k, b + R * mk


def _parts(arrays, width, cap):
    """A group's arrays, whole, or in consecutive slices of their rows, one
    row at least, so that a slice gathers at most about cap entries, width
    a row."""
    rows, step = len(arrays[0]), max(1, cap // max(width, 1))
    if step >= rows:
        return (arrays,)
    return [tuple(a[r:r + step] for a in arrays)
            for r in range(0, rows, step)]


def _apply_groups(z, x, groups, cap):
    """z += A x over groups of block rows (``BlockGroup``), a slice of a
    group's rows at a time (``_parts``).  A one-column apply whose slices of
    more than ``_LOCKED_OUTPUTS`` rows hold at least ``_SHARED_BYTES``
    computes every slice's products on both cores (``map_nodes``), the
    largest slice first; any other apply computes each just before adding
    it, so a many-column one never holds them all.  Either way the
    calling thread adds the products to z in group and slice order, so z
    gets the same bits on any core count."""
    c = z.shape[1]
    items = [(g, part) for g in groups
             for part in _parts((g.A, g.out, g.src), max(g.A.shape[1:]) * c,
                                cap)]
    unlocked = sum(A.nbytes for _, (A, _, _) in items
                   if A.shape[0] * A.shape[1] > _LOCKED_OUTPUTS)
    if c == 1 and unlocked >= _SHARED_BYTES:
        order = sorted(range(len(items)), key=lambda k: -items[k][1][0].nbytes)
        products = [None] * len(items)
        for k, p in zip(order, map_nodes(
                lambda k: _products(x, *items[k]), order)):
            products[k] = p
    else:
        products = (_products(x, g, part) for g, part in items)
    for (g, (_, out, src)), (y, back) in zip(items, products):
        z[out] += y
        if back is not None:
            _subtract_rows_at(z, src[:, g.skip:].ravel(), back.reshape(-1, c))


def _products(x, g, part):
    """(A x[src], and for a mirrored group A[:, :, skip:]ᵀ x[out], else None)
    of one slice (A, out, src) of group g's rows."""
    A, out, src = part
    y = A @ x.take(src, axis=0)
    if not g.mirrored or A.shape[2] <= g.skip:  # HSS leaves mirror nothing
        return y, None
    return y, A[:, :, g.skip:].transpose(0, 2, 1) @ x.take(out, axis=0)


def _subtract_rows_at(z, pos, vals):
    """z[pos] -= vals, adding up repeated positions.  With one column the
    1-d ufunc.at is the fast way; with more, one sparse product sums the
    rows of each position, whole rows at a time, where a column at a time
    would stride through z."""
    if z.shape[1] == 1:
        np.subtract.at(z[:, 0], pos, vals[:, 0])
        return
    from scipy.sparse import csr_array  # only many-column applies need it
    at, row = np.unique(pos, return_inverse=True)
    S = csr_array((np.ones(pos.size, dtype=vals.dtype),
                   (row.ravel(), np.arange(pos.size))),
                  shape=(at.size, pos.size))
    z[at] -= S @ vals


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
