"""HSS construction from farfield expansions plus nearfield sampling.

Every nonroot node gets a row and a column interpolative factor; leaves keep
their basis directly (U_i, V_i), internal nodes split theirs into per-child
transfer blocks (R_c, W_c).  Coupling blocks between siblings are exact kernel
entries at skeleton index pairs, so the compressed representation stores only
interpolation coefficients, index sets, and leaf diagonal blocks; coupling
values are re-evaluated (and optionally cached) on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import Box, ClusterTree, _to_scalars, leaf_sets, nearfield_set
from .kernel import KernelSpec, kernel_block
from .lowrank import (InterpolativeFactor, compr, interp_basis, taylor_basis,
                      truncated_svd)


@dataclass
class BuildParams:
    """Construction knobs: expansion order r, admissibility tau, nearfield
    SVD cutoff, swap threshold s, and farfield basis kind."""

    r: int = 20
    tau: float = 0.6
    eps_svd: float = 0.0
    s: float = 2.0
    basis: str = None  # "taylor" | "interp"; None picks by kernel kind


def _default_basis(kernel: KernelSpec) -> str:
    return "interp" if kernel.kind == "laplace_dlp" else "taylor"


def _pad_box(box: Box, pad: float) -> Box:
    lo = np.asarray(box.lo, dtype=float).copy()
    hi = np.asarray(box.hi, dtype=float).copy()
    thin = hi - lo < pad
    lo[thin] -= pad / 2
    hi[thin] += pad / 2
    return Box.of(lo, hi)


class _StructuredMatrix:
    """Shared machinery of the HSS and H2 formats.

    Generators live either as interpolative factors keyed by node ("factor"
    representation, the build output) or as dense per-node blocks (the result
    of sums and diagonal scalings).  Accessors materialize whichever is
    stored.
    """

    kind = "structured"

    def __init__(self, tree: ClusterTree, params: BuildParams, block,
                 pairs_L, pairs_Lm, dtype, kernel: KernelSpec = None,
                 use_cache: bool = True):
        self.tree = tree
        self.params = params
        self.kernel = kernel
        self.dtype = dtype
        self.use_cache = use_cache
        self._block = block          # (tree-order rows, cols) -> exact entries
        self.pairs_L = list(pairs_L)
        self.pairs_Lm = list(pairs_Lm)
        self.rowfac = {}
        self.colfac = {}
        self.skel_row = {}
        self.skel_col = {}
        self.Dblocks = {}
        self.U_dense = {}
        self.V_dense = {}
        self.R_dense = {}
        self.W_dense = {}
        self.B_dense = {}
        self.NF_dense = {}
        self._bcache = {}
        self._nfcache = {}

    # -- shapes --------------------------------------------------------------

    @property
    def n_row(self) -> int:
        return self.tree.n_row

    @property
    def n_col(self) -> int:
        return self.tree.n_col

    @property
    def shape(self):
        return (self.n_row, self.n_col)

    def rank_row(self, i: int) -> int:
        return self.skel_row[i].size

    def rank_col(self, i: int) -> int:
        return self.skel_col[i].size

    # -- generator accessors ---------------------------------------------------

    def U(self, i: int) -> np.ndarray:
        if i in self.U_dense:
            return self.U_dense[i]
        return self.rowfac[i].expand()

    def V(self, i: int) -> np.ndarray:
        if i in self.V_dense:
            return self.V_dense[i]
        return self.colfac[i].expand()

    def _child_slice(self, c: int, skels: dict):
        p = self.tree.nodes[c].parent
        off = 0
        for ch in self.tree.nodes[p].children:
            size = skels[ch].size
            if ch == c:
                return p, off, off + size
            off += size
        raise KeyError(c)

    def R(self, c: int) -> np.ndarray:
        if c in self.R_dense:
            return self.R_dense[c]
        p, a, b = self._child_slice(c, self.skel_row)
        return self.rowfac[p].expand()[a:b]

    def W(self, c: int) -> np.ndarray:
        if c in self.W_dense:
            return self.W_dense[c]
        p, a, b = self._child_slice(c, self.skel_col)
        return self.colfac[p].expand()[a:b]

    def B(self, i: int, j: int) -> np.ndarray:
        """Coupling block for a low-rank pair (i, j)."""
        if (i, j) in self.B_dense:
            return self.B_dense[(i, j)]
        hit = self._bcache.get((i, j))
        if hit is not None:
            return hit
        val = self._block(self.skel_row[i], self.skel_col[j])
        if self.use_cache:
            self._bcache[(i, j)] = val
        return val

    def NF(self, i: int, j: int) -> np.ndarray:
        """Dense nearfield block for an inadmissible leaf pair (i, j)."""
        if (i, j) in self.NF_dense:
            return self.NF_dense[(i, j)]
        if i == j and i in self.Dblocks:
            return self.Dblocks[i]
        hit = self._nfcache.get((i, j))
        if hit is not None:
            return hit
        val = self._block(self.tree.row_range(i), self.tree.col_range(j))
        if self.use_cache:
            self._nfcache[(i, j)] = val
        return val

    # -- dense reconstruction ---------------------------------------------------

    def _basis_big(self, i: int, side: str) -> np.ndarray:
        if self.tree.is_leaf(i):
            return self.U(i) if side == "row" else self.V(i)
        parts = []
        for c in self.tree.nodes[i].children:
            T = self.R(c) if side == "row" else self.W(c)
            parts.append(self._basis_big(c, side) @ T)
        return np.vstack(parts)

    def todense(self) -> np.ndarray:
        """Assemble the represented matrix, in caller ordering."""
        out = np.zeros(self.shape, dtype=self.dtype)
        tr = self.tree
        for i, j in self.pairs_L:
            blk = self._basis_big(i, "row") @ self.B(i, j) @ self._basis_big(j, "col").T
            out[np.ix_(tr.row_range(i), tr.col_range(j))] = blk
        for i, j in self.pairs_Lm:
            out[np.ix_(tr.row_range(i), tr.col_range(j))] = self.NF(i, j)
        inv = np.ix_(tr.perm_row, tr.perm_col)
        res = np.empty_like(out)
        res[inv] = out
        return res


class HssMatrix(_StructuredMatrix):
    kind = "hss"

    def sibling_B(self, i: int) -> np.ndarray:
        return self.B(i, self.tree.sibling(i))


def kernel_dtype(kernel: KernelSpec, X) -> np.dtype:
    if kernel.kind == "laplace_dlp":
        return np.dtype(np.float64)
    planar = X.coords.shape[1] == 2
    return np.dtype(np.complex128 if planar else np.float64)


def make_block_evaluator(kernel: KernelSpec, X, Y, tree: ClusterTree):
    """Tree-order exact-entry evaluator backed by the kernel."""
    dtype = kernel_dtype(kernel, X if X is not None else Y)

    def block(rows_t, cols_t):
        rows_t = np.asarray(rows_t, dtype=np.int64)
        cols_t = np.asarray(cols_t, dtype=np.int64)
        if rows_t.size == 0 or cols_t.size == 0:
            return np.zeros((rows_t.size, cols_t.size), dtype=dtype)
        return kernel_block(kernel, X, Y, tree.perm_row[rows_t],
                            tree.perm_col[cols_t])

    return block


def _basis_builder(tree: ClusterTree, params: BuildParams, basis: str, side: str):
    pts = tree.points_row if side == "row" else tree.points_col
    diam = 2 * tree.nodes[tree.root].box.radius
    pad = max(1e-9 * diam, 1e-300)
    if basis == "taylor":
        scal = _to_scalars(pts) if pts.size else np.zeros(0)

        def build(i, idx):
            box = _pad_box(tree.nodes[i].box, pad)
            c = box.center
            center = float(c[0]) if c.size == 1 else complex(c[0], c[1])
            return taylor_basis(center, box.radius, scal[idx], params.r)
    elif basis == "interp":

        def build(i, idx):
            box = _pad_box(tree.nodes[i].box, pad)
            return interp_basis(box, pts[idx], params.r)
    else:
        raise ValueError("unknown basis %r" % basis)
    return build


def _intermediate(tree, i, skels, side):
    if tree.is_leaf(i):
        return tree.row_range(i) if side == "row" else tree.col_range(i)
    return np.concatenate([skels[c] for c in tree.nodes[i].children])


def build_hss(tree: ClusterTree, kernel: KernelSpec, X, Y,
              params: BuildParams = None, use_cache: bool = True) -> HssMatrix:
    """Bottom-up HSS construction.

    Per node, the row basis candidate pairs the analytic farfield basis of the
    node's box with a truncated SVD of the block row against the nearfield
    neighbors' current index sets; interpolative compression of the pair
    yields the skeleton and the interpolation coefficients.  The column pass
    mirrors it.  Leaves keep exact diagonal blocks.
    """
    params = params or BuildParams()
    if kernel.kind == "cauchy_like":
        # the farfield basis spans 1/(x-y) blocks, not their diagonal
        # scalings; the sum-of-scalings route below handles those
        raise ValueError("build cauchy-like matrices via cauchy_like_hss")
    for nd in tree.nodes:
        if not nd.is_leaf and len(nd.children) != 2:
            raise ValueError("HSS construction needs a binary tree")
    basis = params.basis or _default_basis(kernel)
    block = make_block_evaluator(kernel, X, Y, tree)
    dtype = kernel_dtype(kernel, X)
    L, Lm = leaf_sets(tree, params.tau, "hss")
    M = HssMatrix(tree, params, block, L, Lm, dtype, kernel=kernel,
                  use_cache=use_cache)
    brow = _basis_builder(tree, params, basis, "row")
    bcol = _basis_builder(tree, params, basis, "col")

    for level in range(tree.n_levels, 1, -1):
        for i in tree.level_nodes(level):
            near = nearfield_set(tree, i, params.tau)
            ibar_r = _intermediate(tree, i, M.skel_row, "row")
            ibar_c = _intermediate(tree, i, M.skel_col, "col")
            # row pass: farfield basis + nearfield column space
            cand = [brow(i, ibar_r)]
            cols = [  # neighbors' current column index sets
                _intermediate(tree, j, M.skel_col, "col") for j in near]
            cols = [c for c in cols if c.size]
            if cols and ibar_r.size:
                Anear = block(ibar_r, np.concatenate(cols))
                cand.append(truncated_svd(Anear, params.eps_svd).S)
            fac = compr(np.hstack(cand), ibar_r, s=params.s)
            M.rowfac[i] = fac
            M.skel_row[i] = fac.skel
            # column pass
            cand = [bcol(i, ibar_c)]
            rows = [_intermediate(tree, j, M.skel_row, "row") for j in near]
            rows = [r_ for r_ in rows if r_.size]
            if rows and ibar_c.size:
                Anear = block(np.concatenate(rows), ibar_c)
                cand.append(truncated_svd(Anear.T, params.eps_svd).S)
            fac = compr(np.hstack(cand), ibar_c, s=params.s)
            M.colfac[i] = fac
            M.skel_col[i] = fac.skel

    for i in tree.leaves():
        M.Dblocks[i] = block(tree.row_range(i), tree.col_range(i))
    return M


def reconstruct_dense_hss(M: HssMatrix) -> np.ndarray:
    if M.kind != "hss":
        raise ValueError("expected an HSS matrix")
    return M.todense()


# ---------------------------------------------------------------------------
# algebra on HSS matrices
# ---------------------------------------------------------------------------


def hss_add(A: HssMatrix, B: HssMatrix) -> HssMatrix:
    """Sum of two HSS matrices on the same tree: bases concatenate, transfers
    and couplings stack block-diagonally, diagonal blocks add."""
    if A.kind != "hss" or B.kind != "hss":
        raise ValueError("hss_add expects HSS matrices")
    if A.tree is not B.tree:
        raise ValueError("operands must share one cluster tree")
    tr = A.tree
    dtype = np.result_type(A.dtype, B.dtype)
    out = HssMatrix(tr, A.params, A._block, A.pairs_L, A.pairs_Lm, dtype,
                    kernel=None, use_cache=A.use_cache)
    for i in A.skel_row:
        out.skel_row[i] = np.concatenate([A.skel_row[i], B.skel_row[i]])
        out.skel_col[i] = np.concatenate([A.skel_col[i], B.skel_col[i]])
    for i in tr.leaves():
        out.U_dense[i] = np.hstack([A.U(i), B.U(i)]).astype(dtype)
        out.V_dense[i] = np.hstack([A.V(i), B.V(i)]).astype(dtype)
        out.Dblocks[i] = (A.NF(i, i) + B.NF(i, i)).astype(dtype)
    for i, nd in enumerate(tr.nodes):
        if not nd.is_leaf and i != tr.root:
            for c in nd.children:
                out.R_dense[c] = _blkdiag(A.R(c), B.R(c), dtype)
                out.W_dense[c] = _blkdiag(A.W(c), B.W(c), dtype)
    for i, j in A.pairs_L:
        out.B_dense[(i, j)] = _blkdiag(A.B(i, j), B.B(i, j), dtype)
    return out


def _blkdiag(X, Y, dtype):
    out = np.zeros((X.shape[0] + Y.shape[0], X.shape[1] + Y.shape[1]), dtype=dtype)
    out[:X.shape[0], :X.shape[1]] = X
    out[X.shape[0]:, X.shape[1]:] = Y
    return out


def diag_scale(M: HssMatrix, dl, dr) -> HssMatrix:
    """diag(dl) @ M @ diag(dr) with dl, dr in caller index order."""
    dl = np.asarray(dl)
    dr = np.asarray(dr)
    if dl.shape != (M.n_row,) or dr.shape != (M.n_col,):
        raise ValueError("scaling vectors must match the matrix shape")
    tr = M.tree
    dlt = dl[tr.perm_row]
    drt = dr[tr.perm_col]
    dtype = np.result_type(M.dtype, dl.dtype, dr.dtype)
    inner = M._block

    def scaled_block(rows_t, cols_t):
        return dlt[np.asarray(rows_t)][:, None] * inner(rows_t, cols_t) \
            * drt[np.asarray(cols_t)][None, :]

    out = HssMatrix(tr, M.params, scaled_block, M.pairs_L, M.pairs_Lm, dtype,
                    kernel=None, use_cache=M.use_cache)
    out.skel_row = dict(M.skel_row)
    out.skel_col = dict(M.skel_col)
    for i in tr.leaves():
        rr, cc = tr.row_range(i), tr.col_range(i)
        out.U_dense[i] = dlt[rr][:, None] * M.U(i)
        out.V_dense[i] = drt[cc][:, None] * M.V(i)
        out.Dblocks[i] = dlt[rr][:, None] * M.NF(i, i) * drt[cc][None, :]
    for i, nd in enumerate(tr.nodes):
        if not nd.is_leaf and i != tr.root:
            for c in nd.children:
                out.R_dense[c] = np.array(M.R(c), dtype=dtype)
                out.W_dense[c] = np.array(M.W(c), dtype=dtype)
    for i, j in M.pairs_L:
        out.B_dense[(i, j)] = np.array(M.B(i, j), dtype=dtype)
    return out


def cauchy_like_hss(tree: ClusterTree, X, Y, w, v,
                    params: BuildParams = None) -> HssMatrix:
    """HSS form of sum_l diag(w[:, l]) C diag(v[:, l]) with C the Cauchy
    matrix: one C build reused through diagonal scalings and sums."""
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    if w.ndim != 2 or v.ndim != 2 or w.shape[1] != v.shape[1]:
        raise ValueError("generator matrices need matching column counts")
    base = build_hss(tree, KernelSpec(kind="cauchy"), X, Y, params)
    acc = None
    for l in range(w.shape[1]):
        term = diag_scale(base, w[:, l], v[:, l])
        acc = term if acc is None else hss_add(acc, term)
    return acc
