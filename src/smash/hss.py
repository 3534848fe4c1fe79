"""HSS construction from farfield expansions plus nearfield sampling.

Every nonroot node gets a row and a column basis, stored one way for every
node: a leaf's basis maps its own rows, an internal node's maps the stacked
skeletons of its children (the per-child transfer blocks).  Every basis is
an interpolative factor, applied without forming it: built matrices get
theirs from compression, sums and diagonal scalings from recompressing the
bases they combine.  Coupling blocks between siblings are exact kernel
entries at skeleton index pairs, so the compressed representation of a built
matrix stores only interpolation coefficients, index sets, and leaf diagonal
blocks; coupling and nearfield values are evaluated on first use, one block
row per target node, and kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ._threads import map_nodes, one_blas_thread, trim_heap
from .cluster import Box, ClusterTree, _to_scalars, leaf_sets, nearfield_set
from .kernel import KernelSpec, kernel_block
from .lowrank import (_box_center_scalar, compr, interp_basis, taylor_basis,
                      truncated_svd)


@dataclass
class BuildParams:
    """Construction knobs: expansion order r, admissibility tau, nearfield
    SVD cutoff, and farfield basis kind."""

    r: int = 20
    tau: float = 0.6
    eps_svd: float = 0.0
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


def no_kernel_block(rows, cols):
    raise ValueError("matrix was saved without a kernel; only stored blocks "
                     "are available")


@dataclass
class BlockRow:
    """One target node's blocks side by side, ``A = [A(i, j1) A(i, j2) ...]``.

    Block k, for source ``sources[k]``, spans columns ``edges[k]:edges[k+1]``
    of ``A``; ``cols`` holds the concatenated column labels (the sources'
    column skeletons for couplings, their tree-order point ranges for the
    nearfield).
    """

    sources: tuple
    edges: list
    cols: np.ndarray
    A: np.ndarray

    def block(self, j: int) -> np.ndarray:
        """The block of source j, a view into A."""
        k = self.sources.index(j)
        return self.A[:, self.edges[k]:self.edges[k + 1]]


def _by_target(pairs) -> dict:
    """Pairs (i, j) grouped by i: {i: (j, ...)}, in order of appearance."""
    out = {}
    for i, j in pairs:
        out.setdefault(i, []).append(j)
    return {i: tuple(js) for i, js in out.items()}


class _StructuredMatrix:
    """Shared machinery of the HSS and H2 formats.

    ``rowfac[i]`` and ``colfac[i]`` hold node i's bases, interpolative
    factors offering ``apply`` (X @ Z), ``apply_t`` (X.T @ Q) and ``expand``
    (X).  Couplings come from the kernel at skeleton pairs, except for sums
    and scalings, which store them in ``B_dense``; leaf diagonal blocks of
    HSS matrices are stored in ``Dblocks``.  Both kinds of block are kept as
    block rows (``block_row``), one per target node, filled on first use;
    ``B`` and ``NF`` return views into them.
    """

    kind = "structured"

    def __init__(self, tree: ClusterTree, params: BuildParams, block,
                 pairs_L, pairs_Lm, dtype, kernel: KernelSpec = None):
        self.tree = tree
        self.params = params
        self.kernel = kernel
        self.dtype = dtype
        self._block = block          # (tree-order rows, cols) -> exact entries
        self.pairs_L = list(pairs_L)
        self.pairs_Lm = list(pairs_Lm)
        self.rowfac = {}
        self.colfac = {}
        self.skel_row = {}
        self.skel_col = {}
        self.Dblocks = {}
        self.B_dense = {}
        self._sources = {"L": _by_target(self.pairs_L),
                         "Lm": _by_target(self.pairs_Lm)}
        self._rows = {}              # (kind, i) -> BlockRow

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
        return self.rowfac[i].expand()

    def V(self, i: int) -> np.ndarray:
        return self.colfac[i].expand()

    def transfers(self, i: int, side: str = "row") -> list:
        """Node i's basis split into one transfer block per child."""
        facs, skels = ((self.rowfac, self.skel_row) if side == "row"
                       else (self.colfac, self.skel_col))
        sizes = [skels[c].size for c in self.tree.nodes[i].children]
        return np.split(facs[i].expand(), np.cumsum(sizes)[:-1])

    def B(self, i: int, j: int) -> np.ndarray:
        """Coupling block for a low-rank pair (i, j), a view into row i."""
        return self.block_row("L", i).block(j)

    def NF(self, i: int, j: int) -> np.ndarray:
        """Dense nearfield block for an inadmissible leaf pair (i, j), a
        view into leaf i's nearfield row."""
        return self.block_row("Lm", i).block(j)

    def block_row(self, kind: str, i: int) -> BlockRow:
        """Node i's row of couplings (kind "L") or of nearfield blocks
        ("Lm"), evaluated with one kernel call on first use."""
        row = self._rows.get((kind, i))
        if row is None:
            row = self._rows[kind, i] = self._fill_row(kind, i)
        return row

    def block_rows(self, kind: str):
        """(i, row) for each target node of the pairs of that kind."""
        return ((i, self.block_row(kind, i)) for i in self._sources[kind])

    def _fill_row(self, kind: str, i: int) -> BlockRow:
        tr = self.tree
        js = self._sources[kind][i]
        if kind == "L":
            rows = self.skel_row[i]
            parts = [self.skel_col[j] for j in js]
            stored = [self.B_dense.get((i, j)) for j in js]
        else:
            rows = tr.row_range(i)
            parts = [tr.col_range(j) for j in js]
            stored = [self.Dblocks.get(i) if j == i else None for j in js]
        cols = np.concatenate(parts)
        edges = list(accumulate((p.size for p in parts), initial=0))
        if any(blk is not None for blk in stored):
            blocks = [self._block(rows, p) if blk is None else blk
                      for blk, p in zip(stored, parts)]
            A = blocks[0] if len(blocks) == 1 else np.hstack(blocks)
        else:
            A = self._block(rows, cols)
        return BlockRow(js, edges, cols, A)

    # -- dense reconstruction ---------------------------------------------------

    def _basis_big(self, i: int, side: str) -> np.ndarray:
        fac = self.rowfac if side == "row" else self.colfac
        if self.tree.is_leaf(i):
            return fac[i].expand()
        kids = self.tree.nodes[i].children
        return np.vstack([self._basis_big(c, side) @ T
                          for c, T in zip(kids, self.transfers(i, side))])

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


def _basis_builder(tree: ClusterTree, kernel: KernelSpec, params: BuildParams,
                   basis: str, side: str):
    """Farfield candidate basis of a node over tree-order indices.  For
    Cauchy-like kernels sum_l diag(w_l) C diag(v_l), the candidate stacks
    the Cauchy basis scaled by each generator column (w on the row side,
    v on the column side)."""
    pts = tree.points_row if side == "row" else tree.points_col
    diam = 2 * tree.nodes[tree.root].box.radius
    pad = max(1e-9 * diam, 1e-300)
    if basis == "taylor":
        scal = _to_scalars(pts) if pts.size else np.zeros(0)

        def build(i, idx):
            box = _pad_box(tree.nodes[i].box, pad)
            return taylor_basis(_box_center_scalar(box), box.radius, scal[idx],
                                params.r)
    elif basis == "interp":

        def build(i, idx):
            box = _pad_box(tree.nodes[i].box, pad)
            return interp_basis(box, pts[idx], params.r)
    else:
        raise ValueError("unknown basis %r" % basis)
    if kernel.kind != "cauchy_like":
        return build
    gen = kernel.w[tree.perm_row] if side == "row" else kernel.v[tree.perm_col]

    def build_scaled(i, idx):
        F = build(i, idx)
        return np.hstack([gen[idx, l][:, None] * F for l in range(gen.shape[1])])

    return build_scaled


def _intermediate(tree, i, skels, side):
    if tree.is_leaf(i):
        return tree.row_range(i) if side == "row" else tree.col_range(i)
    return np.concatenate([skels[c] for c in tree.nodes[i].children])


def _candidate(M: _StructuredMatrix, i: int, near, basis, side: str):
    """(C, ibar) for compressing node i's rows ("row") or columns ("col"):
    the farfield basis over the node's labels ibar, next to the truncated-SVD
    basis of its block against the nearfield neighbors' current labels (the
    column side takes that block transposed).  Reads only the skeletons of
    earlier levels, so the nodes of one level are independent."""
    skels = {"row": M.skel_row, "col": M.skel_col}
    other = "col" if side == "row" else "row"
    ibar = _intermediate(M.tree, i, skels[side], side)
    cand = [basis(i, ibar)]
    labels = [_intermediate(M.tree, j, skels[other], other) for j in near]
    labels = [x for x in labels if x.size]
    if labels and ibar.size:
        labels = np.concatenate(labels)
        Anear = (M._block(ibar, labels) if side == "row"
                 else M._block(labels, ibar).T)
        cand.append(truncated_svd(Anear, M.params.eps_svd).S)
    return np.hstack(cand), ibar


def _node_factors(M: HssMatrix, i: int, near: list, brow, bcol):
    """Row and column factors of node i."""
    return (compr(*_candidate(M, i, near, brow, "row")),
            compr(*_candidate(M, i, near, bcol, "col")))


@one_blas_thread()
def build_hss(tree: ClusterTree, kernel: KernelSpec, X, Y,
              params: BuildParams = None) -> HssMatrix:
    """Bottom-up HSS construction.

    Per node, the row basis candidate pairs the analytic farfield basis of the
    node's box with a truncated SVD of the block row against the nearfield
    neighbors' current index sets; interpolative compression of the pair
    yields the skeleton and the interpolation coefficients.  The column pass
    mirrors it.  Leaves keep exact diagonal blocks.  The nodes of a level
    run on up to two cores with one BLAS thread each; the factors are stored
    in level order, so the result does not depend on the core count.
    """
    params = params or BuildParams()
    for nd in tree.nodes:
        if not nd.is_leaf and len(nd.children) != 2:
            raise ValueError("HSS construction needs a binary tree")
    if kernel.kind == "cauchy_like" and (kernel.w.shape[0] != tree.n_row
                                         or kernel.v.shape[0] != tree.n_col):
        raise ValueError("generator rows (%d, %d) do not match the point "
                         "counts (%d, %d)" % (kernel.w.shape[0],
                                              kernel.v.shape[0],
                                              tree.n_row, tree.n_col))
    basis = params.basis or _default_basis(kernel)
    block = make_block_evaluator(kernel, X, Y, tree)
    dtype = kernel_dtype(kernel, X)
    L, Lm = leaf_sets(tree, params.tau, "hss")
    M = HssMatrix(tree, params, block, L, Lm, dtype, kernel=kernel)
    brow = _basis_builder(tree, kernel, params, basis, "row")
    bcol = _basis_builder(tree, kernel, params, basis, "col")

    for level in range(tree.n_levels, 1, -1):
        nodes = tree.level_nodes(level)
        # the nearfield cache fills on this thread, before the map
        near = [nearfield_set(tree, i, params.tau) for i in nodes]
        facs = map_nodes(lambda a: _node_factors(M, *a, brow, bcol),
                         zip(nodes, near))
        for i, (rowfac, colfac) in zip(nodes, facs):
            M.rowfac[i] = rowfac
            M.skel_row[i] = rowfac.skel
            M.colfac[i] = colfac
            M.skel_col[i] = colfac.skel
    trim_heap()
    for i in tree.leaves():
        M.Dblocks[i] = block(tree.row_range(i), tree.col_range(i))
    return M


# ---------------------------------------------------------------------------
# algebra on HSS matrices
# ---------------------------------------------------------------------------


def hss_add(A: HssMatrix, B: HssMatrix) -> HssMatrix:
    """Sum of two HSS matrices on the same tree: bases concatenate, transfers
    and couplings stack block-diagonally, diagonal blocks add; the result is
    recompressed into interpolative factors."""
    if A.kind != "hss" or B.kind != "hss":
        raise ValueError("hss_add expects HSS matrices")
    if A.tree is not B.tree:
        raise ValueError("operands must share one cluster tree")
    tr = A.tree
    dtype = np.result_type(A.dtype, B.dtype)
    out = HssMatrix(tr, A.params, no_kernel_block, A.pairs_L, A.pairs_Lm,
                    dtype)
    raw = {"row": {}, "col": {}}
    for i in A.rowfac:
        if tr.is_leaf(i):
            raw["row"][i] = np.hstack([A.U(i), B.U(i)])
            raw["col"][i] = np.hstack([A.V(i), B.V(i)])
        else:
            for side in raw:
                raw[side][i] = [_blkdiag(a, b, dtype) for a, b in
                                zip(A.transfers(i, side), B.transfers(i, side))]
    for i in tr.leaves():
        out.Dblocks[i] = (A.NF(i, i) + B.NF(i, i)).astype(dtype)
    couplings = {(i, j): _blkdiag(A.B(i, j), B.B(i, j), dtype)
                 for i, j in A.pairs_L}
    return _recompress(out, raw, couplings)


def _blkdiag(X, Y, dtype):
    out = np.zeros((X.shape[0] + Y.shape[0], X.shape[1] + Y.shape[1]), dtype=dtype)
    out[:X.shape[0], :X.shape[1]] = X
    out[X.shape[0]:, X.shape[1]:] = Y
    return out


def diag_scale(M: HssMatrix, dl, dr) -> HssMatrix:
    """diag(dl) @ M @ diag(dr) with dl, dr in caller index order; the scaled
    leaf bases are recompressed into interpolative factors."""
    dl = np.asarray(dl)
    dr = np.asarray(dr)
    if dl.shape != (M.n_row,) or dr.shape != (M.n_col,):
        raise ValueError("scaling vectors must match the matrix shape")
    tr = M.tree
    dlt = dl[tr.perm_row]
    drt = dr[tr.perm_col]
    dtype = np.result_type(M.dtype, dl.dtype, dr.dtype)
    out = HssMatrix(tr, M.params, no_kernel_block, M.pairs_L, M.pairs_Lm,
                    dtype)
    # the scalings land on the leaf bases; transfers and couplings carry over
    raw = {"row": {}, "col": {}}
    for i in M.rowfac:
        if tr.is_leaf(i):
            raw["row"][i] = dlt[tr.row_range(i)][:, None] * M.U(i)
            raw["col"][i] = drt[tr.col_range(i)][:, None] * M.V(i)
        else:
            for side in raw:
                raw[side][i] = M.transfers(i, side)
    for i in tr.leaves():
        rr, cc = tr.row_range(i), tr.col_range(i)
        out.Dblocks[i] = dlt[rr][:, None] * M.NF(i, i) * drt[cc][None, :]
    couplings = {(i, j): M.B(i, j) for i, j in M.pairs_L}
    return _recompress(out, raw, couplings)


@one_blas_thread()
def _recompress(out: HssMatrix, raw: dict, couplings: dict) -> HssMatrix:
    """Give out interpolative factors for the nested bases raw[side][i] (a
    leaf's basis, or an internal node's per-child transfer blocks) and the
    couplings between them.

    Bottom-up, each node compresses its raw basis, written over its labels:
    the leaf's rows, or its children's coefficients T_c times its transfers.
    The factor X = P [I; G] reproduces that basis as X T with T its skeleton
    rows, so a coupling B between raw bases becomes T_i B T_j^T, the
    represented entries at the skeleton pairs.
    """
    tr = out.tree
    T = {"row": {}, "col": {}}
    for side, facs, skels in (("row", out.rowfac, out.skel_row),
                              ("col", out.colfac, out.skel_col)):
        for i in range(tr.root):  # postorder: children before parents
            C = raw[side][i]
            if not tr.is_leaf(i):
                C = np.vstack([T[side][c] @ R
                               for c, R in zip(tr.nodes[i].children, C)])
            fac = compr(C, _intermediate(tr, i, skels, side))
            facs[i] = fac
            skels[i] = fac.skel
            T[side][i] = C[fac.skel_local]
    for (i, j), B in couplings.items():
        out.B_dense[(i, j)] = T["row"][i] @ B @ T["col"][j].T
    return out


def cauchy_like_hss(tree: ClusterTree, X, Y, w, v,
                    params: BuildParams = None) -> HssMatrix:
    """HSS form of sum_l diag(w[:, l]) C diag(v[:, l]) with C the Cauchy
    matrix, built directly by build_hss on the Cauchy-like kernel."""
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    if w.ndim != 2 or v.ndim != 2 or w.shape[1] != v.shape[1]:
        raise ValueError("generator matrices need matching column counts")
    return build_hss(tree, KernelSpec(kind="cauchy_like", w=w, v=v), X, Y,
                     params)
