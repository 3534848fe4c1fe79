"""HSS construction from farfield expansions plus nearfield sampling.

Every nonroot node gets a row and a column basis, stored one way for every
node: a leaf's basis maps its own rows, an internal node's maps the stacked
skeletons of its children (the per-child transfer blocks).  One rule
(``one_basis``) decides for both builders and the container when a node's
column basis is its row basis, compressed once, held once and saved once.
Every basis is an interpolative factor, applied without forming it: built
matrices get theirs from compression, sums and diagonal scalings from
recompressing the bases they combine.  Coupling blocks between siblings
are exact kernel entries at skeleton index pairs, so the compressed
representation of a built matrix stores only interpolation coefficients,
index sets, and leaf diagonal blocks; coupling and nearfield values are
evaluated on first use, one block row per target node, and kept.  Where one factor serves both sides of every
node and the kernel is antisymmetric, coupling (j, i) is minus the transpose
of (i, j) bit for bit, so only the pairs with i < j are kept and each of
their rows is applied both ways.  On one point set whose equal points share
a leaf, the nearfield leaf pairs are mirrored the same way: each leaf keeps
its diagonal block, applied one way, and its blocks (i, j) with i < j.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from ._threads import map_nodes, one_blas_thread, trim_heap
from .apply import matvec_nodewise
from .cluster import (ClusterTree, _center_distance, _to_scalars, leaf_sets,
                      nearfield_set)
from .kernel import KernelSpec, kernel_block
from .lowrank import compr, interp_basis, taylor_basis, truncated_svd

_COLUMN_BLOCK = 512  # identity columns per apply in dense reconstruction


@dataclass
class BuildParams:
    """Construction knobs: expansion order r, admissibility tau, nearfield
    SVD cutoff, and farfield basis kind."""

    r: int = 20
    tau: float = 0.6
    eps_svd: float = 0.0
    basis: str = "taylor"  # or "interp"; None reads as "taylor"

    def __post_init__(self):
        if self.basis is None:
            self.basis = "taylor"
        if self.basis not in ("taylor", "interp"):
            raise ValueError("build parameter basis must be 'taylor' or "
                             "'interp', got %r" % (self.basis,))
        # outside these ranges a build either fails far from the cause or
        # returns a wrong matrix without complaint; NaN fails every test
        for name, ok, need in (
                # l! for l < r must be a finite double: 170! is, 171! is not
                ("r", lambda v: (isinstance(v, numbers.Integral)
                                 and 1 <= v <= 171),
                 "an integer expansion order in [1, 171]"),
                ("tau", lambda v: 0 < v < 1, "in (0, 1)"),
                ("eps_svd", lambda v: 0 <= v < 1, "in [0, 1)")):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not ok(v):
                raise ValueError("build parameter %s must be %s, got %r"
                                 % (name, need, v))


def no_kernel_block(rows, cols):
    raise ValueError("matrix was saved without a kernel; only stored blocks "
                     "are available")


@dataclass
class BlockRow:
    """One target node's blocks side by side, ``A = [A(i, j1) A(i, j2) ...]``.

    Block k, for source ``sources[k]``, spans columns ``edges[k]:edges[k+1]``
    of ``A``; ``cols`` holds the positions an apply reads the row's input
    from: the sources' slices of the flat column-coefficient vector
    (``coefficient_layout``) for couplings, their tree-order point ranges
    for the nearfield.  A ``mirrored`` row also stands for the transposed
    pairs, ``A(j, i) = -A(i, j).T``, except for its first ``skip`` columns:
    a nearfield row's diagonal block, which stands only for itself.
    """

    sources: tuple
    edges: list
    cols: np.ndarray
    A: np.ndarray
    mirrored: bool = False
    skip: int = 0
    tail: np.ndarray = field(init=False, repr=False)
    back: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # the positions a mirrored row writes back to and the transposed
        # blocks that map to them, views sliced once for every apply
        self.tail = self.cols[self.skip:]
        self.back = self.A[:, self.skip:].T

    def block(self, j: int) -> np.ndarray:
        """The block of source j, a view into A."""
        k = self.sources.index(j)
        return self.A[:, self.edges[k]:self.edges[k + 1]]


def _by_target(pairs: np.ndarray, mirrored: bool):
    """(mirrored, {i: (j, ...)}): the (p, 2) pairs (i, j) grouped by i, in
    order of appearance; mirrored, only the pairs with i <= j, each (i, i)
    first.  A stable sort on the position where each pair's i first
    appears keeps both orders."""
    if mirrored:
        i, j = pairs.T
        pairs = np.concatenate([pairs[i == j], pairs[i < j]])
    _, first, group = np.unique(pairs[:, 0], return_index=True,
                                return_inverse=True)
    i, j = pairs[np.argsort(first[group.ravel()], kind="stable")].T
    starts = np.flatnonzero(np.diff(i, prepend=-1))
    edges, js = np.append(starts, i.size).tolist(), j.tolist()
    return mirrored, {a: tuple(js[s:e]) for a, s, e in
                      zip(i[starts].tolist(), edges, edges[1:])}


def _mirrored_pairs(pairs: np.ndarray, n: int) -> bool:
    """Whether the (p, 2) pairs of ids below n hold the mirror (j, i) of
    each pair: the sorted codes i n + j and j n + i agree."""
    i, j = pairs.T
    return np.array_equal(np.sort(i * n + j), np.sort(j * n + i))


def _equal_points_split(tree: ClusterTree) -> bool:
    """Whether two leaves hold equal points: the tree-order scalars sorted,
    equal neighbours compared by leaf.  ``build_tree`` sends equal
    coordinates the same way; a tree read from a file need not."""
    leaf = np.empty(tree.n_row, dtype=np.int64)
    for nd in tree.nodes:
        if nd.is_leaf:
            leaf[nd.row_start:nd.row_stop] = nd.index
    s = _to_scalars(tree.points_row)
    order = np.argsort(s)
    s, leaf = s[order], leaf[order]
    same = s[1:] == s[:-1]
    return bool(np.any(leaf[1:][same] != leaf[:-1][same]))


class _StructuredMatrix:
    """Shared machinery of the HSS and H2 formats.

    ``rowfac[i]`` and ``colfac[i]`` hold node i's bases, interpolative
    factors offering ``apply`` (X @ Z), ``apply_t`` (X.T @ Q) and ``expand``
    (X).  Couplings come from the kernel at skeleton pairs, except for sums
    and scalings, which store them in ``B_dense``; leaf diagonal blocks of
    HSS matrices are stored in ``Dblocks``.  Both kinds of block are kept as
    block rows (``block_row``), one per target node, filled on first use;
    ``B`` and ``NF`` return views into them.  Which rows are kept is decided
    on first use, once the factors are in place: a matrix whose couplings
    are antisymmetric (``_antisymmetric``) keeps the pairs with i < j only,
    and ``B`` returns the others as ``-B(j, i).T``; one whose nearfield is
    too (``_mirrors_nearfield``) keeps each leaf's diagonal block and its
    pairs with i < j, and ``NF`` does the same.
    """

    kind = "structured"

    def __init__(self, tree: ClusterTree, params: BuildParams, block,
                 pairs_L, pairs_Lm, dtype, kernel: KernelSpec = None):
        self.tree = tree
        self.params = params
        self.kernel = kernel
        self.dtype = dtype
        self._block = block          # (tree-order rows, cols) -> exact entries
        self.pairs_L = np.asarray(pairs_L, dtype=np.int64).reshape(-1, 2)
        self.pairs_Lm = np.asarray(pairs_Lm, dtype=np.int64).reshape(-1, 2)
        self.rowfac = {}
        self.colfac = {}
        self.skel_row = {}
        self.skel_col = {}
        self.Dblocks = {}
        self.B_dense = {}
        self._kept = None            # _kept_rows(), on first use
        self._layouts = {}           # side -> coefficient_layout(side)
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

    def _store(self, i: int, rowfac, colfac) -> None:
        """Node i's factors and the skeletons they select."""
        self.rowfac[i], self.skel_row[i] = rowfac, rowfac.skel
        self.colfac[i], self.skel_col[i] = colfac, colfac.skel

    def transfers(self, i: int, side: str = "row") -> list:
        """Node i's basis split into one transfer block per child."""
        facs, skels = ((self.rowfac, self.skel_row) if side == "row"
                       else (self.colfac, self.skel_col))
        sizes = [skels[c].size for c in self.tree.nodes[i].children]
        return np.split(facs[i].expand(), np.cumsum(sizes)[:-1])

    def B(self, i: int, j: int) -> np.ndarray:
        """Coupling block for a low-rank pair (i, j), a view into row i; a
        mirrored pair's block is ``-B(j, i).T``, a new array."""
        return self._pair("L", i, j)

    def NF(self, i: int, j: int) -> np.ndarray:
        """Dense nearfield block for an inadmissible leaf pair (i, j), a
        view into leaf i's nearfield row; a mirrored pair's block is
        ``-NF(j, i).T``, a new array."""
        return self._pair("Lm", i, j)

    def _pair(self, kind: str, i: int, j: int) -> np.ndarray:
        if i > j and self._kept_rows()[kind][0]:
            return -self.block_row(kind, j).block(i).T
        return self.block_row(kind, i).block(j)

    def block_row(self, kind: str, i: int) -> BlockRow:
        """Node i's row of couplings (kind "L") or of nearfield blocks
        ("Lm"), evaluated with one kernel call on first use."""
        row = self._rows.get((kind, i))
        if row is None:
            row = self._rows[kind, i] = self._fill_row(kind, i)
        return row

    def block_rows(self, kind: str):
        """(i, row) for each kept row of that kind."""
        return ((i, self.block_row(kind, i))
                for i in self._kept_rows()[kind][1])

    def _antisymmetric(self) -> bool:
        """Whether every coupling (j, i) is ``-B(i, j).T`` bit for bit: the
        kernel is antisymmetric, every column factor is its row factor
        (``one_basis``, which the builders and the loader follow), and the
        pair list holds the mirror of each pair.  Sums and scalings, which
        store their couplings, carry no kernel.  The nearfield has its own
        test, ``_mirrors_nearfield``."""
        return (self.kernel is not None and self.kernel.kind in _ANTISYMMETRIC
                and one_basis(self.kind, self.tree, self.kernel)
                and _mirrored_pairs(self.pairs_L, len(self.tree.nodes)))

    def _mirrors_nearfield(self) -> bool:
        """Whether, given antisymmetric couplings, every nearfield block
        (j, i) with i != j is ``-NF(i, j).T`` bit for bit: one point set, the
        mirror of each leaf pair in the list, and no two leaves holding equal
        points.  The Cauchy kernel takes the value dx at coincident points,
        which is not antisymmetric, so diagonal blocks are applied as they
        are, and so is the whole nearfield of a tree that splits equal
        points."""
        tr = self.tree
        return (tr.one_point_set()
                and _mirrored_pairs(self.pairs_Lm, len(tr.nodes))
                and not _equal_points_split(tr))

    def _kept_rows(self):
        """{kind: (mirrored, {i: sources of kept row i})}, decided on first
        use: a mirrored kind keeps the pairs with i <= j only."""
        if self._kept is None:
            mirrored = self._antisymmetric()
            self._kept = {
                "L": _by_target(self.pairs_L, mirrored),
                "Lm": _by_target(self.pairs_Lm,
                                 mirrored and self._mirrors_nearfield())}
        return self._kept

    def coefficient_layout(self, side: str):
        """({i: slice}, {i: positions}, length): each non-root node's slice
        of one flat vector of coefficients on that side's bases, the same
        as an index array, and the vector's length.  Nodes are laid out
        level by level from the root down, so siblings are adjacent and a
        parent's children read as one slice."""
        got = self._layouts.get(side)
        if got is None:
            skels = self.skel_row if side == "row" else self.skel_col
            at, end = {}, 0
            order = [self.tree.root]
            for i in order:  # grows as it goes: a breadth-first walk
                for c in self.tree.nodes[i].children:
                    at[c] = slice(end, end + skels[c].size)
                    end = at[c].stop
                    order.append(c)
            every = np.arange(end)
            got = self._layouts[side] = (
                at, {i: every[sl] for i, sl in at.items()}, end)
        return got

    def _fill_row(self, kind: str, i: int) -> BlockRow:
        tr = self.tree
        mirrored, sources = self._kept_rows()[kind]
        js = sources[i]
        stored = None
        if kind == "L":
            rows = self.skel_row[i]
            parts = [self.skel_col[j] for j in js]
            if self.B_dense:
                stored = [self.B_dense.get((i, j)) for j in js]
        else:
            rows = tr.row_range(i)
            parts = [tr.col_range(j) for j in js]
            if self.Dblocks:
                stored = [self.Dblocks.get(i) if j == i else None for j in js]
        labels = np.concatenate(parts)
        edges = list(accumulate((p.size for p in parts), initial=0))
        if stored is not None and any(blk is not None for blk in stored):
            blocks = [self._block(rows, p) if blk is None else blk
                      for blk, p in zip(stored, parts)]
            A = blocks[0] if len(blocks) == 1 else np.hstack(blocks)
        else:
            A = self._block(rows, labels)
        if kind == "Lm":
            skip = edges[1] if mirrored and js[0] == i else 0
            return BlockRow(js, edges, labels, A, mirrored, skip)
        pos = self.coefficient_layout("col")[1]
        return BlockRow(js, edges, np.concatenate([pos[j] for j in js]), A,
                        mirrored)

    # -- dense reconstruction ---------------------------------------------------

    def column_blocks(self, cols=None):
        """(c, the columns c of the represented matrix) for consecutive
        chunks c of cols, every column by default: the matrix applied to
        512 identity columns at a time, in caller ordering."""
        cols = np.arange(self.n_col) if cols is None else np.asarray(cols)
        for a in range(0, cols.size, _COLUMN_BLOCK):
            c = cols[a:a + _COLUMN_BLOCK]
            E = np.zeros((self.n_col, c.size))
            E[c, np.arange(c.size)] = 1.0
            yield c, matvec_nodewise(self, E)

    def todense(self) -> np.ndarray:
        """Assemble the represented matrix, in caller ordering."""
        out = np.empty(self.shape, dtype=self.dtype)
        for c, blk in self.column_blocks():
            out[:, c] = blk
        return out


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


# kernels whose candidates scale each side by its own generators, so the
# row and column builders differ even on one point set: the Cauchy-like
# generators w and v, and the double layer's 1 and v, Re(C diag(v))
_SIDE_SCALED = ("cauchy_like", "laplace_dlp")
# kernels with K(y, x) = -K(x, y) bit for bit at distinct points: IEEE
# subtraction is exactly antisymmetric, and so is the reciprocal
_ANTISYMMETRIC = ("cauchy",)


def _basis_builder(tree: ClusterTree, kernel: KernelSpec, params: BuildParams,
                   side: str):
    """Farfield candidate basis of a node over tree-order indices.

    The Taylor candidate F expands the Cauchy kernel in r terms.  A
    Cauchy-like kernel sum_l diag(w_l) C diag(v_l) stacks F scaled by each
    generator column (w on the row side, v on the column side).  The double
    layer Re(C diag(v)) is real: its row side takes [Re F, Im F] and its
    column side [Re(vF), Im(vF)], 2r columns each.  The interp basis (r
    Lagrange polynomials) is scaled for Cauchy-like kernels only.
    """
    pts = tree.points_row if side == "row" else tree.points_col
    diam = 2 * tree.radius[tree.root]
    pad = max(1e-9 * diam, 1e-300)
    # every node's box, each side thinner than pad widened to pad
    lo, hi = tree.lo.copy(), tree.hi.copy()
    thin = hi - lo < pad
    lo[thin] -= pad / 2
    hi[thin] += pad / 2
    gen = None  # the generator columns, in tree order
    if kernel.kind == "cauchy_like":
        rows = (kernel.w.shape[0], kernel.v.shape[0])
        if rows != (tree.n_row, tree.n_col):
            raise ValueError("generator rows %s do not match the point counts "
                             "%s" % (rows, (tree.n_row, tree.n_col)))
        gen = kernel.w[tree.perm_row] if side == "row" else kernel.v[tree.perm_col]
    elif (kernel.kind == "laplace_dlp" and side == "col"
          and params.basis != "interp"):  # v raises the interp HSS ranks
        gen = kernel._dlp_data()["v"][tree.perm_col, None]
    scal = _to_scalars(pts) if pts.size else np.zeros(0)

    if params.basis == "interp":
        def build(i, idx):
            return interp_basis(lo[i], hi[i], pts[idx], params.r)
    else:
        # x + 1j*y is complex(x, y) unless x is -0.0, and the midpoint of a
        # side no thinner than pad is not
        cen = _to_scalars((lo + hi) / 2.0)
        rad = 0.5 * _center_distance(hi - lo)

        def build(i, idx):
            return taylor_basis(cen[i], rad[i], scal[idx], params.r)

    real = kernel.kind == "laplace_dlp"  # a real kernel of complex points

    def candidate(i, idx):
        F = build(i, idx)
        if gen is not None:
            F = np.hstack([gen[idx, l][:, None] * F
                           for l in range(gen.shape[1])])
        return np.hstack([F.real, F.imag]) if real and F.dtype.kind == "c" else F

    return candidate


def one_basis(kind: str, tree: ClusterTree, kernel: KernelSpec) -> bool:
    """Whether a matrix of kind "hss" or "h2" holds one factor per node for
    both sides: one point set and a kernel that scales neither side give
    one farfield candidate, and for HSS, whose column candidate also holds
    the transposed nearfield block, an antisymmetric kernel negates it.
    Cauchy-like kernels and the double layer scale a side
    (``_SIDE_SCALED``), and sums and scalings carry no kernel: all keep two
    factors.  The builders, ``save_matrix`` and ``load_matrix`` all follow
    this rule."""
    return (kernel is not None and kernel.kind not in _SIDE_SCALED
            and (kind == "h2" or kernel.kind in _ANTISYMMETRIC)
            and tree.one_point_set())


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
    return (cand[0] if len(cand) == 1 else np.hstack(cand)), ibar


def _node_factors(M: HssMatrix, i: int, near: list, brow, bcol):
    """Row and column factors of node i; one factor where bcol is None."""
    row = compr(*_candidate(M, i, near, brow, "row"))
    return row, (row if bcol is None
                 else compr(*_candidate(M, i, near, bcol, "col")))


@one_blas_thread()
def build_hss(tree: ClusterTree, kernel: KernelSpec, X, Y,
              params: BuildParams = None) -> HssMatrix:
    """Bottom-up HSS construction.

    Per node, the row basis candidate pairs the analytic farfield basis of the
    node's box with a truncated SVD of the block row against the nearfield
    neighbors' current index sets; interpolative compression of the pair
    yields the skeleton and the interpolation coefficients.  The column pass
    mirrors it unless one factor serves both sides (``one_basis``).  Leaves
    keep exact diagonal blocks.  The nodes of a level run on up to two cores
    with one BLAS thread each; the factors are stored in level order, so the
    result does not depend on the core count.
    """
    params = params or BuildParams()
    for nd in tree.nodes:
        if not nd.is_leaf and len(nd.children) != 2:
            raise ValueError("HSS construction needs a binary tree")
    block = make_block_evaluator(kernel, X, Y, tree)
    dtype = kernel_dtype(kernel, X)
    L, Lm = leaf_sets(tree, params.tau, "hss")
    M = HssMatrix(tree, params, block, L, Lm, dtype, kernel=kernel)
    brow = _basis_builder(tree, kernel, params, "row")
    bcol = (None if one_basis("hss", tree, kernel)
            else _basis_builder(tree, kernel, params, "col"))

    near = nearfield_set(tree, params.tau)
    for level in range(tree.n_levels, 1, -1):
        nodes = tree.level_nodes(level)
        facs = map_nodes(lambda a: _node_factors(M, *a, brow, bcol),
                         [(i, near[i]) for i in nodes])
        for i, pair in zip(nodes, facs):
            M._store(i, *pair)
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
                 for i, j in A.pairs_L.tolist()}
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
    couplings = {(i, j): M.B(i, j) for i, j in M.pairs_L.tolist()}
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
