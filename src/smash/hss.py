"""HSS construction from farfield expansions plus nearfield sampling, and
the bottom-up construction that the HSS and H2 builders share (``_build``;
H2 is the HSS build with an empty nearfield).

Every nonroot node gets a row and a column basis, stored one way for every
node: a leaf's basis maps its own rows, an internal node's maps the stacked
skeletons of its children (the per-child transfer blocks).  An HSS node's
candidate adds columns spanning its nearfield block (no SVD), taken from
a Gaussian sketch of the block where it is wide.  One rule
(``one_basis``) decides for both builders and the container when a node's
column basis is its row basis, compressed once, held once and saved once.
Every basis is an interpolative factor, applied without forming it: built
matrices get theirs from compression, sums and diagonal scalings from
recompressing the bases they combine.  Coupling blocks between siblings
are exact kernel entries at skeleton index pairs, so the compressed
representation of a built matrix stores only interpolation coefficients,
index sets, and leaf diagonal blocks; coupling and nearfield values are
evaluated on first use, one block row per target node, and kept, the rows
of one shape stacked and evaluated by one kernel call; the calls of one
fill are shared by two threads (``map_nodes``), the largest first, with
the bits of a serial fill.  An apply works on those groups of rows and on
the factors grouped the same way, by level and shape, each factor's G a
view into its group's stack.  Where one factor serves both sides of every
node and the kernel is antisymmetric, coupling (j, i) is minus the
transpose of (i, j) bit for bit, so only the pairs with i < j are kept and
each of their rows is applied both ways.  On one point
set whose equal points share a leaf, the nearfield leaf pairs are mirrored
the same way: each leaf keeps its diagonal block, applied one way, and its
blocks (i, j) with i < j.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import lowrank
from ._threads import map_nodes, one_blas_thread
from .apply import matvec_nodewise
from .cluster import (ClusterTree, _center_distance, _to_scalars, leaf_sets,
                      nearfield_set)
from .kernel import KernelSpec, kernel_block
from .lowrank import compr, interp_basis, range_columns, taylor_basis

# not called here: the benchmark's layer tracer wraps hss.truncated_svd
truncated_svd = lowrank.truncated_svd

_COLUMN_BLOCK = 512  # identity columns per apply in dense reconstruction


@dataclass
class BuildParams:
    """Construction knobs: expansion order r, admissibility tau, HSS
    nearfield cutoff eps_svd (the cut of ``range_columns``; named for the
    SVD it replaced), and farfield basis kind."""

    r: int = 20
    tau: float = 0.6
    eps_svd: float = 0.0
    basis: str = "taylor"  # or "interp"

    def __post_init__(self):
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
class BlockGroup:
    """The kept block rows of one kind and one shape (m rows, n columns,
    ``skip``), stacked in ``A``, (R, m, n).  Row r holds one target node's
    blocks side by side, ``A[r] = [A(i, j1) A(i, j2) ...]``, in the order
    of its sources.  A ``mirrored`` row also stands for the transposed
    pairs, ``A(j, i) = -A(i, j).T``, except for its first ``skip`` columns:
    a nearfield row's diagonal block, which stands only for itself.

    An apply adds ``A[r]`` times the flat input at positions ``src[r]`` to
    the flat output at ``out[r]`` (``flat_layout``); a mirrored group also
    subtracts ``A[r][:, skip:].T`` times the input at ``out[r]`` from the
    output at ``src[r, skip:]``, since input and output share one layout
    where a matrix is mirrored.
    """

    A: np.ndarray
    out: np.ndarray
    src: np.ndarray
    mirrored: bool
    skip: int


class BasisLevel(NamedTuple):
    """The factors ``X = P [I; G]`` of one level, grouped by shape (m labels,
    rank k): ``stacks`` holds each group's G stacked, (R, m - k, k), of
    which each factor's own G is a slice.  On the flat vector of their side
    (``flat_layout``), ``skel`` holds, group by group and factor by factor,
    the positions of the labels each factor's skeleton picks, ``red`` those
    of its other labels in P's order, and ``coef`` those of its node's
    coefficients, in the order of ``skel``."""

    stacks: list
    skel: np.ndarray
    red: np.ndarray
    coef: np.ndarray


def _ranges(starts, sizes) -> np.ndarray:
    """The concatenated ranges ``start:start + size``."""
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    return np.arange(ends[-1]) + np.repeat(starts - ends + sizes, sizes)


def _by_shape(keys) -> list:
    """(key, [indices of the items with that key]) for each distinct key,
    in order of first appearance."""
    groups = {}
    for r, key in enumerate(keys):
        groups.setdefault(key, []).append(r)
    return list(groups.items())


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
    factors offering ``apply_t`` (X.T @ Q) and ``expand`` (X).  Couplings
    come from the kernel at skeleton pairs, except for sums and scalings,
    which store them in ``B_dense``; leaf diagonal blocks of HSS matrices
    are stored in ``Dblocks``.  Both kinds of block are kept as block
    rows, one per target node, and the rows of one kind and shape as one
    stack (``block_groups``), filled on first use by one kernel call, or
    from the stored blocks, which then become views into it; ``B`` and
    ``NF`` return views into the stacks.  The factors are grouped by level
    and shape (``basis_groups``) once per matrix, on first use or, for a
    loaded matrix, by the loader, which copies each G from the file into
    its group's stack.  Which rows are kept is decided when the matrix is
    made: a matrix whose couplings are antisymmetric (``_antisymmetric``)
    keeps the pairs with i < j only, and ``B`` returns the others as
    ``-B(j, i).T``; one whose nearfield is too (``_mirrors_nearfield``)
    keeps each leaf's diagonal block and its pairs with i < j, and ``NF``
    does the same.
    """

    kind = "structured"

    def __init__(self, tree: ClusterTree, params: BuildParams, block,
                 pairs_L, pairs_Lm, dtype, kernel: KernelSpec = None):
        self.tree = tree
        self.params = params
        self.kernel = kernel
        self.dtype = dtype
        # tree-order (..., m) rows and (..., n) columns -> exact entries,
        # (..., m, n): one block, or a stack of them
        self._block = block
        self.pairs_L = np.asarray(pairs_L, dtype=np.int64).reshape(-1, 2)
        self.pairs_Lm = np.asarray(pairs_Lm, dtype=np.int64).reshape(-1, 2)
        self.rowfac = {}
        self.colfac = {}
        self.skel_row = {}
        self.skel_col = {}
        self.Dblocks = {}
        self.B_dense = {}
        # kind -> (mirrored, {i: sources of kept row i}): a mirrored kind
        # keeps the pairs with i <= j only
        mirrored = self._antisymmetric()
        self._sources = {
            "L": _by_target(self.pairs_L, mirrored),
            "Lm": _by_target(self.pairs_Lm,
                             mirrored and self._mirrors_nearfield())}
        self._layouts = {}           # side -> flat_layout(side)
        self._groups = {}            # kind -> [BlockGroup]
        self._where = {}             # kind -> {i: (group, row in it)}
        self._bases = {}             # side -> [BasisLevel], one per level

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
        """Coupling block for a low-rank pair (i, j), a view into node i's
        row of its group; a mirrored pair's block is ``-B(j, i).T``, a new
        array."""
        return self._pair("L", i, j)

    def NF(self, i: int, j: int) -> np.ndarray:
        """Dense nearfield block for an inadmissible leaf pair (i, j), a
        view into leaf i's nearfield row of its group; a mirrored pair's
        block is ``-NF(j, i).T``, a new array."""
        return self._pair("Lm", i, j)

    def _pair(self, kind: str, i: int, j: int) -> np.ndarray:
        """Block (i, j) of that kind: source j's columns of row i."""
        mirrored, sources = self._sources[kind]
        if i > j and mirrored:
            return -self._pair(kind, j, i).T
        groups = self.block_groups(kind)
        g, r = self._where[kind][i]
        js = sources[i]
        width = self.rank_col if kind == "L" else (
            lambda s: self.tree.nodes[s].n_col)
        e = sum(map(width, js[:js.index(j)]))
        return groups[g].A[r, :, e:e + width(j)]

    def block_groups(self, kind: str) -> list:
        """The kept rows of that kind grouped by shape (``BlockGroup``),
        filled on first use: by one kernel call per group, on the stacked
        labels of its rows, or, for rows whose blocks are stored, by
        stacking those blocks, which then become views into the group.  The
        kernel calls run through ``map_nodes``, largest group first."""
        got = self._groups.get(kind)
        if got is None:
            got, where = self._fill_groups(kind)
            self._groups[kind], self._where[kind] = got, where
        return got

    def _antisymmetric(self) -> bool:
        """Whether every coupling (j, i) is ``-B(i, j).T`` bit for bit: the
        kernel is antisymmetric and every column factor is its row factor
        (``one_basis``, which the builders and the loader follow); their
        pairs, from ``leaf_sets``, hold the mirror of each pair.  Sums and
        scalings, which store their couplings, carry no kernel.  The
        nearfield has its own test, ``_mirrors_nearfield``."""
        return (self.kernel is not None and self.kernel.kind in _ANTISYMMETRIC
                and one_basis(self.kind, self.tree, self.kernel))

    def _mirrors_nearfield(self) -> bool:
        """Whether, given antisymmetric couplings, every nearfield block
        (j, i) with i != j is ``-NF(i, j).T`` bit for bit: one point set and
        no two leaves holding equal points.  The Cauchy kernel takes the
        value dx at coincident points, which is not antisymmetric, so
        diagonal blocks are applied as they are, and so is the whole
        nearfield of a tree that splits equal points."""
        tr = self.tree
        return tr.one_point_set() and not _equal_points_split(tr)

    def flat_layout(self, side: str):
        """(n, length, at): the flat vector an apply works on, on one side,
        holds that side's n entries in tree order, then the coefficients on
        that side's bases, length entries in all; non-root node i's
        coefficients begin at ``at[i]``.  Nodes are laid out level by level
        from the root down, so siblings are adjacent and a parent's
        children read as one slice."""
        got = self._layouts.get(side)
        if got is None:
            n, skels = ((self.n_row, self.skel_row) if side == "row"
                        else (self.n_col, self.skel_col))
            at, end = [0] * len(self.tree.nodes), n
            order = [self.tree.root]
            for i in order:  # grows as it goes: a breadth-first walk
                for c in self.tree.nodes[i].children:
                    at[c], end = end, end + skels[c].size
                    order.append(c)
            got = self._layouts[side] = (n, end,
                                         np.array(at, dtype=np.int64))
        return got

    def _fill_groups(self, kind: str) -> tuple:
        """(groups, {i: (group, row in it)}) of that kind.  Every group is
        planned first, on arrays; then the kernel blocks of those not
        stored are evaluated through ``map_nodes``, the largest (R m n)
        first, each item gathering its own labels, so that one group's
        Python work overlaps the other thread's kernel.  Each block's bits,
        the group order and so every product are those of a serial fill."""
        tr = self.tree
        mirrored, sources = self._sources[kind]
        # per node: its rows and columns, and where they begin on the flat
        # output and input
        size_row, size_col, out_at, src_at = np.zeros((4, len(tr.nodes)),
                                                      dtype=np.int64)
        if kind == "L":
            for side, skels, size, begin in (
                    ("row", self.skel_row, size_row, out_at),
                    ("col", self.skel_col, size_col, src_at)):
                begin[:] = self.flat_layout(side)[2]
                size[:tr.root] = [skels[i].size for i in range(tr.root)]
            stored = self.B_dense and (lambda i, j: self.B_dense.get((i, j)))
        else:
            for nd in tr.nodes:
                size_row[nd.index], out_at[nd.index] = nd.n_row, nd.row_start
                size_col[nd.index], src_at[nd.index] = nd.n_col, nd.col_start
            stored = self.Dblocks and (
                lambda i, j: self.Dblocks.get(i) if i == j else None)

        # per target: its sources' span in the flat list of all of them,
        # and its key (rows, summed source widths, skip, stored)
        targets = np.fromiter(sources, dtype=np.int64, count=len(sources))
        lens = np.fromiter(map(len, sources.values()), dtype=np.int64,
                           count=targets.size)
        flat = np.fromiter(chain.from_iterable(sources.values()),
                           dtype=np.int64, count=int(lens.sum()))
        starts = np.cumsum(lens) - lens
        width = np.add.reduceat(size_col[flat], starts)
        skip = np.zeros_like(targets)
        if kind == "Lm" and mirrored:
            first = flat[starts] == targets
            skip[first] = size_col[targets[first]]
        is_stored = ([all(stored(i, j) is not None for j in sources[i])
                      for i in targets.tolist()] if stored
                     else [False] * targets.size)
        # every group with its place, A to come; rows[g] = (stored,
        # targets, their sources) of group g
        groups, where, rows = [], {}, []
        for (m, n, k, st), rs in _by_shape(zip(size_row[targets].tolist(),
                                               width.tolist(), skip.tolist(),
                                               is_stored)):
            ti = targets[rs].tolist()
            js = flat[_ranges(starts[rs], lens[rs])]
            where.update((i, (len(groups), r)) for r, i in enumerate(ti))
            rows.append((st, ti, js))
            groups.append(BlockGroup(
                None, out_at[ti][:, None] + np.arange(m),
                _ranges(src_at[js], size_col[js]).reshape(len(ti), n),
                mirrored, k))

        def evaluate(g):
            _, ti, js = rows[g]
            out, src = groups[g].out, groups[g].src
            if kind == "Lm":  # the nearfield's labels are its positions
                return self._block(out, src)
            return self._block(
                np.concatenate([self.skel_row[i] for i in ti]).reshape(
                    out.shape),
                np.concatenate([self.skel_col[j] for j in js.tolist()]
                               ).reshape(src.shape))

        # largest (R m n entries) first; equal sizes in group order
        todo = sorted((g for g, (st, _, _) in enumerate(rows) if not st),
                      key=lambda g: -groups[g].out.size
                      * groups[g].src.shape[1])
        for g, A in zip(todo, map_nodes(evaluate, todo)):
            groups[g].A = A
        for g, (st, ti, _) in enumerate(rows):
            if st:
                groups[g].A = self._stack_stored(kind, ti, stored)
        return groups, where

    def _stack_stored(self, kind: str, ti: list, stored) -> np.ndarray:
        """The rows of targets ti stacked from their stored blocks, each of
        which then becomes its view into the stack, so that none is held
        twice."""
        js_of = self._sources[kind][1]
        rows = [[stored(i, j) for j in js_of[i]] for i in ti]
        A = np.stack([np.hstack(blocks) for blocks in rows])
        for r, (i, blocks) in enumerate(zip(ti, rows)):
            e = 0
            for j, b in zip(js_of[i], blocks):
                view = A[r, :, e:e + b.shape[1]]
                e += b.shape[1]
                if kind == "L":
                    self.B_dense[i, j] = view
                else:
                    self.Dblocks[i] = view
        return A

    def basis_groups(self, side: str) -> list:
        """That side's factors by level, the root's children first, each
        level's factors grouped by shape (``BasisLevel``).  Made on
        first use, once per matrix; each factor's G is then a view into its
        group's stack.  Where one factor serves both sides (``one_basis``),
        so do its groups."""
        got = self._bases.get(side)
        if got is None:
            if side == "col" and one_basis(self.kind, self.tree, self.kernel):
                got = self.basis_groups("row")
            else:
                got = self._group_factors(side)
            self._bases[side] = got
        return got

    def _group_factors(self, side: str) -> list:
        tr = self.tree
        nodes = tr.nodes[:tr.root]  # every node but the root has a basis
        facs = self.rowfac if side == "row" else self.colfac
        at = self.flat_layout(side)[2]
        # where each node's labels begin: its own entries for a leaf, its
        # children's coefficients, which read as one slice, otherwise
        begin = np.array(
            [(nd.row_start if side == "row" else nd.col_start) if nd.is_leaf
             else at[nd.children[0]] for nd in nodes], dtype=np.int64)
        levels = {}
        for (level, m, k), idx in _by_shape(
                (nd.level, facs[nd.index].perm.size, facs[nd.index].rank)
                for nd in nodes):
            fs = [facs[i] for i in idx]
            G = np.stack([f.G for f in fs])
            for f, g in zip(fs, G):
                f.G = g
            pos = begin[idx][:, None] + np.stack([f.perm for f in fs])
            levels.setdefault(level, []).append(
                (G, pos[:, :k], pos[:, k:], at[idx][:, None] + np.arange(k)))
        return [BasisLevel([G for G, *_ in levels[lv]],
                           *(np.concatenate([g[part].ravel()
                                             for g in levels[lv]])
                             for part in (1, 2, 3)))
                for lv in sorted(levels)]

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
    """Tree-order exact-entry evaluator backed by the kernel, of one block
    or a stack of them (``kernel_block``).  Refuses Cauchy-like generators
    whose rows, or a double layer whose quadrature count, are not the point
    counts.  Computes the kernel's cached point data here, once, so that the
    threads of a fill that share the evaluator find it made."""
    counts = (tree.n_row, tree.n_col)
    if kernel.kind == "cauchy_like":
        rows = (kernel.w.shape[0], kernel.v.shape[0])
        if rows != counts:
            raise ValueError("generator rows %s do not match the point counts "
                             "%s" % (rows, counts))
    if kernel.kind == "laplace_dlp":
        if (kernel.nq, kernel.nq) != counts:
            raise ValueError("quadrature count nq = %r does not match the "
                             "point counts %s" % (kernel.nq, counts))
        kernel._dlp_data
    else:
        X.scalars, Y.scalars

    def block(rows_t, cols_t):
        rows_t = np.asarray(rows_t, dtype=np.int64)
        cols_t = np.asarray(cols_t, dtype=np.int64)
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
    """Farfield candidate bases of a stack of nodes over tree-order indices:
    ``candidate(nodes, idx)`` for nodes (R,) and their labels (R, m) gives
    the (R, m, c) candidates, each the bits of its own node's alone.  The
    Taylor basis of a stack is one call; the interp basis is built per node
    and stacked.

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
    if kernel.kind == "cauchy_like":  # rows checked by make_block_evaluator
        gen = kernel.w[tree.perm_row] if side == "row" else kernel.v[tree.perm_col]
    elif (kernel.kind == "laplace_dlp" and side == "col"
          and params.basis != "interp"):  # v raises the interp HSS ranks
        gen = kernel._dlp_data["v"][tree.perm_col, None]
    scal = _to_scalars(pts) if pts.size else np.zeros(0)

    if params.basis == "interp":
        def build(nodes, idx):
            return np.stack([interp_basis(lo[i], hi[i], pts[x], params.r)
                             for i, x in zip(nodes, idx)])
    else:
        # x + 1j*y is complex(x, y) unless x is -0.0, and the midpoint of a
        # side no thinner than pad is not
        cen = _to_scalars((lo + hi) / 2.0)
        rad = 0.5 * _center_distance(hi - lo)

        def build(nodes, idx):
            return taylor_basis(cen[nodes], rad[nodes], scal[idx], params.r)

    real = kernel.kind == "laplace_dlp"  # a real kernel of complex points

    def candidate(nodes, idx):
        F = build(nodes, idx)
        if gen is not None:
            F = np.concatenate([gen[idx, l][..., None] * F
                                for l in range(gen.shape[1])], axis=-1)
        if real and F.dtype.kind == "c":
            return np.concatenate([F.real, F.imag], axis=-1)
        return F

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


def _build(cls, tree: ClusterTree, kernel: KernelSpec, X, Y,
           params: BuildParams, near: list):
    """The bottom-up construction of both builders: a matrix of class cls
    on the block partition of its kind (``leaf_sets``), whose nodes are
    compressed level by level from the leaves up, on both sides, or on the
    row side alone where ``one_basis`` holds.

    A node's labels are its own rows (columns) at a leaf and its children's
    skeletons above.  Its candidate is the farfield basis over them, next
    to the columns spanning its block against the current labels of the
    nodes near[i] to eps_svd (``range_columns``, no SVD; the column side
    takes that block transposed).  The nodes of a level and a side without
    such columns go as stacks of equal label counts, one candidate call and
    one ``compr`` call each; a node with them is a stack of its own, since
    they give its candidate a width of its own.  A level's stacks, of both
    sides, read only the skeletons of the levels below, and run as the
    items of one ``map_nodes`` call.  A wide nearfield block is sketched
    against one seeded Gaussian test matrix (``lowrank.gaussian``), which
    the calling thread grows, on the levels that sketch one, to the largest
    block the level sketches; its entries do not depend on how far it grew.
    Every factor holds the bits of its own node's compression and is stored
    in level and node order, so the result depends neither on the stacks
    nor on the core count.
    """
    block = make_block_evaluator(kernel, X, Y, tree)
    M = cls(tree, params, block, *leaf_sets(tree, params.tau, cls.kind),
            kernel_dtype(kernel, X), kernel=kernel)
    sides = ("row",) if one_basis(cls.kind, tree, kernel) else ("row", "col")
    bases = {s: _basis_builder(tree, kernel, params, s) for s in sides}
    skels = {"row": M.skel_row, "col": M.skel_col}

    def labels(nodes, side):
        return [_intermediate(tree, i, skels[side], side) for i in nodes]

    omega = None
    for level in range(tree.n_levels, 1, -1):
        nodes = tree.level_nodes(level)
        stacks, wide = [], (0, 0)
        for side, other in zip(sides, ("col", "row")):
            own, far = labels(nodes, side), {}
            for r, i in enumerate(nodes):
                nf = near[i] and np.concatenate(labels(near[i], other))
                m, n = own[r].size, len(nf)
                if m and n:  # nearfield columns: a stack of its own
                    far[r] = nf
                    if m < n:  # a wide block, sketched
                        wide = max(wide[0], n), max(wide[1], m)
            for (_, r), at in _by_shape((x.size, r if r in far else -1)
                                        for r, x in enumerate(own)):
                stacks.append((side, [nodes[a] for a in at],
                               np.array([own[a] for a in at]), far.get(r)))
        if wide[0]:
            omega = lowrank.gaussian(*wide, old=omega)
        facs = map_nodes(lambda s: _stack_factors(M, bases[s[0]], omega, *s),
                         stacks)
        got = {side: {} for side in sides}
        for (side, at, _, _), fs in zip(stacks, facs):
            got[side].update(zip(at, fs))
        for i in nodes:  # with one basis, sides[-1] is "row"
            M._store(i, got["row"][i], got[sides[-1]][i])
    return M


def _stack_factors(M: _StructuredMatrix, basis, omega, side: str, nodes: list,
                   labels: np.ndarray, nf) -> list:
    """The factors of a stack of nodes on one side ("row" or "col"), over
    their labels, (R, m): one farfield candidate call and one ``compr``
    call.  A stack of one node may come with nf, its nearfield neighbors'
    labels: its candidate then adds the columns spanning its block against
    them."""
    C = basis(np.array(nodes), labels)
    if nf is not None:
        A = (M._block(labels[0], nf) if side == "row"
             else M._block(nf, labels[0]).T)
        C = np.concatenate(
            [C, range_columns(A, M.params.eps_svd, omega)[None]], axis=2)
    return compr(C, labels)


@one_blas_thread()
def build_hss(tree: ClusterTree, kernel: KernelSpec, X, Y,
              params: BuildParams = None) -> HssMatrix:
    """Bottom-up HSS construction (``_build``) on the nodes' nearfields
    (``nearfield_set``): each node's candidate pairs the analytic farfield
    basis of its box with columns spanning its block row against its
    nearfield neighbors, and its interpolative compression yields the
    skeleton and the interpolation coefficients.  Leaves keep exact
    diagonal blocks.
    """
    params = params or BuildParams()
    M = _build(HssMatrix, tree, kernel, X, Y, params,
               nearfield_set(tree, params.tau))
    for i in tree.leaves():
        M.Dblocks[i] = M._block(tree.row_range(i), tree.col_range(i))
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
    return build_hss(tree, KernelSpec(kind="cauchy_like", w=w, v=v), X, Y,
                     params)
