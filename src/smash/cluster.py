"""Spatial cluster trees over point sets.

Row points (sources of matrix rows) and column points share one tree: every
node owns an axis-aligned box and contiguous ranges into the tree-ordered
row/column point lists.  Boxes are subdivided by coordinate midpoint until a
node holds at most ``nu0`` points of each role; empty halves are discarded by
shrinking the node's box, so every internal node has the full complement of
children (2 in "binary" mode, up to 2^d in "2d" mode).

The H2 block partition is decided level by level on arrays of node pairs,
in the depth-first order of a recursion from the root pair: block rows, and
so the matvec's rounding, follow that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_MAX_SHRINKS = 200  # guard against pathological point clusters


# ---------------------------------------------------------------------------
# basic geometry
# ---------------------------------------------------------------------------


@dataclass
class PointSet:
    """Points in R^d as an (n, d) float array plus a role tag."""

    coords: np.ndarray
    role: str = "row"

    def __post_init__(self):
        self.coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        if self.coords.ndim != 2:
            raise ValueError("coords must be a 2-d array")
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("point coordinates must be finite")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @cached_property
    def scalars(self) -> np.ndarray:
        """The points as real (d = 1) or complex (d = 2) scalars, computed
        once per set; coords must not be reassigned afterwards."""
        return _to_scalars(self.coords)


def _to_scalars(coords: np.ndarray) -> np.ndarray:
    coords = np.atleast_2d(coords)
    if coords.shape[1] == 1:
        return coords[:, 0].copy()
    if coords.shape[1] == 2:
        return coords[:, 0] + 1j * coords[:, 1]
    raise ValueError("Cauchy kernels need points in R^1 or R^2")


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by lower/upper corners."""

    lo: tuple
    hi: tuple

    @staticmethod
    def of(lo, hi) -> "Box":
        return Box(tuple(float(v) for v in np.atleast_1d(lo)),
                   tuple(float(v) for v in np.atleast_1d(hi)))

    @property
    def dim(self) -> int:
        return len(self.lo)

    @cached_property
    def center(self) -> np.ndarray:
        """The box midpoint, computed once; read-only."""
        c = (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0
        c.flags.writeable = False
        return c

    @cached_property
    def radius(self) -> float:
        """Half the box diagonal (distance from center to a corner),
        computed once."""
        return 0.5 * float(np.linalg.norm(np.asarray(self.hi) - np.asarray(self.lo)))


def _center_distance(d: np.ndarray) -> np.ndarray:
    """sqrt(d.dot(d)) for each row of the (k, dim) array ``d``, bit for bit:
    a stacked matmul calls ndarray.dot's kernel, where d0*d0 + d1*d1 or
    einsum may round otherwise (fused multiply-add)."""
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])


def _separated(d: np.ndarray, radii: np.ndarray, tau: float) -> np.ndarray:
    """Admissibility test of k box pairs with (k, dim) center differences
    ``d``: each radius sum is at most tau times the center distance, which
    is np.linalg.norm's bit for bit, since trees of points on curves have
    exact ties.  Boxes with one center are never separated, not even two
    zero-radius boxes (a leaf of coincident points, paired with itself)."""
    dist = _center_distance(d)
    return (dist > 0) & (radii <= tau * dist)


def well_separated(box_a: Box, box_b: Box, tau: float) -> bool:
    """The admissibility test of one box pair; see ``_separated``."""
    return bool(_separated((box_a.center - box_b.center)[None],
                           np.array([box_a.radius + box_b.radius]), tau)[0])


# ---------------------------------------------------------------------------
# tree construction
# ---------------------------------------------------------------------------


@dataclass
class TreeNode:
    index: int
    level: int
    box: Box
    parent: int = -1
    children: tuple = ()
    row_start: int = 0
    row_stop: int = 0
    col_start: int = 0
    col_stop: int = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def n_row(self) -> int:
        return self.row_stop - self.row_start

    @property
    def n_col(self) -> int:
        return self.col_stop - self.col_start


@dataclass
class ClusterTree:
    """Postordered cluster tree shared by row and column points.

    ``perm_row[p]`` is the original index of the row point at tree position
    ``p``; ``points_row`` holds the tree-ordered coordinates.  The root is the
    last node (postorder), at level 1.
    """

    nodes: list
    mode: str
    nu0: int
    tau_default: float
    perm_row: np.ndarray
    perm_col: np.ndarray
    points_row: np.ndarray
    points_col: np.ndarray
    _nearfield_cache: dict = field(default_factory=dict, repr=False)

    # -- basic accessors ----------------------------------------------------

    @property
    def root(self) -> int:
        return len(self.nodes) - 1

    @property
    def dim(self) -> int:
        return self.nodes[self.root].box.dim

    @property
    def n_levels(self) -> int:
        return max(nd.level for nd in self.nodes)

    @property
    def n_row(self) -> int:
        return self.points_row.shape[0]

    @property
    def n_col(self) -> int:
        return self.points_col.shape[0]

    def is_leaf(self, i: int) -> bool:
        return self.nodes[i].is_leaf

    def leaves(self):
        return [nd.index for nd in self.nodes if nd.is_leaf]

    def level_nodes(self, level: int):
        return [nd.index for nd in self.nodes if nd.level == level]

    def row_range(self, i: int) -> np.ndarray:
        nd = self.nodes[i]
        return np.arange(nd.row_start, nd.row_stop)

    def col_range(self, i: int) -> np.ndarray:
        nd = self.nodes[i]
        return np.arange(nd.col_start, nd.col_stop)

    def one_point_set(self) -> bool:
        """Whether the rows and the columns are one point sequence in one
        tree order: equal permutations, bitwise equal points, and equal
        row and column ranges at every node."""
        return (all(nd.row_start == nd.col_start and nd.row_stop == nd.col_stop
                    for nd in self.nodes)
                and np.array_equal(self.perm_row, self.perm_col)
                and self.points_row.shape == self.points_col.shape
                and self.points_row.tobytes() == self.points_col.tobytes())

    # -- invariant check ----------------------------------------------------

    def verify(self):
        """Raise AssertionError if any structural invariant is violated."""
        root = self.nodes[self.root]
        assert root.level == 1
        assert root.row_start == 0 and root.row_stop == self.n_row
        assert root.col_start == 0 and root.col_stop == self.n_col
        assert np.array_equal(np.sort(self.perm_row), np.arange(self.n_row))
        assert np.array_equal(np.sort(self.perm_col), np.arange(self.n_col))
        for nd in self.nodes:
            assert nd.row_stop >= nd.row_start and nd.col_stop >= nd.col_start
            assert nd.n_row + nd.n_col > 0, "empty node %d" % nd.index
            if nd.is_leaf:
                assert nd.n_row <= self.nu0 and nd.n_col <= self.nu0
            else:
                assert max(nd.n_row, nd.n_col) > self.nu0
                assert len(nd.children) >= 2
                if self.mode == "binary":
                    assert len(nd.children) == 2
                # children tile the parent ranges contiguously, in order
                r, c = nd.row_start, nd.col_start
                for ci in nd.children:
                    ch = self.nodes[ci]
                    assert ch.parent == nd.index
                    assert ch.level == nd.level + 1
                    assert ch.index < nd.index  # postorder
                    assert ch.row_start == r and ch.col_start == c, \
                        "children do not tile node %d" % nd.index
                    r, c = ch.row_stop, ch.col_stop
                assert r == nd.row_stop and c == nd.col_stop
        lo = np.array([nd.box.lo for nd in self.nodes]) - 1e-12
        hi = np.array([nd.box.hi for nd in self.nodes]) + 1e-12
        ranges = np.array([(nd.row_start, nd.row_stop, nd.col_start, nd.col_stop)
                           for nd in self.nodes])
        for pts, cuts in ((self.points_row, ranges[:, :2]),
                          (self.points_col, ranges[:, 2:])):
            # a node's extremes are the even reductions; the extra row lets a
            # cut reach n
            live = cuts[:, 1] > cuts[:, 0]
            if live.any():
                padded = np.vstack([pts, pts[:1]])
                low = np.minimum.reduceat(padded, cuts[live].ravel())[::2]
                high = np.maximum.reduceat(padded, cuts[live].ravel())[::2]
                assert np.all(low >= lo[live]) and np.all(high <= hi[live]), \
                    "point outside a box"


def _split_once(box: Box, axis: int, xs: np.ndarray, ys: np.ndarray,
                px: np.ndarray, py: np.ndarray):
    """Split box at the midpoint of ``axis``; returns ((box, xs, ys), ...) for
    the low and high halves.  Points on the midplane go low."""
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    mid = 0.5 * (lo[axis] + hi[axis])
    x_low = px[xs, axis] <= mid if xs.size else np.zeros(0, bool)
    y_low = py[ys, axis] <= mid if ys.size else np.zeros(0, bool)
    hi_l = hi.copy(); hi_l[axis] = mid
    lo_h = lo.copy(); lo_h[axis] = mid
    low = (Box.of(lo, hi_l), xs[x_low], ys[y_low])
    high = (Box.of(lo_h, hi), xs[~x_low], ys[~y_low])
    return low, high


def build_tree(points_row: PointSet, points_col: PointSet = None, nu0: int = 50,
               mode: str = "binary", tau: float = 0.6) -> ClusterTree:
    """Build an adaptive cluster tree over the row (and optionally distinct
    column) points.

    mode "binary" cycles the split axis one coordinate per level; "2d"
    splits every coordinate at once, giving up to 2^d children.  Sub-boxes
    containing no points of either role are discarded; when all surviving
    points fall in a single sub-box the node's box shrinks to that sub-box
    and the split is retried, so the tree never contains chains of
    single-child nodes.  Up to nu0 coincident points share a leaf; more than
    that, or points too close for the subdivision to separate, raise
    ValueError.
    """
    if mode not in ("binary", "2d"):
        raise ValueError("mode must be 'binary' or '2d'")
    if nu0 < 1:
        raise ValueError("nu0 must be positive")
    if points_col is None:
        points_col = points_row
    px = points_row.coords
    py = points_col.coords
    if px.shape[0] == 0:
        raise ValueError("row point set is empty")
    if px.shape[1] != py.shape[1]:
        raise ValueError("row/column point dimensions differ")

    allpts = np.vstack([px, py])
    root_box = Box.of(allpts.min(axis=0), allpts.max(axis=0))
    d = px.shape[1]

    nodes: list = []
    perm_row: list = []
    perm_col: list = []

    def emit(level, box, xs, ys, children):
        idx = len(nodes)
        if children:
            rs = nodes[children[0]].row_start
            cs = nodes[children[0]].col_start
            re = nodes[children[-1]].row_stop
            ce = nodes[children[-1]].col_stop
            for c in children:
                nodes[c].parent = idx
        else:
            rs, cs = len(perm_row), len(perm_col)
            perm_row.extend(xs.tolist())
            perm_col.extend(ys.tolist())
            re, ce = len(perm_row), len(perm_col)
        nodes.append(TreeNode(index=idx, level=level, box=box,
                              children=tuple(children),
                              row_start=rs, row_stop=re,
                              col_start=cs, col_stop=ce))
        return idx

    def recurse(level, box, xs, ys, axis):
        count = max(xs.size, ys.size)
        if count <= nu0:
            return emit(level, box, xs, ys, ())
        here = np.vstack([px[xs], py[ys]])
        if np.all(here == here[0]):
            raise ValueError("%d points coincide at %s, more than the leaf "
                             "size nu0 = %d" % (count, here[0].tolist(), nu0))
        for _ in range(_MAX_SHRINKS):
            if mode == "binary":
                parts = list(_split_once(box, axis, xs, ys, px, py))
                next_axis = (axis + 1) % d
            else:  # 2d: bisect every axis at once
                parts = [(box, xs, ys)]
                for ax in range(d):
                    nxt = []
                    for b, x_, y_ in parts:
                        nxt.extend(_split_once(b, ax, x_, y_, px, py))
                    parts = nxt
                next_axis = axis
            live = [(b, x_, y_) for b, x_, y_ in parts if x_.size + y_.size > 0]
            if len(live) > 1:
                kids = [recurse(level + 1, b, x_, y_, next_axis) for b, x_, y_ in live]
                return emit(level, box, xs, ys, kids)
            # every point landed in one sub-box: shrink and retry
            box = live[0][0]
            axis = next_axis
        raise ValueError("%d points near %s lie too close together for %d "
                         "box subdivisions to separate them"
                         % (count, here[0].tolist(), _MAX_SHRINKS))

    recurse(1, root_box, np.arange(px.shape[0]), np.arange(py.shape[0]), 0)

    tree = ClusterTree(
        nodes=nodes, mode=mode, nu0=nu0, tau_default=tau,
        perm_row=np.asarray(perm_row, dtype=np.int64),
        perm_col=np.asarray(perm_col, dtype=np.int64),
        points_row=px[perm_row] if perm_row else px[:0],
        points_col=py[perm_col] if perm_col else py[:0],
    )
    tree.verify()
    return tree


# ---------------------------------------------------------------------------
# nearfield sets and low-rank block partitions
# ---------------------------------------------------------------------------


def _boxes(nodes):
    """Box.center and Box.radius of every node as arrays, bit for bit."""
    lo = np.array([nd.box.lo for nd in nodes])
    hi = np.array([nd.box.hi for nd in nodes])
    return (lo + hi) / 2.0, 0.5 * _center_distance(hi - lo)


def nearfield_set(tree: ClusterTree, i: int, tau: float = None) -> list:
    """Nodes whose interaction with ``i`` is not resolved by the farfield
    expansion: non-separated siblings, plus the non-separated children (or the
    nodes themselves, for leaves) of the parent's nearfield members.
    Computed top-down once per tau and cached; the root's set is empty."""
    if tau is None:
        tau = tree.tau_default
    cache = tree._nearfield_cache.get(tau)
    if cache is None:
        nodes = tree.nodes
        cen, rad = _boxes(nodes)
        cache = {tree.root: []}
        order = sorted(range(len(nodes)), key=lambda k: nodes[k].level)
        for j in order:
            if j == tree.root:
                continue
            p = nodes[j].parent
            cand = [c for c in nodes[p].children if c != j]
            for k in cache[p]:
                cand.extend(nodes[k].children or (k,))
            far = _separated(cen[j] - cen[cand], rad[j] + rad[cand], tau)
            cache[j] = np.array(cand)[~far].tolist()
        tree._nearfield_cache[tau] = cache
    return list(cache[i])


def leaf_sets(tree: ClusterTree, tau: float = None, structure: str = "h2"):
    """Partition of the matrix into low-rank blocks L and dense blocks Lminus.

    For "h2" the partition descends from the root pair: a well-separated pair
    joins L; a pair of leaves that is not separated joins Lminus; otherwise
    it splits into the pairs of its sides' children, a leaf side standing for
    itself.  This runs level by level on arrays of node pairs and returns
    them in the depth-first order of that recursion: block rows, and so the
    matvec's rounding, follow it.  For "hss" L holds all sibling pairs and
    Lminus the leaf diagonal.
    """
    if tau is None:
        tau = tree.tau_default
    L: list = []
    Lm: list = []
    if structure == "hss":
        for nd in tree.nodes:
            if not nd.is_leaf:
                if len(nd.children) != 2:
                    raise ValueError("hss structure needs a binary tree")
                c1, c2 = nd.children
                L.extend([(c1, c2), (c2, c1)])
            else:
                Lm.append((nd.index, nd.index))
        return L, Lm
    if structure != "h2":
        raise ValueError("structure must be 'hss' or 'h2'")

    nodes = tree.nodes
    n = len(nodes)
    cen, rad = _boxes(nodes)
    leaf = np.array([nd.is_leaf for nd in nodes])
    # the sides a node splits into: its children, or itself for a leaf
    sides = [nd.children or (nd.index,) for nd in nodes]
    n_sides = np.array([len(c) for c in sides])
    first = np.cumsum(n_sides) - n_sides
    flat = np.array([c for cs in sides for c in cs])

    # top down: each level's pairs in the recursion's (depth-first) order
    # among themselves; a pair that stops is coded (i n + j) 2 + [dense]
    levels = []
    I = J = np.array([tree.root])
    while I.size:
        adm = _separated(cen[I] - cen[J], rad[I] + rad[J], tau)
        stop = adm | (leaf[I] & leaf[J])
        count = np.where(stop, 0, n_sides[I] * n_sides[J])
        start = np.concatenate(([0], np.cumsum(count)))
        levels.append((start, stop, (I[stop] * n + J[stop]) * 2 + ~adm[stop]))
        p = np.repeat(np.arange(I.size), count)
        qi, qj = np.divmod(np.arange(p.size) - start[p], n_sides[J[p]])
        I, J = flat[first[I[p]] + qi], flat[first[J[p]] + qj]

    # bottom up: seq holds the stopped pairs below a level in depth-first
    # order, at[k] where pair k's descendants begin in it; a stopped pair
    # goes in where those of the next split pair of its level begin
    seq = np.zeros(0, dtype=np.int64)
    at = np.zeros(1, dtype=np.int64)
    while levels:
        start, stop, codes = levels.pop()
        at = at[start]
        seq = np.insert(seq, at[:-1][stop], codes)
        at += np.concatenate(([0], np.cumsum(stop)))
    ids = np.arange(n).astype(object)  # one int object per node, for all pairs
    ij = ids[np.stack(np.divmod(seq >> 1, n))]
    dense = (seq & 1).astype(bool)
    L = list(zip(*ij[:, ~dense].tolist()))
    Lm = list(zip(*ij[:, dense].tolist()))
    return L, Lm
