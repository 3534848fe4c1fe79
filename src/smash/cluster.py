"""Spatial cluster trees over point sets.

Row points (sources of matrix rows) and column points share one tree: every
node has an axis-aligned box, row k of the tree's (nodes, d) arrays ``lo``
and ``hi``, and contiguous ranges into the tree-ordered row/column point
lists.  Each box is subdivided at its coordinate midpoints until a node
holds at most ``nu0`` points of each role; empty halves are discarded by
shrinking the node's box, so every internal node has the full complement of
children (2 in "binary" mode, up to 2^d in "2d" mode).

The H2 block partition is decided level by level on arrays of node pairs,
in the depth-first order of a recursion from the root pair: block rows, and
so the matvec's rounding, follow that order.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _center_distance(d: np.ndarray) -> np.ndarray:
    """sqrt(d.dot(d)) for each row of the (k, dim) array ``d``, bit for bit:
    a stacked matmul calls ndarray.dot's kernel, where d0*d0 + d1*d1 or
    einsum may round otherwise (fused multiply-add)."""
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])


def _separated(d: np.ndarray, radii: np.ndarray, tau: float) -> np.ndarray:
    """Admissibility test of k box pairs with (k, dim) center differences
    ``d``: each radius sum is at most tau times the center distance, which
    is np.linalg.norm's bit for bit, since trees of points on curves have
    exact ties.  A pair with one center is never separated, not even two
    zero-radius boxes (a leaf of coincident points, paired with itself)."""
    dist = _center_distance(d)
    return (dist > 0) & (radii <= tau * dist)


# ---------------------------------------------------------------------------
# tree construction
# ---------------------------------------------------------------------------


@dataclass
class TreeNode:
    index: int
    level: int
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
    ``p``; ``points_row`` holds the tree-ordered coordinates.  Row k of the
    (nodes, d) arrays ``lo`` and ``hi`` holds node k's box corners.  The root
    is the last node (postorder), at level 1.
    """

    nodes: list
    mode: str
    nu0: int
    tau_default: float
    perm_row: np.ndarray
    perm_col: np.ndarray
    points_row: np.ndarray
    points_col: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    # -- basic accessors ----------------------------------------------------

    @cached_property
    def center(self) -> np.ndarray:
        """Each node's box midpoint, (nodes, d); computed once."""
        return (self.lo + self.hi) / 2.0

    @cached_property
    def radius(self) -> np.ndarray:
        """Half of each node's box diagonal, np.linalg.norm's bit for bit;
        computed once."""
        return 0.5 * _center_distance(self.hi - self.lo)

    @property
    def root(self) -> int:
        return len(self.nodes) - 1

    @property
    def dim(self) -> int:
        return self.lo.shape[1]

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
        """Raise ValueError naming the first broken invariant; build_tree
        and load_matrix both run this one check.  Points and boxes share a
        dimension, the root at level 1 spans every point, the permutations
        are permutations, every node holds a point, leaves hold at most nu0
        points of each role and other nodes more, each listed child names
        its lister as parent and sits one level below it and before it
        (postorder), children tile their parent's ranges in order, and each
        point lies in its nodes' boxes (1e-12 slack)."""
        nodes = self.nodes
        d = self.points_row.shape[1:]
        if not (len(d) == 1 and self.points_col.shape[1:] == d
                and self.lo.shape == self.hi.shape == (len(nodes),) + d):
            raise ValueError("the points and the boxes of the %d nodes do not "
                             "share one dimension" % len(nodes))
        root = nodes[self.root]
        if (root.row_start, root.row_stop, root.col_start, root.col_stop) != (
                0, self.n_row, 0, self.n_col) or root.level != 1:
            raise ValueError("the root spans rows %s:%s and columns %s:%s of "
                             "%d x %d points, at level %r"
                             % (root.row_start, root.row_stop, root.col_start,
                                root.col_stop, self.n_row, self.n_col,
                                root.level))
        for name, perm, n in (("perm_row", self.perm_row, self.n_row),
                              ("perm_col", self.perm_col, self.n_col)):
            if not _is_permutation(perm, n):
                raise ValueError("%r is not a permutation of range(%d)"
                                 % (name, n))
        for k, nd in enumerate(nodes):
            if nd.n_row + nd.n_col <= 0:
                raise ValueError("node %d holds no point" % k)
            if nd.is_leaf != (max(nd.n_row, nd.n_col) <= self.nu0):
                raise ValueError("node %d is %s and holds %d x %d points, "
                                 "with nu0 = %r"
                                 % (k, "a leaf" if nd.is_leaf else "not a leaf",
                                    nd.n_row, nd.n_col, self.nu0))
            if nd.is_leaf:
                continue
            if len(nd.children) < 2 or (self.mode == "binary"
                                        and len(nd.children) != 2):
                raise ValueError("node %d of a %s tree has %d children"
                                 % (k, self.mode, len(nd.children)))
            for c in nd.children:
                if not (type(c) is int and 0 <= c < k and nodes[c].parent == k
                        and nodes[c].level == nd.level + 1):
                    raise ValueError("node %d lists %r, which is not its child"
                                     % (k, c))
            for lo, hi in (("row_start", "row_stop"), ("col_start", "col_stop")):
                # parent start, each child's start and stop, parent stop: a
                # tiling meets each edge twice in a row and never goes back
                edges = [getattr(nd, lo)]
                for c in nd.children:
                    edges += [getattr(nodes[c], lo), getattr(nodes[c], hi)]
                edges.append(getattr(nd, hi))
                if edges[0::2] != edges[1::2] or edges != sorted(edges):
                    raise ValueError("the children of node %d do not tile its "
                                     "%s range" % (k, lo[:3]))
        lo, hi = self.lo - 1e-12, self.hi + 1e-12
        ranges = np.array([(nd.row_start, nd.row_stop, nd.col_start, nd.col_stop)
                           for nd in nodes])
        for role, pts, cuts in (("row", self.points_row, ranges[:, :2]),
                                ("column", self.points_col, ranges[:, 2:])):
            # a node's extremes are the even reductions; the extra row lets a
            # cut reach n
            live = np.flatnonzero(cuts[:, 1] > cuts[:, 0])
            if live.size:
                padded = np.vstack([pts, pts[:1]])
                low = np.minimum.reduceat(padded, cuts[live].ravel())[::2]
                high = np.maximum.reduceat(padded, cuts[live].ravel())[::2]
                inside = np.all((low >= lo[live]) & (high <= hi[live]), axis=1)
                if not inside.all():
                    raise ValueError("%s point outside a box, at node %d"
                                     % (role, live[inside.argmin()]))


def _is_permutation(p: np.ndarray, n: int) -> bool:
    """An integer array of shape (n,) that holds each of 0..n-1 once."""
    return (p.shape == (n,) and p.dtype.kind == "i"
            and np.array_equal(np.sort(p), np.arange(n)))


def _split_once(lo, hi, xs, ys, axis: int, px: np.ndarray, py: np.ndarray):
    """Split the box lo..hi at the midpoint of ``axis``; returns the low and
    the high half, each as (lo, hi, xs, ys).  Points on the midplane go
    low."""
    mid = 0.5 * (lo[axis] + hi[axis])
    x_low = px[xs, axis] <= mid
    y_low = py[ys, axis] <= mid
    hi_l = hi.copy(); hi_l[axis] = mid
    lo_h = lo.copy(); lo_h[axis] = mid
    return (lo, hi_l, xs[x_low], ys[y_low]), (lo_h, hi, xs[~x_low], ys[~y_low])


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
    d = px.shape[1]

    nodes: list = []
    los: list = []
    his: list = []
    perm_row: list = []
    perm_col: list = []

    def emit(level, lo, hi, xs, ys, children):
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
        nodes.append(TreeNode(index=idx, level=level, children=tuple(children),
                              row_start=rs, row_stop=re,
                              col_start=cs, col_stop=ce))
        los.append(lo)
        his.append(hi)
        return idx

    def recurse(level, lo, hi, xs, ys, axis):
        count = max(xs.size, ys.size)
        if count <= nu0:
            return emit(level, lo, hi, xs, ys, ())
        here = np.vstack([px[xs], py[ys]])
        if np.all(here == here[0]):
            raise ValueError("%d points coincide at %s, more than the leaf "
                             "size nu0 = %d" % (count, here[0].tolist(), nu0))
        for _ in range(_MAX_SHRINKS):
            if mode == "binary":
                parts = _split_once(lo, hi, xs, ys, axis, px, py)
                next_axis = (axis + 1) % d
            else:  # 2d: bisect every axis at once
                parts = [(lo, hi, xs, ys)]
                for ax in range(d):
                    parts = [half for part in parts
                             for half in _split_once(*part, ax, px, py)]
                next_axis = axis
            live = [part for part in parts if part[2].size + part[3].size > 0]
            if len(live) > 1:
                kids = [recurse(level + 1, *part, next_axis) for part in live]
                return emit(level, lo, hi, xs, ys, kids)
            # every point landed in one sub-box: shrink and retry
            lo, hi = live[0][:2]
            axis = next_axis
        raise ValueError("%d points near %s lie too close together for %d "
                         "box subdivisions to separate them"
                         % (count, here[0].tolist(), _MAX_SHRINKS))

    recurse(1, allpts.min(axis=0), allpts.max(axis=0), np.arange(px.shape[0]),
            np.arange(py.shape[0]), 0)

    tree = ClusterTree(
        nodes=nodes, mode=mode, nu0=nu0, tau_default=tau,
        perm_row=np.asarray(perm_row, dtype=np.int64),
        perm_col=np.asarray(perm_col, dtype=np.int64),
        points_row=px[perm_row] if perm_row else px[:0],
        points_col=py[perm_col] if perm_col else py[:0],
        lo=np.array(los), hi=np.array(his),
    )
    tree.verify()
    return tree


# ---------------------------------------------------------------------------
# nearfield sets and low-rank block partitions
# ---------------------------------------------------------------------------


def nearfield_set(tree: ClusterTree, tau: float = None) -> list:
    """Every node's nearfield, the nodes whose interaction with it the
    farfield expansion does not resolve, as a list indexed by node: the
    non-separated siblings, then the non-separated children (or the nodes
    themselves, for leaves) of the parent's nearfield members.  One pass
    from the root down, parents before children (postorder puts each parent
    after its children); the root's set is empty."""
    if tau is None:
        tau = tree.tau_default
    nodes, cen, rad = tree.nodes, tree.center, tree.radius
    near = [[] for _ in nodes]
    for j in range(tree.root - 1, -1, -1):
        p = nodes[j].parent
        cand = [c for c in nodes[p].children if c != j]
        for k in near[p]:
            cand.extend(nodes[k].children or (k,))
        far = _separated(cen[j] - cen[cand], rad[j] + rad[cand], tau)
        near[j] = np.array(cand)[~far].tolist()
    return near


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

    nodes, cen, rad = tree.nodes, tree.center, tree.radius
    n = len(nodes)
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
