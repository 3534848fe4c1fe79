"""Spatial cluster trees over point sets.

Row points (sources of matrix rows) and column points share one tree: every
node owns an axis-aligned box and contiguous ranges into the tree-ordered
row/column point lists.  Boxes are subdivided by coordinate midpoint until a
node holds at most ``nu0`` points of each role; empty halves are discarded by
shrinking the node's box, so every internal node has the full complement of
children (2 in binary mode, up to 2^d in cross mode).
"""

from __future__ import annotations

import csv
import json
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

    @property
    def center(self) -> np.ndarray:
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0

    @property
    def radius(self) -> float:
        """Half the box diagonal (distance from center to a corner)."""
        return 0.5 * float(np.linalg.norm(np.asarray(self.hi) - np.asarray(self.lo)))

    def contains(self, pts: np.ndarray, slack: float = 1e-12) -> bool:
        if pts.size == 0:
            return True
        lo = np.asarray(self.lo) - slack
        hi = np.asarray(self.hi) + slack
        return bool(np.all(pts >= lo) and np.all(pts <= hi))


def well_separated(box_a: Box, box_b: Box, tau: float) -> bool:
    """Admissibility test: the boxes' radii sum to at most tau times the
    distance between their centers."""
    dist = float(np.linalg.norm(box_a.center - box_b.center))
    return box_a.radius + box_b.radius <= tau * dist


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

    def sibling(self, i: int) -> int:
        p = self.nodes[i].parent
        if p < 0:
            raise ValueError("root has no sibling")
        sibs = [c for c in self.nodes[p].children if c != i]
        if len(sibs) != 1:
            raise ValueError("node %d has %d siblings" % (i, len(sibs)))
        return sibs[0]

    # -- invariant check ----------------------------------------------------

    def verify(self):
        """Raise AssertionError if any structural invariant is violated."""
        root = self.nodes[self.root]
        assert root.level == 1
        assert root.row_start == 0 and root.row_stop == self.n_row
        assert root.col_start == 0 and root.col_stop == self.n_col
        assert sorted(self.perm_row.tolist()) == list(range(self.n_row))
        assert sorted(self.perm_col.tolist()) == list(range(self.n_col))
        for nd in self.nodes:
            assert nd.row_stop >= nd.row_start and nd.col_stop >= nd.col_start
            assert nd.n_row + nd.n_col > 0, "empty node %d" % nd.index
            pts_r = self.points_row[nd.row_start:nd.row_stop]
            pts_c = self.points_col[nd.col_start:nd.col_stop]
            assert nd.box.contains(pts_r) and nd.box.contains(pts_c)
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
                    assert ch.row_start == r and ch.col_start == c
                    r, c = ch.row_stop, ch.col_stop
                assert r == nd.row_stop and c == nd.col_stop

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        out = {
            "mode": self.mode,
            "nu0": self.nu0,
            "n_row": self.n_row,
            "n_col": self.n_col,
            "dim": self.dim,
            "perm_row": self.perm_row.tolist(),
            "perm_col": self.perm_col.tolist(),
            "nodes": [
                {
                    "index": nd.index,
                    "level": nd.level,
                    "parent": nd.parent,
                    "children": list(nd.children),
                    "lo": list(nd.box.lo),
                    "hi": list(nd.box.hi),
                    "row_range": [nd.row_start, nd.row_stop],
                    "col_range": [nd.col_start, nd.col_stop],
                }
                for nd in self.nodes
            ],
        }
        return json.dumps(out)


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
    (alias "2^d") splits every coordinate at once, giving up to 2^d children.
    Sub-boxes containing no points of either role are discarded; when all
    surviving points fall in a single sub-box the node's box shrinks to that
    sub-box and the split is retried, so the tree never contains chains of
    single-child nodes.
    """
    if mode == "2^d":
        mode = "2d"
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
        if max(xs.size, ys.size) <= nu0:
            return emit(level, box, xs, ys, ())
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
        raise RuntimeError("box subdivision failed to separate points "
                           "(>%d shrink steps)" % _MAX_SHRINKS)

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


def load_points_csv(path, role: str = "row") -> PointSet:
    """Read one point per line (comma-separated coordinates) into a PointSet."""
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.reader(fh):
            if not rec or rec[0].lstrip().startswith("#"):
                continue
            rows.append([float(v) for v in rec])
    if not rows:
        raise ValueError("no points in %s" % path)
    return PointSet(np.asarray(rows, dtype=float), role=role)


# ---------------------------------------------------------------------------
# nearfield sets and low-rank block partitions
# ---------------------------------------------------------------------------


def nearfield_set(tree: ClusterTree, i: int, tau: float = None) -> list:
    """Nodes whose interaction with ``i`` is not resolved by the farfield
    expansion: non-separated siblings, plus the non-separated children (or the
    nodes themselves, for leaves) of the parent's nearfield members.
    Computed top-down once per tau and cached; the root's set is empty."""
    if tau is None:
        tau = tree.tau_default
    cache = tree._nearfield_cache.get(tau)
    if cache is None:
        cache = {tree.root: []}
        order = sorted(range(len(tree.nodes)), key=lambda k: tree.nodes[k].level)
        for j in order:
            if j == tree.root:
                continue
            p = tree.nodes[j].parent
            cand = [c for c in tree.nodes[p].children if c != j]
            for k in cache[p]:
                if tree.is_leaf(k):
                    cand.append(k)
                else:
                    cand.extend(tree.nodes[k].children)
            near = [k for k in cand
                    if not well_separated(tree.nodes[j].box, tree.nodes[k].box, tau)]
            cache[j] = near
        tree._nearfield_cache[tau] = cache
    return list(cache[i])


def leaf_sets(tree: ClusterTree, tau: float = None, structure: str = "h2"):
    """Partition of the matrix into low-rank blocks L and dense blocks Lminus.

    For "h2" the partition descends from the root pair: a well-separated pair
    joins L; a pair of leaves that is not separated joins Lminus; otherwise
    the deeper-splittable side is refined (both sides at once when neither is
    a leaf, keeping the levels aligned).  For "hss" L holds all sibling pairs
    and Lminus the leaf diagonal.
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

    def rec(i, j):
        if well_separated(tree.nodes[i].box, tree.nodes[j].box, tau):
            L.append((i, j))
            return
        li, lj = tree.is_leaf(i), tree.is_leaf(j)
        if li and lj:
            Lm.append((i, j))
        elif li:
            for cj in tree.nodes[j].children:
                rec(i, cj)
        elif lj:
            for ci in tree.nodes[i].children:
                rec(ci, j)
        else:
            for ci in tree.nodes[i].children:
                for cj in tree.nodes[j].children:
                    rec(ci, cj)

    rec(tree.root, tree.root)
    return L, Lm
