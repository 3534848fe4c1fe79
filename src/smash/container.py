"""Binary container for structured matrices.

Layout: one magic line, a JSON header (tree topology, build parameters,
kernel description, array manifest), a NUL byte, then the raw array payload.
All floating payloads are little-endian 64-bit (complex as 128-bit pairs),
index arrays little-endian int64, so round trips are bit-exact.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .cluster import Box, ClusterTree, PointSet, TreeNode
from .h2 import H2Matrix
from .hss import (BuildParams, HssMatrix, _intermediate, make_block_evaluator,
                  no_kernel_block)
from .kernel import KernelSpec, get_curve
from .lowrank import InterpolativeFactor

_MAGIC = b"SMASH-BIN-1\n"

_DT = {"f8": "<f8", "c16": "<c16", "i8": "<i8"}

_HEADER_KEYS = ("kind", "dtype", "params", "tree", "kernel", "pairs_L",
                "pairs_Lm", "arrays")
_NODE_KEYS = ("level", "parent", "children", "lo", "hi", "rows", "cols")
_TREE_ARRAYS = ("perm_row", "perm_col", "points_row", "points_col")

def _tag(arr: np.ndarray) -> str:
    if arr.dtype.kind == "c":
        return "c16"
    if arr.dtype.kind == "i":
        return "i8"
    return "f8"


class _Payload:
    def __init__(self):
        self.manifest = []
        self.chunks = []
        self.offset = 0

    def add(self, name: str, arr: np.ndarray):
        arr = np.asarray(arr)
        tag = _tag(arr)
        raw = np.ascontiguousarray(arr, dtype=_DT[tag]).tobytes()
        self.manifest.append({"name": name, "dtype": tag,
                              "shape": list(arr.shape),
                              "offset": self.offset, "nbytes": len(raw)})
        self.chunks.append(raw)
        self.offset += len(raw)


def save_matrix(M, path) -> None:
    """Write an HSS or H2 matrix, built or the result of sums and
    scalings; both hold interpolative factors."""
    pl = _Payload()
    pl.add("perm_row", M.tree.perm_row)
    pl.add("perm_col", M.tree.perm_col)
    pl.add("points_row", M.tree.points_row)
    pl.add("points_col", M.tree.points_col)
    for side, facs in (("rowfac", M.rowfac), ("colfac", M.colfac)):
        for i, fac in facs.items():
            pl.add("%s.%d.perm" % (side, i), fac.perm)
            pl.add("%s.%d.G" % (side, i), fac.G)
    for i, arr in M.skel_row.items():
        pl.add("skel_row.%d" % i, arr)
    for i, arr in M.skel_col.items():
        pl.add("skel_col.%d" % i, arr)
    for i, arr in M.Dblocks.items():
        pl.add("D.%d" % i, arr)
    for (i, j), arr in M.B_dense.items():
        pl.add("B.%d.%d" % (i, j), arr)

    kern = None
    if M.kernel is not None:
        kern = {"kind": M.kernel.kind, "dx": M.kernel.dx, "nq": M.kernel.nq,
                "curve": M.kernel.curve.name if M.kernel.curve is not None else None}
        if M.kernel.kind == "cauchy_like":
            pl.add("kernel.w", M.kernel.w)
            pl.add("kernel.v", M.kernel.v)

    tr = M.tree
    header = {
        "kind": M.kind,
        "dtype": "c16" if np.dtype(M.dtype).kind == "c" else "f8",
        "params": {"r": M.params.r, "tau": M.params.tau,
                   "eps_svd": M.params.eps_svd, "basis": M.params.basis},
        "tree": {
            "mode": tr.mode, "nu0": tr.nu0, "tau_default": tr.tau_default,
            "nodes": [{"level": nd.level, "parent": nd.parent,
                       "children": list(nd.children),
                       "lo": list(nd.box.lo), "hi": list(nd.box.hi),
                       "rows": [nd.row_start, nd.row_stop],
                       "cols": [nd.col_start, nd.col_stop]}
                      for nd in tr.nodes],
        },
        "kernel": kern,
        "pairs_L": [list(p) for p in M.pairs_L],
        "pairs_Lm": [list(p) for p in M.pairs_Lm],
        "arrays": pl.manifest,
    }
    blob = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(blob)
        fh.write(b"\0")
        for chunk in pl.chunks:
            fh.write(chunk)


def _read_arrays(payload: bytes, manifest) -> dict:
    """The manifest's arrays, each checked against its declared size and
    the payload's bounds before it is read."""
    if not isinstance(manifest, list):
        raise ValueError("damaged container header: 'arrays' is not a list")
    out = {}
    for ent in manifest:
        name = ent.get("name") if isinstance(ent, dict) else None
        if not isinstance(name, str):
            raise ValueError("damaged container manifest: entry without a name")
        tag, shape = ent.get("dtype"), ent.get("shape")
        offset, nbytes = ent.get("offset"), ent.get("nbytes")
        if not isinstance(tag, str) or tag not in _DT:
            raise ValueError("array %r: unknown dtype tag %r" % (name, tag))
        if not isinstance(shape, list) or not all(
                type(v) is int and v >= 0 for v in shape + [offset, nbytes]):
            raise ValueError("array %r: shape, offset and nbytes must be "
                             "non-negative integers" % name)
        itemsize = np.dtype(_DT[tag]).itemsize
        if math.prod(shape) * itemsize != nbytes:
            raise ValueError("array %r: shape %s needs %d bytes, not %d"
                             % (name, shape, math.prod(shape) * itemsize, nbytes))
        if offset + nbytes > len(payload):
            raise ValueError("array %r runs past the end of the payload "
                             "(%d + %d > %d bytes)"
                             % (name, offset, nbytes, len(payload)))
        a = np.frombuffer(payload, dtype=_DT[tag], count=math.prod(shape),
                          offset=offset)
        out[name] = a.astype(tag).reshape(shape)  # native byte order
    for name in _TREE_ARRAYS:
        if name not in out:
            raise ValueError("damaged container: no %r array" % name)
    return out


def load_matrix(path):
    """Read a container written by save_matrix.  A damaged file raises
    ValueError naming what is wrong."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(_MAGIC):
        raise ValueError("not a structured-matrix container: %s" % path)
    raw = raw[len(_MAGIC):]
    cut = raw.find(b"\0")
    if cut < 0:
        raise ValueError("damaged container: no end of header in %s" % path)
    header = json.loads(raw[:cut].decode())
    if not isinstance(header, dict):
        raise ValueError("damaged container header in %s" % path)
    for key in _HEADER_KEYS:
        if key not in header:
            raise ValueError("damaged container header: no %r entry in %s"
                             % (key, path))
    try:
        return _assemble(header, _read_arrays(raw[cut + 1:], header["arrays"]))
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        # any other malformed value in the header is still bad input
        raise ValueError("damaged container %s: %s %s"
                         % (path, type(exc).__name__, exc)) from None


def _assemble(header: dict, arrays: dict):
    th = header["tree"]
    for k, nd in enumerate(th["nodes"]):
        for key in _NODE_KEYS:
            if key not in nd:
                raise ValueError("damaged container header: tree node %d has "
                                 "no %r entry" % (k, key))
    nodes = [TreeNode(index=k, level=nd["level"], parent=nd["parent"],
                      children=tuple(nd["children"]),
                      box=Box.of(nd["lo"], nd["hi"]),
                      row_start=nd["rows"][0], row_stop=nd["rows"][1],
                      col_start=nd["cols"][0], col_stop=nd["cols"][1])
             for k, nd in enumerate(th["nodes"])]
    tree = ClusterTree(nodes=nodes, mode=th["mode"], nu0=th["nu0"],
                       tau_default=th["tau_default"],
                       perm_row=arrays["perm_row"], perm_col=arrays["perm_col"],
                       points_row=arrays["points_row"],
                       points_col=arrays["points_col"])
    for name, perm, n in (("perm_row", tree.perm_row, tree.n_row),
                          ("perm_col", tree.perm_col, tree.n_col)):
        if not _is_permutation(perm, n):
            raise ValueError("damaged container: %r is not a permutation of "
                             "range(%d)" % (name, n))

    kernel = None
    kh = header["kernel"]
    if kh is not None:
        kernel = KernelSpec(
            kind=kh["kind"], dx=kh["dx"], nq=kh["nq"],
            curve=get_curve(kh["curve"]) if kh["curve"] else None,
            w=arrays.get("kernel.w"), v=arrays.get("kernel.v"))

    ph = header["params"]
    params = BuildParams(r=ph["r"], tau=ph["tau"], eps_svd=ph["eps_svd"],
                         basis=ph["basis"])
    dtype = np.complex128 if header["dtype"] == "c16" else np.float64
    pairs_L = [tuple(p) for p in header["pairs_L"]]
    pairs_Lm = [tuple(p) for p in header["pairs_Lm"]]
    cls = HssMatrix if header["kind"] == "hss" else H2Matrix
    if kernel is not None:
        X = PointSet(_caller_points(tree, "row"))
        Y = PointSet(_caller_points(tree, "col"), role="col")
        block = make_block_evaluator(kernel, X, Y, tree)
    else:
        block = no_kernel_block
    M = cls(tree, params, block, pairs_L, pairs_Lm, dtype, kernel=kernel)

    perms = []
    for name, arr in arrays.items():
        parts = name.split(".")
        if parts[0] in ("rowfac", "colfac"):
            if parts[2] == "X":
                raise ValueError(
                    "container entry %r is an explicit basis, which older "
                    "versions stored for sums and scalings; rebuild the "
                    "matrix" % name)
            if parts[2] == "perm":
                perms.append((parts[0], int(parts[1]), arr))
            # "skel" is a second copy of the skeleton in older files
            elif parts[2] not in ("G", "skel"):
                raise ValueError("unknown container entry %r" % name)
        elif parts[0] == "skel_row":
            M.skel_row[int(parts[1])] = arr
        elif parts[0] == "skel_col":
            M.skel_col[int(parts[1])] = arr
        elif parts[0] == "D":
            M.Dblocks[int(parts[1])] = arr
        elif parts[0] == "B":
            M.B_dense[(int(parts[1]), int(parts[2]))] = arr
        elif name not in _TREE_ARRAYS + ("kernel.w", "kernel.v"):
            # e.g. the per-block U/V/R/W entries of an older format
            raise ValueError("unknown container entry %r" % name)
    # an interpolative factor's skeleton is the node's stored skeleton
    for prefix, i, perm in perms:
        facs, skels, side = ((M.rowfac, M.skel_row, "row") if prefix == "rowfac"
                             else (M.colfac, M.skel_col, "column"))
        if i not in skels:
            raise _no_factor(i, side)
        facs[i] = InterpolativeFactor(
            nrows=perm.size, perm=perm, G=arrays["%s.%d.G" % (prefix, i)],
            skel=skels[i])
    _check_structure(M)
    return M


def _no_factor(i, side: str) -> ValueError:
    return ValueError("damaged container: node %r has no %s factor or no %s "
                      "skeleton" % (i, side, side))


def _check_structure(M) -> None:
    """Cross-checks of a header that parsed: the root spans every point,
    children come before their parent and tile its row and column ranges,
    every non-root node has both factors, every factor and coupling pair
    names a node with a skeleton, and each factor fits the labels it
    interpolates."""
    tr = M.tree
    nodes = tr.nodes
    root = nodes[tr.root]
    if (root.row_start, root.row_stop, root.col_start, root.col_stop) != (
            0, tr.n_row, 0, tr.n_col):
        raise ValueError("damaged container: the root spans rows %d:%d and "
                         "columns %d:%d of %d x %d points"
                         % (root.row_start, root.row_stop, root.col_start,
                            root.col_stop, tr.n_row, tr.n_col))
    for nd in nodes:
        for c in nd.children:
            if not (type(c) is int and 0 <= c < nd.index
                    and nodes[c].parent == nd.index):
                raise ValueError("damaged container: node %d lists %r, which "
                                 "is not its child" % (nd.index, c))
        if not nd.children:
            continue
        for lo, hi in (("row_start", "row_stop"), ("col_start", "col_stop")):
            # parent start, each child's start and stop, parent stop: a
            # tiling meets each edge twice in a row and never goes back
            edges = [getattr(nd, lo)]
            for c in nd.children:
                edges += [getattr(nodes[c], lo), getattr(nodes[c], hi)]
            edges.append(getattr(nd, hi))
            if edges[0::2] != edges[1::2] or edges != sorted(edges):
                raise ValueError("damaged container: the children of node %d "
                                 "do not tile its %s range"
                                 % (nd.index, lo[:3]))
    for facs, skels, side in ((M.rowfac, M.skel_row, "row"),
                              (M.colfac, M.skel_col, "column")):
        for i in set(range(tr.root)).union(facs):
            if i not in facs or i not in skels:
                raise _no_factor(i, side)
    for facs, skels, side in ((M.rowfac, M.skel_row, "row"),
                              (M.colfac, M.skel_col, "col")):
        for i, fac in facs.items():
            _check_factor(tr, i, fac, skels, side)
    for i, j in M.pairs_L:
        if i not in M.skel_row or j not in M.skel_col:
            raise ValueError("damaged container: coupling pair (%r, %r) names "
                             "a node with no skeleton" % (i, j))
    leaves = set(tr.leaves())
    for i, j in M.pairs_Lm:
        if i not in leaves or j not in leaves:
            raise ValueError("damaged container: nearfield pair (%r, %r) "
                             "names a node that is not a leaf" % (i, j))


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes, dtypes and bytes: equal entries, for index arrays."""
    return a.shape == b.shape and a.dtype == b.dtype and (
        a.tobytes() == b.tobytes())


def _is_permutation(p: np.ndarray, n: int) -> bool:
    return p.shape == (n,) and _same(np.sort(p), np.arange(n))


def _check_factor(tr, i, fac, skels, side) -> None:
    """Node i's factor against the labels it interpolates: the leaf's point
    range, or its children's stacked skeletons."""
    if not (type(i) is int and 0 <= i < tr.root):
        raise ValueError("damaged container: a %s factor names node %r, "
                         "which is not a non-root node" % (side, i))
    name = "%sfac.%d." % (side, i)
    ibar = _intermediate(tr, i, skels, side)
    skel = skels[i]
    k = skel.size
    if not _is_permutation(fac.perm, ibar.size):
        raise ValueError("damaged container: %r is not a permutation of "
                         "range(%d)" % (name + "perm", ibar.size))
    if fac.G.shape != (ibar.size - k, k):
        raise ValueError("damaged container: %r has shape %s, not (%d, %d)"
                         % (name + "G", fac.G.shape, ibar.size - k, k))
    if not _same(skel, ibar[fac.perm[:k]]):
        raise ValueError("damaged container: 'skel_%s.%d' is not the labels "
                         "that %r selects" % (side, i, name + "perm"))


def _caller_points(tree: ClusterTree, side: str) -> np.ndarray:
    perm = tree.perm_row if side == "row" else tree.perm_col
    pts = tree.points_row if side == "row" else tree.points_col
    out = np.empty_like(pts)
    out[perm] = pts
    return out

