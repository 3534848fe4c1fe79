"""Binary container for structured matrices.

Layout: one magic line, a JSON header (tree topology, build parameters,
kernel description, array manifest), a NUL byte, then the raw array payload.
All floating payloads are little-endian 64-bit (complex as 128-bit pairs),
index arrays little-endian int64, so round trips are bit-exact.  A matrix
whose column factors are its row factors (``hss.one_basis``) is saved once:
the payload has no "colfac" or "skel_col" entries, and the loader applies
the same rule.  A file with another magic line is refused.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .cluster import ClusterTree, PointSet, TreeNode, _is_permutation
from .h2 import H2Matrix
from .hss import (BuildParams, HssMatrix, _intermediate, make_block_evaluator,
                  no_kernel_block, one_basis)
from .kernel import KernelSpec, get_curve
from .lowrank import InterpolativeFactor

_MAGIC = b"SMASH-BIN-2\n"
_OLD_MAGIC = b"SMASH-BIN-1\n"

_DT = {"f8": "<f8", "c16": "<c16", "i8": "<i8"}

_HEADER_KEYS = ("kind", "dtype", "params", "tree", "kernel", "pairs_L",
                "pairs_Lm", "arrays")
_NODE_KEYS = ("level", "parent", "children", "lo", "hi", "rows", "cols")
_TREE_ARRAYS = ("perm_row", "perm_col", "points_row", "points_col")
# the values a header may hold, by name
_KINDS = {"hss": HssMatrix, "h2": H2Matrix}
_DTYPES = {"f8": np.float64, "c16": np.complex128}
_MODES = ("binary", "2d")


def _as_saved(arr) -> np.ndarray:
    """arr in the type the payload holds it in; no copy if it is already."""
    arr = np.asarray(arr)
    return np.asarray(arr, dtype=_DT[_tag(arr)])


def _tag(arr: np.ndarray) -> str:
    return {"c": "c16", "i": "i8"}.get(arr.dtype.kind, "f8")


def stored_arrays(M):
    """(container name, array as saved) for each array of the compressed
    form: each factor's "perm", "G" and "skel" (the row side only where
    ``hss.one_basis`` holds), then the leaf diagonal blocks "D.i", then the
    stored couplings "B.i.j" of sums and scalings."""
    shared = one_basis(M.kind, M.tree, M.kernel)
    sides = [("row", M.rowfac)] + ([] if shared else [("col", M.colfac)])
    named = []
    for side, facs in sides:
        for i, fac in facs.items():  # a node's skeleton is its factor's
            named += [("%sfac.%d.perm" % (side, i), fac.perm),
                      ("%sfac.%d.G" % (side, i), fac.G),
                      ("skel_%s.%d" % (side, i), fac.skel)]
    named += [("D.%d" % i, arr) for i, arr in M.Dblocks.items()]
    named += [("B.%d.%d" % ij, arr) for ij, arr in M.B_dense.items()]
    return [(name, _as_saved(arr)) for name, arr in named]


def save_matrix(M, path) -> None:
    """Write an HSS or H2 matrix, built or the result of sums and
    scalings; both hold interpolative factors."""
    tr = M.tree
    arrays = [(name, _as_saved(getattr(tr, name))) for name in _TREE_ARRAYS]
    arrays += stored_arrays(M)
    kern = None
    if M.kernel is not None:
        kern = {"kind": M.kernel.kind, "dx": M.kernel.dx, "nq": M.kernel.nq,
                "curve": M.kernel.curve.name if M.kernel.curve is not None else None}
        if M.kernel.kind == "cauchy_like":
            arrays += [("kernel.w", _as_saved(M.kernel.w)),
                       ("kernel.v", _as_saved(M.kernel.v))]
    manifest, offset = [], 0
    for name, arr in arrays:
        manifest.append({"name": name, "dtype": _tag(arr),
                         "shape": list(arr.shape), "offset": offset,
                         "nbytes": arr.nbytes})
        offset += arr.nbytes

    lo, hi = tr.lo.tolist(), tr.hi.tolist()
    header = {
        "kind": M.kind,
        "dtype": "c16" if np.dtype(M.dtype).kind == "c" else "f8",
        "params": {"r": M.params.r, "tau": M.params.tau,
                   "eps_svd": M.params.eps_svd, "basis": M.params.basis},
        "tree": {
            "mode": tr.mode, "nu0": tr.nu0, "tau_default": tr.tau_default,
            "nodes": [{"level": nd.level, "parent": nd.parent,
                       "children": list(nd.children),
                       "lo": lo[k], "hi": hi[k],
                       "rows": [nd.row_start, nd.row_stop],
                       "cols": [nd.col_start, nd.col_stop]}
                      for k, nd in enumerate(tr.nodes)],
        },
        "kernel": kern,
        "pairs_L": [list(p) for p in M.pairs_L],
        "pairs_Lm": [list(p) for p in M.pairs_Lm],
        "arrays": manifest,
    }
    blob = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(blob)
        fh.write(b"\0")
        for _, arr in arrays:
            fh.write(arr.tobytes())  # C order, also for a strided view


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
    """Read a container written by save_matrix.  A damaged file, or one an
    older version wrote, raises ValueError naming what is wrong."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.startswith(_OLD_MAGIC):
        raise ValueError("%s was written by an older version of this "
                         "format; rebuild the matrix" % path)
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
    except (KeyError, TypeError, IndexError, AttributeError,
            OverflowError) as exc:
        # any other malformed value in the header is still bad input
        raise ValueError("damaged container %s: %s %s"
                         % (path, type(exc).__name__, exc)) from None


def _one_of(what: str, value, allowed):
    if not (isinstance(value, str) and value in allowed):
        raise ValueError("damaged container header: unknown %s %r (have %s)"
                         % (what, value, ", ".join(allowed)))
    return value


def _assemble(header: dict, arrays: dict):
    cls = _KINDS[_one_of("kind", header["kind"], _KINDS)]
    dtype = _DTYPES[_one_of("dtype", header["dtype"], _DTYPES)]
    th = header["tree"]
    for k, nd in enumerate(th["nodes"]):
        for key in _NODE_KEYS:
            if key not in nd:
                raise ValueError("damaged container header: tree node %d has "
                                 "no %r entry" % (k, key))
    nodes = [TreeNode(index=k, level=nd["level"], parent=nd["parent"],
                      children=tuple(nd["children"]),
                      row_start=nd["rows"][0], row_stop=nd["rows"][1],
                      col_start=nd["cols"][0], col_stop=nd["cols"][1])
             for k, nd in enumerate(th["nodes"])]
    mode = _one_of("tree mode", th["mode"], _MODES)
    tree = ClusterTree(nodes=nodes, mode=mode, nu0=th["nu0"],
                       tau_default=th["tau_default"],
                       perm_row=arrays["perm_row"], perm_col=arrays["perm_col"],
                       points_row=arrays["points_row"],
                       points_col=arrays["points_col"],
                       lo=np.array([nd["lo"] for nd in th["nodes"]], dtype=float),
                       hi=np.array([nd["hi"] for nd in th["nodes"]], dtype=float))
    try:
        tree.verify()
    except ValueError as exc:
        raise ValueError("damaged container: %s" % exc) from None

    kernel = None
    kh = header["kernel"]
    if kh is not None:
        kernel = KernelSpec(
            kind=kh["kind"], dx=kh["dx"], nq=kh["nq"],
            curve=get_curve(kh["curve"]) if kh["curve"] else None,
            w=arrays.get("kernel.w"), v=arrays.get("kernel.v"))

    ph = header["params"]
    try:
        params = BuildParams(r=ph["r"], tau=ph["tau"], eps_svd=ph["eps_svd"],
                             basis=ph["basis"])
    except ValueError as exc:
        raise ValueError("damaged container header: %s" % exc) from None
    pairs_L = [tuple(p) for p in header["pairs_L"]]
    pairs_Lm = [tuple(p) for p in header["pairs_Lm"]]
    if kernel is not None:
        X = PointSet(_caller_points(tree, "row"))
        Y = PointSet(_caller_points(tree, "col"), role="col")
        block = make_block_evaluator(kernel, X, Y, tree)
    else:
        block = no_kernel_block
    M = cls(tree, params, block, pairs_L, pairs_Lm, dtype, kernel=kernel)
    shared = one_basis(M.kind, tree, kernel)

    perms = []
    for name, arr in arrays.items():
        parts = name.split(".")
        if shared and parts[0] in ("colfac", "skel_col"):
            raise ValueError("damaged container: this matrix holds one "
                             "factor per node, but the file also holds the "
                             "column entry %r" % name)
        if parts[0] in ("rowfac", "colfac"):
            if parts[2] == "perm":
                perms.append((parts[0], int(parts[1]), arr))
            elif parts[2] != "G":
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
    if shared:
        M.colfac.update(M.rowfac)
        M.skel_col.update(M.skel_row)
    _check_structure(M)
    return M


def _no_factor(i, side: str) -> ValueError:
    return ValueError("damaged container: node %r has no %s factor or no %s "
                      "skeleton" % (i, side, side))


def _check_structure(M) -> None:
    """Cross-checks of a header whose tree passed ``ClusterTree.verify``:
    every non-root node has both factors, every factor and coupling pair
    names a node with a skeleton, and each factor fits the labels it
    interpolates."""
    tr = M.tree
    for facs, skels, side in ((M.rowfac, M.skel_row, "row"),
                              (M.colfac, M.skel_col, "column")):
        for i in sorted(set(range(tr.root)).union(facs)):  # children first
            if i not in facs or i not in skels:
                raise _no_factor(i, side)
            _check_factor(tr, i, facs[i], skels, side)
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


def _check_factor(tr, i, fac, skels, side) -> None:
    """Node i's factor against the labels it interpolates: the leaf's point
    range, or its children's stacked skeletons."""
    if not (type(i) is int and 0 <= i < tr.root):
        raise ValueError("damaged container: a %s factor names node %r, "
                         "which is not a non-root node" % (side, i))
    name = "%sfac.%d." % (side[:3], i)  # "row" or "col"
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
                         "that %r selects" % (side[:3], i, name + "perm"))


def _caller_points(tree: ClusterTree, side: str) -> np.ndarray:
    perm = tree.perm_row if side == "row" else tree.perm_col
    pts = tree.points_row if side == "row" else tree.points_col
    out = np.empty_like(pts)
    out[perm] = pts
    return out

