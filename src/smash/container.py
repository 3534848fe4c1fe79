"""Binary container for structured matrices.

Layout: one magic line, a JSON header (tree topology, build parameters,
kernel description, array manifest), a NUL byte, then the raw array payload.
All floating payloads are little-endian 64-bit (complex as 128-bit pairs),
index arrays little-endian int64, so round trips are bit-exact.  Only
what the loader cannot derive is saved: it takes the block partition from
``leaf_sets`` on the saved tree, and each node's skeleton from its factor,
from the leaves up.  A matrix whose column factors are its row factors
(``hss.one_basis``) is saved once: the payload has no "colfac" entries,
and the loader applies the same rule.  A file with another magic line is
refused, one of an older version of this format by name, and so is a
manifest whose arrays do not cover the payload end to end, in order, an
array with a NaN or an infinite entry, or a factor's G with an entry past
the bound s = 2 on the interpolation coefficients.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .cluster import (ClusterTree, PointSet, TreeNode, _is_permutation,
                      leaf_sets)
from .h2 import H2Matrix
from .hss import (BuildParams, HssMatrix, _intermediate, kernel_dtype,
                  make_block_evaluator, no_kernel_block, one_basis)
from .kernel import KernelSpec, get_curve
from .lowrank import _SWAP_BOUND, InterpolativeFactor

_MAGIC = b"SMASH-BIN-4\n"
_OLD_MAGIC = (b"SMASH-BIN-1\n", b"SMASH-BIN-2\n", b"SMASH-BIN-3\n")

_DT = {"f8": "<f8", "c16": "<c16", "i8": "<i8"}

_HEADER_KEYS = ("kind", "dtype", "params", "tree", "kernel", "arrays")
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
    form: each factor's "perm" and "G" (the row side only where
    ``hss.one_basis`` holds), then the leaf diagonal blocks "D.i", then the
    stored couplings "B.i.j" of sums and scalings."""
    shared = one_basis(M.kind, M.tree, M.kernel)
    sides = [("row", M.rowfac)] + ([] if shared else [("col", M.colfac)])
    named = []
    for side, facs in sides:
        for i, fac in facs.items():
            named += [("%sfac.%d.perm" % (side, i), fac.perm),
                      ("%sfac.%d.G" % (side, i), fac.G)]
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
                          offset=offset).reshape(shape)
        if tag != "i8" and not np.isfinite(a).all():
            bad = np.flatnonzero(~np.isfinite(a))[0]
            raise ValueError("array %r holds %s at flat index %d; stored "
                             "entries must be finite"
                             % (name, a.flat[bad], bad))
        # a factor's G stays a view into the payload until the loader copies
        # it into its group's stack (_StructuredMatrix.basis_groups)
        out[name] = a if name.endswith(".G") else a.astype(tag)
    for name in _TREE_ARRAYS:
        if name not in out:
            raise ValueError("damaged container: no %r array" % name)
    return out


def _check_tiling(manifest, size: int) -> None:
    """The manifest's arrays, in order, cover the payload of size bytes end
    to end, as ``save_matrix`` writes them: each starts where the one before
    it ends, and the last ends at the payload's end."""
    end = 0
    for ent in manifest:
        if ent["offset"] != end:
            raise ValueError("damaged container: array %r starts at byte %d "
                             "of the payload, not at %d, where the entry "
                             "before it ends" % (ent["name"], ent["offset"],
                                                 end))
        end += ent["nbytes"]
    if end != size:
        raise ValueError("damaged container: the arrays end at byte %d of "
                         "the payload, not at its end, byte %d" % (end, size))


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
    cut = raw.find(b"\0", len(_MAGIC))
    if cut < 0:
        raise ValueError("damaged container: no end of header in %s" % path)
    header = json.loads(raw[len(_MAGIC):cut].decode())
    if not isinstance(header, dict):
        raise ValueError("damaged container header in %s" % path)
    for key in _HEADER_KEYS:
        if key not in header:
            raise ValueError("damaged container header: no %r entry in %s"
                             % (key, path))
    payload = memoryview(raw)[cut + 1:]  # read in place, not copied
    try:
        M = _assemble(header, _read_arrays(payload, header["arrays"]))
    except (KeyError, TypeError, IndexError, AttributeError,
            OverflowError) as exc:
        # any other malformed value in the header is still bad input
        raise ValueError("damaged container %s: %s %s"
                         % (path, type(exc).__name__, exc)) from None
    # checked last, so that an entry the matrix contradicts is named by
    # what it contradicts
    _check_tiling(header["arrays"], len(payload))
    return M


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
        try:
            kernel = KernelSpec(
                kind=kh["kind"], dx=kh["dx"], nq=kh["nq"],
                curve=get_curve(kh["curve"]) if kh["curve"] else None,
                w=arrays.get("kernel.w"), v=arrays.get("kernel.v"))
        except ValueError as exc:
            raise ValueError("damaged container header: kernel: %s"
                             % exc) from None

    ph = header["params"]
    try:
        params = BuildParams(r=ph["r"], tau=ph["tau"], eps_svd=ph["eps_svd"],
                             basis=ph["basis"])
    except ValueError as exc:
        raise ValueError("damaged container header: %s" % exc) from None
    if kernel is not None:
        X = PointSet(_caller_points(tree, "row"))
        Y = PointSet(_caller_points(tree, "col"))
        try:
            block = make_block_evaluator(kernel, X, Y, tree)
        except ValueError as exc:
            raise ValueError("damaged container: %s" % exc) from None
        gives = kernel_dtype(kernel, X)
        if gives != dtype:
            raise ValueError("damaged container: header dtype %r, but the %s "
                             "kernel gives %s entries"
                             % (header["dtype"], kernel.kind, gives))
    else:
        block = no_kernel_block
    M = cls(tree, params, block, *leaf_sets(tree, params.tau, cls.kind),
            dtype, kernel=kernel)
    shared = one_basis(M.kind, tree, kernel)
    sides = [("row", M.rowfac, M.skel_row), ("col", M.colfac, M.skel_col)]
    sides = sides[:1 if shared else 2]

    # name -> (where it goes, key, i, j) of each block (i, j) the file may
    # hold: an HSS leaf's diagonal block and, with no kernel to give them,
    # the kept couplings; without a kernel the file must hold every one
    blocks = {"D.%d" % i: (M.Dblocks, i, i, i)
              for i in (tree.leaves() if cls.kind == "hss" else ())}
    if kernel is None:
        blocks.update(("B.%d.%d" % (i, j), (M.B_dense, (i, j), i, j))
                      for i, js in M._sources["L"][1].items() for j in js)
    known = {*_TREE_ARRAYS, "kernel.w", "kernel.v", *blocks}.union(
        "%sfac.%d.%s" % (side, i, part) for side, _, _ in sides
        for i in range(tree.root) for part in ("perm", "G"))
    for name, arr in arrays.items():
        if name.startswith(("D.", "B.")) and name not in blocks:
            raise ValueError("damaged container: %r is not a block this "
                             "matrix stores" % name)
        if shared and name.startswith("colfac."):
            raise ValueError("damaged container: this matrix holds one "
                             "factor per node, but the file also holds the "
                             "column entry %r" % name)
        if name not in known:
            raise ValueError("unknown container entry %r" % name)
        if (dtype == np.float64 and arr.dtype.kind == "c"
                and (name in blocks or name.endswith(".G"))):
            raise ValueError("damaged container: header dtype 'f8', but %r "
                             "holds complex entries" % name)
    for side, facs, skels in sides:
        for i in range(tree.root):  # postorder: children before parents
            facs[i] = _load_factor(arrays, tree, i, side, skels)
            skels[i] = facs[i].skel
    if shared:
        M.colfac.update(M.rowfac)
        M.skel_col.update(M.skel_row)
    for name, (store, key, i, j) in blocks.items():
        if name not in arrays:
            if kernel is None:
                raise ValueError("damaged container: the matrix has no "
                                 "kernel, and the file no %r entry" % name)
            continue
        shape = ((tree.nodes[i].n_row, tree.nodes[j].n_col)
                 if store is M.Dblocks else (M.rank_row(i), M.rank_col(j)))
        if arrays[name].shape != shape:
            raise ValueError("damaged container: %r has shape %s, not %s"
                             % (name, arrays[name].shape, shape))
        store[key] = arrays[name]
    for side in ("row", "col"):
        M.basis_groups(side)
    return M


def _load_factor(arrays: dict, tree: ClusterTree, i: int, side: str,
                 skels: dict) -> InterpolativeFactor:
    """Node i's factor on one side ("row" or "col") from its saved "perm"
    and "G", checked against the labels it interpolates: the leaf's point
    range, or its children's skeletons.  No entry of G may exceed the
    bound s that compression keeps.  Its skeleton is the labels that the
    first G.shape[1] entries of perm select."""
    name = "%sfac.%d." % (side, i)
    if name + "perm" not in arrays or name + "G" not in arrays:
        raise ValueError("damaged container: node %d has no %s factor"
                         % (i, "row" if side == "row" else "column"))
    perm, G = arrays[name + "perm"], arrays[name + "G"]
    ibar = _intermediate(tree, i, skels, side)
    if not _is_permutation(perm, ibar.size):
        raise ValueError("damaged container: %r is not a permutation of "
                         "range(%d)" % (name + "perm", ibar.size))
    if G.ndim != 2 or G.shape[0] + G.shape[1] != ibar.size:
        raise ValueError("damaged container: %r has shape %s, not (%d - k, k) "
                         "for some rank k" % (name + "G", G.shape, ibar.size))
    # compression stops only once every coefficient is within the bound
    big = np.abs(G) > _SWAP_BOUND
    if big.any():
        at = np.unravel_index(np.argmax(big), G.shape)
        raise ValueError("damaged container: %r entry %s is %g, past the "
                         "bound %g that compression keeps"
                         % (name + "G", tuple(map(int, at)), abs(G[at]),
                            _SWAP_BOUND))
    return InterpolativeFactor(perm=perm, G=G, skel=ibar[perm[:G.shape[1]]])


def _caller_points(tree: ClusterTree, side: str) -> np.ndarray:
    perm = tree.perm_row if side == "row" else tree.perm_col
    pts = tree.points_row if side == "row" else tree.points_col
    out = np.empty_like(pts)
    out[perm] = pts
    return out

