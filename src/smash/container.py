"""Binary container for structured matrices.

Layout: one magic line, a JSON header (tree topology, build parameters,
kernel description, array manifest), a NUL byte, then the raw array payload.
All floating payloads are little-endian 64-bit (complex as 128-bit pairs),
index arrays little-endian int64, so round trips are bit-exact.
"""

from __future__ import annotations

import json

import numpy as np

from .cluster import Box, ClusterTree, TreeNode
from .h2 import H2Matrix
from .hss import BuildParams, HssMatrix, make_block_evaluator
from .kernel import KernelSpec, get_curve
from .lowrank import InterpolativeFactor
from .cluster import PointSet

_MAGIC = b"SMASH-BIN-1\n"

_DT = {"f8": "<f8", "c16": "<c16", "i8": "<i8"}

_HEADER_KEYS = ("kind", "dtype", "use_cache", "params", "tree", "kernel",
                "pairs_L", "pairs_Lm", "arrays")


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


def _fac_to_payload(pl, prefix: str, fac: InterpolativeFactor):
    pl.add(prefix + ".perm", fac.perm)
    pl.add(prefix + ".G", fac.G)
    pl.add(prefix + ".skel", fac.skel)


def save_matrix(M, path) -> None:
    """Write an HSS or H2 matrix (factor or dense representation)."""
    pl = _Payload()
    pl.add("perm_row", M.tree.perm_row)
    pl.add("perm_col", M.tree.perm_col)
    pl.add("points_row", M.tree.points_row)
    pl.add("points_col", M.tree.points_col)
    for i, fac in M.rowfac.items():
        _fac_to_payload(pl, "rowfac.%d" % i, fac)
    for i, fac in M.colfac.items():
        _fac_to_payload(pl, "colfac.%d" % i, fac)
    for i, arr in M.skel_row.items():
        pl.add("skel_row.%d" % i, arr)
    for i, arr in M.skel_col.items():
        pl.add("skel_col.%d" % i, arr)
    for i, arr in M.Dblocks.items():
        pl.add("D.%d" % i, arr)
    for name, store in (("U", M.U_dense), ("V", M.V_dense),
                        ("R", M.R_dense), ("W", M.W_dense)):
        for i, arr in store.items():
            pl.add("%s.%d" % (name, i), arr)
    for (i, j), arr in M.B_dense.items():
        pl.add("B.%d.%d" % (i, j), arr)
    for (i, j), arr in M.NF_dense.items():
        pl.add("NFD.%d.%d" % (i, j), arr)

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
        "use_cache": bool(M.use_cache),
        "params": {"r": M.params.r, "tau": M.params.tau,
                   "eps_svd": M.params.eps_svd, "s": M.params.s,
                   "basis": M.params.basis},
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


def _read_arrays(buf: bytes, manifest):
    out = {}
    for ent in manifest:
        a = np.frombuffer(buf, dtype=_DT[ent["dtype"]], count=int(np.prod(ent["shape"], dtype=np.int64)) if ent["shape"] else 1,
                          offset=ent["offset"])
        if ent["dtype"] == "i8":
            arr = a.astype(np.int64).reshape(ent["shape"])
        elif ent["dtype"] == "c16":
            arr = a.astype(np.complex128).reshape(ent["shape"])
        else:
            arr = a.astype(np.float64).reshape(ent["shape"])
        out[ent["name"]] = arr
    return out


def load_matrix(path):
    """Read a container written by save_matrix."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(_MAGIC):
        raise ValueError("not a structured-matrix container: %s" % path)
    raw = raw[len(_MAGIC):]
    cut = raw.index(b"\0")
    header = json.loads(raw[:cut].decode())
    if not isinstance(header, dict):
        raise ValueError("damaged container header in %s" % path)
    for key in _HEADER_KEYS:
        if key not in header:
            raise ValueError("damaged container header: no %r entry in %s"
                             % (key, path))
    arrays = _read_arrays(raw[cut + 1:], header["arrays"])

    th = header["tree"]
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

    kernel = None
    kh = header["kernel"]
    if kh is not None:
        kernel = KernelSpec(
            kind=kh["kind"], dx=kh["dx"], nq=kh["nq"],
            curve=get_curve(kh["curve"]) if kh["curve"] else None,
            w=arrays.get("kernel.w"), v=arrays.get("kernel.v"))

    ph = header["params"]
    params = BuildParams(r=ph["r"], tau=ph["tau"], eps_svd=ph["eps_svd"],
                         s=ph["s"], basis=ph["basis"])
    dtype = np.complex128 if header["dtype"] == "c16" else np.float64
    pairs_L = [tuple(p) for p in header["pairs_L"]]
    pairs_Lm = [tuple(p) for p in header["pairs_Lm"]]
    cls = HssMatrix if header["kind"] == "hss" else H2Matrix
    if kernel is not None:
        X = PointSet(_caller_points(tree, "row"))
        Y = PointSet(_caller_points(tree, "col"), role="col")
        block = make_block_evaluator(kernel, X, Y, tree)
    else:
        block = _no_kernel_block
    M = cls(tree, params, block, pairs_L, pairs_Lm, dtype, kernel=kernel,
            use_cache=header["use_cache"])

    for name, arr in arrays.items():
        parts = name.split(".")
        if parts[0] in ("rowfac", "colfac") and parts[2] == "perm":
            i = int(parts[1])
            perm = arr
            G = arrays["%s.%d.G" % (parts[0], i)]
            skel = arrays["%s.%d.skel" % (parts[0], i)]
            k = skel.size
            fac = InterpolativeFactor(nrows=perm.size, perm=perm, G=G,
                                      skel=skel, skel_local=perm[:k])
            (M.rowfac if parts[0] == "rowfac" else M.colfac)[i] = fac
        elif parts[0] == "skel_row":
            M.skel_row[int(parts[1])] = arr
        elif parts[0] == "skel_col":
            M.skel_col[int(parts[1])] = arr
        elif parts[0] == "D":
            M.Dblocks[int(parts[1])] = arr
        elif parts[0] in ("U", "V", "R", "W"):
            store = {"U": M.U_dense, "V": M.V_dense,
                     "R": M.R_dense, "W": M.W_dense}[parts[0]]
            store[int(parts[1])] = arr
        elif parts[0] == "B":
            M.B_dense[(int(parts[1]), int(parts[2]))] = arr
        elif parts[0] == "NFD":
            M.NF_dense[(int(parts[1]), int(parts[2]))] = arr
    return M


def _caller_points(tree: ClusterTree, side: str) -> np.ndarray:
    perm = tree.perm_row if side == "row" else tree.perm_col
    pts = tree.points_row if side == "row" else tree.points_col
    out = np.empty_like(pts)
    out[perm] = pts
    return out


def _no_kernel_block(rows, cols):
    raise ValueError("matrix was saved without a kernel; only stored blocks "
                     "are available")
