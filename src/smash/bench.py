"""The test problems and their measurement.

Provides the parameter heuristic, the point sets of the test problems,
storage accounting, the largest skeleton rank, and streaming dense oracles
with the relative error of an apply against them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cluster import PointSet
from .container import stored_arrays
from .kernel import KernelSpec, get_curve, kernel_block

# ---------------------------------------------------------------------------
# parameter heuristic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamChoice:
    """Build parameters matched to a target tolerance."""

    eps: float
    tau: float
    r: int
    eps_svd: float


def choose_params(eps: float, d: int = 1) -> ParamChoice:
    """Expansion order and separation ratio for a target tolerance.

    The order comes from solving tau^r ~ eps for r and then backing off by
    an empirical margin that widens as the target tightens; planar point
    clouds get a slightly larger separation ratio than 1-d sets and curves.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("tolerance must lie strictly inside (0, 1)")
    if d not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    tau = 0.65 if d == 2 else 0.6
    x = math.log(eps) / math.log(tau)
    if eps < 1e-8:
        r = math.floor(x - 20)
    elif eps < 1e-6:
        r = math.floor(x - 15)
    else:
        r = math.floor(x - 10)
    return ParamChoice(eps=eps, tau=tau, r=max(r, 5), eps_svd=eps / 10.0)


# ---------------------------------------------------------------------------
# rank and storage accounting
# ---------------------------------------------------------------------------


def max_rank(M) -> int:
    """Largest row or column skeleton size over the non-root nodes, 0 on a
    one-leaf tree."""
    return max((max(M.rank_row(i), M.rank_col(i)) for i in M.skel_row),
               default=0)


@dataclass(frozen=True)
class StorageReport:
    """Byte totals for the three storage schemes, and the bytes of the
    block rows evaluated so far and kept for later applies."""

    compressed_bytes: int
    generator_bytes: int
    dense_bytes: int
    breakdown: dict
    kept_bytes: int


def as_mib(nbytes: int) -> float:
    return nbytes / 2.0 ** 20


def storage_report(M) -> StorageReport:
    """Bytes for the compressed form, dense generators, and dense A.

    The compressed form is the arrays ``save_matrix`` writes
    (``container.stored_arrays``): interpolation coefficients, the
    permutations that select the skeletons, leaf diagonal blocks, and the
    couplings that sums and scalings store; a built matrix regenerates its
    couplings from the kernel at skeleton points.  The generator form materializes U, V, R, W,
    and B densely, both sides in full, at the matrix dtype width.
    ``kept_bytes`` is what the coupling and nearfield block rows evaluated
    by applies so far hold (an HSS leaf's nearfield row is its diagonal
    block, which ``diag`` counts too); it is 0 before the first apply.  A
    matrix whose couplings are antisymmetric (the Cauchy kernel with one
    factor per node) keeps one coupling block per unordered pair, applied
    both ways, so each pair counts once; on one point set whose equal
    points share a leaf, so does each pair of distinct nearfield leaves.
    """
    fb = np.dtype(M.dtype).itemsize
    tr = M.tree
    breakdown = dict.fromkeys(("interp", "coupling", "diag", "index"), 0)
    for name, arr in stored_arrays(M):
        part = ("diag" if name.startswith("D.")
                else "coupling" if name.startswith("B.")
                else "interp" if name.endswith(".G") else "index")
        breakdown[part] += arr.nbytes
    compressed = sum(breakdown.values())

    # dense generators: leaf bases, transfers below factored parents,
    # coupling blocks, and the same diagonal blocks
    entries = 0
    for i in tr.leaves():
        if i in M.skel_row:
            entries += tr.nodes[i].n_row * M.rank_row(i)
            entries += tr.nodes[i].n_col * M.rank_col(i)
    for i in range(len(tr.nodes)):
        if i == tr.root or i not in M.skel_row:
            continue
        p = tr.nodes[i].parent
        if p != tr.root and p in M.skel_row:
            entries += M.rank_row(i) * M.rank_row(p)
            entries += M.rank_col(i) * M.rank_col(p)
    for i, j in M.pairs_L.tolist():
        entries += M.rank_row(i) * M.rank_col(j)
    generator = entries * fb + breakdown["diag"]
    for i, j in M.pairs_Lm.tolist():
        if i == j and i in M.Dblocks:
            continue
        generator += tr.nodes[i].n_row * tr.nodes[j].n_col * fb

    dense = tr.n_row * tr.n_col * fb
    kept = sum(g.A.nbytes for kind in M._groups.values() for g in kind)
    return StorageReport(compressed, generator, dense, breakdown, kept)


# ---------------------------------------------------------------------------
# dense oracles (streaming; never materialize A beyond one row chunk)
# ---------------------------------------------------------------------------


def dense_matvec(spec: KernelSpec, X, Y, q, rows=None) -> np.ndarray:
    """Exact A @ q, or its entries at `rows`, computed in row chunks of the
    exact kernel matrix: up to 512 rows and 2^22 entries each."""
    if spec.kind == "laplace_dlp":
        n_row = n_col = spec.nq
    else:
        n_row, n_col = X.n, Y.n
    q = np.asarray(q)
    rows = np.arange(n_row) if rows is None else np.asarray(rows)
    step = max(1, min(512, 2 ** 22 // n_col))
    cols = np.arange(n_col)
    parts = [kernel_block(spec, X, Y, rows[a:a + step], cols) @ q
             for a in range(0, rows.size, step)]
    return np.concatenate(parts, axis=0)


SAMPLE_ROWS = 512
DENSE_BUDGET_DEFAULT = 5120 * 5120


def rel_error(x, ref) -> float:
    """||x - ref|| / ||ref||, or ||x - ref|| where ref is zero: the error
    relative to a nonzero reference, else the absolute error."""
    err = np.linalg.norm(x - ref)
    scale = np.linalg.norm(ref)
    return float(err / scale if scale else err)


def matvec_relerr(spec: KernelSpec, X, Y, q, z,
                  budget: int = DENSE_BUDGET_DEFAULT, seed: int = 0):
    """(relerr, rows): ||z - A q|| / ||A q|| (``rel_error``) and the number
    of rows of A it was measured on.  That is every row while A's entries
    fit the budget, else SAMPLE_ROWS seeded rows, each evaluated in full at
    O(n) cost."""
    n_row = z.shape[0]
    rows = np.arange(n_row)
    if n_row * np.shape(q)[0] > budget:
        rng = np.random.default_rng([seed, n_row, SAMPLE_ROWS])
        rows = np.sort(rng.choice(n_row, min(SAMPLE_ROWS, n_row), replace=False))
    zd = dense_matvec(spec, X, Y, q, rows=rows)
    return rel_error(z[rows], zd), rows.size


# ---------------------------------------------------------------------------
# point sets
# ---------------------------------------------------------------------------


def grid_points(m: int) -> PointSet:
    """Cell centers of a uniform m-by-m grid on the unit square."""
    g = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(g, g, indexing="ij")
    return PointSet(np.column_stack([xx.ravel(), yy.ravel()]))


def curve_points(name: str, n: int) -> PointSet:
    """n equispaced-parameter nodes t_j = j/n on a named curve."""
    crv = get_curve(name)
    return PointSet(crv.point(np.arange(n) / n))


def cauchy_pair(geometry: str, n: int, rng):
    """Source/target point sets for the Cauchy test problems.

    interval: x_k = k/(n+1) with y a 1e-7-scale random right shift; curve
    geometries place x on the curve at the same parameters, with y either
    perturbed in parameter (honeybee) or shifted in the real coordinate.
    """
    t = np.arange(1, n + 1) / (n + 1)
    if geometry == "interval":
        x = t[:, None]
        y = x + 1e-7 * rng.random((n, 1))
        return PointSet(x), PointSet(y)
    crv = get_curve(geometry)
    x = crv.point(t)
    if geometry == "honeybee":
        y = crv.point(t + 1e-7 * rng.random(n))
    else:
        y = x.copy()
        y[:, 0] += 1e-7 * rng.random(n)
    return PointSet(x), PointSet(y)
