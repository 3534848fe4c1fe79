"""Diagnostics and the timing harness of the acceptance tests.

Provides eps-ranks, the a-priori reconstruction bounds and the rank caps
they take, the Taylor coupling table of a box pair and its truncation
bound, the double layer's Dirichlet data, the max-norm reconstruction
error, build parameters from a ``ParamChoice``, median timings with their
growth per size doubling, and the per-node HSS and H2 builds that the
stacked ones must match bit for bit.  Test modules import it the way they
import ``conftest``.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from smash import lowrank
from smash._threads import one_blas_thread
from smash.apply import matvec_nodewise
from smash.bench import DENSE_BUDGET_DEFAULT, ParamChoice
from smash.cluster import leaf_sets, nearfield_set
from smash.h2 import H2Matrix
from smash.hss import (BuildParams, HssMatrix, _basis_builder, _intermediate,
                       kernel_dtype, make_block_evaluator, one_basis)
from smash.kernel import KernelSpec, kernel_block, winding_number
from smash.lowrank import compr, range_columns, taylor_basis, taylor_eta


def build_params(pc: ParamChoice, basis: str = "taylor") -> BuildParams:
    """The build parameters of a parameter choice, on the given basis."""
    return BuildParams(r=pc.r, tau=pc.tau, eps_svd=pc.eps_svd, basis=basis)


# ---------------------------------------------------------------------------
# eps-rank
# ---------------------------------------------------------------------------


def eps_rank(M, eps: float) -> int:
    """Largest i with sigma_i >= eps * sigma_1 (singular values sorted)."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly inside (0, 1)")
    M = np.asarray(M)
    if M.size == 0:
        raise ValueError("eps-rank of an empty matrix is undefined")
    sig = sla.svdvals(M)
    if sig[0] == 0.0:
        raise ValueError("eps-rank of the zero matrix is undefined")
    return int(np.count_nonzero(sig >= eps * sig[0]))


# ---------------------------------------------------------------------------
# reconstruction error bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the Frobenius reconstruction bounds.

    ranks[l - 2] caps the approximation rank at tree level l, for levels
    2..L; the cap at the phantom level L + 1 is taken equal to level L's.
    Caps must not grow with depth.
    """

    ranks: tuple
    L: int
    eps_svd: float = 0.0
    eps_far: float = 0.0
    s: float = 2.0
    d: int = 1

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(int(v) for v in self.ranks))
        if self.L >= 2 and len(self.ranks) != self.L - 1:
            raise ValueError("need one rank cap per tree level 2..L")
        for a, b in zip(self.ranks, self.ranks[1:]):
            if b > a:
                raise ValueError("rank caps must not grow with depth")

    def cap(self, level: int) -> int:
        return self.ranks[min(level, self.L) - 2]


@dataclass(frozen=True)
class ErrorBound:
    """Level-resolved bound plus its looser constant-rank form."""

    theorem: float
    corollary: float


def error_bound(inputs: BoundInputs, structure: str = "hss") -> ErrorBound:
    """A-priori ||A - Ahat||_F bounds relative to ||A||_F.

    The level-resolved form sums per-level contributions; the corollary form
    replaces every cap by the largest one and always dominates.  Both are
    deliberately pessimistic.
    """
    if structure not in ("hss", "h2"):
        raise ValueError("structure must be 'hss' or 'h2'")
    L, s = inputs.L, inputs.s
    if L < 2:
        return ErrorBound(0.0, 0.0)
    r = inputs.cap
    rmax = max(inputs.ranks)

    def tail_prod(lo: int) -> float:
        p = 1.0
        for m in range(lo, L + 1):
            p *= r(m)
        return p

    if structure == "hss":
        c1 = 0.0
        for l in range(2, L):
            c1 += (2.0 ** (L + l / 2.0 + 2) * s ** (2 * L - 2 * l + 2)
                   * tail_prod(l + 1) ** 2
                   * r(l + 1) ** 1.5 * r(l) ** 2.5)
        c2 = 0.0
        for l in range(2, L + 1):
            c2 += (2.0 ** (L + 2) * s ** (2 * L - 2 * l + 2)
                   * tail_prod(l) ** 2 * r(l + 1))
        theorem = c1 * inputs.eps_svd + c2 * inputs.eps_far
        corollary = (2.0 * rmax ** 2 * s ** 2) ** L * (
            16.0 * inputs.eps_svd + 8.0 * inputs.eps_far)
        return ErrorBound(theorem, corollary)

    c = 0.0
    for l in range(2, L + 1):
        c += (2.0 ** (inputs.d * L + 2) * s ** (2 * L - 2 * l + 2)
              * tail_prod(l) ** 2 * r(l + 1))
    theorem = c * inputs.eps_far
    corollary = (2.0 ** inputs.d * rmax ** 2 * s ** 2) ** L * 8.0 * inputs.eps_far
    return ErrorBound(theorem, corollary)


def rank_caps(M) -> tuple:
    """Monotone per-level rank envelope of a built matrix (levels 2..L).

    Measured ranks need not decrease with depth, so the running maximum from
    the leaves upward is taken; the result is a valid set of caps.
    """
    tr = M.tree
    caps = []
    for level in range(2, tr.n_levels + 1):
        best = 1
        for i in tr.level_nodes(level):
            if i in M.skel_row:
                best = max(best, M.rank_row(i), M.rank_col(i))
        caps.append(best)
    for k in range(len(caps) - 1, 0, -1):
        caps[k - 1] = max(caps[k - 1], caps[k])
    return tuple(caps)


# ---------------------------------------------------------------------------
# Taylor coupling of a box pair and its truncation bound
# ---------------------------------------------------------------------------


def taylor_coupling(center_a, delta_a: float, center_b, delta_b: float, r: int):
    """Anti-triangular table T with T[l, m] = coefficient of the (l, m) basis
    pair, nonzero only for l + m <= r - 1."""
    D = center_a - center_b
    if D == 0:
        raise ValueError("expansion centers coincide")
    eta_a = taylor_eta(r, delta_a)
    eta_b = taylor_eta(r, delta_b)
    dtype = complex if isinstance(D, complex) else float
    T = np.zeros((r, r), dtype=dtype)
    # coefficient of dx^l dy^m in 1/(x-y): (-1)^l (l+m)! / D^(l+m+1),
    # divided by the eta scalings baked into the basis columns
    for l in range(r):
        for m in range(r - l):
            k = l + m
            T[l, m] = ((-1.0) ** l) * math.factorial(k) / (
                D ** (k + 1) * eta_a[l] * eta_b[m])
    return T


def taylor_bases(center_a, delta_a: float, center_b, delta_b: float,
                 pts_a, pts_b, r: int):
    """(U, T, V) with U T V^T approximating 1/(x-y) on a well-separated pair
    of boxes, given by their centers and radii; centers and points are
    scalars (complex for planar sets)."""
    U = taylor_basis(center_a, delta_a, np.asarray(pts_a), r)
    V = taylor_basis(center_b, delta_b, np.asarray(pts_b), r)
    T = taylor_coupling(center_a, delta_a, center_b, delta_b, r)
    return U, T, V


def taylor_tail_bound(tau: float, r: int) -> float:
    """Entrywise truncation bound (1 + tau) tau^r / (1 - tau), relative to the
    largest kernel value on the admissible block."""
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0, 1)")
    return (1 + tau) * tau ** r / (1 - tau)


# ---------------------------------------------------------------------------
# Dirichlet data of the double layer
# ---------------------------------------------------------------------------


def boundary_data(spec: KernelSpec, x0) -> np.ndarray:
    """log|z(t_j) - x0| at the double layer's nodes: the Dirichlet data of
    the harmonic function log|x - x0|, for a source x0 outside the curve."""
    if spec.kind != "laplace_dlp":
        raise ValueError("boundary data needs a laplace_dlp kernel")
    if winding_number(spec.curve, x0) != 0:
        raise ValueError("source point x0 must lie outside the curve")
    z = spec._dlp_data["z"]
    return np.log(np.hypot(z.real - x0[0], z.imag - x0[1]))


# ---------------------------------------------------------------------------
# max-norm reconstruction error
# ---------------------------------------------------------------------------


AMAX_SAMPLE = 10 ** 6


def amax_error(M, spec: KernelSpec, X, Y, budget: int = DENSE_BUDGET_DEFAULT,
               seed: int = 0):
    """Max-norm reconstruction error ||A - Ahat||_max.

    Exact within the dense budget; beyond it, estimated from enough seeded
    random full columns to cover AMAX_SAMPLE entries.  Either way the
    columns of Ahat come from applies to identity columns, a block at a
    time, against the same columns of A.  Returns (value, exact_flag).
    """
    n_row, n_col = M.shape
    exact = n_row * n_col <= budget
    cols = np.arange(n_col)
    if not exact:
        rng = np.random.default_rng(seed)
        k = max(1, min(n_col, -(-AMAX_SAMPLE // n_row)))
        cols = np.sort(rng.choice(n_col, size=k, replace=False))
    rows = np.arange(n_row)
    worst = 0.0
    for c, approx in M.column_blocks(cols):
        A = kernel_block(spec, X, Y, rows, c)
        worst = max(worst, float(np.max(np.abs(A - approx))))
    return worst, exact


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------


_REPS = 3
# seconds a batch of applies should take at least: a 1-d apply at the
# smallest size of criterion 2 takes a few milliseconds, and a shorter batch
# let scheduler noise push its doubling ratio past the bound
_TIMING_FLOOR = 0.2


def timed_median(fn):
    """Median wall time over three calls; returns (seconds, last result)."""
    ts, out = [], None
    for _ in range(_REPS):
        t0 = time.perf_counter()
        out = fn()
        ts.append(time.perf_counter() - t0)
    return float(np.median(ts)), out


def matvec_seconds(M, q) -> float:
    """Median per-apply time; repeats are batched past a timing floor, sized
    from a warm apply (the first one also fills the block rows)."""
    matvec_nodewise(M, q)
    t0 = time.perf_counter()
    matvec_nodewise(M, q)
    once = max(time.perf_counter() - t0, 1e-6)
    reps = max(1, math.ceil(_TIMING_FLOOR / once))

    def batch():
        for _ in range(reps):
            matvec_nodewise(M, q)

    t, _ = timed_median(batch)
    return t / reps


def doubling_ratios(ns, ts):
    """Growth ratios t2/t1 normalized to one size doubling per step."""
    out = []
    for (n1, t1), (n2, t2) in zip(zip(ns, ts), list(zip(ns, ts))[1:]):
        step = math.log2(n2 / n1)
        out.append((t2 / max(t1, 1e-12)) ** (1.0 / step))
    return out


# ---------------------------------------------------------------------------
# per-node HSS and H2 builds
# ---------------------------------------------------------------------------


def node_candidate(M, i: int, near, basis, side: str, omega=None):
    """(C, ibar) for compressing node i's rows ("row") or columns ("col")
    alone: the farfield basis over the node's labels ibar, next to the
    columns spanning its block against the nearfield neighbors' current
    labels to eps_svd (``range_columns``, which sketches a wide block
    against the test matrix omega; the column side takes that block
    transposed)."""
    skels = {"row": M.skel_row, "col": M.skel_col}
    other = "col" if side == "row" else "row"
    ibar = _intermediate(M.tree, i, skels[side], side)
    cand = [basis(np.array([i]), ibar[None])[0]]
    labels = [_intermediate(M.tree, j, skels[other], other) for j in near]
    labels = [x for x in labels if x.size]
    if labels and ibar.size:
        labels = np.concatenate(labels)
        Anear = (M._block(ibar, labels) if side == "row"
                 else M._block(labels, ibar).T)
        cand.append(range_columns(Anear, M.params.eps_svd, omega))
    return (cand[0] if len(cand) == 1 else np.hstack(cand)), ibar


def _build_per_node(cls, tree, kernel, X, Y, params, near):
    """A matrix of class cls with one farfield candidate call and one
    ``compr`` call per node and side, in level and node order, each on the
    node's own labels and its nearfield near[i]."""
    block = make_block_evaluator(kernel, X, Y, tree)
    M = cls(tree, params, block, *leaf_sets(tree, params.tau, cls.kind),
            kernel_dtype(kernel, X), kernel=kernel)
    brow = _basis_builder(tree, kernel, params, "row")
    bcol = (None if one_basis(cls.kind, tree, kernel)
            else _basis_builder(tree, kernel, params, "col"))
    # the build's test matrix, drawn whole: its entries do not depend on
    # the size drawn
    size = max(tree.n_row, tree.n_col)
    omega = lowrank.gaussian(size, size)
    for level in range(tree.n_levels, 1, -1):
        for i in tree.level_nodes(level):
            row = compr(*node_candidate(M, i, near[i], brow, "row", omega))
            M._store(i, row, row if bcol is None else compr(
                *node_candidate(M, i, near[i], bcol, "col", omega)))
    return M


@one_blas_thread()  # as the builds run: BLAS products round by thread count
def build_hss_per_node(tree, kernel: KernelSpec, X, Y,
                       params: BuildParams) -> HssMatrix:
    """``build_hss`` one node and side at a time (``_build_per_node``), with
    exact leaf diagonal blocks: the reference that the build by stacks
    must store bit for bit."""
    M = _build_per_node(HssMatrix, tree, kernel, X, Y, params,
                        nearfield_set(tree, params.tau))
    for i in tree.leaves():
        M.Dblocks[i] = M._block(tree.row_range(i), tree.col_range(i))
    return M


@one_blas_thread()
def build_h2_per_node(tree, kernel: KernelSpec, X, Y,
                      params: BuildParams) -> H2Matrix:
    """``build_h2`` one node and side at a time (``_build_per_node``), with
    no nearfield: the reference that the build by stacks of equal label
    counts must store bit for bit."""
    return _build_per_node(H2Matrix, tree, kernel, X, Y, params,
                           [()] * len(tree.nodes))
