"""Diagnostics and the timing harness of the acceptance tests.

Provides eps-ranks, the a-priori reconstruction bounds and the rank caps
they take, the max-norm reconstruction error, build parameters from a
``ParamChoice``, and median timings with their growth per size doubling.
Test modules import it the way they import ``conftest``.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from smash.apply import matvec_nodewise
from smash.bench import DENSE_BUDGET_DEFAULT, ParamChoice
from smash.hss import BuildParams
from smash.kernel import KernelSpec, kernel_block


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
