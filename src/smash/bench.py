"""Diagnostics and the quantitative studies behind the benchmark CLI.

Provides the parameter heuristic, eps-ranks, theoretical reconstruction
bounds, storage accounting, streaming dense oracles, and the five named
experiments whose rows mirror the result tables.
"""

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .apply import matvec_nodewise, ulv_factor, ulv_solve
from .cluster import PointSet, build_tree
from .container import stored_arrays
from .h2 import build_h2
from .hss import BuildParams, build_hss
from .kernel import (DENSE_BUDGET_DEFAULT, KernelSpec, assemble_dense,
                     boundary_data, evaluate_potential, get_curve,
                     kernel_block)

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

    def build_params(self, basis: str = None) -> BuildParams:
        return BuildParams(r=self.r, tau=self.tau, eps_svd=self.eps_svd,
                           basis=basis)


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


def max_rank(M) -> int:
    """Largest row or column skeleton size over the non-root nodes, 0 on a
    one-leaf tree."""
    return max((max(M.rank_row(i), M.rank_col(i)) for i in M.skel_row),
               default=0)


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
# storage accounting
# ---------------------------------------------------------------------------

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
    kept = sum(row.A.nbytes for row in M._rows.values())
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
    """Source/target point sets for the Cauchy experiments.

    interval: x_k = k/(n+1) with y a 1e-7-scale random right shift; curve
    geometries place x on the curve at the same parameters, with y either
    perturbed in parameter (honeybee) or shifted in the real coordinate.
    """
    t = np.arange(1, n + 1) / (n + 1)
    if geometry == "interval":
        x = t[:, None]
        y = x + 1e-7 * rng.random((n, 1))
        return PointSet(x), PointSet(y, role="col")
    crv = get_curve(geometry)
    x = crv.point(t)
    if geometry == "honeybee":
        y = crv.point(t + 1e-7 * rng.random(n))
    else:
        y = x.copy()
        y[:, 0] += 1e-7 * rng.random(n)
    return PointSet(x), PointSet(y, role="col")


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------


_REPS = 3
_TIMING_FLOOR = 0.05  # seconds a batch of applies should take at least


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
# experiment reports
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


@dataclass
class ExperimentReport:
    """Named experiment output: parameter echo plus one dict per table row."""

    name: str
    params: dict
    rows: list = field(default_factory=list)

    @property
    def columns(self):
        cols = []
        for row in self.rows:
            for k in row:
                if k not in cols:
                    cols.append(k)
        return cols

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=self.columns, lineterminator="\n")
        w.writeheader()
        for row in self.rows:
            w.writerow({k: _fmt(v) for k, v in row.items()})
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {"experiment": self.name, "params": self.params, "rows": self.rows},
            indent=2, default=float)

    def write(self, path, as_json: bool = False):
        with open(path, "w") as fh:
            fh.write(self.to_json() if as_json else self.to_csv())


# ---------------------------------------------------------------------------
# named experiments
# ---------------------------------------------------------------------------


def _exp_h2_matvec_scaling(sizes, seed, dense_budget):
    sizes = tuple(sizes or (1600, 6400))
    rows = []
    for n in sizes:
        m = math.isqrt(n)
        if m * m != n:
            raise ValueError("grid sizes must be perfect squares, got %d" % n)
        rng = np.random.default_rng([seed, n])
        pts = grid_points(m)
        spec = KernelSpec(kind="cauchy", dx=1.0)
        bp = BuildParams(r=22, tau=0.65)

        def construct():
            tree = build_tree(pts, nu0=50, mode="2d", tau=bp.tau)
            return build_h2(tree, spec, pts, pts, bp)

        t_constr, M = timed_median(construct)
        q = rng.random(n)
        t_matvec = matvec_seconds(M, q)
        z = matvec_nodewise(M, q)
        relerr, checked = matvec_relerr(spec, pts, pts, q, z,
                                        max(dense_budget, 10 ** 9), seed)
        rep = storage_report(M)
        rows.append(dict(n=n, relerr=relerr, relerr_rows=checked,
                         t_constr=t_constr,
                         t_matvec=t_matvec,
                         compressed_mib=as_mib(rep.compressed_bytes),
                         kept_mib=as_mib(rep.kept_bytes),
                         seed=seed, r=bp.r, tau=bp.tau))
    return ExperimentReport(
        "h2_matvec_scaling",
        dict(seed=seed, r=22, tau=0.65, nu0=50, kernel="cauchy", dx=1.0),
        rows)


def _exp_cauchy_solve(sizes, seed, dense_budget):
    sizes = tuple(sizes or (1600, 3200))
    bp = BuildParams(r=choose_params(1e-10, d=1).r, tau=0.6, eps_svd=1e-9)
    rows = []
    for gidx, geometry in enumerate(("interval", "honeybee", "snail")):
        for n in sizes:
            rng = np.random.default_rng([seed, n, gidx])
            X, Y = cauchy_pair(geometry, n, rng)
            w = rng.random((n, 2))
            v = rng.random((n, 2))
            spec = KernelSpec(kind="cauchy_like", w=w, v=v)
            tree = build_tree(X, Y, nu0=50, mode="binary", tau=bp.tau)
            t_constr, M = timed_median(
                lambda: build_hss(tree, spec, X, Y, bp))
            u = rng.random(n)
            b = dense_matvec(spec, X, Y, u)
            t_sol, uh = timed_median(lambda: ulv_solve(ulv_factor(M), b))
            forward = rel_error(uh, u)
            residual = rel_error(dense_matvec(spec, X, Y, uh), b)
            rows.append(dict(curve=geometry, n=n, forward=forward,
                             residual=residual, t_constr=t_constr,
                             t_sol=t_sol, seed=seed, r=bp.r, tau=bp.tau))
    return ExperimentReport(
        "cauchy_solve",
        dict(seed=seed, r=bp.r, tau=bp.tau, eps_svd=bp.eps_svd, nu0=50, p=2),
        rows)


_DIRICHLET_CASES = (
    ("ramhead", (160, 320, 640), (0.1, 0.1)),
    ("sunflower", (640, 1280, 2560, 5120), (1.5, 0.0)),
)
_SOURCE_POINT = (2.0, 1.5)


def _exp_laplace_dirichlet(sizes, seed, dense_budget):
    bp = BuildParams(r=25, tau=0.6, eps_svd=1e-11, basis="interp")
    x0 = np.asarray(_SOURCE_POINT)
    rows = []
    for curve_name, default_ns, xstar in _DIRICHLET_CASES:
        crv = get_curve(curve_name)
        xs = np.asarray(xstar)
        exact = math.log(math.hypot(xs[0] - x0[0], xs[1] - x0[1]))
        for n in tuple(sizes or default_ns):
            spec = KernelSpec(kind="laplace_dlp", curve=crv, nq=n)
            pts = curve_points(curve_name, n)

            def construct():
                tree = build_tree(pts, nu0=50, mode="binary", tau=bp.tau)
                return build_hss(tree, spec, pts, pts, bp)

            t_constr, M = timed_median(construct)
            rhs = boundary_data(spec, x0)
            t_sol, sigma = timed_median(lambda: ulv_solve(ulv_factor(M), rhs))
            uh = evaluate_potential(crv, sigma, xs)
            val, is_exact = amax_error(M, spec, None, None, dense_budget,
                                       seed=seed)
            amax = val if is_exact else None
            amax_est = None if is_exact else val
            cond = None
            if n <= 1280 and n * n <= dense_budget:
                sig = sla.svdvals(assemble_dense(spec, None, None,
                                                 budget=dense_budget))
                cond = float(sig[0] / sig[-1])
            rows.append(dict(curve=curve_name, n=n,
                             pot_err=abs(uh - exact), cond=cond, amax=amax,
                             amax_est=amax_est, t_constr=t_constr,
                             t_sol=t_sol, seed=seed, r=bp.r, tau=bp.tau))
    return ExperimentReport(
        "laplace_dirichlet",
        dict(seed=seed, r=25, tau=0.6, eps_svd=1e-11, nu0=50,
             x0=list(_SOURCE_POINT)),
        rows)


_RANK_CASES = (("ramhead", 1280), ("sunflower", 2560))


def _exp_rank_study(sizes, seed, dense_budget):
    eps_list = (1e-3, 1e-6, 1e-10)
    rows = []
    nu0 = 50
    for curve_name, n_default in _RANK_CASES:
        for n in tuple(sizes or (n_default,)):
            if n <= nu0:
                raise ValueError("rank_study needs n above its leaf cap %d to "
                                 "split the root in two; got n = %d"
                                 % (nu0, n))
            crv = get_curve(curve_name)
            spec = KernelSpec(kind="laplace_dlp", curve=crv, nq=n)
            pts = curve_points(curve_name, n)
            tree = build_tree(pts, nu0=nu0, mode="binary", tau=0.6)
            c1, c2 = tree.nodes[tree.root].children
            block = kernel_block(spec, None, None,
                                 tree.perm_row[tree.row_range(c1)],
                                 tree.perm_col[tree.col_range(c2)])
            for eps in eps_list:
                pc = choose_params(eps, d=1)
                M = build_hss(tree, spec, pts, pts,
                              pc.build_params(basis="interp"))
                rows.append(dict(curve=curve_name, n=n, eps=eps,
                                 r_eps=eps_rank(block, eps),
                                 size_bi=max_rank(M),
                                 r=pc.r, eps_svd=pc.eps_svd, seed=seed))
    return ExperimentReport(
        "rank_study", dict(seed=seed, tau=0.6, nu0=nu0, eps=list(eps_list)),
        rows)


def _exp_storage_study(sizes, seed, dense_budget):
    bp = BuildParams(r=25, tau=0.6, eps_svd=1e-11, basis="interp")
    rows = []
    for curve_name in ("ramhead", "sunflower"):
        for n in tuple(sizes or (2560,)):
            crv = get_curve(curve_name)
            spec = KernelSpec(kind="laplace_dlp", curve=crv, nq=n)
            pts = curve_points(curve_name, n)
            tree = build_tree(pts, nu0=50, mode="binary", tau=bp.tau)
            M = build_hss(tree, spec, pts, pts, bp)
            rep = storage_report(M)
            rows.append(dict(
                curve=curve_name, n=n,
                smash_mib=as_mib(rep.compressed_bytes),
                hss0_mib=as_mib(rep.generator_bytes),
                dense_mib=as_mib(rep.dense_bytes),
                ratio_generators=rep.compressed_bytes / rep.generator_bytes,
                ratio_dense=rep.compressed_bytes / rep.dense_bytes,
                seed=seed, r=bp.r, tau=bp.tau))
    return ExperimentReport(
        "storage_study",
        dict(seed=seed, r=25, tau=0.6, eps_svd=1e-11, nu0=50), rows)


_EXPERIMENTS = {
    "h2_matvec_scaling": _exp_h2_matvec_scaling,
    "cauchy_solve": _exp_cauchy_solve,
    "laplace_dirichlet": _exp_laplace_dirichlet,
    "rank_study": _exp_rank_study,
    "storage_study": _exp_storage_study,
}


def run_experiment(name: str, sizes=None, seed: int = 0,
                   dense_budget: int = DENSE_BUDGET_DEFAULT) -> ExperimentReport:
    """Run a named experiment and return its report."""
    try:
        fn = _EXPERIMENTS[name]
    except KeyError:
        raise ValueError("unknown experiment %r; expected one of %s"
                         % (name, ", ".join(sorted(_EXPERIMENTS))))
    return fn(sizes, seed, dense_budget)
