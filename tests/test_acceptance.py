"""Acceptance gate: one test per benchmark criterion, each printing the
measured quantities behind its verdict.  Sizes and tolerances are fixed; a
failure here means the library misses a headline target, not that a unit
broke (the module tests cover those)."""

import math
import time

import numpy as np
import pytest
import scipy.linalg as sla

import smash
from smash import bench
from smash.apply import (matvec_levelwise, matvec_nodewise, ulv_factor,
                         ulv_solve)
from smash.bench import (as_mib, cauchy_pair, choose_params, curve_points,
                         dense_matvec, grid_points, storage_report)
from smash.cluster import build_tree
from smash.h2 import build_h2
from smash.hss import BuildParams, build_hss, cauchy_like_hss
from smash.kernel import (KernelSpec, evaluate_potential, get_curve,
                          kernel_block)
from smash.lowrank import (compr, srrqr, taylor_bases, taylor_tail_bound)

from conftest import build_interval_hss, center_radius, dense_oracle
from diagnostics import (BoundInputs, amax_error, build_params,
                         doubling_ratios, eps_rank, error_bound,
                         matvec_seconds, rank_caps, timed_median)

norm = np.linalg.norm


def _grid_h2(m, r=22, tau=0.65):
    X = grid_points(m)
    spec = KernelSpec("cauchy", dx=1.0)
    tree = build_tree(X, nu0=50, mode="2d", tau=tau)
    return build_h2(tree, spec, X, X, BuildParams(r=r, tau=tau)), spec, X


def _boundary_hss(curve_name, n, params):
    crv = get_curve(curve_name)
    spec = KernelSpec("laplace_dlp", curve=crv, nq=n)
    pts = curve_points(curve_name, n)
    tree = build_tree(pts, nu0=50, tau=params.tau)
    return build_hss(tree, spec, pts, pts, params), spec, crv


def _solve_dirichlet(curve_name, n, x_eval, params):
    """Potential error at x_eval for boundary data from a point source."""
    M, spec, crv = _boundary_hss(curve_name, n, params)
    x0 = np.array([2.0, 1.5])
    r = crv.point(spec.dlp_nodes())
    rhs = np.log(np.hypot(r[:, 0] - x0[0], r[:, 1] - x0[1]))
    sigma = ulv_solve(ulv_factor(M), rhs)
    uh = evaluate_potential(crv, sigma, np.asarray(x_eval))
    exact = math.log(math.hypot(x_eval[0] - x0[0], x_eval[1] - x0[1]))
    return abs(uh - exact), M, spec


# ---------------------------------------------------------------------------
# 1: planar grid matvec accuracy
# ---------------------------------------------------------------------------

def test_criterion_1_grid_matvec_accuracy():
    t0 = time.perf_counter()
    errs = {}
    for m in (40, 80):
        n = m * m
        M, spec, X = _grid_h2(m)
        q = np.random.default_rng(n).random(n)
        z = matvec_nodewise(M, q)
        zd = dense_matvec(spec, X, X, q)
        errs[n] = float(norm(z - zd) / norm(zd))
    elapsed = time.perf_counter() - t0
    print("criterion 1: relerr(1600)=%.3e relerr(6400)=%.3e elapsed=%.1fs"
          % (errs[1600], errs[6400], elapsed))
    assert errs[1600] <= 1e-10
    assert errs[6400] <= 1e-10
    assert elapsed <= 60.0


# ---------------------------------------------------------------------------
# 2: construction and matvec scale linearly
# ---------------------------------------------------------------------------

def test_criterion_2_linear_scaling():
    pc = choose_params(1e-8, d=1)
    spec1 = KernelSpec("cauchy")
    ns1 = (1600, 3200, 6400, 12800)
    tc1, tm1 = [], []
    for n in ns1:
        rng = np.random.default_rng(n)
        X, Y = cauchy_pair("interval", n, rng)

        def construct():
            tree = build_tree(X, Y, nu0=50, tau=pc.tau)
            return build_hss(tree, spec1, X, Y, build_params(pc))

        t, M = timed_median(construct)
        tc1.append(t)
        tm1.append(matvec_seconds(M, rng.random(n)))

    ns2 = (1600, 6400)
    tc2, tm2 = [], []
    for n in ns2:
        def construct2():
            return _grid_h2(math.isqrt(n))[0]

        t, M = timed_median(construct2)
        tc2.append(t)
        tm2.append(matvec_seconds(M, np.random.default_rng(n).random(n)))

    rc1 = float(np.median(doubling_ratios(ns1, tc1)))
    rm1 = float(np.median(doubling_ratios(ns1, tm1)))
    rc2 = float(np.median(doubling_ratios(ns2, tc2)))
    rm2 = float(np.median(doubling_ratios(ns2, tm2)))
    print("criterion 2: construction ratios 1d=%.2f 2d=%.2f, "
          "matvec ratios 1d=%.2f 2d=%.2f" % (rc1, rc2, rm1, rm2))
    assert 1.5 <= rc1 <= 3.2
    assert 1.5 <= rc2 <= 3.2
    assert 1.5 <= rm1 <= 3.0
    assert 1.5 <= rm2 <= 3.0


# ---------------------------------------------------------------------------
# 3: structured solve with random generators
# ---------------------------------------------------------------------------

def test_criterion_3_cauchy_like_solve():
    bp = BuildParams(r=choose_params(1e-10, d=1).r, tau=0.6, eps_svd=1e-9)
    report = []
    for gidx, geometry in enumerate(("interval", "honeybee", "snail")):
        for n in (1600, 3200):
            rng = np.random.default_rng([gidx, n])
            X, Y = cauchy_pair(geometry, n, rng)
            w = rng.random((n, 2))
            v = rng.random((n, 2))
            spec = KernelSpec("cauchy_like", w=w, v=v)
            tree = build_tree(X, Y, nu0=50, tau=bp.tau)
            M = cauchy_like_hss(tree, X, Y, w, v, bp)
            u = rng.random(n)
            b = dense_matvec(spec, X, Y, u)
            x = ulv_solve(ulv_factor(M), b)
            residual = float(norm(dense_matvec(spec, X, Y, x) - b) / norm(b))
            forward = float(norm(x - u) / norm(u))
            report.append("%s/%d residual=%.2e forward=%.2e"
                          % (geometry, n, residual, forward))
            assert residual <= 1e-9
            if geometry == "interval":
                assert forward <= 1e-7
    print("criterion 3: " + "; ".join(report))


# ---------------------------------------------------------------------------
# 4: boundary problem on the ram head curve
# ---------------------------------------------------------------------------

def test_criterion_4_ramhead_dirichlet():
    bp = BuildParams(r=25, tau=0.6, eps_svd=1e-11, basis="interp")
    errs, amaxes = [], []
    for n in (160, 320, 640):
        err, M, spec = _solve_dirichlet("ramhead", n, (0.1, 0.1), bp)
        errs.append(err)
        val, is_exact = amax_error(M, spec, None, None)
        assert is_exact
        amaxes.append(val)
    print("criterion 4: pot_err=%s amax=%.2e"
          % (["%.2e" % e for e in errs], max(amaxes)))
    assert errs[2] <= 1e-9
    assert errs[0] / errs[2] >= 1e3
    assert max(amaxes) <= 1e-7


# ---------------------------------------------------------------------------
# 5: convergence on the sunflower curve
# ---------------------------------------------------------------------------

def test_criterion_5_sunflower_convergence():
    t0 = time.perf_counter()
    bp = BuildParams(r=25, tau=0.6, eps_svd=1e-11, basis="interp")
    errs = []
    for n in (640, 1280, 2560, 5120):
        err, _, _ = _solve_dirichlet("sunflower", n, (1.5, 0.0), bp)
        errs.append(err)
    elapsed = time.perf_counter() - t0
    print("criterion 5: pot_err=%s elapsed=%.0fs"
          % (["%.2e" % e for e in errs], elapsed))
    assert errs[1] >= errs[2] >= errs[3]
    assert errs[3] <= 1e-8
    assert elapsed <= 600.0


# ---------------------------------------------------------------------------
# 6: skeleton sizes track the optimal eps-rank
# ---------------------------------------------------------------------------

def test_criterion_6_near_optimal_ranks():
    n = 1280
    crv = get_curve("ramhead")
    spec = KernelSpec("laplace_dlp", curve=crv, nq=n)
    pts = curve_points("ramhead", n)
    tree = build_tree(pts, nu0=50, tau=0.6)
    c1, c2 = tree.nodes[tree.root].children
    block = kernel_block(spec, None, None,
                         tree.perm_row[tree.row_range(c1)],
                         tree.perm_col[tree.col_range(c2)])
    sig = np.linalg.svd(block, compute_uv=False)
    report = []
    for eps, expected in ((1e-3, 13), (1e-6, 25)):
        oracle = int(np.count_nonzero(sig >= eps * sig[0]))
        got = eps_rank(block, eps)
        pc = choose_params(eps, d=1)
        M = build_hss(tree, spec, pts, pts, build_params(pc, basis="interp"))
        size_bi = max(max(M.rank_row(i), M.rank_col(i))
                      for i in M.skel_row if i != tree.root)
        report.append("eps=%g r_eps=%d size_bi=%d" % (eps, got, size_bi))
        assert got == oracle == expected
        assert size_bi <= 2 * oracle + 10
    print("criterion 6: " + "; ".join(report))


# ---------------------------------------------------------------------------
# 7: storage reduction against generator and dense forms
# ---------------------------------------------------------------------------

# Dense bytes grow as n^2 and the compressed form about linearly, so the 5%
# dense target is stated at n = 10240 (800 MiB of dense doubles).
@pytest.mark.parametrize("curve_name", ["ramhead", "sunflower"])
def test_criterion_7_storage_reduction(curve_name):
    n = 10240
    bp = BuildParams(r=25, tau=0.6, eps_svd=1e-11, basis="interp")
    M, _, _ = _boundary_hss(curve_name, n, bp)
    rep = storage_report(M)
    vs_gen = rep.compressed_bytes / rep.generator_bytes
    vs_dense = rep.compressed_bytes / rep.dense_bytes
    verdict = ("criterion 7 (%s, n=%d): compressed=%.2f MiB generator=%.2f "
               "MiB dense=%.2f MiB compressed/generator=%.3f "
               "compressed/dense=%.3f"
               % (curve_name, n, as_mib(rep.compressed_bytes),
                  as_mib(rep.generator_bytes), as_mib(rep.dense_bytes),
                  vs_gen, vs_dense))
    print(verdict)
    assert vs_gen <= 0.6, verdict
    assert vs_dense <= 0.05, verdict


# ---------------------------------------------------------------------------
# 8: property suites
# ---------------------------------------------------------------------------

def test_criterion_8a_bounded_interpolation_entries():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        A = rng.standard_normal((20, 12))
        res = srrqr(A, k=6)
        W = sla.solve_triangular(res.R11, res.R12, lower=False)
        worst = max(worst, float(np.max(np.abs(W))))
    print("criterion 8a: max coefficient %.4f over 1000 draws" % worst)
    assert worst <= 2.0 + 1e-9


def test_criterion_8b_exact_rank_compression():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(8, 40))
        k = int(rng.integers(1, 6))
        ncol = int(rng.integers(k, 30))
        C = rng.standard_normal((m, k)) @ rng.standard_normal((k, ncol))
        fac = compr(C, np.arange(m))
        worst = max(worst, float(norm(fac.expand() @ C[fac.skel_local] - C)
                                 / norm(C)))
    print("criterion 8b: worst relative reconstruction %.2e" % worst)
    assert worst <= 1e-10


@pytest.mark.parametrize("r", [5, 10, 20])
def test_criterion_8c_farfield_expansion_bound(r):
    rng = np.random.default_rng(r)
    for _ in range(100):
        ca = rng.uniform(-5, 5)
        da = rng.uniform(0.1, 1.0)
        db = rng.uniform(0.1, 1.0)
        tau = rng.uniform(0.3, 0.65)
        cb = ca + (da + db) / tau * rng.choice([-1.0, 1.0])
        box_a = center_radius((ca - da,), (ca + da,))
        box_b = center_radius((cb - db,), (cb + db,))
        xs = rng.uniform(ca - da, ca + da, 15)
        ys = rng.uniform(cb - db, cb + db, 15)
        U, T, V = taylor_bases(*box_a, *box_b, xs, ys, r)
        err = np.max(np.abs(U @ T @ V.T - 1.0 / (xs[:, None] - ys[None, :]))
                     * np.abs(xs[:, None] - ys[None, :]))
        assert err <= taylor_tail_bound(tau, r) * 1.000001


def test_criterion_8d_reconstruction_below_analytic_bounds():
    margins = []
    for n in (256, 512, 1024):
        M, spec, X, Y = build_interval_hss(n)
        A = dense_oracle(spec, X, Y)
        err = norm(M.todense() - A) / norm(A)
        inputs = BoundInputs(ranks=rank_caps(M), L=M.tree.n_levels,
                             eps_svd=M.params.eps_svd,
                             eps_far=taylor_tail_bound(M.params.tau,
                                                       M.params.r))
        b = error_bound(inputs, structure="hss")
        assert err <= b.corollary
        margins.append(err / b.corollary)
    for m in (16, 32):
        M, spec, X = _grid_h2(m)
        A = kernel_block(spec, X, X, np.arange(X.n), np.arange(X.n))
        err = norm(M.todense() - A) / norm(A)
        inputs = BoundInputs(ranks=rank_caps(M), L=M.tree.n_levels,
                             eps_svd=M.params.eps_svd,
                             eps_far=taylor_tail_bound(M.params.tau,
                                                       M.params.r),
                             d=2)
        b = error_bound(inputs, structure="h2")
        assert err <= b.corollary
        margins.append(err / b.corollary)
    print("criterion 8d: worst error/bound ratio %.2e" % max(margins))


def test_criterion_8e_levelwise_matches_nodewise():
    M, _, _, _ = build_interval_hss(512)
    q = np.random.default_rng(3).random(512)
    a = matvec_nodewise(M, q)
    assert norm(matvec_levelwise(M, q) - a) <= 1e-14 * norm(a)

    H, _, _ = _grid_h2(16)
    q = np.random.default_rng(4).random(256)
    a = matvec_nodewise(H, q)
    assert norm(matvec_levelwise(H, q) - a) <= 1e-14 * norm(a)


def test_criterion_8f_algebra_matches_dense():
    M, spec, X, Y = build_interval_hss(256)
    A = dense_oracle(spec, X, Y)
    rng = np.random.default_rng(6)
    dl = 0.5 + rng.random(256)
    dr = 0.5 + rng.random(256)
    S = smash.diag_scale(M, dl, dr)
    As = dl[:, None] * A * dr[None, :]
    assert norm(S.todense() - As) <= 1e-10 * norm(As)
    T = smash.hss_add(M, S)
    assert norm(T.todense() - (A + As)) <= 1e-10 * norm(A + As)
