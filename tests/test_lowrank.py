"""Taylor and interpolation farfield bases, rank-revealing QR with the
bounded-coefficient guarantee and its direct LAPACK calls, interpolative row
compression, truncated SVD, and the range columns that replace it."""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import smash
from smash import bench, container, lowrank
from smash.lowrank import (compr, interp_basis, range_columns, srrqr,
                           taylor_bases, taylor_coupling, taylor_eta,
                           taylor_tail_bound, truncated_svd)

from conftest import center_radius


# ---------------------------------------------------------------------------
# Taylor farfield expansion
# ---------------------------------------------------------------------------

def test_zeroth_scaling_factor_is_one():
    for delta in (0.1, 0.5, 3.0):
        assert taylor_eta(8, delta)[0] == 1.0


@pytest.mark.filterwarnings("error")
def test_scaling_past_the_double_range_is_refused_naming_order_and_radius():
    # eta_159 on a box of radius 0.06 is about 1e440
    with pytest.raises(ValueError, match=r"order r = 160 .* radius 0\.06;"):
        taylor_eta(160, 0.06)
    assert np.isfinite(taylor_eta(171, 3.0)).all()


def test_zeroth_coupling_coefficient_is_inverse_center_gap():
    ca, cb = 0.5, 2.5
    T = taylor_coupling(ca, 0.5, cb, 0.5, 6)
    assert T[0, 0] == pytest.approx(1.0 / (ca - cb), rel=1e-15)


def test_coupling_table_is_anti_triangular():
    r = 7
    T = taylor_coupling(0.0, 0.5, 3.0, 0.5, r)
    for l in range(r):
        for m in range(r):
            if l + m > r - 1:
                assert T[l, m] == 0.0


def test_taylor_expansion_meets_entrywise_tail_bound():
    # unit intervals two apart give separation ratio 0.5; the truncation
    # error of the degree-r expansion is then (1 + tau) tau^r / (1 - tau)
    # relative to the kernel value
    rng = np.random.default_rng(11)
    box_a = center_radius((0.0,), (1.0,))
    box_b = center_radius((2.0,), (3.0,))
    r = 10
    bound = taylor_tail_bound(0.5, r)
    assert bound == pytest.approx(3.0 * 2.0 ** -10)
    xs = rng.random(20)
    ys = 2.0 + rng.random(20)
    U, T, V = taylor_bases(*box_a, *box_b, xs, ys, r)
    approx = U @ T @ V.T
    exact = 1.0 / (xs[:, None] - ys[None, :])
    relerr = np.max(np.abs(approx - exact) / np.abs(exact))
    assert relerr <= bound


@pytest.mark.parametrize("r", [5, 10, 20])
def test_taylor_bound_holds_on_random_separated_boxes(r):
    rng = np.random.default_rng(r)
    for _ in range(100):
        ca = rng.uniform(-5, 5)
        da = rng.uniform(0.1, 1.0)
        # place b so that da + db = tau * |ca - cb| with tau in (0.3, 0.65)
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


def test_taylor_basis_entries_stay_order_one():
    # the eta scaling keeps basis columns from exploding or vanishing, which
    # is what makes the later interpolative step numerically safe
    box = center_radius((0.0,), (1.0,))
    pts = np.linspace(0.0, 1.0, 50)
    for r in (5, 15, 30):
        U, _, _ = taylor_bases(*box, *center_radius((3.0,), (4.0,)), pts,
                               pts + 3.0, r)
        mags = np.abs(U)
        assert mags.max() <= 1.5
        assert mags[:, -1].max() > 1e-3


@pytest.mark.parametrize("r", [1, 2, 22])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_taylor_basis_matches_its_formula_bitwise(r, complex_):
    # the factorials and the order-only part of eta come from a cache; the
    # columns must be those of the formula evaluated afresh, bit for bit
    rng = np.random.default_rng(r)
    pts = rng.random(9) + (1j * rng.random(9) if complex_ else 0)
    center, delta = (0.4 + 0.5j if complex_ else 0.4), 0.7
    ls = np.arange(r, dtype=float)
    base = (ls / math.e) * (2 * math.pi * r) ** (1.0 / (2 * r)) / delta
    eta = np.ones(r)
    eta[1:] = base[1:] ** ls[1:]
    dz = (pts - center)[:, None]
    pows = np.ones((pts.size, r), dtype=dz.dtype)
    if r > 1:
        pows[:, 1:] = np.cumprod(np.repeat(dz, r - 1, axis=1), axis=1)
    fact = np.array([math.factorial(l) for l in range(r)], dtype=float)
    ref = pows * (eta / fact)[None, :]
    for _ in range(2):  # the second call reads the cache
        got = lowrank.taylor_basis(center, delta, pts, r)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert taylor_eta(r, delta).tobytes() == eta.tobytes()


def test_planar_points_use_complex_arithmetic():
    box_a = center_radius((0.0, 0.0), (1.0, 1.0))
    box_b = center_radius((4.0, 4.0), (5.0, 5.0))
    za = np.array([0.2 + 0.3j, 0.8 + 0.1j])
    zb = np.array([4.5 + 4.5j])
    U, T, V = taylor_bases(*box_a, *box_b, za, zb, 12)
    exact = 1.0 / (za[:, None] - zb[None, :])
    np.testing.assert_allclose(U @ T @ V.T, exact, rtol=1e-8)


# ---------------------------------------------------------------------------
# interpolation basis
# ---------------------------------------------------------------------------

def test_interpolation_rows_sum_to_one():
    box = ((0.0,), (2.0,))
    pts = np.random.default_rng(0).uniform(0, 2, 40).reshape(-1, 1)
    U = interp_basis(*box, pts, 9)
    np.testing.assert_allclose(U.sum(axis=1), 1.0, atol=1e-10)


def test_point_on_interpolation_node_gives_unit_row():
    box = ((0.0,), (2.0,))
    probe = interp_basis(*box, np.array([[0.5]]), 7)
    # recover the node grid from the cardinality property: evaluating at a
    # node must return a one-hot row
    node_rows = interp_basis(*box, np.array([[1.0]]), 7)
    assert probe.shape == (1, 7)
    # rows evaluated exactly on nodes appear when we feed the Chebyshev
    # nodes themselves back in
    from smash.lowrank import _cheb_nodes
    nodes = _cheb_nodes(0.0, 2.0, 7).reshape(-1, 1)
    eye = interp_basis(*box, nodes, 7)
    np.testing.assert_allclose(eye, np.eye(7), atol=1e-12)


def test_interpolation_reproduces_low_degree_polynomials():
    box = ((-1.0,), (1.0,))
    r = 8
    from smash.lowrank import _cheb_nodes
    nodes = _cheb_nodes(-1.0, 1.0, r)
    pts = np.linspace(-1, 1, 33).reshape(-1, 1)
    U = interp_basis(*box, pts, r)
    # kernel kappa(x, y) = x^(r-1) * y is degree r-1 in x
    y = 0.37
    exact = pts[:, 0] ** (r - 1) * y
    approx = U @ (nodes ** (r - 1) * y)
    np.testing.assert_allclose(approx, exact, atol=1e-12)


def test_planar_interpolation_keeps_r_columns():
    box = ((0.0, 0.0), (1.0, 1.0))
    pts = np.random.default_rng(1).random((10, 2))
    for r in (4, 9, 22):
        assert interp_basis(*box, pts, r).shape == (10, r)
    # an untrimmed tensor grid (r a perfect square) is a partition of unity
    U = interp_basis(*box, pts, 9)
    np.testing.assert_allclose(U.sum(axis=1), 1.0, atol=1e-10)


# ---------------------------------------------------------------------------
# strong rank-revealing QR
# ---------------------------------------------------------------------------

def test_identity_needs_no_swaps():
    res = srrqr(np.eye(6), k=6)
    assert res.rank == 6
    assert res.R12.shape[1] == 0
    np.testing.assert_array_equal(np.sort(res.perm), np.arange(6))


def test_rank_one_matrix_detected():
    rng = np.random.default_rng(4)
    u, v = rng.random(10), rng.random(10)
    M = np.outer(u, v)
    res = srrqr(M, k=1)
    assert res.rank == 1
    assert np.max(np.abs(res.R22)) <= 1e-12 * np.max(np.abs(M))
    W = sla.solve_triangular(res.R11, res.R12, lower=False)
    assert np.max(np.abs(W)) <= 2.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_interpolation_coefficients_bounded_by_s(seed):
    M = np.random.default_rng(seed).standard_normal((20, 12))
    res = srrqr(M, k=6)
    W = sla.solve_triangular(res.R11, res.R12, lower=False)
    assert np.max(np.abs(W)) <= 2.0 + 1e-12


def test_factorization_reassembles_input():
    rng = np.random.default_rng(9)
    M = rng.standard_normal((15, 10))
    res = srrqr(M)
    R = np.block([[res.R11, res.R12],
                  [np.zeros((res.R22.shape[0], res.rank)), res.R22]])
    Qfull, Rfull = sla.qr(M[:, res.perm], mode="economic")
    np.testing.assert_allclose(np.abs(Rfull), np.abs(R), atol=1e-10)


def test_empty_matrix_handled():
    res = srrqr(np.empty((0, 5)))
    assert res.rank == 0


# ---------------------------------------------------------------------------
# the direct LAPACK calls against scipy.linalg.qr
# ---------------------------------------------------------------------------

def _scipy_srrqr(M, k=None):
    """srrqr with every factorization through scipy.linalg.qr: the
    reference the direct geqp3 and geqrf calls must match bit for bit."""
    M = np.asarray(M)
    m, n = M.shape
    kmax = min(m, n)
    if kmax == 0:
        e = np.empty((0, n), dtype=M.dtype)
        return lowrank.SrrqrResult(np.arange(n), e[:, :0], e, M.copy(), e, 0, 0)
    R, piv = sla.qr(M, mode="r", pivoting=True)
    R = R[:kmax]
    k = kmax if k is None else min(k, kmax)
    d = np.abs(np.diag(R))
    k = int(min(k, np.count_nonzero(d > lowrank._DEFICIENCY_RTOL * d[0])))
    swaps = 0
    while True:
        W = (sla.solve_triangular(R[:k, :k], R[:k, k:], lower=False)
             if 0 < k < n else np.empty((k, n - k), dtype=R.dtype))
        if W.size == 0 or np.max(np.abs(W)) <= lowrank._SWAP_BOUND:
            break
        i, j = np.unravel_index(np.argmax(np.abs(W)), W.shape)
        piv = piv.copy()
        piv[i], piv[k + j] = piv[k + j], piv[i]
        R = sla.qr(M[:, piv], mode="r")[0][:kmax]
        swaps += 1
    return lowrank.SrrqrResult(piv, R[:k, :k], R[:k, k:], R[k:, k:], W, k,
                               swaps)


def _kahan(n, c=0.3):
    """Kahan's matrix, its diagonal nudged so that column pivoting keeps
    the given order: the pivoted QR leaves a large R11^{-1} R12 entry, and
    so the swap loop has work to do."""
    s = np.sqrt(1 - c * c)
    R = np.diag(s ** np.arange(n)) @ (np.eye(n) + np.triu(-c * np.ones((n, n)), 1))
    return R + np.diag(1e3 * np.finfo(float).eps * (n - np.arange(n)))


def _qr_inputs():
    rng = np.random.default_rng(21)

    def draw(m, n, complex_=False):
        M = rng.standard_normal((m, n))
        return M + 1j * rng.standard_normal((m, n)) if complex_ else M

    return {
        "real-tall": draw(22, 16), "real-wide": draw(16, 40),
        "real-square": draw(12, 12), "complex-tall": draw(22, 16, True),
        "complex-wide": draw(22, 88, True), "complex-square": draw(9, 9, True),
        "rank-deficient": draw(20, 3) @ draw(3, 14),
        "complex-rank-deficient": draw(14, 2, True) @ draw(2, 25, True),
        "one-row": draw(1, 7), "one-column": draw(9, 1, True),
        "zeros": np.zeros((6, 4)),
        # a transposed view, the layout compr hands over
        "transposed-view": draw(30, 22, True).T,
        # past LAPACK's crossover to blocked code, where the workspace
        # size sets the blocking and so the bits
        "blocked": draw(150, 170),
    }


@pytest.mark.parametrize("case", sorted(_qr_inputs()))
def test_direct_qr_calls_match_scipy_qr_bitwise(case):
    M = _qr_inputs()[case]
    kmax = min(M.shape)
    R, piv = lowrank._qr_r(M, kmax, pivoting=True)
    R_ref, piv_ref = sla.qr(M, mode="r", pivoting=True)
    assert piv.dtype == piv_ref.dtype and np.array_equal(piv, piv_ref)
    assert R.dtype == R_ref.dtype and R.shape == (kmax, M.shape[1])
    assert R.tobytes() == np.ascontiguousarray(R_ref[:kmax]).tobytes()
    R = lowrank._qr_r(M, kmax, pivoting=False)
    R_ref = sla.qr(M, mode="r")[0][:kmax]
    assert R.tobytes() == np.ascontiguousarray(R_ref).tobytes()


@pytest.mark.parametrize("case", sorted(_qr_inputs()))
def test_direct_triangular_solve_matches_scipy_bitwise(case):
    M = _qr_inputs()[case]
    R = lowrank._qr_r(M, min(M.shape), pivoting=True)[0]
    # k = 1 gives an F-ordered R11 as well, which scipy solves untransposed
    ks = {k for k in (1, R.shape[0] // 2, R.shape[0]) if 0 < k < M.shape[1]}
    for k in sorted(ks):
        if np.abs(np.diag(R))[k - 1] == 0:
            continue
        W = lowrank._solve_r11(R, k)
        ref = sla.solve_triangular(R[:k, :k], R[:k, k:], lower=False)
        assert W.dtype == ref.dtype and W.shape == ref.shape, k
        assert W.tobytes() == ref.tobytes(), k


def _srrqr_cases():
    cases = {name: (M, None) for name, M in _qr_inputs().items()}
    cases["kahan-swaps"] = (_kahan(20), 19)
    cases["complex-kahan-swaps"] = (_kahan(30) * np.exp(0.7j), 15)
    cases["tall-rank-cap"] = (_qr_inputs()["real-tall"], 6)
    return cases


@pytest.mark.parametrize("case", sorted(_srrqr_cases()))
def test_srrqr_matches_the_scipy_reference_bitwise(case):
    M, k = _srrqr_cases()[case]
    got, ref = srrqr(M, k), _scipy_srrqr(M, k)
    assert (got.rank, got.swaps) == (ref.rank, ref.swaps)
    if case.endswith("swaps"):
        assert got.swaps > 0
    np.testing.assert_array_equal(got.perm, ref.perm)
    for name in ("R11", "R12", "R22", "W"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        # the layout picks solve_triangular's LAPACK path, so it must agree
        assert (a.flags.c_contiguous, a.flags.f_contiguous) == (
            b.flags.c_contiguous, b.flags.f_contiguous), name
        assert (np.ascontiguousarray(a).tobytes()
                == np.ascontiguousarray(b).tobytes()), name


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_srrqr_refuses_non_finite_input(bad, complex_):
    M = np.random.default_rng(3).standard_normal((8, 5)) * (1 + 1j * complex_)
    M[4, 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        srrqr(M)
    with pytest.raises(ValueError, match="infs or NaNs"):
        compr(M, np.arange(8))


def _stored_bytes(M):
    return [(name, arr.dtype.str, arr.shape, arr.tobytes())
            for name, arr in container.stored_arrays(M)]


def _grid_h2():
    X = bench.grid_points(32)
    tree = smash.build_tree(X, nu0=50, mode="2d", tau=0.65)
    return smash.build_h2(tree, smash.KernelSpec("cauchy", dx=1.0), X, X,
                          smash.BuildParams(r=22, tau=0.65))


def _sunflower_hss():
    n = 640
    spec = smash.KernelSpec("laplace_dlp", curve=smash.get_curve("sunflower"),
                            nq=n)
    X = bench.curve_points("sunflower", n)
    tree = smash.build_tree(X, nu0=50, tau=0.6)
    return smash.build_hss(tree, spec, X, X, smash.BuildParams(
        r=25, tau=0.6, eps_svd=1e-11, basis="interp"))


@pytest.mark.parametrize("build", [_grid_h2, _sunflower_hss],
                         ids=["grid-h2", "sunflower-hss"])
def test_builds_store_the_bytes_of_scipy_qr_factors(monkeypatch, build):
    direct = _stored_bytes(build())
    calls = []
    monkeypatch.setattr(lowrank, "srrqr",
                        lambda *a: calls.append(a) or _scipy_srrqr(*a))
    assert direct == _stored_bytes(build())
    assert calls  # every compression went through the reference


# ---------------------------------------------------------------------------
# interpolative row compression
# ---------------------------------------------------------------------------

def test_nonsingular_square_keeps_every_row():
    rng = np.random.default_rng(2)
    C = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    ibar = np.array([10, 20, 30, 40, 50])
    f = compr(C, ibar)
    assert f.rank == 5
    assert f.G.shape == (0, 5) or f.G.size == 0
    assert set(f.skel) == set(ibar)
    np.testing.assert_allclose(f.expand() @ C[f.skel_local], C, atol=1e-10)


def test_duplicated_row_collapses_to_single_skeleton():
    v = np.array([[1.0, 2.0, 3.0]])
    C = np.vstack([v, 2 * v])
    f = compr(C, np.array([0, 1]))
    assert f.rank == 1
    assert f.G.shape == (1, 1)
    assert abs(f.G[0, 0]) in (pytest.approx(2.0), pytest.approx(0.5))
    np.testing.assert_allclose(f.expand() @ C[f.skel_local], C, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 8))
def test_exact_rank_matrices_reconstruct_exactly(seed, k):
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((50, k)) @ rng.standard_normal((k, 8))
    f = compr(C, np.arange(50))
    assert f.rank <= min(k, 8)
    err = np.linalg.norm(C - f.expand() @ C[f.skel_local])
    assert err <= 1e-10 * np.linalg.norm(C)
    assert np.max(np.abs(f.G)) <= 2.0 + 1e-12 if f.G.size else True


def _compr_inputs():
    rng = np.random.default_rng(11)
    real = rng.standard_normal((12, 7))
    cplx = real + 1j * rng.standard_normal((12, 7))
    deficient = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 7))
    return {"real": real, "complex": cplx, "rank_deficient": deficient,
            "rank_zero": np.zeros((12, 7))}


@pytest.mark.parametrize("case", sorted(_compr_inputs()))
def test_compr_coefficients_are_srrqr_solution_bitwise(case):
    C = _compr_inputs()[case]
    f = compr(C, np.arange(C.shape[0]))
    res = srrqr(C.T)
    np.testing.assert_array_equal(f.perm, res.perm)
    if res.rank == 0:
        assert f.G.shape == (C.shape[0], 0)
        return
    G = sla.solve_triangular(res.R11, res.R12, lower=False).T
    assert f.G.dtype == G.dtype and f.G.shape == G.shape
    assert f.G.tobytes() == G.tobytes()
    assert res.W.shape == (res.rank, C.shape[0] - res.rank)


def test_zero_matrix_has_empty_skeleton():
    f = compr(np.zeros((6, 4)), np.arange(6))
    assert f.rank == 0
    np.testing.assert_allclose(f.expand() @ np.zeros((0, 4)),
                               np.zeros((6, 4)))


def test_mismatched_labels_rejected():
    with pytest.raises(ValueError):
        compr(np.zeros((4, 2)), np.arange(3))


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("k", [0, 3, 7])  # rank 0, partial, full (7 rows)
def test_implicit_apply_matches_expanded_factor(k, complex_):
    rng = np.random.default_rng(k)
    left = rng.standard_normal((7, k))
    if complex_:
        left = left + 1j * rng.standard_normal((7, k))
    C = left @ rng.standard_normal((k, 9))
    f = compr(C, np.arange(7))
    assert f.rank == k
    X = f.expand()
    Q = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
    np.testing.assert_allclose(f.apply_t(Q), X.T @ Q, rtol=1e-14, atol=1e-14)


# ---------------------------------------------------------------------------
# truncated SVD
# ---------------------------------------------------------------------------

def _projected(t, M):
    """S S^H M: the part of M that the kept left singular vectors span."""
    return t.S @ (t.S.conj().T @ M)


def test_zero_threshold_keeps_everything():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((12, 7))
    t = truncated_svd(M, 0.0)
    np.testing.assert_allclose(_projected(t, M), M, atol=1e-12)


def test_tiny_singular_value_dropped():
    t = truncated_svd(np.diag([1.0, 1e-9]), 1e-6)
    assert t.sigma.shape == (1,)
    np.testing.assert_allclose(np.abs(t.S[:, 0]), [1.0, 0.0], atol=1e-15)


def test_relative_residual_matches_threshold():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((30, 30))
    t = truncated_svd(M, 1e-3)
    resid = np.linalg.norm(M - _projected(t, M), 2)
    assert resid <= 1e-3 * np.linalg.norm(M, 2)


def test_empty_input_gives_empty_factors():
    M = np.empty((0, 3))
    t = truncated_svd(M, 1e-3)
    assert t.S.shape == (0, 0) and t.sigma.shape == (0,)
    assert _projected(t, M).shape == (0, 3)


def _graded(m, n, rank, complex_=False, seed=0):
    """m x n matrix with singular values 10^0 .. 10^-15 (then zeros past
    rank), none within half a decade of the 1e-10 cut below."""
    rng = np.random.default_rng(seed)

    def orth(k):
        A = rng.standard_normal((k, rank))
        if complex_:
            A = A + 1j * rng.standard_normal((k, rank))
        return np.linalg.qr(A)[0]

    sig = np.concatenate([np.logspace(0, -9.5, rank // 2),
                          np.logspace(-10.5, -15, rank - rank // 2)])
    return (orth(m) * sig) @ orth(n).conj().T


@pytest.mark.parametrize("m, n, rank, complex_", [
    (40, 300, 40, False),    # wide: the R-factor route
    (300, 40, 40, False),    # tall
    (60, 60, 60, False),     # square
    (40, 300, 40, True),     # complex128, wide
    (50, 200, 23, False),    # rank-deficient, wide
], ids=["wide", "tall", "square", "complex", "rank-deficient"])
def test_truncated_svd_matches_full_svd(m, n, rank, complex_):
    eps = 1e-10
    M = _graded(m, n, rank, complex_)
    ref = np.linalg.svd(M, compute_uv=False)
    t = truncated_svd(M, eps)
    keep = int(np.count_nonzero(ref >= eps * ref[0]))
    assert t.sigma.size == t.S.shape[1] == keep
    # agreement relative to the norm: that is what the cut compares against
    np.testing.assert_allclose(t.sigma, ref[:keep], rtol=0,
                               atol=1e-13 * ref[0])
    assert t.S.dtype == M.dtype
    np.testing.assert_allclose(t.S.conj().T @ t.S, np.eye(keep), atol=1e-13)
    norm = np.linalg.norm(M, 2)
    assert np.linalg.norm(M - _projected(t, M), 2) <= eps * norm


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_wide_svd_runs_on_square_core(monkeypatch, complex_):
    """Chan's R-SVD: the SVD sees the m x m factor R^H, not an m x n core."""
    seen = []
    real = np.linalg.svd

    def recorded(a, *args, **kwargs):
        seen.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    truncated_svd(_graded(40, 300, 40, complex_), 1e-10)
    assert seen == [(40, 40)]


# ---------------------------------------------------------------------------
# range columns: the nearfield cut without an SVD
# ---------------------------------------------------------------------------

def _miss(C, M):
    """||M - Q Q^H M||_F for an orthonormal basis Q of C's columns."""
    Q = np.linalg.qr(C)[0]
    return np.linalg.norm(M - Q @ (Q.conj().T @ M))


_RANGE_CASES = {"wide": (40, 300, 40, False), "tall": (300, 40, 40, False),
                "square": (60, 60, 60, False), "complex": (40, 300, 40, True),
                "rank-deficient": (50, 200, 23, False)}
_OMEGA = lowrank.gaussian(300, 60)


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-10])
@pytest.mark.parametrize("case", sorted(_RANGE_CASES))
def test_range_columns_are_the_fewest_pivots_within_eps(case, eps):
    M = _graded(*_RANGE_CASES[case])
    m, n = M.shape
    Y = M @ _OMEGA[:n, :m] if m < n else M  # the sketch of a wide block
    C = range_columns(M, eps, _OMEGA)
    k = C.shape[1]
    assert C.dtype == M.dtype and C.shape[0] == m
    # columns of Y, kept as they are
    scale = np.max(np.linalg.norm(Y, axis=0))
    for c in C.T:
        assert np.min(np.linalg.norm(Y - c[:, None], axis=0)) <= 1e-13 * scale
    # the fewest within eps of Y: the first pivot is its largest column
    assert _miss(C, Y) <= eps * scale * (1 + 1e-6)
    assert _miss(C[:, :-1], Y) > eps * scale
    # and within eps of M: the sketch's cut misses at most eps * sigma_1
    # of M (at most 0.84 eps * sigma_1 over these cases), and the SVD's
    # cut keeps no more
    sig = np.linalg.svd(M, compute_uv=False)
    assert _miss(C, M) <= eps * sig[0]
    assert k >= np.count_nonzero(sig > eps * sig[0])


class _Counted(np.ndarray):
    """A test matrix that records the shapes of the products it enters."""

    products = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _Counted.products.append(tuple(x.shape for x in inputs))
        return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_a_wide_block_takes_one_product_and_one_pivoted_qr(monkeypatch,
                                                           complex_):
    seen = []
    real = lowrank._qr_r

    def recorded(M, rows, pivoting):
        seen.append((M.shape, pivoting))
        return real(M, rows, pivoting)

    def refuse(*args, **kwargs):
        raise AssertionError("range_columns called an SVD")

    monkeypatch.setattr(lowrank, "_qr_r", recorded)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(sla, "svd", refuse)
    monkeypatch.setattr(_Counted, "products", [])
    C = range_columns(_graded(40, 300, 40, complex_), 1e-10,
                      _OMEGA.view(_Counted))
    assert seen == [((40, 40), True)]  # no geqrf core
    # a complex block enters as its real and imaginary parts, stacked
    assert _Counted.products == [((80 if complex_ else 40, 300), (300, 40))]
    assert C.shape[0] == 40


def test_a_block_and_its_negated_transpose_give_negated_columns():
    # the column pass of one point set sketches a transposed block, a view
    # in the other memory order; the sketch must not see the order
    M = _graded(40, 300, 40)
    A = np.ascontiguousarray(-M.T)
    got, want = range_columns(A.T, 1e-10, _OMEGA), range_columns(M, 1e-10,
                                                                  _OMEGA)
    assert got.tobytes() == (-want).tobytes()


def test_gaussian_entries_do_not_depend_on_how_it_grew():
    fresh = lowrank.gaussian(100, 20)
    grown = lowrank.gaussian(300, 40, old=lowrank.gaussian(5, 3))
    assert fresh[:100, :20].tobytes() == grown[:100, :20].tobytes()
    # across the blocks it is drawn in: rows first, then columns, against
    # one draw of the whole
    steps = lowrank.gaussian(1100, 70, old=lowrank.gaussian(1500, 30))
    whole = lowrank.gaussian(2048, 128)
    assert steps.shape == (2048, 128)
    assert steps.tobytes() == whole.tobytes()
    assert lowrank.gaussian(2000, 100, old=whole) is whole
    assert abs(whole.mean()) < 0.01 and abs(whole.std() - 1) < 0.01


def test_zero_cut_keeps_every_column_with_a_nonzero_remainder():
    rng = np.random.default_rng(9)
    for M in (rng.standard_normal((12, 30)), rng.standard_normal((30, 12))):
        assert range_columns(M, 0.0, _OMEGA).shape == (M.shape[0], 12)
    assert range_columns(np.zeros((6, 9)), 0.0, _OMEGA).shape == (6, 0)
    assert range_columns(np.empty((0, 3)), 1e-3, _OMEGA).shape == (0, 0)
    assert range_columns(np.empty((3, 0)), 1e-3, _OMEGA).shape == (3, 0)
