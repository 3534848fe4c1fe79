"""HSS construction: exact diagonal blocks, skeleton-based couplings,
nested bases, reconstruction accuracy, and the structured sum / diagonal
scaling operations."""

import threading

import numpy as np
import pytest
import scipy.linalg as sla

import smash
from smash import hss, lowrank
from smash._threads import one_blas_thread
from smash.cluster import nearfield_set
from smash.hss import _basis_builder, cauchy_like_hss
from smash.lowrank import InterpolativeFactor, compr, interp_basis, taylor_basis

from conftest import (build_interval_hss, build_one_set_hss, dense_oracle,
                      interval_pair)
from diagnostics import (BoundInputs, build_hss_per_node, error_bound,
                         node_candidate, rank_caps, taylor_tail_bound)


def dense_in_caller_order(spec, X, Y):
    return dense_oracle(spec, X, Y)


def test_leaf_diagonal_blocks_hold_exact_kernel_entries(cauchy_hss_400):
    M, spec, X, Y = cauchy_hss_400
    A = dense_in_caller_order(spec, X, Y)
    tr = M.tree
    for i in tr.leaves():
        rows = tr.perm_row[tr.row_range(i)]
        cols = tr.perm_col[tr.col_range(i)]
        np.testing.assert_array_equal(M.Dblocks[i], A[np.ix_(rows, cols)])


def test_coupling_blocks_are_kernel_entries_at_skeleton_pairs(cauchy_hss_400):
    # the defining trait of the construction: B blocks are sampled straight
    # from the matrix, never formed by projection
    M, spec, X, Y = cauchy_hss_400
    A = dense_in_caller_order(spec, X, Y)
    tr = M.tree
    for i, j in M.pairs_L:
        rows = tr.perm_row[M.skel_row[i]]
        cols = tr.perm_col[M.skel_col[j]]
        np.testing.assert_array_equal(M.B(i, j), A[np.ix_(rows, cols)])


def test_skeletons_nest_inside_children_skeletons(cauchy_hss_400):
    M, _, _, _ = cauchy_hss_400
    tr = M.tree
    for nd in tr.nodes:
        if nd.is_leaf or nd.index == tr.root:
            continue
        pool = np.concatenate([M.skel_row[c] for c in nd.children])
        assert set(M.skel_row[nd.index]) <= set(pool)
        pool = np.concatenate([M.skel_col[c] for c in nd.children])
        assert set(M.skel_col[nd.index]) <= set(pool)


def test_interpolation_coefficients_bounded_by_swap_threshold(cauchy_hss_400):
    M, _, _, _ = cauchy_hss_400
    s = 2.0  # srrqr's swap threshold
    for fac in list(M.rowfac.values()) + list(M.colfac.values()):
        if fac.G.size:
            assert np.max(np.abs(fac.G)) <= s + 1e-9


def _repeated_interval(n=200, repeats=50):
    x = np.linspace(0.0, 1.0, n)
    return smash.PointSet(np.concatenate([x, x[:repeats]]).reshape(-1, 1))


def test_coincident_points_with_dx_match_dense_oracle():
    # at most nu0 copies per location, so the tree places them in leaves
    X = _repeated_interval()
    spec = smash.KernelSpec("cauchy", dx=1.0)
    tree = smash.build_tree(X, nu0=16)
    M = smash.build_hss(tree, spec, X, X,
                        smash.BuildParams(r=21, tau=0.6, eps_svd=1e-12))
    assert len(M.pairs_L)
    A = dense_oracle(spec, X, X)
    assert np.max(np.abs(M.todense() - A)) <= 1e-10 * np.max(np.abs(A))


def test_coincident_points_without_dx_refused():
    X = _repeated_interval()
    tree = smash.build_tree(X, nu0=16)
    with pytest.raises(ValueError, match="diagonal value"):
        smash.build_hss(tree, smash.KernelSpec("cauchy"), X, X,
                        smash.BuildParams(r=21))


def test_quadtree_refused_before_any_node_is_compressed(monkeypatch):
    X = smash.bench.grid_points(8)
    tree = smash.build_tree(X, nu0=8, mode="2d")
    assert any(len(nd.children) == 4 for nd in tree.nodes)
    monkeypatch.setattr(hss, "compr", lambda *a: pytest.fail("compressed"))
    with pytest.raises(ValueError, match="binary tree"):
        smash.build_hss(tree, smash.KernelSpec("cauchy", dx=1.0), X, X,
                        smash.BuildParams(r=10))


@pytest.mark.parametrize("field, value", [
    ("r", 0), ("r", 2.5), ("r", True), ("r", 172), ("tau", 0.0), ("tau", 1.0),
    ("tau", float("nan")), ("tau", float("inf")), ("eps_svd", -1e-12),
    ("eps_svd", 1.0), ("eps_svd", float("nan")), ("tau", "0.6"),
    ("basis", "chebyshev"), ("basis", 1), ("basis", None),
])
def test_build_params_refuse_values_that_wreck_the_result(field, value):
    with pytest.raises(ValueError, match="build parameter %s " % field):
        smash.BuildParams(**{field: value})


def test_build_params_take_the_edges_of_their_ranges():
    bp = smash.BuildParams(r=np.int64(1), tau=np.float64(1e-3), eps_svd=0.0)
    assert (bp.r, bp.tau, bp.eps_svd, bp.basis) == (1, 1e-3, 0.0, "taylor")


def test_single_node_tree_is_just_the_dense_matrix():
    X, Y = interval_pair(10)
    spec = smash.KernelSpec("cauchy")
    tree = smash.build_tree(X, Y, nu0=50)
    M = smash.build_hss(tree, spec, X, Y, smash.BuildParams(r=8))
    assert M.pairs_L.tolist() == []
    assert len(M.Dblocks) == 1
    np.testing.assert_array_equal(M.todense(), dense_in_caller_order(spec, X, Y))


def test_interval_reconstruction_meets_target_accuracy():
    # build parameters aimed at 1e-8 give a comfortably smaller Frobenius
    # error on a 400-point interval problem
    M, spec, X, Y = build_interval_hss(400, r=21, eps_svd=1e-9, tau=0.6)
    A = dense_in_caller_order(spec, X, Y)
    err = np.linalg.norm(M.todense() - A) / np.linalg.norm(A)
    assert err <= 1e-6


def test_reconstruction_error_below_analytic_bound(cauchy_hss_400):
    M, spec, X, Y = cauchy_hss_400
    A = dense_in_caller_order(spec, X, Y)
    err = np.linalg.norm(M.todense() - A) / np.linalg.norm(A)
    caps = rank_caps(M)
    L = M.tree.n_levels
    inputs = BoundInputs(ranks=caps, L=L,
                         eps_svd=M.params.eps_svd,
                         eps_far=taylor_tail_bound(M.params.tau, M.params.r))
    b = error_bound(inputs, structure="hss")
    assert err <= b.theorem <= b.corollary


def test_reconstruction_matches_matvec_columnwise():
    M, _, _, _ = build_interval_hss(128, nu0=16)
    A = M.todense()
    for j in (0, 17, 64, 127):
        e = np.zeros(128)
        e[j] = 1.0
        np.testing.assert_allclose(smash.matvec_nodewise(M, e), A[:, j],
                                   rtol=0, atol=1e-13 * np.abs(A).max())


def test_build_hss_on_cauchy_like_kernel_matches_dense_oracle():
    n = 200
    rng = np.random.default_rng(5)
    X, Y = interval_pair(n)
    spec = smash.KernelSpec("cauchy_like", w=rng.random((n, 3)),
                            v=rng.random((n, 3)))
    tree = smash.build_tree(X, Y, nu0=16)
    M = smash.build_hss(tree, spec, X, Y, smash.BuildParams(r=21, eps_svd=1e-10))
    A = dense_in_caller_order(spec, X, Y)
    assert np.linalg.norm(M.todense() - A) <= 1e-9 * np.linalg.norm(A)
    # couplings are exact Cauchy-like entries at skeleton pairs, and the
    # skeletons hold no repeated index
    tr = M.tree
    for i, j in M.pairs_L:
        np.testing.assert_array_equal(
            M.B(i, j), A[np.ix_(tr.perm_row[M.skel_row[i]],
                                tr.perm_col[M.skel_col[j]])])
    for skel in list(M.skel_row.values()) + list(M.skel_col.values()):
        assert np.unique(skel).size == skel.size


# ---------------------------------------------------------------------------
# nearfield columns from a pivoted QR, no SVD
# ---------------------------------------------------------------------------

def _sunflower_dlp(basis, n=640, eps_svd=1e-11):
    spec = smash.KernelSpec("laplace_dlp", curve=smash.get_curve("sunflower"),
                            nq=n)
    X = smash.bench.curve_points("sunflower", n)
    tree = smash.build_tree(X, nu0=50, tau=0.6)
    return tree, spec, X, X, smash.BuildParams(r=25, tau=0.6, eps_svd=eps_svd,
                                               basis=basis)


def _honeybee_cauchy_like(n=600):
    rng = np.random.default_rng(14)
    X, Y = smash.bench.cauchy_pair("honeybee", n, rng)
    spec = smash.KernelSpec("cauchy_like", w=rng.random((n, 2)),
                            v=rng.random((n, 2)))
    tree = smash.build_tree(X, Y, nu0=50, tau=0.6)
    return tree, spec, X, Y, smash.BuildParams(
        r=smash.bench.choose_params(1e-10).r, tau=0.6, eps_svd=1e-9)


def _relerr_against_dense(case):
    tree, spec, X, Y, params = case
    M = smash.build_hss(tree, spec, X, Y, params)
    q = np.random.default_rng(5).random(M.n_col)
    ref = smash.bench.dense_matvec(spec, X, Y, q)
    z = smash.matvec_nodewise(M, q)
    return np.linalg.norm(z - ref) / np.linalg.norm(ref)


_NO_SVD = {"sunflower-dlp-interp": lambda: _sunflower_dlp("interp"),
           "sunflower-dlp-taylor": lambda: _sunflower_dlp("taylor"),
           "honeybee-cauchy-like": _honeybee_cauchy_like}


@pytest.mark.parametrize("case", sorted(_NO_SVD))
def test_build_calls_no_svd_and_meets_the_dense_oracle(monkeypatch, case):
    def refuse(*args, **kwargs):
        raise AssertionError("the build called an SVD")

    for owner in (np.linalg, sla):
        monkeypatch.setattr(owner, "svd", refuse)
    for owner in (lowrank, smash.hss):
        monkeypatch.setattr(owner, "truncated_svd", refuse)
    assert _relerr_against_dense(_NO_SVD[case]()) <= 1e-10


def test_gaussian_is_drawn_by_the_calling_thread_once_per_sketching_level(
        monkeypatch):
    drawn = []
    real = lowrank.gaussian

    def recorded(rows, cols, old=None):
        drawn.append(threading.get_ident())
        return real(rows, cols, old)

    monkeypatch.setattr(lowrank, "gaussian", recorded)
    monkeypatch.setattr(smash._threads, "cores", lambda: 2)
    tree, spec, X, Y, params = _honeybee_cauchy_like()
    M = smash.build_hss(tree, spec, X, Y, params)
    near = nearfield_set(tree, params.tau)
    skels = {"row": M.skel_row, "col": M.skel_col}

    def size(i, side):
        return hss._intermediate(tree, i, skels[side], side).size

    # the levels whose row or column pass sketches a wide nearfield block;
    # the others draw nothing
    wide = {tree.nodes[i].level for i in range(tree.root)
            for side, other in (("row", "col"), ("col", "row"))
            if 0 < size(i, side) < sum(size(j, other) for j in near[i])}
    assert 0 < len(wide) < tree.n_levels - 1
    assert drawn == [threading.get_ident()] * len(wide)


@pytest.mark.parametrize("basis", ["interp", "taylor"])
def test_zero_eps_svd_keeps_the_whole_nearfield(monkeypatch, basis):
    kept = []
    real = smash.hss.range_columns

    def recorded(A, eps, omega):
        C = real(A, eps, omega)
        kept.append((C.shape[1], min(A.shape)))
        return C

    monkeypatch.setattr(smash.hss, "range_columns", recorded)
    # every column of every nearfield core stays, so only roundoff
    # separates the build from the kernel
    err = _relerr_against_dense(_sunflower_dlp(basis, n=320, eps_svd=0.0))
    assert kept and all(k == m for k, m in kept)
    assert err <= 1e-13


# ---------------------------------------------------------------------------
# one basis per node on one point set
# ---------------------------------------------------------------------------

_ONE_SET = {"grid_32x32": lambda: smash.bench.grid_points(32),
            "line_400": lambda: smash.PointSet(
                (np.arange(1, 401) / 401.0).reshape(-1, 1))}


@pytest.fixture(scope="module", params=sorted(_ONE_SET))
def one_set_hss(request):
    X = _ONE_SET[request.param]()
    return build_one_set_hss(X) + (X,)


@pytest.mark.parametrize("basis", ["taylor", "interp"])
def test_farfield_bases_pad_thin_boxes_as_one_node_at_a_time(basis):
    """On a segment in the plane every box is thin in y, and an unpadded
    interp box would be degenerate.  The builder pads all boxes at once;
    each candidate equals, bit for bit, the basis of that node's box
    padded on its own and measured with np.linalg.norm."""
    x = np.linspace(0.0, 1.0, 700)
    X = smash.PointSet(np.column_stack([x, np.full_like(x, 0.25)]))
    tree = smash.build_tree(X, nu0=50)
    params = smash.BuildParams(r=9, basis=basis)
    candidate = _basis_builder(tree, smash.KernelSpec("cauchy"), params, "row")
    root_hi, root_lo = tree.hi[tree.root], tree.lo[tree.root]
    pad = max(1e-9 * float(np.linalg.norm(root_hi - root_lo)), 1e-300)
    for i in range(tree.root):
        lo, hi = tree.lo[i].copy(), tree.hi[i].copy()
        thin = hi - lo < pad
        assert thin[1]
        lo[thin] -= pad / 2
        hi[thin] += pad / 2
        idx = tree.row_range(i)
        if basis == "interp":
            want = interp_basis(lo, hi, tree.points_row[idx], params.r)
        else:
            c = (lo + hi) / 2.0
            z = tree.points_row[idx, 0] + 1j * tree.points_row[idx, 1]
            want = taylor_basis(complex(c[0], c[1]),
                                0.5 * float(np.linalg.norm(hi - lo)), z,
                                params.r)
        got = candidate(np.array([i]), idx[None])[0]
        assert got.tobytes() == want.tobytes(), i


def _grid_cauchy(m=32):
    X = smash.bench.grid_points(m)
    pc = smash.bench.choose_params(1e-8, d=2)
    tree = smash.build_tree(X, nu0=50, tau=pc.tau)
    return tree, smash.KernelSpec("cauchy", dx=1.0), X, X, smash.BuildParams(
        r=pc.r, tau=pc.tau, eps_svd=pc.eps_svd)


_PER_NODE_CASES = {
    # the benchmark's dlp-sunflower build
    "sunflower-dlp-interp": lambda: _sunflower_dlp("interp", n=2560),
    "sunflower-dlp-taylor": lambda: _sunflower_dlp("taylor", n=2560),
    "honeybee-cauchy-like": _honeybee_cauchy_like,
    "grid-cauchy-one-factor": _grid_cauchy}


@pytest.mark.parametrize("case", sorted(_PER_NODE_CASES))
def test_stacked_build_stores_the_bytes_of_the_per_node_build(case):
    tree, spec, X, Y, params = _PER_NODE_CASES[case]()
    M = smash.build_hss(tree, spec, X, Y, params)
    ref = build_hss_per_node(tree, spec, X, Y, params)
    shared = case.startswith("grid")  # the others keep two factors
    assert hss.one_basis("hss", tree, spec) == shared
    for side in ("rowfac", "colfac"):
        got, want = getattr(M, side), getattr(ref, side)
        assert list(got) == list(want)  # the same nodes, in the same order
        for i, fac in got.items():
            assert (M.colfac[i] is M.rowfac[i]) == shared
            for name in ("perm", "G", "skel"):
                a, b = getattr(fac, name), getattr(want[i], name)
                assert a.dtype == b.dtype and a.shape == b.shape, (i, name)
                assert a.tobytes() == b.tobytes(), (side, i, name)
    assert ([(name, a.tobytes()) for name, a in smash.container.stored_arrays(M)]
            == [(name, a.tobytes())
                for name, a in smash.container.stored_arrays(ref)])


def test_one_point_set_holds_one_factor_per_node(one_set_hss):
    M, spec, X = one_set_hss
    tr = M.tree
    assert sorted(M.colfac) == sorted(M.rowfac) == list(range(tr.root))
    bcol = _basis_builder(tr, spec, M.params, "col")
    # the build's test matrix, drawn whole: its entries do not depend on
    # the size drawn
    omega = lowrank.gaussian(X.n, X.n)
    for i, fac in M.rowfac.items():
        assert M.colfac[i] is fac and M.skel_col[i] is M.skel_row[i]
        # the column compression it skips would have found the same factor
        # (on one BLAS thread, as the build runs)
        near = nearfield_set(tr, M.params.tau)[i]
        with one_blas_thread():
            own = compr(*node_candidate(M, i, near, bcol, "col", omega))
        for name in ("perm", "G", "skel"):
            a, b = getattr(own, name), getattr(fac, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (i, name)


def test_one_factor_per_node_applies_and_solves_like_dense(one_set_hss):
    M, spec, X = one_set_hss
    A = dense_oracle(spec, X, X)
    q = np.random.default_rng(7).random(X.n)
    z = smash.matvec_nodewise(M, q)
    assert np.linalg.norm(z - A @ q) <= 1e-10 * np.linalg.norm(A @ q)
    x = smash.ulv_solve(smash.ulv_factor(M), z)
    assert np.linalg.norm(A @ x - z) <= 1e-9 * np.linalg.norm(z)


def test_double_layer_on_one_point_set_keeps_two_factors():
    # the double-layer kernel is not antisymmetric: its transposed nearfield
    # block is not minus the row one
    X = smash.bench.curve_points("ramhead", 320)
    spec = smash.KernelSpec("laplace_dlp", curve=smash.get_curve("ramhead"),
                            nq=320)
    tree = smash.build_tree(X, nu0=50, tau=0.6)
    M = smash.build_hss(tree, spec, X, X, smash.BuildParams(
        r=25, tau=0.6, eps_svd=1e-11, basis="interp"))
    assert all(M.colfac[i] is not f for i, f in M.rowfac.items())


# ---------------------------------------------------------------------------
# structured sum
# ---------------------------------------------------------------------------

def test_adding_a_zeroed_copy_changes_nothing():
    M, _, _, _ = build_interval_hss(128, nu0=16)
    zero = smash.diag_scale(M, np.zeros(128), np.ones(128))
    S = smash.hss_add(M, zero)
    q = np.random.default_rng(0).random(128)
    np.testing.assert_allclose(smash.matvec_nodewise(S, q),
                               smash.matvec_nodewise(M, q), rtol=1e-13)


def test_sum_skeleton_sizes_are_subadditive():
    M, _, _, _ = build_interval_hss(128, nu0=16)
    N = smash.diag_scale(M, np.full(128, 2.0), np.ones(128))
    S = smash.hss_add(M, N)
    for i in range(len(M.tree.nodes)):
        if i == M.tree.root:
            continue  # the root carries no basis
        assert S.rank_row(i) <= M.rank_row(i) + N.rank_row(i)
        assert S.rank_col(i) <= M.rank_col(i) + N.rank_col(i)


def test_sum_of_scaled_copies_matches_dense_oracle():
    n = 256
    rng = np.random.default_rng(42)
    M, spec, X, Y = build_interval_hss(n, nu0=32)
    A = dense_in_caller_order(spec, X, Y)
    dl1, dr1 = rng.random(n), rng.random(n)
    dl2, dr2 = rng.random(n), rng.random(n)
    S = smash.hss_add(smash.diag_scale(M, dl1, dr1),
                      smash.diag_scale(M, dl2, dr2))
    ref = dl1[:, None] * A * dr1[None, :] + dl2[:, None] * A * dr2[None, :]
    err = np.linalg.norm(S.todense() - ref) / np.linalg.norm(ref)
    assert err <= 1e-10


def test_sum_requires_matching_trees():
    A, _, _, _ = build_interval_hss(128, nu0=16)
    B, _, _, _ = build_interval_hss(128, nu0=32)
    with pytest.raises(ValueError):
        smash.hss_add(A, B)


def _algebra_results(n=256):
    M, _, _, _ = build_interval_hss(n, nu0=32)
    rng = np.random.default_rng(12)
    S = smash.diag_scale(M, rng.standard_normal(n), rng.random(n))
    return S, smash.hss_add(M, S)


def test_sums_and_scalings_hold_bounded_interpolative_factors():
    for R in _algebra_results():
        facs = list(R.rowfac.values()) + list(R.colfac.values())
        assert {type(f) for f in facs} == {InterpolativeFactor}
        assert max(np.abs(f.G).max(initial=0.0) for f in facs) <= 2.0


def test_algebra_couplings_are_entries_at_skeleton_pairs():
    for R in _algebra_results():
        A = R.todense()
        tr = R.tree
        for i, j in R.pairs_L:
            ref = A[np.ix_(tr.perm_row[R.skel_row[i]],
                           tr.perm_col[R.skel_col[j]])]
            np.testing.assert_allclose(R.B(i, j), ref,
                                       rtol=0, atol=1e-12 * np.abs(ref).max())


def test_adding_a_zeroed_copy_keeps_every_rank():
    M, _, _, _ = build_interval_hss(128, nu0=16)
    S = smash.hss_add(M, smash.diag_scale(M, np.zeros(128), np.ones(128)))
    for i in range(M.tree.root):
        assert S.rank_row(i) == M.rank_row(i)
        assert S.rank_col(i) == M.rank_col(i)


# ---------------------------------------------------------------------------
# diagonal scaling
# ---------------------------------------------------------------------------
# diagonal scaling
# ---------------------------------------------------------------------------

def test_unit_scaling_is_identity():
    M, _, _, _ = build_interval_hss(128, nu0=16)
    S = smash.diag_scale(M, np.ones(128), np.ones(128))
    q = np.random.default_rng(1).random(128)
    np.testing.assert_allclose(smash.matvec_nodewise(S, q),
                               smash.matvec_nodewise(M, q), rtol=1e-14)


def test_left_scaling_by_two_doubles_the_product():
    M, _, _, _ = build_interval_hss(128, nu0=16)
    S = smash.diag_scale(M, np.full(128, 2.0), np.ones(128))
    q = np.random.default_rng(2).random(128)
    np.testing.assert_allclose(smash.matvec_nodewise(S, q),
                               2 * smash.matvec_nodewise(M, q), rtol=1e-14)


def test_random_scaling_matches_dense_oracle():
    n = 128
    rng = np.random.default_rng(3)
    M, spec, X, Y = build_interval_hss(n, nu0=16)
    dl, dr = rng.standard_normal(n), rng.standard_normal(n)
    S = smash.diag_scale(M, dl, dr)
    ref = dl[:, None] * dense_in_caller_order(spec, X, Y) * dr[None, :]
    err = np.linalg.norm(S.todense() - ref) / np.linalg.norm(ref)
    assert err <= 1e-10


def test_scaling_length_mismatch_rejected():
    M, _, _, _ = build_interval_hss(128, nu0=16)
    with pytest.raises(ValueError):
        smash.diag_scale(M, np.ones(127), np.ones(128))


# ---------------------------------------------------------------------------
# displacement-structured assembly
# ---------------------------------------------------------------------------

def test_cauchy_like_assembly_matches_dense_sum():
    n, p = 256, 2
    rng = np.random.default_rng(7)
    X, Y = interval_pair(n)
    w, v = rng.random((n, p)), rng.random((n, p))
    tree = smash.build_tree(X, Y, nu0=32)
    M = cauchy_like_hss(tree, X, Y, w, v,
                        smash.BuildParams(r=21, eps_svd=1e-9))
    C = dense_in_caller_order(smash.KernelSpec("cauchy"), X, Y)
    ref = sum(w[:, l][:, None] * C * v[:, l][None, :] for l in range(p))
    q = rng.random(n)
    err = np.linalg.norm(smash.matvec_nodewise(M, q) - ref @ q)
    assert err <= 1e-8 * np.linalg.norm(ref @ q)


def test_cauchy_like_generator_shape_mismatch_rejected():
    X, Y = interval_pair(32)
    tree = smash.build_tree(X, Y, nu0=8)
    with pytest.raises(ValueError):
        cauchy_like_hss(tree, X, Y, np.ones((32, 2)), np.ones((32, 3)))


@pytest.mark.parametrize("rows", [(31, 32), (32, 33)])
def test_cauchy_like_generator_row_count_mismatch_rejected(rows):
    X, Y = interval_pair(32)
    tree = smash.build_tree(X, Y, nu0=8)
    with pytest.raises(ValueError, match="generator rows"):
        cauchy_like_hss(tree, X, Y, np.ones((rows[0], 2)), np.ones((rows[1], 2)))


def test_algebra_on_single_leaf_tree_touches_only_the_diagonal_block():
    n = 30
    M, spec, X, Y = build_interval_hss(n, nu0=50)
    assert M.tree.is_leaf(M.tree.root)
    A = dense_in_caller_order(spec, X, Y)
    rng = np.random.default_rng(8)
    dl, dr = rng.random(n), rng.random(n)
    S = smash.diag_scale(M, dl, dr)
    np.testing.assert_allclose(S.todense(), dl[:, None] * A * dr[None, :],
                               rtol=1e-14)
    np.testing.assert_allclose(smash.hss_add(M, S).todense(),
                               A + dl[:, None] * A * dr[None, :], rtol=1e-14)
