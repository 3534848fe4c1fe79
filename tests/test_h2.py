"""H2 construction on 2-d point sets: dense nearfield blocks, sampled
couplings, reconstruction accuracy, and adaptive trees with
admissible pairs across levels."""

import numpy as np
import pytest

import smash
from smash.hss import _basis_builder, _candidate
from smash.kernel import kernel_block
from smash.lowrank import compr, taylor_tail_bound

from conftest import build_1d_pair_h2, dense_oracle, interval_pair
from diagnostics import (BoundInputs, build_h2_per_node, build_params,
                         error_bound, rank_caps)


def grid_dense(spec, X):
    n = X.n
    return kernel_block(spec, X, X, np.arange(n), np.arange(n))


def test_nearfield_blocks_hold_exact_kernel_entries(grid_h2_400):
    M, spec, X = grid_h2_400
    A = grid_dense(spec, X)
    tr = M.tree
    for i, j in M.pairs_Lm:
        rows = tr.perm_row[tr.row_range(i)]
        cols = tr.perm_col[tr.col_range(j)]
        np.testing.assert_array_equal(M.NF(i, j), A[np.ix_(rows, cols)])


def test_coupling_blocks_are_kernel_entries_at_skeleton_pairs(grid_h2_400):
    M, spec, X = grid_h2_400
    A = grid_dense(spec, X)
    tr = M.tree
    for i, j in M.pairs_L:
        rows = tr.perm_row[M.skel_row[i]]
        cols = tr.perm_col[M.skel_col[j]]
        np.testing.assert_array_equal(M.B(i, j), A[np.ix_(rows, cols)])


def test_no_admissible_pairs_degenerates_to_dense_blocks():
    # two tight clusters of points, tree depth 2, boxes adjacent: nothing is
    # well separated and the format stores the full matrix in leaf blocks
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.random((6, 2)) * 0.5,
                     rng.random((6, 2)) * 0.5 + 0.5])
    X = smash.PointSet(pts)
    tree = smash.build_tree(X, nu0=6, mode="2d", tau=0.5)
    spec = smash.KernelSpec("cauchy", dx=1.0)
    M = smash.build_h2(tree, spec, X, X, smash.BuildParams(r=5, tau=0.5))
    assert M.pairs_L.tolist() == []
    np.testing.assert_array_equal(M.todense(), grid_dense(spec, X))


def test_h2_refuses_the_interp_basis():
    # on the double layer the interp basis returned wrong matrices without
    # complaint (relerr 0.15 on the sunflower), and no caller builds H2 on it
    X = smash.bench.grid_points(8)
    tree = smash.build_tree(X, nu0=16, mode="2d", tau=0.65)
    with pytest.raises(ValueError, match="basis 'interp'"):
        smash.build_h2(tree, smash.KernelSpec("cauchy", dx=1.0), X, X,
                       smash.BuildParams(r=10, tau=0.65, basis="interp"))


def test_grid_matvec_matches_dense_oracle(grid_h2_400):
    M, spec, X = grid_h2_400
    A = grid_dense(spec, X)
    q = np.random.default_rng(5).random(X.n)
    z = smash.matvec_nodewise(M, q)
    assert np.linalg.norm(z - A @ q) <= 1e-10 * np.linalg.norm(A @ q)


def test_reconstruction_consistent_with_matvec(grid_h2_400):
    M, _, X = grid_h2_400
    A = M.todense()
    rng = np.random.default_rng(9)
    for j in rng.integers(0, X.n, 5):
        e = np.zeros(X.n)
        e[j] = 1.0
        np.testing.assert_allclose(smash.matvec_nodewise(M, e), A[:, j],
                                   rtol=0, atol=1e-13 * np.abs(A).max())


def test_reconstruction_error_below_analytic_bound(grid_h2_400):
    M, spec, X = grid_h2_400
    A = grid_dense(spec, X)
    err = np.linalg.norm(M.todense() - A) / np.linalg.norm(A)
    caps = rank_caps(M)
    inputs = BoundInputs(ranks=caps, L=M.tree.n_levels,
                         eps_svd=M.params.eps_svd,
                         eps_far=taylor_tail_bound(M.params.tau, M.params.r),
                         d=2)
    b = error_bound(inputs, structure="h2")
    assert err <= b.theorem <= b.corollary


def test_adaptive_point_set_produces_cross_level_pairs():
    # a dense cluster in one corner forces deep refinement there while the
    # rest of the square stays shallow, so admissible pairs appear between
    # nodes at different levels
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.random((64, 2)) * 0.08,
                     rng.random((24, 2)) * 0.9 + 0.1])
    X = smash.PointSet(pts)
    tree = smash.build_tree(X, nu0=4, mode="2d", tau=0.6)
    spec = smash.KernelSpec("cauchy", dx=1.0)
    M = smash.build_h2(tree, spec, X, X, smash.BuildParams(r=9, tau=0.6,
                                                           eps_svd=1e-10))
    levels = {(tree.nodes[i].level, tree.nodes[j].level)
              for i, j in M.pairs_L}
    assert any(a != b for a, b in levels)
    A = grid_dense(spec, X)
    q = rng.random(X.n)
    z = smash.matvec_nodewise(M, q)
    assert np.linalg.norm(z - A @ q) <= 1e-6 * np.linalg.norm(A @ q)


def test_coincident_planar_points_with_dx_match_dense_oracle():
    # locations repeated up to three times, fewer than nu0 per location
    rng = np.random.default_rng(5)
    base = rng.random((400, 2))
    X = smash.PointSet(np.vstack([base, base[:80], base[:30]]))
    spec = smash.KernelSpec("cauchy", dx=1.0)
    tree = smash.build_tree(X, nu0=16, mode="2d", tau=0.65)
    M = smash.build_h2(tree, spec, X, X,
                       smash.BuildParams(r=22, tau=0.65, eps_svd=1e-12))
    assert len(M.pairs_L)
    A = kernel_block(spec, X, X, np.arange(X.n), np.arange(X.n))
    q = rng.random(X.n)
    z = smash.matvec_nodewise(M, q)
    assert np.linalg.norm(z - A @ q) <= 1e-6 * np.linalg.norm(A @ q)


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("curve", ["ramhead", "sunflower", "honeybee",
                                   "circle"])
def test_h2_double_layer_meets_its_tolerance(curve, tol):
    # the double layer is Re(C diag(v)): the column basis carries the
    # normals, which are not smooth where a box holds several arcs
    n = 2560
    pc = smash.bench.choose_params(tol)
    spec = smash.KernelSpec("laplace_dlp", curve=smash.get_curve(curve), nq=n)
    X = smash.bench.curve_points(curve, n)
    tree = smash.build_tree(X, nu0=50, mode="2d", tau=pc.tau)
    M = smash.build_h2(tree, spec, X, X, build_params(pc))
    assert M.dtype == np.float64
    # r complex Taylor terms, split into real and imaginary parts
    assert smash.bench.max_rank(M) <= 2 * pc.r
    q = np.random.default_rng(3).random(n)
    err, rows = smash.bench.matvec_relerr(spec, None, None, q,
                                          smash.matvec_nodewise(M, q),
                                          budget=0)
    assert rows == smash.bench.SAMPLE_ROWS
    assert err <= 10 * tol


def test_h2_cauchy_like_matches_dense_oracle():
    n = 300
    rng = np.random.default_rng(5)
    X, Y = interval_pair(n)
    spec = smash.KernelSpec("cauchy_like", w=rng.random((n, 3)),
                            v=rng.random((n, 3)))
    tree = smash.build_tree(X, Y, nu0=16)
    M = smash.build_h2(tree, spec, X, Y, smash.BuildParams(r=21))
    A = dense_oracle(spec, X, Y)
    assert np.linalg.norm(M.todense() - A) <= 1e-9 * np.linalg.norm(A)
    assert len(M.pairs_L)
    tr = M.tree
    for i, j in M.pairs_L:  # kernel entries, up to the generator products
        np.testing.assert_allclose(
            M.B(i, j), A[np.ix_(tr.perm_row[M.skel_row[i]],
                                tr.perm_col[M.skel_col[j]])], rtol=1e-14)


@pytest.mark.parametrize("rows", [(31, 32), (32, 33)])
def test_h2_cauchy_like_generator_row_count_mismatch_rejected(rows):
    X, Y = interval_pair(32)
    tree = smash.build_tree(X, Y, nu0=8)
    spec = smash.KernelSpec("cauchy_like", w=np.ones((rows[0], 2)),
                            v=np.ones((rows[1], 2)))
    with pytest.raises(ValueError, match="generator rows"):
        smash.build_h2(tree, spec, X, Y)


def test_h2_accepts_1d_binary_trees():
    M, spec, X, Y, rng = build_1d_pair_h2()
    A = kernel_block(spec, X, Y, np.arange(200), np.arange(200))
    q = rng.random(200)
    z = smash.matvec_nodewise(M, q)
    assert np.linalg.norm(z - A @ q) <= 1e-7 * np.linalg.norm(A @ q)
    # 1-d strong admissibility keeps nearfield blocks dense, so some
    # off-diagonal pairs must be stored exactly
    assert any(i != j for i, j in M.pairs_Lm)


# ---------------------------------------------------------------------------
# one basis per node on one point set
# ---------------------------------------------------------------------------

def test_one_point_set_holds_one_factor_per_node(grid_h2_400):
    M, spec, _ = grid_h2_400
    tr = M.tree
    assert sorted(M.colfac) == sorted(M.rowfac) == list(range(tr.root))
    bcol = _basis_builder(tr, spec, M.params, "col")
    for i, fac in M.rowfac.items():
        assert M.colfac[i] is fac and M.skel_col[i] is M.skel_row[i]
        # the column pass it skips would have found the same factor
        own = compr(*_candidate(M, i, (), bcol, "col"))
        for name in ("perm", "G", "skel"):
            a, b = getattr(own, name), getattr(fac, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (i, name)


def _grid_case(mode):
    X = smash.bench.grid_points(32)
    spec = smash.KernelSpec("cauchy", dx=1.0)
    tree = smash.build_tree(X, nu0=50, mode=mode, tau=0.65)
    return tree, spec, X, X, smash.BuildParams(r=22, tau=0.65)


def _double_layer_case():
    n = 640
    spec = smash.KernelSpec("laplace_dlp", curve=smash.get_curve("sunflower"),
                            nq=n)
    X = smash.bench.curve_points("sunflower", n)
    tree = smash.build_tree(X, nu0=50, mode="2d", tau=0.65)
    return tree, spec, X, X, smash.BuildParams(r=12, tau=0.65)


def _honeybee_case():
    rng = np.random.default_rng(14)
    X, Y = smash.bench.cauchy_pair("honeybee", 800, rng)
    spec = smash.KernelSpec("cauchy_like", w=rng.random((800, 2)),
                            v=rng.random((800, 2)))
    tree = smash.build_tree(X, Y, nu0=50, tau=0.6)
    return tree, spec, X, Y, smash.BuildParams(r=20, tau=0.6)


_STACKED_CASES = {"quadtree-grid": lambda: _grid_case("2d"),
                  "binary-grid": lambda: _grid_case("binary"),
                  "double-layer": _double_layer_case,
                  "honeybee-cauchy-like": _honeybee_case}


@pytest.mark.parametrize("case", sorted(_STACKED_CASES))
def test_stacked_build_stores_the_bytes_of_the_per_node_build(case):
    tree, spec, X, Y, params = _STACKED_CASES[case]()
    M = smash.build_h2(tree, spec, X, Y, params)
    ref = build_h2_per_node(tree, spec, X, Y, params)
    shared = case.endswith("grid")  # the others scale each side
    stacks = {(tree.nodes[i].level, f.perm.size) for i, f in M.rowfac.items()}
    assert len(stacks) < tree.root  # stacks of more than one node
    if not shared:  # and levels of more than one stack
        assert len(stacks) > tree.n_levels - 1
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


def test_distinct_point_sets_keep_two_factors_per_node():
    M, _, _, _, _ = build_1d_pair_h2()
    assert sorted(M.colfac) == sorted(M.rowfac) == list(range(M.tree.root))
    for i, fac in M.rowfac.items():
        assert M.colfac[i] is not fac and M.skel_col[i] is not M.skel_row[i]


def test_cauchy_dx_on_coincident_points_in_one_zero_radius_leaf():
    # the root is a leaf whose box is a point: its pair with itself is
    # nearfield, not a coupling between two nodes without a skeleton
    X = smash.PointSet(np.tile([[0.3, 0.7]], (3, 1)))
    spec = smash.KernelSpec("cauchy", dx=2.5)
    tree = smash.build_tree(X, mode="2d", tau=0.65)
    assert tree.radius[tree.root] == 0.0
    M = smash.build_h2(tree, spec, X, X)
    assert M.pairs_L.tolist() == [] and M.pairs_Lm.tolist() == [
        [tree.root, tree.root]]
    q = np.array([1.0, -2.0, 0.5])
    A = kernel_block(spec, X, X, np.arange(3), np.arange(3))
    np.testing.assert_array_equal(A, np.full((3, 3), 2.5))
    np.testing.assert_array_equal(smash.matvec_nodewise(M, q), A @ q)
