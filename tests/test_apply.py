"""Fast application paths: node-wise and level-synchronous matvec, the ULV
factorization and solve, and the vector file round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smash
from smash.apply import read_vector, write_vector
from smash.hss import HssMatrix, cauchy_like_hss
from smash.lowrank import InterpolativeFactor

from conftest import build_interval_hss, dense_oracle, interval_pair


# ---------------------------------------------------------------------------
# matvec
# ---------------------------------------------------------------------------

def test_zero_vector_maps_to_zero(cauchy_hss_400):
    M, _, _, _ = cauchy_hss_400
    z = smash.matvec_nodewise(M, np.zeros(400))
    np.testing.assert_array_equal(z, np.zeros(400))


def test_hss_matvec_matches_dense_oracle():
    M, spec, X, Y = build_interval_hss(512, nu0=32)
    A = dense_oracle(spec, X, Y)
    q = np.random.default_rng(0).random(512)
    z = smash.matvec_nodewise(M, q)
    assert np.linalg.norm(z - A @ q) <= 1e-8 * np.linalg.norm(A @ q)


def test_matvec_is_linear(cauchy_hss_400):
    M, _, _, _ = cauchy_hss_400
    rng = np.random.default_rng(4)
    q1, q2 = rng.random(400), rng.random(400)
    a, b = -1.7, 0.3
    lhs = smash.matvec_nodewise(M, a * q1 + b * q2)
    rhs = (a * smash.matvec_nodewise(M, q1)
           + b * smash.matvec_nodewise(M, q2))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


def test_matvec_accepts_multiple_right_hand_sides(cauchy_hss_400):
    M, _, _, _ = cauchy_hss_400
    Q = np.random.default_rng(1).random((400, 3))
    Z = smash.matvec_nodewise(M, Q)
    assert Z.shape == (400, 3)
    for j in range(3):
        np.testing.assert_allclose(Z[:, j], smash.matvec_nodewise(M, Q[:, j]),
                                   rtol=1e-13)


def test_matvec_rejects_wrong_length(cauchy_hss_400):
    M, _, _, _ = cauchy_hss_400
    with pytest.raises(ValueError):
        smash.matvec_nodewise(M, np.ones(399))


def test_levelwise_agrees_with_nodewise_on_perfect_tree():
    M, _, _, _ = build_interval_hss(512, nu0=32)
    assert len({M.tree.nodes[i].level for i in M.tree.leaves()}) == 1
    q = np.random.default_rng(2).random(512)
    z1 = smash.matvec_nodewise(M, q)
    z2 = smash.matvec_levelwise(M, q)
    assert np.linalg.norm(z1 - z2) <= 1e-14 * np.linalg.norm(z1)


def test_levelwise_on_single_level_tree_is_dense_product():
    M, spec, X, Y = build_interval_hss(10)
    A = dense_oracle(spec, X, Y)
    q = np.random.default_rng(3).random(10)
    np.testing.assert_allclose(smash.matvec_levelwise(M, q), A @ q,
                               rtol=1e-14)


def test_levelwise_rejects_uneven_trees():
    rng = np.random.default_rng(6)
    x = np.concatenate([np.linspace(0, 0.05, 56), rng.random(8) * 0.9 + 0.1])
    x = np.sort(x).reshape(-1, 1)
    X = smash.PointSet(x)
    Y = smash.PointSet(x + 1e-9, role="col")
    tree = smash.build_tree(X, Y, nu0=8)
    assert len({tree.nodes[i].level for i in tree.leaves()}) > 1
    M = smash.build_hss(tree, smash.KernelSpec("cauchy"), X, Y,
                        smash.BuildParams(r=10, eps_svd=1e-10))
    q = np.ones(64)
    np.testing.assert_allclose(smash.matvec_nodewise(M, q).shape, (64,))
    with pytest.raises(ValueError):
        smash.matvec_levelwise(M, q)


# ---------------------------------------------------------------------------
# ULV solve
# ---------------------------------------------------------------------------

def identity_like_hss(n=32, leaf=16):
    """Hand-built HSS of the identity: unit diagonal blocks, rank-zero
    couplings."""
    x = (np.arange(1, n + 1) / (n + 1.0)).reshape(-1, 1)
    X = smash.PointSet(x)
    tree = smash.build_tree(X, X, nu0=leaf)

    def block(rows, cols):
        return (np.asarray(rows)[:, None]
                == np.asarray(cols)[None, :]).astype(float)

    L, Lm = smash.leaf_sets(tree, structure="hss")
    M = HssMatrix(tree, smash.BuildParams(r=1), block, L, Lm, np.float64)
    empty = np.zeros(0, dtype=np.int64)
    for i in tree.leaves():
        m = tree.nodes[i].n_row
        M.skel_row[i] = empty
        M.skel_col[i] = empty
        M.rowfac[i] = InterpolativeFactor(m, np.arange(m), np.zeros((m, 0)),
                                          empty)
        M.colfac[i] = InterpolativeFactor(m, np.arange(m), np.zeros((m, 0)),
                                          empty)
    return M


def test_identity_matrix_solves_to_rhs():
    M = identity_like_hss()
    b = np.random.default_rng(0).random(32)
    np.testing.assert_allclose(smash.matvec_nodewise(M, b), b, atol=1e-15)
    F = smash.ulv_factor(M)
    np.testing.assert_allclose(smash.ulv_solve(F, b), b, atol=1e-12)


def test_solve_then_multiply_recovers_rhs(cauchy_hss_400):
    M, _, _, _ = cauchy_hss_400
    b = np.random.default_rng(5).random(400)
    F = smash.ulv_factor(M)
    x = smash.ulv_solve(F, b)
    r = smash.matvec_nodewise(M, x) - b
    assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(b)


def test_solution_matches_dense_solve(cauchy_hss_400):
    M, spec, X, Y = cauchy_hss_400
    A = dense_oracle(spec, X, Y)
    b = np.random.default_rng(7).random(400)
    x = smash.ulv_solve(smash.ulv_factor(M), b)
    xd = np.linalg.solve(A, b)
    assert np.linalg.norm(x - xd) <= 1e-7 * np.linalg.norm(xd)


def test_solve_handles_multiple_right_hand_sides(cauchy_hss_400):
    M, _, _, _ = cauchy_hss_400
    B = np.random.default_rng(8).random((400, 3))
    F = smash.ulv_factor(M)
    Xs = smash.ulv_solve(F, B)
    assert Xs.shape == (400, 3)
    for j in range(3):
        np.testing.assert_allclose(Xs[:, j], smash.ulv_solve(F, B[:, j]),
                                   rtol=1e-12, atol=1e-12)


def test_factorization_is_reusable(cauchy_hss_400):
    M, _, _, _ = cauchy_hss_400
    F = smash.ulv_factor(M)
    rng = np.random.default_rng(9)
    for _ in range(3):
        b = rng.random(400)
        r = smash.matvec_nodewise(M, smash.ulv_solve(F, b)) - b
        assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(b)


def test_sum_with_explicit_bases_solves_accurately(cauchy_hss_400):
    # hss_add recompresses its bases into interpolative factors; the solve
    # eliminates through them like through those of built matrices
    M, _, _, _ = cauchy_hss_400
    d = np.linspace(1.0, 2.0, 400)
    S = smash.hss_add(M, smash.diag_scale(M, d, d))
    b = np.random.default_rng(10).random(400)
    x = smash.ulv_solve(smash.ulv_factor(S), b)
    assert np.linalg.norm(S.todense() @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_cauchy_like_system_solves_accurately():
    n, p = 400, 2
    rng = np.random.default_rng(11)
    X, Y = interval_pair(n)
    w, v = rng.random((n, p)), rng.random((n, p))
    tree = smash.build_tree(X, Y, nu0=50)
    M = cauchy_like_hss(tree, X, Y, w, v,
                        smash.BuildParams(r=25, eps_svd=1e-9))
    u = rng.random(n)
    C = dense_oracle(smash.KernelSpec("cauchy"), X, Y)
    A = sum(w[:, l][:, None] * C * v[:, l][None, :] for l in range(p))
    b = A @ u
    uh = smash.ulv_solve(smash.ulv_factor(M), b)
    assert np.linalg.norm(uh - u) <= 1e-7 * np.linalg.norm(u)
    resid = smash.matvec_nodewise(M, uh) - b
    assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(b)


@pytest.mark.parametrize("n, nu0, s", [(300, 16, 0.5), (1000, 32, 0.37)])
def test_interleaved_points_with_uneven_leaves_solve(n, nu0, s):
    # x_k = k/(n+1) and y_k = x_k + s/(n+1): most leaves hold unequal row
    # and column counts
    x = (np.arange(1, n + 1) / (n + 1.0)).reshape(-1, 1)
    X, Y = smash.PointSet(x), smash.PointSet(x + s / (n + 1.0), role="col")
    tree = smash.build_tree(X, Y, nu0=nu0)
    assert any(tree.nodes[i].n_row != tree.nodes[i].n_col
               for i in tree.leaves())
    M = smash.build_hss(tree, smash.KernelSpec("cauchy"), X, Y)
    b = np.random.default_rng(13).random(n)
    x = smash.ulv_solve(smash.ulv_factor(M), b)
    r = smash.matvec_nodewise(M, x) - b
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b)


def test_more_redundant_rows_than_unknowns_reported_with_node_id():
    # rank-zero bases leave every row of a leaf redundant; a leaf with more
    # rows than columns then holds linearly dependent rows
    x = (np.arange(1, 33) / 33.0).reshape(-1, 1)
    X, Y = smash.PointSet(x), smash.PointSet(np.sqrt(x), role="col")
    tree = smash.build_tree(X, Y, nu0=8)
    leaf = tree.leaves()[0]
    assert tree.nodes[leaf].n_row > tree.nodes[leaf].n_col
    L, Lm = smash.leaf_sets(tree, structure="hss")
    M = HssMatrix(tree, smash.BuildParams(r=1), lambda r, c: np.ones(
        (len(r), len(c))), L, Lm, np.float64)
    empty = np.zeros(0, dtype=np.int64)
    for i in range(tree.root):
        nd = tree.nodes[i]
        for facs, skels, m in ((M.rowfac, M.skel_row, nd.n_row),
                               (M.colfac, M.skel_col, nd.n_col)):
            m = m if nd.is_leaf else 0  # the children's skeletons are empty
            facs[i] = InterpolativeFactor(m, np.arange(m), np.zeros((m, 0)),
                                          empty)
            skels[i] = empty
    with pytest.raises(np.linalg.LinAlgError, match="node %d:" % leaf):
        smash.ulv_factor(M)


def test_singular_block_reported_with_node_id(cauchy_hss_400):
    M, _, _, _ = cauchy_hss_400
    Z = smash.diag_scale(M, np.zeros(400), np.ones(400))
    with pytest.raises(np.linalg.LinAlgError, match="node"):
        smash.ulv_factor(Z)


def test_single_leaf_tree_solves_with_dense_lu():
    M, spec, X, Y = build_interval_hss(30, nu0=50)
    assert M.tree.is_leaf(M.tree.root)
    b = np.random.default_rng(12).random(30)
    x = smash.ulv_solve(smash.ulv_factor(M), b)
    A = dense_oracle(spec, X, Y)
    assert np.linalg.norm(A @ x - b) <= 1e-9 * np.linalg.norm(b)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_single_leaf_reported_with_node_id():
    X, Y = interval_pair(30)
    tree = smash.build_tree(X, Y, nu0=50)
    L, Lm = smash.leaf_sets(tree, structure="hss")
    Z = HssMatrix(tree, smash.BuildParams(),
                  lambda r, c: np.zeros((r.size, c.size)), L, Lm, np.float64)
    with pytest.raises(np.linalg.LinAlgError, match="node 0"):
        smash.ulv_factor(Z)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 120), st.integers(4, 40),
       st.sampled_from(["cauchy", "cauchy_like"]))
def test_random_interval_sets_build_apply_and_solve(seed, n, nu0, kind):
    # random gaps between row points, each column point just off its row
    # point; n <= nu0 gives a single-leaf tree
    rng = np.random.default_rng(seed)
    x = np.cumsum(0.5 + rng.random(n))
    x = (x / (x[-1] + 1.0)).reshape(-1, 1)
    X = smash.PointSet(x)
    Y = smash.PointSet(x + 1e-7 * rng.random((n, 1)), role="col")
    if kind == "cauchy":
        spec = smash.KernelSpec("cauchy")
    else:
        spec = smash.KernelSpec("cauchy_like", w=0.5 + rng.random((n, 2)),
                                v=0.5 + rng.random((n, 2)))
    tree = smash.build_tree(X, Y, nu0=nu0)
    M = smash.build_hss(tree, spec, X, Y,
                        smash.BuildParams(r=21, eps_svd=1e-10))
    A = dense_oracle(spec, X, Y)
    u = rng.random(n)
    b = A @ u
    assert np.linalg.norm(smash.matvec_nodewise(M, u) - b) \
        <= 1e-9 * np.linalg.norm(A, 2) * np.linalg.norm(u)
    x_ = smash.ulv_solve(smash.ulv_factor(M), b)
    assert np.linalg.norm(A @ x_ - b) <= 1e-9 * np.linalg.norm(b)
    assert np.linalg.norm(x_ - u) <= 1e-7 * np.linalg.norm(u)


def test_factorization_rejects_h2_input(grid_h2_400):
    M, _, _ = grid_h2_400
    with pytest.raises(ValueError):
        smash.ulv_factor(M)


# ---------------------------------------------------------------------------
# vector files
# ---------------------------------------------------------------------------

def test_text_vector_round_trip(tmp_path):
    v = np.random.default_rng(0).standard_normal(17)
    path = tmp_path / "v.txt"
    write_vector(path, v)
    np.testing.assert_allclose(read_vector(path), v, rtol=1e-15)


def test_raw_vector_round_trip(tmp_path):
    v = np.random.default_rng(1).standard_normal(33)
    path = tmp_path / "v.bin"
    write_vector(path, v)
    np.testing.assert_array_equal(read_vector(path), v)
