"""Block-row storage: couplings and nearfield blocks kept as one row per
target node, the rows of one shape stacked in a group and evaluated by one
kernel call on first use; B and NF are views into the groups' rows, a
Cauchy matrix on one point set keeps one coupling block and one
off-diagonal nearfield block per unordered pair, and every format applies
like its dense oracle and like its nodes and pairs one at a time."""

import numpy as np
import pytest

import smash
from smash import hss
from smash.kernel import kernel_block

from conftest import build_1d_pair_h2, build_interval_hss, dense_oracle


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the kernel evaluations made through the block evaluator."""
    calls = []

    def counting(*args):
        calls.append(args)
        return kernel_block(*args)

    monkeypatch.setattr(hss, "kernel_block", counting)
    return calls


def reloaded(M, tmp_path):
    """A copy of M with no row evaluated yet."""
    path = tmp_path / "m.smash"
    smash.save_matrix(M, path)
    return smash.load_matrix(path)


def kept_rows(M):
    """(kind, i, sources) of every block row M keeps."""
    return [(kind, i, js) for kind in ("L", "Lm")
            for i, js in M._sources[kind][1].items()]


def row_of(M, kind, i):
    """Node i's kept row of that kind, a view into its group."""
    groups = M.block_groups(kind)
    g, r = M._where[kind][i]
    return groups[g].A[r]


def test_first_apply_makes_one_kernel_call_per_shape_group(
        tmp_path, grid_h2_400, kernel_calls):
    M = reloaded(grid_h2_400[0], tmp_path)
    q = np.random.default_rng(0).random(M.n_col)
    smash.matvec_nodewise(M, q)
    calls = len(kernel_calls)
    rows = kept_rows(M)
    groups = [g for kind in ("L", "Lm") for g in M.block_groups(kind)]
    assert calls == len(groups) < len(rows)
    assert sum(len(g.A) for g in groups) == len(rows)
    # one call on each group's stacked labels, which evaluates every kept
    # entry once: its rows' blocks, side by side, with no gaps; the calls
    # run largest group first, on up to two threads
    assert (sorted(rows_t.shape + cols_t.shape[-1:]
                   for _, _, _, rows_t, cols_t in kernel_calls)
            == sorted(g.A.shape for g in groups))
    for kind, i, js in rows:
        get = M.B if kind == "L" else M.NF
        width = row_of(M, kind, i).shape[1]
        assert sum(get(i, j).shape[1] for j in js) == width
    assert len(kernel_calls) == calls  # the apply filled every kept row
    # a coupling row for each target i of a pair (i, j) with i < j, the
    # mirrored pairs standing for the rest; a nearfield row for each leaf
    assert len(rows) == (len({i for i, j in M.pairs_L if i < j})
                         + len({i for i, _ in M.pairs_Lm}))
    assert len(rows) < len(M.pairs_L) // 2 + len(M.pairs_Lm)
    del kernel_calls[:]
    smash.matvec_nodewise(M, q)
    assert kernel_calls == []


def test_blocks_are_views_into_their_rows(grid_h2_400):
    M, _, _ = grid_h2_400
    tr = M.tree
    leaves = len(tr.leaves())
    for kind, pairs, get, rows, cols, n_mirrored in (
            ("L", M.pairs_L, M.B, M.skel_row.get, M.skel_col.get,
             len(M.pairs_L) // 2),
            ("Lm", M.pairs_Lm, M.NF, tr.row_range, tr.col_range,
             (len(M.pairs_Lm) - leaves) // 2)):
        kept = set()
        for i, js in M._sources[kind][1].items():
            row = row_of(M, kind, i)
            kept.update((i, j) for j in js)
            for j in js:
                assert np.shares_memory(get(i, j), row)
            np.testing.assert_array_equal(
                row, np.hstack([get(i, j) for j in js]))
        mirrored = set(map(tuple, pairs.tolist())) - kept
        assert len(mirrored) == n_mirrored
        for i, j in mirrored:
            assert (j, i) in kept
            np.testing.assert_array_equal(get(i, j), -get(j, i).T)
            # which is the kernel's own block at the skeleton pairs, or
            # between the two leaves' points
            np.testing.assert_array_equal(get(i, j),
                                          M._block(rows(i), cols(j)))


def test_ulv_factor_after_matvec_evaluates_nothing(kernel_calls):
    M, _, _, _ = build_interval_hss(300, nu0=32)
    smash.matvec_nodewise(M, np.ones(300))
    del kernel_calls[:]
    smash.ulv_factor(M)
    assert kernel_calls == []


def _grid(tmp_path, grid_h2_400, reload):
    M, spec, X = grid_h2_400
    A = kernel_block(spec, X, X, np.arange(X.n), np.arange(X.n))
    return (reloaded(M, tmp_path) if reload else M), A


def _interval(n, scaled):
    M, spec, X, Y = build_interval_hss(n, nu0=32)
    A = dense_oracle(spec, X, Y)
    if not scaled:
        return M, A
    rng = np.random.default_rng(2)
    dl, dr = rng.random(n) + 0.5, rng.random(n) + 0.5
    S = hss.diag_scale(M, dl, dr)
    return hss.hss_add(M, S), A + dl[:, None] * A * dr[None, :]


def _one_set_1d(build):
    """A Cauchy matrix, I plus a skew part, on one 1-d point set (where
    HSS holds one factor per node too)."""
    x = np.sort(np.random.default_rng(3).random(300)).reshape(-1, 1)
    X = smash.PointSet(x)
    spec = smash.KernelSpec("cauchy", dx=1.0)
    tree = smash.build_tree(X, nu0=32, tau=0.6)
    M = build(tree, spec, X, X,
              smash.BuildParams(r=21, tau=0.6, eps_svd=1e-12))
    return M, dense_oracle(spec, X, X)


def _pair_1d():
    M, spec, X, Y, _ = build_1d_pair_h2()
    return M, dense_oracle(spec, X, Y)


def _shifted_grid():
    """H2 on the 20x20 grid against the same grid moved by 1e-3."""
    X = smash.bench.grid_points(20)
    Y = smash.PointSet(X.coords + 1e-3)
    spec = smash.KernelSpec("cauchy")
    tree = smash.build_tree(X, Y, nu0=50, mode="2d", tau=0.65)
    M = smash.build_h2(tree, spec, X, Y, smash.BuildParams(r=22, tau=0.65))
    return M, dense_oracle(spec, X, Y)


def _matvec_by_node(M, Q):
    """A @ Q one node and one block pair at a time, through ``B``, ``NF``
    and each factor's expansion: the reference the grouped apply must
    match to rounding."""
    tr = M.tree
    dtype = np.result_type(M.dtype, Q.dtype)
    qt = Q[tr.perm_col]
    up = {}
    for i in range(tr.root):  # postorder: children before parents
        nd = tr.nodes[i]
        src = (qt[nd.col_start:nd.col_stop] if nd.is_leaf
               else np.vstack([up[c] for c in nd.children]))
        up[i] = M.V(i).T @ src
    down = {i: np.zeros((M.rank_row(i), Q.shape[1]), dtype)
            for i in range(tr.root)}
    for i, j in M.pairs_L.tolist():
        down[i] += M.B(i, j) @ up[j]
    zt = np.zeros((M.n_row, Q.shape[1]), dtype)
    for i in reversed(range(tr.root)):  # parents before children
        nd = tr.nodes[i]
        e = M.U(i) @ down[i]
        if nd.is_leaf:
            zt[nd.row_start:nd.row_stop] += e
        else:
            for c, part in zip(nd.children, np.split(
                    e, np.cumsum([M.rank_row(c) for c in nd.children])[:-1])):
                down[c] += part
    for i, j in M.pairs_Lm.tolist():
        nd, src = tr.nodes[i], tr.nodes[j]
        zt[nd.row_start:nd.row_stop] += M.NF(i, j) @ qt[src.col_start:
                                                        src.col_stop]
    Z = np.empty_like(zt)
    Z[tr.perm_row] = zt
    return Z


# (build, whether each kept row stands for its mirrored pairs too)
_CASES = {
    "h2": (lambda tmp, g: _grid(tmp, g, False), True),
    "h2_reloaded": (lambda tmp, g: _grid(tmp, g, True), True),
    "h2_interval_one_set": (lambda tmp, g: _one_set_1d(smash.build_h2), True),
    "h2_interval_pair": (lambda tmp, g: _pair_1d(), False),
    "h2_grid_shifted": (lambda tmp, g: _shifted_grid(), False),
    "hss": (lambda tmp, g: _interval(300, False), False),
    "hss_interval_one_set": (lambda tmp, g: _one_set_1d(smash.build_hss),
                             True),
    "hss_add_diag_scale": (lambda tmp, g: _interval(300, True), False),
    "single_leaf": (lambda tmp, g: _interval(30, False), False),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_matvec_matches_dense_oracle(tmp_path, grid_h2_400, case):
    build, mirrored = _CASES[case]
    M, A = build(tmp_path, grid_h2_400)
    Q = np.random.default_rng(1).random((A.shape[1], 2))
    Z = smash.matvec_nodewise(M, Q)
    assert np.linalg.norm(Z - A @ Q) <= 1e-10 * np.linalg.norm(A @ Q)
    # the second apply reads the rows the first one filled
    np.testing.assert_array_equal(smash.matvec_nodewise(M, Q), Z)
    # and the groups apply what the nodes and pairs hold, to rounding
    ref = _matvec_by_node(M, Q)
    assert np.linalg.norm(Z - ref) <= 1e-14 * np.linalg.norm(ref)
    # a mirrored matrix keeps one coupling block per unordered pair, and
    # one nearfield block per unordered leaf pair besides the diagonal
    for kind, pairs in (("L", M.pairs_L), ("Lm", M.pairs_Lm)):
        assert M._sources[kind][0] == mirrored
        assert all(g.mirrored == mirrored for g in M.block_groups(kind))
        diagonal = sum(i == j for i, j in pairs)
        assert sum(map(len, M._sources[kind][1].values())) == (
            (len(pairs) + diagonal) // 2 if mirrored else len(pairs))


@pytest.mark.parametrize("case", ["h2", "hss_add_diag_scale"])
def test_many_column_apply_matches_one_column_applies(tmp_path, grid_h2_400,
                                                      case):
    # 300 columns split every group into slices of a few rows, and the
    # mirrored grid sums its repeated transposed products a row of the
    # output at a time, where one column takes the 1-d ufunc.at
    M, A = _CASES[case][0](tmp_path, grid_h2_400)
    Q = np.random.default_rng(6).random((A.shape[1], 300))
    Z = smash.matvec_nodewise(M, Q)
    for j in (0, 1, 150, 299):
        z = smash.matvec_nodewise(M, Q[:, j])
        assert np.linalg.norm(Z[:, j] - z) <= 1e-14 * np.linalg.norm(z)
    assert np.linalg.norm(Z - A @ Q) <= 1e-10 * np.linalg.norm(A @ Q)


def test_ulv_solve_reads_mirrored_couplings():
    M, A = _one_set_1d(smash.build_hss)
    b = np.random.default_rng(5).random(A.shape[0])
    x = smash.ulv_solve(smash.ulv_factor(M), b)
    assert M.block_groups("L")
    assert all(g.mirrored for g in M.block_groups("L"))
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def _equal_points(split):
    """H2 on one 1-d point set holding 0.5 twice.  ``build_tree`` puts both
    copies in the leaf below 0.5; split, the tree is edited to move one
    copy into the leaf above, which a tree read from a file may do."""
    x = np.sort(np.append(np.arange(129) / 128, 0.5)).reshape(-1, 1)
    X = smash.PointSet(x)
    tree = smash.build_tree(X, nu0=12, tau=0.6)
    k = int(np.flatnonzero(tree.points_row[:, 0] == 0.5)[-1]) + 1
    for nd in tree.nodes if split else ():
        if nd.row_stop == k:
            nd.row_stop = nd.col_stop = k - 1
        elif nd.row_start == k:
            nd.row_start = nd.col_start = k - 1
    tree.verify()
    spec = smash.KernelSpec("cauchy", dx=1.0)
    M = smash.build_h2(tree, spec, X, X,
                       smash.BuildParams(r=21, tau=0.6, eps_svd=1e-12))
    return M, dense_oracle(spec, X, X)


@pytest.mark.parametrize("split", [False, True])
def test_nearfield_is_mirrored_only_where_leaves_keep_equal_points(
        tmp_path, split):
    M, A = _equal_points(split)
    M = reloaded(M, tmp_path)
    tr = M.tree
    holders = [i for i in tr.leaves()
               if 0.5 in tr.points_row[tr.row_range(i), 0]]
    assert len(holders) == (2 if split else 1)
    Q = np.random.default_rng(4).random((A.shape[1], 2))
    assert np.linalg.norm(smash.matvec_nodewise(M, Q) - A @ Q) <= (
        1e-10 * np.linalg.norm(A @ Q))
    # the couplings are mirrored either way
    assert M.block_groups("L")
    assert all(g.mirrored for g in M.block_groups("L"))
    assert all(g.mirrored != split for g in M.block_groups("Lm"))
    if split:  # both blocks hold dx where the two copies meet
        low, high = holders
        assert not np.array_equal(M.NF(high, low), -M.NF(low, high).T)


def _by_target_loop(pairs, mirrored):
    """The grouping of ``hss._by_target`` as a loop over pair tuples: the
    reference its array form must match, rows and order."""
    pairs = [tuple(p) for p in pairs.tolist()]
    if mirrored:
        pairs = ([(i, j) for i, j in pairs if i == j]
                 + [(i, j) for i, j in pairs if i < j])
    out = {}
    for i, j in pairs:
        out.setdefault(i, []).append(j)
    return mirrored, {i: tuple(js) for i, js in out.items()}


@pytest.mark.parametrize("mirrored", [False, True])
def test_grouping_by_target_matches_the_loop(grid_h2_400, mirrored):
    # the partition's own order, a shuffle of it, and a one-sided part
    M = grid_h2_400[0]
    shuffled = np.random.default_rng(3).permutation(M.pairs_L)
    for pairs in (M.pairs_L, M.pairs_Lm, shuffled, M.pairs_L[::3],
                  np.zeros((0, 2), dtype=np.int64)):
        got = hss._by_target(pairs, mirrored)
        assert got == _by_target_loop(pairs, mirrored)
        assert list(got[1]) == list(_by_target_loop(pairs, mirrored)[1])
