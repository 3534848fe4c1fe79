"""Block-row storage: couplings and nearfield blocks kept as one row per
target node, evaluated with one kernel call on first use; B and NF are
views into the rows, and every format applies like its dense oracle."""

import numpy as np
import pytest

import smash
from smash import hss
from smash.kernel import kernel_block

from conftest import build_interval_hss, dense_oracle


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


def row_count(M):
    return len({i for i, _ in M.pairs_L}) + len({i for i, _ in M.pairs_Lm})


def test_first_apply_makes_one_kernel_call_per_row(tmp_path, grid_h2_400,
                                                   kernel_calls):
    M = reloaded(grid_h2_400[0], tmp_path)
    q = np.random.default_rng(0).random(M.n_col)
    smash.matvec_nodewise(M, q)
    assert len(kernel_calls) == row_count(M)
    assert row_count(M) < len(M.pairs_L) + len(M.pairs_Lm)
    del kernel_calls[:]
    smash.matvec_nodewise(M, q)
    assert kernel_calls == []


def test_blocks_are_views_into_their_rows(grid_h2_400):
    M, _, _ = grid_h2_400
    for kind, pairs, get in (("L", M.pairs_L, M.B), ("Lm", M.pairs_Lm, M.NF)):
        for i, j in pairs:
            assert np.shares_memory(get(i, j), M.block_row(kind, i).A)
        for i, row in M.block_rows(kind):
            np.testing.assert_array_equal(
                row.A, np.hstack([get(i, j) for j in row.sources]))


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


_CASES = {
    "h2": lambda tmp, g: _grid(tmp, g, False),
    "h2_reloaded": lambda tmp, g: _grid(tmp, g, True),
    "hss": lambda tmp, g: _interval(300, False),
    "hss_add_diag_scale": lambda tmp, g: _interval(300, True),
    "single_leaf": lambda tmp, g: _interval(30, False),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_matvec_matches_dense_oracle(tmp_path, grid_h2_400, case):
    M, A = _CASES[case](tmp_path, grid_h2_400)
    Q = np.random.default_rng(1).random((A.shape[1], 2))
    Z = smash.matvec_nodewise(M, Q)
    assert np.linalg.norm(Z - A @ Q) <= 1e-9 * np.linalg.norm(A @ Q)
    # the second apply reads the rows the first one filled
    np.testing.assert_array_equal(smash.matvec_nodewise(M, Q), Z)
