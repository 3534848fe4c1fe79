"""Diagnostics: parameter heuristic, epsilon-rank, analytic error bounds,
storage accounting, and the timing helpers behind the experiment runner."""

import numpy as np
import pytest

import smash
from smash.bench import (BoundInputs, amax_error, as_mib, choose_params,
                         doubling_ratios, eps_rank, error_bound, rank_caps,
                         storage_report, timed_median)

from conftest import build_grid_h2_400, build_interval_hss, dense_oracle


# ---------------------------------------------------------------------------
# parameter heuristic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps,d,tau,r", [
    (1e-7, 2, 0.65, 22),
    (1e-8, 1, 0.60, 21),
    (1e-10, 1, 0.60, 25),
])
def test_published_parameter_rows(eps, d, tau, r):
    p = choose_params(eps, d)
    assert p.tau == tau
    assert p.r == r
    assert p.eps_svd == pytest.approx(eps / 10)


def test_loose_tolerances_keep_minimum_order():
    assert choose_params(1e-3, 1).r == 5
    assert choose_params(0.5, 1).r == 5


def test_parameter_invariants_across_tolerances():
    for exp in range(1, 14):
        for d in (1, 2):
            p = choose_params(10.0 ** -exp, d)
            assert p.r >= 5
            assert 0 < p.tau <= 0.7


def test_tolerance_must_be_below_one():
    with pytest.raises(ValueError):
        choose_params(1.0)
    with pytest.raises(ValueError):
        choose_params(-1e-3)


# ---------------------------------------------------------------------------
# epsilon-rank
# ---------------------------------------------------------------------------

def test_identity_has_full_eps_rank():
    assert eps_rank(np.eye(7), 1e-6) == 7


def test_graded_diagonal_counts_values_above_cut():
    assert eps_rank(np.diag([1.0, 0.5, 1e-4]), 1e-3) == 2


def test_eps_rank_grows_as_tolerance_shrinks():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((40, 40)) @ np.diag(0.5 ** np.arange(40)) \
        @ rng.standard_normal((40, 40))
    ranks = [eps_rank(M, e) for e in (1e-2, 1e-5, 1e-9)]
    assert ranks == sorted(ranks)


def test_zero_and_empty_matrices_rejected():
    with pytest.raises(ValueError):
        eps_rank(np.zeros((3, 3)), 1e-3)
    with pytest.raises(ValueError):
        eps_rank(np.empty((0, 4)), 1e-3)
    with pytest.raises(ValueError):
        eps_rank(np.eye(3), 1.5)


# ---------------------------------------------------------------------------
# error bounds
# ---------------------------------------------------------------------------

def test_single_level_bound_is_zero():
    b = error_bound(BoundInputs(ranks=(), L=1, eps_svd=0.0, eps_far=0.0))
    assert b.theorem == 0.0 and b.corollary == 0.0


def test_two_level_hss_bound_has_published_value():
    inputs = BoundInputs(ranks=(2,), L=2, eps_svd=1e-12, eps_far=1e-10)
    b = error_bound(inputs, structure="hss")
    assert b.corollary == pytest.approx((2 * 4 * 4) ** 2 * (16e-12 + 8e-10),
                                        rel=1e-12)
    assert b.corollary == pytest.approx(8.356e-7, rel=1e-3)
    # the level-resolved form here reduces to C2 * eps_far with C2 = 512
    assert b.theorem == pytest.approx(512 * 1e-10, rel=1e-12)
    assert b.theorem <= b.corollary


def test_h2_corollary_scales_with_dimension():
    inputs1 = BoundInputs(ranks=(3, 3), L=3, eps_far=1e-8, d=1)
    inputs2 = BoundInputs(ranks=(3, 3), L=3, eps_far=1e-8, d=2)
    b1 = error_bound(inputs1, structure="h2")
    b2 = error_bound(inputs2, structure="h2")
    assert b2.corollary == pytest.approx(b1.corollary * 2 ** 3)
    assert b1.corollary == pytest.approx((2 * 9 * 4) ** 3 * 8e-8)


def test_theorem_form_never_exceeds_corollary_on_uniform_caps():
    for L in (2, 3, 4, 5):
        inputs = BoundInputs(ranks=(6,) * (L - 1), L=L, eps_svd=1e-11,
                             eps_far=1e-9)
        for structure in ("hss", "h2"):
            b = error_bound(inputs, structure=structure)
            assert 0 < b.theorem <= b.corollary


def test_bound_inputs_validate_shape_and_monotonicity():
    with pytest.raises(ValueError):
        BoundInputs(ranks=(4, 4), L=2)       # L-1 = 1 cap expected
    with pytest.raises(ValueError):
        BoundInputs(ranks=(3, 5), L=3)       # caps must not grow with depth


def test_rank_caps_envelope_is_monotone(cauchy_hss_400):
    M, _, _, _ = cauchy_hss_400
    caps = rank_caps(M)
    assert len(caps) == M.tree.n_levels - 1
    assert all(a >= b for a, b in zip(caps, caps[1:]))
    tr = M.tree
    for level, cap in zip(range(2, tr.n_levels + 1), caps):
        for i in tr.level_nodes(level):
            if i in M.skel_row:
                assert M.rank_row(i) <= cap and M.rank_col(i) <= cap


# ---------------------------------------------------------------------------
# storage accounting
# ---------------------------------------------------------------------------

def test_storage_ordering_on_factor_form(cauchy_hss_400):
    M, _, _, _ = cauchy_hss_400
    rep = storage_report(M)
    assert rep.compressed_bytes <= rep.generator_bytes <= rep.dense_bytes
    assert rep.dense_bytes == 400 * 400 * np.dtype(M.dtype).itemsize


def test_storage_ordering_on_h2(grid_h2_400):
    # on a grid this small the far field is barely compressible, so the
    # dense-generator form may exceed n^2; only the compressed form must win
    M, _, _ = grid_h2_400
    rep = storage_report(M)
    assert rep.compressed_bytes <= rep.generator_bytes
    assert rep.compressed_bytes <= rep.dense_bytes
    assert rep.dense_bytes == 400 * 400 * np.dtype(M.dtype).itemsize


def test_shared_h2_factor_counted_once(grid_h2_400):
    M, _, _ = grid_h2_400
    rep = storage_report(M)
    facs = M.rowfac.values()
    assert all(M.colfac[i] is f for i, f in M.rowfac.items())
    assert rep.breakdown["interp"] == 16 * sum(f.G.size for f in facs)
    assert rep.breakdown["index"] == 8 * sum(f.perm.size for f in facs)


def test_kept_bytes_are_the_block_rows_an_apply_evaluated():
    M, _, X = build_grid_h2_400()
    assert storage_report(M).kept_bytes == 0
    smash.matvec_nodewise(M, np.ones(X.n))
    rows = {kind: [row for _, row in M.block_rows(kind)]
            for kind in ("L", "Lm")}
    assert storage_report(M).kept_bytes == sum(
        row.A.nbytes for kept in rows.values() for row in kept)
    assert storage_report(M).kept_bytes > storage_report(M).compressed_bytes
    # the Cauchy couplings on one point set: one block per unordered pair
    unordered = {(min(p), max(p)) for p in M.pairs_L}
    assert 2 * len(unordered) == len(M.pairs_L)
    assert sum(len(row.sources) for row in rows["L"]) == len(unordered)
    assert sum(row.A.nbytes for row in rows["L"]) == 16 * sum(
        M.rank_row(i) * M.rank_col(j) for i, j in unordered)
    # and the nearfield keeps half of its off-diagonal leaf pairs' bytes
    nodes = M.tree.nodes
    size = {(i, j): 16 * nodes[i].n_row * nodes[j].n_col
            for i, j in M.pairs_Lm}
    off = sum(b for (i, j), b in size.items() if i != j)
    assert sum(size.values()) - sum(row.A.nbytes for row in rows["Lm"]) == (
        off // 2)


def test_amax_error_reads_every_column_within_the_budget(cauchy_hss_400):
    M, spec, X, Y = cauchy_hss_400
    worst = float(np.max(np.abs(dense_oracle(spec, X, Y) - M.todense())))
    assert amax_error(M, spec, X, Y) == (worst, True)
    # past the budget, seeded columns; here enough to cover every column
    assert amax_error(M, spec, X, Y, budget=400 * 399) == (worst, False)


def test_single_leaf_stores_exactly_the_dense_block():
    M, _, _, _ = build_interval_hss(10)
    rep = storage_report(M)
    assert rep.compressed_bytes == 10 * 10 * 8
    assert rep.breakdown["diag"] == 10 * 10 * 8
    assert rep.breakdown["index"] == 0


def test_dense_accounting_formula():
    # double precision, binary mebibytes: 10240^2 entries come to 800 MB
    assert 10240 * 10240 * 8 == 800 * 2 ** 20


def test_mib_conversion():
    assert as_mib(800 * 2 ** 20) == pytest.approx(800.0)
    assert as_mib(0) == 0.0


def test_compression_wins_at_scale():
    M, _, _, _ = build_interval_hss(2048, r=21, eps_svd=1e-9)
    rep = storage_report(M)
    assert rep.compressed_bytes < 0.5 * rep.generator_bytes
    assert rep.compressed_bytes < 0.25 * rep.dense_bytes


# ---------------------------------------------------------------------------
# timing helpers
# ---------------------------------------------------------------------------

def test_timed_median_returns_result_and_time():
    t, out = timed_median(lambda: sum(range(1000)))
    assert out == 499500
    assert t >= 0.0


def test_doubling_ratios_normalize_step_size():
    # quadrupling time per doubling gives ratio 4; a four-fold size step
    # with the same growth law still reports the per-doubling ratio
    ns = [100, 200, 800]
    ts = [1.0, 4.0, 64.0]
    r = doubling_ratios(ns, ts)
    assert r[0] == pytest.approx(4.0)
    assert r[1] == pytest.approx(4.0)


def test_linear_growth_has_ratio_two():
    r = doubling_ratios([1000, 2000, 4000], [0.1, 0.2, 0.4])
    assert r == [pytest.approx(2.0), pytest.approx(2.0)]
