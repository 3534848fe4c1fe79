"""On-disk matrix container: round trips for kernel-backed and dense-form
matrices, and the guard for matrices saved without their kernel."""

import json

import numpy as np
import pytest

import smash
from smash.hss import cauchy_like_hss

from conftest import build_interval_hss, interval_pair


def test_hss_round_trip_preserves_matvec_bitwise(tmp_path):
    M, _, _, _ = build_interval_hss(300, nu0=32)
    path = tmp_path / "m.smash"
    smash.save_matrix(M, path)
    M2 = smash.load_matrix(path)
    q = np.random.default_rng(0).random(300)
    np.testing.assert_array_equal(smash.matvec_nodewise(M, q),
                                  smash.matvec_nodewise(M2, q))


def test_round_trip_preserves_structure(tmp_path):
    M, _, _, _ = build_interval_hss(300, nu0=32)
    path = tmp_path / "m.smash"
    smash.save_matrix(M, path)
    M2 = smash.load_matrix(path)
    assert M2.kind == "hss"
    assert M2.pairs_L == M.pairs_L and M2.pairs_Lm == M.pairs_Lm
    assert M2.params == M.params
    for i in M.skel_row:
        np.testing.assert_array_equal(M2.skel_row[i], M.skel_row[i])
    for i in M.tree.leaves():
        np.testing.assert_array_equal(M2.Dblocks[i], M.Dblocks[i])


def test_h2_round_trip(tmp_path, grid_h2_400):
    M, _, X = grid_h2_400
    path = tmp_path / "g.smash"
    smash.save_matrix(M, path)
    M2 = smash.load_matrix(path)
    assert M2.kind == "h2"
    assert M2.dtype == np.complex128
    q = np.random.default_rng(1).random(X.n)
    np.testing.assert_array_equal(smash.matvec_nodewise(M, q),
                                  smash.matvec_nodewise(M2, q))


def test_solve_after_reload(tmp_path):
    M, _, _, _ = build_interval_hss(300, nu0=32)
    path = tmp_path / "m.smash"
    smash.save_matrix(M, path)
    M2 = smash.load_matrix(path)
    b = np.random.default_rng(2).random(300)
    x = smash.ulv_solve(smash.ulv_factor(M2), b)
    r = smash.matvec_nodewise(M2, x) - b
    assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(b)


def test_dense_form_round_trip_without_kernel(tmp_path):
    # sums and scalings carry every block dense, so they reload and apply
    # even though no kernel is stored
    n = 200
    rng = np.random.default_rng(3)
    X, Y = interval_pair(n)
    tree = smash.build_tree(X, Y, nu0=32)
    M = cauchy_like_hss(tree, X, Y, rng.random((n, 2)), rng.random((n, 2)),
                        smash.BuildParams(r=20, eps_svd=1e-10))
    assert M.kernel is None
    path = tmp_path / "cl.smash"
    smash.save_matrix(M, path)
    M2 = smash.load_matrix(path)
    q = rng.random(n)
    np.testing.assert_array_equal(smash.matvec_nodewise(M, q),
                                  smash.matvec_nodewise(M2, q))


def test_factor_form_without_kernel_reports_missing_blocks(tmp_path):
    M, _, _, _ = build_interval_hss(300, nu0=32)
    M.kernel = None
    path = tmp_path / "nk.smash"
    smash.save_matrix(M, path)
    M2 = smash.load_matrix(path)
    with pytest.raises(ValueError, match="without a kernel"):
        smash.matvec_nodewise(M2, np.ones(300))


def test_non_container_file_rejected(tmp_path):
    path = tmp_path / "junk.smash"
    path.write_bytes(b"definitely not a matrix")
    with pytest.raises(ValueError, match="container"):
        smash.load_matrix(path)


@pytest.mark.parametrize("key", ["tree", "arrays", "kind", "params"])
def test_header_without_entry_rejected_by_name(tmp_path, key):
    M, _, _, _ = build_interval_hss(100, nu0=32)
    path = tmp_path / "m.smash"
    smash.save_matrix(M, path)
    raw = path.read_bytes()
    head, cut = raw.index(b"\n") + 1, raw.index(b"\0")
    header = json.loads(raw[head:cut])
    del header[key]
    path.write_bytes(raw[:head] + json.dumps(header).encode() + raw[cut:])
    with pytest.raises(ValueError, match=repr(key)):
        smash.load_matrix(path)


def test_dlp_matrix_round_trip(tmp_path):
    curve = smash.get_curve("ramhead")
    n = 320
    spec = smash.KernelSpec("laplace_dlp", curve=curve, nq=n)
    X = smash.bench.curve_points("ramhead", n)
    tree = smash.build_tree(X, nu0=50, tau=0.6)
    M = smash.build_hss(tree, spec, X, X,
                        smash.BuildParams(r=25, tau=0.6, eps_svd=1e-11,
                                          basis="interp"))
    path = tmp_path / "rh.smash"
    smash.save_matrix(M, path)
    M2 = smash.load_matrix(path)
    assert M2.kernel.kind == "laplace_dlp"
    assert M2.kernel.curve.name == "ramhead"
    q = np.random.default_rng(4).random(n)
    np.testing.assert_array_equal(smash.matvec_nodewise(M, q),
                                  smash.matvec_nodewise(M2, q))
