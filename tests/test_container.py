"""On-disk matrix container: round trips for kernel-backed and dense-form
matrices, the guard for matrices saved without their kernel, and the
rejection of damaged files."""

import json
from itertools import chain

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import smash
from smash.cluster import leaf_sets
from smash.hss import cauchy_like_hss

from conftest import (build_grid_h2_400, build_interval_hss,
                      build_one_set_hss, interval_pair)


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
    assert M2.pairs_L.tolist() == M.pairs_L.tolist()
    assert M2.pairs_Lm.tolist() == M.pairs_Lm.tolist()
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


def _names(path):
    names = []
    edit_header(path, lambda h: names.extend(e["name"] for e in h["arrays"]))
    return names


def test_shared_h2_factor_saved_once_and_reloaded_shared(tmp_path,
                                                         grid_h2_400):
    M, _, X = grid_h2_400
    path = tmp_path / "g.smash"
    smash.save_matrix(M, path)
    names = _names(path)
    assert "rowfac.0.G" in names and "rowfac.0.perm" in names
    assert not [n for n in names if n.startswith("colfac.")]
    M2 = smash.load_matrix(path)
    for i, fac in M2.rowfac.items():
        assert M2.colfac[i] is fac and M2.skel_col[i] is M2.skel_row[i]
        for name in ("perm", "G", "skel"):
            a, b = getattr(fac, name), getattr(M.rowfac[i], name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    q = np.random.default_rng(8).random(X.n)
    assert (smash.matvec_nodewise(M, q).tobytes()
            == smash.matvec_nodewise(M2, q).tobytes())


def test_shared_factor_is_checked_once_on_load(tmp_path, grid_h2_400,
                                              monkeypatch):
    M = grid_h2_400[0]
    path = tmp_path / "g.smash"
    smash.save_matrix(M, path)
    checked = []
    load = smash.container._load_factor
    monkeypatch.setattr(smash.container, "_load_factor",
                        lambda arrays, tr, i, *rest: checked.append(i) or load(
                            arrays, tr, i, *rest))
    smash.load_matrix(path)
    assert sorted(checked) == sorted(M.rowfac)


def test_h2_double_layer_saves_both_factors_and_reloads_bitwise(tmp_path):
    # the double layer scales its column side by the normals, so one_basis
    # is false for it and each node holds a row and a column factor
    n = 640
    spec = smash.KernelSpec("laplace_dlp", curve=smash.get_curve("sunflower"),
                            nq=n)
    X = smash.bench.curve_points("sunflower", n)
    tree = smash.build_tree(X, nu0=50, mode="2d", tau=0.6)
    M = smash.build_h2(tree, spec, X, X, smash.BuildParams(r=21, tau=0.6))
    path = tmp_path / "dlp.smash"
    smash.save_matrix(M, path)
    names = _names(path)
    for i in M.rowfac:
        for name in ("rowfac.%d.G", "rowfac.%d.perm", "colfac.%d.G",
                     "colfac.%d.perm"):
            assert name % i in names
    M2 = smash.load_matrix(path)
    assert M2.kind == "h2" and M2.dtype == np.float64
    assert M2.kernel.kind == "laplace_dlp"
    for i, fac in M2.rowfac.items():
        assert M2.colfac[i] is not fac
        for name in ("perm", "G", "skel"):
            a, b = getattr(M2.colfac[i], name), getattr(M.colfac[i], name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    q = np.random.default_rng(12).random(n)
    assert (smash.matvec_nodewise(M, q).tobytes()
            == smash.matvec_nodewise(M2, q).tobytes())


def test_shared_hss_factor_saved_once_and_counted_once(tmp_path):
    M, _ = build_one_set_hss(smash.bench.grid_points(32))
    path = tmp_path / "g.smash"
    smash.save_matrix(M, path)
    assert not [n for n in _names(path) if n.startswith("colfac.")]
    rep = smash.storage_report(M)
    facs = M.rowfac.values()
    assert rep.breakdown["interp"] == 16 * sum(f.G.size for f in facs)
    assert rep.breakdown["index"] == 8 * sum(f.perm.size for f in facs)
    M2 = smash.load_matrix(path)
    assert all(M2.colfac[i] is f for i, f in M2.rowfac.items())
    q = np.random.default_rng(10).random(M.n_col)
    assert (smash.matvec_nodewise(M, q).tobytes()
            == smash.matvec_nodewise(M2, q).tobytes())


def _share_without_column_entries(header):
    """Drop the column factors, as if the matrix held one factor per
    node."""
    header.update(arrays=[e for e in header["arrays"]
                          if not e["name"].startswith("colfac.")])


def test_sharing_flag_on_two_point_sets_is_refused(tmp_path, capsys):
    # a file whose column entries are dropped, as if one factor served both
    # sides, is refused: two point sets need their own column factors
    X = smash.bench.grid_points(20)
    Y = smash.PointSet(X.coords + 1e-3)
    tree = smash.build_tree(X, Y, nu0=50, mode="2d", tau=0.65)
    M = smash.build_h2(tree, smash.KernelSpec("cauchy"), X, Y,
                       smash.BuildParams(r=22, tau=0.65))
    assert sorted(M.colfac) == sorted(M.rowfac)
    path = tmp_path / "s.smash"
    smash.save_matrix(M, path)
    edit_header(path, _share_without_column_entries)
    with pytest.raises(ValueError, match="node 0 has no column factor"):
        smash.load_matrix(path)
    from smash.cli import main
    assert main(["matvec", "--load", str(path)]) == 2
    assert "no column factor" in capsys.readouterr().err


def test_one_leaf_matrix_on_two_point_sets_round_trips(tmp_path):
    # no factors, so there is nothing to save once or twice
    M, _, _, _ = build_interval_hss(30)
    assert M.tree.root == 0
    path = tmp_path / "m.smash"
    smash.save_matrix(M, path)
    M2 = smash.load_matrix(path)
    q = np.random.default_rng(12).random(30)
    np.testing.assert_array_equal(smash.matvec_nodewise(M, q),
                                  smash.matvec_nodewise(M2, q))


def test_hss_container_has_no_sharing_flag(tmp_path):
    # two point sets: both sides are saved
    M, _, _, _ = build_interval_hss(100, nu0=32)
    path = tmp_path / "m.smash"
    smash.save_matrix(M, path)
    assert "colfac.0.G" in _names(path)


def test_sharing_flag_with_column_entries_is_refused(tmp_path, grid_h2_400):
    # one factor per node on the grid: a column entry, here a second name
    # for the bytes of the row entry, is refused by name
    for name in ("colfac.0.G", "colfac.0.perm"):
        path = tmp_path / "g.smash"
        smash.save_matrix(grid_h2_400[0], path)
        edit_header(path, lambda h: h["arrays"].append(
            dict(_array(h, name.replace("col", "row")), name=name)))
        with pytest.raises(ValueError, match="one factor per node.*%r" % name):
            smash.load_matrix(path)


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
    B, _, _, _ = build_interval_hss(n, nu0=32)
    M = smash.hss_add(B, smash.diag_scale(B, rng.random(n), rng.random(n)))
    assert M.kernel is None
    path = tmp_path / "cl.smash"
    smash.save_matrix(M, path)
    M2 = smash.load_matrix(path)
    q = rng.random(n)
    np.testing.assert_array_equal(smash.matvec_nodewise(M, q),
                                  smash.matvec_nodewise(M2, q))


def test_cauchy_like_round_trip_reloads_generators(tmp_path):
    n = 200
    rng = np.random.default_rng(4)
    X, Y = interval_pair(n)
    tree = smash.build_tree(X, Y, nu0=32)
    w, v = rng.random((n, 2)), rng.random((n, 2))
    M = cauchy_like_hss(tree, X, Y, w, v, smash.BuildParams(r=20, eps_svd=1e-10))
    path = tmp_path / "cl.smash"
    smash.save_matrix(M, path)
    M2 = smash.load_matrix(path)
    assert M2.kernel.kind == "cauchy_like"
    np.testing.assert_array_equal(M2.kernel.w, w)
    np.testing.assert_array_equal(M2.kernel.v, v)
    q = rng.random(n)
    np.testing.assert_array_equal(smash.matvec_nodewise(M, q),
                                  smash.matvec_nodewise(M2, q))


def edit_header(path, change):
    """Rewrite a saved container's JSON header through change(header)."""
    raw = path.read_bytes()
    head, cut = raw.index(b"\n") + 1, raw.index(b"\0")
    header = json.loads(raw[head:cut])
    change(header)
    path.write_bytes(raw[:head] + json.dumps(header).encode() + raw[cut:])


def _compressed_case(case):
    """One factor per node and two on HSS, one on H2, a sum of scalings,
    or a complex scaling whose real column factors stay real."""
    if case == "hss-one-factor":
        return build_one_set_hss(smash.bench.grid_points(16))[0]
    if case == "h2":
        return build_grid_h2_400()[0]
    n = 200
    rng = np.random.default_rng(5)
    B, _, _, _ = build_interval_hss(n, nu0=32)
    if case == "hss-two-factors":
        return B
    if case == "sum-of-scalings":
        return smash.hss_add(B, smash.diag_scale(B, rng.random(n),
                                                 rng.random(n)))
    return smash.diag_scale(B, rng.random(n) + 1j * rng.random(n),
                            rng.random(n))


@pytest.mark.parametrize("case", ["hss-one-factor", "hss-two-factors", "h2",
                                  "sum-of-scalings", "complex-scaling"])
def test_compressed_bytes_are_the_saved_arrays(tmp_path, case):
    M = _compressed_case(case)
    path = tmp_path / "m.smash"
    smash.save_matrix(M, path)
    arrays = []
    edit_header(path, lambda h: arrays.extend(h["arrays"]))
    saved = sum(e["nbytes"] for e in arrays if e["name"] not in (
        "perm_row", "perm_col", "points_row", "points_col", "kernel.w",
        "kernel.v"))
    rep = smash.storage_report(M)
    assert rep.compressed_bytes == saved
    assert sum(rep.breakdown.values()) == saved


def test_header_with_old_cache_flag_still_loads(tmp_path):
    # earlier versions wrote a "use_cache" entry into every header
    M, _, _, _ = build_interval_hss(100, nu0=32)
    path = tmp_path / "m.smash"
    smash.save_matrix(M, path)
    edit_header(path, lambda h: h.update(use_cache=True))
    q = np.random.default_rng(5).random(100)
    np.testing.assert_array_equal(smash.matvec_nodewise(M, q),
                                  smash.matvec_nodewise(smash.load_matrix(path), q))


def _old_magic(path, version):
    """A fresh save with the magic line of an earlier version of the
    format."""
    raw = path.read_bytes()
    path.write_bytes(b"SMASH-BIN-%d\n" % version + raw[raw.index(b"\n") + 1:])


def test_container_from_an_older_version_is_refused_by_name(tmp_path):
    M, _, _, _ = build_interval_hss(100, nu0=32)
    path = tmp_path / "m.smash"
    smash.save_matrix(M, path)
    assert path.read_bytes().startswith(b"SMASH-BIN-4\n")
    for version in (1, 2, 3):
        _old_magic(path, version)
        with pytest.raises(ValueError,
                           match="older version.*rebuild the matrix"):
            smash.load_matrix(path)


def test_container_from_an_older_version_exits_with_input_code(tmp_path,
                                                                capsys):
    # the third version saved the block partition and the skeletons
    from smash.cli import main
    path = tmp_path / "m.smash"
    assert main(["build", "--n", "100", "--out", str(path)]) == 0
    for version in (1, 3):
        _old_magic(path, version)
        capsys.readouterr()
        assert main(["matvec", "--load", str(path)]) == 2
        assert "rebuild the matrix" in capsys.readouterr().err


def test_container_with_pairs_in_its_header_exits_with_input_code(tmp_path,
                                                                  capsys):
    # the second version held the block partition in the JSON header
    from smash.cli import main
    path = tmp_path / "m.smash"
    assert main(["build", "--n", "100", "--out", str(path)]) == 0
    _old_magic(path, 2)
    capsys.readouterr()
    assert main(["matvec", "--load", str(path)]) == 2
    assert "older version" in capsys.readouterr().err


def test_saved_interpolative_factor_stores_skeleton_once(tmp_path):
    # as a factor's perm and rank: the loader derives the labels
    M, _, _, _ = build_interval_hss(100, nu0=32)
    path = tmp_path / "m.smash"
    smash.save_matrix(M, path)
    names = _names(path)
    assert not [n for n in names if n.endswith(".skel")
                or n.startswith(("skel_", "pairs_"))]
    assert {"rowfac.0.perm", "rowfac.0.G", "colfac.0.perm"} <= set(names)


@pytest.mark.parametrize("name", ["skel_row.0", "skel_col.1", "pairs_L",
                                  "pairs_Lm"])
def test_entry_an_older_version_saved_is_refused_by_name(tmp_path, capsys,
                                                         name):
    # the third version saved the block partition and the skeletons; an
    # entry left over from it is an unknown entry, here on the bytes of a
    # permutation
    M, _, _, _ = build_interval_hss(100, nu0=32)
    path = tmp_path / "m.smash"
    smash.save_matrix(M, path)
    edit_header(path, lambda h: h["arrays"].append(
        dict(_array(h, "rowfac.1.perm"), name=name)))
    with pytest.raises(ValueError, match="unknown container entry %r" % name):
        smash.load_matrix(path)
    from smash.cli import main
    capsys.readouterr()
    assert main(["matvec", "--load", str(path)]) == 2
    assert repr(name) in capsys.readouterr().err


def test_factor_form_without_kernel_reports_missing_blocks(tmp_path):
    # its couplings came from the kernel, so the file holds none of them
    M, _, _, _ = build_interval_hss(300, nu0=32)
    M.kernel = None
    path = tmp_path / "nk.smash"
    smash.save_matrix(M, path)
    with pytest.raises(ValueError, match="no kernel.*'B.%d.%d'"
                       % tuple(M.pairs_L[0])):
        smash.load_matrix(path)


def _append_array(header_path, name, arr):
    """Add an array to a saved container, at the end of its payload."""
    raw = header_path.read_bytes()
    head, cut = raw.index(b"\n") + 1, raw.index(b"\0")
    header = json.loads(raw[head:cut])
    arr = np.ascontiguousarray(arr)
    header["arrays"].append({
        "name": name, "dtype": "c16" if arr.dtype.kind == "c" else "f8",
        "shape": list(arr.shape), "offset": len(raw) - cut - 1,
        "nbytes": arr.nbytes})
    header_path.write_bytes(raw[:head] + json.dumps(header).encode()
                            + raw[cut:] + arr.tobytes())


def _injected_coupling(path):
    """A built HSS matrix, whose couplings come from its kernel, with a
    stored coupling of the right shape added for its first pair."""
    M, _, _, _ = build_interval_hss(200, nu0=32)
    smash.save_matrix(M, path)
    i, j = M.pairs_L[0]
    _append_array(path, "B.%d.%d" % (i, j),
                  np.ones((M.rank_row(i), M.rank_col(j))))
    return "'B.%d.%d' is not a block" % (i, j)


def _reshaped_diagonal(path):
    M, _, _, _ = build_interval_hss(200, nu0=32)
    smash.save_matrix(M, path)
    nd = M.tree.nodes[0]
    edit_header(path, lambda h: _array(h, "D.0").update(
        shape=[1, nd.n_row * nd.n_col]))
    return "'D.0' has shape (1, %d), not (%d, %d)" % (
        nd.n_row * nd.n_col, nd.n_row, nd.n_col)


def _diagonal_of_the_root(path):
    M, _, _, _ = build_interval_hss(200, nu0=32)
    smash.save_matrix(M, path)
    root = M.tree.root
    _append_array(path, "D.%d" % root, np.ones((M.n_row, M.n_col)))
    return "'D.%d' is not a block" % root


def _diagonal_in_h2(path):
    M, _, _ = build_grid_h2_400()
    smash.save_matrix(M, path)
    nd = M.tree.nodes[0]
    _append_array(path, "D.0", np.ones((nd.n_row, nd.n_col)))
    return "'D.0' is not a block"


def _sum_without_a_coupling(path):
    n = 200
    B, _, _, _ = build_interval_hss(n, nu0=32)
    M = smash.hss_add(B, B)
    smash.save_matrix(M, path)
    i, j = M.pairs_L[-1]
    name = "B.%d.%d" % (i, j)
    edit_header(path, lambda h: h["arrays"].remove(_array(h, name)))
    return "no kernel, and the file no %r entry" % name


def _real_header_on_complex_kernel(path):
    M, _, _ = build_grid_h2_400()
    smash.save_matrix(M, path)
    edit_header(path, lambda h: h.update(dtype="f8"))
    return "header dtype 'f8', but the cauchy kernel gives complex128"


def _real_header_on_complex_scaling(path):
    M = _compressed_case("complex-scaling")
    smash.save_matrix(M, path)
    edit_header(path, lambda h: h.update(dtype="f8"))
    return "header dtype 'f8', but 'rowfac.0.G' holds complex entries"


# (a damaged container the loader once took, text its refusal must hold)
_REFUSED = {
    "injected_coupling": _injected_coupling,
    "reshaped_diagonal": _reshaped_diagonal,
    "diagonal_of_the_root": _diagonal_of_the_root,
    "diagonal_in_h2": _diagonal_in_h2,
    "sum_without_a_coupling": _sum_without_a_coupling,
    "real_header_on_complex_kernel": _real_header_on_complex_kernel,
    "real_header_on_complex_scaling": _real_header_on_complex_scaling,
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_blocks_and_dtype_that_contradict_the_matrix_are_refused(
        tmp_path, capsys, case):
    # each loaded once and changed a product, failed at the first apply,
    # or was ignored
    from smash.cli import main
    path = tmp_path / "m.smash"
    named = _REFUSED[case](path)
    with pytest.raises(ValueError, match="damaged container") as info:
        smash.load_matrix(path)
    assert named in str(info.value)
    capsys.readouterr()
    assert main(["matvec", "--load", str(path)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["kernel.w", "kernel.v"])
def test_generators_that_do_not_match_the_points_are_refused(tmp_path,
                                                             capsys, name):
    # a generator cut to half its rows once loaded, and the first apply
    # then failed inside the kernel with an IndexError
    from smash.cli import main
    n = 200
    rng = np.random.default_rng([1, n])
    X, Y = smash.bench.cauchy_pair("honeybee", n, rng)
    tree = smash.build_tree(X, Y, nu0=40, tau=0.6)
    M = cauchy_like_hss(tree, X, Y, rng.random((n, 2)), rng.random((n, 2)),
                        smash.BuildParams(r=20, eps_svd=1e-9))
    path = tmp_path / "cl.smash"
    smash.save_matrix(M, path)
    edit_header(path, lambda h: _array(h, name).update(
        shape=[n // 2, 2], nbytes=n // 2 * 2 * 8))
    rows = (n // 2, n) if name == "kernel.w" else (n, n // 2)
    named = "generator rows %s do not match the point counts %s" % (
        rows, (n, n))
    with pytest.raises(ValueError, match="damaged container") as info:
        smash.load_matrix(path)
    assert named in str(info.value)
    capsys.readouterr()
    assert main(["matvec", "--load", str(path)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


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
    edit_header(path, lambda h: h.pop(key))
    with pytest.raises(ValueError, match=repr(key)):
        smash.load_matrix(path)


def _array(header, name):
    return next(e for e in header["arrays"] if e["name"] == name)


def _drop_a_column_of_G(header):
    """Node 0's G one column narrower, so that its two sides no longer add
    up to the node's labels."""
    e = _array(header, "rowfac.0.G")
    rows, cols = e["shape"]
    e.update(shape=[rows, cols - 1], nbytes=e["nbytes"] // cols * (cols - 1))


# (edit of the header, text the error must contain)
_DAMAGE = {
    "dtype_tag": (lambda h: _array(h, "D.0").update(dtype="zz"), "'D.0'"),
    "no_perm_row": (lambda h: h.update(arrays=[
        e for e in h["arrays"] if e["name"] != "perm_row"]), "'perm_row'"),
    "node_level": (lambda h: h["tree"]["nodes"][1].pop("level"), "'level'"),
    "arrays_type": (lambda h: h.update(arrays={"perm_row": 0}), "'arrays'"),
    "shape_bytes": (lambda h: _array(h, "D.0").update(shape=[1, 1]), "'D.0'"),
    "past_end": (lambda h: _array(h, "D.0").update(offset=10 ** 9), "'D.0'"),
    # well-formed headers that contradict themselves; a factor without its
    # perm has no skeleton either
    "factor_without_skeleton": (lambda h: h.update(arrays=[
        e for e in h["arrays"] if e["name"] != "rowfac.0.perm"]),
        "node 0 has no row factor"),
    "factor_of_unknown_node": (lambda h: _array(h, "rowfac.0.perm").update(
        name="rowfac.99.perm"), "entry 'rowfac.99.perm'"),
    "unknown_factor_entry": (lambda h: h["arrays"].append(dict(
        _array(h, "rowfac.0.G"), name="rowfac.0.X")), "entry 'rowfac.0.X'"),
    "children_not_tiling": (lambda h: h["tree"]["nodes"][0]["rows"].__setitem__(
        1, h["tree"]["nodes"][0]["rows"][1] - 1), "do not tile its row range"),
    "not_a_child": (lambda h: h["tree"]["nodes"][-1]["children"].__setitem__(
        0, 0), "not its child"),
    "root_range_not_numbers": (lambda h: h["tree"]["nodes"][-1].update(
        cols=[float("inf"), None]), "the root spans rows"),
    # trees that only a build checked before: a leaf above the leaf size,
    # and a box that lost its points
    "leaf_above_nu0": (lambda h: h["tree"].update(nu0=1),
                       "node 0 is a leaf and holds"),
    "point_outside_its_box": (lambda h: h["tree"]["nodes"][0].update(
        hi=h["tree"]["nodes"][0]["lo"]), "point outside a box, at node 0"),
    "boxes_of_another_dimension": (lambda h: [
        nd.update(lo=nd["lo"] + [0.0], hi=nd["hi"] + [0.0])
        for nd in h["tree"]["nodes"]], "do not share one dimension"),
    # a corner no float can hold once stopped the load with OverflowError
    "corner_past_float_range": (lambda h: h["tree"]["nodes"][0].update(
        lo=[10 ** 400]), "OverflowError"),
    # the tree's default tau, which nearfield_set and leaf_sets take when
    # none is passed
    "tree_tau_past_one": (lambda h: h["tree"].update(tau_default=1.5),
                          "tau_default must be in (0, 1)"),
    "tree_tau_not_a_number": (lambda h: h["tree"].update(tau_default="x"),
                              "tau_default must be in (0, 1)"),
    # array contents that contradict the header: an offset moved onto the
    # bytes of another array
    "perm_on_other_bytes": (lambda h: _array(h, "rowfac.0.perm").update(
        offset=_array(h, "D.0")["offset"]), "'rowfac.0.perm'"),
    "tree_perm_on_points": (lambda h: _array(h, "perm_row").update(
        offset=_array(h, "points_row")["offset"]), "'perm_row'"),
    "G_column_dropped": (_drop_a_column_of_G, "'rowfac.0.G' has shape"),
    # node 0's transposed G still adds up to its labels, but it hands its
    # parent, node 2, another number of skeleton labels than its perm holds
    "G_transposed": (lambda h: _array(h, "colfac.0.G").update(
        shape=_array(h, "colfac.0.G")["shape"][::-1]),
        "'colfac.2.perm' is not a permutation"),
    # one factor per node on two point sets would apply wrongly
    "shared_flag_on_two_point_sets": (_share_without_column_entries,
                                      "node 0 has no column factor"),
    # build parameters that would have given a wrong matrix
    "order_zero": (lambda h: h["params"].update(r=0), "parameter r "),
    "tau_past_one": (lambda h: h["params"].update(tau=1.5), "parameter tau "),
    "svd_cut_nan": (lambda h: h["params"].update(eps_svd=float("nan")),
                    "parameter eps_svd "),
    "unknown_basis": (lambda h: h["params"].update(basis="cheb"),
                      "parameter basis "),
    # a null basis once read as Taylor; no writer stores one
    "no_basis": (lambda h: h["params"].update(basis=None), "parameter basis "),
    # values read by name: none may stand in for another
    "unknown_kind": (lambda h: h.update(kind="banana"), "kind 'banana'"),
    "unknown_dtype": (lambda h: h.update(dtype="f4"), "dtype 'f4'"),
    "unknown_tree_mode": (lambda h: h["tree"].update(mode="quad"),
                          "tree mode 'quad'"),
}


@pytest.fixture(scope="module")
def saved_container(tmp_path_factory):
    M, _, _, _ = build_interval_hss(100, nu0=32)
    path = tmp_path_factory.mktemp("c") / "m.smash"
    smash.save_matrix(M, path)
    return path.read_bytes()


@pytest.mark.parametrize("case", sorted(_DAMAGE))
def test_damaged_manifest_rejected_by_name(tmp_path, saved_container, case):
    change, named = _DAMAGE[case]
    path = tmp_path / "m.smash"
    path.write_bytes(saved_container)
    edit_header(path, change)
    with pytest.raises(ValueError) as info:
        smash.load_matrix(path)
    assert named in str(info.value)


@pytest.mark.parametrize("case", ["hss-one-factor", "hss-two-factors", "h2",
                                  "sum-of-scalings", "complex-scaling"])
def test_reloaded_partition_and_skeletons_are_derived(tmp_path, case):
    # neither is saved: the partition comes from leaf_sets on the saved
    # tree, and each skeleton from its node's factor
    M = _compressed_case(case)
    path = tmp_path / "m.smash"
    smash.save_matrix(M, path)
    M2 = smash.load_matrix(path)
    pairs_L, pairs_Lm = leaf_sets(M2.tree, M2.params.tau, M2.kind)
    assert np.array_equal(M2.pairs_L, pairs_L)
    assert np.array_equal(M2.pairs_Lm, pairs_Lm)
    for built, loaded in ((M.skel_row, M2.skel_row),
                          (M.skel_col, M2.skel_col)):
        assert sorted(loaded) == sorted(built)
        for i, skel in built.items():
            assert loaded[i].dtype == skel.dtype
            assert loaded[i].tobytes() == skel.tobytes()


@pytest.mark.parametrize("case", ["sum-of-scalings", "complex-scaling"])
def test_saved_sums_and_scalings_keep_their_partition(tmp_path, case):
    # hss_add and diag_scale take the partition of their operand
    M = _compressed_case(case)
    path = tmp_path / "m.smash"
    smash.save_matrix(M, path)
    M2 = smash.load_matrix(path)
    assert np.array_equal(M2.pairs_L, M.pairs_L)
    assert np.array_equal(M2.pairs_Lm, M.pairs_Lm)
    q = np.random.default_rng(6).random(M.n_col)
    np.testing.assert_array_equal(smash.matvec_nodewise(M, q),
                                  smash.matvec_nodewise(M2, q))


def _paths(obj, prefix=()):
    """Every key path into a JSON value."""
    yield prefix
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for k, v in items:
        yield from _paths(v, prefix + (k,))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10 ** 6) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5)


def _mutate(header, data):
    """Delete or replace the value at one drawn key path."""
    where = data.draw(st.sampled_from([p for p in _paths(header) if p]),
                      label="path")
    parent = header
    for k in where[:-1]:
        parent = parent[k]
    if data.draw(st.booleans(), label="delete"):
        del parent[where[-1]]
    else:
        parent[where[-1]] = data.draw(_JSON, label="value")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_container_loads_or_raises_value_error(tmp_path, saved_container,
                                                       data):
    path = tmp_path / "d.smash"
    path.write_bytes(saved_container)
    if data.draw(st.booleans(), label="truncate"):
        cut = data.draw(st.integers(0, len(saved_container) - 1), label="length")
        path.write_bytes(saved_container[:cut])
    else:
        edit_header(path, lambda h: _mutate(h, data))
    try:
        smash.load_matrix(path)
    except ValueError:
        pass


@pytest.fixture(scope="module")
def saved_shared_container(tmp_path_factory):
    M, _, _ = build_grid_h2_400()
    path = tmp_path_factory.mktemp("s") / "g.smash"
    smash.save_matrix(M, path)
    return path.read_bytes()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_shared_container_loads_or_raises_value_error(
        tmp_path, saved_shared_container, data):
    path = tmp_path / "d.smash"
    path.write_bytes(saved_shared_container)
    edit_header(path, lambda h: _mutate(h, data))
    try:
        smash.load_matrix(path)
    except ValueError:
        pass


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


@pytest.fixture
def cli_container(tmp_path):
    """(name) -> the path of a fresh file of `smash build`: "grid", the
    grid H2, whose Cauchy kernel has a dx; "dlp", the HSS double layer,
    with its diagonal blocks; "cl", a Cauchy-like HSS, with its
    generators."""
    from smash.cli import main
    args = {"grid": ["--geometry", "grid2d", "--structure", "h2", "--n", "400"],
            "dlp": ["--kernel", "laplace-dlp", "--geometry", "sunflower",
                    "--n", "320"],
            "cl": ["--kernel", "cauchy-like", "--geometry", "honeybee",
                   "--n", "200"]}

    def build(name):
        path = tmp_path / (name + ".smash")
        assert main(["build", *args[name], "--out", str(path)]) == 0
        return path

    return build


def _refused_by_matvec(path, capsys, named):
    """`smash matvec --load path` exits 2, naming named."""
    from smash.cli import main
    capsys.readouterr()
    assert main(["matvec", "--load", str(path)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def _entry(path, name):
    raw = path.read_bytes()
    return _array(json.loads(raw[raw.index(b"\n") + 1:raw.index(b"\0")]),
                  name)


@pytest.mark.parametrize("file, name, value", [
    ("grid", "rowfac.0.G", np.nan), ("grid", "points_row", np.inf),
    ("dlp", "D.0", -np.inf), ("cl", "kernel.w", np.nan),
    ("cl", "kernel.v", np.inf)])
def test_non_finite_stored_entries_exit_2(capsys, cli_container, file, name,
                                         value):
    # each loaded and gave a non-finite product with exit 0
    path = cli_container(file)
    e = _entry(path, name)
    raw = bytearray(path.read_bytes())
    at = raw.index(b"\0") + 1 + e["offset"]  # its first entry
    raw[at:at + 8] = np.array(value).tobytes()
    path.write_bytes(raw)
    _refused_by_matvec(path, capsys, "array %r holds" % name)


@pytest.mark.parametrize("value", [2.5, 1e300])
@pytest.mark.parametrize("command, file", [
    ("matvec", "grid"), ("matvec", "dlp"), ("solve", "dlp")])
def test_coefficient_past_the_swap_bound_exits_2(capsys, cli_container,
                                                 command, file, value):
    # compression stops only once max|G| <= 2; a 1e300 in the double
    # layer's G made `smash solve --load` exit 3
    from smash.cli import main
    path = cli_container(file)
    raw = bytearray(path.read_bytes())
    header = json.loads(raw[raw.index(b"\n") + 1:raw.index(b"\0")])
    e = next(a for a in header["arrays"]
             if a["name"].endswith(".G") and a["nbytes"])
    at = raw.index(b"\0") + 1 + e["offset"]  # its first entry
    raw[at:at + 8] = np.array(value).tobytes()
    path.write_bytes(raw)
    capsys.readouterr()
    assert main([command, "--load", str(path)]) == 2
    err = capsys.readouterr().err
    assert "%r entry (0, 0) is" % e["name"] in err
    assert "past the bound 2" in err and "Traceback" not in err


def _sunflower_hss():
    n = 320
    spec = smash.KernelSpec("laplace_dlp", curve=smash.get_curve("sunflower"),
                            nq=n)
    X = smash.bench.curve_points("sunflower", n)
    tree = smash.build_tree(X, nu0=50, tau=0.6)
    return smash.build_hss(tree, spec, X, X, smash.BuildParams(
        r=25, tau=0.6, eps_svd=1e-11, basis="interp"))


@pytest.mark.parametrize("case", ["grid-h2", "sunflower-hss", "sum",
                                  "sum-of-scalings", "complex-scaling"])
def test_built_factors_pass_the_loaders_coefficient_bound(tmp_path, case):
    if case == "grid-h2":
        M = build_grid_h2_400()[0]
    elif case == "sunflower-hss":
        M = _sunflower_hss()
    elif case == "sum":
        B = build_interval_hss(200, nu0=32)[0]
        M = smash.hss_add(B, B)
    else:
        M = _compressed_case(case)
    Gs = [f.G for f in chain(M.rowfac.values(), M.colfac.values()) if f.G.size]
    assert Gs and max(np.abs(G).max() for G in Gs) <= 2.0
    path = tmp_path / "m.smash"
    smash.save_matrix(M, path)
    smash.load_matrix(path)


@pytest.mark.parametrize("dx", [float("nan"), float("inf")])
def test_non_finite_coincident_value_exits_2(capsys, cli_container, dx):
    # loaded and gave non-finite diagonal entries with exit 0
    path = cli_container("grid")
    edit_header(path, lambda h: h["kernel"].update(dx=dx))
    _refused_by_matvec(path, capsys, "dx must be a finite number")


@pytest.mark.parametrize("nq", [10 ** 12, 321, 160])
def test_quadrature_count_other_than_the_points_exits_2(capsys,
                                                        cli_container, nq):
    # 10^12 exited 1 with a MemoryError traceback from the node data
    path = cli_container("dlp")
    edit_header(path, lambda h: h["kernel"].update(nq=nq))
    _refused_by_matvec(path, capsys, "quadrature count nq = %d does not "
                       "match the point counts (320, 320)" % nq)


def test_manifest_that_does_not_tile_the_payload_exits_2(capsys,
                                                         cli_container):
    # a moved offset read other bytes of the payload and gave a wrong
    # product with exit 0
    path = cli_container("grid")
    e = _entry(path, "rowfac.0.G")
    edit_header(path, lambda h: _array(h, "rowfac.0.G").update(
        offset=e["offset"] + 8))
    _refused_by_matvec(path, capsys, "array 'rowfac.0.G' starts at byte %d "
                       "of the payload, not at %d" % (e["offset"] + 8,
                                                      e["offset"]))
    # bytes past the last array
    path = cli_container("grid")
    size = len(path.read_bytes()) - path.read_bytes().index(b"\0") - 1
    path.write_bytes(path.read_bytes() + bytes(8))
    _refused_by_matvec(path, capsys, "the arrays end at byte %d of the "
                       "payload, not at its end, byte %d" % (size, size + 8))
