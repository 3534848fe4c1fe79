"""On-disk matrix container: round trips for kernel-backed and dense-form
matrices, the guard for matrices saved without their kernel, and the
rejection of damaged files."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def test_header_with_old_cache_flag_still_loads(tmp_path):
    # earlier versions wrote a "use_cache" entry into every header
    M, _, _, _ = build_interval_hss(100, nu0=32)
    path = tmp_path / "m.smash"
    smash.save_matrix(M, path)
    edit_header(path, lambda h: h.update(use_cache=True))
    q = np.random.default_rng(5).random(100)
    np.testing.assert_array_equal(smash.matvec_nodewise(M, q),
                                  smash.matvec_nodewise(smash.load_matrix(path), q))


def test_container_with_duplicate_skeletons_loads_bitwise():
    # written by an earlier version, which stored every interpolative
    # skeleton twice (also as "rowfac.<i>.skel") and a "params.s" entry
    path = Path(__file__).parent / "data" / "interval_hss_n100.smash"
    M2 = smash.load_matrix(path)
    M, _, _, _ = build_interval_hss(100, nu0=32)
    for facs, facs2 in ((M.rowfac, M2.rowfac), (M.colfac, M2.colfac)):
        assert sorted(facs) == sorted(facs2)
        for i, fac in facs.items():
            for name in ("perm", "G", "skel"):
                a, b = getattr(fac, name), getattr(facs2[i], name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    q = np.random.default_rng(6).random(100)
    assert (smash.matvec_nodewise(M, q).tobytes()
            == smash.matvec_nodewise(M2, q).tobytes())
    F, F2 = smash.ulv_factor(M), smash.ulv_factor(M2)
    assert smash.ulv_solve(F, q).tobytes() == smash.ulv_solve(F2, q).tobytes()


OLD_SUM = Path(__file__).parent / "data" / "interval_sum_n100.smash"


def test_container_with_explicit_bases_is_refused_by_name():
    # written by an earlier version, which stored the bases of sums and
    # scalings dense, as hss_add(B, diag_scale(B, linspace(1, 2, 100),
    # ones(100))) with B the n = 100, nu0 = 32 interval matrix
    with pytest.raises(ValueError, match="'rowfac.0.X'.*rebuild the matrix"):
        smash.load_matrix(OLD_SUM)


def test_container_with_explicit_bases_exits_with_input_code(capsys):
    from smash.cli import main
    assert main(["matvec", "--load", str(OLD_SUM)]) == 2
    assert "rebuild the matrix" in capsys.readouterr().err


def test_saved_interpolative_factor_stores_skeleton_once(tmp_path):
    M, _, _, _ = build_interval_hss(100, nu0=32)
    path = tmp_path / "m.smash"
    smash.save_matrix(M, path)
    names = []
    edit_header(path, lambda h: names.extend(e["name"] for e in h["arrays"]))
    assert not [n for n in names if n.endswith(".skel")]
    assert "skel_row.0" in names and "rowfac.0.perm" in names


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
    edit_header(path, lambda h: h.pop(key))
    with pytest.raises(ValueError, match=repr(key)):
        smash.load_matrix(path)


def _array(header, name):
    return next(e for e in header["arrays"] if e["name"] == name)


# (edit of the header, text the error must contain)
_DAMAGE = {
    "dtype_tag": (lambda h: _array(h, "D.0").update(dtype="zz"), "'D.0'"),
    "no_perm_row": (lambda h: h.update(arrays=[
        e for e in h["arrays"] if e["name"] != "perm_row"]), "'perm_row'"),
    "node_level": (lambda h: h["tree"]["nodes"][1].pop("level"), "'level'"),
    "arrays_type": (lambda h: h.update(arrays={"perm_row": 0}), "'arrays'"),
    "shape_bytes": (lambda h: _array(h, "D.0").update(shape=[1, 1]), "'D.0'"),
    "past_end": (lambda h: _array(h, "D.0").update(offset=10 ** 9), "'D.0'"),
    # well-formed headers that contradict themselves
    "pair_without_skeleton": (lambda h: h["pairs_L"].append(
        [len(h["tree"]["nodes"]) - 1, 0]), "coupling pair"),
    "factor_without_skeleton": (lambda h: h.update(arrays=[
        e for e in h["arrays"] if e["name"] != "skel_row.0"]),
        "node 0 has no row factor"),
    "factor_of_unknown_node": (lambda h: _array(h, "rowfac.0.perm").update(
        name="rowfac.99.perm"), "node 99 has no row factor"),
    "children_not_tiling": (lambda h: h["tree"]["nodes"][0]["rows"].__setitem__(
        1, h["tree"]["nodes"][0]["rows"][1] - 1), "do not tile its row range"),
    "not_a_child": (lambda h: h["tree"]["nodes"][-1]["children"].__setitem__(
        0, 0), "not its child"),
    # array contents that contradict the header: an offset moved onto the
    # bytes of another array
    "perm_on_other_bytes": (lambda h: _array(h, "rowfac.0.perm").update(
        offset=_array(h, "D.0")["offset"]), "'rowfac.0.perm'"),
    "tree_perm_on_points": (lambda h: _array(h, "perm_row").update(
        offset=_array(h, "points_row")["offset"]), "'perm_row'"),
    "skel_not_labels": (lambda h: _array(h, "skel_col.1").update(
        offset=_array(h, "colfac.1.perm")["offset"]), "'skel_col.1' is"),
    "G_transposed": (lambda h: _array(h, "colfac.0.G").update(
        shape=_array(h, "colfac.0.G")["shape"][::-1]), "'colfac.0.G'"),
    "skel_row_not_factor_skel": (lambda h: _array(h, "skel_row.1").update(
        offset=_array(h, "rowfac.1.perm")["offset"]), "'skel_row.1'"),
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
