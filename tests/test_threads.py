"""Thread ownership of build and factorization: the one-thread BLAS pin and
the level-parallel builds."""

import ctypes
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import smash
from smash import _threads, apply, hss

from conftest import build_grid_h2_400, build_interval_hss, interval_pair


def blas_counts():
    return [get() for get, _ in _threads.openblas_libs()]


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS on two threads for the test, so a pin to one
    shows; the counts found are put back afterwards."""
    libs = _threads.openblas_libs()
    if not libs:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get, _ in libs]
    for _, put in libs:
        put(2)
    yield [2] * len(libs)
    for (_, put), n in zip(libs, before):
        put(n)


def record_counts(monkeypatch, owner, name, seen):
    real = getattr(owner, name)

    def recorded(*args, **kwargs):
        seen.append(blas_counts())
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)


def test_blas_pinned_inside_and_restored_after_build_and_factor(
        monkeypatch, two_blas_threads):
    seen = []
    record_counts(monkeypatch, hss, "compr", seen)
    record_counts(monkeypatch, apply, "_reduce_node", seen)
    M, _, _, _ = build_interval_hss(200, nu0=32)
    assert blas_counts() == two_blas_threads
    smash.ulv_factor(M)
    assert blas_counts() == two_blas_threads
    X = smash.bench.grid_points(12)
    tree = smash.build_tree(X, nu0=30, mode="2d", tau=0.65)
    before = len(seen)
    smash.build_h2(tree, smash.KernelSpec("cauchy", dx=1.0), X, X,
                   smash.BuildParams(r=12, tau=0.65))
    assert len(seen) > before  # the H2 build's compressions, seen too
    assert blas_counts() == two_blas_threads
    ones = [1] * len(two_blas_threads)
    assert seen and all(c == ones for c in seen)


def test_blas_pinned_inside_and_restored_after_matvec(monkeypatch,
                                                     two_blas_threads):
    X = smash.bench.grid_points(12)
    tree = smash.build_tree(X, nu0=30, mode="2d", tau=0.65)
    M = smash.build_h2(tree, smash.KernelSpec("cauchy", dx=1.0), X, X,
                       smash.BuildParams(r=12, tau=0.65))
    seen = []
    # the first apply fills its block rows, a kernel call per shape group
    record_counts(monkeypatch, hss, "kernel_block", seen)
    apply.matvec_nodewise(M, np.ones(X.n))
    assert blas_counts() == two_blas_threads
    assert len(seen) == sum(len(M.block_groups(k)) for k in ("L", "Lm"))
    assert all(c == [1] * len(two_blas_threads) for c in seen)


def _address(fn):
    return ctypes.cast(fn, ctypes.c_void_p).value


def test_every_mapped_openblas_is_among_the_libraries_found():
    # the maps are read once, and smash's imports have loaded every copy
    # by then: the OpenBLAS copies mapped now, after every import the
    # tests have made, are the ones found
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        pytest.skip("the process maps cannot be read")
    mapped = [calls for calls in map(_threads._thread_calls, paths) if calls]
    assert ({_address(get) for get, _ in mapped}
            == {_address(get) for get, _ in _threads.openblas_libs()})


def test_blas_restored_after_a_build_that_raises(monkeypatch,
                                                 two_blas_threads):
    def broken(*args, **kwargs):
        raise RuntimeError("compression failed")

    monkeypatch.setattr(hss, "compr", broken)
    with pytest.raises(RuntimeError, match="compression failed"):
        build_interval_hss(200, nu0=32)
    assert blas_counts() == two_blas_threads


def test_nested_pins_restore_at_the_outermost_exit(two_blas_threads):
    ones = [1] * len(two_blas_threads)
    with _threads.one_blas_thread():
        with _threads.one_blas_thread():
            assert blas_counts() == ones
        assert blas_counts() == ones
    assert blas_counts() == two_blas_threads


def test_pin_without_a_library_changes_nothing(monkeypatch, two_blas_threads):
    libs = _threads.openblas_libs()
    monkeypatch.setattr(_threads, "openblas_libs", lambda: [])
    with _threads.one_blas_thread():
        assert [get() for get, _ in libs] == two_blas_threads
    assert [get() for get, _ in libs] == two_blas_threads


def _sunflower_dlp(n=640):
    spec = smash.KernelSpec("laplace_dlp", curve=smash.get_curve("sunflower"),
                            nq=n)
    X = smash.bench.curve_points("sunflower", n)
    tree = smash.build_tree(X, nu0=50, tau=0.6)
    bp = smash.BuildParams(r=25, tau=0.6, eps_svd=1e-11, basis="interp")
    return lambda: smash.build_hss(tree, spec, X, X, bp)


def _cauchy_like(n=600):
    rng = np.random.default_rng(3)
    X, Y = interval_pair(n)
    w, v = rng.random((n, 2)), rng.random((n, 2))
    tree = smash.build_tree(X, Y, nu0=40, tau=0.6)
    bp = smash.BuildParams(r=25, eps_svd=1e-9)
    return lambda: hss.cauchy_like_hss(tree, X, Y, w, v, bp)


def _honeybee_cauchy_like(n=400):
    # planar points make the kernel complex, so the R-SVD takes conjugates
    rng = np.random.default_rng([1, n])
    X, Y = smash.bench.cauchy_pair("honeybee", n, rng)
    w, v = rng.random((n, 2)), rng.random((n, 2))
    tree = smash.build_tree(X, Y, nu0=40, tau=0.6)
    bp = smash.BuildParams(r=25, eps_svd=1e-9)
    return lambda: hss.cauchy_like_hss(tree, X, Y, w, v, bp)


_CASES = {"sunflower_dlp": _sunflower_dlp, "cauchy_like": _cauchy_like,
          "honeybee_cauchy_like": _honeybee_cauchy_like,
          # H2 levels of several label-count stacks a side
          "h2_double_layer": lambda: _h2_double_layer}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_two_core_build_matches_serial_bit_for_bit(monkeypatch, case):
    build = _CASES[case]()
    monkeypatch.setattr(_threads, "cores", lambda: 2)
    par = build()
    monkeypatch.setattr(_threads, "cores", lambda: 1)
    ser = build()
    assert par.tree.n_levels >= 4
    assert par.dtype == (np.complex128 if case.startswith("honeybee")
                         else np.float64)
    for name in ("skel_row", "skel_col", "Dblocks"):
        a, b = getattr(par, name), getattr(ser, name)
        assert list(a) == list(b)
        for i in a:
            np.testing.assert_array_equal(a[i], b[i])
    for name in ("rowfac", "colfac"):
        a, b = getattr(par, name), getattr(ser, name)
        assert list(a) == list(b)
        for i in a:
            np.testing.assert_array_equal(a[i].G, b[i].G)
            np.testing.assert_array_equal(a[i].perm, b[i].perm)


def _grid_h2(m=32):
    X = smash.bench.grid_points(m)
    tree = smash.build_tree(X, nu0=50, mode="2d", tau=0.65)
    return lambda: smash.build_h2(tree, smash.KernelSpec("cauchy", dx=1.0),
                                  X, X, smash.BuildParams(r=22, tau=0.65))


_FILL_CASES = {"grid_h2": _grid_h2, "sunflower_dlp": _sunflower_dlp,
               "honeybee_cauchy_like": _honeybee_cauchy_like}


def _unfilled(case, loaded, tmp_path):
    """() -> a matrix of that case whose first apply has not run: built,
    or loaded from one saved copy."""
    build = _FILL_CASES[case]()
    if not loaded:
        return build
    path = tmp_path / "m.smash"
    smash.save_matrix(build(), path)
    return lambda: smash.load_matrix(path)


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("case", sorted(_FILL_CASES))
def test_two_core_fill_matches_serial_bit_for_bit(monkeypatch, tmp_path,
                                                  case, loaded):
    fresh = _unfilled(case, loaded, tmp_path)
    q = np.random.default_rng(8).random((fresh().n_col, 40))
    sizes = []

    def recorded(*args):
        sizes.append(np.size(args[3]) * np.shape(args[4])[-1])
        return smash.kernel.kernel_block(*args)

    monkeypatch.setattr(hss, "kernel_block", recorded)
    got = {}
    for cores in (2, 1):
        monkeypatch.setattr(_threads, "cores", lambda: cores)
        M = fresh()
        for kind in ("L", "Lm"):
            sizes.clear()
            M.block_groups(kind)
            # one core makes the kernel calls in the fill's order, the
            # largest group (R m n entries) first
            assert cores == 2 or sizes == sorted(sizes, reverse=True)
        assert len(M.block_groups("L")) >= 2
        got[cores] = (M, apply.matvec_nodewise(M, q[:, 0]),
                      apply.matvec_nodewise(M, q))
    (par, p1, p40), (ser, s1, s40) = got[2], got[1]
    np.testing.assert_array_equal(p1, s1)
    np.testing.assert_array_equal(p40, s40)
    for kind in ("L", "Lm"):
        assert par._where[kind] == ser._where[kind]
        a, b = par.block_groups(kind), ser.block_groups(kind)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.A.dtype == y.A.dtype == par.dtype
            for name in ("A", "out", "src"):
                np.testing.assert_array_equal(getattr(x, name),
                                              getattr(y, name))
            assert (x.mirrored, x.skip) == (y.mirrored, y.skip)


class GroupFailure(Exception):
    pass


def test_failing_groups_raise_the_first_in_fill_order(monkeypatch, tmp_path):
    fresh = _unfilled("grid_h2", True, tmp_path)
    groups = fresh().block_groups("L")
    size = [g.A.size for g in groups]
    # two groups, the larger one later in group order: the fill takes it
    # first, so its exception is the one raised
    a, b = next((a, b) for b in range(len(groups)) for a in range(b)
                if size[a] < size[b])
    bad = {groups[a].A.shape: "small", groups[b].A.shape: "large"}
    for cores in (1, 2):
        monkeypatch.setattr(_threads, "cores", lambda: cores)
        M = fresh()
        real = M._block

        def failing(rows, cols):
            shape = np.shape(rows) + np.shape(cols)[-1:]
            if shape in bad:
                raise GroupFailure(bad[shape])
            return real(rows, cols)

        M._block = failing
        for _ in range(2):  # nothing of the failed fill is kept
            with pytest.raises(GroupFailure) as got:
                M.block_groups("L")
            assert got.value.args == ("large",)
            assert "L" not in M._groups and "L" not in M._where
        M._block = real
        assert [g.A.shape for g in M.block_groups("L")] == [
            g.A.shape for g in groups]


def test_a_second_process_builds_the_same_bits(tmp_path):
    # the test matrix of the nearfield sketch is seeded, not drawn per
    # process or per thread
    code = ("import sys, smash\n"
            "n = 640\n"
            "spec = smash.KernelSpec('laplace_dlp', "
            "curve=smash.get_curve('sunflower'), nq=n)\n"
            "X = smash.bench.curve_points('sunflower', n)\n"
            "tree = smash.build_tree(X, nu0=50, tau=0.6)\n"
            "bp = smash.BuildParams(r=25, tau=0.6, eps_svd=1e-11, "
            "basis='interp')\n"
            "smash.save_matrix(smash.build_hss(tree, spec, X, X, bp), "
            "sys.argv[1])\n")
    src = os.path.dirname(os.path.dirname(smash.__file__))
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "a.smash")],
                   check=True, timeout=300,
                   env=dict(os.environ, PYTHONPATH=src))
    smash.save_matrix(_sunflower_dlp(640)(), tmp_path / "b.smash")
    assert ((tmp_path / "a.smash").read_bytes()
            == (tmp_path / "b.smash").read_bytes())


def test_level_map_takes_each_item_once_and_keeps_order(monkeypatch):
    monkeypatch.setattr(_threads, "cores", lambda: 2)
    taken = []

    def square(x):
        taken.append(x)
        return x * x

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            taken.clear()
            out = _threads.map_nodes(square, range(500))
            assert out == [x * x for x in range(500)]
            assert sorted(taken) == list(range(500))
    finally:
        sys.setswitchinterval(interval)


class NodeFailure(Exception):
    pass


def test_the_calling_thread_takes_items_beside_one_pool_thread(monkeypatch):
    monkeypatch.setattr(_threads, "cores", lambda: 2)
    ran = []

    def slow(x):
        ran.append(threading.get_ident())
        time.sleep(0.005)
        return -x

    assert _threads.map_nodes(slow, range(40)) == [-x for x in range(40)]
    assert threading.get_ident() in ran
    assert len(set(ran)) <= 2


def test_the_first_failing_item_in_item_order_is_raised(monkeypatch):
    monkeypatch.setattr(_threads, "cores", lambda: 2)

    def fail(x):
        # item 5 fails last, often after item 6 has failed on the other
        # thread
        time.sleep(0.01 if x == 5 else 0.001)
        if x in (5, 6, 9):
            raise NodeFailure(x)
        return x

    for _ in range(5):
        with pytest.raises(NodeFailure) as got:
            _threads.map_nodes(fail, range(12))
        assert got.value.args == (5,)


class _CountedThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


def test_one_core_starts_no_thread(monkeypatch):
    monkeypatch.setattr(_threads.threading, "Thread", _CountedThread)
    monkeypatch.setattr(_threads, "cores", lambda: 1)
    _CountedThread.started = 0
    build_interval_hss(400, nu0=32)
    assert _CountedThread.started == 0
    monkeypatch.setattr(_threads, "cores", lambda: 2)
    build_interval_hss(400, nu0=32)
    assert _CountedThread.started > 0


def test_worker_exception_reaches_the_caller(monkeypatch, two_blas_threads):
    caller = threading.get_ident()
    worker_failed = threading.Event()
    real = hss.compr

    def compr(*args, **kwargs):
        if threading.get_ident() != caller:
            worker_failed.set()
            raise NodeFailure("node failed on the worker")
        worker_failed.wait(10)  # let the worker take a node first
        return real(*args, **kwargs)

    monkeypatch.setattr(hss, "compr", compr)
    monkeypatch.setattr(_threads, "cores", lambda: 2)
    with pytest.raises(NodeFailure, match="on the worker"):
        build_interval_hss(400, nu0=32)
    assert worker_failed.is_set()
    assert blas_counts() == two_blas_threads


def _h2_double_layer(n=640):
    spec = smash.KernelSpec("laplace_dlp", curve=smash.get_curve("sunflower"),
                            nq=n)
    X = smash.bench.curve_points("sunflower", n)
    tree = smash.build_tree(X, nu0=50, mode="2d", tau=0.65)
    return smash.build_h2(tree, spec, X, X, smash.BuildParams(r=12, tau=0.65))


_APPLY_CASES = {"grid_h2": lambda: build_grid_h2_400()[0],
                "h2_double_layer": _h2_double_layer,
                "hss_cauchy": lambda: build_interval_hss(400, nu0=32)[0]}


@pytest.fixture
def recorded_maps(monkeypatch):
    """The item counts of the apply's map_nodes calls, in call order."""
    calls = []
    real = apply.map_nodes

    def recorded(fn, items):
        calls.append(len(items))
        return real(fn, items)

    monkeypatch.setattr(apply, "map_nodes", recorded)
    return calls


@pytest.mark.parametrize("case", sorted(_APPLY_CASES))
def test_shared_products_match_the_serial_apply_bit_for_bit(
        monkeypatch, recorded_maps, case):
    M = _APPLY_CASES[case]()
    q = np.random.default_rng(9).random((M.n_col, 3))
    # below the constant: the serial products
    serial = (apply.matvec_nodewise(M, q[:, 0]), apply.matvec_nodewise(M, q))
    assert recorded_maps == []
    if case == "grid_h2":  # back products of mirrored rows too
        assert any(g.mirrored for g in M.block_groups("L"))
        assert any(g.mirrored for g in M.block_groups("Lm"))
    monkeypatch.setattr(apply, "_SHARED_BYTES", 1)
    monkeypatch.setattr(apply, "_LOCKED_OUTPUTS", 0)
    for cores in (2, 1):
        monkeypatch.setattr(_threads, "cores", lambda: cores)
        recorded_maps.clear()
        np.testing.assert_array_equal(apply.matvec_nodewise(M, q[:, 0]),
                                      serial[0])
        # one map for each kind, over its groups, each whole at this size
        assert recorded_maps == [len(M.block_groups(k)) for k in ("L", "Lm")]
        assert recorded_maps[0] >= 2
        # a many-column apply computes each product just before adding it
        recorded_maps.clear()
        np.testing.assert_array_equal(apply.matvec_nodewise(M, q), serial[1])
        assert recorded_maps == []


def test_only_slices_past_the_locked_outputs_count_toward_sharing(
        monkeypatch, recorded_maps):
    # numpy's matmul keeps the interpreter lock through a product of at most
    # 500 output entries, so a kind of such slices alone stays serial
    monkeypatch.setattr(apply, "_SHARED_BYTES", 1)
    shared = {}
    for case, M in (("grid_h2", build_grid_h2_400()[0]),
                    ("hss_cauchy", build_interval_hss(1200, nu0=32)[0])):
        recorded_maps.clear()
        apply.matvec_nodewise(M, np.ones(M.n_col))
        shared[case] = [len(M.block_groups(k)) for k in ("L", "Lm") if any(
            g.A.shape[0] * g.A.shape[1] > 500 for g in M.block_groups(k))]
        assert recorded_maps == shared[case]
    assert shared["grid_h2"] == [] and shared["hss_cauchy"] != []


class ProductFailure(Exception):
    pass


def test_a_failing_shared_product_reaches_the_caller(monkeypatch):
    M = build_grid_h2_400()[0]
    q = np.random.default_rng(10).random(M.n_col)
    apply.matvec_nodewise(M, q)  # fills the groups on the calling thread
    caller = threading.get_ident()
    pool_failed = threading.Event()
    real = apply._products

    def products(x, g, part):
        if threading.get_ident() != caller:
            pool_failed.set()
            raise ProductFailure("product failed on the pool thread")
        pool_failed.wait(10)  # let the pool thread take a slice first
        return real(x, g, part)

    monkeypatch.setattr(apply, "_products", products)
    monkeypatch.setattr(apply, "_SHARED_BYTES", 1)
    monkeypatch.setattr(apply, "_LOCKED_OUTPUTS", 0)
    monkeypatch.setattr(_threads, "cores", lambda: 2)
    with pytest.raises(ProductFailure, match="on the pool thread"):
        apply.matvec_nodewise(M, q)
    assert pool_failed.is_set()
