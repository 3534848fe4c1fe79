"""The library names that the benchmark's traced run wraps (see
perfbench/layers.py) still exist and still see the work.  A refactor that
drops or bypasses one of them fails here, in the unit tests, and not only in
perfbench/selftest.py.  The benchmark's files are imported, never changed."""

from pathlib import Path

import numpy as np

import smash

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_grid_apply_counts_one_kernel_call_per_shape_group(
        monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import install
    from tracing import Tracer

    # the tracer keeps one span stack, so the first apply's fill runs
    # serially: on two threads a kernel call could nest under the other's
    monkeypatch.setattr(smash._threads, "cores", lambda: 1)
    tracer = Tracer()
    install(tracer)
    try:
        # through the module attributes, as the benchmark calls them
        X = smash.bench.grid_points(20)
        spec = smash.KernelSpec("cauchy", dx=1.0)
        tree = smash.cluster.build_tree(X, nu0=50, mode="2d", tau=0.65)
        M = smash.h2.build_h2(tree, spec, X, X,
                              smash.BuildParams(r=22, tau=0.65))
        tracer.phase = "first_apply"
        smash.apply.matvec_nodewise(M, np.ones(X.n))
        tracer.phase = "apply"
        smash.apply.matvec_nodewise(M, np.ones(X.n))
    finally:
        tracer.restore()
    # the first apply filled every kept row, a group of equal shapes at a
    # time: counting them evaluates nothing more
    groups = sum(len(M.block_groups(kind)) for kind in ("L", "Lm"))
    rows = sum(len(g.A) for kind in ("L", "Lm") for g in M.block_groups(kind))
    assert groups < rows < (len({i for i, _ in M.pairs_L})
                            + len({i for i, _ in M.pairs_Lm}))
    assert tracer.calls("kernel.kernel_block", ("first_apply",)) == groups
    assert tracer.calls("kernel.kernel_block", ("apply",)) == 0
    assert tracer.calls("apply.matvec_nodewise", ("first_apply",)) == 1
    for name in ("cluster.build_tree", "cluster.leaf_sets", "h2.build_h2"):
        assert tracer.calls(name, ("setup",)) == 1, name
    # one point set: one compression per node serves both sides
    assert tracer.calls("lowrank.compr", ("setup",)) == tree.root


def test_traced_h2_on_two_point_sets_compresses_both_sides(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import install
    from tracing import Tracer

    tracer = Tracer()
    install(tracer)
    try:
        X = smash.bench.grid_points(20)
        Y = smash.PointSet(X.coords + 1e-3)
        spec = smash.KernelSpec("cauchy")
        tree = smash.cluster.build_tree(X, Y, nu0=50, mode="2d", tau=0.65)
        smash.h2.build_h2(tree, spec, X, Y, smash.BuildParams(r=22, tau=0.65))
    finally:
        tracer.restore()
    assert tracer.calls("lowrank.compr", ("setup",)) == 2 * tree.root


def test_traced_hss_grid_build_compresses_each_node_once(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import install
    from tracing import Tracer

    # the tracer keeps one span stack, so the level map runs serially
    monkeypatch.setattr(smash._threads, "cores", lambda: 1)
    tracer = Tracer()
    install(tracer)
    try:
        X = smash.bench.grid_points(20)
        spec = smash.KernelSpec("cauchy", dx=1.0)
        tree = smash.cluster.build_tree(X, nu0=50, tau=0.65)
        smash.hss.build_hss(tree, spec, X, X,
                            smash.BuildParams(r=22, tau=0.65, eps_svd=1e-11))
    finally:
        tracer.restore()
    # one point set and an antisymmetric kernel: one factor per node, from
    # one compression and no nearfield SVD
    assert tracer.calls("hss.build_hss", ("setup",)) == 1
    assert tracer.calls("lowrank.compr", ("setup",)) == tree.root
    assert tracer.calls("lowrank.truncated_svd", ("setup",)) == 0
