"""Shared fixtures: small point sets and prebuilt matrices reused across
test modules.  Everything here is deliberately tiny so the dense oracles
stay cheap."""

import numpy as np
import pytest
from hypothesis import settings

import smash

# every run draws the same examples: a property test passes or fails the
# same way each time, and a failure found once is found again
settings.register_profile("pinned", derandomize=True, database=None)
settings.load_profile("pinned")


def interval_pair(n, seed=0):
    """Nearly coincident 1-d row/column point sets on (0, 1)."""
    rng = np.random.default_rng(seed)
    x = (np.arange(1, n + 1) / (n + 1.0)).reshape(-1, 1)
    y = x + 1e-7 * rng.random((n, 1))
    return smash.PointSet(x), smash.PointSet(y)


def center_radius(lo, hi):
    """(center, radius) of the box with corners lo and hi: its midpoint, a
    complex number for a planar box, and half its diagonal."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    c = (lo + hi) / 2.0
    return (complex(*c) if c.size == 2 else float(c[0]),
            0.5 * float(np.linalg.norm(hi - lo)))


def dense_oracle(spec, X, Y):
    from smash.kernel import kernel_block
    return kernel_block(spec, X, Y, np.arange(X.n), np.arange(Y.n))


def build_interval_hss(n, r=21, eps_svd=1e-9, tau=0.6, nu0=50, seed=0):
    X, Y = interval_pair(n, seed=seed)
    spec = smash.KernelSpec("cauchy")
    tree = smash.build_tree(X, Y, nu0=nu0, tau=tau)
    params = smash.BuildParams(r=r, tau=tau, eps_svd=eps_svd)
    return smash.build_hss(tree, spec, X, Y, params), spec, X, Y


@pytest.fixture(scope="session")
def cauchy_hss_400():
    """One mid-sized HSS matrix shared by reconstruction/matvec/solve tests."""
    return build_interval_hss(400, nu0=32)


def build_grid_h2_400():
    """H2 matrix on a 20x20 grid with the 2d kernel: (M, spec, X)."""
    X = smash.bench.grid_points(20)
    spec = smash.KernelSpec("cauchy", dx=1.0)
    tree = smash.build_tree(X, nu0=50, mode="2d", tau=0.65)
    params = smash.BuildParams(r=22, tau=0.65, eps_svd=1e-12)
    M = smash.build_h2(tree, spec, X, X, params)
    return M, spec, X


def build_1d_pair_h2():
    """H2 on distinct, nearly coincident 1-d row and column points."""
    rng = np.random.default_rng(2)
    x = np.sort(rng.random(200)).reshape(-1, 1)
    X = smash.PointSet(x)
    Y = smash.PointSet(x + 1e-7 * rng.random((200, 1)))
    tree = smash.build_tree(X, Y, nu0=16, tau=0.5)
    spec = smash.KernelSpec("cauchy")
    M = smash.build_h2(tree, spec, X, Y,
                       smash.BuildParams(r=15, tau=0.5, eps_svd=1e-10))
    return M, spec, X, Y, rng


def build_one_set_hss(X):
    """HSS of the Cauchy kernel (dx = 1) on one point set X: (M, spec)."""
    spec = smash.KernelSpec("cauchy", dx=1.0)
    tree = smash.build_tree(X, nu0=50, tau=0.65)
    params = smash.BuildParams(r=22, tau=0.65, eps_svd=1e-11)
    return smash.build_hss(tree, spec, X, X, params), spec


@pytest.fixture(scope="session")
def grid_h2_400():
    """One grid H2 matrix shared by tests that only read it."""
    return build_grid_h2_400()
