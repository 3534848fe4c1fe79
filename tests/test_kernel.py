"""Kernel evaluation, curve parametrizations, and the Nystrom
discretization of the interior Dirichlet problem."""

import warnings

import numpy as np
import pytest

import smash
from smash.kernel import (boundary_data, curve_orientation, evaluate_potential,
                          kernel_block, winding_number)

from conftest import dense_oracle


def _dlp_dense(spec):
    """The double layer's whole Nystrom matrix."""
    every = np.arange(spec.nq)
    return kernel_block(spec, None, None, every, every)


# ---------------------------------------------------------------------------
# kernel values
# ---------------------------------------------------------------------------

def test_cauchy_pointwise_value():
    X = smash.PointSet(np.array([[2.0], [1.0]]))
    K = kernel_block(smash.KernelSpec("cauchy"), X, X, [0], [1])
    np.testing.assert_array_equal(K, [[1.0]])


def test_cauchy_diagonal_uses_dx():
    X = smash.PointSet(np.array([[0.3], [0.5]]))
    K = kernel_block(smash.KernelSpec("cauchy", dx=1.0), X, X, [0, 1], [0, 1])
    np.testing.assert_array_equal(K, [[1.0, -5.0], [5.0, 1.0]])
    with pytest.raises(ValueError, match="diagonal value"):
        kernel_block(smash.KernelSpec("cauchy"), X, X, [0], [0])


@pytest.mark.parametrize("w_shape, v_shape", [
    ((4,), (4,)), ((4, 2, 1), (4, 2)), ((4, 2), (4, 2, 1)), ((4, 2), (4, 3)),
])
def test_cauchy_like_generators_must_be_2d_with_one_column_count(w_shape,
                                                                 v_shape):
    with pytest.raises(ValueError, match=r"\(4,.*\) and \(4,"):
        smash.KernelSpec("cauchy_like", w=np.ones(w_shape), v=np.ones(v_shape))


@pytest.mark.parametrize("side", ["w", "v"])
def test_complex_cauchy_like_generators_refused_naming_the_dtype(side):
    # they were cast to their real parts with only a ComplexWarning
    g = {"w": np.ones((4, 2)), "v": np.ones((4, 2))}
    g[side] = g[side] + 1j * np.ones((4, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="generator %s .*complex128" % side):
            smash.KernelSpec("cauchy_like", **g)


def test_unit_circle_dlp_kernel_is_constant_minus_half():
    # (y - x) . nu_y = |x - y|^2 / 2 on the circle, so n times every
    # off-diagonal entry collapses to -1/2
    spec = smash.KernelSpec("laplace_dlp", curve=smash.get_curve("circle"),
                            nq=16)
    nK = 16 * _dlp_dense(spec)
    off = ~np.eye(16, dtype=bool)
    np.testing.assert_allclose(nK[off], -0.5, rtol=0, atol=1e-12)


def test_dlp_diagonal_is_curvature_limit():
    # the diagonal, less the identity shift, continues its neighbours: at
    # their midpoint the first-order terms cancel
    n = 2 ** 16
    spec = smash.KernelSpec("laplace_dlp", curve=smash.get_curve("ramhead"),
                            nq=n)
    j = round(0.37 * n)
    K = n * kernel_block(spec, None, None, [j - 1, j, j + 1], [j])[:, 0]
    assert K[1] + n / 2 == pytest.approx((K[0] + K[2]) / 2, rel=1e-6)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,expected", [
    ("ramhead", (2.0, -0.4)),
    ("sunflower", (2.55, 0.0)),
    ("honeybee", (0.5 * np.cos(np.pi / 6), -0.25)),
    ("circle", (1.0, 0.0)),
])
def test_curve_start_points(name, expected):
    p = smash.get_curve(name).point(0.0)[0]
    np.testing.assert_allclose(p, expected, atol=1e-12)


@pytest.mark.parametrize("name", ["circle", "ramhead", "sunflower",
                                  "honeybee"])
def test_closed_curves_wrap_around(name):
    c = smash.get_curve(name)
    assert c.closed
    np.testing.assert_allclose(c.point(0.0), c.point(1.0), atol=1e-12)


@pytest.mark.parametrize("name", ["circle", "ramhead", "sunflower",
                                  "honeybee", "snail"])
def test_curve_velocity_matches_finite_differences(name):
    c = smash.get_curve(name)
    t = np.linspace(0.05, 0.95, 7)
    h = 1e-6
    fd = (c.z(t + h) - c.z(t - h)) / (2 * h)
    np.testing.assert_allclose(c.dz(t), fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("name", ["circle", "ramhead", "sunflower",
                                  "honeybee"])
def test_curve_acceleration_matches_finite_differences(name):
    c = smash.get_curve(name)
    t = np.linspace(0.05, 0.95, 7)
    h = 1e-5
    fd = (c.z(t + h) - 2 * c.z(t) + c.z(t - h)) / h ** 2
    np.testing.assert_allclose(c.ddz(t), fd, rtol=1e-3, atol=1e-3)


def test_unknown_curve_rejected():
    with pytest.raises(ValueError):
        smash.get_curve("klein-bottle")


def test_winding_number_inside_and_outside():
    circ = smash.get_curve("circle")
    assert abs(winding_number(circ, (0.1, 0.2))) == 1
    assert winding_number(circ, (2.0, 1.5)) == 0


# ---------------------------------------------------------------------------
# kernel blocks
# ---------------------------------------------------------------------------

def test_single_entry_cauchy_block():
    X = smash.PointSet(np.array([[0.0]]))
    Y = smash.PointSet(np.array([[1.0]]))
    A = dense_oracle(smash.KernelSpec("cauchy"), X, Y)
    np.testing.assert_array_equal(A, [[-1.0]])


def test_cauchy_like_with_unit_generators_reduces_to_cauchy():
    rng = np.random.default_rng(0)
    x = np.sort(rng.random(12)).reshape(-1, 1)
    y = x + 0.01
    X, Y = smash.PointSet(x), smash.PointSet(y)
    ones = np.ones((12, 1))
    plain = dense_oracle(smash.KernelSpec("cauchy"), X, Y)
    like = dense_oracle(smash.KernelSpec("cauchy_like", w=ones, v=ones), X, Y)
    np.testing.assert_allclose(like, plain, rtol=1e-15)


def test_cauchy_like_matches_double_loop():
    rng = np.random.default_rng(5)
    n, p = 8, 2
    x = np.sort(rng.random(n))
    y = x + 0.05
    w, v = rng.random((n, p)), rng.random((n, p))
    spec = smash.KernelSpec("cauchy_like", w=w, v=v)
    A = dense_oracle(spec, smash.PointSet(x.reshape(-1, 1)),
                     smash.PointSet(y.reshape(-1, 1)))
    B = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for l in range(p):
                B[i, j] += w[i, l] * v[j, l] / (x[i] - y[j])
    np.testing.assert_allclose(A, B, rtol=1e-14)


def test_kernel_block_subsets_match_full_matrix():
    rng = np.random.default_rng(2)
    x = np.sort(rng.random(20)).reshape(-1, 1)
    X = smash.PointSet(x)
    Y = smash.PointSet(x + 0.02)
    spec = smash.KernelSpec("cauchy")
    A = dense_oracle(spec, X, Y)
    rows = np.array([3, 7, 11])
    cols = np.array([0, 5, 19])
    np.testing.assert_array_equal(kernel_block(spec, X, Y, rows, cols),
                                  A[np.ix_(rows, cols)])


def test_point_scalars_computed_once_per_set(monkeypatch):
    import smash.cluster
    calls = []
    real = smash.cluster._to_scalars

    def counting(coords):
        calls.append(coords.shape)
        return real(coords)

    monkeypatch.setattr(smash.cluster, "_to_scalars", counting)
    rng = np.random.default_rng(9)
    x = rng.random((40, 2))
    y = np.vstack([x[:10], rng.random((30, 2))])  # ten coincident points
    X, Y = smash.PointSet(x), smash.PointSet(y)
    spec = smash.KernelSpec("cauchy", dx=2.5)
    zx = x[:, 0] + 1j * x[:, 1]
    zy = y[:, 0] + 1j * y[:, 1]
    coincident = 0
    for _ in range(25):
        rows = rng.choice(40, size=17, replace=False)
        cols = rng.choice(40, size=17, replace=False)
        diff = zx[rows][:, None] - zy[cols][None, :]
        coincident += np.count_nonzero(diff == 0)
        expected = np.where(diff == 0, 2.5, 1.0 / np.where(diff == 0, 1, diff))
        np.testing.assert_array_equal(kernel_block(spec, X, Y, rows, cols),
                                      expected)
    assert coincident > 0
    assert len(calls) == 2


def _dlp_block_reference(spec, rows, cols):
    """The double-layer block as the real part of a Cauchy-like block, one
    whole-array expression per step, with an m x k coincidence mask;
    kernel_block must equal it bit for bit."""
    data = spec._dlp_data
    z, v, diag = data["z"], data["v"], data["diag"]
    D = z[rows][:, None] - z[cols][None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        K = (1.0 / D * v[cols][None, :]).real
    ii, jj = np.nonzero(D == 0)
    K[ii, jj] = diag[cols[jj]] / spec.nq - 0.5
    return K


def _dlp_block_geometric(spec, rows, cols):
    """The same block from the real formula
    kappa(s, t) = -(d . nu_t) / (2 pi |d|^2), d = r(t) - r(s)."""
    t = spec.dlp_nodes()
    r = spec.curve.point(t)
    dz = spec.curve.dz(t)
    nu_w = curve_orientation(spec.curve) * np.column_stack([dz.imag, -dz.real])
    rs, rt, nw = r[rows], r[cols], nu_w[cols]
    dx = rt[None, :, 0] - rs[:, None, 0]
    dy = rt[None, :, 1] - rs[:, None, 1]
    num = dx * nw[None, :, 0] + dy * nw[None, :, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        K = -num / (2 * np.pi * (dx ** 2 + dy ** 2))
    same = rows[:, None] == cols[None, :]
    ii, jj = np.nonzero(same)
    K[ii, jj] = spec._dlp_data["diag"][cols[jj]]
    return K / spec.nq - 0.5 * same


@pytest.mark.parametrize("rows, cols", [
    (np.arange(40), np.arange(60, 130)),
    (np.arange(20, 90), np.arange(64)),
    (np.arange(160), np.arange(160)),
    ([5, 3, 3, 90, 5, 12], [3, 12, 12, 7, 5, 3, 101, 3]),
    ([17], np.arange(160)),
    ([], np.arange(10)),
    (np.arange(10), []),
], ids=["disjoint", "coincident", "square", "repeated-unsorted", "one-row",
        "no-rows", "no-cols"])
def test_dlp_block_matches_reference_bit_for_bit(rows, cols):
    spec = smash.KernelSpec("laplace_dlp", curve=smash.get_curve("sunflower"),
                            nq=160)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    K = kernel_block(spec, None, None, rows, cols)
    ref = _dlp_block_reference(spec, rows, cols)
    assert K.shape == ref.shape == (rows.size, cols.size)
    assert K.dtype == ref.dtype == np.float64
    assert not np.isnan(K).any()
    # compare the bit patterns, so that signed zeros count too
    np.testing.assert_array_equal(K.view(np.uint64), ref.view(np.uint64))
    # the real geometric formula agrees to roundoff
    if K.size:
        geo = _dlp_block_geometric(spec, rows, cols)
        assert np.max(np.abs(K - geo)) <= 1e-15 * np.max(np.abs(K))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("shape", [(17, 288), (16, 198), (16, 100)])
def test_cauchy_block_matches_reciprocal_of_differences(dim, shape):
    rng = np.random.default_rng(dim)
    X = smash.PointSet(rng.standard_normal((400, dim)))
    rows = rng.choice(400, shape[0], replace=False)
    cols = np.append(rng.choice(400, shape[1] - 1, replace=False), rows[0])
    spec = smash.KernelSpec("cauchy", dx=2.5)
    diff = X.scalars[rows][:, None] - X.scalars[cols][None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = 1.0 / diff
    ref[diff == 0] = 2.5
    K = kernel_block(spec, X, X, rows, cols)
    assert K.dtype == ref.dtype
    np.testing.assert_array_equal(K.view(np.uint64), ref.view(np.uint64))


def _stacked_cases():
    """(spec, X, Y) of each kind on 60 points, one point set for Cauchy
    and the double layer, so that stacks of labels meet coincident points."""
    rng = np.random.default_rng(8)
    P = smash.PointSet(rng.standard_normal((60, 2)))
    Q = smash.PointSet(rng.standard_normal((60, 2)))
    w, v = rng.random((60, 2)), rng.random((60, 2))
    return {
        "cauchy": (smash.KernelSpec("cauchy", dx=2.5), P, P),
        "cauchy_like": (smash.KernelSpec("cauchy_like", w=w, v=v), P, Q),
        "laplace_dlp": (smash.KernelSpec(
            "laplace_dlp", curve=smash.get_curve("sunflower"), nq=60),
            None, None),
    }


@pytest.mark.parametrize("kind", ["cauchy", "cauchy_like", "laplace_dlp"])
@pytest.mark.parametrize("R, m, n", [(5, 7, 11), (1, 4, 9), (3, 0, 6),
                                     (4, 6, 0)])
def test_stacked_labels_give_each_block_of_its_own_call(kind, R, m, n):
    spec, X, Y = _stacked_cases()[kind]
    rng = np.random.default_rng([R, m, n])
    rows = rng.integers(0, 30, (R, m))
    cols = rng.integers(30 if kind == "cauchy_like" else 0, 60, (R, n))
    if m and n and kind != "cauchy_like":
        cols[0, 0] = rows[0, 0]  # a coincident point in the first block
    K = kernel_block(spec, X, Y, rows, cols)
    assert K.shape == (R, m, n)
    for r in range(R):
        one = kernel_block(spec, X, Y, rows[r], cols[r])
        assert K[r].dtype == one.dtype
        # bit patterns, so that signed zeros count too
        np.testing.assert_array_equal(K[r].view(np.uint64),
                                      one.view(np.uint64))
    if m and n and kind == "cauchy":
        assert K[0, 0, 0] == 2.5  # dx where the points coincide
    if m and n and kind == "laplace_dlp":  # the curvature on the diagonal
        assert K[0, 0, 0] == kernel_block(spec, None, None, rows[0, :1],
                                          rows[0, :1])[0, 0]


def test_stacked_cauchy_like_refuses_a_coincident_point_in_any_block():
    spec, X, _ = _stacked_cases()["cauchy_like"]
    rows = np.arange(12).reshape(3, 4)
    cols = rows + 20
    cols[2, 1] = rows[2, 3]
    with pytest.raises(ValueError, match="coincident points"):
        kernel_block(spec, X, X, rows, cols)


# ---------------------------------------------------------------------------
# Nystrom system and potential evaluation
# ---------------------------------------------------------------------------

def test_circle_row_sums_give_minus_one_after_identity_shift():
    # the double layer of a constant density is constant inside, which
    # pins every row sum of the shifted system matrix to exactly -1
    spec = smash.KernelSpec("laplace_dlp", curve=smash.get_curve("circle"),
                            nq=16)
    A = _dlp_dense(spec)
    np.testing.assert_allclose(A @ np.ones(16), -np.ones(16), atol=1e-13)
    assert A.shape == (16, 16) and np.all(np.isfinite(A))
    np.testing.assert_allclose(spec.dlp_nodes(), np.arange(16) / 16.0)


def test_boundary_data_value_at_first_node():
    spec = smash.KernelSpec("laplace_dlp", curve=smash.get_curve("circle"),
                            nq=8)
    rhs = boundary_data(spec, (2.0, 1.5))
    assert rhs[0] == pytest.approx(np.log(np.sqrt(3.25)), rel=1e-12)


def test_potential_of_zero_density_is_zero():
    circ = smash.get_curve("circle")
    assert evaluate_potential(circ, np.zeros(32), (0.2, 0.1)) == 0.0


def test_potential_of_constant_density_is_minus_constant():
    circ = smash.get_curve("circle")
    val = evaluate_potential(circ, np.full(64, 0.7), (0.3, -0.2))
    assert val == pytest.approx(-0.7, abs=1e-12)


def test_exterior_evaluation_point_rejected():
    circ = smash.get_curve("circle")
    with pytest.raises(ValueError):
        evaluate_potential(circ, np.ones(32), (2.0, 0.0))


def test_interior_source_point_rejected():
    spec = smash.KernelSpec("laplace_dlp", curve=smash.get_curve("circle"),
                            nq=16)
    with pytest.raises(ValueError, match="outside the curve"):
        boundary_data(spec, (0.1, 0.0))


def test_open_curve_has_no_nystrom_system():
    with pytest.raises(ValueError, match="closed curve"):
        smash.KernelSpec("laplace_dlp", curve=smash.get_curve("snail"), nq=16)


@pytest.mark.parametrize("name,xstar,n,tol", [
    ("circle", (0.3, 0.1), 128, 1e-10),
    ("ramhead", (0.1, 0.1), 320, 1e-7),
])
def test_dirichlet_solve_reproduces_harmonic_potential(name, xstar, n, tol):
    # boundary data log|r - x0| extends harmonically to log|x - x0|, so the
    # recovered interior potential has a closed-form reference value; the
    # wigglier ram head needs more quadrature nodes than the circle
    curve = smash.get_curve(name)
    spec = smash.KernelSpec("laplace_dlp", curve=curve, nq=n)
    sigma = np.linalg.solve(_dlp_dense(spec),
                            boundary_data(spec, (2.0, 1.5)))
    u = evaluate_potential(curve, sigma, xstar)
    exact = np.log(np.hypot(xstar[0] - 2.0, xstar[1] - 1.5))
    assert u == pytest.approx(exact, abs=tol)
