"""Kernel evaluation, curve parametrizations, dense assembly, and the
Nystrom discretization of the interior Dirichlet problem."""

import numpy as np
import pytest

import smash
from smash.kernel import (DirichletProblem, assemble_dense, evaluate_potential,
                          kernel_block, nystrom_system, winding_number)


# ---------------------------------------------------------------------------
# pointwise kernel values
# ---------------------------------------------------------------------------

def test_cauchy_pointwise_value():
    spec = smash.KernelSpec("cauchy")
    assert smash.eval_kernel(spec, 2.0, 1.0) == 1.0


def test_cauchy_diagonal_uses_dx():
    spec = smash.KernelSpec("cauchy", dx=1.0)
    assert smash.eval_kernel(spec, 0.3, 0.3) == 1.0
    with pytest.raises(ValueError):
        smash.eval_kernel(smash.KernelSpec("cauchy"), 0.3, 0.3)


def test_cauchy_like_has_no_pointwise_form():
    w = np.ones((4, 1))
    spec = smash.KernelSpec("cauchy_like", w=w, v=w)
    with pytest.raises(ValueError):
        smash.eval_kernel(spec, 0.0, 1.0)


def test_unit_circle_dlp_kernel_is_constant_minus_half():
    # (y - x) . nu_y = |x - y|^2 / 2 on the circle, so the scaled kernel
    # collapses to -1/2 for every pair of parameters
    circ = smash.get_curve("circle")
    spec = smash.KernelSpec("laplace_dlp", curve=circ, nq=16)
    rng = np.random.default_rng(7)
    for s, t in rng.random((10, 2)):
        if abs(s - t) < 1e-9:
            continue
        assert smash.eval_kernel(spec, s, t) == pytest.approx(-0.5, abs=1e-12)


def test_dlp_diagonal_is_curvature_limit():
    rh = smash.get_curve("ramhead")
    spec = smash.KernelSpec("laplace_dlp", curve=rh, nq=16)
    t = 0.37
    diag = smash.eval_kernel(spec, t, t)
    near = smash.eval_kernel(spec, t + 1e-6, t)
    assert diag == pytest.approx(near, rel=1e-4)


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
    fd = (c.point(t + h) - c.point(t - h)) / (2 * h)
    np.testing.assert_allclose(c.velocity(t), fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("name", ["circle", "ramhead", "sunflower",
                                  "honeybee"])
def test_curve_acceleration_matches_finite_differences(name):
    c = smash.get_curve(name)
    t = np.linspace(0.05, 0.95, 7)
    h = 1e-5
    fd = (c.point(t + h) - 2 * c.point(t) + c.point(t - h)) / h ** 2
    np.testing.assert_allclose(c.acceleration(t), fd, rtol=1e-3, atol=1e-3)


def test_unknown_curve_rejected():
    with pytest.raises(ValueError):
        smash.get_curve("klein-bottle")


def test_winding_number_inside_and_outside():
    circ = smash.get_curve("circle")
    assert abs(winding_number(circ, (0.1, 0.2))) == 1
    assert winding_number(circ, (2.0, 1.5)) == 0


# ---------------------------------------------------------------------------
# dense assembly
# ---------------------------------------------------------------------------

def test_single_entry_cauchy_block():
    X = smash.PointSet(np.array([[0.0]]))
    Y = smash.PointSet(np.array([[1.0]]), role="col")
    A = assemble_dense(smash.KernelSpec("cauchy"), X, Y)
    np.testing.assert_array_equal(A, [[-1.0]])


def test_cauchy_like_with_unit_generators_reduces_to_cauchy():
    rng = np.random.default_rng(0)
    x = np.sort(rng.random(12)).reshape(-1, 1)
    y = x + 0.01
    X, Y = smash.PointSet(x), smash.PointSet(y, role="col")
    ones = np.ones((12, 1))
    plain = assemble_dense(smash.KernelSpec("cauchy"), X, Y)
    like = assemble_dense(smash.KernelSpec("cauchy_like", w=ones, v=ones),
                          X, Y)
    np.testing.assert_allclose(like, plain, rtol=1e-15)


def test_cauchy_like_matches_double_loop():
    rng = np.random.default_rng(5)
    n, p = 8, 2
    x = np.sort(rng.random(n))
    y = x + 0.05
    w, v = rng.random((n, p)), rng.random((n, p))
    spec = smash.KernelSpec("cauchy_like", w=w, v=v)
    A = assemble_dense(spec, smash.PointSet(x.reshape(-1, 1)),
                       smash.PointSet(y.reshape(-1, 1), role="col"))
    B = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for l in range(p):
                B[i, j] += w[i, l] * v[j, l] / (x[i] - y[j])
    np.testing.assert_allclose(A, B, rtol=1e-14)


def test_dense_assembly_respects_budget():
    X, Y = smash.PointSet(np.ones((100, 1)) * 0.1), None
    spec = smash.KernelSpec("cauchy", dx=1.0)
    with pytest.raises(ValueError):
        assemble_dense(spec, X, X, budget=100)


def test_kernel_block_subsets_match_full_matrix():
    rng = np.random.default_rng(2)
    x = np.sort(rng.random(20)).reshape(-1, 1)
    X = smash.PointSet(x)
    Y = smash.PointSet(x + 0.02, role="col")
    spec = smash.KernelSpec("cauchy")
    A = assemble_dense(spec, X, Y)
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
    X, Y = smash.PointSet(x), smash.PointSet(y, role="col")
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


# ---------------------------------------------------------------------------
# Nystrom system and potential evaluation
# ---------------------------------------------------------------------------

def test_circle_row_sums_give_minus_one_after_identity_shift():
    # the double layer of a constant density is constant inside, which
    # pins every row sum of the shifted system matrix to exactly -1
    prob = DirichletProblem(curve=smash.get_curve("circle"), n=16)
    A, rhs, t = nystrom_system(prob)
    np.testing.assert_allclose(A @ np.ones(16), -np.ones(16), atol=1e-13)
    assert A.shape == (16, 16) and np.all(np.isfinite(A))
    np.testing.assert_allclose(t, np.arange(16) / 16.0)


def test_boundary_data_value_at_first_node():
    prob = DirichletProblem(curve=smash.get_curve("circle"), x0=(2.0, 1.5),
                            n=8)
    _, rhs, _ = nystrom_system(prob)
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
    with pytest.raises(ValueError):
        nystrom_system(DirichletProblem(curve=smash.get_curve("circle"),
                                        x0=(0.1, 0.0), n=16))


def test_open_curve_has_no_nystrom_system():
    with pytest.raises(ValueError):
        nystrom_system(DirichletProblem(curve=smash.get_curve("snail"), n=16))


@pytest.mark.parametrize("name,xstar,n,tol", [
    ("circle", (0.3, 0.1), 128, 1e-10),
    ("ramhead", (0.1, 0.1), 320, 1e-7),
])
def test_dirichlet_solve_reproduces_harmonic_potential(name, xstar, n, tol):
    # boundary data log|r - x0| extends harmonically to log|x - x0|, so the
    # recovered interior potential has a closed-form reference value; the
    # wigglier ram head needs more quadrature nodes than the circle
    curve = smash.get_curve(name)
    prob = DirichletProblem(curve=curve, x0=(2.0, 1.5), xstar=xstar, n=n)
    A, rhs, _ = nystrom_system(prob)
    sigma = np.linalg.solve(A, rhs)
    u = evaluate_potential(curve, sigma, xstar)
    exact = np.log(np.hypot(xstar[0] - 2.0, xstar[1] - 1.5))
    assert u == pytest.approx(exact, abs=tol)
