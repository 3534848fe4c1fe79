"""Kernel evaluation and boundary-integral discretization.

Three kernel families: the Cauchy kernel 1/(x-y) over real or complex point
sets, Cauchy-like matrices (w_i . v_j)/(x_i - y_j), and the Laplace
double-layer kernel on smooth closed curves, discretized with the Nystrom
method on the trapezoidal rule.  Curve parametrizations carry analytic first
and second derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DENSE_BUDGET_DEFAULT = 5120 * 5120


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


@dataclass
class CurveSpec:
    """Parametrized curve t in [0,1] -> R^dim with analytic derivatives."""

    name: str
    fpos: object
    fvel: object
    facc: object
    closed: bool = True
    dim: int = 2

    def point(self, t):
        return self.fpos(np.atleast_1d(np.asarray(t, dtype=float)))

    def velocity(self, t):
        return self.fvel(np.atleast_1d(np.asarray(t, dtype=float)))

    def acceleration(self, t):
        return self.facc(np.atleast_1d(np.asarray(t, dtype=float)))


def _planar(fz, fdz, fddz, name, closed=True):
    """CurveSpec from complex-valued parametrization z(t) and derivatives."""
    def wrap(f):
        def g(t):
            z = f(t)
            return np.column_stack([z.real, z.imag])
        return g
    return CurveSpec(name=name, fpos=wrap(fz), fvel=wrap(fdz), facc=wrap(fddz),
                     closed=closed, dim=2)


def _make_circle():
    w = 2 * np.pi
    return _planar(
        lambda t: np.exp(1j * w * t),
        lambda t: 1j * w * np.exp(1j * w * t),
        lambda t: -(w ** 2) * np.exp(1j * w * t),
        "circle")


def _make_ramhead():
    w = 2 * np.pi

    def pos(t):
        u = 4 * np.pi * t
        return np.column_stack([
            2 * np.cos(w * t),
            1 + np.sin(w * t) - 1.4 * np.cos(u) ** 4,
        ])

    def vel(t):
        u = 4 * np.pi * t
        return np.column_stack([
            -2 * w * np.sin(w * t),
            w * np.cos(w * t) + 22.4 * np.pi * np.cos(u) ** 3 * np.sin(u),
        ])

    def acc(t):
        u = 4 * np.pi * t
        cu, su = np.cos(u), np.sin(u)
        return np.column_stack([
            -2 * w ** 2 * np.cos(w * t),
            -w ** 2 * np.sin(w * t)
            + 89.6 * np.pi ** 2 * (cu ** 4 - 3 * cu ** 2 * su ** 2),
        ])

    return CurveSpec(name="ramhead", fpos=pos, fvel=vel, facc=acc)


def _make_sunflower():
    w = 2 * np.pi

    def rho(t):
        return 1.3 + 1.25 * np.cos(40 * np.pi * t)

    def drho(t):
        return -50 * np.pi * np.sin(40 * np.pi * t)

    def ddrho(t):
        return -2000 * np.pi ** 2 * np.cos(40 * np.pi * t)

    return _planar(
        lambda t: rho(t) * np.exp(1j * w * t),
        lambda t: (drho(t) + 1j * w * rho(t)) * np.exp(1j * w * t),
        lambda t: (ddrho(t) + 2j * w * drho(t) - w ** 2 * rho(t)) * np.exp(1j * w * t),
        "sunflower")


def _make_honeybee():
    w = 2 * np.pi
    rot = np.exp(-1j * np.pi / 6)

    def rho(t):
        return 0.5 + np.sin(4 * np.pi * t)

    def drho(t):
        return 4 * np.pi * np.cos(4 * np.pi * t)

    def ddrho(t):
        return -16 * np.pi ** 2 * np.sin(4 * np.pi * t)

    return _planar(
        lambda t: rot * rho(t) * np.exp(1j * w * t),
        lambda t: rot * (drho(t) + 1j * w * rho(t)) * np.exp(1j * w * t),
        lambda t: rot * (ddrho(t) + 2j * w * drho(t) - w ** 2 * rho(t)) * np.exp(1j * w * t),
        "honeybee")


def _make_snail():
    # spiral stand-in, rescaled so the curve fits the unit box
    w = 4 * np.pi
    s = 1.0 / 1.2
    return _planar(
        lambda t: s * (0.2 + t) * np.exp(1j * w * t),
        lambda t: s * (1 + 1j * w * (0.2 + t)) * np.exp(1j * w * t),
        lambda t: s * (2j * w - w ** 2 * (0.2 + t)) * np.exp(1j * w * t),
        "snail", closed=False)


def _make_interval():
    return CurveSpec(
        name="interval",
        fpos=lambda t: t[:, None].copy(),
        fvel=lambda t: np.ones((t.size, 1)),
        facc=lambda t: np.zeros((t.size, 1)),
        closed=False, dim=1)


_CURVES = {
    "circle": _make_circle,
    "ramhead": _make_ramhead,
    "sunflower": _make_sunflower,
    "honeybee": _make_honeybee,
    "snail": _make_snail,
    "interval": _make_interval,
}


def get_curve(name: str) -> CurveSpec:
    try:
        return _CURVES[name]()
    except KeyError:
        raise ValueError("unknown curve id %r (have %s)"
                         % (name, ", ".join(sorted(_CURVES)))) from None


def curve_point(curve: CurveSpec, t, derivative: int = 0):
    """Position (derivative=0), velocity (1), or acceleration (2) at t."""
    f = {0: curve.point, 1: curve.velocity, 2: curve.acceleration}[derivative]
    out = f(t)
    return out[0] if np.isscalar(t) else out


def curve_orientation(curve: CurveSpec, m: int = 2048) -> int:
    """+1 for counterclockwise parametrization, -1 for clockwise."""
    t = np.arange(m) / m
    r = curve.point(t)
    dr = curve.velocity(t)
    area2 = np.mean(r[:, 0] * dr[:, 1] - r[:, 1] * dr[:, 0])
    return 1 if area2 > 0 else -1


def winding_number(curve: CurveSpec, x, m: int = 4096) -> int:
    """Winding number of the curve around point x (0 means exterior)."""
    t = np.linspace(0.0, 1.0, m + 1)
    r = curve.point(t)
    ang = np.unwrap(np.arctan2(r[:, 1] - x[1], r[:, 0] - x[0]))
    return int(round((ang[-1] - ang[0]) / (2 * np.pi)))


# ---------------------------------------------------------------------------
# kernel specs
# ---------------------------------------------------------------------------


@dataclass
class KernelSpec:
    """One of the three kernel families, with its evaluation data.

    cauchy:      entries 1/(x-y); coincident points take the value dx
                 (required then).  Points in R^2 are treated as complex.
    cauchy_like: entries (sum_l w_il v_jl)/(x_i - y_j).
    laplace_dlp: Nystrom matrix of the double-layer operator minus half the
                 identity, at n trapezoidal nodes t_j = j/n on the curve.
    """

    kind: str
    dx: float = None
    w: np.ndarray = None
    v: np.ndarray = None
    curve: CurveSpec = None
    nq: int = 0
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind not in ("cauchy", "cauchy_like", "laplace_dlp"):
            raise ValueError("unknown kernel kind %r" % self.kind)
        if self.kind == "cauchy_like":
            if self.w is None or self.v is None:
                raise ValueError("cauchy_like needs generator matrices w, v")
            self.w = np.asarray(self.w, dtype=float)
            self.v = np.asarray(self.v, dtype=float)
            if self.w.shape[1] != self.v.shape[1]:
                raise ValueError("w and v must share the generator count p")
        if self.kind == "laplace_dlp":
            if self.curve is None or not self.curve.closed:
                raise ValueError("laplace_dlp needs a smooth closed curve")
            if self.nq < 8:
                raise ValueError("laplace_dlp needs a quadrature count n >= 8")

    # -- double layer node data (computed once) ------------------------------

    def _dlp_data(self):
        data = self._cache.get("dlp")
        if data is None:
            n = self.nq
            t = np.arange(n) / n
            r = self.curve.point(t)
            dr = self.curve.velocity(t)
            ddr = self.curve.acceleration(t)
            orient = curve_orientation(self.curve)
            nu_w = orient * np.column_stack([dr[:, 1], -dr[:, 0]])  # nu |r'|
            sp2 = dr[:, 0] ** 2 + dr[:, 1] ** 2
            cross = dr[:, 0] * ddr[:, 1] - dr[:, 1] * ddr[:, 0]
            diag = -orient * cross / (4 * np.pi * sp2)  # kappa(t,t)
            data = {"t": t, "r": r, "nu_w": nu_w, "diag": diag}
            self._cache["dlp"] = data
        return data

    def dlp_nodes(self):
        return self._dlp_data()["t"]


def _dlp_offdiag(rs, rt, nu_w_t):
    """kappa(s,t) for distinct nodes: rs (m,2) row points, rt (k,2) column
    points, nu_w_t the outward normal at t scaled by |r'(t)|."""
    dx = rt[None, :, 0] - rs[:, None, 0]
    dy = rt[None, :, 1] - rs[:, None, 1]
    d2 = dx ** 2 + dy ** 2
    num = dx * nu_w_t[None, :, 0] + dy * nu_w_t[None, :, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return -num / (2 * np.pi * d2)


def kernel_block(spec: KernelSpec, X, Y, rows, cols) -> np.ndarray:
    """Exact kernel submatrix A[rows, cols] in caller index order.

    X and Y are PointSets (ignored for laplace_dlp, whose nodes live on the
    curve); rows/cols are integer index arrays.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if spec.kind in ("cauchy", "cauchy_like"):
        zx = X.scalars[rows]
        zy = Y.scalars[cols]
        diff = zx[:, None] - zy[None, :]
        hit = diff == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            C = 1.0 / diff
        if spec.kind == "cauchy":
            if np.any(hit):
                if spec.dx is None:
                    raise ValueError("coincident points need a diagonal value d_x")
                C[hit] = spec.dx
            return C
        if np.any(hit):
            raise ValueError("cauchy_like is undefined at coincident points")
        return (spec.w[rows] @ spec.v[cols].T) * C
    # laplace_dlp
    data = spec._dlp_data()
    t, r, nu_w, diag = data["t"], data["r"], data["nu_w"], data["diag"]
    K = _dlp_offdiag(r[rows], r[cols], nu_w[cols])
    same = t[rows][:, None] == t[cols][None, :]
    if np.any(same):
        ii, jj = np.nonzero(same)
        K[ii, jj] = diag[cols[jj]]
    return K / spec.nq - 0.5 * same


def eval_kernel(spec: KernelSpec, x, y):
    """Pointwise kernel value: coordinates (or complex scalars) for cauchy,
    curve parameters s, t for laplace_dlp."""
    if spec.kind == "cauchy":
        if x == y:
            if spec.dx is None:
                raise ValueError("x = y needs a diagonal value d_x")
            return spec.dx
        return 1.0 / (x - y)
    if spec.kind == "laplace_dlp":
        s, t = float(x), float(y)
        orient = curve_orientation(spec.curve)
        if s == t:
            dr = spec.curve.velocity(t)[0]
            ddr = spec.curve.acceleration(t)[0]
            cross = dr[0] * ddr[1] - dr[1] * ddr[0]
            return -orient * cross / (4 * np.pi * (dr[0] ** 2 + dr[1] ** 2))
        rs = spec.curve.point(s)
        rt = spec.curve.point(t)
        drt = spec.curve.velocity(t)
        nu_w = orient * np.column_stack([drt[:, 1], -drt[:, 0]])
        return float(_dlp_offdiag(rs, rt, nu_w)[0, 0])
    raise ValueError("cauchy_like has no pointwise form; use assemble_dense")


def assemble_dense(spec: KernelSpec, X, Y, budget: int = DENSE_BUDGET_DEFAULT) -> np.ndarray:
    """Brute-force dense matrix in caller ordering (oracle; budget-limited)."""
    if spec.kind == "laplace_dlp":
        m = n = spec.nq
    else:
        m, n = X.coords.shape[0], Y.coords.shape[0]
    if m * n > budget:
        raise ValueError("dense assembly of %dx%d exceeds budget %d" % (m, n, budget))
    return kernel_block(spec, X, Y, np.arange(m), np.arange(n))


# ---------------------------------------------------------------------------
# Nystrom discretization of the interior Dirichlet problem
# ---------------------------------------------------------------------------


@dataclass
class DirichletProblem:
    """Interior Dirichlet data: boundary curve, exterior source x0 defining
    u(x) = log|x - x0|, interior evaluation point xstar, quadrature count n."""

    curve: CurveSpec
    x0: tuple = (2.0, 1.5)
    xstar: tuple = (0.0, 0.0)
    n: int = 64


def nystrom_system(problem: DirichletProblem):
    """Discretized (K - I/2) sigma = u_D system.

    Returns (matrix, rhs, nodes); matrix entries are kappa(t_i,t_j)/n minus
    half the identity, rhs_i = log|r(t_i) - x0|.
    """
    curve, n = problem.curve, problem.n
    if not curve.closed:
        raise ValueError("Nystrom discretization needs a closed curve")
    if n < 8:
        raise ValueError("need n >= 8 quadrature nodes")
    if winding_number(curve, problem.x0) != 0:
        raise ValueError("source point x0 must lie outside the curve")
    spec = KernelSpec(kind="laplace_dlp", curve=curve, nq=n)
    A = assemble_dense(spec, None, None, budget=max(DENSE_BUDGET_DEFAULT, n * n))
    t = spec.dlp_nodes()
    r = curve.point(t)
    x0 = np.asarray(problem.x0, dtype=float)
    rhs = np.log(np.hypot(r[:, 0] - x0[0], r[:, 1] - x0[1]))
    return A, rhs, t


def evaluate_potential(curve: CurveSpec, sigma, x) -> float:
    """Double-layer potential at an interior point from a nodal density."""
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.size
    x = np.asarray(x, dtype=float)
    if abs(winding_number(curve, x)) != 1:
        raise ValueError("evaluation point must lie strictly inside the curve")
    t = np.arange(n) / n
    r = curve.point(t)
    dr = curve.velocity(t)
    orient = curve_orientation(curve)
    nu_w = orient * np.column_stack([dr[:, 1], -dr[:, 0]])
    kx = _dlp_offdiag(x[None, :], r, nu_w)[0]
    return float(kx @ sigma / n)
