"""Kernel evaluation and boundary-integral discretization.

Three kernel families: the Cauchy kernel 1/(x-y) over real or complex point
sets, Cauchy-like matrices (w_i . v_j)/(x_i - y_j), and the Laplace
double-layer kernel on smooth closed curves, discretized with the Nystrom
method on the trapezoidal rule.  All three start from one Cauchy block
C = 1/(z_s - z_t): off its diagonal the double layer is Re(C diag(v)), with
z the curve nodes and v the outward normals as complex numbers.  A curve is
a complex function z(t) with analytic first and second derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


@dataclass
class CurveSpec:
    """Parametrized planar curve t in [0, 1] -> z(t), with its analytic
    derivatives dz and ddz; all three are complex functions of t."""

    name: str
    z: object
    dz: object
    ddz: object
    closed: bool = True

    def point(self, t):
        """The points z(t) as an (m, 2) array of real coordinates."""
        z = self.z(np.atleast_1d(np.asarray(t, dtype=float)))
        return np.column_stack([z.real, z.imag])


def _make_circle():
    w = 2 * np.pi
    return CurveSpec(
        "circle",
        lambda t: np.exp(1j * w * t),
        lambda t: 1j * w * np.exp(1j * w * t),
        lambda t: -(w ** 2) * np.exp(1j * w * t))


def _make_ramhead():
    w = 2 * np.pi

    def z(t):
        u = 4 * np.pi * t
        return (2 * np.cos(w * t)
                + 1j * (1 + np.sin(w * t) - 1.4 * np.cos(u) ** 4))

    def dz(t):
        u = 4 * np.pi * t
        return (-2 * w * np.sin(w * t)
                + 1j * (w * np.cos(w * t)
                        + 22.4 * np.pi * np.cos(u) ** 3 * np.sin(u)))

    def ddz(t):
        u = 4 * np.pi * t
        cu, su = np.cos(u), np.sin(u)
        return (-2 * w ** 2 * np.cos(w * t)
                + 1j * (-w ** 2 * np.sin(w * t)
                        + 89.6 * np.pi ** 2 * (cu ** 4 - 3 * cu ** 2 * su ** 2)))

    return CurveSpec("ramhead", z, dz, ddz)


def _make_sunflower():
    w = 2 * np.pi

    def rho(t):
        return 1.3 + 1.25 * np.cos(40 * np.pi * t)

    def drho(t):
        return -50 * np.pi * np.sin(40 * np.pi * t)

    def ddrho(t):
        return -2000 * np.pi ** 2 * np.cos(40 * np.pi * t)

    return CurveSpec(
        "sunflower",
        lambda t: rho(t) * np.exp(1j * w * t),
        lambda t: (drho(t) + 1j * w * rho(t)) * np.exp(1j * w * t),
        lambda t: (ddrho(t) + 2j * w * drho(t) - w ** 2 * rho(t)) * np.exp(1j * w * t))


def _make_honeybee():
    w = 2 * np.pi
    rot = np.exp(-1j * np.pi / 6)

    def rho(t):
        return 0.5 + np.sin(4 * np.pi * t)

    def drho(t):
        return 4 * np.pi * np.cos(4 * np.pi * t)

    def ddrho(t):
        return -16 * np.pi ** 2 * np.sin(4 * np.pi * t)

    return CurveSpec(
        "honeybee",
        lambda t: rot * rho(t) * np.exp(1j * w * t),
        lambda t: rot * (drho(t) + 1j * w * rho(t)) * np.exp(1j * w * t),
        lambda t: rot * (ddrho(t) + 2j * w * drho(t) - w ** 2 * rho(t)) * np.exp(1j * w * t))


def _make_snail():
    # spiral stand-in, rescaled so the curve fits the unit box
    w = 4 * np.pi
    s = 1.0 / 1.2
    return CurveSpec(
        "snail",
        lambda t: s * (0.2 + t) * np.exp(1j * w * t),
        lambda t: s * (1 + 1j * w * (0.2 + t)) * np.exp(1j * w * t),
        lambda t: s * (2j * w - w ** 2 * (0.2 + t)) * np.exp(1j * w * t),
        closed=False)


_CURVES = {
    "circle": _make_circle,
    "ramhead": _make_ramhead,
    "sunflower": _make_sunflower,
    "honeybee": _make_honeybee,
    "snail": _make_snail,
}


def get_curve(name: str) -> CurveSpec:
    try:
        return _CURVES[name]()
    except KeyError:
        raise ValueError("unknown curve id %r (have %s)"
                         % (name, ", ".join(sorted(_CURVES)))) from None


_ORIENTATION_NODES = 2048
_WINDING_NODES = 4096


def curve_orientation(curve: CurveSpec) -> int:
    """+1 for counterclockwise parametrization, -1 for clockwise."""
    t = np.arange(_ORIENTATION_NODES) / _ORIENTATION_NODES
    z, dz = curve.z(t), curve.dz(t)
    area2 = np.mean(z.real * dz.imag - z.imag * dz.real)
    return 1 if area2 > 0 else -1


def winding_number(curve: CurveSpec, x) -> int:
    """Winding number of the curve around point x (0 means exterior)."""
    z = curve.z(np.linspace(0.0, 1.0, _WINDING_NODES + 1))
    ang = np.unwrap(np.angle(z - complex(x[0], x[1])))
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
                 identity, at n trapezoidal nodes t_j = j/n on the curve;
                 Re(v_j / (z_i - z_j)) off the diagonal, a Cauchy-like
                 matrix with one complex generator on the column side.
    """

    kind: str
    dx: float = None
    w: np.ndarray = None
    v: np.ndarray = None
    curve: CurveSpec = None
    nq: int = 0

    def __post_init__(self):
        if self.kind not in ("cauchy", "cauchy_like", "laplace_dlp"):
            raise ValueError("unknown kernel kind %r" % self.kind)
        if self.dx is not None and not (np.ndim(self.dx) == 0
                                        and np.isfinite(self.dx)):
            raise ValueError("the coincident-point value dx must be a finite "
                             "number, not %r" % (self.dx,))
        if self.kind == "cauchy_like":
            if self.w is None or self.v is None:
                raise ValueError("cauchy_like needs generator matrices w, v")
            for name in ("w", "v"):
                g = np.asarray(getattr(self, name))
                if g.dtype.kind == "c":
                    raise ValueError("cauchy_like generator %s must be real, "
                                     "got dtype %s" % (name, g.dtype))
                setattr(self, name, np.asarray(g, dtype=float))
            if (self.w.ndim != 2 or self.v.ndim != 2
                    or self.w.shape[1] != self.v.shape[1]):
                raise ValueError("generators w and v must be 2-d with one "
                                 "column count p, got shapes %s and %s"
                                 % (self.w.shape, self.v.shape))
        if self.kind == "laplace_dlp":
            if self.curve is None or not self.curve.closed:
                raise ValueError("laplace_dlp needs a smooth closed curve")
            if self.nq < 8:
                raise ValueError("laplace_dlp needs a quadrature count n >= 8")

    @cached_property
    def _dlp_data(self) -> dict:
        """The double layer's node data, computed once."""
        n = self.nq
        t = np.arange(n) / n
        z, nu = _dlp_normals(self.curve, t)
        return {"t": t, "z": z, "v": nu / (2 * np.pi * n),
                "diag": _dlp_diagonal(self.curve, t)}

    def dlp_nodes(self):
        return self._dlp_data["t"]


def _dlp_normals(curve: CurveSpec, t):
    """(z, nu): the curve points at parameters t and the outward normals
    scaled by |z'(t)|, both complex.  Off the diagonal,
    kappa(s, t) = Re(nu_t / (2 pi (z_s - z_t)))."""
    return curve.z(t), curve_orientation(curve) * (-1j * curve.dz(t))


def _dlp_diagonal(curve: CurveSpec, t):
    """kappa(t, t), the limit on the diagonal, from the curvature."""
    dz, ddz = curve.dz(t), curve.ddz(t)
    # real products: the complex conj(dz) * ddz rounds differently
    cross = dz.real * ddz.imag - dz.imag * ddz.real
    return (-curve_orientation(curve) * cross
            / (4 * np.pi * (dz.real ** 2 + dz.imag ** 2)))


def kernel_block(spec: KernelSpec, X, Y, rows, cols) -> np.ndarray:
    """Exact kernel submatrix A[rows, cols] in caller index order.

    X and Y are PointSets (ignored for laplace_dlp, whose nodes live on the
    curve); rows/cols are integer index arrays, (m,) and (n,) for one
    m x n block, or stacks (..., m) and (..., n) for the (..., m, n) stack
    of blocks A[rows[r], cols[r]], each the same bits as its own call.
    Every kind starts from the Cauchy block C = 1/(z_s - z_t): the double
    layer is Re(C diag(v)) off its diagonal.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if spec.kind == "laplace_dlp":
        data = spec._dlp_data
        zx, zy = data["z"][rows], data["z"][cols]
    else:
        zx, zy = X.scalars[rows], Y.scalars[cols]
    C = zx[..., :, None] - zy[..., None, :]
    hit = C == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(1.0, C, out=C)  # in place: one m x k buffer fewer
    if spec.kind == "cauchy":
        if np.any(hit):
            if spec.dx is None:
                raise ValueError("coincident points need a diagonal value d_x")
            C[hit] = spec.dx
        return C
    if spec.kind == "cauchy_like":
        if np.any(hit):
            raise ValueError("cauchy_like is undefined at coincident points")
        return (spec.w[rows] @ np.swapaxes(spec.v[cols], -1, -2)) * C
    # laplace_dlp: distinct nodes have distinct points
    with np.errstate(invalid="ignore"):
        C *= data["v"][cols][..., None, :]
    K = C.real.copy()
    if np.any(hit):
        K[hit] = (data["diag"][np.broadcast_to(cols[..., None, :], K.shape)[hit]]
                  / spec.nq - 0.5)
    return K


# ---------------------------------------------------------------------------
# potential evaluation
# ---------------------------------------------------------------------------


def evaluate_potential(curve: CurveSpec, sigma, x) -> float:
    """Double-layer potential at an interior point from a nodal density."""
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.size
    x = np.asarray(x, dtype=float)
    if abs(winding_number(curve, x)) != 1:
        raise ValueError("evaluation point must lie strictly inside the curve")
    z, nu = _dlp_normals(curve, np.arange(n) / n)
    kx = (nu / (2 * np.pi * (complex(x[0], x[1]) - z))).real
    return float(kx @ sigma / n)
