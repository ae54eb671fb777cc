"""Concrete data descriptors: initial profiles, sources, exact solutions.

A spatial profile knows how to evaluate itself pointwise, how to average
itself exactly over lattice cells, and how to report the continuum norms the
diagnostics need (sup, L^1, tail mass outside a ball, cutoff-weighted L^1).
Every family (constant, Gaussian, Barenblatt, Poisson kernel, indicator,
step) carries closed-form cell averages.

A profile can sit at more than one config location (initial data, source),
so the ``field`` of a ConfigurationError raised here names the key inside
the data block only; the caller that knows the block's path prefixes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import erf, gamma

from .errors import ConfigurationError, DataError

__all__ = [
    "SpatialProfile",
    "ConstantProfile",
    "GaussianProfile",
    "BarenblattProfile",
    "PoissonKernelProfile",
    "IndicatorProfile",
    "StepProfile",
    "SeparableSource",
    "ConstantInTime",
    "LinearInTime",
    "HeatGaussianExact",
    "BarenblattExact",
    "PoissonExact",
    "ShockExact",
    "sphere_area",
]


def sphere_area(dim):
    """Surface measure of the unit sphere in R^dim (2 when dim = 1)."""
    return 2.0 * math.pi ** (dim / 2.0) / gamma(dim / 2.0)


def _as_points(x, dim):
    pts = np.asarray(x, dtype=float)
    if dim == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
        pts = pts.reshape(pts.shape + (1,)) if pts.ndim else pts.reshape(1, 1)
    if pts.shape[-1] != dim:
        raise DataError(f"points have dimension {pts.shape[-1]}, profile expects {dim}")
    return pts


class SpatialProfile:
    """Base descriptor.  Subclasses give ``value`` and ``cell_averages``
    and fill in the closed-form norms they have."""

    dim = 1
    is_radial = False

    def value(self, points):
        raise NotImplementedError

    # -- continuum norms ----------------------------------------------------

    def sup_norm(self):
        raise DataError(f"{type(self).__name__} does not expose a sup norm")

    def l1_norm(self):
        raise DataError(f"{type(self).__name__} does not expose an L1 norm")

    def abs_tail_mass(self, R):
        """Integral of |f| over {|x| > R}."""
        if self.dim == 1:
            return _tail_abs_quad_1d(self, R)
        if self.is_radial:
            return _tail_abs_quad_radial(self, R)
        raise DataError("tail mass needs a one-dimensional or radial profile")

    def weighted_abs_l1(self, weight):
        """Integral of |f(x)| * w(|x|) where w is a radial weight that
        vanishes for |x| <= R/2 and equals 1 for |x| >= R (a
        ``diagnostics.Cutoff``, read one float radius at a time)."""
        R = weight.R
        if self.dim == 1:
            def g(x):
                return abs(float(self.value(np.array([[x]]))[0])) * weight._value_at(abs(x))

            inner = integrate.quad(g, 0.5 * R, R, epsabs=1e-12, epsrel=1e-11, limit=200)[0]
            inner += integrate.quad(g, -R, -0.5 * R, epsabs=1e-12, epsrel=1e-11, limit=200)[0]
            return inner + self.abs_tail_mass(R)
        if self.is_radial:
            area = sphere_area(self.dim)

            def g(r):
                v = abs(float(self.value(np.array([[r] + [0.0] * (self.dim - 1)]))[0]))
                return area * r ** (self.dim - 1) * v * weight._value_at(r)

            inner = integrate.quad(g, 0.5 * R, R, epsabs=1e-12, epsrel=1e-11, limit=200)[0]
            return inner + self.abs_tail_mass(R)
        raise DataError("cutoff-weighted L1 needs a one-dimensional or radial profile")

    def _quad_window(self):
        return (-50.0, 50.0)


@dataclass(frozen=True)
class ConstantProfile(SpatialProfile):
    c: float
    dim: int = 1

    def value(self, points):
        pts = _as_points(points, self.dim)
        return np.full(pts.shape[:-1], float(self.c))

    def cell_averages(self, grid):
        return np.full(grid.shape, float(self.c))

    def sup_norm(self):
        return abs(self.c)

    def l1_norm(self):
        return 0.0 if self.c == 0.0 else math.inf


@dataclass(frozen=True)
class GaussianProfile(SpatialProfile):
    """A * exp(-|x - center|^2 / (4 s))."""

    amplitude: float
    spread: float
    center: tuple = None
    dim: int = 1

    def __post_init__(self):
        if not (self.spread > 0.0):
            raise ConfigurationError("gaussian spread must be positive", field="spread")
        if self.center is None:
            c = np.zeros(self.dim)
        else:
            c = np.atleast_1d(np.asarray(self.center, dtype=float))
            if len(c) != self.dim:
                raise ConfigurationError(
                    f"gaussian center has {len(c)} coordinates, dim is {self.dim}",
                    field="center")
        object.__setattr__(self, "center", tuple(c))

    @property
    def is_radial(self):
        return all(ci == 0.0 for ci in self.center)

    def value(self, points):
        pts = _as_points(points, self.dim)
        d2 = np.sum((pts - np.asarray(self.center)) ** 2, axis=-1)
        return self.amplitude * np.exp(-d2 / (4.0 * self.spread))

    def cell_averages(self, grid):
        # separable: product over axes of exact one-dimensional averages
        h = grid.h
        root = 2.0 * math.sqrt(self.spread)
        out = np.full(grid.shape, float(self.amplitude))
        for i in range(grid.dim):
            x = grid.axis_coords(i) - self.center[i]
            lo = (x - 0.5 * h) / root
            hi = (x + 0.5 * h) / root
            fac = math.sqrt(math.pi) * self.spread ** 0.5 * (erf(hi) - erf(lo)) / h
            shape = [1] * grid.dim
            shape[i] = len(x)
            out = out * fac.reshape(shape)
        return out

    def sup_norm(self):
        return abs(self.amplitude)

    def l1_norm(self):
        return abs(self.amplitude) * (4.0 * math.pi * self.spread) ** (self.dim / 2.0)

    def abs_tail_mass(self, R):
        if self.dim == 1 and self.is_radial:
            z = R / (2.0 * math.sqrt(self.spread))
            return abs(self.amplitude) * 2.0 * math.sqrt(math.pi * self.spread) * float(
                1.0 - erf(z)
            )
        return super().abs_tail_mass(R)

    def _quad_window(self):
        w = 40.0 * math.sqrt(self.spread)
        c = self.center[0]
        return (c - w, c + w)


@dataclass(frozen=True)
class BarenblattProfile(SpatialProfile):
    """Self-similar source solution of u_t = (u^2)_xx in one dimension,
    evaluated at a fixed time: max(0, C t^(-1/3) - x^2/(12 t))."""

    coeff: float
    t: float

    def __post_init__(self):
        if not (self.coeff > 0.0):
            raise ConfigurationError("barenblatt needs coeff > 0", field="coeff")
        if not (self.t > 0.0):
            raise ConfigurationError("barenblatt needs t > 0", field="time")

    @property
    def peak(self):
        return self.coeff * self.t ** (-1.0 / 3.0)

    @property
    def curvature(self):
        return 1.0 / (12.0 * self.t)

    @property
    def support_radius(self):
        return math.sqrt(self.peak / self.curvature)

    def value(self, points):
        pts = _as_points(points, 1)
        x = pts[..., 0]
        return np.maximum(0.0, self.peak - self.curvature * x * x)

    def cell_averages(self, grid):
        a, b, xs = self.peak, self.curvature, self.support_radius

        def anti(x):
            x = np.clip(x, -xs, xs)
            return a * x - b * x ** 3 / 3.0

        x = grid.axis_coords(0)
        lo = x - 0.5 * grid.h
        hi = x + 0.5 * grid.h
        return (anti(hi) - anti(lo)) / grid.h

    def sup_norm(self):
        return self.peak

    def l1_norm(self):
        # 2 * integral_0^xs (a - b x^2) dx = (4/3) a xs
        return (4.0 / 3.0) * self.peak * self.support_radius

    def abs_tail_mass(self, R):
        xs = self.support_radius
        if R >= xs:
            return 0.0
        a, b = self.peak, self.curvature
        return 2.0 * (a * (xs - R) - b * (xs ** 3 - R ** 3) / 3.0)

    @staticmethod
    def coeff_for_unit_mass():
        """coeff such that the profile mass is exactly one at every time."""
        return (3.0 / (4.0 * math.sqrt(12.0))) ** (2.0 / 3.0)


@dataclass(frozen=True)
class PoissonKernelProfile(SpatialProfile):
    """t0 / (pi (x^2 + t0^2)) on the line; unit mass, fat algebraic tails."""

    t0: float

    def __post_init__(self):
        if not (self.t0 > 0.0):
            raise ConfigurationError("poisson kernel needs t0 > 0", field="t0")

    def value(self, points):
        pts = _as_points(points, 1)
        x = pts[..., 0]
        return self.t0 / (math.pi * (x * x + self.t0 * self.t0))

    def cell_averages(self, grid):
        x = grid.axis_coords(0)
        lo = x - 0.5 * grid.h
        hi = x + 0.5 * grid.h
        return (np.arctan(hi / self.t0) - np.arctan(lo / self.t0)) / (math.pi * grid.h)

    def sup_norm(self):
        return 1.0 / (math.pi * self.t0)

    def l1_norm(self):
        return 1.0

    def abs_tail_mass(self, R):
        return 1.0 - (2.0 / math.pi) * math.atan(R / self.t0)


@dataclass(frozen=True)
class IndicatorProfile(SpatialProfile):
    """Indicator of the interval [lo, hi] (height 1)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.hi > self.lo):
            raise ConfigurationError("indicator needs hi > lo", field="hi")

    def value(self, points):
        pts = _as_points(points, 1)
        x = pts[..., 0]
        return ((x >= self.lo) & (x <= self.hi)).astype(float)

    def cell_averages(self, grid):
        x = grid.axis_coords(0)
        clo = x - 0.5 * grid.h
        chi = x + 0.5 * grid.h
        overlap = np.maximum(0.0, np.minimum(chi, self.hi) - np.maximum(clo, self.lo))
        return overlap / grid.h

    def sup_norm(self):
        return 1.0

    def l1_norm(self):
        return self.hi - self.lo

    def abs_tail_mass(self, R):
        # portion of [lo, hi] outside [-R, R]
        left = max(0.0, min(self.hi, -R) - self.lo)
        right = max(0.0, self.hi - max(self.lo, R))
        return left + right


@dataclass(frozen=True)
class StepProfile(SpatialProfile):
    """Piecewise constant: ``left`` for x < position, ``right`` for
    x >= position."""

    left: float
    right: float
    position: float = 0.0

    def value(self, points):
        pts = _as_points(points, 1)
        x = pts[..., 0]
        return np.where(x < self.position, float(self.left), float(self.right))

    def cell_averages(self, grid):
        x = grid.axis_coords(0)
        clo = x - 0.5 * grid.h
        chi = x + 0.5 * grid.h
        left_len = np.clip(self.position - clo, 0.0, grid.h)
        return (self.left * left_len + self.right * (grid.h - left_len)) / grid.h

    def sup_norm(self):
        return max(abs(self.left), abs(self.right))


def _tail_abs_quad_1d(profile, R):
    def g(x):
        return abs(float(profile.value(np.array([[x]]))[0]))

    lo, hi = profile._quad_window()
    out = 0.0
    if hi > R:
        out += integrate.quad(g, R, hi, epsabs=1e-12, epsrel=1e-10, limit=200)[0]
    if lo < -R:
        out += integrate.quad(g, lo, -R, epsabs=1e-12, epsrel=1e-10, limit=200)[0]
    return out


def _tail_abs_quad_radial(profile, R):
    area = sphere_area(profile.dim)

    def g(r):
        point = np.zeros((1, profile.dim))
        point[0, 0] = r
        return area * r ** (profile.dim - 1) * abs(float(profile.value(point)[0]))

    hi = max(profile._quad_window()[1], R + 1.0)
    return integrate.quad(g, R, hi, epsabs=1e-12, epsrel=1e-10, limit=200)[0]


# ---------------------------------------------------------------------------
# sources


class ConstantInTime:
    def __init__(self, c=1.0):
        self.c = float(c)

    def integral(self, t0, t1):
        return self.c * (t1 - t0)

    def abs_integral(self, t0, t1):
        return abs(self.c) * (t1 - t0)


class LinearInTime:
    """a(t) = slope * t."""

    def __init__(self, slope=1.0):
        self.slope = float(slope)

    def integral(self, t0, t1):
        return 0.5 * self.slope * (t1 * t1 - t0 * t0)

    def abs_integral(self, t0, t1):
        # t >= 0 along every run
        return abs(0.5 * self.slope) * (t1 * t1 - t0 * t0)


class SeparableSource:
    """g(x, t) = spatial(x) * temporal(t)."""

    def __init__(self, spatial, temporal):
        self.spatial = spatial
        self.temporal = temporal

    def project(self, grid, time_grid):
        avgs = self.spatial.cell_averages(grid)
        out = []
        knots = time_grid.knots
        for j in range(time_grid.n_steps):
            dt = knots[j + 1] - knots[j]
            out.append(avgs * (self.temporal.integral(knots[j], knots[j + 1]) / dt))
        return out

    def l1l1_norm(self, T):
        return self.spatial.l1_norm() * self.temporal.abs_integral(0.0, T)

    def l1linf_norm(self, T):
        return self.spatial.sup_norm() * self.temporal.abs_integral(0.0, T)

    def weighted_l1l1(self, weight, T):
        return self.spatial.weighted_abs_l1(weight) * self.temporal.abs_integral(0.0, T)


# ---------------------------------------------------------------------------
# exact solution families (for studies)


@dataclass(frozen=True)
class HeatGaussianExact:
    """u_t = u_xx started from A exp(-|x - center|^2/(4 s0))."""

    amplitude: float
    spread: float
    center: tuple
    dim: int = 1

    def initial(self):
        return GaussianProfile(self.amplitude, self.spread, self.center, self.dim)

    def at_time(self, t):
        s = self.spread + t
        amp = self.amplitude * (self.spread / s) ** (self.dim / 2.0)
        return GaussianProfile(amp, s, self.center, self.dim)


@dataclass(frozen=True)
class BarenblattExact:
    coeff: float
    t_ref: float

    def initial(self):
        return BarenblattProfile(self.coeff, self.t_ref)

    def at_time(self, t):
        return BarenblattProfile(self.coeff, self.t_ref + t)


@dataclass(frozen=True)
class PoissonExact:
    """Semigroup of the unit-order fractional Laplacian acting on its own
    kernel: the profile just thickens, t0 -> t0 + t."""

    t0: float

    def initial(self):
        return PoissonKernelProfile(self.t0)

    def at_time(self, t):
        return PoissonKernelProfile(self.t0 + t)


@dataclass(frozen=True)
class ShockExact:
    """Entropy solution of the quadratic conservation law for step data
    left > right at ``position``: a single shock moving at the
    Rankine-Hugoniot speed."""

    left: float
    right: float
    position: float

    @property
    def speed(self):
        return 0.5 * (self.left + self.right)

    def initial(self):
        return StepProfile(self.left, self.right, self.position)

    def at_time(self, t):
        return StepProfile(self.left, self.right, self.position + self.speed * t)
