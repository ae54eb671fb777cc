"""Concrete data descriptors: initial profiles, sources, exact solutions.

A spatial profile knows how to evaluate itself pointwise (``at``), how to
average itself exactly over lattice cells, and how to report the continuum
norms the diagnostics need (sup, L^1, tail mass outside a ball,
cutoff-weighted L^1).  Every family (constant, Gaussian, Barenblatt,
Poisson kernel, indicator, step) carries closed-form cell averages.

The dataclass fields are the config keys: a data block's ``kind`` names its
class in ``PROFILES``, and a source's ``temporal`` block is a
``TimeFactor``.  A profile with a ``dim`` field takes the problem's
dimension; the others are one-dimensional.  An exact solution holds its
initial profile, and ``EXACT`` names the data kind each one starts from.

A profile can sit at more than one config location (initial data, source),
so the ``field`` of a ConfigurationError raised here names the key inside
the data block only; the caller that knows the block's path prefixes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

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
    "TimeFactor",
    "HeatGaussianExact",
    "BarenblattExact",
    "PoissonExact",
    "ShockExact",
    "PROFILES",
    "EXACT",
    "sphere_area",
]


def sphere_area(dim):
    """Surface measure of the unit sphere in R^dim (2 when dim = 1)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def _erf(x):
    """math.erf of each entry of a one-dimensional array."""
    return np.array([math.erf(v) for v in x.tolist()])


def _as_points(x, dim):
    pts = np.asarray(x, dtype=float)
    if dim == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
        pts = pts.reshape(pts.shape + (1,)) if pts.ndim else pts.reshape(1, 1)
    if pts.shape[-1] != dim:
        raise DataError(f"points have dimension {pts.shape[-1]}, profile expects {dim}")
    return pts


class SpatialProfile:
    """Base descriptor.  Subclasses give ``at`` and ``cell_averages``
    and fill in the closed-form norms they have."""

    dim = 1
    is_radial = False

    def at(self, points):
        raise NotImplementedError

    def _abs_at(self, x):
        """|f| at the point (x, 0, ..., 0), for one float x: the
        evaluation of every quadrature integrand here.  Each family gives
        it on Python floats, with the bits of ``at`` on that one point
        (numpy's exp kept) at a fraction of the cost of a 1x1 array."""
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
        from scipy import integrate

        R = weight.R
        if self.dim == 1:
            def g(x):
                return self._abs_at(x) * weight._value_at(abs(x))

            inner = integrate.quad(g, 0.5 * R, R, epsabs=1e-12, epsrel=1e-11, limit=200)[0]
            inner += integrate.quad(g, -R, -0.5 * R, epsabs=1e-12, epsrel=1e-11, limit=200)[0]
            return inner + self.abs_tail_mass(R)
        if self.is_radial:
            area = sphere_area(self.dim)

            def g(r):
                return area * r ** (self.dim - 1) * self._abs_at(r) * weight._value_at(r)

            inner = integrate.quad(g, 0.5 * R, R, epsabs=1e-12, epsrel=1e-11, limit=200)[0]
            return inner + self.abs_tail_mass(R)
        raise DataError("cutoff-weighted L1 needs a one-dimensional or radial profile")

    def _quad_window(self):
        return (-50.0, 50.0)


@dataclass(frozen=True)
class ConstantProfile(SpatialProfile):
    value: float
    dim: int = 1

    def at(self, points):
        pts = _as_points(points, self.dim)
        return np.full(pts.shape[:-1], float(self.value))

    def _abs_at(self, x):
        return abs(float(self.value))

    def cell_averages(self, grid):
        return np.full(grid.shape, float(self.value))

    def sup_norm(self):
        return abs(self.value)

    def l1_norm(self):
        return 0.0 if self.value == 0.0 else math.inf


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

    def at(self, points):
        pts = _as_points(points, self.dim)
        d2 = np.sum((pts - np.asarray(self.center)) ** 2, axis=-1)
        return self.amplitude * np.exp(-d2 / (4.0 * self.spread))

    def _abs_at(self, x):
        d2 = 0.0
        for xi, ci in zip((x,) + (0.0,) * (self.dim - 1), self.center):
            d2 += (xi - ci) * (xi - ci)
        return abs(float(self.amplitude * np.exp(-d2 / (4.0 * self.spread))))

    def cell_averages(self, grid):
        # separable: product over axes of exact one-dimensional averages
        h = grid.h
        root = 2.0 * math.sqrt(self.spread)
        out = np.full(grid.shape, float(self.amplitude))
        for i in range(grid.dim):
            x = grid.axis_coords(i) - self.center[i]
            lo = (x - 0.5 * h) / root
            hi = (x + 0.5 * h) / root
            fac = math.sqrt(math.pi) * self.spread ** 0.5 * (_erf(hi) - _erf(lo)) / h
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
            return abs(self.amplitude) * 2.0 * math.sqrt(math.pi * self.spread) * math.erfc(z)
        return super().abs_tail_mass(R)

    def _quad_window(self):
        w = 40.0 * math.sqrt(self.spread)
        c = self.center[0]
        return (c - w, c + w)


@dataclass(frozen=True)
class BarenblattProfile(SpatialProfile):
    """Self-similar source solution of u_t = (u^2)_xx in one dimension,
    evaluated at a fixed time: max(0, C t^(-1/3) - x^2/(12 t)).  C = coeff,
    None for unit mass; t = time."""

    # keyword-only so that it may default ahead of time: fields() keeps the
    # order coeff, time, which is the key order of a normalized config
    coeff: float = field(default=None, kw_only=True)
    time: float

    def __post_init__(self):
        if self.coeff is None:
            object.__setattr__(self, "coeff", self.coeff_for_unit_mass())
        if not (self.coeff > 0.0):
            raise ConfigurationError("barenblatt needs coeff > 0", field="coeff")
        if not (self.time > 0.0):
            raise ConfigurationError("barenblatt needs t > 0", field="time")

    @property
    def peak(self):
        return self.coeff * self.time ** (-1.0 / 3.0)

    @property
    def curvature(self):
        return 1.0 / (12.0 * self.time)

    @property
    def support_radius(self):
        return math.sqrt(self.peak / self.curvature)

    def at(self, points):
        pts = _as_points(points, 1)
        x = pts[..., 0]
        return np.maximum(0.0, self.peak - self.curvature * x * x)

    def _abs_at(self, x):
        return max(0.0, self.peak - self.curvature * x * x)

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

    def at(self, points):
        pts = _as_points(points, 1)
        x = pts[..., 0]
        return self.t0 / (math.pi * (x * x + self.t0 * self.t0))

    def _abs_at(self, x):
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

    def at(self, points):
        pts = _as_points(points, 1)
        x = pts[..., 0]
        return ((x >= self.lo) & (x <= self.hi)).astype(float)

    def _abs_at(self, x):
        return 1.0 if self.lo <= x <= self.hi else 0.0

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

    def at(self, points):
        pts = _as_points(points, 1)
        x = pts[..., 0]
        return np.where(x < self.position, float(self.left), float(self.right))

    def _abs_at(self, x):
        return abs(float(self.left if x < self.position else self.right))

    def cell_averages(self, grid):
        x = grid.axis_coords(0)
        clo = x - 0.5 * grid.h
        chi = x + 0.5 * grid.h
        left_len = np.clip(self.position - clo, 0.0, grid.h)
        return (self.left * left_len + self.right * (grid.h - left_len)) / grid.h

    def sup_norm(self):
        return max(abs(self.left), abs(self.right))


def _tail_abs_quad_1d(profile, R):
    from scipy import integrate

    g = profile._abs_at
    lo, hi = profile._quad_window()
    out = 0.0
    if hi > R:
        out += integrate.quad(g, R, hi, epsabs=1e-12, epsrel=1e-10, limit=200)[0]
    if lo < -R:
        out += integrate.quad(g, lo, -R, epsabs=1e-12, epsrel=1e-10, limit=200)[0]
    return out


def _tail_abs_quad_radial(profile, R):
    from scipy import integrate

    area = sphere_area(profile.dim)

    def g(r):
        return area * r ** (profile.dim - 1) * profile._abs_at(r)

    hi = max(profile._quad_window()[1], R + 1.0)
    return integrate.quad(g, R, hi, epsabs=1e-12, epsrel=1e-10, limit=200)[0]


# ---------------------------------------------------------------------------
# sources


@dataclass(frozen=True)
class TimeFactor:
    """a(t) = value for kind "constant", a(t) = slope * t for "linear"."""

    kind: str
    value: float = 1.0
    slope: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "linear"):
            raise ConfigurationError("temporal kind must be constant or linear", field="kind")

    def integral(self, t0, t1):
        if self.kind == "constant":
            return self.value * (t1 - t0)
        return 0.5 * self.slope * (t1 * t1 - t0 * t0)

    def abs_integral(self, t0, t1):
        # a(t) keeps its sign on t >= 0, the times of every run
        return abs(self.integral(t0, t1))


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
# exact solution families (for studies): each holds its initial profile


@dataclass(frozen=True)
class HeatGaussianExact:
    """u_t = u_xx started from A exp(-|x - center|^2/(4 s0))."""

    initial: GaussianProfile

    def at_time(self, t):
        g = self.initial
        s = g.spread + t
        return replace(g, amplitude=g.amplitude * (g.spread / s) ** (g.dim / 2.0), spread=s)


@dataclass(frozen=True)
class BarenblattExact:
    initial: BarenblattProfile

    def at_time(self, t):
        return replace(self.initial, time=self.initial.time + t)


@dataclass(frozen=True)
class PoissonExact:
    """Semigroup of the unit-order fractional Laplacian acting on its own
    kernel: the profile just thickens, t0 -> t0 + t."""

    initial: PoissonKernelProfile

    def at_time(self, t):
        return replace(self.initial, t0=self.initial.t0 + t)


@dataclass(frozen=True)
class ShockExact:
    """Entropy solution of the quadratic conservation law for step data
    left > right at ``position``: a single shock moving at the
    Rankine-Hugoniot speed."""

    initial: StepProfile

    @property
    def speed(self):
        return 0.5 * (self.initial.left + self.initial.right)

    def at_time(self, t):
        return replace(self.initial, position=self.initial.position + self.speed * t)


# a data block's kind -> its profile class
PROFILES = {"gaussian": GaussianProfile, "barenblatt": BarenblattProfile,
            "poisson": PoissonKernelProfile, "step": StepProfile,
            "indicator": IndicatorProfile, "constant": ConstantProfile}

# problem.exact -> the kind of initial data it starts from, and its class
EXACT = {"heat_gaussian": ("gaussian", HeatGaussianExact),
         "barenblatt": ("barenblatt", BarenblattExact),
         "poisson": ("poisson", PoissonExact),
         "shock": ("step", ShockExact)}
