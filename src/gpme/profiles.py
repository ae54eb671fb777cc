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
initial profile, and ``EXACT`` names the data kind each one starts from;
``mismatch`` names the first part of a problem it does not solve.

A profile can sit at more than one config location (initial data, source),
so the ``field`` of a ConfigurationError raised here names the key inside
the data block only; the caller that knows the block's path prefixes it.
"""

from __future__ import annotations

import functools
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
    "adaptive_quad",
]


def sphere_area(dim):
    """Surface measure of the unit sphere in R^dim (2 when dim = 1)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def _erfc(x):
    """math.erfc of each entry of a one-dimensional array."""
    return np.array([math.erfc(v) for v in x.tolist()])


def _upper_gamma_q(a, x):
    """The regularized upper incomplete gamma function Q(a, x) for a
    positive integer or half-integer a: upward from
    Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)) or Gamma(1, x) = exp(-x) by
    Gamma(s + 1, x) = s Gamma(s, x) + x^s exp(-x)."""
    if a % 1.0:
        s, g = 0.5, math.sqrt(math.pi) * math.erfc(math.sqrt(x))
    else:
        s, g = 1.0, math.exp(-x)
    while s < a:
        g = s * g + x ** s * math.exp(-x)
        s += 1.0
    return g / math.gamma(a)


@functools.cache
def _gauss_kronrod_21():
    """QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (Piessens et al.,
    1983, routine QK21): its nodes in ascending order, the Kronrod
    weights, and the Kronrod weights less those of the 10-point Gauss
    rule, whose nodes are the odd-indexed ones.  Built on first call."""
    xk = np.array([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                   0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                   0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                   0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                   0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
                   0.0])
    wk = np.array([0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                   0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                   0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                   0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
                   0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                   0.149445554002916905664936468389821])
    wg = np.array([0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
                   0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
                   0.295524224714752870173892994651338])
    gauss = np.zeros(21)
    gauss[1::2] = np.concatenate([wg, wg[::-1]])
    kronrod = np.concatenate([wk[:-1], wk[::-1]])
    return np.concatenate([-xk[:-1], xk[::-1]]), kronrod, kronrod - gauss


def _qk21(f, lo, hi):
    """The 21-point Kronrod integral of f over each [lo_i, hi_i] and
    QK21's error estimate for it."""
    nodes, kronrod, diff = _gauss_kronrod_21()
    half = 0.5 * (hi - lo)
    y = f((0.5 * (lo + hi))[:, None] + half[:, None] * nodes)
    if not np.all(np.isfinite(y)):
        raise DataError(f"quadrature integrand is not finite on [{lo.min():g}, {hi.max():g}]")
    k = np.sum(y * kronrod, axis=1)
    # QK21 scales the Gauss-Kronrod difference by f's mean deviation
    dev = half * np.sum(np.abs(y - 0.5 * k[:, None]) * kronrod, axis=1)
    err = np.abs(half * np.sum(y * diff, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where((dev != 0.0) & (err != 0.0),
                       dev * np.minimum(1.0, (200.0 * err / dev) ** 1.5), err)
    floor = 50.0 * np.finfo(float).eps * half * np.sum(np.abs(y) * kronrod, axis=1)
    return half * k, np.maximum(err, floor)


def adaptive_quad(f, breaks, epsabs, epsrel, limit=200):
    """Integral of f over [breaks[0], breaks[-1]] by QUADPACK's adaptive
    Gauss-Kronrod scheme (QAG with QK21), started on the pieces between
    the ascending breakpoints and vectorized over pieces: f maps an array
    of points to the array of its values.  Each round bisects the pieces
    of largest error estimate until the rest sum to at most half the
    tolerance max(epsabs, epsrel |integral|), and the integral is returned
    once all the estimates sum to at most that tolerance.  A non-finite
    value of f, or ``limit`` pieces short of the tolerance, raises
    DataError: there is no silent result."""
    new_lo = np.asarray(breaks[:-1], dtype=float)
    new_hi = np.asarray(breaks[1:], dtype=float)
    lo = hi = val = err = np.empty(0)
    while True:
        v, e = _qk21(f, new_lo, new_hi)
        lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
        val, err = np.concatenate([val, v]), np.concatenate([err, e])
        total, err_sum = float(np.sum(val)), float(np.sum(err))
        tol = max(epsabs, epsrel * abs(total))
        if err_sum <= tol:
            return total
        if len(val) >= limit:
            raise DataError(f"quadrature on [{breaks[0]:g}, {breaks[-1]:g}] is {total!r} with "
                            f"error estimate {err_sum:.3g} > {tol:.3g} after {limit} pieces")
        order = np.argsort(-err, kind="stable")
        rest = err_sum - np.cumsum(err[order])
        n = min(int(np.searchsorted(-rest, -0.5 * tol)) + 1, limit - len(val))
        split, kept = order[:n], order[n:]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        lo, hi, val, err = lo[kept], hi[kept], val[kept], err[kept]


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
    # the points of the line where the profile jumps or has a kink
    breakpoints = ()

    def at(self, points):
        raise NotImplementedError

    # -- continuum norms ----------------------------------------------------

    def sup_norm(self):
        raise DataError(f"{type(self).__name__} does not expose a sup norm")

    def l1_norm(self):
        raise DataError(f"{type(self).__name__} does not expose an L1 norm")

    def abs_tail_mass(self, R):
        """Integral of |f| over {|x| > R}, in closed form."""
        raise DataError(f"{type(self).__name__} does not expose a tail mass")

    def check_radial_tails(self, what):
        """Raise DataError, naming ``what``, unless the profile's tails
        beyond a radius reduce to one variable: on the line, or for a
        profile radial about the origin.  Only then do ``abs_tail_mass``
        and ``weighted_abs_l1`` exist."""
        if not (self.dim == 1 or self.is_radial):
            raise DataError(f"{what} needs a one-dimensional or radial profile; "
                            f"this {type(self).__name__} in {self.dim} dimensions is not "
                            "radial about the origin")

    def weighted_abs_l1(self, weight):
        """Integral of |f(x)| * w(|x|) where w is a radial weight that
        vanishes for |x| <= R/2 and equals 1 for |x| >= R (a
        ``diagnostics.Cutoff``): the closed-form tail beyond R plus the
        band R/2 <= |x| <= R by ``adaptive_quad``, from the cutoff's
        ``band`` pieces split at the profile's breakpoints.  On the line
        the quadrature runs over [-R, R], where the weight is 0 inside
        R/2; a radial profile is read along the first axis."""
        self.check_radial_tails("cutoff-weighted L1")
        R, band = weight.R, weight.band
        if self.dim == 1:
            area, ends = 1.0, [-r for r in reversed(band)] + band
        else:
            area, ends = sphere_area(self.dim), band

        def g(r):
            pts = np.zeros(r.shape + (self.dim,))
            pts[..., 0] = r
            return (area * np.abs(r) ** (self.dim - 1) * np.abs(self.at(pts))
                    * weight.value_radial(np.abs(r)))

        breaks = sorted(set(ends) | {b for b in self.breakpoints if ends[0] < b < R})
        inner = adaptive_quad(g, breaks, epsabs=1e-12, epsrel=1e-11)
        return inner + self.abs_tail_mass(R)


@dataclass(frozen=True)
class ConstantProfile(SpatialProfile):
    value: float
    dim: int = 1
    is_radial = True

    def at(self, points):
        pts = _as_points(points, self.dim)
        return np.full(pts.shape[:-1], float(self.value))

    def cell_averages(self, grid):
        return np.full(grid.shape, float(self.value))

    def sup_norm(self):
        return abs(self.value)

    def l1_norm(self):
        return 0.0 if self.value == 0.0 else math.inf

    def abs_tail_mass(self, R):
        return self.l1_norm()


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

    def cell_averages(self, grid):
        # separable: product over axes of exact one-dimensional averages
        h = grid.h
        root = 2.0 * math.sqrt(self.spread)
        out = np.full(grid.shape, float(self.amplitude))
        for i in range(grid.dim):
            x = grid.axis_coords(i) - self.center[i]
            lo = (x - 0.5 * h) / root
            hi = (x + 0.5 * h) / root
            # erf(hi) - erf(lo) as a difference of erfc on the side of the
            # centre the cell lies: erf itself rounds to +-1 in the far tail
            right = x >= 0.0
            diff = _erfc(np.where(right, lo, -hi)) - _erfc(np.where(right, hi, -lo))
            fac = math.sqrt(math.pi) * self.spread ** 0.5 * diff / h
            shape = [1] * grid.dim
            shape[i] = len(x)
            out = out * fac.reshape(shape)
        return out

    def sup_norm(self):
        return abs(self.amplitude)

    def l1_norm(self):
        return abs(self.amplitude) * (4.0 * math.pi * self.spread) ** (self.dim / 2.0)

    def abs_tail_mass(self, R):
        # on the line, one erfc per side; in the plane and above, radial
        # about the origin, the l1 norm times Q(N/2, R^2/(4 s))
        self.check_radial_tails("tail mass")
        if self.dim == 1:
            root, c = 2.0 * math.sqrt(self.spread), self.center[0]
            return abs(self.amplitude) * math.sqrt(math.pi * self.spread) * (
                math.erfc((R - c) / root) + math.erfc((R + c) / root))
        return self.l1_norm() * _upper_gamma_q(0.5 * self.dim, R * R / (4.0 * self.spread))


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

    @property
    def breakpoints(self):
        return (-self.support_radius, self.support_radius)

    def at(self, points):
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

    def at(self, points):
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

    def at(self, points):
        pts = _as_points(points, 1)
        x = pts[..., 0]
        return ((x >= self.lo) & (x <= self.hi)).astype(float)

    @property
    def breakpoints(self):
        return (self.lo, self.hi)

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

    @property
    def breakpoints(self):
        return (self.position,)

    def cell_averages(self, grid):
        x = grid.axis_coords(0)
        clo = x - 0.5 * grid.h
        chi = x + 0.5 * grid.h
        left_len = np.clip(self.position - clo, 0.0, grid.h)
        return (self.left * left_len + self.right * (grid.h - left_len)) / grid.h

    def sup_norm(self):
        return max(abs(self.left), abs(self.right))

    def abs_tail_mass(self, R):
        # not integrable unless both states are zero
        return 0.0 if self.left == 0.0 and self.right == 0.0 else math.inf


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
        """The spatial cell averages, and for each step j = 1..J the mean
        of the temporal factor over it, integral / dt: step j's space-time
        average of g is their product."""
        knots = time_grid.knots
        factors = [self.temporal.integral(knots[j], knots[j + 1]) / (knots[j + 1] - knots[j])
                   for j in range(time_grid.n_steps)]
        return self.spatial.cell_averages(grid), factors

    def l1l1_norm(self, T):
        return self.spatial.l1_norm() * self.temporal.abs_integral(0.0, T)

    def l1linf_norm(self, T):
        return self.spatial.sup_norm() * self.temporal.abs_integral(0.0, T)

    def weighted_l1l1(self, weight, T):
        return self.spatial.weighted_abs_l1(weight) * self.temporal.abs_integral(0.0, T)


# ---------------------------------------------------------------------------
# exact solution families (for studies): each holds its initial profile


class _ClosedForm:
    """An exact solution family.  ``requires`` maps dotted attribute paths
    of an ``evolution.ProblemSpec`` to the value the closed form needs
    there, in the order they are checked; a path through None reads
    None."""

    requires = {}

    @classmethod
    def mismatch(cls, problem):
        """The first requirement that problem does not meet, written out,
        or None when the closed form solves it."""
        for path, want in cls.requires.items():
            value = problem
            for name in path.split("."):
                value = getattr(value, name, None)
            if value != want:
                return f"problem.{path} = {want!r}"
        return None


# c = 1 without a measure, no convection and no source
_LOCAL = {"operator.c": 1, "operator.measure.kind": None, "flux.kind": None, "source": None}


@dataclass(frozen=True)
class HeatGaussianExact(_ClosedForm):
    """u_t = u_xx started from A exp(-|x - center|^2/(4 s0))."""

    requires = {**_LOCAL, "phi.kind": "linear", "phi.slope": 1.0}
    initial: GaussianProfile

    def at_time(self, t):
        g = self.initial
        s = g.spread + t
        return replace(g, amplitude=g.amplitude * (g.spread / s) ** (g.dim / 2.0), spread=s)


@dataclass(frozen=True)
class BarenblattExact(_ClosedForm):
    requires = {**_LOCAL, "phi.kind": "power", "phi.exponent": 2.0}
    initial: BarenblattProfile

    def at_time(self, t):
        return replace(self.initial, time=self.initial.time + t)


@dataclass(frozen=True)
class PoissonExact(_ClosedForm):
    """Semigroup of the unit-order fractional Laplacian acting on its own
    kernel: the profile just thickens, t0 -> t0 + t."""

    requires = {"operator.c": 0, "operator.measure.kind": "fractional",
                "operator.measure.alpha": 1.0, "operator.measure.scale": 1.0 / math.pi,
                "operator.measure.truncation": None, "phi.kind": "linear", "phi.slope": 1.0,
                "flux.kind": None, "source": None}
    initial: PoissonKernelProfile

    def at_time(self, t):
        return replace(self.initial, t0=self.initial.t0 + t)


@dataclass(frozen=True)
class ShockExact(_ClosedForm):
    """Entropy solution of the quadratic conservation law for step data
    left > right at ``position``: a single shock moving at the
    Rankine-Hugoniot speed."""

    requires = {"phi.kind": "zero", "flux.kind": "burgers", "source": None}
    initial: StepProfile

    @classmethod
    def mismatch(cls, problem):
        need = super().mismatch(problem)
        if need is None and not problem.initial.left > problem.initial.right:
            need = "problem.initial.left > problem.initial.right"
        return need

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
