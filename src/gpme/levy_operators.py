"""Discrete diffusion operators: the lattice Laplacian and weighted
difference quadratures of symmetric jump measures.

A stencil is a finite symmetric family of lattice offsets z_gamma = h*gamma
with nonnegative weights, and it holds the whole discrete operator:

    L[psi](x) = sum_gamma (psi(x + z_gamma) - psi(x)) * w_gamma.

The Laplacian is the weights 1/h^2 at the 2N nearest neighbors.
``combine_with_laplacian`` adds them to a measure stencil for c = 1, and
it is the one place below the config that reads c:
``OperatorSpec.build_stencil`` returns its result, the whole operator,
and everything past it takes that one stencil.  On a grid the stencil is
stored, applied and solved by one object, ``elliptic_solver._Resolvent``;
only ``elliptic_solver.apply_stencil`` and ``elliptic_solver.solve_ep``
still take the pair (stencil, c) and merge it on entry: the benchmark's
tracer binds both arguments by name to count a call's offsets.
Weights for a jump measure are the measure of each lattice cell, so the
total mass on any region is preserved by construction; the origin cell is
excluded.

``measure_stencil`` builds them by one path in every dimension.  The
measures are radial, so a cell and its images under the lattice's
reflections and axis permutations have one mass: each symmetry class,
represented by sorted(|gamma|) and found by one int64 key per offset, is
weighed once.  The rule per class is midpoint density times h^N for
``weight_rule = midpoint_density``, the closed form for fractional and
split measures on the line (one libm power per cell edge, each weight the
difference of its two edges' powers), and tensor Gauss-Legendre (20 nodes
on the line, 8 per axis above) otherwise; a custom density must also pass
a half-cell refinement check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, StencilError
from .grid_field import _csv_rows, _int_labels
from .profiles import sphere_area

__all__ = [
    "MeasureSpec",
    "WeightedStencil",
    "OperatorSpec",
    "MomentReport",
    "measure_stencil",
    "combine_with_laplacian",
    "check_moments",
    "testfunction_moment_bound",
    "write_stencil_csv",
]


@dataclass(frozen=True)
class MeasureSpec:
    """Radial jump measure on R^N minus the origin.

    kind:
      * ``fractional``: density |z|^(-(N+alpha)), alpha in (0, 2)
      * ``split``: |z|^(-(N+beta)) for 0 < |z| <= 1 and |z|^(-(N+alpha))
        for |z| > 1
      * ``custom``: user radial density rho(r) >= 0

    ``scale`` multiplies the density (e.g. 1/pi turns the pure unit-order
    power on the line into the generator of the Cauchy semigroup).
    ``truncation`` chops the measure beyond a radius.  ``weight_rule`` picks
    cell-mass quadrature (default) or midpoint density times h^N.
    """

    kind: str
    alpha: float = None
    beta: float = None
    density: object = None
    scale: float = 1.0
    truncation: float = None
    weight_rule: str = "cell_mass"

    def __post_init__(self):
        path = "problem.operator.measure"
        if self.kind not in ("fractional", "split", "custom"):
            raise ConfigurationError(f"unknown measure kind {self.kind!r}; expected "
                                     "fractional, split, or custom", field=f"{path}.kind")
        # alpha also sets the moment bound of a custom measure when given
        if self.kind in ("fractional", "split") or self.alpha is not None:
            if self.alpha is None or not (0.0 < self.alpha < 2.0):
                raise ConfigurationError("alpha must lie in (0, 2)", field=f"{path}.alpha")
        if self.kind == "split" and (self.beta is None or not (0.0 < self.beta < 2.0)):
            raise ConfigurationError("beta must lie in (0, 2)", field=f"{path}.beta")
        if self.kind == "custom" and not callable(self.density):
            raise ConfigurationError("custom measure needs a radial density callable",
                                     field=f"{path}.form")
        if self.weight_rule not in ("cell_mass", "midpoint_density"):
            raise ConfigurationError("weight_rule must be cell_mass or midpoint_density",
                                     field=f"{path}.weight_rule")
        if not (self.scale > 0.0):
            raise ConfigurationError("measure scale must be positive", field=f"{path}.scale")
        if self.truncation is not None and not (self.truncation > 0.0):
            raise ConfigurationError("measure truncation must be positive",
                                     field=f"{path}.truncation")

    def radial_density(self, r, dim):
        """Density value at radius r (> 0) in dimension dim."""
        r = np.asarray(r, dtype=float)
        if self.kind == "fractional":
            out = self.scale * r ** (-(1.0 * dim + self.alpha))
        elif self.kind == "split":
            near = r ** (-(dim + self.beta))
            far = r ** (-(dim + self.alpha))
            out = self.scale * np.where(r <= 1.0, near, far)
        else:
            out = self.scale * np.asarray(self.density(r), dtype=float)
        if self.truncation is not None:
            out = np.where(r > self.truncation, 0.0, out)
        return out

    def mass_beyond(self, R, dim):
        """Measure of {|z| > R}; closed form for the power densities,
        quadrature of a custom density's user callable."""
        if self.truncation is not None and R >= self.truncation:
            return 0.0
        hi = self.truncation if self.truncation is not None else math.inf
        area = sphere_area(dim)
        if self.kind in ("fractional", "split") and R >= 1.0 or (
            self.kind == "fractional" and R > 0.0
        ):
            a = self.alpha
            top = 0.0 if hi == math.inf else hi ** (-a) / a
            return self.scale * area * (R ** (-a) / a - top)
        if self.kind == "split" and R > 0.0:
            # the beta power up to min(1, hi), then the alpha power to hi
            a, b = self.alpha, self.beta
            out = (R ** (-b) - min(1.0, hi) ** (-b)) / b
            if hi > 1.0:
                out += (1.0 - (0.0 if hi == math.inf else hi ** (-a))) / a
            return self.scale * area * out

        from scipy import integrate

        def g(r):
            return area * r ** (dim - 1) * float(self.radial_density(r, dim))

        val, _ = integrate.quad(g, R, hi, epsabs=1e-13, epsrel=1e-11, limit=200)
        if not np.isfinite(val):
            raise StencilError("tail mass quadrature did not converge")
        return val


@dataclass(frozen=True)
class WeightedStencil:
    """Symmetric nonnegative lattice weights at nonzero offsets."""

    h: float
    dim: int
    offsets: np.ndarray  # (n, N) integers
    weights: np.ndarray  # (n,)
    tail_mass_beyond_support: float = 0.0

    def __post_init__(self):
        off = np.asarray(self.offsets, dtype=int).reshape(-1, self.dim)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if off.shape[0] != w.shape[0]:
            raise StencilError("offset/weight count mismatch")
        if np.any(~np.isfinite(w)):
            bad = off[np.where(~np.isfinite(w))[0][0]]
            raise StencilError(f"non-finite weight at offset {tuple(bad)}", cell=tuple(bad))
        if np.any(w < 0.0):
            bad = off[np.where(w < 0.0)[0][0]]
            raise StencilError(f"negative weight at offset {tuple(bad)}", cell=tuple(bad))
        if off.shape[0] and np.any(np.all(off == 0, axis=1)):
            raise StencilError("origin offset is not allowed")
        # canonical lexicographic order for deterministic serialization
        order = np.lexsort(tuple(off[:, i] for i in reversed(range(self.dim))))
        off = off[order]
        w = w[order]
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "weights", w)
        off.flags.writeable = False
        w.flags.writeable = False
        # symmetry: the mirrored family must be identical
        mirrored = -off
        morder = np.lexsort(tuple(mirrored[:, i] for i in reversed(range(self.dim))))
        if not np.array_equal(mirrored[morder], off) or not np.array_equal(w[morder], w):
            raise StencilError("stencil weights are not symmetric under reflection")

    @property
    def n_offsets(self):
        return self.offsets.shape[0]

    @property
    def total_weight(self):
        return float(np.sum(self.weights))

    def offset_radii(self):
        """Euclidean |z_gamma| per offset."""
        return self.h * np.sqrt(np.sum(self.offsets.astype(float) ** 2, axis=1))

    @classmethod
    def empty(cls, h, dim):
        return cls(h=h, dim=dim, offsets=np.zeros((0, dim), dtype=int),
                   weights=np.zeros(0))


def _power_masses(edges, a):
    """Mass of each interval [edges[k], edges[k + 1]] (positive,
    nondecreasing edges) under the density s^(-1-a), whose antiderivative
    is -s^(-a)/a.  Each edge's power is one libm ``pow`` on a Python
    float; numpy's array power may round otherwise."""
    power = np.array([e ** -a for e in edges.tolist()])
    return (power[:-1] - power[1:]) / a


def _cell_masses_1d_power(measure, edges):
    """Exact masses of the cells between consecutive edges under a pure or
    split power density on the line.  Clipped to the truncation, a cell
    beyond it spans a point and weighs 0; a split measure's two halves are
    the edges clipped to 1 from above and from below."""
    if measure.truncation is not None:
        edges = np.minimum(edges, measure.truncation)
    if measure.kind == "fractional":
        return measure.scale * _power_masses(edges, measure.alpha)
    below = _power_masses(np.minimum(edges, 1.0), measure.beta)
    above = _power_masses(np.maximum(edges, 1.0), measure.alpha)
    return measure.scale * (below + above)


def _gl_cell_masses(measure, centers, half):
    """Tensor Gauss-Legendre masses of the cells centers + [-half, half]^N,
    one per row of centers; a well-posed density is bounded on every
    non-origin cell, so a fixed order suffices."""
    dim = centers.shape[1]
    nodes, wts = np.polynomial.legendre.leggauss(20 if dim == 1 else 8)
    unit = np.array(list(itertools.product(nodes, repeat=dim)))
    weight = np.prod(list(itertools.product(wts, repeat=dim)), axis=1)
    pts = centers[:, None, :] + half * unit
    vals = measure.radial_density(np.sqrt(np.sum(pts ** 2, axis=-1)), dim)
    return half ** dim * np.sum(vals * weight, axis=-1)


def _class_weights(measure, classes, h):
    """Cell mass per class representative (a row of sorted |gamma|), by the
    rule the module docstring gives.  Non-finite weights are left to
    WeightedStencil."""
    dim = classes.shape[1]
    centers = classes * h
    if measure.weight_rule == "midpoint_density":
        return measure.radial_density(np.sqrt(np.sum(centers ** 2, axis=1)), dim) * h ** dim
    if dim == 1 and measure.kind in ("fractional", "split"):
        # one libm power per cell edge k = (k - 0.5) h, k = 1..K+1; class g
        # spans edges g and g + 1
        g = classes[:, 0]
        edges = (np.arange(1, int(g[-1]) + 2) - 0.5) * h
        return _cell_masses_1d_power(measure, edges)[g - 1]
    coarse = _gl_cell_masses(measure, centers, 0.5 * h)
    if measure.kind != "custom":
        return coarse
    # a pole inside a cell makes the 2^N sub-cell estimate disagree with
    # the whole-cell one, which a single quadrature cannot see
    quarter = 0.25 * h
    fine = sum(_gl_cell_masses(measure, centers + quarter * np.array(signs), quarter)
               for signs in itertools.product((-1.0, 1.0), repeat=dim))
    bad = ~np.isfinite(fine) | (np.abs(fine - coarse) > 1e-6 * (1.0 + np.abs(fine)))
    if np.any(bad):
        cell = tuple(int(g) for g in classes[np.argmax(bad)])
        raise StencilError("density not integrable on the cell at "
                           f"{tuple(float(g * h) for g in cell)}", cell=cell)
    return fine


def _support_index(measure, grid, support_radius):
    """The support radius the measure stencil covers (default: the box
    diameter, capped by a truncation) and K, the largest index it reaches;
    a radius below h/2 leaves no offsets and is rejected."""
    if support_radius is None:
        support_radius = 2.0 * max(grid.half_extents)
    if measure.truncation is not None:
        support_radius = min(support_radius, measure.truncation + 0.5 * grid.h)
    kmax = int(np.floor(support_radius / grid.h + 0.5 + 1e-12))
    if kmax < 1:
        raise ConfigurationError("support radius leaves no offsets",
                                 field="problem.operator.support_radius")
    return support_radius, kmax


def measure_stencil(measure, grid, support_radius=None):
    """Weights omega_gamma = mu(z_gamma + cell) for all offsets with
    0 < |z_gamma| <= support_radius (default: the box diameter).

    One path for every dimension: each class of offsets with the same
    sorted(|gamma|) is weighed once, by the rule per measure that the
    module docstring gives, and its weight gathered back to the class, so
    the weights are exactly symmetric.  A class is one value of the int64
    key sum_i c_i (K+1)^(N-1-i) of the sorted row c = sorted(|gamma|):
    the first column is the most significant, so the keys sort as the rows
    do lexicographically.  The mass beyond the covered region is recorded
    in ``tail_mass_beyond_support`` so moment checks can add the analytic
    remainder instead of silently dropping it.
    """
    h = grid.h
    dim = grid.dim
    support_radius, kmax = _support_index(measure, grid, support_radius)
    offsets = np.indices((2 * kmax + 1,) * dim).reshape(dim, -1).T - kmax
    radii = h * np.sqrt(np.sum(offsets.astype(float) ** 2, axis=1))
    offsets = offsets[(radii > 0.0) & (radii <= support_radius + 1e-12)]
    folded = np.sort(np.abs(offsets), axis=1)
    assert (kmax + 1) ** dim <= np.iinfo(np.int64).max
    key = folded[:, 0]
    for column in folded[:, 1:].T:
        key = key * (kmax + 1) + column
    _, first, members = np.unique(key, return_index=True, return_inverse=True)
    weights = _class_weights(measure, folded[first], h)[members]
    # on the line the covered cells tile [-edge, edge] exactly
    edge = float(np.max(offsets, initial=0) + 0.5) * h if dim == 1 else support_radius
    return WeightedStencil(h=h, dim=dim, offsets=offsets, weights=weights,
                           tail_mass_beyond_support=float(measure.mass_beyond(edge, dim)))


def combine_with_laplacian(stencil, c):
    """The operator c * Laplacian + stencil as one stencil: for c = 1,
    1/h^2 added at the 2N nearest neighbors, appended where the stencil
    has no weight; for c = 0, the stencil itself.  Any other c is
    rejected."""
    if c not in (0, 1):
        raise ConfigurationError("local factor c must be 0 or 1", field="operator.c")
    if c == 0:
        return stencil
    inv_h2 = 1.0 / stencil.h ** 2
    dim = stencil.dim
    units = np.vstack([np.eye(dim, dtype=int), -np.eye(dim, dtype=int)])
    weights = stencil.weights.copy()
    rows = np.flatnonzero(np.sum(np.abs(stencil.offsets), axis=1) == 1)
    weights[rows] += inv_h2
    # +e_i is row i of units and -e_i row N + i
    axis = np.argmax(np.abs(stencil.offsets[rows]), axis=1)
    missing = np.ones(2 * dim, dtype=bool)
    missing[axis + dim * (stencil.offsets[rows, axis] < 0)] = False
    return WeightedStencil(h=stencil.h, dim=dim,
                           offsets=np.concatenate([stencil.offsets, units[missing]]),
                           weights=np.concatenate([weights, np.full(np.sum(missing), inv_h2)]),
                           tail_mass_beyond_support=stencil.tail_mass_beyond_support)


# ---------------------------------------------------------------------------
# moment checks


@dataclass(frozen=True)
class MomentReport:
    """Finite moment sums of a stencil.

    near_second_moment : sum over h <= |z| <= 1 of |z|^2 w
    far_mass           : sum over |z| > 1 of w
    far_first_moment   : sum over |z| > 1 of |z| w
    a_pp_values        : per R, R^(alpha-2) * sum_{1<|z|<=R} |z|^2 w
                         + R^alpha * sum_{|z|>R} w  (analytic remainder of a
                         truncated measure included in the far sum)
    """

    variant: str
    near_second_moment: float
    far_mass: float
    far_first_moment: float
    a_pp_values: tuple = ()
    a_pp_max: float = None
    alpha: float = None
    truncation_remainder: float = 0.0

    def to_json_dict(self):
        return {
            "near_second_moment": self.near_second_moment,
            "far_mass": self.far_mass,
            "far_first_moment": self.far_first_moment,
            "a_pp_values": [{"R": R, "value": v} for R, v in self.a_pp_values],
            "a_pp_max": self.a_pp_max,
            "variant": self.variant,
            "alpha": self.alpha,
            "truncation_remainder": self.truncation_remainder,
        }


def check_moments(stencil, variant="A", alpha=None, R_list=None):
    """Evaluate the moment sums of a stencil.

    variant: "A" (near second moment + far mass), "A_prime" (adds the far
    first moment), or "A_double_prime" (adds the scaled annulus/far sums for
    each R in R_list; needs alpha).
    """
    radii = stencil.offset_radii()
    w = stencil.weights
    near = float(np.sum(np.where(radii <= 1.0, radii ** 2 * w, 0.0)))
    far_mask = radii > 1.0
    far = float(np.sum(w[far_mask]))
    far_first = float(np.sum(radii[far_mask] * w[far_mask]))
    report = dict(variant=variant, near_second_moment=near, far_mass=far,
                  far_first_moment=far_first,
                  truncation_remainder=stencil.tail_mass_beyond_support)
    if variant == "A_double_prime":
        if alpha is None or not (0.0 < alpha < 2.0):
            raise ConfigurationError("A_double_prime needs alpha in (0, 2)", field="alpha")
        if not R_list:
            raise ConfigurationError("A_double_prime needs a nonempty R list", field="R_list")
        vals = []
        for R in R_list:
            if not (R > 1.0):
                raise ConfigurationError("A_double_prime radii must exceed 1", field="R_list")
            annulus = float(np.sum(np.where((radii > 1.0) & (radii <= R), radii ** 2 * w, 0.0)))
            beyond = float(np.sum(w[radii > R])) + stencil.tail_mass_beyond_support
            vals.append((float(R), R ** (alpha - 2.0) * annulus + R ** alpha * beyond))
        report["a_pp_values"] = tuple(vals)
        report["a_pp_max"] = max(v for _, v in vals)
        report["alpha"] = float(alpha)
    elif variant not in ("A", "A_prime"):
        raise ConfigurationError(f"unknown moment variant {variant!r}", field="variant")
    return MomentReport(**report)


def testfunction_moment_bound(stencil, variant, alpha=None, R=None):
    """Evaluate L[psi](0) for the certifying test functions.

    variant "A_prime" uses psi = |x|^2 - 1 inside the unit ball and
    2(|x| - 1) outside; the value dominates sum min(|z|^2, |z|) w.  variant
    "A_double_prime" uses psi = R^(alpha-2)|x|^2 - R^alpha inside |x| <= R
    and 0 outside; the value dominates the scaled annulus/far sum.  Either
    way the returned number is a certified upper bound for the corresponding
    moment quantity (the analytic remainder of a truncated measure is
    included in the far field).
    """
    radii = stencil.offset_radii()
    w = stencil.weights
    if variant == "A_prime":
        inside = radii <= 1.0
        psi_shift = np.where(inside, radii ** 2, 2.0 * radii - 1.0)
        # remainder sits at |z| > covered radius where psi - psi(0) >= |z| >= 1
        return float(np.sum(psi_shift * w)) + stencil.tail_mass_beyond_support
    if variant == "A_double_prime":
        if alpha is None or R is None or not (R > 1.0):
            raise ConfigurationError("A_double_prime bound needs alpha and R > 1", field="R")
        inside = radii <= R
        psi_shift = np.where(inside, R ** (alpha - 2.0) * radii ** 2, R ** alpha)
        return float(np.sum(psi_shift * w)) + R ** alpha * stencil.tail_mass_beyond_support
    raise ConfigurationError(f"unknown bound variant {variant!r}", field="variant")


@dataclass(frozen=True)
class OperatorSpec:
    """c * Laplacian + optional jump measure; at least one part present."""

    c: int = 1
    measure: MeasureSpec = None
    support_radius: float = None

    def __post_init__(self):
        if self.c not in (0, 1):
            raise ConfigurationError("operator factor c must be 0 or 1",
                                     field="problem.operator.c")
        if self.c == 0 and self.measure is None:
            raise ConfigurationError("operator needs c = 1 or a jump measure",
                                     field="problem.operator")
        if self.support_radius is not None and not (self.support_radius > 0.0):
            raise ConfigurationError("support radius must be positive",
                                     field="problem.operator.support_radius")

    def check_grid(self, grid):
        """The check build_stencil makes on the grid before it builds: the
        support radius must reach the nearest cells."""
        if self.measure is not None:
            _support_index(self.measure, grid, self.support_radius)

    def build_stencil(self, grid):
        """The whole operator as one stencil: the measure's weights, merged
        with the Laplacian's for c = 1."""
        if self.measure is None:
            stencil = WeightedStencil.empty(grid.h, grid.dim)
        else:
            stencil = measure_stencil(self.measure, grid, self.support_radius)
        return combine_with_laplacian(stencil, self.c)


def write_stencil_csv(path, stencil):
    """``gamma_1,...,gamma_N,weight`` rows in lexicographic offset order,
    each weight in the shortest round-trip form of
    ``grid_field._format_float``, given by the kernel that formats the
    field CSVs and joined as ``grid_field.write_field_csvs`` joins a
    field's rows."""
    header = ",".join(f"gamma_{i + 1}" for i in range(stencil.dim)) + ",weight"
    labels = np.concatenate([_int_labels(stencil.offsets[:, i], "\n" if i == 0 else "")
                             for i in range(stencil.dim)], axis=1)
    with open(path, "wb") as fh:
        fh.write(header.encode() + _csv_rows(labels, stencil.weights).tobytes().translate(
            None, b"\0") + b"\n")
