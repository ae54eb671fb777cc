"""Analytical instruments for runs: the smooth radial cutoff family, tail
masses, the uniform-tail (equitightness) certificate with its explicit
constants, and sup-in-time L^r distances between space-time interpolants.

The cutoff 𝒳_R vanishes on |x| <= R/2, equals 1 on |x| >= R, and its
transition is the classical smooth step sigma(s) = e(s)/(e(s)+e(1-s)) with
e(s) = exp(-1/s).  Since 𝒳_R - 1 is compactly supported, discrete operator
norms of 𝒳_R are computed exactly by applying the stencil to the nodal
values of 𝒳_R - 1 (zero extension is then not a truncation), plus the
analytic remainder of any measure mass beyond the stencil support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import ConfigurationError, DataError
from .grid_field import (GridFunction, eval_spacetime_interpolant, lr_norm_of_values,
                         shifted)
from .levy_operators import apply_stencil
from .profiles import sphere_area

__all__ = [
    "smooth_step",
    "smooth_step_d1",
    "smooth_step_d2",
    "Cutoff",
    "build_cutoff",
    "check_cutoff_radius",
    "operator_cutoff_norm",
    "forward_difference_norms",
    "tail_mass",
    "conjugate_exponents",
    "admissible_threshold",
    "EquitightnessReport",
    "data_bounds",
    "equitightness_check",
    "ct_lr_distance",
]


def smooth_step(s):
    """Monotone C^inf step: 0 for s <= 0, 1 for s >= 1, and
    e(s)/(e(s)+e(1-s)) with e(s) = exp(-1/s) between.

    Both exponentials are taken over the whole array; outside (0, 1) their
    overflow, infinities and nans are masked by the two branches, and inside
    it at most one of them underflows, so the quotient is always defined
    there (nan stays nan)."""
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.exp(-1.0 / s)
        b = np.exp(-1.0 / (1.0 - s))
        return np.where(s <= 0.0, 0.0, np.where(s >= 1.0, 1.0, a / (a + b)))


def smooth_step_d1(s):
    """First derivative of smooth_step; vanishes outside (0, 1)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    core = (s > 0.0) & (s < 1.0)
    sc = s[core]
    a = np.exp(-1.0 / sc)
    b = np.exp(-1.0 / (1.0 - sc))
    u = 1.0 / sc ** 2 + 1.0 / (1.0 - sc) ** 2
    out[core] = a * b * u / (a + b) ** 2
    return out


def smooth_step_d2(s):
    """Second derivative of smooth_step, from the product/quotient rules
    applied to d1 = (ab) u / (a+b)^2 with a = e(s), b = e(1-s)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    core = (s > 0.0) & (s < 1.0)
    sc = s[core]
    a = np.exp(-1.0 / sc)
    b = np.exp(-1.0 / (1.0 - sc))
    v = a * b
    u = 1.0 / sc ** 2 + 1.0 / (1.0 - sc) ** 2
    w = (a + b) ** 2
    dv = v * (1.0 / sc ** 2 - 1.0 / (1.0 - sc) ** 2)
    du = -2.0 / sc ** 3 + 2.0 / (1.0 - sc) ** 3
    dw = 2.0 * (a + b) * (a / sc ** 2 - b / (1.0 - sc) ** 2)
    out[core] = (dv * u + v * du) / w - v * u * dw / w ** 2
    return out


_SUP_GRID = np.linspace(0.0, 1.0, 200001)


@dataclass(frozen=True)
class Cutoff:
    """Radial cutoff 𝒳_R: zero inside R/2, one outside R, smooth between."""

    R: float
    dim: int = 1

    def __post_init__(self):
        if not (self.R > 0.0):
            raise ConfigurationError("cutoff radius must be positive", field="R")

    def value_radial(self, r):
        r = np.asarray(r, dtype=float)
        return smooth_step(2.0 * r / self.R - 1.0)

    def _value_at(self, r):
        """value_radial for one float radius, the form the quadrature
        integrands call: smooth_step's operations on Python floats, with
        numpy's exp kept (math.exp differs from it by an ulp on some
        arguments), so it returns value_radial's bits at a fraction of the
        per-call cost."""
        s = 2.0 * r / self.R - 1.0
        if s <= 0.0:
            return 0.0
        if s >= 1.0:
            return 1.0
        a = float(np.exp(-1.0 / s))
        b = float(np.exp(-1.0 / (1.0 - s)))
        return a / (a + b)

    def radial_derivative(self, r, order=1):
        r = np.asarray(r, dtype=float)
        s = 2.0 * r / self.R - 1.0
        fac = (2.0 / self.R) ** order
        if order == 1:
            return fac * smooth_step_d1(s)
        if order == 2:
            return fac * smooth_step_d2(s)
        raise ConfigurationError("derivative order must be 1 or 2", field="order")

    def on_grid(self, grid):
        return GridFunction(grid, self.value_radial(grid.node_radii()))

    def derivative_norm(self, order, p):
        """L^p(R^N) norm of the k-th radial derivative, k in {1, 2}."""
        if p == math.inf:
            if order == 0:
                return 1.0
            fn = smooth_step_d1 if order == 1 else smooth_step_d2
            return (2.0 / self.R) ** order * float(np.max(np.abs(fn(_SUP_GRID))))
        if not (p >= 1.0):
            raise ConfigurationError("p must be >= 1", field="p")
        if order == 0:
            raise DataError("cutoff itself is not p-integrable; use order 1 or 2")
        area = sphere_area(self.dim)

        def integrand(r):
            d = self.radial_derivative(r, order)
            return area * r ** (self.dim - 1) * np.abs(d) ** p

        lo, hi = 0.5 * self.R, self.R
        val, _ = integrate.quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-12, limit=400)
        return float(val) ** (1.0 / p)


def build_cutoff(R, grid):
    """Nodal 𝒳_R on the given grid plus the smooth evaluator.  The box must
    contain R, so that the nodal values reach 1 inside it."""
    check_cutoff_radius(R, grid, "R")
    cut = Cutoff(R=float(R), dim=grid.dim)
    return cut.on_grid(grid), cut


def check_cutoff_radius(R, grid, field):
    """Reject a cutoff radius R that the box does not contain."""
    if min(grid.half_extents) < R:
        raise ConfigurationError("cutoff radius exceeds the box", field=field)


def operator_cutoff_norm(stencil, c, X, p):
    """Discrete surrogate for the L^p norm of the operator applied to 𝒳_R,
    from the nodal cutoff X of build_cutoff: the stencil acts on the nodal
    values of 𝒳_R - 1 (compactly supported, so zero extension is exact), and
    the measure mass beyond the stencil support contributes (1 - 𝒳_R) times
    the analytic remainder."""
    vals = X.values
    v = apply_stencil(stencil, c, vals - 1.0) + (1.0 - vals) * stencil.tail_mass_beyond_support
    return lr_norm_of_values(v, X.grid.cell_volume, p)


def forward_difference_norms(X, p):
    """sum_i of the L^p norms of the one-sided differences of the nodal
    cutoff X at grid spacing; the convective counterpart of
    operator_cutoff_norm."""
    grid = X.grid
    vals = X.values - 1.0
    total = 0.0
    for axis in range(grid.dim):
        off = [0] * grid.dim
        off[axis] = 1
        d = (shifted(vals, tuple(off)) - vals) / grid.h
        total += lr_norm_of_values(d, grid.cell_volume, p)
    return total


def tail_mass(u, R, r=1.0):
    """h^N sum over |x_beta| > R of |U_beta|^r; straddling cells counted by
    their center."""
    return _masked_tail(u.values, u.grid.node_radii() > R, u.grid.cell_volume, r)


def _masked_tail(values, mask, cell_volume, r):
    """tail_mass with the mask of the nodes beyond R given."""
    if not (r >= 1.0):
        raise ConfigurationError("r must be >= 1", field="r")
    return cell_volume * float(np.sum(np.where(mask, np.abs(values) ** r, 0.0)))


def conjugate_exponents(ell):
    """(p, q) with p = 1/(1-ell) capped at infinity, q its conjugate."""
    if not (0.0 < ell <= 1.0):
        raise ConfigurationError("regularity exponent must lie in (0, 1]", field="ell")
    if ell >= 1.0:
        return math.inf, 1.0
    p = 1.0 / (1.0 - ell)
    return p, p / (p - 1.0)


def admissible_threshold(operator, dim):
    """Smallest admissible regularity exponent for the uniform tail bound,
    or None when no covered weight condition applies.

    Local part: (N-2)^+/N.  Measure with a finite first moment: (N-1)/N.
    Measure with power tail of order alpha: (N-alpha)^+/N.  A combined
    operator must clear both."""
    local = max(0.0, dim - 2.0) / dim if operator.c == 1 else None
    measure = operator.measure
    if measure is None:
        return local
    options = []
    if measure.finite_first_moment:
        options.append((dim - 1.0) / dim)
    if measure.tail_order is not None:
        options.append(max(0.0, dim - measure.tail_order) / dim)
    if not options:
        return None
    nonlocal_thr = min(options)
    if local is None:
        return nonlocal_thr
    return max(local, nonlocal_thr)


@dataclass(frozen=True)
class EquitightnessReport:
    """Uniform tail certificate for one run and one radius.

    lhs is the worst tail mass over knots and interval midpoints of the
    time interpolant; rhs_total = M^(r-1) (u0_piece + source_piece
    + C * operator_piece + conv_constant * convection_piece).  ``passed``
    is lhs <= ``bound``: rhs_total widened by 1e-9 relative for rounding,
    plus the leakage allowance."""

    R: float
    r: float
    p: float
    q: float
    ell: float
    seminorm: float
    M: float
    C: float
    u0_piece: float
    source_piece: float
    operator_piece: float
    convection_piece: float
    conv_constant: float
    rhs_total: float
    lhs: float
    leakage_allowance: float
    bound_asserted: bool
    note: str

    @property
    def bound(self):
        return self.rhs_total * (1.0 + 1e-9) + self.leakage_allowance

    @property
    def passed(self):
        return bool(self.lhs <= self.bound)

    def to_json_dict(self):
        return {
            "R": self.R,
            "r": self.r,
            "p": "inf" if self.p == math.inf else self.p,
            "q": self.q,
            "ell": self.ell,
            "seminorm": self.seminorm,
            "M": self.M,
            "C": self.C,
            "u0_piece": self.u0_piece,
            "source_piece": self.source_piece,
            "operator_piece": self.operator_piece,
            "convection_piece": self.convection_piece,
            "conv_constant": self.conv_constant,
            "rhs_total": self.rhs_total,
            "lhs": self.lhs,
            "leakage_allowance": self.leakage_allowance,
            "passed": self.passed,
            "bound_asserted": self.bound_asserted,
            "note": self.note,
        }


def _sample_times(knots):
    """The knots and the midpoints between them, in order: the times at
    which the runs sample the piecewise-linear time interpolant."""
    mids = 0.5 * (knots[:-1] + knots[1:])
    return np.sort(np.concatenate([knots, mids]))


def data_bounds(problem, T):
    """(M, L) for the tail bound over [0, T]: the sup bound
    M = |u0|_inf + |g|_{L1(0,T; L_inf)} and the data size
    L = |u0|_1 + |g|_{L1(0,T; L1)}, from the data's closed-form norms.
    Raises DataError when the data expose no such norm."""
    M, L = problem.initial.sup_norm(), problem.initial.l1_norm()
    if problem.source is not None:
        M += problem.source.l1linf_norm(T)
        L += problem.source.l1l1_norm(T)
    return M, L


def equitightness_check(traj, problem, R, r=1.0, leakage_allowance=0.0, stencil=None):
    """Evaluate the uniform tail bound for a finished trajectory.

    The left side samples the time interpolant at knots and midpoints
    (piecewise linear in time, so the per-cell sup sits at a knot); the
    right side assembles the declared data norms, the regularity constants
    of phi on [-M, M], and the discrete operator norm of the cutoff."""
    grid = traj.grid
    T = traj.time_grid.final_time
    X_nodal, cutoff = build_cutoff(R, grid)
    if stencil is None:
        stencil = problem.operator.build_stencil(grid)

    M, data_l1 = data_bounds(problem, T)
    g_piece = 0.0 if problem.source is None else problem.source.weighted_l1l1(cutoff, T)

    ell = problem.phi.hoelder_exponent()
    seminorm = problem.phi.hoelder_seminorm(M)
    p, q = conjugate_exponents(ell)
    C = seminorm * M ** (ell - 1.0 / q) * data_l1 ** (1.0 / q)

    u0_piece = problem.initial.weighted_abs_l1(cutoff)
    op_piece = T * operator_cutoff_norm(stencil, problem.operator.c, X_nodal, p)

    if problem.flux is not None:
        L_F = problem.flux.max_lipschitz(grid.dim)
        conv_constant = 2.0 * L_F * M ** (1.0 - 1.0 / q) * data_l1 ** (1.0 / q)
        conv_piece = T * forward_difference_norms(X_nodal, p)
    else:
        conv_constant = 0.0
        conv_piece = 0.0

    rhs = M ** (r - 1.0) * (u0_piece + g_piece + C * op_piece + conv_constant * conv_piece)

    mask = grid.node_radii() > R
    lhs = 0.0
    for t in _sample_times(traj.time_grid.knots):
        vals = traj.values_at_time(float(t))
        lhs = max(lhs, _masked_tail(vals, mask, grid.cell_volume, r))

    threshold = admissible_threshold(problem.operator, grid.dim)
    asserted = threshold is not None and threshold < ell <= 1.0
    note = ""
    if threshold is None:
        asserted = False
        note = "no covered weight condition for this measure; tail bound not asserted"
    elif not asserted:
        note = (f"exponent {ell:g} does not exceed the admissible threshold "
                f"{threshold:g} for this operator; tail bound not asserted")
    if problem.flux is not None and p != math.inf and p <= grid.dim:
        asserted = False
        note = "convective term requires p > N; tail bound not asserted"

    return EquitightnessReport(
        R=float(R), r=float(r), p=p, q=q, ell=ell, seminorm=seminorm, M=M, C=C,
        u0_piece=u0_piece, source_piece=g_piece, operator_piece=op_piece,
        convection_piece=conv_piece, conv_constant=conv_constant,
        rhs_total=rhs, lhs=lhs, leakage_allowance=float(leakage_allowance),
        bound_asserted=bool(asserted), note=note)


def ct_lr_distance(traj_a, traj_b, r=1.0):
    """sup over sampled times of the L^r distance between the two
    space-time interpolants, evaluated on the finer grid's cells."""
    Ta = traj_a.time_grid.final_time
    Tb = traj_b.time_grid.final_time
    if abs(Ta - Tb) > 1e-12 * max(1.0, Ta):
        raise DataError("trajectories cover different time intervals")
    if traj_a.grid.h <= traj_b.grid.h:
        target = traj_a.grid
    else:
        target = traj_b.grid
    pts = target.coords().reshape(-1, target.dim)
    worst = 0.0
    for t in _sample_times(np.union1d(traj_a.time_grid.knots, traj_b.time_grid.knots)):
        va = eval_spacetime_interpolant(traj_a, pts, float(t))
        vb = eval_spacetime_interpolant(traj_b, pts, float(t))
        worst = max(worst, lr_norm_of_values(va - vb, target.cell_volume, r))
    return worst
