"""Analytical instruments for runs: the smooth radial cutoff family, tail
masses, the uniform-tail (equitightness) certificate with its explicit
constants, sup-in-time L^r distances between space-time interpolants, and
the errors and fitted order of a refinement study.

The cutoff 𝒳_R vanishes on |x| <= R/2, equals 1 on |x| >= R, and its
transition is the classical smooth step sigma(s) = e(s)/(e(s)+e(1-s)) with
e(s) = exp(-1/s).  Since 𝒳_R - 1 is compactly supported, discrete operator
norms of 𝒳_R are computed exactly by applying the stencil to the nodal
values of 𝒳_R - 1 (zero extension is then not a truncation), plus the
analytic remainder of any measure mass beyond the stencil support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache

import numpy as np

from .elliptic_solver import _Resolvent, apply_stencil
from .errors import ConfigurationError, DataError
from .grid_field import Trajectory, lr_norm_of_values, shifted
from .profiles import adaptive_quad, sphere_area

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
    "KnotTails",
    "conjugate_exponents",
    "admissible_threshold",
    "EquitightnessReport",
    "data_bounds",
    "equitightness_check",
    "ct_lr_distance",
    "study_errors",
    "fitted_order",
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


@cache
def _sup_grid():
    """The points of [0, 1] on which ``Cutoff.derivative_norm`` takes a
    derivative's sup; built on first call, which only ``gpme check``
    makes.  Every caller shares it, so it is read-only."""
    grid = np.linspace(0.0, 1.0, 200001)
    grid.flags.writeable = False
    return grid


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

    @property
    def band(self):
        """The radii R/2, 5R/8, 3R/4, 7R/8, R: the transition cut in
        quarters, the pieces its quadratures start from.  The smooth
        step's ends need pieces of about an eighth of the band at the
        tolerances asked here, and each bisection round costs about as
        much as the first, so starting from quarters halves the rounds."""
        return [self.R * (0.5 + 0.125 * i) for i in range(5)]

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
        """The nodal values of 𝒳_R on grid."""
        return self.value_radial(grid.node_radii())

    def derivative_norm(self, order, p):
        """L^p(R^N) norm of the k-th radial derivative, k in {1, 2}."""
        if p == math.inf:
            if order == 0:
                return 1.0
            fn = smooth_step_d1 if order == 1 else smooth_step_d2
            return (2.0 / self.R) ** order * float(np.max(np.abs(fn(_sup_grid()))))
        if not (p >= 1.0):
            raise ConfigurationError("p must be >= 1", field="p")
        if order == 0:
            raise DataError("cutoff itself is not p-integrable; use order 1 or 2")
        area = sphere_area(self.dim)

        def integrand(r):
            d = self.radial_derivative(r, order)
            return area * r ** (self.dim - 1) * np.abs(d) ** p

        val = adaptive_quad(integrand, self.band, epsabs=1e-15, epsrel=1e-12, limit=400)
        return val ** (1.0 / p)


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


def operator_cutoff_norm(resolvent, X, p):
    """Discrete surrogate for the L^p norm of the operator applied to
    𝒳_R, from the nodal cutoff X of build_cutoff and the operator on X's
    box, an ``elliptic_solver._Resolvent``: its stencil acts on the nodal
    values of 𝒳_R - 1 (compactly supported, so zero extension is exact)
    through its neighbor sum, and the measure mass beyond the stencil
    support contributes (1 - 𝒳_R) times the analytic remainder.  The
    stencil's mesh width h gives the cell volume."""
    stencil = resolvent.stencil
    v = (apply_stencil(stencil, 0, X - 1.0, resolvent)
         + (1.0 - X) * stencil.tail_mass_beyond_support)
    return lr_norm_of_values(v, stencil.h ** X.ndim, p)


def forward_difference_norms(X, h, p):
    """sum_i of the L^p norms of the one-sided differences of the nodal
    cutoff X at mesh width h; the convective counterpart of
    operator_cutoff_norm."""
    vals = X - 1.0
    total = 0.0
    for axis in range(X.ndim):
        off = [0] * X.ndim
        off[axis] = 1
        d = (shifted(vals, tuple(off)) - vals) / h
        total += lr_norm_of_values(d, h ** X.ndim, p)
    return total


def tail_mass(u, grid, R, r=1.0):
    """h^N sum over |x_beta| > R of |U_beta|^r for the field u on grid;
    straddling cells counted by their center."""
    return _masked_tail(u, grid.node_radii() > R, grid.cell_volume, r)


def _masked_tail(values, mask, cell_volume, r):
    """tail_mass with the mask of the nodes beyond R given."""
    if not (r >= 1.0):
        raise ConfigurationError("r must be >= 1", field="r")
    return cell_volume * float(np.sum(np.where(mask, np.abs(values) ** r, 0.0)))


class KnotTails:
    """The tail certificate's left side reduced knot by knot: for each
    radius R in ``R_list``, the worst tail mass h^N sum over |x_beta| > R
    of |U^j_beta|^r over the knots seen.  ``knot`` is an
    ``evolution.run`` ``on_knot`` hook that keeps no field, so a run
    certified this way holds its current and previous knot only; ``of``
    reduces a stored trajectory."""

    def __init__(self, grid, time_grid, R_list, r=1.0):
        self.grid, self.time_grid, self.r = grid, time_grid, r
        radii = grid.node_radii() if R_list else None
        self._masks = {float(R): radii > R for R in R_list}
        self._worst = {}

    @classmethod
    def of(cls, traj, R_list, r=1.0):
        tails = cls(traj.grid, traj.time_grid, R_list, r)
        for j, values in enumerate(traj.fields):
            tails.knot(j, values)
        return tails

    def knot(self, j, u):
        for R, mask in self._masks.items():
            tail = _masked_tail(u, mask, self.grid.cell_volume, self.r)
            self._worst[R] = max(self._worst.get(R, tail), tail)

    def worst(self, R, r):
        """The worst tail mass at radius R and exponent r over every knot."""
        if r != self.r or float(R) not in self._masks:
            raise ConfigurationError(f"no tail reduced at R = {R:g}, r = {r:g}", field="R")
        if float(R) not in self._worst:
            raise DataError("no knot reduced")
        return self._worst[float(R)]


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
    or None when no covered weight condition applies, read off the
    operator itself.

    Local part: (N-2)^+/N.  Measure part: (N-a)^+/N, where a is the tail
    order alpha of a fractional or split measure, raised to 1 by a
    truncation (a truncated measure has a finite first moment); an
    untruncated custom measure has none, since its density does not show
    its tail.  A combined operator must clear both parts."""
    local = max(0.0, dim - 2.0) / dim if operator.c == 1 else None
    measure = operator.measure
    if measure is None:
        return local
    order = measure.alpha if measure.kind in ("fractional", "split") else None
    if measure.truncation is not None:
        order = 1.0 if order is None else max(order, 1.0)
    if order is None:
        return None
    nonlocal_thr = max(0.0, dim - order) / dim
    return nonlocal_thr if local is None else max(local, nonlocal_thr)


@dataclass(frozen=True)
class EquitightnessReport:
    """Uniform tail certificate for one run and one radius.

    lhs is the worst tail mass over the knots, which is its sup over the
    time interpolant: for r >= 1 the tail functional is convex, so on each
    linear time segment it is at most its larger end value.  rhs_total =
    M^(r-1) (u0_piece + source_piece + C * operator_piece
    + conv_constant * convection_piece).  ``passed`` is lhs <= ``bound``,
    rhs_total widened by 1e-9 relative for rounding.  ``bound_asserted``
    says whether phi's exponent ell clears ``admissible_threshold`` (and,
    with convection, p > N), so that the paper's bound holds; when it does
    not, ``note`` says why, and ``passed`` compares the two sides but
    certifies nothing."""

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
    bound_asserted: bool
    note: str

    @property
    def bound(self):
        return self.rhs_total * (1.0 + 1e-9)

    @property
    def passed(self):
        return bool(self.lhs <= self.bound)

    def to_json_dict(self):
        """Every field in order, an infinite p as "inf", and ``passed``
        before the last two."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["p"] = "inf" if self.p == math.inf else self.p
        last = {name: out.pop(name) for name in ("bound_asserted", "note")}
        return {**out, "passed": self.passed, **last}


def _sample_times(knots):
    """The knots and the midpoints between them, in order: the times at
    which ``study_errors`` compares a run with an exact solution."""
    mids = 0.5 * (knots[:-1] + knots[1:])
    return np.sort(np.concatenate([knots, mids]))


def data_bounds(problem, T):
    """(M, L) for the tail bound over [0, T]: the sup bound
    M = |u0|_inf + |g|_{L1(0,T; L_inf)} and the data size
    L = |u0|_1 + |g|_{L1(0,T; L1)}, from the data's closed-form norms.
    Raises DataError when the data expose no such norm, or when the
    initial data or the source's spatial profile has no radial tails
    (``SpatialProfile.check_radial_tails``), which the bound's
    cutoff-weighted pieces need."""
    problem.initial.check_radial_tails("the tail bound")
    M, L = problem.initial.sup_norm(), problem.initial.l1_norm()
    if problem.source is not None:
        problem.source.spatial.check_radial_tails("the tail bound")
        M += problem.source.l1linf_norm(T)
        L += problem.source.l1l1_norm(T)
    return M, L


def equitightness_check(traj, problem, R, r=1.0, resolvent=None):
    """Evaluate the uniform tail bound for one run of ``problem``.

    ``traj`` is the run: its ``Trajectory`` with every field, or the
    ``KnotTails`` that reduced its knots while it ran (as ``gpme run``
    does) at R and r.  The left side is the worst tail mass over the
    knots (see ``EquitightnessReport``); the right side assembles the
    declared data norms, the regularity constants of phi on [-M, M], and
    the discrete operator norm of the cutoff.  ``resolvent`` is the run's
    operator on the grid's box, the ``_Resolvent`` that
    ``RunReport.resolvent`` keeps, and must hold ``problem.operator``
    (``_Resolvent.check_operator``, a ConfigurationError otherwise); it is
    built here from ``problem.operator`` when not given."""
    tails = KnotTails.of(traj, [R], r) if isinstance(traj, Trajectory) else traj
    grid = tails.grid
    T = tails.time_grid.final_time
    X_nodal, cutoff = build_cutoff(R, grid)
    if resolvent is None:
        resolvent = _Resolvent.of(problem.operator, grid)
    else:
        resolvent.check_operator(problem.operator, grid)

    M, data_l1 = data_bounds(problem, T)
    g_piece = 0.0 if problem.source is None else problem.source.weighted_l1l1(cutoff, T)

    ell = problem.phi.hoelder_exponent()
    seminorm = problem.phi.hoelder_seminorm(M)
    p, q = conjugate_exponents(ell)
    C = seminorm * M ** (ell - 1.0 / q) * data_l1 ** (1.0 / q)

    u0_piece = problem.initial.weighted_abs_l1(cutoff)
    op_piece = T * operator_cutoff_norm(resolvent, X_nodal, p)

    if problem.flux is not None:
        L_F = problem.flux.max_lipschitz(grid.dim)
        conv_constant = 2.0 * L_F * M ** (1.0 - 1.0 / q) * data_l1 ** (1.0 / q)
        conv_piece = T * forward_difference_norms(X_nodal, grid.h, p)
    else:
        conv_constant = 0.0
        conv_piece = 0.0

    rhs = M ** (r - 1.0) * (u0_piece + g_piece + C * op_piece + conv_constant * conv_piece)

    lhs = tails.worst(R, r)

    threshold = admissible_threshold(problem.operator, grid.dim)
    asserted = threshold is not None and threshold < ell <= 1.0
    note = ""
    if threshold is None:
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
        rhs_total=rhs, lhs=lhs,
        bound_asserted=bool(asserted), note=note)


def ct_lr_distance(traj_a, traj_b, r=1.0):
    """sup over time of the L^r distance between the two space-time
    interpolants, on the finer grid's cells (zero outside the coarser
    box).  Both are linear in t between the union of the two time grids'
    knots, so their difference is too, and for r >= 1 its L^r norm, a
    convex function of t there, peaks at one of those knots: the sup is
    their maximum."""
    Ta = traj_a.time_grid.final_time
    Tb = traj_b.time_grid.final_time
    if abs(Ta - Tb) > 1e-12 * max(1.0, Ta):
        raise DataError("trajectories cover different time intervals")
    fine, coarse = (traj_a, traj_b) if traj_a.grid.h <= traj_b.grid.h else (traj_b, traj_a)
    idx, inside = coarse.grid.cell_of(fine.grid.coords())
    idx = tuple(np.moveaxis(idx, -1, 0))
    worst = 0.0
    for t in np.union1d(traj_a.time_grid.knots, traj_b.time_grid.knots).tolist():
        vc = np.where(inside, coarse.values_at_time(t)[idx], 0.0)
        diff = fine.values_at_time(t) - vc
        worst = max(worst, lr_norm_of_values(diff, fine.grid.cell_volume, r))
    return worst


def study_errors(trajectories, exact, r):
    """The L^r errors of a refinement study's runs, coarsest first.

    With an exact solution, each level's sup over its knots and midpoints
    of |U(t) - cell averages of exact(t)|_r (the exact solution is not
    linear in t, so the midpoints are sampled too).  With ``exact`` None,
    the ``ct_lr_distance`` of each level but the finest to the finest."""
    if exact is None:
        finest = trajectories[-1]
        return [ct_lr_distance(traj, finest, r=r) for traj in trajectories[:-1]]
    errors = []
    for traj in trajectories:
        worst = 0.0
        for t in _sample_times(traj.time_grid.knots):
            ref = exact.at_time(float(t)).cell_averages(traj.grid)
            vals = traj.values_at_time(float(t))
            worst = max(worst, lr_norm_of_values(vals - ref, traj.grid.cell_volume, r))
        errors.append(worst)
    return errors


def fitted_order(hs, errors):
    """The least-squares slope of log2 error against log2 h, or None
    unless there are two errors or more and all are positive."""
    errors = np.asarray(errors, dtype=float)
    if len(errors) < 2 or not np.all(errors > 0.0):
        return None
    return float(np.polyfit(np.log2(hs), np.log2(errors), 1)[0])
