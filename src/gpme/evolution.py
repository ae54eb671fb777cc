"""Implicit time stepping for the degenerate parabolic problem and its
convection variant.

Each step solves the resolvent problem

    U^j - dt_j L[phi(U^j)] = U^{j-1} + dt_j G^j  (- dt_j div F(U^{j-1}))

with the convective divergence, when present, taken explicitly through a
monotone two-point numerical flux under a CFL restriction.  Everything
outside the computational box is held at zero, and the run keeps an exact
mass ledger: interior mass changes only through the projected source, the
diffusive flux out of the box (escape weights), the convective flux through
the boundary faces, and the reported solver residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NonConvergenceError
from .grid_field import Trajectory, project_cell_average, project_source, shifted
from .elliptic_solver import EpSolveConfig, _Resolvent, solve_ep
from .levy_operators import OperatorSpec, WeightedStencil, _neighbor_operator, _total_weight

__all__ = [
    "FluxSpec",
    "ProblemSpec",
    "RunReport",
    "validate_flux",
    "flux_divergence",
    "escape_weights",
    "step_gpme",
    "step_cde",
    "cfl_limit",
    "check_convective_step",
    "run",
]


@dataclass(frozen=True)
class FluxSpec:
    """Convective flux, one scalar flux function per axis.

    kind "burgers" uses u^2/2 on every axis; "linear" uses velocity[i] * u;
    "table" interpolates the given breakpoints piecewise-linearly (constant
    beyond the ends) on every axis.  ``numerical`` picks the two-point flux:
    "engquist_osher" (default) or "lax_friedrichs".  ``u_range`` is the
    declared solution range used for Lipschitz bounds, validation sampling,
    and the CFL restriction.
    """

    kind: str
    u_range: tuple
    numerical: str = "engquist_osher"
    velocity: tuple = None
    table_u: tuple = None
    table_f: tuple = None

    def __post_init__(self):
        if self.kind not in ("burgers", "linear", "table"):
            raise ConfigurationError(f"unknown flux kind {self.kind!r}", field="problem.flux.kind")
        if self.numerical not in ("engquist_osher", "lax_friedrichs"):
            raise ConfigurationError(f"unknown numerical flux {self.numerical!r}",
                                     field="problem.flux.numerical")
        for name in ("u_range", "velocity", "table_u", "table_f"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
        if len(self.u_range) != 2 or not self.u_range[0] < self.u_range[1]:
            raise ConfigurationError("u_range must be an increasing pair",
                                     field="problem.flux.u_range")
        if self.kind == "linear" and self.velocity is None:
            raise ConfigurationError("linear flux needs a velocity tuple",
                                     field="problem.flux.velocity")
        if self.kind == "table":
            for name in ("table_u", "table_f"):
                if getattr(self, name) is None:
                    raise ConfigurationError(f"table flux needs {name}",
                                             field=f"problem.flux.{name}")
            u = np.asarray(self.table_u, dtype=float)
            f = np.asarray(self.table_f, dtype=float)
            if u.ndim != 1 or u.shape != f.shape or u.size < 2 or np.any(np.diff(u) <= 0.0):
                raise ConfigurationError("flux table needs strictly increasing abscissae",
                                         field="problem.flux.table_u")

    def check_dim(self, dim):
        """Reject a velocity whose length is not dim, one component per
        axis."""
        if self.velocity is not None and len(self.velocity) != dim:
            raise ConfigurationError(f"flux velocity needs {dim} components, one per axis",
                                     field="problem.flux.velocity")

    def flux_value(self, u, axis=0):
        u = np.asarray(u, dtype=float)
        if self.kind == "burgers":
            return 0.5 * u * u
        if self.kind == "linear":
            return self.velocity[axis] * u
        return np.interp(u, self.table_u, self.table_f)

    def lipschitz(self, axis=0):
        lo, hi = self.u_range
        if self.kind == "burgers":
            return max(abs(lo), abs(hi))
        if self.kind == "linear":
            return abs(self.velocity[axis])
        slopes = np.diff(self.table_f) / np.diff(self.table_u)
        return float(np.max(np.abs(slopes))) if slopes.size else 0.0

    def max_lipschitz(self, dim):
        return max(self.lipschitz(i) for i in range(dim))

    def numerical_flux(self, a, b, axis=0):
        """Two-point flux F(a, b); F(u, u) = f(u)."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.numerical == "lax_friedrichs":
            lam = self.lipschitz(axis)
            return 0.5 * (self.flux_value(a, axis) + self.flux_value(b, axis)) - 0.5 * lam * (b - a)
        if self.kind == "burgers":
            return 0.5 * np.maximum(a, 0.0) ** 2 + 0.5 * np.minimum(b, 0.0) ** 2
        if self.kind == "linear":
            v = self.velocity[axis]
            return v * a if v >= 0.0 else v * b
        return (self.flux_value(0.0, axis)
                + _segment_integral(self.table_u, self.table_f, a, positive=True)
                + _segment_integral(self.table_u, self.table_f, b, positive=False))


def _segment_integral(table_u, table_f, a, positive):
    """integral_0^a of the clipped slope of a piecewise-linear table;
    constant extension outside the table contributes nothing."""
    u = np.asarray(table_u, dtype=float)
    f = np.asarray(table_f, dtype=float)
    slopes = np.diff(f) / np.diff(u)
    a = np.asarray(a, dtype=float)
    lo_a = np.minimum(a, 0.0)
    hi_a = np.maximum(a, 0.0)
    sgn = np.where(a >= 0.0, 1.0, -1.0)
    total = np.zeros(a.shape)
    for k, g in enumerate(slopes):
        part = max(g, 0.0) if positive else min(g, 0.0)
        if part == 0.0:
            continue
        overlap = np.clip(hi_a, u[k], u[k + 1]) - np.clip(lo_a, u[k], u[k + 1])
        total += part * overlap
    return sgn * total


def validate_flux(flux, dim=1, samples=33):
    """Check a velocity's length against dim, then sample the declared
    range: consistency F(u,u) = f(u) and the monotone property
    (nondecreasing in the first slot, nonincreasing in the second).
    Raises ConfigurationError on a violation."""
    flux.check_dim(dim)
    lo, hi = flux.u_range
    us = np.linspace(lo, hi, samples)
    scale = 1.0 + float(np.max(np.abs(flux.flux_value(us))))
    for axis in range(dim):
        diag = flux.numerical_flux(us, us, axis)
        if np.max(np.abs(diag - flux.flux_value(us, axis))) > 1e-10 * scale:
            raise ConfigurationError("numerical flux is not consistent on the declared range",
                                     field="problem.flux")
        A, B = np.meshgrid(us, us, indexing="ij")
        F = flux.numerical_flux(A, B, axis)
        if np.min(np.diff(F, axis=0)) < -1e-10 * scale:
            raise ConfigurationError("numerical flux decreases in its first argument",
                                     field="problem.flux")
        if np.max(np.diff(F, axis=1)) > 1e-10 * scale:
            raise ConfigurationError("numerical flux increases in its second argument",
                                     field="problem.flux")


def flux_divergence(flux, values, h):
    """Conservative divergence sum_i (F_i(U, U_+e) - F_i(U_-e, U)) / h with
    zero extension outside the box."""
    values = np.asarray(values, dtype=float)
    flux.check_dim(values.ndim)
    out = np.zeros_like(values)
    for axis in range(values.ndim):
        off = [0] * values.ndim
        off[axis] = 1
        up = shifted(values, tuple(off))
        off[axis] = -1
        down = shifted(values, tuple(off))
        right = flux.numerical_flux(values, up, axis)
        left = flux.numerical_flux(down, values, axis)
        out += (right - left) / h
    return out


def boundary_outflow(flux, values, h):
    """Net convective flux through the box boundary per unit time:
    h^(N-1) * (sum of right-face fluxes - sum of left-face fluxes)."""
    values = np.asarray(values, dtype=float)
    dim = values.ndim
    total = 0.0
    for axis in range(dim):
        last = np.take(values, -1, axis=axis)
        first = np.take(values, 0, axis=axis)
        right = flux.numerical_flux(last, np.zeros_like(last), axis)
        left = flux.numerical_flux(np.zeros_like(first), first, axis)
        total += float(np.sum(right) - np.sum(left))
    return h ** (dim - 1) * total


def cfl_limit(flux, h, dim):
    """Largest admissible explicit step for the convective part."""
    flux.check_dim(dim)
    L = flux.max_lipschitz(dim)
    if L == 0.0:
        return np.inf
    return h / (2.0 * dim * L)


def check_convective_step(flux, dt, h, dim):
    """Reject an explicit step dt above the convective bound cfl_limit."""
    limit = cfl_limit(flux, h, dim)
    if dt > limit * (1.0 + 1e-12):
        raise ConfigurationError(
            f"dt = {dt:g} violates the convective step bound {limit:g}",
            field="problem.dt.factor")


def escape_weights(stencil, c, shape, neighbor=None):
    """Per node, the total weight of jumps of the operator (stencil, c) that
    land outside the box; the diffusive mass leak rate is
    h^N * sum phi(U) * escape.  ``neighbor`` is the operator's
    ``_neighbor_operator`` on the box, built here when not given."""
    if neighbor is None:
        neighbor = _neighbor_operator(stencil, c, shape)
    return _total_weight(stencil, c) - neighbor(np.ones(shape))


@dataclass(frozen=True)
class ProblemSpec:
    """Operator + nonlinearity + data; flux None means no convection."""

    operator: OperatorSpec
    phi: object
    initial: object
    source: object = None
    flux: object = None


def step_gpme(stencil, c, phi, dt, u_prev, g=None, config=None, warm_start=None,
              resolvent=None):
    """One implicit step without convection; returns the EpResult.
    ``resolvent`` is passed on to ``solve_ep``."""
    rho = np.asarray(u_prev, dtype=float)
    if g is not None:
        rho = rho + dt * np.asarray(g, dtype=float)
    return solve_ep(stencil, c, phi, dt, rho, config=config,
                    warm_start=u_prev if warm_start is None else warm_start,
                    resolvent=resolvent)


def step_cde(stencil, c, phi, flux, dt, h, u_prev, g=None, config=None, warm_start=None,
             resolvent=None):
    """Explicit monotone convection then the implicit diffusion solve.
    ``resolvent`` is passed on to ``solve_ep``."""
    check_convective_step(flux, dt, h, np.asarray(u_prev).ndim)
    rho = np.asarray(u_prev, dtype=float) - dt * flux_divergence(flux, u_prev, h)
    if g is not None:
        rho = rho + dt * np.asarray(g, dtype=float)
    return solve_ep(stencil, c, phi, dt, rho, config=config,
                    warm_start=u_prev if warm_start is None else warm_start,
                    resolvent=resolvent)


@dataclass(frozen=True)
class RunReport:
    """Trajectory plus the per-knot mass ledger.

    identity_gap[j] = mass[j] - (mass[0] + source_cum[j]
                      - leak_diffusive[j] - leak_convective[j]);
    up to rounding it equals residual_mass_cum[j], the accumulated signed
    mass of the reported solver residuals.  ``stencil`` is the measure
    stencil the run built and ``neighbor`` its ``_neighbor_operator`` on the
    grid's box, both kept for the diagnostics and not serialized.
    """

    trajectory: Trajectory
    mass: np.ndarray
    source_cum: np.ndarray
    leak_diffusive: np.ndarray
    leak_convective: np.ndarray
    residual_mass_cum: np.ndarray
    identity_gap: np.ndarray
    sweeps: np.ndarray
    residuals: np.ndarray
    min_value: np.ndarray
    max_value: np.ndarray
    stencil: WeightedStencil
    neighbor: object

    def to_json_dict(self):
        return {
            "times": [float(t) for t in self.trajectory.time_grid.knots],
            "mass": [float(x) for x in self.mass],
            "source_cum": [float(x) for x in self.source_cum],
            "leak_diffusive": [float(x) for x in self.leak_diffusive],
            "leak_convective": [float(x) for x in self.leak_convective],
            "residual_mass_cum": [float(x) for x in self.residual_mass_cum],
            "identity_gap": [float(x) for x in self.identity_gap],
            "sweeps": [int(x) for x in self.sweeps],
            "residuals": [float(x) for x in self.residuals],
            "min_value": [float(x) for x in self.min_value],
            "max_value": [float(x) for x in self.max_value],
        }


def run(problem, grid, time_grid, config=None, on_knot=None):
    """March the implicit scheme across time_grid and account for every
    unit of mass; returns a RunReport.  The operator is built once, on the
    grid's box, for the escape weights, every step's solve and the
    report's tail certificates.

    ``on_knot(j, u)``, when given, is called with each knot's field as
    soon as it is computed, U^0 first and then after each step, and
    returns the array that the trajectory keeps as knot j: u itself or a
    copy of it (``grid_field.FieldWriter.knot`` stores it and writes it
    while the later steps are solved)."""
    cfg = config if config is not None else EpSolveConfig()
    stencil = problem.operator.build_stencil(grid)
    c = problem.operator.c
    if problem.flux is not None:
        validate_flux(problem.flux, dim=grid.dim)
    resolvent = _Resolvent(stencil, c, grid.shape)
    esc = escape_weights(stencil, c, grid.shape, resolvent.neighbor)
    vol = grid.cell_volume

    keep = on_knot if on_knot is not None else (lambda j, u: u)
    u0 = keep(0, project_cell_average(problem.initial, grid))
    sources = project_source(problem.source, grid, time_grid)
    steps = time_grid.steps

    fields = [u0]
    mass = [vol * float(np.sum(u0))]
    src_cum = [0.0]
    leak_d = [0.0]
    leak_c = [0.0]
    res_cum = [0.0]
    sweeps = []
    residuals = []
    mins = [float(np.min(u0))]
    maxs = [float(np.max(u0))]

    u = u0
    for j, dt in enumerate(steps):
        g = sources[j] if sources is not None else None
        try:
            if problem.flux is not None:
                conv_inc = dt * boundary_outflow(problem.flux, u, grid.h)
                result = step_cde(stencil, c, problem.phi, problem.flux, dt, grid.h,
                                  u, g=g, config=cfg, resolvent=resolvent)
            else:
                conv_inc = 0.0
                result = step_gpme(stencil, c, problem.phi, dt, u, g=g, config=cfg,
                                   resolvent=resolvent)
        except NonConvergenceError as exc:
            exc.step = j
            raise
        w = keep(j + 1, result.w)
        p = problem.phi.value(w)
        fields.append(w)
        mass.append(vol * float(np.sum(w)))
        src_cum.append(src_cum[-1] + (dt * vol * float(np.sum(g)) if g is not None else 0.0))
        leak_d.append(leak_d[-1] + dt * vol * float(np.sum(p * esc)))
        leak_c.append(leak_c[-1] + conv_inc)
        res_cum.append(res_cum[-1] + vol * float(np.sum(result.residual_field)))
        sweeps.append(result.sweeps)
        residuals.append(result.residual)
        mins.append(float(np.min(w)))
        maxs.append(float(np.max(w)))
        u = w

    mass = np.array(mass)
    src_cum = np.array(src_cum)
    leak_d = np.array(leak_d)
    leak_c = np.array(leak_c)
    res_cum = np.array(res_cum)
    gap = mass - (mass[0] + src_cum - leak_d - leak_c)
    traj = Trajectory(grid=grid, time_grid=time_grid, fields=tuple(fields),
                      sources=tuple(sources) if sources is not None else None)
    return RunReport(trajectory=traj, mass=mass, source_cum=src_cum,
                     leak_diffusive=leak_d, leak_convective=leak_c,
                     residual_mass_cum=res_cum, identity_gap=gap,
                     sweeps=np.array(sweeps, dtype=int), residuals=np.array(residuals),
                     min_value=np.array(mins), max_value=np.array(maxs),
                     stencil=stencil, neighbor=resolvent.neighbor)
