"""Implicit time stepping for the degenerate parabolic problem and its
convection variant.

Each step solves the resolvent problem

    U^j - dt_j L[phi(U^j)] = U^{j-1} + dt_j G^j  (- dt_j div F(U^{j-1}))

with the convective divergence, when present, taken explicitly through a
two-point numerical flux, consistent and monotone by construction
(``FluxSpec``), under a CFL restriction.  ``step`` is that one step, in
that order (convection, then the source, then the resolvent solve), and
everything that takes a step calls it: ``run``, and the comparison and
contraction properties of ``checks``.  The operator on the box is one ``elliptic_solver._Resolvent``, built once per run and
read by every step, the ledger's escape weights and the tail
certificate.  Everything outside the computational box is held at zero,
and the run keeps an exact mass ledger: interior mass changes only
through the projected source, the diffusive flux out of the box (the
resolvent's escape weights), the convective flux through the boundary
faces, and the reported solver residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, NonConvergenceError
from .grid_field import Trajectory, project_cell_average, project_source
from .elliptic_solver import EpSolveConfig, _PiecewiseLinear, _Resolvent, solve_ep
from .levy_operators import OperatorSpec

__all__ = [
    "FLUX_KINDS",
    "FluxSpec",
    "ProblemSpec",
    "RunReport",
    "step",
    "cfl_limit",
    "check_convective_step",
    "run",
]


# every kind of convective flux
FLUX_KINDS = ("burgers", "linear", "table")


def _flux_axes(flux):
    """axis -> (f, f_+, f_-), f and the halves of its Engquist-Osher flux,
    f_+(a) = integral_0^a max(f', 0) and f_-(b) = integral_0^b min(f', 0):
    u^2/2, max(a, 0)^2/2 and min(b, 0)^2/2 for Burgers on every axis, and
    for a piecewise-linear flux (velocity[axis] * u, or the table on every
    axis) its ``_PiecewiseLinear`` and that one's ``split``."""
    def upwinded(*pieces):
        f = _PiecewiseLinear(*pieces)
        return (f, *f.split())
    if flux.kind == "burgers":
        burgers = (lambda u: 0.5 * u * u, lambda a: 0.5 * np.maximum(a, 0.0) ** 2,
                   lambda b: 0.5 * np.minimum(b, 0.0) ** 2)
        return lambda axis: burgers
    if flux.kind == "linear":
        return tuple(upwinded((0.0,), (0.0,), (v, v)) for v in flux.velocity).__getitem__
    table = upwinded(flux.table_u, flux.table_f, (0.0, 0.0))
    return lambda axis: table


@dataclass(frozen=True)
class FluxSpec:
    """Convective flux, one scalar flux function per axis.

    kinds (``FLUX_KINDS``): "burgers" uses u^2/2 on every axis; "linear"
    uses velocity[i] * u; "table" interpolates the given breakpoints
    piecewise-linearly (constant beyond the ends) on every axis.
    ``numerical`` picks the two-point flux: "engquist_osher" (default),
    f(0) + f_+(a) + f_-(b) from the nondecreasing and nonincreasing halves
    of f - f(0) that ``_flux_axes`` holds once per spec (Engquist & Osher,
    Math. Comp. 36, 1981), or "lax_friedrichs", whose viscosity takes the
    Lipschitz constant of f (Crandall & Majda, Math. Comp. 34, 1980).
    Both are consistent and monotone by construction; nothing samples them
    at run time.  ``u_range`` is the declared solution range that Burgers'
    Lipschitz bound and the CFL restriction hold on; a run fails at a knot
    whose field leaves it.
    """

    kind: str
    u_range: tuple
    numerical: str = "engquist_osher"
    velocity: tuple = None
    table_u: tuple = None
    table_f: tuple = None

    def __post_init__(self):
        if self.kind not in FLUX_KINDS:
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
            u, f = np.asarray(self.table_u, dtype=float), np.asarray(self.table_f, dtype=float)
            if u.ndim != 1 or u.shape != f.shape or u.size < 2 or np.any(np.diff(u) <= 0.0):
                raise ConfigurationError("flux table needs strictly increasing abscissae",
                                         field="problem.flux.table_u")
        object.__setattr__(self, "_axis", _flux_axes(self))

    def check_dim(self, dim):
        """Reject a velocity whose length is not dim, one component per
        axis."""
        if self.velocity is not None and len(self.velocity) != dim:
            raise ConfigurationError(f"flux velocity needs {dim} components, one per axis",
                                     field="problem.flux.velocity")

    def flux_value(self, u, axis=0):
        return self._axis(axis)[0](np.asarray(u, dtype=float))

    def lipschitz(self, axis=0):
        lo, hi = self.u_range
        if self.kind == "burgers":
            return max(abs(lo), abs(hi))
        return self._axis(axis)[0].lipschitz()

    def max_lipschitz(self, dim):
        return max(self.lipschitz(i) for i in range(dim))

    def numerical_flux(self, a, b, axis=0):
        """Two-point flux F(a, b); F(u, u) = f(u)."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.numerical == "lax_friedrichs":
            lam = self.lipschitz(axis)
            return 0.5 * (self.flux_value(a, axis) + self.flux_value(b, axis)) - 0.5 * lam * (b - a)
        f, rising, falling = self._axis(axis)
        return f(0.0) + rising(a) + falling(b)


def _convection(flux, values, h):
    """The conservative divergence sum_i (F_i(U, U_+e) - F_i(U_-e, U)) / h
    with zero extension outside the box, and the net flux through the box
    boundary per unit time, h^(N-1) * sum_i (sum of the last faces' fluxes
    - sum of the first faces'): both from one evaluation of the n_i + 1
    faces per axis of the zero-padded field."""
    values = np.asarray(values, dtype=float)
    flux.check_dim(values.ndim)
    out = np.zeros_like(values)
    total = 0.0
    for axis in range(values.ndim):
        pad = [(0, 0)] * values.ndim
        pad[axis] = (1, 1)
        padded = np.pad(values, pad)
        n = values.shape[axis]
        faces = flux.numerical_flux(np.take(padded, range(n + 1), axis),
                                    np.take(padded, range(1, n + 2), axis), axis)
        out += np.diff(faces, axis=axis) / h
        total += float(np.sum(np.take(faces, -1, axis)) - np.sum(np.take(faces, 0, axis)))
    return out, h ** (values.ndim - 1) * total


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


@dataclass(frozen=True)
class ProblemSpec:
    """Operator + nonlinearity + data; flux None means no convection."""

    operator: OperatorSpec
    phi: object
    initial: object
    source: object = None
    flux: object = None


def step(resolvent, phi, dt, u_prev, g=None, flux=None, config=None, guess=None):
    """One step of the scheme from u_prev on ``resolvent``'s box, an
    ``elliptic_solver._Resolvent``: with a flux, the explicit monotone
    convection u_prev - dt div F(u_prev) once dt passes the CFL check at
    the stencil's mesh width; then dt g added; then the resolvent solve
    of ``solve_ep``, warm-started at ``guess``, or at u_prev without one.
    Returns the EpResult and the mass the convection carried out through
    the box boundary (0 without a flux)."""
    u_prev = np.asarray(u_prev, dtype=float)
    rho, outflow = u_prev, 0.0
    if flux is not None:
        h = resolvent.stencil.h
        check_convective_step(flux, dt, h, u_prev.ndim)
        divergence, rate = _convection(flux, u_prev, h)
        rho, outflow = u_prev - dt * divergence, dt * rate
    if g is not None:
        rho = rho + dt * np.asarray(g, dtype=float)
    result = solve_ep(resolvent.stencil, 0, phi, dt, rho, config=config,
                      warm_start=u_prev if guess is None else guess, resolvent=resolvent)
    return result, outflow


@dataclass(frozen=True)
class RunReport:
    """Trajectory plus the per-knot mass ledger.

    identity_gap[j] = mass[j] - (mass[0] + source_cum[j]
                      - leak_diffusive[j] - leak_convective[j]);
    up to rounding it equals residual_mass_cum[j], the accumulated signed
    mass of the reported solver residuals.  sweeps, fallbacks and
    residuals are each step's ``EpResult`` figures.  ``resolvent`` is the
    run's operator on the grid's box, an ``elliptic_solver._Resolvent`` of
    the whole stencil (``OperatorSpec.build_stencil``: the measure's weights,
    and the Laplacian's for c = 1), kept for the tail certificate and
    for stepping on from a knot, and not serialized.
    """

    trajectory: Trajectory
    mass: np.ndarray
    source_cum: np.ndarray
    leak_diffusive: np.ndarray
    leak_convective: np.ndarray
    residual_mass_cum: np.ndarray
    identity_gap: np.ndarray
    sweeps: np.ndarray
    fallbacks: np.ndarray
    residuals: np.ndarray
    min_value: np.ndarray
    max_value: np.ndarray
    resolvent: _Resolvent

    def to_json_dict(self):
        ledger = ("mass", "source_cum", "leak_diffusive", "leak_convective", "residual_mass_cum",
                  "identity_gap", "sweeps", "fallbacks", "residuals", "min_value", "max_value")
        return {"times": [float(t) for t in self.trajectory.time_grid.knots],
                **{name: getattr(self, name).tolist() for name in ledger}}


def run(problem, grid, time_grid, config=None, on_knot=None):
    """March the implicit scheme across time_grid and account for every
    unit of mass; returns a RunReport.  The operator is built once, on the
    grid's box, as one ``_Resolvent`` for the escape weights, every
    ``step`` and the report's tail certificates.

    ``on_knot(j, u)``, when given, is called with each knot's field as
    soon as it is computed, and returns the array that the trajectory
    keeps as knot j: u itself or a copy of it
    (``grid_field.FieldWriter.knot`` stores it and writes it while the
    later steps are solved).  U^0 goes first, projected before the
    operator is built, so a writer can write it while the stencil, the
    resolvent and the escape weights are built; then each step's field.
    With a flux, a knot whose field leaves the flux's declared u_range
    fails the run there, before ``on_knot`` sees it: the CFL bound and the
    flux's Lipschitz constant hold on that range only.

    Every step after the first starts its resolvent solve from the linear
    extrapolation of the last two knots, u^j + (u^j - u^(j-1)) dt_j /
    dt_(j-1), the predictor of implicit time stepping (Brenan, Campbell &
    Petzold, Numerical Solution of Initial-Value Problems in DAEs, 1996,
    ch. 5); the first starts from U^0."""
    cfg = config if config is not None else EpSolveConfig()
    flux = problem.flux
    if flux is not None:
        flux.check_dim(grid.dim)
    mins, maxs = [], []

    def keep(j, u):
        mins.append(float(np.min(u)))
        maxs.append(float(np.max(u)))
        if flux is not None and not flux.u_range[0] <= mins[-1] <= maxs[-1] <= flux.u_range[1]:
            raise DataError(f"the field at knot {j} (t = {time_grid.knots[j]:g}) spans "
                            f"[{mins[-1]:g}, {maxs[-1]:g}], outside the flux's declared "
                            f"u_range [{flux.u_range[0]:g}, {flux.u_range[1]:g}]", step=j)
        return u if on_knot is None else on_knot(j, u)

    u0 = keep(0, project_cell_average(problem.initial, grid))

    resolvent = _Resolvent(problem.operator.build_stencil(grid), grid.shape)
    vol = grid.cell_volume
    sources = project_source(problem.source, grid, time_grid)
    steps = time_grid.steps

    fields = [u0]
    mass = [vol * float(np.sum(u0))]
    src_cum, leak_d, leak_c, res_cum = [0.0], [0.0], [0.0], [0.0]
    sweeps, fallbacks, residuals = [], [], []

    u = previous = u0
    for j, dt in enumerate(steps):
        g = sources[j] if sources is not None else None
        guess = u + (u - previous) * (dt / steps[j - 1]) if j else None
        try:
            result, conv_inc = step(resolvent, problem.phi, dt, u, g=g, flux=flux, config=cfg,
                                    guess=guess)
        except NonConvergenceError as exc:
            exc.step = j
            raise
        w = keep(j + 1, result.w)
        p = problem.phi.value(w)
        fields.append(w)
        mass.append(vol * float(np.sum(w)))
        src_cum.append(src_cum[-1] + (dt * vol * float(np.sum(g)) if g is not None else 0.0))
        leak_d.append(leak_d[-1] + dt * vol * float(np.sum(p * resolvent.escape)))
        leak_c.append(leak_c[-1] + conv_inc)
        res_cum.append(res_cum[-1] + vol * float(np.sum(result.residual_field)))
        sweeps.append(result.sweeps)
        fallbacks.append(result.fallbacks)
        residuals.append(result.residual)
        previous, u = u, w

    mass = np.array(mass)
    src_cum = np.array(src_cum)
    leak_d = np.array(leak_d)
    leak_c = np.array(leak_c)
    res_cum = np.array(res_cum)
    gap = mass - (mass[0] + src_cum - leak_d - leak_c)
    traj = Trajectory(grid=grid, time_grid=time_grid, fields=tuple(fields))
    return RunReport(trajectory=traj, mass=mass, source_cum=src_cum,
                     leak_diffusive=leak_d, leak_convective=leak_c,
                     residual_mass_cum=res_cum, identity_gap=gap,
                     sweeps=np.array(sweeps, dtype=int),
                     fallbacks=np.array(fallbacks, dtype=int), residuals=np.array(residuals),
                     min_value=np.array(mins), max_value=np.array(maxs),
                     resolvent=resolvent)
