"""Nonlinear resolvent solves: given rho, find w with

    F(w) = w - dt * L[phi(w)] - rho = 0

for a monotone nonlinearity phi (phi(0) = 0) and the discrete operator L.
The operator L is the pair (stencil, c) of ``levy_operators``: the sum runs
over the measure offsets plus, for c = 1, the 2N nearest neighbors at
weight 1/h^2, and W = ``_total_weight(stencil, c)`` is their total weight.

F is an M-function: its Jacobian I - dt * A * diag(phi'(w)), with A the
matrix of L, has unit-dominant columns and nonpositive off-diagonals, so it
is a nonsingular M-matrix for every phi' >= 0, the flat part of a Stefan
nonlinearity included (Ortega & Rheinboldt, Iterative Solution of
Nonlinear Equations in Several Variables, 1970, ch. 13).  When L is
applied by the shift loop (at most ``_KERNEL_THRESHOLD`` measure offsets)
its matrix is sparse, and every iteration is a safeguarded Newton step:
one sparse LU solve of J delta = -F(w), in v = phi(w) instead of w for
power exponents below 1 (phi' is unbounded at 0, while the inverse's
derivative is bounded there), the result clipped to the comparison
bracket [min(0, min rho), max(0, max rho)].  The step is kept only if it
lowers the sup-norm residual; otherwise the iteration falls back to one
nonlinear Jacobi sweep from the previous iterate.  Operators with a dense
measure kernel take the Jacobi sweep in every iteration.

The sweep freezes the neighbor sum and solves the strictly increasing
scalar equation

    s + dt * W * phi(s) = rho_beta + dt * sum_gamma w_gamma phi(w(beta+gamma))

per node, by safeguarded Newton inside the bracket [min(0, b), max(0, b)].
It is a sup-norm contraction with factor dt*W*Lip(phi) / (1 + dt*W*Lip(phi)),
so a run of sweeps alone needs a number of iterations that grows with
dt * W but not with the grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .errors import ConfigurationError, NonConvergenceError
from .grid_field import GridFunction
from .levy_operators import (_KERNEL_THRESHOLD, _neighbor_matrix, _neighbor_sum,
                             _total_weight, apply_stencil)

__all__ = [
    "PhiSpec",
    "EpSolveConfig",
    "EpResult",
    "scalar_resolvent",
    "solve_ep",
]


@dataclass(frozen=True)
class PhiSpec:
    """Monotone nonlinearity through the origin.

    kinds:
      * ``power``: sign(u) |u|^m, exponent m > 0
      * ``stefan``: (u - latent)^+ + min(u, 0); flat on [0, latent]
      * ``linear``: slope * u
      * ``table``: piecewise-linear through given (u, phi) pairs, constant
        beyond the ends
      * ``zero``: identically zero (pure transport)
    """

    kind: str
    exponent: float = None
    latent: float = None
    slope: float = 1.0
    table_u: tuple = None
    table_phi: tuple = None

    def __post_init__(self):
        if self.kind == "power":
            if self.exponent is None or not (self.exponent > 0.0):
                raise ConfigurationError("power nonlinearity needs exponent > 0",
                                         field="problem.phi.exponent")
        elif self.kind == "stefan":
            if self.latent is None or not (self.latent > 0.0):
                raise ConfigurationError("stefan nonlinearity needs latent > 0",
                                         field="problem.phi.latent")
        elif self.kind == "table":
            for name in ("table_u", "table_phi"):
                if getattr(self, name) is None:
                    raise ConfigurationError(f"table nonlinearity needs {name}",
                                             field=f"problem.phi.{name}")
            u = np.asarray(self.table_u, dtype=float)
            p = np.asarray(self.table_phi, dtype=float)
            if u.ndim != 1 or u.shape != p.shape or u.size < 2:
                raise ConfigurationError("table needs matching 1d arrays, length >= 2",
                                         field="problem.phi")
            if np.any(np.diff(u) <= 0.0):
                raise ConfigurationError("table abscissae must be strictly increasing",
                                         field="problem.phi.table_u")
            if np.any(np.diff(p) < 0.0):
                raise ConfigurationError("table values must be nondecreasing",
                                         field="problem.phi.table_phi")
            if abs(float(np.interp(0.0, u, p))) > 1e-14:
                raise ConfigurationError("table must pass through the origin",
                                         field="problem.phi.table_phi")
            object.__setattr__(self, "table_u", tuple(float(x) for x in u))
            object.__setattr__(self, "table_phi", tuple(float(x) for x in p))
        elif self.kind not in ("linear", "zero"):
            raise ConfigurationError(f"unknown nonlinearity kind {self.kind!r}",
                                     field="problem.phi.kind")
        if not (self.slope >= 0.0):
            raise ConfigurationError("phi slope must be nonnegative",
                                     field="problem.phi.slope")

    def value(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "power":
            m = self.exponent
            return np.sign(u) * np.abs(u) ** m
        if self.kind == "stefan":
            return np.maximum(u - self.latent, 0.0) + np.minimum(u, 0.0)
        if self.kind == "linear":
            return self.slope * u
        if self.kind == "table":
            return np.interp(u, self.table_u, self.table_phi)
        return np.zeros_like(u)

    def derivative(self, u):
        """A subderivative, for Newton steps only (safeguards tolerate any
        nonnegative value here)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "power":
            m = self.exponent
            with np.errstate(divide="ignore", over="ignore"):
                return m * np.abs(u) ** (m - 1.0)
        if self.kind == "stefan":
            return np.where((u > self.latent) | (u < 0.0), 1.0, 0.0)
        if self.kind == "linear":
            return np.full_like(u, self.slope)
        if self.kind == "table":
            tu = np.asarray(self.table_u)
            tp = np.asarray(self.table_phi)
            slopes = np.diff(tp) / np.diff(tu)
            seg = np.clip(np.searchsorted(tu, u, side="right") - 1, 0, len(slopes) - 1)
            out = slopes[seg]
            return np.where((u < tu[0]) | (u > tu[-1]), 0.0, out)
        return np.zeros_like(u)

    def max_slope(self, bound):
        """Largest slope attained on [-bound, bound]."""
        if self.kind == "power":
            m = self.exponent
            if m >= 1.0:
                return m * bound ** (m - 1.0)
            return math.inf if bound > 0.0 else 0.0
        if self.kind == "stefan":
            return 1.0
        if self.kind == "linear":
            return self.slope
        if self.kind == "table":
            tu = np.asarray(self.table_u)
            tp = np.asarray(self.table_phi)
            return float(np.max(np.diff(tp) / np.diff(tu)))
        return 0.0

    def hoelder_exponent(self, bound=None):
        """Regularity exponent in (0, 1] valid on [-bound, bound]."""
        if self.kind == "power" and self.exponent < 1.0:
            return self.exponent
        return 1.0

    def hoelder_seminorm(self, bound):
        """Seminorm constant paired with hoelder_exponent on [-bound, bound]."""
        if self.kind == "power":
            m = self.exponent
            if m < 1.0:
                return 2.0 ** (1.0 - m)
            return m * bound ** (m - 1.0)
        if self.kind == "stefan":
            return 1.0
        if self.kind == "linear":
            return self.slope
        if self.kind == "table":
            return self.max_slope(bound)
        return 0.0


@dataclass(frozen=True)
class EpSolveConfig:
    """Iteration controls for the resolvent solve.

    residual_tol is the sup-norm stopping level for the full residual
    w - dt L[phi(w)] - rho, relative to the data: the solve stops once the
    residual is at most residual_tol * max(1, |rho|_inf).  scalar_tol is
    the absolute residual level for each per-node scalar solve; the scalar
    iteration also stops once its bracket has collapsed to rounding width.
    max_sweeps caps the iterations of either kind, Newton steps and
    Jacobi sweeps alike; None means max(1000, 10 * node count).
    """

    residual_tol: float = 1e-10
    scalar_tol: float = 1e-13
    max_sweeps: int = None
    max_scalar_iter: int = 300

    def __post_init__(self):
        if not (self.residual_tol > 0.0):
            raise ConfigurationError("residual_tol must be positive", field="solver.residual_tol")
        if not (self.scalar_tol > 0.0):
            raise ConfigurationError("scalar_tol must be positive", field="solver.scalar_tol")
        if self.max_sweeps is not None and self.max_sweeps < 1:
            raise ConfigurationError("max_sweeps must be at least 1", field="solver.max_sweeps")
        if not (self.max_scalar_iter >= 1):
            raise ConfigurationError("max_scalar_iter must be at least 1",
                                     field="solver.max_scalar_iter")

    def sweep_cap(self, node_count):
        if self.max_sweeps is not None:
            return int(self.max_sweeps)
        return max(1000, 10 * int(node_count))


@dataclass(frozen=True)
class EpResult:
    """Solution of one resolvent problem.

    residual_field is recomputed from scratch after the iteration (one
    stencil application), so the reported residual does not rely on the
    iteration's own bookkeeping.  sweeps counts iterations of either kind;
    fallbacks counts the Newton steps rejected for a Jacobi sweep.
    """

    w: np.ndarray
    residual: float
    sweeps: int
    residual_field: np.ndarray
    fallbacks: int


def _solve_scalar_batch(phi, lam, b, warm, tol, max_iter):
    """Solve s + lam * phi(s) = b elementwise.

    The root lies in [min(0, b), max(0, b)] because s and phi(s) share their
    sign.  Power exponents 1/2 and 2 reduce to quadratics and solve in
    closed form (written to avoid cancellation); everything else runs
    Newton from the warm start, clipped to the bracket.  A Newton step is
    rejected (midpoint instead) when the derivative degenerates or the step
    leaves the open bracket, and every fourth iteration bisects regardless
    so the bracket width provably collapses.
    """
    b = np.asarray(b, dtype=float)
    if phi.kind == "zero" or lam == 0.0:
        return b.copy()
    if phi.kind == "linear":
        return b / (1.0 + lam * phi.slope)
    if phi.kind == "power" and phi.exponent == 0.5:
        ab = np.abs(b)
        y = 2.0 * ab / (lam + np.sqrt(lam * lam + 4.0 * ab))
        return np.sign(b) * y * y
    if phi.kind == "power" and phi.exponent == 2.0:
        ab = np.abs(b)
        return np.sign(b) * 2.0 * ab / (1.0 + np.sqrt(1.0 + 4.0 * lam * ab))
    lo = np.minimum(0.0, b)
    hi = np.maximum(0.0, b)
    s = np.clip(np.asarray(warm, dtype=float).copy(), lo, hi)
    eps = np.finfo(float).eps
    active = np.ones(b.shape, dtype=bool)
    for it in range(max_iter):
        fval = s + lam * phi.value(s) - b
        pos = fval > 0.0
        hi = np.where(active & pos, s, hi)
        lo = np.where(active & ~pos, s, lo)
        small = np.abs(fval) <= tol
        collapsed = (hi - lo) <= 4.0 * eps * np.maximum(1.0, np.abs(s))
        active = active & ~(small | collapsed)
        if not np.any(active):
            return s
        mid = 0.5 * (lo + hi)
        if (it + 1) % 4 == 0:
            cand = mid
        else:
            deriv = 1.0 + lam * phi.derivative(s)
            with np.errstate(invalid="ignore", divide="ignore"):
                newton = s - fval / deriv
            bad = (~np.isfinite(newton)) | (deriv < 1e-14) | (newton < lo) | (newton > hi)
            cand = np.where(bad, mid, newton)
        s = np.where(active, cand, s)
    fval = s + lam * phi.value(s) - b
    worst = float(np.max(np.abs(np.where(active, fval, 0.0))))
    raise NonConvergenceError("scalar resolvent did not converge", residual=worst)


def scalar_resolvent(phi, lam, b, tol=1e-13, max_iter=300):
    """Root of s + lam * phi(s) = b for a single value."""
    out = _solve_scalar_batch(phi, float(lam), np.array([float(b)]),
                              np.array([float(b)]), tol, max_iter)
    return float(out[0])


def _jacobi_sweep(phi, dt, W, rho, ns, w, cfg):
    """One nonlinear Jacobi sweep: every node solves its scalar equation
    against the frozen neighbor sum ns = sum_gamma w_gamma phi(w(.+gamma))."""
    return _solve_scalar_batch(phi, dt * W, rho + dt * ns, w, cfg.scalar_tol,
                               cfg.max_scalar_iter)


def _newton_step(phi, K, w, res, lo, hi):
    """w plus the Newton correction for F(w) = w + K phi(w) - rho, where
    K = -dt A is the sparse matrix of -dt L and res = F(w), clipped to
    [lo, hi]."""
    rhs = -res.ravel()
    if phi.kind == "power" and phi.exponent < 1.0:
        # in v = phi(w) the map is beta(v) + K v - rho, beta = phi^(-1)
        inv = 1.0 / phi.exponent
        v = phi.value(w).ravel()
        jac = sparse.diags(inv * np.abs(v) ** (inv - 1.0)) + K
        v = v + spsolve(jac, rhs)
        cand = np.sign(v) * np.abs(v) ** inv
    else:
        jac = sparse.identity(w.size) + K @ sparse.diags(phi.derivative(w).ravel())
        cand = w.ravel() + spsolve(jac, rhs)
    return np.clip(cand.reshape(w.shape), lo, hi)


def solve_ep(stencil, c, phi, dt, rho, config=None, warm_start=None):
    """Solve w - dt * (c Laplacian + stencil)[phi(w)] = rho.

    Returns an EpResult; raises NonConvergenceError, naming the node with
    the worst residual, when the iteration cap is hit with the residual
    still above tolerance.
    """
    cfg = config if config is not None else EpSolveConfig()
    if dt < 0.0:
        raise ConfigurationError("dt must be nonnegative", field="dt")
    grid = rho.grid if isinstance(rho, GridFunction) else None
    rho_vals = rho.values if isinstance(rho, GridFunction) else np.asarray(rho, dtype=float)

    def finish(w, sweeps, fallbacks):
        res_field = w - dt * apply_stencil(stencil, c, phi.value(w)) - rho_vals
        out = GridFunction(grid, w) if grid is not None else w
        return EpResult(w=out, residual=float(np.max(np.abs(res_field))),
                        sweeps=sweeps, residual_field=res_field, fallbacks=fallbacks)

    if dt == 0.0 or phi.kind == "zero":
        return finish(rho_vals.copy(), 0, 0)

    W = _total_weight(stencil, c)
    if warm_start is None:
        w = rho_vals.copy()
    else:
        wv = warm_start.values if isinstance(warm_start, GridFunction) else warm_start
        w = np.asarray(wv, dtype=float).copy()
    cap = cfg.sweep_cap(rho_vals.size)
    tol = cfg.residual_tol * max(1.0, float(np.max(np.abs(rho_vals))))
    K = None
    if stencil.n_offsets <= _KERNEL_THRESHOLD:
        K = dt * (W * sparse.identity(rho_vals.size, format="csr")
                  - _neighbor_matrix(stencil, c, rho_vals.shape))
        lo = min(0.0, float(np.min(rho_vals)))
        hi = max(0.0, float(np.max(rho_vals)))

    def evaluate(w):
        p = phi.value(w)
        ns = _neighbor_sum(stencil, c, p)
        res = w - dt * (ns - W * p) - rho_vals
        return ns, res, float(np.max(np.abs(res)))

    sweeps = fallbacks = 0
    ns, res, r = evaluate(w)
    while r > tol:
        if sweeps >= cap:
            cell = np.unravel_index(np.argmax(np.abs(res)), res.shape)
            raise NonConvergenceError(
                f"resolvent solve stalled after {sweeps} sweeps at residual {r:.3g}, "
                f"above the tolerance {tol:.3g}",
                residual=r, sweeps=sweeps, cell=tuple(int(i) for i in cell))
        sweeps += 1
        if K is not None:
            cand = _newton_step(phi, K, w, res, lo, hi)
            trial = evaluate(cand)
            if trial[2] < r:
                w, (ns, res, r) = cand, trial
                continue
            fallbacks += 1
        w = _jacobi_sweep(phi, dt, W, rho_vals, ns, w, cfg)
        ns, res, r = evaluate(w)
    return finish(w, sweeps, fallbacks)
