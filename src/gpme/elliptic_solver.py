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
Nonlinear Equations in Several Variables, 1970, ch. 13).  Every iteration
is a safeguarded Newton step: solve J delta = -F(w), in v = phi(w) instead
of w for power exponents below 1 (phi' is unbounded at 0, while the
inverse's derivative is bounded there), and clip the result to the
comparison bracket [min(0, min rho), max(0, max rho)].  The step is kept
if it lowers the sup-norm residual; otherwise it is halved, up to four
times, and if no length does, the iteration falls back to one nonlinear
Jacobi sweep from the previous iterate.  The offset count picks the
linear solve: up to ``_KERNEL_THRESHOLD`` measure offsets a direct one,
banded LU on the line (LAPACK band storage filled from the offsets, no
sparse matrix) and sparse LU on the matrix of
``levy_operators._neighbor_matrix`` for N >= 2; above it, restarted
GMRES with J applied matrix-free through the operator's rFFT spectrum,
computed once per solve (an inexact Newton step, Kelley, Iterative
Methods for Linear and Nonlinear Equations, 1995, ch. 6).  Both LU
factorizations are well-posed because J is a nonsingular M-matrix.

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
from scipy.linalg import solve_banded, solve_triangular
from scipy.sparse.linalg import spsolve, splu

from .errors import ConfigurationError, NonConvergenceError
from .grid_field import GridFunction
from .levy_operators import (_KERNEL_THRESHOLD, WeightedStencil, _neighbor_matrix,
                             _neighbor_operator, _total_weight, apply_stencil)

__all__ = [
    "PhiSpec",
    "EpSolveConfig",
    "EpResult",
    "solve_ep",
]

# a rejected Newton step is halved up to this many times before the
# iteration falls back to a Jacobi sweep
_HALVINGS = 4
# GMRES stops once the linear residual's 2-norm is this share of the
# stopping level, or after _RESTARTS cycles of _RESTART iterations
_GMRES_SHARE = 0.1
_RESTART = 20
_RESTARTS = 10


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

    def hoelder_exponent(self):
        """Regularity exponent in (0, 1], valid on every bounded interval."""
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
            return float(np.max(np.diff(self.table_phi) / np.diff(self.table_u)))
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

    residual_tol: float = 1e-13
    scalar_tol: float = 1e-14
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

    residual_field is computed from the returned w by one application of
    the operator, so the reported residual does not rely on the
    iteration's own bookkeeping.  sweeps counts iterations of either kind;
    fallbacks counts the iterations in which the Newton step and all its
    halvings were rejected for a Jacobi sweep.
    """

    w: np.ndarray
    residual: float
    sweeps: int
    residual_field: np.ndarray
    fallbacks: int


def _solve_scalar_batch(phi, lam, b, warm, tol, max_iter):
    """Solve s + lam * phi(s) = b elementwise.

    The root lies in [min(0, b), max(0, b)] because s and phi(s) share their
    sign.  A linear phi solves in closed form; everything else runs Newton
    from the warm start, clipped to the bracket.  A Newton step is
    rejected (midpoint instead) when the derivative degenerates or the step
    leaves the open bracket, and every fourth iteration bisects regardless
    so the bracket width provably collapses.
    """
    b = np.asarray(b, dtype=float)
    if phi.kind == "zero" or lam == 0.0:
        return b.copy()
    if phi.kind == "linear":
        return b / (1.0 + lam * phi.slope)
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
        collapsed = (hi - lo) <= 4.0 * eps * np.maximum(np.abs(lo), np.abs(hi))
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


def _jacobi_sweep(phi, dt, W, rho, ns, w, cfg):
    """One nonlinear Jacobi sweep: every node solves its scalar equation
    against the frozen neighbor sum ns = sum_gamma w_gamma phi(w(.+gamma))."""
    return _solve_scalar_batch(phi, dt * W, rho + dt * ns, w, cfg.scalar_tol,
                               cfg.max_scalar_iter)


def _banded_solver(stencil, c, n, dt, W):
    """The short-stencil solve on a line of n nodes by banded LU with
    partial pivoting (LAPACK gbsv, or gtsv for a tridiagonal band).
    Offset gamma of the neighbor sum sits on band row k - gamma of the
    storage, k the half-bandwidth; its entry in column j is
    -dt w_gamma d_j wherever node j - gamma lies on the line.  Offsets as
    long as the line never land on it, so k is at most n - 1."""
    offsets = stencil.offsets[:, 0].tolist()
    weights = stencil.weights.tolist()
    if c:
        offsets += [1, -1]
        weights += [1.0 / stencil.h ** 2] * 2
    k = min(max(map(abs, offsets), default=0), n - 1)
    bands = np.zeros((2 * k + 1, n))
    for off, w in zip(offsets, weights):
        if abs(off) <= k:
            # a measure offset on a nearest neighbor adds to its weight
            bands[k - off, max(off, 0):n + min(off, 0)] -= dt * w
    dtW = dt * W

    def solve(a, d, rhs, tol):
        ab = bands * d
        ab[k] += a + dtW * d
        return solve_banded((k, k), ab, rhs, check_finite=False)
    return solve


def _linear_solver(stencil, c, shape, dt, W, neighbor):
    """solve(a, d, rhs, tol): x with (diag(a) + K diag(d)) x = rhs, where
    K = dt (W I - A) is the matrix of -dt L on a box of the given shape.

    Up to ``_KERNEL_THRESHOLD`` measure offsets the system is solved
    directly: on the line by banded LU, storage filled straight from the
    offsets (``_banded_solver``), and for N >= 2 by sparse LU, K assembled
    from ``_neighbor_matrix``.  Either factorization is well-posed because
    the matrix is a nonsingular M-matrix for every d >= 0.  Above the
    threshold the system is solved by GMRES, K applied matrix-free through
    ``neighbor``, to a residual of at most tol in the 2-norm (an inexact
    step: the caller's safeguard judges it).  For c = 1 GMRES is
    preconditioned by the sparse LU of the near part's Jacobian: K with A
    cut to the c/h^2 neighbors and the measure offsets with
    |gamma|_inf <= 1, the diagonal kept whole.  For c = 0 GMRES runs
    unpreconditioned: in w the Jacobian's spectrum lies in
    [1, 1 + 2 dt W max phi'].
    """
    short = stencil.n_offsets <= _KERNEL_THRESHOLD
    if short and len(shape) == 1:
        return _banded_solver(stencil, c, shape[0], dt, W)
    size = math.prod(shape)
    identity = sparse.identity(size, format="csr")
    if short:
        K = dt * (W * identity - _neighbor_matrix(stencil, c, shape))

        def solve(a, d, rhs, tol):
            return spsolve(sparse.diags(a) + K @ sparse.diags(d), rhs)
        return solve
    if c:
        close = np.max(np.abs(stencil.offsets), axis=1) <= 1
        near = WeightedStencil(h=stencil.h, dim=stencil.dim, offsets=stencil.offsets[close],
                               weights=stencil.weights[close])
        K_near = dt * (W * identity - _neighbor_matrix(near, c, shape))

    def solve(a, d, rhs, tol):
        def matvec(x):
            y = d * x
            return a * x + dt * (W * y - neighbor(y.reshape(shape)).ravel())

        precondition = None
        if c:
            precondition = splu(sparse.csc_matrix(sparse.diags(a) + K_near @ sparse.diags(d))).solve
        return _gmres(matvec, precondition, rhs, tol)
    return solve


def _dot(u, v):
    # numpy's pairwise sum, not BLAS ddot: OpenBLAS splits long vectors
    # across threads, which would make the result depend on GPME_THREADS
    return float(np.sum(u * v))


def _gmres(matvec, precondition, b, tol):
    """Restarted GMRES (Saad & Schultz 1986) for A x = b from x = 0, right
    preconditioned by ``precondition`` when one is given: Arnoldi by
    modified Gram-Schmidt, the small least-squares problem by Givens
    rotations.  Returns x once |b - A x|_2 <= tol, or after ``_RESTARTS``
    cycles of ``_RESTART`` iterations.  Every reduction is a numpy sum, so
    the iterates are the same bits under any thread count."""
    x = np.zeros_like(b)
    r = b
    for _ in range(_RESTARTS):
        beta = math.sqrt(_dot(r, r))
        if beta <= tol:
            break
        basis, directions = [r / beta], []
        R = np.zeros((_RESTART, _RESTART))
        cs, sn = np.zeros(_RESTART), np.zeros(_RESTART)
        g = np.zeros(_RESTART + 1)
        g[0] = beta
        for j in range(_RESTART):
            directions.append(basis[j] if precondition is None else precondition(basis[j]))
            v = matvec(directions[j])
            for i in range(j + 1):
                R[i, j] = _dot(basis[i], v)
                v = v - R[i, j] * basis[i]
            below = math.sqrt(_dot(v, v))
            for i in range(j):
                R[i, j], R[i + 1, j] = (cs[i] * R[i, j] + sn[i] * R[i + 1, j],
                                        cs[i] * R[i + 1, j] - sn[i] * R[i, j])
            norm = math.hypot(R[j, j], below)
            cs[j], sn[j] = R[j, j] / norm, below / norm
            R[j, j] = norm
            g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
            # |g[j + 1]| is the residual norm, 0 once the Krylov space is
            # invariant (below = 0)
            if abs(g[j + 1]) <= tol:
                break
            basis.append(v / below)
        y = solve_triangular(R[:j + 1, :j + 1], g[:j + 1])
        for coef, direction in zip(y, directions):
            x = x + coef * direction
        if abs(g[j + 1]) <= tol:
            break
        r = b - matvec(x)
    return x


def _newton_candidates(phi, solve, w, res, lo, hi, tol):
    """The Newton step for F(w) = w + K phi(w) - rho, with res = F(w), and
    then that step halved, up to ``_HALVINGS`` times; each candidate
    clipped to [lo, hi].  The step is taken in v = phi(w) for power
    exponents below 1."""
    rhs = -res.ravel()
    if phi.kind == "power" and phi.exponent < 1.0:
        # in v = phi(w) the map is beta(v) + K v - rho, beta = phi^(-1)
        inv = 1.0 / phi.exponent
        base = phi.value(w).ravel()
        step = solve(inv * np.abs(base) ** (inv - 1.0), np.ones(w.size), rhs, tol)

        def back(v):
            return np.sign(v) * np.abs(v) ** inv
    else:
        base = w.ravel()
        step = solve(np.ones(w.size), phi.derivative(w).ravel(), rhs, tol)

        def back(x):
            return x
    for k in range(_HALVINGS + 1):
        yield np.clip(back(base + step / 2 ** k).reshape(w.shape), lo, hi)


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

    def finish(w, res_field, sweeps, fallbacks):
        out = GridFunction(grid, w) if grid is not None else w
        return EpResult(w=out, residual=float(np.max(np.abs(res_field))),
                        sweeps=sweeps, residual_field=res_field, fallbacks=fallbacks)

    if dt == 0.0 or phi.kind == "zero":
        w = rho_vals.copy()
        return finish(w, w - dt * apply_stencil(stencil, c, phi.value(w)) - rho_vals, 0, 0)

    W = _total_weight(stencil, c)
    if warm_start is None:
        w = rho_vals.copy()
    else:
        wv = warm_start.values if isinstance(warm_start, GridFunction) else warm_start
        w = np.asarray(wv, dtype=float).copy()
    cap = cfg.sweep_cap(rho_vals.size)
    tol = cfg.residual_tol * max(1.0, float(np.max(np.abs(rho_vals))))
    lo = min(0.0, float(np.min(rho_vals)))
    hi = max(0.0, float(np.max(rho_vals)))
    neighbor = _neighbor_operator(stencil, c, rho_vals.shape)
    solve = _linear_solver(stencil, c, rho_vals.shape, dt, W, neighbor)

    def evaluate(w):
        p = phi.value(w)
        ns = neighbor(p)
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
        for cand in _newton_candidates(phi, solve, w, res, lo, hi, _GMRES_SHARE * tol):
            trial = evaluate(cand)
            if trial[2] < r:
                w, (ns, res, r) = cand, trial
                break
        else:
            fallbacks += 1
            w = _jacobi_sweep(phi, dt, W, rho_vals, ns, w, cfg)
            ns, res, r = evaluate(w)
    return finish(w, res, sweeps, fallbacks)
