"""Nonlinear resolvent solves: given rho, find w with

    F(w) = w - dt * L[phi(w)] - rho = 0

for a monotone nonlinearity phi (phi(0) = 0) and the discrete operator L.
The operator L is one stencil of ``levy_operators``, the Laplacian's
nearest neighbors merged in for c = 1: the sum runs over its offsets, and
W = ``stencil.total_weight`` is their total weight.

F is an M-function: its Jacobian I + K D, with K = dt (W I - A) the
matrix of -dt L and D = diag(phi'(w)), has unit-dominant columns and
nonpositive off-diagonals, so it is a nonsingular M-matrix for every
phi' >= 0, the flat part of a Stefan nonlinearity included (Ortega &
Rheinboldt, Iterative Solution of Nonlinear Equations in Several
Variables, 1970, ch. 13).  Every iteration is a safeguarded Newton step:
solve J delta = -F(w), in v = phi(w) instead of w for power exponents
below 1 (phi' is unbounded at 0, while the inverse's derivative is
bounded there), and clip the result to the comparison bracket
[min(0, min rho), max(0, max rho)].  The step is kept if it lowers the
sup-norm residual; otherwise it is halved, up to four times, and if no
length does, the iteration falls back to one nonlinear Jacobi sweep from
the previous iterate.  The iteration starts from the caller's warm
start, clipped to the bracket, where the solution lies.
The operator is one ``_Resolvent`` per box, which stores, applies and
solves it.  ``_Resolvent.solve`` solves each Newton system: on the line
for a short stencil as it stands, by one banded LU, which needs no row
exchange on a column diagonally dominant M-matrix; on the line for a
dense kernel with constant coefficients (every linear phi) directly,
as the symmetric positive definite Toeplitz system it is, by the
Gohberg-Semencul form of its inverse in three rFFT round trips;
otherwise, as the stencil weights are symmetric and K is symmetric
positive definite, in an SPD form by preconditioned conjugate gradients
(an inexact Newton step, Kelley, Iterative Methods for Linear and
Nonlinear Equations, 1995, ch. 6), preconditioned by the inverse of the
operator's circulant for constant coefficients, by Jacobi otherwise.

For a power phi each linear solve is asked only for the quadratic
forcing level max(_CG_SHARE tol, min(_CG_SHARE, |F(w)|_2) |F(w)|_2) in
the 2-norm, tol the stopping level: far from the root the solve stops
early, and a forcing term O(|F(w)|) keeps Newton's local quadratic
convergence (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982;
Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996).  Every other phi is
piecewise linear and is solved to the fixed level _CG_SHARE tol: its
Newton map is not smooth at the knots, where loose early solves cost
outer steps instead of saving work.  A linear phi's Newton system is the
problem itself, so one Newton step meets the stopping level.

The sweep freezes the neighbor sum and solves the strictly increasing
scalar equation

    s + dt * W * phi(s) = rho_beta + dt * sum_gamma w_gamma phi(w(beta+gamma))

per node: in closed form for a piecewise-linear phi (every kind but
``power``), by safeguarded Newton inside [min(0, b), max(0, b)] for a power.
It is a sup-norm contraction with factor dt*W*Lip(phi) / (1 + dt*W*Lip(phi)),
so a run of sweeps alone needs a number of iterations that grows with
dt * W but not with the grid size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NonConvergenceError
from .levy_operators import combine_with_laplacian

__all__ = [
    "PHI_KINDS",
    "PhiSpec",
    "EpSolveConfig",
    "EpResult",
    "solve_ep",
    "apply_stencil",
]

# a rejected Newton step is halved up to this many times before the
# iteration falls back to a Jacobi sweep
_HALVINGS = 4
# a Newton system is solved to at least this share of the stopping level
# in the 2-norm, and it is also the forcing term's largest factor;
# conjugate gradients stop there or after _CG_CAP iterations
_CG_SHARE = 0.1
_CG_CAP = 500
# a Jacobi sweep's per-node scalar solve stops at this absolute residual,
# once its bracket has collapsed to rounding width, or after
# _SCALAR_ITER iterations
_SCALAR_TOL = 1e-14
_SCALAR_ITER = 300
# a resolvent solve takes at most max(_MIN_SWEEPS, _SWEEPS_PER_NODE * nodes)
# iterations of either kind, Newton steps and Jacobi sweeps alike
_MIN_SWEEPS = 1000
_SWEEPS_PER_NODE = 10


class _PiecewiseLinear:
    """Continuous and piecewise linear through the knots, the origin among
    them, with rays beyond the ends: slopes[k] is the slope of piece k,
    between knots k - 1 and k.  A piece is evaluated from its end nearer
    the origin (``anchors``), so a linear f is slope * u exactly."""

    def __init__(self, knots, values, ends):
        knots, values = np.asarray(knots, dtype=float), np.asarray(values, dtype=float)
        slopes = np.concatenate(([ends[0]], np.diff(values) / np.diff(knots), [ends[1]]))
        origin = int(np.searchsorted(knots, 0.0))
        if origin == knots.size or knots[origin] != 0.0:
            near = min(origin, knots.size - 1)
            values = np.insert(values, origin, values[near] - slopes[origin] * knots[near])
            knots = np.insert(knots, origin, 0.0)
            slopes = np.insert(slopes, origin, slopes[origin])
        self.knots, self.values, self.slopes, self.origin = knots, values, slopes, origin
        self.anchors = np.concatenate((np.arange(origin + 1), np.arange(origin, knots.size)))

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        piece = np.searchsorted(self.knots, u, "right")
        at = self.anchors[piece]
        return self.values[at] + self.slopes[piece] * (u - self.knots[at])

    def slope(self, u):
        """A subderivative: at a knot the slope on its right, but at the
        last knot the slope on its left."""
        u = np.asarray(u, dtype=float)
        return self.slopes[np.searchsorted(self.knots[:-1], u, "right") + (u > self.knots[-1])]

    def lipschitz(self):
        return float(np.max(np.abs(self.slopes)))

    def root(self, lam, b):
        """The root of s + lam f(s) = b for lam >= 0 and f nondecreasing:
        b's inverse interpolation through the knots' images, clipped to its
        piece and to [min(0, b), max(0, b)], so nondecreasing in b."""
        b = np.asarray(b, dtype=float)
        images = self.knots + lam * self.values
        piece = np.searchsorted(images, b, "right")
        at = self.anchors[piece]
        s = self.knots[at] + (b - images[at]) / (1.0 + lam * self.slopes[piece])
        edges = np.concatenate(([-np.inf], self.knots, [np.inf]))
        return np.clip(s, np.maximum(edges[piece], np.minimum(b, 0.0)),
                       np.minimum(edges[piece + 1], np.maximum(b, 0.0)))

    def split(self):
        """a -> integral_0^a max(f', 0) and a -> integral_0^a min(f', 0)."""
        for part in (np.maximum(self.slopes, 0.0), np.minimum(self.slopes, 0.0)):
            values = np.concatenate(([0.0], np.cumsum(part[1:-1] * np.diff(self.knots))))
            yield _PiecewiseLinear(self.knots, values - values[self.origin], part[[0, -1]])


# each piecewise-linear phi's knots, values and slopes beyond the ends
_PHI_PIECES = {
    "linear": lambda phi: ((0.0,), (0.0,), (phi.slope, phi.slope)),
    "zero": lambda phi: ((0.0,), (0.0,), (0.0, 0.0)),
    "stefan": lambda phi: ((0.0, phi.latent), (0.0, 0.0), (1.0, 1.0)),
    "table": lambda phi: (phi.table_u, phi.table_phi, (0.0, 0.0)),
}
PHI_KINDS = ("power", *_PHI_PIECES)


@dataclass(frozen=True)
class PhiSpec:
    """Monotone nonlinearity through the origin.

    kinds (``PHI_KINDS``; all but ``power`` held once per spec as a
    ``_PiecewiseLinear``):
      * ``power``: sign(u) |u|^m, exponent m > 0
      * ``linear``: slope * u
      * ``zero``: identically zero (pure transport)
      * ``stefan``: (u - latent)^+ + min(u, 0); flat on [0, latent]
      * ``table``: piecewise-linear through given (u, phi) pairs, constant
        beyond the ends
    """

    kind: str
    exponent: float = None
    latent: float = None
    slope: float = 1.0
    table_u: tuple = None
    table_phi: tuple = None

    def __post_init__(self):
        for name in ("table_u", "table_phi"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
        for kind, name in (("power", "exponent"), ("stefan", "latent")):
            if self.kind == kind and not (getattr(self, name) or 0.0) > 0.0:
                raise ConfigurationError(f"{kind} nonlinearity needs {name} > 0",
                                         field=f"problem.phi.{name}")
        if self.kind == "table":
            for name in ("table_u", "table_phi"):
                if getattr(self, name) is None:
                    raise ConfigurationError(f"table nonlinearity needs {name}",
                                             field=f"problem.phi.{name}")
            u, p = np.asarray(self.table_u, dtype=float), np.asarray(self.table_phi, dtype=float)
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
        elif self.kind not in PHI_KINDS:
            raise ConfigurationError(f"unknown nonlinearity kind {self.kind!r}",
                                     field="problem.phi.kind")
        if not (self.slope >= 0.0):
            raise ConfigurationError("phi slope must be nonnegative",
                                     field="problem.phi.slope")
        object.__setattr__(self, "_pieces", None if self.kind == "power" else
                           _PiecewiseLinear(*_PHI_PIECES[self.kind](self)))

    def value(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "power":
            return np.sign(u) * np.abs(u) ** self.exponent
        return self._pieces(u)

    def derivative(self, u):
        """A subderivative, for Newton steps only (safeguards tolerate any
        nonnegative value here)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "power":
            m = self.exponent
            with np.errstate(divide="ignore", over="ignore"):
                return m * np.abs(u) ** (m - 1.0)
        return self._pieces.slope(u)

    def hoelder_exponent(self):
        """Regularity exponent in (0, 1], valid on every bounded interval."""
        return min(self.exponent, 1.0) if self.kind == "power" else 1.0

    def hoelder_seminorm(self, bound):
        """Seminorm constant paired with hoelder_exponent on [-bound, bound]."""
        if self.kind == "power":
            m = self.exponent
            if m < 1.0:
                return 2.0 ** (1.0 - m)
            return m * bound ** (m - 1.0)
        return self._pieces.lipschitz()


@dataclass(frozen=True)
class EpSolveConfig:
    """Iteration controls for the resolvent solve.

    residual_tol is the sup-norm stopping level for the full residual
    w - dt L[phi(w)] - rho, relative to the data: the solve stops once the
    residual is at most residual_tol * max(1, |rho|_inf).
    """

    residual_tol: float = 1e-13

    def __post_init__(self):
        if not (self.residual_tol > 0.0):
            raise ConfigurationError("residual_tol must be positive", field="solver.residual_tol")


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


def _solve_scalar_batch(phi, lam, b, warm):
    """Solve s + lam * phi(s) = b elementwise.

    The root lies in [min(0, b), max(0, b)] because s and phi(s) share their
    sign.  A piecewise-linear phi is solved in closed form
    (``_PiecewiseLinear.root``); a power phi runs Newton from the warm
    start, clipped to the bracket.  A Newton step is rejected (midpoint
    instead) when the derivative degenerates or the step leaves the open
    bracket, and every fourth iteration bisects regardless.
    """
    if phi.kind != "power":
        return phi._pieces.root(lam, b)
    b = np.asarray(b, dtype=float)
    lo = np.minimum(0.0, b)
    hi = np.maximum(0.0, b)
    s = np.clip(np.asarray(warm, dtype=float), lo, hi)
    eps = np.finfo(float).eps
    active = np.ones(b.shape, dtype=bool)
    for it in range(_SCALAR_ITER):
        fval = s + lam * phi.value(s) - b
        pos = fval > 0.0
        hi = np.where(active & pos, s, hi)
        lo = np.where(active & ~pos, s, lo)
        small = np.abs(fval) <= _SCALAR_TOL
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


def _jacobi_sweep(phi, dt, W, rho, ns, w):
    """One nonlinear Jacobi sweep: every node solves its scalar equation
    against the frozen neighbor sum ns = sum_gamma w_gamma phi(w(.+gamma))."""
    return _solve_scalar_batch(phi, dt * W, rho + dt * ns, w)


def banded_lu(ab, b):
    """x with M x = b, M a band matrix of half-bandwidth k held in LAPACK's
    dgbsv layout: 3k + 1 rows, M[i, j] at ab[2k + i - j, j], the first k
    rows left for the fill-in of row interchanges.  One banded LU: dgtsv
    for a tridiagonal M, dgbsv otherwise, both from scipy.linalg.lapack,
    imported when first called.  ab is overwritten."""
    from scipy.linalg import lapack

    k = (len(ab) - 1) // 3
    if k == 1:
        *_, x, info = lapack.dgtsv(ab[3, :-1], ab[2], ab[1, 1:], b, 1, 1, 1, 0)
    else:
        *_, x, info = lapack.dgbsv(k, k, ab, b, 1, 0)
    if info:
        raise np.linalg.LinAlgError(f"banded LU failed with LAPACK info {info}")
    return x


def _jacobi(diagonal):
    """r -> r / diagonal: the Jacobi preconditioner of a matrix with that
    diagonal."""
    return lambda r: r / diagonal


# up to this offset count a stencil is applied by shifted slices, and on
# the line solved by its band; beyond it, applied by rFFT convolution
# (``_Resolvent``)
_KERNEL_THRESHOLD = 64
# the line's Toeplitz generator T^(-1) e_1 (``_Resolvent._toeplitz``) is
# solved for by conjugate gradients to this residual in the 2-norm, then
# refined once to its square, which leaves its error at rounding level
_GENERATOR_SHARE = 1e-8


def _next_fast_len(n):
    """The smallest 2-3-5-smooth integer at least n >= 1, a length whose
    real FFT pocketfft factors into its fastest radices (the value of
    ``scipy.fft.next_fast_len(n, real=True)``)."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two times p35 reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _circular(values, multiplier, lengths):
    """irfftn(rfftn(values, L) * multiplier, L) on the circular lengths L,
    restricted to the box of values: a circular convolution when the
    multiplier is a kernel's spectrum."""
    axes = tuple(range(values.ndim))
    box = tuple(slice(0, n) for n in values.shape)
    return np.fft.irfftn(np.fft.rfftn(values, lengths, axes) * multiplier, lengths, axes)[box]


class _Resolvent:
    """The operator of one whole stencil (c merged in, as
    ``OperatorSpec.build_stencil`` returns it) on a box of the given
    shape, built once for every application and resolvent solve on that
    box, whatever their dt and data: the ``stencil``, its total weight
    W, the neighbor sum A, values -> sum_gamma w_gamma values(. + gamma)
    with zero extension outside the box (``neighbor``), ``escape``,
    W - A 1 per node, the total weight of the jumps that leave the box
    (the diffusive leak rate is h^N sum phi(U) escape), and the Newton
    systems' solve (``solve``).  ``evolution.run`` builds one per run
    from its ``OperatorSpec`` (``of``, which records the spec) and hands
    it to every ``evolution.step`` and to the tail certificate, which
    checks it against its problem (``check_operator``); ``solve_ep`` and
    ``apply_stencil`` build their own when given none, and reject one
    built for another stencil or box.

    The box's zero extension lives here alone: u = 0 outside the box, so
    a jump beta -> beta + gamma lands on a node or leaves the box, into
    the escape.  Offsets at least n_i long on some axis never land and
    are dropped.  Up to ``_KERNEL_THRESHOLD`` offsets, in any dimension,
    the ``shifts`` hold each kept offset, in lexicographic order, as its
    scalar weight and the slices of the nodes beta (dst) and beta + gamma
    (src) that both lie in the box.  A is applied by numpy alone, here by
    one shifted slice per offset, summed from zeros; the line's band and
    the CSR matrix (``_assemble``) are filled from the shifts too, so a
    CSR row sum over the C-order flattened nodes adds the terms of
    ``neighbor`` in its order, to its bits.  Above the threshold A is a
    circular convolution by numpy's rFFT with the real ``spectrum`` of
    the kernel on the circular ``lengths`` L: the kernel is symmetric, so
    correlation equals convolution and its spectrum is real.  With the
    kept offsets reaching K_i, at least 1, a circular length of at least
    n_i + K_i per axis (``_next_fast_len``) wraps every jump out of the
    box onto the zero padding, never onto a node.

    The Newton systems read a second form.  On the line a short stencil
    is also held as the ``band`` of W I - A, in ``banded_lu``'s layout
    (scipy.linalg at the first solve).  Every other stencil, dense or
    short in N >= 2 dimensions, has the ``spectrum`` on its ``lengths``,
    which preconditions its constant-coefficient conjugate gradients
    (``_spd``).  On the line a dense kernel's constant-coefficient
    systems are solved directly instead, from one Toeplitz generator,
    computed by those conjugate gradients at the first such system and
    held as two spectra until one with another mu comes (``_toeplitz``).
    Only the first variable-coefficient system of a short stencil in
    N >= 2 dimensions assembles the CSR matrix W I - A (scipy.sparse),
    for Jacobi-PCG."""

    def __init__(self, stencil, shape):
        self.stencil, self.shape = stencil, tuple(shape)
        self.operator = None
        self.W = W = stencil.total_weight
        self.shifts = self.spectrum = self.lengths = self.band = self._csr = None
        self._generator = None
        inside = np.all(np.abs(stencil.offsets) < np.array(shape), axis=1)
        offsets, weights = stencil.offsets[inside], stencil.weights[inside]
        short = stencil.n_offsets <= _KERNEL_THRESHOLD
        if short:
            # row beta reads beta + off wherever both lie in the box
            order = np.lexsort(offsets.T[::-1])
            self.shifts = [(w, tuple(slice(max(-k, 0), n - max(k, 0)) for n, k in zip(shape, off)),
                            tuple(slice(max(k, 0), n + min(k, 0)) for n, k in zip(shape, off)))
                           for off, w in zip(offsets[order].tolist(), weights[order].tolist())]
        if short and len(shape) == 1:
            # the weight at offset j = src - dst is A[i, i + j], so it fills
            # row 2k - j of the band over the columns src, k the half-bandwidth
            k = max((src.start - dst.start for _, (dst,), (src,) in self.shifts), default=0)
            self.band = np.zeros((3 * k + 1, shape[0]))
            self.band[2 * k] = W
            for w, (dst,), (src,) in self.shifts:
                self.band[2 * k + dst.start - src.start, src] -= w
        else:
            reach = np.max(np.abs(offsets), axis=0, initial=1)
            self.lengths = tuple(_next_fast_len(int(n + k)) for n, k in zip(shape, reach))
            kernel = np.zeros(self.lengths)
            kernel[tuple(offsets.T)] = weights
            self.spectrum = np.fft.rfftn(kernel).real
        self.escape = W - self.neighbor(np.ones(shape))

    @classmethod
    def of(cls, operator, grid):
        """The operator of an ``OperatorSpec`` on grid's box, from its
        ``build_stencil``, recording ``operator`` for ``check_operator``."""
        resolvent = cls(operator.build_stencil(grid), grid.shape)
        resolvent.operator = operator
        return resolvent

    def check_operator(self, operator, grid):
        """Raise a ConfigurationError unless this is ``operator`` at grid's
        mesh width: read off the ``OperatorSpec`` recorded by ``of``, or,
        for one built from a bare stencil, by building ``operator``'s
        stencil and comparing (``_held``).  Another box is rejected by
        ``neighbor``."""
        if self.operator is None:
            _held(operator.build_stencil(grid), grid.shape, self)
        elif self.operator != operator or self.stencil.h != grid.h:
            raise ConfigurationError(f"an operator built for another operator ({self.operator}, "
                                     f"h = {self.stencil.h:g}) cannot act as this one "
                                     f"({operator}, h = {grid.h:g})")

    def neighbor(self, values):
        """A values, for values on the operator's box."""
        if values.shape != self.shape:
            raise ConfigurationError(f"an operator built for a box of shape {self.shape} "
                                     f"cannot act on shape {values.shape}")
        if self.shifts is None:
            return _circular(values, self.spectrum, self.lengths)
        out = np.zeros(self.shape)
        for w, dst, src in self.shifts:
            out[dst] += w * values[src]
        return out

    def solve(self, dt, a, d, rhs, tol):
        """x with (diag(a) + K diag(d)) x = rhs, K = dt (W I - A) the matrix
        of -dt L, for the two systems a Newton step builds: d = 1 with
        a >= 0 (in v), or a = 1 with d >= 0 (in w).

        Both are column diagonally dominant M-matrices: the off-diagonal
        entries of column j sum to at most dt W d_j in magnitude.  On the
        line a short stencil's system is banded and is solved as it stands
        by one ``banded_lu``, which on such a matrix exchanges no rows
        (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
        sec. 9.5); it is direct and reads no tol.

        The weights' symmetry makes K a symmetric nonsingular M-matrix,
        hence positive definite.  On the line a dense kernel's system with
        a constant a > 0 and a constant d, in v or in w (every linear phi,
        whatever its slope), is a symmetric positive definite Toeplitz
        matrix, a (I + mu (W I - A)) with mu = dt d / a, and is solved as
        it stands by ``_toeplitz``, directly; it reads tol only to decide
        whether a generator held for a nearby mu serves.

        Otherwise both systems are solved in the SPD form
        diag(a) + S K S (``_spd``): with S = I for d = 1, and
        otherwise as (I + S K S) z = S rhs, S = diag(d)^(1/2), mapped back
        by x = rhs - K S z, which divides by no entry of d (the flat part
        of a Stefan nonlinearity, d = 0, needs no care).  The result is an
        inexact Newton step whose residual is at most tol in the 2-norm,
        up to rounding (the caller's safeguard judges it).  In w it is
        K S r_z for the residual r_z of z, at most 2 dt W max(s) |r_z|: z
        is solved to that share of tol, and as the map back grows z's
        rounding by that factor, an x left above tol gets one iterative
        refinement step."""
        if self.band is not None:
            ab = dt * self.band * d
            ab[2 * (len(ab) - 1) // 3] += a
            return banded_lu(ab, rhs)
        if len(self.shape) == 1 and a[0] > 0.0 and (a == a[0]).all() and (d == d[0]).all():
            return self._toeplitz(dt * d[0] / a[0], rhs / a[0], tol / a[0])
        if (d == 1.0).all():
            return self._spd(dt, a, d, rhs, tol)
        s = np.sqrt(d)
        z_tol = tol / (2.0 * dt * self.W * float(s.max()) or 1.0)
        x = rhs - self._stiffness(dt, s * self._spd(dt, a, s, s * rhs, z_tol))
        r = rhs - x - self._stiffness(dt, d * x)
        if _dot(r, r) > tol * tol:
            x += r - self._stiffness(dt, s * self._spd(dt, a, s, s * r, z_tol))
        return x

    def _stiffness(self, dt, y):
        """K y for the flattened y."""
        return dt * (self.W * y - self.neighbor(y.reshape(self.shape)).ravel())

    def _toeplitz(self, mu, b, tol):
        """x with T x = b for the symmetric positive definite Toeplitz
        matrix T = I + mu (W I - A) of a dense kernel on the line, n nodes,
        to a residual of at most tol in the 2-norm, up to rounding.

        T's inverse is fixed by its first column x = T^(-1) e_1, the
        generator, by the Gohberg-Semencul formula (Gohberg & Semencul,
        Mat. Issled. 7, 1972; Ammar & Gader, SIAM J. Matrix Anal. Appl. 12,
        1991): T^(-1) = (L(x) L(x)^T - L(ZJx) L(ZJx)^T) / x_0, L(v) the
        lower triangular Toeplitz matrix with first column v, J the
        reversal and Z the down-shift.  The generator is computed by the
        circulant-preconditioned conjugate gradients of ``_spd`` to
        ``_GENERATOR_SHARE`` and refined once, and held, scaled by
        x_0^(-1/2), as the rFFTs of x and ZJx on its own circular length,
        at least 2n - 1, whatever the kernel's ``lengths`` (a support cut
        below the box makes those shorter).  On it L(v) y is the first n
        entries of a circular convolution, and L(v)^T y = J L(v) J y:
        three rFFT round trips per solve, from one transform of J b, and
        two spectra held, one row at a time in flight.

        A generator is kept for the systems that follow.  One held for mu_0
        solves T_0 x = b instead, whose residual in T x = b is
        (mu - mu_0)(W I - A) x, at most 2 W |mu - mu_0| |b|_2 as T_0 >= I:
        while that is at most tol the held generator serves, so the steps
        of ``TimeGrid.uniform``, which differ by rounding, share one, and
        otherwise it is replaced."""
        n = b.size
        held = self._generator
        if held is None or 2.0 * self.W * abs(mu - held[0]) * math.sqrt(_dot(b, b)) > tol:
            one, e1 = np.ones(1), np.zeros(n)
            e1[0] = 1.0
            x = self._spd(mu, one, one, e1, _GENERATOR_SHARE)
            x += self._spd(mu, one, one, e1 - x - self._stiffness(mu, x), _GENERATOR_SHARE ** 2)
            x /= math.sqrt(x[0])
            length = _next_fast_len(2 * n - 1)
            # ZJx = (0, x_(n-1), ..., x_1)
            held = self._generator = (mu, length, np.fft.rfft(x, length),
                                      np.fft.rfft(np.concatenate(([0.0], x[:0:-1])), length))
        _, length, first, second = held
        flipped = np.fft.rfft(b[::-1], length)

        def product(spectrum):
            # the spectrum of L(v) L(v)^T b, as L(v)^T b = J L(v) J b
            return np.fft.rfft(np.fft.irfft(flipped * spectrum, length)[n - 1::-1],
                               length) * spectrum
        return np.fft.irfft(product(first) - product(second), length)[:n]

    def _spd(self, dt, a, s, b, tol):
        """x with (diag(a) + S K S) x = b, S = diag(s), by conjugate
        gradients (``_pcg``).  K is the restriction to the box of the
        circulant dt (W - spectrum) on the circular lengths, so for a
        constant a > 0 and a constant s (every linear phi in N >= 2
        dimensions, and the line's Toeplitz generator) the system, with
        matvec a x + s K (s x), is preconditioned by the inverse of the
        circulant with eigenvalues lam = a + s^2 dt (W - spectrum)
        (T. Chan, SIAM J. Sci. Stat. Comput. 9, 1988; Lei & Sun, J. Comput.
        Phys. 242, 2013), a principal block of an SPD matrix: the kept
        weights sum to at most W, so lam >= a > 0.  Any other a or s, a = 0
        included, keeps Jacobi: on a dense kernel with that matvec, on a
        short stencil (N >= 2; the line solves its band) with the CSR
        matrix W I - A, rescaled, built at its first such system."""
        if a[0] > 0.0 and (a == a[0]).all() and (s == s[0]).all():
            a, s = a[0], s[0]
            inverse = 1.0 / (a + s * s * dt * (self.W - self.spectrum))

            def precondition(r):
                return _circular(r.reshape(self.shape), inverse, self.lengths).ravel()
        elif self.shifts is None:
            precondition = _jacobi(a + dt * self.W * s * s)
        else:
            if self._csr is None:
                self._csr = self._assemble()
            base, rows, on_diagonal = self._csr
            M = dt * base
            M.data *= s[rows] * s[M.indices]
            M.data[on_diagonal] += a
            return _pcg(M.dot, _jacobi(M.data[on_diagonal]), b, tol)
        return _pcg(lambda x: a * x + s * self._stiffness(dt, s * x), precondition, b, tol)

    def _assemble(self):
        """The CSR matrix W I - A over the C-order flattened nodes
        (scipy.sparse), from the ``shifts``, with each entry's row and the
        positions of the diagonal, which every row stores: diag(a) + S K S
        is the same sparsity with the entries rescaled."""
        from scipy import sparse

        index = np.arange(math.prod(self.shape)).reshape(self.shape)
        # (values, rows, columns) per shift, after an empty block: with no
        # offset in the box, A = 0
        blocks = [(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=int))]
        blocks += [(np.full(index[dst].size, w), index[dst].ravel(), index[src].ravel())
                   for w, dst, src in self.shifts]
        vals, rows, cols = (np.concatenate(part) for part in zip(*blocks))
        base = (self.W * sparse.identity(index.size, format="csr")
                - sparse.csr_matrix((vals, (rows, cols)), shape=(index.size,) * 2))
        rows = np.repeat(np.arange(index.size), np.diff(base.indptr))
        return base, rows, np.flatnonzero(rows == base.indices)


def _held(stencil, shape, resolvent):
    """``resolvent`` if it holds the merged ``stencil`` (the same object,
    or equal offsets and weights), else a ConfigurationError; a new
    ``_Resolvent`` on ``shape`` when none is given.  Another box is
    rejected by ``neighbor``."""
    if resolvent is None:
        return _Resolvent(stencil, shape)
    held = resolvent.stencil
    if not (held is stencil or (np.array_equal(held.offsets, stencil.offsets)
                                and np.array_equal(held.weights, stencil.weights))):
        raise ConfigurationError(f"an operator built for another stencil ({held.n_offsets} "
                                 f"offsets) cannot act as this one ({stencil.n_offsets} "
                                 "offsets)")
    return resolvent


def apply_stencil(stencil, c, u, resolvent=None):
    """The operator c * Laplacian + stencil applied to u, zero extension
    outside the box.  ``resolvent`` is the merged stencil's
    ``_Resolvent`` on u's box, for a caller that holds one; it is built
    here when not given."""
    stencil = combine_with_laplacian(stencil, c)
    u = np.asarray(u, dtype=float)
    resolvent = _held(stencil, u.shape, resolvent)
    return resolvent.neighbor(u) - stencil.total_weight * u


def _dot(u, v):
    # numpy's pairwise sum, not BLAS ddot: OpenBLAS splits long vectors
    # across threads, which would make the result depend on GPME_THREADS
    return float(np.sum(u * v))


def _pcg(matvec, precondition, b, tol):
    """Conjugate gradients (Hestenes & Stiefel 1952; Saad, Iterative
    Methods for Sparse Linear Systems, 2003, ch. 6 and 9) for the SPD
    system A x = b from x = 0, preconditioned by the SPD map
    ``precondition``, r -> M^(-1) r, applied once per iteration.  Returns
    x once the recurred residual |b - A x|_2 is at most tol, or its
    iterate after ``_CG_CAP`` iterations for the caller's safeguard to
    judge.  Every reduction is a numpy sum, so the iterates are the same
    bits under any thread count."""
    x = np.zeros_like(b)
    r = b.copy()
    p = rz = None
    for _ in range(_CG_CAP):
        # the recurred residual is tested before it is preconditioned
        if math.sqrt(_dot(r, r)) <= tol:
            break
        z = precondition(r)
        rz, previous = _dot(r, z), rz
        # rz = 0 at r = 0; p^T A p = 0 only if p underflows
        if rz == 0.0:
            break
        if p is None:
            p = z.copy()
        else:
            p *= rz / previous
            p += z
        q = matvec(p)
        pq = _dot(p, q)
        if pq <= 0.0:
            break
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
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


def solve_ep(stencil, c, phi, dt, rho, config=None, warm_start=None, resolvent=None):
    """Solve w - dt * (c Laplacian + stencil)[phi(w)] = rho.

    Returns an EpResult; raises NonConvergenceError, naming the node with
    the worst residual, when the iteration cap is hit with the residual
    still above tolerance.  The iteration starts from ``warm_start``, rho
    by default, clipped to the comparison bracket
    [min(0, min rho), max(0, max rho)]: the solution lies in it, so the
    clip only moves the start closer.  The stencil and c are merged on
    entry by ``combine_with_laplacian``.  ``resolvent`` is a
    ``_Resolvent`` of the merged stencil on rho's box, for a caller that
    solves many times on one box; by default the solve builds its own.
    """
    stencil = combine_with_laplacian(stencil, c)
    cfg = config if config is not None else EpSolveConfig()
    if dt < 0.0:
        raise ConfigurationError("dt must be nonnegative", field="dt")
    rho = np.asarray(rho, dtype=float)

    def finish(w, res_field, sweeps, fallbacks):
        return EpResult(w=w, residual=float(np.max(np.abs(res_field))),
                        sweeps=sweeps, residual_field=res_field, fallbacks=fallbacks)

    if dt == 0.0 or phi.kind == "zero":
        # w = rho solves it, and dt L[phi(w)] vanishes: no operator needed
        w = rho.copy()
        return finish(w, w - rho, 0, 0)

    resolvent = _held(stencil, rho.shape, resolvent)
    W, neighbor = resolvent.W, resolvent.neighbor
    cap = max(_MIN_SWEEPS, _SWEEPS_PER_NODE * rho.size)
    tol = cfg.residual_tol * max(1.0, float(np.max(np.abs(rho))))
    lo = min(0.0, float(np.min(rho)))
    hi = max(0.0, float(np.max(rho)))
    w = np.clip(np.asarray(rho if warm_start is None else warm_start, dtype=float), lo, hi)
    solve = functools.partial(resolvent.solve, dt)

    def evaluate(w):
        p = phi.value(w)
        ns = neighbor(p)
        res = w - dt * (ns - W * p) - rho
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
        level = _CG_SHARE * tol
        if phi.kind == "power":
            # the quadratic forcing term
            norm = math.sqrt(_dot(res, res))
            level = max(level, min(_CG_SHARE, norm) * norm)
        for cand in _newton_candidates(phi, solve, w, res, lo, hi, level):
            trial = evaluate(cand)
            if trial[2] < r:
                w, (ns, res, r) = cand, trial
                break
        else:
            fallbacks += 1
            w = _jacobi_sweep(phi, dt, W, rho, ns, w)
            ns, res, r = evaluate(w)
    return finish(w, res, sweeps, fallbacks)
