"""Executable property suites behind the ``check`` subcommand.

Each suite re-verifies the structural guarantees of one layer at desk
scale: moment sums of stencils and their consistency with the continuum
operators, order/contraction properties of the resolvent and the scheme,
the ledger of full runs, and the uniform tail certificate with its cutoff
scalings.  The suites are the one home of these oracles: the tests and the
acceptance criteria assert the results computed here instead of
recomputing them.

Every check measures a value and compares it with the bound it must not
exceed: it passes when value <= bound, and its slack bound - value is the
margin left, so a regression shows up as a number, not just a flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .diagnostics import (Cutoff, build_cutoff, equitightness_check,
                          operator_cutoff_norm, tail_mass)
from .elliptic_solver import EpSolveConfig, PhiSpec, solve_ep
from .errors import ConfigurationError
from .evolution import (FluxSpec, ProblemSpec, cfl_limit, flux_divergence, run,
                        step_cde, step_gpme)
from .grid_field import TimeGrid, UniformGrid
from .levy_operators import (MeasureSpec, OperatorSpec, WeightedStencil, apply_stencil,
                             check_moments, combine_with_laplacian, measure_stencil,
                             testfunction_moment_bound)
from .profiles import (BarenblattProfile, GaussianProfile, PoissonKernelProfile,
                       SeparableSource, TimeFactor)

__all__ = ["CheckResult", "SUITES", "run_suite", "suite_names"]


@dataclass(frozen=True)
class CheckResult:
    """A measured value and the bound it must not exceed."""

    name: str
    value: float
    bound: float
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "bound", float(self.bound))

    @property
    def passed(self):
        return self.value <= self.bound

    @property
    def slack(self):
        return self.bound - self.value

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        msg = (f"{self.name}: {tag} (value {self.value:.3e}, bound {self.bound:.3e}, "
               f"slack {self.slack:.3e})")
        if self.detail:
            msg += f"  {self.detail}"
        return msg


def _laplacian_weights(h):
    """The Laplacian on the line as explicit weights 1/h^2 at the nearest
    neighbours, for the checks that apply it with c = 0."""
    return combine_with_laplacian(WeightedStencil.empty(h, 1), 1)


def _worst(name, pairs, detail=""):
    """The (value, bound) pair with the least slack; a NaN value wins."""
    values, bounds = np.array(pairs, dtype=float).T
    i = int(np.argmax(values - bounds))
    return CheckResult(name, values[i], bounds[i], detail)


# ---------------------------------------------------------------------------
# moments


def _moments_suite(barenblatt):
    out = []
    far, gap = [], []
    # the Laplacian as explicit weights
    for h in (0.5, 0.25):
        rep = check_moments(_laplacian_weights(h), variant="A")
        far.append(rep.far_mass)
        # two offsets at distance h with weight 1/h^2 each
        gap.append(abs(rep.near_second_moment - 2.0))
    out.append(CheckResult("laplacian_far_mass_zero", max(far), 0.0, "h in {0.5, 0.25}"))
    out.append(CheckResult("laplacian_near_second_moment", max(gap), 1e-12))

    m = MeasureSpec(kind="fractional", alpha=1.0)
    st = measure_stencil(m, UniformGrid.from_box(1, 1.0, 8.0))
    # alpha = 1, h = 1: the integral of 2 r^-2 over [1/2, 3/2] is 4/3
    w1 = st.weights[np.argmin(np.abs(st.offset_radii() - 1.0))]
    out.append(CheckResult("fractional_unit_cell_weight", abs(w1 - 4.0 / 3.0), 1e-13,
                           "closed-form antiderivative oracle"))

    vals = []
    for h in (0.125, 0.0625, 0.03125):
        g = UniformGrid.from_box(1, h, 24.0)
        s = measure_stencil(m, g, support_radius=20.0)
        rep = check_moments(s, variant="A_double_prime", alpha=1.0,
                            R_list=[2.0, 4.0, 8.0, 16.0])
        vals.extend(v for _, v in rep.a_pp_values)
    out.append(CheckResult("fractional_a_pp_flat", max(vals) / min(vals), 10.0,
                           f"A'' max/min over {len(vals)} (h, R) pairs"))

    # certifying test functions dominate the raw sums
    pairs = []
    for stencil in (st, measure_stencil(m, UniformGrid.from_box(1, 0.25, 8.0))):
        r = stencil.offset_radii()
        pairs.append((np.sum(np.minimum(r ** 2, r) * stencil.weights),
                      testfunction_moment_bound(stencil, "A_prime")))
    out.append(_worst("a_prime_testfunction_dominates", pairs, "h in {1, 0.25}"))
    rep = check_moments(st, variant="A_double_prime", alpha=1.0, R_list=[4.0])
    out.append(CheckResult("a_pp_testfunction_dominates", rep.a_pp_values[0][1],
                           testfunction_moment_bound(st, "A_double_prime", alpha=1.0,
                                                     R=4.0)))

    # consistency with the continuum operators: halving h at least halves
    # the Laplacian's L^1 error (second order quarters it), and the
    # fractional error falls
    gauss = GaussianProfile(1.0, 0.25)
    errs = []
    for h in (0.1, 0.05):
        g = UniformGrid.from_box(1, h, 6.0)
        errs.append(_continuum_l1_gap(_laplacian_weights(g.h), gauss,
                                      _gaussian_laplacian(gauss), g))
    out.append(CheckResult("laplacian_consistency_order", errs[1] / errs[0], 0.5,
                           "L1 error ratio, h 0.1 -> 0.05, gaussian"))
    # alpha = 1 at scale 1/pi generates the Poisson kernel flow, whose
    # generator has the closed form (x^2 - t^2) / (pi (x^2 + t^2)^2)
    cauchy = MeasureSpec(kind="fractional", alpha=1.0, scale=1.0 / math.pi)
    kernel = PoissonKernelProfile(1.0)
    reference = _principal_value(cauchy, kernel)
    x = np.array([0.0, 0.5, 2.0])
    exact = (x ** 2 - 1.0) / (math.pi * (x ** 2 + 1.0) ** 2)
    out.append(CheckResult("levy_reference_poisson_oracle",
                           np.max(np.abs(reference(x[:, None]) - exact)), 5e-7,
                           "principal-value quadrature at x in {0, 0.5, 2}"))
    errs = []
    for h in (0.25, 0.125):
        g = UniformGrid.from_box(1, h, 20.0)
        errs.append(_continuum_l1_gap(measure_stencil(cauchy, g), kernel, reference, g))
    out.append(CheckResult("fractional_consistency_improves", errs[1] / errs[0], 1.0,
                           "L1 error ratio, h 0.25 -> 0.125, Poisson kernel"))
    return out


def _continuum_l1_gap(stencil, profile, reference, grid):
    """Discrete L^1 distance over the grid nodes between the stencil's
    operator applied to the profile and a continuum reference.  The
    profile is evaluated at the shifted nodes themselves, so the box does
    not truncate it, and the measure mass beyond the support acts on it as
    -psi(x) times that mass (the far values of a decaying profile are
    negligible)."""
    pts = grid.coords().reshape(-1, grid.dim)
    base = profile.at(pts)
    disc = -stencil.total_weight * base
    for off, w in zip(stencil.offsets, stencil.weights):
        disc += w * profile.at(pts + stencil.h * off)
    disc -= base * stencil.tail_mass_beyond_support
    return float(grid.cell_volume * np.sum(np.abs(disc - reference(pts))))


def _gaussian_laplacian(profile):
    """The exact Laplacian of a GaussianProfile A exp(-|x - c|^2 / (4 s))."""
    def reference(points):
        d2 = np.sum((points - np.asarray(profile.center)) ** 2, axis=-1)
        s = profile.spread
        return profile.at(points) * (d2 / (4.0 * s * s) - profile.dim / (2.0 * s))
    return reference


def _principal_value(measure, profile):
    """Principal-value action of a fractional measure on a smooth decaying
    profile on the line, by adaptive quadrature of the symmetrized
    difference

        integral_0^inf (psi(x+s) + psi(x-s) - 2 psi(x)) rho(s) ds.

    Below s = 1e-5 the symmetrized difference drowns in rounding, so that
    piece is psi''(x) times the exact second moment of the density on
    (0, 1e-5).  The far field beyond s = 60 contributes
    -psi(x) * mu(|z| > 60)."""
    inner_cut, far_cut = 1e-5, 60.0

    def reference(points):
        from scipy import integrate

        x = points[:, 0]
        base = profile.at(points)

        def at(y):
            return profile.at(y[:, None])

        def integrand(s):
            return (at(x + s) + at(x - s) - 2.0 * base) * float(measure.radial_density(s, 1))

        out, _ = integrate.quad_vec(integrand, inner_cut, far_cut, epsabs=1e-12, epsrel=1e-11)
        d2h = 1e-3
        d2 = (at(x + d2h) + at(x - d2h) - 2.0 * base) / (d2h * d2h)
        near = measure.scale * inner_cut ** (2.0 - measure.alpha) / (2.0 - measure.alpha)
        return out + d2 * near - base * measure.mass_beyond(far_cut, 1)
    return reference


# ---------------------------------------------------------------------------
# resolvent


def _resolvent_suite(barenblatt):
    out = []
    # 3 nodes, h = dt = 1, rho = e_2: the exact resolvent is (1, 3, 1)/7
    # for both forms of the Laplacian, explicit weights and c = 1
    rho = np.array([0.0, 1.0, 0.0])
    target = np.array([1.0, 3.0, 1.0]) / 7.0
    errs, residuals = [], []
    for stencil, c in ((_laplacian_weights(1.0), 0), (WeightedStencil.empty(1.0, 1), 1)):
        res = solve_ep(stencil, c, PhiSpec(kind="linear"), 1.0, rho,
                       config=EpSolveConfig(residual_tol=1e-12))
        errs.append(float(np.max(np.abs(res.w - target))))
        residuals.append(res.residual)
    out.append(CheckResult("tridiagonal_oracle", max(errs + residuals), 1e-10,
                           f"max error {max(errs):.2e}, residual {max(residuals):.2e}, "
                           "both operator forms"))

    errs = []
    for h, L, dt, seed in ((0.25, 2.0, 0.1, 7), (0.5, 3.0, 0.3, 11)):
        g = UniformGrid.from_box(1, h, L)
        rho = np.random.default_rng(seed).normal(size=g.shape)
        res = solve_ep(_laplacian_weights(g.h), 0, PhiSpec(kind="linear"), dt, rho,
                       config=EpSolveConfig(residual_tol=1e-13))
        n, lam = g.shape[0], dt / h ** 2
        A = (1.0 + 2.0 * lam) * np.eye(n) - lam * (np.eye(n, k=1) + np.eye(n, k=-1))
        errs.append(float(np.max(np.abs(res.w - np.linalg.solve(A, rho)))))
    out.append(CheckResult("dense_linear_cross_check", max(errs), 1e-10,
                           "h in {0.25, 0.5}"))

    # weighted tail inequality for the solved field
    grid2 = UniformGrid.from_box(1, 0.25, 6.0)
    st2 = _laplacian_weights(grid2.h)
    phi2 = PhiSpec(kind="power", exponent=2.0)
    rho2 = GaussianProfile(1.0, 0.25).cell_averages(grid2)
    res2 = solve_ep(st2, 0, phi2, 0.2, rho2, config=EpSolveConfig(residual_tol=1e-13))
    X = Cutoff(R=3.0, dim=1).on_grid(grid2)
    vol2 = grid2.cell_volume
    lhs = vol2 * float(np.sum(np.abs(res2.w) * X))
    LX = apply_stencil(st2, 0, X - 1.0)
    rhs = (vol2 * float(np.sum(np.abs(rho2) * X))
           + 0.2 * vol2 * float(np.sum(np.abs(phi2.value(res2.w)) * np.abs(LX))))
    out.append(CheckResult("resolvent_weighted_tail", lhs, rhs + 1e-10,
                           "cutoff-weighted mass moves only through the operator"))
    return out


# ---------------------------------------------------------------------------
# evolution


def _small_problem(phi, initial, flux=None, measure=None, c=1, source=None):
    op = OperatorSpec(c=c, measure=measure)
    return ProblemSpec(operator=op, phi=phi, initial=initial, source=source, flux=flux)


def _barenblatt_run():
    """The m = 2 Barenblatt run that the evolution and tail suites read."""
    prob = _small_problem(PhiSpec(kind="power", exponent=2.0),
                          BarenblattProfile(time=1.0))
    rep = run(prob, UniformGrid.from_box(1, 0.1, 6.0), TimeGrid.uniform(0.2, 0.05),
              config=EpSolveConfig(residual_tol=1e-13))
    return prob, rep


def _order_sweep():
    """Comparison, L^1 contraction and L^1 / sup stability, worst over 20
    seeds of three steps each: four kinds of phi, the local and the
    fractional operator, a Burgers flux on every third seed, and ordered
    sources forcing each pair of solutions."""
    grid = UniformGrid.from_box(1, 0.25, 6.0)
    vol = grid.cell_volume
    n = grid.node_count
    lap = WeightedStencil.empty(grid.h, grid.dim)
    frac = OperatorSpec(c=0, measure=MeasureSpec(kind="fractional", alpha=1.0)
                        ).build_stencil(grid)
    phis = [PhiSpec(kind="power", exponent=0.5), PhiSpec(kind="linear"),
            PhiSpec(kind="power", exponent=2.0),
            PhiSpec(kind="stefan", latent=0.5)]
    cfg = EpSolveConfig(residual_tol=1e-12)
    tol = 1e-8
    pairs = {"evolution_monotone": [], "evolution_l1_contraction": [],
             "evolution_l1_stability": [], "evolution_linf_stability": []}
    for seed in range(20):
        rng = np.random.default_rng(seed)
        phi = phis[seed % 4]
        stencil, c = (lap, 1) if seed % 2 == 0 else (frac, 0)
        flux = FluxSpec(kind="burgers", u_range=(0.0, 1.0)) if seed % 3 == 0 else None
        if flux is None:
            u = rng.uniform(-1.0, 1.0, n)
            v = u + rng.uniform(0.0, 0.5, n)
            dt = 0.05
        else:
            u = rng.uniform(0.0, 0.7, n)
            v = np.minimum(u + rng.uniform(0.0, 0.2, n), 0.95)
            dt = 0.9 * cfl_limit(flux, grid.h, grid.dim)
        g_lo = rng.uniform(-0.2, 0.2, (3, n))
        g_hi = g_lo + rng.uniform(0.0, 0.1, (3, n))
        if flux is not None:
            g_lo = np.abs(g_lo)
            g_hi = g_lo + rng.uniform(0.0, 0.1, (3, n))
        u0, v0 = u.copy(), v.copy()
        src_l1 = src_sup = src_gap = 0.0
        for step in range(3):
            if flux is None:
                u = step_gpme(stencil, c, phi, dt, u, g=g_lo[step], config=cfg).w
                v = step_gpme(stencil, c, phi, dt, v, g=g_hi[step], config=cfg).w
            else:
                u = step_cde(stencil, c, phi, flux, dt, grid.h, u,
                             g=g_lo[step], config=cfg).w
                v = step_cde(stencil, c, phi, flux, dt, grid.h, v,
                             g=g_hi[step], config=cfg).w
            src_l1 += dt * vol * float(np.sum(np.abs(g_lo[step])))
            src_sup += dt * float(np.max(np.abs(g_lo[step])))
            src_gap += dt * vol * float(np.sum(np.maximum(g_hi[step] - g_lo[step], 0.0)))
            # ordered data stay ordered, pointwise and in the L^1 positive part
            pairs["evolution_monotone"].append(
                (max(np.max(u - v), vol * np.sum(np.maximum(u - v, 0.0))), tol))
            pairs["evolution_l1_contraction"].append(
                (vol * np.sum(np.maximum(v - u, 0.0)),
                 vol * np.sum(np.maximum(v0 - u0, 0.0)) + src_gap + tol))
            pairs["evolution_l1_stability"].append(
                (vol * np.sum(np.abs(u)), vol * np.sum(np.abs(u0)) + src_l1 + tol))
            pairs["evolution_linf_stability"].append(
                (np.max(np.abs(u)), np.max(np.abs(u0)) + src_sup + tol))
    return [_worst(name, p, "worst of 20 seeds x 3 steps") for name, p in pairs.items()]


def _evolution_suite(barenblatt):
    out = []
    _, rep = barenblatt()
    out.append(CheckResult("mass_ledger_identity", np.max(np.abs(rep.identity_gap)),
                           1e-9 * (1.0 + rep.mass[0]), f"{len(rep.sweeps)} steps"))
    out.append(CheckResult("compact_support_conservation", abs(rep.leak_diffusive[-1]),
                           1e-12, "box 3x wider than the support"))
    out.extend(_order_sweep())

    grid = UniformGrid.from_box(1, 0.2, 2.0)
    flux = FluxSpec(kind="burgers", u_range=(0.0, 1.0))
    try:
        step_cde(WeightedStencil.empty(grid.h, grid.dim), 1, PhiSpec(kind="zero"), flux,
                 grid.h, grid.h, np.zeros(grid.shape))
        accepted = 1.0
    except ConfigurationError:
        accepted = 0.0
    out.append(CheckResult("cfl_violation_rejected", accepted, 0.0,
                           "oversized steps accepted"))

    # one explicit upwind step of the linear flux, hand-checked
    h = 0.5
    u = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    lin = FluxSpec(kind="linear", u_range=(0.0, 1.0), velocity=(1.0,))
    stepped = u - cfl_limit(lin, h, 1) * flux_divergence(lin, u, h)
    expected = np.array([0.0, 0.5, 0.5, 0.0, 0.0])
    out.append(CheckResult("upwind_hand_oracle", np.max(np.abs(stepped - expected)), 1e-14))
    return out


# ---------------------------------------------------------------------------
# equitightness


def _tail_bound(name, eq):
    # a certificate the theory does not assert bounds nothing
    bound = eq.bound if eq.bound_asserted else -math.inf
    return CheckResult(name, eq.lhs, bound, eq.note)


def _equitightness_suite(barenblatt):
    out = []
    prob, rep = barenblatt()
    out.append(_tail_bound("tail_bound_local_quadratic",
                           equitightness_check(rep.trajectory, prob, R=3.0, r=1.0)))

    m = MeasureSpec(kind="fractional", alpha=1.0, scale=1.0 / math.pi)
    probf = _small_problem(PhiSpec(kind="linear", slope=1.0),
                           PoissonKernelProfile(1.0), measure=m, c=0)
    repf = run(probf, UniformGrid.from_box(1, 0.2, 8.0), TimeGrid.uniform(0.2, 0.1),
               config=EpSolveConfig(residual_tol=1e-12))
    out.append(_tail_bound("tail_bound_fractional_linear",
                           equitightness_check(repf.trajectory, probf, R=4.0, r=1.0)))

    # source term enters the bound through both integrability pieces
    src = SeparableSource(GaussianProfile(0.5, 0.25), TimeFactor("constant", 1.0))
    probs = _small_problem(PhiSpec(kind="power", exponent=2.0),
                           GaussianProfile(1.0, 0.25), source=src)
    grid = rep.trajectory.grid
    reps = run(probs, grid, rep.trajectory.time_grid,
               config=EpSolveConfig(residual_tol=1e-13))
    out.append(_tail_bound("tail_bound_with_source",
                           equitightness_check(reps.trajectory, probs, R=3.0, r=1.0)))

    # cutoff derivative scalings ||D^k X_R||_p ~ R^(N/p - k)
    worst = 0.0
    for p in (2.0, math.inf):
        for k in (1, 2):
            n4 = Cutoff(R=4.0, dim=1).derivative_norm(k, p)
            n8 = Cutoff(R=8.0, dim=1).derivative_norm(k, p)
            predicted = 2.0 ** (1.0 / p - k)
            worst = max(worst, abs(n8 / n4 / predicted - 1.0))
    out.append(CheckResult("cutoff_derivative_scaling", worst, 1e-4,
                           "R in {4, 8}, k in {1, 2}, p in {2, inf}"))

    # operator-applied cutoff decays like R^(N/p - alpha)
    m1 = MeasureSpec(kind="fractional", alpha=1.0)
    gbig = UniformGrid.from_box(1, 0.125, 9.0)
    stb = measure_stencil(m1, gbig, support_radius=18.0)
    gaps, parts = [], []
    for p in (2.0, math.inf):
        norms = [operator_cutoff_norm(stb, 0, build_cutoff(R, gbig)[0], p)
                 for R in (2.0, 4.0, 8.0)]
        slopes = np.diff(np.log2(norms))
        target = 1.0 / p - 1.0
        gaps.extend(np.abs(slopes - target))
        parts.append(f"p={p:g}: {', '.join(f'{s:.3f}' for s in slopes)} vs {target:g}")
    out.append(CheckResult("operator_cutoff_slope", max(gaps), 0.3,
                           f"log2 slopes {'; '.join(parts)}"))

    # tail mass is monotone in R
    u = np.abs(GaussianProfile(1.0, 0.3).cell_averages(grid))
    out.append(CheckResult("tail_mass_monotone", tail_mass(u, grid, 4.0),
                           tail_mass(u, grid, 2.0)))
    return out


SUITES = {
    "moments": _moments_suite,
    "resolvent": _resolvent_suite,
    "evolution": _evolution_suite,
    "equitightness": _equitightness_suite,
}


def suite_names():
    return list(SUITES) + ["all"]


def run_suite(name):
    """Execute one suite (or all of them) and return the CheckResults.

    Each suite takes a callable returning the shared Barenblatt run; it is
    computed on first use and at most once per call."""
    if name != "all" and name not in SUITES:
        raise ConfigurationError(
            f"unknown suite {name!r}; choose from {', '.join(suite_names())}",
            field="suite")
    barenblatt = cache(_barenblatt_run)
    keys = list(SUITES) if name == "all" else [name]
    return [res for key in keys for res in SUITES[key](barenblatt)]
