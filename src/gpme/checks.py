"""Executable property suites behind the ``check`` subcommand.

Each suite re-verifies the structural guarantees of one layer at desk
scale: moment sums of stencils, order/contraction properties of the
resolvent, the ledger and stability properties of full runs, and the
uniform tail certificate with its cutoff scalings.  Every check reports a
measured slack so a regression shows up as a number, not just a flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import (Cutoff, equitightness_check, operator_cutoff_norm,
                          tail_mass)
from .elliptic_solver import EpSolveConfig, PhiSpec, solve_ep
from .errors import ConfigurationError
from .evolution import (FluxSpec, ProblemSpec, cfl_limit, flux_divergence, run)
from .grid_field import GridFunction, TimeGrid, UniformGrid
from .levy_operators import (MeasureSpec, OperatorSpec, apply_stencil, check_moments,
                             laplacian_stencil, measure_stencil,
                             testfunction_moment_bound)
from .profiles import (BarenblattProfile, ConstantInTime, GaussianProfile,
                       PoissonKernelProfile, SeparableSource)

__all__ = ["CheckResult", "SUITES", "run_suite", "suite_names"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    slack: float
    detail: str = ""

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        msg = f"{self.name}: {tag} (slack {self.slack:.3e})"
        if self.detail:
            msg += f"  {self.detail}"
        return msg


def _result(name, passed, slack, detail=""):
    return CheckResult(name=name, passed=bool(passed), slack=float(slack), detail=detail)


# ---------------------------------------------------------------------------
# moments


def _moments_suite():
    out = []
    grid = UniformGrid.from_box(1, 0.5, 4.0)
    lap = laplacian_stencil(grid)
    rep = check_moments(lap, variant="A")
    out.append(_result("laplacian_far_mass_zero", rep.far_mass == 0.0, rep.far_mass))
    # two offsets at distance h with weight 1/h^2 each
    gap = abs(rep.near_second_moment - 2.0)
    out.append(_result("laplacian_near_second_moment", gap <= 1e-12, gap))

    m = MeasureSpec(kind="fractional", alpha=1.0)
    unit = UniformGrid.from_box(1, 1.0, 8.0)
    st = measure_stencil(m, unit)
    w1 = st.weights[np.argmin(np.abs(st.offset_radii() - 1.0))]
    gap = abs(w1 - 4.0 / 3.0)
    out.append(_result("fractional_unit_cell_weight", gap <= 1e-12, gap,
                       "closed-form antiderivative oracle"))

    vals = []
    for h in (0.125, 0.0625, 0.03125):
        g = UniformGrid.from_box(1, h, 24.0)
        s = measure_stencil(m, g, support_radius=20.0)
        rep2 = check_moments(s, variant="A_double_prime", alpha=1.0,
                             R_list=[2.0, 4.0, 8.0, 16.0])
        vals.extend(v for _, v in rep2.a_pp_values)
    ratio = max(vals) / min(vals)
    out.append(_result("fractional_a_pp_flat", ratio <= 10.0, ratio,
                       f"{len(vals)} (h, R) pairs"))

    # certifying test functions dominate the raw sums
    rep3 = check_moments(st, variant="A_prime")
    raw = float(np.sum(np.minimum(st.offset_radii() ** 2, st.offset_radii())
                       * st.weights))
    bound = testfunction_moment_bound(st, "A_prime")
    out.append(_result("a_prime_testfunction_dominates", bound + 1e-12 >= raw,
                       bound - raw, f"far first moment {rep3.far_first_moment:.3e}"))
    repR = check_moments(st, variant="A_double_prime", alpha=1.0, R_list=[4.0])
    boundR = testfunction_moment_bound(st, "A_double_prime", alpha=1.0, R=4.0)
    out.append(_result("a_pp_testfunction_dominates",
                       boundR + 1e-12 >= repR.a_pp_values[0][1],
                       boundR - repR.a_pp_values[0][1]))
    return out


# ---------------------------------------------------------------------------
# resolvent


def _tridiagonal_oracle():
    grid = UniformGrid.from_box(1, 1.0, 1.0)
    st = laplacian_stencil(grid)
    phi = PhiSpec(kind="linear", slope=1.0)
    rho = np.array([0.0, 1.0, 0.0])
    res = solve_ep(st, 0, phi, 1.0, rho, config=EpSolveConfig(residual_tol=1e-12))
    target = np.array([1.0 / 7.0, 3.0 / 7.0, 1.0 / 7.0])
    return float(np.max(np.abs(res.w - target)))


def _resolvent_suite():
    out = []
    gap = _tridiagonal_oracle()
    out.append(_result("tridiagonal_oracle", gap <= 1e-10, gap,
                       "3-node identity nonlinearity"))

    rng = np.random.default_rng(7)
    grid = UniformGrid.from_box(1, 0.25, 2.0)
    st = laplacian_stencil(grid)
    phi = PhiSpec(kind="linear", slope=1.0)
    dt = 0.1
    rho = rng.normal(size=grid.shape)
    res = solve_ep(st, 0, phi, dt, rho, config=EpSolveConfig(residual_tol=1e-13))
    n = grid.shape[0]
    A = np.eye(n)
    lam = dt / grid.h ** 2
    for i in range(n):
        A[i, i] += 2.0 * lam
        if i > 0:
            A[i, i - 1] -= lam
        if i + 1 < n:
            A[i, i + 1] -= lam
    direct = np.linalg.solve(A, rho)
    gap = float(np.max(np.abs(res.w - direct)))
    out.append(_result("dense_linear_cross_check", gap <= 1e-10, gap))

    phi2 = PhiSpec(kind="power", exponent=2.0)
    rho_a = np.abs(rng.normal(size=grid.shape))
    rho_b = rho_a + np.abs(rng.normal(size=grid.shape))
    cfg = EpSolveConfig(residual_tol=1e-12)
    wa = solve_ep(st, 0, phi2, dt, rho_a, config=cfg).w
    wb = solve_ep(st, 0, phi2, dt, rho_b, config=cfg).w
    worst = float(np.max(wa - wb))
    out.append(_result("resolvent_comparison", worst <= 1e-9, worst,
                       "ordered data stays ordered"))
    vol = grid.cell_volume
    lhs = vol * float(np.sum(np.maximum(wa - wb, 0.0)))
    rhs = vol * float(np.sum(np.maximum(rho_a - rho_b, 0.0)))
    out.append(_result("resolvent_l1_contraction", lhs <= rhs + 1e-9, lhs - rhs))

    # weighted tail inequality for the solved field
    grid2 = UniformGrid.from_box(1, 0.25, 6.0)
    st2 = laplacian_stencil(grid2)
    prof = GaussianProfile(1.0, 0.25)
    rho2 = prof.cell_averages(grid2)
    res2 = solve_ep(st2, 0, phi2, 0.2, rho2, config=EpSolveConfig(residual_tol=1e-13))
    cut = Cutoff(R=3.0, dim=1)
    X = cut.on_grid(grid2).values
    vol2 = grid2.cell_volume
    lhs = vol2 * float(np.sum(np.abs(res2.w) * X))
    LX = apply_stencil(st2, 0, X - 1.0)
    rhs = (vol2 * float(np.sum(np.abs(rho2) * X))
           + 0.2 * vol2 * float(np.sum(np.abs(phi2.value(res2.w)) * np.abs(LX))))
    out.append(_result("resolvent_weighted_tail", lhs <= rhs + 1e-10, lhs - rhs,
                       "cutoff-weighted mass moves only through the operator"))
    return out


# ---------------------------------------------------------------------------
# evolution


def _small_problem(phi, initial, flux=None, measure=None, c=1, source=None):
    op = OperatorSpec(c=c, measure=measure)
    return ProblemSpec(operator=op, phi=phi, initial=initial, source=source, flux=flux)


def _evolution_suite():
    out = []
    grid = UniformGrid.from_box(1, 0.1, 6.0)
    tg = TimeGrid.uniform(0.2, 0.05)
    prob = _small_problem(PhiSpec(kind="power", exponent=2.0),
                          BarenblattProfile(BarenblattProfile.coeff_for_unit_mass(), 1.0))
    rep = run(prob, grid, tg, config=EpSolveConfig(residual_tol=1e-13))
    gap = float(np.max(np.abs(rep.identity_gap)))
    tol = 1e-9 * (1.0 + rep.mass[0])
    out.append(_result("mass_ledger_identity", gap <= tol, gap,
                       f"{tg.n_steps} steps"))
    leak = float(abs(rep.leak_diffusive[-1]))
    out.append(_result("compact_support_conservation", leak <= 1e-12, leak,
                       "box 3x wider than the support"))

    rng = np.random.default_rng(11)
    grid2 = UniformGrid.from_box(1, 0.2, 2.0)
    tg2 = TimeGrid.uniform(0.2, 0.1)
    st2 = laplacian_stencil(grid2)
    phi2 = PhiSpec(kind="power", exponent=2.0)
    a = np.abs(rng.normal(size=grid2.shape))
    b = a + np.abs(rng.normal(size=grid2.shape))
    cfg = EpSolveConfig(residual_tol=1e-12)
    ua, ub = a.copy(), b.copy()
    for dt in tg2.steps:
        ua = solve_ep(st2, 0, phi2, dt, ua, config=cfg).w
        ub = solve_ep(st2, 0, phi2, dt, ub, config=cfg).w
    worst = float(np.max(ua - ub))
    out.append(_result("evolution_monotone", worst <= 1e-9, worst))
    vol = grid2.cell_volume
    lhs = vol * float(np.sum(np.maximum(ua - ub, 0.0)))
    rhs = vol * float(np.sum(np.maximum(a - b, 0.0)))
    out.append(_result("evolution_l1_contraction", lhs <= rhs + 1e-9, lhs - rhs))
    sup = float(np.max(np.abs(ub)))
    sup0 = float(np.max(np.abs(b)))
    out.append(_result("evolution_linf_stability", sup <= sup0 + 1e-9, sup - sup0))

    flux = FluxSpec(kind="burgers", u_range=(0.0, 1.0))
    try:
        from .evolution import step_cde
        step_cde(laplacian_stencil(grid2), 1, PhiSpec(kind="zero"), flux,
                 grid2.h, grid2.h, np.zeros(grid2.shape))
        out.append(_result("cfl_violation_rejected", False, 1.0,
                           "oversized step accepted"))
    except ConfigurationError:
        out.append(_result("cfl_violation_rejected", True, 0.0))

    # one explicit upwind step of the linear flux, hand-checked
    h = 0.5
    u = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    lin = FluxSpec(kind="linear", u_range=(0.0, 1.0), velocity=(1.0,))
    div = flux_divergence(lin, u, h)
    dt = cfl_limit(lin, h, 1)
    stepped = u - dt * div
    expected = np.array([0.0, 0.5, 0.5, 0.0, 0.0])
    gap = float(np.max(np.abs(stepped - expected)))
    out.append(_result("upwind_hand_oracle", gap <= 1e-14, gap))
    return out


# ---------------------------------------------------------------------------
# equitightness


def _equitightness_suite():
    out = []
    grid = UniformGrid.from_box(1, 0.1, 6.0)
    tg = TimeGrid.uniform(0.2, 0.05)
    prob = _small_problem(PhiSpec(kind="power", exponent=2.0),
                          BarenblattProfile(BarenblattProfile.coeff_for_unit_mass(), 1.0))
    rep = run(prob, grid, tg, config=EpSolveConfig(residual_tol=1e-13))
    eq = equitightness_check(rep.trajectory, prob, R=3.0, r=1.0)
    out.append(_result("tail_bound_local_quadratic", eq.passed and eq.bound_asserted,
                       eq.rhs_total - eq.lhs, f"lhs {eq.lhs:.3e} rhs {eq.rhs_total:.3e}"))

    m = MeasureSpec(kind="fractional", alpha=1.0, scale=1.0 / math.pi)
    gridf = UniformGrid.from_box(1, 0.2, 8.0)
    tgf = TimeGrid.uniform(0.2, 0.1)
    probf = _small_problem(PhiSpec(kind="linear", slope=1.0),
                           PoissonKernelProfile(1.0), measure=m, c=0)
    repf = run(probf, gridf, tgf, config=EpSolveConfig(residual_tol=1e-12))
    eqf = equitightness_check(repf.trajectory, probf, R=4.0, r=1.0)
    out.append(_result("tail_bound_fractional_linear", eqf.passed and eqf.bound_asserted,
                       eqf.rhs_total - eqf.lhs,
                       f"lhs {eqf.lhs:.3e} rhs {eqf.rhs_total:.3e}"))

    # source term enters the bound through both integrability pieces
    src = SeparableSource(GaussianProfile(0.5, 0.25), ConstantInTime(1.0))
    probs = _small_problem(PhiSpec(kind="power", exponent=2.0),
                           GaussianProfile(1.0, 0.25), source=src)
    reps = run(probs, grid, tg, config=EpSolveConfig(residual_tol=1e-13))
    eqs = equitightness_check(reps.trajectory, probs, R=3.0, r=1.0)
    out.append(_result("tail_bound_with_source", eqs.passed,
                       eqs.rhs_total - eqs.lhs,
                       f"lhs {eqs.lhs:.3e} rhs {eqs.rhs_total:.3e}"))

    # cutoff derivative scalings R^(N/p - k)
    worst = 0.0
    for p in (2.0, math.inf):
        for k in (1, 2):
            n4 = Cutoff(R=4.0, dim=1).derivative_norm(k, p)
            n8 = Cutoff(R=8.0, dim=1).derivative_norm(k, p)
            over = 1.0 / p if p != math.inf else 0.0
            predicted = 2.0 ** (over - k)
            worst = max(worst, abs(n8 / n4 / predicted - 1.0))
    out.append(_result("cutoff_derivative_scaling", worst <= 1e-4, worst,
                       "R in {4, 8}, k in {1, 2}, p in {2, inf}"))

    # operator-applied cutoff decays like R^(N/p - alpha)
    m1 = MeasureSpec(kind="fractional", alpha=1.0)
    gbig = UniformGrid.from_box(1, 0.125, 9.0)
    stb = measure_stencil(m1, gbig, support_radius=18.0)
    norms = []
    for R in (2.0, 4.0, 8.0):
        norms.append(operator_cutoff_norm(stb, 0, Cutoff(R=R, dim=1), gbig, math.inf))
    slopes = np.diff(np.log2(norms))
    target = 0.0 - 1.0
    worst = float(np.max(np.abs(slopes - target)))
    out.append(_result("operator_cutoff_slope", worst <= 0.3, worst,
                       f"log2 slopes {[f'{s:.3f}' for s in slopes]} target {target:g}"))

    # tail mass is monotone in R
    u = GridFunction(grid, np.abs(GaussianProfile(1.0, 0.3).cell_averages(grid)))
    t2, t4 = tail_mass(u, 2.0), tail_mass(u, 4.0)
    out.append(_result("tail_mass_monotone", t4 <= t2, t2 - t4))
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
    """Execute one suite (or all of them) and return the CheckResults."""
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(SUITES[key]())
        return results
    if name not in SUITES:
        raise ConfigurationError(
            f"unknown suite {name!r}; choose from {', '.join(suite_names())}",
            field="suite")
    return SUITES[name]()
