"""Time stepping: ledger identity, order preservation, CFL, transport."""

import numpy as np
import pytest

from gpme.config import build_plan, load_config
from gpme.elliptic_solver import EpSolveConfig, PhiSpec
from gpme.errors import ConfigurationError
from gpme.evolution import (FluxSpec, ProblemSpec, cfl_limit, escape_weights,
                            flux_divergence, run, step_cde, step_gpme)
from gpme.grid_field import TimeGrid, UniformGrid
from gpme.levy_operators import (MeasureSpec, OperatorSpec, WeightedStencil, apply_stencil,
                                 measure_stencil)
from gpme.profiles import BarenblattExact, BarenblattProfile, GaussianProfile


def _empty(g):
    return WeightedStencil.empty(g.h, g.dim)


def test_upwind_hand_oracle():
    # pure transport of a unit bump, f = u^2/2 increasing on [0, 1]:
    # interface flux is f(upwind left), so the bump cell loses
    # (dt/h) f(1) = 1/4 and its right neighbor gains the same
    g = UniformGrid.from_box(1, 0.5, 1.0)
    u = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    fl = FluxSpec(kind="burgers", u_range=(0.0, 1.0))
    out = step_cde(_empty(g), 0, PhiSpec(kind="zero"), fl, 0.25, g.h, u)
    np.testing.assert_allclose(out.w, [0.0, 0.75, 0.25, 0.0, 0.0], atol=1e-14)


def test_flux_divergence_upwind_direction():
    fl = FluxSpec(kind="burgers", u_range=(0.0, 1.0))
    v = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(flux_divergence(fl, v, 0.5), [0.0, 1.0, -1.0, 0.0, 0.0])


def test_cfl_limit_inclusive():
    g = UniformGrid.from_box(1, 0.5, 1.0)
    fl = FluxSpec(kind="burgers", u_range=(0.0, 1.0))
    lim = cfl_limit(fl, g.h, g.dim)
    assert lim == pytest.approx(0.25)
    u = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    step_cde(_empty(g), 0, PhiSpec(kind="zero"), fl, lim, g.h, u)
    with pytest.raises(ConfigurationError):
        step_cde(_empty(g), 0, PhiSpec(kind="zero"), fl, 2.0 * lim, g.h, u)


def test_escape_weights_boundary_only():
    g = UniformGrid.from_box(1, 0.5, 1.0)
    esc = escape_weights(_empty(g), 1, g.shape)
    np.testing.assert_allclose(esc, [4.0, 0.0, 0.0, 0.0, 4.0])
    # in 2-D with a measure, the escape rate is minus the operator on ones
    g2 = UniformGrid.from_box(2, 0.5, 1.0)
    st = measure_stencil(MeasureSpec(kind="fractional", alpha=1.0), g2)
    ones = np.ones(g2.shape)
    np.testing.assert_array_equal(escape_weights(st, 1, g2.shape),
                                  -apply_stencil(st, 1, ones))


def test_run_ledger_identity_pme():
    plan = build_plan(load_config("pme_barenblatt_1d"))
    rep = run(plan.problem, plan.grid, plan.time_grid,
              config=EpSolveConfig(residual_tol=1e-13))
    m0 = rep.mass[0]
    assert np.max(np.abs(rep.identity_gap)) <= 1e-9 * (1.0 + m0)
    assert rep.trajectory.time_grid.knots[-1] == pytest.approx(0.5)
    assert len(rep.trajectory.fields) == plan.time_grid.n_steps + 1


def test_run_with_source_ledger():
    cfg = load_config({"preset": "heat_gaussian_1d", "problem": {"source": {
        "spatial": {"kind": "gaussian", "amplitude": 0.3, "spread": 0.5},
        "temporal": {"kind": "linear", "slope": 1.0},
    }}})
    plan = build_plan(cfg)
    rep = run(plan.problem, plan.grid, plan.time_grid,
              config=EpSolveConfig(residual_tol=1e-13))
    assert rep.source_cum[-1] > 0.0
    assert np.max(np.abs(rep.identity_gap)) <= 1e-9 * (1.0 + rep.mass[0])


def test_pme_compact_support_no_leak():
    # box is three times the support: nothing may reach the boundary
    plan = build_plan(load_config("pme_barenblatt_1d"))
    prof = BarenblattExact(BarenblattProfile(1.0, coeff=plan.problem.initial.coeff
                                             if hasattr(plan.problem.initial, "coeff")
                                             else BarenblattProfile.coeff_for_unit_mass()))
    rep = run(plan.problem, plan.grid, plan.time_grid,
              config=EpSolveConfig(residual_tol=1e-13))
    assert abs(rep.leak_diffusive[-1]) <= 1e-12
    final = rep.trajectory.fields[plan.time_grid.n_steps]
    support = prof.at_time(0.5).support_radius
    x = plan.grid.axis_coords(0)
    outside = np.abs(x) > 3.0 * support
    assert np.all(np.abs(final[outside]) <= 1e-13)


def test_step_gpme_max_principle_and_positivity():
    g = UniformGrid.from_box(1, 0.25, 2.0)
    phi = PhiSpec(kind="power", exponent=2.0)
    rng = np.random.default_rng(23)
    u = rng.uniform(0.0, 3.0, size=g.shape)
    out = step_gpme(_empty(g), 1, phi, 0.1, u,
                    config=EpSolveConfig(residual_tol=1e-12)).w
    assert np.all(out >= -1e-12)
    assert np.max(out) <= np.max(u) + 1e-10


def test_cde_step_ledger_terms():
    plan = build_plan(load_config("cde_burgers_frac_1d"))
    rep = run(plan.problem, plan.grid, plan.time_grid,
              config=EpSolveConfig(residual_tol=1e-13))
    assert np.max(np.abs(rep.identity_gap)) <= 1e-9 * (1.0 + rep.mass[0])
    # convection moves mass toward the outflow side, some of it out of the box
    assert rep.leak_convective[-1] >= 0.0


def test_run_rejects_cfl_violating_time_grid():
    cfg = load_config("burgers_riemann_1d")
    plan = build_plan(cfg)
    tg = TimeGrid.uniform(0.5, 10.0 * plan.grid.h)
    with pytest.raises(ConfigurationError):
        run(plan.problem, plan.grid, tg)


def test_flux_table_validation():
    with pytest.raises(ConfigurationError):
        FluxSpec(kind="table", u_range=(0.0, 1.0), table_u=(0.0, 1.0),
                 table_f=(0.0,))
    with pytest.raises(ConfigurationError):
        FluxSpec(kind="burgers", u_range=(1.0, 0.0))


def test_run_rejects_a_velocity_shorter_than_dim():
    # one component on the plane: named before any step, not an IndexError
    g = UniformGrid.from_box(2, 0.5, 1.0)
    problem = ProblemSpec(operator=OperatorSpec(c=1), phi=PhiSpec(kind="zero"),
                          initial=GaussianProfile(1.0, 0.25, (0.0, 0.0), 2),
                          flux=FluxSpec(kind="linear", u_range=(0.0, 1.0), velocity=(1.0,)))
    with pytest.raises(ConfigurationError) as err:
        run(problem, g, TimeGrid.uniform(0.1, 0.05))
    assert err.value.field == "problem.flux.velocity"


@pytest.mark.parametrize("call", [
    lambda flux, u: step_cde(_empty(UniformGrid.from_box(2, 0.5, 1.0)), 1,
                             PhiSpec(kind="zero"), flux, 0.01, 0.5, u),
    lambda flux, u: cfl_limit(flux, 0.5, u.ndim),
    lambda flux, u: flux_divergence(flux, u, 0.5),
], ids=["step_cde", "cfl_limit", "flux_divergence"])
def test_direct_calls_reject_a_velocity_shorter_than_dim(call):
    # the same check as run's, without the run: a 5 x 5 array, one component
    flux = FluxSpec(kind="linear", u_range=(0.0, 1.0), velocity=(1.0,))
    with pytest.raises(ConfigurationError) as err:
        call(flux, np.zeros((5, 5)))
    assert err.value.field == "problem.flux.velocity"


def test_run_hands_every_knot_to_on_knot_in_order():
    # the hook sees U^0 and then each step's field as it is finished, and
    # the trajectory keeps the array the hook returns; without the hook
    # the run is the same
    cfg = load_config({"preset": "pme_barenblatt_1d", "problem": {"h": 0.25, "T": 0.5}})
    plan = build_plan(cfg)
    seen, kept = [], []

    def on_knot(j, u):
        seen.append((j, u.copy()))
        kept.append(u.copy())
        return kept[-1]

    report = run(plan.problem, plan.grid, plan.time_grid, config=plan.solver, on_knot=on_knot)
    plain = run(plan.problem, plan.grid, plan.time_grid, config=plan.solver)
    fields = report.trajectory.fields
    assert plan.time_grid.n_steps >= 3
    assert [j for j, _ in seen] == list(range(len(fields)))
    assert all(a is b for a, b in zip(fields, kept))
    for (_, u), field, ref in zip(seen, fields, plain.trajectory.fields):
        assert u.tobytes() == field.tobytes() == ref.tobytes()
    assert report.to_json_dict() == plain.to_json_dict()
