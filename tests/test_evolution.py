"""Time stepping: ledger identity, order preservation, CFL, transport."""

import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpme.evolution
import gpme.grid_field
from gpme.cli import main
from gpme.config import build_plan, load_config
from gpme.elliptic_solver import EpSolveConfig, PhiSpec, _Resolvent, apply_stencil, solve_ep
from gpme.errors import ConfigurationError, DataError, StencilError
from gpme.evolution import FluxSpec, ProblemSpec, _convection, cfl_limit, run, step
from gpme.grid_field import TimeGrid, UniformGrid
from gpme.levy_operators import (MeasureSpec, OperatorSpec, WeightedStencil,
                                 combine_with_laplacian, measure_stencil)
from gpme.profiles import (BarenblattExact, BarenblattProfile, GaussianProfile,
                           SeparableSource, TimeFactor)


def _laplacian(g):
    """The Laplacian's operator on g's box."""
    return _Resolvent(OperatorSpec(c=1).build_stencil(g), g.shape)


def test_upwind_hand_oracle():
    # pure transport of a unit bump, f = u^2/2 increasing on [0, 1]:
    # interface flux is f(upwind left), so the bump cell loses
    # (dt/h) f(1) = 1/4 and its right neighbor gains the same
    g = UniformGrid.from_box(1, 0.5, 1.0)
    u = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    fl = FluxSpec(kind="burgers", u_range=(0.0, 1.0))
    out, outflow = step(_laplacian(g), PhiSpec(kind="zero"), 0.25, u, flux=fl)
    np.testing.assert_allclose(out.w, [0.0, 0.75, 0.25, 0.0, 0.0], atol=1e-14)
    assert outflow == 0.0


def test_flux_divergence_upwind_direction():
    fl = FluxSpec(kind="burgers", u_range=(0.0, 1.0))
    v = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(_convection(fl, v, 0.5)[0], [0.0, 1.0, -1.0, 0.0, 0.0])


def test_cfl_limit_inclusive():
    g = UniformGrid.from_box(1, 0.5, 1.0)
    fl = FluxSpec(kind="burgers", u_range=(0.0, 1.0))
    lim = cfl_limit(fl, g.h, g.dim)
    assert lim == pytest.approx(0.25)
    u = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    step(_laplacian(g), PhiSpec(kind="zero"), lim, u, flux=fl)
    with pytest.raises(ConfigurationError):
        step(_laplacian(g), PhiSpec(kind="zero"), 2.0 * lim, u, flux=fl)


@pytest.mark.parametrize("c", [2, 0.5, -1])
def test_operator_factor_outside_0_1_is_rejected(c):
    # the two entry points that still take the pair (stencil, c) merge it
    # on entry, and the merge accepts c = 0 or 1 only
    st = WeightedStencil.empty(0.5, 1)
    rho = np.array([0.0, 1.0, 0.0])
    calls = [
        lambda: solve_ep(st, c, PhiSpec(kind="linear"), 1.0, rho),
        lambda: solve_ep(st, c, PhiSpec(kind="zero"), 1.0, rho),
        lambda: apply_stencil(st, c, rho),
    ]
    for call in calls:
        with pytest.raises(ConfigurationError) as exc:
            call()
        assert exc.value.field == "operator.c"


@pytest.mark.parametrize("numerical", ["engquist_osher", "lax_friedrichs"])
def test_divergence_mass_leaves_through_the_boundary_faces(numerical):
    # the divergence and the outflow come from one set of faces: the
    # divergence's mass is the net flux out through the box's boundary
    g = UniformGrid.from_box(2, 0.25, 1.0)
    u = np.random.default_rng(2).uniform(-0.5, 1.0, size=g.shape)
    fl = FluxSpec(kind="linear", u_range=(-1.0, 1.0), velocity=(1.0, -0.5),
                  numerical=numerical)
    divergence, outflow = _convection(fl, u, g.h)
    assert g.cell_volume * np.sum(divergence) == pytest.approx(outflow, rel=1e-12)
    if numerical == "engquist_osher":
        # upwind: u leaves at velocity 1 through the last faces of axis 0
        # and at velocity 0.5 through the first faces of axis 1
        assert outflow == pytest.approx(g.h * (np.sum(u[-1, :]) + 0.5 * np.sum(u[:, 0])),
                                        rel=1e-12)


def test_escape_weights_boundary_only():
    g = UniformGrid.from_box(1, 0.5, 1.0)
    np.testing.assert_allclose(_laplacian(g).escape, [4.0, 0.0, 0.0, 0.0, 4.0])
    # in 2-D with a measure, the escape rate is minus the operator on ones
    g2 = UniformGrid.from_box(2, 0.5, 1.0)
    st = measure_stencil(MeasureSpec(kind="fractional", alpha=1.0), g2)
    ones = np.ones(g2.shape)
    np.testing.assert_array_equal(_Resolvent(combine_with_laplacian(st, 1), g2.shape).escape,
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


def test_step_max_principle_and_positivity():
    g = UniformGrid.from_box(1, 0.25, 2.0)
    phi = PhiSpec(kind="power", exponent=2.0)
    rng = np.random.default_rng(23)
    u = rng.uniform(0.0, 3.0, size=g.shape)
    out = step(_laplacian(g), phi, 0.1, u, config=EpSolveConfig(residual_tol=1e-12))[0].w
    assert np.all(out >= -1e-12)
    assert np.max(out) <= np.max(u) + 1e-10


def test_cde_step_ledger_terms():
    plan = build_plan(load_config("cde_burgers_frac_1d"))
    rep = run(plan.problem, plan.grid, plan.time_grid,
              config=EpSolveConfig(residual_tol=1e-13))
    assert np.max(np.abs(rep.identity_gap)) <= 1e-9 * (1.0 + rep.mass[0])
    # convection moves mass toward the outflow side, some of it out of the box
    assert rep.leak_convective[-1] >= 0.0


def test_run_with_flux_source_and_measure_keeps_the_ledger():
    # Burgers convection, a Gaussian source and the fractional measure in
    # one run: every ledger term moves, and the identity still closes
    plan = build_plan(load_config({"preset": "cde_burgers_frac_1d", "problem": {
        "initial": {"amplitude": 0.8},
        "source": {"spatial": {"kind": "gaussian", "amplitude": 0.5, "spread": 0.25}}}}))
    rep = run(plan.problem, plan.grid, plan.time_grid, config=plan.solver)
    assert np.max(np.abs(rep.identity_gap)) <= 1e-14
    np.testing.assert_allclose(rep.identity_gap, rep.residual_mass_cum, rtol=0.0, atol=1e-14)
    # T times the source's mass 0.5 sqrt(pi), nearly all of it in the box
    assert rep.source_cum[-1] == pytest.approx(0.3 * 0.5 * np.sqrt(np.pi), rel=1e-9)
    assert 0.0 < rep.leak_convective[-1] < 1e-6
    assert rep.leak_diffusive[-1] == pytest.approx(0.028, rel=0.01)
    lo, hi = plan.problem.flux.u_range
    assert lo <= rep.min_value.min() and rep.max_value.max() <= hi
    assert rep.max_value.max() == pytest.approx(0.799, rel=1e-3)
    # knot 1 is one step from U^0 on the run's operator, bit for bit, and
    # that step is convection, then the source, then the solve
    u0, knot1 = rep.trajectory.fields[:2]
    g0 = gpme.grid_field.project_source(plan.problem.source, plan.grid, plan.time_grid)[0]
    dt, phi, flux = plan.time_grid.steps[0], plan.problem.phi, plan.problem.flux
    result, outflow = step(rep.resolvent, phi, dt, u0, g=g0, flux=flux, config=plan.solver)
    assert result.w.tobytes() == knot1.tobytes()
    assert outflow == rep.leak_convective[1]
    rho = u0 - dt * _convection(flux, u0, plan.grid.h)[0] + dt * g0
    by_hand = solve_ep(rep.resolvent.stencil, 0, phi, dt, rho, config=plan.solver,
                       warm_start=u0, resolvent=rep.resolvent)
    assert by_hand.w.tobytes() == knot1.tobytes()


def test_run_starts_each_later_step_from_the_extrapolated_knots(monkeypatch):
    # on unequal steps, step j >= 1 is handed the guess
    # u^j + (u^j - u^(j-1)) dt_j / dt_(j-1); step 0 none, so it starts at U^0
    plan = build_plan(load_config({"preset": "pme_barenblatt_1d", "problem": {"h": 0.125}}))
    guesses = []
    real = gpme.evolution.step

    def record(*args, guess=None, **kwargs):
        guesses.append(guess)
        return real(*args, guess=guess, **kwargs)
    monkeypatch.setattr(gpme.evolution, "step", record)
    tg = TimeGrid([0.0, 0.05, 0.15, 0.175, 0.25])
    u, dts = run(plan.problem, plan.grid, tg, config=plan.solver).trajectory.fields, tg.steps
    assert len(guesses) == 4 and guesses[0] is None
    for j in range(1, 4):
        np.testing.assert_array_equal(guesses[j],
                                      u[j] + (u[j] - u[j - 1]) * (dts[j] / dts[j - 1]))


@pytest.mark.parametrize("name,most_sweeps,most_fallbacks", [
    ("stefan_1d", 110, 10),
    ("fast_diffusion_1d", 160, 0),
])
def test_extrapolated_start_pins_the_newton_counts(name, most_sweeps, most_fallbacks):
    # at h = 1/64, T = 0.5, starting every step from u^(j-1) took Stefan
    # 216 iterations with 34 Jacobi fallbacks and fast diffusion 202; the
    # extrapolated start takes 94 with 5, and 150.  The counts repeat
    # exactly
    plan = build_plan(load_config({"preset": name, "problem": {"h": 1.0 / 64, "T": 0.5}}))
    rep = run(plan.problem, plan.grid, plan.time_grid, config=plan.solver)
    assert int(np.sum(rep.sweeps)) <= most_sweeps
    assert int(np.sum(rep.fallbacks)) <= most_fallbacks
    assert rep.to_json_dict()["fallbacks"] == rep.fallbacks.tolist()
    assert len(rep.fallbacks) == len(rep.sweeps) == plan.time_grid.n_steps


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


@pytest.mark.parametrize("velocity", [0.75, -1.25])
def test_two_knot_flux_table_is_the_linear_flux_on_its_range(velocity):
    # velocity * u tabulated at the ends of u_range: there the table's
    # value, bound and both numerical fluxes are the linear flux's bytes
    lo, hi = -1.0, 1.0
    us = np.concatenate((np.linspace(lo, hi, 33),
                         np.random.default_rng(3).uniform(lo, hi, 31)))
    A, B = np.meshgrid(us, us, indexing="ij")
    for numerical in ("engquist_osher", "lax_friedrichs"):
        table = FluxSpec(kind="table", u_range=(lo, hi), numerical=numerical,
                         table_u=(lo, hi), table_f=(velocity * lo, velocity * hi))
        linear = FluxSpec(kind="linear", u_range=(lo, hi), numerical=numerical,
                          velocity=(velocity,))
        assert table.numerical_flux(A, B).tobytes() == linear.numerical_flux(A, B).tobytes()
        assert table.flux_value(us).tobytes() == linear.flux_value(us).tobytes()
        assert table.lipschitz() == linear.lipschitz() == abs(velocity)


# u^2/2 sampled at 17 knots on [-1, 1]
_HALF_SQUARE = {"kind": "table", "u_range": [-1.0, 1.0],
                "table_u": [float(u) for u in np.linspace(-1.0, 1.0, 17)],
                "table_f": [float(0.5 * u * u) for u in np.linspace(-1.0, 1.0, 17)]}


def _assert_consistent_and_monotone(flux, dim):
    """F(u, u) = f(u), F nondecreasing in a and nonincreasing in b, on 33
    samples of the declared u_range per axis, within 1e-10 (1 + max |f|)."""
    us = np.linspace(*flux.u_range, 33)
    A, B = np.meshgrid(us, us, indexing="ij")
    for axis in range(dim):
        f = flux.flux_value(us, axis)
        tol = 1e-10 * (1.0 + float(np.max(np.abs(f))))
        assert np.max(np.abs(flux.numerical_flux(us, us, axis) - f)) <= tol
        F = flux.numerical_flux(A, B, axis)
        assert np.min(np.diff(F, axis=0)) >= -tol
        assert np.max(np.diff(F, axis=1)) <= tol


@st.composite
def _fluxes(draw):
    """A flux of every kind on a random u_range: Burgers, a linear flux
    of 1 to 3 random velocities, or a table of 2 to 8 random knots whose
    values are sorted (monotone) or not; with either numerical flux."""
    lo = draw(st.floats(-3.0, 2.0))
    spec = {"kind": draw(st.sampled_from(["burgers", "linear", "table"])),
            "u_range": (lo, lo + draw(st.floats(0.1, 4.0))),
            "numerical": draw(st.sampled_from(["engquist_osher", "lax_friedrichs"]))}
    if spec["kind"] == "linear":
        spec["velocity"] = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3))
    elif spec["kind"] == "table":
        n = draw(st.integers(2, 8))
        gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
        values = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
        spec["table_u"] = np.cumsum([draw(st.floats(-4.0, 2.0)), *gaps])
        spec["table_f"] = sorted(values) if draw(st.booleans()) else values
    return FluxSpec(**spec)


@settings(max_examples=200, deadline=None)
@given(flux=_fluxes())
def test_numerical_flux_is_consistent_and_monotone_by_construction(flux):
    # the properties a monotone scheme needs of its two-point flux, for
    # every kind FluxSpec accepts: nothing samples them at run time
    _assert_consistent_and_monotone(flux, 1 if flux.velocity is None else len(flux.velocity))


def test_flux_table_of_burgers_is_a_monotone_engquist_osher_flux():
    table = FluxSpec(**_HALF_SQUARE)
    _assert_consistent_and_monotone(table, 2)
    # within the interpolation error (1/8)^2/8 of each of its two halves
    # from Burgers' own Engquist-Osher flux
    us = np.linspace(-1.0, 1.0, 41)
    A, B = np.meshgrid(us, us, indexing="ij")
    burgers = FluxSpec(kind="burgers", u_range=(-1.0, 1.0))
    np.testing.assert_allclose(table.numerical_flux(A, B), burgers.numerical_flux(A, B),
                               rtol=0.0, atol=2.0 * 0.125 ** 2 / 8.0)


def test_run_with_a_flux_table_keeps_the_ledger():
    plan = build_plan(load_config({"preset": "cde_burgers_frac_1d",
                                   "problem": {"flux": _HALF_SQUARE, "h": 0.125, "T": 0.25}}))
    assert plan.problem.flux.kind == "table"
    rep = run(plan.problem, plan.grid, plan.time_grid, config=plan.solver)
    assert np.max(np.abs(rep.identity_gap)) <= 1e-9 * (1.0 + rep.mass[0])
    np.testing.assert_allclose(rep.identity_gap, rep.residual_mass_cum, rtol=0.0, atol=1e-13)
    assert rep.leak_convective[-1] > 0.0


def test_run_rejects_a_velocity_shorter_than_dim():
    # one component on the plane: named before any step, not an IndexError
    g = UniformGrid.from_box(2, 0.5, 1.0)
    problem = ProblemSpec(operator=OperatorSpec(c=1), phi=PhiSpec(kind="zero"),
                          initial=GaussianProfile(1.0, 0.25, (0.0, 0.0), 2),
                          flux=FluxSpec(kind="linear", u_range=(0.0, 1.0), velocity=(1.0,)))
    with pytest.raises(ConfigurationError) as err:
        run(problem, g, TimeGrid.uniform(0.1, 0.05))
    assert err.value.field == "problem.flux.velocity"


def test_run_fails_at_the_first_knot_outside_the_flux_range():
    # U^0 peaks at 1, above the declared range: the run stops at knot 0,
    # before on_knot sees it; with room for the data it runs through
    g = UniformGrid.from_box(1, 0.25, 2.0)

    def problem(hi):
        return ProblemSpec(operator=OperatorSpec(c=1), phi=PhiSpec(kind="linear"),
                           initial=GaussianProfile(1.0, 0.25),
                           flux=FluxSpec(kind="burgers", u_range=(0.0, hi)))

    tg = TimeGrid.uniform(0.25, 0.05)
    seen = []
    with pytest.raises(DataError) as err:
        run(problem(0.5), g, tg, on_knot=lambda j, u: seen.append(j) or u)
    assert err.value.step == 0 and seen == []
    rep = run(problem(1.0), g, tg)
    assert rep.min_value.min() >= 0.0 and rep.max_value.max() <= 1.0


@pytest.mark.parametrize("call", [
    lambda flux, u: step(_laplacian(UniformGrid.from_box(2, 0.5, 1.0)),
                         PhiSpec(kind="zero"), 0.01, u, flux=flux),
    lambda flux, u: cfl_limit(flux, 0.5, u.ndim),
    lambda flux, u: _convection(flux, u, 0.5),
], ids=["step", "cfl_limit", "convection"])
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


def test_run_steps_from_its_own_fields_whatever_on_knot_keeps():
    # a hook that keeps nothing, or hands back an array that is not the
    # knot (as a writer's reused slot would be), changes no knot the run
    # computes and no ledger figure; keeping nothing leaves no field
    plan = build_plan(load_config({"preset": "pme_barenblatt_1d", "problem": {"h": 0.25}}))
    plain = run(plan.problem, plan.grid, plan.time_grid, config=plan.solver)
    knots = [field.tobytes() for field in plain.trajectory.fields]
    for keep, kept in ((lambda u: None, 0), (np.zeros_like, len(knots))):
        seen = []
        report = run(plan.problem, plan.grid, plan.time_grid, config=plan.solver,
                     on_knot=lambda j, u: seen.append(u.tobytes()) or keep(u))
        assert seen == knots
        assert report.to_json_dict() == plain.to_json_dict()
        assert len(report.trajectory.fields) == kept


# the first 16 hex digits of each artifact's sha256 from the one-field-per-
# step source projection, a list of avgs * (integral / dt) arrays
_SOURCE_RUN_DIGESTS = {
    "equitightness.csv": "5dba6b9b441c9db9",
    "field_00000.csv": "ecf3e392a166d5c0",
    "field_00003.csv": "6d61cc73d3dafae3",
    "field_00006.csv": "3feb6af55391efab",
    "field_00008.csv": "ace9dd168db82222",
    "report.json": "54e1b46b3feb492f",
}


def test_run_with_a_source_writes_the_bytes_of_one_field_per_step(tmp_path):
    # the source's cell averages are projected once and scaled by each
    # step's temporal mean when the step needs them: a source that moves
    # in time gives the artifacts of the projection that held every step.
    # Its 8 steps of 0.05625 are no power of two, so a reordered product
    # shows in the bits
    cfg = {"preset": "cde_burgers_frac_1d",
           "problem": {"h": 0.125, "T": 0.45, "initial": {"amplitude": 0.8},
                       "source": {"spatial": {"kind": "gaussian", "amplitude": 0.5,
                                              "spread": 0.25},
                                  "temporal": {"kind": "linear", "slope": 3.0}}},
           "diagnostics": {"R_list": [1.5], "save_stride": 3}}
    assert main(["run", "--config", json.dumps(cfg), "--out", str(tmp_path)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in tmp_path.iterdir()} == _SOURCE_RUN_DIGESTS


def test_source_projection_names_the_first_step_that_overflows():
    # cell averages near 1e300 times a temporal mean of 1e8 t: steps 1 and
    # 2 (means 0.5e8 and 1.5e8) stay finite, step 3 (2.5e8) overflows
    g = UniformGrid.from_box(1, 0.25, 2.0)
    source = SeparableSource(GaussianProfile(1e300, 0.25), TimeFactor("linear", slope=1e8))
    tg = TimeGrid(np.array([0.0, 1.0, 2.0, 3.0]))
    averages, factors = source.project(g, tg)
    with np.errstate(over="ignore"):
        assert [bool(np.all(np.isfinite(averages * f))) for f in factors] == [True, True, False]
        with pytest.raises(DataError, match="non-finite at step 3"):
            gpme.grid_field.project_source(source, g, tg)


def test_run_hands_knot_0_over_before_building_the_operator(monkeypatch):
    # a field writer gets U^0 while the stencil, resolvent and escape
    # weights are built
    plan = build_plan(load_config({"preset": "frac_heat_poisson_1d",
                                   "problem": {"h": 0.5, "T": 0.5}}))
    build = OperatorSpec.build_stencil
    events = []

    def spied(self, grid):
        events.append("build")
        return build(self, grid)

    monkeypatch.setattr(OperatorSpec, "build_stencil", spied)
    run(plan.problem, plan.grid, plan.time_grid, config=plan.solver,
        on_knot=lambda j, u: events.append(j) or u)
    assert events == [0, "build"] + list(range(1, plan.time_grid.n_steps + 1))


def test_failed_stencil_build_after_knot_0_leaves_no_field_file(tmp_path, capsys, monkeypatch,
                                                                forks):
    # the forked writer has written knot 0 when the stencil build fails:
    # no field file is left, and the record is the build's error
    monkeypatch.setattr(gpme.grid_field, "_FORK_MIN_VALUES", 0)
    out = tmp_path / "out"
    knot = gpme.grid_field.FieldWriter.knot
    posted = []

    def spied_knot(self, j, u):
        posted.append(j)
        return knot(self, j, u)

    def fails(self, grid):
        assert posted == [0]
        # give the child the time to start knot 0's file
        for _ in range(2000):
            if (out / "field_00000.csv.part").exists():
                break
            time.sleep(0.005)
        raise StencilError("density not integrable on the cell at (0.5,)", cell=(1,))

    monkeypatch.setattr(gpme.grid_field.FieldWriter, "knot", spied_knot)
    monkeypatch.setattr(OperatorSpec, "build_stencil", fails)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "preset": "heat_gaussian_1d",
        "problem": {"h": 0.5, "T": 0.5, "box_half_extent": 4.0,
                    "dt": {"policy": "linear", "factor": 0.1}},
        "diagnostics": {"R_list": [1.5], "save_stride": 1}}))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "runtime", "cell": [1],
                      "message": "density not integrable on the cell at (0.5,)"}
    assert len(forks) == 1 and posted == [0]
    assert list(out.iterdir()) == []
