"""Cutoffs, tail masses, and the tail-control certificate."""

import json
import math

import numpy as np
import pytest

from gpme.config import build_plan, load_config
from gpme.diagnostics import (Cutoff, KnotTails, _sample_times, admissible_threshold, build_cutoff,
                              conjugate_exponents, ct_lr_distance,
                              equitightness_check, forward_difference_norms,
                              operator_cutoff_norm, smooth_step, smooth_step_d1,
                              smooth_step_d2, tail_mass)
from gpme.elliptic_solver import (_KERNEL_THRESHOLD, EpSolveConfig, PhiSpec, _Resolvent,
                                  apply_stencil, solve_ep)
from gpme.errors import ConfigurationError, DataError
from gpme.evolution import ProblemSpec, run
from gpme.grid_field import TimeGrid, Trajectory, UniformGrid, lr_norm_of_values
from gpme.levy_operators import MeasureSpec, OperatorSpec, measure_stencil
from gpme.profiles import GaussianProfile, PoissonKernelProfile
from zero_extension import shifted


def test_smooth_step_endpoints_and_monotone():
    s = np.linspace(-0.5, 1.5, 401)
    v = smooth_step(s)
    assert np.all(v[s <= 0.0] == 0.0)
    assert np.all(v[s >= 1.0] == 1.0)
    assert smooth_step(np.array([0.5]))[0] == pytest.approx(0.5)
    inner = v[(s > 0.0) & (s < 1.0)]
    assert np.all(np.diff(inner) >= 0.0)
    mid = v[(s > 0.2) & (s < 0.8)]
    assert np.all(np.diff(mid) > 0.0)


def test_smooth_step_derivatives_match_finite_differences():
    s = np.linspace(0.05, 0.95, 181)
    d = 1e-6
    num1 = (smooth_step(s + d) - smooth_step(s - d)) / (2.0 * d)
    np.testing.assert_allclose(smooth_step_d1(s), num1, rtol=5e-8, atol=1e-10)
    num2 = (smooth_step_d1(s + d) - smooth_step_d1(s - d)) / (2.0 * d)
    np.testing.assert_allclose(smooth_step_d2(s), num2, rtol=5e-7, atol=1e-8)


def test_cutoff_vanishes_inside_saturates_outside():
    cut = Cutoff(4.0)
    r = np.array([0.0, 2.0, 3.0, 4.0, 5.0])
    v = cut.value_radial(r)
    assert v[0] == 0.0 and v[1] == 0.0 and v[3] == 1.0 and v[4] == 1.0
    assert 0.0 < v[2] < 1.0


def test_cutoff_sup_norm_is_one_and_l2_rejected_at_order_zero():
    assert Cutoff(4.0).derivative_norm(0, np.inf) == pytest.approx(1.0)
    with pytest.raises(DataError):
        Cutoff(4.0).derivative_norm(0, 2.0)


def test_tail_mass_hand_value_and_monotonicity():
    g = UniformGrid.from_box(1, 0.5, 3.0)
    u = np.ones(g.shape)
    # cells centered beyond 2.0: centers 2.5 and 3.0 on each side
    assert tail_mass(u, g, 2.0) == pytest.approx(0.5 * 4)
    assert tail_mass(u, g, 1.0) >= tail_mass(u, g, 2.0) >= tail_mass(u, g, 2.9)


def test_conjugate_exponents():
    assert conjugate_exponents(1.0) == (np.inf, 1.0)
    assert conjugate_exponents(0.5) == (2.0, 2.0)
    p, q = conjugate_exponents(0.75)
    assert p == pytest.approx(4.0) and q == pytest.approx(4.0 / 3.0)


def test_admissible_threshold():
    # (N - a)^+/N for a measure of tail order a, alpha raised to 1 by a
    # truncation, the same for c = 0 and c = 1 since alpha < 2 keeps it
    # above the Laplacian's (N - 2)^+/N; an untruncated custom density
    # shows no tail, so no threshold
    local = OperatorSpec(c=1, measure=None)
    assert [admissible_threshold(local, dim) for dim in (1, 2, 3)] == \
        pytest.approx([0.0, 0.0, 1.0 / 3.0])
    density = lambda r: np.exp(-r)
    table = [  # measure, threshold at N = 1, 2, 3
        (MeasureSpec(kind="fractional", alpha=0.5), [0.5, 0.75, 5 / 6]),
        (MeasureSpec(kind="fractional", alpha=1.0), [0.0, 0.5, 2 / 3]),
        (MeasureSpec(kind="fractional", alpha=1.5), [0.0, 0.25, 0.5]),
        (MeasureSpec(kind="split", alpha=0.5, beta=1.5), [0.5, 0.75, 5 / 6]),
        (MeasureSpec(kind="fractional", alpha=0.5, truncation=2.0), [0.0, 0.5, 2 / 3]),
        (MeasureSpec(kind="fractional", alpha=1.5, truncation=2.0), [0.0, 0.25, 0.5]),
        (MeasureSpec(kind="custom", density=density, truncation=2.0), [0.0, 0.5, 2 / 3]),
    ]
    for measure, expected in table:
        for c in (0, 1):
            got = [admissible_threshold(OperatorSpec(c=c, measure=measure), dim)
                   for dim in (1, 2, 3)]
            assert got == pytest.approx(expected), (measure, c)
    custom = MeasureSpec(kind="custom", density=density)
    assert all(admissible_threshold(OperatorSpec(c=c, measure=custom), dim) is None
               for c in (0, 1) for dim in (1, 2, 3))


def test_operator_cutoff_norm_needs_room():
    # the nodal cutoff that operator_cutoff_norm reads is built only when
    # the box contains R
    g = UniformGrid.from_box(1, 0.25, 2.0)
    with pytest.raises(ConfigurationError):
        build_cutoff(4.0, g)
    X, _ = build_cutoff(2.0, g)
    resolvent = _Resolvent(OperatorSpec(c=1, measure=None).build_stencil(g), g.shape)
    assert operator_cutoff_norm(resolvent, X, np.inf) > 0.0


@pytest.mark.parametrize("support", [0.5, None], ids=["short", "dense"])
def test_an_operator_built_for_another_box_is_rejected(support):
    # the operator of a 49-node line's stencil, built on 33 nodes: a dense
    # kernel's spectrum would wrap jumps onto nodes and drop the offsets
    # past 32, and a short stencil's band would not fit the values.  Each
    # entry point that takes it names both shapes
    large, small = UniformGrid.from_box(1, 0.25, 6.0), UniformGrid.from_box(1, 0.25, 4.0)
    operator = OperatorSpec(c=0, measure=MeasureSpec(kind="fractional", alpha=1.0),
                            support_radius=support)
    stencil = operator.build_stencil(large)
    assert (stencil.n_offsets > _KERNEL_THRESHOLD) == (support is None)
    resolvent = _Resolvent(stencil, small.shape)
    prof = GaussianProfile(1.0, 0.25)
    u = prof.at(large.axis_coords(0)[:, None])
    traj = Trajectory(large, TimeGrid(np.array([0.0, 0.5])), (u, u))
    problem = ProblemSpec(operator=operator, phi=PhiSpec(kind="linear"), initial=prof)
    for call in (lambda: apply_stencil(stencil, 0, u, resolvent),
                 lambda: solve_ep(stencil, 0, problem.phi, 0.1, u, resolvent=resolvent),
                 lambda: equitightness_check(traj, problem, 1.5, resolvent=resolvent)):
        with pytest.raises(ConfigurationError, match=r"shape \(33,\).* shape \(49,\)"):
            call()


@pytest.mark.parametrize("half_extent", [2.0, 6.0], ids=["short", "dense"])
def test_an_operator_built_for_another_stencil_is_rejected(half_extent):
    # the fractional measure's operator on the right box, handed to a
    # Laplacian solve and to the measure merged with the Laplacian: each
    # entry point rejects it rather than applying the wrong weights.  An
    # equal stencil built anew is accepted and gives the same bits
    g = UniformGrid.from_box(1, 0.25, half_extent)
    operator = OperatorSpec(c=0, measure=MeasureSpec(kind="fractional", alpha=1.0))
    frac = operator.build_stencil(g)
    assert (frac.n_offsets > _KERNEL_THRESHOLD) == (half_extent == 6.0)
    lap = OperatorSpec(c=1).build_stencil(g)
    resolvent = _Resolvent(frac, g.shape)
    u = GaussianProfile(1.0, 0.25).cell_averages(g)
    phi = PhiSpec(kind="linear")
    for call in (lambda: apply_stencil(lap, 0, u, resolvent),
                 lambda: apply_stencil(frac, 1, u, resolvent),
                 lambda: solve_ep(lap, 0, phi, 0.1, u, resolvent=resolvent),
                 lambda: solve_ep(frac, 1, phi, 0.1, u, resolvent=resolvent)):
        with pytest.raises(ConfigurationError, match="another stencil"):
            call()
    again = operator.build_stencil(g)
    assert again is not frac
    assert (apply_stencil(again, 0, u, resolvent).tobytes()
            == apply_stencil(frac, 0, u).tobytes())
    assert (solve_ep(again, 0, phi, 0.1, u, resolvent=resolvent).w.tobytes()
            == solve_ep(frac, 0, phi, 0.1, u).w.tobytes())


def test_certificate_rejects_another_operators_resolvent():
    # a Laplacian problem (h = 0.25, box 6, R = 1.5) handed the operator of
    # the fractional measure on the same box, from a run (whose resolvent
    # records its OperatorSpec) and built from the bare stencil, or the
    # Laplacian's at h = 0.5 on a box of the same shape: each is rejected,
    # rather than certifying the problem with another operator's bound.
    # The problem's own gives the certificate that one built anew gives
    g, coarse = UniformGrid.from_box(1, 0.25, 6.0), UniformGrid.from_box(1, 0.5, 12.0)
    assert g.shape == coarse.shape
    prof, phi, tg = GaussianProfile(1.0, 0.25), PhiSpec(kind="linear"), TimeGrid.uniform(0.25, 0.125)
    lap = ProblemSpec(operator=OperatorSpec(c=1), phi=phi, initial=prof)
    frac = ProblemSpec(operator=OperatorSpec(c=0, measure=MeasureSpec(kind="fractional",
                                                                      alpha=1.0)),
                       phi=phi, initial=prof)
    rep = run(lap, g, tg)
    for other in (run(frac, g, tg).resolvent, _Resolvent(frac.operator.build_stencil(g), g.shape),
                  run(lap, coarse, tg).resolvent):
        with pytest.raises(ConfigurationError, match="another"):
            equitightness_check(rep.trajectory, lap, 1.5, resolvent=other)
    own = equitightness_check(rep.trajectory, lap, 1.5, resolvent=rep.resolvent)
    assert own.to_json_dict() == equitightness_check(rep.trajectory, lap, 1.5).to_json_dict()


def test_certificate_from_knot_tails_matches_the_stored_trajectory():
    # the tails reduced knot by knot, as a run streams them, give the
    # certificate of the stored fields, for the radii and exponent they
    # were reduced at only
    plan, rep = _small_run("heat_gaussian_1d")
    tails = KnotTails(plan.grid, plan.time_grid, [1.5, 3.0], r=1.0)
    with pytest.raises(DataError):
        tails.worst(1.5, 1.0)
    for j, u in enumerate(rep.trajectory.fields):
        tails.knot(j, u)
    for R in (1.5, 3.0):
        streamed = equitightness_check(tails, plan.problem, R, resolvent=rep.resolvent)
        stored = equitightness_check(rep.trajectory, plan.problem, R, resolvent=rep.resolvent)
        assert streamed.to_json_dict() == stored.to_json_dict()
    for R, r in ((2.0, 1.0), (1.5, 2.0)):
        with pytest.raises(ConfigurationError):
            equitightness_check(tails, plan.problem, R, r=r)


def test_forward_difference_norm_tracks_gradient():
    g = UniformGrid.from_box(1, 0.01, 6.0)
    X, _ = build_cutoff(4.0, g)
    disc = forward_difference_norms(X, g.h, np.inf)
    assert disc == pytest.approx(Cutoff(4.0).derivative_norm(1, np.inf), rel=0.02)


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
@pytest.mark.parametrize("dim,h", [(1, 0.05), (2, 0.125), (3, 0.25)])
def test_forward_differences_are_the_zero_filled_shift_differences(dim, h, p):
    # the one-sided difference at the box's last node reads the zero
    # extension of X - 1 beyond it.  A cutoff's X - 1 vanishes there, so
    # random values in [0, 1] stand in for X, nonzero at the edge too
    g = UniformGrid.from_box(dim, h, 1.0)
    X = np.random.default_rng(dim).uniform(size=g.shape)
    vals = X - 1.0
    want = 0.0
    for axis in range(dim):
        d = (shifted(vals, tuple(np.eye(dim, dtype=int)[axis])) - vals) / h
        want += lr_norm_of_values(d, h ** dim, p)
    assert forward_difference_norms(X, h, p) == want


def test_ct_distance_zero_self_positive_shifted():
    g = UniformGrid.from_box(1, 0.5, 1.0)
    a = Trajectory(g, TimeGrid(np.array([0.0, 1.0])), (np.zeros(5), np.ones(5)))
    b = Trajectory(g, TimeGrid(np.array([0.0, 1.0])), (np.zeros(5), 2.0 * np.ones(5)))
    assert ct_lr_distance(a, a) == 0.0
    assert ct_lr_distance(a, b) == pytest.approx(2.5)
    c = Trajectory(g, TimeGrid(np.array([0.0, 2.0])), (np.zeros(5), np.ones(5)))
    with pytest.raises(DataError):
        ct_lr_distance(a, c)


def _small_run(name):
    plan = build_plan(load_config(name))
    rep = run(plan.problem, plan.grid, plan.time_grid,
              config=EpSolveConfig(residual_tol=1e-13))
    return plan, rep


def test_equitightness_bound_holds_for_heat():
    plan, rep = _small_run("heat_gaussian_1d")
    for R in (1.5, 3.0):
        report = equitightness_check(rep.trajectory, plan.problem, R, resolvent=rep.resolvent)
        assert report.bound_asserted
        assert report.passed
        assert report.lhs <= report.rhs_total * (1.0 + 1e-9)


def test_equitightness_not_asserted_with_flux_at_finite_p():
    plan, rep = _small_run("cde_burgers_frac_1d")
    report = equitightness_check(rep.trajectory, plan.problem, 1.5)
    # linear phi gives p = infinity, so the convective term is covered
    assert report.bound_asserted

    # in two dimensions ell = 1/2 gives p = 2 = N, so a flux term drops
    # the certificate
    from gpme.evolution import FluxSpec, ProblemSpec
    from gpme.levy_operators import OperatorSpec
    from gpme.elliptic_solver import PhiSpec
    from gpme.grid_field import project_cell_average

    g2 = UniformGrid.from_box(2, 0.5, 4.0)
    prof = GaussianProfile(1.0, 0.25, dim=2)
    u0 = project_cell_average(prof, g2)
    tr = Trajectory(g2, TimeGrid(np.array([0.0, 0.5])), (u0, u0.copy()))
    prob = ProblemSpec(operator=OperatorSpec(c=1, measure=None),
                       phi=PhiSpec(kind="power", exponent=0.5),
                       initial=prof,
                       flux=FluxSpec(kind="burgers", u_range=(0.0, 1.0)))
    report2 = equitightness_check(tr, prob, 2.0)
    assert not report2.bound_asserted
    assert "not asserted" in report2.note


def test_equitightness_report_serializes():
    plan, rep = _small_run("heat_gaussian_1d")
    report = equitightness_check(rep.trajectory, plan.problem, 1.5)
    blob = json.dumps(report.to_json_dict())
    back = json.loads(blob)
    assert back["p"] == "inf"
    assert back["passed"] is True


_KNOTS = np.array([0.0, 0.1, 0.25, 0.3, 0.5])


def _random_trajectory(dim, h, half_extent, seed):
    g = UniformGrid.from_box(dim, h, half_extent)
    rng = np.random.default_rng(seed)
    fields = tuple(rng.standard_normal(g.shape) for _ in _KNOTS)
    return Trajectory(g, TimeGrid(_KNOTS), fields)


@pytest.mark.parametrize("r", [1.0, 2.0])
@pytest.mark.parametrize("dim,h,half_extent,R", [(1, 0.125, 4.0, 1.5), (2, 0.25, 3.0, 2.0)])
def test_certificate_lhs_matches_brute_force(dim, h, half_extent, R, r):
    traj = _random_trajectory(dim, h, half_extent, seed=dim)
    prob = ProblemSpec(operator=OperatorSpec(c=1, measure=None),
                       phi=PhiSpec(kind="linear"),
                       initial=GaussianProfile(1.0, 0.25, dim=dim))
    report = equitightness_check(traj, prob, R, r=r)
    want = max(tail_mass(traj.values_at_time(float(t)), traj.grid, R, r)
               for t in _sample_times(traj.time_grid.knots))
    assert report.lhs == want


def _ct_distance_by_point_lookup(traj_a, traj_b, r):
    """The sup of the L^r distance over the union knots and the midpoints
    between them, each interpolant looked up point by point at the finer
    grid's nodes: a rule that does not rely on the sup lying at a knot."""
    fine = traj_a.grid if traj_a.grid.h <= traj_b.grid.h else traj_b.grid
    pts = fine.coords()

    def at(traj, t):
        idx, inside = traj.grid.cell_of(pts)
        vals = traj.values_at_time(t)[tuple(np.moveaxis(idx, -1, 0))]
        return np.where(inside, vals, 0.0)

    knots = np.union1d(traj_a.time_grid.knots, traj_b.time_grid.knots)
    return max(lr_norm_of_values(at(traj_a, t) - at(traj_b, t), fine.cell_volume, r)
               for t in _sample_times(knots).tolist())


@pytest.mark.parametrize("r", [1.0, 2.0])
@pytest.mark.parametrize("ratio", [1, 2, 4])
@pytest.mark.parametrize("mesh", ["h:h", "h:h/2", "h:h/2 wider"])
@pytest.mark.parametrize("dim,h,half_extent", [(1, 0.125, 2.0), (2, 0.25, 1.5)])
def test_ct_distance_at_knots_matches_point_lookup(dim, h, half_extent, mesh, ratio, r):
    # the finer run takes `ratio` steps in each step of the coarser one,
    # with larger values at the knots of its own, so that for ratio > 1
    # the sup lies at one of those; in the wider case its box reaches a
    # cell past the coarser box
    fine_h = h if mesh == "h:h" else h / 2
    fine_box = half_extent + h if mesh.endswith("wider") else half_extent
    fine_knots = np.concatenate([np.linspace(a, b, ratio + 1)[:-1]
                                 for a, b in zip(_KNOTS[:-1], _KNOTS[1:])] + [_KNOTS[-1:]])
    coarse = _random_trajectory(dim, h, half_extent, seed=10 * dim + ratio)
    g = UniformGrid.from_box(dim, fine_h, fine_box)
    rng = np.random.default_rng(10 * dim + ratio + 5)
    fine = Trajectory(g, TimeGrid(fine_knots),
                      tuple(rng.standard_normal(g.shape) * (1.0 if t in _KNOTS else 3.0)
                            for t in fine_knots))
    inside = coarse.grid.cell_of(fine.grid.coords())[1]
    assert inside.all() != mesh.endswith("wider")
    want = _ct_distance_by_point_lookup(coarse, fine, r)
    assert ct_lr_distance(coarse, fine, r) == want
    assert ct_lr_distance(fine, coarse, r) == want


def _smooth_step_by_definition(s):
    def e(x):
        return math.exp(-1.0 / x) if x > 0.0 else 0.0

    a, b = e(s), e(1.0 - s)
    return a / (a + b) if a + b > 0.0 else math.nan


@pytest.mark.parametrize("s", [-0.0, 5e-324, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52,
                               math.inf, -math.inf, math.nan])
def test_smooth_step_edge_inputs_match_definition(s):
    got = float(smooth_step(s))
    want = _smooth_step_by_definition(s)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_derivative_norm_matches_quad(dim):
    from scipy.integrate import quad

    from gpme.profiles import sphere_area

    for R in (1.5, 4.0):
        cut = Cutoff(R, dim=dim)
        for k in (1, 2):
            for p in (2.0, 4.0):
                def g(r):
                    d = float(cut.radial_derivative(np.array([r]), k)[0])
                    return sphere_area(dim) * r ** (dim - 1) * abs(d) ** p

                want = quad(g, 0.5 * R, R, epsabs=1e-16, epsrel=1e-13, limit=400)[0] ** (1 / p)
                assert cut.derivative_norm(k, p) == pytest.approx(want, rel=1e-12), (R, k, p)


def _simpson(f, a, b, n=4000):
    x = np.linspace(a, b, n + 1)
    y = f(x)
    return (b - a) / (3.0 * n) * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2])
                                  + 2.0 * np.sum(y[2:-1:2]))


def _weighted_l1_gaussian_1d():
    A, s, R = 1.3, 0.4, 2.0
    tail = A * 2.0 * math.sqrt(math.pi * s) * math.erfc(R / (2.0 * math.sqrt(s)))
    return GaussianProfile(A, s), R, tail


def _weighted_l1_poisson_1d():
    t0, R = 0.7, 3.0
    return PoissonKernelProfile(t0), R, 1.0 - (2.0 / math.pi) * math.atan(R / t0)


def _weighted_l1_gaussian_2d():
    A, s, R = 0.9, 0.3, 1.5
    # integral over r > R of 2 pi r A exp(-r^2/(4 s))
    return GaussianProfile(A, s, dim=2), R, 4.0 * math.pi * A * s * math.exp(-R * R / (4.0 * s))


@pytest.mark.parametrize("case", [_weighted_l1_gaussian_1d, _weighted_l1_poisson_1d,
                                  _weighted_l1_gaussian_2d])
def test_weighted_abs_l1_matches_simpson_oracle(case):
    prof, R, tail = case()
    cut = Cutoff(R, dim=prof.dim)
    if prof.dim == 1:
        def f(x):
            return np.abs(prof.at(x[:, None])) * cut.value_radial(np.abs(x))

        inner = _simpson(f, 0.5 * R, R) + _simpson(f, -R, -0.5 * R)
    else:
        def f(r):
            pts = np.stack([r, np.zeros_like(r)], axis=-1)
            return 2.0 * math.pi * r * np.abs(prof.at(pts)) * cut.value_radial(r)

        inner = _simpson(f, 0.5 * R, R)
    assert prof.weighted_abs_l1(cut) == pytest.approx(inner + tail, rel=1e-10, abs=0.0)
