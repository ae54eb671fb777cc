"""Closed-form data profiles and exact solutions against quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf, gamma

from gpme.errors import ConfigurationError
from gpme.profiles import (BarenblattExact, BarenblattProfile, ConstantProfile,
                           GaussianProfile, HeatGaussianExact, IndicatorProfile,
                           PoissonExact, PoissonKernelProfile, ShockExact, StepProfile,
                           TimeFactor, sphere_area)


def test_sphere_area_low_dims():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2.0 * np.pi)
    assert sphere_area(3) == pytest.approx(4.0 * np.pi)


def test_sphere_area_matches_scipy_gamma():
    # math.gamma and scipy's gamma agree at integers and at 1/2, and differ
    # by rounding at the half-integers from 3/2 on
    def scipy_area(n):
        return 2.0 * math.pi ** (n / 2.0) / gamma(n / 2.0)

    for n in (1, 2, 4):
        assert sphere_area(n) == scipy_area(n)
    for n in (3, 5, 7):
        assert abs(sphere_area(n) - scipy_area(n)) <= math.ulp(scipy_area(n))


def test_gaussian_closed_forms():
    prof = GaussianProfile(2.0, 0.25)
    assert prof.at(np.array([[0.0]]))[0] == pytest.approx(2.0)
    # integral of amp * exp(-x^2/(4 s)) over the line
    assert prof.l1_norm() == pytest.approx(2.0 * np.sqrt(4.0 * np.pi * 0.25))
    tail, err = quad(lambda x: 2.0 * np.exp(-x * x), 3.0, 40.0)
    assert prof.abs_tail_mass(3.0) == pytest.approx(2.0 * tail, rel=1e-10)


def test_gaussian_tail_mass_far_out():
    # spread 1/4 puts z = R; 1 - erf(8) is exactly 0 in floating point
    prof = GaussianProfile(1.0, 0.25)
    erfc_8 = 1.1224297172982928e-29
    tail = prof.abs_tail_mass(8.0) / math.sqrt(math.pi)
    assert tail == pytest.approx(erfc_8, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("dim,center", [(1, (0.7,)), (2, (0.3, -0.6))])
def test_gaussian_cell_averages_match_the_scipy_erf_form(dim, center):
    from gpme.grid_field import UniformGrid
    prof = GaussianProfile(1.5, 0.25, center, dim)
    grid = UniformGrid.from_box(dim, 0.1, 6.0 if dim == 1 else 3.0)
    h, root = grid.h, 2.0 * math.sqrt(prof.spread)
    scale = math.sqrt(math.pi * prof.spread) / h
    want = np.full(grid.shape, prof.amplitude)
    for i in range(dim):
        x = grid.axis_coords(i) - center[i]
        fac = scale * (erf((x + 0.5 * h) / root) - erf((x - 0.5 * h) / root))
        want = want * fac.reshape([-1 if j == i else 1 for j in range(dim)])
    np.testing.assert_allclose(prof.cell_averages(grid), want, rtol=1e-14, atol=0.0)


def test_gaussian_center_length_must_match_dim():
    with pytest.raises(ConfigurationError) as exc:
        GaussianProfile(1.0, 0.25, (1.0, 2.0), 1)
    assert exc.value.field == "center"
    # an omitted centre is the origin of the profile's dimension
    assert GaussianProfile(1.0, 0.25, dim=2).center == (0.0, 0.0)


def test_gaussian_cell_average_second_order():
    prof = GaussianProfile(1.0, 0.25)
    from gpme.grid_field import UniformGrid
    for h in (0.2, 0.1):
        g = UniformGrid.from_box(1, h, 1.0)
        avg = prof.cell_averages(g)
        mid = prof.at(g.coords())
        worst = np.max(np.abs(avg - mid))
        assert worst < 0.2 * h * h


def test_barenblatt_support_and_mass():
    prof = BarenblattProfile(1.0, coeff=0.25)
    r = prof.support_radius
    pts = np.array([[r * 1.001], [r * 0.999]])
    v = prof.at(pts)
    assert v[0] == 0.0 and v[1] > 0.0
    # self-similar spreading preserves mass
    m1 = BarenblattProfile(1.0, coeff=0.25).l1_norm()
    m2 = BarenblattProfile(3.0, coeff=0.25).l1_norm()
    assert m1 == pytest.approx(m2, rel=1e-12)
    q, err = quad(lambda x: prof.at(np.array([[x]]))[0], -r, r)
    assert m1 == pytest.approx(q, rel=1e-9)


def test_barenblatt_unit_mass_coefficient():
    c = BarenblattProfile.coeff_for_unit_mass()
    assert BarenblattProfile(1.0, coeff=c).l1_norm() == pytest.approx(1.0, rel=1e-12)


def test_barenblatt_exact_time_translation():
    ex = BarenblattExact(BarenblattProfile(1.0, coeff=0.25))
    p0 = ex.at_time(0.0)
    assert p0.support_radius == pytest.approx(BarenblattProfile(1.0, coeff=0.25).support_radius)
    p2 = ex.at_time(2.0)
    assert p2.support_radius == pytest.approx(BarenblattProfile(3.0, coeff=0.25).support_radius)


def test_poisson_kernel_normalized():
    prof = PoissonKernelProfile(1.0)
    x = np.array([[0.0], [1.0]])
    np.testing.assert_allclose(prof.at(x), [1.0 / np.pi, 1.0 / (2.0 * np.pi)])
    assert prof.l1_norm() == pytest.approx(1.0)
    # kernel at a later time stays a kernel
    ex = PoissonExact(PoissonKernelProfile(1.0))
    assert ex.at_time(0.4).l1_norm() == pytest.approx(1.0)
    assert ex.at_time(0.4).at(np.array([[0.0]]))[0] == pytest.approx(1.0 / (np.pi * 1.4))


def test_heat_gaussian_exact_spreads_and_conserves():
    ex = HeatGaussianExact(GaussianProfile(1.0 / np.sqrt(np.pi), 0.25, (0.0,)))
    assert ex.initial.l1_norm() == pytest.approx(1.0)
    late = ex.at_time(0.5)
    assert late.l1_norm() == pytest.approx(1.0)
    assert late.at(np.array([[0.0]]))[0] < ex.initial.at(np.array([[0.0]]))[0]


def test_indicator_partial_cells():
    prof = IndicatorProfile(-1.0, 1.0)
    assert prof.l1_norm() == pytest.approx(2.0)
    assert prof.abs_tail_mass(0.5) == pytest.approx(1.0)
    from gpme.grid_field import UniformGrid
    g = UniformGrid.from_box(1, 0.4, 1.6)
    avg = IndicatorProfile(-0.9, 0.9).cell_averages(g)
    # cell centered at 0.8 covers [0.6, 1.0]; the data stops at 0.9
    i = int(np.argmin(np.abs(g.axis_coords(0) - 0.8)))
    assert avg[i] == pytest.approx(0.75)
    with pytest.raises(ConfigurationError):
        IndicatorProfile(1.0, -1.0)


def test_step_profile_and_shift_distance():
    prof = StepProfile(1.0, 0.0, position=0.0)
    v = prof.at(np.array([[-0.5], [0.5]]))
    np.testing.assert_allclose(v, [1.0, 0.0])


def test_shock_exact_moves_at_mean_flux_speed():
    ex = ShockExact(StepProfile(1.0, 0.0, 0.0))
    prof = ex.at_time(0.5)
    v = prof.at(np.array([[0.2], [0.3]]))
    np.testing.assert_allclose(v, [1.0, 0.0])


def test_temporal_factors_integrate():
    c = TimeFactor("constant", 2.0)
    assert c.integral(0.0, 0.5) == pytest.approx(1.0)
    lin = TimeFactor("linear", slope=2.0)
    assert lin.integral(0.0, 1.0) == pytest.approx(1.0)


@pytest.mark.parametrize("override", [
    {"preset": "heat_gaussian_1d", "problem": {"initial": {"center": [1.0]}}},
    {"preset": "heat_gaussian_1d", "problem": {
        "dim": 2, "h": 0.25, "box_half_extent": 2.0,
        "initial": {"center": [0.5, -0.25]}}, "diagnostics": {"R_list": []}},
    {"preset": "burgers_riemann_1d", "problem": {"initial": {"position": 0.3}}},
], ids=["gaussian_off_centre", "gaussian_off_centre_2d", "step_off_origin"])
def test_exact_reference_starts_from_the_initial_data(override):
    from gpme.config import build_plan, load_config
    from gpme.grid_field import project_cell_average

    plan = build_plan(load_config(override))
    np.testing.assert_array_equal(plan.exact.at_time(0.0).cell_averages(plan.grid),
                                  project_cell_average(plan.problem.initial, plan.grid))


@pytest.mark.parametrize("prof", [
    ConstantProfile(-2.5), ConstantProfile(1.5, dim=3),
    GaussianProfile(-2.0, 0.3), GaussianProfile(1.3, 0.2, (0.7,)),
    GaussianProfile(0.9, 0.25, dim=2), GaussianProfile(1.1, 0.15, dim=3),
    BarenblattProfile(time=0.7), PoissonKernelProfile(0.125),
    IndicatorProfile(-0.5, 1.0), StepProfile(1.0, -0.5, 0.25)],
    ids=lambda p: f"{type(p).__name__}-{p.dim}")
def test_one_point_evaluation_has_the_bits_of_at(prof):
    # the quadrature integrands evaluate the profile one float at a time;
    # they must read the same bits as the array evaluation at (x, 0, ..., 0)
    xs = np.concatenate([np.linspace(-6.0, 6.0, 4001),
                         np.random.default_rng(1).normal(0.0, 2.0, 2000),
                         [-1.0, -0.5, 0.0, 0.25, 1.0, 1e-300, -0.0]])
    points = np.zeros((xs.size, prof.dim))
    points[:, 0] = xs
    want = np.abs(prof.at(points))
    got = np.array([prof._abs_at(float(x)) for x in xs])
    assert got.tobytes() == want.tobytes()
