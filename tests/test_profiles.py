"""Closed-form data profiles and exact solutions against quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc, gammaincc, gamma

from gpme.config import load_config
from gpme.diagnostics import Cutoff
from gpme.errors import ConfigurationError, DataError
from gpme.presets import PRESETS
from gpme.profiles import (BarenblattExact, BarenblattProfile, ConstantProfile,
                           GaussianProfile, HeatGaussianExact, IndicatorProfile,
                           PoissonExact, PoissonKernelProfile, ShockExact, StepProfile,
                           TimeFactor, _qk21, _upper_gamma_q, adaptive_quad,
                           sphere_area)


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


def _scipy_cell_factor(x, h, root):
    """erf((x + h/2)/root) - erf((x - h/2)/root) as scipy's erfc
    difference on the cell's side of the centre, free of cancellation."""
    lo, hi = (x - 0.5 * h) / root, (x + 0.5 * h) / root
    return np.where(x >= 0.0, erfc(lo) - erfc(hi), erfc(-hi) - erfc(-lo))


@pytest.mark.parametrize("dim,center", [(1, (0.7,)), (2, (0.3, -0.6))])
def test_gaussian_cell_averages_match_the_scipy_erf_form(dim, center):
    from gpme.grid_field import UniformGrid
    prof = GaussianProfile(1.5, 0.25, center, dim)
    grid = UniformGrid.from_box(dim, 0.1, 6.0 if dim == 1 else 3.0)
    h, root = grid.h, 2.0 * math.sqrt(prof.spread)
    scale = math.sqrt(math.pi * prof.spread) / h
    want = np.full(grid.shape, prof.amplitude)
    for i in range(dim):
        fac = scale * _scipy_cell_factor(grid.axis_coords(i) - center[i], h, root)
        want = want * fac.reshape([-1 if j == i else 1 for j in range(dim)])
    np.testing.assert_allclose(prof.cell_averages(grid), want, rtol=1e-14, atol=0.0)


def test_gaussian_cell_averages_keep_the_far_tail():
    # erf(hi) - erf(lo) is exactly 0 from x = 5.77 on at this mesh and off
    # by 1.5e-4 relative at x = 5; the erfc difference keeps every digit
    from gpme.grid_field import UniformGrid
    prof = GaussianProfile(1.0, 0.25)
    grid = UniformGrid.from_box(1, 1.0 / 64, 8.0)
    x = grid.axis_coords(0)
    got = prof.cell_averages(grid)
    want = math.sqrt(math.pi * prof.spread) / grid.h * _scipy_cell_factor(x, grid.h, 1.0)
    for at in (5.0, 6.5, -5.0, -6.5):
        i = int(np.flatnonzero(x == at)[0])
        assert got[i] == pytest.approx(want[i], rel=1e-13, abs=0.0), at
        assert got[i] > 0.0


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


# every tail radius of a preset, and radii at which the indicator's ends,
# the step and the Barenblatt support edge fall inside the cutoff band
_RADII = sorted({R for name in PRESETS for R in load_config(name)["diagnostics"]["R_list"]}
                | {0.75, 1.2, 2.0})


def _quad_on_axis(prof, lo, hi, weight=None):
    """scipy's quad of |f| r^(N-1) |S^(N-1)| (times the weight) along the
    first axis, split at the profile's breakpoints; tight tolerances."""
    area = 1.0 if prof.dim == 1 else sphere_area(prof.dim)

    def g(r):
        pt = np.zeros((1, prof.dim))
        pt[0, 0] = r
        w = 1.0 if weight is None else float(weight.value_radial(abs(r)))
        return area * abs(r) ** (prof.dim - 1) * abs(float(prof.at(pt)[0])) * w

    ends = [lo] + sorted(b for b in prof.breakpoints if lo < b < hi) + [hi]
    return sum(quad(g, a, b, epsabs=1e-15, epsrel=1e-13, limit=500)[0]
               for a, b in zip(ends[:-1], ends[1:]))


@pytest.mark.parametrize("prof", [
    ConstantProfile(-2.5), ConstantProfile(1.5, dim=3),
    GaussianProfile(-2.0, 0.3), GaussianProfile(1.3, 0.2, (0.7,)),
    GaussianProfile(0.9, 0.25, dim=2), GaussianProfile(1.1, 0.15, dim=3),
    BarenblattProfile(time=0.7), PoissonKernelProfile(0.125),
    IndicatorProfile(-0.5, 1.0), StepProfile(1.0, -0.5, 0.25)],
    ids=lambda p: f"{type(p).__name__}-{p.dim}")
def test_tail_integrals_match_quad(prof):
    # the closed-form tail and the Gauss-Kronrod band against scipy's quad,
    # within the tolerances the certificate asks (1e-12 + 1e-11 relative)
    for R in _RADII:
        cut = Cutoff(R, dim=prof.dim)
        if isinstance(prof, (ConstantProfile, StepProfile)):
            assert prof.abs_tail_mass(R) == math.inf
            assert prof.weighted_abs_l1(cut) == math.inf
            continue
        if prof.dim == 1:
            tail = _quad_on_axis(prof, R, math.inf) + _quad_on_axis(prof, -math.inf, -R)
            band = (_quad_on_axis(prof, 0.5 * R, R, cut)
                    + _quad_on_axis(prof, -R, -0.5 * R, cut))
        else:
            tail = _quad_on_axis(prof, R, math.inf)
            band = _quad_on_axis(prof, 0.5 * R, R, cut)
        assert prof.abs_tail_mass(R) == pytest.approx(tail, rel=1e-12, abs=1e-14), R
        assert prof.weighted_abs_l1(cut) == pytest.approx(band + tail, rel=1e-11,
                                                          abs=1e-12), R


def test_band_quadrature_starts_at_the_breakpoints(monkeypatch):
    # a jump inside the band is an end of the first pieces, on either side
    import gpme.profiles

    seen, real = [], adaptive_quad
    monkeypatch.setattr(gpme.profiles, "adaptive_quad",
                        lambda f, breaks, **kw: seen.append(breaks) or real(f, breaks, **kw))
    IndicatorProfile(-1.0, 0.9).weighted_abs_l1(Cutoff(1.5))
    BarenblattProfile(time=1.0).weighted_abs_l1(Cutoff(3.0))
    xs = BarenblattProfile(time=1.0).support_radius
    assert {-1.0, 0.9} <= set(seen[0]) and {-xs, xs} <= set(seen[1])


def test_constant_and_step_tails_follow_their_l1_norm():
    assert ConstantProfile(0.0).abs_tail_mass(1.5) == 0.0
    assert ConstantProfile(0.5).abs_tail_mass(1.5) == math.inf
    assert StepProfile(0.0, 0.0).abs_tail_mass(1.5) == 0.0
    assert StepProfile(1.0, 0.0).abs_tail_mass(1.5) == math.inf


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_upper_gamma_q_matches_scipy(dim):
    for x in (1e-3, 0.5, 2.25, 9.0, 40.0, 200.0):
        assert _upper_gamma_q(0.5 * dim, x) == pytest.approx(
            gammaincc(0.5 * dim, x), rel=1e-13, abs=0.0), x


def test_adaptive_quad_meets_its_tolerance():
    # smooth, a kink declared as a breakpoint, and an end singularity
    cases = [(np.cos, [0.0, 3.0], math.sin(3.0)),
             (lambda x: np.abs(x - 0.3), [0.0, 0.3, 1.0], 0.29),
             (np.log, [0.0, 1.0], -1.0)]
    for f, breaks, want in cases:
        got = adaptive_quad(f, breaks, epsabs=1e-13, epsrel=1e-12)
        assert abs(got - want) <= 1e-13 + 1e-12 * abs(want)


def test_gauss_kronrod_rule_is_exact_to_its_degrees():
    # the Kronrod rule to degree 31, its Gauss part to degree 19: the error
    # estimate sits at the rounding floor up to 19 and above it beyond
    for k in (0, 5, 19, 25, 31):
        val, err = _qk21(lambda x: (k + 1) * x ** k, np.array([0.0]), np.array([1.0]))
        assert val[0] == pytest.approx(1.0, rel=1e-14), k
        assert (err[0] < 1e-13) == (k <= 19), k


def test_adaptive_quad_raises_rather_than_guess():
    with pytest.raises(DataError, match="not finite"):
        adaptive_quad(lambda x: np.where(x > 0.5, np.nan, 1.0), [0.0, 1.0], 1e-12, 1e-11)
    with pytest.raises(DataError, match="after 8 pieces"):
        adaptive_quad(lambda x: np.abs(x - 1.0 / 3.0) ** -0.5, [0.0, 1.0], 1e-14, 1e-14,
                      limit=8)
