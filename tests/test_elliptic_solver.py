"""Resolvent solves: scalar roots, sweep fixed points, order properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpme.elliptic_solver
from gpme.errors import ConfigurationError, NonConvergenceError
from gpme.elliptic_solver import (_KERNEL_THRESHOLD, PHI_KINDS, EpSolveConfig, PhiSpec,
                                  _jacobi_sweep, _pcg, _Resolvent, _solve_scalar_batch,
                                  apply_stencil, solve_ep)
from gpme.grid_field import UniformGrid, lr_norm_of_values
from gpme.levy_operators import (MeasureSpec, WeightedStencil, _neighbor_matrix,
                                 combine_with_laplacian, measure_stencil)


def scalar_root(phi, lam, b):
    """Root of s + lam * phi(s) = b for one value, warm-started at b."""
    return float(_solve_scalar_batch(phi, lam, np.array([b]), np.array([b]), 1e-13, 300)[0])


def test_scalar_closed_forms():
    # s + s^2 = 2 and s + sqrt(s) = 2 both have root 1
    assert scalar_root(PhiSpec(kind="power", exponent=2.0), 1.0, 2.0) == pytest.approx(1.0)
    assert scalar_root(PhiSpec(kind="power", exponent=0.5), 1.0, 2.0) == pytest.approx(1.0)
    # odd symmetry
    assert scalar_root(PhiSpec(kind="power", exponent=2.0), 1.0, -2.0) == pytest.approx(-1.0)
    assert scalar_root(PhiSpec(kind="power", exponent=0.5), 1.0, 0.0) == 0.0


def test_scalar_linear_and_zero_paths():
    assert scalar_root(PhiSpec(kind="linear", slope=3.0), 2.0, 7.0) == pytest.approx(1.0)
    assert scalar_root(PhiSpec(kind="zero"), 5.0, 0.3) == pytest.approx(0.3)
    assert scalar_root(PhiSpec(kind="power", exponent=2.0), 0.0, 0.3) == pytest.approx(0.3)


def test_scalar_stefan_branches():
    phi = PhiSpec(kind="stefan", latent=0.5)
    # below the latent plateau phi vanishes
    assert scalar_root(phi, 1.0, 0.3) == pytest.approx(0.3)
    # above it: s + (s - 1/2) = 2
    assert scalar_root(phi, 1.0, 2.0) == pytest.approx(1.25)


def test_scalar_table_interior_and_clamped():
    phi = PhiSpec(kind="table", table_u=(-1.0, 0.0, 1.0), table_phi=(-1.0, 0.0, 1.0))
    assert scalar_root(phi, 1.0, 0.5) == pytest.approx(0.25)
    # beyond the table phi is frozen at 1
    assert scalar_root(phi, 1.0, 3.0) == pytest.approx(2.0)


def test_scalar_newton_path_general_exponent():
    phi = PhiSpec(kind="power", exponent=1.5)
    s = scalar_root(phi, 2.0, 3.0)
    assert abs(s + 2.0 * s ** 1.5 - 3.0) < 1e-11


@settings(max_examples=60, deadline=None)
@given(b=st.floats(-50.0, 50.0), lam=st.floats(0.0, 30.0),
       m=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
def test_scalar_residual_property(b, lam, m):
    phi = PhiSpec(kind="power", exponent=m)
    s = scalar_root(phi, lam, b)
    res = s + lam * float(phi.value(np.array([s]))[0]) - b
    assert abs(res) < 1e-9 * (1.0 + abs(b))
    assert min(0.0, b) - 1e-12 <= s <= max(0.0, b) + 1e-12


def test_fast_paths_identity():
    g = UniformGrid.from_box(1, 0.5, 2.0)
    rho = np.linspace(-1, 1, g.shape[0])
    empty = WeightedStencil.empty(g.h, g.dim)
    # the last triple is the zero operator: no measure and c = 0
    for c, phi, dt in ((1, PhiSpec(kind="zero"), 0.7),
                       (1, PhiSpec(kind="power", exponent=2.0), 0.0),
                       (0, PhiSpec(kind="linear"), 0.1)):
        out = solve_ep(empty, c, phi, dt, rho)
        np.testing.assert_array_equal(out.w, rho)
        assert out.sweeps == 0


def test_sup_norm_bound():
    g = UniformGrid.from_box(1, 0.25, 2.0)
    phi = PhiSpec(kind="power", exponent=0.5)
    rng = np.random.default_rng(5)
    rho = rng.uniform(-1.0, 2.0, size=g.shape)
    out = solve_ep(WeightedStencil.empty(g.h, g.dim), 1, phi, 0.4, rho,
                   config=EpSolveConfig(residual_tol=1e-12))
    assert np.max(np.abs(out.w)) <= np.max(np.abs(rho)) + 1e-10


def test_residual_field_recomputed():
    g = UniformGrid.from_box(1, 0.5, 2.0)
    out = solve_ep(WeightedStencil.empty(g.h, g.dim), 1, PhiSpec(kind="power", exponent=2.0),
                   0.25, np.ones(g.shape), config=EpSolveConfig(residual_tol=1e-12))
    assert np.max(np.abs(out.residual_field)) == pytest.approx(out.residual)
    assert out.residual <= 1e-12


def test_warm_start_reaches_same_fixed_point():
    g = UniformGrid.from_box(1, 0.25, 2.0)
    phi = PhiSpec(kind="power", exponent=2.0)
    cfg = EpSolveConfig(residual_tol=1e-13)
    rho = np.cos(g.axis_coords(0))
    empty = WeightedStencil.empty(g.h, g.dim)
    cold = solve_ep(empty, 1, phi, 0.3, rho, config=cfg).w
    warm = solve_ep(empty, 1, phi, 0.3, rho, config=cfg, warm_start=rho * 0.5).w
    np.testing.assert_allclose(cold, warm, atol=1e-11)


def test_warm_start_is_clipped_to_the_comparison_bracket(monkeypatch):
    # the solution lies in [min(0, min rho), max(0, max rho)] = [0, 1.5],
    # so the first Newton step starts from the warm start clipped to it
    g = UniformGrid.from_box(1, 0.25, 2.0)
    phi = PhiSpec(kind="power", exponent=2.0)
    rho = 0.75 * (1.0 + np.cos(g.axis_coords(0) * np.pi / 2.0))
    warm = np.random.default_rng(3).uniform(-3.0, 4.0, size=g.shape)
    starts = []
    real = gpme.elliptic_solver._newton_candidates

    def record(phi, solve, w, *args):
        starts.append(w.copy())
        return real(phi, solve, w, *args)
    monkeypatch.setattr(gpme.elliptic_solver, "_newton_candidates", record)
    empty = WeightedStencil.empty(g.h, g.dim)
    out = solve_ep(empty, 1, phi, 0.3, rho, warm_start=warm)
    assert np.min(warm) < 0.0 and np.max(warm) > 1.5
    np.testing.assert_array_equal(starts[0], np.clip(warm, 0.0, 1.5))
    np.testing.assert_allclose(out.w, solve_ep(empty, 1, phi, 0.3, rho).w, rtol=0.0, atol=1e-11)


def test_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(gpme.elliptic_solver, "_MIN_SWEEPS", 2)
    monkeypatch.setattr(gpme.elliptic_solver, "_SWEEPS_PER_NODE", 0)
    g = UniformGrid.from_box(1, 0.25, 2.0)
    with pytest.raises(NonConvergenceError) as exc:
        solve_ep(WeightedStencil.empty(g.h, g.dim), 1, PhiSpec(kind="power", exponent=2.0),
                 0.5, np.ones(g.shape), config=EpSolveConfig(residual_tol=1e-13))
    assert exc.value.sweeps == 2
    assert "stalled" in str(exc.value)
    assert "tolerance 1e-13" in str(exc.value)
    assert len(exc.value.cell) == 1 and 0 <= exc.value.cell[0] < g.shape[0]


@pytest.mark.parametrize("amplitude", [1e6, 1e-8])
def test_stopping_test_scales_with_data(amplitude):
    # at 1e6 an absolute 1e-10 lies below what double precision reaches
    g = UniformGrid.from_box(1, 0.1, 3.0)
    assert g.shape == (61,)
    empty = WeightedStencil.empty(g.h, g.dim)
    rho = amplitude * np.exp(-g.axis_coords(0) ** 2 / 0.5)
    dt = 0.005
    out = solve_ep(empty, 1, PhiSpec(kind="linear"), dt, rho, config=EpSolveConfig())
    assert out.residual <= 1e-10 * max(1.0, amplitude)
    dense = np.eye(g.shape[0]) - dt * np.column_stack(
        [apply_stencil(empty, 1, e) for e in np.eye(g.shape[0])])
    np.testing.assert_allclose(out.w, np.linalg.solve(dense, rho), rtol=0.0,
                               atol=1e-12 * amplitude)


PHIS = {
    "power_0.5": PhiSpec(kind="power", exponent=0.5),
    "power_2": PhiSpec(kind="power", exponent=2.0),
    "stefan": PhiSpec(kind="stefan", latent=0.5),
    "table": PhiSpec(kind="table", table_u=(-1.0, 0.0, 0.5, 2.0),
                     table_phi=(-2.0, 0.0, 0.25, 1.0)),
    "linear": PhiSpec(kind="linear", slope=2.0),
}
# every piecewise-linear kind, whose scalar resolvent has a closed form
PIECEWISE = {"linear": PHIS["linear"], "zero": PhiSpec(kind="zero"),
             "stefan": PHIS["stefan"], "table": PHIS["table"]}


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(PIECEWISE)), lam=st.floats(0.0, 1e6),
       drawn=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1e-8, 1e6)),
                      max_size=12))
def test_piecewise_linear_root_in_closed_form(name, lam, drawn):
    # b over +-[1e-8, 1e6], both zeros, every knot's image and, but for
    # the origin's (subnormal), its two neighbouring doubles: the root
    # keeps b's sign, is nondecreasing in b (across a knot too), and
    # leaves a residual of a few ulps of its terms.  One of them is (1 + lam phi'(s)) |s|: a
    # root one ulp off leaves that much residual (Stefan just above its
    # plateau at lam = 1e6: |s| ~ 1/2 against b ~ 100)
    assert set(PIECEWISE) == set(PHI_KINDS) - {"power"}
    phi = PIECEWISE[name]
    knots = phi._pieces.knots
    images = knots + lam * phi.value(knots)
    off = images[images != 0.0]
    b = np.sort(np.concatenate(([sign * size for sign, size in drawn], [0.0, -0.0], images,
                                np.nextafter(off, -np.inf), np.nextafter(off, np.inf))))
    s = _solve_scalar_batch(phi, lam, b, b, 1e-14, 300)
    assert np.all((np.minimum(b, 0.0) <= s) & (s <= np.maximum(b, 0.0)))
    assert np.all(np.diff(s) >= 0.0)
    f = phi.value(s)
    terms = np.maximum.reduce([np.abs(b), lam * np.abs(f),
                               (1.0 + lam * phi.derivative(s)) * np.abs(s)])
    assert np.all(np.abs(s + lam * f - b) <= 4.0 * np.finfo(float).eps * terms)
    # the image of a knot at or above the origin is solved by that knot
    on_knots = _solve_scalar_batch(phi, lam, images, images, 1e-14, 300)
    np.testing.assert_array_equal(on_knots[knots >= 0.0], knots[knots >= 0.0])


def test_closed_form_root_is_monotone_next_to_every_knot_image():
    # a root evaluated from the lower end of its piece can round past the
    # upper knot just below that knot's image; for this table (the origin
    # put in between -0.3 and 0.7) that happens at about 1 lam in 140
    phi = PhiSpec(kind="table", table_u=(-2.7, -0.3, 0.7, 1.3),
                  table_phi=(-1.9, -0.27, 0.63, 2.3))
    rng = np.random.default_rng(2)
    for lam in np.concatenate((rng.uniform(0.0, 1e6, 2000), 10.0 ** rng.uniform(-8, 6, 2000))):
        images = phi._pieces.knots + lam * phi._pieces.values
        off = images[images != 0.0]
        b = np.sort(np.concatenate((images, np.nextafter(off, -np.inf),
                                    np.nextafter(off, np.inf))))
        assert np.all(np.diff(_solve_scalar_batch(phi, lam, b, b, 1e-14, 300)) >= 0.0), lam


def test_stefan_fallback_sweep_returns_the_closed_form_root():
    # s + lam ((s - L)^+ + min(s, 0)) = b, branch by branch: b / (1 + lam)
    # below 0, b on the plateau [0, L], (b + lam L) / (1 + lam) above it
    phi, L = PHIS["stefan"], 0.5
    rng = np.random.default_rng(7)
    rho, ns, w = rng.uniform(-2.0, 3.0, size=(3, 200))
    dt, W = 0.3, 8.0
    b, lam = rho + dt * ns, dt * W
    swept = _jacobi_sweep(phi, dt, W, rho, ns, w)
    np.testing.assert_array_equal(swept, phi._pieces.root(lam, b))
    branches = np.where(b < 0.0, b / (1.0 + lam),
                        np.where(b <= L, b, (b + lam * L) / (1.0 + lam)))
    np.testing.assert_allclose(swept, branches, rtol=4.0 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("dim,h,reach,c", [
    pytest.param(1, 0.25, 2, 1, id="1-0.25"),
    pytest.param(1, 0.25, 2, 0, id="1-0.25-c0"),
    pytest.param(2, 0.5, 2, 1, id="2-0.5"),
    pytest.param(1, 0.125, None, 1, id="1-0.125-full"),
    pytest.param(2, 0.5, None, 1, id="2-0.5-full"),
])
@pytest.mark.parametrize("name", sorted(PHIS))
def test_newton_matches_jacobi_fixed_point(name, dim, h, reach, c, monkeypatch):
    # the Jacobi sweep is the fallback, and the reference: iterate it to
    # its fixed point on c times the Laplacian plus a fractional stencil,
    # short (banded LU steps on the line, conjugate gradients on the
    # CSR matrix on the plane) or over the box diameter (conjugate
    # gradients through the rFFT); its scalar solves go below the default
    # level, so the reference settles to 1e-15
    monkeypatch.setattr(gpme.elliptic_solver, "_SCALAR_TOL", 1e-15)
    phi = PHIS[name]
    g = UniformGrid.from_box(dim, h, 2.0)
    st = measure_stencil(MeasureSpec(kind="fractional", alpha=1.0), g,
                         support_radius=None if reach is None else reach * h)
    assert (st.n_offsets > _KERNEL_THRESHOLD) == (reach is None)
    rho = np.random.default_rng(1).uniform(-0.5, 1.5, size=g.shape)
    dt = 0.1
    ref = rho.copy()
    merged = combine_with_laplacian(st, c)
    neighbor = _Resolvent(merged, g.shape).neighbor
    for _ in range(20000):
        new = _jacobi_sweep(phi, dt, merged.total_weight, rho, neighbor(phi.value(ref)), ref)
        done = np.max(np.abs(new - ref)) <= 1e-15
        ref = new
        if done:
            break
    else:
        pytest.fail("Jacobi reference did not settle")
    out = solve_ep(st, c, phi, dt, rho, config=EpSolveConfig(residual_tol=1e-13))
    assert out.fallbacks < out.sweeps <= 10
    np.testing.assert_allclose(out.w, ref, rtol=0.0, atol=1e-10)


def _line_stencil(name):
    g = UniformGrid.from_box(1, 0.25, 2.0)
    if name == "empty":
        return WeightedStencil.empty(g.h, g.dim)
    if name == "reach_2":
        return measure_stencil(MeasureSpec(kind="fractional", alpha=1.0), g,
                               support_radius=2 * g.h)
    # reaching +-4, on and past the nearest neighbors
    return WeightedStencil(h=g.h, dim=1, offsets=[[-4], [-1], [1], [4]],
                           weights=[0.5, 3.0, 3.0, 0.5])


@pytest.mark.parametrize("name,c,n", [
    pytest.param("empty", 1, 17, id="empty-c1"),
    pytest.param("reach_2", 0, 17, id="reach_2-c0"),
    pytest.param("reach_2", 1, 17, id="reach_2-c1"),
    pytest.param("reach_4", 1, 1, id="reach_4-1_node"),
    pytest.param("reach_4", 1, 3, id="reach_4-3_nodes"),
])
def test_banded_solve_matches_a_dense_solve(monkeypatch, name, c, n):
    # the line's short-stencil Newton system, solved from the band of the
    # operator's CSR matrix, against the dense matrix of _neighbor_matrix
    st = _line_stencil(name)
    merged = combine_with_laplacian(st, c)
    W, dt = merged.total_weight, 0.1
    K = dt * (W * np.eye(n) - _neighbor_matrix(merged, (n,)).toarray())
    taken, applied = [], []
    for spied in ("banded_lu", "_pcg"):
        monkeypatch.setattr(gpme.elliptic_solver, spied, _spy(taken, spied))
    resolvent = _Resolvent(merged, (n,))
    for spied in ("neighbor", "_stiffness"):
        monkeypatch.setattr(_Resolvent, spied, _spy(applied, spied, _Resolvent))
    rng = np.random.default_rng(n)
    rhs = rng.normal(size=n)
    w = rng.uniform(-0.5, 1.5, size=n)
    stefan, root = PhiSpec(kind="stefan", latent=0.5), PhiSpec(kind="power", exponent=0.5)
    # the w form across the Stefan plateau (d = 0 there), and the v form
    # of m = 1/2, a = (phi^(-1))'(v), d = 1: each one LU as it stands,
    # with no application of K and no second solve
    for a, d in ((np.ones(n), stefan.derivative(w)),
                 (2.0 * np.abs(root.value(w)), np.ones(n))):
        taken.clear()
        x = resolvent.solve(dt, a, d, rhs, 0.0)
        assert taken == ["banded_lu"] and applied == []
        ref = np.linalg.solve(np.diag(a) + K * d, rhs)
        np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(x)))
    # a whole solve on the line takes Newton steps, by the LU alone
    g = UniformGrid.from_box(1, st.h, 2.0)
    out = solve_ep(st, c, PhiSpec(kind="power", exponent=2.0), dt,
                   np.random.default_rng(1).uniform(-0.5, 1.5, size=g.shape))
    assert out.sweeps > out.fallbacks
    assert set(taken) == {"banded_lu"}


@pytest.mark.parametrize("n", [15, 60])
@pytest.mark.parametrize("preconditioned", [False, True])
def test_pcg_matches_a_direct_solve(n, preconditioned):
    # an SPD matrix with a spread diagonal, which the Jacobi preconditioner
    # evens out; a diagonal of ones turns the preconditioner off
    rng = np.random.default_rng(n)
    B = rng.normal(scale=0.3 / np.sqrt(n), size=(n, n))
    A = np.diag(np.linspace(1.0, 50.0, n)) + B @ B.T
    b = rng.normal(size=n)
    diagonal = np.diag(A) if preconditioned else np.ones(n)
    x = _pcg(lambda v: A @ v, lambda r: r / diagonal, b, 1e-12)
    assert np.linalg.norm(A @ x - b) <= 1e-12
    np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=0.0, atol=1e-11)
    # one unknown: the first step is exact and leaves r = 0, which must
    # end the iteration, even at tolerance 0, without dividing by 0
    np.testing.assert_array_equal(_pcg(lambda v: 2.0 * v, lambda r: r / 2.0, np.array([3.0]), 0.0),
                                  [1.5])


def _dense_K(stencil, c, shape, dt):
    """K = dt (W I - A), A assembled column by column from the operator."""
    size = int(np.prod(shape))
    merged = combine_with_laplacian(stencil, c)
    neighbor = _Resolvent(merged, shape).neighbor
    A = np.column_stack([neighbor(e.reshape(shape)).ravel() for e in np.eye(size)])
    return dt * (merged.total_weight * np.eye(size) - A)


# each linear-solve path: (dim, h, measure reach in cells or None for the
# box diameter, c, coefficients).  "varying" draws either Newton system
# with zeros in its coefficient; "v" is the v system with a constant a > 0
# and "w" the w system with a constant d, as a linear phi gives them
SOLVE_PATHS = {
    "banded": (1, 0.125, 2, 1, "varying"),
    "csr_cg": (2, 0.5, 2, 1, "varying"),
    "dense_cg_c0": (2, 0.5, None, 0, "varying"),
    "dense_cg_c1": (2, 0.5, None, 1, "varying"),
    "dense_circulant_v": (1, 0.125, None, 0, "v"),
    "dense_circulant_w": (2, 0.5, None, 1, "w"),
}


def _spy(taken, name, module=gpme.elliptic_solver):
    real = getattr(module, name)

    def record(*args, **kwargs):
        taken.append(name)
        return real(*args, **kwargs)
    return record


@pytest.mark.parametrize("path", sorted(SOLVE_PATHS))
def test_linear_solve_property(path):
    dim, h, reach, c, coefficients = SOLVE_PATHS[path]
    g = UniformGrid.from_box(dim, h, 2.0)
    stencil = measure_stencil(MeasureSpec(kind="fractional", alpha=1.0), g,
                              support_radius=None if reach is None else reach * h)
    n = int(np.prod(g.shape))
    # what the path calls per SPD solve: a dense kernel is preconditioned by
    # its circulant for constant coefficients (no _jacobi), by Jacobi
    # otherwise; and the CSR matrices built per box, one for a short stencil
    # and none for a dense kernel, whose spectrum holds its nearest neighbors
    # too
    builds = 1 if reach is not None else 0
    per_solve = {"banded": ["banded_lu"], "csr_cg": ["_jacobi", "_pcg"]}.get(
        path, ["_jacobi", "_pcg"] if coefficients == "varying" else ["_pcg"])
    taken = []

    @settings(max_examples=25, deadline=None)
    @given(system=st.sampled_from(["w", "v"]), dt=st.floats(1e-3, 10.0),
           share=st.floats(0.0, 0.9), level=st.floats(1e-3, 3.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def check(system, dt, share, level, seed):
        # d >= 0 with zeros (a Stefan plateau) and a = 1, or a >= 0 with
        # zeros (v = 0 under m < 1) and d = 1; or one of them constant
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.0, 3.0, n) * (rng.random(n) >= share)
        weights[rng.integers(n)] = 0.0
        if coefficients != "varying":
            system, weights = coefficients, np.full(n, level)
        a, d = (np.ones(n), weights) if system == "w" else (weights, np.ones(n))
        rhs = rng.normal(size=n)
        merged = combine_with_laplacian(stencil, c)
        W = merged.total_weight
        tol = 1e-12 * np.linalg.norm(rhs)
        taken.clear()
        built = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("banded_lu", "_pcg", "_jacobi"):
                mp.setattr(gpme.elliptic_solver, name, _spy(taken, name))
            mp.setattr(gpme.elliptic_solver, "_neighbor_matrix",
                       _spy(built, "_neighbor_matrix"))
            resolvent = _Resolvent(merged, g.shape)
            assert len(built) == builds
            x = resolvent.solve(dt, a, d, rhs, tol)
        # one solve; on a conjugate-gradient path one more if x takes a
        # refinement step, while the banded LU solves the system as it stands
        assert taken in ((per_solve,) if path == "banded" else (per_solve, 2 * per_solve))
        assert len(built) == builds
        J = np.diag(a) + _dense_K(stencil, c, g.shape, dt) * d
        assert np.linalg.norm(J @ x - rhs) <= tol + 1e-14 * dt * W * np.linalg.norm(rhs)
        ref = np.linalg.solve(J, rhs)
        np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-9 * np.max(np.abs(ref)))
    check()


def test_zero_a_takes_jacobi():
    # the v system at v = 0 everywhere under m < 1 has a = 0: K alone.  No
    # offset of the box-diameter kernel leaves this box, so the circulant
    # would have the eigenvalue a + dt (W - spectrum(0)) = 0; Jacobi divides
    # by the diagonal dt W instead
    g = UniformGrid.from_box(2, 0.5, 2.0)
    stencil = measure_stencil(MeasureSpec(kind="fractional", alpha=1.0), g)
    n, dt = int(np.prod(g.shape)), 0.5
    rhs = np.random.default_rng(5).normal(size=n)
    taken = []
    with pytest.MonkeyPatch.context() as mp, np.errstate(divide="raise", invalid="raise"):
        mp.setattr(gpme.elliptic_solver, "_jacobi", _spy(taken, "_jacobi"))
        x = _Resolvent(stencil, g.shape).solve(dt, np.zeros(n), np.ones(n), rhs,
                                               1e-12 * np.linalg.norm(rhs))
    assert taken == ["_jacobi"]
    np.testing.assert_allclose(x, np.linalg.solve(_dense_K(stencil, 0, g.shape, dt), rhs),
                               rtol=0.0, atol=1e-9 * np.max(np.abs(x)))


def test_cg_cap_is_left_to_the_safeguard(monkeypatch):
    # a conjugate gradient cut off after one iteration returns a poor step:
    # the halvings and the fallback judge it, and the solve either meets
    # the stopping level or names a cell, never returns above it
    monkeypatch.setattr(gpme.elliptic_solver, "_CG_CAP", 1)
    monkeypatch.setattr(gpme.elliptic_solver, "_MIN_SWEEPS", 40)
    monkeypatch.setattr(gpme.elliptic_solver, "_SWEEPS_PER_NODE", 0)
    g = UniformGrid.from_box(2, 0.5, 2.0)
    rho = np.random.default_rng(3).uniform(0.0, 1.5, size=g.shape)
    cfg = EpSolveConfig()
    try:
        out = solve_ep(WeightedStencil.empty(g.h, g.dim), 1, PhiSpec(kind="power", exponent=2.0),
                       0.25, rho, config=cfg)
    except NonConvergenceError as exc:
        assert len(exc.cell) == 2
    else:
        assert out.residual <= cfg.residual_tol * max(1.0, np.max(np.abs(rho)))


def _pcg_levels(mp):
    """Spy on _pcg: the list of the levels the linear solves ask it for."""
    levels = []
    real = gpme.elliptic_solver._pcg

    def record(matvec, precondition, b, tol):
        levels.append(tol)
        return real(matvec, precondition, b, tol)
    mp.setattr(gpme.elliptic_solver, "_pcg", record)
    return levels


@pytest.mark.parametrize("path", ["csr", "dense_circulant"])
def test_linear_phi_solves_to_the_fixed_level(monkeypatch, path):
    # a linear phi's Newton system is the problem itself: it is solved to
    # _CG_SHARE times the stopping level, so every step takes one Newton step
    if path == "csr":
        g = UniformGrid.from_box(2, 0.25, 2.0)
        stencil, c = WeightedStencil.empty(g.h, g.dim), 1
    else:
        g = UniformGrid.from_box(1, 0.125, 2.0)
        stencil, c = measure_stencil(MeasureSpec(kind="fractional", alpha=1.0), g), 0
        assert stencil.n_offsets > _KERNEL_THRESHOLD
    levels = _pcg_levels(monkeypatch)
    resolvent = _Resolvent(combine_with_laplacian(stencil, c), g.shape)
    cfg = EpSolveConfig()
    u = 2.0 * np.exp(-g.node_radii() ** 2)
    for _ in range(3):
        tol = cfg.residual_tol * max(1.0, float(np.max(np.abs(u))))
        levels.clear()
        out = solve_ep(stencil, c, PhiSpec(kind="linear"), 0.1, u, config=cfg,
                       resolvent=resolvent)
        assert out.sweeps == 1 and levels == [gpme.elliptic_solver._CG_SHARE * tol]
        assert out.residual <= tol
        u = out.w


def test_nonlinear_phi_takes_the_forcing_level(monkeypatch):
    # m = 2 on a dense plane: the first Newton step's linear solve need only
    # reach min(_CG_SHARE, |F(w)|_2) |F(w)|_2, far above _CG_SHARE tol; in the
    # w form _pcg is asked for that level over 2 dt W max(s), s = phi'(w)^(1/2)
    g = UniformGrid.from_box(2, 0.5, 2.0)
    stencil = measure_stencil(MeasureSpec(kind="fractional", alpha=1.0), g)
    phi, dt, share = PhiSpec(kind="power", exponent=2.0), 0.25, gpme.elliptic_solver._CG_SHARE
    rho = np.random.default_rng(7).uniform(0.0, 1.5, size=g.shape)
    tol = EpSolveConfig().residual_tol * float(np.max(rho))
    levels = _pcg_levels(monkeypatch)
    out = solve_ep(stencil, 1, phi, dt, rho)
    norm = float(np.linalg.norm(dt * apply_stencil(stencil, 1, phi.value(rho))))
    dtW2 = 2.0 * dt * combine_with_laplacian(stencil, 1).total_weight
    assert norm * norm > share * tol
    assert levels[0] == pytest.approx(min(share, norm) * norm / (dtW2 * np.sqrt(2.0 * np.max(rho))),
                                      rel=1e-12)
    # the levels fall with the residual, and never below the fixed level
    # (s is at most (2 max rho)^(1/2) inside the bracket)
    assert levels == sorted(levels, reverse=True) and len(levels) == out.sweeps > 1
    assert levels[-1] >= share * tol / (dtW2 * np.sqrt(2.0 * np.max(rho)))
    assert out.residual <= tol


# the whole Newton iteration on each linear-solve path: (dim, h,
# measure reach in cells or None for the box diameter, c)
NEWTON_PATHS = {
    "banded_1d_c0": (1, 0.125, 2, 0),
    "banded_1d_c1": (1, 0.125, 2, 1),
    "dense_1d_c0": (1, 0.125, None, 0),
    "dense_1d_c1": (1, 0.125, None, 1),
    "csr_2d": (2, 0.5, 2, 1),
    "dense_2d": (2, 0.5, None, 1),
}


@pytest.mark.parametrize("path", sorted(NEWTON_PATHS))
def test_newton_iteration_property(path):
    # any nonlinear phi, data from 1e-8 to 1e6, signed or nonnegative with
    # zeros (where the bracket's 0 is tight), and any dt: the solve meets
    # the stopping level inside the comparison bracket, or names a cell
    dim, h, reach, c = NEWTON_PATHS[path]
    g = UniformGrid.from_box(dim, h, 2.0)
    stencil = measure_stencil(MeasureSpec(kind="fractional", alpha=1.0), g,
                              support_radius=None if reach is None else reach * h)
    resolvent = _Resolvent(combine_with_laplacian(stencil, c), g.shape)
    cfg = EpSolveConfig()

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(["power_0.5", "power_2", "stefan", "table"]),
           decades=st.floats(-8.0, 6.0), dt=st.floats(1e-3, 2.0),
           signed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def check(name, decades, dt, signed, seed):
        phi = PHIS[name]
        rho = np.random.default_rng(seed).uniform(-0.5, 1.5, size=g.shape)
        rho = 10.0 ** decades * (rho if signed else np.maximum(rho, 0.0))
        tol = cfg.residual_tol * max(1.0, float(np.max(np.abs(rho))))
        try:
            out = solve_ep(stencil, c, phi, dt, rho, config=cfg, resolvent=resolvent)
        except NonConvergenceError as exc:
            assert len(exc.cell) == dim and all(0 <= i < n for i, n in zip(exc.cell, g.shape))
            return
        w = out.w
        res = w - dt * apply_stencil(stencil, c, phi.value(w)) - rho
        assert out.residual <= tol and np.max(np.abs(res)) <= tol
        assert min(0.0, np.min(rho)) <= np.min(w) and np.max(w) <= max(0.0, np.max(rho))
    check()


@pytest.mark.parametrize("name", ["power_2", "power_0.5"])
def test_newton_candidates_stay_in_the_bracket(name):
    # a Newton step that overshoots both ends of [lo, hi], in w (m = 2) or
    # in v = phi(w) (m = 1/2): the step and all its halvings are clipped
    w = np.array([[0.5, 0.5], [0.1, 0.9]])
    lo, hi = 0.0, 1.0

    def solve(a, d, rhs, tol):
        return np.array([40.0, -40.0, 40.0, -40.0])
    candidates = list(gpme.elliptic_solver._newton_candidates(
        PHIS[name], solve, w, np.zeros_like(w), lo, hi, 1e-13))
    assert len(candidates) == gpme.elliptic_solver._HALVINGS + 1
    for cand in candidates:
        assert cand.shape == w.shape
        assert np.all(cand >= lo) and np.all(cand <= hi)
    # the last halving still leaves the bracket, so every candidate is clipped
    assert np.array_equal(candidates[-1], [[1.0, 0.0], [1.0, 0.0]])


def test_stefan_newton_falls_back_and_converges():
    # Newton's linearization misjudges nodes that cross the latent plateau
    g = UniformGrid.from_box(1, 0.1, 3.0)
    rho = 1.5 * np.exp(-g.axis_coords(0) ** 2)
    out = solve_ep(WeightedStencil.empty(g.h, g.dim), 1, PhiSpec(kind="stefan", latent=0.5),
                   0.1, rho, config=EpSolveConfig(residual_tol=1e-13))
    assert out.fallbacks >= 1
    assert out.residual <= 1e-13 * 1.5


def _dict_merge(stencil):
    # the merge written as one dict entry per offset, 1/h^2 added at each
    # nearest neighbor, in lexicographic order
    merged = dict(zip(map(tuple, stencil.offsets.tolist()), stencil.weights.tolist()))
    for i in range(stencil.dim):
        for sign in (1, -1):
            key = tuple(sign if j == i else 0 for j in range(stencil.dim))
            merged[key] = merged.get(key, 0.0) + 1.0 / stencil.h ** 2
    offsets = sorted(merged)
    return np.array(offsets, dtype=int), np.array([merged[off] for off in offsets])


def test_combine_with_laplacian_merges_rows():
    g = UniformGrid.from_box(1, 0.5, 2.0)
    comb = combine_with_laplacian(WeightedStencil.empty(g.h, g.dim), 1)
    assert comb.n_offsets == 2
    np.testing.assert_allclose(comb.weights, 4.0)
    assert comb.total_weight == pytest.approx(8.0)
    # c = 0 leaves the measure part untouched
    assert combine_with_laplacian(comb, 0) is comb
    # a 2-D measure's unit rows gain 1/h^2 in place, and a stencil without
    # them gets them appended: the same bytes as the dict merge
    g2 = UniformGrid.from_box(2, 0.2, 1.0)
    frac = measure_stencil(MeasureSpec(kind="fractional", alpha=1.0, scale=1.0 / np.pi), g2)
    far = WeightedStencil(h=g2.h, dim=2, offsets=[[-2, 1], [2, -1]], weights=[0.5, 0.5])
    for st in (frac, far):
        merged = combine_with_laplacian(st, 1)
        offsets, weights = _dict_merge(st)
        np.testing.assert_array_equal(merged.offsets, offsets)
        assert merged.weights.tobytes() == weights.tobytes()
        assert merged.tail_mass_beyond_support == st.tail_mass_beyond_support
    assert combine_with_laplacian(frac, 1).n_offsets == frac.n_offsets
    assert combine_with_laplacian(far, 1).n_offsets == far.n_offsets + 4


def test_config_validation():
    with pytest.raises(ConfigurationError):
        EpSolveConfig(residual_tol=0.0)
    with pytest.raises(ConfigurationError):
        solve_ep(WeightedStencil.empty(0.5, 1), 1, PhiSpec(kind="linear"), -1.0,
                 np.zeros(5))

def test_lp_interpolation_bound():
    # |w|_p <= |rho|_inf^((p-1)/p) |rho|_1^(1/p) for p in {1, 2, inf}
    g = UniformGrid.from_box(1, 0.25, 3.0)
    phi = PhiSpec(kind="power", exponent=2.0)
    rng = np.random.default_rng(11)
    rho = rng.uniform(-1.0, 2.0, size=g.shape)
    out = solve_ep(WeightedStencil.empty(g.h, g.dim), 1, phi, 0.3, rho,
                   config=EpSolveConfig(residual_tol=1e-12))
    sup_rho = float(np.max(np.abs(rho)))
    l1_rho = lr_norm_of_values(rho, g.cell_volume, 1)
    for p in (1.0, 2.0, np.inf):
        lhs = lr_norm_of_values(out.w, g.cell_volume, p)
        assert lhs <= sup_rho ** (1.0 - 1.0 / p) * l1_rho ** (1.0 / p) + 1e-8
