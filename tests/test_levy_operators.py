"""Stencil assembly: weights, moments, symmetry; the consistency oracle
lives in the ``moments`` suite of gpme.checks."""

import math

import numpy as np
import pytest
from scipy import fft, sparse
from scipy.integrate import dblquad, quad

from gpme.errors import ConfigurationError, StencilError
from gpme.grid_field import UniformGrid, shifted
from gpme.grid_field import _format_float
from gpme.elliptic_solver import (_KERNEL_THRESHOLD, _circular, _next_fast_len, _Resolvent,
                                  apply_stencil)
from gpme.levy_operators import (MeasureSpec, OperatorSpec, WeightedStencil, _class_weights,
                                 _neighbor_matrix, _support_index, combine_with_laplacian,
                                 measure_stencil, write_stencil_csv)
from gpme.profiles import GaussianProfile, sphere_area


def test_laplacian_stencil_weights():
    # the Laplacian as explicit weights: the local part merged into an
    # empty measure stencil
    st = combine_with_laplacian(WeightedStencil.empty(0.5, 1), 1)
    assert st.n_offsets == 2
    np.testing.assert_allclose(st.weights, 4.0)
    assert st.tail_mass_beyond_support == 0.0


def test_laplacian_exact_on_quadratics():
    g = UniformGrid.from_box(1, 0.5, 3.0)
    x = g.axis_coords(0)
    u = x * x
    out = apply_stencil(WeightedStencil.empty(g.h, g.dim), 1, u)
    # zero extension spoils the two boundary cells only
    np.testing.assert_allclose(out[1:-1], 2.0, atol=1e-12)


def _shift_loop(st, c, v):
    # the neighbor sum written out as one zero-extended shift per offset,
    # c/h^2 at the 2N nearest neighbors included
    ref = np.zeros(v.shape)
    for off, w in zip(st.offsets, st.weights):
        ref += w * shifted(v, tuple(off))
    if c:
        for off in np.vstack([np.eye(st.dim, dtype=int), -np.eye(st.dim, dtype=int)]):
            ref += shifted(v, tuple(off)) / st.h ** 2
    return ref


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("c", [0, 1])
@pytest.mark.parametrize("kind", ["laplacian", "fractional", "empty", "past_box", "dense"])
def test_neighbor_matrix_matches_neighbor_sum(dim, c, kind):
    # past_box: a 3-node box per axis, offsets reaching 4 past its edges;
    # dense: the default support, the box diameter, past the CSR threshold
    box = {"past_box": 0.3, "dense": 6.0 if dim == 1 else 1.5}.get(kind, 1.5)
    g = UniformGrid.from_box(dim, 0.25, box)
    if kind == "laplacian":
        st = combine_with_laplacian(WeightedStencil.empty(g.h, dim), 1)
    elif kind in ("fractional", "past_box", "dense"):
        st = measure_stencil(MeasureSpec(kind="fractional", alpha=1.0), g,
                             support_radius=None if kind == "dense" else 4 * g.h)
    else:
        # for c = 0 the zero operator: an empty matrix of the box's size
        st = WeightedStencil.empty(g.h, dim)
    # a short stencil is applied as this CSR matrix in N >= 2 dimensions,
    # and from its band on the line; a dense kernel by the rFFT
    assert (st.n_offsets > _KERNEL_THRESHOLD) == (kind == "dense")
    v = np.random.default_rng(3).normal(size=g.shape)
    ref = _shift_loop(st, c, v)
    merged = combine_with_laplacian(st, c)
    atol = (1e-13 if kind == "dense" else 1e-14) * np.max(np.abs(ref))
    if kind != "dense":
        out = (_neighbor_matrix(merged, g.shape) @ v.ravel()).reshape(g.shape)
        np.testing.assert_allclose(out, ref, rtol=0.0, atol=atol)
    resolvent = _Resolvent(merged, g.shape)
    np.testing.assert_allclose(resolvent.neighbor(v), ref, rtol=0.0, atol=atol)
    # a held operator gives the bytes of one built for the call
    assert apply_stencil(st, c, v).tobytes() == apply_stencil(st, c, v, resolvent).tobytes()


@pytest.mark.parametrize("dim,h,box", [(1, 0.125, 6.0), (2, 0.25, 1.5)])
@pytest.mark.parametrize("c", [0, 1])
@pytest.mark.parametrize("support", ["diameter", "half_box"])
def test_fft_neighbor_sum_matches_shift_loop(dim, h, box, c, support):
    # the default support is the box diameter: offsets reach past the box
    # and are dropped; on half the box they stop inside it, and a circular
    # length below n + K would wrap the longest jumps onto nodes.  The
    # operator's exposed spectrum, c/h^2 nearest neighbors included, gives
    # the same neighbor sum on the box, and it is the operator's only form
    g = UniformGrid.from_box(dim, h, box)
    st = measure_stencil(MeasureSpec(kind="fractional", alpha=1.0), g,
                         support_radius=None if support == "diameter" else box)
    assert st.n_offsets > _KERNEL_THRESHOLD
    reach = np.max(np.abs(st.offsets))
    assert reach >= max(g.shape) if support == "diameter" else reach < max(g.shape) - 1
    v = np.random.default_rng(4).normal(size=g.shape)
    op = _Resolvent(combine_with_laplacian(st, c), g.shape)
    np.testing.assert_allclose(op.neighbor(v), _shift_loop(st, c, v), rtol=0.0,
                               atol=1e-13 * np.max(np.abs(v)))
    assert op.shifts is None
    np.testing.assert_array_equal(_circular(v, op.spectrum, op.lengths), op.neighbor(v))


def test_next_fast_len_is_scipy_fft_next_fast_len():
    # a dense kernel's circular lengths, and so its bits, are those of
    # scipy.fft's real lengths, though a run no longer imports scipy.fft
    lengths = range(1, 2 ** 15 + 1)
    assert [_next_fast_len(n) for n in lengths] == [fft.next_fast_len(n, real=True)
                                                     for n in lengths]


@pytest.mark.parametrize("shape", [(9, 1), (1, 9)], ids=["column", "row"])
def test_fft_neighbor_sum_on_a_one_node_axis(shape):
    # no jump along a one-node axis lands in the box, the nearest
    # neighbors' included, though the kernel's circular length there is 2
    g = UniformGrid.from_box(2, 0.25, 1.5)
    st = measure_stencil(MeasureSpec(kind="fractional", alpha=1.0), g, support_radius=5 * g.h)
    assert st.n_offsets > _KERNEL_THRESHOLD
    v = np.random.default_rng(6).normal(size=shape)
    op = _Resolvent(combine_with_laplacian(st, 1), shape)
    assert op.shifts is None and 2 in op.lengths
    np.testing.assert_allclose(op.neighbor(v), _shift_loop(st, 1, v), rtol=0.0,
                               atol=1e-13 * np.max(np.abs(v)))


def _c_aware_matrix(st, c, shape):
    # the CSR build of the pair (stencil, c) before the merge: the measure
    # offsets, then c/h^2 at the 2N nearest neighbors, duplicates summed
    offsets, weights = list(st.offsets), list(st.weights)
    if c:
        unit = np.eye(st.dim, dtype=int)
        offsets += list(unit) + list(-unit)
        weights += [1.0 / st.h ** 2] * (2 * st.dim)
    pairs = [(off, w) for off, w in zip(offsets, weights) if np.all(np.abs(off) < shape)]
    size = int(np.prod(shape))
    if not pairs:
        return sparse.csr_matrix((size, size))
    index = np.arange(size).reshape(shape)
    rows, cols, vals = [], [], []
    for off, w in pairs:
        dst = tuple(slice(max(-k, 0), n - max(k, 0)) for n, k in zip(shape, off))
        src = tuple(slice(max(k, 0), n + min(k, 0)) for n, k in zip(shape, off))
        rows.append(index[dst].ravel())
        cols.append(index[src].ravel())
        vals.append(np.full(rows[-1].size, w))
    return sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(size, size))


def _c_aware_kernel(st, c, shape):
    # the dense-kernel build of the pair (stencil, c) before the merge:
    # c/h^2 added at the units after the measure weights, and a reach of at
    # least c per axis
    inside = np.all(np.abs(st.offsets) < np.array(shape), axis=1)
    offsets = st.offsets[inside]
    reach = np.max(np.abs(offsets), axis=0, initial=c)
    lengths = tuple(fft.next_fast_len(int(n + k), real=True) for n, k in zip(shape, reach))
    kernel = np.zeros(lengths)
    kernel[tuple(offsets.T)] = st.weights[inside]
    for unit in np.eye(st.dim, dtype=int) if c else ():
        kernel[tuple(unit)] += 1.0 / st.h ** 2
        kernel[tuple(-unit)] += 1.0 / st.h ** 2
    return np.fft.rfftn(kernel).real, lengths


def _merge_case(kind, g):
    fractional = MeasureSpec(kind="fractional", alpha=1.0)
    if kind == "empty":
        return WeightedStencil.empty(g.h, g.dim)
    if kind == "short":
        return measure_stencil(fractional, g, support_radius=2 * g.h)
    if kind == "dense":
        return measure_stencil(fractional, g)
    # no unit offsets: the measure's cells at |gamma|_1 >= 2 only
    st = measure_stencil(fractional, g, support_radius=2 * g.h)
    keep = np.sum(np.abs(st.offsets), axis=1) >= 2
    return WeightedStencil(h=g.h, dim=g.dim, offsets=st.offsets[keep], weights=st.weights[keep])


@pytest.mark.parametrize("c", [0, 1])
@pytest.mark.parametrize("kind", ["empty", "short", "dense", "no_units"])
@pytest.mark.parametrize("dim,h,box,shape", [
    (1, 0.125, 3.0, None), (2, 0.3, 1.2, None), (3, 0.4, 1.2, None), (2, 0.25, 1.0, (9, 1)),
], ids=["dim1", "dim2", "dim3", "one_node_axis"])
def test_merged_stencil_matches_the_c_aware_builds(dim, h, box, shape, kind, c):
    # the merged stencil's neighbor sum is the same bytes as the c-aware
    # builds it replaced, on a short stencil's band (the line) or CSR
    # matrix and on a dense kernel's spectrum
    g = UniformGrid.from_box(dim, h, box)
    shape = g.shape if shape is None else shape
    st = _merge_case(kind, g)
    merged = combine_with_laplacian(st, c)
    assert (st.n_offsets > _KERNEL_THRESHOLD) == (kind == "dense")
    v = np.random.default_rng(dim).normal(size=shape)
    if kind == "dense":
        spectrum, lengths = _c_aware_kernel(st, c, shape)
        want = _circular(v, spectrum, lengths)
    else:
        want = (_c_aware_matrix(st, c, shape) @ v.ravel()).reshape(shape)
    got = _Resolvent(merged, shape).neighbor(v)
    if kind == "dense" and c and 1 in shape:
        # the c-aware kernel also held the one-node axis's units, wrapped
        # onto the padding, where they only round: under numpy's per-axis
        # inverse scaling, 1.5 ulps of the largest value (measured)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=2 * np.spacing(np.max(np.abs(want))))
    else:
        assert got.tobytes() == want.tobytes()
    # W, the merged weights' sum, against the measure's sum plus 2N/h^2;
    # with a measure, or six equal weights in 3-D, the sums may round
    # apart: by one ulp at most here, and by 3 ulps on the 5 260 offsets of
    # the 2-D fractional measure at h = 0.2 (measured)
    W = st.total_weight + (2 * dim * (1.0 / h ** 2) if c else 0.0)
    if c and (st.n_offsets or dim == 3):
        assert abs(merged.total_weight - W) <= np.spacing(W)
    else:
        assert merged.total_weight == W


def test_c_flag_equals_explicit_laplacian():
    g = UniformGrid.from_box(1, 0.25, 2.0)
    rng = np.random.default_rng(7)
    u = rng.normal(size=g.shape)
    empty = WeightedStencil.empty(g.h, g.dim)
    np.testing.assert_allclose(apply_stencil(empty, 1, u),
                               apply_stencil(combine_with_laplacian(empty, 1), 0, u),
                               atol=1e-14)
    # 2-D measure plus local part: the pair (st, 1) acts as its merged weights
    g2 = UniformGrid.from_box(2, 0.5, 2.0)
    st = measure_stencil(MeasureSpec(kind="fractional", alpha=1.0), g2)
    u2 = rng.normal(size=g2.shape)
    np.testing.assert_allclose(apply_stencil(st, 1, u2),
                               apply_stencil(combine_with_laplacian(st, 1), 0, u2),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("built_dim", [1, 2])
def test_radial_density_takes_dim(built_dim):
    # the density exponent is -(N + alpha) for the N passed in, whatever
    # stencil was last built from the same spec
    m = MeasureSpec(kind="fractional", alpha=1.0)
    measure_stencil(m, UniformGrid.from_box(built_dim, 1.0, 2.0))
    assert m.radial_density(2.0, 2) == 2.0 ** -3
    assert m.radial_density(2.0, 1) == 2.0 ** -2


def test_stencil_symmetry():
    m = MeasureSpec(kind="fractional", alpha=1.2, scale=0.7)
    st = measure_stencil(m, UniformGrid.from_box(1, 0.25, 4.0))
    offs = st.offsets[:, 0]
    w = dict(zip(offs.tolist(), st.weights.tolist()))
    for k, v in w.items():
        assert w[-k] == pytest.approx(v, rel=1e-14)
    assert np.all(st.weights > 0.0)


def test_fractional_tail_mass_decreases_with_reach():
    m = MeasureSpec(kind="fractional", alpha=1.0)
    g = UniformGrid.from_box(1, 0.5, 10.0)
    near = measure_stencil(m, g, support_radius=4.0)
    far = measure_stencil(m, g, support_radius=8.0)
    assert near.tail_mass_beyond_support > far.tail_mass_beyond_support > 0.0


@pytest.mark.parametrize("truncation", [None, 0.7, 3.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_split_mass_beyond_below_the_knee_matches_quad(dim, truncation):
    m = MeasureSpec(kind="split", alpha=1.5, beta=0.5, scale=0.7, truncation=truncation)
    area = sphere_area(dim)
    hi = math.inf if truncation is None else truncation
    for R in (0.3, 0.9):
        pieces = [R] + [k for k in (1.0,) if R < k < hi] + [hi]
        want = sum(quad(lambda r: area * r ** (dim - 1) * float(m.radial_density(r, dim)),
                        a, b, epsabs=1e-15, epsrel=1e-13)[0]
                   for a, b in zip(pieces[:-1], pieces[1:]))
        assert m.mass_beyond(R, dim) == pytest.approx(want, rel=1e-12, abs=0.0), R


def test_custom_pole_density_rejected():
    bad = MeasureSpec(kind="custom", density=lambda r: 1.0 / np.abs(r - 1.0))
    with pytest.raises(StencilError) as exc:
        measure_stencil(bad, UniformGrid.from_box(1, 0.5, 4.0))
    assert "cell" in str(exc.value)


def test_custom_smooth_density_accepted():
    ok = MeasureSpec(kind="custom", density=lambda r: np.exp(-r))
    st = measure_stencil(ok, UniformGrid.from_box(1, 0.5, 4.0))
    assert np.all(st.weights > 0.0)


def test_operator_spec_build():
    g = UniformGrid.from_box(1, 0.5, 2.0)
    local = OperatorSpec(c=1, measure=None)
    # the built stencil is the whole operator: the Laplacian's two weights
    assert local.build_stencil(g).n_offsets == 2
    with pytest.raises(ConfigurationError):
        MeasureSpec(kind="fractional", alpha=2.5)

def test_operator_norm_bound_splits_near_and_far():
    # |L[psi]|_p <= |psi''|_p * sum_{|z|<=R} |z|^2 w + 2 |psi|_p * sum_{|z|>R} w
    prof = GaussianProfile(1.0, 0.5)
    g = UniformGrid.from_box(1, 0.1, 10.0)
    st = measure_stencil(MeasureSpec(kind="fractional", alpha=1.0), g)
    x = g.axis_coords(0)
    psi = prof.at(x[:, None])
    spread = 0.5
    psi2 = (x ** 2 / (4.0 * spread ** 2) - 1.0 / (2.0 * spread)) * psi
    applied = apply_stencil(st, 0, psi)
    radii = st.offset_radii()
    vol = g.cell_volume

    def norm(vals, p):
        if np.isinf(p):
            return float(np.max(np.abs(vals)))
        return float((vol * np.sum(np.abs(vals) ** p)) ** (1.0 / p))

    for R in (1.5, 2.0, 4.0):
        near = radii <= R
        second_moment = float(np.sum(radii[near] ** 2 * st.weights[near]))
        far = float(np.sum(st.weights[~near])) + st.tail_mass_beyond_support
        for p in (1.0, 2.0, np.inf):
            rhs = norm(psi2, p) * second_moment + 2.0 * norm(psi, p) * far
            assert norm(applied, p) <= rhs * (1.0 + 1e-9)


def _weights_by_offset(st):
    return {tuple(int(g) for g in off): w for off, w in zip(st.offsets, st.weights)}


def test_cell_mass_oracle_2d():
    # alpha = 1 in the plane: density |z|^-3, integrated over each cell
    m = MeasureSpec(kind="fractional", alpha=1.0)
    h = 0.5
    w = _weights_by_offset(measure_stencil(m, UniformGrid.from_box(2, h, 2.0)))
    for off in [(1, 0), (1, 1), (2, 1), (3, 0), (0, -2)]:
        (x0, x1), (y0, y1) = [((g - 0.5) * h, (g + 0.5) * h) for g in off]
        want, _ = dblquad(lambda y, x: float(m.radial_density(np.hypot(x, y), 2)),
                          x0, x1, y0, y1, epsabs=0.0, epsrel=1e-12)
        assert w[off] == pytest.approx(want, rel=1e-6), off


def test_midpoint_rule_weights_2d():
    m = MeasureSpec(kind="fractional", alpha=1.0, weight_rule="midpoint_density")
    h = 0.5
    w = _weights_by_offset(measure_stencil(m, UniformGrid.from_box(2, h, 2.0)))
    for off in [(1, 0), (1, 2), (-3, 1)]:
        assert w[off] == pytest.approx(np.hypot(*off) ** -3 / h, rel=1e-14), off


@pytest.mark.parametrize("dim", [2, 3])
def test_weights_are_exactly_symmetric(dim):
    # every reflection and axis permutation of a cell carries the same weight
    m = MeasureSpec(kind="split", alpha=1.5, beta=0.5, scale=0.7)
    w = _weights_by_offset(measure_stencil(m, UniformGrid.from_box(dim, 0.5, 1.5)))
    for off, weight in w.items():
        assert weight == w[tuple(sorted(abs(g) for g in off))], off


@pytest.mark.parametrize("measure, h", [
    (MeasureSpec(kind="split", alpha=1.5, beta=0.5, scale=0.7), 0.3),
    (MeasureSpec(kind="fractional", alpha=1.2, truncation=2.0), 0.3),
], ids=["split", "truncated"])
def test_cell_mass_closed_form_on_the_line(measure, h):
    # the split point r = 1 and the truncation radius 2 fall inside cells
    st = measure_stencil(measure, UniformGrid.from_box(1, h, 3.0))
    for off, w in _weights_by_offset(st).items():
        lo, hi = sorted(((abs(off[0]) - 0.5) * h, (abs(off[0]) + 0.5) * h))
        kinks = [r for r in (1.0, 2.0) if lo < r < hi] or None
        want, _ = quad(lambda r: float(measure.radial_density(r, 1)), lo, hi,
                       points=kinks, epsabs=0.0, epsrel=1e-13, limit=200)
        assert w == pytest.approx(want, rel=1e-12, abs=0.0), off


def _scalar_cell_weight_1d_power(measure, lo, hi):
    # the per-cell closed form in numpy-scalar arithmetic, as measure_stencil
    # once called it for each class on the line
    def power_mass(a, b, c):
        return (a ** (-c) - b ** (-c)) / c

    if measure.truncation is not None:
        hi = min(hi, measure.truncation)
        if hi <= lo:
            return 0.0
    if measure.kind == "fractional":
        return measure.scale * power_mass(lo, hi, measure.alpha)
    out = 0.0
    if lo < 1.0:
        out += power_mass(lo, min(hi, 1.0), measure.beta)
    if hi > 1.0:
        out += power_mass(max(lo, 1.0), hi, measure.alpha)
    return measure.scale * out


def _reference_stencil(measure, grid):
    # the earlier build: classes by np.unique over rows, and on the line
    # one numpy-scalar closed form per class
    h, dim = grid.h, grid.dim
    support_radius, kmax = _support_index(measure, grid, None)
    offsets = np.indices((2 * kmax + 1,) * dim).reshape(dim, -1).T - kmax
    radii = h * np.sqrt(np.sum(offsets.astype(float) ** 2, axis=1))
    offsets = offsets[(radii > 0.0) & (radii <= support_radius + 1e-12)]
    classes, members = np.unique(np.sort(np.abs(offsets), axis=1), axis=0,
                                 return_inverse=True)
    if (dim == 1 and measure.kind in ("fractional", "split")
            and measure.weight_rule == "cell_mass"):
        weights = np.array([_scalar_cell_weight_1d_power(measure, (g - 0.5) * h, (g + 0.5) * h)
                            for g in classes[:, 0]])
    else:
        weights = _class_weights(measure, classes, h)
    edge = float(np.max(offsets, initial=0) + 0.5) * h if dim == 1 else support_radius
    return WeightedStencil(h=h, dim=dim, offsets=offsets, weights=weights[members.reshape(-1)],
                           tail_mass_beyond_support=float(measure.mass_beyond(edge, dim)))


@pytest.mark.parametrize("measure, dim, h, box", [
    # frac_heat_poisson_1d's kernel across the whole box: 12 290 offsets
    (MeasureSpec(kind="fractional", alpha=1.0, scale=1.0 / np.pi), 1, 1.0 / 64, 48.0),
    (MeasureSpec(kind="split", alpha=1.5, beta=0.5, scale=0.7), 1, 0.3, 3.0),
    (MeasureSpec(kind="fractional", alpha=1.2, truncation=2.0), 1, 0.3, 3.0),
    (MeasureSpec(kind="split", alpha=1.2, beta=0.7, truncation=0.7), 1, 0.3, 3.0),
    (MeasureSpec(kind="fractional", alpha=1.0, weight_rule="midpoint_density"), 1, 0.25, 4.0),
    (MeasureSpec(kind="fractional", alpha=1.0, scale=1.0 / np.pi), 2, 0.2, 4.0),
    (MeasureSpec(kind="split", alpha=1.5, beta=0.5, scale=0.7), 3, 0.5, 1.5),
    (MeasureSpec(kind="custom", density=lambda r: np.exp(-r)), 2, 0.5, 2.0),
], ids=["fractional_whole_box", "split_r1_in_a_cell", "truncated_in_a_cell",
        "split_truncated_below_1", "midpoint", "fractional_2d", "split_3d", "custom_2d"])
def test_measure_stencil_is_bit_identical_to_the_row_unique_build(measure, dim, h, box):
    # the int64 class key and the closed form's one power per edge change
    # no bit of the stencil
    g = UniformGrid.from_box(dim, h, box)
    st, ref = measure_stencil(measure, g), _reference_stencil(measure, g)
    assert st.offsets.tobytes() == ref.offsets.tobytes()
    assert st.weights.tobytes() == ref.weights.tobytes()
    assert st.tail_mass_beyond_support == ref.tail_mass_beyond_support


@pytest.mark.parametrize("dim", [1, 2])
def test_stencil_csv_matches_the_row_by_row_format(tmp_path, dim):
    # the smallest subnormal, a small weight and a large one, each on an
    # axis offset and (in the plane) on a diagonal one
    weights = [5e-324, 1e-5, 1e16]
    offsets = [[k] for k in (1, 2, 3)] if dim == 1 else [[1, 0], [0, 2], [1, -3]]
    full = [[-g for g in off] for off in offsets] + offsets
    st = WeightedStencil(h=0.5, dim=dim, offsets=full, weights=weights + weights)
    for stencil in (st, WeightedStencil.empty(0.5, dim)):
        lines = [",".join(f"gamma_{i + 1}" for i in range(dim)) + ",weight"]
        for off, w in zip(stencil.offsets, stencil.weights):
            lines.append(",".join(str(int(g)) for g in off) + "," + _format_float(w))
        write_stencil_csv(tmp_path / "stencil.csv", stencil)
        assert (tmp_path / "stencil.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
