"""Lattice containers: box construction, norms, shifts, interpolants."""

import numpy as np
import pytest

from gpme.errors import ConfigurationError, DataError
from gpme.grid_field import (GridFunction, TimeGrid, Trajectory, UniformGrid,
                             eval_spacetime_interpolant, lr_norm_of_values,
                             project_cell_average, shifted, write_field_csv)
from gpme.profiles import ConstantProfile, GaussianProfile


def test_from_box_covers_requested_extent():
    g = UniformGrid.from_box(1, 0.5, 2.0)
    assert g.shape == (9,)
    assert g.half_extents[0] >= 2.0
    x = g.axis_coords(0)
    np.testing.assert_allclose(np.diff(x), 0.5)
    np.testing.assert_allclose(x, -x[::-1])


@pytest.mark.parametrize("h,L", [(0.1, 1.0), (0.3, 2.0), (1.0 / 64.0, 6.0), (0.7, 0.7)])
def test_from_box_never_undershoots(h, L):
    g = UniformGrid.from_box(1, h, L)
    assert g.half_extents[0] >= L - 1e-12


def test_cell_volume_and_2d_shape():
    g = UniformGrid.from_box(2, 0.5, 1.0)
    assert g.cell_volume == 0.25
    assert g.shape == (5, 5)
    assert g.node_count == 25


def test_grid_function_mass_and_shape_check():
    g = UniformGrid.from_box(1, 0.5, 2.0)
    u = GridFunction(g, np.arange(9, dtype=float))
    assert u.mass() == pytest.approx(0.5 * 36.0)
    with pytest.raises(DataError):
        GridFunction(g, np.zeros(4))


def test_shifted_zero_fill():
    v = np.arange(5, dtype=float)
    np.testing.assert_array_equal(shifted(v, (1,)), [1, 2, 3, 4, 0])
    np.testing.assert_array_equal(shifted(v, (-1,)), [0, 0, 1, 2, 3])
    np.testing.assert_array_equal(shifted(v, (0,)), v)


def test_shifted_2d_axis():
    v = np.arange(9, dtype=float).reshape(3, 3)
    out = shifted(v, (0, 1))
    np.testing.assert_array_equal(out[:, :2], v[:, 1:])
    np.testing.assert_array_equal(out[:, 2], 0.0)


def test_lr_norm_of_values_hand_values():
    u = np.array([1.0, -2.0, 0.0, 2.0, -1.0])
    assert lr_norm_of_values(u, 0.5, 1) == pytest.approx(3.0)
    assert lr_norm_of_values(u, 0.5, 2) == pytest.approx(np.sqrt(0.5 * 10.0))
    assert lr_norm_of_values(u, 0.5, np.inf) == pytest.approx(2.0)


def test_project_constant_is_exact():
    g = UniformGrid.from_box(2, 0.25, 1.0)
    u = project_cell_average(ConstantProfile(3.5, dim=2), g)
    np.testing.assert_allclose(u.values, 3.5)


def test_project_gaussian_mass_matches_l1_up_to_tails():
    prof = GaussianProfile(1.0, 0.25)
    g = UniformGrid.from_box(1, 0.05, 6.0)
    u = project_cell_average(prof, g)
    box_mass = prof.l1_norm() - prof.abs_tail_mass(g.half_extents[0])
    assert u.mass() == pytest.approx(box_mass, abs=1e-12)


def test_time_grid_uniform_hits_T():
    tg = TimeGrid.uniform(1.0, 0.4)
    assert tg.knots[-1] == 1.0
    assert tg.n_steps == 3
    with pytest.raises(ConfigurationError):
        TimeGrid.uniform(0.0, 0.1)
    with pytest.raises(ConfigurationError):
        TimeGrid(np.array([0.0, 0.5, 0.5]))


def test_trajectory_linear_interpolation_in_time():
    g = UniformGrid.from_box(1, 0.5, 1.0)
    tr = Trajectory(g, TimeGrid(np.array([0.0, 1.0])),
                    (np.zeros(5), np.ones(5)))
    np.testing.assert_allclose(tr.values_at_time(0.25), 0.25)
    np.testing.assert_allclose(tr.fields[1], 1.0)
    with pytest.raises(DataError):
        tr.values_at_time(2.0)
    with pytest.raises(ConfigurationError):
        Trajectory(g, TimeGrid(np.array([0.0, 1.0])), (np.zeros(5),))


def test_spacetime_interpolant_cell_lookup():
    g = UniformGrid.from_box(1, 0.5, 1.0)
    tr = Trajectory(g, TimeGrid(np.array([0.0, 1.0])),
                    (np.zeros(5), np.arange(5, dtype=float)))
    out = eval_spacetime_interpolant(tr, np.array([[0.0], [1.0]]), 1.0)
    np.testing.assert_allclose(out, [2.0, 4.0])


def test_write_field_csv_deterministic(tmp_path):
    g = UniformGrid.from_box(1, 0.5, 1.0)
    u = GridFunction(g, np.linspace(-1.0, 1.0, 5))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_field_csv(a, u)
    write_field_csv(b, u)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "beta_1,value"


@pytest.mark.parametrize("dim,h,box", [(1, 0.5, 2.0), (2, 0.5, 1.0), (3, 1.0, 1.0)])
def test_write_field_csv_matches_row_by_row_format(tmp_path, dim, h, box):
    # a plain reference formats one row at a time; the writer must give
    # its bytes exactly, signed zero and subnormals included
    g = UniformGrid.from_box(dim, h, box)
    special = [-0.0, 5e-324, 1e-5, 1e16, -2.5, -1e-300, 0.1, 1.0 / 3.0]
    values = np.resize(np.array(special), g.node_count).reshape(g.shape)
    values *= np.random.default_rng(2).choice([1.0, -1.0], size=g.shape)
    path = tmp_path / "field.csv"
    write_field_csv(path, GridFunction(g, values))
    lines = [",".join(f"beta_{i + 1}" for i in range(dim)) + ",value"]
    for idx in np.ndindex(*g.shape):
        beta = [idx[i] - g.index_bounds[i] for i in range(dim)]
        lines.append(",".join(str(b) for b in beta) + "," + repr(float(values[idx])))
    assert path.read_text() == "\n".join(lines) + "\n"
