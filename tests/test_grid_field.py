"""Lattice containers: box construction, norms, shifts, cell lookup, time
interpolants."""

import os
import signal

import numpy as np
import pytest

from gpme import grid_field
from gpme.errors import ConfigurationError, DataError
from gpme.grid_field import (FieldWriter, TimeGrid, Trajectory, UniformGrid,
                             lr_norm_of_values, project_cell_average, shifted,
                             write_field_csv)
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
    assert u.shape == g.shape and u.dtype == float
    np.testing.assert_allclose(u, 3.5)


def test_project_gaussian_mass_matches_l1_up_to_tails():
    prof = GaussianProfile(1.0, 0.25)
    g = UniformGrid.from_box(1, 0.05, 6.0)
    u = project_cell_average(prof, g)
    box_mass = prof.l1_norm() - prof.abs_tail_mass(g.half_extents[0])
    assert g.cell_volume * np.sum(u) == pytest.approx(box_mass, abs=1e-12)


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
    # each field is stored read-only, and only in the grid's shape
    assert not any(f.flags.writeable for f in tr.fields)
    with pytest.raises(ConfigurationError):
        Trajectory(g, TimeGrid(np.array([0.0, 1.0])), (np.zeros(5), np.zeros(4)))


def test_cell_of_half_open_cells_and_box():
    # nodes -1..1 at h = 0.5 own the cells (x - 0.25, x + 0.25]: a point on
    # a cell's upper face is that cell's, one on its lower face the cell
    # below's, and the lower face of the first cell lies outside the box
    g = UniformGrid.from_box(1, 0.5, 1.0)
    idx, inside = g.cell_of(np.array([[0.0], [0.25], [-0.25], [1.25], [-1.25], [1.3]]))
    assert idx[inside, 0].tolist() == [2, 2, 1, 4]
    assert inside.tolist() == [True, True, True, True, False, False]
    # per axis in the plane; a point outside along one axis is outside
    g2 = UniformGrid.from_box(2, 0.5, (1.0, 0.5))
    idx, inside = g2.cell_of(np.array([[0.25, -0.75], [0.75, 0.25], [-1.0, 0.5]]))
    assert inside.tolist() == [False, True, True]
    assert idx[1].tolist() == [3, 1] and idx[2].tolist() == [0, 2]
    with pytest.raises(DataError):
        g2.cell_of(np.zeros((3, 1)))


def test_write_field_csv_deterministic(tmp_path):
    g = UniformGrid.from_box(1, 0.5, 1.0)
    u = np.linspace(-1.0, 1.0, 5)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_field_csv(a, u)
    write_field_csv(b, u)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "beta_1,value"


def special_values(g, seed=2):
    """Signed zero, subnormals, huge and tiny values, inf and nan, with
    random signs, on every node of g."""
    special = [-0.0, 5e-324, 1e-5, 1e16, -2.5, -1e-300, 0.1, 1.0 / 3.0, np.inf, np.nan]
    values = np.resize(np.array(special), g.node_count).reshape(g.shape)
    values *= np.random.default_rng(seed).choice([1.0, -1.0], size=g.shape)
    return values


@pytest.mark.parametrize("dim,h,box", [
    (1, 0.5, 2.0), (2, 0.5, 1.0), (3, 1.0, 1.0),
    pytest.param(2, 0.5, (1.0, 2.0), id="2-0.5-1.0x2.0"),
    pytest.param(3, 0.5, (0.5, 1.0, 1.5), id="3-0.5-0.5x1.0x1.5")])
def test_write_field_csv_matches_row_by_row_format(tmp_path, dim, h, box):
    # a plain reference formats one row at a time; the writer must give
    # its bytes exactly, signed zero and subnormals included.  The labels
    # come from the field's shape, so the last two boxes give each axis
    # its own index bound
    g = UniformGrid.from_box(dim, h, box)
    values = special_values(g)
    path = tmp_path / "field.csv"
    write_field_csv(path, values)
    lines = [",".join(f"beta_{i + 1}" for i in range(dim)) + ",value"]
    for idx in np.ndindex(*g.shape):
        beta = [idx[i] - g.index_bounds[i] for i in range(dim)]
        lines.append(",".join(str(b) for b in beta) + "," + repr(float(values[idx])))
    assert path.read_text() == "\n".join(lines) + "\n"


def _field_items(tmp_path, dim, n):
    g = UniformGrid.from_box(dim, 0.5, 1.0)
    return [(tmp_path / f"field_{j}.csv", np.roll(special_values(g, seed=j), j))
            for j in range(n)]


def _write_knots(items, stride=1):
    """Hand a FieldWriter the fields of items as the saved knots 0, stride,
    2 stride, ... of a run whose other knots hold fields it does not save."""
    shape = items[0][1].shape if items else (1,)
    n_knots = (len(items) - 1) * stride + 1 if items else 0
    with FieldWriter({k * stride: path for k, (path, _) in enumerate(items)},
                     n_knots, shape) as writer:
        for j in range(n_knots):
            u = items[j // stride][1] if j % stride == 0 else np.full(shape, -1.0)
            assert writer.knot(j, u).tobytes() == u.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_write_field_csvs_matches_one_process_loop(tmp_path, monkeypatch, forks, dim, n):
    # FieldWriter, forked or not, writes the bytes of write_field_csv called
    # on each saved knot, and no other file
    monkeypatch.setattr(grid_field, "_FORK_MIN_VALUES", 0)
    (tmp_path / "one").mkdir()
    for path, u in _field_items(tmp_path / "one", dim, n):
        write_field_csv(path, u)
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert len(names) == n
    for stride in (1, 3):
        two = tmp_path / f"two_{stride}"
        two.mkdir()
        _write_knots(_field_items(two, dim, n), stride)
        # the child takes a share only when there are two knots to share
        assert len(forks) == (1 if n >= 2 else 0)
        forks.clear()
        assert names == sorted(p.name for p in two.iterdir())
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == (two / name).read_bytes()


def test_write_field_csvs_forks_only_for_enough_values(tmp_path, forks):
    # two saved fields just below and just above the fork's threshold; the
    # knot between them is not saved and does not count
    half = grid_field._FORK_MIN_VALUES // 2
    for k, expected in [(half // 2 - 1, 0), (half // 2, 1)]:
        g = UniformGrid(dim=1, h=1.0, index_bounds=(k,))
        _write_knots([(tmp_path / f"{k}_{j}.csv", np.zeros(g.shape)) for j in range(2)],
                     stride=2)
        assert len(forks) == expected, (2 * g.node_count, grid_field._FORK_MIN_VALUES)
        forks.clear()


def test_write_field_csvs_without_fork_writes_in_process(tmp_path, monkeypatch):
    monkeypatch.setattr(grid_field, "_FORK_MIN_VALUES", 0)
    monkeypatch.delattr(os, "fork")
    items = _field_items(tmp_path, 2, 3)
    _write_knots(items)
    for path, u in items:
        ref = tmp_path / f"ref_{path.name}"
        write_field_csv(ref, u)
        assert path.read_bytes() == ref.read_bytes()


def test_write_field_csvs_raises_what_the_loop_raises(tmp_path, monkeypatch):
    # a directory at knot 1's path: the one-process loop fails to open it,
    # and the writer fails to move knot 1's file there, with the same error
    # naming that path, and leaves no partial file
    monkeypatch.setattr(grid_field, "_FORK_MIN_VALUES", 0)
    items = _field_items(tmp_path, 1, 4)
    items[1][0].mkdir()
    with pytest.raises(OSError) as loop:
        for path, u in items:
            write_field_csv(path, u)
    with pytest.raises(OSError) as shared:
        _write_knots(items)
    assert type(shared.value) is type(loop.value)
    assert str(items[1][0]) in str(shared.value)
    assert not list(tmp_path.glob("*.part"))


def test_writer_outlives_a_dead_child_and_a_full_pipe(tmp_path, monkeypatch, forks):
    # the child leaves at its first knot.  The parent still holds the
    # queue's read end, so posting an index never fails: the pipe fills
    # (a 64 KiB pipe holds 16 384 indices), and every knot after that must
    # fall to the parent instead of blocking the run
    monkeypatch.setattr(grid_field, "_FORK_MIN_VALUES", 0)
    parent = os.getpid()
    write = grid_field.write_field_csv

    def child_dies(path, values, labels=None):
        if os.getpid() != parent:
            os._exit(3)
        write(path, values, labels)

    def hung(signum, frame):
        raise TimeoutError("posting a knot blocked")

    monkeypatch.setattr(grid_field, "write_field_csv", child_dies)
    n = 20_000
    # a blocking post would hang here: the alarm bounds the wait
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with FieldWriter({j: tmp_path / f"{j}.csv" for j in range(n)}, n, (1,)) as writer:
            for j in range(n):
                writer.knot(j, np.array([float(j)]))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) == 1
    assert len(os.listdir(tmp_path)) == n
    for j in (0, 1, 16_384, n - 1):
        assert (tmp_path / f"{j}.csv").read_text() == f"beta_1,value\n0,{float(j)!r}\n"
