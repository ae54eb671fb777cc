"""Lattice containers: box construction, norms, cell lookup, time
interpolants."""

import math
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpme import grid_field
from gpme.config import build_plan, load_config
from gpme.errors import ConfigurationError, DataError
from gpme.evolution import run
from gpme.grid_field import (FieldWriter, TimeGrid, Trajectory, UniformGrid,
                             lr_norm_of_values, project_cell_average, write_field_csv)
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
    # a run that streamed its knots keeps none, and has no interpolant
    empty = Trajectory(g, TimeGrid(np.array([0.0, 1.0])), ())
    with pytest.raises(DataError):
        empty.values_at_time(0.5)


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


def _nudged(x, ulps):
    """x moved ulps units in the last place."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


_SIGNS = st.sampled_from([1.0, -1.0])
# where the kernel's certificate is tight, or its format switches, or it
# hands the value to repr
_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda k, d, s: s * _nudged(2.0 ** k, d),
              st.integers(-1074, 1023), st.integers(-1, 1), _SIGNS),
    st.integers(0, 63).flatmap(lambda b: st.integers(-2 ** b, 2 ** b)).map(float),
    st.builds(lambda m, k: float(f"{m}e{k}"), st.integers(-10 ** 6, 10 ** 6),
              st.integers(-30, 30)),
    st.builds(lambda b, d, s: s * _nudged(b, d), st.sampled_from([1e-5, 1e-4, 1e15, 1e16]),
              st.integers(-2, 2), _SIGNS),
    st.builds(lambda k, d: _nudged(float(f"1e{k}"), d), st.integers(-300, 300),
              st.integers(-1, 1)),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=st.lists(_DOUBLES, max_size=40))
def test_kernel_gives_the_bytes_of_repr(values):
    # the digit search runs at every size here, not from
    # _KERNEL_MIN_VALUES on, so each drawn value meets the certificate
    rows = np.empty((len(values), grid_field._WIDTH), dtype=np.uint8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_field, "_KERNEL_MIN_VALUES", 0)
        grid_field._value_rows(np.array(values, dtype=float), rows)
    assert rows.tobytes().translate(None, b"\0") == "".join(map(repr, values)).encode()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(shape=st.sampled_from([(7,), (3, 5), (3, 1, 5)]),
       values=st.lists(_DOUBLES, min_size=1, max_size=15))
def test_field_csv_gives_repr_rows_in_every_dimension(shape, values):
    # the kernel's rows beside their labels, in 1-D, 2-D and 3-D, and two
    # fields in one call of the kernel
    fields = [np.resize(np.array(values), shape), -np.resize(np.array(values[::-1]), shape)]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_field, "_KERNEL_MIN_VALUES", 0)
        paths = [Path(tmp) / f"{k}.csv" for k in range(2)]
        grid_field.write_field_csvs(paths, fields)
        for path, u in zip(paths, fields):
            lines = [",".join(f"beta_{i + 1}" for i in range(len(shape))) + ",value"]
            for idx in np.ndindex(*shape):
                lines.append(",".join(str(i - n // 2) for i, n in zip(idx, shape))
                             + "," + repr(float(u[idx])))
            assert path.read_text() == "\n".join(lines) + "\n"


def test_kernel_sends_few_values_of_a_preset_field_to_repr():
    # a certificate that broke would cost repr's price, not fail: on
    # frac_heat_poisson_1d's final field at h = 1/64 (6145 values, 94 % of
    # them needing 16 or 17 digits) under 0.1 % of the values take repr
    plan = build_plan(load_config({"preset": "frac_heat_poisson_1d",
                                   "problem": {"h": 1.0 / 64, "T": 0.5}}))
    final = {}
    run(plan.problem, plan.grid, plan.time_grid, config=plan.solver,
        on_knot=lambda j, u: final.update(u=u.copy()))
    rows = np.empty((final["u"].size, grid_field._WIDTH), dtype=np.uint8)
    slow = grid_field._value_rows(final["u"], rows)
    assert final["u"].size == 6145
    assert len(slow) < 1e-3 * final["u"].size
    assert rows.tobytes().translate(None, b"\0") == "".join(
        map(repr, final["u"].ravel().tolist())).encode()


def _field_items(tmp_path, dim, n):
    g = UniformGrid.from_box(dim, 0.5, 1.0)
    return [(tmp_path / f"field_{j}.csv", np.roll(special_values(g, seed=j), j))
            for j in range(n)]


def _write_knots(items, stride=1, pause=0.0):
    """Hand a FieldWriter the fields of items as the saved knots 0, stride,
    2 stride, ... of a run whose other knots hold fields it does not save,
    pause seconds apart.  Every knot comes in the same array, overwritten
    for the next one as a run's array is, so the writer must copy what it
    keeps; it keeps none for the run."""
    shape = items[0][1].shape if items else (1,)
    n_knots = (len(items) - 1) * stride + 1 if items else 0
    u = np.empty(shape)
    with FieldWriter({k * stride: path for k, (path, _) in enumerate(items)},
                     shape) as writer:
        for j in range(n_knots):
            u[...] = items[j // stride][1] if j % stride == 0 else -1.0
            assert writer.knot(j, u) is None
            time.sleep(pause)


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


def _in_child(monkeypatch, child_writes):
    """Route the writer's ``write_field_csvs`` calls in the forked child,
    one per batch of knots, through child_writes(paths, fields, write),
    where write(paths, fields) writes those knots, and return the paths
    the parent writes itself."""
    monkeypatch.setattr(grid_field, "_FORK_MIN_VALUES", 0)
    parent, write, by_parent = os.getpid(), grid_field.write_field_csvs, []

    def routed(paths, fields, *args):
        if os.getpid() == parent:
            by_parent.extend(paths)
            return write(paths, fields, *args)
        return child_writes(paths, fields, lambda ps, us: write(ps, us, *args))

    monkeypatch.setattr(grid_field, "write_field_csvs", routed)
    return by_parent


def _loop_bytes(tmp_path, items):
    one = tmp_path / "one"
    one.mkdir()
    for path, u in items:
        write_field_csv(one / path.name, u)
    return {path.name: (one / path.name).read_bytes() for path, _ in items}


@pytest.mark.parametrize("dim", [1, 2])
def test_ring_reuses_a_slot_only_after_its_knot_is_written(tmp_path, monkeypatch, forks, dim):
    # a child slower than the run, 4 ms a knot in each batch it takes, and
    # four times as many saved knots as slots: the ring fills and the
    # parent writes some knots itself, the child writes more knots than
    # there are slots, so slots are reused, and it finds each slot of a
    # batch unchanged until it has written the whole batch
    overwritten = tmp_path / "overwritten"

    def slow(paths, fields, write):
        before = [u.tobytes() for u in fields]
        time.sleep(0.004 * len(paths))
        write(paths, fields)
        if [u.tobytes() for u in fields] != before:
            overwritten.touch()

    by_parent = _in_child(monkeypatch, slow)
    (tmp_path / "two").mkdir()
    items = _field_items(tmp_path / "two", dim, 4 * grid_field._RING_SLOTS)
    _write_knots(items, pause=0.003)
    assert len(forks) == 1
    assert not overwritten.exists()
    assert 0 < len(by_parent) < len(items) - grid_field._RING_SLOTS
    assert {path.name: path.read_bytes() for path, _ in items} == _loop_bytes(tmp_path, items)


def test_parent_rewrites_from_their_slots_the_knots_a_dead_child_left(tmp_path, monkeypatch,
                                                                     forks):
    # the child writes two knots, one at a time whatever batches it takes,
    # and dies on its third.  It counts a batch only once it is written,
    # so the parent writes that knot and every knot posted after it, and
    # any of the batch the child wrote, from the slots, which were never
    # reused; the array the knots came in holds only the last one
    written = []

    def dies_on_third(paths, fields, write):
        for path, u in zip(paths, fields):
            if len(written) == 2:
                os._exit(3)
            write([path], [u])
            written.append(path)

    by_parent = _in_child(monkeypatch, dies_on_third)
    (tmp_path / "two").mkdir()
    items = _field_items(tmp_path / "two", 1, 4 * grid_field._RING_SLOTS)
    _write_knots(items, pause=0.002)
    assert len(forks) == 1
    assert items[2][0].with_name(items[2][0].name + ".part") in map(Path, by_parent)
    assert {path.name: path.read_bytes() for path, _ in items} == _loop_bytes(tmp_path, items)
    assert sorted(p.name for p in (tmp_path / "two").iterdir()) == sorted(
        path.name for path, _ in items)
