"""Uniform lattices, cell data, trajectories, and their norms.

The spatial mesh is the scaled integer lattice ``x_beta = h*beta`` restricted
to a centered box.  A field assigns one value per node and is identified with
the function that is constant on the half-open cell
``x_beta + h*(-1/2, 1/2]^N``.  Values outside the box are taken to be zero
everywhere in this package (zero extension).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError

__all__ = [
    "UniformGrid",
    "TimeGrid",
    "GridFunction",
    "Trajectory",
    "project_cell_average",
    "project_source",
    "eval_spacetime_interpolant",
    "lr_norm_of_values",
    "write_field_csv",
    "write_field_csvs",
    "shifted",
]


def _check_mesh(dim, h):
    if dim < 1:
        raise ConfigurationError("grid dimension must be >= 1", field="problem.dim")
    if not (h > 0.0) or not np.isfinite(h):
        raise ConfigurationError("mesh width h must be positive and finite", field="problem.h")


@dataclass(frozen=True)
class UniformGrid:
    """Centered uniform lattice on a box.

    Parameters
    ----------
    dim : int
        Spatial dimension N >= 1.
    h : float
        Mesh width, h > 0.
    index_bounds : tuple of int
        Per-axis bound K_i; node indices run over -K_i..K_i.

    The cells of the retained nodes tile the effective box
    ``prod_i [-(K_i+1/2)h, (K_i+1/2)h]``; ``half_extents`` records that
    effective half-width per axis.
    """

    dim: int
    h: float
    index_bounds: tuple

    def __post_init__(self):
        _check_mesh(self.dim, self.h)
        if len(self.index_bounds) != self.dim or any(k < 0 for k in self.index_bounds):
            raise ConfigurationError("index bounds must list one K >= 0 per axis", field="grid")

    @classmethod
    def from_box(cls, dim, h, half_extent):
        """Build the largest centered lattice whose cells stay inside the
        requested box; the origin node is always retained."""
        _check_mesh(dim, h)
        if np.ndim(half_extent) == 0:
            half_extent = (float(half_extent),) * dim
        if len(half_extent) != dim:
            raise ConfigurationError("one half-extent per axis required",
                                     field="problem.box_half_extent")
        bounds = []
        for L in half_extent:
            if not (L > 0.0) or not np.isfinite(L):
                raise ConfigurationError("half-extent must be positive and finite",
                                         field="problem.box_half_extent")
            # node hK is kept while its cell midpoint stays within the box:
            # K = floor(L/h + 1/2), floating-point slop absorbed
            bounds.append(int(np.floor(L / h + 0.5 + 1e-12)))
        return cls(dim=dim, h=float(h), index_bounds=tuple(bounds))

    @property
    def shape(self):
        return tuple(2 * k + 1 for k in self.index_bounds)

    @property
    def node_count(self):
        return int(np.prod(self.shape))

    @property
    def half_extents(self):
        """Effective per-axis half-width of the tiled box."""
        return tuple((k + 0.5) * self.h for k in self.index_bounds)

    @property
    def cell_volume(self):
        return self.h ** self.dim

    def axis_coords(self, axis):
        k = self.index_bounds[axis]
        return self.h * np.arange(-k, k + 1, dtype=float)

    def coords(self):
        """All node coordinates, shape ``(*grid.shape, dim)``."""
        axes = [self.axis_coords(i) for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def node_radii(self):
        """Euclidean |x_beta| per node, shape ``grid.shape``."""
        return np.sqrt(np.sum(self.coords() ** 2, axis=-1))

    def cell_of(self, points):
        """Multi-index of the cell containing each point, or None-marker for
        points outside the box.

        points: array (..., dim).  Returns (idx array (..., dim) into the value
        array, inside mask).  The half-open convention puts a point sitting on
        a cell's upper face into that cell.
        """
        points = np.asarray(points, dtype=float)
        if points.shape[-1] != self.dim:
            raise DataError("point dimensionality does not match the grid")
        # beta = ceil(x/h - 1/2): respects the (-h/2, h/2] cell convention
        beta = np.ceil(points / self.h - 0.5 - 1e-12).astype(int)
        inside = np.ones(points.shape[:-1], dtype=bool)
        for i, k in enumerate(self.index_bounds):
            inside &= (beta[..., i] >= -k) & (beta[..., i] <= k)
        idx = beta + np.array(self.index_bounds)
        idx = np.clip(idx, 0, np.array(self.shape) - 1)
        return idx, inside


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time knots 0 = t_0 < ... < t_J = T."""

    knots: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "knots", knots)
        if knots.ndim != 1 or knots.size < 2:
            raise ConfigurationError("time grid needs at least knots 0 and T", field="time")
        if abs(knots[0]) > 0.0:
            raise ConfigurationError("time grid must start at 0", field="time")
        if np.any(np.diff(knots) <= 0.0):
            raise ConfigurationError("time knots must be strictly increasing", field="time")
        knots.flags.writeable = False

    @classmethod
    def uniform(cls, T, dt_target):
        """Uniform grid with J = ceil(T/dt_target) steps hitting T exactly."""
        if not (T > 0.0):
            raise ConfigurationError("final time T must be positive", field="problem.T")
        if not (dt_target > 0.0):
            raise ConfigurationError("time step must be positive", field="problem.dt.factor")
        J = max(1, int(np.ceil(T / dt_target - 1e-12)))
        return cls(np.linspace(0.0, T, J + 1))

    @property
    def final_time(self):
        return float(self.knots[-1])

    @property
    def steps(self):
        return np.diff(self.knots)

    @property
    def n_steps(self):
        return len(self.knots) - 1


@dataclass(frozen=True)
class GridFunction:
    """One value per node; immutable once built."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise DataError(
                f"value array shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "values", vals)
        vals.flags.writeable = False

    def mass(self):
        """h^N * sum of values (signed)."""
        return self.grid.cell_volume * float(np.sum(self.values))


@dataclass(frozen=True)
class Trajectory:
    """Fields U^0..U^J on one grid plus the projected sources G^1..G^J.

    ``sources`` may be None when the forcing is identically zero.
    """

    grid: UniformGrid
    time_grid: TimeGrid
    fields: tuple
    sources: tuple = None

    def __post_init__(self):
        if len(self.fields) != self.time_grid.n_steps + 1:
            raise ConfigurationError("need one field per time knot", field="trajectory")
        if self.sources is not None and len(self.sources) != self.time_grid.n_steps:
            raise ConfigurationError("need one source field per time step", field="trajectory")
        for arr in self.fields:
            if arr.shape != self.grid.shape:
                raise ConfigurationError("field shape does not match grid", field="trajectory")
            arr.flags.writeable = False

    def values_at_time(self, t):
        """Nodal values of the interpolant at time t (linear in t between
        knots, U^0 at t = 0)."""
        knots = self.time_grid.knots
        T = knots[-1]
        if not np.isfinite(t) or t < -1e-12 or t > T + 1e-12:
            raise DataError(f"time {t} outside [0, {T}]")
        t = min(max(float(t), 0.0), float(T))
        j = int(np.searchsorted(knots, t, side="left"))
        if j == 0:
            return self.fields[0]
        theta = (t - knots[j - 1]) / (knots[j] - knots[j - 1])
        return (1.0 - theta) * self.fields[j - 1] + theta * self.fields[j]


def project_cell_average(profile, grid):
    """Project data onto the lattice by exact cell averages.

    ``profile`` is a spatial descriptor (see :mod:`gpme.profiles`).
    """
    vals = profile.cell_averages(grid)
    if not np.all(np.isfinite(vals)):
        raise DataError("projection produced non-finite cell averages")
    return GridFunction(grid, vals)


def project_source(source, grid, time_grid):
    """Per-step space-time averages of the forcing term.

    Returns a list of value arrays, one per step j = 1..J, each the average of
    g over cell x time slab.  A source of None (no forcing) gives None.
    """
    if source is None:
        return None
    arrays = source.project(grid, time_grid)
    for j, arr in enumerate(arrays):
        if not np.all(np.isfinite(arr)):
            raise DataError(f"source projection non-finite at step {j + 1}")
    return arrays


def eval_spacetime_interpolant(traj, points, t):
    """Evaluate the piecewise-constant-in-space, linear-in-time interpolant.

    points: array (..., N).  Points outside the box evaluate to 0.
    """
    vals_t = traj.values_at_time(t)
    idx, inside = traj.grid.cell_of(points)
    flat = vals_t[tuple(np.moveaxis(idx, -1, 0))]
    return np.where(inside, flat, 0.0)


def lr_norm_of_values(values, cell_volume, r):
    """(h^N sum |U|^r)^(1/r) for cell volume h^N; max-norm for r = inf.

    numpy's pairwise summation keeps the reduction well conditioned and
    deterministic for a fixed shape.
    """
    values = np.asarray(values)
    if np.isinf(r):
        return float(np.max(np.abs(values))) if values.size else 0.0
    if r <= 0:
        raise ConfigurationError("norm exponent must be positive", field="r")
    if r == 1:
        return float(cell_volume * np.sum(np.abs(values)))
    return float((cell_volume * np.sum(np.abs(values) ** r)) ** (1.0 / r))


def shifted(values, offset):
    """values translated by a lattice offset with zero fill.

    out[beta] = values[beta + offset] wherever beta + offset stays in the
    index box, 0 elsewhere.
    """
    values = np.asarray(values)
    out = np.zeros_like(values)
    src = []
    dst = []
    for n, k in zip(values.shape, offset):
        if abs(k) >= n:
            return out
        if k >= 0:
            src.append(slice(k, n))
            dst.append(slice(0, n - k))
        else:
            src.append(slice(0, n + k))
            dst.append(slice(-k, n))
    out[tuple(dst)] = values[tuple(src)]
    return out


def _format_float(x):
    # repr gives the shortest decimal that round-trips the double
    return repr(float(x))


def _row_labels(grid):
    """The ``beta_1,...,beta_N,`` label of each row of ``write_field_csv``
    on the grid, newline first, in C order: built once per grid by a
    caller that writes many fields on it."""
    # the first axis's labels open each row; the product of the per-axis
    # labels runs in C order, as the values do
    seps = ["\n"] + [""] * (grid.dim - 1)
    labels = [[f"{sep}{b}," for b in range(-k, k + 1)]
              for sep, k in zip(seps, grid.index_bounds)]
    return list(map("".join, itertools.product(*labels)))


def write_field_csv(path, u, labels=None):
    """Serialize a field as ``beta_1,...,beta_N,value`` rows in lexicographic
    index order, each value in the shortest round-trip form of
    ``_format_float``.  ``labels`` are the grid's ``_row_labels``, built
    here when not given.

    ``tolist`` already gives Python floats, so mapping the builtin ``repr``
    over them calls ``float.__repr__`` on each, the bytes of
    ``_format_float``, without a Python-level call per value.  (One ``repr``
    of the whole list, split at ", ", gives the same bytes no faster and
    raises the peak resident memory of a run by about 0.6 MB.)  That
    ``repr`` is the floor of one process: about 1.1 us per value on a
    2-core Xeon with Python 3.11, as 93 % of the values of a
    ``frac_heat_poisson_1d`` run need 16 or 17 significant digits.
    ``write_field_csvs`` shares many fields between two processes."""
    grid = u.grid
    header = ",".join(f"beta_{i + 1}" for i in range(grid.dim)) + ",value"
    values = u.values.reshape(-1).tolist()
    rows = [None] * (2 * len(values))
    rows[0::2] = _row_labels(grid) if labels is None else labels
    rows[1::2] = map(repr, values)
    text = header + "".join(rows) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


# fork only when the fields hold enough values to repay it.  In a process
# of about 90 MB the fork and the wait cost 7-13 ms inside this call, and
# the copy-on-write faults the fork leaves the parent a few ms more, while
# each value the child takes saves 0.5-0.8 us (2-core Xeon): below about
# 30 000 values a second process loses time
_FORK_MIN_VALUES = 1 << 15


def _write_each(items, labels):
    for path, u in items:
        write_field_csv(path, u, labels)


def write_field_csvs(items, labels=None):
    """``write_field_csv`` for each ``(path, field)`` of ``items``, from two
    processes: one ``fork``ed child writes every other item.

    The child leaves through ``os._exit`` (status 0 on success, 1 on any
    exception), so it never returns to the caller, runs no atexit handler
    and flushes no stdio buffer.  The parent writes the rest, then reaps
    the child before it returns or raises.  If the child failed, the
    parent writes the child's items again itself, so an I/O error is
    raised here, as by the one-process loop.  With fewer than two items,
    fewer than ``_FORK_MIN_VALUES`` values in all, or where there is no
    ``fork``, the one loop runs in this process."""
    items = list(items)
    # the child only formats and writes: it makes no BLAS call, so it never
    # waits on a BLAS thread, which fork does not copy
    values = sum(u.values.size for _, u in items)
    fork = len(items) > 1 and values >= _FORK_MIN_VALUES and hasattr(os, "fork")
    theirs = items[1::2] if fork else []
    pid = os.fork() if theirs else None
    if pid == 0:
        status = 1
        try:
            _write_each(theirs, labels)
            status = 0
        finally:
            os._exit(status)
    status = 0
    try:
        _write_each(items[0::2] if theirs else items, labels)
    finally:
        if pid:
            status = os.waitpid(pid, 0)[1]
    if status:
        _write_each(theirs, labels)
