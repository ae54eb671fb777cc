"""Uniform lattices, cell data, trajectories, and their norms.

The spatial mesh is the scaled integer lattice ``x_beta = h*beta`` restricted
to a centered box.  A field is a float ndarray of ``grid.shape`` in C order,
one value per node, identified with the function that is constant on the
half-open cell ``x_beta + h*(-1/2, 1/2]^N``; the grid travels beside it only
where geometry is read.  Values outside the box are taken to be zero
everywhere in this package (zero extension).
"""

from __future__ import annotations

import contextlib
import itertools
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError

__all__ = [
    "UniformGrid",
    "TimeGrid",
    "Trajectory",
    "project_cell_average",
    "project_source",
    "SourceSteps",
    "lr_norm_of_values",
    "write_field_csv",
    "FieldWriter",
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
        """Multi-index of the cell containing each point, and whether the
        point lies in the box.

        points: array (..., dim).  Returns (idx array (..., dim) into the value
        array, clipped to the box for points outside it, inside mask).  The
        half-open convention puts a point sitting on a cell's upper face into
        that cell.
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
class Trajectory:
    """Fields U^0..U^J of one run on one grid, read-only, one per knot of
    its time grid, or none when the run streamed its knots to their
    consumers and kept none (``evolution.run``'s ``on_knot``)."""

    grid: UniformGrid
    time_grid: TimeGrid
    fields: tuple

    def __post_init__(self):
        if len(self.fields) not in (0, self.time_grid.n_steps + 1):
            raise ConfigurationError("need one field per time knot, or none",
                                     field="trajectory")
        for arr in self.fields:
            if arr.shape != self.grid.shape:
                raise ConfigurationError("field shape does not match grid", field="trajectory")
            arr.flags.writeable = False

    def values_at_time(self, t):
        """Nodal values of the interpolant at time t (linear in t between
        knots, U^0 at t = 0)."""
        if not self.fields:
            raise DataError("the trajectory kept no fields")
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
    """Project data onto the lattice by exact cell averages: the field of
    ``profile``, a spatial descriptor (see :mod:`gpme.profiles`), on grid.
    """
    vals = np.asarray(profile.cell_averages(grid), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DataError("projection produced non-finite cell averages")
    return vals


class SourceSteps:
    """A source's space-time averages, step j = 1..J at index j - 1: the
    spatial cell ``averages`` times the step's temporal mean in
    ``factors``, formed when a step asks for it, so that a run holds one
    field of its source, not one per step."""

    def __init__(self, averages, factors):
        self.averages, self.factors = averages, factors

    def __len__(self):
        return len(self.factors)

    def __getitem__(self, j):
        return self.averages * self.factors[j]


def project_source(source, grid, time_grid):
    """Per-step space-time averages of the forcing term, as
    ``SourceSteps``: item j - 1 is the average of g over the cell x time
    slab of step j.  A source of None (no forcing) gives None.

    A step whose field is not finite everywhere is a DataError naming the
    step.  Rounding is monotone, so the largest |cell average| times the
    step's factor is the largest |value| of that step's field: one
    product per step decides it."""
    if source is None:
        return None
    steps = SourceSteps(*source.project(grid, time_grid))
    peak = np.max(np.abs(steps.averages))
    for j, factor in enumerate(steps.factors):
        if not np.isfinite(peak * factor):
            raise DataError(f"source projection non-finite at step {j + 1}")
    return steps


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


def _row_labels(shape):
    """The ``beta_1,...,beta_N,`` label of each row of ``write_field_csv``
    for a field of the given shape, newline first, in C order: built once
    per shape by a caller that writes many fields of it.  Axis i of length
    n runs over beta_i = -K..K with K = (n - 1)/2."""
    # the first axis's labels open each row; the product of the per-axis
    # labels runs in C order, as the values do
    seps = ["\n"] + [""] * (len(shape) - 1)
    labels = [[f"{sep}{b}," for b in range(-(n // 2), n // 2 + 1)]
              for sep, n in zip(seps, shape)]
    return list(map("".join, itertools.product(*labels)))


def write_field_csv(path, values, labels=None):
    """Serialize a field as ``beta_1,...,beta_N,value`` rows in lexicographic
    index order, each value in the shortest round-trip form of
    ``_format_float``.  ``labels`` are the field's ``_row_labels``, built
    here when not given.

    ``tolist`` already gives Python floats, so mapping the builtin ``repr``
    over them calls ``float.__repr__`` on each, the bytes of
    ``_format_float``, without a Python-level call per value.  (One ``repr``
    of the whole list, split at ", ", gives the same bytes no faster and
    raises the peak resident memory of a run by about 0.6 MB.)  That
    ``repr`` is the floor of one process: about 1.1 us per value on a
    2-core Xeon with Python 3.11, as 93 % of the values of a
    ``frac_heat_poisson_1d`` run need 16 or 17 significant digits.
    ``FieldWriter`` moves that work off the run's critical path."""
    header = ",".join(f"beta_{i + 1}" for i in range(values.ndim)) + ",value"
    flat = values.reshape(-1).tolist()
    rows = [None] * (2 * len(flat))
    rows[0::2] = _row_labels(values.shape) if labels is None else labels
    rows[1::2] = map(repr, flat)
    text = header + "".join(rows) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


# fork only when the saved fields hold enough values to repay it.  The
# child lives for the whole run.  In a process of about 90 MB its fork, the
# copy-on-write faults it leaves the parent's later steps and the final
# wait cost 5-7 ms where the run is short: forked at every size,
# `burgers_riemann_1d` at h = 1/64 (16 705 saved values) took 37.1 ms
# against 30.2 ms in one process, and the 41 x 41 plane of
# `heat_gaussian_2d` (10 086) 46.6 against 41.7 ms; `fast_diffusion_1d`
# (16 705, 77 ms) broke even (medians of 12, 2-core Xeon, Python 3.11)
_FORK_MIN_VALUES = 1 << 15


# slots of one field each in the forked writer's ring.  Two batches of 14
# alternating rounds over the seven 1-D presets at h = 1/64, run in
# process, summed the medians to 1004 and 840 ms with 2 slots, 838 and 785
# with 4, 820 and 781 with 8, 884 and 761 with 16, 887 and 754 with 64
# (2-core Xeon, Python 3.11): with 2 the child of `frac_heat_poisson_1d`
# (65 saved knots of 6145 values) falls behind and the parent writes more
# knots itself, and from 4 on the gaps are within the batches' spread.
# Each slot a run fills holds one field resident: 8 give a slow child
# twice the slack of 4 and bound the ring at 17 MB on the 513 x 513 plane
_RING_SLOTS = 8


# one record of the writer's pipe: a posted knot's index and its slot
_RECORD = struct.Struct("<II")


def _partial(path):
    """The name a field CSV is written under until its run is done."""
    return os.fspath(path) + ".part"


class FieldWriter:
    """Writes the field CSVs of one run's saved knots, while the run goes
    on where a second process pays, holding each saved knot only until it
    is written.

    ``paths`` maps each saved knot index j to its CSV path, for fields of
    ``shape``.  The writer is a context manager around the run, and
    ``knot`` is the part of ``evolution.run``'s ``on_knot`` hook that
    takes each knot's field; it keeps none for the run.

    With two or more saved knots of ``_FORK_MIN_VALUES`` values or more in
    all, and where there is ``fork``, entering forks one child, which
    shares an anonymous ``mmap`` with the parent: a header that counts the
    knots the child has written, and a ring of ``_RING_SLOTS`` slots of
    one field each.  ``knot`` copies a saved knot into the next slot and
    posts its index and slot to a pipe, from which the child takes them
    in posting order and writes those knots while the parent solves the
    later steps.  A slot is reused only once the child has counted the
    knot it last held, that is, closed its file.  When the ring is full
    (the child is behind, or gone), or the pipe is, whose write end does
    not block, the parent writes the knot itself from the run's array.
    On leaving, the parent closes the pipe, writes the knots left in it
    itself from their slots, and reaps the child; if the child failed,
    the parent writes again every posted knot that the child had not
    counted, from its slot, which was never reused, so an I/O error is
    raised here.  The child makes no BLAS or FFT call, calls
    ``write_field_csv`` through this module's global, and leaves through
    ``os._exit`` (status 0 on success, 1 on any exception), so it never
    returns to the caller, runs no atexit handler and flushes no stdio
    buffer.  Otherwise the writer holds a copy of each saved knot, by the
    threshold fewer than ``_FORK_MIN_VALUES`` values or a single knot,
    and writes them all in this process on leaving.

    Each CSV is written under its ``_partial`` name and renamed to its
    path only once every saved knot is written.  Leaving on an exception
    stops and reaps the child and removes the partial files, so a run
    that fails leaves no field file and those of an earlier run in the
    same place untouched.  (A rename that fails, say onto a directory,
    leaves the fields renamed before it.)"""

    def __init__(self, paths, shape):
        self.paths = dict(paths)
        self.shape = tuple(shape)
        self._held = {}
        self._pid = None
        self._posted = []
        self._labels = None

    def __enter__(self):
        size = int(np.prod(self.shape))
        if not (len(self.paths) > 1 and len(self.paths) * size >= _FORK_MIN_VALUES
                and hasattr(os, "fork")):
            return self
        buffer = mmap.mmap(-1, 8 + _RING_SLOTS * size * 8)
        self._written = np.frombuffer(buffer, dtype=np.int64, count=1)
        self._slots = np.frombuffer(buffer, dtype=float, offset=8).reshape(
            (_RING_SLOTS,) + self.shape)
        self._read, self._post = os.pipe()
        self._pid = os.fork()
        if self._pid == 0:
            self._serve()
        os.set_blocking(self._post, False)
        return self

    def _serve(self):
        # the child: formats and writes only, so it never waits on a BLAS
        # thread, which fork does not copy
        status = 1
        try:
            os.close(self._post)
            labels = _row_labels(self.shape)
            while record := os.read(self._read, _RECORD.size):
                j, slot = _RECORD.unpack(record)
                write_field_csv(_partial(self.paths[j]), self._slots[slot], labels)
                self._written[0] += 1
            status = 0
        finally:
            os._exit(status)

    def _write(self, j, values):
        if self._labels is None:
            self._labels = _row_labels(self.shape)
        write_field_csv(_partial(self.paths[j]), values, self._labels)

    def knot(self, j, u):
        """Take knot j's field u: a saved knot goes to the child through
        the ring, or is written here when the ring or the pipe is full;
        without a child it is held until leaving."""
        if j not in self.paths:
            return
        if not self._pid:
            self._held[j] = np.array(u, dtype=float)
            return
        k = len(self._posted)
        # the slot last held the knot posted _RING_SLOTS before this one
        if self._written[0] > k - _RING_SLOTS:
            slot = k % _RING_SLOTS
            self._slots[slot] = u
            try:
                os.write(self._post, _RECORD.pack(j, slot))
                self._posted.append(j)
                return
            except BlockingIOError:
                pass
        self._write(j, u)

    def _join(self, write):
        """Close the queue, take the knots left in it (writing them from
        their slots when ``write`` is set) and reap the child; True when
        the child failed."""
        try:
            os.close(self._post)
            while record := os.read(self._read, _RECORD.size):
                if write:
                    j, slot = _RECORD.unpack(record)
                    self._write(j, self._slots[slot])
        finally:
            os.close(self._read)
            status = os.waitpid(self._pid, 0)[1]
            self._pid = None
        return status != 0

    def __exit__(self, exc_type, exc, tb):
        done = False
        try:
            failed = self._join(exc_type is None) if self._pid else False
            if exc_type is None:
                for j, values in self._held.items():
                    self._write(j, values)
                if failed:
                    # the child wrote in posting order, and the slots of the
                    # knots from the first it had not counted on were never
                    # reused
                    for k in range(int(self._written[0]), len(self._posted)):
                        self._write(self._posted[k], self._slots[k % _RING_SLOTS])
                for path in self.paths.values():
                    os.replace(_partial(path), path)
                done = True
        finally:
            if not done:
                for path in self.paths.values():
                    with contextlib.suppress(FileNotFoundError):
                        os.unlink(_partial(path))
