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
import functools
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
    "write_field_csvs",
    "FieldWriter",
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


def _format_float(x):
    # repr gives the shortest decimal that round-trips the double
    return repr(float(x))


# the field CSV kernel.  A value x goes to repr, whose bytes the kernel
# gives by construction, unless 1e-280 <= |x| <= 1e280: then S = |x| 10^k,
# in [1e16, 1e17), is formed as a double-double from a table of 10^k, so
# that S = N + f with N an int64 and f in [0, 1) is known to about 1e-14.
# x's rounding interval is S -+ g in these units, with g half of x's
# spacing times 10^k; the nearest candidate of fewer digits is
# shortest-round-trip when its distance to S is below g.  Every decision
# that the error of S, g or the distance could flip is sent to repr: S
# within _UNSURE of an integer or a half (where rounding ties and exact
# decimals lie), a distance within _UNSURE of g, and a power of two, whose
# interval is half as wide below, unless its candidate is S itself.  Where
# S is an integer and 10^k a double, as for integers and short dyadics,
# nothing is rounded, and S being an integer sends nothing to repr.
_SPLIT = 134217729.0                       # Veltkamp's splitter, 2^27 + 1
_FAST_RANGE = (1e-280, 1e280)              # keeps every product normal
_K_LO, _K_HI = -266, 299                   # the scales k = 16 - e that range needs
_UNSURE = 1e-7
_P16, _P17 = 10 ** 16, 10 ** 17

# one value's bytes in a row of _WIDTH, zero bytes as padding: a sign, a
# lead "0.000" for the exponents -4..-1, digit i at _DIGIT + 2i followed by
# a '.' slot, and 'e', the exponent's sign and three exponent digits
_SIGN, _LEAD, _DIGIT, _EXP, _WIDTH = 0, 1, 6, 40, 45
# pattern (sign, class, length): class e + 4 for the positional exponents
# -4..15, then 20 + 2 (e < 0) + (|e| >= 100) for the scientific ones
_CLASSES, _LENGTHS = 24, 17
_ZERO = 2 * _CLASSES * _LENGTHS            # then -0.0, then repr's rows
_FALLBACK = _ZERO + 2
_E_LO = -330

# values per call of the kernel.  Writing 8 fields of 6145 values took
# 0.43, 0.34, 0.30, 0.28 and 0.27 us a value in calls of 1024 to 16 384
# values, whose temporaries peaked at 0.26, 0.52, 1.0, 2.0 and 4.1 MB
# (2-core Xeon, Python 3.11): the kernel's fixed cost, about 0.15 ms a
# call, is 40 % of a call this size, and a larger call raises the peak
# memory of a run that writes its fields in this process
_CHUNK_VALUES = 1 << 11
# the forked child holds only its ring, so its calls may be larger: a
# 6145-value knot, or a batch of smaller ones, in one call.  On
# `frac_heat_poisson_1d` at h = 1/64 its CPU time fell from 182 to 146 ms
# (medians of 12 interleaved runs, 2-core Xeon, Python 3.11)
_CHILD_CHUNK_VALUES = 1 << 14
# below this many values, repr formats them all for less than the
# kernel's fixed cost
_KERNEL_MIN_VALUES = 128


@functools.cache
def _format_tables():
    """The kernel's constant tables, built at the first field write:
    10^k as the double-double hi + lo with Veltkamp's halves of hi and
    hi/2, per k in _K_LO.._K_HI, from Python ints; the pattern rows, with
    0xff in the digit slots a pattern shows; each exponent's class times
    _LENGTHS; and the four ASCII digits of 0..9999, one uint32 each."""
    hi, lo = [], []
    for k in range(_K_LO, _K_HI + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den                      # int division rounds correctly
        p, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * q - p * den) / (den * q))
    hi = np.array(hi)
    scaled = hi * _SPLIT
    head = scaled - (scaled - hi)
    pow10 = np.stack([hi, np.array(lo), head, hi - head, hi / 2])

    patterns = np.zeros((_FALLBACK + 1, _WIDTH), dtype=np.uint8)
    for neg, cls, n in itertools.product(range(2), range(_CLASSES), range(1, _LENGTHS + 1)):
        row = patterns[(neg * _CLASSES + cls) * _LENGTHS + n - 1]
        row[_SIGN] = ord("-") if neg else 0
        shown = n
        if cls < 4:
            row[_LEAD:_LEAD + 5 - cls] = np.frombuffer(b"0." + b"0" * (3 - cls), np.uint8)
        elif cls < 20:
            row[_DIGIT + 2 * (cls - 4) + 1] = ord(".")
            shown = max(n, cls - 2)
        else:
            negative, three = divmod(cls - 20, 2)
            row[_DIGIT + 1] = ord(".") if n > 1 else 0
            row[_EXP:_EXP + 2] = np.frombuffer(b"e-" if negative else b"e+", np.uint8)
            row[_EXP + 3 - three:_EXP + 5] = 0xff
        row[_DIGIT:_DIGIT + 2 * shown:2] = 0xff
    patterns[_ZERO, _LEAD:_LEAD + 3] = patterns[_ZERO + 1, _LEAD:_LEAD + 3] = np.frombuffer(
        b"0.0", np.uint8)
    patterns[_ZERO + 1, _SIGN] = ord("-")

    e = np.arange(_E_LO, -_E_LO + 1)
    classes = np.where((e >= -4) & (e <= 15), e + 4, 20 + 2 * (e < 0) + (np.abs(e) >= 100))
    quads = (np.indices((10,) * 4, dtype=np.uint8) + 48).reshape(4, -1).T.copy().view(
        np.uint32).ravel()
    return pow10, patterns, classes * _LENGTHS, quads


def _scaled(ax, e, pow10):
    """S = ax 10^(16 - e) as N + f, N an int64 and f in [0, 1), and the
    half-gap g of ax's rounding interval in the units of S."""
    hi, lo, head, tail, half = pow10.take((16 - _K_LO) - e, axis=1)
    xh = ax * _SPLIT
    xh -= xh - ax
    xl = ax - xh
    p = ax * hi
    # the rounding error of p, exactly, plus ax lo
    err = xh * head
    err -= p
    err += xh * tail
    err += xl * head
    err += xl * tail
    err += ax * lo
    s = p + err
    p -= s
    p += err                               # the low part of s
    floor = np.floor(p)
    p -= floor
    N = s.astype(np.int64)
    N += floor.astype(np.int64)
    g = np.spacing(ax)
    g *= half
    return N, p, g


def _nearest(r, step, f, g):
    """For S = N + f with N = r mod step: whether the nearest multiple of
    step to S lies above it, whether it is within g of S, and whether that
    is unsure: within _UNSURE of g, or a tie."""
    down, up = r + f, (step - r) - f
    d = np.minimum(down, up) - g
    return down > up, d < 0, (np.abs(d) <= _UNSURE) | (down == up)


def _shortest(ax, pow10):
    """For ax in _FAST_RANGE: the shortest round-trip digits as a 17-digit
    int64 D (trailing zeros past the n digits), the decimal exponent e of
    the first digit, n, and where a decision was unsure."""
    e = np.floor(np.log10(ax)).astype(np.int64)
    N, f, g = _scaled(ax, e, pow10)
    # log10 may miss the decade at a power of ten
    off = np.flatnonzero((N < _P16) | (N >= _P17))
    if off.size:
        e[off] += np.where(N[off] < _P16, -1, 1)
        N[off], f[off], g[off] = _scaled(ax[off], e[off], pow10)
    # where S is an integer and 10^k = 10^(16 - e) a double, S, g and every
    # distance are exact, so S being an integer leaves nothing unsure; a
    # tie, or a distance within _UNSURE of g, still goes to repr
    exact = (f == 0) & (e >= -6) & (e <= 16)
    twice = f + f
    unsure = (np.abs(twice - np.rint(twice)) < 2 * _UNSURE) & ~exact
    r15 = N - N // 100 * 100
    r16 = r15 - r15 // 10 * 10
    up16, ok16, near16 = _nearest(r16, 10, f, g)
    up15, ok15, near15 = _nearest(r15, 100, f, g)
    unsure |= near16 | near15
    D = np.where(ok15, (N - r15) + 100 * up15,
                 np.where(ok16, (N - r16) + 10 * up16, N + (f > 0.5)))
    n = 17 - ok16.astype(np.int64) - ok15
    # shorter lengths, on the few values whose 15 digits round-trip: one
    # digit first, where short exact values such as 1.0 end, then down from
    # 14 digits while they round-trip
    rows = np.flatnonzero(ok15 & ~unsure)
    for j in (16, *range(3, 16)):
        if not rows.size:
            break
        r = N[rows] - N[rows] // 10 ** j * 10 ** j
        up, ok, near = _nearest(r, 10 ** j, f[rows], g[rows])
        unsure[rows] |= near
        ok &= ~near
        done = rows[ok]
        D[done] = (N[done] - r[ok]) + 10 ** j * up[ok]
        n[done] = 17 - j
        rows = rows[~(ok | near)] if j == 16 else done
    # below a power of two the interval is half as wide: only a candidate
    # that is S itself is certain
    unsure |= ((ax.view(np.int64) & ((1 << 52) - 1)) == 0) & ~(exact & (D == N))
    # a value that rounds up to a power of ten has the one digit 1
    carry = np.flatnonzero(D == _P17)
    D[carry] = _P16
    e[carry] += 1
    return D, e, n, unsure


def _repr_bytes(values):
    """repr of each value, in uint8 rows of 24 padded with zero bytes."""
    return np.array(list(map(repr, values.tolist())), dtype="S24").view(np.uint8).reshape(-1, 24)


def _value_rows(values, out):
    """Write the bytes of repr of each value into its row of ``out``, a
    uint8 matrix of _WIDTH columns, padded with zero bytes, and return the
    indices of the values formatted by repr."""
    values = np.ravel(np.asarray(values, dtype=float))
    if values.size < _KERNEL_MIN_VALUES:
        out[:] = 0
        out[:, :24] = _repr_bytes(values)
        return np.arange(values.size)
    pow10, patterns, classes, quads = _format_tables()
    x, rows = values, out
    # zeros take their pattern and no digit search
    if np.count_nonzero(values) < values.size:
        out[:] = patterns[_ZERO]
        out[np.signbit(values), _SIGN] = ord("-")
        nonzero = np.flatnonzero(values)
        x = values[nonzero]
        rows = np.empty((x.size, _WIDTH), dtype=np.uint8)
    ax = np.abs(x)
    fast = (ax >= _FAST_RANGE[0]) & (ax <= _FAST_RANGE[1])
    D, e, n, unsure = _shortest(np.where(fast, ax, 1.5), pow10)
    slow = np.flatnonzero(unsure | ~fast)
    p = classes[e - _E_LO] + n - 1
    p += np.signbit(x) * (_CLASSES * _LENGTHS)
    p[slow] = _FALLBACK
    patterns.take(p, axis=0, out=rows, mode="clip")
    digits = np.empty((x.size, 5), dtype=np.uint32)
    for i in range(4, 0, -1):
        q = D // 10000
        digits[:, i] = quads[D - q * 10000]
        D = q
    digits[:, 0] = quads[D]
    rows[:, _DIGIT:_EXP:2] &= digits.view(np.uint8)[:, 3:]
    # the exponent's digits, on the few scientific rows
    sci = np.flatnonzero((e < -4) | (e > 15))
    if sci.size:
        rows[sci, _EXP + 2:] &= quads[np.abs(e[sci])].view(np.uint8).reshape(-1, 4)[:, 1:]
    if slow.size:
        rows[slow, :24] = _repr_bytes(x[slow])
    if rows is out:
        return slow
    out[nonzero] = rows
    return nonzero[slow]


def _int_labels(ints, prefix):
    """``prefix + str(b) + ","`` for each int b, in uint8 rows padded with
    zero bytes."""
    labels = np.array([f"{prefix}{b}," for b in ints.tolist()], dtype="S")
    return labels.view(np.uint8).reshape(len(labels), labels.itemsize)


def _csv_rows(labels, values):
    """CSV rows as a uint8 matrix, padded with zero bytes: each label's
    bytes, then its value's.  ``rows.tobytes().translate(None, b"\\0")``
    is their text."""
    rows = np.empty((len(values), labels.shape[1] + _WIDTH), dtype=np.uint8)
    rows[:, :labels.shape[1]] = labels
    _value_rows(values, rows[:, labels.shape[1]:])
    return rows


def _row_labels(shape):
    """The ``beta_1,...,beta_N,`` label of each row of ``write_field_csv``
    for a field of the given shape, newline first, in C order, as the
    uint8 rows ``_csv_rows`` takes: built once per shape by a caller that
    writes many fields of it.  Axis i of length n runs over beta_i = -K..K
    with K = (n - 1)/2."""
    # each axis's labels broadcast along the others; the first opens a row
    axes = [_int_labels(np.arange(-(n // 2), n // 2 + 1), "\n" if i == 0 else "")
            for i, n in enumerate(shape)]
    return np.concatenate(
        [np.broadcast_to(a.reshape((1,) * i + (len(a),) + (1,) * (len(shape) - i - 1) + (-1,)),
                         tuple(shape) + (a.shape[1],)) for i, a in enumerate(axes)],
        axis=-1).reshape(int(np.prod(shape)), -1)


def _segments(start, stop, size):
    """(field j, first row, row count) for the values start..stop of
    fields of size values laid end to end."""
    while start < stop:
        j, row = divmod(start, size)
        n = min(size - row, stop - start)
        yield j, row, n
        start += n


def write_field_csvs(paths, fields, labels=None, chunk=_CHUNK_VALUES):
    """Write each field of ``fields``, all of one shape, to its path, as
    ``write_field_csv`` does.  The values of all of them, laid end to end,
    go to the kernel ``chunk`` at a time."""
    if not paths:
        return
    shape = np.shape(fields[0])
    labels = _row_labels(shape) if labels is None else labels
    header = (",".join(f"beta_{i + 1}" for i in range(len(shape))) + ",value").encode()
    size = len(labels)
    fh = None
    try:
        for start in range(0, size * len(paths), chunk):
            stop = min(start + chunk, size * len(paths))
            parts = list(_segments(start, stop, size))
            rows = _csv_rows(np.concatenate([labels[row:row + n] for _, row, n in parts]),
                             np.concatenate([np.ravel(fields[j])[row:row + n]
                                             for j, row, n in parts]))
            for j, row, n in parts:
                if row == 0:
                    fh = open(paths[j], "wb")
                    fh.write(header)
                fh.write(rows[:n].tobytes().translate(None, b"\0"))
                rows = rows[n:]
                if row + n == size:
                    fh.write(b"\n")
                    fh.close()
    finally:
        if fh is not None:
            fh.close()


def write_field_csv(path, values, labels=None):
    """Serialize a field as ``beta_1,...,beta_N,value`` rows in lexicographic
    index order, each value in the shortest round-trip form of
    ``_format_float``.  ``labels`` are the field's ``_row_labels``, built
    here when not given.

    The bytes are those of ``repr``, by construction, from ``_value_rows``:
    a fixed-precision estimate of each value's 17 significant digits that
    certifies its shortest candidate, or hands the value to ``repr``
    where the certificate is unsure (the comment above ``_SPLIT``; the
    scheme of Loitsch's Grisu3, PLDI 2010).  Each row's label and value
    sit side by side in a uint8 matrix padded with zero bytes, which one
    ``bytes.translate`` drops.  The kernel runs numpy elementwise
    operations only, no BLAS call, so the forked writer may run it.  On a
    ``frac_heat_poisson_1d`` field of 6145 values it takes about 0.2 us a
    value against 0.6 us for ``repr``, with a fixed cost of about 0.15 ms
    a call, so a call of fewer than ``_KERNEL_MIN_VALUES`` values is
    ``repr``'s alone (2-core Xeon, Python 3.11)."""
    write_field_csvs([path], [values], labels)


# fork only when the saved fields hold enough values to repay it.  The
# child lives for the whole run.  In a process of about 90 MB its fork, the
# copy-on-write faults it leaves the parent's later steps and the final
# wait cost several ms where the run is short.  With the kernel, forked at
# every size against one process, two batches of medians of 12 alternating
# rounds at h = 1/64 gave `burgers_riemann_1d` (16 705 saved values) 41.8
# and 47.3 ms against 24.4 and 54.8, `fast_diffusion_1d` (16 705) 47.5 and
# 55.3 against 30.8 and 69.0, and the 41 x 41 plane of `heat_gaussian_2d`
# (10 086) 25.4 and 28.6 against 14.5 and 26.8 (2-core Xeon, Python
# 3.11): no steady winner below the threshold.  Above it, one process
# holds every saved knot to the end, 3.2 MB on `frac_heat_poisson_1d`,
# and the bench's `nonlocal_1d` ran slower unforked in 3 of 4 pairs
_FORK_MIN_VALUES = 1 << 15


# slots of one field each in the forked writer's ring.  Two batches of 14
# alternating rounds over the seven 1-D presets at h = 1/64, run in
# process, summed the medians to 553 and 678 ms with 2 slots, 493 and 657
# with 4, 500 and 637 with 8, 496 and 622 with 16 (2-core Xeon, Python
# 3.11): with 2 the child of `frac_heat_poisson_1d` (65 saved knots of 6145
# values) falls behind and the parent writes more knots itself, and from 4
# on the gaps are within the batches' spread.  Each slot a run fills holds
# one field resident, and the child formats up to a ring's knots in one
# call: 8 give a slow child twice the slack of 4 and bound the ring at
# 17 MB on the 513 x 513 plane
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
    in posting order, every one ready at once, and writes those knots in
    one call, in kernel calls of up to ``_CHILD_CHUNK_VALUES`` values,
    while the parent solves the later steps.  A slot is reused
    only once the child has counted the knot it last held, which it does
    once the whole call has closed its files.  When the ring is full (the
    child is behind, or gone), the parent writes the knot itself from the
    run's array.  So at most ``_RING_SLOTS`` knots are posted and
    unwritten, their records fit in any pipe, and a post never waits.  On
    leaving, the parent closes the pipe, writes the knots left in it
    itself from their slots, and reaps the child; if the child failed,
    the parent writes again every posted knot that the child had not
    counted, from its slot, which was never reused, so an I/O error is
    raised here.  The child makes no BLAS or FFT call, calls
    ``write_field_csvs`` through this module's global, and leaves through
    ``os._exit`` (status 0 on success, 1 on any exception), so it never
    returns to the caller, runs no atexit handler and flushes no stdio
    buffer.  Otherwise the writer holds a copy of each saved knot, by the
    threshold fewer than ``_FORK_MIN_VALUES`` values or a single knot,
    and writes them all in this process on leaving, in one call.

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
        return self

    def _serve(self):
        # the child: formats and writes only, so it never waits on a BLAS
        # thread, which fork does not copy.  It takes every record ready in
        # the pipe, up to a ring's worth, formats those knots in one call,
        # so that the kernel's fixed cost is paid once, and counts them
        status = 1
        try:
            os.close(self._post)
            while records := os.read(self._read, _RECORD.size * _RING_SLOTS):
                knots = list(_RECORD.iter_unpack(records))
                write_field_csvs([_partial(self.paths[j]) for j, _ in knots],
                                 [self._slots[slot] for _, slot in knots], self._labels,
                                 _CHILD_CHUNK_VALUES)
                self._written[0] += len(knots)
            status = 0
        finally:
            os._exit(status)

    @functools.cached_property
    def _labels(self):
        return _row_labels(self.shape)

    def _write(self, knots, fields):
        write_field_csvs([_partial(self.paths[j]) for j in knots], fields, self._labels)

    def knot(self, j, u):
        """Take knot j's field u: a saved knot goes to the child through
        the ring, or is written here when the ring is full; without a
        child it is held until leaving."""
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
            os.write(self._post, _RECORD.pack(j, slot))
            self._posted.append(j)
            return
        write_field_csv(_partial(self.paths[j]), u, self._labels)

    def _join(self, write):
        """Close the queue, take the knots left in it (writing them from
        their slots when ``write`` is set) and reap the child; True when
        the child failed."""
        try:
            os.close(self._post)
            knots = []
            while records := os.read(self._read, _RECORD.size * _RING_SLOTS):
                knots += _RECORD.iter_unpack(records)
            if write:
                self._write([j for j, _ in knots], [self._slots[slot] for _, slot in knots])
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
                self._write(list(self._held), list(self._held.values()))
                if failed:
                    # the child wrote in posting order, and the slots of the
                    # knots from the first it had not counted on were never
                    # reused
                    left = range(int(self._written[0]), len(self._posted))
                    self._write([self._posted[k] for k in left],
                                [self._slots[k % _RING_SLOTS] for k in left])
                for path in self.paths.values():
                    os.replace(_partial(path), path)
                done = True
        finally:
            if not done:
                for path in self.paths.values():
                    with contextlib.suppress(FileNotFoundError):
                        os.unlink(_partial(path))
