"""References for the box's zero extension (u = 0 outside the box),
written from a stencil's offsets node by node, independently of the
``shifts`` of ``elliptic_solver._Resolvent`` that the package reads."""

import numpy as np
from scipy import sparse


def shifted(values, offset):
    """values translated by a lattice offset with zero fill: out[beta] =
    values[beta + offset] wherever beta + offset is a node, 0 elsewhere."""
    values = np.asarray(values)
    nodes = np.indices(values.shape).reshape(values.ndim, -1).T
    target = nodes + np.asarray(offset, dtype=int)
    inside = np.all((target >= 0) & (target < values.shape), axis=1)
    out = np.zeros(values.size, dtype=values.dtype)
    out[inside] = values[tuple(target[inside].T)]
    return out.reshape(values.shape)


def neighbor_matrix(stencil, shape):
    """A, the stencil's neighbor sum on a box of the given shape, as a CSR
    matrix over the C-order flattened nodes: row beta holds w_gamma in
    column beta + gamma wherever that is a node, so a jump leaving the
    box has no column.  The COO entries go in the stencil's own offset
    order, node by node."""
    size = int(np.prod(shape))
    nodes = np.indices(shape).reshape(len(shape), -1).T
    # empty first entries: with no offset landing in the box, the zero matrix
    rows, cols, vals = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [np.zeros(0)]
    for off, w in zip(stencil.offsets, stencil.weights):
        target = nodes + off
        inside = np.all((target >= 0) & (target < shape), axis=1)
        rows.append(np.flatnonzero(inside))
        cols.append(np.ravel_multi_index(tuple(target[inside].T), shape))
        vals.append(np.full(rows[-1].size, w))
    return sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(size, size))
