"""Benchmark workloads: each is a list of `gpme run` operations whose
configs are JSON overrides of the shipped presets, made from a seed.

The default seed adds no override beyond mesh width and final time, so it
reproduces the presets exactly.  Any other seed scales the data parameters
the closed forms are written in (Gaussian amplitude and spread, Barenblatt
time, Poisson t0) by a factor in [1 - JITTER, 1 + JITTER] and shifts the
Riemann step by at most JITTER.  The closed forms take those same
parameters, so they stay exact under the jitter.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0
JITTER = 0.05
T_END = 0.5


@dataclass(frozen=True)
class Operation:
    """One `gpme run` call and the checks its outputs must pass.

    checks name the checks beyond the ledger and tail bounds every run
    gets: "exact" (final-time L1 error against the closed form at most
    l1_tol), "shock" (the Burgers shock within 2h of shock_position) and
    "symmetric" (square-lattice symmetry, no negative values).  Each L1
    tolerance is about twice the error the scheme makes on that mesh."""

    name: str
    config: dict
    checks: tuple = ()
    l1_tol: float = None
    shock_position: float = None


class _Jitter:
    def __init__(self, seed):
        self.active = seed != DEFAULT_SEED
        self._rng = random.Random(seed)

    def scale(self, value, upper=None):
        """value times a factor in [1 - JITTER, 1 + JITTER], clipped to upper."""
        if not self.active:
            return value
        out = value * (1.0 + JITTER * (2.0 * self._rng.random() - 1.0))
        return out if upper is None else min(out, upper)

    def shift(self, value):
        if not self.active:
            return value
        return value + JITTER * (2.0 * self._rng.random() - 1.0)

    def gaussian(self, amplitude, spread, upper=None):
        return {"amplitude": self.scale(amplitude, upper), "spread": self.scale(spread)}


def _preset(name, jit, h, T, initial):
    problem = {"h": h, "T": T}
    if jit.active:
        problem["initial"] = initial
    return {"preset": name, "problem": problem}


def _mesh_1d(smoke):
    return (1.0 / 8, 0.125) if smoke else (1.0 / 64, T_END)


def local_1d(seed, smoke=False):
    h, T = _mesh_1d(smoke)
    jit = _Jitter(seed)
    return [
        Operation("heat_gaussian_1d",
                  _preset("heat_gaussian_1d", jit, h, T,
                          jit.gaussian(1.0 / math.sqrt(math.pi), 0.25)),
                  checks=("exact",), l1_tol=0.06 if smoke else 2.5e-3),
        Operation("pme_barenblatt_1d",
                  _preset("pme_barenblatt_1d", jit, h, T, {"time": jit.scale(1.0)}),
                  checks=("exact",), l1_tol=6e-3 if smoke else 1.5e-3),
        Operation("fast_diffusion_1d", _preset("fast_diffusion_1d", jit, h, T, {})),
        Operation("stefan_1d",
                  _preset("stefan_1d", jit, h, T, jit.gaussian(1.5, 0.25))),
    ]


def nonlocal_1d(seed, smoke=False):
    h, T = _mesh_1d(smoke)
    jit = _Jitter(seed)
    position = jit.shift(0.0)
    return [
        Operation("frac_heat_poisson_1d",
                  _preset("frac_heat_poisson_1d", jit, h, T, {"t0": jit.scale(0.125)}),
                  checks=("exact",), l1_tol=0.1 if smoke else 0.01),
        # the flux is declared on u in [0, 1]; keep the data inside it
        Operation("cde_burgers_frac_1d",
                  _preset("cde_burgers_frac_1d", jit, h, T,
                          jit.gaussian(1.0, 0.25, upper=1.0))),
        # Riemann data 1 -> 0: the shock moves at speed 1/2
        Operation("burgers_riemann_1d",
                  _preset("burgers_riemann_1d", jit, h, T, {"position": position}),
                  checks=("shock",), shock_position=position + 0.5 * T),
    ]


def _plane(jit, operator, phi, exact, smoke):
    return {
        "problem": {
            "dim": 2, "operator": operator, "phi": phi, "flux": None,
            "initial": dict(jit.gaussian(1.0, 0.25), kind="gaussian"),
            "source": None, "box_half_extent": 4.0,
            "h": 0.5 if smoke else 0.2, "T": T_END,
            "dt": {"policy": "linear", "factor": 0.5}, "exact": exact,
        },
        "diagnostics": {"R_list": [1.0, 2.0, 3.0], "r": 1.0, "save_stride": 1},
    }


def measure_2d(seed, smoke=False):
    jit = _Jitter(seed)
    fractional = {"kind": "fractional", "alpha": 1.0, "scale": 1.0 / math.pi,
                  "truncation": None, "weight_rule": "cell_mass"}
    return [
        Operation("pme_measure_2d",
                  _plane(jit, {"c": 1, "measure": fractional, "support_radius": None},
                         {"kind": "power", "exponent": 2.0}, None, smoke),
                  checks=("symmetric",)),
        # the plane's only closed form: linear heat under the Laplacian
        Operation("heat_gaussian_2d",
                  _plane(jit, {"c": 1, "measure": None, "support_radius": None},
                         {"kind": "linear", "slope": 1.0}, "heat_gaussian", smoke),
                  checks=("symmetric", "exact"), l1_tol=1.0 if smoke else 0.3),
    ]


WORKLOADS = {
    "local_1d": local_1d,
    "nonlocal_1d": nonlocal_1d,
    "measure_2d": measure_2d,
}


def operations(workload, seed, smoke=False):
    return WORKLOADS[workload](seed, smoke)
