"""Shipped experiment configurations.

Each preset is a config dict in the JSON schema accepted by
config.load_config, and names only what its experiment chooses:
load_config fills every other key with its default (a spec field's
default, an absent flux, source or exact reference, dim 1, the default
diagnostics and output_dir), so an empty operator block is the Laplacian
(c = 1) and an absent solver block is EpSolveConfig's defaults.  User
files may name a preset via "preset" and override individual keys.  All
presets are one-dimensional desk-scale runs.
"""

from __future__ import annotations

import copy
import math

__all__ = ["PRESETS", "preset_names", "get_preset"]

# unit-mass Gaussian: amplitude (4 pi s)^(-1/2) at spread s = 0.25
_GAUSS_AMP = 1.0 / math.sqrt(math.pi)

PRESETS = {
    # linear diffusion, Gaussian data, closed-form solution.  dt = 16 h^2
    # keeps the time error at the spatial order through refinement studies.
    "heat_gaussian_1d": {
        "problem": {
            "operator": {},
            "phi": {"kind": "linear"},
            "initial": {"kind": "gaussian", "amplitude": _GAUSS_AMP, "spread": 0.25},
            "box_half_extent": 6.0,
            "h": 0.1,
            "T": 0.5,
            "dt": {"policy": "quadratic", "factor": 16.0},
            "exact": "heat_gaussian",
        },
        "diagnostics": {"R_list": [1.5, 3.0, 4.5]},
    },
    # slow diffusion m = 2 started from the unit-mass self-similar profile
    # at time 1; compact support, exact conservation on a wide enough box.
    "pme_barenblatt_1d": {
        "problem": {
            "operator": {},
            "phi": {"kind": "power", "exponent": 2.0},
            "initial": {"kind": "barenblatt", "time": 1.0},
            "box_half_extent": 7.5,
            "h": 0.1,
            "T": 0.5,
            "dt": {"policy": "linear", "factor": 0.5},
            "exact": "barenblatt",
        },
        "diagnostics": {"R_list": [1.875, 3.75, 5.625]},
    },
    # fast diffusion m = 0.5: Hoelder-only nonlinearity, ell = 0.5.  phi'
    # blows up at u = 0; sharp-support data and a tight box keep the
    # small-u region narrow.
    "fast_diffusion_1d": {
        "problem": {
            "operator": {},
            "phi": {"kind": "power", "exponent": 0.5},
            "initial": {"kind": "indicator", "lo": -1.0, "hi": 1.0},
            "box_half_extent": 2.0,
            "h": 0.1,
            "T": 0.5,
            "dt": {"policy": "linear", "factor": 0.5},
        },
        "diagnostics": {"R_list": [0.5, 1.0, 1.5]},
    },
    # enthalpy form of the one-phase Stefan problem: phi flat below the
    # latent heat 0.5, amplitude 1.5 so part of the data is above it.
    "stefan_1d": {
        "problem": {
            "operator": {},
            "phi": {"kind": "stefan", "latent": 0.5},
            "initial": {"kind": "gaussian", "amplitude": 1.5, "spread": 0.25},
            "box_half_extent": 6.0,
            "h": 0.1,
            "T": 0.5,
            "dt": {"policy": "linear", "factor": 0.5},
        },
        "diagnostics": {"R_list": [1.5, 3.0, 4.5]},
    },
    # unit-order fractional diffusion of its own kernel (scale 1/pi makes
    # the semigroup the Cauchy/Poisson one, so t0 -> t0 + t exactly).
    "frac_heat_poisson_1d": {
        "problem": {
            "operator": {"c": 0, "measure": {"kind": "fractional", "alpha": 1.0,
                                             "scale": 1.0 / math.pi}},
            "phi": {"kind": "linear"},
            # sharp kernel in a wide box: the truncation floor of the
            # L1 error scales like (t0 + T) / box, the resolvable signal
            # like the kernel curvature, so convergence stays visible
            "initial": {"kind": "poisson", "t0": 0.125},
            "box_half_extent": 48.0,
            "h": 0.1,
            "T": 0.4,
            "dt": {"policy": "linear", "factor": 0.5},
            "exact": "poisson",
        },
        "diagnostics": {"R_list": [12.0, 24.0, 36.0]},
    },
    # pure convection: phi = 0 shuts the implicit half off, leaving the
    # explicit monotone flux.  Riemann data 1 -> 0, shock speed 1/2.  The
    # step is not integrable, so no tail radii are configured.
    "burgers_riemann_1d": {
        "problem": {
            "operator": {},
            "phi": {"kind": "zero"},
            "flux": {"kind": "burgers", "u_range": [0.0, 1.0]},
            "initial": {"kind": "step", "left": 1.0, "right": 0.0},
            "box_half_extent": 2.0,
            "h": 0.05,
            "T": 0.5,
            "dt": {"policy": "linear", "factor": 0.5},
            "exact": "shock",
        },
    },
    # convection-diffusion: Burgers transport against unit-order fractional
    # diffusion; no closed form, studies compare against the finest level.
    "cde_burgers_frac_1d": {
        "problem": {
            "operator": {"c": 0, "measure": {"kind": "fractional", "alpha": 1.0,
                                             "scale": 1.0 / math.pi}},
            "phi": {"kind": "linear"},
            "flux": {"kind": "burgers", "u_range": [0.0, 1.0]},
            "initial": {"kind": "gaussian", "amplitude": 1.0, "spread": 0.25},
            "box_half_extent": 6.0,
            "h": 0.1,
            "T": 0.3,
            "dt": {"policy": "linear", "factor": 0.5},
        },
        "diagnostics": {"R_list": [1.5, 3.0, 4.5]},
    },
}


def preset_names():
    return sorted(PRESETS)


def get_preset(name):
    if name not in PRESETS:
        from .errors import ConfigurationError
        raise ConfigurationError(f"unknown preset {name!r}; available: "
                                 + ", ".join(preset_names()), field="preset")
    return copy.deepcopy(PRESETS[name])
