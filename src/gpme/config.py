"""Strict JSON configuration: schema validation with dotted field paths,
preset merging, and builders turning a validated config into the runtime
objects (grid, time grid, problem, solver settings, exact reference).

The checks are split in two, and each is made once.  load_config checks
the schema: unknown keys, JSON types (every list element included),
required presence, the shapes that depend on ``dim``, defaults, and the
values that exist only here (``dt.policy``, ``exact``, the custom-density
``form``, ``diagnostics``, ``output_dir``, ``preset``).  Every other value
is checked by the constructor of the spec that holds it (MeasureSpec,
OperatorSpec, PhiSpec, FluxSpec, the profiles, UniformGrid, TimeGrid,
EpSolveConfig) when build_plan builds it, and its ConfigurationError names
the dotted config path of that value.  The two values that need the grid
or the time steps (support radius, dt factor) are checked by build_plan
through the same function the run calls later; the tail radii, which only
``gpme run`` reads, are checked by that command before it computes.

Unknown keys are errors: a config that parses is a complete provenance
record of the run.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .presets import get_preset

__all__ = [
    "load_config",
    "load_stencil_config",
    "merge_config",
    "RunPlan",
    "build_plan",
    "build_operator",
    "dt_for",
]


def _require_dict(value, path):
    if not isinstance(value, dict):
        raise ConfigurationError(f"expected an object at {path}", field=path)
    return value


def _check_keys(block, allowed, path):
    for key in block:
        if key not in allowed:
            raise ConfigurationError(f"unknown key {path}.{key}", field=f"{path}.{key}")


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _get_number(block, key, path, required=False, default=None, positive=False,
                integer=False):
    if key not in block or block[key] is None:
        if required:
            raise ConfigurationError(f"missing {path}.{key}", field=f"{path}.{key}")
        return default
    v = block[key]
    if not _is_number(v):
        raise ConfigurationError(f"{path}.{key} must be a number", field=f"{path}.{key}")
    if integer and not float(v).is_integer():
        raise ConfigurationError(f"{path}.{key} must be an integer", field=f"{path}.{key}")
    if positive and not (v > 0):
        raise ConfigurationError(f"{path}.{key} must be positive", field=f"{path}.{key}")
    return int(v) if integer else float(v)


def _number_list(v, field, length=None, positive=False):
    """v as a list of floats, rejected at field unless it is a list (of the
    given length) whose every entry is a number (positive if asked)."""
    if not (isinstance(v, list) and (length is None or len(v) == length)
            and all(_is_number(x) and (x > 0 or not positive) for x in v)):
        size = "" if length is None else f"{length} "
        what = "positive numbers" if positive else "numbers"
        raise ConfigurationError(f"{field} must be a list of {size}{what}", field=field)
    return [float(x) for x in v]


def _optional_number_list(block, key, path, length=None):
    v = block.get(key)
    return None if v is None else _number_list(v, f"{path}.{key}", length)


def _validate_measure(m, path):
    if m is None:
        return None
    _require_dict(m, path)
    _check_keys(m, {"kind", "alpha", "beta", "scale", "truncation", "weight_rule",
                    "tail_order", "finite_first_moment", "form", "exponent",
                    "location"}, path)
    kind = m.get("kind")
    out = {"kind": kind}
    out["alpha"] = _get_number(m, "alpha", path)
    out["beta"] = _get_number(m, "beta", path)
    out["scale"] = _get_number(m, "scale", path, default=1.0)
    out["truncation"] = _get_number(m, "truncation", path)
    out["tail_order"] = _get_number(m, "tail_order", path)
    ffm = m.get("finite_first_moment")
    if ffm is not None and not isinstance(ffm, bool):
        raise ConfigurationError(f"{path}.finite_first_moment must be a boolean",
                                 field=f"{path}.finite_first_moment")
    out["finite_first_moment"] = ffm
    out["weight_rule"] = m.get("weight_rule", "cell_mass")
    if kind == "custom":
        # the density of a custom measure is named by a closed form that
        # exists only here; MeasureSpec receives the built callable
        form = m.get("form")
        if form not in ("inverse_power", "pole"):
            raise ConfigurationError(f"{path}.form must be inverse_power or pole for "
                                     "custom measures", field=f"{path}.form")
        out["form"] = form
        out["exponent"] = _get_number(m, "exponent", path, required=form == "inverse_power",
                                      positive=True)
        out["location"] = _get_number(m, "location", path, required=form == "pole",
                                      positive=True)
    return out


def _validate_phi(p, path):
    if p is None:
        raise ConfigurationError(f"missing {path}", field=path)
    _require_dict(p, path)
    _check_keys(p, {"kind", "exponent", "latent", "slope", "table_u", "table_phi"}, path)
    return {
        "kind": p.get("kind"),
        "exponent": _get_number(p, "exponent", path),
        "latent": _get_number(p, "latent", path),
        "slope": _get_number(p, "slope", path, default=1.0),
        "table_u": _optional_number_list(p, "table_u", path),
        "table_phi": _optional_number_list(p, "table_phi", path),
    }


def _validate_flux(f, path, dim):
    if f is None:
        return None
    _require_dict(f, path)
    _check_keys(f, {"kind", "u_range", "numerical", "velocity", "table_u", "table_f"}, path)
    return {
        "kind": f.get("kind"),
        "u_range": _number_list(f.get("u_range"), f"{path}.u_range", length=2),
        "numerical": f.get("numerical", "engquist_osher"),
        "velocity": _optional_number_list(f, "velocity", path, length=dim),
        "table_u": _optional_number_list(f, "table_u", path),
        "table_f": _optional_number_list(f, "table_f", path),
    }


_PROFILE_KEYS = {
    "gaussian": {"amplitude", "spread", "center"},
    "barenblatt": {"coeff", "time"},
    "poisson": {"t0"},
    "step": {"left", "right", "position"},
    "indicator": {"lo", "hi"},
    "constant": {"value"},
}


def _validate_profile(b, path, dim):
    if b is None:
        raise ConfigurationError(f"missing {path}", field=path)
    _require_dict(b, path)
    kind = b.get("kind")
    if not isinstance(kind, str) or kind not in _PROFILE_KEYS:
        raise ConfigurationError(
            f"{path}.kind must be one of {sorted(_PROFILE_KEYS)}", field=f"{path}.kind")
    _check_keys(b, _PROFILE_KEYS[kind] | {"kind"}, path)
    out = {"kind": kind}
    if kind == "gaussian":
        out["amplitude"] = _get_number(b, "amplitude", path, required=True)
        out["spread"] = _get_number(b, "spread", path, required=True)
        out["center"] = _optional_number_list(b, "center", path, length=dim) or [0.0] * dim
    elif kind == "barenblatt":
        out["coeff"] = _get_number(b, "coeff", path)
        out["time"] = _get_number(b, "time", path, required=True)
    elif kind == "poisson":
        out["t0"] = _get_number(b, "t0", path, required=True)
    elif kind == "step":
        out["left"] = _get_number(b, "left", path, required=True)
        out["right"] = _get_number(b, "right", path, required=True)
        out["position"] = _get_number(b, "position", path, default=0.0)
    elif kind == "indicator":
        out["lo"] = _get_number(b, "lo", path, required=True)
        out["hi"] = _get_number(b, "hi", path, required=True)
    else:
        out["value"] = _get_number(b, "value", path, required=True)
    # dim < 1 is left to the grid, which names problem.dim
    if kind in ("barenblatt", "poisson", "step", "indicator") and dim > 1:
        raise ConfigurationError(f"{path}.kind {kind!r} is one-dimensional only",
                                 field=f"{path}.kind")
    return out


def _validate_source(s, path, dim):
    if s is None:
        return None
    _require_dict(s, path)
    _check_keys(s, {"spatial", "temporal"}, path)
    out = {"spatial": _validate_profile(s.get("spatial"), f"{path}.spatial", dim)}
    t = s.get("temporal")
    if t is None:
        out["temporal"] = {"kind": "constant", "value": 1.0}
        return out
    _require_dict(t, f"{path}.temporal")
    _check_keys(t, {"kind", "value", "slope"}, f"{path}.temporal")
    tk = t.get("kind")
    if tk not in ("constant", "linear"):
        raise ConfigurationError(f"{path}.temporal.kind must be constant or linear",
                                 field=f"{path}.temporal.kind")
    out["temporal"] = {"kind": tk,
                       "value": _get_number(t, "value", f"{path}.temporal", default=1.0),
                       "slope": _get_number(t, "slope", f"{path}.temporal", default=1.0)}
    return out


# the reference each exact solution needs as initial data
_EXACT_DATA = {"heat_gaussian": "gaussian", "barenblatt": "barenblatt",
               "poisson": "poisson", "shock": "step"}

_PROBLEM_KEYS = {"dim", "operator", "phi", "flux", "initial", "source",
                 "box_half_extent", "h", "T", "dt", "exact"}


def _validate_operator(op):
    path = "problem.operator"
    if op is None:
        raise ConfigurationError(f"missing {path}", field=path)
    _require_dict(op, path)
    _check_keys(op, {"c", "measure", "support_radius"}, path)
    return {
        "c": _get_number(op, "c", path, default=1, integer=True),
        "measure": _validate_measure(op.get("measure"), f"{path}.measure"),
        "support_radius": _get_number(op, "support_radius", path),
    }


def _validate_problem(p):
    path = "problem"
    if p is None:
        raise ConfigurationError("missing problem block", field=path)
    _require_dict(p, path)
    _check_keys(p, _PROBLEM_KEYS, path)
    out = {}
    out["dim"] = _get_number(p, "dim", path, default=1, integer=True)
    out["operator"] = _validate_operator(p.get("operator"))
    if "phi" not in p:
        raise ConfigurationError("missing problem.phi", field="problem.phi")
    out["phi"] = _validate_phi(p.get("phi"), "problem.phi")
    out["flux"] = _validate_flux(p.get("flux"), "problem.flux", out["dim"])
    out["initial"] = _validate_profile(p.get("initial"), "problem.initial", out["dim"])
    out["source"] = _validate_source(p.get("source"), "problem.source", out["dim"])
    out["box_half_extent"] = _get_number(p, "box_half_extent", path, required=True)
    out["h"] = _get_number(p, "h", path, required=True)
    out["T"] = _get_number(p, "T", path, required=True)
    dt = p.get("dt")
    if dt is None:
        raise ConfigurationError("missing problem.dt", field="problem.dt")
    _require_dict(dt, "problem.dt")
    _check_keys(dt, {"policy", "factor"}, "problem.dt")
    pol = dt.get("policy")
    if pol not in ("linear", "quadratic"):
        raise ConfigurationError("problem.dt.policy must be linear or quadratic",
                                 field="problem.dt.policy")
    out["dt"] = {"policy": pol,
                 "factor": _get_number(dt, "factor", "problem.dt", required=True)}
    exact = p.get("exact")
    if exact not in (None, *_EXACT_DATA):
        raise ConfigurationError(f"problem.exact must be one of {list(_EXACT_DATA)}",
                                 field="problem.exact")
    out["exact"] = exact
    return out


def _validate_solver(s):
    from .elliptic_solver import EpSolveConfig
    path = "solver"
    if s is None:
        s = {}
    _require_dict(s, path)
    _check_keys(s, {"residual_tol", "scalar_tol", "max_sweeps", "max_scalar_iter"}, path)
    # an omitted value takes EpSolveConfig's default, the one home of them
    return {
        "residual_tol": _get_number(s, "residual_tol", path,
                                    default=EpSolveConfig.residual_tol),
        "scalar_tol": _get_number(s, "scalar_tol", path, default=EpSolveConfig.scalar_tol),
        "max_sweeps": _get_number(s, "max_sweeps", path, default=EpSolveConfig.max_sweeps,
                                  integer=True),
        "max_scalar_iter": _get_number(s, "max_scalar_iter", path,
                                       default=EpSolveConfig.max_scalar_iter, integer=True),
    }


def _validate_diagnostics(d):
    path = "diagnostics"
    if d is None:
        d = {}
    _require_dict(d, path)
    _check_keys(d, {"R_list", "r", "save_stride"}, path)
    rl = _number_list(d.get("R_list", []), "diagnostics.R_list", positive=True)
    r = _get_number(d, "r", path, default=1.0)
    if not (r >= 1.0):
        raise ConfigurationError("diagnostics.r must be >= 1", field="diagnostics.r")
    return {
        "R_list": rl,
        "r": r,
        "save_stride": _get_number(d, "save_stride", path, default=1, integer=True,
                                   positive=True),
    }


def merge_config(base, override):
    """Deep merge: override wins; dicts merge recursively, everything else
    replaces."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = merge_config(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _load_raw(source):
    """Read and preset-merge a config source into a plain dict.

    source is a dict, a path to a JSON file, or a bare preset name."""
    if isinstance(source, dict):
        raw = copy.deepcopy(source)
    elif str(source).lstrip().startswith("{"):
        try:
            raw = json.loads(str(source))
        except json.JSONDecodeError as e:
            raise ConfigurationError(f"config is not valid JSON: {e}", field="config")
    else:
        p = Path(str(source))
        if p.suffix == ".json" or p.exists():
            try:
                text = p.read_text()
            except OSError as e:
                raise ConfigurationError(f"cannot read config file {source}: {e}",
                                         field="config")
            try:
                raw = json.loads(text)
            except json.JSONDecodeError as e:
                raise ConfigurationError(f"config is not valid JSON: {e}", field="config")
        else:
            raw = {"preset": str(source)}
    _require_dict(raw, "config")
    _check_keys(raw, {"preset", "problem", "solver", "diagnostics", "output_dir"}, "config")
    preset = raw.get("preset")
    if preset is not None:
        merged = merge_config(get_preset(preset), {k: v for k, v in raw.items()
                                                   if k != "preset"})
        merged["preset"] = preset
        return merged
    raw.pop("preset", None)
    return raw


def load_config(source):
    """Parse, preset-merge, and validate a config; returns the normalized
    config dict with defaults filled in."""
    raw = _load_raw(source)
    out = {
        "problem": _validate_problem(raw.get("problem")),
        "solver": _validate_solver(raw.get("solver")),
        "diagnostics": _validate_diagnostics(raw.get("diagnostics")),
        "output_dir": raw.get("output_dir"),
    }
    if "preset" in raw:
        out["preset"] = raw["preset"]
    od = out["output_dir"]
    if od is not None and not isinstance(od, str):
        raise ConfigurationError("output_dir must be a string", field="output_dir")
    return out


def load_stencil_config(source):
    """Like load_config but only the operator geometry is required:
    problem.operator, problem.h, problem.box_half_extent, problem.dim.
    Full run configs (presets included) pass through unchanged."""
    raw = _load_raw(source)
    p = raw.get("problem")
    if p is None:
        raise ConfigurationError("missing problem block", field="problem")
    _require_dict(p, "problem")
    _check_keys(p, _PROBLEM_KEYS, "problem")
    return {
        "problem": {
            "dim": _get_number(p, "dim", "problem", default=1, integer=True),
            "operator": _validate_operator(p.get("operator")),
            "h": _get_number(p, "h", "problem", required=True),
            "box_half_extent": _get_number(p, "box_half_extent", "problem",
                                           required=True),
        },
        "diagnostics": _validate_diagnostics(raw.get("diagnostics")),
    }


def dt_for(cfg_problem, h):
    """Time-step size at mesh width h under the configured policy."""
    fac = cfg_problem["dt"]["factor"]
    if cfg_problem["dt"]["policy"] == "quadratic":
        return fac * h * h
    return fac * h


@dataclass(frozen=True)
class RunPlan:
    """Everything cmd_run needs, built once from a validated config."""

    config: dict
    problem: object
    grid: object
    time_grid: object
    solver: object
    diagnostics: dict
    exact: object


def build_operator(ocfg):
    """The OperatorSpec of a validated problem.operator block."""
    from .levy_operators import MeasureSpec, OperatorSpec
    mcfg = ocfg["measure"]
    measure = None
    if mcfg is not None:
        density = None
        if mcfg.get("form") == "inverse_power":
            q = mcfg["exponent"]
            density = lambda r: np.power(r, -q)
        elif mcfg.get("form") == "pole":
            loc = mcfg["location"]
            density = lambda r: 1.0 / np.abs(r - loc)
        measure = MeasureSpec(kind=mcfg["kind"], alpha=mcfg["alpha"], beta=mcfg["beta"],
                              density=density, scale=mcfg["scale"],
                              truncation=mcfg["truncation"],
                              tail_order=mcfg["tail_order"],
                              finite_first_moment=mcfg["finite_first_moment"],
                              weight_rule=mcfg["weight_rule"])
    return OperatorSpec(c=ocfg["c"], measure=measure,
                        support_radius=ocfg["support_radius"])


def _build_profile(bcfg, dim, path):
    """The profile of a validated data block.  Profiles appear at more than
    one config location, so their fields are relative and path prefixes
    them here."""
    from . import profiles as pr
    kind = bcfg["kind"]
    try:
        if kind == "gaussian":
            return pr.GaussianProfile(bcfg["amplitude"], bcfg["spread"],
                                      tuple(bcfg["center"]), dim)
        if kind == "barenblatt":
            coeff = bcfg["coeff"]
            if coeff is None:
                coeff = pr.BarenblattProfile.coeff_for_unit_mass()
            return pr.BarenblattProfile(coeff, bcfg["time"])
        if kind == "poisson":
            return pr.PoissonKernelProfile(bcfg["t0"])
        if kind == "step":
            return pr.StepProfile(bcfg["left"], bcfg["right"], bcfg["position"])
        if kind == "indicator":
            return pr.IndicatorProfile(bcfg["lo"], bcfg["hi"])
        return pr.ConstantProfile(bcfg["value"], dim)
    except ConfigurationError as e:
        field = f"{path}.{e.field}" if e.field else path
        raise ConfigurationError(str(e), field=field) from None


def _build_source(scfg, dim):
    from . import profiles as pr
    if scfg is None:
        return None
    spatial = _build_profile(scfg["spatial"], dim, "problem.source.spatial")
    t = scfg["temporal"]
    if t["kind"] == "constant":
        temporal = pr.ConstantInTime(t["value"])
    else:
        temporal = pr.LinearInTime(t["slope"])
    return pr.SeparableSource(spatial, temporal)


def _build_exact(name, initial, init_kind, dim):
    """The closed-form reference named by problem.exact, started from the
    built initial profile."""
    from . import profiles as pr
    if name is None:
        return None
    if init_kind != _EXACT_DATA[name]:
        raise ConfigurationError(f"{name} reference needs {_EXACT_DATA[name]} data",
                                 field="problem.exact")
    if name == "heat_gaussian":
        return pr.HeatGaussianExact(initial.amplitude, initial.spread, initial.center, dim)
    if name == "barenblatt":
        return pr.BarenblattExact(initial.coeff, initial.t)
    if name == "poisson":
        return pr.PoissonExact(initial.t0)
    return pr.ShockExact(initial.left, initial.right, initial.position)


def _tuple(values):
    return None if values is None else tuple(values)


def build_plan(cfg, h=None):
    """Materialize a validated config; h overrides the configured mesh
    width (refinement studies reuse one config across levels).  Every
    value check not made by load_config is made here, by the spec
    constructors and the checks that need the grid or the time steps."""
    from .elliptic_solver import EpSolveConfig, PhiSpec
    from .evolution import FluxSpec, ProblemSpec, check_convective_step
    from .grid_field import TimeGrid, UniformGrid

    p = cfg["problem"]
    dim = p["dim"]
    operator = build_operator(p["operator"])
    phi_cfg = p["phi"]
    phi = PhiSpec(kind=phi_cfg["kind"], exponent=phi_cfg["exponent"],
                  latent=phi_cfg["latent"], slope=phi_cfg["slope"],
                  table_u=_tuple(phi_cfg["table_u"]),
                  table_phi=_tuple(phi_cfg["table_phi"]))
    flux_cfg = p["flux"]
    if flux_cfg is None:
        flux = None
    else:
        flux = FluxSpec(kind=flux_cfg["kind"], u_range=tuple(flux_cfg["u_range"]),
                        numerical=flux_cfg["numerical"],
                        velocity=_tuple(flux_cfg["velocity"]),
                        table_u=_tuple(flux_cfg["table_u"]),
                        table_f=_tuple(flux_cfg["table_f"]))
    initial = _build_profile(p["initial"], dim, "problem.initial")
    problem = ProblemSpec(operator=operator, phi=phi, initial=initial,
                          source=_build_source(p["source"], dim), flux=flux)
    hh = float(h) if h is not None else p["h"]
    grid = UniformGrid.from_box(dim, hh, p["box_half_extent"])
    time_grid = TimeGrid.uniform(p["T"], dt_for(p, hh))
    operator.check_grid(grid)
    if flux is not None:
        check_convective_step(flux, float(np.max(time_grid.steps)), hh, dim)
    return RunPlan(config=cfg, problem=problem, grid=grid, time_grid=time_grid,
                   solver=EpSolveConfig(**cfg["solver"]), diagnostics=cfg["diagnostics"],
                   exact=_build_exact(p["exact"], initial, p["initial"]["kind"], dim))
