"""Strict JSON configuration: schema validation with dotted field paths,
preset merging, and builders turning a validated config into the runtime
objects (grid, time grid, problem, solver settings, exact reference).

The phi, flux, measure, operator, solver and data blocks are not listed
here: ``_spec_block`` reads each from its spec dataclass (PhiSpec,
FluxSpec, MeasureSpec, OperatorSpec, EpSolveConfig; for ``initial`` and
``source.spatial`` the profile class that ``profiles.PROFILES`` names by
the block's ``kind``, for ``source.temporal`` TimeFactor).  The keys are
the fields, a value's JSON type follows its field's annotation, an absent
key takes the field's default and a field without one is required;
build_plan builds each spec as ``Spec(**block)``.  A measure's ``density``
callable is no key: a custom measure names it by ``form`` and ``exponent``
or ``location``, the keys this module adds.  A profile's ``dim`` is no key
either: it is problem.dim, and a profile class without that field is
one-dimensional.

The checks are split in two, and each is made once.  load_config checks
the schema: unknown keys, JSON types (every list element included, and
every number finite), required presence, the one-dimensional data kinds,
defaults, and the values that exist only here (``dt.policy``, ``exact``,
the custom-density ``form``, a data block's ``kind``, ``diagnostics``,
``output_dir``, ``preset``).  Every other value is checked by the
constructor of the spec that holds it (MeasureSpec, OperatorSpec, PhiSpec,
FluxSpec, the profiles, TimeFactor, UniformGrid, TimeGrid, EpSolveConfig)
when build_plan builds it, and its ConfigurationError names the dotted
config path of that value.
The values that need the grid or the time steps (support radius, velocity
length, dt factor) are checked by build_plan through the same function
the run calls later; a flux's consistency and monotonicity hold by its
construction (FluxSpec) and are not sampled; the tail radii, which only
``gpme run`` reads, are checked by that command before it computes.

Unknown keys are errors: a config that parses is a complete provenance
record of the run.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
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
    """A JSON number that a double holds finitely: json also parses NaN,
    Infinity, -Infinity and integers too long for a double."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _get_number(block, key, path, required=False, default=None, positive=False,
                integer=False):
    if key not in block or block[key] is None:
        if required:
            raise ConfigurationError(f"missing {path}.{key}", field=f"{path}.{key}")
        return default
    return _number(block[key], f"{path}.{key}", positive, integer)


def _number(v, field, positive=False, integer=False):
    if not _is_number(v):
        raise ConfigurationError(f"{field} must be a number", field=field)
    if integer and not float(v).is_integer():
        raise ConfigurationError(f"{field} must be an integer", field=field)
    if positive and not (v > 0):
        raise ConfigurationError(f"{field} must be positive", field=field)
    return int(v) if integer else float(v)


def _number_list(v, field, positive=False):
    """v as a list of floats, rejected at field unless it is a list whose
    every entry is a number (positive if asked)."""
    if not (isinstance(v, list)
            and all(_is_number(x) and (x > 0 or not positive) for x in v)):
        what = "positive numbers" if positive else "numbers"
        raise ConfigurationError(f"{field} must be a list of {what}", field=field)
    return [float(x) for x in v]


# the JSON check of a spec field's value, by the field's annotation
_FIELD_CHECKS = {
    "float": _number,
    "int": lambda v, field: _number(v, field, integer=True),
    "tuple": _number_list,
}


def _spec_block(block, spec, path, skip=(), extra=()):
    """The block at path of the spec dataclass ``spec``, normalized: its
    keys are the spec's fields but those in skip, plus the extra keys the
    caller reads itself.  Each value is checked by its field's annotation
    (``_FIELD_CHECKS``; other annotations pass the value to the spec), an
    absent or null key takes the field's default, and a field without
    one is required."""
    _require_dict(block, path)
    fields = [f for f in dataclasses.fields(spec) if f.name not in skip]
    _check_keys(block, {f.name for f in fields} | set(extra), path)
    out = {}
    for f in fields:
        field = f"{path}.{f.name}"
        if block.get(f.name) is None:
            if f.default is dataclasses.MISSING:
                raise ConfigurationError(f"missing {field}", field=field)
            out[f.name] = f.default
            continue
        check = _FIELD_CHECKS.get(getattr(f.type, "__name__", f.type))
        out[f.name] = block[f.name] if check is None else check(block[f.name], field)
    return out


# the closed forms that name a custom measure's density
_CUSTOM_KEYS = ("form", "exponent", "location")


def _validate_measure(m, path):
    from .levy_operators import MeasureSpec
    if m is None:
        return None
    out = _spec_block(m, MeasureSpec, path, skip=("density",), extra=_CUSTOM_KEYS)
    if out["kind"] == "custom":
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
    from .elliptic_solver import PhiSpec
    return _spec_block(p, PhiSpec, path)


def _validate_flux(f, path):
    from .evolution import FluxSpec
    return None if f is None else _spec_block(f, FluxSpec, path)


def _has_dim(spec):
    """Whether a profile class takes the problem's dimension; one without a
    dim field is one-dimensional."""
    return "dim" in {f.name for f in dataclasses.fields(spec)}


def _validate_profile(b, path, dim):
    from .profiles import PROFILES
    if b is None:
        raise ConfigurationError(f"missing {path}", field=path)
    _require_dict(b, path)
    kind = b.get("kind")
    if not isinstance(kind, str) or kind not in PROFILES:
        raise ConfigurationError(
            f"{path}.kind must be one of {sorted(PROFILES)}", field=f"{path}.kind")
    out = {"kind": kind, **_spec_block(b, PROFILES[kind], path, skip=("dim",),
                                       extra=("kind",))}
    # an absent center is the origin, written out in problem.dim's length
    if kind == "gaussian" and out["center"] is None:
        out["center"] = [0.0] * dim
    # dim < 1 is left to the grid, which names problem.dim
    if dim > 1 and not _has_dim(PROFILES[kind]):
        raise ConfigurationError(f"{path}.kind {kind!r} is one-dimensional only",
                                 field=f"{path}.kind")
    return out


def _validate_source(s, path, dim):
    from .profiles import TimeFactor
    if s is None:
        return None
    _require_dict(s, path)
    _check_keys(s, {"spatial", "temporal"}, path)
    # no temporal block is a constant factor, every field at its default
    t = s.get("temporal")
    return {"spatial": _validate_profile(s.get("spatial"), f"{path}.spatial", dim),
            "temporal": _spec_block({"kind": "constant"} if t is None else t, TimeFactor,
                                    f"{path}.temporal")}


_PROBLEM_KEYS = {"dim", "operator", "phi", "flux", "initial", "source",
                 "box_half_extent", "h", "T", "dt", "exact"}


def _validate_operator(op):
    from .levy_operators import OperatorSpec
    path = "problem.operator"
    if op is None:
        raise ConfigurationError(f"missing {path}", field=path)
    out = _spec_block(op, OperatorSpec, path)
    out["measure"] = _validate_measure(op.get("measure"), f"{path}.measure")
    return out


def _validate_problem(p):
    from .profiles import EXACT
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
    out["flux"] = _validate_flux(p.get("flux"), "problem.flux")
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
    if exact not in (None, *EXACT):
        raise ConfigurationError(f"problem.exact must be one of {list(EXACT)}",
                                 field="problem.exact")
    out["exact"] = exact
    return out


def _validate_solver(s):
    from .elliptic_solver import EpSolveConfig
    return _spec_block({} if s is None else s, EpSolveConfig, "solver")


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
        measure = MeasureSpec(**{k: v for k, v in mcfg.items() if k not in _CUSTOM_KEYS},
                              density=density)
    return OperatorSpec(**{**ocfg, "measure": measure})


def _build_data(spec, block, path):
    """``spec(**block)`` for the data at path.  Data specs sit at more than
    one config location, so their fields are relative and path prefixes
    them here."""
    try:
        return spec(**block)
    except ConfigurationError as e:
        field = f"{path}.{e.field}" if e.field else path
        raise ConfigurationError(str(e), field=field) from None


def _build_profile(bcfg, dim, path):
    """The profile of a validated data block."""
    from .profiles import PROFILES
    spec = PROFILES[bcfg["kind"]]
    block = {k: v for k, v in bcfg.items() if k != "kind"}
    if _has_dim(spec):
        block["dim"] = dim
    return _build_data(spec, block, path)


def _build_source(scfg, dim):
    from .profiles import SeparableSource, TimeFactor
    if scfg is None:
        return None
    return SeparableSource(_build_profile(scfg["spatial"], dim, "problem.source.spatial"),
                           _build_data(TimeFactor, scfg["temporal"], "problem.source.temporal"))


def _build_exact(name, problem, kind):
    """The closed-form reference named by problem.exact, started from the
    built initial profile; a ConfigurationError unless it solves the
    built ``problem``, naming the first part that differs."""
    from .profiles import EXACT
    if name is None:
        return None
    data, spec = EXACT[name]
    if kind != data:
        raise ConfigurationError(f"{name} reference needs {data} data", field="problem.exact")
    need = spec.mismatch(problem)
    if need is not None:
        raise ConfigurationError(f"the {name} reference solves only problems with {need}",
                                 field="problem.exact")
    return spec(problem.initial)


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
    phi = PhiSpec(**p["phi"])
    flux = None if p["flux"] is None else FluxSpec(**p["flux"])
    initial = _build_profile(p["initial"], dim, "problem.initial")
    problem = ProblemSpec(operator=operator, phi=phi, initial=initial,
                          source=_build_source(p["source"], dim), flux=flux)
    hh = float(h) if h is not None else p["h"]
    grid = UniformGrid.from_box(dim, hh, p["box_half_extent"])
    time_grid = TimeGrid.uniform(p["T"], dt_for(p, hh))
    operator.check_grid(grid)
    if flux is not None:
        check_convective_step(flux, float(np.max(time_grid.steps)), hh, dim)
    return RunPlan(problem=problem, grid=grid, time_grid=time_grid,
                   solver=EpSolveConfig(**cfg["solver"]), diagnostics=cfg["diagnostics"],
                   exact=_build_exact(p["exact"], problem, p["initial"]["kind"]))
