"""Finite-difference schemes for generalized porous medium equations with
local and integro-differential diffusion, plus the analytical instruments
(mass ledger, moment checks, uniform tail certificates) that make runs
auditable.

Attributes are loaded lazily so that importing the CLI does not pull in
numpy before thread caps are applied.
"""

__version__ = "0.1.0"

_SUBMODULES = {
    "cli", "checks", "config", "diagnostics", "elliptic_solver", "errors",
    "evolution", "grid_field", "levy_operators", "presets", "profiles",
}

_EXPORTS = {
    # errors
    "GpmeError": "errors",
    "ConfigurationError": "errors",
    "DataError": "errors",
    "StencilError": "errors",
    "NonConvergenceError": "errors",
    # grids and fields
    "UniformGrid": "grid_field",
    "TimeGrid": "grid_field",
    "Trajectory": "grid_field",
    "project_cell_average": "grid_field",
    "project_source": "grid_field",
    # operators
    "MeasureSpec": "levy_operators",
    "WeightedStencil": "levy_operators",
    "OperatorSpec": "levy_operators",
    "measure_stencil": "levy_operators",
    "check_moments": "levy_operators",
    # resolvent
    "PhiSpec": "elliptic_solver",
    "EpSolveConfig": "elliptic_solver",
    "solve_ep": "elliptic_solver",
    "apply_stencil": "elliptic_solver",
    # evolution
    "FluxSpec": "evolution",
    "ProblemSpec": "evolution",
    "RunReport": "evolution",
    "run": "evolution",
    # diagnostics
    "Cutoff": "diagnostics",
    "tail_mass": "diagnostics",
    "equitightness_check": "diagnostics",
    "ct_lr_distance": "diagnostics",
    # configuration
    "load_config": "config",
    "build_plan": "config",
    "get_preset": "presets",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(__all__) | _SUBMODULES)
