"""Spans around calls into gpme's public entry points, for the traced run.

Each entry point is wrapped by replacing the module attribute through
which the program looks it up, only while an operation is being recorded.
A span holds its name, parent, operation, start and end, plus counts read
from the call's arguments and result after its end time is taken.  Spans
stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module whose attribute is replaced, attribute, span name)
ENTRY_POINTS = (
    ("gpme.config", "load_config", "config.load_config"),
    ("gpme.config", "build_plan", "config.build_plan"),
    ("gpme.evolution", "run", "evolution.run"),
    ("gpme.evolution", "solve_ep", "elliptic_solver.solve_ep"),
    ("gpme.evolution", "project_cell_average", "grid_field.project_cell_average"),
    ("gpme.evolution", "project_source", "grid_field.project_source"),
    ("gpme.levy_operators", "measure_stencil", "levy_operators.measure_stencil"),
    ("gpme.elliptic_solver", "apply_stencil", "levy_operators.apply_stencil"),
    ("gpme.diagnostics", "apply_stencil", "levy_operators.apply_stencil"),
    ("gpme.diagnostics", "equitightness_check", "diagnostics.equitightness_check"),
    ("gpme.grid_field", "write_field_csv", "grid_field.write_field_csv"),
)


def _combined_offsets(stencil, c):
    """Offsets of the stencil once the c/h^2 nearest neighbors are merged in."""
    n = stencil.n_offsets
    if not c:
        return n
    unit = int(np.sum(np.abs(stencil.offsets).sum(axis=1) == 1)) if n else 0
    return n + 2 * stencil.dim - unit


def _solve_counts(args, result):
    nodes = int(np.size(args["rho"]))
    looped = args["dt"] > 0.0 and args["phi"].kind != "zero"
    return {"sweeps": result.sweeps, "residual": result.residual, "nodes": nodes,
            # each loop pass applies the operator once: sweeps + 1 passes
            "applications": result.sweeps + 1 if looped else 0,
            "offsets": _combined_offsets(args["stencil"], args["c"])}


# counts read from each span's bound arguments and result
_COUNTS = {
    "elliptic_solver.solve_ep": _solve_counts,
    "evolution.run": lambda a, r: {"steps": a["time_grid"].n_steps},
    "levy_operators.measure_stencil": lambda a, r: {"offsets": r.n_offsets},
    "levy_operators.apply_stencil": lambda a, r: {
        "nodes": int(np.size(a["u"])),
        "offsets": _combined_offsets(a["stencil"], a["c"])},
}


class Tracer:
    """Records spans for operations run inside `recording`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    def _open(self, name):
        span = {"id": len(self.spans), "name": name, "op": self._op,
                "parent": self._stack[-1] if self._stack else None,
                "start": perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span):
        span["end"] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        count = _COUNTS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                bound = signature.bind(*args, **kwargs).arguments
                span.update(count(bound, result))
            return result
        return wrapper

    @contextmanager
    def recording(self, op):
        """Wrap the entry points and open the operation's root span."""
        self._op = op
        saved = []
        for module_name, attr, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        root = self._open("cli.run")
        try:
            yield root
        finally:
            self._close(root)
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            self._op = None


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_summary(spans):
    """Per-layer totals over one pass of spans.  The counts whose unit in
    BENCHMARK.json ends in ".computed" are derived from other counts."""
    self_s = self_times(spans)

    def of(name):
        return [s for s in spans if s["name"] == name]

    def busy(*names):
        return sum(s["end"] - s["start"] for n in names for s in of(n))

    def own(name):
        return sum(self_s[s["id"]] for s in of(name))

    solves = of("elliptic_solver.solve_ep")
    builds = of("levy_operators.measure_stencil")
    applies = of("levy_operators.apply_stencil")
    sweeps = sum(s["sweeps"] for s in solves)
    ops_with_measure = {s["op"] for s in builds}
    offsets_per_op = {}
    for s in builds:
        offsets_per_op[s["op"]] = max(offsets_per_op.get(s["op"], 0), s["offsets"])
    applications = sum(s["applications"] for s in solves) + len(applies)
    direct_work = (sum(s["applications"] * s["offsets"] * s["nodes"] for s in solves)
                   + sum(s["offsets"] * s["nodes"] for s in applies))
    return {
        "elliptic_solver.calls": len(solves),
        "elliptic_solver.busy_s": busy("elliptic_solver.solve_ep"),
        "elliptic_solver.self_s": own("elliptic_solver.solve_ep"),
        "elliptic_solver.sweeps": sweeps,
        "elliptic_solver.sweeps_per_step": sweeps / len(solves) if solves else 0.0,
        "elliptic_solver.max_residual": max((s["residual"] for s in solves), default=0.0),
        "elliptic_solver.node_solves": sum(s["sweeps"] * s["nodes"] for s in solves),
        "levy_operators.stencil_builds": len(builds),
        "levy_operators.stencil_build_s": busy("levy_operators.measure_stencil"),
        "levy_operators.offsets": sum(offsets_per_op.values()),
        "levy_operators.builds_per_run": (len(builds) / len(ops_with_measure)
                                          if ops_with_measure else 0.0),
        "levy_operators.applications": applications,
        "levy_operators.direct_work": direct_work,
        "levy_operators.apply_s": busy("levy_operators.apply_stencil"),
        "evolution.busy_s": busy("evolution.run"),
        "evolution.self_s": own("evolution.run"),
        "evolution.steps": sum(s["steps"] for s in of("evolution.run")),
        "grid_field.project_s": busy("grid_field.project_cell_average",
                                     "grid_field.project_source"),
        "grid_field.write_s": busy("grid_field.write_field_csv"),
        "grid_field.fields_written": len(of("grid_field.write_field_csv")),
        "diagnostics.calls": len(of("diagnostics.equitightness_check")),
        "diagnostics.busy_s": busy("diagnostics.equitightness_check"),
        "config.busy_s": busy("config.load_config", "config.build_plan"),
        "cli.self_s": own("cli.run"),
    }
