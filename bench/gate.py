"""Correctness gate for one `gpme run` operation.

check_run reads the artifacts a run left in its output directory and
returns the list of reasons it failed (empty when it passed) together with
figures read off the run: steps, total sweeps and, where the operation has
a closed form, the final-time L1 error against it.
"""

from __future__ import annotations

import json

import numpy as np

from gpme.config import build_plan, load_config

LEDGER_TOL = 1e-9
SYMMETRY_TOL = 1e-12


def read_field(path):
    """Values column of a field CSV, in the file's lexicographic order."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, -1]


def _shock_position(x, u, h):
    # linear interpolation of the 0.5 level set between cell centers
    i = np.nonzero(u >= 0.5)[0][-1]
    return x[i] + h * (u[i] - 0.5) / max(u[i] - u[i + 1], 1e-30)


def check_run(op, out_dir, exit_code):
    """Return (failures, facts) for the operation op run into out_dir."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    failures = []
    report = json.loads((out_dir / "report.json").read_text())
    ledger = report["run"]
    m0 = ledger["mass"][0]
    gap = max(abs(g) for g in ledger["identity_gap"])
    if gap > LEDGER_TOL * (1.0 + abs(m0)):
        failures.append(f"ledger gap {gap!r} above {LEDGER_TOL} (1 + |m0|)")
    for eq in report["equitightness"]:
        if eq["bound_asserted"] and not eq["passed"]:
            failures.append(f"tail bound at R={eq['R']!r} fails: "
                            f"{eq['lhs']!r} > {eq['rhs_total']!r}")

    plan = build_plan(load_config(op.config))
    grid = plan.grid
    last = report["saved_knots"][-1]
    if last != plan.time_grid.n_steps:
        failures.append(f"last saved knot {last}, expected {plan.time_grid.n_steps}")
    u = read_field(out_dir / f"field_{last:05d}.csv").reshape(grid.shape)

    facts = {"steps": len(ledger["sweeps"]), "sweeps": sum(ledger["sweeps"])}
    if "exact" in op.checks:
        ref = plan.exact.at_time(plan.time_grid.final_time).cell_averages(grid)
        l1_err = float(grid.cell_volume * np.sum(np.abs(u - ref)))
        facts["l1_err"] = l1_err
        if not l1_err <= op.l1_tol:
            failures.append(f"L1 error {l1_err!r} above {op.l1_tol!r}")
    if "shock" in op.checks:
        x_star = _shock_position(grid.axis_coords(0), u, grid.h)
        if not abs(x_star - op.shock_position) <= 2.0 * grid.h:
            failures.append(f"shock at {x_star!r}, expected {op.shock_position!r} "
                            f"within 2h")
    if "symmetric" in op.checks:
        asym = max(float(np.max(np.abs(u - u.T))),
                   float(np.max(np.abs(u - u[::-1, :]))),
                   float(np.max(np.abs(u - u[:, ::-1]))))
        if not asym <= SYMMETRY_TOL:
            failures.append(f"symmetry defect {asym!r} above {SYMMETRY_TOL}")
        lowest = min(ledger["min_value"])
        if lowest < 0.0:
            failures.append(f"negative value {lowest!r}")
    return failures, facts
