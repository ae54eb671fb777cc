"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line with the
measured quantities, then asserts. Budgets are wall-clock seconds and
fail the criterion when exceeded. Criteria 1, 3, 6 and 7 read named
results of the ``gpme check`` suites, the one home of those oracles.
"""

import json
import os
import subprocess
import sys
from time import perf_counter

import numpy as np

from gpme.checks import run_suite
from gpme.config import build_plan, load_config
from gpme.diagnostics import equitightness_check, fitted_order, study_errors
from gpme.evolution import run
from gpme.presets import preset_names


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def _within(elapsed, budget):
    return elapsed < budget, f"{elapsed:.1f}s of {budget:g}s budget"


def _check_verdict(n, suite, names, budget):
    """Criterion n holds when the named results of one `gpme check` suite
    pass within the time budget."""
    t0 = perf_counter()
    results = {res.name: res for res in run_suite(suite)}
    picked = [results[name] for name in names]
    in_time, t_msg = _within(perf_counter() - t0, budget)
    detail = "; ".join(f"{r.name} {r.value:.3g} <= {r.bound:.3g}" for r in picked)
    _verdict(n, all(r.passed for r in picked) and in_time, f"{detail}, {t_msg}")


def test_criterion_1_ep_oracle():
    _check_verdict(1, "resolvent", ["tridiagonal_oracle"], 1.0)


def test_criterion_2_ledger_identity_every_preset():
    worst = []
    ok = True
    for name in preset_names():
        cfg = load_config({"preset": name,
                           "problem": {"h": 1.0 / 64, "T": 0.5}})
        plan = build_plan(cfg)
        t0 = perf_counter()
        report = run(plan.problem, plan.grid, plan.time_grid, config=plan.solver)
        elapsed = perf_counter() - t0
        m0 = float(report.mass[0])
        gap = max(abs(float(g)) for g in report.identity_gap)
        ok_preset = gap <= 1e-9 * (1.0 + m0) and elapsed < 30.0
        if name == "pme_barenblatt_1d":
            support = plan.exact.at_time(plan.time_grid.final_time).support_radius
            leak = abs(float(report.leak_diffusive[-1]))
            ok_preset = (ok_preset and plan.grid.half_extents[0] >= 3.0 * support
                         and leak <= 1e-12)
            worst.append(f"{name} gap {gap:.1e} leak {leak:.1e} {elapsed:.1f}s")
        else:
            worst.append(f"{name} gap {gap:.1e} {elapsed:.1f}s")
        ok = ok and ok_preset
    _verdict(2, ok, "; ".join(worst))


def test_criterion_3_contraction_comparison_stability():
    _check_verdict(3, "evolution", ["evolution_monotone", "evolution_l1_contraction",
                                    "evolution_l1_stability", "evolution_linf_stability"],
                   120.0)


def test_criterion_4_equitightness_bound():
    parts = []
    ok = True
    for name in ("pme_barenblatt_1d", "fast_diffusion_1d", "frac_heat_poisson_1d"):
        cfg = load_config(name)
        plan = build_plan(cfg)
        t0 = perf_counter()
        report = run(plan.problem, plan.grid, plan.time_grid, config=plan.solver)
        L = plan.grid.half_extents[0]
        margins = []
        for R in (L / 4, L / 2, 3 * L / 4):
            eq = equitightness_check(report.trajectory, plan.problem, R,
                                     r=cfg["diagnostics"]["r"], resolvent=report.resolvent)
            ok = ok and eq.passed and eq.bound_asserted
            margins.append(eq.rhs_total - eq.lhs)
        elapsed = perf_counter() - t0
        ok = ok and elapsed < 60.0
        parts.append(f"{name} min margin {min(margins):.2e} {elapsed:.1f}s")
    _verdict(4, ok, "; ".join(parts))


def _study_trajectories(cfg, h0, levels=3):
    trajs = []
    for level in range(levels):
        plan = build_plan(cfg, h=h0 / 2 ** level)
        trajs.append(run(plan.problem, plan.grid, plan.time_grid,
                         config=plan.solver).trajectory)
    return plan, trajs


def _study_errors(name, h0, levels=3):
    """The sup-in-time L1 errors against the exact solution and their
    fitted order, as `gpme study` reports them."""
    plan, trajs = _study_trajectories(load_config(name), h0, levels)
    errs = study_errors(trajs, plan.exact, 1.0)
    return np.array(errs), fitted_order(h0 / 2.0 ** np.arange(levels), errs)


def test_criterion_5_exact_solution_convergence():
    h0 = 1.0 / 32
    parts = []
    ok = True

    t0 = perf_counter()
    errs, order = _study_errors("heat_gaussian_1d", h0)
    el = perf_counter() - t0
    ok = ok and np.all(np.diff(errs) < 0) and order >= 1.0 and el < 300.0
    parts.append(f"heat order {order:.2f} {el:.0f}s")

    t0 = perf_counter()
    errs, order = _study_errors("pme_barenblatt_1d", h0)
    el = perf_counter() - t0
    ok = ok and np.all(np.diff(errs) < 0) and order >= 0.5 and el < 300.0
    parts.append(f"pme order {order:.2f} {el:.0f}s")

    t0 = perf_counter()
    errs, order = _study_errors("frac_heat_poisson_1d", h0)
    el = perf_counter() - t0
    ok = ok and np.all(np.diff(errs) < 0) and el < 300.0
    parts.append(f"frac order {order:.2f} {el:.0f}s")

    t0 = perf_counter()
    _, trajs = _study_trajectories(load_config("burgers_riemann_1d"), h0)
    shock_ok = True
    worst = 0.0
    for traj in trajs:
        h = traj.grid.h
        x = traj.grid.axis_coords(0)
        u = traj.fields[-1]
        above = np.nonzero(u >= 0.5)[0]
        i = above[-1]
        # linear interpolation of the 0.5 level set between cell centers
        x_star = x[i] + h * (u[i] - 0.5) / max(u[i] - u[i + 1], 1e-30)
        err = abs(x_star - 0.25)
        worst = max(worst, err / h)
        shock_ok = shock_ok and err <= 2.0 * h
    el = perf_counter() - t0
    ok = ok and shock_ok and el < 300.0
    parts.append(f"burgers shock err {worst:.2f}h {el:.0f}s")

    _verdict(5, ok, "; ".join(parts))


def test_criterion_6_moment_checkers():
    _check_verdict(6, "moments", ["fractional_a_pp_flat", "laplacian_far_mass_zero"], 10.0)


def test_criterion_7_cutoff_scalings():
    _check_verdict(7, "equitightness", ["cutoff_derivative_scaling", "operator_cutoff_slope"],
                   30.0)


def test_criterion_8_self_convergence_cde():
    t0 = perf_counter()
    cfg = load_config("cde_burgers_frac_1d")
    _, trajs = _study_trajectories(cfg, cfg["problem"]["h"])
    d = study_errors(trajs, None, 1.0)
    elapsed = perf_counter() - t0
    in_time, t_msg = _within(elapsed, 300.0)
    _verdict(8, d[0] > d[1] > 0.0 and in_time,
             f"distances to finest {d[0]:.3e} > {d[1]:.3e}, {t_msg}")


def test_criterion_9_determinism(tmp_path):
    t0 = perf_counter()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "preset": "heat_gaussian_1d",
        "problem": {"h": 1.0 / 32, "T": 0.25},
        "diagnostics": {"save_stride": 4},
    }))
    snapshots = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / tag
        env = dict(os.environ, GPME_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from gpme.cli import main; sys.exit(main(sys.argv[1:]))",
             "run", "--config", str(cfg_path), "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        snapshots.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    elapsed = perf_counter() - t0
    in_time, t_msg = _within(elapsed, 60.0)
    same = snapshots[0] == snapshots[1] == snapshots[2]
    _verdict(9, same and in_time,
             f"{len(snapshots[0])} artifacts byte-identical across repeats and "
             f"thread counts, {t_msg}")
