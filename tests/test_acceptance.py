"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line with the
measured quantities, then asserts. Budgets are wall-clock seconds and
fail the criterion when exceeded.
"""

import json
import math
import os
import subprocess
import sys
from time import perf_counter

import numpy as np

from gpme.config import build_plan, load_config
from gpme.diagnostics import Cutoff, ct_lr_distance, equitightness_check, operator_cutoff_norm
from gpme.elliptic_solver import EpSolveConfig, PhiSpec, solve_ep
from gpme.evolution import FluxSpec, cfl_limit, run, step_cde, step_gpme
from gpme.grid_field import UniformGrid, lr_norm_of_values
from gpme.levy_operators import (MeasureSpec, OperatorSpec, WeightedStencil,
                                 check_moments, combine_with_laplacian)
from gpme.presets import preset_names


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def _within(elapsed, budget):
    return elapsed < budget, f"{elapsed:.1f}s of {budget:g}s budget"


def test_criterion_1_ep_oracle():
    t0 = perf_counter()
    grid = UniformGrid.from_box(1, 1.0, 1.5)
    res = solve_ep(WeightedStencil.empty(1.0, grid.dim), 1,
                   PhiSpec(kind="linear"), 1.0, np.array([0.0, 1.0, 0.0]))
    err = float(np.max(np.abs(res.w - np.array([1, 3, 1]) / 7.0)))
    elapsed = perf_counter() - t0
    in_time, t_msg = _within(elapsed, 1.0)
    _verdict(1, err <= 1e-10 and in_time, f"max error {err:.2e}, {t_msg}")


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
    t0 = perf_counter()
    grid = UniformGrid.from_box(1, 0.25, 6.0)
    vol = grid.cell_volume
    n = grid.node_count
    lap = WeightedStencil.empty(grid.h, grid.dim)
    frac = OperatorSpec(c=0, measure=MeasureSpec(kind="fractional", alpha=1.0)
                        ).build_stencil(grid)
    phis = [PhiSpec(kind="power", exponent=0.5), PhiSpec(kind="linear"),
            PhiSpec(kind="power", exponent=2.0),
            PhiSpec(kind="stefan", latent=0.5)]
    cfg = EpSolveConfig(residual_tol=1e-12)
    slack = 1e-8
    failures = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        phi = phis[seed % 4]
        stencil, c = (lap, 1) if seed % 2 == 0 else (frac, 0)
        flux = FluxSpec(kind="burgers", u_range=(0.0, 1.0)) if seed % 3 == 0 else None
        if flux is None:
            u = rng.uniform(-1.0, 1.0, n)
            v = u + rng.uniform(0.0, 0.5, n)
            dt = 0.05
        else:
            u = rng.uniform(0.0, 0.7, n)
            v = np.minimum(u + rng.uniform(0.0, 0.2, n), 0.95)
            dt = 0.9 * cfl_limit(flux, grid.h, grid.dim)
        g_lo = rng.uniform(-0.2, 0.2, (3, n))
        g_hi = g_lo + rng.uniform(0.0, 0.1, (3, n))
        if flux is not None:
            g_lo = np.abs(g_lo)
            g_hi = g_lo + rng.uniform(0.0, 0.1, (3, n))
        u0, v0 = u.copy(), v.copy()
        src_l1 = src_sup = src_gap = 0.0
        for step in range(3):
            if flux is None:
                u = step_gpme(stencil, c, phi, dt, u, g=g_lo[step], config=cfg).w
                v = step_gpme(stencil, c, phi, dt, v, g=g_hi[step], config=cfg).w
            else:
                u = step_cde(stencil, c, phi, flux, dt, grid.h, u,
                             g=g_lo[step], config=cfg).w
                v = step_cde(stencil, c, phi, flux, dt, grid.h, v,
                             g=g_hi[step], config=cfg).w
            src_l1 += dt * vol * float(np.sum(np.abs(g_lo[step])))
            src_sup += dt * float(np.max(np.abs(g_lo[step])))
            src_gap += dt * vol * float(np.sum(np.maximum(g_hi[step] - g_lo[step], 0.0)))
            if np.max(u - v) > slack:
                failures.append(f"seed {seed} comparison {np.max(u - v):.1e}")
            pos_rev = vol * float(np.sum(np.maximum(u - v, 0.0)))
            if pos_rev > slack:
                failures.append(f"seed {seed} positive-part {pos_rev:.1e}")
            contr = vol * float(np.sum(np.maximum(v - u, 0.0)))
            bound = vol * float(np.sum(np.maximum(v0 - u0, 0.0))) + src_gap
            if contr > bound + slack:
                failures.append(f"seed {seed} contraction {contr - bound:.1e}")
            l1 = vol * float(np.sum(np.abs(u)))
            l1_bound = vol * float(np.sum(np.abs(u0))) + src_l1
            if l1 > l1_bound + slack:
                failures.append(f"seed {seed} l1 {l1 - l1_bound:.1e}")
            sup = float(np.max(np.abs(u)))
            sup_bound = float(np.max(np.abs(u0))) + src_sup
            if sup > sup_bound + slack:
                failures.append(f"seed {seed} sup {sup - sup_bound:.1e}")
    elapsed = perf_counter() - t0
    in_time, t_msg = _within(elapsed, 120.0)
    detail = f"20 seeds clean, {t_msg}" if not failures else "; ".join(failures[:4])
    _verdict(3, not failures and in_time, detail)


def test_criterion_4_equitightness_bound():
    parts = []
    ok = True
    for name in ("pme_barenblatt_1d", "fast_diffusion_1d", "frac_heat_poisson_1d"):
        cfg = load_config(name)
        plan = build_plan(cfg)
        t0 = perf_counter()
        report = run(plan.problem, plan.grid, plan.time_grid, config=plan.solver)
        stencil = plan.problem.operator.build_stencil(plan.grid)
        L = plan.grid.half_extents[0]
        margins = []
        for R in (L / 4, L / 2, 3 * L / 4):
            eq = equitightness_check(report.trajectory, plan.problem, R,
                                     r=cfg["diagnostics"]["r"], stencil=stencil)
            ok = ok and eq.passed and eq.bound_asserted
            margins.append(eq.rhs_total - eq.lhs)
        elapsed = perf_counter() - t0
        ok = ok and elapsed < 60.0
        parts.append(f"{name} min margin {min(margins):.2e} {elapsed:.1f}s")
    _verdict(4, ok, "; ".join(parts))


def _l1_error_at_final_time(plan, report):
    T = plan.time_grid.final_time
    ref = plan.exact.at_time(T).cell_averages(plan.grid)
    return lr_norm_of_values(report.trajectory.fields[-1] - ref,
                             plan.grid.cell_volume, 1.0)


def _study_errors(name, h0, levels=3):
    cfg = load_config(name)
    errs = []
    for level in range(levels):
        plan = build_plan(cfg, h=h0 / 2 ** level)
        report = run(plan.problem, plan.grid, plan.time_grid, config=plan.solver)
        errs.append(_l1_error_at_final_time(plan, report))
    hs = h0 / 2.0 ** np.arange(levels)
    order = float(np.polyfit(np.log2(hs), np.log2(errs), 1)[0])
    return np.array(errs), order


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
    cfg = load_config("burgers_riemann_1d")
    shock_ok = True
    worst = 0.0
    for level in range(3):
        h = h0 / 2 ** level
        plan = build_plan(cfg, h=h)
        report = run(plan.problem, plan.grid, plan.time_grid, config=plan.solver)
        x = plan.grid.axis_coords(0)
        u = report.trajectory.fields[-1]
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
    t0 = perf_counter()
    values = []
    for h in (1.0 / 8, 1.0 / 16, 1.0 / 32):
        grid = UniformGrid.from_box(1, h, 17.0)
        stencil = OperatorSpec(c=0, measure=MeasureSpec(kind="fractional", alpha=1.0)
                               ).build_stencil(grid)
        rep = check_moments(stencil, variant="A_double_prime", alpha=1.0,
                            R_list=[2.0, 4.0, 8.0, 16.0])
        values.extend(row["value"] for row in rep.to_json_dict()["a_pp_values"])
    ratio = max(values) / min(values)
    lap = check_moments(combine_with_laplacian(WeightedStencil.empty(0.25, 1), 1),
                        variant="A")
    far = lap.to_json_dict()["far_mass"]
    elapsed = perf_counter() - t0
    in_time, t_msg = _within(elapsed, 10.0)
    _verdict(6, ratio <= 10.0 and far == 0.0 and in_time,
             f"A'' max/min {ratio:.2f} over 12 pairs, laplacian far mass {far!r}, {t_msg}")


def test_criterion_7_cutoff_scalings():
    t0 = perf_counter()
    ok = True
    parts = []
    for k in (1, 2):
        for p in (2.0, math.inf):
            ratio = Cutoff(8.0).derivative_norm(k, p) / Cutoff(4.0).derivative_norm(k, p)
            expect = 2.0 ** ((0.0 if p == math.inf else 1.0 / p) - k)
            rel = abs(ratio / expect - 1.0)
            ok = ok and rel <= 1e-4
            parts.append(f"k={k} p={p:g} rel {rel:.1e}")
    grid = UniformGrid.from_box(1, 1.0 / 16, 12.0)
    stencil = OperatorSpec(c=0, measure=MeasureSpec(kind="fractional", alpha=1.0)
                           ).build_stencil(grid)
    for p in (2.0, math.inf):
        n4 = operator_cutoff_norm(stencil, 0, Cutoff(4.0), grid, p)
        n8 = operator_cutoff_norm(stencil, 0, Cutoff(8.0), grid, p)
        slope = math.log2(n8 / n4)
        target = (0.0 if p == math.inf else 1.0 / p) - 1.0
        ok = ok and abs(slope - target) <= 0.3
        parts.append(f"op p={p:g} slope {slope:.2f} vs {target:g}")
    elapsed = perf_counter() - t0
    in_time, t_msg = _within(elapsed, 30.0)
    _verdict(7, ok and in_time, "; ".join(parts) + f", {t_msg}")


def test_criterion_8_self_convergence_cde():
    t0 = perf_counter()
    cfg = load_config("cde_burgers_frac_1d")
    h0 = cfg["problem"]["h"]
    trajs = []
    for level in range(3):
        plan = build_plan(cfg, h=h0 / 2 ** level)
        trajs.append(run(plan.problem, plan.grid, plan.time_grid,
                         config=plan.solver).trajectory)
    d = [ct_lr_distance(trajs[0], trajs[2], r=1.0),
         ct_lr_distance(trajs[1], trajs[2], r=1.0)]
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
