"""Command-line interface: exit codes, artifacts, and determinism."""

import ast
import atexit
import importlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpme
import gpme.diagnostics
import gpme.elliptic_solver
import gpme.evolution
import gpme.grid_field
import gpme.levy_operators
from gpme.cli import main
from gpme.config import build_plan, load_config, merge_config
from gpme.diagnostics import fitted_order, study_errors
from gpme.errors import ConfigurationError, NonConvergenceError
from gpme.evolution import run

TINY_RUN = {
    "preset": "heat_gaussian_1d",
    "problem": {"h": 0.5, "T": 0.1, "box_half_extent": 4.0},
    "diagnostics": {"R_list": [1.5], "save_stride": 4},
}

# the coarse 2-D plane of the benchmark's measure workload: m = 2 under the
# Laplacian plus a unit-order fractional measure
PLANE_RUN = {
    "problem": {
        "dim": 2,
        "operator": {"c": 1, "support_radius": None, "measure": {
            "kind": "fractional", "alpha": 1.0, "scale": 1.0 / math.pi,
            "truncation": None, "weight_rule": "cell_mass"}},
        "phi": {"kind": "power", "exponent": 2.0}, "flux": None,
        "initial": {"kind": "gaussian", "amplitude": 1.0, "spread": 0.25},
        "source": None, "box_half_extent": 4.0, "h": 0.5, "T": 0.5,
        "dt": {"policy": "linear", "factor": 0.5}, "exact": None,
    },
    "diagnostics": {"R_list": [1.0, 2.0, 3.0], "r": 1.0, "save_stride": 1},
}


# ten steps of 17 nodes, every knot saved
STEPPED_RUN = merge_config(TINY_RUN, {
    "problem": {"T": 0.5, "dt": {"policy": "linear", "factor": 0.1}},
    "diagnostics": {"save_stride": 1}})


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def last_err_record(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.err.strip().splitlines()[-1]), captured.out


def test_run_writes_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, TINY_RUN)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["problem"]["h"] == 0.5
    assert len(report["run"]["times"]) >= 2
    assert (out / "field_00000.csv").exists()
    last = max(report["saved_knots"])
    assert (out / f"field_{last:05d}.csv").exists()
    eq_lines = (out / "equitightness.csv").read_text().splitlines()
    assert eq_lines[0] == "R,lhs,rhs,pass"
    assert len(eq_lines) == 2 and eq_lines[1].endswith(",true")


def test_run_dry_run_echoes_config_without_writing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_RUN)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--dry-run"]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["problem"]["h"] == 0.5
    assert echoed["problem"]["phi"]["kind"] == "linear"
    assert not out.exists()


def test_out_path_that_is_a_file_fails_before_the_solve(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, TINY_RUN)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    calls = []
    monkeypatch.setattr(gpme.evolution, "run", lambda *a, **k: calls.append(a))
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.err.strip().splitlines()]
    assert len(records) == 1 and records[0]["error"] == "runtime"
    assert str(out) in records[0]["message"]
    assert calls == []


def test_run_output_comes_from_one_process(tmp_path, capfd, monkeypatch):
    # the field writer forks; its child must leave through os._exit, so it
    # never gets back here, runs no atexit handler and flushes no stdio.
    # capfd reads the shared file descriptors, where a child's output lands
    monkeypatch.setattr(gpme.grid_field, "_FORK_MIN_VALUES", 0)
    marker = tmp_path / "child_escaped"
    cfg = write_cfg(tmp_path, TINY_RUN)
    out = tmp_path / "out"
    parent = os.getpid()

    def mark():
        marker.touch()

    atexit.register(mark)
    try:
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    finally:
        if os.getpid() != parent:
            # a child that got out of the writer: record it, and stop it
            # before it runs the rest of the suite
            mark()
            os._exit(1)
        atexit.unregister(mark)
    assert not marker.exists()
    assert len(json.loads((out / "report.json").read_text())["saved_knots"]) >= 2
    lines = capfd.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("steps ") and lines[1].startswith("tail bound R=1.5")


def test_failed_run_leaves_no_field_file(tmp_path, capsys, monkeypatch, forks):
    # the writer's child has taken knots 0-3 when the solve of step 3
    # stalls: none of them may be left, and an earlier run's field stays
    monkeypatch.setattr(gpme.grid_field, "_FORK_MIN_VALUES", 0)
    solve = gpme.evolution.solve_ep
    calls = []

    def stalls_at_step_3(*args, **kwargs):
        calls.append(1)
        if len(calls) == 4:
            raise NonConvergenceError("stalled", residual=0.5, sweeps=7, cell=(8,))
        return solve(*args, **kwargs)

    monkeypatch.setattr(gpme.evolution, "solve_ep", stalls_at_step_3)
    out = tmp_path / "out"
    out.mkdir()
    earlier = out / "field_00000.csv"
    earlier.write_text("beta_1,value\n0,1.0\n")
    cfg = write_cfg(tmp_path, STEPPED_RUN)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    record, _ = last_err_record(capsys)
    assert record["error"] == "runtime" and record["step"] == 3
    assert len(forks) == 1
    assert [p.name for p in out.iterdir()] == ["field_00000.csv"]
    assert earlier.read_text() == "beta_1,value\n0,1.0\n"


def test_field_write_error_is_a_runtime_record(tmp_path, capsys, monkeypatch):
    # a directory where knot 4's field goes: the run fails with exit 1 and
    # a runtime record that names the path, whether or not it forks
    for threshold in (0, 1 << 30):
        monkeypatch.setattr(gpme.grid_field, "_FORK_MIN_VALUES", threshold)
        out = tmp_path / f"out_{threshold}"
        (out / "field_00004.csv").mkdir(parents=True)
        cfg = write_cfg(tmp_path, STEPPED_RUN)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        record, _ = last_err_record(capsys)
        assert record["error"] == "runtime"
        assert str(out / "field_00004.csv") in record["message"]
        assert not list(out.glob("*.part"))


def test_missing_phi_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"problem": {
        "operator": {"c": 1},
        "initial": {"kind": "gaussian", "amplitude": 1.0, "spread": 0.25},
        "h": 0.5, "box_half_extent": 2.0, "T": 0.1,
    }})
    assert main(["run", "--config", cfg]) == 2
    record, _ = last_err_record(capsys)
    assert record["error"] == "configuration"
    assert record["field"] == "problem.phi"


def test_unknown_key_is_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"preset": "heat_gaussian_1d",
                               "problem": {"hh": 0.1}})
    assert main(["run", "--config", cfg]) == 2
    record, _ = last_err_record(capsys)
    assert "unknown key" in record["message"]


def test_unknown_preset_is_rejected(capsys):
    assert main(["run", "--config", "no_such_preset"]) == 2
    record, _ = last_err_record(capsys)
    assert record["error"] == "configuration"


def test_stalled_solve_reports_residual_and_sweeps(tmp_path, capsys, monkeypatch):
    # nonlinear phi: one Newton step solves a linear problem exactly
    monkeypatch.setattr(gpme.elliptic_solver, "_MIN_SWEEPS", 1)
    monkeypatch.setattr(gpme.elliptic_solver, "_SWEEPS_PER_NODE", 0)
    cfg = write_cfg(tmp_path, merge_config(TINY_RUN, {
        "problem": {"phi": {"kind": "power", "exponent": 2.0}, "exact": None}}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    record, _ = last_err_record(capsys)
    assert record["error"] == "runtime"
    assert record["sweeps"] == 1
    assert record["residual"] > 0.0
    # the first step stalls, worst at the data's peak, node 8 of 17
    assert record["step"] == 0
    assert record["cell"] == [8]


def test_field_outside_the_flux_range_fails_the_run(tmp_path, capsys):
    # dt passes the CFL check on the declared range [0, 0.2], which the
    # Riemann data 1 -> 0 leave already at U^0
    cfg = write_cfg(tmp_path, {"preset": "burgers_riemann_1d", "problem": {
        "dt": {"policy": "linear", "factor": 2.4}, "flux": {"u_range": [0.0, 0.2]}}})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    record, _ = last_err_record(capsys)
    assert record["error"] == "runtime" and "u_range" in record["message"]
    assert record["step"] == 0
    assert list(out.iterdir()) == []


def test_study_out_path_that_is_a_file_fails_before_the_solve(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_RUN)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["study", "--config", cfg, "--levels", "3", "--out", str(out)]) == 1
    record, stdout = last_err_record(capsys)
    assert record["error"] == "runtime" and str(out) in record["message"]
    assert "level 0" not in stdout


def test_study_needs_two_levels(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_RUN)
    assert main(["study", "--config", cfg, "--levels", "1"]) == 2
    record, _ = last_err_record(capsys)
    assert record["field"] == "levels"


@pytest.mark.parametrize("preset", ["heat_gaussian_1d", "stefan_1d"])
def test_study_reports_study_errors_byte_identically(tmp_path, capsys, preset):
    # heat_gaussian_1d is measured against its exact solution, stefan_1d
    # against its finest level
    cfg_path = write_cfg(tmp_path, {"preset": preset, "problem": {"h": 0.2}})
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["study", "--config", cfg_path, "--levels", "3", "--out", str(out)]) == 0
    for name in ("study.csv", "study.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    cfg = load_config(cfg_path)
    plans = [build_plan(cfg, h=0.2 / 2 ** level) for level in range(3)]
    trajs = [run(plan.problem, plan.grid, plan.time_grid, config=plan.solver).trajectory
             for plan in plans]
    errors = study_errors(trajs, plans[0].exact, cfg["diagnostics"]["r"])
    study = json.loads((outs[0] / "study.json").read_text())
    assert study["reference"] == ("finest" if plans[0].exact is None else "exact")
    assert [level["error"] for level in study["levels"]] == errors
    assert study["order"] == fitted_order([level["h"] for level in study["levels"]], errors)


def test_unknown_check_suite(capsys):
    assert main(["check", "no_such_suite"]) == 2


@pytest.mark.parametrize("suite", ["moments", "resolvent", "evolution", "equitightness",
                                   "all"])
def test_check_moments_passes(capsys, suite):
    assert main(["check", suite]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out.splitlines()[-1]


# overrides of TINY_RUN's problem block that break one value, and the field
# that names it
PROBLEM_REJECTED = {
    "fractional_alpha": ({"operator": {"c": 0, "measure": {
        "kind": "fractional", "alpha": 3.0}}}, "problem.operator.measure.alpha"),
    "split_beta": ({"operator": {"c": 0, "measure": {
        "kind": "split", "alpha": 1.0, "beta": 2.5}}}, "problem.operator.measure.beta"),
    "split_without_beta": ({"operator": {"c": 0, "measure": {
        "kind": "split", "alpha": 1.0}}}, "problem.operator.measure.beta"),
    "c_2": ({"operator": {"c": 2}}, "problem.operator.c"),
    "c_0_without_measure": ({"operator": {"c": 0}}, "problem.operator"),
    "unsorted_phi_table": ({"phi": {"kind": "table", "table_u": [0, 1, 0.5],
                                    "table_phi": [0, 1, 2]}}, "problem.phi.table_u"),
    "unknown_phi_kind": ({"phi": {"kind": "cubic"}}, "problem.phi.kind"),
    "exact_needs_its_data": ({"exact": "barenblatt"}, "problem.exact"),
    "indicator_source_lo_above_hi": ({"source": {"spatial": {
        "kind": "indicator", "lo": 1.0, "hi": -1.0}}}, "problem.source.spatial.hi"),
    "negative_source_spread": ({"source": {"spatial": {
        "kind": "gaussian", "amplitude": 1.0, "spread": -1.0}}},
        "problem.source.spatial.spread"),
    "flux_table_string": ({"flux": {"kind": "table", "u_range": [0, 1], "table_u": [0, 1],
                                    "table_f": "ab"}}, "problem.flux.table_f"),
    "flux_table_boolean": ({"flux": {"kind": "table", "u_range": [0, 1], "table_u": [0, 1],
                                     "table_f": [True, 1]}}, "problem.flux.table_f"),
    "center_string": ({"initial": {"center": ["x"]}}, "problem.initial.center"),
    "velocity_shorter_than_dim": ({"dim": 2, "flux": {
        "kind": "linear", "u_range": [0, 1], "velocity": [1.0]}}, "problem.flux.velocity"),
    # the spec blocks: types by field annotation, required fields, unknown keys
    "missing_u_range": ({"flux": {"kind": "burgers"}}, "problem.flux.u_range"),
    "u_range_of_three": ({"flux": {"kind": "burgers", "u_range": [0, 0.5, 1]}},
                         "problem.flux.u_range"),
    "boolean_slope": ({"phi": {"slope": True}}, "problem.phi.slope"),
    "fractional_c": ({"operator": {"c": 0.5}}, "problem.operator.c"),
    # a measure's tail is read off its kind, alpha and truncation, never declared
    "declared_tail_order": ({"operator": {"measure": {
        "kind": "fractional", "alpha": 1.0, "tail_order": 5.0}}},
        "problem.operator.measure.tail_order"),
    "declared_finite_first_moment": ({"operator": {"measure": {
        "kind": "fractional", "alpha": 1.0, "finite_first_moment": True}}},
        "problem.operator.measure.finite_first_moment"),
    "unknown_phi_key": ({"phi": {"bogus": 1}}, "problem.phi.bogus"),
    "unknown_flux_key": ({"flux": {"kind": "burgers", "u_range": [0, 1], "bogus": 1}},
                         "problem.flux.bogus"),
    "unknown_measure_key": ({"operator": {"measure": {
        "kind": "fractional", "alpha": 1.0, "bogus": 1}}}, "problem.operator.measure.bogus"),
    "density_is_no_key": ({"operator": {"measure": {
        "kind": "fractional", "alpha": 1.0, "density": 1}}},
        "problem.operator.measure.density"),
    "unknown_operator_key": ({"operator": {"bogus": 1}}, "problem.operator.bogus"),
    # the data blocks: a profile's or time factor's keys are its class's fields
    "unknown_initial_key": ({"initial": {"bogus": 1}}, "problem.initial.bogus"),
    "barenblatt_in_the_plane": ({"dim": 2, "source": {"spatial": {
        "kind": "barenblatt", "time": 1.0}}}, "problem.source.spatial.kind"),
    "step_in_the_plane": ({"dim": 2, "source": {"spatial": {
        "kind": "step", "left": 1.0, "right": 0.0}}}, "problem.source.spatial.kind"),
    "barenblatt_without_time": ({"source": {"spatial": {"kind": "barenblatt"}}},
                                "problem.source.spatial.time"),
    "string_constant_value": ({"source": {"spatial": {"kind": "constant", "value": "1"}}},
                              "problem.source.spatial.value"),
    "two_number_center_on_the_line": ({"initial": {"center": [0.0, 1.0]}},
                                      "problem.initial.center"),
    "unknown_temporal_key": ({"source": {"spatial": {"kind": "constant", "value": 1.0},
                                         "temporal": {"kind": "linear", "bogus": 1}}},
                             "problem.source.temporal.bogus"),
    "unknown_temporal_kind": ({"source": {"spatial": {"kind": "constant", "value": 1.0},
                                          "temporal": {"kind": "cubic"}}},
                              "problem.source.temporal.kind"),
    # json parses NaN and +-Infinity: every number must be finite
    "infinite_T": ({"T": math.inf}, "problem.T"),
    "infinite_phi_exponent": ({"phi": {"kind": "power", "exponent": math.inf}},
                              "problem.phi.exponent"),
    "nan_initial_amplitude": ({"initial": {"amplitude": math.nan}},
                              "problem.initial.amplitude"),
    "infinite_integer_box": ({"box_half_extent": 10 ** 400}, "problem.box_half_extent"),
    # checks that need the grid or the time steps, made before any computing
    "support_radius_below_half_h": ({"operator": {"c": 1, "support_radius": 0.2, "measure": {
        "kind": "fractional", "alpha": 1.0}}}, "problem.operator.support_radius"),
    "dt_above_convective_bound": ({"flux": {"kind": "burgers", "u_range": [0, 1]},
                                   "T": 2.0, "dt": {"policy": "linear", "factor": 2.0}},
                                  "problem.dt.factor"),
}
# the same as whole-config overrides, plus the values outside the problem block
REJECTED = {name: ({"problem": override}, field)
            for name, (override, field) in PROBLEM_REJECTED.items()}
# the scalar solve's tolerance and cap and the iteration cap are constants,
# no longer keys
REJECTED["unknown_solver_key"] = ({"solver": {"scalar_tol": 1e-15}}, "solver.scalar_tol")
REJECTED["max_sweeps_is_no_key"] = ({"solver": {"max_sweeps": 1}}, "solver.max_sweeps")
REJECTED["infinite_residual_tol"] = ({"solver": {"residual_tol": math.inf}},
                                     "solver.residual_tol")
REJECTED["infinite_norm_exponent"] = ({"diagnostics": {"r": math.inf}}, "diagnostics.r")
REJECTED["tail_radius_beyond_box"] = ({"diagnostics": {"R_list": [1.5, 100.0]}},
                                      "diagnostics.R_list")
# step data has no closed-form L1 norm, which the tail bound needs
REJECTED["tail_radius_without_l1_norm"] = ({"preset": "burgers_riemann_1d",
                                            "diagnostics": {"R_list": [1.0]}},
                                           "diagnostics.R_list")
# the tail bound needs data whose tails are one-dimensional or radial about
# the origin, which an off-centre Gaussian in the plane is not
_OFF_CENTRE = {"kind": "gaussian", "amplitude": 0.5, "spread": 0.25, "center": [0.5, 0.0]}
for _name, _block in (("initial", {"initial": _OFF_CENTRE}),
                      ("source", {"source": {"spatial": _OFF_CENTRE}, "exact": None})):
    REJECTED[f"tail_radius_with_off_centre_plane_{_name}"] = (
        {"problem": {"dim": 2, **_block}, "diagnostics": {"R_list": [1.0]}},
        "diagnostics.R_list")

# a closed form named for a problem it does not solve, with the first part
# that differs: build_plan accepted each, and a study then fitted an order
# against the wrong solution.  Step data has no tail bound, so the shock
# cases read no radii
_NO_RADII = {"diagnostics": {"R_list": []}}
WRONG_REFERENCE = {
    "heat_power_phi": ({"problem": {"phi": {"kind": "power", "exponent": 2.0}}},
                       "problem.phi.kind = 'linear'"),
    "heat_slope_2": ({"problem": {"phi": {"kind": "linear", "slope": 2.0}}},
                     "problem.phi.slope = 1.0"),
    "heat_fractional_measure": ({"problem": {"operator": {"measure": {
        "kind": "fractional", "alpha": 1.0}}}}, "problem.operator.measure.kind = None"),
    "heat_source": ({"problem": {"source": {"spatial": {"kind": "constant", "value": 0.5}}}},
                    "problem.source = None"),
    "barenblatt_m_3": ({"preset": "pme_barenblatt_1d", "problem": {"phi": {"exponent": 3.0}}},
                       "problem.phi.exponent = 2.0"),
    "poisson_on_the_laplacian": ({"preset": "frac_heat_poisson_1d", "problem": {
        "operator": {"c": 1, "measure": None}}}, "problem.operator.c = 0"),
    "poisson_c_1_added": ({"preset": "frac_heat_poisson_1d", "problem": {"operator": {"c": 1}}},
                          "problem.operator.c = 0"),
    "shock_rarefaction": ({"preset": "burgers_riemann_1d", "problem": {
        "initial": {"left": 0.0, "right": 1.0}}, **_NO_RADII},
        "problem.initial.left > problem.initial.right"),
    "shock_linear_phi": ({"preset": "burgers_riemann_1d", "problem": {
        "phi": {"kind": "linear"}}, **_NO_RADII}, "problem.phi.kind = 'zero'"),
    "shock_linear_flux": ({"preset": "burgers_riemann_1d", "problem": {
        "flux": {"kind": "linear", "velocity": [1.0]}}, **_NO_RADII},
        "problem.flux.kind = 'burgers'"),
}
for _name, (_override, _part) in WRONG_REFERENCE.items():
    REJECTED[f"wrong_reference_{_name}"] = (_override, "problem.exact")


@pytest.mark.parametrize("override, field", REJECTED.values(), ids=REJECTED.keys())
def test_dry_run_rejects_what_run_rejects(tmp_path, capsys, override, field):
    cfg = write_cfg(tmp_path, merge_config(TINY_RUN, override))
    commands = [["run", "--dry-run"], ["run", "--out", str(tmp_path / "o")]]
    if field != "diagnostics.R_list":
        # study reads no tail radii
        commands.append(["study", "--levels", "2", "--out", str(tmp_path / "o")])
    if field.startswith("problem.operator"):
        commands += [["stencil", "--dry-run"], ["stencil", "--out", str(tmp_path / "s")]]
    for command in commands:
        assert main([*command, "--config", cfg]) == 2, command
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        record = json.loads(captured.err.strip().splitlines()[-1])
        assert (record["error"], record["field"]) == ("configuration", field), command
    assert not (tmp_path / "o").exists() and not (tmp_path / "s").exists()


@pytest.mark.parametrize("override, part", WRONG_REFERENCE.values(), ids=WRONG_REFERENCE.keys())
def test_a_reference_names_the_first_part_it_does_not_solve(override, part):
    with pytest.raises(ConfigurationError) as exc:
        build_plan(load_config(merge_config(TINY_RUN, override)))
    assert exc.value.field == "problem.exact" and str(exc.value).endswith(part)


@pytest.mark.parametrize("seed", [0, 3])
def test_every_preset_and_bench_operation_meets_its_reference(seed, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    configs = [{"preset": name} for name in gpme.presets.preset_names()]
    configs += [op.config for name in workloads.WORKLOADS
                for op in workloads.operations(name, seed)]
    exact = [build_plan(load_config(json.dumps(cfg))).exact for cfg in configs]
    # four presets and five bench operations name a reference
    assert sum(e is not None for e in exact) == 9


def test_run_with_tail_radii_builds_no_sup_grid(tmp_path):
    # only the cutoff's sup norms in gpme check read the fine grid of [0, 1]
    gpme.diagnostics._sup_grid.cache_clear()
    cfg = write_cfg(tmp_path, TINY_RUN)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "report.json").read_text())["equitightness"]
    assert gpme.diagnostics._sup_grid.cache_info().currsize == 0


def test_study_accepts_tail_radii_it_does_not_read(tmp_path, capsys):
    # the box half-extent shrinks from 2.25 to 2.025 as h halves, so the
    # radius fits the coarse box only; study never evaluates tail bounds
    cfg = write_cfg(tmp_path, merge_config(TINY_RUN, {
        "problem": {"h": 0.3, "box_half_extent": 2.0},
        "diagnostics": {"R_list": [2.2]}}))
    out = tmp_path / "o"
    assert main(["study", "--config", cfg, "--levels", "2", "--out", str(out)]) == 0
    assert (out / "study.csv").exists()


def test_pole_measure_reports_offending_cell(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"problem": {
        "h": 0.5, "box_half_extent": 2.0,
        "operator": {"c": 0, "measure": {"kind": "custom", "form": "pole",
                                         "exponent": 1.5, "location": 0.75}},
    }})
    assert main(["stencil", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    record, _ = last_err_record(capsys)
    assert record["error"] == "runtime"
    assert "not integrable" in record["message"]
    assert record["cell"] == [1]


def test_pole_measure_in_the_plane_reports_a_cell(tmp_path, capsys):
    # the half-cell refinement check holds in every dimension
    cfg = write_cfg(tmp_path, {"problem": {
        "dim": 2, "h": 0.5, "box_half_extent": 2.0,
        "operator": {"c": 0, "measure": {"kind": "custom", "form": "pole",
                                         "exponent": 1.5, "location": 0.75}},
    }})
    assert main(["stencil", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    record, _ = last_err_record(capsys)
    assert record["error"] == "runtime"
    assert "not integrable" in record["message"]
    assert len(record["cell"]) == 2


def test_stencil_dumps_laplacian_weights(tmp_path):
    cfg = write_cfg(tmp_path, {"problem": {
        "h": 0.5, "box_half_extent": 2.0, "operator": {"c": 1},
    }})
    out = tmp_path / "o"
    assert main(["stencil", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "stencil.csv").read_text().splitlines()
    assert rows[0] == "gamma_1,weight"
    body = sorted(tuple(r.split(",")) for r in rows[1:])
    assert body == [("-1", "4.0"), ("1", "4.0")]
    moments = json.loads((out / "moments.json").read_text())["moments"]
    assert moments["far_mass"] == 0.0


def test_run_builds_measure_stencil_once(tmp_path, monkeypatch):
    build = gpme.levy_operators.measure_stencil
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(gpme.levy_operators, "measure_stencil", counted)
    cfg = write_cfg(tmp_path, PLANE_RUN)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def _resolvent_builds(tmp_path, monkeypatch, cfg):
    """The stencils a _Resolvent is built for over one gpme run, and the
    number of CSR matrices _neighbor_matrix builds for them."""
    init, assemble = gpme.elliptic_solver._Resolvent.__init__, gpme.elliptic_solver._neighbor_matrix
    calls, matrices = [], []

    def counted(self, stencil, shape):
        calls.append(stencil)
        init(self, stencil, shape)

    def counted_matrix(*args, **kwargs):
        matrices.append(args[0])
        return assemble(*args, **kwargs)

    monkeypatch.setattr(gpme.elliptic_solver._Resolvent, "__init__", counted)
    monkeypatch.setattr(gpme.elliptic_solver, "_neighbor_matrix", counted_matrix)
    assert main(["run", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 0
    return calls, len(matrices)


def test_run_builds_neighbor_operator_once(tmp_path, monkeypatch):
    # a dense kernel's operator and its spectrum are built once for the
    # escape weights, every step's solve and the tail certificate at each
    # of the preset's radii; with c = 0 it has no CSR part
    calls, matrices = _resolvent_builds(tmp_path, monkeypatch, {
        "preset": "frac_heat_poisson_1d", "problem": {"h": 0.125, "T": 0.25}})
    assert len(calls) == 1 and matrices == 0
    assert calls[0].n_offsets > gpme.elliptic_solver._KERNEL_THRESHOLD


def test_pure_convection_run_builds_neighbor_operator_once(tmp_path, monkeypatch):
    # with phi = 0 every step's resolvent is w = rho, whose residual needs
    # no operator; the Laplacian's one band serves the escape weights, and
    # the line builds no CSR matrix
    calls, matrices = _resolvent_builds(tmp_path, monkeypatch, {
        "preset": "burgers_riemann_1d", "problem": {"h": 0.125, "T": 0.25}})
    assert len(calls) == 1 and matrices == 0


def _load_bench_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracing_binds_entry_points(tmp_path):
    # the traced benchmark run replaces these attributes and binds their
    # arguments by name; a renamed function or parameter must fail here
    tracing = _load_bench_tracing()
    signatures = {}
    for module_name, attr, name in tracing.ENTRY_POINTS:
        fn = getattr(importlib.import_module(module_name), attr)
        assert callable(fn), f"{module_name}.{attr}"
        signatures.setdefault(name, []).append(inspect.signature(fn))

    reads = {name: set() for name in tracing._COUNTS}

    def recording(name, count):
        class Reads(dict):
            def __getitem__(self, key):
                reads[name].add(key)
                return super().__getitem__(key)

        return lambda args, result: count(Reads(args), result)

    for name, count in list(tracing._COUNTS.items()):
        tracing._COUNTS[name] = recording(name, count)
    tracer = tracing.Tracer()
    cfg = write_cfg(tmp_path, PLANE_RUN)
    with tracer.recording("run"):
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    assert set(tracing._COUNTS) <= {s["name"] for s in tracer.spans}
    # evolution.step calls solve_ep through gpme.evolution once per step
    [traced_run] = [s for s in tracer.spans if s["name"] == "evolution.run"]
    solves = [s for s in tracer.spans if s["name"] == "elliptic_solver.solve_ep"]
    assert len(solves) == traced_run["steps"] > 0
    for name, keys in reads.items():
        for sig in signatures[name]:
            assert keys <= set(sig.parameters), (name, keys - set(sig.parameters))


def test_bench_setup_probe_runs(tmp_path):
    # the benchmark times set-up with this script in a fresh interpreter,
    # which calls load_config, build_plan, build_stencil, the projections
    # and node_count by name; a rename must fail here
    probe = Path(__file__).resolve().parents[1] / "bench" / "setup_probe.py"
    run = {"preset": "frac_heat_poisson_1d", "problem": {"h": 0.25, "T": 0.25}}
    configs = tmp_path / "configs.json"
    configs.write_text(json.dumps([run]))
    # the probe puts src on its own path
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(probe), str(configs)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["import_s"] > 0.0
    [row] = line["configs"]
    assert row["seconds"] > 0.0
    plan = build_plan(load_config(run))
    stencil = plan.problem.operator.build_stencil(plan.grid)
    assert (row["nodes"], row["steps"], row["offsets"]) == (
        plan.grid.node_count, plan.time_grid.n_steps, stencil.n_offsets)
    assert row["offsets"] > 0


def test_every_export_resolves():
    # a deleted name must not leave a dangling lazy export behind
    for name in gpme.__all__:
        getattr(gpme, name)


def _public(tree):
    """The names of a module's __all__ when it is a literal list."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
            return ast.literal_eval(node.value)
    return []


def _loads(tree):
    """(name, top-level definition it sits in) for every name or attribute
    the module loads."""
    out = set()
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add((node.id, owner))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add((node.attr, owner))
    return out


def test_every_public_name_is_used_in_the_package():
    # the package is what its commands reach: a name in a module's __all__
    # is loaded somewhere in src/gpme outside its own definition
    # (gpme/__init__.py re-exports names from these lists)
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(gpme.__file__).parent.glob("*.py")}
    loads = [(name, (module, owner))
             for module, tree in trees.items() for name, owner in _loads(tree)]
    unused = [f"{module}.{name}" for module, tree in trees.items() for name in _public(tree)
              if all(n != name or where == (module, name) for n, where in loads)]
    assert unused == []


def test_the_stored_operator_is_read_in_one_module():
    # the operator's stored form, up to _KERNEL_THRESHOLD offsets its
    # shifted slices (and the line's band), and an rFFT spectrum on
    # circular lengths above and for every conjugate-gradient solve, is
    # chosen, kept and applied by elliptic_solver._Resolvent alone
    stored = {"spectrum", "lengths", "shifts", "_KERNEL_THRESHOLD", "_circular",
              "_next_fast_len"}
    readers = {f"{path.stem}.{name}"
               for path in Path(gpme.__file__).parent.glob("*.py")
               if path.stem != "elliptic_solver"
               for name, _ in _loads(ast.parse(path.read_text())) if name in stored}
    assert readers == set()


def test_report_json_identical_across_out_dirs(tmp_path):
    cfg = write_cfg(tmp_path, TINY_RUN)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_thread_count_does_not_change_bytes(tmp_path):
    # the dense-kernel runs and the plane take conjugate-gradient steps,
    # whose inner products must not change with the thread count; the one
    # step on 12289 nodes of the line, and the one on the plane's 16641 for
    # phi = u^2 and for a linear phi, take them past the length at which
    # OpenBLAS splits a dot product.
    # The Stefan run takes banded LU steps on 1537 nodes (LAPACK dgtsv, a
    # tridiagonal band), and the run whose measure is cut at 4h takes them
    # on a band of half-width 4 (dgbsv).  The coarse plane under its
    # fractional measure applies a dense kernel by numpy's 2-D rFFT.
    runs = {"tiny": TINY_RUN,
            "frac_coarse": {"preset": "frac_heat_poisson_1d",
                            "problem": {"h": 0.125, "T": 0.125}},
            "frac_long": {"preset": "frac_heat_poisson_1d",
                          "problem": {"h": 1.0 / 128, "T": 1.0 / 256}},
            "frac_band_4": {"preset": "frac_heat_poisson_1d",
                            "problem": {"h": 0.125, "T": 0.125,
                                        "operator": {"support_radius": 0.5}}},
            "stefan_fine": {"preset": "stefan_1d",
                            "problem": {"h": 1.0 / 128, "T": 1.0 / 64}},
            "plane_dense": PLANE_RUN,
            # m = 2 under the Laplacian alone, on the CSR path
            "plane_fine": merge_config(PLANE_RUN, {"problem": {
                "operator": {"measure": None}, "h": 1.0 / 16, "T": 1.0 / 32}}),
            # linear heat under the Laplacian alone: shifted slices and the
            # circulant preconditioner on the same 16641 nodes
            "plane_fine_linear": merge_config(PLANE_RUN, {"problem": {
                "operator": {"measure": None}, "phi": {"kind": "linear", "slope": 1.0},
                "h": 1.0 / 16, "T": 1.0 / 32}})}
    args = [write_cfg(tmp_path, run, name=f"{name}.json") for name, run in runs.items()]
    for threads in ("1", "4"):
        # one process per thread count runs them all, and the field writer
        # forks at every size, so its bytes are checked against the thread
        # count too
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, gpme.grid_field; gpme.grid_field._FORK_MIN_VALUES = 0; "
             "from gpme.cli import main; "
             "sys.exit(max([main(['run', '--config', cfg, '--out', f'{cfg}_t{sys.argv[1]}']) "
             "for cfg in sys.argv[2:]]))",
             threads, *args],
            env=dict(os.environ, GPME_THREADS=threads), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    for name, cfg in zip(runs, args):
        outs = [{p.name: p.read_bytes() for p in sorted(Path(f"{cfg}_t{threads}").iterdir())}
                for threads in ("1", "4")]
        assert outs[0] == outs[1], name


def test_cli_does_not_import_scipy_signal():
    # scipy.signal alone took about 0.6 s of every run's set-up
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gpme.cli, gpme.evolution; print('scipy.signal' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_SETUP_IMPORTS_NO_SCIPY = """
import json, sys
import gpme.cli
from gpme import (config, diagnostics, elliptic_solver, evolution, grid_field,
                  levy_operators)
from gpme.cli import main
from gpme.presets import preset_names

runs = [{"preset": name} for name in preset_names()] + [json.loads(sys.argv[1])]
for run in runs:
    plan = config.build_plan(config.load_config(json.dumps(run)))
    plan.problem.operator.build_stencil(plan.grid)
    grid_field.project_cell_average(plan.problem.initial, plan.grid)
    grid_field.project_source(plan.problem.source, plan.grid, plan.time_grid)
codes = [main(["stencil", "--config", json.dumps({"preset": "frac_heat_poisson_1d"}),
               "--out", sys.argv[2]]),
         main(["run", "--config", json.dumps({"preset": "heat_gaussian_1d",
                                              "problem": {"h": -1.0}}),
               "--out", sys.argv[3]])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_set_up_imports_no_scipy(tmp_path):
    # any scipy import costs a shared base of about 0.25 s, more than the
    # whole set-up of a run on the line: loading the config, building the
    # plan and the stencil, projecting the data, a stencil file and a
    # config that fails validation import none of it
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_IMPORTS_NO_SCIPY, json.dumps(PLANE_RUN),
         str(tmp_path / "stencil"), str(tmp_path / "invalid")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line == {"codes": [0, 2], "scipy": []}


_PEAK_RSS_OF_A_RUN = """
import json, resource, sys
from gpme.cli import main

steps, h = int(sys.argv[1]), 1.0 / 512
run = {"preset": "heat_gaussian_1d",
       "problem": {"h": h, "T": steps * h / 2, "box_half_extent": 16.0,
                   "dt": {"policy": "linear", "factor": 0.5}},
       "diagnostics": {"R_list": [], "save_stride": 100000}}
assert main(["run", "--config", json.dumps(run), "--out", sys.argv[2]]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def test_run_memory_does_not_grow_with_its_knot_count(tmp_path):
    # 16 385 nodes over 400 steps and over 1, each in a fresh interpreter:
    # the run holds its current and previous knot and the writer its two
    # saved ones, so the peaks agree within a few MB, where the 401 knots
    # alone are 52 MB
    peaks = []
    for steps in (400, 1):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_OF_A_RUN, str(steps), str(tmp_path / str(steps))],
            capture_output=True, text=True, env={**os.environ, "GPME_THREADS": "1"})
        assert proc.returncode == 0, proc.stderr
        peaks.append(float(proc.stdout.split()[-1]))
    assert peaks[0] - peaks[1] < 4.0, peaks


_RUN_IMPORTS_NO_QUADRATURE = """
import json, sys
from gpme.cli import main
from gpme.presets import preset_names

runs = [{"preset": name} for name in preset_names()] + json.loads(sys.argv[1])
codes = [main(["run", "--config", json.dumps(run), "--out", f"{sys.argv[2]}/{i}"])
         for i, run in enumerate(runs)]
print(json.dumps({"codes": codes,
                  "loaded": sorted(m for m in sys.modules
                                   if m in ("scipy.integrate", "scipy.optimize",
                                            "scipy.spatial"))}))
"""

# a split measure whose stencil reaches only 0.625 < 1: its far mass is the
# closed form below the knee
SPLIT_RUN = {"preset": "heat_gaussian_1d", "problem": {
    "h": 0.25, "T": 0.1, "operator": {"c": 0, "support_radius": 0.5, "measure": {
        "kind": "split", "alpha": 1.5, "beta": 0.5, "scale": 0.5,
        "truncation": None, "weight_rule": "cell_mass"}}, "exact": None}}


def test_run_imports_no_scipy_quadrature(tmp_path):
    # a run's tail certificate takes closed-form tails and a numpy
    # Gauss-Kronrod band: scipy.integrate, and the optimize and spatial
    # modules it pulls in, stay unloaded through every preset's run
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_IMPORTS_NO_QUADRATURE,
         json.dumps([PLANE_RUN, SPLIT_RUN]), str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line == {"codes": [0] * (len(gpme.presets.preset_names()) + 2), "loaded": []}


_RUN_IMPORT_MAP = """
import json, sys
from gpme.cli import main

def loaded(runs):
    codes = [main(["run", "--config", json.dumps(run), "--out", f"{sys.argv[1]}/{i}"])
             for i, run in enumerate(runs)]
    return {"codes": codes, "scipy": sorted(m for m in ("scipy.linalg", "scipy.sparse",
                                                          "scipy.fft", "scipy.special")
                                            if m in sys.modules),
            "any": any(m.split(".")[0] == "scipy" for m in sys.modules)}

print(json.dumps([loaded(runs) for runs in json.loads(sys.argv[2])]))
"""


def _import_map(tmp_path, groups):
    """For each group of run configs, run in turn in one fresh
    interpreter, the exit codes and the scipy modules loaded so far."""
    proc = subprocess.run([sys.executable, "-c", _RUN_IMPORT_MAP, str(tmp_path),
                           json.dumps(groups)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_line_runs_import_only_the_scipy_their_solve_calls(tmp_path):
    # a dense kernel goes through numpy.fft, the line's short stencil is
    # applied by shifted slices, and phi = 0 solves nothing: those runs
    # load no module of scipy.  LAPACK comes in at the first banded LU,
    # and the line never loads scipy.sparse, scipy.fft or scipy.special,
    # which held about 26 MB of a line run's 64 MB peak
    def runs(*names):
        return [{"preset": name, "problem": {"h": 0.25, "T": 0.25}} for name in names]
    assert _import_map(tmp_path, [
        runs("burgers_riemann_1d", "frac_heat_poisson_1d", "cde_burgers_frac_1d"),
        runs("heat_gaussian_1d")]) == [
        {"codes": [0, 0, 0], "scipy": [], "any": False},
        {"codes": [0], "scipy": ["scipy.linalg"], "any": True}]


def test_plane_runs_import_only_the_scipy_their_solve_calls(tmp_path):
    # the plane's Laplacian is applied by shifted slices, and a linear
    # phi's constant-coefficient Newton systems are preconditioned by the
    # circulant through numpy.fft: that run loads no module of scipy.
    # phi = u^2 gives variable coefficients, whose Jacobi-PCG builds the
    # CSR matrix, so scipy.sparse comes in, and scipy.linalg does not
    laplacian = merge_config(PLANE_RUN, {"problem": {"operator": {"measure": None}}})
    linear = merge_config(laplacian, {"problem": {"phi": {"kind": "linear", "slope": 1.0},
                                                  "exact": "heat_gaussian"}})
    assert _import_map(tmp_path, [[linear], [laplacian]]) == [
        {"codes": [0], "scipy": [], "any": False},
        {"codes": [0], "scipy": ["scipy.sparse"], "any": True}]


def test_constant_data_record_an_infinite_tail(tmp_path):
    # not integrable: the data's piece of the bound is infinite, not the
    # mass of a quadrature window
    cfg = gpme.presets.get_preset("heat_gaussian_1d")
    cfg["problem"].update(h=0.5, T=0.1, exact=None, initial={"kind": "constant", "value": 0.5})
    cfg["diagnostics"]["R_list"] = [1.5]
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out",
                 str(tmp_path / "o")]) == 0
    eq = json.loads((tmp_path / "o" / "report.json").read_text())["equitightness"]
    assert [e["u0_piece"] for e in eq] == [math.inf]
