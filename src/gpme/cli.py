"""Command line interface: run | study | check | stencil.

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration or
usage.  Failures print one machine-readable JSON record to stderr.  All
file outputs use shortest round-trip float formatting and fixed row
order, so identical configs produce byte-identical artifacts.

The GPME_THREADS environment variable caps BLAS/OpenMP threading; it is
applied before any numeric module is imported and never changes results,
only speed.  Keep imports of the compute modules inside functions so the
cap can land first.  The compute modules in turn import each scipy
submodule inside the function that calls it, and take erf, erfc and gamma
from ``math``: loading a config, building the plan, the stencil and the
projected data, ``stencil`` and a config that fails validation import no
scipy, whose first import costs more than that whole set-up on the line.
A ``run`` imports only the scipy its solve calls: a dense kernel goes
through ``numpy.fft``, a short stencil is applied by shifted slices, the
line's loads ``scipy.linalg`` at its first banded LU, and every
constant-coefficient system (a linear phi) is preconditioned by its
circulant through ``numpy.fft``.  Only the first variable-coefficient
Newton system of a short stencil in N >= 2 dimensions loads
``scipy.sparse``, for its CSR matrix.  So a run with a dense kernel or
phi = 0, and a plane run with a linear phi, import no scipy.
Its tail certificate takes the data's tails in closed form and the
cutoff band by ``profiles.adaptive_quad``.
``scipy.integrate`` is left to ``check`` and to the far mass of a custom
measure.
Once the saved fields hold 32 768 values or more, `run` forks one child
before the solve, which writes each saved knot's field CSV while the
parent solves the later steps (see `grid_field.FieldWriter`);
GPME_THREADS does not govern that, and the bytes written are those of
one process.  `run` streams each knot to the field writer, which holds
at most its ring of ``grid_field._RING_SLOTS`` knots (or, without a
child, the few small saved ones), and to the per-radius tail reduction
``diagnostics.KnotTails``; the solve holds its current and previous
knot.  A run that fails leaves no field file.  An I/O failure, such as
an output path that is a file, is a runtime failure (exit 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _apply_thread_cap():
    threads = os.environ.get("GPME_THREADS")
    if not threads:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, threads)


def _emit_error(kind, exc):
    record = {"error": kind, "message": str(exc)}
    field = getattr(exc, "field", None)
    if field:
        record["field"] = field
    cell = getattr(exc, "cell", None)
    if cell is not None:
        record["cell"] = list(cell)
    # a stalled solve says where it stopped and how far it got
    for key in ("step", "residual", "sweeps"):
        value = getattr(exc, key, None)
        if value is not None:
            record[key] = value
    print(json.dumps(record), file=sys.stderr)


def _out_dir(args, cfg):
    out = args.out if getattr(args, "out", None) else cfg.get("output_dir")
    if out is None:
        out = "gpme_out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n")


def cmd_run(args):
    from .config import build_plan, load_config
    from .diagnostics import KnotTails, check_cutoff_radius, data_bounds, equitightness_check
    from .errors import ConfigurationError, DataError
    from .evolution import run
    from .grid_field import FieldWriter, _format_float

    cfg = load_config(args.config)
    plan = build_plan(cfg)
    R_list, r = plan.diagnostics["R_list"], plan.diagnostics["r"]
    for R in R_list:
        check_cutoff_radius(R, plan.grid, "diagnostics.R_list")
    if R_list:
        # the tail bound reads the data's norms and radial tails: ask for
        # them before any computing
        try:
            data_bounds(plan.problem, plan.time_grid.final_time)
        except DataError as e:
            raise ConfigurationError(f"a tail radius needs the data's norms and tails: {e}",
                                     field="diagnostics.R_list") from e
    if args.dry_run:
        print(json.dumps(cfg, indent=2))
        return 0
    # an unusable output path fails here, before the solve, not after it
    out = _out_dir(args, cfg)
    stride = plan.diagnostics["save_stride"]
    n_knots = plan.time_grid.n_steps + 1
    saved = sorted(set(range(0, n_knots, stride)) | {n_knots - 1})
    tails = KnotTails(plan.grid, plan.time_grid, R_list, r)
    # the fields are written while the later steps are solved and the tail
    # certificates computed; every one is in place when the block is left
    with FieldWriter({j: out / f"field_{j:05d}.csv" for j in saved},
                     plan.grid.shape) as writer:
        def on_knot(j, u):
            # each knot goes to the writer and to the tail reduction, and
            # the run keeps none
            writer.knot(j, u)
            tails.knot(j, u)

        report = run(plan.problem, plan.grid, plan.time_grid, config=plan.solver,
                     on_knot=on_knot)
        eq_reports = [equitightness_check(tails, plan.problem, R=R, r=r,
                                          resolvent=report.resolvent) for R in R_list]
    lines = ["R,lhs,rhs,pass"]
    for eq in eq_reports:
        flag = "true" if eq.passed else "false"
        lines.append(f"{_format_float(eq.R)},{_format_float(eq.lhs)},"
                     f"{_format_float(eq.rhs_total)},{flag}")
    (out / "equitightness.csv").write_text("\n".join(lines) + "\n")

    _write_json(out / "report.json", {
        "config": cfg,
        "run": report.to_json_dict(),
        "equitightness": [eq.to_json_dict() for eq in eq_reports],
        "saved_knots": [int(j) for j in saved],
    })

    gap = max(abs(float(g)) for g in report.identity_gap)
    print(f"steps {plan.time_grid.n_steps}, final mass {float(report.mass[-1])!r}, "
          f"max ledger gap {gap!r}")
    for eq in eq_reports:
        print(f"tail bound R={eq.R:g}: lhs {eq.lhs!r} <= rhs {eq.rhs_total!r} "
              f"-> {'pass' if eq.passed else 'FAIL'}")
    return 0


def cmd_study(args):
    from .config import build_plan, load_config
    from .diagnostics import fitted_order, study_errors
    from .evolution import run
    from .grid_field import _format_float

    cfg = load_config(args.config)
    if args.levels is None or args.levels < 2:
        from .errors import ConfigurationError
        raise ConfigurationError("study needs --levels >= 2", field="levels")
    # the coarsest plan checks every value; finer levels only halve h
    coarse = build_plan(cfg)
    if args.dry_run:
        print(json.dumps(cfg, indent=2))
        return 0

    # an unusable output path fails here, before the first solve
    out = _out_dir(args, cfg)
    h0 = cfg["problem"]["h"]
    r = cfg["diagnostics"]["r"]
    trajs = []
    for level in range(args.levels):
        h = h0 / 2 ** level
        plan = coarse if level == 0 else build_plan(cfg, h=h)
        report = run(plan.problem, plan.grid, plan.time_grid, config=plan.solver)
        trajs.append(report.trajectory)
        print(f"level {level}: h {h!r}, steps {plan.time_grid.n_steps}")

    exact = coarse.exact
    errors = study_errors(trajs, exact, r)
    rows = [(level, h0 / 2 ** level, err) for level, err in enumerate(errors)]
    order = fitted_order([h for _, h, _ in rows], errors)

    lines = ["level,h,error"]
    for level, h, err in rows:
        lines.append(f"{level},{_format_float(h)},{_format_float(err)}")
    (out / "study.csv").write_text("\n".join(lines) + "\n")
    _write_json(out / "study.json", {
        "config": cfg,
        "levels": [{"level": level, "h": h, "error": err} for level, h, err in rows],
        "order": order,
        "reference": "exact" if exact is not None else "finest",
    })
    for level, h, err in rows:
        print(f"level {level}: h {h!r} error {err!r}")
    print(f"fitted order {order!r}")
    return 0


def cmd_check(args):
    from .checks import run_suite

    results = run_suite(args.suite)
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_stencil(args):
    from .config import build_operator, load_stencil_config
    from .grid_field import UniformGrid
    from .levy_operators import check_moments, write_stencil_csv

    cfg = load_stencil_config(args.config)
    p = cfg["problem"]
    grid = UniformGrid.from_box(p["dim"], p["h"], p["box_half_extent"])
    operator = build_operator(p["operator"])
    operator.check_grid(grid)
    if args.dry_run:
        print(json.dumps(cfg, indent=2))
        return 0
    # dump the weights of the whole operator: the local part contributes
    # its 1/h^2 nearest-neighbor weights alongside the measure cells
    stencil = operator.build_stencil(grid)

    measure = operator.measure
    if measure is None:
        report = check_moments(stencil, variant="A")
    elif measure.alpha is not None:
        R_list = [R for R in cfg["diagnostics"]["R_list"] if R > 1.0] or [2.0, 4.0, 8.0]
        report = check_moments(stencil, variant="A_double_prime",
                               alpha=measure.alpha, R_list=R_list)
    else:
        report = check_moments(stencil, variant="A_prime")

    out = _out_dir(args, cfg)
    write_stencil_csv(out / "stencil.csv", stencil)
    _write_json(out / "moments.json", {"config": cfg, "moments": report.to_json_dict()})
    print(f"{stencil.n_offsets} offsets, total weight {stencil.total_weight!r}, "
          f"far remainder {stencil.tail_mass_beyond_support!r}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gpme",
        description="Finite-difference schemes for generalized porous medium "
                    "equations with local and integro-differential diffusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one configuration and write artifacts")
    run_p.add_argument("--config", required=True,
                       help="JSON config path or preset name")
    run_p.add_argument("--out", help="output directory (default: config output_dir)")
    run_p.add_argument("--dry-run", action="store_true",
                       help="echo the validated config and exit")
    run_p.set_defaults(fn=cmd_run)

    study_p = sub.add_parser("study", help="refinement study across halved meshes")
    study_p.add_argument("--config", required=True)
    study_p.add_argument("--out", help="output directory")
    study_p.add_argument("--levels", type=int, required=True,
                         help="number of refinement levels (>= 2)")
    study_p.add_argument("--dry-run", action="store_true")
    study_p.set_defaults(fn=cmd_study)

    check_p = sub.add_parser("check", help="run a property suite")
    check_p.add_argument("suite",
                         help="moments | resolvent | evolution | equitightness | all")
    check_p.set_defaults(fn=cmd_check)

    st_p = sub.add_parser("stencil", help="dump stencil weights and moment sums")
    st_p.add_argument("--config", required=True)
    st_p.add_argument("--out", help="output directory")
    st_p.add_argument("--dry-run", action="store_true")
    st_p.set_defaults(fn=cmd_stencil)
    return parser


def main(argv=None):
    _apply_thread_cap()
    args = build_parser().parse_args(argv)
    from .errors import ConfigurationError, GpmeError
    try:
        return args.fn(args)
    except ConfigurationError as e:
        _emit_error("configuration", e)
        return 2
    except (GpmeError, OSError) as e:
        _emit_error("runtime", e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
