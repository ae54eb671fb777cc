"""Time gpme's set-up in a fresh interpreter and print it as one JSON line.

Set-up is the import of the CLI and its compute modules, then for each
config load_config, build_plan, OperatorSpec.build_stencil and the
projection of the initial data and source.

    python3 bench/setup_probe.py CONFIGS.json

CONFIGS.json holds a list of config objects as `gpme run --config` takes
them.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main(argv):
    configs = json.loads(Path(argv[0]).read_text())
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    t0 = perf_counter()
    import gpme.cli  # noqa: F401
    from gpme import (config, diagnostics, elliptic_solver, evolution,  # noqa: F401
                      grid_field, levy_operators)
    import_s = perf_counter() - t0
    rows = []
    for cfg in configs:
        t0 = perf_counter()
        plan = config.build_plan(config.load_config(json.dumps(cfg)))
        stencil = plan.problem.operator.build_stencil(plan.grid)
        grid_field.project_cell_average(plan.problem.initial, plan.grid)
        grid_field.project_source(plan.problem.source, plan.grid, plan.time_grid)
        rows.append({"seconds": perf_counter() - t0, "nodes": plan.grid.node_count,
                     "steps": plan.time_grid.n_steps, "offsets": stencil.n_offsets})
    print(json.dumps({"import_s": import_s, "configs": rows}))


if __name__ == "__main__":
    main(sys.argv[1:])
