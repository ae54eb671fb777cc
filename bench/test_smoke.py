"""Smoke test of the benchmark on coarse meshes: output schema, the
correctness gate, seeded inputs and the refusal to run without gpme.

    python -m pytest bench
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from gate import check_run  # noqa: E402
from workloads import DEFAULT_SEED, JITTER, WORKLOADS, operations  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_result_line_schema(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, details["failures"]
    assert result["attempted"] == len(operations(workload, 3)) * (1 + trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    assert details["seed"] == 3 and details["environment"]["GPME_THREADS"] == "1"
    assert set(details["inputs"]) == {op.name for op in operations(workload, 3)}
    if trace:
        m = {name: metric["value"] for name, metric in result["metrics"].items()}
        assert m["elliptic_solver.calls"] == m["evolution.steps"]
        assert m["levy_operators.builds_per_run"] == (2.0 if workload != "local_1d" else 0.0)


def _run_once(op, out):
    from gpme import cli

    return cli.main(["run", "--config", json.dumps(op.config), "--out", str(out)])


def test_gate_passes_a_good_run_and_catches_tampering(tmp_path, capsys):
    op = operations("measure_2d", 5, smoke=True)[1]
    assert _run_once(op, tmp_path) == 0
    failures, facts = check_run(op, tmp_path, 0)
    assert failures == [] and facts["l1_err"] > 0.0

    assert check_run(op, tmp_path, 1)[0] == ["exit code 1"]

    field = tmp_path / f"field_{facts['steps']:05d}.csv"
    rows = field.read_text().splitlines()
    rows[1] = rows[1].rsplit(",", 1)[0] + ",-1.0"
    field.write_text("\n".join(rows) + "\n")
    reasons = " ".join(check_run(op, tmp_path, 0)[0])
    assert "symmetry" in reasons

    report = json.loads((tmp_path / "report.json").read_text())
    report["run"]["identity_gap"][-1] = 1.0
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert any("ledger gap" in r for r in check_run(op, tmp_path, 0)[0])


def test_gate_checks_the_shock_position(tmp_path, capsys):
    op = operations("nonlocal_1d", 5, smoke=True)[2]
    assert _run_once(op, tmp_path) == 0
    assert check_run(op, tmp_path, 0)[0] == []
    moved = dataclasses.replace(op, shock_position=op.shock_position + 1.0)
    assert any("shock" in r for r in check_run(moved, tmp_path, 0)[0])


def test_default_seed_reproduces_presets_and_others_jitter():
    for workload in WORKLOADS:
        assert operations(workload, 11) == operations(workload, 11)
        assert operations(workload, 11) != operations(workload, 12)
    for op in operations("local_1d", DEFAULT_SEED) + operations("nonlocal_1d", DEFAULT_SEED):
        assert op.config == {"preset": op.name, "problem": {"h": 1.0 / 64, "T": 0.5}}
    heat = operations("local_1d", 11)[0].config["problem"]["initial"]
    assert abs(heat["amplitude"] * math.sqrt(math.pi) - 1.0) <= JITTER
    assert abs(heat["spread"] / 0.25 - 1.0) <= JITTER


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = _bench("--workload", "local_1d", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
