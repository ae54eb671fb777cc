"""gpme benchmark: run one workload's `gpme run` operations in process,
back to back (one client, closed loop, GPME_THREADS=1), check every
output and print the metrics named in BENCHMARK.json.

    python3 bench/run.py --workload local_1d --seed 0 --seconds 15 --trace 0

Each operation is `gpme.cli.main(["run", "--config", <json>, "--out", <dir>])`.
Whole passes over the workload's operations repeat until --seconds have
gone by, at least once.  --trace 0 reports the end-to-end metrics; set-up
is timed in fresh interpreters (bench/setup_probe.py).  --trace 1 runs
untraced and traced passes in turn and reports the per-layer metrics.
Both times are rescaled to the host speed measured while they were taken
(bench/reference.py); the raw seconds are in the details line.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
details (seed, environment, input sizes, per-operation figures).  The full
result, and the spans of a traced run, go to bench/results/.  The exit
code is 0 whenever the benchmark ran, whether or not the outputs passed.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("GPME_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 5


def parse_args(argv):
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="coarse meshes and short runs, for the smoke test")
    return parser.parse_args(argv)


def environment():
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "GPME_THREADS": os.environ["GPME_THREADS"]}


def probe_setup(ops, work, reps, speed):
    """Set-up seconds of each of reps fresh interpreters, and the input
    sizes the first one reported."""
    configs = work / "configs.json"
    configs.write_text(json.dumps([op.config for op in ops]))
    totals = []
    sizes = None
    for _ in range(reps):
        speed.sample()
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(configs)],
                              capture_output=True, text=True, check=True)
        row = json.loads(proc.stdout.splitlines()[-1])
        totals.append(row["import_s"] + sum(c["seconds"] for c in row["configs"]))
        if sizes is None:
            sizes = {op.name: {k: c[k] for k in ("nodes", "steps", "offsets")}
                     for op, c in zip(ops, row["configs"])}
    return totals, sizes


class Session:
    """Runs operations and keeps every figure the result is built from."""

    def __init__(self, cli, ops, work, speed, tracer=None):
        self.cli = cli
        self.ops = ops
        self.work = work
        self.speed = speed
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.times = {op.name: [] for op in ops}
        self.traced_times = {op.name: [] for op in ops}
        self.facts = {}
        self.traced_passes = []

    def _call(self, op, out, traced):
        argv = ["run", "--config", json.dumps(op.config), "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            t0 = perf_counter()
            try:
                if traced:
                    with self.tracer.recording(f"{op.name}#{self.attempted}"):
                        code = self.cli.main(argv)
                else:
                    code = self.cli.main(argv)
            except Exception as exc:  # a crash fails this operation, not the benchmark
                code = f"exception {exc!r}"
            elapsed = perf_counter() - t0
        return code, elapsed, stderr.getvalue().strip()

    def run_pass(self, traced=False):
        from gate import check_run

        first_span = len(self.tracer.spans) if traced else 0
        written = {"grid_field.bytes_written": 0, "cli.report_bytes": 0}
        for op in self.ops:
            out = self.work / op.name
            self.speed.sample()
            code, elapsed, err = self._call(op, out, traced)
            self.attempted += 1
            (self.traced_times if traced else self.times)[op.name].append(elapsed)
            try:
                failures, facts = check_run(op, out, code)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                failures, facts = [f"outputs unreadable: {exc!r}"], {}
            if failures:
                self.failures.append({"operation": op.name, "reasons": failures,
                                      "stderr": err})
            if facts:
                self.facts.setdefault(op.name, facts)
            if out.is_dir():
                written["grid_field.bytes_written"] += sum(
                    f.stat().st_size for f in out.glob("field_*.csv"))
                report = out / "report.json"
                written["cli.report_bytes"] += report.stat().st_size if report.exists() else 0
            shutil.rmtree(out, ignore_errors=True)
        if traced:
            self.traced_passes.append((first_span, len(self.tracer.spans), written))

    def pass_wall(self, times):
        """Seconds per pass: the sum over operations of each one's median."""
        return sum(statistics.median(t) for t in times.values())


def end_to_end(session, setup_totals, setup_speed):
    """Times are rescaled to reference host speed (see reference.py)."""
    l1 = [f["l1_err"] for f in session.facts.values() if f.get("l1_err") is not None]
    return {
        "wall_s": session.pass_wall(session.times) * session.speed.factor(),
        "setup_s": statistics.median(setup_totals) * setup_speed.factor(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # 0 only when every exactly solvable operation failed (correct is false)
        "l1_err": max(l1, default=0.0),
    }


def per_layer(session):
    from tracing import layer_summary

    passes = []
    for lo, hi, written in session.traced_passes:
        summary = layer_summary(session.tracer.spans[lo:hi])
        summary.update(written)
        passes.append(summary)
    # counts repeat exactly from pass to pass; times are medians over passes
    out = dict(passes[0])
    for key in out:
        if key.endswith("_s"):
            out[key] = statistics.median(p[key] for p in passes)
    out["trace.overhead_s"] = (session.pass_wall(session.traced_times)
                               - session.pass_wall(session.times))
    return out


def result_line(metrics, spec, session):
    declared = spec["per_layer" if session.tracer else "end_to_end"]
    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {names}")
    failed = len(session.failures)
    return {"correct": failed == 0, "attempted": session.attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "gpme" / "cli.py").is_file():
        print(f"gpme sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from gpme import cli
    from reference import HostSpeed
    from tracing import Tracer
    from workloads import operations

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = operations(args.workload, args.seed, smoke=args.smoke)
    work = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    results = BENCH / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(exist_ok=True)
    try:
        # import the compute modules and fill lazy caches on coarse meshes
        Session(cli, operations(args.workload, args.seed, smoke=True), work,
                HostSpeed()).run_pass()
        setup_speed = HostSpeed()
        reps = 1 if args.trace or args.smoke else SETUP_REPS
        setup_totals, sizes = probe_setup(ops, work, reps, setup_speed)
        session = Session(cli, ops, work, HostSpeed(), Tracer() if args.trace else None)
        t0 = perf_counter()
        while True:
            session.run_pass()
            if args.trace:
                session.run_pass(traced=True)
            if perf_counter() - t0 >= args.seconds:
                break
        session.speed.sample()
        metrics = (per_layer(session) if args.trace
                   else end_to_end(session, setup_totals, setup_speed))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "environment": environment(), "inputs": sizes,
        "samples_s": session.times,
        "raw_wall_s": session.pass_wall(session.times),
        "raw_setup_samples_s": setup_totals,
        "wall_speed_factor": session.speed.factor(),
        "setup_speed_factor": setup_speed.factor(),
        "reference_samples_s": {"setup": setup_speed.samples, "loop": session.speed.samples},
        "operations": {name: dict(session.facts.get(name, {}),
                                  median_s=statistics.median(session.times[name]))
                       for name in session.times},
        "failures": session.failures,
    }
    line = result_line(metrics, spec, session)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(dict(details, result=line), indent=2))
    if args.trace:
        with open(results / f"{stem}-spans.jsonl", "w") as fh:
            for span in session.tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
