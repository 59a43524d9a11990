"""Benchmark of fpcontrol: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload forward-21 --seed 1 --seconds 2 --trace 0

runs one workload for about ``--seconds`` seconds of whole operations
(at least one) and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; ``--trace 1`` runs
the same loop with spans recorded around every call into the program
and reports the per-layer metrics instead, writing the spans to
``bench/out``. Without ``--workload`` every workload runs in turn, each
in its own process. The program is imported from ``src`` next to this
directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ["forward-21", "optimize-tc1", "oracle-17"]
LAYERS = ["scenario", "model", "grid", "ode", "target", "tridiag", "fpsolver",
          "adjoint", "pncg", "sde", "pipeline", "io_utils"]
SETUP_REPEATS = 5
THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES, default=None,
                        help="workload to run (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="run length; operations start until it has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and report per-layer metrics")
    return parser.parse_args(argv)


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the cores this process may use."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > cores:
            os.environ[var] = str(cores)
    return cores


def run_all(args: argparse.Namespace) -> int:
    code = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if not (SRC / "fpcontrol" / "__init__.py").is_file():
        print(f"benchmark: the program's sources are missing ({SRC / 'fpcontrol'})",
              file=sys.stderr)
        return 2
    cores = cap_threads()

    # The package import is timed once and reported per layer: it cannot be
    # repeated in one process, and its median drifts by up to 40% between
    # runs minutes apart on a shared machine, more than setup_s may move.
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np

    mods = {name: importlib.import_module(f"fpcontrol.{name}") for name in LAYERS}
    errors = importlib.import_module("fpcontrol.errors")
    import_s = time.perf_counter() - t0
    if not Path(mods["pipeline"].__file__).resolve().is_relative_to(SRC.resolve()):
        print("benchmark: fpcontrol was not imported from src", file=sys.stderr)
        return 2

    import checks
    import spans
    import workloads

    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}"
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](mods, args.seed, out_dir)

    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_seconds.append(time.perf_counter() - t0)

    tally = checks.Tally()
    op_seconds = []
    started = time.perf_counter()
    k = 0
    while True:
        inputs = workload.inputs(k)
        if tracer:
            tracer.phase = "op"
        t0 = time.perf_counter()
        try:
            result, error = workload.operate(inputs), None
        except errors.FpControlError as exc:
            result, error = None, exc
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.phase = "check"
        if error is None:
            failures = workload.check(k, inputs, result)
        else:
            failures = [checks.Failure("error", f"{type(error).__name__}: {error}")]
        del result  # free the density history before the next operation
        tally.record(failures)
        op_seconds.append(elapsed)
        k += 1
        if time.perf_counter() - started >= args.seconds:
            break

    setup_s = float(np.median(setup_seconds))
    print(f"{args.workload}: seed {args.seed}, {cores} cores, trace {args.trace}; "
          f"package import {import_s:.4f} s; set-up {setup_s:.4f} s; "
          f"operations {', '.join(f'{s:.4f}' for s in op_seconds)} s")
    print(f"{args.workload}: {workload.summary(op_seconds)}")
    for note in tally.notes:
        print(f"{args.workload}: failed check: {note}")

    if tracer:
        tracer.uninstall()
        values = spans.layer_metrics(tracer.spans, len(op_seconds), workload.nodes,
                                     op_seconds, spans.wrapper_overhead_ns())
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.csv"
        trace_path.parent.mkdir(exist_ok=True)
        tracer.write(trace_path)
        print(f"{args.workload}: {len(tracer.spans)} spans written to {trace_path}")
        values["fpcontrol.import_s"] = import_s
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in spans.LAYER_METRICS}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": float(np.median(op_seconds)), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
