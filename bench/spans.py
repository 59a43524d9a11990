"""Span recording around the calls into each ``fpcontrol`` layer.

``Tracer.install`` swaps public functions and methods of the program's
modules for wrappers that record (name, start, end, parent) in memory.
Nothing inside ``src`` changes: the wrappers live here, and a function
imported by name into another module (``from .fpsolver import
solve_forward``) is replaced there too. Modules are reached through
``importlib.import_module`` because the package re-exports the function
``pncg`` under the name of its module.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

# (module, attribute) to wrap; "Class.method" wraps on the class. The
# span name is "<module>.<attribute>".
TRACED = [
    ("scenario", "load_scenario"),
    ("ode", "integrate"),
    ("target", "build_target"),
    ("target", "TargetDensity.snapshot"),
    ("grid", "Grid4D.integrate"),
    ("tridiag", "thomas_solve"),
    ("fpsolver", "build_fp_stepper"),
    ("fpsolver", "solve_forward"),
    ("fpsolver", "DgStepper.step"),
    ("fpsolver", "DgStepper.step_transpose"),
    ("fpsolver", "DgStepper.apply_operator"),
    ("fpsolver", "AxisDiscretization.operator_bands"),
    ("fpsolver", "AxisDiscretization.control_bands"),
    ("adjoint", "objective"),
    ("adjoint", "adjoint_gradient"),
    ("pncg", "pncg"),
    ("pncg", "armijo_step"),
    ("pipeline", "FpControlProblem.objective"),
    ("pipeline", "FpControlProblem.gradient"),
    ("pipeline", "run_pipeline"),
    ("pipeline", "run_oracle"),
    ("sde", "simulate_paths"),
    ("io_utils", "write_csv"),
    ("io_utils", "write_density"),
]

NAME, START, END, PARENT, PHASE, EXTRA = range(6)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _history_bytes(args, kwargs, out):
    field = out[0]
    stored = sum(field.is_stored(m) for m in range(field.n_steps + 1))
    return stored * _arg(args, kwargs, 0, "f0").nbytes


def _file_bytes(args, kwargs, out):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# What a wrapper keeps from a call besides its times.
EXTRAS = {
    "tridiag.thomas_solve": lambda a, k, out: out.size,
    "fpsolver.solve_forward": _history_bytes,
    "pncg.armijo_step": lambda a, k, out: out[3],
    "pncg.pncg": lambda a, k, out: (out[1].iterations, float(out[1].objective[-1])),
    "sde.simulate_paths": lambda a, k, out: (_arg(a, k, 3, "n_paths")
                                            * _arg(a, k, 4, "n_steps")),
    "io_utils.write_csv": _file_bytes,
    "io_utils.write_density": _file_bytes,
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def wrap(self, name: str, fn, extra=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.phase, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, out)
            return out

        return traced

    def install(self, package: str = "fpcontrol") -> None:
        for module_name, attr in TRACED:
            module = importlib.import_module(f"{package}.{module_name}")
            name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
            extra = EXTRAS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._installed.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, extra))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, extra)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != package and not mod_name.startswith(package + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def write(self, path) -> None:
        """Spans as CSV: index, name, start_ns, end_ns, parent, phase."""
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,phase\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{s[PHASE]}\n")


def wrapper_overhead_ns(calls: int = 20000) -> float:
    """Median cost a span wrapper adds to one call, measured on a no-op."""
    def noop():
        return None

    probe = Tracer()
    traced = probe.wrap("probe", noop)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter_ns()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
        probe.spans.clear()
    samples.sort()
    return samples[len(samples) // 2]


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Calls are single-threaded and nested, so children never overlap and
    their durations add up.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


# Per-layer metrics of a traced run: (name, unit, better). Times per node
# divide by the calls and the workload grid's node count. Counts are per
# operation. "_s" figures are medians per call, except the self times,
# target.snapshot_s and io_utils.write_s, which are totals per operation.
# A layer that did not run on a workload reads 0. fpcontrol.import_s is
# timed by run.py.
LAYER_METRICS = [
    ("fpcontrol.import_s", "s", "lower"),
    ("fpsolver.step_ns_per_node", "ns", "lower"),
    ("fpsolver.bands_ns_per_node", "ns", "lower"),
    ("fpsolver.apply_ns_per_node", "ns", "lower"),
    ("tridiag.thomas_ns_per_unknown", "ns", "lower"),
    ("fpsolver.step_transpose_ns_per_node", "ns", "lower"),
    ("fpsolver.control_bands_ns_per_node", "ns", "lower"),
    ("fpsolver.forward_solves", "count", "lower"),
    ("fpsolver.stepper_builds", "count", "lower"),
    ("fpsolver.history_bytes", "bytes", "lower"),
    ("fpsolver.solve_s", "s", "lower"),
    ("grid.integrate_ns_per_node", "ns", "lower"),
    ("grid.integrate_calls", "count", "lower"),
    ("adjoint.gradient_s", "s", "lower"),
    ("adjoint.objective_s", "s", "lower"),
    ("adjoint.gradient_over_forward", "ratio", "lower"),
    ("pncg.iterations", "count", "lower"),
    ("pncg.objective_evals", "count", "lower"),
    ("pncg.gradient_evals", "count", "lower"),
    ("pncg.backtracks", "count", "lower"),
    ("pncg.armijo_failures", "count", "lower"),
    ("pncg.self_s", "s", "lower"),
    ("pncg.objective_final", "1", "lower"),
    ("ode.integrate_s", "s", "lower"),
    ("target.build_s", "s", "lower"),
    ("target.snapshot_s", "s", "lower"),
    ("scenario.load_s", "s", "lower"),
    ("sde.simulate_s", "s", "lower"),
    ("sde.path_steps_per_s", "1/s", "higher"),
    ("io_utils.write_s", "s", "lower"),
    ("io_utils.bytes_written", "bytes", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.spans_per_op", "count", "lower"),
    ("trace.overhead_est_s", "s", "lower"),
]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], n_ops: int, nodes: int, op_seconds: list[float],
                  span_overhead_ns: float) -> dict[str, float]:
    """Per-layer figures from the spans of the timed operations.

    Set-up calls (scenario load, ODE, target) count towards their
    per-call medians; audit calls made while checking do not count.
    """
    own = self_times_ns(spans)
    in_op: dict[str, list[int]] = {}
    anywhere: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        anywhere.setdefault(s[NAME], []).append(i)
        if s[PHASE] == "op":
            in_op.setdefault(s[NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def op_calls(name):
        return in_op.get(name, [])

    def per_node_ns(name):
        calls = op_calls(name)
        return _ratio(sum(dur(i) for i in calls), len(calls) * nodes)

    def per_op(values):
        return _ratio(sum(values), n_ops)

    def median_s(name, where):
        return _median([dur(i) for i in where.get(name, [])]) * 1e-9

    def extras(name):
        return [spans[i][EXTRA] for i in op_calls(name)]

    solve_s = median_s("fpsolver.solve_forward", in_op)
    gradient_s = median_s("adjoint.adjoint_gradient", in_op)
    objective_s = median_s("adjoint.objective", in_op)
    pncg_runs = extras("pncg.pncg")
    backtracks = extras("pncg.armijo_step")  # None where the search raised
    writes = op_calls("io_utils.write_csv") + op_calls("io_utils.write_density")
    sims = op_calls("sde.simulate_paths")
    n_op_spans = sum(len(v) for v in in_op.values())
    return {
        "fpsolver.step_ns_per_node": per_node_ns("fpsolver.step"),
        "fpsolver.bands_ns_per_node": per_node_ns("fpsolver.operator_bands"),
        "fpsolver.apply_ns_per_node": per_node_ns("fpsolver.apply_operator"),
        "tridiag.thomas_ns_per_unknown": _ratio(
            sum(dur(i) for i in op_calls("tridiag.thomas_solve")),
            sum(extras("tridiag.thomas_solve"))),
        "fpsolver.step_transpose_ns_per_node": per_node_ns("fpsolver.step_transpose"),
        "fpsolver.control_bands_ns_per_node": per_node_ns("fpsolver.control_bands"),
        "fpsolver.forward_solves": per_op([1] * len(op_calls("fpsolver.solve_forward"))),
        "fpsolver.stepper_builds": per_op([1] * len(op_calls("fpsolver.build_fp_stepper"))),
        "fpsolver.history_bytes": float(max(extras("fpsolver.solve_forward"), default=0)),
        "fpsolver.solve_s": solve_s,
        "grid.integrate_ns_per_node": per_node_ns("grid.integrate"),
        "grid.integrate_calls": per_op([1] * len(op_calls("grid.integrate"))),
        "adjoint.gradient_s": gradient_s,
        "adjoint.objective_s": objective_s,
        "adjoint.gradient_over_forward": _ratio(gradient_s, solve_s + objective_s),
        "pncg.iterations": per_op([it for it, _ in pncg_runs]),
        "pncg.objective_evals": per_op([1] * len(op_calls("pipeline.objective"))),
        "pncg.gradient_evals": per_op([1] * len(op_calls("pipeline.gradient"))),
        "pncg.backtracks": per_op([b for b in backtracks if b is not None]),
        "pncg.armijo_failures": per_op([b is None for b in backtracks]),
        "pncg.self_s": per_op([own[i] for i in op_calls("pncg.pncg")]) * 1e-9,
        "pncg.objective_final": pncg_runs[-1][1] if pncg_runs else 0.0,
        "ode.integrate_s": median_s("ode.integrate", anywhere),
        "target.build_s": median_s("target.build_target", anywhere),
        "target.snapshot_s": per_op([dur(i) for i in op_calls("target.snapshot")]) * 1e-9,
        "scenario.load_s": median_s("scenario.load_scenario", anywhere),
        "sde.simulate_s": median_s("sde.simulate_paths", in_op),
        "sde.path_steps_per_s": _ratio(sum(extras("sde.simulate_paths")),
                                       sum(dur(i) for i in sims) * 1e-9),
        "io_utils.write_s": per_op([dur(i) for i in writes]) * 1e-9,
        "io_utils.bytes_written": per_op([spans[i][EXTRA] for i in writes]),
        "pipeline.self_s": per_op([own[i] for i in op_calls("pipeline.run_pipeline")
                                   + op_calls("pipeline.run_oracle")]) * 1e-9,
        "trace.op_s": _median(op_seconds),
        "trace.spans_per_op": per_op([n_op_spans]),
        "trace.overhead_est_s": per_op([n_op_spans]) * span_overhead_ns * 1e-9,
    }
