"""Command-line entry point.

Exit codes: 0 success, 2 scenario validation failure, 3 solver failure,
4 line-search failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .errors import LineSearchError, ScenarioError, SolverError
from .pipeline import run_forward, run_gradcheck, run_oracle, run_pipeline, run_target
from .scenario import SEED_LIMIT, load_scenario


def _print_solve(report, out_dir) -> int:
    print(f"final objective {report.final_objective:.6e} "
          f"after {report.iterations} iterations "
          f"(converged={report.converged})")
    print(f"total Doxorubicin {report.total_doxorubicin_mg:.3f} mg, "
          f"peak IL-2 {report.peak_il2_iu_per_l:.4g} IU/l/day")
    print(f"outputs in {out_dir}")
    if report.line_search_failed:
        print("line search failed; best iterate reported", file=sys.stderr)
        return 4
    return 0


def _print_summary(line: str):
    def printer(info, out_dir) -> int:
        print(line.format(**info))
        print(f"outputs in {out_dir}")
        return 0

    return printer


# name -> (help text, runner, summary printer returning the exit code)
_COMMANDS = {
    "solve": ("full pipeline: target, optimization, reports", run_pipeline, _print_solve),
    "forward": ("untreated density solve only", run_forward,
                _print_summary("mass deviation {max_mass_deviation:.3e}, "
                               "min density {min_density:.3e}")),
    "oracle": ("compare the density solver against Monte Carlo paths", run_oracle,
               _print_summary("worst marginal L1 distance {worst_l1:.4f}")),
    "gradcheck": ("finite-difference audit of the adjoint gradient", run_gradcheck,
                  _print_summary("worst relative error {worst_relative_error:.3e}")),
    "target": ("emit the target trajectory and marginals", run_target,
               _print_summary("max target mass error {max_mass_error:.3e}")),
}

# the commands whose solves keep a forward history to thin
_CHECKPOINTED = {"solve", "forward", "gradcheck"}


def _int_at_least(low: int, below: int | None = None):
    """argparse type: an integer no smaller than ``low`` (and below ``below``)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be below {below}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpcontrol",
        description="Optimal combination-therapy schedules via density-constrained control",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log stage progress")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to a .scenario file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=_int_at_least(0, SEED_LIMIT), default=None,
                       help="override the scenario seed")
        p.add_argument("--full-scale", action="store_true",
                       help="use the production grid and time resolution")
        if name in _CHECKPOINTED:
            p.add_argument("--checkpoint-every", type=_int_at_least(1), default=1,
                           metavar="K", help="store every K-th snapshot and recompute between")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    if args.full_scale:
        scenario = dataclasses.replace(scenario, npoints=scenario.full_scale_npoints,
                                       n_steps=scenario.full_scale_n_steps)

    out_dir = args.out or str(Path("runs") / f"{scenario.name}-{args.command}")
    _, runner, summarize = _COMMANDS[args.command]
    try:
        options = ({"checkpoint_every": args.checkpoint_every}
                   if "checkpoint_every" in args else {})
        result = runner(scenario, out_dir, seed=args.seed, **options)
        return summarize(result, out_dir)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except LineSearchError as exc:
        print(f"line-search failure: {exc}", file=sys.stderr)
        return 4
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
