"""Command-line surface: fit, plan, tour, split, simulate, compare.

Exit codes: 0 success, 2 bad input, 3 degenerate data, 4 broken
guarantee (a produced plan failed verification or an internal bound
check tripped).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import io as fileio
from .baselines import (
    SensorModel,
    baseline_candidates,
    check_trial_budget,
    curves_over_time,
    entropy_greedy,
    lawnmower_plan,
    mi_greedy,
    ordered_tour,
    simulate_trials,
)
from .errors import DegenerateDataError, NumericalError, VerificationError
from .fields import draw_shape, sample_gp_field
from .fleet import makespan_certificate, split_tour
from .geometry import Environment
from .gp import Hyperparameters, HyperparameterGrid, fit_hyperparameters
from .placement import (
    AccuracySpec,
    default_grid_spacing,
    disk_cover_placement,
    necessary_radius,
    project_into_environment,
    verify_plan,
)
from .routing import TimeModel, tour_from_plan, tour_time

__all__ = ["build_parser", "main", "run"]


def _argument(parse):
    """An argparse ``type=`` that reports ``parse``'s ValueError as a usage error."""

    def parsed(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parsed


@_argument
def _parse_hyper(text: str) -> Hyperparameters:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("expected three comma-separated numbers: l,s2,w2")
    return Hyperparameters(float(parts[0]), float(parts[1]), float(parts[2]))


@_argument
def _parse_point(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expected x,y")
    point = (float(parts[0]), float(parts[1]))
    if not all(map(math.isfinite, point)):
        raise ValueError(f"expected finite coordinates, got {text!r}")
    return point


@_argument
def _parse_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise ValueError(f"expected an integer >= 1, got {count}")
    return count


def _above(floor: float):
    """An argparse ``type=`` for finite numbers above ``floor``."""

    @_argument
    def parsed(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and value > floor):
            raise ValueError(f"expected a finite number > {floor:g}, got {text!r}")
        return value

    return parsed


_parse_positive = _above(0.0)


@_argument
def _parse_resolutions(text: str) -> tuple:
    values = tuple(_parse_positive(p) for p in text.split(",") if p.strip())
    if not values:
        raise ValueError("expected a comma-separated list of resolutions")
    return values


@_argument
def _parse_time_model(text: str) -> TimeModel:
    return TimeModel(float(text))


def _default_search(points: np.ndarray, values: np.ndarray) -> HyperparameterGrid:
    x0, y0 = points.min(axis=0)
    x1, y1 = points.max(axis=0)
    span = max(math.hypot(x1 - x0, y1 - y0), 1e-6)
    spread = max(float(np.var(values)), 1e-12)
    return HyperparameterGrid.log_spaced(
        (span / 50.0, span), (spread / 10.0, spread * 10.0), (spread * 1e-4, spread)
    )


def cmd_fit(args: argparse.Namespace) -> None:
    points, values, mean = fileio.load_dataset(args.data)
    best, best_nlml = fit_hyperparameters(points, values, _default_search(points, values))
    fileio.write_json(
        args.out / "hyperparameters.json",
        {
            "length_scale": best.length_scale,
            "signal_variance": best.signal_variance,
            "noise_variance": best.noise_variance,
            "nlml": best_nlml,
            "data_mean": mean,
        },
    )


def _build_plan(args: argparse.Namespace, env: Environment):
    plan = disk_cover_placement(env, args.hyper, AccuracySpec(args.delta, args.alpha))
    return project_into_environment(plan, env) if args.hard_boundary else plan


def _verified_plan(args: argparse.Namespace, env: Environment):
    """The plan, with its outputs written; a plan that fails verification raises."""
    plan = _build_plan(args, env)
    report = verify_plan(plan, env, args.hyper, args.delta, args.grid_res)
    fileio.write_plan_csv(args.out / "plan.csv", plan)
    fileio.write_json(args.out / "verification.json", fileio.verification_to_payload(report))
    (args.out / "plan.svg").write_text(fileio.plan_svg(env, plan), encoding="utf-8")
    if not report.passed:
        raise VerificationError(
            f"max posterior variance {report.max_variance} exceeds the target {args.delta}"
        )
    return plan


def cmd_plan(args: argparse.Namespace) -> None:
    _verified_plan(args, fileio.load_environment(args.env))


def _build_tour(args: argparse.Namespace, plan):
    tour = tour_from_plan(plan, depot=args.depot)
    if not math.isfinite(tour_time(tour, args.eta)):
        raise ValueError(f"the tour's travel time from depot {tour.depot} overflows")
    return tour


def _write_tour_outputs(args: argparse.Namespace, env: Environment, plan, tour) -> None:
    fileio.write_tour_json(args.out / "tour.json", tour, args.eta)
    (args.out / "tour.svg").write_text(fileio.tour_svg(env, plan, tour), encoding="utf-8")


def cmd_tour(args: argparse.Namespace) -> None:
    env = fileio.load_environment(args.env)
    # verified before touring, so a failing plan never pays for the 2-opt
    plan = _verified_plan(args, env)
    _write_tour_outputs(args, env, plan, _build_tour(args, plan))


def cmd_split(args: argparse.Namespace) -> None:
    env = fileio.load_environment(args.env)
    plan = _verified_plan(args, env)
    tour = _build_tour(args, plan)
    split = split_tour(tour, args.k, args.eta)
    for i, sub in enumerate(split.subtours, start=1):
        fileio.write_tour_json(args.out / f"subtour_{i}.json", sub, args.eta)
    cert = makespan_certificate(split)
    fileio.write_json(args.out / "certificate.json", fileio.certificate_to_payload(cert))
    _write_tour_outputs(args, env, plan, tour)
    if not cert.satisfied:
        raise NumericalError(
            f"makespan {cert.makespan} exceeds the certified bound {cert.bound}"
        )


def _truth_env(env: Environment, plan) -> Environment:
    # measurement sites can sit outside the environment, and the truth
    # field must stay interpolable at every one of them
    pts = np.vstack([plan.locations, np.reshape(env.bounds, (2, 2))])
    return Environment.rectangle(pts.min(axis=0).tolist(), pts.max(axis=0).tolist())


def _truth_spacing(args: argparse.Namespace, env: Environment, truth_env: Environment) -> float:
    if args.grid_res is not None:
        return args.grid_res
    return max(
        default_grid_spacing(env, args.hyper, args.delta), truth_env.diameter / 70.0
    )


def cmd_simulate(args: argparse.Namespace) -> None:
    env = fileio.load_environment(args.env)
    plan = _build_plan(args, env)
    box = _truth_env(env, plan)
    spacing = _truth_spacing(args, env, box)
    # the draw's time grows with the cube of the box's side, so a trial
    # set over the byte budget is refused before the truth is drawn
    nx, ny = draw_shape(box, spacing)
    check_trial_budget(args.trials, plan.distinct()[0].shape[0], nx * ny)
    truth = sample_gp_field(box, args.hyper, spacing, args.seed)
    sensor = SensorModel(args.hyper.noise_variance, args.seed)
    reports = simulate_trials(truth, plan, sensor, args.hyper, range(args.trials))
    fileio.write_curve_csv(
        args.out / "trial_summary.csv",
        ("trial", "average_variance", "average_mse", "mean_percent_difference"),
        (
            (t, r.average_variance, r.average_mse, r.mean_percent_difference)
            for t, r in enumerate(reports)
        ),
    )
    first = reports[0]
    points = truth.points()
    # plain Python floats, so no cell goes through a numpy scalar
    fileio.write_curve_csv(
        args.out / "trial_points.csv",
        ("x", "y", "mean", "variance", "squared_error"),
        zip(
            points[:, 0].tolist(),
            points[:, 1].tolist(),
            first.means.tolist(),
            first.variances.tolist(),
            first.squared_errors.tolist(),
        ),
    )


def cmd_compare(args: argparse.Namespace) -> None:
    env = fileio.load_environment(args.env)
    plan = _build_plan(args, env)
    tour = _build_tour(args, plan)
    depot = tour.depot
    box = _truth_env(env, plan)
    spacing = _truth_spacing(args, env, box)
    # an evaluation grid with no point inside, or a lawn-mower grid too
    # large for its curves, fails here, before any draw or greedy baseline
    eval_points = env.grid(spacing)
    resolutions = args.resolutions or (necessary_radius(args.hyper, args.delta),)
    lawnmowers = {f"lawnmower_{res:g}": lawnmower_plan(env, res, depot) for res in resolutions}
    # the draw has its own random stream and the baselines use none, so
    # drawing the truth first changes no output
    truth = sample_gp_field(box, args.hyper, spacing, args.seed)

    candidates = baseline_candidates(env, args.hyper, args.delta)
    budget = min(len(candidates), plan.total)
    planners = {
        "disk_cover": tour,
        "entropy": ordered_tour(entropy_greedy(candidates, args.hyper, budget), depot),
        "mutual_information": ordered_tour(mi_greedy(candidates, args.hyper, budget), depot),
        **lawnmowers,
    }

    sensor = SensorModel(args.hyper.noise_variance, args.seed)

    for name, candidate_tour in planners.items():
        horizon = tour_time(candidate_tour, args.eta)
        marks = [i * horizon / 10.0 for i in range(11)]
        variances, errors = curves_over_time(
            candidate_tour, truth, sensor, args.hyper, eval_points, args.eta, marks
        )
        fileio.write_curve_csv(
            args.out / f"curve_{name}.csv",
            ("time", "average_variance", "average_mse"),
            zip(marks, variances, errors),
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldcover",
        description=(
            "Plan measurement locations and robot tours that push a learned "
            "field's predictive variance below a target everywhere"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="grid-search kernel hyperparameters on a csv dataset")
    fit.add_argument("--data", required=True, help="csv with header x,y,value")
    fit.add_argument("--out", required=True, type=Path, help="output directory")
    fit.set_defaults(handler=cmd_fit)

    def planning_parser(name: str, help_text: str, handler):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--env", required=True, help="environment json")
        p.add_argument("--hyper", required=True, type=_parse_hyper, help="l,s2,w2")
        # delta's upper bound, the signal variance, comes with --hyper, so
        # main checks it
        p.add_argument("--delta", required=True, type=_parse_positive, help="variance target")
        p.add_argument("--alpha", type=_above(1.0), default=2.0, help="disk shrink factor")
        p.add_argument("--grid-res", type=_parse_positive, default=None, help="evaluation grid spacing")
        p.add_argument(
            "--hard-boundary",
            action="store_true",
            help="project sites that fall outside the environment onto it",
        )
        p.add_argument("--out", required=True, type=Path, help="output directory")
        p.set_defaults(handler=handler)
        return p

    planning_parser("plan", "compute and verify measurement locations", cmd_plan)

    tour = planning_parser("tour", "plan plus a single-robot tour", cmd_tour)
    tour.add_argument("--eta", type=_parse_time_model, default=TimeModel(1.0), help="seconds per measurement")
    tour.add_argument("--depot", type=_parse_point, default=None, help="x,y start point")

    split = planning_parser("split", "tour split across k robots", cmd_split)
    split.add_argument("--eta", type=_parse_time_model, default=TimeModel(1.0), help="seconds per measurement")
    split.add_argument("--depot", type=_parse_point, default=None, help="x,y start point")
    split.add_argument("--k", type=_parse_count, default=2, help="robot count")

    simulate = planning_parser("simulate", "noisy-sensor trials against a synthetic field", cmd_simulate)
    simulate.add_argument("--seed", type=int, default=0, help="master seed")
    simulate.add_argument("--trials", type=_parse_count, default=20, help="trial count")

    compare = planning_parser("compare", "variance-over-time curves for all planners", cmd_compare)
    compare.add_argument("--eta", type=_parse_time_model, default=TimeModel(1.0), help="seconds per measurement")
    compare.add_argument("--depot", type=_parse_point, default=None, help="x,y start point")
    compare.add_argument("--seed", type=int, default=0, help="master seed")
    compare.add_argument(
        "--resolutions",
        type=_parse_resolutions,
        default=None,
        help="comma-separated lawn-mower grid resolutions",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # delta's upper bound comes with --hyper, so no single flag's parser
    # can check it; placement checks it again for library callers
    if hasattr(args, "hyper") and not args.delta < args.hyper.signal_variance:
        parser.error(
            f"argument --delta: expected a value below the signal variance "
            f"{args.hyper.signal_variance:g} of --hyper, got {args.delta:g}"
        )
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        args.handler(args)
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (VerificationError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
