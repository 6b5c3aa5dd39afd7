"""Command-line surface: fit, plan, tour, split, simulate, compare.

Exit codes: 0 success, 2 bad input, 3 degenerate data, 4 broken
guarantee (a produced plan failed verification or an internal bound
check tripped).
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as fileio
from .baselines import (
    SensorModel,
    baseline_candidates,
    curves_over_time,
    entropy_greedy,
    lawnmower_plan,
    mi_greedy,
    ordered_tour,
    simulate_trials,
)
from .errors import DegenerateDataError, NumericalError, VerificationError
from .fields import sample_gp_field
from .fleet import makespan_certificate, split_tour
from .geometry import Environment
from .gp import (
    Hyperparameters,
    HyperparameterGrid,
    Observation,
    fit_hyperparameters,
    nlml,
)
from .placement import (
    AccuracySpec,
    default_grid_spacing,
    disk_cover_placement,
    necessary_radius,
    project_into_environment,
    verify_plan,
)
from .routing import TimeModel, tour_from_plan, tour_time

__all__ = ["RunConfig", "build_parser", "main", "run"]


def _parse_hyper(text: str) -> Hyperparameters:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers: l,s2,w2")
    try:
        return Hyperparameters(float(parts[0]), float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_point(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected x,y")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_resolutions(text: str) -> tuple:
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of resolutions")
    return values


@dataclass(frozen=True)
class RunConfig:
    """Validated planning inputs shared by the plan-family commands."""

    env: Environment
    hyper: Hyperparameters
    delta: float
    alpha: float
    eta: float
    robots: int
    depot: tuple | None
    seed: int
    grid_res: float | None
    out: Path
    hard_boundary: bool
    trials: int
    resolutions: tuple | None

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < self.hyper.signal_variance):
            raise ValueError(
                f"delta must sit in (0, signal variance); got {self.delta} "
                f"against {self.hyper.signal_variance}"
            )
        if self.grid_res is not None and not (
            math.isfinite(self.grid_res) and self.grid_res > 0.0
        ):
            raise ValueError("grid resolution must be positive")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.robots < 1:
            raise ValueError("k must be >= 1")
        if self.resolutions is not None and any(r <= 0 for r in self.resolutions):
            raise ValueError("resolutions must be positive")

    @property
    def spec(self) -> AccuracySpec:
        return AccuracySpec(self.delta, self.alpha)

    @property
    def time(self) -> TimeModel:
        return TimeModel(self.eta)


def _config(args: argparse.Namespace) -> RunConfig:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return RunConfig(
        env=fileio.load_environment(args.env),
        hyper=args.hyper,
        delta=args.delta,
        alpha=args.alpha,
        eta=getattr(args, "eta", 1.0),
        robots=getattr(args, "k", 1),
        depot=getattr(args, "depot", None),
        seed=getattr(args, "seed", 0),
        grid_res=getattr(args, "grid_res", None),
        out=out,
        hard_boundary=getattr(args, "hard_boundary", False),
        trials=getattr(args, "trials", 20),
        resolutions=getattr(args, "resolutions", None),
    )


def _default_search(points: np.ndarray, values: np.ndarray) -> HyperparameterGrid:
    x0, y0 = points.min(axis=0)
    x1, y1 = points.max(axis=0)
    span = max(math.hypot(x1 - x0, y1 - y0), 1e-6)
    spread = max(float(np.var(values)), 1e-12)
    return HyperparameterGrid.log_spaced(
        (span / 50.0, span), (spread / 10.0, spread * 10.0), (spread * 1e-4, spread)
    )


def cmd_fit(args: argparse.Namespace) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    points, values, mean = fileio.load_dataset(args.data)
    observations = [Observation(tuple(p), float(v)) for p, v in zip(points, values)]
    best = fit_hyperparameters(observations, _default_search(points, values))
    fileio.write_json(
        out / "hyperparameters.json",
        {
            "length_scale": best.length_scale,
            "signal_variance": best.signal_variance,
            "noise_variance": best.noise_variance,
            "nlml": nlml(observations, best),
            "data_mean": mean,
        },
    )


def _build_plan(cfg: RunConfig):
    plan = disk_cover_placement(cfg.env, cfg.hyper, cfg.spec)
    return project_into_environment(plan, cfg.env) if cfg.hard_boundary else plan


def _write_plan_outputs(cfg: RunConfig, plan) -> None:
    report = verify_plan(plan, cfg.env, cfg.hyper, cfg.delta, cfg.grid_res)
    fileio.write_plan_csv(cfg.out / "plan.csv", plan)
    fileio.write_json(cfg.out / "verification.json", fileio.verification_to_payload(report))
    (cfg.out / "plan.svg").write_text(fileio.plan_svg(cfg.env, plan), encoding="utf-8")
    if not report.passed:
        raise VerificationError(
            f"max posterior variance {report.max_variance} exceeds the target {cfg.delta}"
        )


def cmd_plan(args: argparse.Namespace) -> None:
    cfg = _config(args)
    _write_plan_outputs(cfg, _build_plan(cfg))


def _build_tour(cfg: RunConfig):
    plan = _build_plan(cfg)
    tour = tour_from_plan(plan, depot=cfg.depot)
    if not math.isfinite(tour_time(tour, cfg.time)):
        raise ValueError(f"the tour's travel time from depot {tour.depot} overflows")
    return plan, tour


def _write_tour_outputs(cfg: RunConfig, plan, tour) -> None:
    fileio.write_tour_json(cfg.out / "tour.json", tour, cfg.time)
    (cfg.out / "tour.svg").write_text(fileio.tour_svg(cfg.env, plan, tour), encoding="utf-8")
    _write_plan_outputs(cfg, plan)


def cmd_tour(args: argparse.Namespace) -> None:
    cfg = _config(args)
    plan, tour = _build_tour(cfg)
    _write_tour_outputs(cfg, plan, tour)


def cmd_split(args: argparse.Namespace) -> None:
    cfg = _config(args)
    plan, tour = _build_tour(cfg)
    split = split_tour(tour, cfg.robots, cfg.time)
    for i, sub in enumerate(split.subtours, start=1):
        fileio.write_tour_json(cfg.out / f"subtour_{i}.json", sub, cfg.time)
    cert = makespan_certificate(split)
    fileio.write_json(cfg.out / "certificate.json", fileio.certificate_to_payload(cert))
    _write_tour_outputs(cfg, plan, tour)
    if not cert.satisfied:
        raise NumericalError(
            f"makespan {cert.makespan} exceeds the certified bound {cert.bound}"
        )


def _truth_env(cfg: RunConfig, plan) -> Environment:
    # measurement sites can sit outside the environment, and the truth
    # field must stay interpolable at every one of them
    pts = np.vstack([plan.locations, np.reshape(cfg.env.bounds, (2, 2))])
    return Environment.rectangle(pts.min(axis=0).tolist(), pts.max(axis=0).tolist())


def _truth_spacing(cfg: RunConfig, truth_env: Environment) -> float:
    if cfg.grid_res is not None:
        return cfg.grid_res
    return max(
        default_grid_spacing(cfg.env, cfg.hyper, cfg.delta), truth_env.diameter / 70.0
    )


def cmd_simulate(args: argparse.Namespace) -> None:
    cfg = _config(args)
    plan = _build_plan(cfg)
    box = _truth_env(cfg, plan)
    truth = sample_gp_field(box, cfg.hyper, _truth_spacing(cfg, box), cfg.seed)
    sensor = SensorModel(cfg.hyper.noise_variance, cfg.seed)
    reports = simulate_trials(truth, plan, sensor, cfg.hyper, range(cfg.trials))
    fileio.write_curve_csv(
        cfg.out / "trial_summary.csv",
        ("trial", "average_variance", "average_mse", "mean_percent_difference"),
        (
            (t, r.average_variance, r.average_mse, r.mean_percent_difference)
            for t, r in enumerate(reports)
        ),
    )
    first = reports[0]
    fileio.write_curve_csv(
        cfg.out / "trial_points.csv",
        ("x", "y", "mean", "variance", "squared_error"),
        (
            (p[0], p[1], m, v, e)
            for p, m, v, e in zip(
                truth.points(), first.means, first.variances, first.squared_errors
            )
        ),
    )


def cmd_compare(args: argparse.Namespace) -> None:
    cfg = _config(args)
    plan, tour = _build_tour(cfg)
    depot = tour.depot

    candidates = baseline_candidates(cfg.env, cfg.hyper, cfg.delta)
    budget = min(len(candidates), plan.total_measurements)
    planners = {
        "disk_cover": tour,
        "entropy": ordered_tour(entropy_greedy(candidates, cfg.hyper, budget), depot),
        "mutual_information": ordered_tour(mi_greedy(candidates, cfg.hyper, budget), depot),
    }
    resolutions = cfg.resolutions or (necessary_radius(cfg.hyper, cfg.delta),)
    for res in resolutions:
        planners[f"lawnmower_{res:g}"] = lawnmower_plan(cfg.env, res, depot)

    box = _truth_env(cfg, plan)
    spacing = _truth_spacing(cfg, box)
    truth = sample_gp_field(box, cfg.hyper, spacing, cfg.seed)
    sensor = SensorModel(cfg.hyper.noise_variance, cfg.seed)
    eval_points = cfg.env.grid(spacing)

    for name, candidate_tour in planners.items():
        horizon = tour_time(candidate_tour, cfg.time)
        marks = [i * horizon / 10.0 for i in range(11)]
        variances, errors = curves_over_time(
            candidate_tour, truth, sensor, cfg.hyper, eval_points, cfg.time, marks
        )
        fileio.write_curve_csv(
            cfg.out / f"curve_{name}.csv",
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
    fit.add_argument("--out", required=True, help="output directory")
    fit.set_defaults(handler=cmd_fit)

    def planning_parser(name: str, help_text: str, handler):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--env", required=True, help="environment json")
        p.add_argument("--hyper", required=True, type=_parse_hyper, help="l,s2,w2")
        p.add_argument("--delta", required=True, type=float, help="variance target")
        p.add_argument("--alpha", type=float, default=2.0, help="disk shrink factor")
        p.add_argument("--grid-res", type=float, default=None, help="evaluation grid spacing")
        p.add_argument(
            "--hard-boundary",
            action="store_true",
            help="project sites that fall outside the environment onto it",
        )
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(handler=handler)
        return p

    planning_parser("plan", "compute and verify measurement locations", cmd_plan)

    tour = planning_parser("tour", "plan plus a single-robot tour", cmd_tour)
    tour.add_argument("--eta", type=float, default=1.0, help="seconds per measurement")
    tour.add_argument("--depot", type=_parse_point, default=None, help="x,y start point")

    split = planning_parser("split", "tour split across k robots", cmd_split)
    split.add_argument("--eta", type=float, default=1.0, help="seconds per measurement")
    split.add_argument("--depot", type=_parse_point, default=None, help="x,y start point")
    split.add_argument("--k", type=int, default=2, help="robot count")

    simulate = planning_parser("simulate", "noisy-sensor trials against a synthetic field", cmd_simulate)
    simulate.add_argument("--seed", type=int, default=0, help="master seed")
    simulate.add_argument("--trials", type=int, default=20, help="trial count")

    compare = planning_parser("compare", "variance-over-time curves for all planners", cmd_compare)
    compare.add_argument("--eta", type=float, default=1.0, help="seconds per measurement")
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
    args = build_parser().parse_args(argv)
    # The modules imported so far (numpy, scipy's compiled LAPACK and BLAS,
    # argparse: about 21.7k objects) outlive the command, yet every full
    # collection would rescan them; frozen, they are skipped, while
    # objects the command makes are still collected. A caller's own
    # freeze is left alone.
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
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
    finally:
        if freeze:
            gc.unfreeze()
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
