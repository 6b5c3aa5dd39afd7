"""Checks of the files a CLI command wrote, and the facts read from them.

Each ``check_*`` returns ``(problems, facts)``: a list of broken
guarantees (empty when the outputs are sound) and the numbers the
benchmark reports from the outputs. Nothing here imports fieldcover,
so a defect in the program cannot hide a defect in its outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Curves are averages of separately factored posteriors; adding
# measurements can only lower the true variance, so a rise beyond
# rounding is a defect.
_CURVE_RTOL = 1e-9
_GRID_RTOL = 1e-9
_GRID_POINTS = 7


def file_hashes(out: Path) -> dict:
    """sha256 of every file under ``out``, keyed by relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> tuple[list, list]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _stops(payload) -> list:
    return [(tuple(w["location"]), int(w["dwell"])) for w in payload["waypoints"]]


def unplanned_dwells(out: Path) -> int:
    """Distinct dwell stops of tour.json that plan.csv does not list.

    Both files print floats as their shortest round-trip repr, so the
    same site compares equal after parsing.
    """
    _, rows = _csv_rows(out / "plan.csv")
    planned = {(float(x), float(y)) for x, y, _ in rows}
    toured = {loc for loc, dwell in _stops(_json(out / "tour.json")) if dwell > 0}
    return len({(float(x), float(y)) for x, y in toured} - planned)


def check_split(out: Path, delta: float, robots: int) -> tuple[list, dict]:
    problems = []
    verification = _json(out / "verification.json")
    if verification.get("passed") is not True:
        problems.append("verification.json does not report passed")
    if not verification["max_variance"] <= delta:
        problems.append(f"max_variance {verification['max_variance']} above delta {delta}")

    cert = _json(out / "certificate.json")
    if cert.get("satisfied") is not True:
        problems.append("certificate.json does not report satisfied")
    if not cert["makespan"] <= cert["bound"]:
        problems.append(f"makespan {cert['makespan']} above its bound {cert['bound']}")

    tour = _json(out / "tour.json")
    subtours = sorted(out.glob("subtour_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    if len(subtours) != robots:
        problems.append(f"{len(subtours)} subtour files for {robots} robots")
    joined = [stop for p in subtours for stop in _stops(_json(p))]
    if joined != _stops(tour):
        problems.append("subtours do not concatenate to the waypoints of tour.json")

    facts = {
        "tour_time_s": float(tour["total_time"]),
        "makespan_s": float(cert["makespan"]),
        "makespan_over_bound": float(cert["makespan"]) / float(cert["bound"]),
        "unplanned_dwells": unplanned_dwells(out),
    }
    return problems, facts


def check_simulate(out: Path, trials: int) -> tuple[list, dict]:
    problems = []
    header, rows = _csv_rows(out / "trial_summary.csv")
    if len(rows) != trials:
        problems.append(f"trial_summary.csv has {len(rows)} rows for {trials} trials")
    column = header.index("average_variance")
    # variance depends only on where the plan measures, never on the draws
    if len({r[column] for r in rows}) > 1:
        problems.append("average_variance differs between trials")
    _, points = _csv_rows(out / "trial_points.csv")
    if not points:
        problems.append("trial_points.csv has no rows")
    return problems, {}


def check_compare(out: Path, signal_variance: float) -> tuple[list, dict]:
    problems = []
    curves = sorted(out.glob("curve_*.csv"))
    names = {p.stem for p in curves}
    for required in ("curve_disk_cover", "curve_entropy", "curve_mutual_information"):
        if required not in names:
            problems.append(f"{required}.csv missing")
    if not any(n.startswith("curve_lawnmower_") for n in names):
        problems.append("no curve_lawnmower_*.csv")
    facts = {}
    for path in curves:
        header, rows = _csv_rows(path)
        if header != ["time", "average_variance", "average_mse"] or len(rows) != 11:
            problems.append(f"{path.name}: expected 11 rows of time,average_variance,average_mse")
            continue
        times = [float(r[0]) for r in rows]
        variances = [float(r[1]) for r in rows]
        tol = _CURVE_RTOL * signal_variance
        if any(b < a for a, b in zip(times, times[1:])):
            problems.append(f"{path.name}: time decreases")
        if any(b > a + tol for a, b in zip(variances, variances[1:])):
            problems.append(f"{path.name}: average variance increases")
        if any(not (-tol <= v <= signal_variance + tol) for v in variances):
            problems.append(f"{path.name}: average variance outside [0, {signal_variance}]")
        if path.stem == "curve_disk_cover":
            # the last checkpoint sits at the horizon, the tour time of the plan's tour
            facts["tour_time_s"] = times[-1]
    return problems, facts


def _geomspace(lo: float, hi: float) -> list:
    return [lo * (hi / lo) ** (i / (_GRID_POINTS - 1)) for i in range(_GRID_POINTS)]


def search_grid(survey: Path) -> dict:
    """The CLI's documented fit grid for a survey: 7 log-spaced values per parameter.

    Length scale spans diagonal/50..diagonal, signal variance
    spread/10..10*spread and noise variance spread*1e-4..spread, where
    diagonal is the survey's bounding-box diagonal and spread the
    variance of its values.
    """
    _, rows = _csv_rows(survey)
    xs = [float(r[0]) for r in rows]
    ys = [float(r[1]) for r in rows]
    vs = [float(r[2]) for r in rows]
    mean = sum(vs) / len(vs)
    spread = max(sum((v - mean) ** 2 for v in vs) / len(vs), 1e-12)
    diagonal = max(math.hypot(max(xs) - min(xs), max(ys) - min(ys)), 1e-6)
    return {
        "length_scale": _geomspace(diagonal / 50.0, diagonal),
        "signal_variance": _geomspace(spread / 10.0, spread * 10.0),
        "noise_variance": _geomspace(spread * 1e-4, spread),
    }


def check_fit(out: Path, survey: Path) -> tuple[list, dict]:
    problems = []
    fitted = _json(out / "hyperparameters.json")
    for key in ("length_scale", "signal_variance", "noise_variance", "nlml", "data_mean"):
        value = fitted.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"hyperparameters.json: {key} is not a finite number")
    if problems:
        return problems, {}
    for key, values in search_grid(survey).items():
        if not any(math.isclose(fitted[key], v, rel_tol=_GRID_RTOL) for v in values):
            problems.append(f"hyperparameters.json: {key}={fitted[key]} is off the search grid")
    return problems, {}
