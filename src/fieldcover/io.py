"""Flat-file formats: environment json, dataset csv, results, svg.

Serialization is deterministic: json keys are sorted, floats print with
their shortest round-trip repr, and identical inputs produce
byte-identical files.

Small payloads (verification, certificate, hyperparameters) go through
``json.dumps(..., sort_keys=True, indent=2, allow_nan=False)``. With
``indent`` set, ``json`` runs its pure-Python encoder, one generator
call per value, which is too slow for a tour of thousands of
waypoints. So ``write_tour_json`` renders ``tour_to_payload``'s schema
itself: ``json.dumps`` writes the header (every key but
``"waypoints"``, which sorts last) and each waypoint is one
%-template with its keys in sorted order. That encoder prints an int
with ``int.__repr__`` and a float with ``float.__repr__``, and ``%r``
of a Python int or float is the same call, so the bytes match
``write_json(path, tour_to_payload(tour, time))``. Non-finite numbers
are refused, not written.

SVG elements and plan and curve CSV rows are likewise one %r template
each, filled with Python floats: a numpy scalar goes through
``float()`` or ``.tolist()`` first, because numpy 2 prints
``np.float64(...)``. That is the same ``repr(float(value))`` every
cell got before, so the bytes match.
"""

from __future__ import annotations

import dataclasses
import json
import math
from itertools import repeat
from pathlib import Path

import numpy as np

from .fleet import MakespanCertificate
from .geometry import Environment
from .placement import MeasurementPlan, VerificationReport
from .routing import TimeModel, Tour, cumulative_times, tour_time

__all__ = [
    "certificate_to_payload",
    "environment_from_payload",
    "load_dataset",
    "load_environment",
    "plan_svg",
    "tour_svg",
    "tour_to_payload",
    "verification_to_payload",
    "write_curve_csv",
    "write_json",
    "write_plan_csv",
    "write_tour_json",
]

_DATASET_HEADER = "x,y,value"
_PLAN_HEADER = "x,y,n_measurements"


def _fmt(value: float) -> str:
    return repr(float(value))


def environment_from_payload(payload) -> Environment:
    if not isinstance(payload, dict) or "type" not in payload:
        raise ValueError("environment json must be an object with a 'type' key")
    kind = payload["type"]
    try:
        if kind == "rectangle":
            return Environment.rectangle(payload["min"], payload["max"])
        if kind == "polygon":
            return Environment.polygon(payload["vertices"])
    except KeyError as exc:
        raise ValueError(f"environment json is missing the {exc.args[0]!r} key") from None
    raise ValueError(f"unknown environment type {kind!r}")


def load_environment(path) -> Environment:
    return environment_from_payload(json.loads(Path(path).read_text(encoding="utf-8")))


def load_dataset(path):
    """Read an 'x,y,value' csv into (points, centered values, mean).

    Blank lines and '#' comments are skipped anywhere. Values are
    centered at ingestion; the subtracted mean is returned so
    predictions can be de-centered later.
    """
    rows = []
    header_seen = False
    for i, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != _DATASET_HEADER:
                raise ValueError(f"line {i}: expected header {_DATASET_HEADER!r}, got {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {i}: expected 3 comma-separated fields, got {len(parts)}")
        try:
            x, y, v = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"line {i}: non-numeric field in {line!r}") from None
        if not all(math.isfinite(t) for t in (x, y, v)):
            raise ValueError(f"line {i}: non-finite value in {line!r}")
        rows.append((x, y, v))
    if not header_seen:
        raise ValueError(f"line 1: missing {_DATASET_HEADER!r} header")
    if not rows:
        raise ValueError("no data rows after the header")
    arr = np.asarray(rows, dtype=float)
    mean = float(arr[:, 2].mean())
    return arr[:, :2], arr[:, 2] - mean, mean


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)


def write_json(path, payload) -> None:
    Path(path).write_text(_dumps(payload) + "\n", encoding="utf-8")


def write_plan_csv(path, plan: MeasurementPlan) -> None:
    lines = [_PLAN_HEADER]
    lines.extend("%r,%r,%d" % (float(x), float(y), int(n)) for (x, y), n in plan.entries)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def verification_to_payload(report: VerificationReport) -> dict:
    return {
        "max_variance": report.max_variance,
        "argmax": [report.argmax[0], report.argmax[1]],
        "mean_variance": report.mean_variance,
        "passed": report.passed,
        "grid_spacing": report.grid_spacing,
        "grid_count": report.grid_count,
        "method": report.method,
        "tiles": list(report.tiles),
    }


def _tour_header(tour: Tour, time: TimeModel) -> dict:
    return {
        "depot": [tour.depot[0], tour.depot[1]],
        # every tour returns to its depot; the key keeps the schema
        "closed": True,
        "travel_length": tour.travel_length(),
        "total_time": tour_time(tour, time),
        "measurement_time": time.measurement_time,
        # travel runs at unit speed; the key keeps the schema
        "speed": 1.0,
    }


def tour_to_payload(tour: Tour, time: TimeModel) -> dict:
    """Tour as json-ready dict, cumulative elapsed time per waypoint.

    The elapsed column makes split thresholds auditable from the file
    alone. This is the schema ``write_tour_json`` renders.
    """
    elapsed = cumulative_times(tour, time)
    payload = _tour_header(tour, time)
    payload["waypoints"] = [
        {
            "location": [loc[0], loc[1]],
            "dwell": int(dwell),
            "elapsed": float(t),
            "disk": None if tour.disk_index is None else int(tour.disk_index[i]),
        }
        for i, ((loc, dwell), t) in enumerate(zip(tour.waypoints, elapsed))
    ]
    return payload


# One waypoint of ``tour_to_payload`` at json's indent=2, keys sorted:
# disk, dwell, elapsed, location.
_WAYPOINT = (
    '    {\n      "disk": %s,\n      "dwell": %d,\n      "elapsed": %r,\n'
    '      "location": [\n        %r,\n        %r\n      ]\n    }'
)


def write_tour_json(path, tour: Tour, time: TimeModel) -> None:
    """Write the bytes of ``write_json(path, tour_to_payload(tour, time))``.

    A tour whose travel time overflows to infinity raises ValueError.
    """
    elapsed = cumulative_times(tour, time)
    header = _tour_header(tour, time)
    if not (math.isfinite(header["total_time"]) and np.isfinite(elapsed).all()):
        raise ValueError(f"the travel time of a tour from depot {tour.depot} overflows")
    header["waypoints"] = []
    text = _dumps(header)
    if tour.waypoints:
        tags = repeat("null") if tour.disk_index is None else tour.disk_index
        rows = ",\n".join(
            _WAYPOINT % (tag, dwell, t, x, y)
            for tag, ((x, y), dwell), t in zip(tags, tour.waypoints, elapsed.tolist())
        )
        # "waypoints" sorts last, so its [] is the last one in the text
        head, tail = text.rsplit("[]", 1)
        text = head + "[\n" + rows + "\n  ]" + tail
    Path(path).write_text(text + "\n", encoding="utf-8")


def certificate_to_payload(cert: MakespanCertificate) -> dict:
    return dataclasses.asdict(cert)


def write_curve_csv(path, header, rows) -> None:
    """One line per row; every row has one number per header column."""
    header = tuple(header)
    template = ",".join(["%r"] * len(header))
    lines = [",".join(header)]
    lines.extend(template % tuple(map(float, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _env_path_data(env: Environment) -> str:
    first, *rest = env.vertices.tolist()
    parts = ["M %r %r" % tuple(first)]
    parts.extend(["L %r %r" % tuple(v) for v in rest])
    parts.append("Z")
    return " ".join(parts)


def _svg_document(env: Environment, plan: MeasurementPlan, tour: Tour | None) -> str:
    x0, y0, x1, y1 = env.bounds
    pad = max((d.radius for d in plan.sweep_disks), default=0.0) + 0.05 * env.diameter
    view = f"{_fmt(x0 - pad)} {_fmt(y0 - pad)} {_fmt(x1 - x0 + 2 * pad)} {_fmt(y1 - y0 + 2 * pad)}"
    stroke = env.diameter / 500.0
    width, dash, dot = _fmt(stroke), _fmt(4 * stroke), _fmt(env.diameter / 300.0)
    # disk centers and radii, tour stops: floats already (Disk and Tour
    # normalize them); plan entries may hold numpy scalars or ints
    mis = f'<circle cx="%r" cy="%r" r="%r" fill="none" stroke="#1f77b4" stroke-width="{width}"/>'
    sweep = (
        f'<circle cx="%r" cy="%r" r="%r" fill="none" stroke="#2ca02c" '
        f'stroke-dasharray="{dash}" stroke-width="{width}"/>'
    )
    leg = f'<line x1="%r" y1="%r" x2="%r" y2="%r" stroke="#d62728" stroke-width="{width}"/>'
    site = f'<circle cx="%r" cy="%r" r="{dot}" fill="#202020"/>'

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">',
        # data coordinates run y-up; flip so north stays on top
        f'<g transform="translate(0 {_fmt(y0 + y1)}) scale(1 -1)">',
        f'<path d="{_env_path_data(env)}" fill="none" stroke="#202020" stroke-width="{_fmt(2 * stroke)}"/>',
        '<g id="independent-disks">',
    ]
    out.extend([mis % (*d.center, d.radius) for d in plan.mis_disks])
    out.append("</g>")
    out.append('<g id="sweep-disks">')
    out.extend([sweep % (*d.center, d.radius) for d in plan.sweep_disks])
    out.append("</g>")
    if tour is not None:
        out.append('<g id="legs">')
        stops = [tour.depot] + [loc for loc, _ in tour.waypoints] + [tour.depot]
        out.extend([leg % (a + b) for a, b in zip(stops, stops[1:])])
        out.append("</g>")
    out.append('<g id="sites">')
    out.extend([site % (float(x), float(y)) for (x, y), _ in plan.entries])
    out.append("</g>")
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def plan_svg(env: Environment, plan: MeasurementPlan) -> str:
    """Environment outline, both disk families, and measurement sites."""
    return _svg_document(env, plan, None)


def tour_svg(env: Environment, plan: MeasurementPlan, tour: Tour) -> str:
    """Plan drawing plus one line per tour leg."""
    return _svg_document(env, plan, tour)
