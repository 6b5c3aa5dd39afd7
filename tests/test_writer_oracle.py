"""The template writers against the writers they replaced.

Tours used to go through ``json.dumps(tour_to_payload(...), indent=2)``,
and every SVG attribute and CSV cell through ``repr(float(value))``, one
function call each. Now a tour is a json header plus one %-template per
waypoint, and each SVG element and CSV row is one %r template over
Python floats. The copies below are the old writers. Every file must
come out byte for byte the same, on generated tours, plans and rows and
on small runs of the commands that write them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldcover import cli
from fieldcover import io as fileio
from fieldcover.geometry import Disk, Environment
from fieldcover.placement import MeasurementPlan
from fieldcover.routing import TimeModel, Tour, cumulative_times, tour_time


def reference_write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def reference_tour_to_payload(tour: Tour, time: TimeModel) -> dict:
    elapsed = cumulative_times(tour, time)
    waypoints = []
    for i, ((loc, dwell), t) in enumerate(zip(tour.waypoints, elapsed)):
        waypoints.append(
            {
                "location": [loc[0], loc[1]],
                "dwell": int(dwell),
                "elapsed": float(t),
                "disk": None if tour.disk_index is None else int(tour.disk_index[i]),
            }
        )
    return {
        "depot": [tour.depot[0], tour.depot[1]],
        "closed": True,
        "waypoints": waypoints,
        "travel_length": tour.travel_length(),
        "total_time": tour_time(tour, time),
        "measurement_time": time.measurement_time,
        "speed": 1.0,
    }


def reference_write_tour(path, tour: Tour, time: TimeModel) -> None:
    reference_write_json(path, reference_tour_to_payload(tour, time))


def _fmt(value) -> str:
    return repr(float(value))


def reference_write_plan_csv(path, plan: MeasurementPlan) -> None:
    lines = ["x,y,n_measurements"]
    lines.extend(f"{_fmt(x)},{_fmt(y)},{int(n)}" for (x, y), n in plan.entries)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_write_curve_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) for c in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_svg_document(env: Environment, plan: MeasurementPlan, tour: Tour | None) -> str:
    x0, y0, x1, y1 = env.bounds
    pad = max((d.radius for d in plan.sweep_disks), default=0.0) + 0.05 * env.diameter
    view = f"{_fmt(x0 - pad)} {_fmt(y0 - pad)} {_fmt(x1 - x0 + 2 * pad)} {_fmt(y1 - y0 + 2 * pad)}"
    stroke = env.diameter / 500.0
    dot = env.diameter / 300.0
    verts = env.vertices
    path = [f"M {_fmt(verts[0, 0])} {_fmt(verts[0, 1])}"]
    path.extend(f"L {_fmt(x)} {_fmt(y)}" for x, y in verts[1:])
    path.append("Z")

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">',
        f'<g transform="translate(0 {_fmt(y0 + y1)}) scale(1 -1)">',
        f'<path d="{" ".join(path)}" fill="none" stroke="#202020" stroke-width="{_fmt(2 * stroke)}"/>',
        '<g id="independent-disks">',
    ]
    for d in plan.mis_disks:
        out.append(
            f'<circle cx="{_fmt(d.center[0])}" cy="{_fmt(d.center[1])}" r="{_fmt(d.radius)}" '
            f'fill="none" stroke="#1f77b4" stroke-width="{_fmt(stroke)}"/>'
        )
    out.append("</g>")
    out.append('<g id="sweep-disks">')
    for d in plan.sweep_disks:
        out.append(
            f'<circle cx="{_fmt(d.center[0])}" cy="{_fmt(d.center[1])}" r="{_fmt(d.radius)}" '
            f'fill="none" stroke="#2ca02c" stroke-dasharray="{_fmt(4 * stroke)}" '
            f'stroke-width="{_fmt(stroke)}"/>'
        )
    out.append("</g>")
    if tour is not None:
        out.append('<g id="legs">')
        stops = [tour.depot] + [loc for loc, _ in tour.waypoints] + [tour.depot]
        for (ax, ay), (bx, by) in zip(stops, stops[1:]):
            out.append(
                f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
                f'stroke="#d62728" stroke-width="{_fmt(stroke)}"/>'
            )
        out.append("</g>")
    out.append('<g id="sites">')
    for (x, y), _ in plan.entries:
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(dot)}" fill="#202020"/>')
    out.append("</g>")
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


# Floats that print differently from their neighbours: signed zero, the
# smallest subnormal, huge and integer-valued ones. Tour coordinates stay
# within 1e300 so that no travel time overflows.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0, 1e16, 2.0**53, 0.1, 1 / 3]
coord = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=-1e300, max_value=1e300),
    st.integers(-10**6, 10**6).map(float),
)
# numpy float64 and plain ints must print as the Python float they equal
cell = st.one_of(coord, coord.map(np.float64), st.integers(-10**6, 10**6))
anything = st.one_of(cell, st.floats(allow_nan=True, allow_infinity=True))
time_models = st.builds(
    TimeModel, st.one_of(st.sampled_from([0.0, 1.0, 0.5, 5e-324]), st.floats(0.0, 1e3))
)


@st.composite
def tours(draw):
    depot = (draw(cell), draw(cell))
    waypoints = draw(st.lists(st.tuples(st.tuples(cell, cell), st.integers(0, 6)), max_size=12))
    tagged = draw(st.booleans())
    tags = draw(st.lists(st.integers(0, 10**6), min_size=len(waypoints), max_size=len(waypoints)))
    return Tour(depot, tuple(waypoints), tuple(tags) if tagged else None)


disks = st.builds(
    Disk,
    st.tuples(coord, coord),
    st.one_of(st.sampled_from([5e-324, 1.0, 3.0, 1e16]), st.floats(1e-6, 1e6)),
)


@st.composite
def plans(draw):
    sweep = draw(st.lists(disks, min_size=1, max_size=5))
    entries = draw(
        st.lists(
            st.tuples(st.tuples(cell, cell), st.one_of(st.integers(1, 9), st.integers(1, 9).map(np.int64))),
            max_size=15,
        )
    )
    provenance = draw(st.lists(st.integers(0, len(sweep) - 1), min_size=len(entries), max_size=len(entries)))
    rows = draw(st.lists(st.integers(0, 4), min_size=len(entries), max_size=len(entries)))
    mis = draw(st.lists(disks, max_size=5))
    return MeasurementPlan(
        tuple(entries), tuple(provenance), tuple(rows), tuple(mis), tuple(sweep), 1
    )


@st.composite
def environments(draw):
    x0, y0 = draw(st.sampled_from([0.0, -0.0, -3.5, 1e6])), draw(st.sampled_from([0.0, 2.0, -1e-3]))
    w, h = draw(st.floats(1e-3, 1e4)), draw(st.floats(1e-3, 1e4))
    if draw(st.booleans()):
        return Environment.rectangle((x0, y0), (x0 + w, y0 + h))
    # an L-shaped polygon on the same box
    return Environment.polygon(
        [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h / 2), (x0 + w / 2, y0 + h / 2), (x0 + w / 2, y0 + h), (x0, y0 + h)]
    )


def same_bytes(tmp: Path, write_new, write_old) -> None:
    write_new(tmp / "new")
    write_old(tmp / "old")
    assert (tmp / "new").read_bytes() == (tmp / "old").read_bytes()


@settings(max_examples=150, deadline=None)
@given(tour=tours(), time=time_models)
def test_tour_json_matches_the_json_encoder(tour, time, tmp_path_factory):
    tmp = tmp_path_factory.getbasetemp()
    same_bytes(
        tmp,
        lambda p: fileio.write_tour_json(p, tour, time),
        lambda p: reference_write_tour(p, tour, time),
    )
    assert fileio.tour_to_payload(tour, time) == reference_tour_to_payload(tour, time)


@pytest.mark.parametrize("disk_index", [None, ()])
def test_tour_without_waypoints(disk_index, tmp_path):
    # the one leg, depot to depot, is 0.0 long
    tour = Tour((-0.0, 5e-324), (), disk_index)
    same_bytes(
        tmp_path,
        lambda p: fileio.write_tour_json(p, tour, TimeModel(1.0)),
        lambda p: reference_write_tour(p, tour, TimeModel(1.0)),
    )


@settings(max_examples=100, deadline=None)
@given(env=environments(), plan=plans(), tour=st.one_of(st.none(), tours()))
def test_svg_matches_the_per_attribute_formatter(env, plan, tour):
    assert fileio._svg_document(env, plan, tour) == reference_svg_document(env, plan, tour)


@settings(max_examples=100, deadline=None)
@given(plan=plans())
def test_plan_csv_matches_the_per_cell_formatter(plan, tmp_path_factory):
    same_bytes(
        tmp_path_factory.getbasetemp(),
        lambda p: fileio.write_plan_csv(p, plan),
        lambda p: reference_write_plan_csv(p, plan),
    )


@settings(max_examples=100, deadline=None)
@given(
    width=st.integers(1, 6),
    data=st.data(),
)
def test_curve_csv_matches_the_per_cell_formatter(width, data, tmp_path_factory):
    header = tuple(f"c{i}" for i in range(width))
    rows = data.draw(st.lists(st.lists(anything, min_size=width, max_size=width), max_size=20))
    same_bytes(
        tmp_path_factory.getbasetemp(),
        lambda p: fileio.write_curve_csv(p, header, iter(rows)),
        lambda p: reference_write_curve_csv(p, header, rows),
    )


def use_old_writers(monkeypatch) -> None:
    monkeypatch.setattr(fileio, "write_json", reference_write_json)
    monkeypatch.setattr(fileio, "write_tour_json", reference_write_tour)
    monkeypatch.setattr(fileio, "write_plan_csv", reference_write_plan_csv)
    monkeypatch.setattr(fileio, "write_curve_csv", reference_write_curve_csv)
    monkeypatch.setattr(fileio, "plan_svg", lambda env, plan: reference_svg_document(env, plan, None))
    monkeypatch.setattr(fileio, "tour_svg", reference_svg_document)


COMMON = ["--hyper", "3,2,0.1", "--delta", "1.2", "--alpha", "1.5"]
COMMANDS = {
    "split": ["--eta", "0.5", "--depot", "0.25,-0.0", "--k", "3"],
    "simulate": ["--seed", "7", "--trials", "2", "--grid-res", "0.7"],
    "compare": ["--eta", "0.5", "--depot", "0,0", "--seed", "7", "--resolutions", "4"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_commands_write_the_same_files_as_the_old_writers(command, tmp_path, monkeypatch):
    env = tmp_path / "env.json"
    reference_write_json(env, {"type": "rectangle", "min": [0.0, 0.0], "max": [14.0, 14.0]})
    args = [command, "--env", str(env), *COMMON, *COMMANDS[command]]
    assert cli.main([*args, "--out", str(tmp_path / "new")]) == 0
    use_old_writers(monkeypatch)
    assert cli.main([*args, "--out", str(tmp_path / "old")]) == 0

    new = {p.name: p.read_bytes() for p in (tmp_path / "new").iterdir()}
    old = {p.name: p.read_bytes() for p in (tmp_path / "old").iterdir()}
    assert sorted(new) == sorted(old)
    assert new == old
