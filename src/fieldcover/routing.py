"""Single-robot touring of a measurement plan's own sites.

The route structure is fixed: an approximate traveling-salesman order
over the sweep-disk centers fixes the order of the disks, and the robot
runs a serpentine through each disk's plan entries, from the last entry
of the disk before. Every stop measures: the tour visits exactly the
entries it is given, each with its own count as dwell, so it measures
the sites that verification certified; entries at one location are
visited back to back. Travel runs at unit speed, so a distance is also
a time, and every measurement costs a fixed dwell, so tour time is one
number with no hidden state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError
from .geometry import mis_tour_lower_bound
from .placement import MeasurementPlan

_IMPROVE_TOL = -1e-12


@dataclass(frozen=True)
class TimeModel:
    """Unit-speed travel plus a fixed cost per measurement."""

    measurement_time: float

    def __post_init__(self):
        eta = float(self.measurement_time)
        if not math.isfinite(eta) or eta < 0.0:
            raise ValueError(f"measurement_time must be finite and >= 0, got {eta}")
        object.__setattr__(self, "measurement_time", eta)


@dataclass(frozen=True)
class Tour:
    """A visit of waypoints, each with a dwell count, that returns to its depot.

    Every waypoint is a measurement site: its dwell count is at least
    one. ``disk_index`` tags each waypoint with the sweep disk it
    belongs to when the tour came from a plan.
    """

    depot: tuple[float, float]
    waypoints: tuple[tuple[tuple[float, float], int], ...]
    disk_index: tuple[int, ...] | None = None

    def __post_init__(self):
        dx, dy = float(self.depot[0]), float(self.depot[1])
        if not (math.isfinite(dx) and math.isfinite(dy)):
            raise ValueError(f"depot must be finite, got {self.depot}")
        object.__setattr__(self, "depot", (dx, dy))
        norm = []
        for loc, dwell in self.waypoints:
            dwell = int(dwell)
            if dwell < 1:
                raise ValueError(f"dwell count must be >= 1, got {dwell}")
            x, y = float(loc[0]), float(loc[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"waypoint must be finite, got {loc}")
            norm.append(((x, y), dwell))
        object.__setattr__(self, "waypoints", tuple(norm))
        if self.disk_index is not None:
            idx = tuple(int(i) for i in self.disk_index)
            if len(idx) != len(norm):
                raise ValueError("disk_index must tag every waypoint")
            object.__setattr__(self, "disk_index", idx)

    @property
    def total_dwells(self) -> int:
        return sum(d for _, d in self.waypoints)

    def travel_length(self) -> float:
        return self._travel_length

    # summed once per tour: the certificate, the overflow check and every
    # tour file ask for it
    @cached_property
    def _travel_length(self) -> float:
        return _route_length(self.depot, [loc for loc, _ in self.waypoints])


def tour_time(tour: Tour, time: TimeModel) -> float:
    """Travel at unit speed plus dwell cost; additive over legs."""
    return tour.travel_length() + time.measurement_time * tour.total_dwells


def cumulative_times(tour: Tour, time: TimeModel) -> np.ndarray:
    """Elapsed time at each waypoint, dwell at that waypoint included.

    Entry i is the time on the clock when the robot finishes waypoint i:
    all travel from the depot through waypoint i, plus every dwell up to
    and including waypoint i's own.
    """
    out = np.empty(len(tour.waypoints))
    clock = 0.0
    prev = tour.depot
    for i, (loc, dwell) in enumerate(tour.waypoints):
        clock += math.dist(prev, loc) + time.measurement_time * dwell
        out[i] = clock
        prev = loc
    return out


def _route_length(depot, order) -> float:
    pts = [depot] + list(order) + [depot]
    return sum(math.dist(a, b) for a, b in zip(pts, pts[1:]))


def tsp_heuristic(points, depot) -> list[tuple[float, float]]:
    """Nearest-neighbor order improved by full 2-opt, depot-anchored.

    Scans restart after every accepted exchange and stop when no segment
    reversal shortens the closed route by more than the rounding of its
    four distances, so the result is a 2-opt local optimum up to
    rounding. Ties in construction break on lexicographic point order.
    """
    pts = [(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise ValueError("tsp_heuristic needs at least one point")
    depot = (float(depot[0]), float(depot[1]))
    remaining = sorted(pts)
    order: list[tuple[float, float]] = []
    cur = depot
    while remaining:
        best = min(range(len(remaining)), key=lambda i: (math.dist(cur, remaining[i]), remaining[i]))
        cur = remaining.pop(best)
        order.append(cur)
    n = len(order)
    # the four distances (coordinate differences included) and the three
    # sums of an exchange round by less than 3 eps of the four terms'
    # total, so a move accepted below this share of it shortens the exact
    # route and the scan ends, however far away the depot is; the margin
    # is only worked out for the rare delta that passes the plain test
    rounding = 4.0 * sys.float_info.epsilon
    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            before_i = depot if i == 0 else order[i - 1]
            for j in range(i + 1, n):
                after_j = depot if j == n - 1 else order[j + 1]
                a = math.dist(before_i, order[j])
                b = math.dist(order[i], after_j)
                c = math.dist(before_i, order[i])
                d = math.dist(order[j], after_j)
                delta = a + b - c - d
                if delta < _IMPROVE_TOL and delta < _IMPROVE_TOL - rounding * (a + b + c + d):
                    order[i : j + 1] = order[i : j + 1][::-1]
                    improved = True
                    break
            if improved:
                break
    return order


def _serpentine_variants(rows) -> list[list]:
    variants = []
    for row_seq in (rows, rows[::-1]):
        for first_flip in (False, True):
            pts: list = []
            for idx, row in enumerate(row_seq):
                flip = (idx % 2 == 1) != first_flip
                pts.extend(row[::-1] if flip else row)
            variants.append(pts)
    return variants


def tour_from_plan(plan: MeasurementPlan, depot: tuple[float, float] | None = None) -> Tour:
    """Build the serpentine-per-disk route through the plan's entries.

    Visits sweep disks in the heuristic center order from the depot
    (default: the first sweep center). Within each disk the entries are
    grouped by ``plan.rows`` and run as a serpentine in whichever of its
    four orientations couples best with where the robot is, the last
    entry of the disk before (the depot, for the first disk), and with
    the next disk's center. Every entry is one waypoint with its own
    count as dwell, so the tour measures exactly the plan's multiset; an
    entry at a location that an earlier waypoint holds moves to directly
    after the waypoints there, with its own count and disk tag. A sweep
    disk with no entries is refused, since the tour would not enter it.
    The independent-set travel lower bound is re-checked on every call.
    """
    if not plan.sweep_disks:
        raise ValueError("plan has no sweep disks to tour")
    centers = [d.center for d in plan.sweep_disks]
    if depot is None:
        depot = centers[0]
    depot = (float(depot[0]), float(depot[1]))
    center_order = tsp_heuristic(centers, depot)
    index_of = {c: i for i, c in enumerate(centers)}
    disk_rows: dict[int, dict[int, list[int]]] = {}
    for k, (disk_i, row) in enumerate(zip(plan.provenance, plan.rows)):
        disk_rows.setdefault(disk_i, {}).setdefault(row, []).append(k)
    # location -> its (dwell, disk) waypoints, in order of first visit
    stops: dict[tuple[float, float], list[tuple[int, int]]] = {}
    here = depot
    for pos, center in enumerate(center_order):
        disk_i = index_of[center]
        # odd rows are stored backwards; undo that so every row reads one way
        by_row = sorted(disk_rows.get(disk_i, {}).items())
        rows = [idx[::-1] if row % 2 else idx for row, idx in by_row]
        if not rows:
            raise ValueError(f"sweep disk {disk_i} has no entries to tour")
        next_anchor = depot if pos == len(center_order) - 1 else center_order[pos + 1]
        best = None
        for order in _serpentine_variants(rows):
            first, last = plan.entries[order[0]][0], plan.entries[order[-1]][0]
            cost = math.dist(here, first) + math.dist(last, next_anchor)
            if best is None or cost < best[0] - 1e-15:
                best = (cost, order)
        for k in best[1]:
            loc, count = plan.entries[k]
            stops.setdefault(loc, []).append((count, disk_i))
        here = plan.entries[best[1][-1]][0]
    waypoints = [(loc, count) for loc, group in stops.items() for count, _ in group]
    tags = [disk_i for group in stops.values() for _, disk_i in group]
    tour = Tour(depot=depot, waypoints=tuple(waypoints), disk_index=tuple(tags))
    floor = mis_tour_lower_bound(list(plan.mis_disks))
    if tour.travel_length() < floor * (1.0 - 1e-12):
        raise NumericalError(
            f"tour travel {tour.travel_length()} under the independent-set floor {floor}"
        )
    if len(centers) >= 2 and _route_length(depot, center_order) < floor * (1.0 - 1e-12):
        raise NumericalError("center route under the independent-set floor")
    return tour


def intra_disk_travel(tour: Tour) -> dict[int, float]:
    """Travel between consecutive waypoints tagged with the same sweep disk."""
    if tour.disk_index is None:
        raise ValueError("tour carries no disk tags")
    out: dict[int, float] = {}
    for i in range(1, len(tour.waypoints)):
        tag = tour.disk_index[i]
        if tour.disk_index[i - 1] == tag:
            a = tour.waypoints[i - 1][0]
            b = tour.waypoints[i][0]
            out[tag] = out.get(tag, 0.0) + math.dist(a, b)
    return out
