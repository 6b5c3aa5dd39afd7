"""Split one closed measurement tour into k depot-anchored subtours.

The cut rule walks the elapsed-time ledger of the source tour, where
elapsed time at a stop includes travel so far plus every dwell up to and
including that stop, and ends subtour j at the last measurement stop
whose elapsed time stays within j/k of the adjusted horizon.  Each robot
pays at most two extra depot legs over its share of the source tour;
where transit stops take the tour off the straight legs between
measurement stops, it may pay instead the longest stretch between two
of them.  The makespan certificate charges whichever is larger.

Travel runs at unit speed, so a distance is also a time.  The split
takes nothing but the tour, the robot count and the time model: the
depot reach and the dwell budget the bound charges are read off the
tour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .routing import TimeModel, Tour, cumulative_times, tour_time

__all__ = [
    "MakespanCertificate",
    "SubtourSet",
    "farthest_dwell_distance",
    "makespan",
    "makespan_certificate",
    "split_tour",
]


def farthest_dwell_distance(tour: Tour) -> float:
    """Depot distance of the farthest waypoint that takes measurements."""
    reach = 0.0
    for location, dwell in tour.waypoints:
        if dwell > 0:
            reach = max(reach, math.dist(tour.depot, location))
    return reach


def _largest_dwell(tour: Tour) -> int:
    return max((dwell for _, dwell in tour.waypoints), default=0)


@dataclass(frozen=True)
class SubtourSet:
    """k depot-anchored subtours partitioning one source tour.

    ``time`` is the model the cuts were placed under; the makespan and
    its certificate read it from here.
    """

    subtours: tuple[Tour, ...]
    source: Tour
    time: TimeModel

    def __post_init__(self) -> None:
        if not self.subtours:
            raise ValueError("need at least one subtour")
        merged: list = []
        for sub in self.subtours:
            if sub.depot != self.source.depot:
                raise ValueError("all subtours must share the source depot")
            merged.extend(sub.waypoints)
        if tuple(merged) != self.source.waypoints:
            raise ValueError("subtours do not partition the source waypoints in order")


def split_tour(tour: Tour, robots: int, time: TimeModel) -> SubtourSet:
    """Cut a closed tour into ``robots`` depot-anchored subtours.

    Subtour j ends at the last measurement stop whose elapsed time is at
    most (j/k)(T - (2L + eta*n)) + L + eta*n, with T the full tour time,
    L the depot distance of the farthest measurement stop and n the
    largest dwell at any one stop.  Stops after the cut, including
    measurement-free transit waypoints, ride with the next subtour.
    """
    if not isinstance(robots, int) or robots < 1:
        raise ValueError("robots must be an integer >= 1")
    if robots == 1:
        return SubtourSet((tour,), tour, time)

    reach = farthest_dwell_distance(tour)
    total = tour_time(tour, time)
    elapsed = cumulative_times(tour, time)
    launch = reach + time.measurement_time * _largest_dwell(tour)
    slack = total - (launch + reach)

    dwell_idx = [i for i, (_, n) in enumerate(tour.waypoints) if n > 0]
    cuts: list[int] = []
    prev = -1
    for j in range(1, robots):
        threshold = (j / robots) * slack + launch
        cut = prev
        for i in dwell_idx:
            if elapsed[i] <= threshold:
                # thresholds are non-decreasing whenever the tour covers
                # the farthest round trip; the running max guards
                # degenerate tours
                cut = max(cut, i)
        cuts.append(cut)
        prev = cut

    bounds = [-1] + cuts + [len(tour.waypoints) - 1]
    subtours = []
    for lo, hi in zip(bounds, bounds[1:]):
        tags = None
        if tour.disk_index is not None:
            tags = tour.disk_index[lo + 1 : hi + 1]
        subtours.append(Tour(tour.depot, tour.waypoints[lo + 1 : hi + 1], disk_index=tags))
    return SubtourSet(tuple(subtours), tour, time)


def makespan(split: SubtourSet) -> float:
    return max((tour_time(sub, split.time) for sub in split.subtours), default=0.0)


@dataclass(frozen=True)
class MakespanCertificate:
    """A split's makespan against its bound, and the tour facts the bound uses.

    Every field is derived from the split; ``dwell_count`` is the
    largest dwell at any one stop of the source tour.
    """

    bound: float
    makespan: float
    satisfied: bool
    robots: int
    depot_reach: float
    dwell_count: int
    measurement_time: float
    total_time: float


def makespan_certificate(split: SubtourSet) -> MakespanCertificate:
    """Check the split against its guarantee.

    The bound charges each robot its 1/k share of the source tour beyond
    the farthest round trip, plus four depot-reach legs and two dwell
    budgets, all under the time model the split was cut with. Transit
    stops off the straight legs between measurement stops can outrun
    that charge, so the bound is never less than the share plus two
    depot-reach legs, one dwell budget and the largest step of elapsed
    time between consecutive measurement stops, the depot at the start
    and end of the tour included.
    """
    source, time = split.source, split.time
    robots = len(split.subtours)
    reach = farthest_dwell_distance(source)
    dwell_count = _largest_dwell(source)
    total = tour_time(source, time)
    dwell_budget = time.measurement_time * dwell_count
    elapsed = cumulative_times(source, time)[[n > 0 for _, n in source.waypoints]]
    marks = [0.0, *elapsed.tolist(), total]
    gap = max(b - a for a, b in zip(marks, marks[1:]))
    share = (total - (2.0 * reach + dwell_budget)) / robots
    bound = max(share + 4.0 * reach + 2.0 * dwell_budget, share + 2.0 * reach + gap + dwell_budget)
    worst = makespan(split)
    return MakespanCertificate(
        bound=bound,
        makespan=worst,
        satisfied=worst <= bound + 1e-9,
        robots=robots,
        depot_reach=reach,
        dwell_count=dwell_count,
        measurement_time=time.measurement_time,
        total_time=total,
    )
