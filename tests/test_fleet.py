from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from fieldcover.fleet import (
    MakespanCertificate,
    SplitParameters,
    SubtourSet,
    farthest_dwell_distance,
    makespan,
    makespan_certificate,
    split_tour,
)
from fieldcover.geometry import Environment
from fieldcover.gp import Hyperparameters
from fieldcover.placement import AccuracySpec, disk_cover_placement
from fieldcover.routing import TimeModel, Tour, tour_from_plan, tour_time

# depot (0,0); legs 3,4,3,4; dwell times 2*(2+1); 3-4-5 geometry keeps
# every expected number exact in float
HAND_TOUR = Tour((0.0, 0.0), (((3.0, 0.0), 2), ((3.0, 4.0), 0), ((0.0, 4.0), 1)))
HAND_PARAMS = SplitParameters(2, 4.0, 2, 2.0)
HAND_TIME = TimeModel(2.0)


def reference_cuts(tour, k, reach, dwell_count, eta):
    t = 0.0
    pos = tour.depot
    elapsed = []
    for loc, n in tour.waypoints:
        t += math.dist(pos, loc) + eta * n
        elapsed.append(t)
        pos = loc
    total = t + math.dist(pos, tour.depot)
    cuts = []
    prev = -1
    for j in range(1, k):
        threshold = (j / k) * (total - (2 * reach + eta * dwell_count)) + reach + eta * dwell_count
        cut = prev
        for i, ((_, n), te) in enumerate(zip(tour.waypoints, elapsed)):
            if n > 0 and te <= threshold:
                cut = max(cut, i)
        cuts.append(cut)
        prev = cut
    return cuts


def random_tour(rng, n_stops, dwell_count):
    depot = tuple(rng.uniform(0, 10, size=2))
    stops = [tuple(p) for p in rng.uniform(0, 10, size=(n_stops, 2))]
    waypoints = []
    prev = depot
    for p in stops:
        if rng.random() < 0.25:
            # transit stop on the segment, so no waypoint ever sits
            # farther from the depot than the measurement stops do
            frac = rng.uniform(0.2, 0.8)
            mid = (prev[0] + frac * (p[0] - prev[0]), prev[1] + frac * (p[1] - prev[1]))
            waypoints.append((mid, 0))
        waypoints.append((p, dwell_count))
        prev = p
    return Tour(depot, tuple(waypoints))


def test_parameter_validation():
    with pytest.raises(ValueError):
        SplitParameters(0, 1.0, 1, 1.0)
    with pytest.raises(ValueError):
        SplitParameters(2, -1.0, 1, 1.0)
    with pytest.raises(ValueError):
        SplitParameters(2, 1.0, 0, 1.0)
    with pytest.raises(ValueError):
        SplitParameters(2, 1.0, 1, -0.5)


def test_subtour_set_rejects_bad_partitions():
    sub = Tour((0.0, 0.0), HAND_TOUR.waypoints[:2])
    with pytest.raises(ValueError):
        SubtourSet((sub,), HAND_TOUR)
    other_depot = Tour((1.0, 0.0), HAND_TOUR.waypoints)
    with pytest.raises(ValueError):
        SubtourSet((other_depot,), HAND_TOUR)


def test_reach_is_recomputed_not_trusted():
    assert farthest_dwell_distance(HAND_TOUR) == 4.0
    bad = SplitParameters(2, 3.9, 2, 2.0)
    with pytest.raises(ValueError):
        split_tour(HAND_TOUR, bad)


def test_identity_split():
    params = SplitParameters(1, 4.0, 2, 2.0)
    split = split_tour(HAND_TOUR, params)
    assert len(split.subtours) == 1
    assert split.subtours[0] is HAND_TOUR
    assert makespan(split, HAND_TIME) == pytest.approx(tour_time(HAND_TOUR, HAND_TIME))
    cert = makespan_certificate(split, params, HAND_TIME)
    assert cert.bound == pytest.approx(32.0)
    assert cert.satisfied


def test_hand_instance_cut_and_certificate():
    split = split_tour(HAND_TOUR, HAND_PARAMS)
    assert split.subtours[0].waypoints == (((3.0, 0.0), 2),)
    # the transit stop rides with the next robot
    assert split.subtours[1].waypoints == (((3.0, 4.0), 0), ((0.0, 4.0), 1))
    cert = makespan_certificate(split, HAND_PARAMS, HAND_TIME)
    assert cert.makespan == pytest.approx(14.0)
    assert cert.bound == pytest.approx(28.0)
    assert cert.satisfied
    assert isinstance(cert, MakespanCertificate)


def test_dwell_time_counts_toward_the_cut():
    # with dwells outside the ledger the first robot would take both
    # stops; counting them moves the cut to the first stop
    tour = Tour((0.0, 0.0), (((3.0, 0.0), 2), ((6.0, 0.0), 2)))
    split = split_tour(tour, SplitParameters(2, 6.0, 2, 10.0))
    assert split.subtours[0].waypoints == (((3.0, 0.0), 2),)
    assert split.subtours[1].waypoints == (((6.0, 0.0), 2),)


def test_star_instance_one_stop_per_robot():
    m = 5
    radius = 3.0
    waypoints = tuple(
        ((radius * math.cos(2 * math.pi * i / m), radius * math.sin(2 * math.pi * i / m)), 1)
        for i in range(m)
    )
    tour = Tour((0.0, 0.0), waypoints)
    params = SplitParameters(m, radius, 1, 0.7)
    split = split_tour(tour, params)
    assert [sub.waypoints for sub in split.subtours] == [(w,) for w in waypoints]
    assert makespan_certificate(split, params, TimeModel(0.7)).satisfied


def test_single_far_stop_boundary_case():
    # elapsed time at the only stop equals every threshold exactly, so
    # the at-or-below rule assigns it to the first robot
    tour = Tour((0.0, 0.0), (((7.0, 0.0), 3),))
    params = SplitParameters(3, 7.0, 3, 1.0)
    split = split_tour(tour, params)
    assert split.subtours[0].waypoints == tour.waypoints
    assert split.subtours[1].waypoints == ()
    assert split.subtours[2].waypoints == ()
    cert = makespan_certificate(split, params, TimeModel(1.0))
    assert cert.makespan == pytest.approx(17.0)
    assert cert.bound == pytest.approx(34.0)
    assert cert.satisfied


def test_more_robots_than_stops():
    tour = Tour((0.0, 0.0), (((1.0, 0.0), 1), ((2.0, 0.0), 1)))
    params = SplitParameters.for_tour(tour, 5, 1, 0.5)
    split = split_tour(tour, params)
    assert len(split.subtours) == 5
    assert sum(len(sub.waypoints) for sub in split.subtours) == 2
    assert all(sub.depot == tour.depot for sub in split.subtours)
    assert makespan_certificate(split, params, TimeModel(0.5)).satisfied


def test_empty_tour_splits_to_depot_only():
    tour = Tour((0.0, 0.0), ())
    split = split_tour(tour, SplitParameters(3, 0.0, 1, 0.5))
    assert len(split.subtours) == 3
    assert all(sub.waypoints == () for sub in split.subtours)
    assert makespan(split, TimeModel(0.5)) == 0.0


def test_random_tours_match_reference_and_bound():
    rng = np.random.default_rng(42)
    eta = 0.8
    for trial in range(30):
        dwell_count = int(rng.integers(1, 4))
        tour = random_tour(rng, int(rng.integers(3, 30)), dwell_count)
        k = int(rng.integers(2, 7))
        params = SplitParameters.for_tour(tour, k, dwell_count, eta)
        split = split_tour(tour, params)

        expected = reference_cuts(tour, k, params.depot_reach, dwell_count, eta)
        assert expected == sorted(expected)
        sizes = [len(sub.waypoints) for sub in split.subtours]
        bounds = [-1] + expected + [len(tour.waypoints) - 1]
        assert sizes == [hi - lo for lo, hi in zip(bounds, bounds[1:])]

        merged = [w for sub in split.subtours for w in sub.waypoints]
        assert tuple(merged) == tour.waypoints
        assert makespan_certificate(split, params, TimeModel(eta)).satisfied


def test_fifty_waypoint_partition():
    rng = np.random.default_rng(7)
    tour = random_tour(rng, 50, 2)
    params = SplitParameters.for_tour(tour, 3, 2, 0.8)
    split = split_tour(tour, params)
    assert len(split.subtours) == 3
    merged = [w for sub in split.subtours for w in sub.waypoints]
    assert tuple(merged) == tour.waypoints
    cert = makespan_certificate(split, params, TimeModel(0.8))
    assert cert.satisfied
    assert cert.makespan >= tour_time(tour, TimeModel(0.8)) / 3 - 1e-9


def test_split_of_planned_tour_keeps_measurements():
    env = Environment.rectangle((0, 0), (3.0, 2.0))
    h = Hyperparameters(1.0, 1.0, 0.1)
    spec = AccuracySpec(0.5, 2.0)
    plan = disk_cover_placement(env, h, spec)
    time = TimeModel(1.0)
    tour = tour_from_plan(plan)
    params = SplitParameters.for_tour(tour, 3, plan.measurements_per_site, 1.0)
    split = split_tour(tour, params)

    merged = [w for sub in split.subtours for w in sub.waypoints]
    assert tuple(merged) == tour.waypoints
    dwells = Counter(w for sub in split.subtours for w in sub.waypoints if w[1] > 0)
    assert dwells == Counter(w for w in tour.waypoints if w[1] > 0)
    for sub in split.subtours:
        assert sub.closed
        assert sub.depot == tour.depot
    assert makespan_certificate(split, params, time).satisfied
