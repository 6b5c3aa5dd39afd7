from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldcover.fleet import (
    MakespanCertificate,
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

# depot (0,0); legs 3,4,3,4; dwell times 2*(2+1+1); 3-4-5 geometry keeps
# every expected number exact in float
HAND_TOUR = Tour((0.0, 0.0), (((3.0, 0.0), 2), ((3.0, 4.0), 1), ((0.0, 4.0), 1)))
HAND_TIME = TimeModel(2.0)


def reference_cuts(tour, k, dwell_count, eta):
    reach = farthest_dwell_distance(tour)
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
            # a stop on the segment, so it never sits farther from the
            # depot than the segment's ends do
            frac = rng.uniform(0.2, 0.8)
            mid = (prev[0] + frac * (p[0] - prev[0]), prev[1] + frac * (p[1] - prev[1]))
            waypoints.append((mid, dwell_count))
        waypoints.append((p, dwell_count))
        prev = p
    return Tour(depot, tuple(waypoints))


def test_parameter_validation():
    for robots in (0, -1, 2.0):
        with pytest.raises(ValueError):
            split_tour(HAND_TOUR, robots, HAND_TIME)


def test_a_tour_whose_time_is_not_finite_is_refused_naming_the_depot():
    # the legs from this depot overflow to inf, so the thresholds would
    # be NaN and every comparison against them false
    tour = Tour((-1e308, 0.0), (((1e308, 0.0), 1), ((0.0, 0.0), 1)))
    assert not math.isfinite(tour_time(tour, HAND_TIME))
    for robots in (1, 3):
        with pytest.raises(ValueError, match=r"depot \(-1e\+308, 0\.0\)"):
            split_tour(tour, robots, HAND_TIME)


def test_subtour_set_rejects_bad_partitions():
    sub = Tour((0.0, 0.0), HAND_TOUR.waypoints[:2])
    with pytest.raises(ValueError):
        SubtourSet((sub,), HAND_TOUR, HAND_TIME)
    other_depot = Tour((1.0, 0.0), HAND_TOUR.waypoints)
    with pytest.raises(ValueError):
        SubtourSet((other_depot,), HAND_TOUR, HAND_TIME)


def test_reach_is_recomputed_not_trusted():
    # reach and dwell budget come from the tour, never from the caller
    assert farthest_dwell_distance(HAND_TOUR) == 5.0
    cert = makespan_certificate(split_tour(HAND_TOUR, 2, HAND_TIME))
    assert cert.depot_reach == 5.0
    assert cert.dwell_count == 2
    assert cert.measurement_time == 2.0
    assert cert.total_time == tour_time(HAND_TOUR, HAND_TIME)


def test_identity_split():
    split = split_tour(HAND_TOUR, 1, HAND_TIME)
    assert len(split.subtours) == 1
    assert split.subtours[0] is HAND_TOUR
    assert split.time is HAND_TIME
    assert makespan(split) == pytest.approx(tour_time(HAND_TOUR, HAND_TIME))
    cert = makespan_certificate(split)
    assert cert.bound == pytest.approx(36.0)
    assert cert.robots == 1
    assert cert.satisfied


def test_hand_instance_cut_and_certificate():
    split = split_tour(HAND_TOUR, 2, HAND_TIME)
    # the second stop finishes at 13, exactly the first robot's threshold
    # (8 / 2 + 9), so the at-or-below rule keeps it with the first robot
    assert split.subtours[0].waypoints == (((3.0, 0.0), 2), ((3.0, 4.0), 1))
    assert split.subtours[1].waypoints == (((0.0, 4.0), 1),)
    cert = makespan_certificate(split)
    assert cert.makespan == pytest.approx(18.0)
    assert cert.bound == pytest.approx(32.0)
    assert cert.satisfied
    assert isinstance(cert, MakespanCertificate)


def test_dwell_time_counts_toward_the_cut():
    # with dwells outside the ledger the first robot would take both
    # stops; counting them moves the cut to the first stop
    tour = Tour((0.0, 0.0), (((3.0, 0.0), 2), ((6.0, 0.0), 2)))
    split = split_tour(tour, 2, TimeModel(10.0))
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
    split = split_tour(tour, m, TimeModel(0.7))
    assert [sub.waypoints for sub in split.subtours] == [(w,) for w in waypoints]
    assert makespan_certificate(split).satisfied


def test_single_far_stop_boundary_case():
    # elapsed time at the only stop equals every threshold exactly, so
    # the at-or-below rule assigns it to the first robot
    tour = Tour((0.0, 0.0), (((7.0, 0.0), 3),))
    split = split_tour(tour, 3, TimeModel(1.0))
    assert split.subtours[0].waypoints == tour.waypoints
    assert split.subtours[1].waypoints == ()
    assert split.subtours[2].waypoints == ()
    cert = makespan_certificate(split)
    assert cert.makespan == pytest.approx(17.0)
    assert cert.bound == pytest.approx(34.0)
    assert cert.satisfied


def test_more_robots_than_stops():
    tour = Tour((0.0, 0.0), (((1.0, 0.0), 1), ((2.0, 0.0), 1)))
    split = split_tour(tour, 5, TimeModel(0.5))
    assert len(split.subtours) == 5
    assert sum(len(sub.waypoints) for sub in split.subtours) == 2
    assert all(sub.depot == tour.depot for sub in split.subtours)
    assert makespan_certificate(split).satisfied


def test_empty_tour_splits_to_depot_only():
    tour = Tour((0.0, 0.0), ())
    split = split_tour(tour, 3, TimeModel(0.5))
    assert len(split.subtours) == 3
    assert all(sub.waypoints == () for sub in split.subtours)
    assert makespan(split) == 0.0


def test_random_tours_match_reference_and_bound():
    rng = np.random.default_rng(42)
    eta = 0.8
    for trial in range(30):
        dwell_count = int(rng.integers(1, 4))
        tour = random_tour(rng, int(rng.integers(3, 30)), dwell_count)
        k = int(rng.integers(2, 7))
        split = split_tour(tour, k, TimeModel(eta))

        expected = reference_cuts(tour, k, dwell_count, eta)
        assert expected == sorted(expected)
        sizes = [len(sub.waypoints) for sub in split.subtours]
        bounds = [-1] + expected + [len(tour.waypoints) - 1]
        assert sizes == [hi - lo for lo, hi in zip(bounds, bounds[1:])]

        merged = [w for sub in split.subtours for w in sub.waypoints]
        assert tuple(merged) == tour.waypoints
        assert makespan_certificate(split).satisfied


def test_fifty_waypoint_partition():
    rng = np.random.default_rng(7)
    tour = random_tour(rng, 50, 2)
    split = split_tour(tour, 3, TimeModel(0.8))
    assert len(split.subtours) == 3
    merged = [w for sub in split.subtours for w in sub.waypoints]
    assert tuple(merged) == tour.waypoints
    cert = makespan_certificate(split)
    assert cert.satisfied
    assert cert.makespan >= tour_time(tour, TimeModel(0.8)) / 3 - 1e-9


def test_split_of_planned_tour_keeps_measurements():
    env = Environment.rectangle((0, 0), (3.0, 2.0))
    h = Hyperparameters(1.0, 1.0, 0.1)
    spec = AccuracySpec(0.5, 2.0)
    plan = disk_cover_placement(env, h, spec)
    time = TimeModel(1.0)
    tour = tour_from_plan(plan)
    split = split_tour(tour, 3, time)

    merged = [w for sub in split.subtours for w in sub.waypoints]
    assert tuple(merged) == tour.waypoints
    dwells = Counter(w for sub in split.subtours for w in sub.waypoints if w[1] > 0)
    assert dwells == Counter(w for w in tour.waypoints if w[1] > 0)
    for sub in split.subtours:
        assert sub.depot == tour.depot
    cert = makespan_certificate(split)
    assert cert.satisfied
    assert cert.dwell_count == plan.measurements_per_site


def test_dwell_budget_is_the_largest_stop_dwell():
    # a budget of one dwell would certify 58.74 against a makespan of
    # 104.41; the largest dwell at one stop (100) restores the guarantee
    tour = Tour((0.0, 0.0), (((1.0, 0.0), 1), ((1.0, 1.0), 100), ((0.0, 1.0), 1)))
    cert = makespan_certificate(split_tour(tour, 2, TimeModel(1.0)))
    assert cert.dwell_count == 100
    assert cert.depot_reach == math.sqrt(2.0)
    assert cert.bound == pytest.approx(207.24, abs=5e-3)
    assert cert.makespan == pytest.approx(104.41, abs=5e-3)
    assert cert.satisfied


@st.composite
def mixed_dwell_tours(draw):
    """Closed tours with dwells 1-5 at their stops.

    Some stops lie on the straight leg into the next one, at either end
    of it included, so a tour can stop twice at one location.
    """
    coord = st.floats(-50.0, 50.0, allow_nan=False)
    depot = (draw(coord), draw(coord))
    waypoints = []
    prev = depot
    for _ in range(draw(st.integers(1, 12))):
        stop = (draw(coord), draw(coord))
        if draw(st.booleans()):
            frac = draw(st.floats(0.0, 1.0))
            via = (prev[0] + frac * (stop[0] - prev[0]), prev[1] + frac * (stop[1] - prev[1]))
            waypoints.append((via, draw(st.integers(1, 5))))
        waypoints.append((stop, draw(st.integers(1, 5))))
        prev = stop
    return Tour(depot, tuple(waypoints))


@settings(max_examples=200, deadline=None)
@given(tour=mixed_dwell_tours(), robots=st.integers(1, 6), eta=st.floats(0.0, 5.0))
def test_certificate_holds_on_mixed_dwell_tours(tour, robots, eta):
    split = split_tour(tour, robots, TimeModel(eta))
    cert = makespan_certificate(split)
    assert cert.satisfied, (cert.makespan, cert.bound)
    assert cert.robots == robots == len(split.subtours)
    assert cert.depot_reach == farthest_dwell_distance(tour)
    assert cert.dwell_count == max(n for _, n in tour.waypoints)
    assert tuple(w for sub in split.subtours for w in sub.waypoints) == tour.waypoints


@st.composite
def tied_tours(draw):
    """Tours whose stops finish at equal elapsed times.

    The stops lie on the x axis through the depot at whole-metre
    offsets, the depot among them, so every leg and every threshold is
    exact in float; with eta 0 a repeated location finishes at the same
    elapsed time as the stop before it.
    """
    spots = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
    stops = draw(st.lists(st.tuples(st.sampled_from(spots), st.integers(1, 3)), max_size=10))
    return Tour((0.0, 0.0), tuple(((float(x), 0.0), n) for x, n in stops))


@settings(max_examples=300, deadline=None)
@given(tour=tied_tours(), robots=st.integers(2, 6), eta=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
@example(tour=Tour((0.0, 0.0), (((0.0, 0.0), 1), ((0.0, 0.0), 2))), robots=2, eta=0.0)
def test_cuts_match_the_reference_on_tied_elapsed_times(tour, robots, eta):
    # a stop whose elapsed time equals a threshold goes to the earlier
    # robot, and so does every later stop that finishes at that time
    split = split_tour(tour, robots, TimeModel(eta))
    ends = np.cumsum([len(sub.waypoints) for sub in split.subtours])[:-1] - 1
    dwell_count = max((n for _, n in tour.waypoints), default=0)
    assert ends.tolist() == reference_cuts(tour, robots, dwell_count, eta)
