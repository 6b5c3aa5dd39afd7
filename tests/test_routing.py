from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from fieldcover.geometry import Disk, Environment, lawnmower_rows, mis_tour_lower_bound
from fieldcover.gp import Hyperparameters
from fieldcover.fleet import makespan, split_tour
from fieldcover.placement import (
    AccuracySpec,
    MeasurementPlan,
    disk_cover_placement,
    necessary_radius,
    project_into_environment,
    verify_plan,
)
from fieldcover.routing import (
    TimeModel,
    Tour,
    cumulative_times,
    intra_disk_travel,
    tour_from_plan,
    tour_time,
    tsp_heuristic,
)

H1 = Hyperparameters(1.0, 1.0, 0.1)
SPEC = AccuracySpec(0.5, 2.0)


def route_length(depot, order):
    pts = [depot] + list(order) + [depot]
    return sum(math.dist(a, b) for a, b in zip(pts, pts[1:]))


def brute_optimal(points, depot):
    best = math.inf
    for perm in itertools.permutations(points):
        if perm[0] > perm[-1]:
            continue
        best = min(best, route_length(depot, perm))
    return best


def test_time_model_validation():
    assert TimeModel(0.0).measurement_time == 0.0
    with pytest.raises(ValueError):
        TimeModel(-1.0)
    with pytest.raises(ValueError):
        TimeModel(math.inf)


def test_tour_validation():
    with pytest.raises(ValueError):
        Tour((0, 0), (((1.0, 1.0), -1),))
    with pytest.raises(ValueError):
        Tour((0, 0), (((1.0, 1.0), 1),), disk_index=(0, 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tour_rejects_non_finite_waypoints(bad):
    with pytest.raises(ValueError, match="waypoint must be finite"):
        Tour((0.0, 0.0), (((1.0, 1.0), 1), ((bad, 2.0), 0)))
    with pytest.raises(ValueError, match="waypoint must be finite"):
        Tour((0.0, 0.0), (((1.0, bad), 1),))
    with pytest.raises(ValueError, match="depot must be finite"):
        Tour((bad, 0.0), (((1.0, 1.0), 1),))


def test_tour_time_empty_and_square():
    tm = TimeModel(5.0)
    assert tour_time(Tour((0, 0), ()), tm) == 0.0
    square = Tour((0, 0), (((10, 0), 0), ((10, 10), 0), ((0, 10), 0)))
    assert tour_time(square, tm) == pytest.approx(40.0)


def test_tour_time_dwell_formula():
    tm = TimeModel(5.0)
    tour = Tour((0, 0), (((25, 0), 2), ((50, 0), 2), ((25, 0), 2)))
    assert tour.travel_length() == pytest.approx(100.0)
    assert tour_time(tour, tm) == pytest.approx(130.0)


def test_tour_time_additive_over_concatenation():
    # each leg's travel plus the dwell it ends in, and the leg home
    tm = TimeModel(2.0)
    joined = Tour((0, 0), (((3, 0), 1), ((3, 4), 2)))
    legs = [3.0 + 2.0 * 1, 4.0 + 2.0 * 2, 5.0]
    assert tour_time(joined, tm) == pytest.approx(sum(legs))
    np.testing.assert_allclose(cumulative_times(joined, tm), np.cumsum(legs)[:2])


def test_cumulative_times_include_dwell():
    tm = TimeModel(2.0)
    tour = Tour((0, 0), (((3, 0), 2), ((3, 4), 0), ((0, 4), 1)))
    np.testing.assert_allclose(cumulative_times(tour, tm), [7.0, 11.0, 16.0])


def test_tsp_single_point():
    order = tsp_heuristic([(3.0, 4.0)], (0.0, 0.0))
    assert order == [(3.0, 4.0)]
    assert route_length((0.0, 0.0), order) == pytest.approx(10.0)


def test_tsp_convex_positions_get_hull_order():
    # 2-opt local optima are crossing-free, and on convex position the
    # only crossing-free cycle is the hull itself.
    n = 8
    hull = [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)]
    depot = hull[0]
    order = tsp_heuristic(hull[1:], depot)
    perimeter = 2 * n * math.sin(math.pi / n)
    assert route_length(depot, order) == pytest.approx(perimeter, rel=1e-12)
    ring = [depot] + order
    for a, b in zip(ring, ring[1:] + [depot]):
        ia, ib = hull.index(a), hull.index(b)
        assert (ia - ib) % n in (1, n - 1)


def test_tsp_is_two_opt_local_optimum():
    rng = np.random.default_rng(17)
    pts = [tuple(p) for p in rng.uniform(0, 10, size=(20, 2))]
    depot = (5.0, 5.0)
    order = tsp_heuristic(pts, depot)
    assert sorted(order) == sorted(pts)
    n = len(order)
    for i in range(n - 1):
        prev = depot if i == 0 else order[i - 1]
        for j in range(i + 1, n):
            nxt = depot if j == n - 1 else order[j + 1]
            delta = (
                math.dist(prev, order[j])
                + math.dist(order[i], nxt)
                - math.dist(prev, order[i])
                - math.dist(order[j], nxt)
            )
            assert delta >= -1e-12


def test_tsp_close_to_brute_force():
    rng = np.random.default_rng(5)
    ratios = []
    for _ in range(20):
        n = int(rng.integers(4, 8))
        pts = [tuple(p) for p in rng.uniform(0, 10, size=(n, 2))]
        depot = tuple(rng.uniform(0, 10, size=2))
        got = route_length(depot, tsp_heuristic(pts, depot))
        best = brute_optimal(pts, depot)
        assert got >= best - 1e-9
        ratios.append(got / best)
    assert sum(r <= 1.15 for r in ratios) >= 18


def small_instance():
    env = Environment.rectangle((0, 0), (3.0, 2.0))
    plan = disk_cover_placement(env, H1, SPEC)
    return env, plan


def test_tour_matches_plan_dwell_set():
    env, plan = small_instance()
    tour = tour_from_plan(plan)
    dwell = [(loc, d) for loc, d in tour.waypoints if d > 0]
    assert {loc for loc, _ in dwell} == {loc for loc, _ in plan.entries}
    assert all(d == plan.measurements_per_site for _, d in dwell)
    assert tour.depot == plan.sweep_disks[0].center


def test_tour_disk_runs_are_contiguous():
    env, plan = small_instance()
    tour = tour_from_plan(plan)
    # a waypoint at the location of the one before it is an entry moved
    # back to where an earlier waypoint measured; the first visits to each
    # location run disk by disk
    locs = [loc for loc, _ in tour.waypoints]
    tags = [i for k, i in enumerate(tour.disk_index) if k == 0 or locs[k] != locs[k - 1]]
    seen = set()
    for prev, cur in zip(tags, tags[1:]):
        if cur != prev:
            assert cur not in seen
            seen.add(prev)
    assert set(tags) == set(range(len(plan.sweep_disks)))
    # every disk has entries, so no center is a stop
    assert all(d > 0 for _, d in tour.waypoints)


def test_tour_zero_dwell_cost_is_pure_travel():
    env, plan = small_instance()
    tour = tour_from_plan(plan)
    assert tour_time(tour, TimeModel(0.0)) == pytest.approx(tour.travel_length())


def test_tour_dwell_set_passes_verification():
    env, plan = small_instance()
    tour = tour_from_plan(disk_cover_placement(env, H1, SPEC))
    assert verify_plan(plan, env, H1, 0.5).passed
    assert {loc for loc, d in tour.waypoints if d > 0} == {loc for loc, _ in plan.entries}


def test_single_disk_tour_shape():
    r = 0.8325546111576977
    env = Environment.rectangle((0, 0), (r * math.sqrt(2) - 1e-9, r * math.sqrt(2) - 1e-9))
    plan = disk_cover_placement(env, H1, SPEC)
    assert len(plan.sweep_disks) == 1
    tour = tour_from_plan(plan)
    assert plan.sweep_disks[0].center not in {loc for loc, _ in plan.entries}
    assert all(d == plan.measurements_per_site for _, d in tour.waypoints)
    assert len(tour.waypoints) == len(plan.entries)
    assert tour.disk_index == (0,) * len(plan.entries)


def test_intra_disk_travel_reported_and_bounded():
    env, plan = small_instance()
    tour = tour_from_plan(plan)
    per_disk = intra_disk_travel(tour)
    assert set(per_disk) == set(range(len(plan.sweep_disks)))
    cap = 20.0 * SPEC.shrink_factor**2 * necessary_radius(H1, SPEC.max_variance)
    assert all(v <= cap for v in per_disk.values())


def test_custom_depot_round_trip():
    env, plan = small_instance()
    depot = (-1.0, -1.0)
    tour = tour_from_plan(plan, depot=depot)
    assert tour.depot == depot
    assert tour.travel_length() >= 2.0 * min(
        math.dist(depot, c.center) for c in plan.sweep_disks
    )


def dwell_multiset(waypoints) -> Counter:
    """Location -> summed dwell over the measuring waypoints or plan entries."""
    out: Counter = Counter()
    for loc, n in waypoints:
        if n > 0:
            out[(float(loc[0]), float(loc[1]))] += n
    return out


def test_pruned_plan_tour_visits_exactly_the_pruned_entries():
    env = Environment.rectangle((0, 0), (4.0, 3.0))
    plan = disk_cover_placement(env, H1, SPEC)
    # every third entry dropped by hand, rows and provenance with it
    keep = [i for i in range(len(plan.entries)) if i % 3]
    pruned = dataclasses.replace(
        plan,
        entries=tuple(plan.entries[i] for i in keep),
        provenance=tuple(plan.provenance[i] for i in keep),
        rows=tuple(plan.rows[i] for i in keep),
    )
    tour = tour_from_plan(pruned)
    assert dwell_multiset(tour.waypoints) == dwell_multiset(pruned.entries)
    # every disk keeps entries, so every waypoint is one of them
    assert set(pruned.provenance) == set(range(len(pruned.sweep_disks)))
    assert Counter(tour.waypoints) == Counter(pruned.entries)


def test_one_row_plan_is_toured_over_its_own_sites():
    # sites in no lawn-mower order, all in one row of one disk
    rng = np.random.default_rng(3)
    entries = tuple((tuple(p), 2) for p in rng.uniform(0, 10, size=(15, 2)))
    disk = Disk((5.0, 5.0), 7.5)
    plan = MeasurementPlan(entries, (0,) * 15, (0,) * 15, (disk,), (disk,), 2)
    tour = tour_from_plan(plan, depot=(0.0, 0.0))
    assert dwell_multiset(tour.waypoints) == dwell_multiset(plan.entries)
    assert len(tour.waypoints) == len(plan.entries)
    assert tour.disk_index == (0,) * len(tour.waypoints)


# --- the routing that re-derived every sweep from the lawn-mower layout ----
#
# Before the tour read ``plan.entries`` it rebuilt each sweep disk's sites
# from ``lawnmower_rows`` and the accuracy spec's shrink factor. On a plan
# fresh from ``disk_cover_placement`` (not projected, not pruned) both
# must produce the same waypoints in the same order, under the same rule:
# each sweep oriented from the last site of the sweep before, no center
# stops, and every later visit to a location moved to the first one's.


def reference_serpentine_variants(rows):
    variants = []
    for row_seq in (rows, rows[::-1]):
        for first_flip in (False, True):
            pts = []
            for idx, row in enumerate(row_seq):
                flip = (idx % 2 == 1) != first_flip
                pts.extend(row[::-1] if flip else row)
            variants.append(pts)
    return variants


def reference_tour_from_plan(plan, h, spec, depot=None) -> Tour:
    centers = [d.center for d in plan.sweep_disks]
    if depot is None:
        depot = centers[0]
    depot = (float(depot[0]), float(depot[1]))
    center_order = tsp_heuristic(centers, depot)
    index_of = {c: i for i, c in enumerate(centers)}
    small = necessary_radius(h, spec.max_variance) / spec.shrink_factor
    visits, here = [], depot
    for pos, center in enumerate(center_order):
        disk_i = index_of[center]
        rows = lawnmower_rows(plan.sweep_disks[disk_i], small)
        next_anchor = depot if pos == len(center_order) - 1 else center_order[pos + 1]
        best = None
        for pts in reference_serpentine_variants(rows):
            cost = math.dist(here, pts[0]) + math.dist(pts[-1], next_anchor)
            if best is None or cost < best[0] - 1e-15:
                best = (cost, pts)
        visits.extend((p, disk_i) for p in best[1])
        here = best[1][-1]
    first = {}
    for k, (p, _) in enumerate(visits):
        first.setdefault(p, k)
    visits.sort(key=lambda visit: first[visit[0]])
    waypoints = tuple((p, plan.measurements_per_site) for p, _ in visits)
    return Tour(depot=depot, waypoints=waypoints, disk_index=tuple(i for _, i in visits))


def star_polygon(seed: int, n: int = 8) -> Environment:
    rng = np.random.default_rng(seed)
    angles = 2 * math.pi * (np.arange(n) + rng.uniform(0.15, 0.85, size=n)) / n
    radii = rng.uniform(8.0, 22.0, size=n)
    return Environment.polygon(np.column_stack([radii * np.cos(angles), radii * np.sin(angles)]))


def acceptance_instance(seed: int):
    """A rectangle (even seeds) or star polygon (odd seeds) as in the acceptance run."""
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        w, hgt = rng.uniform(20.0, 55.0, size=2)
        x, y = rng.uniform(-10.0, 10.0, size=2)
        env = Environment.rectangle((x, y), (x + w, y + hgt))
    else:
        env = star_polygon(seed)
    h = Hyperparameters(
        float(rng.uniform(1.5, 4.0)), float(rng.uniform(2.0, 10.0)), float(rng.uniform(0.05, 0.5))
    )
    delta = h.signal_variance * float(rng.uniform(0.2, 0.6))
    return env, h, AccuracySpec(delta, (1.5, 2.0, 3.0)[seed % 3])


@pytest.mark.parametrize("seed", range(7000, 7012))
def test_tour_matches_rederiving_reference(seed):
    env, h, spec = acceptance_instance(seed)
    plan = disk_cover_placement(env, h, spec)
    for depot in (None, (float(env.bounds[0]), float(env.bounds[1]))):
        got = tour_from_plan(plan, depot=depot)
        want = reference_tour_from_plan(plan, h, spec, depot=depot)
        assert got.waypoints == want.waypoints
        assert got.disk_index == want.disk_index
        assert got.travel_length() >= mis_tour_lower_bound(list(plan.mis_disks))


def test_tour_matches_rederiving_reference_on_the_readme_field():
    h = Hyperparameters(8.33, 12.87, 0.0361)
    spec = AccuracySpec(4.0, 2.0)
    plan = disk_cover_placement(Environment.rectangle((0, 0), (50, 50)), h, spec)
    got = tour_from_plan(plan, depot=(0, 0))
    want = reference_tour_from_plan(plan, h, spec, depot=(0, 0))
    assert got.waypoints == want.waypoints
    assert got.disk_index == want.disk_index


def test_disk_without_entries_is_passed_through():
    env = Environment.rectangle((0, 0), (4.0, 3.0))
    plan = disk_cover_placement(env, H1, SPEC)
    keep = [i for i, p in enumerate(plan.provenance) if p != 1]
    ablated = dataclasses.replace(
        plan,
        entries=tuple(plan.entries[i] for i in keep),
        provenance=tuple(plan.provenance[i] for i in keep),
        rows=tuple(plan.rows[i] for i in keep),
    )
    tour = tour_from_plan(ablated)
    assert dwell_multiset(tour.waypoints) == dwell_multiset(ablated.entries)
    assert [i for (_, n), i in zip(tour.waypoints, tour.disk_index) if n == 0].count(1) == 1


# --- the route that stopped at every sweep center -------------------------
#
# Before, the tour stopped at each sweep center with dwell 0, oriented each
# serpentine from that center, and visited every entry where its sweep put
# it, so a location shared by neighbouring sweeps, or by entries projected
# onto one boundary point, was visited once per entry.


def center_stop_tour_from_plan(plan, depot=None) -> Tour:
    centers = [d.center for d in plan.sweep_disks]
    if depot is None:
        depot = centers[0]
    depot = (float(depot[0]), float(depot[1]))
    center_order = tsp_heuristic(centers, depot)
    index_of = {c: i for i, c in enumerate(centers)}
    disk_rows = {}
    for k, (disk_i, row) in enumerate(zip(plan.provenance, plan.rows)):
        disk_rows.setdefault(disk_i, {}).setdefault(row, []).append(k)
    waypoints, tags = [], []
    for pos, center in enumerate(center_order):
        disk_i = index_of[center]
        waypoints.append((center, 0))
        tags.append(disk_i)
        by_row = sorted(disk_rows.get(disk_i, {}).items())
        rows = [idx[::-1] if row % 2 else idx for row, idx in by_row]
        if not rows:
            continue
        next_anchor = depot if pos == len(center_order) - 1 else center_order[pos + 1]
        best = None
        for order in reference_serpentine_variants(rows):
            first, last = plan.entries[order[0]][0], plan.entries[order[-1]][0]
            cost = math.dist(center, first) + math.dist(last, next_anchor)
            if best is None or cost < best[0] - 1e-15:
                best = (cost, order)
        for k in best[1]:
            waypoints.append(plan.entries[k])
            tags.append(disk_i)
    return Tour(depot=depot, waypoints=tuple(waypoints), disk_index=tuple(tags))


@pytest.mark.parametrize("hard_boundary", [False, True])
@pytest.mark.parametrize("seed", range(7000, 7012))
def test_tour_is_no_longer_than_the_center_stop_tour(seed, hard_boundary):
    env, h, spec = acceptance_instance(seed)
    plan = disk_cover_placement(env, h, spec)
    if hard_boundary:
        plan = project_into_environment(plan, env)
    time = TimeModel(1.0)
    for depot in (None, (float(env.bounds[0]), float(env.bounds[1]))):
        tour = tour_from_plan(plan, depot=depot)
        before = center_stop_tour_from_plan(plan, depot=depot)
        # every entry is one stop with its own dwell
        assert Counter(tour.waypoints) == Counter(plan.entries)
        # all stops at one location run back to back
        locs = [loc for loc, _ in tour.waypoints]
        runs = [loc for k, loc in enumerate(locs) if k == 0 or loc != locs[k - 1]]
        assert len(runs) == len(set(locs))
        # a transit stop only for a disk with no entries
        empty = set(range(len(plan.sweep_disks))) - set(plan.provenance)
        assert all(i in empty for (_, n), i in zip(tour.waypoints, tour.disk_index) if n == 0)
        assert tour.travel_length() <= before.travel_length() * (1.0 + 1e-12)
        for robots in (2, 3, 4):
            assert makespan(split_tour(tour, robots, time)) <= makespan(
                split_tour(before, robots, time)
            ) * (1.0 + 1e-12)
