from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from fieldcover.geometry import Disk, Environment, lawnmower_rows
from fieldcover.gp import Hyperparameters, MeasurementMultiset
from fieldcover.placement import (
    AccuracySpec,
    MeasurementPlan,
    default_grid_spacing,
    disk_cover_placement,
    necessary_radius,
    required_measurements,
    sufficient_radius,
    verify_plan,
)
from fieldcover.routing import tour_from_plan

H1 = Hyperparameters(1.0, 1.0, 0.1)

# Frozen from direct evaluation of the radius formulas.
R_MAX_HALF_TARGET = 0.8325546111576977  # l=1, s2=1, delta=0.5: sqrt(ln 2)
R_SUFF_N1 = 0.7731991986258265  # same, n=1: sqrt(-ln 0.55)


def square_env(side: float) -> Environment:
    return Environment.rectangle((0, 0), (side, side))


def test_necessary_radius_frozen_value():
    assert necessary_radius(H1, 0.5) == pytest.approx(R_MAX_HALF_TARGET, rel=1e-12)


def test_necessary_radius_log_cancellation():
    h = Hyperparameters(2.0, 3.0, 0.1)
    delta = 3.0 * (1.0 - math.exp(-1.0))
    assert necessary_radius(h, delta) == pytest.approx(2.0, rel=1e-12)


def test_necessary_radius_rejects_out_of_range():
    for bad in (0.0, -1.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            necessary_radius(H1, bad)


@given(
    d1=st.floats(min_value=0.01, max_value=0.97, allow_nan=False),
    gap=st.floats(min_value=0.001, max_value=0.02, allow_nan=False),
)
def test_necessary_radius_increases_with_target(d1, gap):
    assert necessary_radius(H1, d1 + gap) > necessary_radius(H1, d1)


def test_sufficient_radius_frozen_value():
    assert sufficient_radius(H1, 0.5, 1) == pytest.approx(R_SUFF_N1, rel=1e-12)


def test_sufficient_radius_below_necessary_and_converges():
    prev = 0.0
    r_max = necessary_radius(H1, 0.5)
    for n in (1, 2, 5, 20, 100):
        r = sufficient_radius(H1, 0.5, n)
        assert prev < r < r_max
        prev = r
    assert sufficient_radius(H1, 0.5, 10**9) == pytest.approx(r_max, abs=1e-6)


def test_sufficient_radius_noiseless_limit():
    h = Hyperparameters(1.0, 1.0, 1e-15)
    assert sufficient_radius(h, 0.5, 1) == pytest.approx(necessary_radius(h, 0.5), rel=1e-9)


def test_sufficient_radius_insufficient_count():
    h = Hyperparameters(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sufficient_radius(h, 0.4, 1)
    assert sufficient_radius(h, 0.4, 3) > 0.0


def test_required_measurements_frozen_values():
    assert required_measurements(H1, AccuracySpec(0.5, 2.0)) == 1
    noisy = Hyperparameters(1.0, 1.0, 10.0)
    assert required_measurements(noisy, AccuracySpec(0.5, 2.0)) == 15


def test_required_measurements_noiseless_clamp():
    h = Hyperparameters(1.0, 1.0, 1e-12)
    assert required_measurements(h, AccuracySpec(0.5, 2.0)) == 1


@settings(max_examples=60)
@given(
    l=st.floats(min_value=0.1, max_value=50, allow_nan=False),
    s2=st.floats(min_value=0.01, max_value=100, allow_nan=False),
    w2=st.floats(min_value=1e-6, max_value=1e4, allow_nan=False),
    dfrac=st.floats(min_value=0.001, max_value=0.999, allow_nan=False),
    a=st.floats(min_value=1.01, max_value=5.0, allow_nan=False),
)
def test_required_measurements_is_sufficient_and_minimal(l, s2, w2, dfrac, a):
    h = Hyperparameters(l, s2, w2)
    delta = dfrac * s2
    n = required_measurements(h, AccuracySpec(delta, a))
    target = necessary_radius(h, delta) / a
    assert sufficient_radius(h, delta, n) >= target * (1.0 - 1e-12)
    if n > 1:
        try:
            below = sufficient_radius(h, delta, n - 1)
        except ValueError:
            return
        assert below < target * (1.0 + 1e-9)


def test_accuracy_spec_validation():
    with pytest.raises(ValueError):
        AccuracySpec(0.0, 2.0)
    with pytest.raises(ValueError):
        AccuracySpec(1.0, 1.0)
    with pytest.raises(ValueError):
        AccuracySpec(float("nan"), 2.0)


def test_single_disk_env_plan_is_one_sweep():
    spec = AccuracySpec(0.5, 2.0)
    r = necessary_radius(H1, 0.5)
    env = square_env(r * math.sqrt(2.0))
    plan = disk_cover_placement(env, H1, spec)
    assert len(plan.mis_disks) == 1
    assert set(plan.provenance) == {0}
    assert plan.measurements_per_site == 1
    sweep = plan.sweep_disks[0]
    assert sweep.radius == pytest.approx(3.0 * r)
    # boustrophedon: even rows left to right, odd rows right to left
    lanes = lawnmower_rows(sweep, r / 2.0)
    expected = [p for j, lane in enumerate(lanes) for p in (lane if j % 2 == 0 else lane[::-1])]
    assert [loc for loc, _ in plan.entries] == expected
    assert plan.rows == tuple(j for j, lane in enumerate(lanes) for _ in lane)
    assert all(c == 1 for _, c in plan.entries)


def test_plan_covers_every_grid_point_within_shrunk_radius():
    spec = AccuracySpec(0.5, 2.0)
    rng_envs = [
        Environment.rectangle((0, 0), (4.0, 3.0)),
        Environment.polygon([(0, 0), (5, 0), (6, 3), (2, 5), (-1, 2)]),
    ]
    for env in rng_envs:
        plan = disk_cover_placement(env, H1, spec)
        n = plan.measurements_per_site
        assert np.all(plan.counts == n)
        serve = necessary_radius(H1, 0.5) / spec.shrink_factor
        assert serve <= sufficient_radius(H1, 0.5, n)
        pts = env.grid(default_grid_spacing(env, H1, 0.5))
        dist, _ = cKDTree(plan.locations).query(pts)
        assert dist.max() <= serve * (1.0 + 1e-9)


def test_plan_count_bound_and_cap():
    for alpha in (1.5, 2.0, 3.0):
        spec = AccuracySpec(0.5, alpha)
        env = Environment.rectangle((0, 0), (7.0, 6.0))
        plan = disk_cover_placement(env, H1, spec)
        cap = math.ceil(6.0 * alpha / math.sqrt(2.0)) ** 2
        assert len(plan.entries) <= cap * len(plan.mis_disks)


def test_plan_locations_stay_near_environment():
    spec = AccuracySpec(0.5, 2.0)
    env = Environment.polygon([(0, 0), (8, 0), (9, 4), (4, 7), (-1, 3)])
    plan = disk_cover_placement(env, H1, spec)
    r = necessary_radius(H1, spec.max_variance)
    for loc, (nx, ny) in zip(plan.locations, env.project(plan.locations)):
        assert math.hypot(loc[0] - nx, loc[1] - ny) <= 4.0 * r + 1e-9


def test_verify_plan_passes_on_generated_plan():
    spec = AccuracySpec(0.5, 2.0)
    env = Environment.rectangle((0, 0), (3.0, 2.0))
    plan = disk_cover_placement(env, H1, spec)
    report = verify_plan(plan, env, H1, 0.5)
    assert report.passed
    assert report.max_variance <= 0.5
    assert report.mean_variance <= report.max_variance
    assert report.grid_count > 0


def test_verify_empty_plan_reports_prior():
    empty = MeasurementPlan((), (), (), (), (), 1)
    env = square_env(2.0)
    report = verify_plan(empty, env, H1, 0.5, grid_spacing=0.25)
    assert report.max_variance == pytest.approx(1.0)
    assert not report.passed
    with pytest.raises(ValueError):
        verify_plan(empty, env, H1, 0.5, grid_spacing=0.0)


def _drop_disk(plan: MeasurementPlan, disk_index: int) -> MeasurementPlan:
    keep = [i for i, p in enumerate(plan.provenance) if p != disk_index]
    return MeasurementPlan(
        entries=tuple(plan.entries[i] for i in keep),
        provenance=tuple(plan.provenance[i] for i in keep),
        rows=tuple(plan.rows[i] for i in keep),
        mis_disks=plan.mis_disks,
        sweep_disks=plan.sweep_disks,
        measurements_per_site=plan.measurements_per_site,
    )


def test_ablated_plan_fails_inside_missing_disk():
    # Heavy noise and a high target keep remote sites from compensating
    # for a dropped disk; chosen by running the oracle over candidates.
    h = Hyperparameters(1.0, 1.0, 30.0)
    delta = 0.9
    spec = AccuracySpec(delta, 2.0)
    s = necessary_radius(h, delta) * math.sqrt(2.0)
    env = Environment.rectangle((0, 0), (3 * s - 1e-9, s - 1e-9))
    plan = disk_cover_placement(env, h, spec)
    assert len(plan.mis_disks) == 2
    assert verify_plan(plan, env, h, delta).passed
    ablated = _drop_disk(plan, 1)
    report = verify_plan(ablated, env, h, delta)
    assert not report.passed
    dropped = plan.sweep_disks[1]
    gap = math.hypot(report.argmax[0] - dropped.center[0], report.argmax[1] - dropped.center[1])
    assert gap <= dropped.radius


def test_abutting_regions_with_decreasing_targets():
    h = Hyperparameters(8.33, 12.87, 0.0361)
    targets = (6.0, 4.0, 2.0)
    radii = [necessary_radius(h, d) for d in targets]
    assert radii[0] > radii[1] > radii[2]
    for i, d in enumerate(targets):
        env = Environment.rectangle((12.0 * i, 0), (12.0 * (i + 1), 12.0))
        plan = disk_cover_placement(env, h, AccuracySpec(d, 2.0))
        assert verify_plan(plan, env, h, d).passed


def test_plan_size_monotone_in_target():
    h = Hyperparameters(1.0, 4.0, 0.1)
    env = Environment.rectangle((0, 0), (6.0, 5.0))
    sizes = [
        len(disk_cover_placement(env, h, AccuracySpec(d, 2.0)).entries)
        for d in (3.0, 2.0, 1.0, 0.5)
    ]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_tour_sums_dwells_of_coincident_entries():
    # a single-sweep plan with its most central entry listed twice
    h = Hyperparameters(1.0, 1.0, 10.0)
    side = necessary_radius(h, 0.5) * math.sqrt(2.0) - 1e-9
    plan = disk_cover_placement(square_env(side), h, AccuracySpec(0.5, 2.0))
    locs = plan.locations
    mid = min(
        range(len(plan.entries)),
        key=lambda i: (locs[i, 0] - side / 2) ** 2 + (locs[i, 1] - side / 2) ** 2,
    )
    doubled = MeasurementPlan(
        entries=plan.entries + (plan.entries[mid],),
        provenance=plan.provenance + (plan.provenance[mid],),
        rows=plan.rows + (plan.rows[mid],),
        mis_disks=plan.mis_disks,
        sweep_disks=plan.sweep_disks,
        measurements_per_site=plan.measurements_per_site,
    )
    tour = tour_from_plan(doubled)
    dwells = Counter()
    for loc, n in tour.waypoints:
        dwells[loc] += n
    expected = Counter()
    for loc, n in doubled.entries:
        expected[loc] += n
    assert dwells == expected
    assert dwells[plan.entries[mid][0]] == 2 * plan.measurements_per_site


def test_plan_validation():
    disk = (Disk((0, 0), 1.0),)
    with pytest.raises(ValueError):
        MeasurementPlan((((0.0, 0.0), 0),), (0,), (0,), (), disk, 1)
    with pytest.raises(ValueError):
        MeasurementPlan((((0.0, 0.0), 1),), (2,), (0,), (), disk, 1)
    with pytest.raises(ValueError):
        MeasurementPlan((((0.0, 0.0), 1),), (0, 1), (0,), (), disk, 1)
    with pytest.raises(ValueError):
        MeasurementPlan((((0.0, 0.0), 1),), (0,), (0, 1), (), disk, 1)
    with pytest.raises(ValueError):
        MeasurementPlan((((0.0, 0.0), 1),), (0,), (-1,), (), disk, 1)
    assert MeasurementPlan((((0.0, 0.0), 1),), (0,), (3,), (), disk, 1).rows == (3,)
    with pytest.raises(ValueError):
        MeasurementPlan((((math.nan, 0.0), 1),), (0,), (0,), (), disk, 1)


def test_plan_is_the_multiset_of_its_entries():
    # numpy scalars in, floats and ints out; the centre site appears twice
    disk = (Disk((1.0, 1.0), 2.0),)
    entries = tuple(
        ((np.float64(x), np.float64(y)), np.int64(2)) for x in (0.5, 1.5) for y in (0.5, 1.5)
    )
    plan = MeasurementPlan(entries + (((1.5, 1.5), 1),), (0,) * 5, (0, 0, 1, 1, 1), disk, disk, 2)
    assert isinstance(plan, MeasurementMultiset)
    assert [type(v) for (loc, n) in plan.entries for v in (*loc, n)] == [float, float, int] * 5
    bare = MeasurementMultiset(plan.entries)
    assert plan.total == bare.total == 9
    np.testing.assert_array_equal(plan.locations, bare.locations)
    np.testing.assert_array_equal(plan.counts, [2, 2, 2, 2, 1])
    sites, counts = plan.distinct()
    np.testing.assert_array_equal(counts, [2, 2, 2, 3])
    env = square_env(2.0)
    assert verify_plan(plan, env, H1, 0.5, 0.25) == verify_plan(bare, env, H1, 0.5, 0.25)
