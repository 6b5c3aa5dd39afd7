"""Prefix-factored curves against the per-checkpoint reference.

``reference_curves`` is a test-only copy of ``curves_over_time`` as it
was before the curves shared one factorization: every checkpoint builds
its own design from the finished waypoints, merges revisits into one
site and factors it from scratch. The prefix path gives each measuring
waypoint its own Gram row instead, which is the same posterior, so the
two must agree to rounding.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldcover.baselines import (
    SensorModel,
    curves_over_time,
    single_trial_mse_over_time,
    variance_over_time,
)
from fieldcover.errors import GramTooLargeError
from fieldcover.fields import sample_gp_field
from fieldcover.geometry import Environment
from fieldcover.gp import Hyperparameters, MeasurementMultiset, Posterior
from fieldcover.routing import TimeModel, Tour, cumulative_times, tour_time

RTOL = 1e-10
H = Hyperparameters(1.5, 1.0, 0.2)
ENV = Environment.rectangle((0.0, 0.0), (6.0, 6.0))


def reference_curves(tour, truth, sensor, hyper, eval_points, time, checkpoints, trial_index=0):
    """One design and one factorization per checkpoint."""
    pts = np.asarray(eval_points, dtype=float).reshape(-1, 2)
    elapsed = cumulative_times(tour, time)
    finished = [(e, loc, n) for e, (loc, n) in zip(elapsed, tour.waypoints) if n > 0]
    total = sum(n for _, _, n in finished)
    rng = np.random.default_rng([sensor.seed, 1, trial_index])
    noise = math.sqrt(sensor.noise_variance) * rng.standard_normal(total)
    actual = truth.value_at(pts)
    variances, errors = [], []
    for c in checkpoints:
        measured = MeasurementMultiset(tuple((loc, n) for e, loc, n in finished if e <= c))
        sites, counts = measured.distinct()
        observed = truth.value_at(sites) + measured.site_means(noise[: measured.total])
        means, var = Posterior(sites, hyper, counts).mean_and_variance(pts, observed)
        variances.append(float(var.mean()))
        errors.append(float(np.mean((means - actual) ** 2)))
    return np.asarray(variances), np.asarray(errors)


def seeded_tour(seed: int) -> Tour:
    """Random stops with revisits, dwell counts up to 3 and pass-throughs."""
    rng = np.random.default_rng(seed)
    stops = [tuple(p) for p in rng.uniform(0.0, 6.0, size=(7, 2))]
    visits = [stops[i] for i in rng.integers(0, len(stops), size=18)]
    dwells = rng.integers(0, 4, size=len(visits))
    dwells[:2] = (2, 0)  # a repeat at the first stop, then a pass-through
    return Tour((0.0, 0.0), tuple(((float(x), float(y)), int(n)) for (x, y), n in zip(visits, dwells)))


def checkpoints_of(tour: Tour, tm: TimeModel) -> list[float]:
    """0, the horizon, every waypoint finish, and a time between each two."""
    elapsed = cumulative_times(tour, tm)
    between = (elapsed[:-1] + elapsed[1:]) / 2.0
    return sorted({0.0, tour_time(tour, tm), *elapsed.tolist(), *between.tolist()})


@pytest.mark.parametrize("seed", range(6))
def test_curves_match_per_checkpoint_reference(seed):
    tour = seeded_tour(seed)
    locations = [loc for loc, n in tour.waypoints if n > 0]
    assert len(set(locations)) < len(locations), "the tour must revisit a location"
    assert any(n == 0 for _, n in tour.waypoints) and any(n > 1 for _, n in tour.waypoints)

    tm = TimeModel(0.5)
    marks = checkpoints_of(tour, tm)
    truth = sample_gp_field(ENV, H, 0.5, seed)
    sensor = SensorModel(0.3, 40 + seed)
    pts = ENV.grid(0.75)
    for trial in (0, 3):
        want_var, want_mse = reference_curves(tour, truth, sensor, H, pts, tm, marks, trial)
        got_var, got_mse = curves_over_time(tour, truth, sensor, H, pts, tm, marks, trial)
        np.testing.assert_allclose(got_var, want_var, rtol=RTOL)
        np.testing.assert_allclose(got_mse, want_mse, rtol=RTOL)
        np.testing.assert_array_equal(
            single_trial_mse_over_time(tour, truth, sensor, H, pts, tm, marks, trial), got_mse
        )
    np.testing.assert_array_equal(variance_over_time(tour, H, pts, tm, marks), got_var)


def test_checkpoints_out_of_order_match_the_reference():
    tour = seeded_tour(11)
    tm = TimeModel(0.5)
    marks = checkpoints_of(tour, tm)[::-3]
    truth = sample_gp_field(ENV, H, 0.5, 11)
    sensor = SensorModel(0.3, 2)
    pts = ENV.grid(1.0)
    want = reference_curves(tour, truth, sensor, H, pts, tm, marks)
    got = curves_over_time(tour, truth, sensor, H, pts, tm, marks)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=RTOL)


def test_empty_prefix_gives_the_prior():
    tour = seeded_tour(4)
    tm = TimeModel(0.5)
    truth = sample_gp_field(ENV, H, 0.5, 4)
    pts = ENV.grid(1.0)
    # the first waypoint measures, so nothing has finished before its dwell ends
    first = float(cumulative_times(tour, tm)[0])
    variances, mse = curves_over_time(tour, truth, SensorModel(0.3, 1), H, pts, tm, [0.0, first / 2])
    np.testing.assert_array_equal(variances, [H.signal_variance] * 2)
    np.testing.assert_array_equal(mse, [np.mean(truth.value_at(pts) ** 2)] * 2)

    rows = np.asarray([loc for loc, _ in tour.waypoints])
    means, var = Posterior(rows, H).prefix_mean_and_variance(pts, np.ones(len(rows)), [0])
    np.testing.assert_array_equal(var, np.full((1, len(pts)), H.signal_variance))
    np.testing.assert_array_equal(means, np.zeros((1, len(pts))))


def test_tour_without_measurements_gives_the_prior_everywhere():
    tour = Tour((0.0, 0.0), (((2.0, 2.0), 0), ((4.0, 1.0), 0)))
    tm = TimeModel(1.0)
    truth = sample_gp_field(ENV, H, 0.5, 1)
    pts = ENV.grid(1.5)
    marks = [0.0, tour_time(tour, tm)]
    variances, mse = curves_over_time(tour, truth, SensorModel(0.3, 1), H, pts, tm, marks)
    np.testing.assert_array_equal(variances, [H.signal_variance] * 2)
    np.testing.assert_array_equal(mse, [np.mean(truth.value_at(pts) ** 2)] * 2)


def test_each_prefix_equals_a_posterior_over_its_own_rows():
    rng = np.random.default_rng(8)
    rows = rng.uniform(0.0, 6.0, size=(25, 2))
    rows[10] = rows[3]  # one location, two rows
    counts = rng.integers(1, 4, size=25)
    values = rng.normal(size=25)
    pts = rng.uniform(0.0, 6.0, size=(40, 2))
    lengths = [25, 0, 4, 11, 11, 1]
    means, variances = Posterior(rows, H, counts).prefix_mean_and_variance(pts, values, lengths)
    for j, n in enumerate(lengths):
        if n == 0:
            continue
        mean, var = Posterior(rows[:n], H, counts[:n]).mean_and_variance(pts, values[:n])
        np.testing.assert_allclose(variances[j], var, rtol=RTOL)
        np.testing.assert_allclose(means[j], mean, rtol=RTOL, atol=1e-12)


def test_prefix_query_rejects_bad_lengths_and_values():
    post = Posterior([(0.0, 0.0), (1.0, 0.0)], H)
    for bad in ([3], [-1]):
        with pytest.raises(ValueError):
            post.prefix_mean_and_variance([(0.5, 0.5)], [0.0, 1.0], bad)
    with pytest.raises(ValueError):
        post.prefix_mean_and_variance([(0.5, 0.5)], [1.0], [1])


def test_too_many_finished_waypoints_are_refused_before_allocation():
    # 20,000 finished waypoints need a 3 GiB waypoint-row Gram matrix
    stops = [((float(i % 200), float(i // 200)), 1) for i in range(20_000)]
    tour = Tour((0.0, 0.0), tuple(stops))
    tm = TimeModel(1.0)
    with pytest.raises(GramTooLargeError, match="20000 finished waypoints"):
        variance_over_time(tour, H, [(0.0, 0.0)], tm, [tour_time(tour, tm)])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    rows=st.integers(1, 30),
    noise=st.floats(1e-4, 2.0),
    cuts=st.lists(st.integers(0, 30), min_size=1, max_size=8),
)
def test_variance_never_increases_from_one_checkpoint_to_the_next(seed, rows, noise, cuts):
    rng = np.random.default_rng(seed)
    h = Hyperparameters(1.2, 1.0, noise)
    # lattice rows, so locations repeat and lie close together
    design = rng.integers(0, 5, size=(rows, 2)) * 0.5
    counts = rng.integers(1, 4, size=rows)
    pts = rng.uniform(-1.0, 3.0, size=(30, 2))
    lengths = sorted(min(c, rows) for c in cuts)
    _, variances = Posterior(design, h, counts).prefix_mean_and_variance(
        pts, rng.normal(size=rows), lengths
    )
    assert np.all(np.diff(variances, axis=0) <= 0.0)
    assert np.all(variances >= 0.0) and np.all(variances <= h.signal_variance)
