from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from fieldcover.baselines import (
    SensorModel,
    baseline_candidates,
    convergence_study,
    curves_over_time,
    entropy_greedy,
    lawnmower_plan,
    mi_greedy,
    ordered_tour,
    simulate_trial,
    simulate_trials,
    single_trial_mse_over_time,
    survey_rows,
    variance_over_time,
)
from fieldcover.errors import GramTooLargeError
from fieldcover.fields import sample_gp_field
from fieldcover.geometry import Environment
from fieldcover.gp import Hyperparameters, MeasurementMultiset, Posterior
from fieldcover.placement import (
    AccuracySpec,
    MeasurementPlan,
    disk_cover_placement,
    necessary_radius,
    project_into_environment,
)
from fieldcover.routing import TimeModel, Tour, tour_time

H = Hyperparameters(2.0, 1.5, 0.1)
ENV = Environment.rectangle((0.0, 0.0), (8.0, 8.0))


def nine_site_plan():
    return MeasurementMultiset(
        tuple(((x, y), 1) for x in (1.0, 4.0, 7.0) for y in (1.0, 4.0, 7.0))
    )


def test_sensor_validation():
    with pytest.raises(ValueError):
        SensorModel(-0.1, 0)
    with pytest.raises(ValueError):
        SensorModel(0.1, 1.5)  # type: ignore[arg-type]


def test_trials_are_seed_deterministic():
    truth = sample_gp_field(ENV, H, 2.0, 11)
    plan = nine_site_plan()
    sensor = SensorModel(H.noise_variance, 99)
    a = simulate_trial(truth, plan, sensor, H, trial_index=3)
    b = simulate_trial(truth, plan, sensor, H, trial_index=3)
    c = simulate_trial(truth, plan, sensor, H, trial_index=4)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.squared_errors, b.squared_errors)
    assert not np.array_equal(a.means, c.means)
    np.testing.assert_array_equal(a.variances, c.variances)


def test_batched_trials_equal_single_trials_on_a_hard_boundary_plan():
    # an L-shaped courtyard whose sites outside were projected onto it
    env = Environment.polygon([(0, 0), (6, 0), (6, 3), (3, 3), (3, 6), (0, 6)])
    h = Hyperparameters(2.0, 1.5, 0.4)
    raw = disk_cover_placement(env, h, AccuracySpec(0.3, 2.0))
    plan = project_into_environment(raw, env)
    assert plan.entries != raw.entries
    assert len(plan.distinct()[0]) < len(plan.entries)
    truth = sample_gp_field(Environment.rectangle((-1.0, -1.0), (7.0, 7.0)), h, 0.5, 6)
    sensor = SensorModel(h.noise_variance, 13)
    batched = simulate_trials(truth, plan, sensor, h, range(5))
    assert len(batched) == 5

    # the per-trial route with its own factorization, as each trial once ran
    sites, counts = plan.distinct()
    for t, report in enumerate(batched):
        alone = simulate_trial(truth, plan, sensor, h, trial_index=t)
        noise = math.sqrt(sensor.noise_variance) * np.random.default_rng([13, 1, t]).standard_normal(
            plan.total
        )
        post = Posterior(sites, h, counts)
        means = post.mean(truth.points(), truth.value_at(sites) + plan.site_means(noise))
        variances = post.variance(truth.points())
        for got in (report, alone):
            np.testing.assert_array_equal(got.means, means)
            np.testing.assert_array_equal(got.variances, variances)
            np.testing.assert_array_equal(got.squared_errors, (means - truth.values.ravel()) ** 2)
    assert not np.array_equal(batched[0].means, batched[1].means)


def test_empty_plan_reports_the_prior():
    truth = sample_gp_field(ENV, H, 2.0, 11)
    empty = MeasurementPlan((), (), (), (), (), 1)
    report = simulate_trial(truth, empty, SensorModel(0.1, 5), H)
    assert np.all(report.means == 0.0)
    assert np.all(report.variances == H.signal_variance)
    np.testing.assert_allclose(report.squared_errors, truth.values.ravel() ** 2)


def test_noise_free_dense_plan_near_interpolation():
    h = Hyperparameters(2.0, 1.5, 1e-9)
    env = Environment.rectangle((0, 0), (6.0, 6.0))
    truth = sample_gp_field(env, h, 2.0, 5)
    dense = MeasurementMultiset(tuple((tuple(p), 1) for p in truth.points()))
    report = simulate_trial(truth, dense, SensorModel(0.0, 1), h)
    assert report.average_mse < 1e-6
    assert report.average_variance < 1e-6
    assert abs(report.average_mse - report.average_variance) < 1e-6


def test_aggregates_recomputable_from_per_point_data():
    truth = sample_gp_field(ENV, H, 2.0, 11)
    report = simulate_trial(truth, nine_site_plan(), SensorModel(0.1, 2), H)
    assert report.average_mse == pytest.approx(report.squared_errors.mean())
    assert report.average_variance == pytest.approx(report.variances.mean())
    expected = np.mean(np.abs(report.squared_errors - report.variances) / report.variances)
    assert report.mean_percent_difference == pytest.approx(expected)


def test_convergence_curve_shrinks():
    truth = sample_gp_field(ENV, H, 2.0, 11)
    sensor = SensorModel(H.noise_variance, 99)
    curve = convergence_study(truth, nine_site_plan(), sensor, H, (1, 16, 256))
    assert curve.shape == (3,)
    # single-trial squared errors scatter like chi-square with 1 dof
    assert curve[0] > 0.3
    assert curve[-1] < curve[0]
    assert np.all(curve >= 0.0)


def test_convergence_study_matches_single_trials():
    truth = sample_gp_field(ENV, H, 2.0, 11)
    plan = nine_site_plan()
    sensor = SensorModel(H.noise_variance, 99)
    curve = convergence_study(truth, plan, sensor, H, (1,))
    first = simulate_trial(truth, plan, sensor, H, trial_index=0)
    assert curve[0] == pytest.approx(first.mean_percent_difference, rel=1e-12)
    with pytest.raises(ValueError):
        convergence_study(truth, plan, sensor, H, (10, 10))
    with pytest.raises(ValueError):
        convergence_study(truth, plan, sensor, H, ())


def test_entropy_greedy_spreads_from_a_corner():
    cands = [(float(x), float(y)) for x in range(5) for y in range(5)]
    h = Hyperparameters(1.0, 1.0, 0.1)
    picks = entropy_greedy(cands, h, 4)
    # blank slate ties everywhere; the documented tie-break starts at
    # the lexicographic corner, then the far corner wins outright
    assert picks[0] == (0.0, 0.0)
    assert picks[1] == (4.0, 4.0)
    assert set(picks) <= set(cands)
    assert len(set(picks)) == 4


def test_entropy_greedy_each_pick_is_an_argmax():
    cands = [(float(x), float(y)) for x in range(5) for y in range(5)]
    h = Hyperparameters(1.0, 1.0, 0.1)
    picks = entropy_greedy(cands, h, 4)
    chosen: list = []
    for pick in picks:
        rest = [c for c in cands if c not in chosen]
        var = Posterior(np.asarray(chosen).reshape(-1, 2), h).variance(np.asarray(rest))
        assert var[rest.index(pick)] >= var.max() - 1e-9
        chosen.append(pick)


def test_greedy_prefix_property():
    cands = [(float(x), float(y)) for x in range(4) for y in range(4)]
    h = Hyperparameters(1.5, 1.0, 0.2)
    assert entropy_greedy(cands, h, 6)[:3] == entropy_greedy(cands, h, 3)
    assert mi_greedy(cands, h, 6)[:3] == mi_greedy(cands, h, 3)


def test_greedy_budget_edges():
    cands = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    h = Hyperparameters(1.0, 1.0, 0.1)
    assert entropy_greedy(cands, h, 0) == []
    assert mi_greedy(cands, h, 0) == []
    assert mi_greedy([(2.0, 3.0)], h, 1) == [(2.0, 3.0)]
    assert sorted(entropy_greedy(cands, h, 3)) == sorted(cands)
    with pytest.raises(ValueError):
        entropy_greedy(cands, h, 4)
    with pytest.raises(ValueError):
        mi_greedy(cands, h, -1)


def test_mi_greedy_starts_in_the_interior():
    cands = [(float(x), float(y)) for x in range(10) for y in range(10)]
    h = Hyperparameters(2.0, 1.0, 0.25)
    center = (4.5, 4.5)
    mi_first = mi_greedy(cands, h, 1)[0]
    entropy_first = entropy_greedy(cands, h, 1)[0]
    assert math.dist(mi_first, center) < math.dist(entropy_first, center)


def test_lawnmower_serpentine_order():
    env = Environment.rectangle((0, 0), (20.0, 10.0))
    tour = lawnmower_plan(env, 10.0, (0.0, 0.0))
    assert tour.waypoints == (
        ((0.0, 0.0), 1),
        ((10.0, 0.0), 1),
        ((20.0, 0.0), 1),
        ((20.0, 10.0), 1),
        ((10.0, 10.0), 1),
        ((0.0, 10.0), 1),
    )


def test_lawnmower_point_counts():
    big = Environment.rectangle((0, 0), (100.0, 100.0))
    assert len(lawnmower_plan(big, 10.0, (0, 0)).waypoints) == 121
    assert len(lawnmower_plan(big, 150.0, (0, 0)).waypoints) == 1
    with pytest.raises(ValueError):
        lawnmower_plan(big, 0.0, (0, 0))


def test_lawnmower_time_decreases_with_coarser_grids():
    big = Environment.rectangle((0, 0), (100.0, 100.0))
    tm = TimeModel(1.0)
    times = [tour_time(lawnmower_plan(big, r, (0.0, 0.0)), tm) for r in (5.0, 10.0, 20.0, 50.0)]
    assert all(a > b for a, b in zip(times, times[1:]))


def test_lawnmower_respects_polygon_boundary():
    tri = Environment.polygon([(0, 0), (10, 0), (0, 10)])
    tour = lawnmower_plan(tri, 2.0, (0.0, 0.0))
    locs = np.asarray([loc for loc, _ in tour.waypoints])
    assert np.all(tri.contains(locs))
    assert len(tour.waypoints) == 21


def test_baseline_candidates_use_half_necessary_radius():
    env = Environment.rectangle((0, 0), (10.0, 10.0))
    h = Hyperparameters(2.0, 1.0, 0.1)
    cands = baseline_candidates(env, h, 0.5)
    spacing = necessary_radius(h, 0.5) / 2.0
    per_axis = math.floor(10.0 / spacing) + 1
    assert len(cands) == per_axis**2
    assert cands == [p for row in survey_rows(env, spacing) for p in row]


def test_variance_over_time_boundaries():
    h = Hyperparameters(1.5, 1.0, 0.2)
    env = Environment.rectangle((0, 0), (4.0, 4.0))
    truth = sample_gp_field(env, h, 1.0, 5)
    sensor = SensorModel(h.noise_variance, 5)
    tour = lawnmower_plan(env, 2.0, (-1.0, -1.0))
    tm = TimeModel(0.5)
    horizon = tour_time(tour, tm)
    pts = env.grid(1.0)
    marks = [0.0, horizon / 3, 2 * horizon / 3, horizon]
    curve, _ = curves_over_time(tour, truth, sensor, h, pts, tm, marks)
    assert curve[0] == pytest.approx(h.signal_variance)
    assert all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))
    full = Posterior(np.asarray([loc for loc, _ in tour.waypoints]), h).variance(pts)
    assert curve[-1] == pytest.approx(full.mean(), rel=1e-12)
    np.testing.assert_array_equal(variance_over_time(tour, h, pts, tm, marks), curve)
    for bad in ([horizon + 1.0], [-0.5]):
        with pytest.raises(ValueError):
            curves_over_time(tour, truth, sensor, h, pts, tm, bad)
        with pytest.raises(ValueError):
            variance_over_time(tour, h, pts, tm, bad)


def test_a_last_mark_rounded_past_a_large_horizon_is_accepted():
    # compare's last mark is 10 * horizon / 10, which can land one ulp past
    # the horizon; at 4.6e8 s an ulp is 6e-8 s, far above the old 1e-9
    h = Hyperparameters(1.0, 1.0, 0.1)
    tour = Tour((0.0, 0.0), (((1.0, 0.0), 1),))
    tm = TimeModel(456789012.345)
    horizon = tour_time(tour, tm)
    marks = [i * horizon / 10.0 for i in range(11)]
    assert marks[-1] > horizon + 1e-9
    truth = sample_gp_field(Environment.rectangle((0.0, 0.0), (1.0, 1.0)), h, 0.5, 3)
    sensor = SensorModel(h.noise_variance, 3)
    pts = np.array([(0.0, 0.0), (1.0, 0.0)])
    variances, errors = curves_over_time(tour, truth, sensor, h, pts, tm, marks)
    exact = curves_over_time(tour, truth, sensor, h, pts, tm, marks[:-1] + [horizon])
    np.testing.assert_array_equal(variances, exact[0])
    np.testing.assert_array_equal(errors, exact[1])
    assert variances[-1] < variances[0] == h.signal_variance
    # the allowance is a few ulps, not a second of slack
    with pytest.raises(ValueError, match="outside"):
        curves_over_time(tour, truth, sensor, h, pts, tm, [horizon + 1e-6])


def test_variance_over_time_counts_finished_dwells_only():
    h = Hyperparameters(1.0, 1.0, 0.1)
    tour = Tour((0.0, 0.0), (((1.0, 0.0), 1), ((2.0, 0.0), 1)))
    tm = TimeModel(1.0)
    truth = sample_gp_field(Environment.rectangle((0.0, 0.0), (3.0, 1.0)), h, 0.5, 8)
    sensor = SensorModel(h.noise_variance, 8)
    pts = np.array([(0.0, 0.0), (1.5, 0.0)])
    # elapsed times are 2 and 4; at the boundary the first dwell has
    # just finished and the second is still travelling
    value = curves_over_time(tour, truth, sensor, h, pts, tm, [2.0])[0][0]
    only_first = Posterior([(1.0, 0.0)], h).variance(pts).mean()
    assert value == pytest.approx(only_first, rel=1e-12)
    assert variance_over_time(tour, h, pts, tm, [2.0])[0] == value


def test_single_trial_mse_noise_free_terminal_matches_direct():
    h = Hyperparameters(1.5, 1.0, 0.2)
    env = Environment.rectangle((0, 0), (4.0, 4.0))
    truth = sample_gp_field(env, h, 1.0, 5)
    tour = lawnmower_plan(env, 2.0, (-1.0, -1.0))
    tm = TimeModel(0.5)
    horizon = tour_time(tour, tm)
    pts = env.grid(1.0)
    # zero sensor noise makes the terminal prediction a pure function of
    # the truth field, so a direct posterior-mean route must agree
    sensor = SensorModel(0.0, 5)
    _, curve = curves_over_time(tour, truth, sensor, h, pts, tm, [0.0, horizon])

    actual = truth.value_at(np.asarray(pts, dtype=float))
    assert curve[0] == pytest.approx(np.mean(actual**2), rel=1e-12)

    design = np.asarray([loc for loc, _ in tour.waypoints])
    observed = truth.value_at(design)
    predicted = Posterior(design, h).mean(pts, observed)
    assert curve[-1] == pytest.approx(np.mean((predicted - actual) ** 2), rel=1e-12)


def test_single_trial_mse_uses_prefix_design():
    h = Hyperparameters(1.0, 1.0, 0.1)
    tour = Tour((0.0, 0.0), (((1.0, 0.0), 1), ((2.0, 0.0), 1)))
    tm = TimeModel(1.0)
    env = Environment.rectangle((0.0, 0.0), (3.0, 1.0))
    truth = sample_gp_field(env, h, 0.5, 8)
    pts = np.array([(0.0, 0.0), (1.5, 0.0)])
    sensor = SensorModel(0.0, 8)
    # elapsed times are 2 and 4, so at 2.0 only the first site reports
    value = curves_over_time(tour, truth, sensor, h, pts, tm, [2.0])[1][0]
    obs = truth.value_at(np.array([[1.0, 0.0]]))
    predicted = Posterior(np.array([[1.0, 0.0]]), h).mean(pts, obs)
    actual = truth.value_at(pts)
    assert value == pytest.approx(np.mean((predicted - actual) ** 2), rel=1e-12)


def test_single_trial_mse_trial_determinism():
    h = Hyperparameters(1.5, 1.0, 0.2)
    env = Environment.rectangle((0, 0), (4.0, 4.0))
    truth = sample_gp_field(env, h, 1.0, 5)
    tour = lawnmower_plan(env, 2.0, (-1.0, -1.0))
    tm = TimeModel(0.5)
    horizon = tour_time(tour, tm)
    pts = env.grid(2.0)
    sensor = SensorModel(h.noise_variance, 21)
    marks = [horizon / 2, horizon]
    var_a, a = curves_over_time(tour, truth, sensor, h, pts, tm, marks)
    var_b, b = curves_over_time(tour, truth, sensor, h, pts, tm, marks)
    var_c, c = curves_over_time(tour, truth, sensor, h, pts, tm, marks, trial_index=1)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    # the variance curve never depends on the draws
    np.testing.assert_array_equal(var_a, var_b)
    np.testing.assert_array_equal(var_a, var_c)
    np.testing.assert_array_equal(
        single_trial_mse_over_time(tour, truth, sensor, h, pts, tm, marks, trial_index=1), c
    )


def test_ordered_tour_visits_in_order():
    tour = ordered_tour([(1.0, 0.0), (2.0, 5.0)], (0.0, 0.0))
    assert tour.depot == (0.0, 0.0)
    assert tour.waypoints == (((1.0, 0.0), 1), ((2.0, 5.0), 1))


def test_greedy_refuses_oversized_candidate_matrices(monkeypatch):
    import fieldcover.baselines as baselines

    def never(*args, **kwargs):
        raise AssertionError("a candidate matrix was allocated")

    monkeypatch.setattr(baselines, "kernel_matrix", never)
    side = np.arange(129, dtype=float)
    # 129^2 = 16,641 candidates: one 8 * 16,641^2 byte matrix is above 2 GiB
    cands = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)
    for select in (entropy_greedy, mi_greedy):
        with pytest.raises(GramTooLargeError, match="GiB cap"):
            select(cands, H, 1)
    # mutual information holds more candidate matrices at once, so it stops lower
    with pytest.raises(GramTooLargeError, match="greedy selection over 11586 candidates"):
        mi_greedy(cands[:11_586], H, 1)


@pytest.mark.parametrize(
    "select, cap",
    # peak C x C matrices held at once: two for entropy, four for MI
    # (inside the pool inverse), so 8 * C^2 * peak stays within 2 GiB
    [(entropy_greedy, 11_585), (mi_greedy, 8_192)],
)
def test_greedy_guard_boundary(select, cap, monkeypatch):
    import fieldcover.baselines as baselines

    class Allocated(Exception):
        pass

    def allocated(*args, **kwargs):
        raise Allocated

    monkeypatch.setattr(baselines, "kernel_matrix", allocated)
    side = np.arange(120, dtype=float)
    cands = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)
    with pytest.raises(Allocated):
        select(cands[:cap], H, 1)
    with pytest.raises(GramTooLargeError, match=f"greedy selection over {cap + 1} candidates"):
        select(cands[: cap + 1], H, 1)


@pytest.mark.parametrize(
    "select, budget, matrices",
    # entropy holds a budget x C factor and one kernel column; MI peaks
    # inside the pool inverse, then holds the pool precision and two
    # factors of C x budget
    [(entropy_greedy, 8, 1.0), (mi_greedy, 400, 2.5)],
)
def test_greedy_peak_memory(select, budget, matrices):
    side = 2.0 * np.arange(40, dtype=float)
    cands = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)
    one = 8 * cands.shape[0] ** 2  # one 1,600 x 1,600 matrix: 20.5 MB
    tracemalloc.start()
    try:
        picks = select(cands, Hyperparameters(8.33, 12.87, 0.0361), budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(picks) == budget
    assert peak < matrices * one


def nine_site_trials(trials: int):
    """``simulate_trials``' arguments for nine sites and a 17 x 17 truth grid."""
    truth = sample_gp_field(ENV, H, 0.5, 11)
    return truth, nine_site_plan(), SensorModel(H.noise_variance, 3), H, range(trials)


def test_trial_guard_boundary(monkeypatch):
    import fieldcover.baselines as baselines

    class Drawn(Exception):
        pass

    def drawn(*args, **kwargs):
        raise Drawn

    # 8 * (2 * 9 sites + 2 * 289 truth points + 128) = 5,792 bytes per
    # trial: 370,767 trials fit in 2 GiB, 370,768 do not, and the refusal
    # comes before the first trial's noise is drawn
    monkeypatch.setattr(baselines, "_noise", drawn)
    with pytest.raises(Drawn):
        simulate_trials(*nine_site_trials(370_767))
    with pytest.raises(GramTooLargeError, match="370768 simulated trials over 289 truth points"):
        simulate_trials(*nine_site_trials(370_768))


def test_trials_peak_within_the_guard_count():
    # each further trial adds at most the 5,792 bytes the guard counts,
    # and not much less
    peaks = []
    for trials in (1, 201):
        args = nine_site_trials(trials)
        tracemalloc.start()
        try:
            reports = simulate_trials(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports) == trials
        del reports
        peaks.append(peak)
    per_trial = (peaks[1] - peaks[0]) / 200
    assert 0.85 * 5_792 <= per_trial <= 5_792
