"""The distinct-site posterior against an expanded dense reference.

The reference gives every individual measurement its own Gram row and
solves with ``numpy.linalg.solve``, so it shares nothing with
``Posterior`` beyond the kernel formula. Repeats collapse exactly, so
the two must agree to rounding.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldcover import cli
from fieldcover import io as fileio
from fieldcover.baselines import (
    SensorModel,
    convergence_study,
    curves_over_time,
    simulate_trial,
)
from fieldcover.errors import GramTooLargeError
from fieldcover.fields import sample_gp_field
from fieldcover.geometry import Environment
from fieldcover.gp import Hyperparameters, MeasurementMultiset, Posterior
from fieldcover.placement import (
    AccuracySpec,
    disk_cover_placement,
    project_into_environment,
    verify_plan,
)
from fieldcover.routing import TimeModel, Tour, cumulative_times, tour_time

RTOL = 1e-10


def expanded_rows(entries) -> np.ndarray:
    """One row per individual measurement, entries in order."""
    if not entries:
        return np.empty((0, 2))
    return np.repeat([loc for loc, _ in entries], [n for _, n in entries], axis=0).astype(float)


def _sq_exp(a, b, h: Hyperparameters) -> np.ndarray:
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
    return h.signal_variance * np.exp(-d2 / (2.0 * h.length_scale**2))


def reference_variance(entries, h: Hyperparameters, queries) -> np.ndarray:
    rows = expanded_rows(entries)
    q = np.asarray(queries, dtype=float).reshape(-1, 2)
    gram = _sq_exp(rows, rows, h) + h.noise_variance * np.eye(rows.shape[0])
    cross = _sq_exp(rows, q, h)
    return h.signal_variance - np.sum(cross * np.linalg.solve(gram, cross), axis=0)


def reference_mean(entries, h: Hyperparameters, queries, values) -> np.ndarray:
    """Posterior mean from one value per measurement, in expanded order."""
    rows = expanded_rows(entries)
    q = np.asarray(queries, dtype=float).reshape(-1, 2)
    gram = _sq_exp(rows, rows, h) + h.noise_variance * np.eye(rows.shape[0])
    return _sq_exp(q, rows, h) @ np.linalg.solve(gram, np.asarray(values, dtype=float))


def collapsed(entries, h: Hyperparameters) -> tuple[MeasurementMultiset, Posterior]:
    measured = MeasurementMultiset(tuple(entries))
    sites, counts = measured.distinct()
    return measured, Posterior(sites, h, counts)


def random_entries(rng, sites: int, entries: int, max_count: int):
    """Entries over ``sites`` locations, so locations recur across entries."""
    locs = rng.uniform(-6.0, 6.0, size=(sites, 2))
    picks = np.concatenate([np.arange(sites), rng.integers(0, sites, size=entries - sites)])
    rng.shuffle(picks)
    return [(tuple(locs[i]), int(rng.integers(1, max_count + 1))) for i in picks]


def test_distinct_merges_equal_locations_in_first_appearance_order():
    m = MeasurementMultiset((((1.0, 2.0), 2), ((0.0, 0.0), 1), ((1.0, 2.0), 3), ((5.0, 5.0), 1)))
    sites, counts = m.distinct()
    np.testing.assert_array_equal(sites, [[1.0, 2.0], [0.0, 0.0], [5.0, 5.0]])
    assert counts.tolist() == [5, 1, 1]
    averaged = m.site_means(np.arange(7.0))
    np.testing.assert_allclose(averaged, [(0 + 1 + 3 + 4 + 5) / 5, 2.0, 6.0], rtol=1e-15)
    with pytest.raises(ValueError):
        m.site_means(np.arange(6.0))


@pytest.mark.parametrize("seed", range(4))
def test_repeats_match_expanded_reference(seed):
    rng = np.random.default_rng(seed)
    h = Hyperparameters(rng.uniform(1.0, 4.0), rng.uniform(0.5, 5.0), rng.uniform(0.05, 1.0))
    entries = [(tuple(p), int(rng.integers(1, 7))) for p in rng.uniform(-6.0, 6.0, size=(25, 2))]
    queries = rng.uniform(-8.0, 8.0, size=(60, 2))
    measured, post = collapsed(entries, h)
    assert post.size == 25
    np.testing.assert_allclose(post.variance(queries), reference_variance(entries, h, queries), rtol=RTOL)
    values = rng.normal(size=measured.total)
    np.testing.assert_allclose(
        post.mean(queries, measured.site_means(values)),
        reference_mean(entries, h, queries, values),
        rtol=RTOL,
    )


@pytest.mark.parametrize("seed", range(4))
def test_duplicates_across_entries_match_expanded_reference(seed):
    rng = np.random.default_rng(100 + seed)
    h = Hyperparameters(2.5, 3.0, 0.3)
    entries = random_entries(rng, sites=15, entries=40, max_count=4)
    queries = rng.uniform(-8.0, 8.0, size=(50, 2))
    measured, post = collapsed(entries, h)
    assert post.size == 15
    np.testing.assert_allclose(post.variance(queries), reference_variance(entries, h, queries), rtol=RTOL)
    columns = rng.normal(size=(measured.total, 3))
    batched = post.mean_many(queries, measured.site_means(columns))
    for j in range(columns.shape[1]):
        expected = reference_mean(entries, h, queries, columns[:, j])
        np.testing.assert_allclose(batched[:, j], expected, rtol=RTOL)


def test_hard_boundary_projected_plan_matches_expanded_reference():
    env = Environment.polygon([(0.0, 0.0), (30.0, 0.0), (0.0, 30.0)])
    h = Hyperparameters(3.0, 2.0, 0.1)
    plan = disk_cover_placement(env, h, AccuracySpec(1.2, 2.0))
    plan = project_into_environment(plan, env)
    sites, counts = plan.distinct()
    # projection lands several sites on the same boundary point
    assert sites.shape[0] < len(plan.entries)
    assert counts.sum() == plan.total

    grid = env.grid(2.0)
    expected = reference_variance(plan.entries, h, grid)
    got = Posterior(sites, h, counts).variance(grid)
    np.testing.assert_allclose(got, expected, rtol=RTOL)
    report = verify_plan(plan, env, h, 1.2, 2.0)
    assert report.max_variance == pytest.approx(float(expected.max()), rel=RTOL)


def noisy_readings(truth, entries, sensor: SensorModel, trial: int) -> np.ndarray:
    """Per-measurement readings as the simulator draws them."""
    rows = expanded_rows(entries)
    z = np.random.default_rng([sensor.seed, 1, trial]).standard_normal(rows.shape[0])
    return truth.value_at(rows) + math.sqrt(sensor.noise_variance) * z


def repeated_plan():
    sites = [((float(x), float(y)), 3) for x in (1.0, 3.5, 6.0) for y in (1.0, 3.5, 6.0)]
    # the centre site appears again as a separate entry
    return MeasurementMultiset(tuple(sites + [((3.5, 3.5), 3)]))


def test_simulate_trial_matches_expanded_path():
    h = Hyperparameters(2.0, 1.5, 0.1)
    env = Environment.rectangle((0.0, 0.0), (7.0, 7.0))
    truth = sample_gp_field(env, h, 0.5, 3)
    plan = repeated_plan()
    sensor = SensorModel(0.2, 9)
    pts = truth.points()
    for trial in (0, 4):
        report = simulate_trial(truth, plan, sensor, h, trial)
        readings = noisy_readings(truth, plan.entries, sensor, trial)
        np.testing.assert_allclose(report.variances, reference_variance(plan.entries, h, pts), rtol=RTOL)
        np.testing.assert_allclose(report.means, reference_mean(plan.entries, h, pts, readings), rtol=RTOL)


def test_convergence_study_matches_expanded_path():
    h = Hyperparameters(2.0, 1.5, 0.1)
    env = Environment.rectangle((0.0, 0.0), (7.0, 7.0))
    truth = sample_gp_field(env, h, 0.5, 4)
    plan = repeated_plan()
    sensor = SensorModel(h.noise_variance, 2)
    pts = truth.points()
    variances = reference_variance(plan.entries, h, pts)
    squared = [
        (reference_mean(plan.entries, h, pts, noisy_readings(truth, plan.entries, sensor, t))
         - truth.values.ravel()) ** 2
        for t in range(4)
    ]
    expected = [
        np.mean(np.abs(np.mean(squared[:n], axis=0) - variances) / variances) for n in (2, 4)
    ]
    got = convergence_study(truth, plan, sensor, h, [2, 4])
    np.testing.assert_allclose(got, expected, rtol=1e-9)


def test_curves_over_repeated_dwells_match_expanded_path():
    h = Hyperparameters(1.5, 1.0, 0.2)
    env = Environment.rectangle((0.0, 0.0), (4.0, 4.0))
    truth = sample_gp_field(env, h, 0.5, 6)
    # a revisit of (1, 1) later in the tour merges with the first visit
    stops = [(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 1.0), (1.0, 3.0)]
    tour = Tour((0.0, 0.0), tuple((stop, 2) for stop in stops))
    tm = TimeModel(0.5)
    horizon = tour_time(tour, tm)
    marks = [horizon / 2, horizon]
    pts = env.grid(1.0)
    sensor = SensorModel(0.3, 12)

    variances, mse = curves_over_time(tour, truth, sensor, h, pts, tm, marks)
    elapsed = cumulative_times(tour, tm)
    readings = noisy_readings(truth, tour.waypoints, sensor, 0)
    actual = truth.value_at(pts)
    for mark, var, err in zip(marks, variances, mse):
        finished = [w for e, w in zip(elapsed, tour.waypoints) if e <= mark]
        used = readings[: sum(n for _, n in finished)]
        assert var == pytest.approx(reference_variance(finished, h, pts).mean(), rel=RTOL)
        predicted = reference_mean(finished, h, pts, used)
        assert err == pytest.approx(np.mean((predicted - actual) ** 2), rel=RTOL)


lattice = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda p: (p[0] * 0.75, p[1] * 0.75))


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(st.tuples(lattice, st.integers(1, 5)), min_size=1, max_size=12),
    length_scale=st.floats(0.5, 3.0),
    noise=st.floats(0.05, 2.0),
)
def test_collapsed_variance_equals_expanded_variance(entries, length_scale, noise):
    h = Hyperparameters(length_scale, 1.5, noise)
    queries = np.array([(x * 0.6, y * 0.6) for x in range(-4, 5, 2) for y in range(-4, 5, 2)])
    _, post = collapsed(entries, h)
    np.testing.assert_allclose(post.variance(queries), reference_variance(entries, h, queries), rtol=RTOL)


def test_oversized_gram_is_refused_before_allocation():
    sites = np.random.default_rng(0).uniform(0.0, 1000.0, size=(20_000, 2))
    with pytest.raises(GramTooLargeError, match="GiB cap"):
        Posterior(sites, Hyperparameters(1.0, 1.0, 0.1))


def test_oversized_plan_exits_2_naming_the_cap(tmp_path, capsys):
    # r = 0.03 against l = 3: 24,076 distinct sites, all near the one tile,
    # so tiling saves nothing and the dense solve is above the cap
    env = tmp_path / "env.json"
    fileio.write_json(env, {"type": "rectangle", "min": [0.0, 0.0], "max": [2.5, 2.5]})
    args = [
        "plan", "--env", str(env), "--hyper", "3,2,0.1", "--delta", "2e-4", "--alpha", "1.5",
        "--grid-res", "1", "--out", str(tmp_path / "out"),
    ]
    assert cli.main(args) == 2
    assert "GiB cap" in capsys.readouterr().err


def test_formerly_oversized_plan_is_certified_locally(tmp_path):
    # 22,761 distinct sites: too many for one dense solve, but each tile
    # sees only the few hundred near it
    env = tmp_path / "env.json"
    fileio.write_json(env, {"type": "rectangle", "min": [0.0, 0.0], "max": [240.0, 240.0]})
    args = [
        "plan", "--env", str(env), "--hyper", "3,2,0.1", "--delta", "1.2", "--alpha", "1.5",
        "--grid-res", "20", "--out", str(tmp_path / "out"),
    ]
    assert cli.main(args) == 0
    report = json.loads((tmp_path / "out" / "verification.json").read_text(encoding="utf-8"))
    assert report["method"] == "local"
    assert report["passed"] is True
    assert report["max_variance"] <= 1.2


def test_panel_means_match_expanded_reference(monkeypatch):
    import fieldcover.gp as gp

    rng = np.random.default_rng(7)
    h = Hyperparameters(2.0, 1.5, 0.2)
    entries = random_entries(rng, sites=20, entries=45, max_count=3)
    queries = rng.uniform(-8.0, 8.0, size=(50, 2))
    measured, post = collapsed(entries, h)
    # panels of 7 query points, the last one short
    monkeypatch.setattr(gp, "_PANEL_POINTS", 7)
    values = rng.normal(size=measured.total)
    expected = reference_mean(entries, h, queries, values)
    np.testing.assert_allclose(post.mean(queries, measured.site_means(values)), expected, rtol=RTOL)
    means, variances = post.mean_and_variance(queries, measured.site_means(values))
    np.testing.assert_allclose(means, expected, rtol=RTOL)
    np.testing.assert_allclose(variances, reference_variance(entries, h, queries), rtol=RTOL)
    columns = rng.normal(size=(measured.total, 3))
    batched = post.mean_many(queries, measured.site_means(columns))
    for j in range(columns.shape[1]):
        np.testing.assert_allclose(
            batched[:, j], reference_mean(entries, h, queries, columns[:, j]), rtol=RTOL
        )
