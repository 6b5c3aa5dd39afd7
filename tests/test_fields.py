from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from fieldcover.errors import GridTooLargeError
from fieldcover.fields import FieldGrid, sample_gp_field
from fieldcover.geometry import Environment
from fieldcover.gp import Hyperparameters

H = Hyperparameters(2.0, 1.5, 0.1)
ENV = Environment.rectangle((0.0, 0.0), (8.0, 8.0))


def indexed_grid():
    vals = np.arange(12, dtype=float).reshape(3, 4)
    return FieldGrid((1.0, 2.0), 0.5, vals), vals


def test_field_grid_validation():
    with pytest.raises(ValueError):
        FieldGrid((0, 0), 0.0, np.ones((2, 2)))
    with pytest.raises(ValueError):
        FieldGrid((0, 0), 1.0, np.ones(4))
    with pytest.raises(ValueError):
        FieldGrid((0, 0), 1.0, np.array([[1.0, np.nan]]))


def test_points_match_value_layout():
    grid, vals = indexed_grid()
    pts = grid.points()
    assert pts.shape == (12, 2)
    np.testing.assert_allclose(grid.value_at(pts), vals.ravel())
    assert grid.value_at([(1.5, 2.5)]) == pytest.approx(vals[1, 1])


def test_bilinear_midpoints():
    grid, vals = indexed_grid()
    cell_mid = (1.25, 2.25)
    assert grid.value_at([cell_mid])[0] == pytest.approx(vals[:2, :2].mean())
    edge_mid = (1.0, 2.25)
    assert grid.value_at([edge_mid])[0] == pytest.approx(vals[0, :2].mean())


def test_out_of_extent_rejected():
    grid, _ = indexed_grid()
    with pytest.raises(ValueError):
        grid.value_at([(0.5, 2.5)])
    with pytest.raises(ValueError):
        grid.value_at([(1.5, 3.6)])


def test_sampled_grid_covers_the_box():
    grid = sample_gp_field(Environment.rectangle((0, 0), (10.0, 10.0)), H, 3.0, 1)
    # one node past the edge so the whole box stays interpolable
    assert grid.shape == (5, 5)
    assert grid.origin == (0.0, 0.0)
    assert grid.value_at([(10.0, 10.0)]).shape == (1,)


def test_grid_size_cap():
    big = Environment.rectangle((0, 0), (100.0, 100.0))
    with pytest.raises(GridTooLargeError):
        sample_gp_field(big, H, 0.5, 0)


def test_deterministic_per_seed():
    a = sample_gp_field(ENV, H, 2.0, 7)
    b = sample_gp_field(ENV, H, 2.0, 7)
    c = sample_gp_field(ENV, H, 2.0, 8)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_draw_peaks_at_one_covariance_matrix():
    env = Environment.rectangle((0, 0), (40.0, 40.0))
    one = 8 * 41**4  # the 1,681 x 1,681 node covariance: 22.6 MB
    tracemalloc.start()
    try:
        grid = sample_gp_field(env, H, 1.0, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.shape == (41, 41)
    # the covariance is on its own mapping, which tracemalloc does not
    # see, and it is factored in place: numpy allocates no n x n copy
    assert peak <= 0.5 * one


def test_near_zero_prior_gives_near_zero_field():
    tiny = Hyperparameters(2.0, 1e-12, 0.1)
    grid = sample_gp_field(ENV, tiny, 2.0, 3)
    assert np.abs(grid.values).max() < 1e-4


def test_monte_carlo_marginal_variance():
    draws = np.array([sample_gp_field(ENV, H, 2.0, s).values for s in range(500)])
    observed = draws[:, 2, 2].var(ddof=1)
    assert observed == pytest.approx(H.signal_variance, rel=0.10)


def test_monte_carlo_correlation_at_length_scale():
    draws = np.array([sample_gp_field(ENV, H, 2.0, s).values for s in range(500)])
    # nodes (3,2) and (4,2) sit exactly one length scale apart
    observed = np.corrcoef(draws[:, 3, 2], draws[:, 4, 2])[0, 1]
    assert abs(observed - math.exp(-0.5)) < 0.1
