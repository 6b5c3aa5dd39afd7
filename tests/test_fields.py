from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fieldcover.errors import GramTooLargeError
from fieldcover.fields import FieldGrid, sample_gp_field
from fieldcover.geometry import Environment
from fieldcover.gp import Hyperparameters

SRC = Path(__file__).resolve().parent.parent / "src"
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
    # 40 bytes per node of the 1,000,001^2-node draw, refused before any is built
    with pytest.raises(GramTooLargeError, match="truth draw on 1000001 x 1000001 nodes at spacing 0.0001"):
        sample_gp_field(big, H, 1e-4, 0)
    # the byte budget, not a node count, decides: 201^2 = 40,401 nodes draw
    assert sample_gp_field(big, H, 0.5, 0).shape == (201, 201)


def test_deterministic_per_seed():
    a = sample_gp_field(ENV, H, 2.0, 7)
    b = sample_gp_field(ENV, H, 2.0, 7)
    c = sample_gp_field(ENV, H, 2.0, 8)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_draw_peaks_at_a_few_node_sized_arrays():
    env = Environment.rectangle((0, 0), (40.0, 40.0))
    node_array = 8 * 41**2  # one value per node: 13.4 kB
    # a first draw imports numpy.random, which tracemalloc would count
    sample_gp_field(ENV, H, 2.0, 0)
    tracemalloc.start()
    try:
        grid = sample_gp_field(env, H, 1.0, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.shape == (41, 41)
    # the normals, the two 41 x 41 axis covariances (a node array each
    # here), the product with L_x and the field: about five node arrays,
    # where a node covariance would be 1,681 of them
    assert peak <= 8 * node_array


PEAK_GROWTH = """
from fieldcover.fields import sample_gp_field
from fieldcover.geometry import Environment
from fieldcover.gp import Hyperparameters

def peak():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return 1024 * int(line.split()[1])

hyper = Hyperparameters(8.33, 12.87, 0.0361)
sample_gp_field(Environment.rectangle((0, 0), (8, 8)), hyper, 1.0, 0)
before = peak()
grid = sample_gp_field(Environment.rectangle((0, 0), (50, 50)), hyper, 1.0, 1)
print(peak() - before, grid.values.size)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_the_readme_draw_barely_raises_the_peak_resident_set():
    # in a fresh interpreter, after a small warm-up draw, so that only
    # the 51 x 51 draw itself can raise the high-water mark
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", PEAK_GROWTH], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    growth, n = int(out[0]), int(out[1])
    assert n == 51 * 51
    # the 2,601-node covariance alone would be 54.1 MB; the draw holds
    # two 51 x 51 matrices and a few node arrays (0.34 MB measured)
    assert growth < 2_000_000


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
