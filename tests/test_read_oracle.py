"""``Posterior``'s one chunked read against the loops it replaced.

Every query now goes through one loop over the cross-covariance chunks,
and every mean is b . V with b = L^-1 y and V = L^-1 K(sites, points).
Before, each query had a loop of its own, and ``mean``, ``mean_many``
and ``mean_and_variance`` took weights (K + diag(w2 / counts))^-1 y from
``cho_solve`` and multiplied them into K(points, sites). The copies
below are those loops. Variances must stay bit for bit what they were;
means move at rounding level only. Chunks are kept small, so that every
query crosses chunk boundaries and ends on a short chunk.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

import fieldcover.gp as gp
from fieldcover.gp import Hyperparameters, Posterior, kernel_matrix


def reference_chunks(post: Posterior, pts: np.ndarray):
    step = max(1, gp._CHUNK_BYTES // (8 * post.size))
    for start in range(0, pts.shape[0], step):
        yield slice(start, start + step), kernel_matrix(pts[start : start + step], post.design, post.hyper)


def reference_variance(post: Posterior, pts: np.ndarray) -> np.ndarray:
    out = np.empty(pts.shape[0])
    for rows, kbx in reference_chunks(post, pts):
        v = solve_triangular(post._factor, kbx.T, lower=True, overwrite_b=True, check_finite=False)
        out[rows] = post.hyper.signal_variance - np.einsum("ij,ij->j", v, v)
    return np.maximum(out, 0.0)


def reference_mean(post: Posterior, pts: np.ndarray, values) -> np.ndarray:
    alpha = cho_solve((post._factor, True), np.asarray(values, dtype=float), check_finite=False)
    out = np.empty((pts.shape[0],) + alpha.shape[1:])
    for rows, kbx in reference_chunks(post, pts):
        out[rows] = kbx @ alpha
    return out


def seeded_case(seed: int):
    rng = np.random.default_rng(seed)
    h = Hyperparameters(*rng.uniform((0.8, 0.5, 0.01), (3.0, 4.0, 0.5)))
    size = int(rng.integers(1, 80))
    sites = rng.uniform(-5.0, 5.0, size=(size, 2))
    post = Posterior(sites, h, rng.integers(1, 5, size=size))
    pts = rng.uniform(-6.0, 6.0, size=(int(rng.integers(40, 120)), 2))
    return rng, post, pts


def assert_means_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("seed", range(8))
def test_read_matches_the_replaced_loops(seed, monkeypatch):
    rng, post, pts = seeded_case(seed)
    # chunks of 7 query points, the last one short unless 7 divides the count
    monkeypatch.setattr(gp, "_CHUNK_BYTES", 8 * post.size * 7)
    y = rng.normal(size=post.size)
    columns = rng.normal(size=(post.size, 3))
    variances = reference_variance(post, pts)

    assert np.array_equal(post.variance(pts), variances)
    assert_means_close(post.mean(pts, y), reference_mean(post, pts, y))
    assert_means_close(post.mean_many(pts, columns), reference_mean(post, pts, columns))
    means, var = post.mean_and_variance(pts, columns)
    assert np.array_equal(var, variances)
    assert_means_close(means, reference_mean(post, pts, columns))

    prefix_means, prefix_var = post.prefix_mean_and_variance(pts, y, [post.size])
    assert np.array_equal(prefix_var[0], variances)
    mean, var = post.mean_and_variance(pts, y)
    assert np.array_equal(prefix_means[0], mean)
    assert np.array_equal(prefix_var[0], var)
