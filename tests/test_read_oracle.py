"""``Posterior``'s one panel read against the loops it replaced.

Every query now goes through one loop over panels of query points, and
every mean is b . V with b = M y and V = M K(sites, points), M the
inverse of the Cholesky factor L. Before, each query had a loop of its
own, variances came from substitution with L, and ``mean``,
``mean_many`` and ``mean_and_variance`` took weights
(K + diag(w2 / counts))^-1 y from ``cho_solve`` and multiplied them into
K(points, sites). The copies below are those loops, over a factor L
built as ``Posterior`` built it, reading the points in chunks of a fixed
size of their own. Variances move at rounding level from the
substitution's, within the panel tolerance; means move at rounding level
only. Panels are kept small, so that every query crosses panel
boundaries and ends on a short panel.

Where a panel is exactly a reference chunk, the variances are the
chunk multiply's bit for bit; across other panel widths they may move
at rounding level.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf

import fieldcover.gp as gp
from fieldcover.gp import Hyperparameters, Posterior, kernel_matrix


# query points per reference chunk
CHUNK = 100


def reference_chunks(post: Posterior, pts: np.ndarray):
    for start in range(0, pts.shape[0], CHUNK):
        yield slice(start, start + CHUNK), kernel_matrix(pts[start : start + CHUNK], post.design, post.hyper)


def reference_factor(post: Posterior, counts) -> np.ndarray:
    """The Cholesky factor L of ``post``'s Gram matrix, as ``Posterior`` factors it."""
    gram = kernel_matrix(post.design, post.design, post.hyper)
    gram[np.diag_indices_from(gram)] += post.hyper.noise_variance / np.asarray(counts)
    lower, info = dpotrf(gram.T, lower=1, overwrite_a=1, clean=0)
    assert info == 0
    return lower


def reference_variance(post: Posterior, counts, pts: np.ndarray) -> np.ndarray:
    lower = reference_factor(post, counts)
    out = np.empty(pts.shape[0])
    for rows, kbx in reference_chunks(post, pts):
        v = solve_triangular(lower, kbx.T, lower=True, overwrite_b=True, check_finite=False)
        out[rows] = post.hyper.signal_variance - np.einsum("ij,ij->j", v, v)
    return np.maximum(out, 0.0)


def multiply_variance(post: Posterior, pts: np.ndarray) -> np.ndarray:
    """``reference_variance`` with each chunk multiplied by ``Posterior``'s inverse factor."""
    out = np.empty(pts.shape[0])
    for rows, kbx in reference_chunks(post, pts):
        v = dtrmm(1.0, post._inverse, kbx.T, lower=1, overwrite_b=1)
        out[rows] = post.hyper.signal_variance - np.einsum("ij,ij->j", v, v)
    return np.maximum(out, 0.0)


def reference_mean(post: Posterior, counts, pts: np.ndarray, values) -> np.ndarray:
    lower = reference_factor(post, counts)
    alpha = cho_solve((lower, True), np.asarray(values, dtype=float), check_finite=False)
    out = np.empty((pts.shape[0],) + alpha.shape[1:])
    for rows, kbx in reference_chunks(post, pts):
        out[rows] = kbx @ alpha
    return out


def seeded_case(seed: int):
    rng = np.random.default_rng(seed)
    h = Hyperparameters(*rng.uniform((0.8, 0.5, 0.01), (3.0, 4.0, 0.5)))
    size = int(rng.integers(1, 80))
    sites = rng.uniform(-5.0, 5.0, size=(size, 2))
    counts = rng.integers(1, 5, size=size)
    post = Posterior(sites, h, counts)
    pts = rng.uniform(-6.0, 6.0, size=(int(rng.integers(40, 120)), 2))
    return rng, post, counts, pts


def assert_means_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def assert_variances_close(post, got, want):
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * post.hyper.signal_variance)


@pytest.mark.parametrize("seed", range(8))
def test_read_matches_the_replaced_loops(seed, monkeypatch):
    rng, post, counts, pts = seeded_case(seed)
    # panels of 7 query points, the last one short unless 7 divides the count
    monkeypatch.setattr(gp, "_PANEL_POINTS", 7)
    y = rng.normal(size=post.size)
    columns = rng.normal(size=(post.size, 3))
    variances = post.variance(pts)

    assert_variances_close(post, variances, reference_variance(post, counts, pts))
    assert_means_close(post.mean(pts, y), reference_mean(post, counts, pts, y))
    assert_means_close(post.mean_many(pts, columns), reference_mean(post, counts, pts, columns))
    means, var = post.mean_and_variance(pts, columns)
    assert np.array_equal(var, variances)
    assert_means_close(means, reference_mean(post, counts, pts, columns))

    prefix_means, prefix_var = post.prefix_mean_and_variance(pts, y, [post.size])
    assert np.array_equal(prefix_var[0], variances)
    mean, var = post.mean_and_variance(pts, y)
    assert np.array_equal(prefix_means[0], mean)
    assert np.array_equal(prefix_var[0], var)


def panel_case(seed: int, size: int | None = None):
    rng = np.random.default_rng([seed, 1])
    h = Hyperparameters(*rng.uniform((0.8, 0.5, 0.01), (3.0, 4.0, 0.5)))
    size = size or int(rng.integers(7, 400))
    half = 8.0 * max(1.0, (size / 400) ** 0.5)
    sites = rng.uniform(-half, half, size=(size, 2))
    counts = rng.integers(1, 5, size=size)
    post = Posterior(sites, h, counts)
    return post, counts, rng.uniform(-half - 1.0, half + 1.0, size=(int(rng.integers(300, 700)), 2))


# at 1,500 sites a few variances may move between panel sizes, by about
# 1e-15 s2: rounding, as the tolerance allows
@pytest.mark.parametrize("seed, size", [(seed, None) for seed in range(6)] + [(7, 1500), (12, 1500)])
def test_panel_solves_match_the_chunk_solves(seed, size, monkeypatch):
    # panels of 64 points, against chunks of 100
    post, counts, pts = panel_case(seed, size)
    monkeypatch.setattr(gp, "_PANEL_POINTS", 64)
    got = post.variance(pts)
    assert_variances_close(post, got, multiply_variance(post, pts))
    assert_variances_close(post, got, reference_variance(post, counts, pts))


@pytest.mark.parametrize("seed", range(6))
def test_panels_as_wide_as_the_chunks_are_the_chunk_solves_bit_for_bit(seed, monkeypatch):
    post, _, pts = panel_case(seed)
    monkeypatch.setattr(gp, "_PANEL_POINTS", CHUNK)
    assert np.array_equal(post.variance(pts), multiply_variance(post, pts))


def extended_variance(post: Posterior, pts: np.ndarray) -> np.ndarray:
    """Posterior variance by Cholesky and forward substitution in ``np.longdouble``.

    The Gram matrix and the cross-covariances are ``Posterior``'s own
    float64 ones, so only the factor and the read are extended.
    """
    ld = np.longdouble
    gram = kernel_matrix(post.design, post.design, post.hyper)
    gram[np.diag_indices_from(gram)] += post.hyper.noise_variance
    gram = gram.astype(ld)
    lower = np.zeros_like(gram)
    for j in range(post.size):
        lower[j, j] = np.sqrt(gram[j, j] - lower[j, :j] @ lower[j, :j])
        lower[j + 1 :, j] = (gram[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    v = kernel_matrix(pts, post.design, post.hyper).T.astype(ld)
    for i in range(post.size):
        v[i] = (v[i] - lower[i, :i] @ v[:i]) / lower[i, i]
    return ld(post.hyper.signal_variance) - (v * v).sum(axis=0)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="longdouble is float64 here")
@pytest.mark.parametrize("noise", [1 / 3, 0.0361, 1e-4, 1e-8])
def test_read_is_as_accurate_as_substitution_in_extended_precision(noise):
    # 60 sites and a twin of each 0.05 away, so the Gram matrix is as
    # ill-conditioned as the noise lets it be
    rng = np.random.default_rng(25)
    h = Hyperparameters(1.5, 2.0, noise)
    base = rng.uniform(0.0, 8.0, size=(60, 2))
    turn = rng.uniform(0.0, 2.0 * np.pi, size=60)
    sites = np.concatenate([base, base + 0.05 * np.column_stack([np.cos(turn), np.sin(turn)])])
    post = Posterior(sites, h)
    pts = np.concatenate([rng.uniform(-1.0, 9.0, size=(300, 2)), sites[::7] + 0.01])
    exact = extended_variance(post, pts)
    read = np.abs(post.variance(pts) - exact).max()
    substitution = np.abs(reference_variance(post, np.ones(post.size), pts) - exact).max()
    assert read <= 4.0 * substitution + 1e-15 * h.signal_variance
