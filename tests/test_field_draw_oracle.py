"""The synthetic field's draw against the dense routes it replaced.

``sample_gp_field`` factors the node covariance in place with LAPACK's
``dpotrf`` and multiplies by the lower triangle alone. The references
are the draw it used to make, ``np.linalg.cholesky(cov) @ z``, and its
eigendecomposition fallback. In exact arithmetic the Cholesky routes
give the same field; they differ only by rounding, which stays far
below 1e-3 standard deviations. Drawing from the wrong stream, reading
the wrong triangle or applying the transposed factor moves the field
by about one standard deviation. The fallback must rebuild the
covariance that the failed factorization overwrote, so it is pinned
bit for bit.

The covariance is built from per-axis tables of squared differences,
and only the triangle that ``dpotrf`` reads is filled. The references
build it as it used to be built, from scipy's ``cdist`` over every
node pair, and the in-place ``dpotrf`` route over that matrix must give
the draw bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg.blas import dtrmv
from scipy.linalg.lapack import dpotrf
from scipy.spatial.distance import cdist

from fieldcover import fields
from fieldcover.fields import sample_gp_field
from fieldcover.geometry import Environment
from fieldcover.gp import Hyperparameters


def reference_covariance(field, hyper: Hyperparameters, seed: int):
    """The draw's standard normals and the jittered covariance of ``field``'s nodes."""
    pts = field.points()
    cov = cdist(pts, pts, "sqeuclidean")
    np.negative(cov, out=cov)
    np.divide(cov, 2.0 * hyper.length_scale**2, out=cov)
    np.exp(cov, out=cov)
    np.multiply(hyper.signal_variance, cov, out=cov)
    cov[np.diag_indices_from(cov)] += 1e-10 * hyper.signal_variance
    return np.random.default_rng([seed, 0]).standard_normal(pts.shape[0]), cov


def reference_lapack_draw(field, hyper: Hyperparameters, seed: int) -> np.ndarray:
    """The in-place ``dpotrf`` draw over the whole cdist-built covariance."""
    z, cov = reference_covariance(field, hyper, seed)
    lower, info = dpotrf(cov.T, lower=1, overwrite_a=1, clean=0)
    assert info == 0
    return dtrmv(lower, z, lower=1).reshape(field.shape)


def reference_cholesky_draw(field, hyper: Hyperparameters, seed: int) -> np.ndarray:
    z, cov = reference_covariance(field, hyper, seed)
    return (np.linalg.cholesky(cov) @ z).reshape(field.shape)


def reference_eigh_draw(field, hyper: Hyperparameters, seed: int) -> np.ndarray:
    z, cov = reference_covariance(field, hyper, seed)
    w, vecs = np.linalg.eigh(cov)
    return (vecs @ (np.sqrt(np.clip(w, 0.0, None)) * z)).reshape(field.shape)


def rect(x0, y0, x1, y1) -> Environment:
    return Environment.rectangle((x0, y0), (x1, y1))


H_BOXES = Hyperparameters(1.5, 1.0, 0.2)


# the field configurations the other test modules draw, the criterion 08
# study's box, a near-zero prior, and the 51 x 51 grid of the README's
# hyperparameters
CONFIGS = [
    (rect(0, 0, 8, 8), Hyperparameters(2.0, 1.5, 0.1), 2.0, 11),
    (rect(0, 0, 10, 10), Hyperparameters(2.0, 1.5, 0.1), 3.0, 1),
    (rect(0, 0, 8, 8), Hyperparameters(2.0, 1e-12, 0.1), 2.0, 3),
    (rect(-1, -1, 7, 7), Hyperparameters(2.0, 1.5, 0.4), 0.5, 6),
    (rect(0, 0, 3, 1), Hyperparameters(1.0, 1.0, 0.1), 0.5, 8),
    (rect(0, 0, 4, 4), Hyperparameters(1.5, 1.0, 0.2), 1.0, 5),
    (rect(0, 0, 6, 6), Hyperparameters(1.5, 1.0, 0.2), 0.5, 1),
    (rect(-2, -2, 26, 26), Hyperparameters(6.0, 4.0, 0.25), 1.0, 0),
    (rect(0, 0, 50, 50), Hyperparameters(8.33, 12.87, 0.0361), 1.0, 1),
    (rect(1e5, -3, 1e5 + 20, 5), Hyperparameters(3.0, 2.0, 0.1), 0.5, 4),
]


@pytest.mark.parametrize("env, hyper, spacing, seed", CONFIGS)
def test_draw_matches_dense_cholesky(env, hyper, spacing, seed):
    field = sample_gp_field(env, hyper, spacing, seed)
    want = reference_cholesky_draw(field, hyper, seed)
    assert np.abs(field.values - want).max() <= 1e-3 * math.sqrt(hyper.signal_variance)


@pytest.mark.parametrize("env, hyper, spacing, seed", CONFIGS)
def test_draw_is_the_cdist_covariance_draw_bit_for_bit(env, hyper, spacing, seed):
    field = sample_gp_field(env, hyper, spacing, seed)
    assert field.values.tobytes() == reference_lapack_draw(field, hyper, seed).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 99])
def test_draws_of_non_square_boxes_are_the_cdist_draws_for_every_seed(seed):
    for env, spacing in ((rect(0, 0, 9, 3), 0.5), (rect(-2.5, 1, 2, 12), 0.75)):
        field = sample_gp_field(env, H_BOXES, spacing, seed)
        assert field.shape[0] != field.shape[1]
        assert field.values.tobytes() == reference_lapack_draw(field, H_BOXES, seed).tobytes()


def test_failed_factorization_falls_back_to_eigh_on_a_fresh_covariance(monkeypatch):
    real = fields.dpotrf
    calls = []

    def failing(a, **kwargs):
        # factor (and so overwrite) the matrix as LAPACK would, then
        # report a non-positive pivot
        calls.append(a.shape)
        factor, _ = real(a, **kwargs)
        return factor, 1

    monkeypatch.setattr(fields, "dpotrf", failing)
    for env, hyper, spacing, seed in (CONFIGS[0], CONFIGS[3]):
        field = sample_gp_field(env, hyper, spacing, seed)
        want = reference_eigh_draw(field, hyper, seed)
        assert field.values.tobytes() == want.tobytes()
    assert len(calls) == 2
