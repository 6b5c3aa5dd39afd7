"""The synthetic field's draw against the dense node covariance.

``sample_gp_field`` factors one covariance per grid axis with LAPACK's
``dpotrf`` and draws L_x Z L_y^T, which is (L_x (x) L_y) z for the
normals z of stream [seed, 0] laid out x-major as Z. Three checks pin
it: each axis factor is lower triangular and L L^T is its jittered axis
covariance from ``cdist`` up to rounding, on every box below plus a
1e5 offset and a spacing that divides neither side; the Kronecker
product of the per-axis covariances L L^T is the jittered node
covariance built from ``cdist`` over every node pair, up to the
per-axis jitter (1e-10 * s2); and the field is the dense Kronecker
factor times z, up to rounding. A transposed factor, normals
laid out y-major or another stream move the field by about one
standard deviation, so each of those must fail.

The reference cannot be a dense Cholesky draw of the node covariance:
``np.linalg.cholesky`` of the Kronecker covariance fails on half of
these grids, whose 1e-10 jitter leaves them numerically singular.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from fieldcover import fields
from fieldcover.errors import NumericalError
from fieldcover.fields import sample_gp_field
from fieldcover.geometry import Environment
from fieldcover.gp import Hyperparameters


def reference_covariance(field, hyper: Hyperparameters) -> np.ndarray:
    """The jittered covariance of ``field``'s nodes, from every node pair."""
    pts = field.points()
    cov = cdist(pts, pts, "sqeuclidean")
    np.negative(cov, out=cov)
    np.divide(cov, 2.0 * hyper.length_scale**2, out=cov)
    np.exp(cov, out=cov)
    np.multiply(hyper.signal_variance, cov, out=cov)
    cov[np.diag_indices_from(cov)] += 1e-10 * hyper.signal_variance
    return cov


def stream(seed: int, size: int, key: int = 0) -> np.ndarray:
    return np.random.default_rng([seed, key]).standard_normal(size)


def axis_nodes(lo: float, hi: float, spacing: float) -> np.ndarray:
    """The truth draw's nodes along one axis."""
    return lo + spacing * np.arange(fields._axis_count(lo, hi, spacing))


def axis_factors(env: Environment, hyper: Hyperparameters, spacing: float):
    x0, y0, x1, y1 = env.bounds
    xs = axis_nodes(x0, x1, spacing)
    ys = axis_nodes(y0, y1, spacing)
    return (
        fields._axis_factor(xs, hyper.signal_variance, hyper.length_scale),
        fields._axis_factor(ys, 1.0, hyper.length_scale),
    )


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
# boxes whose axes have different node counts (19 x 7 and 7 x 16)
BOXES = [(rect(0, 0, 9, 3), H_BOXES, 0.5), (rect(-2.5, 1, 2, 12), H_BOXES, 0.75)]
CASES = CONFIGS + [(env, hyper, spacing, seed) for env, hyper, spacing in BOXES for seed in (0, 1, 2, 3, 99)]


# every box above, one offset by 1e5 whose 61 x nodes differ by
# multiples of 0.1, and a spacing that does not divide either side
AXIS_CASES = [c[:3] for c in CONFIGS] + BOXES + [
    (rect(1e5, 1e5, 1e5 + 6, 1e5 + 2), Hyperparameters(0.5, 2.0, 0.1), 0.1),
    (rect(0, 0, 7.3, 5.1), H_BOXES, 0.7),
]


@pytest.mark.parametrize("env, hyper, spacing", AXIS_CASES)
@pytest.mark.parametrize("axis", ["x", "y"])
def test_axis_factor_is_a_cholesky_factor_of_the_cdist_axis_covariance(env, hyper, spacing, axis):
    x0, y0, x1, y1 = env.bounds
    lo, hi, variance = (x0, x1, hyper.signal_variance) if axis == "x" else (y0, y1, 1.0)
    nodes = axis_nodes(lo, hi, spacing)
    given = nodes.copy()
    lower = fields._axis_factor(nodes, variance, hyper.length_scale)
    assert np.array_equal(nodes, given)
    assert lower.shape == (nodes.size, nodes.size)
    assert not np.triu(lower, 1).any()
    assert np.all(np.diag(lower) > 0.0)
    column = nodes[:, None]
    cov = variance * np.exp(-cdist(column, column, "sqeuclidean") / (2.0 * hyper.length_scale**2))
    cov[np.diag_indices_from(cov)] += 1e-10 * variance
    # measured up to 4.4e-16 * variance, on the 61-node axis; a missing
    # jitter alone would be 1e-10 * variance
    assert np.abs(lower @ lower.T - cov).max() <= 1e-14 * variance


@pytest.mark.parametrize("env, hyper, spacing", [c[:3] for c in CONFIGS] + BOXES)
def test_axis_factors_give_the_cdist_node_covariance(env, hyper, spacing):
    lower_x, lower_y = axis_factors(env, hyper, spacing)
    field = sample_gp_field(env, hyper, spacing, 0)
    assert (lower_x.shape[0], lower_y.shape[0]) == field.shape
    kron = np.kron(lower_x @ lower_x.T, lower_y @ lower_y.T)
    # the product's diagonal carries 1e-10 * s2 more jitter, and each
    # off-diagonal entry up to 1e-10 * s2 times a correlation
    assert np.abs(kron - reference_covariance(field, hyper)).max() <= 3e-10 * hyper.signal_variance


@pytest.mark.parametrize("env, hyper, spacing, seed", CASES)
def test_draw_is_the_kronecker_factor_times_the_stream(env, hyper, spacing, seed):
    field = sample_gp_field(env, hyper, spacing, seed)
    nx, ny = field.shape
    factor = np.kron(*axis_factors(env, hyper, spacing))
    z = stream(seed, nx * ny)
    sd = math.sqrt(hyper.signal_variance)
    assert np.abs(field.values.ravel() - factor @ z).max() <= 1e-12 * sd
    wrong = {
        "transposed factor": factor.T @ z,
        "normals laid out y-major": factor @ z.reshape(ny, nx).T.ravel(),
        "the noise stream": factor @ stream(seed, nx * ny, key=1),
        "the next seed's stream": factor @ stream(seed + 1, nx * ny),
    }
    for name, values in wrong.items():
        assert np.abs(field.values.ravel() - values).max() > 0.5 * sd, name


def test_an_axis_that_does_not_factor_raises_numerical_error(monkeypatch):
    def failing(a, **kwargs):
        # a non-positive pivot
        return a, 1

    monkeypatch.setattr(fields, "dpotrf", failing)
    env, hyper, spacing, seed = CONFIGS[0]
    with pytest.raises(NumericalError, match="not positive definite"):
        sample_gp_field(env, hyper, spacing, seed)
