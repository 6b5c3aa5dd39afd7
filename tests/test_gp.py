from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldcover import gp
from fieldcover import (
    DegenerateDataError,
    Hyperparameters,
    HyperparameterGrid,
    MeasurementMultiset,
    Posterior,
    fit_hyperparameters,
    kernel_matrix,
    nlml,
    repeated_measurement_variance,
)

H1 = Hyperparameters(length_scale=1.0, signal_variance=1.0, noise_variance=0.1)

# Oracle values, frozen from independent hand derivations:
#   1x1 solve, one measurement at r=1:   1 - e^-1 / 1.1
#   scalar mean, y=2 at distance l:      2 e^-1/2 / 1.1
#   2x2 solve, y=1 at (+-1, 0), query 0: 2 e^-1/2 / (1.1 + e^-2)
#   nlml of one y=0 observation:         (ln 1.1 + ln 2pi) / 2
VAR_ONE_AT_R1 = 0.6655641443895979
MEAN_SCALAR = 1.1027830176593334
MEAN_TWO_POINT = 0.9819692968268601
NLML_ONE_ZERO = 0.9665936231068352


def variance_given(points, measurements: MeasurementMultiset, h: Hyperparameters) -> np.ndarray:
    sites, counts = measurements.distinct()
    return Posterior(sites, h, counts).variance(points)


def kernel(a, b, h: Hyperparameters) -> float:
    """Covariance between two points, from one-point sets."""
    return float(kernel_matrix([a], [b], h)[0, 0])


def posterior_mean(x, points, values, h: Hyperparameters) -> float:
    """Posterior mean at ``x``, with readings averaged per distinct site."""
    measured = MeasurementMultiset([(p, 1) for p in points])
    sites, counts = measured.distinct()
    return float(Posterior(sites, h, counts).mean([x], measured.site_means(values))[0])


finite_coord = st.floats(min_value=-50, max_value=50, allow_nan=False)
point = st.tuples(finite_coord, finite_coord)


def test_kernel_zero_distance_is_signal_variance():
    h = Hyperparameters(8.33, 12.87, 0.0361)
    assert kernel((3.0, 4.0), (3.0, 4.0), h) == 12.87


def test_kernel_at_one_length_scale():
    assert kernel((0.0, 0.0), (1.0, 0.0), H1) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_kernel_decays_monotonically():
    rs = np.linspace(0.0, 20.0, 200)
    vals = [kernel((0.0, 0.0), (r, 0.0), H1) for r in rs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-80


@given(a=point, b=point)
def test_kernel_symmetric_and_bounded(a, b):
    h = Hyperparameters(2.0, 3.0, 0.5)
    kab = kernel(a, b, h)
    assert kab == kernel(b, a, h)
    assert 0.0 <= kab <= h.signal_variance


@given(st.lists(point, min_size=1, max_size=12))
def test_kernel_matrix_is_positive_semidefinite(pts):
    gram = kernel_matrix(pts, pts, H1)
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-8


def test_posterior_variance_empty_is_prior():
    assert variance_given([(0.0, 0.0)], MeasurementMultiset(()), H1)[0] == 1.0


def test_posterior_variance_single_measurement_oracle():
    m = MeasurementMultiset((((0.0, 0.0), 1),))
    v = variance_given([(1.0, 0.0)], m, H1)[0]
    assert v == pytest.approx(VAR_ONE_AT_R1, rel=1e-12)


def test_posterior_variance_matches_closed_form_for_colocated():
    rng = np.random.default_rng(42)
    for _ in range(25):
        l = rng.uniform(0.5, 10.0)
        s2 = rng.uniform(0.2, 20.0)
        w2 = rng.uniform(1e-3, 2.0)
        h = Hyperparameters(l, s2, w2)
        n = int(rng.integers(1, 50))
        r = rng.uniform(0.0, 3.0 * l)
        site = tuple(rng.uniform(-5, 5, size=2))
        angle = rng.uniform(0, 2 * math.pi)
        x = (site[0] + r * math.cos(angle), site[1] + r * math.sin(angle))
        dense = variance_given([x], MeasurementMultiset(((site, n),)), h)[0]
        closed = repeated_measurement_variance(r, n, h)
        assert dense == pytest.approx(closed, rel=1e-9)


@given(
    n=st.integers(min_value=1, max_value=200),
    r=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
def test_more_measurements_never_increase_variance(n, r):
    a = repeated_measurement_variance(r, n, H1)
    b = repeated_measurement_variance(r, n + 1, H1)
    assert b <= a + 1e-15


@given(
    r=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    dr=st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
)
def test_variance_grows_with_distance(r, dr):
    # Strict on a range where the correlation is still representable;
    # beyond a few length scales the closed form saturates in float64.
    assert repeated_measurement_variance(r + dr, 3, H1) > repeated_measurement_variance(r, 3, H1)


def test_repeated_variance_large_count_limit():
    v = repeated_measurement_variance(1.0, 10**6, H1)
    assert v == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)


def test_repeated_variance_at_site_vanishes_with_count():
    assert repeated_measurement_variance(0.0, 10**9, H1) < 1e-9


def test_extra_measurement_never_hurts_elsewhere():
    # Adding any measurement can only shrink the variance at every point.
    rng = np.random.default_rng(7)
    base_pts = rng.uniform(-3, 3, size=(6, 2))
    extra = rng.uniform(-3, 3, size=2)
    queries = rng.uniform(-4, 4, size=(40, 2))
    before = Posterior(base_pts, H1).variance(queries)
    grown = np.vstack([base_pts, extra])
    after = Posterior(grown, H1).variance(queries)
    assert np.all(after <= before + 1e-12)


def test_posterior_mean_empty_is_zero():
    assert posterior_mean((2.0, 3.0), [], [], H1) == 0.0


def test_posterior_mean_interpolates_at_low_noise():
    h = Hyperparameters(1.0, 1.0, 1e-12)
    assert posterior_mean((0.5, -0.25), [(0.5, -0.25)], [3.7], h) == pytest.approx(3.7, abs=1e-6)


def test_posterior_mean_scalar_oracle():
    assert posterior_mean((0.0, 0.0), [(1.0, 0.0)], [2.0], H1) == pytest.approx(MEAN_SCALAR, rel=1e-12)


def test_posterior_mean_two_point_oracle():
    # Symmetric pair; the correct answer needs the off-diagonal Gram entry.
    pts = [(-1.0, 0.0), (1.0, 0.0)]
    assert posterior_mean((0.0, 0.0), pts, [1.0, 1.0], H1) == pytest.approx(MEAN_TWO_POINT, rel=1e-12)


def test_posterior_mean_linear_in_values():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2, 2, size=(8, 2))
    y = rng.normal(size=8)
    q = (0.3, -1.2)
    assert posterior_mean(q, pts, 3.0 * y, H1) == pytest.approx(3.0 * posterior_mean(q, pts, y, H1), rel=1e-9)


def test_posterior_mean_requires_values():
    # a site without its reading is refused, at averaging and at the solve
    measured = MeasurementMultiset((((1.0, 1.0), 1),))
    sites, counts = measured.distinct()
    with pytest.raises(ValueError):
        measured.site_means([])
    with pytest.raises(ValueError):
        Posterior(sites, H1, counts).mean([(0.0, 0.0)], [])


@pytest.mark.parametrize("shape", [(4, 3), (4, 1), (3,), (2, 3, 1)])
def test_points_whose_last_axis_is_not_two_coordinates_are_refused(shape):
    # (4, 3) would otherwise be re-sliced into 6 points
    bad = np.zeros(shape)
    post = Posterior([(0.0, 0.0), (1.0, 1.0)], H1)
    reads = [
        lambda: post.variance(bad),
        lambda: post.mean(bad, np.ones(2)),
        lambda: post.mean_and_variance(bad, np.ones(2)),
        lambda: post.prefix_mean_and_variance(bad, np.ones(2), [1]),
        lambda: Posterior(bad, H1),
    ]
    for read in reads:
        with pytest.raises(ValueError, match=rf"last axis of 2 coordinates, got shape \({shape[0]},"):
            read()


def test_posterior_object_matches_function_route():
    rng = np.random.default_rng(3)
    design = rng.uniform(-4, 4, size=(30, 2))
    queries = rng.uniform(-4, 4, size=(17, 2))
    post = Posterior(design, H1)
    via_obj = post.variance(queries)
    via_fn = variance_given(queries, MeasurementMultiset([(p, 1) for p in design]), H1)
    np.testing.assert_allclose(via_obj, via_fn, rtol=1e-12)


def test_posterior_mean_many_columns():
    rng = np.random.default_rng(5)
    design = rng.uniform(-2, 2, size=(12, 2))
    queries = rng.uniform(-2, 2, size=(9, 2))
    cols = rng.normal(size=(12, 4))
    post = Posterior(design, H1)
    batched = post.mean_many(queries, cols)
    for j in range(4):
        np.testing.assert_allclose(batched[:, j], post.mean(queries, cols[:, j]), rtol=1e-10)


def test_nlml_single_zero_observation_oracle():
    val = nlml([(4.0, -2.0)], [0.0], H1)
    assert val == pytest.approx(NLML_ONE_ZERO, rel=1e-12)


def test_nlml_grows_when_data_duplicated():
    pts, y = [(0.0, 0.0), (2.0, 1.0)], [1.3, -0.4]
    assert nlml(pts + pts, y + y, H1) > nlml(pts, y, H1)


def test_nlml_rejects_empty_and_unvalued():
    with pytest.raises(ValueError):
        nlml(np.empty((0, 2)), np.empty(0), H1)
    with pytest.raises(ValueError):
        nlml([(0.0, 0.0)], [], H1)


def _sample_field(rng, pts, h):
    gram = kernel_matrix(pts, pts, h)
    gram[np.diag_indices_from(gram)] += 1e-10
    chol = np.linalg.cholesky(gram)
    field = chol @ rng.normal(size=pts.shape[0])
    return field + rng.normal(scale=math.sqrt(h.noise_variance), size=pts.shape[0])


def test_fit_recovers_length_scale_within_factor():
    true = Hyperparameters(5.0, 2.0, 0.05)
    xs = np.linspace(0.0, 28.0, 15)
    pts = np.array([(x, y) for x in xs for y in xs])
    rng = np.random.default_rng(2024)
    y = _sample_field(rng, pts, true)
    grid = HyperparameterGrid(
        length_scales=(1.0, 2.5, 5.0, 10.0, 20.0),
        signal_variances=(0.5, 2.0, 8.0),
        noise_variances=(0.0125, 0.05, 0.2),
    )
    fitted, _ = fit_hyperparameters(pts, y, grid)
    assert 5.0 / 1.5 <= fitted.length_scale <= 5.0 * 1.5


def test_fit_single_point_grid_is_forced():
    grid = HyperparameterGrid((2.0,), (3.0,), (0.25,))
    fitted, value = fit_hyperparameters([(0.0, 0.0), (1.0, 1.0)], [1.0, -1.0], grid)
    assert fitted == Hyperparameters(2.0, 3.0, 0.25)
    assert value.hex() == nlml([(0.0, 0.0), (1.0, 1.0)], [1.0, -1.0], fitted).hex()


def test_fit_rejects_degenerate_data():
    grid = HyperparameterGrid((1.0,), (1.0,), (0.1,))
    with pytest.raises(DegenerateDataError):
        fit_hyperparameters(np.empty((0, 2)), np.empty(0), grid)
    with pytest.raises(DegenerateDataError):
        fit_hyperparameters([(1.0, 1.0), (1.0, 1.0)], [0.3, 0.5], grid)
    # exactly equal coordinates are one location, signed zeros too
    with pytest.raises(DegenerateDataError, match="got 1"):
        fit_hyperparameters([(0.0, 1.0), (-0.0, 1.0)], [0.3, 0.5], grid)


def test_hyperparameters_reject_nonpositive():
    with pytest.raises(ValueError):
        Hyperparameters(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        Hyperparameters(1.0, -2.0, 0.1)
    with pytest.raises(ValueError):
        Hyperparameters(1.0, 1.0, float("nan"))


def test_multiset_validation():
    with pytest.raises(ValueError):
        MeasurementMultiset((((0.0, 0.0), 0),))
    m = MeasurementMultiset((((0.0, 0.0), 2), ((1.0, 0.0), 3)))
    assert m.total == 5
    sites, counts = m.distinct()
    assert sites.shape == (2, 2)
    assert counts.tolist() == [2, 3]


@pytest.mark.parametrize("fit", [False, True])
def test_dataset_rejects_nonfinite_and_misshapen(fit):
    grid = HyperparameterGrid((1.0,), (1.0,), (0.1,))

    def score(points, values):
        return fit_hyperparameters(points, values, grid) if fit else nlml(points, values, H1)

    pts = [(0.0, 0.0), (1.0, 2.0)]
    for points, values in (
        ([(float("inf"), 0.0), (1.0, 2.0)], [0.0, 1.0]),
        (pts, [0.0, float("nan")]),
        (pts, [0.0, 1.0, 2.0]),
        ([0.0, 1.0], [0.0, 1.0]),
        ([(0.0, 0.0, 0.0), (1.0, 2.0, 0.0)], [0.0, 1.0]),
    ):
        with pytest.raises(ValueError, match="finite|shapes"):
            score(points, values)


@settings(max_examples=25)
@given(
    w2a=st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
    bump=st.floats(min_value=1e-3, max_value=5.0, allow_nan=False),
)
def test_noisier_sensors_leave_more_variance(w2a, bump):
    m = MeasurementMultiset((((0.0, 0.0), 1), ((1.0, 1.0), 1)))
    lo = variance_given([(0.5, 0.5)], m, Hyperparameters(1.0, 1.0, w2a))[0]
    hi = variance_given([(0.5, 0.5)], m, Hyperparameters(1.0, 1.0, w2a + bump))[0]
    assert hi >= lo - 1e-12


def test_mean_and_variance_columns_match_single_queries_bitwise():
    rng = np.random.default_rng(6)
    design = rng.uniform(-2, 2, size=(12, 2))
    queries = rng.uniform(-2, 2, size=(9, 2))
    cols = rng.normal(size=(12, 4))
    post = Posterior(design, H1)
    means, variances = post.mean_and_variance(queries, cols)
    assert means.shape == (9, 4)
    np.testing.assert_array_equal(variances, post.variance(queries))
    for j in range(4):
        np.testing.assert_array_equal(means[:, j], post.mean(queries, cols[:, j]))
        assert means[:, j].flags.c_contiguous
    single, _ = post.mean_and_variance(queries, cols[:, 1])
    np.testing.assert_array_equal(single, means[:, 1])
    empty_means, empty_var = Posterior(np.empty((0, 2)), H1).mean_and_variance(queries, np.empty((0, 4)))
    np.testing.assert_array_equal(empty_means, np.zeros((9, 4)))
    np.testing.assert_array_equal(empty_var, np.full(9, H1.signal_variance))


@pytest.mark.parametrize(
    "query",
    [
        lambda post, pts, y: post.variance(pts),
        lambda post, pts, y: post.mean(pts, y),
        lambda post, pts, y: post.mean_and_variance(pts, y),
        lambda post, pts, y: post.prefix_mean_and_variance(pts, y, [0, 50, 200]),
    ],
    ids=["variance", "mean", "mean_and_variance", "prefix_mean_and_variance"],
)
def test_queries_hold_one_panel_at_a_time(query):
    # 3,000 points over 600 sites: five 2.5 MB panels and a short one,
    # where the whole read's cross-covariances would take 14.4 MB
    rng = np.random.default_rng(5)
    post = Posterior(rng.uniform(0, 60, size=(600, 2)), Hyperparameters(8.33, 12.87, 0.0361))
    y = rng.normal(size=post.size)
    pts = rng.uniform(0, 60, size=(3000, 2))
    panel = 8 * post.size * gp._PANEL_POINTS
    tracemalloc.start()
    try:
        query(post, pts, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * panel


@pytest.mark.parametrize(
    "seed, sites, points",
    [
        (0, 7, 40),  # one short panel
        (1, 200, 3000),  # five panels and a short one of 440
        (2, 1500, 2000),  # three panels and a short one of 464
        (3, 1500, 1100),  # two panels and a short one of 76
    ],
)
def test_every_query_reads_the_same_variance_bits_across_panels(seed, sites, points):
    # at 1,500 sites a multiply's blocking may follow the panel width, so
    # every query must cut its panels at the same points
    rng = np.random.default_rng(seed)
    h = Hyperparameters(8.33, 12.87, 0.0361)
    post = Posterior(rng.uniform(0, 60, size=(sites, 2)), h, rng.integers(1, 4, sites))
    pts = rng.uniform(-5, 65, size=(points, 2))
    assert points % gp._PANEL_POINTS
    variances = post.variance(pts)
    _, joint = post.mean_and_variance(pts, rng.normal(size=(sites, 2)))
    _, prefix = post.prefix_mean_and_variance(pts, rng.normal(size=sites), [sites])
    assert np.array_equal(joint, variances)
    assert np.array_equal(prefix[0], variances)
