"""The lattice build of ``Posterior``'s read against the panel build.

Where the query points are a masked lattice in x-major order, the read
may build V = M K(sites, points) from per-axis kernel tables instead of
from K's panels (``gp._lattice_panels``). The two builds must give the
same means and variances to rounding, and the lattice build must keep
the panel build's guarantees: one block live at a time, and the same
variance bits whichever query asks. ``forced`` makes the cost rule take
the lattice build wherever the points and sites allow it, so small
cases reach it; ``panel_read`` switches the lattice build off.
"""

from __future__ import annotations

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf, dtrtri
from test_read_oracle import extended_variance, reference_variance

import fieldcover.gp as gp
from fieldcover.fields import FieldGrid
from fieldcover.geometry import Environment
from fieldcover.gp import Hyperparameters, Posterior, kernel_matrix


@pytest.fixture
def forced(monkeypatch):
    # the panel build priced so high that the rule always prefers the lattice
    monkeypatch.setattr(gp, "_ENTRY_FLOPS", 1e30)


@contextlib.contextmanager
def panel_build():
    with pytest.MonkeyPatch.context() as m:
        m.setattr(gp, "_lattice_layout", lambda design, pts: None)
        yield


def panel_read(post, pts, values, lengths):
    with panel_build():
        return post.prefix_mean_and_variance(pts, values, lengths)


def lattice(xs, ys, keep=None) -> np.ndarray:
    """The nodes of xs x ys in x-major order, those where ``keep`` holds."""
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return pts if keep is None else pts[np.asarray(keep).ravel()]


def assert_close_reads(post, got, want):
    (gm, gv), (wm, wv) = got, want
    s2 = post.hyper.signal_variance
    np.testing.assert_allclose(gv, wv, rtol=1e-13, atol=1e-13 * s2)
    np.testing.assert_allclose(gm, wm, rtol=1e-10, atol=1e-10)


H = Hyperparameters(1.7, 2.5, 0.08)
AXIS = np.linspace(-1.0, 9.0, 11)
L_SHAPE = np.ones((11, 9), dtype=bool)
L_SHAPE[6:, 5:] = False
SHAPES = {
    "rectangle": lattice(AXIS, np.linspace(0.0, 8.0, 9)),
    "L-shape": lattice(AXIS, np.linspace(0.0, 8.0, 9), L_SHAPE),
    "single row": lattice(AXIS, [3.0]),
    "single column": lattice([4.5], AXIS),
    "single point": lattice([2.0], [6.0]),
}
SITE_AXIS = np.linspace(0.0, 8.0, 5)
DESIGNS = {
    # a lattice of sites, some dropped, in a scrambled order
    "repeated ordinates": lattice(SITE_AXIS, SITE_AXIS)[[3, 17, 0, 22, 9, 11, 5, 24, 14, 1, 20, 7, 18]],
    "one distinct y": lattice(SITE_AXIS, [4.0]),
    "one distinct x": lattice([4.0], SITE_AXIS),
    "one site": np.array([[3.0, 3.0]]),
}


@pytest.mark.parametrize("design", list(DESIGNS))
@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("columns", [0, 1, 3])
def test_lattice_build_matches_the_panel_build(design, shape, columns, forced):
    rng = np.random.default_rng([list(DESIGNS).index(design), list(SHAPES).index(shape), columns])
    sites, pts = DESIGNS[design], SHAPES[shape]
    post = Posterior(sites, H, rng.integers(1, 4, size=len(sites)))
    assert gp._lattice_layout(post.design, pts) is not None
    values = rng.normal(size=(post.size, columns)) if columns != 1 else rng.normal(size=post.size)
    lengths = sorted({0, post.size // 2, post.size})
    got = post.prefix_mean_and_variance(pts, values, lengths)
    assert_close_reads(post, got, panel_read(post, pts, values, lengths))


def test_lattice_build_matches_the_panel_build_where_the_gram_matrix_is_nearly_constant(forced):
    # 25 sites 0.05 length scales apart: every Gram entry is within 5% of
    # s2, so M's columns would pick up large entries from any part of the
    # factor's strict upper triangle left standing
    h = Hyperparameters(2.0, 3.0, 0.05)
    sites = lattice(np.arange(5) * 0.1, np.arange(5) * 0.1)[::-1]
    post = Posterior(sites, h)
    gram = kernel_matrix(sites, sites, h)
    assert gram[np.triu_indices_from(gram, 1)].min() > 0.95 * h.signal_variance
    pts = lattice(np.linspace(-1.0, 1.5, 12), np.linspace(-1.0, 1.5, 10))
    assert gp._lattice_layout(post.design, pts) is not None
    values = np.random.default_rng(2).normal(size=(post.size, 2))
    got = post.prefix_mean_and_variance(pts, values, [0, 7, post.size])
    assert_close_reads(post, got, panel_read(post, pts, values, [0, 7, post.size]))
    want = reference_variance(post, np.ones(post.size), pts)
    np.testing.assert_allclose(got[1][-1], want, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("seed", range(4))
def test_factor_zeroes_its_upper_triangle_and_keeps_the_lower_bits(seed):
    rng = np.random.default_rng(seed)
    sites = rng.uniform(0.0, 6.0, size=(int(rng.integers(2, 90)), 2))
    counts = rng.integers(1, 5, size=len(sites))
    gram = kernel_matrix(sites, sites, H)
    gram[np.diag_indices_from(gram)] += H.noise_variance / counts
    dirty, info = dpotrf(gram, lower=1, clean=0)
    assert info == 0 and np.triu(dirty, 1).any()
    lower = gp._cholesky(sites, H, H.noise_variance / counts, "a test")
    assert np.array_equal(lower, np.tril(dirty))
    inverse, _ = dtrtri(dirty, lower=1)
    post = Posterior(sites, H, counts)
    assert np.array_equal(post._inverse, np.tril(inverse))


@pytest.mark.parametrize(
    "sites",
    [
        np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.5], [3.0, 0.5], [4.0, 3.5], [0.5, 4.5]]),
        np.column_stack([np.linspace(0.0, 9.0, 40), np.linspace(0.3, 7.0, 40)]),
    ],
    ids=["six", "forty"],
)
def test_all_distinct_site_ordinates_take_the_panel_build(sites):
    # one site per distinct y: the V product alone costs n^2 per point,
    # twice the multiply by M; the rule prices it even where the read is
    # large enough to look for a lattice
    post = Posterior(sites, H)
    pts = lattice(np.linspace(-1.0, 10.0, 200), np.linspace(-1.0, 8.0, 150))
    n, count = post.size, pts.shape[0]
    assert n * (n + 1) / 2 * count + gp._ENTRY_FLOPS * n * count > gp._LATTICE_FLOPS
    assert gp._lattice(pts) is not None
    assert gp._lattice_layout(post.design, pts) is None


def test_only_masked_lattices_in_x_major_order_are_lattices():
    pts = SHAPES["L-shape"]
    xs, ys, starts, jy = gp._lattice(pts)
    np.testing.assert_array_equal(xs, AXIS)
    np.testing.assert_array_equal(ys, np.linspace(0.0, 8.0, 9))
    np.testing.assert_array_equal(np.diff(starts), L_SHAPE.sum(axis=1))
    np.testing.assert_array_equal(ys[jy], pts[:, 1])
    assert gp._lattice(pts[:, ::-1]) is None  # y-major
    assert gp._lattice(pts[::-1]) is None  # x falls
    assert gp._lattice(np.vstack([pts[:5], pts[4:]])) is None  # a node twice
    assert gp._lattice(pts, columns=10) is None
    nan = pts.copy()
    nan[7, 0] = np.nan
    assert gp._lattice(nan) is None
    # the grids the package reads are lattices
    env = Environment.polygon([(0, 0), (14, 0), (14, 7), (7, 7), (7, 14), (0, 14)])
    assert gp._lattice(env.grid(0.3)) is not None
    assert gp._lattice(FieldGrid((0.5, -1.0), 0.25, np.zeros((30, 20))).points()) is not None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 12),
    ny=st.integers(1, 12),
    site_shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    columns=st.integers(0, 3),
)
def test_lattice_build_matches_the_panel_build_on_random_lattices(seed, nx, ny, site_shape, columns):
    rng = np.random.default_rng(seed)
    h = Hyperparameters(*rng.uniform((0.5, 0.5, 0.01), (3.0, 4.0, 0.5)))
    keep = rng.random((nx, ny)) < rng.uniform(0.3, 1.0)
    keep.flat[rng.integers(keep.size)] = True
    pts = lattice(np.sort(rng.uniform(-6.0, 6.0, nx)), np.sort(rng.uniform(-6.0, 6.0, ny)), keep)
    site_pool = lattice(rng.uniform(-5.0, 5.0, site_shape[0]), rng.uniform(-5.0, 5.0, site_shape[1]))
    sites = site_pool[rng.choice(len(site_pool), size=int(rng.integers(1, len(site_pool) + 1)), replace=False)]
    post = Posterior(sites, h, rng.integers(1, 5, size=len(sites)))
    values = rng.normal(size=(post.size, columns))
    lengths = sorted(rng.integers(0, post.size + 1, size=3).tolist())
    with pytest.MonkeyPatch.context() as m:
        m.setattr(gp, "_ENTRY_FLOPS", 1e30)
        assert gp._lattice_layout(post.design, pts) is not None
        got = post.prefix_mean_and_variance(pts, values, lengths)
    assert_close_reads(post, got, panel_read(post, pts, values, lengths))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="longdouble is float64 here")
@pytest.mark.parametrize("noise", [1 / 3, 0.0361, 1e-4, 1e-8])
def test_lattice_build_is_as_accurate_as_the_panel_build_in_extended_precision(noise, forced):
    # a 6 x 6 lattice of sites and a twin of each 0.05 away along x, so
    # the Gram matrix is as ill-conditioned as the noise lets it be and
    # every site y is shared
    h = Hyperparameters(1.5, 2.0, noise)
    base = lattice(np.linspace(0.0, 8.0, 6), np.linspace(0.0, 8.0, 6))
    post = Posterior(np.concatenate([base, base + (0.05, 0.0)]), h)
    pts = lattice(np.linspace(-1.0, 9.0, 23), np.linspace(-1.0, 9.0, 19))
    assert gp._lattice_layout(post.design, pts) is not None
    exact = extended_variance(post, pts)
    read = np.abs(post.variance(pts) - exact).max()
    with panel_build():
        panel = np.abs(post.variance(pts) - exact).max()
    assert read <= 4.0 * panel + 1e-15 * h.signal_variance


def test_every_query_reads_the_same_lattice_variance_bits():
    # the lattice twin of test_gp's panel test: 3,000 lattice points over
    # 200 sites with 10 distinct y values, so V blocks of 226 points
    # (``_PANEL_POINTS`` less the x column blocks' 286) end on a short one
    rng = np.random.default_rng(9)
    h = Hyperparameters(8.33, 12.87, 0.0361)
    sites = lattice(np.linspace(0.0, 60.0, 20), np.linspace(0.0, 60.0, 10))[rng.permutation(200)]
    post = Posterior(sites, h, rng.integers(1, 4, 200))
    pts = lattice(np.linspace(-5.0, 65.0, 60), np.linspace(-5.0, 65.0, 50))
    layout = gp._lattice_layout(post.design, pts)
    assert layout is not None
    chunk = layout[-1]
    assert len(pts) % chunk and chunk < gp._PANEL_POINTS
    variances = post.variance(pts)
    _, joint = post.mean_and_variance(pts, rng.normal(size=(200, 2)))
    _, prefix = post.prefix_mean_and_variance(pts, rng.normal(size=200), [200])
    assert np.array_equal(joint, variances)
    assert np.array_equal(prefix[0], variances)
    # three blocks of 23 lattice columns, each V block spanning several
    with panel_build():
        np.testing.assert_allclose(variances, post.variance(pts), rtol=1e-13, atol=1e-13 * h.signal_variance)


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
def test_lattice_queries_hold_one_panel_at_a_time(query):
    # the lattice twin of test_gp's panel test: 3,000 lattice points over
    # 600 sites with 20 distinct y values, where the whole read's
    # cross-covariances would take 14.4 MB
    rng = np.random.default_rng(5)
    sites = lattice(np.linspace(0.0, 60.0, 30), np.linspace(0.0, 60.0, 20))[rng.permutation(600)]
    post = Posterior(sites, Hyperparameters(8.33, 12.87, 0.0361))
    y = rng.normal(size=post.size)
    pts = lattice(np.linspace(0.0, 60.0, 60), np.linspace(0.0, 60.0, 50))
    assert gp._lattice_layout(post.design, pts) is not None
    panel = 8 * post.size * gp._PANEL_POINTS
    tracemalloc.start()
    try:
        query(post, pts, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * panel
