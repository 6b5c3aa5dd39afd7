"""Kernel matrices and neighbour searches against scipy.spatial's calls.

The library imports only numpy and compiled scipy extensions. Its
squared distances are ``cdist``'s own compiled routine, loaded without
``scipy.spatial``; its tile neighbourhoods are numpy code that used to
be ``scipy.spatial.cKDTree`` queries. The references below are test-only
copies of the ``cdist`` and ``cKDTree`` versions. Every kernel entry,
every distance and every index set must match them bit for bit, because
``plan.csv``, ``verification.json`` and the fitted hyperparameters
depend on them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from fieldcover import gp
from fieldcover.geometry import Environment
from fieldcover.gp import HyperparameterGrid, Hyperparameters, kernel_matrix
from fieldcover.placement import (
    AccuracySpec,
    _TILE_MARGINS,
    _near,
    _tiles,
    default_grid_spacing,
    disk_cover_placement,
)

H = Hyperparameters(3.3, 2.0, 0.1)
README_H = Hyperparameters(8.33, 12.87, 0.0361)


def reference_kernel(a, b, hyper: Hyperparameters) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    k = cdist(a, b, "sqeuclidean")
    np.negative(k, out=k)
    np.divide(k, 2.0 * hyper.length_scale**2, out=k)
    np.exp(k, out=k)
    np.multiply(hyper.signal_variance, k, out=k)
    return k


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def points(rng, n: int, offset: float = 0.0) -> np.ndarray:
    return offset + rng.uniform(0.0, 30.0, size=(n, 2))


@pytest.mark.parametrize(
    "a, b",
    [
        (np.empty((0, 2)), np.ones((3, 2))),
        (np.ones((3, 2)), np.empty((0, 2))),
        (np.empty((0, 2)), np.empty((0, 2))),
        ([(1.0, 2.0)], [(1.0, 2.0)]),
        ((0.5, -1.0), [(3.0, 4.0), (0.5, -1.0)]),
    ],
    ids=["0xm", "nx0", "0x0", "1x1", "flat-point"],
)
def test_kernel_matrix_matches_cdist_on_degenerate_shapes(a, b):
    assert_same_bits(kernel_matrix(a, b, H), reference_kernel(a, b, H))


@pytest.mark.parametrize("offset", [0.0, 1e5, -1e5])
@pytest.mark.parametrize("shape", [(1, 700), (700, 1), (1, 1), (37, 3), (250, 250), (900, 67), (67, 900), (2000, 90)])
def test_kernel_matrix_matches_cdist(shape, offset):
    rng = np.random.default_rng([shape[0], shape[1], int(offset) % 7])
    a, b = points(rng, shape[0], offset), points(rng, shape[1], offset)
    assert_same_bits(kernel_matrix(a, b, H), reference_kernel(a, b, H))
    assert_same_bits(kernel_matrix(a, b, README_H), reference_kernel(a, b, README_H))


def test_kernel_matrix_matches_cdist_with_duplicates_and_lattices():
    rng = np.random.default_rng(4)
    lattice = 1e5 + 0.254 * np.column_stack(np.divmod(np.arange(1500), 40)).astype(float)
    a = np.concatenate([lattice, lattice[:300], points(rng, 200, 1e5)])
    b = np.concatenate([lattice[::7], lattice[::7][:20]])
    assert_same_bits(kernel_matrix(a, b, H), reference_kernel(a, b, H))
    assert_same_bits(kernel_matrix(a, a, README_H), reference_kernel(a, a, README_H))
    # a Gram matrix of duplicates is exactly symmetric with s2 on the diagonal
    gram = kernel_matrix(a, a, H)
    assert np.array_equal(gram, gram.T)
    assert np.all(np.diag(gram) == H.signal_variance)


def test_kernel_and_distances_are_cdists_bits():
    rng = np.random.default_rng(9)
    a, b = points(rng, 333), points(rng, 41)
    assert_same_bits(kernel_matrix(a, b, H), reference_kernel(a, b, H))
    assert_same_bits(gp.cdist_sqeuclidean(a, b), cdist(a, b, "sqeuclidean"))


def test_fit_scores_the_distances_cdist_gives(monkeypatch):
    rng = np.random.default_rng(6)
    pts = np.concatenate([points(rng, 120, 1e5), points(rng, 10, 1e5)[[0] * 3]])
    values = np.sin(pts[:, 0]) + 0.1 * rng.standard_normal(len(pts))
    seen = []
    real = gp._tridiagonal_nlml

    def spy(d2, *args):
        seen.append(d2.copy())
        return real(d2, *args)

    monkeypatch.setattr(gp, "_tridiagonal_nlml", spy)
    gp.fit_hyperparameters(pts, values, HyperparameterGrid((2.0, 5.0), (1.0,), (0.1,)))
    assert len(seen) == 2
    for d2 in seen:
        assert_same_bits(d2, cdist(pts, pts, "sqeuclidean"))


def reference_tiles(sites: np.ndarray, grid: np.ndarray, side: float, margins) -> list:
    """``_tiles`` as it was, with each neighbourhood from ``cKDTree``."""
    origin = grid.min(axis=0)
    keys = np.floor((grid - origin) / side).astype(np.int64)
    rows = int(keys[:, 1].max()) + 1
    tiles, tile_of = np.unique(keys[:, 0] * rows + keys[:, 1], return_inverse=True)
    members = np.split(np.argsort(tile_of, kind="stable"), np.cumsum(np.bincount(tile_of))[:-1])
    centres = origin + (np.column_stack(np.divmod(tiles, rows)) + 0.5) * side
    tree = cKDTree(sites)
    near = [tree.query_ball_point(centres, 0.5 * side + m, p=np.inf) for m in margins]
    return [
        (points, tuple(np.sort(np.asarray(n, dtype=np.int64)) for n in by_margin))
        for points, *by_margin in zip(members, *near)
    ]


def assert_same_tiles(got: list, want: list) -> None:
    assert len(got) == len(want)
    for (points, near), (want_points, want_near) in zip(got, want):
        np.testing.assert_array_equal(points, want_points)
        assert isinstance(near, tuple) and len(near) == len(want_near)
        for n, w in zip(near, want_near):
            assert n.dtype == np.int64
            np.testing.assert_array_equal(n, w)


@pytest.mark.parametrize("side", [20.0, 60.0])
def test_tiles_of_plans_match_the_kd_tree(side):
    env = Environment.rectangle((0.0, 0.0), (side, side))
    plan = disk_cover_placement(env, README_H, AccuracySpec(4.0))
    sites, _ = plan.distinct()
    grid = env.grid(default_grid_spacing(env, README_H, 4.0))
    l = README_H.length_scale
    margins = [m * l for m in _TILE_MARGINS]
    assert_same_tiles(_tiles(sites, grid, l, margins), reference_tiles(sites, grid, l, margins))


def test_tiles_keep_sites_exactly_on_the_chebyshev_margin():
    # tiles of side 2 anchored at the origin, so centres at odd
    # coordinates; margins 0.5 and 1.5 put the boundary of a tile's
    # neighbourhood at distances 1.5 and 2.5, where these sites sit, on
    # one axis or both, together with sites one ulp inside and outside
    grid = np.column_stack(np.divmod(np.arange(36), 6)).astype(float)
    on = [(1.0 + 1.5, 1.0), (1.0, 1.0 - 1.5), (1.0 - 2.5, 1.0 + 2.5), (3.0 + 2.5, 5.0 - 1.5)]
    around = [
        (np.nextafter(x, sign * np.inf), y)
        for x, y in on
        for sign in (-1.0, 1.0)
    ]
    sites = np.array(on + around + [(2.0, 2.0), (9.0, 9.0)])
    got = _tiles(sites, grid, 2.0, [0.5, 1.5])
    assert_same_tiles(got, reference_tiles(sites, grid, 2.0, [0.5, 1.5]))
    # the first tile's centre is (1, 1): the site 1.5 away along x is in
    # its narrow neighbourhood, as is the one an ulp nearer, while the one
    # an ulp further is not
    narrow = set(got[0][1][0].tolist())
    assert {0, 4} <= narrow and 5 not in narrow


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 200),
    m=st.integers(0, 40),
    unit=st.sampled_from([1.0, 1e-3, 7.25, 1e4]),
    offset=st.sampled_from([0.0, 1e5, -3e3]),
    reach=st.sampled_from([0.25, 0.5, 1.0, 0.3, 2.0]),
)
def test_near_matches_the_kd_tree(seed, n, m, unit, offset, reach):
    # lattice coordinates make ties and points exactly on the boundary
    rng = np.random.default_rng(seed)
    pts = offset + unit * 0.25 * rng.integers(0, 24, size=(n, 2))
    if seed % 2:
        pts[: n // 2] = offset + unit * rng.uniform(0.0, 6.0, size=(n // 2, 2))
    centres = offset + unit * 0.25 * rng.integers(-2, 26, size=(m, 2))
    got = _near(centres, pts, unit * reach)
    want = cKDTree(pts).query_ball_point(centres, unit * reach, p=np.inf)
    assert len(got) == m
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, np.sort(np.asarray(w, dtype=np.int64)))
