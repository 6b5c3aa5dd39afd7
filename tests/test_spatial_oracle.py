"""Kernel matrices and neighbour searches against scipy.spatial's calls.

The library imports only numpy and compiled scipy extensions. Its
squared distances are ``cdist``'s own compiled routine, loaded without
``scipy.spatial``; its neighbour search, ``geometry._near``, is numpy
code that used to be ``scipy.spatial.cKDTree`` queries, and it serves
both the verification tiles and the disk independent set. The
references below are test-only copies of the ``cdist`` and ``cKDTree``
versions. The verification tiles are checked against a grouping of
``env.grid`` by ``np.unique``. Every kernel entry, every distance, every
tile point and every index set must match them bit for bit, because
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
from fieldcover.geometry import Environment, _near
from fieldcover.gp import HyperparameterGrid, Hyperparameters, kernel_matrix
from fieldcover.placement import (
    AccuracySpec,
    _TILE_MARGINS,
    _Tiles,
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


def reference_tiles(grid: np.ndarray, side: float) -> tuple[list, np.ndarray]:
    """The grid's tiles grouped by ``np.unique``: each tile's points and the centres."""
    origin = grid.min(axis=0)
    keys = np.floor((grid - origin) / side).astype(np.int64)
    rows = int(keys[:, 1].max()) + 1
    tiles, tile_of = np.unique(keys[:, 0] * rows + keys[:, 1], return_inverse=True)
    members = np.split(np.argsort(tile_of, kind="stable"), np.cumsum(np.bincount(tile_of))[:-1])
    return members, origin + (np.column_stack(np.divmod(tiles, rows)) + 0.5) * side


def assert_tiles_match_reference(env: Environment, step: float, side: float) -> _Tiles:
    """Check ``_Tiles`` over ``env.lattice(step)`` against the reference over
    ``env.grid(step)``: the members, sizes and centres, and each tile's
    points, which joined in grid order are the grid's bits."""
    grid = env.grid(step)
    tiles = _Tiles(env.lattice(step), side)
    want_members, want_centres = reference_tiles(grid, side)
    assert len(tiles) == len(want_members) == len(tiles.sizes)
    joined = np.full_like(grid, np.nan)
    for t, want in enumerate(want_members):
        index = tiles.indices(t)
        assert index.dtype == np.int64
        np.testing.assert_array_equal(index, want)
        assert tiles.sizes[t] == want.size
        points = tiles.sub(t).points()
        assert_same_bits(points, grid[want])
        joined[index] = points
    assert_same_bits(joined, grid)
    assert_same_bits(tiles.centres, want_centres)
    return tiles


def assert_same_tiles(sites: np.ndarray, env: Environment, step: float, side: float, margins) -> list:
    """Check ``_Tiles``, and ``_near`` on its centres at each margin, against the
    references; returns the nearby sites per margin, one array per tile."""
    centres = assert_tiles_match_reference(env, step, side).centres
    tree = cKDTree(sites)
    by_margin = []
    for m in margins:
        near = _near(centres, sites, 0.5 * side + m)
        want_near = tree.query_ball_point(centres, 0.5 * side + m, p=np.inf)
        assert len(near) == len(want_near)
        for n, w in zip(near, want_near):
            assert n.dtype == np.int64
            np.testing.assert_array_equal(n, np.sort(np.asarray(w, dtype=np.int64)))
        by_margin.append(near)
    return by_margin


@pytest.mark.parametrize("side", [20.0, 60.0])
def test_tiles_of_plans_match_the_kd_tree(side):
    env = Environment.rectangle((0.0, 0.0), (side, side))
    plan = disk_cover_placement(env, README_H, AccuracySpec(4.0))
    sites, _ = plan.distinct()
    step = default_grid_spacing(env, README_H, 4.0)
    l = README_H.length_scale
    assert_same_tiles(sites, env, step, l, [m * l for m in _TILE_MARGINS])


@pytest.mark.parametrize("side", [60.0, 300.0])
def test_tiles_of_verification_grids_match_the_reference(side):
    # ``_Tiles`` takes its origin from the first axis values with a node
    # inside, the reference from min(axis=0) over the grid; a minimum is
    # exact, so the tiles agree
    env = Environment.rectangle((0.0, 0.0), (side, side))
    assert_tiles_match_reference(env, default_grid_spacing(env, README_H, 4.0), README_H.length_scale)


def test_tiles_keep_sites_exactly_on_the_chebyshev_margin():
    # tiles of side 2 anchored at the origin, so centres at odd
    # coordinates; margins 0.5 and 1.5 put the boundary of a tile's
    # neighbourhood at distances 1.5 and 2.5, where these sites sit, on
    # one axis or both, together with sites one ulp inside and outside
    env = Environment.rectangle((0.0, 0.0), (5.0, 5.0))
    assert_same_bits(env.grid(1.0), np.column_stack(np.divmod(np.arange(36), 6)).astype(float))
    on = [(1.0 + 1.5, 1.0), (1.0, 1.0 - 1.5), (1.0 - 2.5, 1.0 + 2.5), (3.0 + 2.5, 5.0 - 1.5)]
    around = [
        (np.nextafter(x, sign * np.inf), y)
        for x, y in on
        for sign in (-1.0, 1.0)
    ]
    sites = np.array(on + around + [(2.0, 2.0), (9.0, 9.0)])
    narrow, _ = assert_same_tiles(sites, env, 1.0, 2.0, [0.5, 1.5])
    # the first tile's centre is (1, 1): the site 1.5 away along x is in
    # its narrow neighbourhood, as is the one an ulp nearer, while the one
    # an ulp further is not
    first = set(narrow[0].tolist())
    assert {0, 4} <= first and 5 not in first


def star(seed: int, offset: float) -> Environment:
    """A seeded star polygon about 20 across; every third seed is a sliver."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 10))
    angles = 2 * np.pi * (np.arange(n) + rng.uniform(0.15, 0.85, size=n)) / n
    radii = rng.uniform(4.0, 10.0, size=n)
    if seed % 3 == 0:
        # a thin wedge: every other vertex pulled almost onto the centre
        radii[::2] *= 0.02
    return Environment.polygon(offset + np.column_stack([radii * np.cos(angles), radii * np.sin(angles)]))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    offset=st.sampled_from([0.0, 1e5, 1e7]),
    polygon=st.booleans(),
    step=st.sampled_from([0.3, 0.7, 1.1, 2.5]),
    side=st.sampled_from([1.0, 2.9, 8.33]),
)
def test_tiles_rebuild_the_grid_from_the_axes(seed, offset, polygon, step, side):
    # the tiles' points, joined in grid order, are ``env.grid``'s bits, and
    # each tile's members are the reference's; the spacings rarely divide
    # the width, so the far edge is appended in most cases
    if polygon:
        env = star(seed, offset)
    else:
        w, h = np.random.default_rng(seed).uniform(1.0, 30.0, size=2)
        env = Environment.rectangle((offset, offset), (offset + w, offset + h))
    try:
        env.grid(step)
    except ValueError:
        # a sliver no node of this spacing lands in: the lattice refuses it
        # in the same words
        with pytest.raises(ValueError, match="falls inside the environment"):
            env.lattice(step)
        return
    assert_tiles_match_reference(env, step, side)


def test_tiles_of_grids_with_an_appended_far_edge_match_the_reference():
    # 3.5 is not a whole number of 1.0 steps, so x = 3.5 is appended; on the
    # star the appended column and row hold nodes only where it reaches them
    rect = Environment.rectangle((1e7, 1e7), (1e7 + 3.5, 1e7 + 4.0))
    xs = rect.lattice(1.0).xs
    assert xs[-1] == 1e7 + 3.5 and xs[-2] == 1e7 + 3.0
    assert_tiles_match_reference(rect, 1.0, 2.0)
    for seed in range(6):
        assert_tiles_match_reference(star(seed, 1e5), 0.45, 2.9)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 200),
    m=st.integers(0, 40),
    unit=st.sampled_from([1.0, 1e-3, 7.25, 1e4]),
    offset=st.sampled_from([0.0, 1e5, -3e3]),
    reach=st.sampled_from([0.25, 0.5, 1.0, 0.3, 2.0]),
    centres_are_points=st.booleans(),
)
def test_near_matches_the_kd_tree(seed, n, m, unit, offset, reach, centres_are_points):
    # lattice coordinates make ties and points exactly on the boundary;
    # with the centres the points, as in the disk independent set, every
    # set holds its own centre and duplicates hold each other
    rng = np.random.default_rng(seed)
    pts = offset + unit * 0.25 * rng.integers(0, 24, size=(n, 2))
    if seed % 2:
        pts[: n // 2] = offset + unit * rng.uniform(0.0, 6.0, size=(n // 2, 2))
    centres = offset + unit * 0.25 * rng.integers(-2, 26, size=(m, 2))
    if centres_are_points:
        centres = pts
    got = _near(centres, pts, unit * reach)
    want = cKDTree(pts).query_ball_point(centres, unit * reach, p=np.inf)
    assert len(got) == len(centres)
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, np.sort(np.asarray(w, dtype=np.int64)))
