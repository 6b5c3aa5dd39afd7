from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from fieldcover import errors
from fieldcover.errors import GramTooLargeError
from fieldcover.geometry import (
    _GRID_NODE_BYTES,
    _TANGENCY_PAD,
    Disk,
    Environment,
    cover_environment,
    disks_intersect,
    greedy_mis,
    lawnmower_rows,
    mis_tour_lower_bound,
)


def star_polygon(seed: int, n: int = 8) -> Environment:
    """Random star-shaped polygon around the origin; always simple.

    Jittered even angular spacing keeps every gap under pi, which keeps
    the origin in the kernel and the boundary free of crossings.
    """
    rng = np.random.default_rng(seed)
    angles = 2 * math.pi * (np.arange(n) + rng.uniform(0.15, 0.85, size=n)) / n
    radii = rng.uniform(5.0, 20.0, size=n)
    verts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return Environment.polygon(verts)


def test_rectangle_validation():
    with pytest.raises(ValueError):
        Environment.rectangle((0, 0), (0, 5))
    with pytest.raises(ValueError):
        Environment.rectangle((0, 0), (5, float("nan")))


def test_rectangle_contains_boundary():
    env = Environment.rectangle((0, 0), (10, 4))
    inside = env.contains([(0, 0), (10, 4), (5, 2), (10, 0)])
    assert inside.all()
    outside = env.contains([(10.001, 2), (-0.001, 2), (5, 4.001)])
    assert not outside.any()


def test_polygon_rejects_bowtie_and_flat():
    with pytest.raises(ValueError):
        Environment.polygon([(0, 0), (2, 2), (2, 0), (0, 2)])
    with pytest.raises(ValueError):
        Environment.polygon([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(ValueError):
        Environment.polygon([(0, 0), (1, 0)])


def test_polygon_orientation_normalized():
    cw = Environment.polygon([(0, 0), (0, 4), (4, 4), (4, 0)])
    v = cw.vertices
    nxt = np.roll(v, -1, axis=0)
    # shoelace sum: twice the area, positive once the vertices run counterclockwise
    assert float(np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1])) == 32.0
    assert cw.contains([(2, 2)])[0]


def test_polygon_concavity():
    # L shape: the notch quadrant is outside.
    env = Environment.polygon([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)])
    inside = env.contains([(1, 3), (3, 1), (3, 3), (2, 2), (3, 2)])
    np.testing.assert_array_equal(inside, [True, True, False, True, True])


def test_polygon_boundary_counts_inside():
    env = Environment.polygon([(0, 0), (6, 0), (3, 6)])
    assert env.contains([(3, 0), (0, 0), (4.5, 3.0)]).all()


def test_environment_diameter():
    env = Environment.rectangle((0, 0), (3, 4))
    assert env.diameter == pytest.approx(5.0)


def test_grid_includes_far_edges():
    env = Environment.rectangle((0, 0), (100, 100))
    pts = env.grid(30.0)
    xs = np.unique(pts[:, 0])
    assert xs[0] == 0.0 and xs[-1] == 100.0
    assert pts.shape == (25, 2)
    exact = env.grid(10.0)
    assert exact.shape == (121, 2)


def test_grid_budget_counts_nodes_before_building_them(monkeypatch):
    # a budget of exactly 25 nodes: 5 x 5 (x far edge appended at 3.5)
    # fits, and 2 x 13 = 26 is refused
    monkeypatch.setattr(errors, "_MAX_GRAM_BYTES", 25 * _GRID_NODE_BYTES)
    assert Environment.rectangle((0, 0), (3.5, 4)).grid(1.0).shape == (25, 2)
    with pytest.raises(GramTooLargeError, match="2 x 13 points at spacing 1;"):
        Environment.rectangle((0, 0), (1, 12)).grid(1.0)


def test_grid_respects_polygon():
    env = Environment.polygon([(0, 0), (10, 0), (0, 10)])
    pts = env.grid(1.0)
    assert env.contains(pts).all()
    assert not np.any((pts[:, 0] + pts[:, 1]) > 10.0 + 1e-9)


def test_nearest_point_rectangle_clamps():
    env = Environment.rectangle((0, 0), (10, 10))
    got = env.project([(-3, 5), (12, 14), (4, 4)])
    np.testing.assert_array_equal(got, [(0.0, 5.0), (10.0, 10.0), (4.0, 4.0)])


def test_nearest_point_polygon():
    env = Environment.polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
    inside, outside = env.project([(2, 2), (2, 7)])
    assert tuple(inside) == (2.0, 2.0)
    assert tuple(outside) == pytest.approx((2.0, 4.0))


def test_disk_validation():
    with pytest.raises(ValueError):
        Disk((0, 0), 0.0)
    with pytest.raises(ValueError):
        Disk((float("inf"), 0), 1.0)


def test_disks_intersect_tangent_counts():
    a = Disk((0, 0), 1.0)
    assert disks_intersect(a, Disk((2.0, 0), 1.0))
    assert disks_intersect(a, Disk((1.5, 0), 1.0))
    assert not disks_intersect(a, Disk((2.1, 0), 1.0))


def test_cover_single_square_env():
    side = 10.0 * math.sqrt(2.0)
    env = Environment.rectangle((0, 0), (side, side))
    disks = cover_environment(env, 10.0)
    assert len(disks) == 1
    assert disks[0].center == pytest.approx((side / 2, side / 2))
    pts = env.grid(0.5)
    d2 = ((pts - disks[0].center) ** 2).sum(axis=1)
    assert (d2 <= disks[0].radius ** 2 * (1.0 + _TANGENCY_PAD)).all()


def test_cover_100x100_by_radius_10():
    env = Environment.rectangle((0, 0), (100, 100))
    disks = cover_environment(env, 10.0)
    centers = np.array([d.center for d in disks])
    pts = env.grid(0.5)
    dist, _ = cKDTree(centers).query(pts)
    assert dist.max() <= 10.0 + 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cover_polygon_property(seed):
    env = star_polygon(seed)
    radius = 4.0
    disks = cover_environment(env, radius)
    centers = np.array([d.center for d in disks])
    pts = env.grid(env.diameter / 60.0)
    dist, _ = cKDTree(centers).query(pts)
    assert dist.max() <= radius + 1e-9


def test_mis_disjoint_input_unchanged():
    disks = [Disk((0, 0), 1.0), Disk((5, 0), 1.0), Disk((0, 5), 1.0)]
    assert set(greedy_mis(disks)) == set(disks)


def test_mis_three_collinear():
    a, b, c = Disk((0, 0), 1.0), Disk((1.5, 0), 1.0), Disk((3.0, 0), 1.0)
    assert greedy_mis([b, c, a]) == [a, c]


def test_mis_clique_collapses():
    disks = [Disk((0.1 * i, 0), 1.0) for i in range(5)]
    assert len(greedy_mis(disks)) == 1


def test_mis_mixed_radii_rejected():
    with pytest.raises(ValueError):
        greedy_mis([Disk((0, 0), 1.0), Disk((5, 0), 2.0)])


def test_mis_on_cover_grid_takes_alternate_rows_and_cols():
    # sqrt(2)-spaced grid: diagonal neighbours are exactly tangent, so a
    # kept disk blocks all eight neighbours.
    s = math.sqrt(2.0)
    disks = [Disk((i * s, j * s), 1.0) for i in range(4) for j in range(4)]
    mis = greedy_mis(disks)
    centers = {d.center for d in mis}
    assert len(mis) == 4
    assert centers == {(i * s, j * s) for i in (0, 2) for j in (0, 2)}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_mis_properties_random(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 20, size=(rng.integers(1, 30), 2))
    disks = [Disk(tuple(p), 1.5) for p in pts]
    mis = greedy_mis(disks)
    for i, a in enumerate(mis):
        for b in mis[i + 1 :]:
            assert not disks_intersect(a, b)
    for d in disks:
        assert any(disks_intersect(d, m) for m in mis)
    shuffled = list(disks)
    rng.shuffle(shuffled)
    assert greedy_mis(shuffled) == mis


def lawnmower_points(big: Disk, small_radius: float) -> list:
    return [p for row in lawnmower_rows(big, small_radius) for p in row]


def test_lawnmower_degenerate_single_point():
    assert lawnmower_rows(Disk((3, 4), 2.0), 2.0) == [[(3.0, 4.0)]]
    assert lawnmower_rows(Disk((3, 4), 2.0), 5.0) == [[(3.0, 4.0)]]


def test_lawnmower_boustrophedon_order():
    # 2x2 grid, no projection: rows bottom to top, each left to right;
    # placement runs the odd rows backwards (test_placement checks that).
    rows = lawnmower_rows(Disk((0, 0), 1.0), 0.9)
    h = 0.9 * math.sqrt(2.0) / 2.0
    expected = [[(-h, -h), (h, -h)], [(-h, h), (h, h)]]
    assert np.allclose(rows, expected)


def test_lawnmower_alpha2_count_and_coverage():
    big = Disk((0, 0), 3.0)
    small = 0.5
    pts = np.array(lawnmower_points(big, small))
    assert len(pts) <= math.ceil(2 * 3.0 / (small * math.sqrt(2))) ** 2 == 81
    assert ((pts**2).sum(axis=1) <= 3.0**2 * (1.0 + _TANGENCY_PAD)).all()
    xs = np.arange(-3.0, 3.0 + 0.005, 0.01)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    grid = grid[(grid**2).sum(axis=1) <= 9.0]
    dist, _ = cKDTree(pts).query(grid)
    assert dist.max() <= small * (1.0 + 1e-9)


@settings(max_examples=20, deadline=None)
@given(
    cx=st.floats(min_value=-50, max_value=50, allow_nan=False),
    cy=st.floats(min_value=-50, max_value=50, allow_nan=False),
)
def test_lawnmower_count_translation_invariant(cx, cy):
    base = lawnmower_points(Disk((0, 0), 3.0), 0.5)
    moved = lawnmower_points(Disk((cx, cy), 3.0), 0.5)
    assert len(moved) == len(base)


def test_lawnmower_coverage_random_ratios():
    rng = np.random.default_rng(99)
    for _ in range(10):
        big_r = rng.uniform(1.0, 10.0)
        small = big_r * rng.uniform(0.1, 0.95)
        big = Disk(tuple(rng.uniform(-5, 5, 2)), big_r)
        pts = np.array(lawnmower_points(big, small))
        grid_sp = big_r / 40.0
        xs = np.arange(big.center[0] - big_r, big.center[0] + big_r + grid_sp / 2, grid_sp)
        ys = np.arange(big.center[1] - big_r, big.center[1] + big_r + grid_sp / 2, grid_sp)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        keep = (grid[:, 0] - big.center[0]) ** 2 + (grid[:, 1] - big.center[1]) ** 2 <= big_r**2
        dist, _ = cKDTree(pts).query(grid[keep])
        assert dist.max() <= small * (1.0 + 1e-9)


def test_mis_tour_lower_bound_values():
    assert mis_tour_lower_bound([Disk((0, 0), 1.0)]) == pytest.approx(0.24)
    tens = [Disk((11.0 * i, 0), 5.0) for i in range(10)]
    assert mis_tour_lower_bound(tens) == pytest.approx(12.0)
    assert mis_tour_lower_bound([]) == 0.0


def test_mis_tour_lower_bound_rejects_bad_sets():
    with pytest.raises(ValueError):
        mis_tour_lower_bound([Disk((0, 0), 1.0), Disk((1, 0), 1.0)])
    with pytest.raises(ValueError):
        mis_tour_lower_bound([Disk((0, 0), 1.0), Disk((9, 0), 2.0)])


def reference_greedy_mis(disks):
    """``greedy_mis`` as a scan of every kept disk, without a neighbour search."""
    kept = []
    for d in sorted(disks, key=lambda d: d.center):
        if all(not disks_intersect(d, k) for k in kept):
            kept.append(d)
    return kept


def reference_lower_bound_error(mis):
    """The message ``mis_tour_lower_bound`` raises, from a scan of every pair."""
    for i, a in enumerate(mis):
        for b in mis[i + 1 :]:
            if disks_intersect(a, b):
                return f"disks at {a.center} and {b.center} intersect; set is not independent"
    return None


def seeded_disk_set(seed):
    """Equal disks with tied x and y, duplicated centres and (near) tangencies."""
    rng = np.random.default_rng(seed)
    r = float(rng.choice([0.5, 1.0, 1.7]))
    kind = seed % 5
    n = int(rng.integers(1, 400))
    if kind == 0:  # integer lattice: centres 2r apart are exactly tangent
        centres = 2.0 * r * rng.integers(0, 12, size=(n, 2))
    elif kind == 1:  # a cover grid, diagonal neighbours tangent
        centres = r * math.sqrt(2.0) * rng.integers(0, 15, size=(n, 2))
    elif kind == 2:  # few distinct x, so many ties in the sort
        centres = np.column_stack([rng.integers(0, 6, n) * 1.5 * r, rng.uniform(0, 30, n)])
    elif kind == 3:  # far from the origin, on a half-radius lattice
        centres = 1e6 + 0.5 * r * rng.integers(0, 40, size=(n, 2))
    else:  # sparse, each with a partner along an axis or the diagonal, straddling tangency
        anchors = rng.uniform(0, 8 * r * math.sqrt(n), size=(n, 2))
        d = math.sqrt(0.5)
        steps = np.array([(1, 0), (-1, 0), (0, 1), (0, -1), (d, d), (-d, d), (d, -d), (-d, -d)])
        # the largest centre distance disks_intersect accepts, and one ulp
        # either side of it
        edge = 2.0 * r * math.sqrt(1.0 + _TANGENCY_PAD)
        edges = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)])
        reach = np.where(
            rng.integers(0, 2, n) == 0,
            2.0 * r * rng.uniform(0.99, 1.01, n),
            edges[rng.integers(0, 3, n)],
        )
        centres = np.vstack([anchors, anchors + reach[:, None] * steps[rng.integers(0, 8, n)]])
    disks = [Disk(tuple(c), r) for c in centres]
    return disks + [disks[int(i)] for i in rng.integers(0, len(disks), size=n // 5)]


@pytest.mark.parametrize("seed", range(25))
def test_mis_neighbour_search_keeps_the_pairwise_scan_results(seed):
    disks = seeded_disk_set(seed)
    mis = greedy_mis(disks)
    assert mis == reference_greedy_mis(disks)
    assert mis_tour_lower_bound(mis) == 0.24 * len(mis) * mis[0].radius
    for shuffled in (disks, disks[::-1], sorted(disks, key=lambda d: d.center)):
        expected = reference_lower_bound_error(shuffled)
        if expected is None:
            mis_tour_lower_bound(shuffled)
        else:
            with pytest.raises(ValueError) as exc:
                mis_tour_lower_bound(shuffled)
            assert str(exc.value) == expected


def test_mis_sees_a_pair_one_ulp_past_the_tangency_distance():
    # at r = 8.1, centres one ulp further apart than 2r * sqrt(1 + pad)
    # still pass disks_intersect, so the neighbour search must reach past it
    r = 8.1
    far = float(np.nextafter(2.0 * r * math.sqrt(1.0 + _TANGENCY_PAD), np.inf))
    a, b = Disk((0.0, 0.0), r), Disk((far, 0.0), r)
    assert disks_intersect(a, b)
    assert greedy_mis([b, a]) == [a]
    with pytest.raises(ValueError, match="intersect"):
        mis_tour_lower_bound([a, b])


def test_cover_then_mis_serves_every_point_within_3r():
    for env in (Environment.rectangle((0, 0), (57, 43)), star_polygon(5)):
        radius = 4.0
        mis = greedy_mis(cover_environment(env, radius))
        centers = np.array([d.center for d in mis])
        pts = env.grid(env.diameter / 80.0)
        dist, _ = cKDTree(centers).query(pts)
        assert dist.max() <= 3.0 * radius + 1e-9
