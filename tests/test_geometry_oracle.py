"""The polygon geometry's array passes against the scalar loops they replaced.

The references below are those loops: the closed segment test on one
pair of segments, the cover's test of one square at a time, the
simplicity check over one pair of edges at a time, and the membership
test that measures every point against every edge. ``cover_environment``
must give the same disks bit for bit, ``Environment.contains`` the same
verdict for every point, and ``Environment.polygon`` the same accept or
reject, naming the same pair of edges, because every plan on a polygon
starts from them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from fieldcover.geometry import _BOUNDARY_TOL, Environment, cover_environment
from fieldcover.gp import Hyperparameters
from fieldcover.placement import necessary_radius

COURT = 14.0
COURTYARD = [(0, 0), (COURT, 0), (COURT, COURT / 2), (COURT / 2, COURT / 2), (COURT / 2, COURT), (0, COURT)]


def orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def within_box(a, b, p) -> bool:
    return (
        min(a[0], b[0]) - 1e-12 <= p[0] <= max(a[0], b[0]) + 1e-12
        and min(a[1], b[1]) - 1e-12 <= p[1] <= max(a[1], b[1]) + 1e-12
    )


def segments_intersect(p1, p2, q1, q2) -> bool:
    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0) and (
        (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0
    ):
        return True
    if d1 == 0 and within_box(q1, q2, p1):
        return True
    if d2 == 0 and within_box(q1, q2, p2):
        return True
    if d3 == 0 and within_box(p1, p2, q1):
        return True
    if d4 == 0 and within_box(p1, p2, q2):
        return True
    return False


def reference_contains(env: Environment, points) -> np.ndarray:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if env.kind == "rectangle":
        return env.contains(pts)
    verts = env.vertices
    nxt = np.roll(verts, -1, axis=0)
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    for (x1, y1), (x2, y2) in zip(verts, nxt):
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x2 - x1) * (y - y1) / (y2 - y1) + x1
        inside ^= crosses & (x < xi)
    on = np.zeros(len(pts), dtype=bool)
    for a, b in zip(verts, nxt):
        d = b - a
        w = pts - a
        t = np.clip((w[:, 0] * d[0] + w[:, 1] * d[1]) / (d[0] * d[0] + d[1] * d[1]), 0.0, 1.0)
        closest = a + t[:, None] * d
        on |= np.sum((pts - closest) ** 2, axis=1) <= _BOUNDARY_TOL**2
    return inside | on


def reference_square_touches(env: Environment, x0: float, y0: float, side: float) -> bool:
    x1, y1 = x0 + side, y0 + side
    ex0, ey0, ex1, ey1 = env.bounds
    if x1 < ex0 or ex1 < x0 or y1 < ey0 or ey1 < y0:
        return False
    if env.kind == "rectangle":
        return True
    corners = np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    if bool(np.any(reference_contains(env, corners))):
        return True
    v = env.vertices
    if bool(np.any((v[:, 0] >= x0) & (v[:, 0] <= x1) & (v[:, 1] >= y0) & (v[:, 1] <= y1))):
        return True
    sq = [tuple(c) for c in corners]
    m = v.shape[0]
    for i in range(4):
        for j in range(m):
            if segments_intersect(sq[i], sq[(i + 1) % 4], tuple(v[j]), tuple(v[(j + 1) % m])):
                return True
    return False


def reference_cover(env: Environment, radius: float) -> list:
    side = radius * math.sqrt(2.0)
    x0, y0, x1, y1 = env.bounds
    nx = max(1, math.ceil((x1 - x0) / side - 1e-9))
    ny = max(1, math.ceil((y1 - y0) / side - 1e-9))
    centres = []
    for i in range(nx):
        for j in range(ny):
            sx, sy = x0 + i * side, y0 + j * side
            if reference_square_touches(env, sx, sy, side):
                centres.append((sx + side / 2.0, sy + side / 2.0))
    return centres


def reference_crossing(vertices):
    """The first pair of non-adjacent edges that meet, after orienting the
    polygon counter-clockwise, or None."""
    verts = np.asarray(vertices, dtype=float)
    nxt = np.roll(verts, -1, axis=0)
    if float(np.sum(verts[:, 0] * nxt[:, 1] - nxt[:, 0] * verts[:, 1])) < 0.0:
        verts = verts[::-1].copy()
    m = verts.shape[0]
    edges = [(tuple(verts[i]), tuple(verts[(i + 1) % m])) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if j == i + 1 or (i == 0 and j == m - 1):
                continue
            if segments_intersect(*edges[i], *edges[j]):
                return i, j
    return None


def star(rng, n: int, scale: float, offset=(0.0, 0.0)) -> np.ndarray:
    angles = 2 * math.pi * (np.arange(n) + rng.uniform(0.15, 0.85, size=n)) / n
    radii = rng.uniform(0.3, 1.0, size=n) * scale
    return np.asarray(offset) + np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


def assert_same_cover(env: Environment, radius: float) -> int:
    disks = cover_environment(env, radius)
    want = reference_cover(env, radius)
    assert all(d.radius == radius for d in disks)
    got = np.array([d.center for d in disks], dtype=float).reshape(-1, 2)
    # == on floats would pass -0.0 against 0.0; compare the bits
    assert got.tobytes() == np.array(want, dtype=float).reshape(-1, 2).tobytes()
    return len(disks)


@pytest.mark.parametrize("seed", range(12))
def test_cover_matches_reference_on_star_polygons(seed):
    rng = np.random.default_rng(seed)
    env = Environment.polygon(star(rng, int(rng.integers(3, 12)), 20.0, rng.uniform(-30, 30, size=2)))
    for radius in (1.3, 2.9, 7.0, 40.0):
        assert assert_same_cover(env, radius) >= 1


@pytest.mark.parametrize(
    "vertices",
    [
        [(0.0, 0.0), (30.0, 0.01), (30.0, 0.03)],
        [(0.0, 0.0), (0.02, 0.0), (25.0, 25.0), (24.98, 25.0)],
        [(-5.0, 3.0), (17.0, 3.0 + 1e-7), (17.0, 3.0 + 3e-7)],
    ],
    ids=["flat-triangle", "diagonal-strip", "hair"],
)
def test_cover_matches_reference_on_slivers(vertices):
    env = Environment.polygon(vertices)
    for radius in (0.5, 1.7, 6.0):
        assert_same_cover(env, radius)


def test_cover_matches_reference_on_the_courtyard():
    env = Environment.polygon(COURTYARD)
    r = necessary_radius(Hyperparameters(8.33, 12.87, 2.0), 0.5)
    assert assert_same_cover(env, r) == 27
    for radius in (0.7, 1.0, 2.5, 5.0):
        assert_same_cover(env, radius)


@pytest.mark.parametrize("offset", [1e5, -1e5])
def test_cover_matches_reference_far_from_the_origin(offset):
    rng = np.random.default_rng(7)
    env = Environment.polygon(star(rng, 9, 12.0, (offset, 0.5 * offset)))
    for radius in (0.9, 2.2, 5.0):
        assert_same_cover(env, radius)


def test_cover_matches_reference_where_square_sides_run_through_vertices_and_along_edges():
    r = 1.7
    side = r * math.sqrt(2.0)
    # square corners sit at 0 + i * side; these vertices lie on square sides
    # and corners, and two edges run along the grid lines x = side and y = 2 side
    g = [0.0 + i * side for i in range(6)]
    shapes = [
        [(g[0], g[0]), (g[3], g[0]), (g[1], 0.5 * side), (g[1], g[2]), (g[3], g[2]), (g[0], g[4])],
        [(g[0], 0.3), (g[1], g[0]), (g[4], g[1]), (g[2], g[3])],
        [(g[1], g[0]), (g[3], g[1]), (g[1], g[2]), (g[0], g[1])],
        [(g[0], g[0]), (g[5], g[0]), (g[5], g[2]), (g[2], g[2]), (g[2], g[5]), (g[0], g[5])],
    ]
    for vertices in shapes:
        env = Environment.polygon(vertices)
        x0, y0, _, _ = env.bounds
        assert (x0, y0) == (0.0, 0.0)
        assert_same_cover(env, r)


def near_boundary_points(env: Environment, rng) -> np.ndarray:
    """Random points around the polygon, its vertices and edge midpoints,
    and points at the boundary tolerance, and a few ulps either side of
    it, from each edge."""
    verts = env.vertices
    nxt = np.roll(verts, -1, axis=0)
    x0, y0, x1, y1 = env.bounds
    pad = 0.2 * max(x1 - x0, y1 - y0)
    around = rng.uniform((x0 - pad, y0 - pad), (x1 + pad, y1 + pad), size=(300, 2))
    points = [around, verts, (verts + nxt) / 2.0]
    steps = np.arange(-4, 5) * np.spacing(_BOUNDARY_TOL)
    for a, b in zip(verts, nxt):
        d = b - a
        normal = np.array([-d[1], d[0]]) / math.hypot(d[0], d[1])
        for t in (0.5, float(rng.uniform(0.05, 0.95)), 0.0):
            c = a + t * d
            for sign in (-1.0, 1.0):
                points.append(c + sign * np.outer(_BOUNDARY_TOL + steps, normal))
    return np.vstack(points)


@pytest.mark.parametrize("offset", [0.0, 1e5, 1e7])
@pytest.mark.parametrize("seed", range(6))
def test_contains_matches_the_unbanded_test(seed, offset):
    rng = np.random.default_rng(100 + seed)
    if seed == 0:
        vertices = np.asarray(COURTYARD, dtype=float) + offset
    else:
        vertices = star(rng, int(rng.integers(3, 12)), 10.0, (offset, -offset))
    env = Environment.polygon(vertices)
    pts = near_boundary_points(env, rng)
    want = reference_contains(env, pts)
    np.testing.assert_array_equal(env.contains(pts), want)
    # smaller batches: every edge's band then holds few points, or one
    for part in np.array_split(np.arange(len(pts)), 97):
        np.testing.assert_array_equal(env.contains(pts[part]), want[part])


def rounded_ends(env: Environment) -> np.ndarray:
    """Each edge's computed closest point for t at and near 0 and 1, and the
    points a few ulps from it along each axis."""
    verts = env.vertices
    points = []
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        for t in (0.0, 1e-16, 1e-12, 1.0 - 1e-12, 1.0 - 1e-16, 1.0):
            c = a + t * (b - a)
            for k in range(-3, 4):
                points += [c + k * np.spacing(c) * (1.0, 0.0), c + k * np.spacing(c) * (0.0, 1.0)]
    return np.array(points)


@pytest.mark.parametrize("scale", [1e7, 3e7, 1e8])
def test_contains_matches_the_unbanded_test_where_closest_points_round_out_of_the_box(scale):
    # on polygons tens of millions of metres across, b - a rounds, so an
    # edge's computed closest point can land ulps outside the edge's box,
    # beyond a pad of 2 tol; the full test accepts points there
    rng = np.random.default_rng(11)
    for _ in range(40):
        centre = rng.uniform(-scale, scale, size=2)
        env = Environment.polygon(star(rng, int(rng.integers(3, 9)), scale, centre))
        pts = rounded_ends(env)
        np.testing.assert_array_equal(env.contains(pts), reference_contains(env, pts))


def test_contains_matches_the_unbanded_test_when_an_edge_measures_one_point():
    # each point near the triangle comes with one far away, so the edge it
    # lies beside measures it alone; its verdict at tol and a few ulps
    # around it must be the one the whole batch gets, and the one it gets
    # alone: numpy's ``@`` rounds a one-row product (BLAS dot) and a
    # two-row one (matrix-vector) differently, which flipped dozens here
    env = Environment.polygon([(0.0, 0.0), (10.0, 3.0), (4.0, 9.0)])
    rng = np.random.default_rng(3)
    verts = env.vertices
    steps = np.arange(-3, 4) * np.spacing(_BOUNDARY_TOL)
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        d = b - a
        normal = np.array([-d[1], d[0]]) / math.hypot(d[0], d[1])
        for t in rng.uniform(0.1, 0.9, size=60):
            for sign in (-1.0, 1.0):
                for p in a + t * d + sign * np.outer(_BOUNDARY_TOL + steps, normal):
                    pair = np.array([p, (100.0, 100.0)])
                    assert env.contains(pair)[0] == reference_contains(env, pair)[0]
                    assert env.contains([p])[0] == env.contains(pair)[0]


def test_contains_sees_both_sides_of_the_tolerance():
    # beside the courtyard's bottom and left edges, at a quarter of their
    # length, the closest point and the gap are exact, so the threshold
    # itself is tested: at and under tol is on, above it is off
    env = Environment.polygon(COURTYARD)
    steps = np.arange(-4, 5) * np.spacing(_BOUNDARY_TOL)
    gaps = _BOUNDARY_TOL + steps
    below = np.column_stack([np.full(gaps.size, 0.25 * COURT), -gaps])
    left = np.column_stack([-gaps, np.full(gaps.size, 0.25 * COURT)])
    for pts in (below, left):
        got = env.contains(pts)
        np.testing.assert_array_equal(got, reference_contains(env, pts))
        np.testing.assert_array_equal(got, steps <= 0)


# name: (vertices, simple)
POLYGONS = {
    "bowtie": ([(0, 0), (4, 4), (4, 0), (0, 2)], False),
    "pinched at a vertex": ([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)], False),
    "vertex on an edge": ([(0, 0), (4, 0), (4, 4), (2, 4), (2, 0.0), (1, 4), (0, 4)], False),
    "folded back along an edge": ([(0, 0), (4, 0), (4, 2), (1, 0), (0, 2)], False),
    "vertex 5e-13 past a collinear edge": (
        [(0, 0), (4, 0), (4, 2), (8, 2), (8, -2), (4 + 5e-13, 0), (0, -2)],
        False,
    ),
    "vertex 5e-12 past a collinear edge": (
        [(0, 0), (4, 0), (4, 2), (8, 2), (8, -2), (4 + 5e-12, 0), (0, -2)],
        True,
    ),
    "vertex 1e-13 above an edge": ([(0, 0), (4, 0), (4, 4), (2, 1e-13), (0, 4)], True),
    "courtyard": (COURTYARD, True),
    "clockwise square": ([(0, 0), (0, 4), (4, 4), (4, 0)], True),
    "far bowtie": ([(1e5, 1e5), (1e5 + 4, 1e5 + 4), (1e5 + 4, 1e5), (1e5, 1e5 + 2)], False),
}


def assert_same_verdict(vertices):
    want = reference_crossing(vertices)
    if want is None:
        Environment.polygon(vertices)
    else:
        message = f"^polygon is not simple: edges {want[0]} and {want[1]} intersect$"
        with pytest.raises(ValueError, match=message):
            Environment.polygon(vertices)
    return want


@pytest.mark.parametrize("name", list(POLYGONS))
def test_polygon_verdict_matches_reference(name):
    vertices, simple = POLYGONS[name]
    assert (assert_same_verdict(vertices) is None) == simple


def test_polygon_verdicts_match_reference_on_random_vertex_lists():
    rng = np.random.default_rng(5)
    verdicts = []
    for _ in range(150):
        n = int(rng.integers(4, 9))
        vertices = rng.integers(0, 5, size=(n, 2)).astype(float) * rng.choice([1.0, 0.5, 1e5])
        nxt = np.roll(vertices, -1, axis=0)
        if np.any(np.all(vertices == nxt, axis=1)):
            continue
        if float(np.sum(vertices[:, 0] * nxt[:, 1] - nxt[:, 0] * vertices[:, 1])) == 0.0:
            continue
        verdicts.append(assert_same_verdict(vertices) is None)
    # integer vertices give many touching and collinear edges, and both verdicts
    assert 0 < sum(verdicts) < len(verdicts)
    for seed in range(20):
        assert assert_same_verdict(star(np.random.default_rng(seed), 40, 10.0)) is None


def test_rectangle_projection_clamps_like_min_of_max():
    # min(max(p, lo), hi) keeps p when it ties a bound, so an outside point
    # with a -0.0 coordinate on a bound at 0.0 keeps the -0.0
    env = Environment.rectangle((0.0, 0.0), (4.0, 4.0))
    points = np.array([(-0.0, -3.0), (-3.0, -0.0), (4.0, 7.0), (-0.0, 9.0), (-1e-300, -2.0), (5.0, 0.0)])
    want = [(min(max(x, 0.0), 4.0), min(max(y, 0.0), 4.0)) for x, y in points.tolist()]
    assert env.project(points).tobytes() == np.array(want).tobytes()
    signs = [[True, False], [False, True], [False, False], [True, False]]
    assert np.signbit(env.project(points)[:4]).tolist() == signs
