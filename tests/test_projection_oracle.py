"""The ``--hard-boundary`` projection against the per-point loop it replaced.

The reference is the loop the CLI used to run: a one-point membership
test per entry, then, for an entry outside a polygon, a scan over the
edges that keeps the first edge projection with a strictly smaller
squared distance. ``project_into_environment`` and
``Environment.project`` must give the same floats, bit for bit,
because ``plan.csv`` and everything verified and toured from it depend
on them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from fieldcover.geometry import Environment
from fieldcover.gp import Hyperparameters
from fieldcover.placement import AccuracySpec, disk_cover_placement, project_into_environment


def reference_nearest_point(env: Environment, p) -> tuple[float, float]:
    px, py = float(p[0]), float(p[1])
    if env.kind == "rectangle":
        x0, y0, x1, y1 = env.bounds
        return (min(max(px, x0), x1), min(max(py, y0), y1))
    if env.contains([(px, py)])[0]:
        return (px, py)
    q = np.array([px, py])
    verts = env.vertices
    best, best_d2 = None, math.inf
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        d = b - a
        t = min(max(float((q - a) @ d) / float(d @ d), 0.0), 1.0)
        c = a + t * d
        d2 = float(np.sum((q - c) ** 2))
        if d2 < best_d2:
            best, best_d2 = c, d2
    return (float(best[0]), float(best[1]))


def reference_projection(plan, env: Environment):
    return tuple(
        (loc if env.contains([loc])[0] else reference_nearest_point(env, loc), n)
        for loc, n in plan.entries
    )


def star_polygon(rng, scale: float) -> Environment:
    n = int(rng.integers(3, 10))
    angles = 2 * math.pi * (np.arange(n) + rng.uniform(0.15, 0.85, size=n)) / n
    radii = rng.uniform(0.3, 1.0, size=n) * scale
    centre = rng.uniform(-scale, scale, size=2)
    ring = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return Environment.polygon(centre + ring)


def assert_same_entries(got, want):
    assert len(got) == len(want)
    for (loc, n), (ref_loc, ref_n) in zip(got, want):
        assert n == ref_n
        # == on floats would pass -0.0 against 0.0; compare the bits
        assert np.array(loc).tobytes() == np.array(ref_loc, dtype=float).tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_projected_plan_matches_reference_on_star_polygons(seed):
    rng = np.random.default_rng(seed)
    h = Hyperparameters(float(rng.uniform(1.5, 4.0)), 4.0, float(rng.uniform(0.05, 0.5)))
    env = star_polygon(rng, float(rng.uniform(1.5, 3.0)) * h.length_scale)
    plan = disk_cover_placement(env, h, AccuracySpec(float(rng.uniform(0.8, 2.4)), 2.0))
    want = reference_projection(plan, env)
    assert any(loc != ref for (loc, _), (ref, _) in zip(plan.entries, want))
    projected = project_into_environment(plan, env)
    assert_same_entries(projected.entries, want)
    assert (projected.provenance, projected.rows) == (plan.provenance, plan.rows)


@pytest.mark.parametrize("seed", range(15))
def test_nearest_point_matches_reference_on_random_points(seed):
    rng = np.random.default_rng(1000 + seed)
    env = star_polygon(rng, 10.0) if seed % 5 else Environment.rectangle((-3.0, -2.0), (4.0, 6.5))
    x0, y0, x1, y1 = env.bounds
    pad = 0.5 * max(x1 - x0, y1 - y0)
    points = rng.uniform((x0 - pad, y0 - pad), (x1 + pad, y1 + pad), size=(200, 2))
    # vertices and edge midpoints: exact boundary hits and tied edges
    verts = env.vertices
    points = np.vstack([points, verts, (verts + np.roll(verts, -1, axis=0)) / 2.0])
    want = [reference_nearest_point(env, p) for p in points]
    projected = env.project(points)
    for got, ref in zip(projected, want):
        assert got.tobytes() == np.array(ref).tobytes()
    inside = env.contains(points)
    np.testing.assert_array_equal(projected[inside], points[inside])
    assert projected.tobytes() == np.array(
        [p if ok else ref for p, ok, ref in zip(points, inside, want)]
    ).tobytes()


def test_projected_courtyard_plan_matches_reference():
    # the noisy-courtyard benchmark instance: 552 entries, 221 outside the L
    s = 14.0
    env = Environment.polygon([(0, 0), (s, 0), (s, s / 2), (s / 2, s / 2), (s / 2, s), (0, s)])
    h = Hyperparameters(8.33, 12.87, 2.0)
    plan = disk_cover_placement(env, h, AccuracySpec(0.5, 2.0))
    assert int(np.count_nonzero(~env.contains(plan.locations))) == 221
    projected = project_into_environment(plan, env)
    assert_same_entries(projected.entries, reference_projection(plan, env))
    assert env.contains(projected.locations).all()


def test_projected_rectangle_plan_matches_reference():
    h = Hyperparameters(2.0, 4.0, 0.2)
    env = Environment.rectangle((0.0, 0.0), (5.0, 3.0))
    plan = disk_cover_placement(env, h, AccuracySpec(1.0, 2.0))
    projected = project_into_environment(plan, env)
    assert_same_entries(projected.entries, reference_projection(plan, env))
    assert env.contains(projected.locations).all()
