"""The tiled local verification bound against the dense sweep.

Dropping observations never lowers GP posterior variance, so the
variance given only the sites near a tile bounds the true variance from
above, at every margin of ``_TILE_MARGINS``. These tests check that
bound, computed tile by tile as an oracle, against the dense posterior,
check how tiles climb the margins and how the first rung can end (no
tile cut, or every tile on to the exact rung), and check that
``verify_plan`` reaches the dense verdict on every plan, with exact
values wherever the bound alone would fail the plan.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldcover import io as fileio
from fieldcover import placement
from fieldcover.geometry import Environment, Lattice, _near
from fieldcover.gp import Hyperparameters, MeasurementMultiset, Posterior
from fieldcover.placement import (
    AccuracySpec,
    VerificationReport,
    _TILE_MARGINS,
    _solve_flops,
    _Tiles,
    _variance_ladder,
    default_grid_spacing,
    disk_cover_placement,
    necessary_radius,
    verify_plan,
)


def instance(seed: int):
    """A random rectangle or star polygon a few length scales across, with
    hyperparameters, target and shrink factor drawn as in the acceptance run."""
    rng = np.random.default_rng(seed)
    h = Hyperparameters(
        float(rng.uniform(1.5, 4.0)),
        float(rng.uniform(2.0, 10.0)),
        float(rng.uniform(0.05, 0.5)),
    )
    l = h.length_scale
    if seed % 2 == 0:
        w, hgt = rng.uniform(2.0, 5.0, size=2) * l
        x, y = rng.uniform(-2.0, 2.0, size=2) * l
        env = Environment.rectangle((x, y), (x + w, y + hgt))
    else:
        n = 7
        angles = 2 * math.pi * (np.arange(n) + rng.uniform(0.15, 0.85, size=n)) / n
        radii = rng.uniform(1.0, 2.5, size=n) * l
        env = Environment.polygon(np.column_stack([radii * np.cos(angles), radii * np.sin(angles)]))
    delta = h.signal_variance * float(rng.uniform(0.2, 0.6))
    alpha = (1.5, 2.0, 3.0)[seed % 3]
    return env, h, AccuracySpec(delta, alpha)


def members(env, step, l) -> list:
    """The grid indices of each tile of ``env``'s lattice, from ``_Tiles``."""
    tiles = _Tiles(env.lattice(step), l)
    return [tiles.indices(t) for t in range(len(tiles))]


def margin_bound(sites, counts, env, step, h, margin):
    """The local bound at one margin, in length scales, over ``env.grid(step)``,
    computed tile by tile from ``_Tiles``, ``_near`` and ``Posterior``, and
    the flops it costs."""
    l = h.length_scale
    tiles = _Tiles(env.lattice(step), l)
    bound, flops = np.empty(len(tiles.lattice)), 0.0
    for t, near in enumerate(_near(tiles.centres, sites, 0.5 * l + margin * l)):
        points = tiles.indices(t)
        bound[points] = Posterior(sites[near], h, counts[near]).variance(tiles.sub(t))
        flops += _solve_flops(near.size, points.size)
    return bound, flops


def ladder(monkeypatch, sites, counts, env, step, h, delta, margins=_TILE_MARGINS):
    """``_variance_ladder`` over ``env.lattice(step)`` at the given margins with
    no dense budget, so the grid is tiled whenever the first rung costs less
    than the dense solve."""
    monkeypatch.setattr(placement, "_TILE_MARGINS", tuple(margins))
    monkeypatch.setattr(placement, "_DENSE_VERIFY_FLOPS", 0.0)
    return _variance_ladder(sites, counts, env.lattice(step), h, delta)


def dense_and_local(monkeypatch, plan, env, h, delta, spacing):
    """The exact variances over the verification grid, and ``verify_plan``'s
    report with no dense budget."""
    sites, counts = plan.distinct()
    exact = Posterior(sites, h, counts).variance(env.lattice(spacing))
    monkeypatch.setattr(placement, "_DENSE_VERIFY_FLOPS", 0.0)
    return exact, verify_plan(plan, env, h, delta, spacing)


def spy_factorizations(monkeypatch) -> list:
    """Record the site count of every ``Posterior`` that placement factors."""
    sizes = []

    class Spy(Posterior):
        def __init__(self, sites, *args, **kwargs):
            sizes.append(len(sites))
            super().__init__(sites, *args, **kwargs)

    monkeypatch.setattr(placement, "Posterior", Spy)
    return sizes


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), keep=st.floats(0.2, 1.0))
def test_local_bound_never_below_dense(seed, keep):
    env, h, spec = instance(seed)
    sites, counts = disk_cover_placement(env, h, spec).distinct()
    # thinning the plan leaves gaps, so tiles see variances well above zero
    chosen = np.random.default_rng(seed).random(sites.shape[0]) < keep
    chosen[0] = True
    sites, counts = sites[chosen], counts[chosen]
    step = h.length_scale / 4.0
    grid = env.grid(step)
    exact = Posterior(sites, h, counts).variance(env.lattice(step))
    tiles = len(members(env, step, h.length_scale))
    dense = _solve_flops(sites.shape[0], grid.shape[0])
    wider = None
    for margin in reversed(_TILE_MARGINS):
        bound, flops = margin_bound(sites, counts, env, step, h, margin)
        assert np.all(bound >= exact - 1e-12 * h.signal_variance)
        # a narrower margin drops sites, so its bound is no lower
        if wider is not None:
            assert np.all(bound >= wider - 1e-12 * h.signal_variance)
        wider = bound
        # one rung and no target: every tile keeps its bound at this
        # margin, unless the rung costs more than the dense solve
        with pytest.MonkeyPatch.context() as mp:
            var, settled = ladder(mp, sites, counts, env, step, h, math.inf, (margin,))
        if flops < dense:
            assert settled == (tiles, 0)
            np.testing.assert_array_equal(var, bound)
        else:
            assert settled == (0, 0)
            np.testing.assert_array_equal(var, exact)


@pytest.mark.parametrize("seed", range(6))
def test_local_verdict_matches_dense(seed, monkeypatch):
    env, h, spec = instance(seed)
    plan = disk_cover_placement(env, h, spec)
    spacing = h.length_scale / 4.0
    exact, bound = dense_and_local(monkeypatch, plan, env, h, spec.max_variance, spacing)
    assert bound.method == "local"
    assert exact.max() <= bound.max_variance <= spec.max_variance
    assert bound.mean_variance >= exact.mean()

    # A target between the exact maximum and the bound's: the failing
    # tiles are recomputed exactly, so the plan still passes.
    assert bound.max_variance > exact.max()
    between = (bound.max_variance + exact.max()) / 2.0
    _, rescued = dense_and_local(monkeypatch, plan, env, h, between, spacing)
    assert rescued.passed and exact.max() <= rescued.max_variance <= between

    # A target just below the exact maximum: both fail, on exact values.
    below = exact.max() * (1.0 - 1e-9)
    _, failed = dense_and_local(monkeypatch, plan, env, h, below, spacing)
    assert not failed.passed and failed.max_variance > below
    assert failed.max_variance == pytest.approx(exact.max(), rel=1e-12)
    top = int(np.argmax(exact))
    grid = env.grid(spacing)
    assert failed.argmax == (float(grid[top, 0]), float(grid[top, 1]))


def test_tiles_failing_at_the_narrow_margin_settle_at_the_wide_one(monkeypatch):
    env, h, spec = instance(0)
    sites, counts = disk_cover_placement(env, h, spec).distinct()
    step = h.length_scale / 4.0
    narrow, _ = margin_bound(sites, counts, env, step, h, _TILE_MARGINS[0])
    wide, _ = margin_bound(sites, counts, env, step, h, _TILE_MARGINS[1])
    # a target the wide bound meets everywhere and the narrow one does not
    assert wide.max() < narrow.max()
    target = (narrow.max() + wide.max()) / 2.0
    sizes = spy_factorizations(monkeypatch)
    var, settled = ladder(monkeypatch, sites, counts, env, step, h, target)
    assert settled[0] > 0 and settled[1] > 0 and settled[2] == 0
    # one factorization per tile, one per re-run tile, no dense solve
    assert len(sizes) == settled[0] + 2 * settled[1]
    for points in members(env, step, h.length_scale):
        rerun = narrow[points].max() > target
        np.testing.assert_array_equal(var[points], (wide if rerun else narrow)[points])
    assert var.max() <= target


def test_tiles_failing_both_margins_report_exact_values(monkeypatch):
    env, h, spec = instance(0)
    sites, counts = disk_cover_placement(env, h, spec).distinct()
    step = h.length_scale / 4.0
    exact = Posterior(sites, h, counts).variance(env.lattice(step))
    wide, _ = margin_bound(sites, counts, env, step, h, _TILE_MARGINS[1])
    target = exact.max() * (1.0 - 1e-9)
    sizes = spy_factorizations(monkeypatch)
    var, settled = ladder(monkeypatch, sites, counts, env, step, h, target)
    assert settled[1] > 0 and settled[2] > 0
    # every tile failed the narrow margin, so each was re-run at the wide
    # one before the dense solve over all sites
    assert settled[0] == 0 and len(sizes) == 2 * sum(settled) + 1
    assert sizes[-1] == sites.shape[0]
    for points in members(env, step, h.length_scale):
        if wide[points].max() > target:
            np.testing.assert_allclose(var[points], exact[points], rtol=1e-12)
        else:
            np.testing.assert_array_equal(var[points], wide[points])
    assert var.max() == pytest.approx(exact.max(), rel=1e-12)
    assert int(np.argmax(var)) == int(np.argmax(exact))


def test_failing_tiles_skip_the_wide_margin_when_it_costs_more_than_dense(monkeypatch):
    env, h, spec = instance(5)
    plan = disk_cover_placement(env, h, spec)
    sites, counts = plan.distinct()
    spacing = h.length_scale / 4.0
    grid = env.grid(spacing)
    exact = Posterior(sites, h, counts).variance(env.lattice(spacing))
    target = exact.max() * (1.0 - 1e-9)
    l = h.length_scale
    tiles = members(env, spacing, l)
    centres = _Tiles(env.lattice(spacing), l).centres
    narrow_near, wide_near = (_near(centres, sites, 0.5 * l + m * l) for m in _TILE_MARGINS)
    narrow, spent = margin_bound(sites, counts, env, spacing, h, _TILE_MARGINS[0])
    failing = [t for t, points in enumerate(tiles) if narrow[points].max() > target]
    # the narrow bound fails almost everywhere, and re-running those tiles
    # at the wide margin would cost more than the dense solve
    assert len(failing) >= 0.75 * len(tiles)
    rerun = sum(_solve_flops(wide_near[t].size, tiles[t].size) for t in failing)
    assert spent + rerun >= _solve_flops(sites.shape[0], grid.shape[0])

    monkeypatch.setattr(placement, "_DENSE_VERIFY_FLOPS", 0.0)
    sizes = spy_factorizations(monkeypatch)
    report = verify_plan(plan, env, h, target, spacing)
    assert sizes == [near.size for near in narrow_near] + [sites.shape[0]]
    assert report.method == "local" and not report.passed
    assert report.tiles == (len(tiles) - len(failing), 0, len(failing))
    top = int(np.argmax(exact))
    assert report.max_variance == pytest.approx(exact[top], rel=1e-12)
    assert report.argmax == (float(grid[top, 0]), float(grid[top, 1]))


def test_tiles_costing_more_than_the_dense_solve_are_not_cut(monkeypatch):
    # a square 1.5 length scales wide, its sites within a length scale of
    # each of its four tile centres: each tile sees every site at the
    # narrow margin, so the first rung alone costs more than the dense
    # solve, and the plan is verified densely
    h = Hyperparameters(1.0, 1.0, 0.1)
    env = Environment.rectangle((0.0, 0.0), (1.5, 1.5))
    lattice = np.linspace(0.5, 1.5, 7)
    plan = MeasurementMultiset(tuple(((x, y), 2) for x in lattice for y in lattice))
    sites, counts = plan.distinct()
    grid = env.grid(0.1)
    _, narrow_flops = margin_bound(sites, counts, env, 0.1, h, _TILE_MARGINS[0])
    assert narrow_flops >= _solve_flops(sites.shape[0], grid.shape[0])

    monkeypatch.setattr(placement, "_DENSE_VERIFY_FLOPS", 0.0)
    sizes = spy_factorizations(monkeypatch)
    report = verify_plan(plan, env, h, 0.5, 0.1)
    assert sizes == [sites.shape[0]]
    assert report.tiles == (0, 0, 0) and report.method == "dense"
    exact = Posterior(sites, h, counts).variance(env.lattice(0.1))
    top = int(np.argmax(exact))
    assert report.max_variance == float(exact[top])
    assert report.argmax == (float(grid[top, 0]), float(grid[top, 1]))
    assert report.mean_variance == float(exact.mean())


def test_tiles_all_failing_the_narrow_margin_take_the_exact_rung_as_tiles(monkeypatch):
    # the narrow margin costs less than the dense solve, so the grid is
    # cut; a target below every exact value fails every tile there, and
    # re-running them all at the wide margin would cost more than dense
    env, h, spec = instance(5)
    plan = disk_cover_placement(env, h, spec)
    sites, counts = plan.distinct()
    spacing = h.length_scale / 4.0
    grid = env.grid(spacing)
    exact = Posterior(sites, h, counts).variance(env.lattice(spacing))
    target = exact.min() / 2.0
    l = h.length_scale
    tiles = _Tiles(env.lattice(spacing), l)
    _, narrow_flops = margin_bound(sites, counts, env, spacing, h, _TILE_MARGINS[0])
    _, wide_flops = margin_bound(sites, counts, env, spacing, h, _TILE_MARGINS[1])
    dense = _solve_flops(sites.shape[0], grid.shape[0])
    assert narrow_flops < dense <= narrow_flops + wide_flops

    monkeypatch.setattr(placement, "_DENSE_VERIFY_FLOPS", 0.0)
    sizes = spy_factorizations(monkeypatch)
    report = verify_plan(plan, env, h, target, spacing)
    narrow_near = _near(tiles.centres, sites, 0.5 * l + _TILE_MARGINS[0] * l)
    assert sizes == [near.size for near in narrow_near] + [sites.shape[0]]
    # tiles were cut, so the report is local, though every value is exact
    assert report.tiles == (0, 0, len(tiles)) and report.method == "local"
    assert not report.passed
    top = int(np.argmax(exact))
    assert report.max_variance == float(exact[top])
    assert report.argmax == (float(grid[top, 0]), float(grid[top, 1]))
    assert report.mean_variance == float(exact.mean())


def test_ablated_plan_fails_exactly_inside_missing_disk(monkeypatch):
    # the instance of test_placement.test_ablated_plan_fails_inside_missing_disk
    h = Hyperparameters(1.0, 1.0, 30.0)
    delta = 0.9
    s = necessary_radius(h, delta) * math.sqrt(2.0)
    env = Environment.rectangle((0, 0), (3 * s - 1e-9, s - 1e-9))
    plan = disk_cover_placement(env, h, AccuracySpec(delta, 2.0))
    keep = [i for i, p in enumerate(plan.provenance) if p != 1]
    ablated = dataclasses.replace(
        plan,
        entries=tuple(plan.entries[i] for i in keep),
        provenance=tuple(plan.provenance[i] for i in keep),
        rows=tuple(plan.rows[i] for i in keep),
    )
    spacing = default_grid_spacing(env, h, delta)
    _, bound = dense_and_local(monkeypatch, plan, env, h, delta, spacing)
    assert bound.method == "local" and bound.max_variance <= delta
    exact, bound = dense_and_local(monkeypatch, ablated, env, h, delta, spacing)
    assert exact.max() > delta and bound.max_variance > delta
    assert bound.max_variance == pytest.approx(exact.max(), rel=1e-12)
    grid = env.grid(spacing)
    top = int(np.argmax(exact))
    assert bound.argmax == (float(grid[top, 0]), float(grid[top, 1]))
    dropped = plan.sweep_disks[1]
    assert math.dist(bound.argmax, dropped.center) <= dropped.radius


def test_empty_neighbourhood_falls_back_to_prior(monkeypatch):
    # every tile but the few around the single site sees no local site
    h = Hyperparameters(1.0, 2.0, 0.1)
    env = Environment.rectangle((0.0, 0.0), (12.0, 1.0))
    grid = env.grid(0.5)
    sites, counts = np.array([[0.5, 0.5]]), np.array([3])
    exact = Posterior(sites, h, counts).variance(env.lattice(0.5))
    for margin in _TILE_MARGINS:
        bound, _ = margin_bound(sites, counts, env, 0.5, h, margin)
        # the tile [k, k + 1) sees the site only while k <= margin + 0.5
        far = grid[:, 0] >= math.floor(margin + 0.5) + 1.0
        assert np.all(bound[far] == h.signal_variance)
        assert np.all(bound[~far] < h.signal_variance)
        assert np.all(bound >= exact)
        # with a finite target those tiles are recomputed exactly
        var, settled = ladder(monkeypatch, sites, counts, env, 0.5, h, 1.0, (margin,))
        assert settled[-1] > 0
        np.testing.assert_allclose(var[far], exact[far], rtol=1e-12)


def test_courtyard_sized_plan_stays_dense_and_exact():
    # the noisy-courtyard benchmark instance: 344 distinct sites, 21,675 points
    s = 14.0
    env = Environment.polygon([(0, 0), (s, 0), (s, s / 2), (s / 2, s / 2), (s / 2, s), (0, s)])
    h = Hyperparameters(8.33, 12.87, 2.0)
    plan = disk_cover_placement(env, h, AccuracySpec(0.5, 2.0))
    plan = placement.project_into_environment(plan, env)
    report = verify_plan(plan, env, h, 0.5)
    assert report.method == "dense" and report.passed
    # the values the dense sweep gave before the tiled path existed
    assert report.grid_count == 21_675
    assert report.argmax == (14.0, 0.0)
    assert report.max_variance == pytest.approx(0.030122224576622614, rel=1e-12)
    assert report.mean_variance == pytest.approx(0.006691129438863607, rel=1e-12)


def test_open_field_sized_plan_is_certified_by_the_narrow_margin():
    # the open-field benchmark instance: 1,180 distinct sites, 56,644 points
    h = Hyperparameters(8.33, 12.87, 0.0361)
    env = Environment.rectangle((0.0, 0.0), (60.0, 60.0))
    plan = disk_cover_placement(env, h, AccuracySpec(4.0, 2.0))
    report = verify_plan(plan, env, h, 4.0)
    assert report.method == "local" and report.passed
    assert report.tiles == (64, 0, 0)
    # the values the tiled bound gave when this case was pinned
    assert report.grid_count == 56_644
    assert report.argmax == (0.0, 0.0)
    assert report.max_variance == pytest.approx(0.013113902703421942, rel=1e-12)
    assert report.mean_variance == pytest.approx(0.004684430038499047, rel=1e-12)


def test_method_round_trips_through_verification_json(tmp_path):
    for method, tiles in (("dense", (0, 0, 0)), ("local", (61, 2, 1)), ("local", (0, 0, 5))):
        report = VerificationReport(0.4321, (1.5, 0.25), 0.2, True, 0.05, 2501, tiles)
        assert report.method == method
        path = tmp_path / f"{method}.json"
        fileio.write_json(path, fileio.verification_to_payload(report))
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["method"] == method
        assert payload["tiles"] == list(tiles)
        # the written method fits the written tiles: dense exactly when no tile was cut
        assert (payload["method"] == "dense") == (sum(payload["tiles"]) == 0)
    for tiles in ((3, 1), (3, -1, 0)):
        with pytest.raises(ValueError, match="tiles"):
            dataclasses.replace(report, tiles=tiles)
    with pytest.raises(TypeError):
        VerificationReport(0.4321, (1.5, 0.25), 0.2, True, 0.05, 2501, method="local")


def test_local_path_is_taken_when_tiles_are_cheaper(monkeypatch):
    # 2317 distinct sites, 2601 points: above the dense budget, and a
    # tile sees about a quarter of the sites
    h = Hyperparameters(1.0, 1.0, 0.1)
    spec = AccuracySpec(0.5, 2.0)
    env = Environment.rectangle((0.0, 0.0), (15.0, 15.0))
    plan = disk_cover_placement(env, h, spec)
    report = verify_plan(plan, env, h, spec.max_variance, 0.3)
    assert report.method == "local" and report.passed
    sites, counts = plan.distinct()
    grid = env.grid(0.3)
    exact = Posterior(sites, h, counts).variance(env.lattice(0.3))
    bound, settled = _variance_ladder(sites, counts, env.lattice(0.3), h, spec.max_variance)
    # the narrow margin certifies every tile
    assert report.tiles == settled == (len(members(env, 0.3, h.length_scale)), 0, 0)
    top = int(np.argmax(bound))
    assert report.max_variance == float(bound[top]) >= float(exact.max())
    assert report.argmax == (float(grid[top, 0]), float(grid[top, 1]))
    assert report.mean_variance == float(bound.mean())

    # A plan with entries dropped by hand is verified on its own sites.
    # It is within the dense budget, so the budget is lowered to reach
    # the tiled path.
    pruned = dataclasses.replace(
        plan,
        entries=plan.entries[::2],
        provenance=plan.provenance[::2],
        rows=plan.rows[::2],
    )
    calls = []

    def spy(*args):
        calls.append(args)
        return _variance_ladder(*args)

    monkeypatch.setattr(placement, "_DENSE_VERIFY_FLOPS", 0.0)
    monkeypatch.setattr(placement, "_variance_ladder", spy)
    report = verify_plan(pruned, env, h, spec.max_variance, 0.3)
    assert len(calls) == 1 and report.method == "local"
    np.testing.assert_array_equal(calls[0][0], pruned.distinct()[0])


def test_tiles_that_see_most_sites_stay_dense():
    # 3373 distinct sites in a square 1.2 length scales wide: the dense
    # sweep is above its budget, but even at the narrow margin the four
    # tiles would factor most sites, so one dense solve is cheaper
    h = Hyperparameters(8.33, 12.87, 0.0361)
    env = Environment.rectangle((0.0, 0.0), (10.0, 10.0))
    plan = disk_cover_placement(env, h, AccuracySpec(0.03, 2.0))
    sites, _ = plan.distinct()
    assert _solve_flops(sites.shape[0], env.grid(2.0).shape[0]) > placement._DENSE_VERIFY_FLOPS
    report = verify_plan(plan, env, h, 0.03, 2.0)
    assert report.method == "dense" and report.tiles == (0, 0, 0)


def test_square_a_few_length_scales_wide_takes_the_local_path_with_the_dense_verdict():
    # 3797 distinct sites in a square 2.4 length scales wide: a tile sees
    # under half of them at the narrow margin
    h = Hyperparameters(8.33, 12.87, 0.0361)
    env = Environment.rectangle((0.0, 0.0), (20.0, 20.0))
    plan = disk_cover_placement(env, h, AccuracySpec(0.12, 2.0))
    report = verify_plan(plan, env, h, 0.12, 2.0)
    assert report.method == "local"
    sites, counts = plan.distinct()
    exact = Posterior(sites, h, counts).variance(env.lattice(2.0))
    assert report.passed == bool(exact.max() <= 0.12)
    assert report.max_variance >= exact.max()


def legacy_tiles(grid, side):
    """The tiles as they were cut from a materialised grid: one stable sort of
    per-point keys. A test-only copy, kept as the byte-identity oracle."""
    origin = np.array([grid[:, 0].min(), grid[:, 1].min()])
    keys = np.floor((grid - origin) / side).astype(np.int64)
    rows = int(keys[:, 1].max()) + 1
    key = keys[:, 0] * rows + keys[:, 1]
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    centres = origin + (np.column_stack(np.divmod(key[order[starts]], rows)) + 0.5) * side
    cuts = starts.tolist() + [order.size]
    return [order[a:b] for a, b in zip(cuts, cuts[1:])], centres


def lattice_of(points):
    """Grid points in grid order as a ``Lattice`` on their distinct x and y
    values, masked to the points."""
    xs, i = np.unique(points[:, 0], return_inverse=True)
    ys, j = np.unique(points[:, 1], return_inverse=True)
    inside = np.zeros((xs.size, ys.size), dtype=bool)
    inside[i, j] = True
    grid = Lattice(xs, ys, inside)
    assert grid.points().tobytes() == points.tobytes()
    return grid


def legacy_verify_plan(plan, env, h, delta, spacing):
    """``verify_plan`` over ``env.grid``, cut by ``legacy_tiles``: a test-only
    copy of the ladder as it was before tiles were built from the axes. Its
    reads take the lattice of their points (``lattice_of``)."""
    grid = env.grid(spacing)
    sites, counts = plan.distinct()
    margins = placement._TILE_MARGINS
    settled = [0] * (len(margins) + 1)
    budget, spent = _solve_flops(sites.shape[0], grid.shape[0]), 0.0
    l = h.length_scale
    members, pending = [], []
    if budget > placement._DENSE_VERIFY_FLOPS:
        members, centres = legacy_tiles(grid, l)
        pending = list(range(len(members)))
    var = np.empty(grid.shape[0])
    for rung, margin in enumerate(margins):
        if not pending:
            break
        near = _near(centres[pending], sites, 0.5 * l + margin * l)
        cost = sum(_solve_flops(n.size, members[t].size) for t, n in zip(pending, near))
        if spent + cost >= budget:
            if rung == 0:
                members = pending = []
            break
        spent += cost
        failing = []
        for t, n in zip(pending, near):
            points = members[t]
            var[points] = Posterior(sites[n], h, counts[n]).variance(lattice_of(grid[points]))
            if var[points].max() > delta:
                failing.append(t)
        settled[rung] = len(pending) - len(failing)
        pending = failing
    settled[-1] = len(pending)
    if pending or not members:
        exact = slice(None)
        if len(pending) < len(members):
            exact = np.zeros(grid.shape[0], dtype=bool)
            exact[np.concatenate([members[t] for t in pending])] = True
        var[exact] = Posterior(sites, h, counts).variance(lattice_of(grid[exact]))
    top = int(np.argmax(var))
    return VerificationReport(
        float(var[top]),
        (float(grid[top, 0]), float(grid[top, 1])),
        float(var.mean()),
        bool(var[top] <= delta),
        float(spacing),
        int(grid.shape[0]),
        tuple(settled),
    )


def assert_same_verification_json(tmp_path, monkeypatch, plan, env, h, delta, spacing=None) -> VerificationReport:
    """``verify_plan``'s verification.json against the legacy ladder's, byte for
    byte, with every posterior read given a lattice of the same points in the
    same order."""
    if spacing is None:
        spacing = default_grid_spacing(env, h, delta)
    reads = {"lattice": [], "legacy": []}
    variance = Posterior.variance
    written = []
    for name, verify in (("lattice", verify_plan), ("legacy", legacy_verify_plan)):

        def spy(self, grid, seen=reads[name]):
            assert isinstance(grid, Lattice)
            seen.append((self.size, grid.points()))
            return variance(self, grid)

        monkeypatch.setattr(Posterior, "variance", spy)
        report = verify(plan, env, h, delta, spacing)
        path = tmp_path / f"{name}.json"
        fileio.write_json(path, fileio.verification_to_payload(report))
        written.append(path.read_bytes())
    assert written[0] == written[1]
    assert len(reads["lattice"]) == len(reads["legacy"])
    for (size, points), (want_size, want) in zip(reads["lattice"], reads["legacy"]):
        assert size == want_size and points.tobytes() == want.tobytes()
    return report


README_H = Hyperparameters(8.33, 12.87, 0.0361)


def test_tiles_from_the_axes_write_the_grids_verification_json_on_a_square(tmp_path, monkeypatch):
    env = Environment.rectangle((0.0, 0.0), (60.0, 60.0))
    plan = disk_cover_placement(env, README_H, AccuracySpec(4.0))
    report = assert_same_verification_json(tmp_path, monkeypatch, plan, env, README_H, 4.0)
    assert report.tiles == (64, 0, 0)


def test_tiles_from_the_axes_write_the_grids_verification_json_on_an_l_polygon(tmp_path, monkeypatch):
    # the 120 m L: the tiles along the inner corner hold part of their box
    s = 120.0
    env = Environment.polygon([(0, 0), (s, 0), (s, s / 2), (s / 2, s / 2), (s / 2, s), (0, s)])
    plan = disk_cover_placement(env, README_H, AccuracySpec(4.0))
    report = assert_same_verification_json(tmp_path, monkeypatch, plan, env, README_H, 4.0)
    assert report.method == "local" and report.passed


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_tiles_from_the_axes_write_the_grids_verification_json_on_star_polygons(seed, tmp_path, monkeypatch):
    env, h, spec = instance(seed)
    assert env.kind == "polygon"
    plan = disk_cover_placement(env, h, spec)
    monkeypatch.setattr(placement, "_DENSE_VERIFY_FLOPS", 0.0)
    report = assert_same_verification_json(tmp_path, monkeypatch, plan, env, h, spec.max_variance, h.length_scale / 4.0)
    assert report.method == "local"
    # a target below the bound's maximum sends some tiles on up the ladder
    assert_same_verification_json(tmp_path, monkeypatch, plan, env, h, report.max_variance * 0.9, h.length_scale / 4.0)


def test_tiles_from_the_axes_write_the_grids_verification_json_where_tiles_take_the_exact_rung(
    tmp_path, monkeypatch
):
    # the instance of test_ablated_plan_fails_exactly_inside_missing_disk:
    # the tiles around the missing disk take the exact rung, and only they
    h = Hyperparameters(1.0, 1.0, 30.0)
    delta = 0.9
    s = necessary_radius(h, delta) * math.sqrt(2.0)
    env = Environment.rectangle((0, 0), (3 * s - 1e-9, s - 1e-9))
    plan = disk_cover_placement(env, h, AccuracySpec(delta, 2.0))
    keep = [i for i, p in enumerate(plan.provenance) if p != 1]
    ablated = dataclasses.replace(
        plan,
        entries=tuple(plan.entries[i] for i in keep),
        provenance=tuple(plan.provenance[i] for i in keep),
        rows=tuple(plan.rows[i] for i in keep),
    )
    monkeypatch.setattr(placement, "_DENSE_VERIFY_FLOPS", 0.0)
    report = assert_same_verification_json(tmp_path, monkeypatch, ablated, env, h, delta)
    assert 0 < report.tiles[-1] < sum(report.tiles) and not report.passed


def test_tiled_verification_holds_one_value_per_grid_point():
    # 474^2 = 224,676 nodes on the 120 m square, all inside: the values
    # take 8 bytes a node, the tile descriptors a few bytes a column, and
    # one tile's solve and read at most a fixed allowance. A materialised
    # grid alone is 16 bytes a node
    import tracemalloc

    env = Environment.rectangle((0.0, 0.0), (120.0, 120.0))
    plan = disk_cover_placement(env, README_H, AccuracySpec(4.0))
    # a rectangle's grid holds every node of its box
    nodes = env.grid(default_grid_spacing(env, README_H, 4.0)).shape[0]
    assert nodes == 224_676
    tracemalloc.start()
    try:
        report = verify_plan(plan, env, README_H, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.tiles == (225, 0, 0)
    assert peak < 9 * nodes + 1_500_000, peak
