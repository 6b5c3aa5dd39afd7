"""The tiled local verification bound against the dense sweep.

Dropping observations never lowers GP posterior variance, so the
variance given only the sites near a tile bounds the true variance from
above, at every margin of ``_TILE_MARGINS``. These tests check that
bound against the dense posterior, check how tiles climb the margins,
and check that ``verify_plan`` reaches the dense verdict on every plan,
with exact values wherever the bound alone would fail the plan.
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
from fieldcover.geometry import Environment
from fieldcover.gp import Hyperparameters, Posterior
from fieldcover.placement import (
    AccuracySpec,
    VerificationReport,
    _TILE_MARGINS,
    _solve_flops,
    _tiles,
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


def ladder(sites, counts, grid, h, delta, margins=_TILE_MARGINS):
    """The tiled values and the tiles settled per rung, for margins in length scales."""
    l = h.length_scale
    tiles = _tiles(sites, grid, l, [m * l for m in margins])
    return _variance_ladder(sites, counts, grid, tiles, h, delta)


def local_bound(sites, counts, grid, h, delta, margins=_TILE_MARGINS):
    return ladder(sites, counts, grid, h, delta, margins)[0]


def dense_and_local(plan, env, h, delta, spacing):
    """Exact and tiled variances over the verification grid, and the grid."""
    sites, counts = plan.distinct()
    grid = env.grid(spacing)
    exact = Posterior(sites, h, counts).variance(grid)
    return exact, local_bound(sites, counts, grid, h, delta), grid


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
    grid = env.grid(h.length_scale / 4.0)
    exact = Posterior(sites, h, counts).variance(grid)
    tiles = len(_tiles(sites, grid, h.length_scale, [0.0]))
    wider = None
    for margin in reversed(_TILE_MARGINS):
        # one rung and no target: every tile keeps its bound at this margin,
        # so no value below comes from the exact rung
        bound, settled = ladder(sites, counts, grid, h, math.inf, (margin,))
        assert settled == (tiles, 0)
        assert np.all(bound >= exact - 1e-12 * h.signal_variance)
        # a narrower margin drops sites, so its bound is no lower
        if wider is not None:
            assert np.all(bound >= wider - 1e-12 * h.signal_variance)
        wider = bound


@pytest.mark.parametrize("seed", range(6))
def test_local_verdict_matches_dense(seed):
    env, h, spec = instance(seed)
    plan = disk_cover_placement(env, h, spec)
    spacing = h.length_scale / 4.0
    exact, bound, _ = dense_and_local(plan, env, h, spec.max_variance, spacing)
    assert exact.max() <= bound.max() <= spec.max_variance
    assert bound.mean() >= exact.mean()

    # A target between the exact maximum and the bound's: the failing
    # tiles are recomputed exactly, so the plan still passes.
    assert bound.max() > exact.max()
    between = (bound.max() + exact.max()) / 2.0
    _, rescued, _ = dense_and_local(plan, env, h, between, spacing)
    assert exact.max() <= rescued.max() <= between

    # A target just below the exact maximum: both fail, on exact values.
    below = exact.max() * (1.0 - 1e-9)
    _, failed, _ = dense_and_local(plan, env, h, below, spacing)
    assert failed.max() > below
    assert failed.max() == pytest.approx(exact.max(), rel=1e-12)
    assert int(np.argmax(failed)) == int(np.argmax(exact))


def test_tiles_failing_at_the_narrow_margin_settle_at_the_wide_one(monkeypatch):
    env, h, spec = instance(0)
    sites, counts = disk_cover_placement(env, h, spec).distinct()
    grid = env.grid(h.length_scale / 4.0)
    narrow = local_bound(sites, counts, grid, h, math.inf, _TILE_MARGINS[:1])
    wide = local_bound(sites, counts, grid, h, math.inf, _TILE_MARGINS[1:])
    # a target the wide bound meets everywhere and the narrow one does not
    assert wide.max() < narrow.max()
    target = (narrow.max() + wide.max()) / 2.0
    sizes = spy_factorizations(monkeypatch)
    var, settled = ladder(sites, counts, grid, h, target)
    assert settled[0] > 0 and settled[1] > 0 and settled[2] == 0
    # one factorization per tile, one per re-run tile, no dense solve
    assert len(sizes) == settled[0] + 2 * settled[1]
    for points, _ in _tiles(sites, grid, h.length_scale, [0.0]):
        rerun = narrow[points].max() > target
        np.testing.assert_array_equal(var[points], (wide if rerun else narrow)[points])
    assert var.max() <= target


def test_tiles_failing_both_margins_report_exact_values(monkeypatch):
    env, h, spec = instance(0)
    sites, counts = disk_cover_placement(env, h, spec).distinct()
    grid = env.grid(h.length_scale / 4.0)
    exact = Posterior(sites, h, counts).variance(grid)
    wide = local_bound(sites, counts, grid, h, math.inf, _TILE_MARGINS[1:])
    target = exact.max() * (1.0 - 1e-9)
    sizes = spy_factorizations(monkeypatch)
    var, settled = ladder(sites, counts, grid, h, target)
    assert settled[1] > 0 and settled[2] > 0
    # every tile failed the narrow margin, so each was re-run at the wide
    # one before the dense solve over all sites
    assert settled[0] == 0 and len(sizes) == 2 * sum(settled) + 1
    assert sizes[-1] == sites.shape[0]
    for points, _ in _tiles(sites, grid, h.length_scale, [0.0]):
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
    exact = Posterior(sites, h, counts).variance(grid)
    target = exact.max() * (1.0 - 1e-9)
    l = h.length_scale
    tiles = _tiles(sites, grid, l, [m * l for m in _TILE_MARGINS])
    narrow = local_bound(sites, counts, grid, h, math.inf, _TILE_MARGINS[:1])
    failing = [t for t, (points, _) in enumerate(tiles) if narrow[points].max() > target]
    # the narrow bound fails almost everywhere, and re-running those tiles
    # at the wide margin would cost more than the dense solve
    assert len(failing) >= 0.75 * len(tiles)
    spent = sum(_solve_flops(near[0].size, points.size) for points, near in tiles)
    rerun = sum(_solve_flops(tiles[t][1][1].size, tiles[t][0].size) for t in failing)
    assert spent + rerun >= _solve_flops(sites.shape[0], grid.shape[0])

    monkeypatch.setattr(placement, "_DENSE_VERIFY_FLOPS", 0.0)
    sizes = spy_factorizations(monkeypatch)
    report = verify_plan(plan, env, h, target, spacing)
    assert sizes == [near[0].size for _, near in tiles] + [sites.shape[0]]
    assert report.method == "local" and not report.passed
    assert report.tiles == (len(tiles) - len(failing), 0, len(failing))
    top = int(np.argmax(exact))
    assert report.max_variance == pytest.approx(exact[top], rel=1e-12)
    assert report.argmax == (float(grid[top, 0]), float(grid[top, 1]))


def test_ablated_plan_fails_exactly_inside_missing_disk():
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
    _, bound, _ = dense_and_local(plan, env, h, delta, spacing)
    assert bound.max() <= delta
    exact, bound, grid = dense_and_local(ablated, env, h, delta, spacing)
    assert exact.max() > delta and bound.max() > delta
    assert bound.max() == pytest.approx(exact.max(), rel=1e-12)
    top = int(np.argmax(bound))
    assert top == int(np.argmax(exact))
    dropped = plan.sweep_disks[1]
    assert math.dist(grid[top], dropped.center) <= dropped.radius


def test_empty_neighbourhood_falls_back_to_prior():
    # every tile but the few around the single site sees no local site
    h = Hyperparameters(1.0, 2.0, 0.1)
    grid = Environment.rectangle((0.0, 0.0), (12.0, 1.0)).grid(0.5)
    sites, counts = np.array([[0.5, 0.5]]), np.array([3])
    exact = Posterior(sites, h, counts).variance(grid)
    for margin in _TILE_MARGINS:
        bound = local_bound(sites, counts, grid, h, math.inf, (margin,))
        # the tile [k, k + 1) sees the site only while k <= margin + 0.5
        far = grid[:, 0] >= math.floor(margin + 0.5) + 1.0
        assert np.all(bound[far] == h.signal_variance)
        assert np.all(bound[~far] < h.signal_variance)
        assert np.all(bound >= exact)
        # with a finite target those tiles are recomputed exactly
        np.testing.assert_allclose(
            local_bound(sites, counts, grid, h, 1.0, (margin,))[far], exact[far], rtol=1e-12
        )


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
    exact = Posterior(sites, h, counts).variance(grid)
    bound, settled = ladder(sites, counts, grid, h, spec.max_variance)
    # the narrow margin certifies every tile
    assert report.tiles == settled == (len(_tiles(sites, grid, h.length_scale, [0.0])), 0, 0)
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
    verify_plan(pruned, env, h, spec.max_variance, 0.3)
    assert len(calls) == 1 and calls[0][3]
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
    exact = Posterior(sites, h, counts).variance(env.grid(2.0))
    assert report.passed == bool(exact.max() <= 0.12)
    assert report.max_variance >= exact.max()
