"""Variance-bounded measurement placement.

Three radius/count formulas govern everything here. No number of
repeated measurements at a single site can pull the posterior variance
at distance beyond ``necessary_radius`` under the target; ``n`` repeats
do suffice out to ``sufficient_radius``; and ``required_measurements``
is the smallest repeat count whose sufficient radius reaches a chosen
fraction of the necessary one. The planner covers the environment with
necessary-radius disks, keeps a greedy maximal independent set, and
lawn-mows a three-radius disk around each kept center so that every
environment point ends up within the sufficient radius of a site.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .geometry import Disk, Environment, cover_environment, greedy_mis, lawnmower_rows
from .gp import Hyperparameters, MeasurementMultiset, Posterior

# Largest dense verification, in flops (``_solve_flops``: N^3 / 3 to
# factor plus N^2 G for the variance sweep), run before the tiled local
# bound may take over. 1e10 is about 0.3 s on two cores: cheap enough
# that small plans keep exact reported values.
_DENSE_VERIFY_FLOPS = 1e10

# Margins, in length scales, of the tiled bound's rungs: every tile is
# first bounded from the sites within the first margin of it, and a tile
# whose bound fails the target is bounded again at the next. Any margin
# gives a sound bound; a small one is cheap and still sits far below
# the target on a plan that passes.
_TILE_MARGINS = (0.5, 2.0)


@dataclass(frozen=True)
class AccuracySpec:
    """Target posterior variance and the disk shrink factor.

    ``max_variance`` is the ceiling the plan must achieve at every point
    of the environment. ``shrink_factor`` (> 1) sets how much smaller the
    per-site coverage disks are than the necessary radius; larger values
    mean more sites with fewer repeats each.
    """

    max_variance: float
    shrink_factor: float = 2.0

    def __post_init__(self):
        d = float(self.max_variance)
        a = float(self.shrink_factor)
        if not math.isfinite(d) or d <= 0.0:
            raise ValueError(f"max_variance must be finite and > 0, got {d}")
        if not math.isfinite(a) or a <= 1.0:
            raise ValueError(f"shrink_factor must be finite and > 1, got {a}")
        object.__setattr__(self, "max_variance", d)
        object.__setattr__(self, "shrink_factor", a)


def _check_delta(h: Hyperparameters, delta: float) -> float:
    d = float(delta)
    if not (0.0 < d < h.signal_variance):
        raise ValueError(
            f"variance target must lie in (0, signal_variance={h.signal_variance}), got {d}"
        )
    return d


def necessary_radius(h: Hyperparameters, delta: float) -> float:
    """Distance beyond which no amount of single-site measuring reaches the target.

    l * sqrt(-log(1 - delta/s2)). Strictly increasing in delta; finite
    only for 0 < delta < signal variance.
    """
    d = _check_delta(h, delta)
    return h.length_scale * math.sqrt(-math.log1p(-d / h.signal_variance))


def sufficient_radius(h: Hyperparameters, delta: float, n: int) -> float:
    """Radius certified by ``n`` repeated measurements at one site.

    l * sqrt(-log((1 + w2/(n s2)) (1 - delta/s2))). Raises when the log
    argument reaches 1, meaning ``n`` measurements cannot certify any
    positive radius.
    """
    d = _check_delta(h, delta)
    n = int(n)
    if n < 1:
        raise ValueError(f"measurement count must be >= 1, got {n}")
    arg = (1.0 + h.noise_variance / (n * h.signal_variance)) * (1.0 - d / h.signal_variance)
    if arg >= 1.0:
        raise ValueError(
            f"{n} measurements cannot certify any radius at target {d}; "
            f"need n > {h.noise_variance / d:.6g}"
        )
    return h.length_scale * math.sqrt(-math.log(arg))


def required_measurements(h: Hyperparameters, spec: AccuracySpec) -> int:
    """Fewest repeats per site covering a disk of radius r_necessary/shrink_factor.

    Ceiling of (w2/s2) / ((1 - delta/s2)^(1/a^2 - 1) - 1), clamped to at
    least one; zero measurements observe nothing even in the noiseless
    limit. The defining property is re-checked on every call.
    """
    d = _check_delta(h, spec.max_variance)
    a = spec.shrink_factor
    denom = (1.0 - d / h.signal_variance) ** (1.0 / (a * a) - 1.0) - 1.0
    raw = (h.noise_variance / h.signal_variance) / denom
    n = max(1, math.ceil(raw))
    r_needed = necessary_radius(h, d) / a
    if sufficient_radius(h, d, n) < r_needed * (1.0 - 1e-12):
        raise NumericalError(
            f"repeat count {n} fails to certify radius {r_needed}; formula inconsistency"
        )
    return n


@dataclass(frozen=True)
class MeasurementPlan(MeasurementMultiset):
    """Measurement sites with repeat counts and their generating disks.

    A plan is the multiset of its ``entries``, so it goes wherever a
    ``MeasurementMultiset`` does. ``provenance[i]`` is the index into
    ``sweep_disks`` of the disk whose lawn-mower produced ``entries[i]``,
    and ``rows[i]`` is its lawn-mower row within that disk. A disk's
    entries run row by row, even rows in one direction and odd rows in
    the other. ``mis_disks`` are the independent necessary-radius disks;
    ``sweep_disks`` are the same centers at three times the radius.
    """

    provenance: tuple[int, ...]
    rows: tuple[int, ...]
    mis_disks: tuple[Disk, ...]
    sweep_disks: tuple[Disk, ...]
    measurements_per_site: int

    def __post_init__(self):
        super().__post_init__()
        if not len(self.entries) == len(self.provenance) == len(self.rows):
            raise ValueError("one provenance index and one row per entry are required")
        for idx in self.provenance:
            if not 0 <= int(idx) < len(self.sweep_disks):
                raise ValueError(f"provenance index {idx} out of range")
        for row in self.rows:
            if int(row) < 0:
                raise ValueError(f"row index must be >= 0, got {row}")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of ``verify_plan``.

    ``tiles`` counts the tiles that settled at each margin of
    ``_TILE_MARGINS`` (l/2, then 2l), then the tiles that took the exact
    rung over all sites. ``method`` follows from it: ``"dense"`` when
    no tile was cut, so every grid value is an exact posterior variance,
    and ``"local"`` otherwise. Local values are sound upper bounds,
    except in tiles recomputed exactly, so ``max_variance``, ``argmax``
    and ``mean_variance`` describe the bound; ``passed`` is the exact
    verdict either way.
    """

    max_variance: float
    argmax: tuple[float, float]
    mean_variance: float
    passed: bool
    grid_spacing: float
    grid_count: int
    tiles: tuple[int, ...] = (0,) * (len(_TILE_MARGINS) + 1)

    def __post_init__(self):
        tiles = tuple(int(n) for n in self.tiles)
        if len(tiles) != len(_TILE_MARGINS) + 1 or min(tiles) < 0:
            raise ValueError(
                f"tiles needs {len(_TILE_MARGINS) + 1} counts >= 0, got {self.tiles!r}"
            )
        object.__setattr__(self, "tiles", tiles)

    @property
    def method(self) -> str:
        return "local" if sum(self.tiles) > 0 else "dense"


def default_grid_spacing(env: Environment, h: Hyperparameters, delta: float) -> float:
    """min(necessary radius, environment diameter) / 20.

    The posterior varies on the kernel length scale, which the necessary
    radius never exceeds, so twenty samples per radius cannot straddle a
    variance excursion.
    """
    try:
        r = necessary_radius(h, delta)
    except ValueError:
        return env.diameter / 20.0
    return min(r, env.diameter) / 20.0


def disk_cover_placement(env: Environment, h: Hyperparameters, spec: AccuracySpec) -> MeasurementPlan:
    """Cover the environment with repeat-measurement sites meeting the target.

    Cover the environment with necessary-radius disks, keep a greedy
    maximal independent set, sweep a 3-radius disk around each kept
    center with sites spaced for radius r/shrink_factor, and assign every
    site the required repeat count. Each sweep runs its lawn-mower rows
    bottom to top in boustrophedon order: even rows left to right, odd
    rows right to left. Per-disk site counts are bounded by
    ceil(6 a / sqrt(2))^2.
    """
    r_max = necessary_radius(h, spec.max_variance)
    n_site = required_measurements(h, spec)
    mis = tuple(greedy_mis(cover_environment(env, r_max)))
    sweep = tuple(Disk(d.center, 3.0 * r_max) for d in mis)
    per_disk_cap = math.ceil(6.0 * spec.shrink_factor / math.sqrt(2.0)) ** 2
    entries: list[tuple[tuple[float, float], int]] = []
    provenance: list[int] = []
    rows: list[int] = []
    small = r_max / spec.shrink_factor
    for i, big in enumerate(sweep):
        lanes = lawnmower_rows(big, small)
        count = sum(len(lane) for lane in lanes)
        if count > per_disk_cap:
            raise NumericalError(
                f"sweep of disk {i} produced {count} sites, above the cap {per_disk_cap}"
            )
        for j, lane in enumerate(lanes):
            entries.extend((p, n_site) for p in (lane if j % 2 == 0 else lane[::-1]))
            provenance.extend([i] * len(lane))
            rows.extend([j] * len(lane))
    return MeasurementPlan(
        entries=tuple(entries),
        provenance=tuple(provenance),
        rows=tuple(rows),
        mis_disks=mis,
        sweep_disks=sweep,
        measurements_per_site=n_site,
    )


def project_into_environment(plan: MeasurementPlan, env: Environment) -> MeasurementPlan:
    """The plan with every site outside ``env`` moved to the closest point of ``env``.

    The lawn-mower puts sites outside the environment near its boundary,
    since sweep disks cross it; this keeps them where a robot may go
    (the CLI's ``--hard-boundary``). Counts, provenance and rows stay
    with their entries, so several entries may land on one point.
    """
    locations = env.project(plan.locations).tolist()
    entries = tuple((tuple(loc), n) for loc, (_, n) in zip(locations, plan.entries))
    return dataclasses.replace(plan, entries=entries)


def verify_plan(
    plan: MeasurementMultiset,
    env: Environment,
    h: Hyperparameters,
    delta: float,
    grid_spacing: float | None = None,
) -> VerificationReport:
    """Posterior-variance sweep of the plan over an environment grid.

    ``plan`` is any measurement multiset, a ``MeasurementPlan`` or bare
    sites. Recomputes everything from its distinct sites; nothing is
    trusted from the planner. The grid values come from
    ``_variance_ladder`` over the tiles of ``_ladder_tiles``, and
    ``passed`` holds when their maximum is at most ``delta``, with no
    tolerance. With no tiles every value is exact; with tiles a value
    may be an upper bound, but only where it is at most ``delta``, so
    the verdict is the exact one either way.
    """
    d = float(delta)
    if grid_spacing is None:
        grid_spacing = default_grid_spacing(env, h, d)
    step = float(grid_spacing)
    if not math.isfinite(step) or step <= 0.0:
        raise ValueError(f"grid spacing must be finite and > 0, got {step}")
    grid = env.grid(step)
    sites, counts = plan.distinct()
    tiles = _ladder_tiles(sites, grid, h)
    var, settled = _variance_ladder(sites, counts, grid, tiles, h, d)
    top = int(np.argmax(var))
    return VerificationReport(
        max_variance=float(var[top]),
        argmax=(float(grid[top, 0]), float(grid[top, 1])),
        mean_variance=float(var.mean()),
        passed=bool(var[top] <= d),
        grid_spacing=step,
        grid_count=int(grid.shape[0]),
        tiles=settled,
    )


def _solve_flops(sites: int, points: int) -> float:
    """Flops of a dense variance sweep: N^3 / 3 to factor, N^2 per query point."""
    return sites**3 / 3.0 + float(sites) * sites * points


def _ladder_tiles(sites: np.ndarray, grid: np.ndarray, h: Hyperparameters) -> list:
    """``_tiles`` for the ladder, or none when the dense solve alone is cheap enough.

    Tiles pay only above ``_DENSE_VERIFY_FLOPS``, and only when their
    solves at the first margin cost less than the dense one: in an
    environment about a length scale wide every tile sees most sites.
    """
    dense_flops = _solve_flops(sites.shape[0], grid.shape[0])
    if dense_flops <= _DENSE_VERIFY_FLOPS:
        return []
    l = h.length_scale
    tiles = _tiles(sites, grid, l, [m * l for m in _TILE_MARGINS])
    narrow_flops = sum(_solve_flops(near[0].size, points.size) for points, near in tiles)
    return tiles if narrow_flops < dense_flops else []


def _tiles(sites: np.ndarray, grid: np.ndarray, side: float, margins) -> list:
    """(grid point indices, nearby site indices per margin) of each square tile of the grid.

    Tiles of the given side are anchored at the grid's lower-left point
    and listed in lexicographic order, so every run sees the same tiles.
    For each of ``margins`` (distances), a tile's nearby sites, in site
    order, are those within that margin of the tile along each axis.
    """
    origin = grid.min(axis=0)
    keys = np.floor((grid - origin) / side).astype(np.int64)
    # one integer per tile in lexicographic order; one stable sort of them
    # groups the points by tile, each tile's in grid order
    rows = int(keys[:, 1].max()) + 1
    key = keys[:, 0] * rows + keys[:, 1]
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    tiles = key[order[starts]]
    members = np.split(order, starts[1:])
    centres = origin + (np.column_stack(np.divmod(tiles, rows)) + 0.5) * side
    near = [_near(centres, sites, 0.5 * side + m) for m in margins]
    return [(points, tuple(by_margin)) for points, *by_margin in zip(members, *near)]


def _near(centres: np.ndarray, points: np.ndarray, reach: float) -> list:
    """Indices of the points within ``reach`` of each centre: one ascending int64 array per centre.

    The distance is max(|dx|, |dy|): the test, and so the sets, of
    scipy's ``cKDTree.query_ball_point`` with p = inf. The points are cut
    into at most 257 strips along x, each at least ``reach`` wide and
    sorted by y, so a centre's candidates are one y-window in each of the
    few strips that its square of half-side ``reach`` meets. Every window
    is widened a little, so rounding cannot drop a point, and the exact
    test settles each candidate.
    """
    if centres.shape[0] == 0 or points.shape[0] == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(centres.shape[0])]
    x0 = points[:, 0].min()
    width = max(reach, (points[:, 0].max() - x0) / 256.0)
    # half-width of the windows: reach, plus far more than rounding moves it
    half = reach + 1e-9 * (reach + np.abs(points).max() + np.abs(centres).max())
    strip = np.floor((points[:, 0] - x0) / width).astype(np.int64)
    order = np.lexsort((points[:, 1], strip))
    ys = points[order, 1]
    starts = np.searchsorted(strip[order], np.arange(strip.max() + 2))
    first = np.floor((centres[:, 0] - half - x0) / width)
    last = np.floor((centres[:, 0] + half - x0) / width)
    found = []
    for s in range(starts.size - 1):
        who = np.flatnonzero((first <= s) & (last >= s))
        column = ys[starts[s] : starts[s + 1]]
        lo = starts[s] + np.searchsorted(column, centres[who, 1] - half)
        hi = starts[s] + np.searchsorted(column, centres[who, 1] + half, "right")
        counts = hi - lo
        owner = np.repeat(who, counts)
        cand = order[np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
        dx = points[cand, 0] - centres[owner, 0]
        dy = points[cand, 1] - centres[owner, 1]
        keep = np.maximum(np.abs(dx), np.abs(dy)) <= reach
        found.append(owner[keep] * points.shape[0] + cand[keep])
    pairs = np.sort(np.concatenate(found))
    owner, index = np.divmod(pairs, points.shape[0])
    return np.split(index, np.searchsorted(owner, np.arange(1, centres.shape[0])))


def _variance_ladder(
    sites: np.ndarray,
    counts: np.ndarray,
    grid: np.ndarray,
    tiles: list,
    h: Hyperparameters,
    delta: float,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Posterior variance at every grid point, or an upper bound on it that meets ``delta``.

    Each tile's points (see ``_tiles``) get the variance given only the
    tile's nearby sites at the first margin, factored once per tile;
    dropping observations never lowers GP posterior variance, so this
    bounds the variance given all sites from above. Tiles whose bound
    exceeds ``delta`` are bounded again at the next margin, but only
    while the flops spent so far plus those re-runs stay below one dense
    solve over all sites; otherwise they skip straight to it. The last
    rung is that dense solve: it takes the points of every tile still
    failing, or the whole grid when ``tiles`` is empty.

    Returns the values and the number of tiles settled at each margin,
    then the number that took the exact rung; with no tiles there are
    ``len(_TILE_MARGINS)`` margins and every count is zero.
    """
    var = np.empty(grid.shape[0])
    rungs = len(tiles[0][1]) if tiles else len(_TILE_MARGINS)
    settled = [0] * (rungs + 1)
    budget, spent = _solve_flops(sites.shape[0], grid.shape[0]), 0.0
    pending = range(len(tiles))
    for rung in range(rungs):
        cost = sum(_solve_flops(tiles[t][1][rung].size, tiles[t][0].size) for t in pending)
        if not pending or (rung and spent + cost >= budget):
            break
        spent += cost
        failing = []
        for t in pending:
            points, near = tiles[t][0], tiles[t][1][rung]
            var[points] = Posterior(sites[near], h, counts[near]).variance(grid[points])
            if var[points].max() > delta:
                failing.append(t)
        settled[rung] = len(pending) - len(failing)
        pending = failing
    settled[rungs] = len(pending)
    if len(pending) == len(tiles):
        var = Posterior(sites, h, counts).variance(grid)
    elif pending:
        exact = np.zeros(grid.shape[0], dtype=bool)
        for t in pending:
            exact[tiles[t][0]] = True
        var[exact] = Posterior(sites, h, counts).variance(grid[exact])
    return var, tuple(settled)
