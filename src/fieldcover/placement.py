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

from .errors import GramTooLargeError, NumericalError, check_dense_budget
from .geometry import Disk, Environment, Lattice, _near, cover_environment, greedy_mis, lawnmower_rows
from .gp import Hyperparameters, MeasurementMultiset, Posterior

# Largest dense verification, in flops (``_solve_flops``: N^3 / 3 to
# factor plus N^2 G for the variance sweep), run before the tiled local
# bound may take over. 1e10 is 0.22-0.27 s on two cores (N = 600 to
# 1,500 sites; inverting the factor adds another N^3 / 3 that the count
# leaves out, so no verification method changed with it): cheap enough
# that small plans keep exact reported values.
_DENSE_VERIFY_FLOPS = 1e10

# Margins, in length scales, of the tiled bound's rungs: every tile is
# first bounded from the sites within the first margin of it, and a tile
# whose bound fails the target is bounded again at the next. Any margin
# gives a sound bound; a small one is cheap and still sits far below
# the target on a plan that passes.
_TILE_MARGINS = (0.5, 2.0)

# Peak bytes per site of ``disk_cover_placement``; tracemalloc measured
# 322-339 at shrink factors 10 and 30.
_SITE_BYTES = 335


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
    ceil(6 a / sqrt(2))^2, which the byte budget checks before any sweep.
    """
    r_max = necessary_radius(h, spec.max_variance)
    n_site = required_measurements(h, spec)
    try:
        cover = cover_environment(env, r_max)
    except GramTooLargeError as exc:
        raise GramTooLargeError(f"{exc} at variance target {spec.max_variance:g}; use a larger target") from None
    mis = tuple(greedy_mis(cover))
    sweep = tuple(Disk(d.center, 3.0 * r_max) for d in mis)
    per_disk_cap = math.ceil(6.0 * spec.shrink_factor / math.sqrt(2.0)) ** 2
    sweeps = f"{len(mis)} sweeps of up to {per_disk_cap} sites at shrink factor {spec.shrink_factor:g}"
    check_dense_budget(_SITE_BYTES * len(mis) * per_disk_cap, f"{sweeps}; use a smaller shrink factor")
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
    trusted from the planner. The grid is ``env.lattice``, the points of
    ``env.grid`` kept as two axes, and one value per grid point comes
    from ``_variance_ladder``, in grid order. ``passed`` holds when their
    maximum is at most ``delta``, with no tolerance. With no tile cut
    every value is exact; with tiles a value may be an upper bound, but
    only where it is at most ``delta``, so the verdict is the exact one
    either way.
    """
    d = float(delta)
    if grid_spacing is None:
        grid_spacing = default_grid_spacing(env, h, d)
    step = float(grid_spacing)
    # validated, and counted against the byte budget, by the lattice itself
    lattice = env.lattice(step)
    sites, counts = plan.distinct()
    var, settled = _variance_ladder(sites, counts, lattice, h, d)
    top = int(np.argmax(var))
    return VerificationReport(
        max_variance=float(var[top]),
        argmax=lattice.point(top),
        mean_variance=float(var.mean()),
        passed=bool(var[top] <= d),
        grid_spacing=step,
        grid_count=var.size,
        tiles=settled,
    )


def _solve_flops(sites: int, points: int) -> float:
    """Flops of a dense variance sweep: N^3 / 3 to factor, N^2 per query point.

    This is the panel read's count. ``Posterior`` may read a rung's
    lattice by its cheaper lattice build, but the ladder prices every
    rung, the exact one included, at this count; repricing can move
    tiles.
    """
    return sites**3 / 3.0 + float(sites) * sites * points


class _Tiles:
    """Square tiles of a lattice, as index ranges of its axes.

    Tiles of the given side are anchored at the smallest x and y of the
    nodes that count: per axis, a node's tile is
    floor((coordinate - origin) / side), so a tile is a range of columns
    by a range of rows. Tiles holding no node are skipped, the rest are
    listed in lexicographic order of their tile indices, and each
    tile's nodes are read in grid order, so every run sees the same tiles.
    A tile's grid indices come from the nodes counted per column and
    per tile row; no array over every node is built.
    """

    def __init__(self, lattice: Lattice, side: float):
        self.lattice = lattice
        axes = (lattice.xs, lattice.ys)
        if lattice.inside is None:
            spans = [(0, axis.size) for axis in axes]
        else:
            used = (np.flatnonzero(lattice.inside.any(axis=1)), np.flatnonzero(lattice.inside.any(axis=0)))
            spans = [(int(u[0]), int(u[-1]) + 1) for u in used]
        origin = np.array([axis[lo] for axis, (lo, _) in zip(axes, spans)])
        # per axis: where the tile index changes, and the index from there on
        cuts, keys = [], []
        for axis, o, (lo, hi) in zip(axes, origin, spans):
            key = np.floor((axis[lo:hi] - o) / side).astype(np.int64)
            first = np.flatnonzero(np.diff(key, prepend=-1))
            cuts.append(np.append(lo + first, hi))
            keys.append(key[first])
        self._columns, self._rows = cuts
        # the nodes of each column within each tile row, and the grid index
        # of the first of them
        if lattice.inside is None:
            per = np.broadcast_to(np.diff(self._rows), (lattice.xs.size, self._rows.size - 1))
        else:
            per = np.add.reduceat(lattice.inside[:, : self._rows[-1]], self._rows[:-1], axis=1, dtype=np.int64)
        column = per.sum(axis=1)
        self._per = per
        self._first = (np.cumsum(column) - column)[:, None] + np.cumsum(per, axis=1) - per
        sizes = np.add.reduceat(per[: self._columns[-1]], self._columns[:-1], axis=0)
        band, row = np.nonzero(sizes)
        self._tiles = list(zip(band.tolist(), row.tolist()))
        self.sizes = sizes[band, row].tolist()
        self.centres = origin + (np.column_stack([keys[0][band], keys[1][row]]) + 0.5) * side

    def __len__(self) -> int:
        return len(self._tiles)

    def _block(self, t: int) -> tuple[slice, slice, int]:
        band, row = self._tiles[t]
        columns = slice(self._columns[band], self._columns[band + 1])
        return columns, slice(self._rows[row], self._rows[row + 1]), row

    def sub(self, t: int) -> Lattice:
        """The nodes of tile ``t`` as a lattice on slices of the axes."""
        (columns, rows, _), g = self._block(t), self.lattice
        return Lattice(g.xs[columns], g.ys[rows], None if g.inside is None else g.inside[columns, rows])

    def union(self, ts) -> Lattice:
        """The nodes of tiles ``ts`` as one lattice on the whole axes, masked to them."""
        g = self.lattice
        mask = np.zeros((g.xs.size, g.ys.size), dtype=bool)
        for columns, rows, _ in map(self._block, ts):
            mask[columns, rows] = True if g.inside is None else g.inside[columns, rows]
        return Lattice(g.xs, g.ys, mask)

    def indices(self, t: int) -> np.ndarray:
        """The grid indices of tile ``t``'s points, ascending."""
        columns, _, row = self._block(t)
        per, first = self._per[columns, row], self._first[columns, row]
        # a column's points are consecutive in grid order
        return np.repeat(first - (np.cumsum(per) - per), per) + np.arange(per.sum())


def _variance_ladder(
    sites: np.ndarray,
    counts: np.ndarray,
    lattice: Lattice,
    h: Hyperparameters,
    delta: float,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Posterior variance at every grid point, or an upper bound on it that meets ``delta``.

    Above ``_DENSE_VERIFY_FLOPS`` the lattice is cut into tiles one
    length scale wide (see ``_Tiles``), each read as a lattice on
    slices of the axes, and each rung bounds the tiles still
    pending by the variance given only the sites within that rung's
    margin of ``_TILE_MARGINS`` of the tile, found by ``_near`` for
    those tiles alone and factored once per tile; dropping observations
    never lowers GP posterior variance, so this bounds the variance
    given all sites from above. Tiles whose bound exceeds ``delta`` go
    on to the next rung, but only while the flops spent so far plus that
    rung's stay below one dense solve over all sites; otherwise they skip
    straight to it. When even the first rung would cost that much, no
    tile is cut. The last rung is that dense solve: it reads the tiles
    still pending as one lattice masked to their nodes, or the whole
    grid when every tile is pending or none was cut.

    Returns the values, one per grid point in grid order, and the number
    of tiles settled at each margin, then the number that took the exact
    rung; with no tile cut every count is zero. Where tiles are cut the
    only arrays over every node are the values and, at a partial exact
    rung, a one-byte mask.
    """
    settled = [0] * (len(_TILE_MARGINS) + 1)
    var = np.empty(len(lattice))
    budget, spent = _solve_flops(sites.shape[0], var.size), 0.0
    l = h.length_scale
    tiles, pending = [], []
    if budget > _DENSE_VERIFY_FLOPS:
        tiles = _Tiles(lattice, l)
        pending = list(range(len(tiles)))
    for rung, margin in enumerate(_TILE_MARGINS):
        if not pending:
            break
        near = _near(tiles.centres[pending], sites, 0.5 * l + margin * l)
        cost = sum(_solve_flops(n.size, tiles.sizes[t]) for t, n in zip(pending, near))
        if spent + cost >= budget:
            if rung == 0:
                # tiling would cost more than the dense solve: cut no tile
                tiles = pending = []
            break
        spent += cost
        failing = []
        for t, n in zip(pending, near):
            values = Posterior(sites[n], h, counts[n]).variance(tiles.sub(t))
            var[tiles.indices(t)] = values
            if values.max() > delta:
                failing.append(t)
        settled[rung] = len(pending) - len(failing)
        pending = failing
    settled[-1] = len(pending)
    if len(pending) == len(tiles):
        # no tile cut, or every tile failed: the whole grid, in grid order
        var[:] = Posterior(sites, h, counts).variance(lattice)
    elif pending:
        index = np.sort(np.concatenate([tiles.indices(t) for t in pending]))
        var[index] = Posterior(sites, h, counts).variance(tiles.union(pending))
    return var, tuple(settled)
