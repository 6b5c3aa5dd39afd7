"""Planar environments, disks, covering grids, and disk independence.

Geometry here is deliberately boring: axis-aligned covering grids,
even-odd polygon membership with the boundary counted inside, and a
greedy maximal independent set over equal-radius disks. Every routine
scans in lexicographic (x, y) order so reruns reproduce layouts exactly.

Polygon work runs as array passes: membership over all points, with
each edge measuring only the points near it; the cover over all
squares; the closest points over blocks of outside points; and one
closed-segment test, ``_segments_meet``, for both the cover and the
simplicity check. Each element takes the floating-point steps of a
scalar loop over one point, square or pair of edges, so results are the
loop's bits; ``tests/test_geometry_oracle.py`` keeps such loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_dense_budget

# Tangent disks count as intersecting. The pad keeps exact tangency
# (routine on sqrt(2)-spaced grids) on the conflict side of the float
# comparison.
_TANGENCY_PAD = 1e-9
_BOUNDARY_TOL = 1e-9
# Array passes over pairs (squares x edges, points x edges, edge x edge)
# take blocks of about this many pairs, so temporaries stay near a MB.
_PAIRS_PER_PASS = 1 << 14
# ``Environment.lattice`` tests a polygon's nodes in blocks of whole
# columns, about this many nodes each.
_NODES_PER_PASS = 1 << 16
# Bytes per node of the bounding box's lattice that a grid is priced at,
# counted before any node is built. 59 was the peak of ``Environment.grid``
# when it tested the whole box in one pass (tracemalloc: 57-59). Built
# from ``lattice`` it peaks at 32 on a rectangle and 51 on a polygon, and
# tiled verification holds 8 per node inside plus one flag per polygon
# node; the price stays, so no refusal moves.
_GRID_NODE_BYTES = 59
# Peak bytes per square of ``cover_environment``; tracemalloc measured 276-281.
_COVER_SQUARE_BYTES = 282


@dataclass(frozen=True)
class Disk:
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        cx, cy = self.center
        cx, cy = float(cx), float(cy)
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise ValueError(f"disk center must be finite, got {(cx, cy)}")
        object.__setattr__(self, "center", (cx, cy))
        r = float(self.radius)
        if not math.isfinite(r) or r <= 0.0:
            raise ValueError(f"disk radius must be finite and > 0, got {r}")
        object.__setattr__(self, "radius", r)


def disks_intersect(a: Disk, b: Disk) -> bool:
    """Closed-disk intersection; touching counts."""
    dx = a.center[0] - b.center[0]
    dy = a.center[1] - b.center[1]
    reach = a.radius + b.radius
    return dx * dx + dy * dy <= reach * reach * (1.0 + _TANGENCY_PAD)


def _segments_meet(p1, p2, q1, q2) -> np.ndarray:
    """Whether closed segments p1-p2 and q1-q2 share a point, for (..., 2) arrays that broadcast.

    A crossing needs each segment's ends strictly on both sides of the
    other's line. Otherwise an end whose orientation to the other segment
    is exactly 0 counts when it lies in that segment's box, widened by
    1e-12 on each side.
    """

    def orient(a, b, c):
        return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (b[..., 1] - a[..., 1]) * (
            c[..., 0] - a[..., 0]
        )

    def touches(a, b, p, o):
        return (
            (o == 0)
            & (np.minimum(a[..., 0], b[..., 0]) - 1e-12 <= p[..., 0])
            & (p[..., 0] <= np.maximum(a[..., 0], b[..., 0]) + 1e-12)
            & (np.minimum(a[..., 1], b[..., 1]) - 1e-12 <= p[..., 1])
            & (p[..., 1] <= np.maximum(a[..., 1], b[..., 1]) + 1e-12)
        )

    d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
    d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
    crossing = ((d1 > 0) != (d2 > 0)) & (d1 != 0) & (d2 != 0)
    crossing &= ((d3 > 0) != (d4 > 0)) & (d3 != 0) & (d4 != 0)
    return (
        crossing
        | touches(q1, q2, p1, d1)
        | touches(q1, q2, p2, d2)
        | touches(p1, p2, q1, d3)
        | touches(p1, p2, q2, d4)
    )


def _polygon_raycast(verts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    nxt = np.roll(verts, -1, axis=0)
    for (x1, y1), (x2, y2) in zip(verts, nxt):
        # only points in the edge's half-open y range cross it, and there y2 != y1
        cross = np.flatnonzero((y1 > y) != (y2 > y))
        xi = (x2 - x1) * (y[cross] - y1) / (y2 - y1) + x1
        inside[cross] ^= x[cross] < xi
    return inside


def _on_polygon_boundary(verts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Whether each point lies within ``_BOUNDARY_TOL`` of an edge, by the computed distance.

    Only the points in each edge's box widened by ``pad`` are measured,
    and the pad keeps every point that measuring all of them accepts.
    Write u for half the machine epsilon and S for the largest vertex
    coordinate magnitude. The closest point c = a + t (b - a), t in
    [0, 1], carries three roundings of terms at most 3S, so it lies
    within 7uS of the box. A point is accepted when its rounded squared
    distance is at most tol^2; the other axis's square only raises that
    sum, so on each axis |p - c| <= tol (1 + 3u). Rounding the widened
    box's bounds moves them by at most u (S + pad). So pad = 2 tol + 16uS
    covers the tol (1 + 3u) + 8uS + u pad needed. A fixed 2 tol would
    not: at a 1e7 offset 7uS alone is 8e-9, eight times tol.
    """
    on = np.zeros(len(pts), dtype=bool)
    nxt = np.roll(verts, -1, axis=0)
    pad = 2.0 * _BOUNDARY_TOL + 8.0 * np.finfo(float).eps * float(np.abs(verts).max())
    for a, b in zip(verts, nxt):
        lo, hi = np.minimum(a, b) - pad, np.maximum(a, b) + pad
        near = np.flatnonzero(
            (pts[:, 0] >= lo[0]) & (pts[:, 0] <= hi[0]) & (pts[:, 1] >= lo[1]) & (pts[:, 1] <= hi[1])
        )
        if near.size == 0:
            continue
        d = b - a
        w = pts[near] - a
        # products per axis, as a loop over one point takes them: numpy's
        # ``@`` sends one row through BLAS dot and more through a
        # matrix-vector product, which round differently, so a point's
        # verdict would depend on its batch
        t = np.clip((w[:, 0] * d[0] + w[:, 1] * d[1]) / (d[0] * d[0] + d[1] * d[1]), 0.0, 1.0)
        closest = a + t[:, None] * d
        on[near] |= np.sum((pts[near] - closest) ** 2, axis=1) <= _BOUNDARY_TOL**2
    return on


@dataclass(frozen=True)
class Lattice:
    """Grid nodes as two ascending axes: the x-major lattice of ``xs`` by ``ys``.

    ``inside`` holds one flag per node, shape (len(xs), len(ys)), or is
    None when every node counts. The nodes that count, in x-major order,
    are the grid's points, ``len`` of them, and their positions in that
    order are its indices.
    """

    xs: np.ndarray
    ys: np.ndarray
    inside: np.ndarray | None

    def __len__(self) -> int:
        if self.inside is None:
            return self.xs.size * self.ys.size
        return int(np.count_nonzero(self.inside))

    def points(self) -> np.ndarray:
        """The nodes that count, as (n, 2) points in grid order."""
        gx, gy = np.meshgrid(self.xs, self.ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        if self.inside is not None:
            pts = pts[self.inside.ravel()]
        return pts

    def point(self, index: int) -> tuple[float, float]:
        """The grid point at ``index``, found from per-column counts."""
        if self.inside is None:
            i, j = divmod(int(index), self.ys.size)
        else:
            ends = np.cumsum(np.count_nonzero(self.inside, axis=1))
            i = int(np.searchsorted(ends, index, side="right"))
            before = int(ends[i - 1]) if i else 0
            j = int(np.flatnonzero(self.inside[i])[int(index) - before])
        return float(self.xs[i]), float(self.ys[j])


class Environment:
    """A bounded planar region: axis-aligned rectangle or simple polygon.

    Boundary points are inside. Construct through ``rectangle`` or
    ``polygon``; the constructor validates positive area and, for
    polygons, simplicity (no two non-adjacent edges may touch).
    """

    def __init__(self, kind: str, vertices: np.ndarray):
        if kind not in ("rectangle", "polygon"):
            raise ValueError(f"unknown environment kind {kind!r}")
        self.kind = kind
        self._verts = np.array(vertices, dtype=float)
        xs, ys = self._verts[:, 0], self._verts[:, 1]
        self.bounds = (float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max()))

    @classmethod
    def rectangle(cls, min_corner, max_corner) -> "Environment":
        try:
            lo, hi = (np.asarray(c, dtype=float) for c in (min_corner, max_corner))
        except (TypeError, ValueError, OverflowError):
            lo = hi = np.empty(0)
        if lo.shape != (2,) or hi.shape != (2,) or not np.isfinite([lo, hi]).all():
            raise ValueError(
                "rectangle corners min and max must each be two finite numbers, "
                f"got {min_corner!r} / {max_corner!r}"
            )
        (x0, y0), (x1, y1) = lo.tolist(), hi.tolist()
        if x1 <= x0 or y1 <= y0:
            raise ValueError(
                f"rectangle needs max strictly above min per axis, got {min_corner} / {max_corner}"
            )
        verts = np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
        return cls("rectangle", verts)

    @classmethod
    def polygon(cls, vertices) -> "Environment":
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise ValueError("polygon needs at least 3 (x, y) vertices")
        if not np.all(np.isfinite(verts)):
            raise ValueError("polygon vertices must be finite")
        nxt = np.roll(verts, -1, axis=0)
        if np.any(np.all(np.abs(verts - nxt) < 1e-15, axis=1)):
            raise ValueError("polygon has a zero-length edge")
        area2 = float(np.sum(verts[:, 0] * nxt[:, 1] - nxt[:, 0] * verts[:, 1]))
        if area2 == 0.0:
            raise ValueError("polygon area must be positive")
        if area2 < 0.0:
            verts = verts[::-1].copy()
        # every edge against every later non-adjacent edge, a block of rows
        # at a time; the first pair in (i, j) order is the one reported
        m = verts.shape[0]
        nxt = np.roll(verts, -1, axis=0)
        j = np.arange(m)
        rows = max(1, _PAIRS_PER_PASS // m)
        for start in range(0, m, rows):
            i = np.arange(start, min(start + rows, m))[:, None]
            met = _segments_meet(verts[i], nxt[i], verts, nxt) & (j > i + 1) & ((i > 0) | (j < m - 1))
            if met.any():
                bi, bj = np.unravel_index(int(np.argmax(met)), met.shape)
                raise ValueError(f"polygon is not simple: edges {start + bi} and {bj} intersect")
        return cls("polygon", verts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Environment):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self._verts, other._verts)

    def __repr__(self) -> str:
        return f"Environment({self.kind!r}, {self._verts.tolist()!r})"

    @property
    def vertices(self) -> np.ndarray:
        return self._verts.copy()

    @property
    def diameter(self) -> float:
        """Bounding-box diagonal; an upper bound on point separation."""
        x0, y0, x1, y1 = self.bounds
        return math.hypot(x1 - x0, y1 - y0)

    def contains(self, points) -> np.ndarray:
        """Whether each point lies in the region, its boundary widened by ``_BOUNDARY_TOL`` included.

        A polygon point is inside by the even-odd ray test, or on the
        boundary when its distance to an edge is within the tolerance;
        each edge measures only the points near its box.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if self.kind == "rectangle":
            x0, y0, x1, y1 = self.bounds
            return (
                (pts[:, 0] >= x0 - _BOUNDARY_TOL)
                & (pts[:, 0] <= x1 + _BOUNDARY_TOL)
                & (pts[:, 1] >= y0 - _BOUNDARY_TOL)
                & (pts[:, 1] <= y1 + _BOUNDARY_TOL)
            )
        return _polygon_raycast(self._verts, pts) | _on_polygon_boundary(self._verts, pts)

    def grid(self, spacing: float) -> np.ndarray:
        """The points of ``lattice(spacing)``, as an (n, 2) array in grid order."""
        return self.lattice(spacing).points()

    def lattice(self, spacing: float) -> Lattice:
        """The axis-aligned grid nodes that fall inside the region, as two axes.

        Both far edges are always sampled, appended when the spacing does
        not land on them, so boundary extremes are never missed. Raises
        ValueError, naming the spacing, when no grid point falls inside,
        and, before any array exists, when the nodes exceed the budget.
        A rectangle keeps the axis values that ``contains`` accepts, its
        test being one comparison per axis, so every node is inside. A
        polygon keeps the whole bounding box's axes and one inside flag
        per node, from ``contains`` a block of columns at a time; a point
        gets the same verdict in any batch, so the flags are the grid's.
        """
        step = float(spacing)
        if not math.isfinite(step) or step <= 0.0:
            raise ValueError(f"grid spacing must be finite and > 0, got {step}")
        x0, y0, x1, y1 = self.bounds

        def axis(lo, hi):
            # the step count, and whether hi is appended, from the last step as
            # the array computes it; min() keeps a huge count finite
            n = math.floor(min((hi - lo) / step + 1e-12, 2.0**53))
            return n, lo + step * n < hi - 1e-9

        (nx, ax), (ny, ay) = axis(x0, x1), axis(y0, y1)
        mx, my = nx + 1 + ax, ny + 1 + ay
        grid = f"a grid of {mx} x {my} points at spacing {step:g}"
        check_dense_budget(_GRID_NODE_BYTES * mx * my, f"{grid}; use a coarser spacing")
        xs = np.append(x0 + step * np.arange(nx + 1), [x1] * ax)
        ys = np.append(y0 + step * np.arange(ny + 1), [y1] * ay)
        inside = None
        if self.kind == "rectangle":
            xs = xs[(xs >= x0 - _BOUNDARY_TOL) & (xs <= x1 + _BOUNDARY_TOL)]
            ys = ys[(ys >= y0 - _BOUNDARY_TOL) & (ys <= y1 + _BOUNDARY_TOL)]
        else:
            inside = np.empty((mx, my), dtype=bool)
            columns = max(1, _NODES_PER_PASS // my)
            for start in range(0, mx, columns):
                block = Lattice(xs[start : start + columns], ys, None)
                inside[start : start + columns] = self.contains(block.points()).reshape(-1, my)
        lattice = Lattice(xs, ys, inside)
        if len(lattice) == 0:
            raise ValueError(
                f"no point of a grid with spacing {step:g} falls inside the environment; use a finer spacing"
            )
        return lattice

    def project(self, points) -> np.ndarray:
        """Each point where it lies inside the region, else the region's closest point to it.

        A rectangle clamps each outside point per axis. For a polygon the
        closest point is the first edge projection with the strictly
        smallest squared distance; the outside points go in blocks, each
        against every edge in one pass. The stacked 1x2 @ 2x1 products
        round like one point's ``(q - a) @ d``; an elementwise sum does
        not.
        """
        pts = np.array(points, dtype=float).reshape(-1, 2)
        out = np.flatnonzero(~self.contains(pts))
        if self.kind == "rectangle":
            x0, y0, x1, y1 = self.bounds
            lo, hi = np.array([x0, y0]), np.array([x1, y1])
            # min(max(p, lo), hi) keeps p on ties, so -0.0 stays -0.0
            q = np.where(lo > pts[out], lo, pts[out])
            pts[out] = np.where(hi < q, hi, q)
            return pts
        a = self._verts
        d = np.roll(a, -1, axis=0) - a
        lengths2 = (d[:, None, :] @ d[:, :, None])[:, 0, 0]
        rows = max(1, _PAIRS_PER_PASS // len(a))
        for start in range(0, out.size, rows):
            block = out[start : start + rows]
            q = pts[block, None, :]
            dots = ((q - a)[:, :, None, :] @ d[:, :, None])[:, :, 0, 0]
            c = a + np.clip(dots / lengths2, 0.0, 1.0)[:, :, None] * d
            best = np.argmin(np.sum((q - c) ** 2, axis=2), axis=1)
            pts[block] = c[np.arange(block.size), best]
        return pts

    def _squares_touch(self, x0: np.ndarray, y0: np.ndarray, side: float) -> np.ndarray:
        """Which closed squares [x0, x0 + side] x [y0, y0 + side] meet the region.

        A square clear of the bounding box misses, and on a rectangle
        every other square meets. On a polygon a square meets when one of
        its corners is inside or a vertex is in it; only the squares those
        tests leave open have their sides tested against the edges, in
        blocks, so the pair arrays stay small.
        """
        x1, y1 = x0 + side, y0 + side
        ex0, ey0, ex1, ey1 = self.bounds
        touch = ~((x1 < ex0) | (ex1 < x0) | (y1 < ey0) | (ey1 < y0))
        if self.kind == "rectangle":
            return touch
        open_ = np.flatnonzero(touch)
        # (squares, 4, 2), counter-clockwise from (x0, y0)
        corners = np.stack(
            [np.column_stack([x0, x1, x1, x0])[open_], np.column_stack([y0, y0, y1, y1])[open_]], axis=2
        )
        met = self.contains(corners.reshape(-1, 2)).reshape(-1, 4).any(axis=1)
        v = self._verts
        left = np.flatnonzero(~met)
        rows = max(1, _PAIRS_PER_PASS // (4 * len(v)))
        for start in range(0, left.size, rows):
            block = left[start : start + rows]
            sq = corners[block]
            hit = np.all((v >= sq[:, :1]) & (v <= sq[:, 2:3]), axis=2).any(axis=1)
            sq = sq[~hit, :, None]
            sides = _segments_meet(sq, np.roll(sq, -1, axis=1), v, np.roll(v, -1, axis=0))
            hit[~hit] = sides.any(axis=(1, 2))
            met[block] = hit
        touch[open_] = met
        return touch


def cover_environment(env: Environment, radius: float) -> list[Disk]:
    """Disks of one radius whose union contains the environment.

    Square grid of side radius*sqrt(2) anchored at the bounding-box
    corner; each square is inscribed in its disk, so keeping every square
    that touches the environment already yields a cover. One
    ``Environment._squares_touch`` call tests every square. Output is
    ordered lexicographically by center. Squares above the byte budget
    are refused before any is built.
    """
    r = float(radius)
    if not math.isfinite(r) or r <= 0.0:
        raise ValueError(f"cover radius must be finite and > 0, got {r}")
    side = r * math.sqrt(2.0)
    x0, y0, x1, y1 = env.bounds
    nx = max(1, math.ceil((x1 - x0) / side - 1e-9))
    ny = max(1, math.ceil((y1 - y0) / side - 1e-9))
    check_dense_budget(_COVER_SQUARE_BYTES * nx * ny, f"a cover of {nx} x {ny} squares by disks of radius {r:g}")
    # i-major, like the disks
    sx = np.repeat(x0 + np.arange(nx) * side, ny)
    sy = np.tile(y0 + np.arange(ny) * side, nx)
    keep = env._squares_touch(sx, sy, side)
    corners = zip(sx[keep].tolist(), sy[keep].tolist())
    return [Disk((cx + side / 2.0, cy + side / 2.0), r) for cx, cy in corners]


def _near(centres: np.ndarray, points: np.ndarray, reach: float) -> list:
    """Indices of the points within ``reach`` of each centre: one ascending int64 array per centre.

    The package's one neighbour search: the verification tiles' nearby
    sites, and each disk's possible conflicts in ``greedy_mis`` and
    ``mis_tour_lower_bound``, where the centres are the points, so each
    set holds its centre's own index. The distance is max(|dx|, |dy|):
    the test, and so the sets, of scipy's ``cKDTree.query_ball_point``
    with p = inf. The points are cut into at most 257 strips along x,
    each at least ``reach`` wide and sorted by y, so a centre's
    candidates are one y-window in each of the few strips that its
    square of half-side ``reach`` meets. Every window is widened a
    little, so rounding cannot drop a point, and the exact test settles
    each candidate.
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
    cuts = np.searchsorted(owner, np.arange(centres.shape[0] + 1)).tolist()
    return [index[a:b] for a, b in zip(cuts, cuts[1:])]


def _conflict_reach(radius: float) -> float:
    """A ``_near`` reach that keeps every pair of ``radius`` disks ``disks_intersect`` accepts.

    That test's largest centre distance, 2r * sqrt(1 + _TANGENCY_PAD),
    widened by 1e-6 of itself for its rounding; ``_near``'s
    max(|dx|, |dy|) of the same differences never exceeds the distance.
    """
    return 2.0 * radius * math.sqrt(1.0 + _TANGENCY_PAD) * (1.0 + 1e-6)


def greedy_mis(disks: list[Disk]) -> list[Disk]:
    """Greedy maximal independent set over equal-radius disks.

    Scans in lexicographic (x, y) center order, keeping any disk that
    intersects no kept disk; tangency counts as intersection. The result
    is a subset whose members every dropped disk touches. One ``_near``
    search over the sorted centres finds each disk's possible conflicts,
    so each disk is tested only against the kept disks among them.
    """
    if not disks:
        return []
    radii = {d.radius for d in disks}
    if len(radii) > 1:
        raise ValueError(f"greedy_mis needs equal radii, got {sorted(radii)}")
    ordered = sorted(disks, key=lambda d: d.center)
    centres = np.array([d.center for d in ordered])
    kept = [False] * len(ordered)
    for i, near in enumerate(_near(centres, centres, _conflict_reach(ordered[0].radius))):
        kept[i] = not any(disks_intersect(ordered[i], ordered[j]) for j in near.tolist() if kept[j])
    return [d for d, k in zip(ordered, kept) if k]


def lawnmower_rows(big: Disk, small_radius: float) -> list[list[tuple[float, float]]]:
    """Row-structured small-disk centers covering one big disk.

    Cells of side sqrt(2)*small_radius (inscribed in the small disks)
    tile the big disk's circumscribing square; cells that miss the disk
    are dropped, and a kept cell whose center lies outside the disk has
    its point pulled radially onto the boundary. Pulling a point inward
    along its radius never increases its distance to any point of the
    disk, so each cell's overlap with the disk stays covered. Rows come
    back bottom to top, each row left to right.
    """
    r = float(small_radius)
    if not math.isfinite(r) or r <= 0.0:
        raise ValueError(f"small radius must be finite and > 0, got {r}")
    big_r = big.radius
    cx, cy = big.center
    if r >= big_r:
        return [[big.center]]
    side = r * math.sqrt(2.0)
    m = max(1, math.ceil(2.0 * big_r / side - 1e-12))
    half = m * side / 2.0
    rows: list[list[tuple[float, float]]] = []
    for j in range(m):
        row: list[tuple[float, float]] = []
        for i in range(m):
            px = cx - half + (i + 0.5) * side
            py = cy - half + (j + 0.5) * side
            gap_x = max(abs(px - cx) - side / 2.0, 0.0)
            gap_y = max(abs(py - cy) - side / 2.0, 0.0)
            if gap_x * gap_x + gap_y * gap_y > big_r * big_r * (1.0 + _TANGENCY_PAD):
                continue
            d = math.hypot(px - cx, py - cy)
            if d > big_r:
                px = cx + (px - cx) * (big_r / d)
                py = cy + (py - cy) * (big_r / d)
            row.append((px, py))
        if row:
            rows.append(row)
    return rows


def mis_tour_lower_bound(mis: list[Disk]) -> float:
    """0.24 * count * radius, defined for pairwise disjoint equal disks."""
    if not mis:
        return 0.0
    radii = {d.radius for d in mis}
    if len(radii) > 1:
        raise ValueError(f"independent set must share one radius, got {sorted(radii)}")
    # the pair reported is the first in list order
    centres = np.array([d.center for d in mis])
    for i, near in enumerate(_near(centres, centres, _conflict_reach(mis[0].radius))):
        for j in near.tolist():
            if j > i and disks_intersect(mis[i], mis[j]):
                raise ValueError(
                    f"disks at {mis[i].center} and {mis[j].center} intersect; set is not independent"
                )
    return 0.24 * len(mis) * mis[0].radius
