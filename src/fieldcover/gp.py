"""Gaussian process regression with a squared-exponential kernel.

Measurement noise is i.i.d. Gaussian with variance ``noise_variance``,
which doubles as the regularizer added to the Gram matrix diagonal, so
every solve below goes through a Cholesky factorization of an SPD matrix.
The posterior variance never depends on measured values, only on where
and how often measurements are taken; the planners in this package lean
on that fact throughout.

Repeated measurements are never given Gram rows of their own: n noisy
readings at one location are exactly one reading of their average with
noise variance w2 / n (Rasmussen & Williams, GPML 2006, sec. 2.2). So
``Posterior`` factors K(sites) + diag(w2 / counts), and values are
averaged per row before any solve. The rows are the distinct locations,
except where one factorization must serve every prefix of a visiting
order; there a revisit gets a row of its own.

Every posterior query is one read of V = M K(sites, points), with M the
inverse of the Cholesky factor L, formed once when the Gram matrix is
factored: the variance is s2 - sum_i V_i^2 and the mean b . V with
b = M y, summed over all rows or over a leading block of them. V is
built a block of query points at a time, in query order, in one of two
ways. The panel build forms K for a panel of points and multiplies it
by M in place: a triangular multiply rather than a substitution with L,
the same flops run as a matrix-matrix product, about three times as
fast, and within a few units of rounding of the substitution. The
lattice build serves a query given as a ``geometry.Lattice``, as every
grid the package reads is: the kernel separates per axis, so V comes
from per-axis kernel tables and one product per distinct site y value,
and K is never formed. A count of multiply-adds from the sizes of a
lattice read picks the cheaper build, and an array of points takes the
panels; the two agree to rounding, and a read takes one for all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._lapack import (
    cdist_sqeuclidean, dpotrf, dpotrs, dptsv, dstebz, dsytrd, dsytrd_lwork, dtrmm, dtrmv, dtrtri,
)
from .errors import DegenerateDataError, NumericalError, check_dense_budget
from .geometry import Lattice

# ``Posterior``'s read builds, multiplies and sums the cross-covariances
# of this many query points at a time, so one (sites x points) panel is
# live at a time and OpenBLAS's packing buffer stays panel-sized. Where
# panels start and end moves means, and variances over many sites, by
# rounding, so changing this changes written outputs.
_PANEL_POINTS = 512
# ``_lattice_layout`` prices the two builds of V in multiply-adds of the
# panel build's triangular multiply. Forming one entry of K costs about
# ``_ENTRY_FLOPS`` more than the lattice build spends on one entry of V;
# the lattice build's products, whose inner dimension is tens, cost
# ``_THIN_FLOPS`` per multiply-add, each of its BLAS calls
# ``_CALL_FLOPS``, and its fixed cost is ``_LATTICE_FLOPS``. Fitted to
# timings of 40 reads of 18 to 1,180 sites on two cores, where the rule
# picked the slower build three times, at a cost of 0.33 ms in all;
# refitting them may move builds, and so written values by rounding.
_ENTRY_FLOPS = 270.0
_THIN_FLOPS = 3.0
_CALL_FLOPS = 3e5
_LATTICE_FLOPS = 2e7
# The grid search scores every point from one tridiagonal reduction per
# length scale, then re-scores by Cholesky (``nlml``) every point whose
# tridiagonal-path NLML lies within this relative distance of the minimum,
# so rounding in that path cannot change which point wins. The distance
# is relative to the sum of the magnitudes of the NLML's terms, y' K^-1 y,
# each |log d_i| of the tridiagonal's LDL' pivots and n log 2pi. The path's
# error grows with K's condition number: trusted scores of random surveys
# with repeats lay up to 3.3e-8 of that sum from Cholesky, all at condition
# numbers above 3e7 (the floor allows 1e8), a third of this distance.
_RESCORE_RTOL = 1e-7
# A tridiagonal-path score is trusted only while the smallest eigenvalue of
# the regularized Gram matrix is at least this fraction of its largest.
# Below that the Cholesky factorization may fail (and the search must skip
# the point), so such points are always re-scored by Cholesky. The two
# eigenvalues are s2 lambda + w2 at the tridiagonal's extreme eigenvalues,
# found by bisection; the LDL' pivots lie between those two, so the
# smallest pivot can stand far above the smallest eigenvalue and is no
# substitute for it.
_EIGEN_FLOOR = 1e-8


def _points(points) -> np.ndarray:
    """``points`` as an (n, 2) float array; a last axis other than 2 is refused."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1:] != (2,):
        raise ValueError(f"points need a last axis of 2 coordinates, got shape {pts.shape}")
    return pts.reshape(-1, 2)


def _as_point(p) -> tuple[float, float]:
    x, y = p
    x, y = float(x), float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point coordinates must be finite, got {(x, y)}")
    return (x, y)


@dataclass(frozen=True)
class Hyperparameters:
    """Kernel and noise hyperparameters (l, sigma0^2, omega^2).

    Parameters
    ----------
    length_scale : float
        Correlation length of the squared-exponential kernel, in the same
        units as the workspace coordinates. Strictly positive.
    signal_variance : float
        Prior variance of the field at any single point. Strictly positive.
    noise_variance : float
        Variance of the additive measurement noise. Strictly positive; this
        is also what keeps the regularized Gram matrix well conditioned.
    """

    length_scale: float
    signal_variance: float
    noise_variance: float

    def __post_init__(self):
        for name in ("length_scale", "signal_variance", "noise_variance"):
            v = getattr(self, name)
            try:
                v = float(v)
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a number, got {v!r}") from None
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {v}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class MeasurementMultiset:
    """Measurement locations with positive repeat counts.

    ``entries`` is a tuple of ``(location, count)`` pairs, held as float
    pairs and ints once construction has checked them. The same location
    may appear in several entries; counts just add up.
    """

    entries: tuple[tuple[tuple[float, float], int], ...]

    def __post_init__(self):
        norm = []
        for loc, count in self.entries:
            count = int(count)
            if count < 1:
                raise ValueError(f"measurement count must be >= 1, got {count}")
            norm.append((_as_point(loc), count))
        object.__setattr__(self, "entries", tuple(norm))

    @property
    def total(self) -> int:
        return sum(c for _, c in self.entries)

    @property
    def locations(self) -> np.ndarray:
        """Entry locations as an (n, 2) array, one row per entry."""
        return np.asarray([loc for loc, _ in self.entries], dtype=float).reshape(-1, 2)

    @property
    def counts(self) -> np.ndarray:
        """Entry counts, one per entry."""
        return np.asarray([c for _, c in self.entries], dtype=int)

    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct locations as an (m, 2) array and their total counts.

        Exactly equal locations merge, across entries too; sites keep
        the order of their first appearance.
        """
        sites, counts, _ = self._merge()
        return sites, counts

    def site_means(self, values) -> np.ndarray:
        """Average per-measurement values over each distinct site.

        ``values`` has one row per measurement, entries in order and each
        entry's count of rows consecutive; any trailing axes are kept.
        Rows of the result follow ``distinct()``.
        """
        _, counts, rows = self._merge()
        return _site_means(counts, rows, values)

    def _merge(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct sites, their counts, and the site of every measurement."""
        if not self.entries:
            return np.empty((0, 2)), np.empty(0, dtype=int), np.empty(0, dtype=int)
        locs, counts = self.locations, self.counts
        _, first, inverse = np.unique(locs, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        entry_site = rank[inverse.reshape(-1)]
        site_counts = np.bincount(entry_site, weights=counts).astype(int)
        return locs[first[order]], site_counts, np.repeat(entry_site, counts)


def _site_means(counts: np.ndarray, rows: np.ndarray, values) -> np.ndarray:
    """``MeasurementMultiset.site_means`` given the multiset's merge.

    ``counts`` and ``rows`` are the second and third results of
    ``_merge``, so a caller averaging many value sets merges once.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape[0] != rows.size:
        raise ValueError(f"expected {rows.size} values, got {vals.shape[0]}")
    sums = np.zeros((counts.size,) + vals.shape[1:])
    np.add.at(sums, rows, vals)
    return sums / counts.reshape((-1,) + (1,) * (vals.ndim - 1))


def kernel_matrix(a, b, hyper: Hyperparameters) -> np.ndarray:
    """Cross-covariance matrix between two point sets, shape (len(a), len(b))."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    # s2 * exp(-d2 / (2 l^2)) in the order written; the negation is folded
    # into the divisor, which leaves every quotient's bits as they were
    k = cdist_sqeuclidean(a, b)
    np.divide(k, -(2.0 * hyper.length_scale**2), out=k)
    np.exp(k, out=k)
    np.multiply(hyper.signal_variance, k, out=k)
    return k


def _axis_kernel(a: np.ndarray, b: np.ndarray, length_scale: float, scale: float, out=None) -> np.ndarray:
    """scale * exp(-(a_i - b_j)^2 / (2 l^2)) for every pair: one axis of the kernel, into ``out`` if given."""
    k = np.subtract.outer(a, b, out=out)
    np.square(k, out=k)
    np.divide(k, -(2.0 * length_scale**2), out=k)
    np.exp(k, out=k)
    np.multiply(scale, k, out=k)
    return k


def _cholesky(design: np.ndarray, hyper: Hyperparameters, noise, what: str) -> np.ndarray:
    """Lower Cholesky factor of K(design) + diag(noise), Fortran-ordered.

    ``noise`` is one variance or one per row; ``what`` names the solve in
    the budget check's message (see ``check_dense_budget``). The Gram
    matrix is exactly symmetric, so its transpose is the Fortran-ordered
    view LAPACK factors in place, without a copy. The routines are
    scipy's compiled LAPACK (``._lapack``), called as scipy's wrappers
    would call them but without their per-call checks: verification
    makes one factor and one read per tile.
    """
    n = design.shape[0]
    check_dense_budget(8 * n * n, what)
    gram = kernel_matrix(design, design, hyper)
    gram[np.diag_indices_from(gram)] += noise
    # clean=1 zeroes the strict upper triangle, where dpotrf leaves Gram
    # entries and dtrtri never writes: the lattice read gathers whole
    # columns of the inverse. The lower triangle has the same bits either way
    lower, info = dpotrf(gram.T, lower=1, overwrite_a=1, clean=1)
    if info > 0:
        raise NumericalError(
            f"Gram factorization failed: {info}-th leading minor of the array is not positive definite"
        )
    return lower


def _panels(inverse: np.ndarray, design: np.ndarray, hyper: Hyperparameters, query):
    """V = M K(design, points) a block of query points at a time, in query order.

    ``query`` is (n, 2) points or a ``Lattice``, read in grid order.
    Yields (slice of the points, V block), each (sites x points) and
    Fortran-ordered; ``inverse`` is M, lower triangular, its strict
    upper triangle zero. A caller dropping each block before asking for
    the next holds one at a time. Where ``_lattice_layout`` finds it
    cheaper a lattice takes the lattice build (``_lattice_panels``);
    else each block is a ``_PANEL_POINTS`` panel of K, times M in place.
    """
    if isinstance(query, Lattice):
        layout = _lattice_layout(design, query)
        if layout is not None:
            yield from _lattice_panels(inverse, hyper, layout)
            return
        query = query.points()
    for lo in range(0, query.shape[0], _PANEL_POINTS):
        block = slice(lo, lo + _PANEL_POINTS)
        # K(sites, block) is Fortran-ordered, so it is multiplied in place
        v = kernel_matrix(query[block], design, hyper).T
        dtrmm(1.0, inverse, v, lower=1, overwrite_b=1)
        yield block, v
        del v


def _lattice_layout(design: np.ndarray, lattice: Lattice):
    """Blocking of the lattice build over ``lattice``, or None where the panel build is used.

    The rule compares costs counted from sizes alone, in the panel
    build's multiply-adds (the weights are explained where they are
    defined). The panel build costs n(n+1)/2 per point for the multiply
    by M, plus ``_ENTRY_FLOPS`` per entry of K. The lattice build costs
    n^2 per lattice column to multiply M's columns into C, n per
    distinct site y per point for V, one BLAS call per group and block
    of columns, per column and per V block, and its fixed cost
    ``_LATTICE_FLOPS``; it skips columns and rows with no node. It is
    not laid out where the panel build costs no more than the least it
    could: one site y and one call per lattice column.

    Memory: a block of w lattice columns holds C, w (my x n), and the x
    table, w x n, in half a panel's bytes, and each V block is at most
    the other half; the y table, twice over, and the largest group of
    M's columns must fit in a quarter panel more. With n sites, my
    distinct site y values and a ``_PANEL_POINTS`` panel,
    w = (panel / 2) // (my + 1), so the build needs my < panel / 2.
    """
    n, count = design.shape[0], len(lattice)
    panel = n * (n + 1) / 2.0 * count + _ENTRY_FLOPS * n * count
    half = _PANEL_POINTS // 2
    # what is left of the panel build's cost after the least any lattice
    # build costs, which has one site y, pays for its calls per column
    spare = panel - _LATTICE_FLOPS - _THIN_FLOPS * n * count
    if spare <= 0:
        return None
    inside = np.ones((lattice.xs.size, lattice.ys.size), bool) if lattice.inside is None else lattice.inside
    per_column = np.count_nonzero(inside, axis=1)
    columns = np.flatnonzero(per_column)
    if columns.size > spare / _CALL_FLOPS:
        return None
    rows = inside.any(axis=0)
    ux, uy = lattice.xs[columns], lattice.ys[rows]
    starts = np.concatenate([[0], np.cumsum(per_column[columns])])
    # each point's row among the rows kept, in grid order
    jy = np.broadcast_to(np.cumsum(rows) - 1, inside.shape)[inside]
    syu, sy = np.unique(design[:, 1], return_inverse=True)
    my = syu.size
    if my + 1 > half:
        return None
    w = half // (my + 1)
    chunk = _PANEL_POINTS - w * (my + 1)
    # the sites grouped by y, each group in site order
    perm = np.argsort(sy, kind="stable")
    bounds = np.searchsorted(sy[perm], np.arange(my + 1))
    nx = ux.size
    blocks = -(-nx // w)
    calls = blocks * (my + 1) + nx + 2 * (-(-count // chunk) + blocks)
    cost = _THIN_FLOPS * n * (n * nx + my * count) + _CALL_FLOPS * calls + _LATTICE_FLOPS
    # the y table, the rows of it one column's run of points takes, and
    # the largest group of M's columns
    extra = 2 * uy.size * my + int(np.diff(bounds).max()) * n
    if cost >= panel or 4 * extra > n * _PANEL_POINTS:
        return None
    return ux, uy, starts.tolist(), jy, design[perm, 0], syu, perm, bounds.tolist(), w, chunk


def _lattice_panels(inverse: np.ndarray, hyper: Hyperparameters, layout):
    """``_panels`` on a masked lattice, from per-axis kernel tables.

    The kernel separates per axis (Saatci, PhD thesis, Cambridge 2011):
    K(site, node (i, j)) = Ex[i, site] Ey[j, b] for the ``_axis_kernel``
    tables Ex (scaled by s2) and Ey, b the site's index among the
    distinct site y values. So with the sites grouped by b,
    C[:, b, i] = M[:, group b] Ex[i, group b] and V at node (i, j) is
    sum_b C[:, b, i] Ey[j, b]: for a block of lattice columns one product
    per distinct site y, then one per column, whose inner dimension is
    the number of distinct site y values. K itself is never formed.
    ``layout`` is what ``_lattice_layout`` returns.
    """
    ux, uy, starts, jy, xs, syu, perm, bounds, w, chunk = layout
    n = inverse.shape[0]
    ey = _axis_kernel(uy, syu, hyper.length_scale, 1.0)
    # M's columns are the rows of its C-ordered transpose
    rows = inverse.T
    # C[i] is (my x n): column i's partial sums, one row per site y
    c = np.empty((w, syu.size, n))
    # the x table of a block, one column per site in group order
    ex = np.empty((w, n))
    groups = [(ex[:, a:b], perm[a:b], c[:, g]) for g, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    for lo in range(0, ux.size, w):
        hi = min(lo + w, ux.size)
        cols = hi - lo
        _axis_kernel(ux[lo:hi], xs, hyper.length_scale, hyper.signal_variance, out=ex[:cols])
        for x_part, members, out in groups:
            np.matmul(x_part[:cols], rows[members], out=out[:cols])
        column = lo
        for q0 in range(starts[lo], starts[hi], chunk):
            q1 = min(q0 + chunk, starts[hi])
            # V's transpose, one row per point, filled a column's run at a time
            vt = np.empty((q1 - q0, n))
            s0 = q0
            while s0 < q1:
                while starts[column + 1] <= s0:
                    column += 1
                s1 = min(q1, starts[column + 1])
                np.matmul(ey[jy[s0:s1]], c[column - lo], out=vt[s0 - q0 : s1 - q0])
                s0 = s1
            yield slice(q0, q1), vt.T
            del vt


class Posterior:
    """GP posterior given repeated measurements at fixed sites.

    Each of the ``sites`` gets one Gram row; ``counts[i]`` readings were
    taken at ``sites[i]`` (one each when ``counts`` is omitted). The
    factored matrix is K(sites) + diag(w2 / counts), which is exact for
    repeats as long as ``mean`` and ``mean_many`` get each row's average
    reading (``MeasurementMultiset.site_means``). A location may have
    several rows: rows with counts c1 and c2 at one spot give the
    posterior of one row with count c1 + c2 and the count-weighted
    average reading. Distinct sites, as ``MeasurementMultiset.distinct``
    returns them, keep the system smallest; ``prefix_mean_and_variance``
    relies on the rows staying in visiting order instead. Factors once
    and inverts the factor in place, its strict upper triangle zeroed;
    every query then goes through one read of V = L^-1 K(sites, points),
    a block of query points at a time, that gives variances and any
    number of means together. Sites and points have a last axis of two
    coordinates; a query may instead be a ``geometry.Lattice``. Which
    build makes the blocks (``_panels``) depends on the sites and the
    query alone, so a variance is the same bits whichever query asked.
    """

    def __init__(self, sites, hyper: Hyperparameters, counts=None):
        self.hyper = hyper
        self.design = _points(sites)
        n = self.design.shape[0]
        noise = hyper.noise_variance
        if counts is not None:
            counts = np.asarray(counts)
            if counts.shape != (n,) or np.any(counts < 1):
                raise ValueError(f"need one count >= 1 per site, got shape {counts.shape}")
            noise = noise / counts
        if n == 0:
            self._inverse = None
            return
        lower = _cholesky(
            self.design,
            hyper,
            noise,
            f"a dense solve over {n} Gram rows; raise the variance target or shrink the environment",
        )
        # L^-1, in place over L; a factor dpotrf accepted has a positive
        # diagonal, so dtrtri cannot fail on it
        self._inverse, _ = dtrtri(lower, lower=1, overwrite_c=1)

    @property
    def size(self) -> int:
        """Number of Gram rows, one per site."""
        return self.design.shape[0]

    def variance(self, points) -> np.ndarray:
        """Posterior variance at each query point. Values play no role."""
        return self._read(points, np.empty((self.size, 0)), [self.size])[1][0]

    def mean(self, points, values) -> np.ndarray:
        """Posterior mean at each query point, zero prior mean.

        ``values`` holds one average reading per site. Bound also as
        ``mean_many``: with one row per site and one column per
        realization, the result has shape (len(points), n_columns).
        """
        return self._read(points, values, [self.size])[0][0]

    mean_many = mean

    def mean_and_variance(self, points, values) -> tuple[np.ndarray, np.ndarray]:
        """``mean(points, values)`` and ``variance(points)`` from one read.

        ``values`` may hold one realization per column, as in
        ``mean_many``; column k of the means is bit for bit
        ``mean(points, values[:, k])``, and is contiguous.
        """
        means, variances = self._read(points, values, [self.size])
        return means[0], variances[0]

    def prefix_mean_and_variance(self, points, values, lengths) -> tuple[np.ndarray, np.ndarray]:
        """Mean and variance at the points given each leading block of rows.

        Row j of both results conditions on the first ``lengths[j]`` rows
        alone, with ``values`` (one average reading per row) cut the same
        way; a length of 0 gives the prior. With ``lengths`` = [size] it is
        ``mean_and_variance``, bit for bit.
        """
        ns = np.asarray(lengths, dtype=int).reshape(-1)
        if np.any(ns < 0) or np.any(ns > self.size):
            raise ValueError(f"prefix lengths must lie in [0, {self.size}]")
        return self._read(points, values, ns.tolist())

    def _read(self, points, values, lengths: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Means and variances at the points given each leading block of rows.

        ``values`` has one row per site and any trailing shape, zero
        columns included. The leading block of a Cholesky factor L is the
        factor of the leading block of the Gram matrix, and the leading
        block of M = L^-1 is that block's inverse, so one factorization
        serves every prefix: with V = M K(sites, points) and b = M y
        multiplied once per value column, the first n rows give variance
        s2 - sum_{i<n} V_i^2 and mean sum_{i<n} b_i V_i. The sums run over
        the rows in order, so a longer prefix never reports a larger
        variance at any point. V comes a block of query points at a time
        from ``_panels``: a ``_PANEL_POINTS`` panel of K multiplied by M in
        place, or on a ``Lattice``, where a count of multiply-adds says it
        is cheaper, a block built from per-axis kernel tables
        (``_lattice_layout`` has the rule). Each block is summed and
        dropped before the next is built, so at most a panel's bytes of
        V are live at a time whatever the query asks for. Returns means
        of shape (len(lengths), len(points)) + the trailing shape of
        ``values`` and variances of shape (len(lengths), len(points)).
        """
        query = points if isinstance(points, Lattice) else _points(points)
        y = np.asarray(values, dtype=float)
        if y.shape[0] != self.size:
            raise ValueError(f"expected {self.size} value rows, one per site, got {y.shape[0]}")
        columns = y.reshape(self.size, math.prod(y.shape[1:])).T
        s2 = self.hyper.signal_variance
        # column-major, so each column's means are contiguous
        means = np.zeros((columns.shape[0], len(lengths), len(query))).transpose(1, 2, 0)
        variances = np.full((len(lengths), len(query)), s2)
        inverse = self._inverse
        if inverse is not None:
            betas = [dtrmv(inverse, c, lower=1) for c in columns]
            order = sorted(range(len(lengths)), key=lengths.__getitem__)
            for block, v in _panels(inverse, self.design, self.hyper, query):
                explained, sums, done = 0.0, [0.0] * len(betas), 0
                for j in order:
                    n = lengths[j]
                    if n > done:
                        explained = explained + np.einsum("ij,ij->j", v[done:n], v[done:n])
                        sums = [total + beta[done:n] @ v[done:n] for total, beta in zip(sums, betas)]
                        done = n
                    variances[j, block] = s2 - explained
                    for k, total in enumerate(sums):
                        means[j, block, k] = total
                del v
        np.maximum(variances, 0.0, out=variances)
        return means.reshape(variances.shape + y.shape[1:]), variances


def repeated_measurement_variance(distance: float, count: int, hyper: Hyperparameters) -> float:
    """Posterior variance at distance r from n noisy measurements of one spot.

    Closed form of the single-site system:

        s2 * (1 - exp(-r^2 / l^2) / (1 + w2 / (n * s2)))

    Monotonically decreasing in n, increasing in r; as n grows it tends to
    s2 * (1 - exp(-r^2 / l^2)), the noiseless-site floor.
    """
    r = float(distance)
    n = int(count)
    if r < 0.0 or not math.isfinite(r):
        raise ValueError(f"distance must be finite and >= 0, got {r}")
    if n < 1:
        raise ValueError(f"count must be >= 1, got {n}")
    s2, w2, l = hyper.signal_variance, hyper.noise_variance, hyper.length_scale
    corr = math.exp(-(r * r) / (l * l))
    return s2 * (1.0 - corr / (1.0 + w2 / (n * s2)))


def _dataset(points, values) -> tuple[np.ndarray, np.ndarray]:
    """``points`` as an (n, 2) float array and ``values`` as n floats, all finite."""
    design = np.asarray(points, dtype=float)
    y = np.asarray(values, dtype=float)
    if design.ndim != 2 or design.shape[1] != 2 or y.shape != design.shape[:1]:
        raise ValueError(
            f"need (n, 2) points and n values, got shapes {design.shape} and {y.shape}"
        )
    if not (np.isfinite(design).all() and np.isfinite(y).all()):
        raise ValueError("points and values must be finite")
    return design, y


def nlml(points, values, hyper: Hyperparameters) -> float:
    """Negative log marginal likelihood of ``values`` measured at ``points``.

    0.5 * (y' K^-1 y + log det K + N log 2pi) with K the regularized Gram
    matrix. ``points`` is (n, 2) and ``values`` has one entry per point.
    Raises on an empty dataset.
    """
    design, y = _dataset(points, values)
    n = y.size
    if n == 0:
        raise ValueError("nlml needs at least one observation")
    lower = _cholesky(
        design, hyper, hyper.noise_variance, f"an NLML over {n} observations; use fewer CSV rows"
    )
    alpha, _ = dpotrs(lower, y, lower=1)
    logdet = 2.0 * float(np.sum(np.log(np.diag(lower))))
    return 0.5 * (float(y @ alpha) + logdet + n * math.log(2.0 * math.pi))


@dataclass(frozen=True)
class HyperparameterGrid:
    """Cartesian search grid over (length_scale, signal_variance, noise_variance)."""

    length_scales: tuple[float, ...]
    signal_variances: tuple[float, ...]
    noise_variances: tuple[float, ...]

    def __post_init__(self):
        for name in ("length_scales", "signal_variances", "noise_variances"):
            vals = tuple(float(v) for v in getattr(self, name))
            if not vals:
                raise ValueError(f"{name} must not be empty")
            if any(not math.isfinite(v) or v <= 0 for v in vals):
                raise ValueError(f"{name} must be finite and > 0")
            object.__setattr__(self, name, vals)

    @classmethod
    def log_spaced(cls, length_scale, signal_variance, noise_variance, num: int = 7):
        """Geometric grids between (lo, hi) bounds per parameter."""

        def geo(lo, hi, n):
            return tuple(np.geomspace(lo, hi, n))

        return cls(
            geo(*length_scale, num),
            geo(*signal_variance, num),
            geo(*noise_variance, num),
        )

    def combinations(self):
        return itertools.product(self.length_scales, self.signal_variances, self.noise_variances)


def _tridiagonal_nlml(d2: np.ndarray, y: np.ndarray, length_scale: float, s2: np.ndarray, w2: np.ndarray, b: np.ndarray):
    """NLML of every (s2, w2) pair at one length scale, from one tridiagonal reduction.

    R = exp(-d2 / 2l^2) bordered by y, [[0, y'], [y, R]], is formed in
    the (n + 1) x (n + 1) array ``b`` and reduced there. The first
    reflector maps y to beta e_1 and the later ones leave it alone, so the
    trailing tridiagonal is P' R P = T with P' y = beta e_1. Then
    K = s2 R + w2 I = P (s2 T + w2 I) P', so with z = beta e_1 each pair
    costs one O(n) LDL' solve of the tridiagonal s2 T + w2 I against z:
    it gives y' K^-1 y = z' x, and its pivots d_i give log det K =
    sum log d_i. The pair is trusted only while K's smallest eigenvalue,
    s2 min(T) + w2, is at least ``_EIGEN_FLOOR`` of its largest; T's two
    extreme eigenvalues come from two bisections, so no other eigenvalue
    is computed. Returns an (len(s2), len(w2)) array of values, NaN where
    the path is not trusted or a solve fails, and the sum of the
    magnitudes of each value's terms, 0.5 (y' K^-1 y + sum |log d_i| +
    n log 2pi), which scales its rounding error.
    """
    n = y.size
    shape = (s2.size, w2.size)
    failed = np.full(shape, np.nan), np.full(shape, np.nan)
    np.divide(d2, -(2.0 * length_scale**2), out=b[1:, 1:])
    np.exp(b[1:, 1:], out=b[1:, 1:])
    # the transpose is the Fortran-ordered view LAPACK reduces in place;
    # its lower triangle is b's upper one, whose row 0 the last reduction
    # overwrote with a reflector
    b[0, 1:] = y
    lwork, _ = dsytrd_lwork(n + 1, lower=1)
    _, d, e, _, info = dsytrd(b.T, lower=1, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        return failed
    z = np.zeros(n)
    z[0], d, e = e[0], d[1:], e[1:]
    # eigenvalues 1 and n of T by bisection (index range, default tolerance)
    extremes = [dstebz(d, e, 2, 0.0, 1.0, k, k, 0.0, "E") for k in (1, n)]
    if any(info != 0 or m != 1 for m, *_, info in extremes):
        return failed
    low, high = (w[0] for _, w, *_ in extremes)
    quad = np.full(shape, np.nan)
    logdet = np.empty(shape)
    abslog = np.empty(shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(s2.size):
            # one row of diagonals per noise variance; each solve factors
            # its row in place into the pivots d_i
            pivots = s2[i] * d + w2[:, None]
            for j in range(w2.size):
                *_, x, info = dptsv(pivots[j], s2[i] * e, z[:, None], overwrite_d=1, overwrite_e=1)
                if info == 0:
                    quad[i, j] = z @ x[:, 0]
            logs = np.log(pivots)
            logdet[i] = np.sum(logs, axis=-1)
            abslog[i] = np.sum(np.abs(logs), axis=-1)
    const = n * math.log(2.0 * math.pi)
    trusted = s2[:, None] * low + w2 >= _EIGEN_FLOOR * (s2[:, None] * high + w2)
    value = 0.5 * (quad + logdet + const)
    magnitude = 0.5 * (quad + abslog + const)
    return np.where(trusted, value, np.nan), magnitude


def fit_hyperparameters(points, values, search: HyperparameterGrid) -> tuple[Hyperparameters, float]:
    """Exhaustive NLML grid search over ``values`` measured at ``points``, first minimum wins ties.

    ``points`` is (n, 2) and ``values`` has one entry per point. Returns
    the winning grid point and its Cholesky ``nlml``. Needs at least two
    distinct measurement locations; raises DegenerateDataError
    otherwise. Grid points whose factorization fails are skipped. The
    search is budgeted at two matrices, n x n and (n + 1) x (n + 1), so
    more than 11,584 observations raise GramTooLargeError before any is
    built.

    The regularized Gram matrix is K = s2 * R_l + w2 * I with R_l the
    unit-variance correlation matrix. One tridiagonal reduction per length
    scale, of R_l bordered by y in one reused (n + 1) x (n + 1) array,
    gives P' R_l P = T and P' y = beta e_1 at once, and so the NLML of
    every (s2, w2) pair at that length scale in O(n):
    K = P (s2 * T + w2 * I) P', so the LDL' solve of s2 * T + w2 * I
    against beta e_1 gives y' K^-1 y, and its pivots give log det K. No
    eigenvector is ever formed, and of T's eigenvalues only the smallest
    and largest, for the trust test. The result is the one a Cholesky
    ``nlml`` of every grid point would select: ``nlml`` re-scores, in
    grid order, each point whose tridiagonal-path value lies within
    ``_RESCORE_RTOL`` of that path's minimum and each point whose
    smallest eigenvalue is below ``_EIGEN_FLOOR`` of its largest (or
    whose tridiagonal-path value is not finite, as when its solve
    fails). The first strict Cholesky minimum among them wins; a failed
    factorization skips its point.
    """
    design, y = _dataset(points, values)
    # exactly equal coordinates are one location; -0.0 equals 0.0
    distinct = len(set(map(tuple, design.tolist())))
    if distinct < 2:
        raise DegenerateDataError(f"fitting needs >= 2 distinct locations, got {distinct}")
    n = y.size
    # Two matrices at once: the squared distances and the correlation
    # matrix bordered by y, reduced in place; both are dropped before
    # re-scoring, where ``nlml`` holds one n x n matrix
    check_dense_budget(8 * (n * n + (n + 1) ** 2), f"a hyperparameter fit over {n} observations; use fewer CSV rows")
    d2 = cdist_sqeuclidean(design, design)
    b = np.zeros((n + 1, n + 1))
    s2 = np.asarray(search.signal_variances)
    w2 = np.asarray(search.noise_variances)
    scored = [_tridiagonal_nlml(d2, y, l, s2, w2, b) for l in search.length_scales]
    del d2, b
    # (length scale, signal variance, noise variance) in C order is the
    # order of ``search.combinations()``
    approx = np.ravel([value for value, _ in scored])
    magnitude = np.ravel([m for _, m in scored])
    rescore = ~np.isfinite(approx)
    if not rescore.all():
        lowest = int(np.nanargmin(approx))
        rescore |= approx <= approx[lowest] + _RESCORE_RTOL * magnitude[lowest]
    best = None
    best_val = math.inf
    for point, again in zip(search.combinations(), rescore):
        if not again:
            continue
        h = Hyperparameters(*point)
        try:
            val = nlml(design, y, h)
        except NumericalError:
            continue
        if math.isfinite(val) and val < best_val:
            best, best_val = h, val
    if best is None:
        raise NumericalError("no grid point produced a finite NLML")
    return best, best_val
