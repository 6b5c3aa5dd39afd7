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

Every posterior query is one read of V = L^-1 K(sites, points), with L
the Cholesky factor: the variance is s2 - sum_i V_i^2 and the mean b . V
with b = L^-1 y, summed over all rows or over a leading block of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._lapack import cdist_sqeuclidean, dormqr, dpotrf, dpotrs, dptsv, dsterf, dsytrd, dsytrd_lwork, dtrtrs
from .errors import DegenerateDataError, GramTooLargeError, NumericalError

# Byte budget of one float64 (sites x query points) cross-covariance chunk
# in ``Posterior``'s read; one chunk is live at a time, and a read without
# means (``variance``, so verification) holds only one panel of it. Means
# depend on where chunks start and end, variances do not: 2 MiB chunks
# moved the posterior means of ``simulate`` by up to 1.8e-15 and the MSE
# columns of ``trial_summary.csv`` and ``curve_entropy.csv`` by about
# 2e-16 relative, so changing this changes written outputs.
_CHUNK_BYTES = 32 * 2**20
# A chunk is solved in place this many points at a time, which keeps
# OpenBLAS's packing buffer panel-sized rather than chunk-sized.
_PANEL_POINTS = 512
# Largest Gram matrix a dense solve may allocate. Factorization is in
# place, so this is also about the peak of the factorization itself.
_MAX_GRAM_BYTES = 2 * 2**30
# The grid search scores every point from one tridiagonal reduction per
# length scale, then re-scores by Cholesky (``nlml``) every point whose
# tridiagonal-path NLML lies within this relative distance of the minimum,
# so rounding in that path cannot change which point wins. The distance
# is relative to the sum of the magnitudes of the NLML's terms, which is
# what bounds its rounding error. Trusted scores near ``_EIGEN_FLOOR``
# have been seen 1.15e-9 of that sum away from Cholesky (a collinear
# survey), so the window leaves a factor of about nine above that.
_RESCORE_RTOL = 1e-8
# A tridiagonal-path score is trusted only while the smallest eigenvalue of
# the regularized Gram matrix is at least this fraction of its largest.
# Below that the Cholesky factorization may fail (and the search must skip
# the point), so such points are always re-scored by Cholesky.
_EIGEN_FLOOR = 1e-8


def check_dense_budget(nbytes: int, what: str) -> None:
    """Raise GramTooLargeError when ``what`` would allocate more than the dense cap.

    ``what`` names the computation, then the caller's remedy after a semicolon.
    """
    if nbytes > _MAX_GRAM_BYTES:
        raise GramTooLargeError(
            f"need {nbytes / 2**30:.2f} GiB of dense matrices, above the "
            f"{_MAX_GRAM_BYTES / 2**30:g} GiB cap, for {what}"
        )


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
        sites, counts, rows = self._merge()
        vals = np.asarray(values, dtype=float)
        if vals.shape[0] != rows.size:
            raise ValueError(f"expected {rows.size} values, got {vals.shape[0]}")
        sums = np.zeros((sites.shape[0],) + vals.shape[1:])
        np.add.at(sums, rows, vals)
        return sums / counts.reshape((-1,) + (1,) * (vals.ndim - 1))

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
    relies on the rows staying in visiting order instead. Factors once;
    every query then goes through one chunked read of
    V = L^-1 K(sites, points) that gives variances and any number of
    means together, so a variance is the same bits whichever query
    asked for it.
    """

    def __init__(self, sites, hyper: Hyperparameters, counts=None):
        self.hyper = hyper
        self.design = np.asarray(sites, dtype=float).reshape(-1, 2)
        n = self.design.shape[0]
        noise = hyper.noise_variance
        if counts is not None:
            counts = np.asarray(counts)
            if counts.shape != (n,) or np.any(counts < 1):
                raise ValueError(f"need one count >= 1 per site, got shape {counts.shape}")
            noise = noise / counts
        if n == 0:
            self._factor = None
            return
        check_dense_budget(
            8 * n * n,
            f"a dense solve over {n} Gram rows; raise the variance target or shrink the environment",
        )
        gram = kernel_matrix(self.design, self.design, hyper)
        gram[np.diag_indices_from(gram)] += noise
        # The Gram matrix is exactly symmetric, so its transpose is the
        # Fortran-ordered view LAPACK factors in place, without a copy. The
        # routines are scipy's compiled LAPACK (``._lapack``), called as
        # scipy's wrappers would call them but without their per-call
        # checks: verification makes one factor and one solve per tile.
        lower, info = dpotrf(gram.T, lower=1, overwrite_a=1, clean=0)
        if info > 0:
            raise NumericalError(
                f"Gram factorization failed: {info}-th leading minor of the array is not positive definite"
            )
        self._factor = lower

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
        factor of the leading block of the Gram matrix, so one
        factorization serves every prefix: with V = L^-1 K(sites, points)
        and b = L^-1 y solved once per value column, the first n rows give
        variance s2 - sum_{i<n} V_i^2 and mean sum_{i<n} b_i V_i. The sums
        run over the rows in order, so a longer prefix never reports a
        larger variance at any point. V is built in chunks of about
        ``_CHUNK_BYTES``, each solved in place a panel of ``_PANEL_POINTS``
        points at a time and dropped before the next is built, so one
        chunk is live at a time; without value columns each panel is
        built, solved and dropped alone. Returns means of shape
        (len(lengths), len(points)) + the trailing shape of ``values`` and
        variances of shape (len(lengths), len(points)).
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        y = np.asarray(values, dtype=float)
        if y.shape[0] != self.size:
            raise ValueError(f"expected {self.size} value rows, one per site, got {y.shape[0]}")
        columns = y.reshape(self.size, math.prod(y.shape[1:])).T
        s2 = self.hyper.signal_variance
        # column-major, so each column's means are contiguous
        means = np.zeros((columns.shape[0], len(lengths), pts.shape[0])).transpose(1, 2, 0)
        variances = np.full((len(lengths), pts.shape[0]), s2)
        lower = self._factor
        if lower is not None:
            betas = [dtrtrs(lower, c, lower=1)[0] for c in columns]
            order = sorted(range(len(lengths)), key=lengths.__getitem__)
            step = max(1, _CHUNK_BYTES // (8 * self.size))
            # a variance sums each point's own column of V, so a read
            # without means builds one panel of a chunk at a time and
            # gets the chunk's bits; a mean's sum spans the chunk's V
            width = step if betas else _PANEL_POINTS
            blocks = [
                slice(lo, min(lo + width, start + step))
                for start in range(0, pts.shape[0], step)
                for lo in range(start, min(start + step, pts.shape[0]), width)
            ]
            for block in blocks:
                # K(sites, block) is Fortran-ordered, and so is each panel
                # of its columns: every solve runs in place
                v = kernel_matrix(pts[block], self.design, self.hyper).T
                for p in range(0, v.shape[1], _PANEL_POINTS):
                    dtrtrs(lower, v[:, p : p + _PANEL_POINTS], lower=1, overwrite_b=1)
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
    # the Gram matrix, factored in place
    check_dense_budget(8 * n * n, f"an NLML over {n} observations; use fewer CSV rows")
    gram = kernel_matrix(design, design, hyper)
    gram[np.diag_indices_from(gram)] += hyper.noise_variance
    # as in ``Posterior``: the exactly symmetric Gram's transpose is the
    # Fortran view dpotrf factors in place, and dpotrs solves with it
    lower, info = dpotrf(gram.T, lower=1, overwrite_a=1, clean=0)
    if info > 0:
        raise NumericalError(
            f"Gram factorization failed: {info}-th leading minor of the array is not positive definite"
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


def _tridiagonal_nlml(d2: np.ndarray, y: np.ndarray, length_scale: float, s2: np.ndarray, w2: np.ndarray):
    """NLML of every (s2, w2) pair at one length scale, from one tridiagonal reduction.

    R = exp(-d2 / 2l^2) is reduced in place to Q' R Q = T. Then
    K = s2 R + w2 I = Q (s2 T + w2 I) Q', so with z = Q' y each pair's
    y' K^-1 y is one O(n) tridiagonal solve, and its log det comes from
    R's eigenvalues, which T yields in O(n^2) without eigenvectors.
    Returns an (len(s2), len(w2)) array of values, NaN where the path is
    not trusted or a solve fails, and the sum of the magnitudes of each
    value's terms, which bounds its rounding error.
    """
    shape = (s2.size, w2.size)
    failed = np.full(shape, np.nan), np.full(shape, np.nan)
    r = np.empty_like(d2)
    np.divide(d2, -(2.0 * length_scale**2), out=r)
    np.exp(r, out=r)
    # R is exactly symmetric, so its transpose is the Fortran-ordered view
    # LAPACK reduces in place, without a copy
    lwork, _ = dsytrd_lwork(y.size, lower=1)
    c, d, e, tau, info = dsytrd(r.T, lower=1, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        return failed
    # Q = H(1) ... H(n-1) leaves the first coordinate alone; its reflectors
    # below the subdiagonal form the QR-style Q of the trailing n-1 rows
    z = np.array(y, dtype=float)
    z[1:] = dormqr("L", "T", c[1:, :-1], tau, z[1:, None], lwork=1)[0][:, 0]
    lam, info = dsterf(d, e)
    if info != 0:
        return failed
    ev = s2[:, None, None] * lam + w2[None, :, None]
    quad = np.full(shape, np.nan)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, j in np.ndindex(shape):
            *_, x, info = dptsv(s2[i] * d + w2[j], s2[i] * e, z[:, None], overwrite_d=1, overwrite_e=1)
            if info == 0:
                quad[i, j] = z @ x[:, 0]
        logs = np.log(ev)
    const = y.size * math.log(2.0 * math.pi)
    trusted = np.min(ev, axis=-1) >= _EIGEN_FLOOR * np.max(ev, axis=-1)
    value = 0.5 * (quad + np.sum(logs, axis=-1) + const)
    magnitude = 0.5 * (quad + np.sum(np.abs(logs), axis=-1) + const)
    return np.where(trusted, value, np.nan), magnitude


def fit_hyperparameters(points, values, search: HyperparameterGrid) -> Hyperparameters:
    """Exhaustive NLML grid search over ``values`` measured at ``points``, first minimum wins ties.

    ``points`` is (n, 2) and ``values`` has one entry per point. Needs at
    least two distinct measurement locations; raises
    DegenerateDataError otherwise. Grid points whose factorization fails
    are skipped. The search is budgeted at three n x n matrices, so more
    than 9,459 observations raise GramTooLargeError before any is built.

    The regularized Gram matrix is K = s2 * R_l + w2 * I with R_l the
    unit-variance correlation matrix. One tridiagonal reduction
    Q' R_l Q = T per length scale gives the NLML of every (s2, w2) pair
    at that length scale in O(n): K = Q (s2 * T + w2 * I) Q', so y' K^-1 y
    is one tridiagonal solve against z = Q' y, and K's eigenvalues are
    s2 * lambda + w2 with lambda the eigenvalues of T, which are R_l's.
    No eigenvector is ever formed. The result is the one a Cholesky
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
    # Three n x n matrices at once: the squared distances, the correlation
    # matrix reduced in place and the copy of its reflectors that
    # ``dormqr`` reads; the distances are dropped before re-scoring, where
    # ``nlml`` holds one
    check_dense_budget(3 * 8 * n * n, f"a hyperparameter fit over {n} observations; use fewer CSV rows")
    d2 = cdist_sqeuclidean(design, design)
    s2 = np.asarray(search.signal_variances)
    w2 = np.asarray(search.noise_variances)
    scored = [_tridiagonal_nlml(d2, y, l, s2, w2) for l in search.length_scales]
    del d2
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
    return best
