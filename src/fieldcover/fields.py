"""Synthetic ground-truth fields on dense rectangular grids.

A field stands in for real point measurements: one exact draw from the
zero-mean process on a node grid covering the environment's bounding
box, with bilinear interpolation between nodes.  Planners never see
these values directly; they only get noisy point samples.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from ._lapack import dpotrf, dtrmv
from .errors import GridTooLargeError
from .geometry import Environment
from .gp import Hyperparameters

_MAX_EXACT_POINTS = 10_000


@dataclass(frozen=True)
class FieldGrid:
    """Dense field values on a uniform grid, x index first."""

    origin: tuple[float, float]
    spacing: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.spacing) and self.spacing > 0.0):
            raise ValueError("spacing must be positive and finite")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.size == 0:
            raise ValueError("values must be a non-empty 2D array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))
        object.__setattr__(self, "values", vals)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def points(self) -> np.ndarray:
        """All grid nodes in x-major order, matching ``values.ravel()``."""
        nx, ny = self.values.shape
        xs = self.origin[0] + self.spacing * np.arange(nx)
        ys = self.origin[1] + self.spacing * np.arange(ny)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])

    def value_at(self, points) -> np.ndarray:
        """Bilinear interpolation at each query point.

        Queries must fall inside the node extent (up to a 1e-9 pad for
        points sitting on the far edge).
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        nx, ny = self.values.shape
        u = (pts[:, 0] - self.origin[0]) / self.spacing
        v = (pts[:, 1] - self.origin[1]) / self.spacing
        pad = 1e-9
        if np.any(u < -pad) or np.any(u > nx - 1 + pad) or np.any(v < -pad) or np.any(v > ny - 1 + pad):
            raise ValueError("query point outside the field extent")
        u = np.clip(u, 0.0, nx - 1.0)
        v = np.clip(v, 0.0, ny - 1.0)
        i0 = np.clip(np.floor(u).astype(int), 0, max(nx - 2, 0))
        j0 = np.clip(np.floor(v).astype(int), 0, max(ny - 2, 0))
        i1 = np.minimum(i0 + 1, nx - 1)
        j1 = np.minimum(j0 + 1, ny - 1)
        fu = np.clip(u - i0, 0.0, 1.0)
        fv = np.clip(v - j0, 0.0, 1.0)
        return (
            self.values[i0, j0] * (1.0 - fu) * (1.0 - fv)
            + self.values[i1, j0] * fu * (1.0 - fv)
            + self.values[i0, j1] * (1.0 - fu) * fv
            + self.values[i1, j1] * fu * fv
        )


def _axis_nodes(lo: float, hi: float, spacing: float) -> np.ndarray:
    # one node past the box edge when spacing does not divide the extent,
    # so every point of the environment stays interpolable
    steps = max(1, math.ceil((hi - lo) / spacing - 1e-12))
    return lo + spacing * np.arange(steps + 1)


def _lazy_matrix(n: int) -> np.ndarray:
    """An n x n float64 matrix whose pages become resident only when written.

    It lives on its own anonymous mapping, kept off transparent huge
    pages: numpy's allocator asks for 2 MiB pages on large arrays, so
    writing one triangle would make the whole matrix resident.
    """
    buf = mmap.mmap(-1, 8 * n * n, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=float).reshape(n, n)


def _node_covariance(xs: np.ndarray, ys: np.ndarray, hyper: Hyperparameters) -> np.ndarray:
    """Jittered covariance of the nodes ``xs`` x ``ys``, in x-major order.

    Nodes (i, j) and (k, m) are (xs[i] - xs[k])**2 + (ys[j] - ys[m])**2
    apart, which is the sum ``gp.kernel_matrix`` forms, so every entry
    has its bits. The ny x ny block of x indices (i, k) depends on the
    x pair only through the bits of (xs[i] - xs[k])**2, and a grid has
    few distinct ones: each block is computed once, in place at its
    first position in row-major order, and copied from there.

    Only the blocks with k >= i are filled, the upper triangle and the
    diagonal blocks whole; the rest of the matrix is never written and
    never becomes resident. That triangle is the lower one of the
    transpose, which is all LAPACK reads of that Fortran-ordered view.
    """
    nx, ny = xs.size, ys.size
    dx2 = np.square(xs[:, None] - xs)
    dy2 = np.square(ys[:, None] - ys)
    scale = -(2.0 * hyper.length_scale**2)
    cov = _lazy_matrix(nx * ny)
    # the bits of dx2[i, k] -> the first block (i, k) that has them
    first: dict[float, tuple[int, int]] = {}
    for i in range(nx):
        for k in range(i, nx):
            block = cov[i * ny : (i + 1) * ny, k * ny : (k + 1) * ny]
            si, sk = first.setdefault(float(dx2[i, k]), (i, k))
            if (si, sk) != (i, k):
                block[...] = cov[si * ny : (si + 1) * ny, sk * ny : (sk + 1) * ny]
                continue
            np.add(dx2[i, k], dy2, out=block)
            np.divide(block, scale, out=block)
            np.exp(block, out=block)
            np.multiply(hyper.signal_variance, block, out=block)
    cov[np.diag_indices_from(cov)] += 1e-10 * hyper.signal_variance
    return cov


def sample_gp_field(
    env: Environment, hyper: Hyperparameters, spacing: float, seed: int
) -> FieldGrid:
    """One exact draw of the zero-mean process on a grid covering ``env``.

    Deterministic per seed; stream [seed, 0] is reserved for field
    synthesis, stream [seed, 1, t] for per-trial sensor noise. The draw
    is L z for the Cholesky factor L of the node covariance (plus a
    1e-10 * s2 jitter), factored in place. Only the triangle that the
    factorization reads is ever written, so on a large grid of n nodes
    the draw keeps about 0.6-0.7 of one n x n matrix resident (0.70 on
    51 x 51 nodes, 0.58 on 81 x 81). A covariance too ill-conditioned to
    factor is drawn from its eigendecomposition instead, for which numpy
    hands LAPACK whole-matrix copies.
    """
    if not (math.isfinite(spacing) and spacing > 0.0):
        raise ValueError("spacing must be positive and finite")
    x0, y0, x1, y1 = env.bounds
    xs = _axis_nodes(x0, x1, spacing)
    ys = _axis_nodes(y0, y1, spacing)
    count = xs.size * ys.size
    if count > _MAX_EXACT_POINTS:
        raise GridTooLargeError(
            f"{count} grid nodes exceed the {_MAX_EXACT_POINTS}-point cap for "
            f"exact sampling; increase spacing"
        )
    rng = np.random.default_rng([seed, 0])
    z = rng.standard_normal(count)
    # The covariance's transpose is the Fortran view LAPACK factors in
    # place, and its lower triangle is all that is filled; dpotrf and
    # dtrmv (scipy's compiled LAPACK and BLAS, from ``._lapack``) read
    # nothing else.
    lower, info = dpotrf(_node_covariance(xs, ys, hyper).T, lower=1, overwrite_a=1, clean=0)
    if info == 0:
        draw = dtrmv(lower, z, lower=1)
    else:
        # dense grids make the covariance numerically rank-deficient; the
        # failed factorization overwrote it, so build it again; eigh reads
        # only the lower triangle, and of the transpose that is the filled one
        del lower
        w, vecs = np.linalg.eigh(_node_covariance(xs, ys, hyper).T)
        draw = vecs @ (np.sqrt(np.clip(w, 0.0, None)) * z)
    return FieldGrid((float(x0), float(y0)), float(spacing), draw.reshape(xs.size, ys.size))
