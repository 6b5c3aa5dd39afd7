"""Synthetic ground-truth fields on dense rectangular grids.

A field stands in for real point measurements: one exact draw from the
zero-mean process on a node grid covering the environment's bounding
box, with bilinear interpolation between nodes.  Planners never see
these values directly; they only get noisy point samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dpotrf
from .errors import NumericalError, check_dense_budget
from .geometry import Environment
from .gp import Hyperparameters, _axis_kernel


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


def _axis_count(lo: float, hi: float, spacing: float) -> int:
    # one node past the box edge when spacing does not divide the extent, so
    # every point stays interpolable; min() keeps a huge count finite
    return max(1, math.ceil(min((hi - lo) / spacing - 1e-12, 2.0**53))) + 1


def _axis_factor(nodes: np.ndarray, variance: float, length_scale: float) -> np.ndarray:
    """Lower Cholesky factor of the jittered covariance of one axis's nodes.

    The covariance is ``gp._axis_kernel`` over the nodes, plus 1e-10 *
    variance on the diagonal. It is symmetric, so its transpose is the
    Fortran view that LAPACK's ``dpotrf`` (scipy's, from ``._lapack``)
    factors in place.
    """
    cov = _axis_kernel(nodes, nodes, length_scale, variance)
    cov[np.diag_indices_from(cov)] += 1e-10 * variance
    lower, info = dpotrf(cov.T, lower=1, overwrite_a=1)
    if info != 0:
        raise NumericalError(
            f"the covariance of {nodes.size} axis nodes {nodes[1] - nodes[0]:g} apart "
            f"is not positive definite (dpotrf info {info}); increase spacing"
        )
    return lower


def draw_shape(env: Environment, spacing: float) -> tuple[int, int]:
    """Nodes per axis of a truth draw over ``env``'s bounding box at ``spacing``.

    Refuses a draw above the byte budget: the two axis covariances, the
    normals, the product with L_x and the field.
    """
    if not (math.isfinite(spacing) and spacing > 0.0):
        raise ValueError("spacing must be positive and finite")
    x0, y0, x1, y1 = env.bounds
    nx, ny = _axis_count(x0, x1, spacing), _axis_count(y0, y1, spacing)
    draw = f"a truth draw on {nx} x {ny} nodes at spacing {spacing:g}"
    check_dense_budget(8 * (nx * nx + ny * ny + 3 * nx * ny), f"{draw}; use a coarser spacing")
    return nx, ny


def sample_gp_field(
    env: Environment, hyper: Hyperparameters, spacing: float, seed: int
) -> FieldGrid:
    """One exact draw of the zero-mean process on a grid covering ``env``.

    Deterministic per seed; stream [seed, 0] is reserved for field
    synthesis, stream [seed, 1, t] for per-trial sensor noise. On a
    grid the squared-exponential covariance of the nodes is the
    Kronecker product K_x (x) K_y of one covariance per axis, with s2 on
    the x axis, so the draw is L_x Z L_y^T = (L_x (x) L_y) z for the
    per-axis Cholesky factors and the normals z laid out x-major as Z.
    Each axis carries a 1e-10 jitter relative to its variance, which
    puts the product within 1e-10 * s2 of the node covariance with a
    1e-10 * s2 jitter, and the draw holds only the two per-axis
    matrices and a few arrays of one value per node. It refuses them
    above the byte budget before building any (``draw_shape``), and
    raises ``NumericalError`` if an axis covariance does not factor.

    The draw costs nx^3/3 + ny^3/3 flops for the two factors and
    nx ny (nx + ny) multiply-adds for the two products, so its time
    grows with the cube of the side: 0.29 s on 501^2 nodes and 1.25 s
    on 1,001^2 (README hyperparameters, 2 cores). The byte budget
    admits about 7,300^2 nodes.
    """
    nx, ny = draw_shape(env, spacing)
    x0, y0 = env.bounds[0], env.bounds[1]
    xs, ys = x0 + spacing * np.arange(nx), y0 + spacing * np.arange(ny)
    z = np.random.default_rng([seed, 0]).standard_normal(nx * ny).reshape(nx, ny)
    lower_x = _axis_factor(xs, hyper.signal_variance, hyper.length_scale)
    lower_y = _axis_factor(ys, 1.0, hyper.length_scale)
    # einsum sums in its own loops; a BLAS product may split its sums by
    # thread count, which would make the draw depend on the host
    values = np.einsum("ik,jk->ij", np.einsum("ik,kj->ij", lower_x, z), lower_y)
    return FieldGrid((float(x0), float(y0)), float(spacing), values)
