"""The field's node covariance against the per-row fill it replaced.

``fields._node_covariance`` computes each ny x ny block once per
distinct squared x difference and copies it to the other positions
with the same difference, and fills only the upper triangle. The
reference fills every row block from the per-axis tables, as the build
did before. Both must agree bit for bit on what LAPACK reads of the
transpose: its lower triangle, which is the upper one, diagonal
included, for ``dpotrf``, and for ``eigh`` the lower triangle of the
whole matrix as the reference fills it with ``full``. The cases are the
draw oracle's configurations, a box offset by 1e5 (whose x differences
round to many distinct squares) and a spacing that does not divide the
extent. On the README's 51 x 51 grid, 51 of the 1,326 blocks with
k >= i are computed and the rest are copies.

The build also keeps the other triangle off the resident set: in a
fresh interpreter, building the README's 51 x 51 node covariance must
make well under one n x n matrix resident.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_field_draw_oracle import CONFIGS

from fieldcover import fields
from fieldcover.gp import Hyperparameters

SRC = Path(__file__).resolve().parent.parent / "src"


def reference_node_covariance(xs, ys, hyper: Hyperparameters, full: bool) -> np.ndarray:
    """The covariance filled one row block of x index i at a time."""
    nx, ny = xs.size, ys.size
    dx2 = np.square(xs[:, None] - xs)
    dy2 = np.square(ys[:, None] - ys)
    scale = -(2.0 * hyper.length_scale**2)
    cov = np.zeros((nx * ny, nx * ny))
    for i in range(nx):
        first = 0 if full else i
        block = cov[i * ny : (i + 1) * ny, first * ny :].reshape(ny, nx - first, ny)
        np.add(dx2[i, first:, None], dy2[:, None, :], out=block)
        np.divide(block, scale, out=block)
        np.exp(block, out=block)
        np.multiply(hyper.signal_variance, block, out=block)
    cov[np.diag_indices_from(cov)] += 1e-10 * hyper.signal_variance
    return cov


CASES = [(env.bounds, hyper, spacing) for env, hyper, spacing, _ in CONFIGS] + [
    # 107 distinct squared x differences over 61 x nodes
    ((1e5, 1e5, 1e5 + 6, 1e5 + 2), Hyperparameters(0.5, 2.0, 0.1), 0.1),
    ((0.0, 0.0, 7.3, 5.1), Hyperparameters(1.5, 1.0, 0.2), 0.7),
]


@pytest.mark.parametrize("bounds, hyper, spacing", CASES)
@pytest.mark.parametrize("full", [False, True])
def test_node_covariance_is_the_per_row_fill_bit_for_bit(bounds, hyper, spacing, full):
    x0, y0, x1, y1 = bounds
    xs = fields._axis_nodes(x0, x1, spacing)
    ys = fields._axis_nodes(y0, y1, spacing)
    got = fields._node_covariance(xs, ys, hyper)
    want = reference_node_covariance(xs, ys, hyper, full)
    assert got.shape == want.shape == (xs.size * ys.size,) * 2
    if full:
        lower = np.tril_indices(want.shape[0])
        assert got.T[lower].tobytes() == want[lower].tobytes()
    else:
        upper = np.triu_indices(want.shape[0])
        assert got[upper].tobytes() == want[upper].tobytes()


RESIDENT_GROWTH = """
from fieldcover import fields
from fieldcover.gp import Hyperparameters

def resident():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return 1024 * int(line.split()[1])

xs = fields._axis_nodes(0.0, 50.0, 1.0)
hyper = Hyperparameters(8.33, 12.87, 0.0361)
before = resident()
cov = fields._node_covariance(xs, xs, hyper)
print(resident() - before, cov.shape[0])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_triangle_build_keeps_the_other_half_off_the_resident_set():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", RESIDENT_GROWTH], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    growth, n = int(out[0]), int(out[1])
    assert n == 51 * 51
    # a whole matrix is 8 n^2 = 54.1 MB; the triangle's pages are 0.70 of it
    assert growth <= 0.75 * 8 * n * n
