"""The LAPACK, BLAS and distance routines fieldcover calls are scipy's own objects.

``fieldcover._lapack`` loads scipy's compiled ``_flapack``, ``_fblas`` and
``_distance_pybind`` from their files, without running the package
``__init__`` of ``scipy.linalg`` or ``scipy.spatial``. Every routine it
exports must be the very object ``scipy.linalg.lapack``,
``scipy.linalg.blas`` or ``scipy.spatial._distance_pybind`` hands out,
whichever is imported first, and the fallback (the normal import) must
give the same objects.

``gp.nlml`` factors its Gram matrix in place with ``dpotrf`` and solves
with ``dpotrs``, where it called ``cho_factor`` and ``cho_solve``; a copy
of that earlier form is the reference, and the two must agree to the
bit.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.blas
import scipy.linalg.lapack
import scipy.spatial._distance_pybind
from scipy.linalg import cho_factor, cho_solve

from fieldcover import _lapack, cli, gp
from fieldcover.errors import NumericalError
from fieldcover.gp import Hyperparameters, kernel_matrix, nlml
from test_incremental_oracle import STRESS_CASES, seeded_survey, stress_survey

SRC = Path(_lapack.__file__).resolve().parent.parent

# Run in a fresh interpreter: imports fieldcover.cli before or after
# scipy.linalg and scipy.spatial and reports what it sees.
PROBE = """
import json, sys
scipy_first = sys.argv[1] == "scipy-first"
loaded = ("scipy.linalg._flapack", "scipy.linalg._fblas", "scipy.spatial._distance_pybind")
if scipy_first:
    import scipy.linalg, scipy.spatial
    first = {m: sys.modules[m] for m in loaded}
import fieldcover.cli
from fieldcover import _lapack
scipy_modules = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
import scipy.linalg.blas, scipy.linalg.lapack, scipy.spatial._distance_pybind
modules = (scipy.linalg.lapack, scipy.linalg.blas, scipy.spatial._distance_pybind)
public = {n: next(getattr(m, n) for m in modules if hasattr(m, n)) for n in _lapack.__all__}
print(json.dumps({
    "scipy_modules": [] if scipy_first else scipy_modules,
    "same": [n for n in _lapack.__all__ if getattr(_lapack, n) is public[n]],
    "kept": all(sys.modules[m] is first[m] for m in loaded) if scipy_first else True,
}))
"""


def public_routine(name: str):
    modules = (scipy.linalg.lapack, scipy.linalg.blas, scipy.spatial._distance_pybind)
    return next(getattr(m, name) for m in modules if hasattr(m, name))


@pytest.mark.parametrize("order", ["fieldcover-first", "scipy-first"])
def test_every_routine_is_scipys_own_object(order):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", PROBE, order],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    seen = json.loads(run.stdout)
    assert seen["scipy_modules"] == []
    assert seen["same"] == _lapack.__all__
    # loading after scipy.linalg and scipy.spatial leaves their modules in
    # sys.modules alone
    assert seen["kept"] is True


def test_fallback_import_gives_the_same_objects(monkeypatch):
    assert _lapack._extension_file("linalg", "_flapack") is not None
    assert _lapack._extension_file("spatial", "_distance_pybind") is not None
    assert _lapack._extension_file("linalg", "_no_such_module") is None
    assert _lapack._extension_file("spatial", "_flapack") is None
    monkeypatch.setattr(_lapack, "_extension_file", lambda package, name: None)
    flapack = _lapack._extension("linalg", "_flapack")
    fblas = _lapack._extension("linalg", "_fblas")
    others = {
        "dtrmm": fblas,
        "dtrmv": fblas,
        "cdist_sqeuclidean": _lapack._extension("spatial", "_distance_pybind"),
    }
    for name in _lapack.__all__:
        assert getattr(others.get(name, flapack), name) is public_routine(name)


# --- nlml against its earlier cho_factor / cho_solve form ---------------------


def cho_nlml(design, y, hyper: Hyperparameters) -> float:
    """``gp.nlml`` as it was: a copy of the Gram matrix factored by ``cho_factor``."""
    n = len(y)
    gram = kernel_matrix(design, design, hyper)
    gram[np.diag_indices_from(gram)] += hyper.noise_variance
    factor = cho_factor(gram, lower=True, check_finite=False)
    alpha = cho_solve(factor, y, check_finite=False)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    return 0.5 * (float(y @ alpha) + logdet + n * math.log(2.0 * math.pi))


def assert_same_bits(pts, values, points) -> None:
    """``nlml`` equals ``cho_nlml`` to the bit, or both fail, at every point."""
    failed = 0
    for point in points:
        h = Hyperparameters(*point)
        try:
            expected = cho_nlml(pts, values, h)
        except np.linalg.LinAlgError:
            failed += 1
            with pytest.raises(NumericalError):
                nlml(pts, values, h)
            continue
        got = nlml(pts, values, h)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (point, got, expected)
    assert failed < len(points)


@pytest.mark.parametrize("seed", range(12))
def test_nlml_matches_cho_factor_bit_for_bit_on_seeded_surveys(seed):
    pts, values = seeded_survey(seed, duplicates=seed == 0)
    assert_same_bits(pts, values, list(cli._default_search(pts, values).combinations()))


@pytest.mark.parametrize("case", STRESS_CASES)
def test_nlml_matches_cho_factor_bit_for_bit_on_stress_cases(case):
    pts, values, search = stress_survey(case)
    assert_same_bits(pts, values, list(search.combinations()))


def test_nlml_matches_cho_factor_bit_for_bit_on_one_row():
    assert_same_bits(np.array([(2.0, 3.0)]), np.array([0.7]), [(1.0, 1.0, 0.1), (5.0, 12.87, 0.0361), (0.3, 2.0, 1e-6)])


def test_failed_factorization_raises_numerical_error(monkeypatch):
    real = gp.dpotrf

    def failing(*args, **kwargs):
        lower, _ = real(*args, **kwargs)
        return lower, 1

    monkeypatch.setattr(gp, "dpotrf", failing)
    pts, values = seeded_survey(1)
    with pytest.raises(NumericalError, match="1-th leading minor"):
        nlml(pts, values, Hyperparameters(5.0, 1.0, 0.1))


def test_nlml_peaks_at_one_gram_matrix():
    # the guard counts one n x n matrix: the Gram matrix, factored in
    # place; the design, values, solution and diagonal come on top
    n = 1_500
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 60.0, size=(n, 2))
    values = np.sin(pts[:, 0] / 9.0) + 0.2 * rng.standard_normal(n)
    tracemalloc.start()
    try:
        nlml(pts, values, Hyperparameters(6.0, 1.0, 0.05))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * n + 32 * 8 * n
