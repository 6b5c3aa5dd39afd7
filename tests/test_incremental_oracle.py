"""The incremental greedy baselines and grid-search fit against per-step references.

The references are the straightforward versions of the same algorithms:
the greedy ones refactor the picks and invert the remaining candidates'
Gram matrix at every step, and the fit factors every grid point by
Cholesky. The incremental versions must pick the same sequence, score
every step to rounding, and select the same hyperparameters; the fit's
tridiagonal scores must also agree with Cholesky, within the re-score
tolerance, at every trusted point of the seeded surveys. The greedy
ones are also pinned to a copy of their earlier right-looking form,
which downdated C x C matrices at every pick; below noise variance
0.0361 that copy is the only reference that pins their picks.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from fieldcover import baselines, cli, gp
from fieldcover.baselines import _pick_with_tie_break, baseline_candidates, entropy_greedy, mi_greedy
from fieldcover.errors import NumericalError
from fieldcover.geometry import Environment
from scipy.spatial.distance import cdist

from fieldcover.gp import (
    HyperparameterGrid,
    Hyperparameters,
    Observation,
    Posterior,
    fit_hyperparameters,
    kernel_matrix,
    nlml,
)

README_H = Hyperparameters(8.33, 12.87, 0.0361)
SCORE_RTOL = 1e-10


def reference_greedy(candidates, hyper: Hyperparameters, budget: int, mutual_information: bool):
    """Picks and per-step scores, refactoring from scratch at every step.

    This pins the library's picks only at noise variance w2 >= 0.0361,
    the smallest in ``CASES``. Below that its own rounding grows: at
    w2 = 1e-6 its scores are off by up to 2.5e-5 relative, and at
    w2 = 1e-4 its MI picks on the 144-candidate grid part from the
    library's at step 7. There only ``right_looking_greedy`` pins the
    picks.
    """
    cands = np.asarray(candidates, dtype=float).reshape(-1, 2)
    w2 = hyper.noise_variance
    picks, steps = [], []
    mask = np.ones(cands.shape[0], dtype=bool)
    for _ in range(budget):
        idx = np.flatnonzero(mask)
        remaining = cands[idx]
        scores = Posterior(np.asarray(picks, dtype=float).reshape(-1, 2), hyper).variance(remaining)
        if mutual_information:
            gram = kernel_matrix(remaining, remaining, hyper)
            gram[np.diag_indices_from(gram)] += w2
            denom = 1.0 / np.diag(np.linalg.inv(gram)) - w2
            scores = scores / np.maximum(denom, 1e-18 * hyper.signal_variance)
        chosen = idx[_pick_with_tie_break(remaining, scores)]
        steps.append(scores)
        picks.append((float(cands[chosen, 0]), float(cands[chosen, 1])))
        mask[chosen] = False
    return picks, steps


def recorded_greedy(monkeypatch, select, candidates, hyper: Hyperparameters, budget: int):
    """Run a library greedy and record the scores of every step."""
    steps = []

    def record(remaining, scores):
        steps.append(np.array(scores))
        return _pick_with_tie_break(remaining, scores)

    monkeypatch.setattr(baselines, "_pick_with_tie_break", record)
    return select(candidates, hyper, budget), steps


def l_shape() -> Environment:
    return Environment.polygon([(0.0, 0.0), (24.0, 0.0), (24.0, 12.0), (12.0, 12.0), (12.0, 24.0), (0.0, 24.0)])


CASES = {
    # 20 x 20 regular grid: every first-step score is the prior, and the
    # grid's symmetry keeps producing exact and near ties
    "readme-20x20": (Environment.rectangle((0.0, 0.0), (50.0, 50.0)), README_H, 4.0),
    "l-shape": (l_shape(), Hyperparameters(3.0, 2.0, 0.1), 1.2),
    "noisy-w2-2": (Environment.rectangle((0.0, 0.0), (30.0, 30.0)), Hyperparameters(8.33, 12.87, 2.0), 4.0),
}


def test_readme_case_is_a_20_by_20_grid():
    env, hyper, delta = CASES["readme-20x20"]
    cands = np.asarray(baseline_candidates(env, hyper, delta))
    assert cands.shape == (400, 2)
    assert len(np.unique(cands[:, 0])) == len(np.unique(cands[:, 1])) == 20


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("mutual_information", [False, True], ids=["entropy", "mi"])
def test_full_budget_picks_and_scores_match_reference(monkeypatch, case, mutual_information):
    env, hyper, delta = CASES[case]
    cands = baseline_candidates(env, hyper, delta)
    budget = len(cands)
    expected, ref_steps = reference_greedy(cands, hyper, budget, mutual_information)
    select = mi_greedy if mutual_information else entropy_greedy
    picks, steps = recorded_greedy(monkeypatch, select, cands, hyper, budget)
    assert picks == expected
    assert len(steps) == budget
    for step, (got, want) in enumerate(zip(steps, ref_steps)):
        np.testing.assert_allclose(got, want, rtol=SCORE_RTOL, err_msg=f"step {step}")


def right_looking_greedy(candidates, hyper: Hyperparameters, budget: int, mutual_information: bool) -> list:
    """The greedy selection that the left-looking one replaced.

    It keeps the unpicked candidates' C x C posterior covariance, and for
    mutual information their pool precision, and downdates both by rank
    one per pick, compacting each to the unpicked pool.
    """
    cands = np.asarray(candidates, dtype=float).reshape(-1, 2)
    n = cands.shape[0]
    w2 = hyper.noise_variance
    floor = 1e-18 * hyper.signal_variance
    pool = np.arange(n)
    if mutual_information:
        prec, inverted_at = baselines._pool_precision(cands, hyper), n
    cov = kernel_matrix(cands, cands, hyper)
    picks = []
    for _ in range(budget):
        scores = np.maximum(np.diag(cov), 0.0)
        if mutual_information:
            scores /= np.maximum(1.0 / np.diag(prec) - w2, floor)
        k = _pick_with_tie_break(cands[pool], scores)
        picks.append((float(cands[pool[k], 0]), float(cands[pool[k], 1])))
        keep = np.flatnonzero(np.arange(pool.size) != k)
        pool = pool[keep]
        col = cov[keep, k]
        pivot = cov[k, k] + w2
        cov = cov[np.ix_(keep, keep)]
        cov -= np.outer(col, col / pivot)
        if mutual_information:
            if 2 * pool.size <= inverted_at:
                prec, inverted_at = baselines._pool_precision(cands[pool], hyper), pool.size
            else:
                col = prec[keep, k]
                pivot = prec[k, k]
                prec = prec[np.ix_(keep, keep)]
                prec -= np.outer(col, col / pivot)
    return picks


# The per-step reference above refactors every step and drifts at low
# noise: at w2 = 1e-6 its scores differ from both the left- and the
# right-looking selection by up to 7e-6 relative, and at w2 = 1e-4 its
# MI picks on the 30 x 30 grid part from theirs at step 7. The two
# incremental forms still pick alike there, so they are pinned to each
# other down to w2 = 1e-6.
@pytest.mark.parametrize("side", [30.0, 50.0], ids=["144-candidates", "readme-400-candidates"])
@pytest.mark.parametrize("w2", [1e-6, 2.0])
@pytest.mark.parametrize("mutual_information", [False, True], ids=["entropy", "mi"])
def test_left_looking_picks_match_right_looking(side, w2, mutual_information):
    hyper = Hyperparameters(README_H.length_scale, README_H.signal_variance, w2)
    cands = baseline_candidates(Environment.rectangle((0.0, 0.0), (side, side)), hyper, 4.0)
    assert len(cands) == {30.0: 144, 50.0: 400}[side]
    select = mi_greedy if mutual_information else entropy_greedy
    expected = right_looking_greedy(cands, hyper, len(cands), mutual_information)
    assert select(cands, hyper, len(cands)) == expected


def test_first_entropy_step_is_an_exact_tie_at_the_prior(monkeypatch):
    env, hyper, delta = CASES["readme-20x20"]
    cands = baseline_candidates(env, hyper, delta)
    picks, steps = recorded_greedy(monkeypatch, entropy_greedy, cands, hyper, 1)
    assert np.all(steps[0] == hyper.signal_variance)
    assert picks == [min(cands)]


# --- grid-search fit ---------------------------------------------------------


def reference_fit(observations, search: HyperparameterGrid) -> Hyperparameters:
    """Cholesky NLML at every grid point in order; first strict minimum wins."""
    best, best_val = None, math.inf
    for l, s2, w2 in search.combinations():
        h = Hyperparameters(l, s2, w2)
        try:
            val = nlml(observations, h)
        except NumericalError:
            continue
        if math.isfinite(val) and val < best_val:
            best, best_val = h, val
    return best


def seeded_survey(seed: int, duplicates: bool = False):
    rng = np.random.default_rng([seed, 7])
    n = int(rng.integers(40, 120))
    side = float(rng.uniform(5.0, 60.0))
    pts = rng.uniform(0.0, side, size=(n, 2))
    if duplicates:
        # a quarter of the points revisit earlier locations
        pts[: n // 4] = pts[n // 4 : 2 * (n // 4)]
    truth = Hyperparameters(rng.uniform(0.05, 0.4) * side, rng.uniform(0.5, 5.0), rng.uniform(0.01, 1.0))
    cov = kernel_matrix(pts, pts, truth) + truth.noise_variance * np.eye(n)
    values = np.linalg.cholesky(cov) @ rng.standard_normal(n)
    values -= values.mean()
    return pts, values


def observations_of(pts, values):
    return [Observation(tuple(p), float(v)) for p, v in zip(pts, values)]


@pytest.mark.parametrize("seed", range(12))
def test_fit_selects_what_per_point_cholesky_selects(seed):
    pts, values = seeded_survey(seed, duplicates=seed == 0)
    if seed == 0:
        assert len({tuple(p) for p in pts}) < len(pts)
    obs = observations_of(pts, values)
    search = cli._default_search(pts, values)
    assert fit_hyperparameters(obs, search) == reference_fit(obs, search)


def counting_nlml(monkeypatch) -> list:
    """Replace gp.nlml with a wrapper that records each grid point it scores."""
    scored = []
    original = gp.nlml

    def counted(observations, hyper):
        scored.append(hyper)
        return original(observations, hyper)

    monkeypatch.setattr(gp, "nlml", counted)
    return scored


def test_fit_rescores_only_near_the_minimum(monkeypatch):
    pts, values = seeded_survey(3)
    obs = observations_of(pts, values)
    search = cli._default_search(pts, values)
    scored = counting_nlml(monkeypatch)
    best = fit_hyperparameters(obs, search)
    assert best in scored
    assert len(scored) < 5


def test_forced_near_tie_is_resolved_by_cholesky(monkeypatch):
    pts, values = seeded_survey(5)
    obs = observations_of(pts, values)
    winner = reference_fit(obs, cli._default_search(pts, values))
    # two length scales one part in 1e13 apart: their NLMLs differ far
    # below the re-score tolerance, so the tridiagonal path must not decide
    near = winner.length_scale * (1.0 + 1e-13)
    for scales in ((winner.length_scale, near), (near, winner.length_scale)):
        search = HyperparameterGrid(scales, (winner.signal_variance,), (winner.noise_variance,))
        scored = counting_nlml(monkeypatch)
        assert fit_hyperparameters(obs, search) == reference_fit(obs, search)
        assert [h.length_scale for h in scored] == list(scales)


def test_fit_skips_points_whose_factorization_fails():
    # noise far below rounding of the correlation matrix of nearly
    # coincident points: Cholesky fails there, so the search must skip it
    pts = np.array([(0.0, 0.0), (1e-9, 0.0), (3.0, 1.0), (5.0, 4.0)])
    values = np.array([1.0, 1.0, -0.5, 0.3])
    obs = observations_of(pts, values)
    search = HyperparameterGrid((50.0, 2.0), (1.0,), (1e-300, 0.1))
    with pytest.raises(NumericalError):
        nlml(obs, Hyperparameters(50.0, 1.0, 1e-300))
    assert fit_hyperparameters(obs, search) == reference_fit(obs, search)


def assert_scores_agree_with_cholesky(pts, values, search: HyperparameterGrid) -> None:
    """Every trusted tridiagonal score lies within the re-score tolerance of ``nlml``."""
    obs = observations_of(pts, values)
    d2 = cdist(pts, pts, "sqeuclidean")
    s2 = np.asarray(search.signal_variances)
    w2 = np.asarray(search.noise_variances)
    trusted = 0
    for l in search.length_scales:
        value, magnitude = gp._tridiagonal_nlml(d2, values, l, s2, w2)
        for (i, j), score in np.ndenumerate(value):
            if np.isnan(score):
                continue
            trusted += 1
            exact = nlml(obs, Hyperparameters(l, s2[i], w2[j]))
            assert abs(score - exact) <= gp._RESCORE_RTOL * magnitude[i, j], (l, s2[i], w2[j])
    assert trusted > 0


@pytest.mark.parametrize("seed", range(12))
def test_tridiagonal_scores_agree_with_cholesky_wherever_trusted(seed):
    pts, values = seeded_survey(seed, duplicates=seed == 0)
    assert_scores_agree_with_cholesky(pts, values, cli._default_search(pts, values))


STRESS_CASES = ("low-noise", "long-scales", "duplicates", "collinear", "two-rows", "three-rows")


def stress_survey(case: str):
    """A small dataset and search grid that stress the tridiagonal path."""
    rng = np.random.default_rng([13, STRESS_CASES.index(case)])
    if case == "two-rows":
        pts = np.array([(0.0, 0.0), (3.0, 4.0)])
    elif case == "three-rows":
        pts = np.array([(0.0, 0.0), (3.0, 4.0), (-2.0, 1.5)])
    elif case == "collinear":
        pts = np.column_stack([np.sort(rng.uniform(0.0, 40.0, 60)), np.full(60, 5.0)])
    else:
        pts = rng.uniform(0.0, 20.0, size=(50, 2))
        if case == "duplicates":
            # every location measured three times
            pts = np.repeat(pts[:20], 3, axis=0)
    values = np.sin(pts[:, 0] / 3.0) + np.cos(pts[:, 1] / 5.0) + 0.05 * rng.standard_normal(len(pts))
    values -= values.mean()
    extent = float(np.hypot(*np.ptp(pts, axis=0)))
    spread = float(np.var(values))
    if case == "low-noise":
        return pts, values, HyperparameterGrid(
            np.geomspace(extent / 20.0, extent, 4), (spread / 3.0, spread * 3.0), (1e-6, 1e-5, 1e-4, 1e-3)
        )
    if case == "long-scales":
        return pts, values, HyperparameterGrid(
            np.geomspace(extent / 4.0, 2.0 * extent, 5), (spread / 3.0, spread * 3.0), (1e-3, 1e-2, 0.1)
        )
    return pts, values, HyperparameterGrid(
        np.geomspace(extent / 20.0, 2.0 * extent, 5), (spread / 3.0, spread, spread * 3.0), (1e-6, 1e-3, 0.1)
    )


@pytest.mark.parametrize("case", STRESS_CASES)
def test_fit_matches_cholesky_on_stress_cases(case):
    pts, values, search = stress_survey(case)
    if case == "duplicates":
        assert len({tuple(p) for p in pts}) == len(pts) // 3
    obs = observations_of(pts, values)
    assert fit_hyperparameters(obs, search) == reference_fit(obs, search)


@pytest.mark.parametrize("case", STRESS_CASES)
def test_stress_scores_agree_with_cholesky(case):
    # z = Q' y from one (2 rows) or two (3 rows) stored reflectors, where
    # the selection alone does not pin z; and trusted scores near the
    # eigenvalue floor, which round the most (collinear: 1.15e-9 of the
    # magnitude away from Cholesky)
    assert_scores_agree_with_cholesky(*stress_survey(case))


def test_fit_stays_within_the_matrices_its_guard_counts():
    # the guard budgets five n x n matrices, which caps a fit at 7,327 rows
    n = 1_500
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 60.0, size=(n, 2))
    values = np.sin(pts[:, 0] / 9.0) + 0.2 * rng.standard_normal(n)
    obs = observations_of(pts, values)
    search = HyperparameterGrid((3.0, 12.0), (0.5, 2.0), (0.01, 0.1))
    tracemalloc.start()
    try:
        fit_hyperparameters(obs, search)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * n * n
