"""Sensing simulation, greedy baselines, and time-resolved metrics.

Every stochastic routine is a pure function of its seed.  The stream
[seed, 0] belongs to field synthesis; trial t draws its sensor noise
from [seed, 1, t], so individual trials and batched studies see the
same noise no matter which path computes them. Noise is drawn one
value per measurement, in the order of the measurement entries, and is
averaged per distinct site (per waypoint, for the curves over time)
before it reaches the posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _MAX_GRAM_BYTES, check_dense_budget
from .fields import FieldGrid
from .geometry import Environment, Lattice
from .gp import Hyperparameters, MeasurementMultiset, Posterior, _points, _site_means, kernel_matrix
from .placement import necessary_radius
from .routing import TimeModel, Tour, cumulative_times, tour_time

__all__ = [
    "SensorModel",
    "TrialReport",
    "baseline_candidates",
    "convergence_study",
    "curves_over_time",
    "entropy_greedy",
    "lawnmower_plan",
    "mi_greedy",
    "ordered_tour",
    "simulate_trial",
    "simulate_trials",
    "single_trial_mse_over_time",
    "survey_rows",
    "variance_over_time",
]


@dataclass(frozen=True)
class SensorModel:
    """Additive Gaussian noise on top of interpolated ground truth."""

    noise_variance: float
    seed: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.noise_variance) and self.noise_variance >= 0.0):
            raise ValueError("noise_variance must be finite and >= 0")
        if not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")


@dataclass(frozen=True)
class TrialReport:
    """Per-grid-point outcome of one simulated survey.

    Aggregates are derived on access so they can never drift from the
    per-point data.
    """

    means: np.ndarray
    variances: np.ndarray
    squared_errors: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.means, dtype=float)
        v = np.asarray(self.variances, dtype=float)
        e = np.asarray(self.squared_errors, dtype=float)
        if not (m.shape == v.shape == e.shape) or m.ndim != 1:
            raise ValueError("per-point arrays must be 1D and congruent")
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)
        object.__setattr__(self, "squared_errors", e)

    @property
    def average_variance(self) -> float:
        return float(self.variances.mean())

    @property
    def average_mse(self) -> float:
        return float(self.squared_errors.mean())

    @property
    def mean_percent_difference(self) -> float:
        v = np.maximum(self.variances, 1e-300)
        return float(np.mean(np.abs(self.squared_errors - self.variances) / v))


def _noise(sensor: SensorModel, trial_index: int, size: int) -> np.ndarray:
    """Sensor noise of one trial, one value per measurement."""
    rng = np.random.default_rng([sensor.seed, 1, trial_index])
    return math.sqrt(sensor.noise_variance) * rng.standard_normal(size)


def simulate_trial(
    truth: FieldGrid,
    plan: MeasurementMultiset,
    sensor: SensorModel,
    hyper: Hyperparameters,
    trial_index: int = 0,
) -> TrialReport:
    """Survey the plan against one noisy realization of the sensor.

    The truth is modeled as a zero-mean field; callers holding an offset
    field should center it first.
    """
    return simulate_trials(truth, plan, sensor, hyper, (trial_index,))[0]


def check_trial_budget(trials: int, sites: int, points: int) -> None:
    """Refuse ``trials`` simulated trials above the byte budget.

    ``sites`` counts the plan's distinct sites and ``points`` the truth
    grid's nodes, so the check can run before the truth is drawn. Per
    trial: the site readings, which take the truth in place, and their
    product with the inverse factor (one value per site each); the means
    and the squared errors (one value per truth point each), the second
    word also covering the read's running sums, which are one panel's;
    and 128 words for the Python objects of these arrays and of the
    report.
    """
    check_dense_budget(
        8 * trials * (2 * sites + 2 * points + 128),
        f"{trials} simulated trials over {points} truth points; use fewer trials",
    )


def simulate_trials(
    truth: FieldGrid,
    plan: MeasurementMultiset,
    sensor: SensorModel,
    hyper: Hyperparameters,
    trial_indices,
) -> list[TrialReport]:
    """``simulate_trial`` for each of ``trial_indices``, from one factorization.

    The design is the same in every trial, so its repeats are merged once,
    and the posterior is factored and its variance computed once, in one
    ``Posterior.mean_and_variance`` read that gives every trial its own
    triangular multiply and its own mat-vec. So each report is the one
    its trial gets alone, to the bit.
    The reports share one variance array. ``trial_indices`` is a
    sequence, so its length is checked before anything is drawn.
    """
    sites, counts, rows = plan._merge()
    trials = len(trial_indices)
    check_trial_budget(trials, sites.shape[0], truth.values.size)
    readings = np.empty((sites.shape[0], trials))
    for k, t in enumerate(trial_indices):
        readings[:, k] = _site_means(counts, rows, _noise(sensor, t, rows.size))
    readings += truth.value_at(sites)[:, None]
    means, variances = Posterior(sites, hyper, counts).mean_and_variance(truth.lattice, readings)
    truth_values = truth.values.ravel()
    return [
        TrialReport(means[:, k], variances, (means[:, k] - truth_values) ** 2)
        for k in range(trials)
    ]


def convergence_study(
    truth: FieldGrid,
    plan: MeasurementMultiset,
    sensor: SensorModel,
    hyper: Hyperparameters,
    trial_counts,
) -> np.ndarray:
    """Mean percent gap between averaged empirical MSE and variance.

    For each count N the squared errors of trials 0..N-1 are averaged
    per grid point and compared to the posterior variance there; the
    result is one mean percent difference per requested count. The
    trials are ``simulate_trials``' reports, so trial t here is
    ``simulate_trial(..., t)``.
    """
    counts = [int(c) for c in trial_counts]
    if not counts or counts[0] < 1 or any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError("trial_counts must be strictly increasing positive integers")

    reports = simulate_trials(truth, plan, sensor, hyper, range(counts[-1]))
    variances = reports[0].variances
    floor = np.maximum(variances, 1e-300)
    running = np.zeros_like(variances)
    gaps = []
    for n, report in enumerate(reports, start=1):
        running += report.squared_errors
        if n in counts:
            gaps.append(float(np.mean(np.abs(running / n - variances) / floor)))
    return np.asarray(gaps)


def _pick_with_tie_break(candidates: np.ndarray, scores: np.ndarray) -> int:
    best = float(scores.max())
    tol = 1e-12 * max(1.0, abs(best))
    tied = np.flatnonzero(scores >= best - tol)
    order = np.lexsort((candidates[tied, 1], candidates[tied, 0]))
    return int(tied[order[0]])


def _pool_precision(cands: np.ndarray, hyper: Hyperparameters) -> np.ndarray:
    # MI's pick order rests on this inverse's rounding: the scores'
    # denominators 1 / pdiag - w2 carry about 1e-12 relative error, the
    # size of the tie tolerance. scipy's dgesv moves them by up to 3.7e-12
    # on the 400 baseline-study candidates and changes the first pick, so
    # the inverse stays numpy's
    gram = kernel_matrix(cands, cands, hyper)
    gram[np.diag_indices_from(gram)] += hyper.noise_variance
    return np.linalg.inv(gram)


def _greedy_select(candidates, hyper: Hyperparameters, budget: int, mutual_information: bool) -> list:
    """Greedy picks by posterior variance, or by variance ratio for mutual information.

    Picking the largest posterior variance is a pivoted Cholesky
    factorization of K + w2 I with the largest-diagonal pivot, so it is
    built left-looking, one column per pick, and no downdated C x C
    matrix is ever formed. ``var`` is every candidate's latent posterior
    variance given the noisy picks so far. A pick's column is its kernel
    column less the earlier columns' share of it, over the square root
    of its own variance plus w2; it is stored as a row of ``factor`` and
    lowers ``var`` by its square. For mutual information ``prec`` is
    (K_pool + w2 I)^-1 over the pool at its last inversion. A candidate
    leaving the pool is a Schur-complement downdate of it, kept the same
    way: the leaver's precision column less ``pfactor``'s share, over
    the square root of its own entry, lowers ``pdiag`` by its square, so
    1 / pdiag - w2 is each unpicked candidate's variance given the rest
    of the pool. The pool precision shrinks as the pool thins out while
    rounding accumulates at its starting scale, so it is inverted afresh
    whenever the pool has halved since the last inversion, which costs
    about 1.15 inversions in all. The scores go to the tie break over the
    unpicked candidates in candidate order. Pick j costs O(C j) plus one
    kernel column.
    """
    cands = np.asarray(candidates, dtype=float).reshape(-1, 2)
    if not isinstance(budget, int) or budget < 0:
        raise ValueError("budget must be a non-negative integer")
    n = cands.shape[0]
    if budget > n:
        raise ValueError(f"budget {budget} exceeds {n} candidates")
    # Peak C x C matrices counted at once; the count is an upper bound.
    # Entropy holds a budget x C factor and one kernel column, at most
    # one C x C matrix. MI peaks inside ``np.linalg.inv``: the Gram
    # matrix, LAPACK's copy of it, the identity it solves against and the
    # result. After it MI holds the pool precision, its factor of at most
    # C/2 leavers and the entropy factor: at most 2.5 C x C matrices.
    matrices = 4 if mutual_information else 2
    check_dense_budget(
        8 * n * n * matrices, f"greedy selection over {n} candidates; use fewer candidates"
    )
    w2 = hyper.noise_variance
    floor = 1e-18 * hyper.signal_variance
    pool = np.arange(n)
    if mutual_information:
        prec, inverted_at = _pool_precision(cands, hyper), n
        pdiag, alive = np.diag(prec).copy(), np.arange(n)
        pfactor, dropped = np.empty((min(budget, (n + 1) // 2), n)), 0
    var = np.full(n, hyper.signal_variance)
    factor = np.empty((budget, n))
    picks: list[tuple[float, float]] = []
    for j in range(budget):
        scores = np.maximum(var[pool], 0.0)
        if mutual_information:
            scores /= np.maximum(1.0 / pdiag[alive] - w2, floor)
        k = _pick_with_tie_break(cands[pool], scores)
        g = pool[k]
        picks.append((float(cands[g, 0]), float(cands[g, 1])))
        col = kernel_matrix(cands, cands[g : g + 1], hyper)[:, 0]
        col -= factor[:j, g] @ factor[:j]
        col /= math.sqrt(var[g] + w2)
        var -= col * col
        factor[j] = col
        keep = np.flatnonzero(np.arange(pool.size) != k)
        pool = pool[keep]
        if mutual_information:
            leaver, alive = alive[k], alive[keep]
            if 2 * pool.size <= inverted_at:
                prec = pfactor = None  # freed before the new inverse allocates
                prec, inverted_at = _pool_precision(cands[pool], hyper), pool.size
                pdiag, alive = np.diag(prec).copy(), np.arange(pool.size)
                pfactor, dropped = np.empty((min(budget - j - 1, (pool.size + 1) // 2), pool.size)), 0
            else:
                pcol = prec[:, leaver] - pfactor[:dropped, leaver] @ pfactor[:dropped]
                pcol /= math.sqrt(pcol[leaver])
                pdiag -= pcol * pcol
                pfactor[dropped] = pcol
                dropped += 1
    return picks


def entropy_greedy(candidates, hyper: Hyperparameters, budget: int) -> list:
    """Pick the highest-posterior-variance candidate, one at a time.

    Gaussian entropy is monotone in variance, so the variance argmax is
    the entropy argmax. Ties (within 1e-12 relative) go to the
    lexicographically smallest location. The picks are the pivots of a
    left-looking pivoted Cholesky factorization: pick j computes one
    kernel column and subtracts the j earlier columns from it, so it
    costs O(C j). It holds a C x budget factor plus one kernel column, at
    most one C x C matrix; the guard still counts two, so more than
    11,585 candidates raise GramTooLargeError before anything large is
    allocated.
    """
    return _greedy_select(candidates, hyper, budget, mutual_information=False)


def mi_greedy(candidates, hyper: Hyperparameters, budget: int) -> list:
    """Greedy mutual-information gain over the candidate grid.

    Scores each unpicked candidate by its posterior variance given the
    picks, divided by its variance given the other unpicked candidates
    (the candidate itself excluded). Both conditionings go through the
    noisy-measurement model; the noise term is subtracted afterwards so
    the ratio compares latent-field uncertainties. Ties are broken as in
    ``entropy_greedy``.

    The picks' posterior variances are kept as in ``entropy_greedy``. The
    unpicked pool's precision is inverted once and then kept as that C x C
    matrix plus a C x budget factor of the candidates that left the pool
    since, so after the inverse a pick costs O(C j). The inverse holds four
    C x C matrices at once, so more than 8,192 candidates raise
    GramTooLargeError before anything large is allocated.
    """
    return _greedy_select(candidates, hyper, budget, mutual_information=True)


def _survey_axis(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(math.floor((hi - lo) / step + 1e-12))
    return lo + step * np.arange(n + 1)


def survey_rows(env: Environment, resolution: float, most: int | None = None) -> list:
    """Grid rows inside the environment, bottom row first, west to east.

    Unlike verification grids the survey grid never appends the far
    edge: a resolution wider than the extent leaves one node per axis.
    Rows are tested one ``env.contains`` call each; with ``most`` given,
    a grid with more nodes inside raises ValueError, naming the
    resolution, at the row where the count passes it.
    """
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError("resolution must be positive and finite")
    x0, y0, x1, y1 = env.bounds
    xs = _survey_axis(x0, x1, resolution)
    rows, count = [], 0
    for y in _survey_axis(y0, y1, resolution):
        row = xs[env.contains(np.column_stack([xs, np.full(xs.size, y)]))]
        count += row.size
        if most is not None and count > most:
            raise ValueError(
                f"more than {most} nodes of a survey grid at resolution {resolution:g} "
                f"fall inside the environment; use a coarser resolution"
            )
        if row.size:
            rows.append([(float(x), float(y)) for x in row])
    return rows


def baseline_candidates(env: Environment, hyper: Hyperparameters, delta: float) -> list:
    """Shared candidate grid for the greedy baselines.

    Half the necessary disk radius, the same grid the lawn-mower
    comparison runs on, so budget comparisons are apples-to-apples.
    """
    spacing = necessary_radius(hyper, delta) / 2.0
    return [p for row in survey_rows(env, spacing) for p in row]


def lawnmower_plan(env: Environment, resolution: float, depot) -> Tour:
    """Boustrophedon visit of a resolution-spaced grid, one dwell each.

    Its curves factor an n x n Gram matrix of 8-byte entries over its n
    nodes, so a grid with more nodes inside than ``check_dense_budget``
    accepts for that raises ValueError, naming the resolution, at the
    row where the count passes.
    """
    rows = survey_rows(env, resolution, most=math.isqrt(_MAX_GRAM_BYTES // 8))
    order = []
    for i, row in enumerate(rows):
        order.extend(reversed(row) if i % 2 else row)
    return ordered_tour(order, depot)


def ordered_tour(locations, depot) -> Tour:
    """Closed tour visiting the locations in order, measuring once at each."""
    waypoints = tuple(((float(x), float(y)), 1) for x, y in locations)
    return Tour((float(depot[0]), float(depot[1])), waypoints)


def _finished_waypoints(tour: Tour, time: TimeModel, eval_points, checkpoints):
    """Validate checkpoint queries; return the query points, the locations
    and dwell counts of the waypoints in visiting order, and per
    checkpoint how many of them have finished by then.

    A waypoint's measurements count once its dwell completes, matching the
    tour's elapsed-time ledger.
    """
    pts = eval_points.points() if isinstance(eval_points, Lattice) else _points(eval_points)
    if pts.shape[0] == 0:
        raise ValueError("need at least one evaluation point")
    horizon = tour_time(tour, time)
    # a mark computed as a fraction of the horizon, such as 10 * h / 10,
    # may round a few ulps past it
    reach = horizon + max(1e-9, 4.0 * math.ulp(horizon))
    marks = [float(c) for c in checkpoints]
    for c in marks:
        if not math.isfinite(c) or c < -1e-9 or c > reach:
            raise ValueError(f"checkpoint {c} outside [0, {horizon}]")
    dwells = np.asarray([n for _, n in tour.waypoints], dtype=int)
    locations = np.asarray([loc for loc, _ in tour.waypoints], dtype=float).reshape(-1, 2)
    # the ledger never decreases, so the waypoints finished by a checkpoint
    # are a prefix of the tour
    finished = np.searchsorted(cumulative_times(tour, time), marks, side="right")
    return pts, locations, dwells, finished


def _waypoint_posterior(locations: np.ndarray, counts: np.ndarray, hyper: Hyperparameters) -> Posterior:
    """One Gram row per waypoint, in visiting order."""
    n = locations.shape[0]
    check_dense_budget(
        8 * n * n, f"the curves of a tour with {n} finished waypoints; use a tour with fewer stops"
    )
    return Posterior(locations, hyper, counts)


def curves_over_time(
    tour: Tour,
    truth: FieldGrid,
    sensor: SensorModel,
    hyper: Hyperparameters,
    eval_points,
    time: TimeModel,
    checkpoints,
    trial_index: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Average posterior variance and one trial's mean squared prediction
    error, using the measurements finished by each checkpoint.

    Every waypoint gets its own Gram row, with noise w2 / dwell
    count and a reading that averages its own draws, in visiting order.
    A revisit adds a row rather than raising an earlier row's count;
    both give the same posterior, and this way each checkpoint's design
    is a prefix of the whole tour's. So the tour is factored once and
    ``Posterior.prefix_mean_and_variance`` reads every checkpoint off
    one triangular multiply. The noise for the whole tour is drawn up front,
    one value per measurement in waypoint order, so a measurement carries
    the same reading at every checkpoint that includes it. ``eval_points``
    is an (n, 2) array or a ``Lattice``, which the read is given as it is.
    """
    pts, locations, counts, finished = _finished_waypoints(tour, time, eval_points, checkpoints)
    post = _waypoint_posterior(locations, counts, hyper)
    noise = _noise(sensor, trial_index, int(counts.sum()))
    readings = np.add.reduceat(noise, np.cumsum(counts) - counts) / counts
    means, variances = post.prefix_mean_and_variance(
        eval_points, truth.value_at(locations) + readings, finished
    )
    return variances.mean(axis=1), np.mean((means - truth.value_at(pts)) ** 2, axis=1)


def variance_over_time(
    tour: Tour, hyper: Hyperparameters, eval_points, time: TimeModel, checkpoints
) -> np.ndarray:
    """Average posterior variance using measurements finished by each time.

    The variance half of ``curves_over_time``, for callers without a
    truth field; it needs no measured values.
    """
    _, locations, counts, finished = _finished_waypoints(tour, time, eval_points, checkpoints)
    post = _waypoint_posterior(locations, counts, hyper)
    _, variances = post.prefix_mean_and_variance(eval_points, np.zeros(post.size), finished)
    return variances.mean(axis=1)


def single_trial_mse_over_time(
    tour: Tour,
    truth: FieldGrid,
    sensor: SensorModel,
    hyper: Hyperparameters,
    eval_points,
    time: TimeModel,
    checkpoints,
    trial_index: int = 0,
) -> np.ndarray:
    """Mean squared prediction error over one noisy traversal of the tour.

    The error half of ``curves_over_time``; callers that also need the
    variance curve should call that instead.
    """
    return curves_over_time(
        tour, truth, sensor, hyper, eval_points, time, checkpoints, trial_index
    )[1]
