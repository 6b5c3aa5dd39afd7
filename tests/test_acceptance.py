"""Acceptance run: ten numbered criteria, one printed verdict line each.

Run with `-s -v` to see every verdict as it lands. Each criterion also
enforces its own wall-clock budget.
"""

import math
import time
from itertools import permutations

import numpy as np

from fieldcover import (
    AccuracySpec,
    Environment,
    Hyperparameters,
    MeasurementMultiset,
    Posterior,
    SensorModel,
    TimeModel,
    Tour,
    baseline_candidates,
    convergence_study,
    disk_cover_placement,
    entropy_greedy,
    lawnmower_plan,
    makespan_certificate,
    mi_greedy,
    mis_tour_lower_bound,
    necessary_radius,
    ordered_tour,
    repeated_measurement_variance,
    sample_gp_field,
    split_tour,
    tour_from_plan,
    tour_time,
    tsp_heuristic,
    variance_over_time,
    verify_plan,
)
from fieldcover import cli
from fieldcover import io as fileio

FIELD_H = Hyperparameters(8.33, 12.87, 0.0361)
FIELD_DELTA = 4.0
FIELD_SPEC = AccuracySpec(FIELD_DELTA, 2.0)


def verdict(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    flag = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:02d} {flag} {name}: {detail} [{elapsed:.1f}s of {budget:.0f}s]")
    assert ok, f"criterion {num} {name}: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s >= {budget}s"


def closed_route_length(depot, order) -> float:
    stops = [depot, *order, depot]
    return float(
        sum(math.dist(a, b) for a, b in zip(stops, stops[1:]))
    )


def star_polygon(seed: int, n: int = 8) -> Environment:
    rng = np.random.default_rng(seed)
    angles = 2 * math.pi * (np.arange(n) + rng.uniform(0.15, 0.85, size=n)) / n
    radii = rng.uniform(8.0, 22.0, size=n)
    verts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return Environment.polygon(verts)


def random_instance(seed: int):
    """Environment, hyperparameters, and accuracy target for one trial."""
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        w, hgt = rng.uniform(20.0, 55.0, size=2)
        x, y = rng.uniform(-10.0, 10.0, size=2)
        env = Environment.rectangle((x, y), (x + w, y + hgt))
    else:
        env = star_polygon(seed)
    h = Hyperparameters(
        float(rng.uniform(1.5, 4.0)),
        float(rng.uniform(2.0, 10.0)),
        float(rng.uniform(0.05, 0.5)),
    )
    delta = h.signal_variance * float(rng.uniform(0.2, 0.6))
    alpha = (1.5, 2.0, 3.0)[seed % 3]
    return env, h, AccuracySpec(delta, alpha)


def test_criterion_01_coverage_guarantee_everywhere():
    start = time.perf_counter()
    env = Environment.rectangle((0.0, 0.0), (100.0, 100.0))
    plan = disk_cover_placement(env, FIELD_H, FIELD_SPEC)
    report = verify_plan(plan, env, FIELD_H, FIELD_DELTA, grid_spacing=1.0)
    ok = report.passed and report.max_variance <= FIELD_DELTA + 1e-9
    verdict(
        1,
        "coverage guarantee",
        ok,
        f"{len(plan.entries)} sites, max variance {report.max_variance:.3e} "
        f"<= {FIELD_DELTA} + 1e-9 on a 1 m grid of {report.grid_count} points",
        time.perf_counter() - start,
        300.0,
    )


def test_criterion_02_radius_cap_is_necessary():
    start = time.perf_counter()
    cap = necessary_radius(FIELD_H, FIELD_DELTA)
    stuck = repeated_measurement_variance(1.05 * cap, 10**6, FIELD_H)
    verdict(
        2,
        "radius necessity",
        stuck > FIELD_DELTA,
        f"a million measurements 5% past the necessary radius {cap:.4f} still "
        f"leave variance {stuck:.4f} > {FIELD_DELTA}",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_03_closed_form_matches_dense_path():
    start = time.perf_counter()
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(100):
        h = Hyperparameters(
            float(rng.uniform(0.5, 20.0)),
            float(rng.uniform(0.1, 50.0)),
            float(rng.uniform(1e-2, 5.0)),
        )
        r = float(rng.uniform(0.0, 3.0 * h.length_scale))
        for n in range(1, 51):
            closed = repeated_measurement_variance(r, n, h)
            multiset = MeasurementMultiset((((0.0, 0.0), n),))
            sites, counts = multiset.distinct()
            dense = float(Posterior(sites, h, counts).variance([(r, 0.0)])[0])
            worst = max(worst, abs(closed - dense) / dense)
    verdict(
        3,
        "closed-form equivalence",
        worst < 1e-9,
        f"worst relative gap {worst:.2e} over 100 draws x n in 1..50",
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_04_site_count_bound_per_disk():
    start = time.perf_counter()
    worst_ratio = 0.0
    densest = (0, 0.0)
    for i in range(20):
        env, h, spec = random_instance(7000 + i)
        plan = disk_cover_placement(env, h, spec)
        cap = math.ceil(6 * spec.shrink_factor / math.sqrt(2)) ** 2
        assert len(plan.entries) <= cap * len(plan.mis_disks), f"instance {i}"
        per_disk = np.bincount(np.asarray(plan.provenance))
        worst_ratio = max(worst_ratio, len(plan.entries) / (cap * len(plan.mis_disks)))
        observed = int(per_disk.max())
        reference = 18 * spec.shrink_factor**2
        if observed / reference > densest[1]:
            densest = (observed, observed / reference)
    verdict(
        4,
        "site count bound",
        True,
        f"20 instances within ceil(6a/sqrt(2))^2 per disk (worst fill {worst_ratio:.2f}); "
        f"densest disk held {densest[0]} sites, {densest[1]:.2f}x the 18a^2 reference",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_05_center_route_dominates_independence_floor():
    start = time.perf_counter()
    checked = 0
    margin = math.inf
    slowest = 0.0
    for i in range(20):
        run_start = time.perf_counter()
        env, h, spec = random_instance(7000 + i)
        plan = disk_cover_placement(env, h, spec)
        if len(plan.mis_disks) < 2:
            continue
        centers = [d.center for d in plan.mis_disks]
        order = tsp_heuristic(centers, centers[0])
        length = closed_route_length(centers[0], order)
        floor = mis_tour_lower_bound(list(plan.mis_disks))
        assert length >= floor * (1.0 - 1e-12), f"instance {i}: {length} < {floor}"
        margin = min(margin, length / floor)
        checked += 1
        slowest = max(slowest, time.perf_counter() - run_start)
    verdict(
        5,
        "independence travel floor",
        checked >= 10 and slowest < 1.0,
        f"{checked} multi-disk runs all above the 0.24 * count * radius floor "
        f"(tightest ratio {margin:.2f}, slowest run {slowest:.2f}s)",
        time.perf_counter() - start,
        20.0,
    )


def brute_force_optimum(depot, pts) -> float:
    full = np.vstack([np.asarray(depot)[None, :], pts])
    diff = full[:, None, :] - full[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    n = len(pts)
    perms = np.asarray(list(permutations(range(1, n + 1))))
    perms = perms[perms[:, 0] < perms[:, -1]]  # closed routes: drop reversals
    total = dist[0, perms[:, 0]] + dist[perms[:, -1], 0]
    for a, b in zip(perms.T[:-1], perms.T[1:]):
        total = total + dist[a, b]
    return float(total.min())


def test_criterion_06_tsp_heuristic_quality():
    start = time.perf_counter()
    good = 0
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(5, 10))
        pts = rng.uniform(0.0, 10.0, size=(n, 2))
        depot = tuple(rng.uniform(0.0, 10.0, size=2))
        order = tsp_heuristic(pts, depot)
        got = closed_route_length(depot, order)
        best = brute_force_optimum(depot, pts)
        assert got >= best - 1e-9
        ratio = got / best
        worst = max(worst, ratio)
        good += ratio <= 1.15
    verdict(
        6,
        "tour heuristic quality",
        good >= 95,
        f"{good}/100 instances within 1.15x of the exhaustive optimum "
        f"(worst ratio {worst:.3f})",
        time.perf_counter() - start,
        120.0,
    )


def random_dwell_tour(seed: int):
    rng = np.random.default_rng(seed)
    stops = rng.uniform(0.0, 20.0, size=(int(rng.integers(3, 12)), 2))
    dwell = int(rng.integers(1, 4))
    depot = tuple(rng.uniform(0.0, 20.0, size=2))
    tour = Tour(depot, tuple((tuple(p), dwell) for p in stops))
    return tour, dwell


def test_criterion_07_makespan_certificate():
    start = time.perf_counter()
    eta = 0.8
    time_model = TimeModel(eta)
    tightest = math.inf
    for t in range(20):
        tour, dwell = random_dwell_tour(9000 + t)
        for k in (2, 3, 5):
            cert = makespan_certificate(split_tour(tour, k, time_model))
            assert cert.satisfied, f"tour {t}, k={k}: {cert.makespan} > {cert.bound}"
            assert cert.dwell_count == dwell
            tightest = min(tightest, cert.bound / max(cert.makespan, 1e-12))
        identity = split_tour(tour, 1, time_model)
        assert identity.subtours[0] is tour and len(identity.subtours) == 1
    verdict(
        7,
        "makespan certificate",
        True,
        f"20 tours x k in (2,3,5) all certified; k=1 returns the tour itself "
        f"(tightest bound/makespan {tightest:.2f})",
        time.perf_counter() - start,
        60.0,
    )


def covering_box(env: Environment, plan) -> Environment:
    x0, y0, x1, y1 = env.bounds
    for (x, y), _ in plan.entries:
        x0, y0 = min(x0, x), min(y0, y)
        x1, y1 = max(x1, x), max(y1, y)
    return Environment.rectangle((x0, y0), (x1, y1))


def test_criterion_08_empirical_mse_converges_to_variance():
    start = time.perf_counter()
    h = Hyperparameters(6.0, 4.0, 0.25)
    env = Environment.rectangle((0.0, 0.0), (24.0, 24.0))
    plan = disk_cover_placement(env, h, AccuracySpec(1.6, 2.0))
    box = covering_box(env, plan)
    monotone = 0
    endpoint = 0
    for seed in range(10):
        truth = sample_gp_field(box, h, 1.0, seed)
        sensor = SensorModel(h.noise_variance, seed)
        curve = convergence_study(truth, plan, sensor, h, [10, 100, 1000])
        monotone += curve[0] > curve[1] > curve[2]
        endpoint += curve[2] < curve[0]
    verdict(
        8,
        "mse converges to variance",
        monotone >= 9 and endpoint == 10,
        f"percent gap fell 10->100->1000 trials for {monotone}/10 seeds, "
        f"1000-trial gap under the 10-trial gap for {endpoint}/10",
        time.perf_counter() - start,
        900.0,
    )


def test_criterion_09_variance_curves_and_baseline_failure():
    start = time.perf_counter()
    env = Environment.rectangle((0.0, 0.0), (50.0, 50.0))
    plan = disk_cover_placement(env, FIELD_H, FIELD_SPEC)
    time_model = TimeModel(1.0)
    depot = (0.0, 0.0)
    pts = env.grid(1.0)

    # the plan samples each sweep disk on an m x m grid; one quarter of
    # that sampling density is the prescribed failing baseline
    m = math.ceil(6 * FIELD_SPEC.shrink_factor / math.sqrt(2))
    plan_resolution = 6.0 * necessary_radius(FIELD_H, FIELD_DELTA) / m
    coarse = 4.0 * plan_resolution

    candidates = baseline_candidates(env, FIELD_H, FIELD_DELTA)
    budget = min(len(candidates), plan.total)
    tours = {
        "disk cover": tour_from_plan(plan, depot=depot),
        "entropy": ordered_tour(entropy_greedy(candidates, FIELD_H, budget), depot),
        "mutual information": ordered_tour(mi_greedy(candidates, FIELD_H, budget), depot),
        "lawnmower": lawnmower_plan(env, coarse, depot),
    }
    terminal = {}
    for name, tour in tours.items():
        horizon = tour_time(tour, time_model)
        marks = [i * horizon / 10.0 for i in range(11)]
        curve = variance_over_time(tour, FIELD_H, pts, time_model, marks)
        assert all(a >= b - 1e-9 for a, b in zip(curve, curve[1:])), name
        terminal[name] = curve[-1]

    lawn_design = np.asarray([loc for loc, _ in tours["lawnmower"].waypoints])
    lawn_worst = float(Posterior(lawn_design, FIELD_H).variance(pts).max())
    ok = terminal["disk cover"] <= FIELD_DELTA and lawn_worst > FIELD_DELTA
    verdict(
        9,
        "variance curves",
        ok,
        f"all four curves non-increasing; disk-cover terminal mean "
        f"{terminal['disk cover']:.3f} <= {FIELD_DELTA} while the {coarse:.1f} m "
        f"lawnmower still peaks at {lawn_worst:.1f}",
        time.perf_counter() - start,
        600.0,
    )


def run_every_command(base, env_path, data_path):
    outcomes = {}
    shared = ["--env", str(env_path), "--hyper", "3,2,0.1", "--delta", "1.2", "--alpha", "1.5"]
    movement = ["--eta", "0.5", "--depot", "0,0"]
    for name, args in {
        "fit": ["fit", "--data", str(data_path)],
        "plan": ["plan", *shared],
        "tour": ["tour", *shared, *movement],
        "split": ["split", *shared, *movement, "--k", "2"],
        "simulate": ["simulate", *shared, "--seed", "7", "--trials", "4", "--grid-res", "0.7"],
        "compare": ["compare", *shared, *movement, "--seed", "7"],
    }.items():
        out = base / name
        assert cli.main([*args, "--out", str(out)]) == 0, name
        outcomes[name] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
        }
        assert outcomes[name], name
    return outcomes


def test_criterion_10_byte_identical_reruns(tmp_path):
    start = time.perf_counter()
    env_path = tmp_path / "env.json"
    fileio.write_json(env_path, {"type": "rectangle", "min": [0.0, 0.0], "max": [14.0, 14.0]})

    rng = np.random.default_rng(77)
    pts = rng.uniform(0.0, 14.0, size=(40, 2))
    data_path = tmp_path / "survey.csv"
    survey = np.column_stack([pts, rng.normal(size=40)])
    np.savetxt(data_path, survey, delimiter=",", header="x,y,value", comments="")

    first = run_every_command(tmp_path / "a", env_path, data_path)
    second = run_every_command(tmp_path / "b", env_path, data_path)
    files = 0
    for name in first:
        assert first[name].keys() == second[name].keys(), name
        for fname, blob in first[name].items():
            assert second[name][fname] == blob, f"{name}/{fname} differs between reruns"
        files += len(first[name])
    verdict(
        10,
        "deterministic outputs",
        files >= 15,
        f"all six commands reran byte-identical across {files} output files",
        time.perf_counter() - start,
        300.0,
    )
