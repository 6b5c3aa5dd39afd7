"""End-to-end runs of every subcommand in scratch directories."""

import csv
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fieldcover import cli, errors, fields, gp
from fieldcover import io as fileio
from fieldcover.geometry import Lattice
from fieldcover.gp import Hyperparameters, Posterior, kernel_matrix
from fieldcover.placement import VerificationReport

HYPER = "3,2,0.1"


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_csv(path) -> tuple[tuple, list]:
    """The header and the rows of numbers of a plan or curve csv."""
    with open(path, newline="", encoding="utf-8") as f:
        header, *rows = csv.reader(f)
    return tuple(header), [tuple(map(float, row)) for row in rows]


def plan_entries(path) -> list:
    return [((x, y), int(n)) for x, y, n in read_csv(path)[1]]


def tour_stops(path) -> tuple:
    """(location, dwell) of every waypoint of a tour file."""
    return tuple((tuple(w["location"]), w["dwell"]) for w in read_json(path)["waypoints"])


def write_dataset(path, points, values) -> None:
    np.savetxt(path, np.column_stack([points, values]), delimiter=",", header="x,y,value", comments="")


def write_env(tmp_path, lo=(0.0, 0.0), hi=(14.0, 14.0)):
    path = tmp_path / "env.json"
    fileio.write_json(path, {"type": "rectangle", "min": list(lo), "max": list(hi)})
    return str(path)


def plan_args(tmp_path, out, *extra):
    return [
        "--env", write_env(tmp_path),
        "--hyper", HYPER,
        "--delta", "1.2",
        "--alpha", "1.5",
        "--out", str(tmp_path / out),
        *extra,
    ]


class TestFit:
    def test_recovers_length_scale_within_factor_1_5(self, tmp_path):
        true = Hyperparameters(5.0, 2.0, 0.05)
        axis = np.linspace(0.0, 28.0, 15)
        pts = np.array([(x, y) for x in axis for y in axis])
        rng = np.random.default_rng(2024)
        cov = kernel_matrix(pts, pts, true) + 1e-10 * np.eye(len(pts))
        field = np.linalg.cholesky(cov) @ rng.standard_normal(len(pts))
        noisy = field + np.sqrt(true.noise_variance) * rng.standard_normal(len(pts)) + 3.0
        data = tmp_path / "survey.csv"
        write_dataset(data, pts, noisy)

        out = tmp_path / "fit"
        assert cli.main(["fit", "--data", str(data), "--out", str(out)]) == 0
        got = read_json(out / "hyperparameters.json")
        assert true.length_scale / 1.5 <= got["length_scale"] <= true.length_scale * 1.5
        assert got["signal_variance"] > 0
        assert got["noise_variance"] > 0
        assert got["data_mean"] == pytest.approx(noisy.mean(), rel=1e-12)

    def test_degenerate_dataset_exits_3(self, tmp_path):
        data = tmp_path / "degen.csv"
        data.write_text("x,y,value\n1,2,3\n1,2,4\n", encoding="utf-8")
        assert cli.main(["fit", "--data", str(data), "--out", str(tmp_path / "o")]) == 3

    def test_missing_file_exits_2(self, tmp_path):
        missing = str(tmp_path / "nope.csv")
        assert cli.main(["fit", "--data", missing, "--out", str(tmp_path / "o")]) == 2

    def test_oversized_dataset_exits_2_before_any_matrix(self, tmp_path, monkeypatch, capsys):
        import fieldcover.gp as gp

        class Allocated(Exception):
            pass

        def allocated(*args, **kwargs):
            raise Allocated

        monkeypatch.setattr(gp, "cdist_sqeuclidean", allocated)
        # the n x n distances and the (n + 1) x (n + 1) bordered correlation
        # matrix at once: 11,584 rows fit in 2 GiB, 11,585 do not
        pts = np.column_stack([np.arange(11_585) % 100, np.arange(11_585) // 100]).astype(float)
        data = tmp_path / "big.csv"
        write_dataset(data, pts, np.sin(pts[:, 0]))
        assert cli.main(["fit", "--data", str(data), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        # the refusal names the row count and the remedy that fits a dataset
        assert "hyperparameter fit over 11585 observations; use fewer CSV rows" in err
        assert "variance target" not in err
        with pytest.raises(Allocated):
            gp.fit_hyperparameters(pts[:11_584], np.zeros(11_584), gp.HyperparameterGrid((1.0,), (1.0,), (0.1,)))
        # the NLML holds one: the Gram matrix, factored in place; 16,384
        # rows fit in 2 GiB, 16,385 do not
        monkeypatch.setattr(gp, "kernel_matrix", allocated)
        pts = np.concatenate([pts[:11_584]] * 2)[:16_385]
        with pytest.raises(errors.GramTooLargeError, match="NLML over 16385 observations"):
            gp.nlml(pts, np.zeros(16_385), Hyperparameters(1.0, 1.0, 0.1))
        with pytest.raises(Allocated):
            gp.nlml(pts[:-1], np.zeros(16_384), Hyperparameters(1.0, 1.0, 0.1))


class TestPlan:
    def test_writes_verified_outputs(self, tmp_path):
        assert cli.main(["plan", *plan_args(tmp_path, "out")]) == 0
        out = tmp_path / "out"
        report = read_json(out / "verification.json")
        assert report["passed"] is True
        assert report["max_variance"] <= 1.2
        entries = plan_entries(out / "plan.csv")
        assert len(entries) > 0
        root = ET.fromstring((out / "plan.svg").read_text(encoding="utf-8"))
        assert root.tag.endswith("svg")

    def test_hard_boundary_keeps_sites_inside(self, tmp_path):
        assert cli.main(["plan", *plan_args(tmp_path, "hb", "--hard-boundary")]) == 0
        env = fileio.load_environment(tmp_path / "env.json")
        entries = plan_entries(tmp_path / "hb" / "plan.csv")
        assert env.contains([loc for loc, _ in entries]).all()

        assert cli.main(["plan", *plan_args(tmp_path, "free")]) == 0
        free = plan_entries(tmp_path / "free" / "plan.csv")
        assert not env.contains([loc for loc, _ in free]).all()
        assert len(free) == len(entries)

    def test_malformed_env_exits_2(self, tmp_path):
        bad = tmp_path / "env.json"
        bad.write_text("{broken", encoding="utf-8")
        code = cli.main(
            ["plan", "--env", str(bad), "--hyper", HYPER, "--delta", "1.2",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "corners",
        [
            {"min": 5, "max": [14, 14]},
            {"min": None, "max": [14, 14]},
            {"min": [[0], [0]], "max": [14, 14]},
            {"min": [0, 0], "max": [1, 1, 1]},
        ],
    )
    def test_malformed_rectangle_corners_exit_2_naming_them(self, corners, tmp_path, capsys):
        bad = tmp_path / "env.json"
        fileio.write_json(bad, {"type": "rectangle", **corners})
        code = cli.main(
            ["plan", "--env", str(bad), "--hyper", HYPER, "--delta", "1.2",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "rectangle corners min and max must each be two finite numbers" in err
        assert f"got {corners['min']!r} / {corners['max']!r}" in err

    def test_delta_at_or_above_signal_variance_exits_2(self, tmp_path):
        args = plan_args(tmp_path, "o")
        args[args.index("--delta") + 1] = "2.0"
        with pytest.raises(SystemExit) as exc:
            cli.main(["plan", *args])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_bad_hyper_string_is_an_argparse_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["plan", "--env", write_env(tmp_path), "--hyper", "3,2",
                 "--delta", "1.2", "--out", str(tmp_path / "o")]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["plan", "tour", "split"])
    def test_failed_verification_exits_4_and_keeps_outputs(self, command, tmp_path, monkeypatch):
        def always_fail(plan, env, hyper, delta, spacing=None):
            return VerificationReport(delta * 2, (0.0, 0.0), delta, False, 1.0, 4)

        toured = []
        monkeypatch.setattr(cli, "verify_plan", always_fail)
        monkeypatch.setattr(cli, "tour_from_plan", lambda *args, **kwargs: toured.append(args))
        assert cli.main([command, *plan_args(tmp_path, "out")]) == 4
        # the plan's outputs must exist so the failure can be audited, and
        # a failing plan is never toured
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["plan.csv", "plan.svg", "verification.json"]
        assert read_json(tmp_path / "out" / "verification.json")["passed"] is False
        assert toured == []


class TestTour:
    def test_tour_outputs_round_trip(self, tmp_path):
        args = plan_args(tmp_path, "out", "--eta", "0.5", "--depot", "0,0")
        assert cli.main(["tour", *args]) == 0
        out = tmp_path / "out"
        payload = read_json(out / "tour.json")
        assert payload["depot"] == [0.0, 0.0]
        assert payload["closed"] is True

        entries = plan_entries(out / "plan.csv")
        dwells = sorted((loc, n) for loc, n in tour_stops(out / "tour.json") if n > 0)
        assert dwells == sorted(entries)
        assert payload["total_time"] > 0
        root = ET.fromstring((out / "tour.svg").read_text(encoding="utf-8"))
        legs = [g for g in root.iter("{http://www.w3.org/2000/svg}g") if g.get("id") == "legs"]
        assert len(legs) == 1


    @pytest.mark.parametrize("command", ["tour", "split"])
    def test_overflowing_travel_exits_2_naming_the_depot(self, command, tmp_path, capsys):
        # one sweep disk: the depot legs are the whole route
        env = write_env(tmp_path, hi=(10.0, 10.0))
        out = tmp_path / "out"
        args = ["--env", env, "--hyper", "8.33,12.87,0.0361", "--delta", "4", "--depot", "1e308,1e308"]
        assert cli.main([command, *args, "--out", str(out)]) == 2
        assert "depot (1e+308, 1e+308)" in capsys.readouterr().err
        assert not (out / "tour.json").exists()

    @pytest.mark.parametrize("depot", ["1e20,1e20", "1e308,1e308"])
    def test_far_depot_from_a_multi_disk_plan_ends_the_two_opt(self, depot, tmp_path, capsys):
        # several sweep disks: rounding in the four far depot distances of
        # a 2-opt exchange once read as an improvement forever
        def too_slow(*_):
            raise TimeoutError("the 2-opt did not finish")

        env = write_env(tmp_path, hi=(10.0, 10.0))
        out = tmp_path / "out"
        args = ["--env", env, "--hyper", HYPER, "--delta", "1.2", "--depot", depot]
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(20)
        try:
            code = cli.main(["tour", *args, "--out", str(out)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        if depot == "1e20,1e20":
            assert code == 0
            assert len({w["disk"] for w in read_json(out / "tour.json")["waypoints"]}) > 1
        else:
            assert code == 2
            assert "depot (1e+308, 1e+308)" in capsys.readouterr().err


def dwell_multiset(waypoints) -> Counter:
    """Location -> summed dwell over the measuring stops."""
    out: Counter = Counter()
    for loc, n in waypoints:
        if n > 0:
            out[loc] += n
    return out


class TestSplit:
    def test_hard_boundary_stops_are_planned_sites_inside_the_environment(self, tmp_path):
        env_path = tmp_path / "triangle.json"
        fileio.write_json(env_path, {"type": "polygon", "vertices": [[0, 0], [30, 0], [0, 30]]})
        out = tmp_path / "out"
        args = ["--env", str(env_path), "--hyper", HYPER, "--delta", "1.2", "--hard-boundary"]
        assert cli.main(["split", *args, "--out", str(out)]) == 0
        env = fileio.load_environment(env_path)
        planned = dwell_multiset(plan_entries(out / "plan.csv"))
        assert dwell_multiset(tour_stops(out / "tour.json")) == planned
        subtours = sorted(out.glob("subtour_*.json"))
        assert len(subtours) == 2
        stops = [w for path in subtours for w in tour_stops(path)]
        assert dwell_multiset(stops) == planned
        assert env.contains([loc for loc, n in stops if n > 0]).all()

    def test_split_outputs_and_certificate(self, tmp_path):
        args = plan_args(tmp_path, "out", "--eta", "0.5", "--depot", "0,0", "--k", "3")
        assert cli.main(["split", *args]) == 0
        out = tmp_path / "out"
        cert = read_json(out / "certificate.json")
        assert cert["robots"] == 3
        assert cert["satisfied"] is True
        assert cert["makespan"] <= cert["bound"] + 1e-9

        glued = tuple(w for i in (1, 2, 3) for w in tour_stops(out / f"subtour_{i}.json"))
        assert glued == tour_stops(out / "tour.json")

    def test_single_robot_split_is_the_tour_byte_for_byte(self, tmp_path):
        args = plan_args(tmp_path, "out", "--eta", "0.5", "--depot", "0,0", "--k", "1")
        assert cli.main(["split", *args]) == 0
        out = tmp_path / "out"
        assert (out / "subtour_1.json").read_bytes() == (out / "tour.json").read_bytes()


class TestSimulate:
    def test_a_truth_that_does_not_factor_exits_4(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(fields, "dpotrf", lambda a, **kwargs: (a, 1))
        args = plan_args(tmp_path, "out", "--trials", "1", "--grid-res", "0.7")
        assert cli.main(["simulate", *args]) == 4
        assert "not positive definite" in capsys.readouterr().err

    def test_summary_and_points_tables(self, tmp_path):
        args = plan_args(
            tmp_path, "out", "--seed", "7", "--trials", "4", "--grid-res", "0.7"
        )
        assert cli.main(["simulate", *args]) == 0
        out = tmp_path / "out"
        header, rows = read_csv(out / "trial_summary.csv")
        assert header == ("trial", "average_variance", "average_mse", "mean_percent_difference")
        assert len(rows) == 4
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
        # the design never changes between trials, only the noise does
        assert len({r[1] for r in rows}) == 1

        header, rows = read_csv(out / "trial_points.csv")
        assert header == ("x", "y", "mean", "variance", "squared_error")
        assert all(r[3] > 0 and r[4] >= 0 for r in rows)

    def test_rerun_is_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            args = plan_args(
                tmp_path, name, "--seed", "7", "--trials", "2", "--grid-res", "0.7"
            )
            assert cli.main(["simulate", *args]) == 0
        for f in ("trial_summary.csv", "trial_points.csv"):
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()

    def test_oversized_truth_grid_exits_2(self, tmp_path, capsys):
        # the truth box holds the plan's sites, about 24 m across: some
        # 243,000^2 nodes at 40 bytes each, far above the 2 GiB cap
        args = plan_args(tmp_path, "out", "--seed", "7", "--trials", "2", "--grid-res", "1e-4")
        assert cli.main(["simulate", *args]) == 2
        err = capsys.readouterr().err
        assert "above the 2 GiB cap, for a truth draw on " in err
        assert "nodes at spacing 0.0001;" in err

    def test_too_many_trials_exit_2_before_any_trial(self, tmp_path, monkeypatch, capsys):
        import fieldcover.baselines as baselines

        class Drawn(Exception):
            pass

        def drawn(*args, **kwargs):
            raise Drawn

        monkeypatch.setattr(baselines, "_noise", drawn)
        args = plan_args(tmp_path, "out", "--seed", "7", "--trials", "10000000")
        assert cli.main(["simulate", *args]) == 2
        err = capsys.readouterr().err
        # the refusal names the trial count, the cap and the remedy
        assert "above the 2 GiB cap, for 10000000 simulated trials" in err
        assert err.rstrip().endswith("use fewer trials")
        args = plan_args(tmp_path, "out", "--seed", "7", "--trials", "2")
        with pytest.raises(Drawn):
            cli.main(["simulate", *args])

    def test_too_many_trials_exit_2_before_the_truth_is_drawn(self, tmp_path, monkeypatch, capsys):
        # the draw's time grows with the cube of the box's side, so the
        # trial budget is checked from the truth grid's node count first
        def drawn(*args, **kwargs):
            raise AssertionError("the truth was drawn")

        monkeypatch.setattr(cli, "sample_gp_field", drawn)
        args = plan_args(tmp_path, "out", "--seed", "7", "--trials", "1000000")
        assert cli.main(["simulate", *args]) == 2
        err = capsys.readouterr().err
        assert "above the 2 GiB cap, for 1000000 simulated trials" in err
        assert not (tmp_path / "out" / "trial_summary.csv").exists()

    def test_trials_share_one_factorization(self, tmp_path, monkeypatch):
        factored = []
        init = Posterior.__init__

        def spy(self, sites, *args, **kwargs):
            factored.append(len(sites))
            init(self, sites, *args, **kwargs)

        monkeypatch.setattr(Posterior, "__init__", spy)
        args = plan_args(tmp_path, "out", "--seed", "7", "--trials", "5", "--hard-boundary")
        assert cli.main(["simulate", *args]) == 0
        assert len(read_csv(tmp_path / "out" / "trial_summary.csv")[1]) == 5
        assert len(factored) == 1 and factored[0] > 0


class TestCompare:
    def test_writes_one_curve_per_planner(self, tmp_path):
        args = plan_args(
            tmp_path, "out", "--eta", "0.5", "--depot", "0,0", "--seed", "7",
            "--resolutions", "4",
        )
        assert cli.main(["compare", *args]) == 0
        out = tmp_path / "out"
        names = sorted(p.name for p in out.glob("curve_*.csv"))
        assert names == [
            "curve_disk_cover.csv",
            "curve_entropy.csv",
            "curve_lawnmower_4.csv",
            "curve_mutual_information.csv",
        ]
        for name in names:
            header, rows = read_csv(out / name)
            assert header == ("time", "average_variance", "average_mse")
            assert len(rows) == 11
            times = [r[0] for r in rows]
            assert times[0] == 0.0
            assert times == sorted(times)
            variances = [r[1] for r in rows]
            assert all(a >= b - 1e-9 for a, b in zip(variances, variances[1:]))
            assert variances[0] == pytest.approx(2.0)

    def test_default_resolution_comes_from_the_variance_target(self, tmp_path):
        args = plan_args(tmp_path, "out", "--eta", "0.5", "--depot", "0,0", "--seed", "7")
        assert cli.main(["compare", *args]) == 0
        lawn = list((tmp_path / "out").glob("curve_lawnmower_*.csv"))
        assert len(lawn) == 1

    def test_a_large_eta_keeps_the_last_checkpoint(self, tmp_path):
        # the last mark, 10 * horizon / 10, rounds one ulp past this
        # horizon of about 5.0e8 s
        args = [
            "--env", write_env(tmp_path, hi=(50.0, 50.0)), "--hyper", "8.33,12.87,0.0361",
            "--delta", "4", "--seed", "1", "--eta", "456789", "--out", str(tmp_path / "out"),
        ]
        assert cli.main(["compare", *args]) == 0
        curves = sorted((tmp_path / "out").glob("curve_*.csv"))
        assert len(curves) == 4
        assert all(len(read_csv(path)[1]) == 11 for path in curves)

    def test_truth_is_drawn_before_the_greedy_baselines(self, tmp_path, monkeypatch):
        # the draw has its own random stream, so drawing it first changes
        # no output; the order is pinned so that it does not drift
        calls = []
        for name in ("sample_gp_field", "entropy_greedy", "mi_greedy"):
            def spy(*args, _name=name, _real=getattr(cli, name)):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(cli, name, spy)
        args = plan_args(tmp_path, "out", "--eta", "0.5", "--depot", "0,0", "--seed", "7")
        assert cli.main(["compare", *args]) == 0
        assert calls == ["sample_gp_field", "entropy_greedy", "mi_greedy"]


@pytest.mark.parametrize(
    "command, extra",
    [
        ("plan", ()),
        ("split", ("--k", "2", "--depot", "0,0")),
        ("simulate", ("--seed", "7", "--trials", "2", "--hard-boundary")),
        ("compare", ("--eta", "0.5", "--depot", "0,0", "--seed", "7", "--resolutions", "4")),
    ],
)
def test_every_grid_read_is_given_its_lattice(command, extra, tmp_path, monkeypatch):
    # verification, the truth's nodes and the evaluation grid are held as
    # axes, and each read gets them so, never their points
    queries = []
    real = gp._panels

    def spy(inverse, design, hyper, query):
        queries.append(query)
        return real(inverse, design, hyper, query)

    monkeypatch.setattr(gp, "_panels", spy)
    assert cli.main([command, *plan_args(tmp_path, "out", *extra)]) == 0
    assert queries and all(isinstance(q, Lattice) for q in queries)


DIAMOND = {"type": "polygon", "vertices": [[5, 0], [10, 5], [5, 10], [0, 5]]}


@pytest.mark.parametrize("command", ["plan", "compare"])
def test_a_grid_with_no_point_inside_exits_2_naming_the_spacing(command, tmp_path, monkeypatch, capsys):
    # a 20 m grid samples only the corners of a 10 m diamond's bounding box
    env = tmp_path / "diamond.json"
    fileio.write_json(env, DIAMOND)
    greedy = []
    monkeypatch.setattr(cli, "entropy_greedy", lambda *args: greedy.append(args))
    args = ["--env", str(env), "--hyper", HYPER, "--delta", "1.2", "--grid-res", "20", "--out", str(tmp_path / "out")]
    assert cli.main([command, *args]) == 2
    assert "no point of a grid with spacing 20 falls inside the environment" in capsys.readouterr().err
    assert greedy == []


def test_compare_with_a_lawnmower_grid_over_the_curves_cap_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys
):
    # 0.05 m on the 14 m square is 281 x 281 = 78,961 nodes, far above the
    # 16,384 whose curves pass the dense cap
    work = []
    monkeypatch.setattr(cli, "sample_gp_field", lambda *args: work.append("draw"))
    monkeypatch.setattr(cli, "entropy_greedy", lambda *args: work.append("entropy"))
    out = tmp_path / "out"
    args = ["--env", write_env(tmp_path), "--hyper", HYPER, "--delta", "1.2", "--resolutions", "1,0.05"]
    assert cli.main(["compare", *args, "--out", str(out)]) == 2
    assert "survey grid at resolution 0.05 " in capsys.readouterr().err
    assert work == []
    assert list(out.glob("curve_*.csv")) == []


@pytest.mark.parametrize(
    "hi, hyper, delta, extra, named",
    [
        # each would build gigabytes or more: the grid (5.5 GiB, and a
        # 745 GiB axis at 1e-9), the cover (5.7 GiB), the sweeps (2.2 TiB)
        (100.0, "8.33,12.87,0.0361", "4", ("--grid-res", "0.01"), "10001 x 10001 points at spacing 0.01;"),
        (100.0, "8.33,12.87,0.0361", "4", ("--grid-res", "1e-9"), "100000000001 x 100000000001 points at spacing 1e-09;"),
        (14.0, HYPER, "1e-6", (), "4667 x 4667 squares by disks of radius 0.00212132 at variance target 1e-06;"),
        (14.0, HYPER, "1.2", ("--alpha", "1e4"), "4 sweeps of up to 1800050329 sites at shrink factor 10000;"),
    ],
    ids=["grid-res 0.01", "grid-res 1e-9", "delta 1e-6", "alpha 1e4"],
)
def test_a_flag_that_sizes_an_array_above_the_budget_exits_2_at_once(hi, hyper, delta, extra, named, tmp_path, capsys):
    argv = ["plan", "--env", write_env(tmp_path, hi=(hi, hi)), "--hyper", hyper, "--delta", delta, *extra]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = cli.main([*argv, "--out", str(tmp_path / "out")])
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "above the 2 GiB cap" in err and named in err
    assert seconds < 1.0
    assert peak < 50_000_000


class TestInProcess:
    """``main`` returns each exit code and can run again in one process."""

    def test_every_exit_code(self, tmp_path, monkeypatch):
        degenerate = tmp_path / "degen.csv"
        degenerate.write_text("x,y,value\n1,2,3\n1,2,4\n", encoding="utf-8")
        cases = {
            0: ["plan", *plan_args(tmp_path, "ok")],
            2: ["fit", "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o2")],
            3: ["fit", "--data", str(degenerate), "--out", str(tmp_path / "o3")],
        }
        for code, argv in cases.items():
            assert cli.main(argv) == code

        def always_fail(plan, env, hyper, delta, spacing=None):
            return VerificationReport(delta * 2, (0.0, 0.0), delta, False, 1.0, 4)

        monkeypatch.setattr(cli, "verify_plan", always_fail)
        assert cli.main(["plan", *plan_args(tmp_path, "o4")]) == 4

    def test_second_run_in_one_process_writes_the_same_bytes(self, tmp_path):
        for out in ("a", "b"):
            args = plan_args(tmp_path, out, "--eta", "0.5", "--depot", "0,0", "--k", "2")
            assert cli.main(["split", *args]) == 0
        first = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
        second = {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}
        assert len(first) == 8
        assert first == second


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("simulate", "--trials", "0"),
        ("split", "--k", "0"),
        ("plan", "--grid-res", "0"),
        ("simulate", "--grid-res", "nan"),
        ("compare", "--resolutions", "0"),
        ("compare", "--resolutions", "4,0"),
        ("compare", "--resolutions", "nan"),
        ("tour", "--eta", "-1"),
        ("split", "--eta", "nan"),
        ("compare", "--depot", "nan,0"),
        ("plan", "--alpha", "1"),
        ("split", "--alpha", "inf"),
        ("plan", "--delta", "nan"),
        ("tour", "--delta", "-1"),
        ("simulate", "--delta", "0"),
        ("plan", "--delta", "5"),
    ],
)
def test_bad_flag_value_is_a_usage_error_before_any_work(command, flag, value, tmp_path, monkeypatch, capsys):
    placed = []
    monkeypatch.setattr(cli, "disk_cover_placement", lambda *args: placed.append(args))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *plan_args(tmp_path, "out"), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert placed == []


def test_cli_does_not_import_scipy_linalg():
    # a fresh interpreter, so modules the tests import do not count. The
    # LAPACK and BLAS routines come from scipy's compiled extensions
    # alone: scipy.linalg's package __init__ imports scipy._lib._array_api,
    # which pulls in numpy.f2py, numpy.testing and unittest, and
    # scipy.spatial pulls in scipy.special; each costs every command
    # import time and memory
    src = Path(cli.__file__).resolve().parent.parent
    code = "import json, sys; import fieldcover.cli; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    modules = json.loads(run.stdout)
    assert "fieldcover.cli" in modules
    banned = ("scipy.linalg", "scipy._lib._array_api", "numpy.f2py", "numpy.testing", "unittest")
    assert [m for m in modules if m in banned or m.startswith(tuple(b + "." for b in banned))] == []
    assert [m for m in modules if m.split(".")[:2] in (["scipy", "spatial"], ["scipy", "special"])] == []
