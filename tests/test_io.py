"""File formats: inputs read, outputs written and read back with json and csv, svg structure."""

import csv
import dataclasses
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fieldcover import (
    AccuracySpec,
    Environment,
    Hyperparameters,
    TimeModel,
    Tour,
    VerificationReport,
    disk_cover_placement,
    tour_from_plan,
    verify_plan,
)
from fieldcover import io as fileio

H = Hyperparameters(1.0, 1.0, 0.1)
SPEC = AccuracySpec(0.5, 2.0)

SVG = "{http://www.w3.org/2000/svg}"


def small_instance():
    env = Environment.rectangle((0.0, 0.0), (3.0, 2.0))
    plan = disk_cover_placement(env, H, SPEC)
    return env, plan


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        header, *rows = csv.reader(f)
    return tuple(header), rows


def report_payload(report: VerificationReport) -> dict:
    """Every field of the report, as json holds it, and its method."""
    fields = dataclasses.asdict(report)
    return {**fields, "argmax": list(report.argmax), "tiles": list(report.tiles), "method": report.method}


class TestEnvironmentJson:
    def test_rectangle_round_trip(self, tmp_path):
        env = Environment.rectangle((-1.0, 2.0), (4.0, 7.5))
        payload = {"type": "rectangle", "min": [-1.0, 2.0], "max": [4.0, 7.5]}
        assert fileio.environment_from_payload(payload) == env

        path = tmp_path / "env.json"
        fileio.write_json(path, payload)
        assert fileio.load_environment(path) == env

    def test_polygon_round_trip(self, tmp_path):
        env = Environment.polygon([(0, 0), (4, 0), (4, 3), (2, 5), (0, 3)])
        # clockwise vertices describe the same polygon
        payload = {"type": "polygon", "vertices": [[0, 3], [2, 5], [4, 3], [4, 0], [0, 0]]}
        assert fileio.environment_from_payload(payload) == env

        path = tmp_path / "env.json"
        fileio.write_json(path, payload)
        assert fileio.load_environment(path) == env

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown environment type"):
            fileio.environment_from_payload({"type": "sphere"})

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing the 'max' key"):
            fileio.environment_from_payload({"type": "rectangle", "min": [0, 0]})
        with pytest.raises(ValueError, match="'type'"):
            fileio.environment_from_payload({"min": [0, 0], "max": [1, 1]})
        with pytest.raises(ValueError):
            fileio.environment_from_payload([1, 2, 3])

    def test_malformed_file_is_value_error(self, tmp_path):
        path = tmp_path / "env.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError):
            fileio.load_environment(path)


class TestDatasetCsv:
    def test_round_trip_recovers_points_and_mean(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 10, size=(17, 2))
        vals = rng.normal(5.0, 2.0, size=17)
        path = tmp_path / "data.csv"
        rows = "".join("%r,%r,%r\n" % (x, y, v) for (x, y), v in zip(pts.tolist(), vals.tolist()))
        path.write_text("x,y,value\n" + rows, encoding="utf-8")

        got_pts, centered, mean = fileio.load_dataset(path)
        np.testing.assert_allclose(got_pts, pts, rtol=0, atol=0)
        assert mean == pytest.approx(vals.mean(), rel=1e-15)
        np.testing.assert_allclose(centered, vals - vals.mean(), atol=1e-12)
        assert abs(centered.mean()) < 1e-12

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "# survey dump\n\nx,y,value\n1,2,3\n# mid-file note\n\n4,5,6\n",
            encoding="utf-8",
        )
        pts, centered, mean = fileio.load_dataset(path)
        assert pts.shape == (2, 2)
        assert mean == 4.5

    def test_header_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x;y;value\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1: expected header"):
            fileio.load_dataset(path)

        path.write_text("# only a comment\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing"):
            fileio.load_dataset(path)

    def test_bad_rows_carry_line_numbers(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y,value\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: expected 3"):
            fileio.load_dataset(path)

        path.write_text("x,y,value\n1,2,3\n1,2,banana\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3: non-numeric"):
            fileio.load_dataset(path)

        path.write_text("x,y,value\n1,2,inf\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-finite"):
            fileio.load_dataset(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y,value\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no data rows"):
            fileio.load_dataset(path)


class TestPlanCsv:
    def test_round_trip(self, tmp_path):
        _, plan = small_instance()
        path = tmp_path / "plan.csv"
        fileio.write_plan_csv(path, plan)
        header, rows = read_csv(path)
        assert header == ("x", "y", "n_measurements")
        entries = tuple(((float(x), float(y)), int(n)) for x, y, n in rows)
        assert entries == plan.entries


class TestPayloads:
    def test_verification_round_trip(self):
        env, plan = small_instance()
        report = verify_plan(plan, env, H, SPEC.max_variance)
        assert fileio.verification_to_payload(report) == report_payload(report)

    def test_verification_payload_survives_json(self, tmp_path):
        report = VerificationReport(0.4321, (1.5, 0.25), 0.2, True, 0.05, 2501)
        path = tmp_path / "verification.json"
        fileio.write_json(path, fileio.verification_to_payload(report))
        assert read_json(path) == report_payload(report)

    def test_tour_round_trip_with_disk_tags(self, tmp_path):
        env, plan = small_instance()
        time = TimeModel(0.5)
        tour = tour_from_plan(plan)
        assert tour.disk_index is not None

        path = tmp_path / "tour.json"
        fileio.write_tour_json(path, tour, time)
        payload = read_json(path)
        assert payload["closed"] is True
        assert tuple(payload["depot"]) == tour.depot
        assert tuple((tuple(w["location"]), w["dwell"]) for w in payload["waypoints"]) == tour.waypoints
        assert tuple(w["disk"] for w in payload["waypoints"]) == tour.disk_index

    def test_tour_round_trip_untagged(self):
        tour = Tour((0.0, 0.0), (((1.0, 0.0), 2), ((1.0, 1.0), 0)))
        payload = fileio.tour_to_payload(tour, TimeModel(1.0))
        assert all(w["disk"] is None for w in payload["waypoints"])
        assert tuple((tuple(w["location"]), w["dwell"]) for w in payload["waypoints"]) == tour.waypoints

    def test_tour_elapsed_column_matches_ledger(self):
        # depot (0,0) -> (3,0) dwell 2 -> (3,4) transit -> (0,4) dwell 1
        tour = Tour((0.0, 0.0), (((3.0, 0.0), 2), ((3.0, 4.0), 0), ((0.0, 4.0), 1)))
        payload = fileio.tour_to_payload(tour, TimeModel(2.0))
        assert [w["elapsed"] for w in payload["waypoints"]] == [7.0, 11.0, 16.0]
        assert payload["total_time"] == pytest.approx(16.0 + 4.0)

    def test_non_finite_numbers_are_refused_not_written(self, tmp_path):
        path = tmp_path / "out.json"
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                fileio.write_json(path, {"total_time": bad})
        assert not path.exists()

    def test_tour_whose_travel_overflows_is_refused(self, tmp_path):
        # every coordinate is finite, but 2e308 of travel is not
        tour = Tour((-1e308, 0.0), (((1e308, 0.0), 1),))
        assert math.isinf(fileio.tour_to_payload(tour, TimeModel(1.0))["total_time"])
        path = tmp_path / "tour.json"
        with pytest.raises(ValueError, match=r"depot \(-1e\+308, 0.0\) overflows"):
            fileio.write_tour_json(path, tour, TimeModel(1.0))
        assert not path.exists()

    def test_tour_json_is_the_payload(self, tmp_path):
        env, plan = small_instance()
        tour = tour_from_plan(plan)
        path = tmp_path / "tour.json"
        fileio.write_tour_json(path, tour, TimeModel(0.5))
        assert read_json(path) == fileio.tour_to_payload(tour, TimeModel(0.5))


class TestCurveCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "curve.csv"
        header = ("time", "average_variance", "average_mse")
        rows = [(0.0, 1.0, 0.9), (1.5, 0.5, 0.45), (3.0, 0.125, 0.0625)]
        fileio.write_curve_csv(path, header, rows)
        got_header, got_rows = read_csv(path)
        assert got_header == header
        assert [tuple(map(float, row)) for row in got_rows] == rows

    def test_floats_survive_exactly(self, tmp_path):
        path = tmp_path / "curve.csv"
        value = math.pi / 7.0
        fileio.write_curve_csv(path, ("a",), [(value,)])
        _, rows = read_csv(path)
        assert float(rows[0][0]) == value


class TestDeterminism:
    def test_write_json_is_byte_stable(self, tmp_path):
        payload = {"b": 2.5, "a": [1, {"z": 0.1, "y": None}], "flag": True}
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        fileio.write_json(first, payload)
        fileio.write_json(second, payload)
        assert first.read_bytes() == second.read_bytes()

        text = first.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"') < text.index('"flag"')
        assert json.loads(text) == payload

    def test_svg_is_byte_stable(self):
        env, plan = small_instance()
        assert fileio.plan_svg(env, plan) == fileio.plan_svg(env, plan)


class TestSvg:
    def test_plan_svg_structure(self):
        env, plan = small_instance()
        root = ET.fromstring(fileio.plan_svg(env, plan))
        assert root.tag == f"{SVG}svg"

        groups = {g.get("id"): g for g in root.iter(f"{SVG}g") if g.get("id")}
        assert set(groups) == {"independent-disks", "sweep-disks", "sites"}
        assert len(groups["independent-disks"].findall(f"{SVG}circle")) == len(plan.mis_disks)
        assert len(groups["sweep-disks"].findall(f"{SVG}circle")) == len(plan.sweep_disks)
        assert len(groups["sites"].findall(f"{SVG}circle")) == len(plan.entries)
        assert len(root.findall(f".//{SVG}path")) == 1

    def test_tour_svg_adds_one_line_per_leg(self):
        env, plan = small_instance()
        tour = tour_from_plan(plan)
        root = ET.fromstring(fileio.tour_svg(env, plan, tour))
        groups = {g.get("id"): g for g in root.iter(f"{SVG}g") if g.get("id")}
        assert "legs" in groups
        # closed tour: depot -> each waypoint -> depot
        assert len(groups["legs"].findall(f"{SVG}line")) == len(tour.waypoints) + 1

    def test_disks_drawn_at_plan_geometry(self):
        env, plan = small_instance()
        root = ET.fromstring(fileio.plan_svg(env, plan))
        groups = {g.get("id"): g for g in root.iter(f"{SVG}g") if g.get("id")}
        first = groups["independent-disks"].find(f"{SVG}circle")
        d = plan.mis_disks[0]
        assert float(first.get("cx")) == d.center[0]
        assert float(first.get("cy")) == d.center[1]
        assert float(first.get("r")) == d.radius
