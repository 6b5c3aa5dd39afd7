"""Self-test of the benchmark on tiny instances.

    python3 perfbench/selftest.py

Checks that a run prints every metric with its unit, that the output
checks catch tampered files, and that the benchmark refuses to run
where there is no program to measure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import checks
import run
import workloads

SCRATCH = run.ROOT / ".perfbench"

E2E_LINES = {
    "setup_s": "s", "fit_s": "s", "split_s": "s", "simulate_s": "s", "compare_s": "s",
    "commands_s": "s", "peak_rss_mb": "MB", "tour_time_s": "robot-s", "makespan_s": "robot-s",
    "unplanned_dwells": "count", "failed_ratio": "failed/attempted",
}


def _printed(lines, name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and line.split()[2:3] == [unit] for line in lines)


class ReportTest(unittest.TestCase):
    def _check_line(self, line: dict, kind: str) -> None:
        declared = run.declared()[kind]
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual({k: v["unit"] for k, v in line["metrics"].items()}, declared)

    def test_untraced_run_reports_every_end_to_end_metric(self):
        lines, result = run.execute("open-field", 1, 0.1, trace=False, tiny=True)
        self._check_line(result["line"], "end_to_end")
        for name, unit in E2E_LINES.items():
            self.assertTrue(_printed(lines, name, unit), f"{name} [{unit}] not printed")
        self.assertTrue(all(v["value"] > 0 for v in result["line"]["metrics"].values()))

    def test_traced_runs_report_every_metric(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                lines, result = run.execute(name, 2, 0.1, trace=True, tiny=True)
                self._check_line(result["line"], "per_layer")
                for metric, unit in {**E2E_LINES, **run.declared()["per_layer"]}.items():
                    self.assertTrue(_printed(lines, metric, unit), f"{metric} [{unit}] not printed")


class TamperTest(unittest.TestCase):
    """A split's outputs, written once by the real CLI, then altered."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(run.ROOT / "src"))
        from fieldcover import cli

        SCRATCH.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(dir=SCRATCH, prefix="selftest-"))
        (cls.command,) = workloads.commands("open-field", 3, cls.tmp / "inputs", tiny=True)
        workloads.write_inputs("open-field", 3, cls.tmp / "inputs", tiny=True)
        cls.clean = cls.tmp / "clean"
        code = cli.main([cls.command.name, *cls.command.args, "--out", str(cls.clean)])
        assert code == 0, f"tiny split exited {code}"

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def setUp(self):
        self.out = self.tmp / self.id().rsplit(".", 1)[-1]
        shutil.copytree(self.clean, self.out)

    def _edit(self, name: str, change) -> None:
        path = self.out / name
        payload = json.loads(path.read_text(encoding="utf-8"))
        change(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")

    def test_clean_outputs_pass(self):
        problems, facts = self.command.check(self.out)
        self.assertEqual(problems, [])
        self.assertEqual(facts["unplanned_dwells"], 0)

    def test_flipped_passed_is_caught(self):
        self._edit("verification.json", lambda p: p.update(passed=False))
        problems, _ = self.command.check(self.out)
        self.assertIn("verification.json does not report passed", problems)

    def test_dropped_subtour_waypoint_is_caught(self):
        self._edit("subtour_2.json", lambda p: p["waypoints"].pop(1))
        problems, _ = self.command.check(self.out)
        self.assertIn("subtours do not concatenate to the waypoints of tour.json", problems)

    def test_extra_unplanned_stop_is_counted(self):
        def add_stop(payload):
            first = next(w for w in payload["waypoints"] if w["dwell"] > 0)
            extra = dict(first, location=[first["location"][0] + 0.125, first["location"][1]])
            payload["waypoints"].insert(payload["waypoints"].index(first) + 1, extra)

        self._edit("tour.json", add_stop)
        problems, facts = self.command.check(self.out)
        self.assertEqual(facts["unplanned_dwells"], 1)
        self.assertIn("subtours do not concatenate to the waypoints of tour.json", problems)
        # the same stop added to the subtour too: the concatenation holds, the count still sees it
        self._edit("subtour_1.json", add_stop)
        problems, facts = self.command.check(self.out)
        self.assertEqual(problems, [])
        self.assertEqual(facts["unplanned_dwells"], 1)
        self.assertEqual(checks.unplanned_dwells(self.out), 1)


class NoProgramTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH, prefix="bare-") as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "open-field",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
