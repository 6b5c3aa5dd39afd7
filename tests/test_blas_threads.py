"""What the BLAS thread count may change in the written outputs.

OpenBLAS splits some sums across its threads, so ``OPENBLAS_NUM_THREADS``
can move the last bits of what goes through it. Here the benchmark's
commands run on its seed-1 inputs (``perfbench/workloads.py``) as
processes at one BLAS thread and at two.

The plan, the tours, the subtours, the certificate and the drawings come
from placement and routing, which sum nothing in BLAS: they must match
byte for byte. Verification variances, the fit's NLML, the simulated
trials and the curves go through threaded BLAS. Their verdicts,
hyperparameters, grids, tiles and times must still match exactly, and
their values within the tolerances below. The synthetic truth those
trials and curves read must be the same bytes at both counts.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fieldcover

SRC = Path(fieldcover.__file__).resolve().parents[1]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1
WORKLOADS = ("open-field", "noisy-courtyard", "baseline-study")

# Largest differences seen between 1 and 2 threads at seeds 1-3 on a
# 2-core x86-64 host, each tolerance seven to ten times above them:
# posterior variances 1.4e-11 relative (trial_points.csv), the NLML
# 1.0e-12 relative, and anything that reads the synthetic truth (means,
# squared errors, MSE, mean percent difference) 2.2e-12 absolute. The
# truth is drawn from one small Cholesky factor per axis (the last test
# pins a whole draw byte for byte), so those move mostly through the
# posterior means.
VARIANCE_RTOL = 1e-10
NLML_RTOL = 1e-11
TRUTH_ATOL = 2e-11

# how each csv column may differ: None for not at all
COLUMNS = {
    "x": None,
    "y": None,
    "trial": None,
    "time": None,
    "variance": ("rel", VARIANCE_RTOL),
    "average_variance": ("rel", VARIANCE_RTOL),
    "mean": ("abs", TRUTH_ATOL),
    "squared_error": ("abs", TRUTH_ATOL),
    "average_mse": ("abs", TRUTH_ATOL),
    "mean_percent_difference": ("abs", TRUTH_ATOL),
}
# json values that may differ, and how; every other key must be equal
JSON_VALUES = {
    "verification.json": {"max_variance": VARIANCE_RTOL, "mean_variance": VARIANCE_RTOL},
    "hyperparameters.json": {"nlml": NLML_RTOL},
}
# files that may differ within the tolerances above
NEAR = ("verification.json", "hyperparameters.json", "trial_", "curve_")


def load_workloads():
    path = str(PERFBENCH)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    sys.path.insert(0, path)  # workloads imports its sibling checks
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(path)
    return module


def child_env(threads: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict:
    """{(workload, command, threads): {file name: bytes}}."""
    workloads = load_workloads()
    assert workloads.NAMES == WORKLOADS
    root = tmp_path_factory.mktemp("blas-threads")
    found = {}
    for name in WORKLOADS:
        inputs = root / name / "inputs"
        workloads.write_inputs(name, SEED, inputs)
        for command in workloads.commands(name, SEED, inputs):
            for threads in ("1", "2"):
                out = root / name / threads / command.name
                argv = [command.name, *command.args, "--out", str(out)]
                subprocess.run(
                    [sys.executable, "-m", "fieldcover.cli", *argv],
                    env=child_env(threads), check=True, capture_output=True,
                )
                found[name, command.name, threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return found


def assert_close(got, want, how, what: str) -> None:
    if how is None:
        assert got == want, what
    elif how[0] == "rel":
        assert abs(got - want) <= how[1] * abs(want), what
    else:
        assert abs(got - want) <= how[1], what


def assert_csv_near(one: bytes, two: bytes, name: str) -> None:
    header, *rows = list(csv.reader(io.StringIO(one.decode())))
    header_two, *rows_two = list(csv.reader(io.StringIO(two.decode())))
    assert header == header_two and len(rows) == len(rows_two), name
    for row, row_two in zip(rows, rows_two):
        for column, a, b in zip(header, row, row_two):
            assert_close(float(b), float(a), COLUMNS[column], f"{name} {column}")


def assert_json_near(one: bytes, two: bytes, name: str) -> None:
    a, b = json.loads(one), json.loads(two)
    assert a.keys() == b.keys(), name
    near = JSON_VALUES[name]
    for key in a:
        assert_close(b[key], a[key], ("rel", near[key]) if key in near else None, f"{name} {key}")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_at_one_and_two_blas_threads(outputs, workload):
    commands = sorted({c for w, c, _ in outputs if w == workload})
    assert commands
    for command in commands:
        one, two = outputs[workload, command, "1"], outputs[workload, command, "2"]
        assert one.keys() == two.keys()
        for name in one:
            if not name.startswith(NEAR):
                assert one[name] == two[name], f"{command} {name}"
            elif name.endswith(".json"):
                assert_json_near(one[name], two[name], name)
            else:
                assert_csv_near(one[name], two[name], name)


def test_placement_and_routing_outputs_are_pinned_byte_for_byte(outputs):
    pinned = {n for files in outputs.values() for n in files if not n.startswith(NEAR)}
    assert {"plan.csv", "plan.svg", "tour.json", "tour.svg", "certificate.json"} <= pinned
    assert {"subtour_1.json", "subtour_4.json"} <= pinned


DRAW = """
import sys
from fieldcover.fields import sample_gp_field
from fieldcover.geometry import Environment
from fieldcover.gp import Hyperparameters

nx, ny = map(int, sys.argv[1:])
env = Environment.rectangle((0, 0), (nx - 1, ny - 1))
grid = sample_gp_field(env, Hyperparameters(8.33, 12.87, 0.0361), 1.0, 1)
sys.stdout.buffer.write(grid.values.tobytes())
"""


# the README's 51 x 51 draw, and a 99 x 101 one, large enough that a
# threaded BLAS product of the axis factors split its sums
@pytest.mark.parametrize("nx, ny", [(51, 51), (99, 101)])
def test_the_truth_draw_is_the_same_bytes_at_one_and_two_threads(nx, ny):
    draws = [
        subprocess.run(
            [sys.executable, "-c", DRAW, str(nx), str(ny)], env=child_env(threads), check=True, capture_output=True
        ).stdout
        for threads in ("1", "2")
    ]
    assert len(draws[0]) == 8 * nx * ny
    assert draws[0] == draws[1]
