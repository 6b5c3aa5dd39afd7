"""The package shortens OpenBLAS's idle spin before numpy loads, and no output moves.

numpy and scipy each bundle an OpenBLAS that reads
``OPENBLAS_THREAD_TIMEOUT`` once, when it loads. ``fieldcover`` sets it
at the top of its ``__init__`` unless the environment already has it.
Every check runs in a fresh interpreter whose environment lacks the
variable, because this process imported ``fieldcover`` and so carries it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fieldcover

SRC = Path(fieldcover.__file__).resolve().parents[1]

# records the variable when numpy is first looked up, before it loads
PROBE = """
import json, os, sys
assert "numpy" not in sys.modules
seen = []

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None

sys.meta_path.insert(0, Probe())
import fieldcover.cli
print(json.dumps(seen))
"""


def child_env(timeout=None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    # the thread count decides some bits, so both sides of a comparison
    # use the same one
    env["OPENBLAS_NUM_THREADS"] = "2"
    if timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout
    return env


def timeout_at_numpy_import(timeout=None) -> list:
    run = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=child_env(timeout), check=True
    )
    return json.loads(run.stdout)


def test_package_sets_the_timeout_before_numpy_loads():
    assert timeout_at_numpy_import() == [fieldcover.OPENBLAS_THREAD_TIMEOUT]


def test_a_preset_timeout_is_kept():
    assert timeout_at_numpy_import("28") == ["28"]


@pytest.mark.parametrize(
    "command, extra",
    [("compare", ["--seed", "3", "--depot", "0,0"]), ("simulate", ["--seed", "3", "--trials", "2"])],
)
def test_outputs_do_not_depend_on_the_timeout(command, extra, tmp_path):
    env_path = tmp_path / "env.json"
    env_path.write_text('{"type": "rectangle", "min": [0, 0], "max": [14, 14]}', encoding="utf-8")
    outputs = {}
    for timeout in ("28", None):
        out = tmp_path / f"out-{timeout}"
        argv = [command, "--env", str(env_path), "--hyper", "3,2,0.1", "--delta", "1.2", "--out", str(out), *extra]
        subprocess.run(
            [sys.executable, "-m", "fieldcover.cli", *argv], env=child_env(timeout), check=True, capture_output=True
        )
        outputs[timeout] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outputs["28"]
    assert outputs["28"] == outputs[None]
