"""Seeded inputs and command lines of the benchmark workloads.

Every input file is made here with numpy alone, from the workload seed,
so the program under test sees nothing but files and command lines.
The same seed always gives byte-identical inputs.

``tiny=True`` shrinks each instance to a second or so per command for
the benchmark's self-test; the measured workloads never use it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

README_HYPER = "8.33,12.87,0.0361"
SIGNAL_VARIANCE = 12.87

# Why each workload was chosen is recorded in BENCHMARK.json.
NAMES = ("open-field", "noisy-courtyard", "baseline-study")


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``fieldcover <name> <args> --out DIR``."""

    name: str
    args: tuple[str, ...]
    check: Callable[[Path], tuple[list, dict]]  # out dir -> (problems, facts)


def _sizes(tiny: bool) -> dict:
    if tiny:
        return {"field": 16.0, "court": 6.0, "trials": 2, "survey": 60, "box": 20.0, "study": 12.0}
    return {"field": 60.0, "court": 14.0, "trials": 5, "survey": 600, "box": 50.0, "study": 50.0}


def _depot(name: str, seed: int) -> str:
    """A seeded launch point in the unit square at the origin corner.

    It moves the tour and the split by a few metres between seeds, while
    the plan, and with it the amount of work, stays the same.
    """
    import numpy as np

    rng = np.random.default_rng([seed, NAMES.index(name), 0])
    x, y = rng.uniform(0.0, 1.0, 2)
    return f"{float(x)!r},{float(y)!r}"


def commands(name: str, seed: int, inputs: Path, tiny: bool = False) -> tuple[Command, ...]:
    """Command lines of a workload whose inputs live in ``inputs``."""
    size = _sizes(tiny)
    env = str(inputs / "env.json")
    depot = _depot(name, seed)
    if name == "open-field":
        return (
            Command(
                "split",
                ("--env", env, "--hyper", README_HYPER, "--delta", "4",
                 "--k", "3", "--eta", "1", "--depot", depot),
                lambda out: checks.check_split(out, delta=4.0, robots=3),
            ),
        )
    if name == "noisy-courtyard":
        common = ("--env", env, "--hyper", "8.33,12.87,2.0", "--delta", "0.5", "--hard-boundary")
        trials = size["trials"]
        return (
            Command(
                "split",
                common + ("--k", "4", "--eta", "1", "--depot", depot),
                lambda out: checks.check_split(out, delta=0.5, robots=4),
            ),
            Command(
                "simulate",
                common + ("--trials", str(trials), "--seed", str(seed)),
                lambda out: checks.check_simulate(out, trials=trials),
            ),
        )
    if name == "baseline-study":
        survey = inputs / "survey.csv"
        return (
            Command("fit", ("--data", str(survey)), lambda out: checks.check_fit(out, survey)),
            Command(
                "compare",
                ("--env", env, "--hyper", README_HYPER, "--delta", "4",
                 "--seed", str(seed), "--depot", depot),
                lambda out: checks.check_compare(out, SIGNAL_VARIANCE),
            ),
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def write_inputs(name: str, seed: int, inputs: Path, tiny: bool = False) -> None:
    """Write the workload's environment json and, for the study, its survey csv."""
    import numpy as np

    size = _sizes(tiny)
    inputs.mkdir(parents=True, exist_ok=True)
    if name == "open-field":
        side = size["field"]
        env = {"type": "rectangle", "min": [0.0, 0.0], "max": [side, side]}
    elif name == "noisy-courtyard":
        s, h = size["court"], size["court"] / 2.0
        env = {"type": "polygon", "vertices": [[0.0, 0.0], [s, 0.0], [s, h], [h, h], [h, s], [0.0, s]]}
    elif name == "baseline-study":
        side = size["study"]
        env = {"type": "rectangle", "min": [0.0, 0.0], "max": [side, side]}
        _write_survey(inputs / "survey.csv", np.random.default_rng([seed, NAMES.index(name), 1]),
                      size["survey"], size["box"])
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    (inputs / "env.json").write_text(json.dumps(env, sort_keys=True) + "\n", encoding="utf-8")


def _write_survey(path: Path, rng, count: int, box: float) -> None:
    """A noisy draw of the README's field at uniform random points, offset by 20."""
    import numpy as np

    length, signal, noise = (float(v) for v in README_HYPER.split(","))
    pts = rng.uniform(0.0, box, (count, 2))
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    cov = signal * np.exp(-d2 / (2.0 * length**2)) + 1e-10 * signal * np.eye(count)
    field = np.linalg.cholesky(cov) @ rng.standard_normal(count)
    values = 20.0 + field + np.sqrt(noise) * rng.standard_normal(count)
    lines = ["x,y,value"]
    lines.extend(f"{float(x)!r},{float(y)!r},{float(v)!r}" for (x, y), v in zip(pts, values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
