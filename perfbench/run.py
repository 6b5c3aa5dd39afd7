"""Benchmark of the fieldcover CLI on three seeded survey workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fieldcover is imported from its
``src/``. Each run:

1. sets up ``SETUPS`` times in fresh interpreters (import fieldcover,
   numpy and scipy, then write the seeded inputs) and reports the
   median as ``setup_s``;
2. repeats the workload's commands, each in a fresh child process that
   calls ``fieldcover.cli.main``, until ``--seconds`` are used up (at
   least twice with ``--trace 0``; once untraced and once traced with
   ``--trace 1``);
3. checks every command's outputs (``checks.py``) and that each repeat
   of a command wrote byte-identical files;
4. prints a report, writes it with the raw samples and the machine
   facts to ``.perfbench/results/``, and prints as its last line one
   JSON object: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
   ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.

Wall-clock data never goes inside a command's ``--out``. Timings are
medians over the run's repeats. Flop and byte counts are computed from
sizes, not measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib.metadata import version
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
# One BLAS thread per core, at most two. On a shared two-core machine two
# threads were no less steady than one; the count goes into every result.
BLAS_THREADS = min(2, os.cpu_count() or 1)
SETUPS = 7
CHILD_TIMEOUT_S = 150.0
COMMANDS = ("fit", "split", "simulate", "compare")
# Every traced span name, reported as the ``<span>.s`` self-time metric.
_TRACE_SPANS = sorted({span for _, _, span, _ in tracing.TARGETS})


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
    }


def _child_env() -> dict:
    threads = str(BLAS_THREADS)
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)


def spawn(args, log: Path) -> tuple[int, float, float]:
    """Run ``child.py args``; return exit code, wall seconds and peak RSS in MB."""
    with log.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args],
            cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL, stdout=err, stderr=err,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(lines[-3:])


class Run:
    """One benchmark run of one workload: set-ups, repeats, checks and samples."""

    def __init__(self, workload: str, seed: int, work: Path, tiny: bool = False):
        self.name, self.seed, self.tiny = workload, seed, tiny
        self.work = work
        self.inputs = work / "inputs"
        self.commands = workloads.commands(workload, seed, self.inputs, tiny)
        self.setup_s: list[float] = []
        self.records: list[dict] = []
        self._hashes: dict[str, dict] = {}
        self._repeat = 0

    def setup(self) -> None:
        args = ["setup", self.name, str(self.seed), str(self.inputs)] + (["--tiny"] if self.tiny else [])
        for i in range(SETUPS):
            log = self.work / f"setup{i}.log"
            code, wall, _ = spawn(args, log)
            if code != 0:
                raise RuntimeError(f"set-up exited {code}: {_tail(log)}")
            self.setup_s.append(wall)

    def measure(self, seconds: float, traced: bool, min_repeats: int) -> None:
        start, done = time.perf_counter(), 0
        while True:
            self._run_repeat(traced)
            done += 1
            elapsed = time.perf_counter() - start
            if done >= min_repeats and elapsed * (done + 1) / done > seconds:
                return

    def _run_repeat(self, traced: bool) -> None:
        rep = self._repeat
        self._repeat += 1
        for cmd in self.commands:
            tag = f"r{rep}-{cmd.name}"
            out = self.work / tag
            timing, spans, log = (self.work / f"{tag}.{ext}" for ext in ("timing.json", "spans.json", "log"))
            args = ["run", "--timing", str(timing)]
            if traced:
                args += ["--spans", str(spans), "--run-id", f"{self.name}-s{self.seed}-{tag}"]
            args += ["--", cmd.name, *cmd.args, "--out", str(out)]
            code, _, rss = spawn(args, log)
            record = {"command": cmd.name, "repeat": rep, "traced": traced, "code": code,
                      "rss_mb": rss, "problems": [], "facts": {}}
            if code != 0:
                record["problems"].append(f"exit code {code}: {_tail(log)}")
            else:
                record.update(json.loads(timing.read_text(encoding="utf-8")))
                self._check(cmd, out, record)
                if traced:
                    record["trace"] = json.loads(spans.read_text(encoding="utf-8"))
            self.records.append(record)
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, cmd, out: Path, record: dict) -> None:
        try:
            problems, facts = cmd.check(out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems, facts = [f"unreadable outputs: {exc!r}"], {}
        hashes = checks.file_hashes(out)
        first = self._hashes.setdefault(cmd.name, hashes)
        if hashes != first:
            changed = sorted(k for k in first.keys() | hashes.keys() if first.get(k) != hashes.get(k))
            problems.append(f"outputs differ from the first repeat: {', '.join(changed)}")
        record["problems"] += problems
        record["facts"] = dict(facts, bytes_written=checks.bytes_written(out))

    def times(self, command: str, traced: bool) -> list[float]:
        return [r["seconds"] for r in self.records
                if r["command"] == command and r["traced"] == traced and _ok(r)]

    def fact(self, key: str):
        for r in self.records:
            if _ok(r) and key in r["facts"]:
                return r["facts"][key]
        return None

    def end_to_end(self) -> dict:
        commands = [c.name for c in self.commands]
        medians = {c: _median(self.times(c, False)) for c in commands}
        repeats = sorted({r["repeat"] for r in self.records if not r["traced"]})
        peaks = [max(r["rss_mb"] for r in self.records if r["repeat"] == rep) for rep in repeats]
        out = {
            "setup_s": _median(self.setup_s),
            "commands_s": sum(medians.values()),
            "peak_rss_mb": _median(peaks),
            "tour_time_s": self.fact("tour_time_s") or 0.0,
        }
        out.update({f"{c}_s": m for c, m in medians.items()})
        return out

    def per_layer(self) -> dict:
        traced = [r for r in self.records if r["traced"] and _ok(r)]
        repeats = sorted({r["repeat"] for r in traced})
        per_repeat = [_layer_metrics([r for r in traced if r["repeat"] == rep]) for rep in repeats]
        per_repeat = per_repeat or [_layer_metrics([])]
        out = {k: _median([m[k] for m in per_repeat]) for k in per_repeat[0]}
        for c in (c.name for c in self.commands):
            out["trace.overhead_s"] = out.get("trace.overhead_s", 0.0) + (
                _median(self.times(c, True)) - _median(self.times(c, False)))
        for key, fact in (("routing.unplanned_dwells", "unplanned_dwells"),
                          ("fleet.makespan_s", "makespan_s"),
                          ("fleet.makespan_over_bound", "makespan_over_bound")):
            out[key] = self.fact(fact) or 0
        return out

    def trace_problems(self) -> list[str]:
        """Self times of every span, the command's own included, must add up to the command."""
        problems = []
        for r in self.records:
            if r["traced"] and _ok(r):
                spans = r["trace"]["spans"]
                root = spans[0][2] - spans[0][1]
                total = sum(tracing.self_times(spans).values())
                if abs(total - root) > 1e-9 * len(spans) + 1e-9 * root:
                    problems.append(f"r{r['repeat']}-{r['command']}: self times sum to {total}, command took {root}")
                if r["trace"]["missing"]:
                    problems.append(f"trace targets missing: {', '.join(r['trace']['missing'])}")
        return problems


def _ok(record: dict) -> bool:
    return not record["problems"]


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _layer_metrics(records: list[dict]) -> dict:
    """Per-layer metrics of one repeat, summed over the workload's commands."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    maxima: dict[str, float] = {}
    values: dict[str, float] = {}
    designs: set[str] = set()
    written = 0
    for r in records:
        trace = r["trace"]
        for name, s in tracing.self_times(trace["spans"]).items():
            self_s[name] = self_s.get(name, 0.0) + s
        for name, n in tracing.span_calls(trace["spans"]).items():
            calls[name] = calls.get(name, 0) + n
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, n in trace["maxima"].items():
            maxima[name] = max(maxima.get(name, n), n)
        values.update(trace["values"])
        designs.update(trace["designs"])
        written += r["facts"]["bytes_written"]

    out = {f"{span}.s": self_s.get(span, 0.0) for span in _TRACE_SPANS}
    out.update({f"cli.{c}.self_s": self_s.get(f"cli.{c}", 0.0) for c in COMMANDS})
    for span in ("gp.Posterior.factor", "gp.nlml", "baselines.simulate_trial"):
        out[f"{span}.calls"] = calls.get(span, 0)
    for key in ("geometry.cover_disks", "geometry.mis_disks", "geometry.grid_points",
                "gp.Posterior.factor.flops", "gp.Posterior.variance.query_points",
                "gp.Posterior.variance.flops", "gp.kernel_matrix.entries", "fields.nodes"):
        out[key] = counts.get(key, 0)
    for key in ("gp.Posterior.factor.rows_max", "baselines.candidates", "baselines.budget"):
        out[key] = maxima.get(key, 0)
    for key in ("placement.sites", "placement.distinct_sites", "placement.design_rows",
                "placement.measurements_per_site", "placement.distinct_site_ratio",
                "placement.verify_margin", "routing.waypoints", "routing.intra_disk_share"):
        out[key] = values.get(key, 0)
    rows = out["gp.Posterior.factor.rows_max"]
    out["gp.gram_bytes_max"] = 8 * rows * rows
    factorizations = out["gp.Posterior.factor.calls"]
    out["gp.distinct_design_ratio"] = len(designs) / factorizations if factorizations else 0.0
    out["io.bytes_written"] = written
    return out


def declared() -> dict:
    """Units of the ``end_to_end`` and ``per_layer`` metrics and the ``why`` of each workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    out["why"] = {w["name"]: w["why"] for w in spec["workloads"]}
    return out


def execute(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[list[str], dict]:
    """Run one workload; return the report lines and the result record."""
    work = ROOT / ".perfbench" / f"work-{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(workload, seed, work, tiny)
        run.setup()
        if trace:
            run.measure(seconds / 2.0, traced=False, min_repeats=1)
            run.measure(seconds / 2.0, traced=True, min_repeats=1)
        else:
            run.measure(seconds, traced=False, min_repeats=2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(run, trace)


def report(run: Run, trace: bool) -> tuple[list[str], dict]:
    spec = declared()
    attempted = len(run.records)
    failed = sum(not _ok(r) for r in run.records)
    problems = [f"r{r['repeat']}-{r['command']}: {p}" for r in run.records for p in r["problems"]]
    if trace:
        problems += run.trace_problems()
    e2e = run.end_to_end()
    layers = run.per_layer() if trace else {}
    kind = "per_layer" if trace else "end_to_end"
    chosen = layers if trace else e2e
    missing = set(spec[kind]) - set(chosen)
    if missing:
        raise RuntimeError(f"BENCHMARK.json declares {kind} metrics this run did not compute: {sorted(missing)}")
    metrics = {name: {"value": chosen[name], "unit": unit} for name, unit in spec[kind].items()}

    info = machine()
    lines = [
        f"workload {run.name}  seed {run.seed}  trace {int(trace)}",
        "why: " + spec["why"][run.name],
        "machine: " + "  ".join(f"{k}={v}" for k, v in info.items()),
    ]
    ran = {c.name for c in run.commands}
    lines.append(f"  {'setup_s':<34} {e2e['setup_s']:>14.6g} s  (median of {len(run.setup_s)} set-ups)")
    for c in COMMANDS:
        if c in ran:
            n = len(run.times(c, False))
            lines.append(f"  {c + '_s':<34} {e2e[c + '_s']:>14.6g} s  (median of {n} untraced runs)")
        else:
            lines.append(f"  {c + '_s':<34} {'n/a':>14} s  (workload does not run {c})")
    lines.append(f"  {'commands_s':<34} {e2e['commands_s']:>14.6g} s  (sum of the command medians)")
    lines.append(f"  {'peak_rss_mb':<34} {e2e['peak_rss_mb']:>14.6g} MB")
    for name, unit in (("tour_time_s", "robot-s"), ("makespan_s", "robot-s"), ("unplanned_dwells", "count")):
        value = run.fact(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<34} {shown:>14} {unit}")
    lines.append(f"  {'failed_ratio':<34} {failed / attempted:>14.6g} failed/attempted  ({failed} of {attempted} commands)")
    if trace:
        traced = sum(r["traced"] for r in run.records)
        lines.append(f"per layer (self times are medians over traced repeats; their sum is checked "
                     f"against the command time on each of the {traced} traced commands):")
        lines += [f"  {name:<34} {layers[name]:>14.6g} {unit}" for name, unit in spec["per_layer"].items()]
    lines += [f"problem: {p}" for p in problems]

    result = {
        "workload": run.name, "why": spec["why"][run.name], "seed": run.seed, "trace": int(trace),
        "machine": info, "setup_s": run.setup_s,
        "records": [{k: v for k, v in r.items() if k != "trace"} for r in run.records],
        "end_to_end": e2e, "per_layer": layers, "problems": problems,
        "line": {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # a terminated run still stops its child process on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "fieldcover" / "cli.py").is_file():
        print(f"error: no fieldcover sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    lines, result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
