"""Spans and counts around fieldcover's layers, recorded from outside the program.

``install`` wraps the public functions of each module in ``TARGETS``.
Modules bind imported names at import time (``from .placement import
verify_plan``), so a function is replaced in every fieldcover module
namespace that holds it, and a method is replaced on its class. Spans
(name, start, end, parent) stay in memory until ``Tracer.dump``.

Flop and byte counts are computed from array sizes, not measured.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time


class Tracer:
    """Spans of one command run, plus counters fed by the wrappers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.values: dict[str, float] = {}
        self.designs: set[str] = set()
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "counts": self.counts,
            "maxima": self.maxima,
            "values": self.values,
            "designs": sorted(self.designs),
            "missing": self.missing,
        }


def self_times(spans) -> dict:
    """Per span name: summed duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), child in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start) - child
    return out


def span_calls(spans) -> dict:
    out: dict[str, int] = {}
    for name, *_ in spans:
        out[name] = out.get(name, 0) + 1
    return out


# Measure hooks: (tracer, bound arguments, result). They run after the
# span closes, so their cost lands in the caller's self time.


def _plan(t: Tracer, a, r) -> None:
    plan = a["plan"]
    rows = sum(int(n) for _, n in plan.entries)
    distinct = len({loc for loc, _ in plan.entries})
    t.values.update({
        "placement.sites": len(plan.entries),
        "placement.distinct_sites": distinct,
        "placement.design_rows": rows,
        "placement.measurements_per_site": plan.measurements_per_site,
        "placement.distinct_site_ratio": distinct / rows if rows else 0.0,
    })


def _verified(t: Tracer, a, r) -> None:
    _plan(t, a, r)
    t.values["placement.verify_margin"] = float(a["delta"]) - r.max_variance


def _factor(t: Tracer, a, r) -> None:
    post = a["self"]
    n = post.size
    t.peak("gp.Posterior.factor.rows_max", n)
    t.add("gp.Posterior.factor.flops", n**3 / 3.0)
    t.designs.add(hashlib.blake2b(post.design.tobytes(), digest_size=16).hexdigest())


def _variance(t: Tracer, a, r) -> None:
    n, q = a["self"].size, len(r)
    t.add("gp.Posterior.variance.query_points", q)
    t.add("gp.Posterior.variance.flops", float(n) * n * q)


def _toured(t: Tracer, a, r) -> None:
    _plan(t, a, r)
    from fieldcover.routing import intra_disk_travel

    t.values["routing.waypoints"] = len(r.waypoints)
    length = r.travel_length()
    inside = sum(intra_disk_travel(r).values())
    t.values["routing.intra_disk_share"] = inside / length if length else 0.0


def _greedy(t: Tracer, a, r) -> None:
    t.peak("baselines.candidates", len(a["candidates"]))
    t.peak("baselines.budget", a["budget"])


def _adder(key: str, size):
    def hook(t: Tracer, a, r) -> None:
        t.add(key, size(r))

    return hook


# (module, function or Class.method, span name, measure hook)
TARGETS = (
    ("geometry", "cover_environment", "geometry.cover_environment", _adder("geometry.cover_disks", len)),
    ("geometry", "greedy_mis", "geometry.greedy_mis", _adder("geometry.mis_disks", len)),
    ("geometry", "Environment.grid", "geometry.Environment.grid", _adder("geometry.grid_points", len)),
    ("placement", "disk_cover_placement", "placement.disk_cover_placement", None),
    ("placement", "verify_plan", "placement.verify_plan", _verified),
    ("gp", "Posterior.__init__", "gp.Posterior.factor", _factor),
    ("gp", "Posterior.variance", "gp.Posterior.variance", _variance),
    ("gp", "Posterior.mean", "gp.Posterior.mean", None),
    ("gp", "Posterior.mean_many", "gp.Posterior.mean", None),
    ("gp", "kernel_matrix", "gp.kernel_matrix", _adder("gp.kernel_matrix.entries", lambda r: r.size)),
    ("gp", "fit_hyperparameters", "gp.fit_hyperparameters", None),
    ("gp", "nlml", "gp.nlml", None),
    ("routing", "tour_from_plan", "routing.tour_from_plan", _toured),
    ("routing", "tsp_heuristic", "routing.tsp_heuristic", None),
    ("fleet", "split_tour", "fleet.split_tour", None),
    ("fleet", "makespan_certificate", "fleet.makespan_certificate", None),
    ("fields", "sample_gp_field", "fields.sample_gp_field", _adder("fields.nodes", lambda r: r.values.size)),
    ("baselines", "simulate_trial", "baselines.simulate_trial", _plan),
    ("baselines", "entropy_greedy", "baselines.entropy_greedy", _greedy),
    ("baselines", "mi_greedy", "baselines.mi_greedy", _greedy),
    ("baselines", "variance_over_time", "baselines.variance_over_time", None),
    ("baselines", "single_trial_mse_over_time", "baselines.single_trial_mse_over_time", None),
    ("io", "load_environment", "io.load", None),
    ("io", "load_dataset", "io.load", None),
    ("io", "write_json", "io.write", None),
    ("io", "write_plan_csv", "io.write", None),
    ("io", "write_curve_csv", "io.write", None),
    ("io", "plan_svg", "io.write", None),
    ("io", "tour_svg", "io.write", None),
    ("io", "verification_to_payload", "io.write", None),
    ("io", "tour_to_payload", "io.write", None),
    ("io", "certificate_to_payload", "io.write", None),
)


def _wrap(tracer: Tracer, fn, span: str, hook):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            hook(tracer, signature.bind(*args, **kwargs).arguments, result)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every target; a target the program no longer has is listed in ``tracer.missing``."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "fieldcover"]
    for module, qualname, span, hook in TARGETS:
        owner = sys.modules.get(f"fieldcover.{module}")
        cls_name, _, method = qualname.rpartition(".")
        cls = getattr(owner, cls_name, None) if cls_name else None
        if cls is not None and method in vars(cls):
            setattr(cls, method, _wrap(tracer, vars(cls)[method], span, hook))
            continue
        original = getattr(owner, qualname, None) if not cls_name else None
        if original is None:
            tracer.missing.append(f"{module}.{qualname}")
            continue
        wrapped = _wrap(tracer, original, span, hook)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
