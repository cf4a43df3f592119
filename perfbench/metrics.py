"""End-to-end and per-layer metrics, from timed passes and traced spans.

Names and units are declared once, in ``BENCHMARK.json`` at the root of
the checkout; :func:`finish` refuses to report a set of metrics that does
not match the declaration.

Per-layer naming: ``*_calls`` counts calls into an entry point, ``*_s``
is a call's inclusive time summed, ``*_self_s`` is self time (duration
minus the time child spans cover), ``<layer>.self_share`` is the layer's
self time over the traced pass's wall time.  ``fleet.resweep_s`` is the
median no-change re-sweep of the untraced pass.  ``dist.<span>.*`` is the
per-call distribution of one entry point: the median, the highest
percentile of 50/90/99/99.9/99.99 that still has ten calls beyond it, that
percentile, and the number of calls.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from tracer import LAYERS, SpanRecorder, layer_of
from workloads import Counters

__all__ = ["declared", "end_to_end", "per_layer", "finish", "DIST_SPANS"]

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: entry points whose per-call distribution is reported
DIST_SPANS = (
    "sim.call", "mpi.api", "dyninst.snippet", "dyninst.insert",
    "dyninst.delete", "core.procs_matching", "core.instrument_proc",
    "core.sample", "core.enable", "sanitizer.hook", "fleet.cache_get",
    "fleet.cache_put", "fleet.digest",
)
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def declared(kind: str) -> dict[str, str]:
    """``{metric name: unit}`` for ``"end_to_end"`` or ``"per_layer"``."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def end_to_end(
    pass_walls: list[float],
    setup_walls: list[float],
    peak_rss_mb: float,
    attempted: int,
    failed: int,
) -> dict[str, float]:
    return {
        "wall_s": statistics.median(pass_walls),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": (attempted - failed) / attempted if attempted else 0.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _distribution(rec: SpanRecorder, span: str) -> dict[str, float]:
    import numpy as np

    values = np.frombuffer(rec.call_durations.get(span, b""), dtype=np.float64)
    n = len(values)
    out = {"p50_us": 0.0, "tail_us": 0.0, "tail_pctl": 0.0, "samples": float(n)}
    if not n:
        return out
    out["p50_us"] = float(np.percentile(values, 50.0)) * 1e6
    tails = [p for p in PERCENTILES if n * (100.0 - p) / 100.0 >= 10]
    if tails:
        out["tail_pctl"] = tails[-1]
        out["tail_us"] = float(np.percentile(values, tails[-1])) * 1e6
    return out


def per_layer(
    rec: SpanRecorder,
    counters: Counters,
    traced_wall: float,
    untraced_wall: float,
    setup_timings: dict[str, float],
    resweep_walls: list[float],
) -> dict[str, float]:
    spans = rec.summarize()

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    count = rec.count
    sums = counters.sums
    events = sums["sim_events"]
    metrics = {
        "sim.events": events,
        "sim.events_per_s": _ratio(events, total("sim.run")),
        "sim.schedule_calls": count("sim.schedule"),
        "sim.schedule_per_event": _ratio(count("sim.schedule"), events),
        "sim.run_self_s": own("sim.run"),
        "sim.call_calls": count("sim.call"),
        "sim.call_self_s": own("sim.call"),
        "mpi.api_calls": count("mpi.api"),
        "mpi.self_s": own("mpi.api") + own("mpi.launch"),
        "mpi.launch_s": total("mpi.launch"),
        "dyninst.snippets_executed": count("dyninst.snippet"),
        "dyninst.snippet_self_s": own("dyninst.snippet"),
        "dyninst.insert_calls": count("dyninst.insert"),
        "dyninst.insert_s": total("dyninst.insert"),
        "dyninst.delete_calls": count("dyninst.delete"),
        "dyninst.delete_s": total("dyninst.delete"),
        "core.procs_matching_calls": count("core.procs_matching"),
        "core.procs_matching_s": total("core.procs_matching"),
        "core.instrument_proc_calls": count("core.instrument_proc"),
        "core.instrument_proc_s": total("core.instrument_proc"),
        "core.sample_calls": count("core.sample"),
        "core.sample_s": total("core.sample"),
        "core.enable_calls": count("core.enable"),
        "core.enable_s": total("core.enable"),
        "core.histogram_adds": count("core.histogram_add"),
        "core.pc_experiments": sums["pc_experiments"],
        "core.pc_concluded_ratio": _ratio(sums["pc_concluded"], sums["pc_experiments"]),
        "core.mdl_compile_s": setup_timings["mdl_compile_s"],
        "sanitizer.runs": count("sanitizer.run"),
        "sanitizer.events": sums["sanitizer_events"],
        "sanitizer.hook_calls": count("sanitizer.hook"),
        "sanitizer.hook_self_s": own("sanitizer.hook"),
        "sanitizer.finalize_s": total("sanitizer.finalize"),
        "sanitizer.findings": sums["sanitizer_findings"],
        "fleet.executed": sums["fleet_executed"],
        "fleet.cached": sums["fleet_cached"],
        "fleet.failed": sums["fleet_failed"],
        "fleet.attempts": sums["fleet_attempts"],
        "fleet.hit_ratio": _ratio(
            sums["fleet_cached"],
            sums["fleet_executed"] + sums["fleet_cached"] + sums["fleet_failed"],
        ),
        "fleet.makespan_s": sums["fleet_makespan"],
        "fleet.busy_s": sums["fleet_busy"],
        "fleet.idle_frac": (
            1.0 - _ratio(sums["fleet_busy"], sums["fleet_capacity"])
            if sums["fleet_capacity"] else 0.0
        ),
        "fleet.packing_eff": counters.median("fleet_packing_eff"),
        "fleet.first_launch_s": counters.median("fleet_first_launch"),
        "fleet.queue_wait_p50_s": counters.median("fleet_queue_wait"),
        "fleet.cache_put_calls": count("fleet.cache_put"),
        "fleet.cache_put_s": total("fleet.cache_put"),
        "fleet.cache_get_s": total("fleet.cache_get"),
        "fleet.digest_s": total("fleet.digest"),
        "fleet.code_version_s": setup_timings["code_version_s"],
        "fleet.resweep_s": statistics.median(resweep_walls) if resweep_walls else 0.0,
        "bench.trace_overhead_pct": 100.0 * _ratio(traced_wall - untraced_wall, untraced_wall),
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, row in spans.items():
        layer = layer_of(name)
        if layer in layer_self:
            layer_self[layer] += row["self_s"]
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_share"] = _ratio(seconds, traced_wall)
    for span in DIST_SPANS:
        for key, value in _distribution(rec, span).items():
            metrics[f"dist.{span}.{key}"] = value
    return {name: float(value) for name, value in metrics.items()}


def finish(kind: str, values: dict[str, float]) -> dict[str, dict]:
    """``{name: {"value", "unit"}}`` in declaration order; raises when the
    computed set and ``BENCHMARK.json`` disagree."""
    units = declared(kind)
    if set(units) != set(values):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: "
                           f"missing {missing}, undeclared {extra}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
