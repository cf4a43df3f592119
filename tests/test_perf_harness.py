"""The perf-gate harness (``benchmarks/bench_perf.py``): one writer, fresh files.

* Only the harness CLI writes ``BENCH_kernel.json``: the two bench entry
  points run inside fleet render workers (possibly several at once, on
  different machines), so they only ``emit`` their reports.
* Each committed ``BENCH_*.json`` carries the schema its writer emits now,
  ``BENCH_kernel.json`` has a row for every registered scenario, and the
  baseline gates every one of them.
"""

from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import bench_perf as bench  # noqa: E402
import common  # noqa: E402


def test_render_entries_only_emit(monkeypatch):
    """Both entry points under RENDER_CAPTURE (as a render worker runs
    them) capture their reports and leave BENCH_kernel.json untouched."""
    from repro.fleet import StubTimer

    target = REPO / "BENCH_kernel.json"
    before = (target.read_bytes(), target.stat().st_mtime_ns)
    monkeypatch.setattr(bench, "SCENARIOS", [
        ("kernel/timer_churn", partial(bench.kernel_row, bench.timer_churn,
                                       timers=20, fires=5)),
        ("scale/barrier@16", partial(bench.run_cell, "barrier", 16)),
    ])
    captured: dict = {}
    monkeypatch.setattr(common, "RENDER_CAPTURE", captured)
    bench.test_kernel_throughput(StubTimer())
    bench.test_scale_ranks(StubTimer())
    assert set(captured) == {"kernel_throughput", "scale_ranks"}
    assert "timer_churn" in captured["kernel_throughput"]
    assert "barrier" in captured["scale_ranks"]
    assert (target.read_bytes(), target.stat().st_mtime_ns) == before


def test_committed_bench_files_are_fresh():
    """Every committed BENCH_*.json carries its writer's current schema;
    BENCH_kernel.json covers the registry and the baseline gates it all."""
    from repro.fleet.sweeps import BENCH_SCHEMA

    fleet = json.loads((REPO / "BENCH_fleet.json").read_text())
    assert fleet["schema"] == BENCH_SCHEMA
    assert sorted(p.name for p in REPO.glob("BENCH_*.json")) == [
        "BENCH_fleet.json", "BENCH_kernel.json",
    ]

    keys = {key for key, _ in bench.SCENARIOS}
    assert len(keys) == len(bench.SCENARIOS), "duplicate scenario keys"
    kernel = json.loads((REPO / "BENCH_kernel.json").read_text())
    assert kernel["schema"] == bench.SCHEMA
    assert set(kernel["scenarios"]) >= keys, keys - set(kernel["scenarios"])
    for shape in (*bench.SHAPES, "tool"):  # every shape reaches 1024 ranks
        assert f"scale/{shape}@1024" in keys, shape

    baseline = json.loads(bench.BASELINE.read_text())
    assert baseline["schema"] == bench.SCHEMA
    assert set(baseline["scenarios"]) == keys, set(baseline["scenarios"]) ^ keys
    for key, row in baseline["scenarios"].items():
        assert ("floor" in row) != ("normalized" in row), key
    assert baseline["scenarios"]["fleet/packing"] == {"floor": bench.PACKING_FLOOR}


def test_check_gates_tolerance_and_floor():
    """--check: 30% below a baseline's normalized fails, a floor is
    absolute, and a gated row that was not run fails."""
    baseline = {"schema": bench.SCHEMA, "scenarios": {
        "kernel/a": {"normalized": 1.0},
        "fleet/packing": {"floor": bench.PACKING_FLOOR},
        "scale/x@64": {"normalized": 0.5},
    }}
    ok = {"scenarios": {
        "kernel/a": {"normalized": 0.71},
        "fleet/packing": {"normalized": 1 / 1.14},
        "scale/x@64": {"normalized": 0.36},
    }}
    assert bench.check(ok, baseline) == []
    bad = {"scenarios": {
        "kernel/a": {"normalized": 0.69},
        "fleet/packing": {"normalized": 1 / 1.16},
    }}
    problems = bench.check(bad, baseline)
    assert [p.split(":")[0] for p in problems] == [
        "kernel/a", "fleet/packing", "scale/x@64",
    ]
