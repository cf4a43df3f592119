"""The repository's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pc_paper --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1

``--trace 0`` times as many whole passes of the workload as fit in
``--seconds`` seconds (at least one) with tracing off, and reports the
end-to-end metrics; ``setup_s`` is the median of fresh-process set-ups
timed after the passes.  ``--trace 1`` runs one untraced pass, then one
traced pass, and reports the per-layer metrics (see ``metrics.py``) plus
the tracing overhead; the spans are written to
``.perfbench/spans-<workload>.npz``.  Either way every
operation is checked by the oracle (``oracle.py``), every metric is
printed with its unit, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The program under test is ``src/repro`` of the same checkout; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: fresh-process set-ups timed per run; ``setup_s`` is their median
SETUP_SAMPLES = 4
#: what set-up imports: every module the workloads drive
SETUP_IMPORTS = (
    "repro",
    "repro.analysis.runner",
    "repro.sanitizer.run",
    "repro.fleet.sweeps",
    "repro.fleet.cache",
)


def _require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def set_up(workload_name: str, seed: int):
    """Import, compile the MDL library, hash the code, build the inputs.
    Returns ``(workload, first pass steps, timings)``."""
    import importlib

    for module in SETUP_IMPORTS:
        importlib.import_module(module)
    from repro.core.metrics import build_library
    from repro.fleet.spec import code_version, subsystem_hashes

    from workloads import build_workload

    t0 = time.perf_counter()
    build_library()
    t1 = time.perf_counter()
    code_version()
    subsystem_hashes()
    t2 = time.perf_counter()
    workload = build_workload(workload_name, seed)
    steps = workload.steps(0)
    return workload, steps, {"mdl_compile_s": t1 - t0, "code_version_s": t2 - t1}


def time_setups(workload_name: str, seed: int, samples: int) -> list[float]:
    """Process start to ready, in fresh interpreters."""
    walls = []
    for _ in range(samples):
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = child.stdout.readline()
            walls.append(time.perf_counter() - t0)
        finally:
            child.stdout.close()
            child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return walls


class Passes:
    """Runs passes of a workload and keeps what the metrics need."""

    def __init__(self, workload, oracle, counters) -> None:
        self.workload = workload
        self.oracle = oracle
        self.counters = counters
        self.pass_walls: list[float] = []
        #: ``(step label, host time)`` of every step run
        self.step_walls: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.index = 0

    def run_pass(self, steps, rec=None, tracer=None) -> float:
        wall = 0.0
        for step in steps:
            gc.collect()
            error = None
            t0 = time.perf_counter()
            try:
                if rec is None:
                    raw = step.run()
                else:
                    rec.op += 1
                    with rec.span("bench.op"):
                        raw = step.run()
            except Exception:  # noqa: BLE001 - a failed operation, counted
                raw, error = None, traceback.format_exc()
            elapsed = time.perf_counter() - t0
            wall += elapsed
            self.step_walls.append((step.label, elapsed))
            with tracer.paused() if tracer else contextlib.nullcontext():
                self._judge(step, raw, error)
            del raw
        self.workload.end_pass(self.index)
        self.index += 1
        self.pass_walls.append(wall)
        return wall

    def _judge(self, step, raw, error) -> None:
        from workloads import Outcome

        if error is None:
            try:
                outcomes = step.check(raw, self.counters)
            except Exception:  # noqa: BLE001 - a failed check, counted
                outcomes = [Outcome(step.label, None, [traceback.format_exc()])]
        else:
            outcomes = [Outcome(step.label, None, [error])]
        for outcome in outcomes:
            self.attempted += 1
            problems = self.oracle.judge(outcome)
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"FAIL [{self.workload.name}] {outcome.label}: {problem}",
                          file=sys.stderr)


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest waited-for
    child (the fleet's workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 write_goldens: bool = False) -> dict:
    from metrics import end_to_end, finish, per_layer
    from oracle import GOLDENS, Oracle
    from tracer import SpanRecorder, Tracer
    from workloads import WORK_DIR, Counters

    workload, first_steps, timings = set_up(name, seed)
    if not workload.seeded:
        print(f"[{name}] run_sweep takes no seed; --seed {seed} is ignored",
              file=sys.stderr)
    oracle = Oracle(name, seed, seeded=workload.seeded)
    workload.warm_up()
    # what set-up built lives for the whole run: keep it out of the
    # collections made between steps
    gc.collect()
    gc.freeze()
    passes = Passes(workload, oracle, Counters())

    if not trace:
        # whole passes only, as many as fit in --seconds (at least one)
        start = time.perf_counter()
        passes.run_pass(first_steps)
        while (time.perf_counter() - start
               + statistics.median(passes.pass_walls) <= seconds):
            passes.run_pass(workload.steps(passes.index))
        rss = peak_rss_mb()
        values = end_to_end(
            passes.pass_walls, time_setups(name, seed, SETUP_SAMPLES), rss,
            passes.attempted, passes.failed,
        )
        metrics = finish("end_to_end", values)
    else:
        untraced = passes.run_pass(first_steps)
        resweeps = [wall for label, wall in passes.step_walls
                    if label.startswith("resweep")]
        traced_counters = Counters()
        passes.counters = traced_counters
        rec = SpanRecorder()
        tracer = Tracer(rec)
        with tracer:
            traced = passes.run_pass(workload.steps(passes.index), rec, tracer)
        values = per_layer(rec, traced_counters, traced, untraced, timings, resweeps)
        metrics = finish("per_layer", values)
        rec.write(WORK_DIR / f"spans-{name}.npz")

    oracle.save()
    if write_goldens:
        goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
        for workload_name, by_seed in oracle.pinned().items():
            goldens.setdefault(workload_name, {}).update(by_seed)
        GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return {
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": metrics,
    }


def print_table(name: str, result: dict) -> None:
    print(f"== {name}: {result['attempted']} operations, {result['failed']} failed")
    for metric, row in result["metrics"].items():
        print(f"  {metric:<40} {row['value']:>16.6g}  {row['unit']}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False,
        )
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {out.returncode}", file=sys.stderr)
            return out.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true",
                        help="pin this run's fingerprints in goldens.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _require_source()
    os.chdir(ROOT)
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.write_goldens)
    print_table(args.workload, result)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
