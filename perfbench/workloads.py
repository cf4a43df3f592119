"""The three workloads, as lists of timed steps.

A *step* is the unit the benchmark times: one tool run, one sanitize run,
or one ``run_sweep`` call.  Each step has a ``run`` (timed) and a
``check`` (untimed) that turns the step's raw output into
:class:`Outcome` rows -- one per *operation* (a tool run, a sanitize run,
or one sweep job) -- and into counters for the per-layer metrics.

* ``pc_paper`` -- Paradyn plus the Performance Consultant on four
  full-size PPerfMark programs at the paper's 6-rank shape.
* ``ranks_1024`` -- the skewed-barrier tool cell and five sanitizer
  shapes, all at 1024 ranks under ``refmpi``.
* ``fleet_sanitize`` -- the sanitize sweep through the fleet into a fresh
  store: cold (two impls), incremental (four impls), then no-change
  re-sweeps.  ``run_sweep`` takes no seed, so this workload ignores it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

__all__ = ["Outcome", "Step", "Counters", "WORKLOADS", "build_workload"]

#: scratch area inside the checkout (fleet stores, spans, the seed ledger)
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench"


@dataclass
class Outcome:
    """One operation's result: a fingerprint the oracle compares against
    its goldens, plus whatever seed-independent check already failed."""

    label: str
    fingerprint: Any
    problems: list[str] = field(default_factory=list)


class Counters:
    """Per-layer counts reported by the checks: summed, or sampled for a
    median."""

    def __init__(self) -> None:
        self.sums: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def add(self, name: str, value: float) -> None:
        self.sums[name] += value

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def median(self, name: str) -> float:
        values = self.samples.get(name)
        return statistics.median(values) if values else 0.0


@dataclass
class Step:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Counters], list[Outcome]]


# -- tool runs -------------------------------------------------------------------


def tool_digest(result) -> str:
    """sha256 over the Consultant's search history (every experiment, its
    verdict and rounded value), the outcome counts and the virtual end
    time -- the same observables the 1024-rank tool cell pins in the
    repository's tests."""
    pc = result.consultant
    observables = {
        "elapsed": round(result.elapsed, 9),
        "history": [
            {
                "node": node.describe(),
                "state": node.state.name,
                "value": round(node.value, 6) if node.value is not None else None,
            }
            for node in pc.search_history()
        ],
        "summary": pc.summary(),
    }
    return hashlib.sha256(json.dumps(observables, sort_keys=True).encode()).hexdigest()


def _tool_step(label: str, program, impl: str, seed: int, needles, nprocs=None) -> Step:
    from repro.analysis.runner import run_program

    def run():
        return run_program(program, impl=impl, nprocs=nprocs, consultant=True, seed=seed)

    def check(result, counters: Counters) -> list[Outcome]:
        pc = result.consultant
        problems = []
        for hypothesis, *focus in needles:
            negate = hypothesis.startswith("!")
            found = pc.found(hypothesis.lstrip("!"), *focus)
            if found == negate:
                what = hypothesis.lstrip("!") + "".join(f" @ {n}" for n in focus)
                problems.append(f"{'unexpected' if negate else 'missed'} finding {what}")
        summary = pc.summary()
        counters.add("pc_experiments", summary["total"])
        counters.add("pc_concluded", summary["true"] + summary["false"])
        counters.add("sim_events", result.universe.kernel._seq)
        return [Outcome(label, tool_digest(result), problems)]

    return Step(label, run, check)


#: ``pc_paper``: (program, impl, paper findings) -- the needles of the
#: condensed-PC figures 3, 10, 21 and 22; "!" asserts absence
PC_PAPER = (
    ("small_messages", "lam", (
        ("ExcessiveSyncWaitingTime",),
        ("ExcessiveSyncWaitingTime", "Gsend_message"),
        ("ExcessiveSyncWaitingTime", "MPI_Send"),
        ("ExcessiveSyncWaitingTime", "comm_"),
        ("!ExcessiveIOBlockingTime",),
    )),
    ("intensive_server", "mpich", (
        ("ExcessiveSyncWaitingTime",),
        ("ExcessiveSyncWaitingTime", "Grecv_message"),
        ("ExcessiveSyncWaitingTime", "PMPI_Recv"),
        ("ExcessiveSyncWaitingTime", "comm_"),
        ("CPUBound",),
    )),
    ("winscpwsync", "mpich2", (
        ("ExcessiveSyncWaitingTime",),
        ("ExcessiveSyncWaitingTime", "Window"),
        ("ExcessiveSyncWaitingTime", "0-"),
        ("CPUBound", "waste_time"),
    )),
    ("oned", "lam", (
        ("ExcessiveSyncWaitingTime",),
        ("ExcessiveSyncWaitingTime", "exchng1"),
        ("ExcessiveSyncWaitingTime", "Barrier"),
    )),
)


def pc_paper_steps(seed: int) -> list[Step]:
    from repro.pperfmark.catalog import resolve_program

    return [
        _tool_step(f"{name}/{impl}", resolve_program(name), impl, seed, needles)
        for name, impl, needles in PC_PAPER
    ]


# -- 1024 ranks -----------------------------------------------------------------

RANKS = 1024
SCALE_IMPL = "refmpi"


def _sanitize_step(shape: str, program, seed: int) -> Step:
    # looked up at call time, so the traced run's wrapper is the one called
    from repro.sanitizer import run as sanitizer_run

    def run():
        return sanitizer_run.sanitize_program(
            program, impl=SCALE_IMPL, nprocs=RANKS, seed=seed
        )

    def check(report, counters: Counters) -> list[Outcome]:
        problems = []
        if report.status != "clean":
            problems.append(
                f"expected a clean run, got {report.status}: "
                f"{[f.detail for f in report.findings][:3]}"
            )
        counters.add("sanitizer_events", report.events)
        counters.add("sanitizer_findings", len(report.findings))
        counters.add("sim_events", report.events)
        fingerprint = {
            "digest": report.trace_digest,
            "virtual_time": round(report.elapsed, 9),
            "events": report.events,
        }
        return [Outcome(f"sanitize:{shape}", fingerprint, problems)]

    return Step(f"sanitize:{shape}", run, check)


def ranks_1024_steps(seed: int) -> list[Step]:
    from programs import SHAPES, ToolBarrier

    steps = [
        _tool_step("tool", ToolBarrier(), SCALE_IMPL, seed,
                   (("ExcessiveSyncWaitingTime",),), nprocs=RANKS)
    ]
    steps.extend(_sanitize_step(shape, cls(), seed) for shape, cls in SHAPES.items())
    return steps


# -- fleet -------------------------------------------------------------------------

COLD_IMPLS = ("lam", "mpich")
ALL_IMPLS = ("lam", "mpich", "mpich2", "refmpi")
#: enough re-sweeps that they are a quarter of a pass: a slower store-read
#: path then shows in ``wall_s``, not only in ``fleet.resweep_s``
RESWEEPS = 40


def _verdict(artifact: dict) -> tuple[str, set[str]]:
    data = artifact["result"]["sanitizer"]
    kinds = {f["kind"] for f in data["findings"]}
    if not kinds:
        return data["status"], kinds
    return f"{data['status']}:{','.join(sorted(kinds))}", kinds


def _job_problems(spec, artifact: dict | None) -> tuple[str | None, list[str]]:
    """The job's verdict and what is wrong with it: a clean program must
    come out clean (or unsupported under this personality); a defect must
    be flagged with exactly its expected kinds."""
    from repro.pperfmark.defects import DEFECT_REGISTRY

    if artifact is None or artifact.get("status") != "ok":
        return None, ["no artifact in the store"]
    verdict, kinds = _verdict(artifact)
    defect = DEFECT_REGISTRY.get(spec.program)
    if defect is None:
        if kinds:
            return verdict, [f"finding on a clean program: {verdict}"]
        return verdict, []
    expected = {kind.value for kind in defect.expected_kinds()}
    if kinds != expected:
        return verdict, [f"defect flagged as {sorted(kinds)}, expected {sorted(expected)}"]
    return verdict, []


def _record_schedule(
    summary: dict, events: list[dict], called_at: float, counters: Counters
) -> None:
    counts = summary["counts"]
    counters.add("fleet_executed", counts["completed"])
    counters.add("fleet_cached", counts["cached"])
    counters.add("fleet_failed", counts["failed"])
    counters.add("fleet_attempts", sum(row["attempts"] for row in summary["per_job"]))
    cpath = summary["critical_path"]
    counters.add("fleet_makespan", cpath.get("makespan") or 0.0)
    counters.add("fleet_busy", cpath.get("busy") or 0.0)
    counters.add("fleet_capacity", (cpath.get("makespan") or 0.0) * summary["workers"])
    packing = (summary.get("scheduling") or {}).get("packing") or {}
    if packing.get("efficiency") is not None:
        counters.sample("fleet_packing_eff", packing["efficiency"])
    queued: dict[str, float] = {}
    started: dict[str, float] = {}
    for record in events:
        digest = record.get("digest")
        if record["event"] == "queued":
            queued.setdefault(digest, record["t"])
        elif record["event"] == "started":
            started.setdefault(digest, record["t"])
    if started:
        counters.sample("fleet_first_launch", min(started.values()) - called_at)
    for digest, t in started.items():
        if digest in queued:
            counters.sample("fleet_queue_wait", t - queued[digest])


class FleetPass:
    """One pass of ``fleet_sanitize``: a fresh store, a cold sweep, an
    incremental sweep, then :data:`RESWEEPS` no-change re-sweeps."""

    def __init__(self, root: Path, jobs: int) -> None:
        self.store = root
        self.jobs = jobs
        #: jobs an earlier sweep of this pass stored: each must be a hit now
        self.stored: set[str] = set()
        #: artifact digest -> (verdict, problems), each read once per pass
        self.verdicts: dict[str, tuple[str | None, list[str]]] = {}
        self._events_read = 0  # bytes of the store's event log consumed

    def _new_events(self) -> list[dict]:
        """The event-log records the last sweep appended."""
        with open(self.store / "events.jsonl", "rb") as log:
            log.seek(self._events_read)
            data = log.read()
        self._events_read += len(data)
        return [json.loads(line) for line in data.splitlines() if line]

    def steps(self) -> list[Step]:
        plan = [("cold", COLD_IMPLS), ("incremental", ALL_IMPLS)]
        plan += [(f"resweep-{i}", ALL_IMPLS) for i in range(RESWEEPS)]
        return [self._sweep_step(label, impls) for label, impls in plan]

    def _sweep_step(self, label: str, impls: tuple[str, ...]) -> Step:
        from repro.fleet.cache import ResultCache
        from repro.fleet.execute import from_bytes
        from repro.fleet.sweeps import run_sweep, sanitize_specs

        store = self.store

        def run():
            called_at = time.time()  # the event log's clock
            return called_at, run_sweep(
                suite="sanitize", jobs=self.jobs, cache=ResultCache(store),
                sanitize_impls=impls,
            )

        def check(raw, counters: Counters) -> list[Outcome]:
            called_at, summary = raw
            _record_schedule(summary, self._new_events(), called_at, counters)
            rows = {row["job"]: row for row in summary["per_job"]}
            reader = ResultCache(store)
            verdicts = self.verdicts
            outcomes = []
            for spec in sanitize_specs(impls):
                row = rows.get(spec.label)
                if row is None:
                    outcomes.append(Outcome(spec.label, None, ["job missing from the sweep"]))
                    continue
                problems = []
                if row["status"] == "failed":
                    problems.append(f"job failed: {row['error']}")
                if spec.label in self.stored and not row["cached"]:
                    problems.append("cache miss on an unchanged job")
                if spec.digest not in verdicts:
                    data = reader.get(spec.digest)
                    verdicts[spec.digest] = _job_problems(
                        spec, from_bytes(data) if data else None
                    )
                verdict, wrong = verdicts[spec.digest]
                outcomes.append(Outcome(spec.label, verdict, problems + wrong))
            self.stored.update(rows)
            return outcomes

        return Step(label, run, check)


# -- registry -------------------------------------------------------------------------


class Workload:
    """Builds the steps of one pass; ``end_pass`` cleans up after it."""

    name = ""
    seeded = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def steps(self, index: int) -> list[Step]:
        raise NotImplementedError

    def end_pass(self, index: int) -> None:
        pass

    def warm_up(self) -> None:
        """Small runs through the same code paths, so lazy imports and
        first-use costs land before timing starts."""
        from programs import BarrierStorm, ToolBarrier
        from repro.analysis.runner import run_program
        from repro.sanitizer.run import sanitize_program

        run_program(ToolBarrier(rounds=2), impl=SCALE_IMPL, nprocs=16, seed=self.seed)
        sanitize_program(BarrierStorm(rounds=2), impl=SCALE_IMPL, nprocs=16, seed=self.seed)


class PcPaper(Workload):
    name = "pc_paper"

    def steps(self, index: int) -> list[Step]:
        return pc_paper_steps(self.seed)


class Ranks1024(Workload):
    name = "ranks_1024"

    def steps(self, index: int) -> list[Step]:
        return ranks_1024_steps(self.seed)


class FleetSanitize(Workload):
    name = "fleet_sanitize"
    seeded = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.jobs = max(1, min(2, os.cpu_count() or 1))

    def _store(self, index: int) -> Path:
        return WORK_DIR / f"store-{os.getpid()}-{index}"

    def steps(self, index: int) -> list[Step]:
        store = self._store(index)
        shutil.rmtree(store, ignore_errors=True)
        return FleetPass(store, self.jobs).steps()

    def end_pass(self, index: int) -> None:
        shutil.rmtree(self._store(index), ignore_errors=True)

    def warm_up(self) -> None:
        """The defect jobs alone, into a throwaway store."""
        from repro.fleet.cache import ResultCache
        from repro.fleet.sweeps import run_sweep

        store = WORK_DIR / f"store-{os.getpid()}-warm-up"
        try:
            run_sweep(suite="sanitize", jobs=self.jobs, cache=ResultCache(store),
                      sanitize_impls=())
        finally:
            shutil.rmtree(store, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PcPaper, Ranks1024, FleetSanitize)
}


def build_workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
