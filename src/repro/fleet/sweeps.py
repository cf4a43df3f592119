"""Sweep definitions and the sweep driver.

``repro fleet sweep`` regenerates the full paper reproduction in two
steps, both incremental against the content-addressed cache:

1. **collect** -- the bench suite runs in collect mode
   (:func:`~repro.fleet.render.collect_render_plan`): each bench entry
   point records the :class:`RunSpec` runs it would execute and gets a
   ``mode="render"`` spec of its own whose digest is its *render key*
   (bench source + ``common.py`` + consumed-artifact digests + mode salt);
2. **one pool** -- every experiment spec (bench-collected runs, the
   sanitizer sweep over the clean programs, the seeded-defect library)
   and every render spec go through one pool -- the local
   :class:`FleetScheduler` or, with ``--workers``, the remote pool --
   parallel, cached, failures contained.  Each render is admitted once
   the artifacts it consumes are terminal; an unchanged render key is a
   cache hit (the bench is skipped and its reports restored
   byte-identically), and the parent writes every captured report to
   ``benchmarks/reports/`` as the single writer.

Spec collection reuses the bench suite as the single source of truth: in
collect mode ``benchmarks/common.py`` raises :class:`CollectOnly` from its
harness entry points after recording the specs it would have run, so the
figure list can never drift from the benches.  Benches that *fail* to
collect are counted and reported (``summary["collect"]["failures"]``), not
silently dropped.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from ..observe.critical_path import critical_path  # mode-salt: none
from ..observe.export import merge_events, write_chrome, write_jsonl  # mode-salt: none
from ..observe.recorder import recording  # mode-salt: none
from .cache import ArtifactStore
from .events import EventLog
from .execute import default_cache
from .profiles import ProfileStore, open_store
from .render import (
    CollectOnly,
    RenderPlan,
    StubTimer,
    bench_dir,
    collect_render_plan,
    iter_bench_tests,
    restore_reports,
)
from .scheduler import FleetScheduler
from .spec import RunSpec

__all__ = [
    "CollectOnly",
    "StubTimer",
    "SWEEP_SUITES",
    "collect_bench_specs",
    "sanitize_specs",
    "sweep_specs",
    "run_sweep",
    "render_benchmarks",
    "DEFAULT_SANITIZE_IMPLS",
    "BENCH_SCHEMA",
]

SWEEP_SUITES = ("all", "bench", "sanitize")
DEFAULT_SANITIZE_IMPLS = ("lam", "mpich", "mpich2", "refmpi")
BENCH_OUT = "BENCH_fleet.json"
#: the layout of the sweep's BENCH_fleet.json; 5: one per_job row per digest
#: with its "kind" (experiment, render, opaque-render), no "pipeline";
#: 4 added "scheduling" and "profiles", 3 "remote" for --workers sweeps
BENCH_SCHEMA = 5


def collect_bench_specs() -> list[RunSpec]:
    """Every fleet-routed spec the bench suite would run, without running it.
    (Collection *failures* are dropped here; :func:`run_sweep` goes through
    :func:`~repro.fleet.render.collect_render_plan` and reports them.)"""
    return list(collect_render_plan().specs)


def sanitize_specs(
    impls: Sequence[str] = DEFAULT_SANITIZE_IMPLS, *, include_defects: bool = True
) -> list[RunSpec]:
    """The ``repro sanitize all`` sweep (plus the defect library) as specs."""
    from ..pperfmark.defects import DEFECT_REGISTRY
    from ..pperfmark.catalog import CLEAN_PROGRAMS

    specs = [
        RunSpec.make(name, mode="sanitize", impl=impl, quick=True)
        for impl in impls
        for name in CLEAN_PROGRAMS
    ]
    if include_defects:
        specs.extend(
            RunSpec.make(
                name,
                mode="sanitize",
                impl=getattr(cls, "required_impl", None) or "lam",
            )
            for name, cls in sorted(DEFECT_REGISTRY.items())
        )
    return specs


def sweep_specs(
    suite: str = "all",
    *,
    sanitize_impls: Sequence[str] = DEFAULT_SANITIZE_IMPLS,
    chaos: int = 0,
) -> list[RunSpec]:
    """Every spec a sweep of ``suite`` can touch -- including the per-bench
    ``mode="render"`` specs, so ``fleet clean --gc`` keeps cached reports."""
    if suite not in SWEEP_SUITES:
        raise ValueError(f"unknown suite {suite!r}; have {SWEEP_SUITES}")
    specs: list[RunSpec] = []
    if suite in ("all", "bench"):
        plan = collect_render_plan()
        specs.extend(plan.specs)
        specs.extend(entry.spec for entry in plan.benches)
    if suite in ("all", "sanitize"):
        specs.extend(sanitize_specs(sanitize_impls))
    specs.extend(
        RunSpec.make(f"chaos-{i}", mode="chaos") for i in range(chaos)
    )
    return specs


def render_benchmarks() -> tuple[int, list[tuple[str, str]]]:
    """Serial in-process render: run every bench entry point with a stub
    timer, regenerating the reports under ``benchmarks/reports/`` directly.

    This is the pre-incremental fallback path (and the oracle the render
    determinism tests compare the parallel/cached pipeline against).
    Failures are contained and returned as ``(bench, error)`` pairs.
    """
    ran = 0
    failures: list[tuple[str, str]] = []
    for mod, name, fn in iter_bench_tests():
        target = f"{mod}::{name}"
        try:
            fn(StubTimer())
            ran += 1
        except Exception as exc:  # noqa: BLE001 - containment
            failures.append((target, f"{type(exc).__name__}: {exc}"))
    return ran, failures


def _restore_renders(
    plan: RenderPlan,
    outcomes_by_digest: dict,
    results: dict,
    wall: float,
):
    """Restore every captured report from the render artifacts and build
    the render summary -- the parent is the single writer of
    ``benchmarks/reports/``."""
    outcomes = [
        outcomes_by_digest[entry.spec.digest]
        for entry in plan.benches
        if entry.spec.digest in outcomes_by_digest
    ]
    by_digest = {entry.spec.digest: entry for entry in plan.benches}
    bench = bench_dir()
    reports_dir = bench / "reports" if bench is not None else None
    failures: list[tuple[str, str]] = []
    per_bench: list[dict] = []
    for outcome in sorted(outcomes, key=lambda o: (-o.wall, o.job)):
        entry = by_digest[outcome.digest]
        artifact = results.get(outcome.digest)
        if artifact is not None and artifact.get("status") == "ok":
            if reports_dir is not None:
                restore_reports(artifact, reports_dir)
        else:
            error = (artifact or {}).get("error") or {}
            failures.append((
                entry.target,
                f"{error.get('type', 'error')}: {error.get('message', '')}",
            ))
        per_bench.append({
            "bench": entry.target,
            "status": outcome.status,
            "cached": outcome.cached,
            "opaque": entry.opaque,
            "wall": round(outcome.wall, 4),
        })
    executed_wall = sum(o.wall for o in outcomes if o.status == "completed")
    summary = {
        "benches": len(plan.benches),
        "skipped": sum(1 for o in outcomes if o.status == "cached"),
        "rendered": sum(1 for o in outcomes if o.status == "completed"),
        "failed": sum(1 for o in outcomes if o.status == "failed"),
        "wall": round(wall, 3),
        # sum of per-bench worker wall over the phase's wall clock: how much
        # the parallel cold render beat a serial one (None on a warm cache)
        "speedup_vs_serial": (
            round(executed_wall / wall, 2) if executed_wall and wall > 0 else None
        ),
        "failures": [list(f) for f in failures],
        "per_bench": per_bench,
    }
    return summary


@contextlib.contextmanager
def _sweep_services(cache, trace_dir, events, *, live, live_port, live_token,
                    live_linger):
    """Point bench bodies at this sweep's cache and, with ``live``, serve
    the growing trace for the sweep's duration."""
    # bench bodies resolve the cache via default_cache(); point workers at
    # this sweep's cache root for the duration (inherited over fork)
    prev_cache_env = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache.root)
    observatory = None
    try:
        if live:
            from ..observe.live import LiveObservatory  # mode-salt: none

            observatory = LiveObservatory(
                trace_dir, getattr(events, "path", None),
                port=live_port, token=live_token,
            ).start()
            print(
                f"# live observatory: {observatory.url}  "
                f"(attach with `repro observe watch {observatory.address}`)",
                file=sys.stderr,
            )
        yield
        if observatory is not None:
            # every writer is done: seal the feed, then give attached
            # clients a moment to drain it before the socket goes away
            observatory.finalize()
            time.sleep(live_linger)
    finally:
        if observatory is not None:
            observatory.shutdown()
        if prev_cache_env is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = prev_cache_env


def run_sweep(
    *,
    suite: str = "all",
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    chaos: int = 0,
    chaos_seed: int = 0,
    render: bool = True,
    workers: Optional[Sequence[str]] = None,
    cache: Optional[ArtifactStore] = None,
    events: Optional[EventLog] = None,
    bench_out: Optional[Path] = None,
    sanitize_impls: Sequence[str] = DEFAULT_SANITIZE_IMPLS,
    trace_dir: Optional[Path] = None,
    live: bool = False,
    live_port: int = 0,
    live_token: Optional[str] = None,
    live_linger: float = 2.0,
    order_seed: Optional[int] = None,
) -> dict:
    """Full sweep: collect render keys, then run one profile-guided,
    dependency-aware schedule -- experiments and renders share a single
    pool, each render admitted the moment its consumed artifacts are all
    terminal, ready jobs ordered longest-predicted-first from the persisted
    wall profiles.  Returns the machine-readable summary also written to
    ``bench_out``.

    ``order_seed`` seeds a shuffle of ready-queue tie-breaks (adversarial
    -order determinism testing); artifacts and reports are byte-identical
    for every value, and to a serial (``jobs=1``) sweep's.

    With ``workers`` set (``--workers host:port,...``), the same plan runs
    through coordinator-attached remote workers instead of local forks;
    ``cache`` is then typically an :class:`~repro.fleet.remote.store.HTTPStore`
    so every machine shares one warm store.  ``--chaos`` additionally arms
    ``chaos`` deterministic worker kills (seeded by ``chaos_seed``) to
    drill the steal/retry path.

    With ``trace_dir`` set (``--trace``), the scheduler and every worker
    mirror their flight recorders into that directory; afterwards the
    per-process streams are merged into ``trace.jsonl`` + a Perfetto-
    loadable ``trace.json``.

    With ``live`` set (``--live``, implies ``--trace``), a
    :class:`~repro.observe.live.LiveObservatory` serves the growing
    mirrors to concurrent viewers for the duration of the sweep (plus
    ``live_linger`` seconds, so attached clients can drain the finalized
    feed); ``repro observe watch host:port`` is the first consumer.  The
    service only *reads* what the sweep writes anyway, so artifacts and
    cache state are identical with or without it.
    """
    if suite not in SWEEP_SUITES:
        raise ValueError(f"unknown suite {suite!r}; have {SWEEP_SUITES}")
    cache = cache if cache is not None else default_cache()
    if live and trace_dir is None:
        raise ValueError("live=True needs a trace_dir (--live implies --trace)")
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        for stale in trace_dir.glob("*.json*"):
            if stale.is_file():
                stale.unlink()
    if events is None:
        # the remote store has no local events file; a live sweep logs
        # next to the mirrors then ("events.log" on purpose: the mirror
        # glob and the stale cleanup only touch *.json*/*.jsonl names),
        # and a plain remote sweep keeps the log in memory
        events_path = getattr(cache, "events_path", None)
        if live and events_path is None:
            events_path = trace_dir / "events.log"
        events = EventLog(events_path)
    with _sweep_services(cache, trace_dir, events, live=live,
                         live_port=live_port, live_token=live_token,
                         live_linger=live_linger):
        t0 = time.monotonic()
        events_start = len(getattr(events, "records", []))
        events.emit("sweep-start", suite=suite)

        # wall profiles steer the local pool's LPT ordering (they live beside a
        # local cache directory; remote rows carry no prediction).  Seeded from
        # the committed BENCH_fleet.json so a fresh checkout knows its tail jobs.
        profiles: Optional[ProfileStore] = None
        if not workers:
            seed_json = Path(bench_out) if bench_out is not None else Path(BENCH_OUT)
            try:
                profiles = open_store(Path(cache.root), seed_json)
            except (OSError, AttributeError):
                profiles = None  # advisory: a sweep must never fail on profiles

        # -- collect: render keys + the specs the benches would run -------------
        events.emit("phase-start", phase="collect")
        plan = RenderPlan()
        if suite in ("all", "bench"):
            plan = collect_render_plan()
        events.emit("phase-end", phase="collect")
        collect_wall = time.monotonic() - t0

        specs: list[RunSpec] = list(plan.specs)
        if suite in ("all", "sanitize"):
            specs.extend(sanitize_specs(sanitize_impls))
        specs.extend(RunSpec.make(f"chaos-{i}", mode="chaos") for i in range(chaos))

        with (
            recording(capacity=32768, mirror=trace_dir / "scheduler.jsonl")
            if trace_dir is not None else contextlib.nullcontext()
        ):
            # -- one dependency-aware pool: experiments and renders together, on
            # local forks or, with --workers, on coordinator-attached workers --
            if workers:
                from .remote.pool import RemotePool  # lazy: local sweeps stay lean

                scheduler = RemotePool(
                    workers, store=cache, timeout=timeout, retries=retries,
                    events=events, chaos_kills=chaos, chaos_seed=chaos_seed,
                    drain=True, trace_dir=trace_dir,
                )
            else:
                scheduler = FleetScheduler(
                    jobs=jobs, timeout=timeout, retries=retries, cache=cache,
                    events=events, trace_dir=trace_dir, profiles=profiles,
                    order_seed=order_seed,
                )
            will_render = render and bool(plan.benches)
            for spec in specs:
                # defects and chaos jobs are cheap; let the long PC runs go first
                priority = 1 if spec.mode != "tool" else 0
                scheduler.submit(spec, priority=priority)
            kinds: dict[str, str] = {}
            for entry in plan.benches:
                # opaque bodies *are* their own experiment: run them even without
                # rendering, so a re-sweep cache-hits them instead of re-running
                if entry.opaque or will_render:
                    kinds[entry.spec.digest] = (
                        "opaque-render" if entry.opaque else "render"
                    )
                    # admitted the moment its consumed artifacts are all terminal
                    scheduler.submit(entry.spec, priority=0, after=entry.consumes)
            pool_mark = len(events.records)
            t1 = time.monotonic()
            scheduler.run()
            pool_wall = time.monotonic() - t1

            # warm and render overlap in one pool; reconstruct their windows
            # from the pool's own event timestamps and emit the markers post-hoc
            # (EventLog.emit takes explicit t) for the critical-path phase view
            pool_records = events.records[pool_mark:]
            t_pool = min(r["t"] for r in pool_records)
            ends: dict[bool, list] = {False: [], True: []}  # keyed by is-render
            render_starts = []
            for r in pool_records:
                is_render = r.get("digest") in kinds
                if r["event"] in ("completed", "failed", "cached-hit"):
                    ends[is_render].append(r["t"])
                if is_render and r["event"] in ("started", "cached-hit"):
                    render_starts.append(r["t"])
            windows = {"warm": (t_pool, max(ends[False], default=t_pool))}
            if will_render:
                t_render = min(render_starts, default=windows["warm"][1])
                windows["render"] = (t_render, max(ends[True], default=t_render))
            for phase, (start, end) in windows.items():
                events.emit("phase-start", phase=phase, t=start)
                events.emit("phase-end", phase=phase, t=end)
            render_summary = {
                "benches": len(plan.benches), "skipped": 0, "rendered": 0,
                "failed": 0, "wall": 0.0, "speedup_vs_serial": None,
                "failures": [], "per_bench": [],
            }
            if will_render:
                render_summary = _restore_renders(
                    plan, scheduler.outcomes, scheduler.results,
                    windows["render"][1] - windows["render"][0],
                )

        outcomes = sorted(scheduler.outcomes.values(), key=lambda o: (-o.wall, o.job))
        executed_wall = sum(o.wall for o in outcomes if o.status == "completed")
        speedup = (
            round(executed_wall / pool_wall, 2)
            if executed_wall and pool_wall > 0
            else None
        )

        # remote sweeps report the coordinator-side view (per-worker job counts,
        # steals/retries, store hit rate); the worker count observed there also
        # feeds the swimlane/critical-path analysis in place of the fork count
        remote_info = None
        observed_workers = scheduler.jobs
        if workers:
            remote_info = scheduler.remote_summary()
            observed_workers = len(remote_info.get("workers") or {}) or scheduler.jobs

        # what actually bounded the sweep's wall clock (observe subsystem)
        sweep_records = events.records[events_start:]
        cpath = critical_path(sweep_records, workers=observed_workers)
        scheduling = cpath.pop("scheduling", None)

        if profiles is not None and profiles.dirty:
            try:
                profiles.save()
            except OSError:  # pragma: no cover - read-only cache dir
                pass

        trace_summary = None
        if trace_dir is not None:
            mirrors = sorted(
                p for p in trace_dir.glob("*.jsonl") if p.name != "trace.jsonl"
            )
            merged = merge_events(mirrors)
            write_jsonl(trace_dir / "trace.jsonl", merged)
            write_chrome(trace_dir / "trace.json", merged)
            trace_summary = {
                "dir": str(trace_dir),
                "events": len(merged),
                "processes": len({e.get("pid") for e in merged}),
                "jsonl": str(trace_dir / "trace.jsonl"),
                "chrome": str(trace_dir / "trace.json"),
            }

        per_job = [
            {
                "kind": kinds.get(o.digest, "experiment"),
                "digest": o.digest[:12],
                "job": o.job,
                "status": o.status,
                "cached": o.cached,
                "attempts": o.attempts,
                "wall": round(o.wall, 4),
                "error": o.error,
            }
            for o in outcomes
        ]
        summary = {
            "schema": BENCH_SCHEMA,
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "suite": suite,
            "jobs": scheduler.requested_jobs,
            # requested concurrency clamped to usable CPUs (the jobs are
            # CPU-bound; oversubscribing only inflates per-job walls) -- or, on
            # a remote sweep, the live workers observed at the coordinators
            "workers": observed_workers,
            "counts": scheduler.summary(),
            "cache": cache.describe(),
            "remote": remote_info,
            "collect": {
                "benches": len(plan.benches),
                "specs": len(plan.specs),
                "failed": len(plan.failures),
                "failures": [list(f) for f in plan.failures],
            },
            "wall": {
                "collect": round(collect_wall, 3),
                "warm": round(windows["warm"][1] - windows["warm"][0], 3),
                "render": render_summary["wall"],
                "total": round(time.monotonic() - t0, 3),
            },
            # sum of per-job worker wall over the pool's wall clock: ~N on an
            # idle N-core box, None on a warm cache (nothing executed)
            "speedup_vs_serial": speedup,
            # blocking job chain + worker idle fraction + per-phase decomposition
            # (which phase bounds the sweep) -- repro.observe
            "critical_path": cpath,
            # how well the profile-guided schedule packed: prediction error,
            # makespan vs the LPT lower bound, render admission lead time
            "scheduling": scheduling,
            "profiles": profiles.describe() if profiles is not None else None,
            "trace": trace_summary,
            "render": render_summary,
            "per_job": per_job,
        }
        if bench_out is not None:
            bench_out = Path(bench_out)
            bench_out.parent.mkdir(parents=True, exist_ok=True)
            bench_out.write_text(json.dumps(summary, indent=2, sort_keys=False) + "\n")
        return summary
