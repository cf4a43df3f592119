"""Multiprocessing worker pool with priority queue and failure containment.

One OS process per job (fork-started where available) gives the sweep hard
isolation: a job that crashes, corrupts its interpreter, or hangs past its
wall-clock timeout is terminated and *contained* -- the scheduler records a
failure artifact, optionally retries with exponential backoff, and the rest
of the sweep continues.  Workers hand results back through atomically
written spool files rather than pipes, so a SIGKILLed worker can never
wedge the parent.

The pool is deliberately dependency-free (no concurrent.futures): the run
loop owns every process transition, which is what makes per-job timeouts
and the JSONL lifecycle log exact.  Ordering, ``after=`` admission and
bounded retries are the shared :class:`~repro.fleet.queue.JobQueue`'s.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from ..observe.export import read_jsonl  # mode-salt: none
from ..observe.recorder import active as _observe_active  # mode-salt: none
from ..observe.recorder import enable as _observe_enable  # mode-salt: none
from .cache import ArtifactStore, StoreIntegrityError
from .events import EventLog
from .execute import execute_spec, failure_artifact, from_bytes, to_bytes
from .profiles import ProfileStore
from .queue import JobQueue
from .spec import RunSpec

__all__ = ["FleetScheduler", "JobOutcome"]


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


def _usable_cpus() -> int:
    """CPUs this process may actually run on (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _worker_main(
    executor: Callable[[RunSpec], dict],
    spec_dict: dict,
    out_path: str,
    trace_path: Optional[str] = None,
    attempt: int = 1,
) -> None:
    """Child-process entry: execute the spec, spool the artifact atomically.

    Exceptions are folded into a failure artifact *in the child* so the
    parent can distinguish "the job raised" (clean failure record) from
    "the worker died" (no spool file at all).

    Every worker runs an always-on flight recorder (fresh ring, own pid --
    replacing any recorder inherited over fork); a raising job embeds the
    recorder dump in its failure artifact.  With ``--trace`` the recorder
    also mirrors each event to ``trace_path`` (flushed per event), which is
    what the parent salvages when it has to SIGKILL us.
    """
    spec = RunSpec.from_dict(spec_dict)
    rec = _observe_enable(capacity=4096, mirror=trace_path)
    rec.begin("worker.job", job=spec.label, digest=spec.digest[:12],
              attempt=attempt)
    try:
        data = to_bytes(executor(spec))
        rec.end("worker.job", status="ok")
    except BaseException as exc:  # noqa: BLE001 - containment is the point
        rec.end("worker.job", status=type(exc).__name__)
        data = to_bytes(failure_artifact(
            spec, type(exc).__name__, str(exc), flight_recorder=rec.dump()
        ))
    tmp = f"{out_path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, out_path)
    rec.close()


@dataclass
class JobOutcome:
    """Per-job accounting row (feeds BENCH_fleet.json)."""

    digest: str
    job: str
    program: str
    impl: str
    mode: str
    status: str = "queued"  # cached | completed | failed
    cached: bool = False
    attempts: int = 0
    wall: float = 0.0  # seconds of worker wall-clock across attempts
    error: Optional[str] = None

    @classmethod
    def of(cls, spec: RunSpec) -> "JobOutcome":
        return cls(spec.digest, spec.label, spec.program, spec.impl, spec.mode)


@dataclass
class _Active:
    spec: RunSpec
    attempt: int
    proc: multiprocessing.process.BaseProcess
    out_path: Path
    started_at: float
    deadline: Optional[float]
    slot: int = 0
    trace_path: Optional[str] = None


class FleetScheduler:
    """Run a set of :class:`RunSpec` jobs in parallel, cached and contained.

    Parameters
    ----------
    jobs: requested worker-process concurrency (default: the usable CPU
        count).  The effective concurrency is clamped to the CPUs the
        process may run on: fleet jobs are CPU-bound simulations, so
        oversubscribing cores cannot increase throughput -- it only adds
        context switching and inflates every concurrent job's wall clock
        (the per-job walls reported in BENCH_fleet.json).  The requested
        value is kept on ``requested_jobs`` for reporting.
    timeout: per-job wall-clock limit in seconds (``None`` = unlimited).
    retries: extra attempts after the first failure/timeout/crash.
    backoff: base delay before attempt *n*'s retry (``backoff * 2**(n-1)``).
    cache: any :class:`ArtifactStore` (the local directory or a remote
        HTTP store), or ``None`` to disable caching.
    events: an :class:`EventLog`; a fresh in-memory log by default.
    executor: the job body (tests substitute stubs); must be callable in
        the worker process -- under the default fork start method any
        callable works, under spawn it must be importable.
    trace_dir: directory for per-worker flight-recorder mirror files
        (``--trace``); ``None`` disables mirroring (workers still keep
        their in-memory ring for failure artifacts).
    profiles: a :class:`~repro.fleet.profiles.ProfileStore` whose
        predicted walls order each ``priority`` class longest-first (LPT);
        completed walls are EMA-merged back (the caller saves it).
    order_seed: seeded shuffle of ready-queue tie-breaks (instead of FIFO);
        artifacts are byte-identical under any admission order.
    """

    def __init__(
        self,
        *,
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        backoff: float = 0.25,
        cache: Optional[ArtifactStore] = None,
        events: Optional[EventLog] = None,
        executor: Callable[[RunSpec], dict] = execute_spec,
        poll_interval: float = 0.02,
        trace_dir: Optional[Path] = None,
        profiles: Optional[ProfileStore] = None,
        order_seed: Optional[int] = None,
    ) -> None:
        usable = _usable_cpus()
        self.requested_jobs = max(1, jobs if jobs is not None else usable)
        self.jobs = min(self.requested_jobs, usable)
        self.timeout = timeout
        self.cache = cache
        self.events = events if events is not None else EventLog()
        self.executor = executor
        self.poll_interval = poll_interval
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        # worker-slot numbers (stable swimlane ids in the merged trace):
        # popped smallest-first on launch, returned on reap
        self._free_slots = list(range(self.jobs))[::-1]

        self.profiles = profiles
        self._queue = JobQueue(retries=retries, backoff=backoff,
                               order_seed=order_seed)
        self._specs: dict[str, RunSpec] = {}
        self.results: dict[str, dict] = {}
        self.outcomes: dict[str, JobOutcome] = {}

    # -- submission ----------------------------------------------------------

    def submit(self, spec: RunSpec, *, priority: int = 0, after: tuple = ()) -> str:
        """Queue one spec (lower ``priority`` runs first); returns its digest.
        Duplicate digests are coalesced into a single job.  ``after`` lists
        artifact digests this job consumes: it launches once each one this
        pool knows is terminal, even failed (see :class:`JobQueue`)."""
        digest = spec.digest
        if digest in self._specs:
            return digest
        self._specs[digest] = spec
        self.outcomes[digest] = JobOutcome.of(spec)
        predicted = self.profiles.predict(spec) if self.profiles is not None else None
        job = self._queue.submit(digest, priority=priority, predicted=predicted,
                                 after=after)
        self.events.emit(
            "queued", digest=digest, job=spec.label, priority=priority,
            predicted=None if predicted is None else round(predicted, 6),
            deps=job.deps,
        )
        return digest

    # -- run loop ------------------------------------------------------------

    def run(self) -> dict[str, dict]:
        """Drain the queue; returns ``{digest: artifact}`` for every job.
        Never raises for job failures -- those become failure artifacts."""
        ctx = _mp_context()
        active: list[_Active] = []
        queued = self._queue.unfinished
        self.events.emit(
            "pool-start", workers=self.jobs, requested=self.requested_jobs,
            queued=queued,
        )
        rec = _observe_active()
        if rec is not None:
            rec.begin("fleet.pool", workers=self.jobs, jobs=queued)
        with tempfile.TemporaryDirectory(prefix="repro-fleet-") as spool:
            spool_dir = Path(spool)
            while self._queue.unfinished:
                progressed = self._launch(ctx, spool_dir, active)
                progressed |= self._reap(active)
                if not progressed:
                    time.sleep(self.poll_interval)
        summary = self.summary()
        self.events.emit("sweep-summary", **summary)
        if rec is not None:
            rec.end("fleet.pool", specs=summary["specs"],
                    completed=summary["completed"], cached=summary["cached"],
                    failed=summary["failed"])
        return self.results

    def _launch(self, ctx, spool_dir: Path, active: list[_Active]) -> bool:
        progressed = False
        while len(active) < self.jobs:
            job = self._queue.pop()
            if job is None:
                break
            progressed = True
            digest = job.digest
            spec = self._specs[digest]
            outcome = self.outcomes[digest]
            if self.cache is not None and job.attempts == 1:
                try:
                    data = self.cache.get(digest)
                except StoreIntegrityError:
                    data = None  # quarantined server-side; run the job
                if data is not None:
                    self.results[digest] = from_bytes(data)
                    outcome.status = "cached"
                    outcome.cached = True
                    self.events.emit("cached-hit", digest=digest, job=outcome.job)
                    rec = _observe_active()
                    if rec is not None:
                        rec.instant("cache.hit", job=outcome.job,
                                    digest=digest[:12])
                    self._finish(digest, "cached")
                    continue
            outcome.attempts = job.attempts
            out_path = spool_dir / f"{digest}.{job.attempts}.json"
            slot = self._free_slots.pop() if self._free_slots else len(active)
            trace_path = None
            if self.trace_dir is not None:
                trace_path = str(
                    self.trace_dir / f"worker-{digest[:12]}.{job.attempts}.jsonl"
                )
            proc = ctx.Process(
                target=_worker_main,
                args=(self.executor, spec.to_dict(), str(out_path),
                      trace_path, job.attempts),
                daemon=True,
            )
            proc.start()
            now = time.monotonic()
            deadline = now + self.timeout if self.timeout is not None else None
            active.append(
                _Active(
                    spec=spec,
                    attempt=job.attempts,
                    proc=proc,
                    out_path=out_path,
                    started_at=now,
                    deadline=deadline,
                    slot=slot,
                    trace_path=trace_path,
                )
            )
            self.events.emit(
                "started", digest=digest, job=outcome.job,
                attempt=job.attempts, slot=slot,
            )
            rec = _observe_active()
            if rec is not None:
                rec.instant("job.start", job=outcome.job, digest=digest[:12],
                            attempt=job.attempts, slot=slot)
                rec.counter("workers.active", len(active))
        return progressed

    def _reap(self, active: list[_Active]) -> bool:
        progressed = False
        now = time.monotonic()
        for entry in list(active):
            timed_out = entry.deadline is not None and now > entry.deadline
            if entry.proc.is_alive() and not timed_out:
                continue
            active.remove(entry)
            self._free_slots.append(entry.slot)
            progressed = True
            wall = now - entry.started_at
            outcome = self.outcomes[entry.spec.digest]
            outcome.wall += wall
            if timed_out and entry.proc.is_alive():
                entry.proc.terminate()
                entry.proc.join(1.0)
                if entry.proc.is_alive():  # pragma: no cover - stubborn child
                    entry.proc.kill()
                    entry.proc.join(1.0)
                self._trace_job_done(entry, wall, "timeout", len(active))
                self._job_failed(
                    entry, "timeout",
                    f"exceeded {self.timeout}s wall-clock limit",
                    flight_recorder=self._salvage_flight_recorder(entry),
                )
                continue
            entry.proc.join()
            try:
                artifact = from_bytes(entry.out_path.read_bytes())
            except (FileNotFoundError, ValueError):
                self._trace_job_done(entry, wall, "crashed", len(active))
                self._job_failed(
                    entry,
                    "crashed",
                    f"worker died with exit code {entry.proc.exitcode} "
                    "before writing a result",
                    flight_recorder=self._salvage_flight_recorder(entry),
                )
                continue
            if artifact.get("status") == "ok":
                self._trace_job_done(entry, wall, "completed", len(active))
                self._job_completed(entry, artifact, wall)
            else:
                error = artifact.get("error") or {}
                self._trace_job_done(entry, wall,
                                     error.get("type", "error"), len(active))
                self._job_failed(
                    entry,
                    error.get("type", "error"),
                    error.get("message", ""),
                    flight_recorder=error.get("flight_recorder"),
                )
        return progressed

    def _trace_job_done(self, entry: _Active, wall: float, status: str,
                        active_count: int) -> None:
        rec = _observe_active()
        if rec is None:
            return
        outcome = self.outcomes[entry.spec.digest]
        rec.complete(f"job:{outcome.job}", wall, slot=entry.slot,
                     attempt=entry.attempt, status=status)
        rec.counter("workers.active", active_count)

    def _salvage_flight_recorder(
        self, entry: _Active, limit: int = 256
    ) -> Optional[dict]:
        """Tail of a killed worker's trace mirror.  A timed-out or crashed
        worker never reaches its own ``dump()``; the per-event-flushed
        mirror (``--trace``) is the only record of what it was doing."""
        if entry.trace_path is None:
            return None
        events = list(read_jsonl(entry.trace_path))
        if not events:
            return None
        return {
            "schema": 1,
            "pid": events[-1].get("pid"),
            "salvaged": True,
            "events": events[-limit:],
        }

    # -- transitions ---------------------------------------------------------

    def _finish(self, digest: str, status: str) -> None:
        """Terminal transition (after its event): admit waiting consumers."""
        for job in self._queue.finish(digest, status):
            self.events.emit("admitted", digest=job.digest,
                             job=self.outcomes[job.digest].job, deps=job.deps)

    def _job_completed(self, entry: _Active, artifact: dict, wall: float) -> None:
        digest = entry.spec.digest
        self.results[digest] = artifact
        outcome = self.outcomes[digest]
        outcome.status = "completed"
        if self.cache is not None:
            self.cache.put(digest, to_bytes(artifact))
        if self.profiles is not None:
            self.profiles.observe(entry.spec, wall)
        self.events.emit(
            "completed",
            digest=digest,
            job=outcome.job,
            attempt=entry.attempt,
            wall=round(wall, 6),
        )
        self._finish(digest, "completed")

    def _job_failed(
        self,
        entry: _Active,
        error_type: str,
        message: str,
        flight_recorder: Optional[dict] = None,
    ) -> None:
        digest = entry.spec.digest
        outcome = self.outcomes[digest]
        delay = self._queue.fail(digest)
        if delay is not None:
            self.events.emit(
                "retry",
                digest=digest,
                job=outcome.job,
                attempt=entry.attempt,
                error=error_type,
                backoff=round(delay, 3),
            )
            rec = _observe_active()
            if rec is not None:
                rec.instant("job.retry", job=outcome.job, digest=digest[:12],
                            attempt=entry.attempt, error=error_type,
                            backoff=round(delay, 3))
            return
        artifact = failure_artifact(
            entry.spec, error_type, message, attempts=entry.attempt,
            flight_recorder=flight_recorder,
        )
        self.results[digest] = artifact  # contained: never cached, sweep goes on
        outcome.status = "failed"
        outcome.error = f"{error_type}: {message}"
        self.events.emit(
            "failed",
            digest=digest,
            job=outcome.job,
            attempt=entry.attempt,
            error=error_type,
        )
        self._finish(digest, "failed")

    def summary(self) -> dict:
        return outcome_counts(self.outcomes.values())


def outcome_counts(outcomes) -> dict:
    """The ``counts`` block of a pool's summary (fork or remote)."""
    rows = list(outcomes)
    statuses = [r.status for r in rows]
    return {
        "specs": len(rows),
        "completed": statuses.count("completed"),
        "cached": statuses.count("cached"),
        "failed": statuses.count("failed"),
        "worker_wall": round(sum(r.wall for r in rows), 6),
    }
