"""The worker-pool protocol: job lease / heartbeat / result over HTTP.

``repro fleet serve`` runs one :class:`FleetCoordinator`: a priority job
queue behind bookkeeping endpoints, with the lease/heartbeat state machine
that makes cross-machine work-stealing safe:

    =========================  ================================================
    ``GET  /health``           liveness: worker/queue/terminal counts
    ``GET  /status``           full counters (per-worker jobs, steals, retries)
    ``POST /jobs``             submit a batch of specs (the sweep driver)
    ``POST /lease``            pull one job (workers); registers the worker
    ``POST /heartbeat``        renew a lease; ``ok: false`` = lease was stolen
    ``POST /result``           deliver an artifact; drives retry/completion
    ``GET  /events?cursor=N``  lifecycle event feed (the driver's poll)
    ``POST /control``          ``drain`` (workers exit when idle) / ``reset``
    =========================  ================================================

Each ``POST /jobs`` row carries ``digest``, ``spec``, ``label``,
``priority``, ``lane`` and ``after`` (producer digests; the job leases
only once every producer this coordinator knows is terminal).  A malformed
batch is answered 400 and accepts nothing.

Per-job state is the shared :class:`~repro.fleet.queue.JobQueue`'s: a
lease is its ``pop``, a failed result its ``fail`` (retry after backoff),
a lease expiry its ``lose`` (steal).  A worker that misses its heartbeats (crashed, SIGKILLed, partitioned) is
presumed dead: the lease expires and the job is re-queued for any other
worker to steal -- exactly the daemon-failure containment a per-node
monitoring stack needs.  Failures *reported* by a live worker follow the
fork pool's bounded-retry-with-backoff semantics; repeated worker loss is
bounded separately (``max_steals``) so a job that kills every worker that
touches it cannot cycle forever.

Chaos drills: armed with ``chaos_kills``, the coordinator deterministically
(seeded) marks that many leases with a kill directive; the leased worker
SIGKILLs itself mid-lease, which exercises expiry -> steal -> retry end to
end.  A kill is only issued while a second live worker remains, so the
drill can never strand the queue.
"""

from __future__ import annotations

import math
import random
import re
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Optional

from ..execute import failure_artifact  # noqa: F401  (re-exported for workers)
from ..queue import DONE, LANES, LEASED, PENDING, JobQueue
from ..spec import RunSpec, code_version
from .wire import BackgroundServer, BadRequest, JsonRequestHandler

__all__ = ["FleetCoordinator", "DEFAULT_LEASE_TIMEOUT"]

DEFAULT_LEASE_TIMEOUT = 15.0

_DIGEST = re.compile(r"[0-9a-f]{64}")


@dataclass
class _Job:
    """What the coordinator keeps beside the queue's state for one job."""

    spec: dict
    label: str
    wall: float = 0.0
    artifact: Optional[dict] = None
    cached: bool = False
    chaos_killed: bool = False


def _int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _number(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative number, got {value!r}")
    return float(value)


def _digest(value: Any, name: str = "digest") -> str:
    if not isinstance(value, str) or not _DIGEST.fullmatch(value):
        raise ValueError(f"{name} must be a hex digest, got {value!r}")
    return value


def _text(payload: dict, key: str, default: Optional[str] = None) -> Optional[str]:
    """A string field of a POST body (``default`` when absent)."""
    value = payload.get(key, default)
    if value is not None and not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _parse_row(row: Any) -> dict:
    """One ``POST /jobs`` row, checked whole; raises ``ValueError``."""
    if not isinstance(row, dict):
        raise ValueError(f"job row must be an object, got {row!r}")
    digest, spec = _digest(row.get("digest")), row.get("spec")
    after = row.get("after", [])
    try:
        RunSpec.from_dict(spec)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"job {digest[:12]}: malformed spec: {exc}") from None
    if not isinstance(after, list):
        raise ValueError(f"job {digest[:12]}: after must be a list of digests")
    return {
        "digest": digest,
        "spec": spec,
        "label": str(row.get("label") or digest[:12]),
        "priority": _int(row.get("priority", 0), "priority"),
        "lane": row.get("lane") if row.get("lane") in LANES else "sweep",
        "after": [_digest(d, "after") for d in after],
    }


@dataclass
class _Lease:
    lease_id: str
    digest: str
    worker: str
    expires_at: float


@dataclass
class _Worker:
    worker_id: str
    last_seen: float
    jobs: int = 0
    store_hits: int = 0
    lost: int = 0


class FleetCoordinator(BackgroundServer):
    """Job queue + lease bookkeeping behind the endpoints above.

    Ordering, ``after`` admission, retries and steal bounds are the shared
    :class:`~repro.fleet.queue.JobQueue`'s, with the fork pool's defaults:
    ``retries`` and ``backoff`` apply to *reported* failures, and
    ``max_steals`` bounds re-queues from worker loss (default
    ``retries + 2``).  ``lease_timeout`` is the heartbeat budget after
    which a silent worker is presumed dead.  ``store_url``, when set, is
    handed to workers at lease time so a bare ``repro fleet worker
    host:port`` needs no store flag of its own.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        retries: int = 1,
        backoff: float = 0.25,
        max_steals: Optional[int] = None,
        store_url: Optional[str] = None,
        job_timeout: Optional[float] = None,
        verify_code_version: bool = True,
        token: Optional[str] = None,
        clock=time.monotonic,
    ) -> None:
        super().__init__(host, port, token=token)
        self.lease_timeout = lease_timeout
        self.store_url = store_url
        self.job_timeout = job_timeout
        self.verify_code_version = verify_code_version
        self._clock = clock
        self._lock = threading.Lock()
        self._queue = JobQueue(retries=retries, backoff=backoff,
                               max_steals=max_steals, clock=clock)
        self._jobs: dict[str, _Job] = {}
        self._leases: dict[str, _Lease] = {}
        self._workers: dict[str, _Worker] = {}
        self._events: list[dict] = []
        self._draining = False
        self.steals = 0
        self.retried = 0
        self.worker_losses = 0
        self.chaos_kills = 0
        self._chaos_armed = 0
        self._chaos_rng = random.Random(0)
        self._chaos_victims: set[str] = set()
        #: the driver's latest batch asked for flight-recorder relay: workers
        #: ship their mirror tails with each /result and the feed carries them
        self.trace = False

    def _handler_class(self):
        return _CoordinatorHandler

    # -- event feed ----------------------------------------------------------

    def _emit(self, event: str, **fields: Any) -> None:
        self._events.append({"t": round(time.time(), 6), "event": event, **fields})

    # -- submission (the driver) ---------------------------------------------

    def submit_jobs(self, payload: dict) -> dict:
        """``POST /jobs``: accept a batch of specs; idempotent per digest.

        The whole batch is validated before any state changes: a malformed
        row or setting raises ``ValueError`` (HTTP 400) and accepts nothing.
        """
        rows = payload.get("jobs", [])
        if not isinstance(rows, list):
            raise ValueError("jobs must be a list of job rows")
        rows = [_parse_row(row) for row in rows]
        retries, timeout = payload.get("retries"), payload.get("timeout")
        retries = None if retries is None else max(0, _int(retries, "retries"))
        timeout = None if timeout is None else _number(timeout, "timeout")
        chaos_kills = _int(payload.get("chaos_kills") or 0, "chaos_kills")
        chaos_seed = _int(payload.get("chaos_seed", 0), "chaos_seed")
        with self._lock:
            queue = self._queue
            if retries is not None:
                queue.retries = retries
                queue.max_steals = max(queue.max_steals, retries + 2)
            if timeout is not None:
                self.job_timeout = timeout
            if chaos_kills:
                self._chaos_armed += chaos_kills
                self._chaos_rng = random.Random(chaos_seed)
            if payload.get("trace") is not None:
                self.trace = bool(payload["trace"])
            accepted = 0
            done: list[dict] = []
            for row in rows:
                digest = row["digest"]
                existing = queue.jobs.get(digest)
                if existing is not None:
                    if existing.state == DONE:
                        # a long-lived coordinator serving successive sweeps:
                        # hand the terminal record straight back so the
                        # driver need not wait on an event that already
                        # scrolled past its feed cursor
                        job = self._jobs[digest]
                        done.append({
                            "digest": digest,
                            "status": existing.status,
                            "artifact": job.artifact,
                            "attempt": existing.attempts,
                            "wall": round(job.wall, 6),
                            "store_hit": job.cached,
                        })
                    continue
                self._jobs[digest] = _Job(spec=row["spec"], label=row["label"])
                entry = queue.submit(
                    digest, priority=row["priority"], lane=row["lane"],
                    after=row["after"],
                )
                self._emit("queued", digest=digest, job=row["label"],
                           priority=entry.priority, lane=entry.lane,
                           deps=entry.deps)
                accepted += 1
            return {"accepted": accepted, "total": len(queue.jobs), "done": done}

    # -- leases (the workers) ------------------------------------------------

    def _alive_workers(self, now: float) -> int:
        # chaos victims are dead the instant the kill directive goes out,
        # even though their last_seen has not aged off yet -- counting them
        # could arm a second kill against the only surviving worker
        horizon = now - self.lease_timeout
        return sum(
            1 for w in self._workers.values()
            if w.last_seen >= horizon and w.worker_id not in self._chaos_victims
        )

    def lease(self, worker_id: str, worker_version: Optional[str] = None) -> dict:
        """``POST /lease``: hand the next pending job to ``worker_id``."""
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            if (
                self.verify_code_version
                and worker_version is not None
                and worker_version != code_version()
            ):
                return {
                    "error": "code-version-mismatch",
                    "coordinator": code_version(),
                    "worker": worker_version,
                }
            worker = self._workers.get(worker_id)
            if worker is None:
                worker = self._workers[worker_id] = _Worker(worker_id, now)
                self._emit("worker-joined", worker=worker_id)
            worker.last_seen = now
            entry = self._queue.pop()
            if entry is None:
                idle_shutdown = self._draining and not self._queue.unfinished
                return {"job": None, "shutdown": idle_shutdown}
            digest = entry.digest
            job = self._jobs[digest]
            lease = _Lease(
                lease_id=uuid.uuid4().hex,
                digest=digest,
                worker=worker_id,
                expires_at=now + self.lease_timeout,
            )
            self._leases[lease.lease_id] = lease
            chaos = None
            if (
                self._chaos_armed > 0
                and not job.chaos_killed
                and self._alive_workers(now) >= 2
            ):
                # deterministic coin per lease: the seeded RNG stream makes
                # the kill schedule reproducible for a given seed and lease
                # order, independent of wall clock
                if self._chaos_rng.random() < 0.5 or self._chaos_armed >= 2:
                    chaos = "kill"
                    job.chaos_killed = True
                    self._chaos_armed -= 1
                    self.chaos_kills += 1
                    self._chaos_victims.add(worker_id)
                    self._emit("chaos-kill", digest=digest, job=job.label,
                               worker=worker_id, attempt=entry.attempts)
            self._emit("started", digest=digest, job=job.label,
                       attempt=entry.attempts, worker=worker_id)
            return {
                "job": {
                    "lease": lease.lease_id,
                    "digest": digest,
                    "spec": job.spec,
                    "label": job.label,
                    "attempt": entry.attempts,
                },
                "timeout": self.job_timeout,
                "heartbeat": max(0.05, self.lease_timeout / 3.0),
                "store": self.store_url,
                "chaos": chaos,
                "trace": self.trace,
                "shutdown": False,
            }

    def heartbeat(self, lease_id: str, worker_id: Optional[str] = None) -> dict:
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            if worker_id and worker_id in self._workers:
                self._workers[worker_id].last_seen = now
            lease = self._leases.get(lease_id)
            if lease is None:
                return {"ok": False}  # stolen or already finished: abandon
            lease.expires_at = now + self.lease_timeout
            return {"ok": True}

    def result(self, lease_id: str, artifact: dict, wall: float = 0.0,
               store_hit: bool = False, trace: Optional[list] = None) -> dict:
        """``POST /result``: terminal or retried, per the fork-pool rules.
        A non-object ``artifact`` or ``artifact.error``, a bad ``wall`` or a
        non-list ``trace`` raises ``ValueError`` (HTTP 400) and leaves the
        lease alone."""
        if not isinstance(artifact, dict) \
                or not isinstance(artifact.get("error") or {}, dict):
            raise ValueError(f"artifact must be an object whose error is an "
                             f"object or null, got {artifact!r}")
        wall = _number(wall or 0.0, "wall")
        if trace is not None and not isinstance(trace, list):
            raise ValueError("trace must be a list of events")
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            lease = self._leases.pop(lease_id, None)
            if lease is None:
                # the lease expired and the job was re-queued (or finished
                # elsewhere): this result is from a presumed-dead worker --
                # drop it, the steal path owns the job now
                return {"ok": False}
            digest = lease.digest
            job = self._jobs[digest]
            attempt = self._queue.jobs[digest].attempts
            worker = self._workers.get(lease.worker)
            if worker is not None:
                worker.last_seen = now
                worker.jobs += 1
                if store_hit:
                    worker.store_hits += 1
            job.wall += wall
            if trace:
                # the relay must precede the terminal/retry record: a live
                # tailer that sees the terminal can then rely on the mirror
                # tail already being in the feed (and on the driver's disk)
                self._emit("trace", digest=digest, job=job.label,
                           attempt=attempt, worker=lease.worker,
                           events=trace)
            if artifact.get("status") == "ok":
                self._finish(digest, "completed", artifact, cached=store_hit,
                             worker=lease.worker)
                return {"ok": True}
            delay = self._queue.fail(digest)
            if delay is None:
                self._finish(digest, "failed", artifact, worker=lease.worker)
            else:
                self.retried += 1
                error = (artifact.get("error") or {}).get("type", "error")
                self._emit("retry", digest=digest, job=job.label,
                           attempt=attempt, error=error,
                           backoff=round(delay, 3), worker=lease.worker)
            return {"ok": True}

    def _finish(self, digest: str, status: str, artifact: dict, *,
                cached: bool = False, worker: Optional[str] = None) -> None:
        job = self._jobs[digest]
        job.artifact = artifact
        job.cached = cached
        fields = {"digest": digest, "job": job.label,
                  "attempt": self._queue.jobs[digest].attempts,
                  "wall": round(job.wall, 6), "artifact": artifact}
        if worker is not None:
            fields["worker"] = worker
        if status == "failed":
            fields["error"] = (artifact.get("error") or {}).get("type", "error")
        if cached:
            fields["store_hit"] = True
        self._emit(status, **fields)
        for consumer in self._queue.finish(digest, status):
            self._emit("admitted", digest=consumer.digest,
                       job=self._jobs[consumer.digest].label, deps=consumer.deps)

    # -- expiry / stealing ---------------------------------------------------

    def _expire_leases(self, now: float) -> None:
        for lease_id, lease in list(self._leases.items()):
            if lease.expires_at > now:
                continue
            del self._leases[lease_id]
            worker = self._workers.get(lease.worker)
            if worker is not None:
                worker.lost += 1
            self.worker_losses += 1
            digest = lease.digest
            entry = self._queue.jobs.get(digest)
            if entry is None or entry.state != LEASED:  # pragma: no cover - defensive
                continue
            job = self._jobs[digest]
            self._emit("lease-expired", digest=digest, job=job.label,
                       worker=lease.worker, attempt=entry.attempts)
            if self._queue.lose(digest):
                self.steals += 1
                self._emit("stolen", digest=digest, job=job.label,
                           worker=lease.worker, attempt=entry.attempts)
                continue
            artifact = failure_artifact(
                RunSpec.from_dict(job.spec), "worker-lost",
                f"lease expired {entry.steals + 1} time(s); "
                f"worker {lease.worker} presumed dead",
                attempts=entry.attempts,
            )
            self._finish(digest, "failed", artifact, worker=lease.worker)

    # -- introspection (the driver / operators) ------------------------------

    def events_since(self, cursor: int) -> dict:
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            events = self._events[cursor:]
            done = bool(self._queue.jobs) and not self._queue.unfinished
            return {"events": events, "cursor": cursor + len(events),
                    "done": done}

    def health(self) -> dict:
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            states = {PENDING: 0, LEASED: 0, DONE: 0}
            for entry in self._queue.jobs.values():
                states[entry.state] += 1
            return {
                "status": "ok",
                "service": "repro-fleet-coordinator",
                "workers": self._alive_workers(now),
                "workers_seen": len(self._workers),
                "pending": states[PENDING],
                "leased": states[LEASED],
                "done": states[DONE],
            }

    def status(self) -> dict:
        with self._lock:
            statuses = [e.status for e in self._queue.jobs.values()]
            return {
                "jobs": len(statuses),
                "completed": statuses.count("completed"),
                "failed": statuses.count("failed"),
                "steals": self.steals,
                "retries": self.retried,
                "worker_losses": self.worker_losses,
                "chaos_kills": self.chaos_kills,
                "store_hits": sum(w.store_hits for w in self._workers.values()),
                "workers": {
                    w.worker_id: {"jobs": w.jobs, "store_hits": w.store_hits,
                                  "lost": w.lost}
                    for w in self._workers.values()
                },
                "lease_timeout": self.lease_timeout,
                "draining": self._draining,
            }

    def control(self, action: str) -> dict:
        with self._lock:
            if action == "drain":
                self._draining = True
                return {"ok": True, "draining": True}
            if action == "reset":
                # a long-lived coordinator serving successive sweeps: drop
                # terminal jobs and counters, keep registered workers
                self._queue.forget_done()
                self._jobs = {d: self._jobs[d] for d in self._queue.jobs}
                self._draining = False
                return {"ok": True, "jobs": len(self._jobs)}
            return {"ok": False, "error": f"unknown action {action!r}"}


class _CoordinatorHandler(JsonRequestHandler):
    @property
    def coord(self) -> FleetCoordinator:
        return self.server.service  # type: ignore[attr-defined]

    def do_GET(self) -> None:
        if self.path == "/health":
            # liveness stays open (probes, worker discovery)
            self.send_json(200, self.coord.health())
        elif not self._authorized():
            return
        elif self.path == "/status":
            self.send_json(200, self.coord.status())
        elif self.path.startswith("/events"):
            cursor = 0
            if "cursor=" in self.path:
                try:
                    cursor = int(self.path.rsplit("cursor=", 1)[1].split("&")[0])
                except ValueError:
                    cursor = 0
            self.send_json(200, self.coord.events_since(cursor))
        else:
            self.send_json(404, {"error": "unknown endpoint"})

    def do_POST(self) -> None:
        if not self._authorized():
            return
        try:
            self._post(self.read_json())
        except BadRequest as exc:
            self.reject(exc)
        except ValueError as exc:
            self.send_json(400, {"error": str(exc)})

    def _post(self, payload: dict) -> None:
        if self.path == "/jobs":
            self.send_json(200, self.coord.submit_jobs(payload))
        elif self.path == "/lease":
            response = self.coord.lease(
                _text(payload, "worker", "anonymous"),
                _text(payload, "code_version"),
            )
            self.send_json(409 if "error" in response else 200, response)
        elif self.path == "/heartbeat":
            self.send_json(200, self.coord.heartbeat(
                _text(payload, "lease", ""), _text(payload, "worker")))
        elif self.path == "/result":
            self.send_json(200, self.coord.result(
                _text(payload, "lease", ""),
                payload.get("artifact", {}),
                payload.get("wall", 0.0),
                bool(payload.get("store_hit")),
                payload.get("trace"),
            ))
        elif self.path == "/control":
            self.send_json(200, self.coord.control(_text(payload, "action", "")))
        else:
            self.send_json(404, {"error": "unknown endpoint"})
