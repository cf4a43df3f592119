"""The sweep driver's remote pool: shard jobs across coordinators.

:class:`RemotePool` is interface-compatible with
:class:`~repro.fleet.scheduler.FleetScheduler` (``submit`` / ``run`` /
``results`` / ``outcomes`` / ``summary``), so ``run_sweep`` swaps one for
the other when ``--workers`` names coordinator endpoints and the sweep's
one dependency-pipelined plan -- experiments, renders, observe analysis --
runs unchanged over remote workers.

The driver:

1. short-circuits each spec through the shared artifact store (the warm
   sweep against an already-warm store does zero remote round trips per
   hit, same as the local pool against a warm directory);
2. shards the remaining jobs across the coordinator endpoints by a
   deterministic locality score (consumers follow their producers, job
   families stick to one coordinator, load stays bounded; one
   coordinator is the common case), forwarding each job's ``after``
   digests so the coordinator's queue holds consumers behind producers;
   a job whose producer went to another coordinator (or is itself still
   held) stays here and is posted once that producer's result is in;
3. polls each coordinator's event feed, re-emitting lifecycle records
   into the sweep's :class:`EventLog` with the *coordinator's* timestamps
   preserved -- so ``observe`` swimlanes and critical-path analysis see
   the same ``queued/started/retry/stolen/completed`` stream a local
   sweep produces;
4. collects terminal artifacts from the feed into ``results``.

Failure containment mirrors the fork pool: a worker that vanishes
mid-job trips lease expiry on the coordinator (steal + retry, bounded),
and a sweep whose workers *all* vanish fails its remaining jobs locally
with ``no-workers`` artifacts after a grace period instead of hanging.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Optional, Sequence, Union

from ..cache import ArtifactStore, StoreIntegrityError
from ..events import EventLog
from ..execute import failure_artifact, from_bytes, to_bytes
from ..scheduler import JobOutcome, outcome_counts
from ..spec import RunSpec
from .wire import Endpoint, WireError, parse_endpoint, request_json

__all__ = ["RemotePool"]

#: coordinator event fields that never go into the local event log
#: (artifacts are collected into ``results``, not logged)
_STRIP_FIELDS = ("artifact",)


class RemotePool:
    """Drive one sweep over coordinator-attached remote workers.

    Parameters
    ----------
    endpoints: coordinator addresses (``host:port`` strings).
    store: the shared artifact store (driver-side hit short-circuit);
        ``None`` disables the pre-check (workers may still have one).
    timeout / retries: forwarded to the coordinators with the job batch.
    chaos_kills: arm N deterministic worker kills on the first
        coordinator (the ``--chaos`` drill, remote edition).
    drain: once the pool completes, tell coordinators to send idle
        workers home.
    worker_grace: seconds to tolerate zero live workers with jobs
        pending before failing the remainder locally.
    trace_dir: when set, ask workers (via the coordinators) to relay
        their flight-recorder mirror tails; each relay lands as
        ``remote-<digest>.<attempt>.jsonl`` in this directory, where the
        post-hoc merge and the live tailer pick it up exactly like a
        local worker's mirror.
    """

    def __init__(
        self,
        endpoints: Sequence[Union[str, Endpoint]],
        *,
        store: Optional[ArtifactStore] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        events: Optional[EventLog] = None,
        chaos_kills: int = 0,
        chaos_seed: int = 0,
        drain: bool = False,
        poll_interval: float = 0.15,
        worker_grace: float = 60.0,
        trace_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if not endpoints:
            raise ValueError("RemotePool needs at least one coordinator endpoint")
        self.endpoints = [parse_endpoint(e) for e in endpoints]
        self.store = store
        self.timeout = timeout
        self.retries = max(0, retries)
        self.events = events if events is not None else EventLog()
        self.chaos_kills = max(0, chaos_kills)
        self.chaos_seed = chaos_seed
        self.drain = drain
        self.poll_interval = poll_interval
        self.worker_grace = worker_grace
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        # FleetScheduler-compatible surface: observed worker concurrency
        # (refined from coordinator health once the sweep is running)
        self.requested_jobs = len(self.endpoints)
        self.jobs = len(self.endpoints)
        self._submitted: dict[str, tuple[RunSpec, int, str, tuple]] = {}
        #: digest -> endpoint index, for every job this sweep runs remotely
        self._home: dict[str, int] = {}
        self._posted: set[str] = set()
        self._held: list[str] = []
        self.results: dict[str, dict] = {}
        self.outcomes: dict[str, JobOutcome] = {}

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        spec: RunSpec,
        *,
        priority: int = 0,
        lane: str = "sweep",
        after: tuple = (),
    ) -> str:
        """Queue one spec.  ``lane`` is the coordinator's lease lane
        (``interactive`` jumps the sweep queue); ``after`` lists consumed
        artifact digests: the job runs only once those this sweep runs
        are terminal, and the locality score shards consumers to the
        coordinator their producers went to."""
        digest = spec.digest
        if digest in self._submitted:
            return digest
        self._submitted[digest] = (spec, priority, lane, tuple(after))
        self.outcomes[digest] = JobOutcome.of(spec)
        return digest

    # -- coordinator round trips ---------------------------------------------

    def _post(self, endpoint: Endpoint, path: str, payload: dict) -> dict:
        status, body = request_json(
            endpoint, "POST", path, payload, timeout=30.0, retries=2
        )
        if status != 200:
            raise WireError(f"{path} on {endpoint.address} -> HTTP {status}")
        return body

    def _get(self, endpoint: Endpoint, path: str) -> dict:
        status, body = request_json(
            endpoint, "GET", path, timeout=30.0, retries=2
        )
        if status != 200:
            raise WireError(f"{path} on {endpoint.address} -> HTTP {status}")
        return body

    # -- the run loop --------------------------------------------------------

    def run(self) -> dict[str, dict]:
        """Drain every submitted job through the coordinators; returns
        ``{digest: artifact}``.  Job failures become failure artifacts,
        never exceptions -- same contract as the fork pool."""
        pending = self._store_precheck()
        self.refresh_worker_count()
        self.events.emit(
            "pool-start", workers=self.jobs, requested=self.requested_jobs,
            queued=len(pending), remote=True,
            coordinators=[e.address for e in self.endpoints],
        )
        if pending:
            cursors = self._submit_batches(pending)
            self._poll(cursors)
        summary = self.summary()
        self.events.emit("sweep-summary", **summary)
        if self.drain:
            for endpoint in self.endpoints:
                try:
                    self._post(endpoint, "/control", {"action": "drain"})
                except WireError:  # pragma: no cover - already gone
                    pass
        return self.results

    def _store_precheck(self) -> list[str]:
        """Resolve store hits driver-side; returns the digests still to run."""
        pending: list[str] = []
        for digest, (spec, _priority, _lane, _after) in self._submitted.items():
            data = None
            if self.store is not None:
                try:
                    data = self.store.get(digest)
                except (StoreIntegrityError, WireError):
                    data = None  # quarantined or unreachable: execute remotely
            if data is None:
                pending.append(digest)
                continue
            outcome = self.outcomes[digest]
            self.results[digest] = from_bytes(data)
            outcome.status = "cached"
            outcome.cached = True
            self.events.emit("cached-hit", digest=digest, job=outcome.job)
        return pending

    def _assign_endpoints(self, pending: list[str]) -> dict[int, list[str]]:
        """Locality-scored sharding (deterministic, driver-side).

        Round-robin scattered a program's runs and their consumers across
        coordinators; instead, prefer the coordinator that (a) already got
        any of this spec's consumed-artifact producers this sweep (+2 --
        the worker's store precheck will hold those artifacts hot), or
        (b) already ran this ``mode:program`` family (+1 -- warm module
        caches and page cache).  Load stays bounded: nobody is assigned
        more than ``ceil(len/n) + 1`` jobs, so a degenerate score cannot
        starve a coordinator.
        """
        n = len(self.endpoints)
        assigned: dict[int, list[str]] = {i: [] for i in range(n)}
        cap = -(-len(pending) // n) + 1
        family_home: dict[str, int] = {}
        digest_home: dict[str, int] = {}
        for digest in pending:
            spec, _priority, _lane, after = self._submitted[digest]
            family = f"{spec.mode}:{spec.program}"
            ranked = []
            for i in range(n):
                score = 0
                if any(digest_home.get(d) == i for d in after):
                    score += 2
                if family_home.get(family) == i:
                    score += 1
                ranked.append((-score, len(assigned[i]), i))
            ranked.sort()
            best = next(
                (i for _neg, load, i in ranked if load < cap), ranked[0][2]
            )
            assigned[best].append(digest)
            family_home.setdefault(family, best)
            digest_home[digest] = best
        return assigned

    def _submit_batches(self, pending: list[str]) -> dict[str, int]:
        """Shard the jobs across coordinators by locality score and post
        every job that can run; returns each coordinator's event-feed
        cursor snapshotted *before* submission (a long-lived coordinator
        has older sweeps' events in its feed)."""
        for i, digests in self._assign_endpoints(pending).items():
            self._home.update((digest, i) for digest in digests)
        self._held = list(pending)
        cursors = {e.address: self._get(e, "/events?cursor=0").get("cursor", 0)
                   for e in self.endpoints}
        self._release(first=True)
        return cursors

    def _release(self, first: bool = False) -> None:
        """Post each held job whose producers are resolved or posted to its
        own coordinator (whose queue then holds it); a coordinator treats a
        digest it never saw as satisfied, so a job is never posted ahead of
        a producer that coordinator does not know."""
        batches: dict[int, list[dict]] = {i: [] for i in range(len(self.endpoints))}
        held, self._held = self._held, []
        for digest in held:
            spec, priority, lane, after = self._submitted[digest]
            home = self._home[digest]
            if all(d in self.results or d not in self._home or (
                d in self._posted and self._home[d] == home
            ) for d in after):
                self._posted.add(digest)
                batches[home].append({
                    "digest": digest, "spec": spec.to_dict(), "label": spec.label,
                    "priority": priority, "lane": lane, "after": list(after),
                })
            else:
                self._held.append(digest)
        for i, endpoint in enumerate(self.endpoints):
            if not (first or batches[i]):
                continue
            payload = {"jobs": batches[i], "retries": self.retries,
                       "timeout": self.timeout, "trace": self.trace_dir is not None}
            if first and i == 0 and self.chaos_kills:
                payload["chaos_kills"] = self.chaos_kills
                payload["chaos_seed"] = self.chaos_seed
            response = self._post(endpoint, "/jobs", payload)
            # digests already terminal on a long-lived coordinator (an
            # earlier sweep ran them) come straight back as results
            for row in response.get("done", ()):
                self._terminal(row)

    def _poll(self, cursors: dict[str, int]) -> None:
        no_worker_since: Optional[float] = None
        while self._unresolved():
            progressed = False
            alive = 0
            try:
                for endpoint in self.endpoints:
                    address = endpoint.address
                    feed = self._get(endpoint, f"/events?cursor={cursors[address]}")
                    alive += int(self._get(endpoint, "/health").get("workers", 0))
                    events = feed.get("events", ())
                    cursors[address] = feed.get("cursor", cursors[address])
                    progressed |= bool(events)
                    for record in events:
                        self._ingest(record)
                self._release()
            except WireError as exc:
                self._fail_remaining("coordinator-lost",
                                     f"coordinator unreachable mid-sweep: {exc}")
                return
            now = time.monotonic()
            if alive == 0 and self._unresolved():
                no_worker_since = no_worker_since if no_worker_since is not None else now
                if now - no_worker_since > self.worker_grace:
                    self._fail_remaining(
                        "no-workers",
                        f"no live workers for {self.worker_grace}s "
                        "with jobs still pending",
                    )
                    return
            else:
                no_worker_since = None
            if not progressed:
                time.sleep(self.poll_interval)

    # -- event ingestion -----------------------------------------------------

    def _ingest(self, record: dict) -> None:
        event = record.get("event")
        digest = record.get("digest")
        if digest is not None and digest not in self._submitted:
            return  # another driver's job on a shared coordinator
        if event == "trace":
            # a remote worker's mirror tail: land it as a mirror *file*
            # (not a log record) so the trace merge and the live tailer
            # treat remote attempts exactly like local ones.  This record
            # precedes the attempt's terminal record in the feed, so by
            # the time the terminal is logged the mirror is on disk.
            self._write_relay(record)
            return
        clean = {k: v for k, v in record.items()
                 if k not in _STRIP_FIELDS and k not in ("t", "event")}
        self.events.emit(event, t=record.get("t"), **clean)
        if digest is None:
            return
        outcome = self.outcomes[digest]
        if event == "started":
            outcome.attempts = max(outcome.attempts,
                                   int(record.get("attempt", 1)))
        elif event in ("completed", "failed"):
            self._terminal(record)

    def _write_relay(self, record: dict) -> None:
        if self.trace_dir is None:
            return
        events = record.get("events") or ()
        if not events:
            return
        digest = record.get("digest") or "unknown"
        attempt = int(record.get("attempt", 1))
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"remote-{digest[:12]}.{attempt}.jsonl"
        with path.open("a", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")

    def _terminal(self, record: dict) -> None:
        digest = record["digest"]
        if digest in self.results:
            return
        outcome = self.outcomes[digest]
        artifact = record.get("artifact") or {}
        self.results[digest] = artifact
        outcome.attempts = max(outcome.attempts, int(record.get("attempt", 1)))
        outcome.wall += float(record.get("wall", 0.0) or 0.0)
        if record.get("event", record.get("status")) == "completed" or (
            artifact.get("status") == "ok"
        ):
            outcome.status = "completed"
            outcome.cached = bool(record.get("store_hit") or record.get("cached"))
            if self.store is not None and artifact:
                # idempotent: the worker already put it; this covers a
                # store that joined late or a worker whose put failed
                try:
                    self.store.put(digest, to_bytes(artifact))
                except WireError:  # pragma: no cover - store died mid-sweep
                    pass
        else:
            outcome.status = "failed"
            error = artifact.get("error") or {}
            outcome.error = (
                f"{error.get('type', record.get('error', 'error'))}: "
                f"{error.get('message', '')}"
            )

    def _unresolved(self) -> list[str]:
        return [d for d in self._submitted if d not in self.results]

    def _fail_remaining(self, error_type: str, message: str) -> None:
        for digest in self._unresolved():
            spec = self._submitted[digest][0]
            outcome = self.outcomes[digest]
            artifact = failure_artifact(
                spec, error_type, message,
                attempts=max(1, outcome.attempts),
            )
            self.results[digest] = artifact
            outcome.status = "failed"
            outcome.error = f"{error_type}: {message}"
            self.events.emit("failed", digest=digest, job=outcome.job,
                             attempt=max(1, outcome.attempts), error=error_type)

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        return outcome_counts(self.outcomes.values())

    def remote_summary(self) -> dict:
        """Coordinator-side counters for BENCH_fleet.json's ``remote``
        section: per-worker job counts, steals, retries, store hit rate."""
        coordinators = []
        workers: dict[str, dict] = {}
        totals = {"steals": 0, "retries": 0, "worker_losses": 0,
                  "chaos_kills": 0, "store_hits": 0}
        for endpoint in self.endpoints:
            try:
                status = self._get(endpoint, "/status")
            except WireError:
                coordinators.append({"endpoint": endpoint.address,
                                     "unreachable": True})
                continue
            coordinators.append({"endpoint": endpoint.address, **{
                k: status.get(k) for k in
                ("jobs", "completed", "failed", "steals", "retries",
                 "worker_losses", "chaos_kills", "lease_timeout")
            }})
            for key in totals:
                totals[key] += int(status.get(key, 0))
            for worker_id, row in (status.get("workers") or {}).items():
                merged = workers.setdefault(
                    worker_id, {"jobs": 0, "store_hits": 0, "lost": 0}
                )
                for key in merged:
                    merged[key] += int(row.get(key, 0))
        if workers:
            self.jobs = max(self.jobs, len(workers))
        summary = {
            "coordinators": coordinators,
            "workers": workers,
            **totals,
        }
        if self.store is not None:
            summary["store"] = self.store.describe()
        return summary

    def refresh_worker_count(self) -> int:
        """Observed live-worker concurrency (feeds swimlane/critical-path
        analysis the way the fork pool's ``jobs`` does)."""
        alive = 0
        for endpoint in self.endpoints:
            try:
                alive += int(self._get(endpoint, "/health").get("workers", 0))
            except WireError:
                continue
        if alive:
            self.jobs = max(1, alive)
            self.requested_jobs = max(self.requested_jobs, self.jobs)
        return self.jobs
