"""The fleet's one job queue: ordering, admission, retries and steals.

:class:`JobQueue` is the state machine both execution paths drive -- the
local fork pool (:class:`~repro.fleet.scheduler.FleetScheduler`) and the
remote coordinator (:class:`~repro.fleet.remote.coordinator.FleetCoordinator`).
It does no I/O and handles no processes; time comes from an injected clock,
so tests drive it with a fake one.  Per job::

    blocked --producers terminal--> ready --pop--> leased --finish--> done
    leased --fail, attempts <= retries----> ready after backoff
    leased --lose, steals <= max_steals---> ready at once
    leased --fail or lose past its bound--> the caller finishes it as failed

Ready jobs pop in ``(lane, priority, -predicted, tie, submission)`` order:
the interactive lane first, then the explicit priority class, then
longest-predicted-first (LPT).  The tie-break is FIFO unless ``order_seed``
shuffles it.  ``after`` holds a job until every listed digest this queue
knows is terminal (completed, cached or failed); unknown digests count as
satisfied, so producers must be submitted before their consumers.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

__all__ = ["JobQueue", "QueuedJob", "LANES", "PENDING", "LEASED", "DONE"]

#: job states
PENDING, LEASED, DONE = "pending", "leased", "done"

#: lease lanes, in pop order -- interactive jobs (``repro fleet run
#: --interactive``) jump every queued sweep job regardless of priority
LANES = ("interactive", "sweep")


@dataclass
class QueuedJob:
    digest: str
    priority: int = 0
    lane: str = "sweep"
    predicted: Optional[float] = None  # seconds; longer pops first (LPT)
    state: str = PENDING
    attempts: int = 0  # pops so far, stolen leases included
    steals: int = 0  # lost leases re-queued so far
    deps: int = 0  # producers not terminal at submission...
    waiting: int = 0  # ...and of those, still not terminal
    status: Optional[str] = None  # completed | cached | failed, once DONE


class JobQueue:
    """Pure job-queue state machine (see the module docstring).

    ``retries`` bounds re-queues after reported failures, each delayed by
    ``backoff * 2**(n-1)`` after attempt *n*; ``max_steals`` (default
    ``retries + 2``) separately bounds re-queues after lost leases, so a
    job that kills every worker touching it cannot cycle forever.
    """

    def __init__(
        self,
        *,
        retries: int = 1,
        backoff: float = 0.25,
        max_steals: Optional[int] = None,
        order_seed: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.retries = max(0, retries)
        self.backoff = backoff
        self.max_steals = max_steals if max_steals is not None else self.retries + 2
        self._clock = clock
        self._rng = random.Random(order_seed) if order_seed is not None else None
        self.jobs: dict[str, QueuedJob] = {}
        #: jobs not yet DONE (the run loops' termination test)
        self.unfinished = 0
        self._ready: list[tuple] = []
        self._deferred: list[tuple[float, int, str]] = []
        self._consumers: dict[str, list[str]] = {}
        self._seq = itertools.count()

    def submit(
        self,
        digest: str,
        *,
        priority: int = 0,
        lane: str = "sweep",
        predicted: Optional[float] = None,
        after: Iterable[str] = (),
    ) -> QueuedJob:
        """Queue one job; a digest already known is returned unchanged."""
        if digest in self.jobs:
            return self.jobs[digest]
        if lane not in LANES:
            raise ValueError(f"unknown lane {lane!r}; have {LANES}")
        deps = [
            d for d in dict.fromkeys(after)
            if d in self.jobs and self.jobs[d].state != DONE
        ]
        job = QueuedJob(digest, priority, lane, predicted,
                        deps=len(deps), waiting=len(deps))
        self.jobs[digest] = job
        self.unfinished += 1
        for dep in deps:
            self._consumers.setdefault(dep, []).append(digest)
        if not deps:
            self._push(job)
        return job

    def _push(self, job: QueuedJob) -> None:
        tie = self._rng.random() if self._rng is not None else 0.0
        key = (LANES.index(job.lane), job.priority, -(job.predicted or 0.0), tie)
        heapq.heappush(self._ready, (key, next(self._seq), job.digest))

    def pop(self) -> Optional[QueuedJob]:
        """Lease the best ready job (attempts + 1), or ``None``."""
        now = self._clock()
        while self._deferred and self._deferred[0][0] <= now:
            self._push(self.jobs[heapq.heappop(self._deferred)[2]])
        if not self._ready:
            return None
        job = self.jobs[heapq.heappop(self._ready)[2]]
        job.state = LEASED
        job.attempts += 1
        return job

    def finish(self, digest: str, status: str) -> list[QueuedJob]:
        """Make a job terminal with ``status``; returns the consumers this
        admits, in submission order."""
        job = self.jobs[digest]
        job.state, job.status = DONE, status
        self.unfinished -= 1
        admitted = []
        for consumer in self._consumers.pop(digest, ()):
            waiter = self.jobs[consumer]
            waiter.waiting -= 1
            if waiter.waiting == 0:
                self._push(waiter)
                admitted.append(waiter)
        return admitted

    def fail(self, digest: str) -> Optional[float]:
        """A leased attempt failed: re-queue it after the returned backoff,
        or return ``None`` once retries are spent (the caller then
        :meth:`finish` es it as failed)."""
        job = self.jobs[digest]
        if job.attempts > self.retries:
            return None
        delay = self.backoff * (2 ** (job.attempts - 1))
        job.state = PENDING
        heapq.heappush(self._deferred,
                       (self._clock() + delay, next(self._seq), digest))
        return delay

    def lose(self, digest: str) -> bool:
        """A leased attempt's worker vanished: re-queue it at once and
        return ``True``, or ``False`` past ``max_steals`` (the caller then
        :meth:`finish` es it as failed)."""
        job = self.jobs[digest]
        if job.steals >= self.max_steals:
            return False
        job.steals += 1
        job.state = PENDING
        self._push(job)
        return True

    def forget_done(self) -> None:
        """Drop terminal jobs (a long-lived coordinator between sweeps)."""
        self.jobs = {d: j for d, j in self.jobs.items() if j.state != DONE}
