"""repro.fleet.queue: the one job queue, checked against a plain-dict model.

A Hypothesis state machine drives :class:`JobQueue` with a fake clock
through random submit (with ``after``) / pop / complete / fail / lose /
advance-clock sequences and compares every step with a dict model:

* every digest reaches exactly one terminal state (teardown drains);
* no job pops before all its known producers are terminal, nor before its
  retry backoff has elapsed, and the popped job is a best-ranked ready one;
* attempts charged to the job (pops minus stolen leases) never exceed
  ``retries + 1``, and steals never exceed ``max_steals``.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.fleet.queue import DONE, LANES, LEASED, PENDING, JobQueue

DIGESTS = [f"job{i}" for i in range(8)]


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class JobQueueMachine(RuleBasedStateMachine):
    @initialize(
        retries=st.integers(0, 2),
        max_steals=st.integers(0, 2),
        backoff=st.sampled_from([0.0, 0.5]),
        order_seed=st.none() | st.integers(0, 3),
    )
    def setup(self, retries, max_steals, backoff, order_seed):
        self.clock = FakeClock()
        self.queue = JobQueue(retries=retries, backoff=backoff,
                              max_steals=max_steals, order_seed=order_seed,
                              clock=self.clock)
        self.retries, self.max_steals, self.backoff = retries, max_steals, backoff
        #: digest -> the model's view of one job
        self.model: dict[str, dict] = {}

    # -- model helpers -------------------------------------------------------

    def _terminal(self, digest: str) -> bool:
        return self.model[digest]["state"] == DONE

    def _poppable(self) -> list[str]:
        return [
            d for d, m in self.model.items()
            if m["state"] == PENDING and m["ready_at"] <= self.clock.t
            and all(self._terminal(p) for p in m["producers"])
        ]

    def _leased(self) -> list[str]:
        return sorted(d for d, m in self.model.items() if m["state"] == LEASED)

    def _finish(self, digest: str, status: str) -> None:
        blocked = {
            d for d, m in self.model.items()
            if m["state"] == PENDING
            and not all(self._terminal(p) for p in m["producers"])
        }
        admitted = self.queue.finish(digest, status)
        m = self.model[digest]
        m["state"], m["terminals"] = DONE, m["terminals"] + 1
        now_ready = {
            d for d in blocked
            if all(self._terminal(p) for p in self.model[d]["producers"])
        }
        assert {job.digest for job in admitted} == now_ready

    # -- rules ---------------------------------------------------------------

    @rule(
        digest=st.sampled_from(DIGESTS),
        priority=st.integers(0, 2),
        lane=st.sampled_from(LANES),
        predicted=st.none() | st.sampled_from([0.5, 2.0, 9.0]),
        after=st.lists(st.sampled_from(DIGESTS + ["unknown"]), max_size=3),
    )
    def submit(self, digest, priority, lane, predicted, after):
        job = self.queue.submit(digest, priority=priority, lane=lane,
                                predicted=predicted, after=after)
        if digest in self.model:
            return  # coalesced: nothing changes
        producers = {
            d for d in after if d in self.model and not self._terminal(d)
        }
        assert job.deps == len(producers)
        self.model[digest] = {
            "state": PENDING, "producers": producers, "ready_at": 0.0,
            "attempts": 0, "steals": 0, "terminals": 0,
            "rank": (LANES.index(lane), priority, -(predicted or 0.0)),
        }

    @rule()
    def pop(self):
        poppable = self._poppable()
        job = self.queue.pop()
        if job is None:
            assert poppable == []
            return
        assert job.digest in poppable
        best = min(self.model[d]["rank"] for d in poppable)
        assert self.model[job.digest]["rank"] == best
        m = self.model[job.digest]
        m["state"] = LEASED
        m["attempts"] += 1
        assert job.attempts == m["attempts"]

    @precondition(lambda self: self._leased())
    @rule(data=st.data())
    def complete(self, data):
        self._finish(data.draw(st.sampled_from(self._leased())), "completed")

    @precondition(lambda self: self._leased())
    @rule(data=st.data())
    def fail(self, data):
        digest = data.draw(st.sampled_from(self._leased()))
        m = self.model[digest]
        delay = self.queue.fail(digest)
        if m["attempts"] <= self.retries:
            assert delay == self.backoff * 2 ** (m["attempts"] - 1)
            m["state"], m["ready_at"] = PENDING, self.clock.t + delay
        else:
            assert delay is None
            self._finish(digest, "failed")

    @precondition(lambda self: self._leased())
    @rule(data=st.data())
    def lose(self, data):
        digest = data.draw(st.sampled_from(self._leased()))
        m = self.model[digest]
        requeued = self.queue.lose(digest)
        if m["steals"] < self.max_steals:
            assert requeued
            m["steals"] += 1
            m["state"], m["ready_at"] = PENDING, self.clock.t
        else:
            assert not requeued
            self._finish(digest, "failed")

    @rule(dt=st.sampled_from([0.1, 0.5, 2.0]))
    def advance(self, dt):
        self.clock.t += dt

    # -- invariants ----------------------------------------------------------

    @invariant()
    def matches_model(self):
        if not hasattr(self, "queue"):
            return
        assert set(self.queue.jobs) == set(self.model)
        for digest, m in self.model.items():
            job = self.queue.jobs[digest]
            assert job.state == m["state"]
            assert job.attempts - job.steals <= self.retries + 1
            assert job.steals <= self.max_steals
            assert m["terminals"] <= 1
        assert self.queue.unfinished == sum(
            1 for m in self.model.values() if m["state"] != DONE
        )

    def teardown(self):
        if not hasattr(self, "queue"):
            return
        # drain: every submitted digest must reach exactly one terminal
        while self.queue.unfinished:
            self.clock.t += 100.0
            for digest in self._leased():
                self._finish(digest, "completed")
            self.pop()
        assert all(m["terminals"] == 1 for m in self.model.values())


JobQueueMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestJobQueueModel = JobQueueMachine.TestCase
