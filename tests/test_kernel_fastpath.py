"""The kernel fast path against the reference implementation.

The optimized :class:`~repro.sim.kernel.Kernel` (tuple heap entries,
zero-delay FIFO lane, cancellation compaction) must execute every workload
in exactly the same order, at exactly the same virtual times, as the seed
:class:`~repro.sim.reference.ReferenceKernel` (single heapq of
``@dataclass(order=True)`` entries).  A hypothesis property test drives
randomly generated mixed workloads -- timed schedules, zero delays,
cancellations, event trigger/wait churn, task spawns -- through both and
compares the full execution logs.

Also here: the cancelled-entry heap-compaction behavior (satellite of the
fast-path PR: mass cancellation must not leak queue memory), the run-to-run
determinism of the ``BENCH_kernel.json`` scenario observables, and the
fast-forward of lone Delays checked against the reference kernel through
``SimProcess`` programs.
"""

from __future__ import annotations

import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dyninst.image import Image
from repro.sim.kernel import Delay, Kernel, SimulationError, WaitEvent
from repro.sim.node import Cluster
from repro.sim.process import SimProcess
from repro.sim.reference import ReferenceKernel

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))


# -- the workload interpreter -------------------------------------------------
#
# A workload is a list of ops executed against either kernel through the
# same code, so any divergence is the kernel's doing.  Ops reference
# previously scheduled calls / created events by index (modulo the pool
# size), covering cancel-after-fire, double-cancel, trigger-with-waiters,
# wait-on-already-triggered, and zero-delay storms.

OP = st.one_of(
    st.tuples(st.just("sched"), st.floats(min_value=0.0, max_value=5.0,
                                          allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("sched0"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("event"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("trigger"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("spawn_waiter"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("spawn_sleeper"), st.floats(min_value=0.0, max_value=2.0,
                                                  allow_nan=False, allow_infinity=False)),
)


def _execute(kernel, ops):
    """Run one workload; return the execution log [(tag, time), ...]."""
    log = []
    calls = []
    events = []

    def fire(tag):
        def cb():
            log.append((tag, kernel.now))
            # first-generation firings schedule more work from inside a
            # callback; the tag offsets push children past 1000 so chains
            # terminate after one generation
            if tag < 1000:
                if tag % 5 == 0:
                    calls.append(kernel.schedule(0.25, fire(tag + 1000)))
                if tag % 7 == 0:
                    calls.append(kernel.schedule(0.0, fire(tag + 2000)))
        return cb

    def waiter(tag, event):
        value = yield WaitEvent(event)
        log.append((tag, kernel.now, value))
        if tag % 3 == 0:
            yield Delay(0.5)
            log.append((tag + 3000, kernel.now))

    next_tag = 0
    for op in ops:
        kind, arg = op
        next_tag += 1
        if kind == "sched":
            calls.append(kernel.schedule(arg, fire(next_tag)))
        elif kind == "sched0":
            for _ in range(arg):
                next_tag += 1
                calls.append(kernel.schedule(0.0, fire(next_tag)))
        elif kind == "cancel":
            if calls:
                kernel.cancel(calls[arg % len(calls)])
        elif kind == "event":
            for _ in range(arg + 1):
                events.append(kernel.event(f"ev{len(events)}"))
        elif kind == "trigger":
            if events:
                ev = events[arg % len(events)]
                if not ev.triggered:
                    ev.trigger(next_tag)
        elif kind == "spawn_waiter":
            if events:
                kernel.spawn(waiter(next_tag, events[arg % len(events)]),
                             name=f"w{next_tag}")
        elif kind == "mass_wait":
            # a fresh event with >= BATCH_MIN_WAITERS waiters parked on it:
            # the trigger takes the batched-cohort path in the fast kernel
            # (one _BatchCall owning a contiguous seq block) and the plain
            # per-waiter path in the reference.  Tags divisible by 3 Delay
            # after waking, so members escape the cohort mid-flight too.
            ev = kernel.event(f"mass{len(events)}")
            events.append(ev)
            for _ in range(arg):
                next_tag += 1
                kernel.spawn(waiter(next_tag, ev), name=f"mw{next_tag}")
        elif kind == "spawn_sleeper":
            def sleeper(tag=next_tag, dt=arg):
                yield Delay(dt)
                log.append((tag, kernel.now))
            kernel.spawn(sleeper(), name=f"s{next_tag}")
    # trigger any leftover events so waiters cannot deadlock
    for ev in events:
        if not ev.triggered:
            ev.trigger(-1)
    kernel.run()
    return log, kernel.now


@settings(max_examples=120, deadline=None)
@given(st.lists(OP, min_size=0, max_size=40))
def test_mixed_workloads_match_reference(ops):
    fast_log, fast_now = _execute(Kernel(), ops)
    ref_log, ref_now = _execute(ReferenceKernel(), ops)
    assert fast_log == ref_log
    assert fast_now == ref_now


# -- batched event cohorts ----------------------------------------------------
#
# Triggering an event with >= BATCH_MIN_WAITERS (8) waiters wakes them as one
# batched cohort step instead of one queue entry each.  The property test
# mixes mass waits into the general op soup; cohorts interact with timed
# entries, zero-delay storms, cancellations, and members that block again
# mid-cohort (Delay after wake), and the log must still match the reference
# entry-per-waiter kernel exactly.

COHORT_OP = st.one_of(
    OP,
    st.tuples(st.just("mass_wait"), st.integers(min_value=8, max_value=32)),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(COHORT_OP, min_size=1, max_size=30))
def test_cohort_workloads_match_reference(ops):
    fast_log, fast_now = _execute(Kernel(), ops)
    ref_log, ref_now = _execute(ReferenceKernel(), ops)
    assert fast_log == ref_log
    assert fast_now == ref_now


def test_large_cohort_matches_reference():
    """Directed case at bench scale: a thousand waiters on one event, woken
    by a single trigger, with every third member re-blocking mid-cohort."""
    ops = [
        ("sched", 1.0),
        ("mass_wait", 1000),
        ("sched0", 4),
        ("trigger", 0),
        ("sched", 0.25),
    ]
    fast_log, fast_now = _execute(Kernel(), ops)
    ref_log, ref_now = _execute(ReferenceKernel(), ops)
    assert len(fast_log) > 1000
    assert fast_log == ref_log
    assert fast_now == ref_now


def test_zero_delay_storm_matches_reference():
    """Directed case: interleaved zero-delay and equal-time timed entries,
    where the FIFO-lane/heap merge must get (time, seq) order exactly right."""
    ops = [
        ("sched", 1.0), ("sched0", 4), ("sched", 0.0), ("sched", 1.0),
        ("sched0", 4), ("event", 2), ("spawn_waiter", 0), ("trigger", 0),
        ("sched0", 3), ("sched", 0.5), ("spawn_waiter", 1), ("trigger", 1),
    ]
    fast_log, fast_now = _execute(Kernel(), ops)
    ref_log, ref_now = _execute(ReferenceKernel(), ops)
    assert fast_log == ref_log
    assert fast_now == ref_now


# -- cancellation compaction --------------------------------------------------


def test_mass_cancellation_compacts_heap():
    """Cancelling most of the queue must shrink it (the seed leaked dead
    entries until their pop time arrived)."""
    kernel = Kernel()
    calls = [kernel.schedule(float(i + 1), lambda: None) for i in range(1000)]
    assert kernel.queue_depth() == 1000
    for call in calls[:900]:
        kernel.cancel(call)
    # compaction triggers once cancelled entries outnumber live ones
    assert kernel.queue_depth() < 200
    assert kernel.queue_depth() >= 100  # live entries survive


def test_cancelled_calls_never_fire():
    kernel = Kernel()
    fired = []
    keep = kernel.schedule(1.0, lambda: fired.append("keep"))
    for i in range(50):
        kernel.cancel(kernel.schedule(2.0, lambda i=i: fired.append(i)))
    zero = kernel.schedule(0.0, lambda: fired.append("zero"))
    kernel.cancel(zero)
    kernel.run()
    assert fired == ["keep"]
    assert keep.time == 1.0


def test_cancel_is_idempotent_and_order_preserving():
    kernel = Kernel()
    log = []
    a = kernel.schedule(1.0, lambda: log.append("a"))
    b = kernel.schedule(2.0, lambda: log.append("b"))
    c = kernel.schedule(3.0, lambda: log.append("c"))
    kernel.cancel(b)
    kernel.cancel(b)  # double-cancel must not corrupt the count
    kernel.run()
    assert log == ["a", "c"]
    assert kernel.queue_depth() == 0
    assert (a.cancelled, b.cancelled, c.cancelled) == (False, True, False)


# -- BENCH_kernel.json determinism -------------------------------------------


def test_bench_scenarios_deterministic_across_runs():
    """The deterministic observables of every kernel scenario (events,
    virtual time, order checksum) must be identical run to run; each row
    already asserts them equal across both kernels.  This is the
    regression test that keeps BENCH_kernel.json rows comparable PR over
    PR."""
    import bench_perf as bench

    sizes = {
        "kernel/timer_churn": {"timers": 40, "fires": 10},
        "kernel/timer_churn_traced": {"timers": 40, "fires": 10},
        "kernel/zero_delay_pingpong": {"rounds": 300},
        "kernel/calls_uninstrumented": {"calls": 200},
        "kernel/calls_instrumented": {"calls": 200},
        "kernel/sampling_on": {"samples": 200},
        "kernel/sampling_off": {"samples": 200},
        "kernel/sampling_batched": {"ranks": 4, "rounds": 12},
    }
    kernel_rows = bench.family("kernel/")
    assert {key for key, _ in kernel_rows} == set(sizes)
    for key, fn in kernel_rows:
        runs = [fn(**sizes[key]) for _ in range(2)]
        observed = [(r["events"], r["virtual_time"], r["checksum"]) for r in runs]
        assert observed[0] == observed[1], f"scenario {key!r} not deterministic"
        events, vtime, checksum = observed[0]
        assert events > 0 and vtime > 0.0 and checksum != 0


def test_bench_summary_has_required_schema_fields():
    import bench_perf as bench

    sizes = {
        "kernel/timer_churn": {"timers": 20, "fires": 5},
        "kernel/timer_churn_traced": {"timers": 20, "fires": 5},
        "kernel/zero_delay_pingpong": {"rounds": 50},
        "kernel/calls_uninstrumented": {"calls": 50},
        "kernel/calls_instrumented": {"calls": 50},
        "kernel/sampling_on": {"samples": 50},
        "kernel/sampling_off": {"samples": 50},
        "kernel/sampling_batched": {"ranks": 2, "rounds": 6},
    }
    summary = bench.run(bench.family("kernel/"), sizes)
    assert summary["schema"] == bench.SCHEMA
    assert summary["calibration_events_per_sec"] > 0
    assert set(summary["scenarios"]) == set(sizes)
    for row in summary["scenarios"].values():
        assert {"events", "virtual_time", "checksum", "wall", "events_per_sec",
                "reference_events_per_sec"} <= set(row)
        assert row["speedup"] is not None
        assert row["normalized"] is not None


# -- fast-forward of lone Delays ------------------------------------------------
#
# SimProcess.compute / syscall / sleep ask Kernel.fast_forward to advance the
# clock in place when nothing else can run before ``now + dt``; the reference
# kernel never does.  Programs of compute, syscall, sleep, block and trigger
# steps run as SimProcess tasks through both kernels, and everything
# observable must agree: the step log with per-process CPU clocks, the final
# clocks, ``now`` and ``_seq`` (the event count the golden cells pin).

N_EVENTS = 3
#: a janitor triggers every event still pending at this time, so a program
#: blocking on an event nobody triggers cannot deadlock the soup
JANITOR_AT = 1000.0

DT = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),  # ties between processes
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False),
)
STEP = st.one_of(
    st.tuples(st.sampled_from(["compute", "syscall", "sleep"]), DT),
    st.tuples(st.sampled_from(["block", "trigger"]),
              st.integers(min_value=0, max_value=N_EVENTS - 1)),
)
#: up to 12 processes; in the second shape at least 8 of them first wait on
#: one event, so its trigger wakes a batched cohort whose members go on to
#: compute, sleep and trigger
PROGRAMS = st.one_of(
    st.lists(st.lists(STEP, max_size=10), min_size=1, max_size=12),
    st.lists(st.lists(STEP, max_size=6).map(lambda steps: [("block", 0)] + steps),
             min_size=8, max_size=12),
)


def _soup(kernel, programs, until=None):
    cluster = Cluster(num_nodes=1, cpus_per_node=1)
    node = cluster.nodes[0]
    events = [kernel.event(f"ev{i}") for i in range(N_EVENTS)]
    procs = [
        SimProcess(kernel, Image(), pid=pid, node=node, cpu=node.cpus[0])
        for pid in range(len(programs))
    ]
    log = []

    def body(proc, steps):
        for index, (kind, arg) in enumerate(steps):
            if kind == "compute":
                yield from proc.compute(arg)
            elif kind == "syscall":
                yield from proc.syscall(arg)
            elif kind == "sleep":
                yield from proc.sleep(arg)
            elif kind == "block":
                yield from proc.block(events[arg])
            elif not events[arg].triggered:
                events[arg].trigger(proc.pid)
            log.append((proc.pid, index, kernel.now,
                        proc.cpu_user_time(), proc.cpu_system_time()))

    def janitor():
        for event in events:
            if not event.triggered:
                event.trigger(-1)

    kernel.schedule(JANITOR_AT, janitor)
    for proc, steps in zip(procs, programs):
        kernel.spawn(body(proc, steps), name=f"p{proc.pid}")
    if until is not None:
        kernel.run(until=until)
        log.append(("until", kernel.now, kernel._seq))
    kernel.run()
    clocks = [(p.cpu_user_time(), p.cpu_system_time()) for p in procs]
    return log, clocks, kernel.now, kernel._seq


@settings(max_examples=150, deadline=None)
@given(PROGRAMS, st.one_of(st.none(), st.sampled_from([0.25, 0.5, 1.0, 2.0])))
def test_process_soup_fast_forward_matches_reference(programs, until):
    assert _soup(Kernel(), programs, until) == _soup(ReferenceKernel(), programs, until)


def _lone_burner(kernel, steps, dt=0.25):
    cluster = Cluster(num_nodes=1, cpus_per_node=1)
    node = cluster.nodes[0]
    proc = SimProcess(kernel, Image(), pid=1, node=node, cpu=node.cpus[0])

    def body():
        for _ in range(steps):
            yield from proc.compute(dt)

    kernel.spawn(body(), name="burner")
    return proc


def test_lone_compute_never_touches_the_heap():
    """A process alone on the kernel: every compute fast-forwards, yet the
    clocks and the seq count are those of the scheduled path."""
    kernel = Kernel()
    proc = _lone_burner(kernel, 40)
    scheduled = []
    schedule = kernel.schedule
    kernel.schedule = lambda *a: scheduled.append(a) or schedule(*a)
    kernel.run()
    assert scheduled == []  # the spawn was scheduled before the patch
    reference = ReferenceKernel()
    ref_proc = _lone_burner(reference, 40)
    reference.run()
    assert (kernel.now, kernel._seq) == (reference.now, reference._seq)
    assert proc.cpu_user_time() == ref_proc.cpu_user_time()


def test_fast_forward_conditions():
    """Each condition on its own refuses: the zero lane holds an entry, the
    heap head is not strictly later, the resume would pass ``until``, a
    cohort is being dispatched, or the kernel is not running at all."""
    kernel = Kernel()
    assert not kernel.fast_forward(1.0)  # outside run()
    seen = []

    def probe(dt):
        def cb():
            seen.append(kernel.fast_forward(dt))
        return cb

    kernel.schedule(0.0, probe(0.5))
    kernel.schedule(0.0, lambda: None)  # zero lane busy behind the probe
    kernel.run()
    assert seen == [False]

    for head_at, expected in ((1.5, False), (1.6, True)):
        kernel, seen = Kernel(), []
        kernel.schedule(1.0, probe(0.5))
        kernel.schedule(head_at, lambda: None)
        kernel.run()
        assert seen == [expected], head_at

    for until, expected in ((1.4, False), (1.5, True)):
        kernel, seen = Kernel(), []
        kernel.schedule(1.0, probe(0.5))
        kernel.run(until=until)
        assert seen == [expected], until
        assert kernel.now == (1.5 if expected else 1.0)

    kernel, seen = Kernel(), []
    event = kernel.event()
    for _ in range(8):  # enough waiters for a batched cohort
        kernel.spawn(_wait_then_probe(kernel, event, seen))
    kernel.schedule(1.0, lambda: event.trigger())
    kernel.run()
    assert seen == [False] * 8


def _wait_then_probe(kernel, event, seen):
    yield WaitEvent(event)
    seen.append(kernel.fast_forward(0.5))
    yield Delay(0.5)


def test_fast_forward_keeps_max_events():
    """The runaway guard fires at the same point with or without the
    fast-forward: each skipped resume still counts as an event."""
    outcomes = []
    for kernel in (Kernel(), ReferenceKernel()):
        _lone_burner(kernel, 100)
        with pytest.raises(SimulationError):
            kernel.run(max_events=50)
        outcomes.append((kernel.now, kernel._seq))
    assert outcomes[0] == outcomes[1]


def test_fast_forward_keeps_the_event_counter(monkeypatch):
    """The flight recorder's every-8192-events counter sees the same event
    numbers at the same virtual times as on the scheduled path."""
    import repro.sim.kernel as kernel_module

    class Stub:
        def __init__(self):
            self.counters = []

        def now(self):
            return 0.0

        def counter(self, name, value, **args):
            self.counters.append((name, value, args["t"]))

        def complete(self, name, dur, **args):
            self.counters.append((name, args["events"]))

        def instant(self, name, **args):
            pass

    runs = []
    for fast in (True, False):
        stub = Stub()
        monkeypatch.setattr(kernel_module, "_observe_active", lambda: stub)
        kernel = Kernel()
        if not fast:
            kernel.fast_forward = lambda dt: False
        _lone_burner(kernel, 20000, dt=0.125)
        kernel.run()
        runs.append(stub.counters)
    assert runs[0] == runs[1]
    assert [value for _, value, *_ in runs[0][:2]] == [8192, 16384]
