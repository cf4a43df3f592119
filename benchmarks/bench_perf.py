"""The perf gates: one scenario registry, one calibration, one writer.

Every host-timed gate of the repository is a row of :data:`SCENARIOS`, a
flat ``(key, fn)`` registry whose keys name the family and the case:

* ``kernel/<scenario>`` -- kernel-throughput microbenchmarks (timer churn,
  the zero-delay lane, the instrumented-call boundary, periodic sampling
  into folding histograms, full-stack daemon sampling).  Each runs on the
  fast-path :class:`repro.sim.Kernel` and on the seed implementation
  :class:`repro.sim.reference.ReferenceKernel`; the deterministic
  observables (event count, final virtual time, an order-sensitive
  checksum) must be identical across both, asserted on every run.
* ``scale/<shape>@<ranks>`` -- the rank-count scaling axis: five
  communication shapes (a barrier storm, user-level barriers built from
  point-to-point as a rank-0 funnel and as a binary tree, a fence storm,
  an sstwod-style ghost exchange) run under the sanitizer at 64/256/1024
  ranks (4096 with ``--full``), and a ``tool`` shape running the full
  Paradyn stack with the Performance Consultant at 64 and 1024 ranks.
  Every cell must run clean; its digest (the sanitizer trace digest, or a
  hash of the Consultant's search history) and virtual end time are the
  byte-identity oracle pinned in ``tests/test_scale_ranks.py``.
* ``fleet/packing`` -- a synthetic suite of known-length sleep jobs
  submitted shortest-first (adversarial for FIFO) and scheduled LPT from a
  pre-seeded profile store; its makespan must stay within 1.15x the LPT
  lower bound ``max(longest job, total / workers)``.

One calibration divides out host speed: the reference kernel's
``timer_churn`` events/sec, measured once per run (median of three).
Each row's ``normalized`` value is the gated, higher-is-better figure:
events/sec over the calibration, or, for ``fleet/packing``, the LPT bound
over the makespan (already host-independent).  ``--check`` fails a row
that falls more than 30% below its baseline ``normalized``, or below its
absolute ``floor`` where the baseline states one.

Outputs:

* ``benchmarks/reports/kernel_throughput.txt`` and ``scale_ranks.txt`` --
  rendered by the two bench entry points (tier-1 smoke, fleet render,
  ``pytest benchmarks/``), which only ``emit``;
* ``python benchmarks/bench_perf.py [--check BASELINE]`` -- runs every
  scenario, writes ``BENCH_kernel.json`` (the only writer of that file)
  and gates against ``benchmarks/baselines/perf_baseline.json``.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from functools import partial
from typing import Callable

if __name__ == "__main__":  # script mode: make src/repro importable
    _src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from common import emit, once

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_OUT = REPO_ROOT / "BENCH_kernel.json"
BASELINE = pathlib.Path(__file__).resolve().parent / "baselines" / "perf_baseline.json"
#: the layout of BENCH_kernel.json and of the baseline; 1 was the two
#: per-bench writers' layout (kernel ``scenarios`` plus a merged
#: ``scale_ranks`` key)
SCHEMA = 2
REGRESSION_TOLERANCE = 0.30  # --check fails below baseline * (1 - this)
_MASK = (1 << 61) - 1

#: the scale axis; 4096 rides behind --full (several minutes of simulated
#: cluster, out of the CI budget)
DEFAULT_RANKS = (64, 256, 1024)
FULL_RANKS = (64, 256, 1024, 4096)
#: the tool shape's own axis: a full Consultant run costs seconds of wall
#: at 1024 ranks, so it skips the intermediate counts
TOOL_RANKS = (64, 1024)
#: refmpi: the internal-RPI personality (no visible collective p2p), the
#: cheapest launch cost model -- the personality built for scale runs
IMPL = "refmpi"
SEED = 0
#: the sanitized shapes (see :func:`_programs`); ``tool`` is the sixth
SHAPES = ("barrier", "barrier_linear", "barrier_tree", "fence", "sstwod")

#: the packing row's absolute bound: makespan <= 1.15x the LPT bound
PACKING_FLOOR = 1 / 1.15
PACKING_WALLS = (2.0, 1.5, 1.2, 0.9, 0.7, 0.6, 0.5, 0.4, 0.4, 0.3, 0.3, 0.2)
PACKING_WORKERS = 4


def _mix(h: int, now: float, tag: int) -> int:
    """Order-sensitive running checksum over (time, tag) pairs."""
    return (h * 1000003 + (int(now * 1e9) & 0xFFFFFFFFFFFF) + tag) & _MASK


def _per_sec(events: int, wall: float) -> int:
    return round(events / wall) if wall > 0 else 0


# -- kernel workloads ----------------------------------------------------------
# Each takes a kernel factory and a size, and returns
# (events, virtual_time, checksum) -- all fully deterministic.


def timer_churn(make_kernel, timers: int = 250, fires: int = 60):
    """Pure heap traffic: staggered timers that keep rescheduling."""
    kernel = make_kernel()
    state = {"events": 0, "checksum": 0}

    def make_cb(idx):
        remaining = [fires]

        def cb():
            state["events"] += 1
            state["checksum"] = _mix(state["checksum"], kernel.now, idx)
            remaining[0] -= 1
            if remaining[0] > 0:
                delay = ((idx * 37 + remaining[0] * 13) % 89 + 1) / 500.0
                kernel.schedule(delay, cb)

        return cb

    for i in range(timers):
        kernel.schedule(((i * 37) % 97 + 1) / 1000.0, make_cb(i))
    kernel.run()
    return state["events"], kernel.now, state["checksum"]


def timer_churn_traced(make_kernel, timers: int = 250, fires: int = 60):
    """``timer_churn`` with the flight recorder *enabled*: bounds the cost
    of the kernel's observe hooks when someone is actually listening (the
    disabled cost is bounded by plain ``timer_churn`` vs its baseline)."""
    from repro.observe.recorder import recording

    with recording(capacity=4096):
        return timer_churn(make_kernel, timers, fires)


def zero_delay_pingpong(make_kernel, rounds: int = 6000):
    """Task/event churn through the zero-delay lane: two coroutines hand a
    token back and forth; every wake-up is a ``schedule(0.0, ...)``."""
    from repro.sim.kernel import Delay, WaitEvent

    kernel = make_kernel()
    state = {"events": 0, "checksum": 0}
    mailboxes = {"ping": kernel.event("m0"), "pong": kernel.event("m1")}

    def player(me, other):
        for i in range(rounds):
            value = yield WaitEvent(mailboxes[me])
            state["events"] += 1
            state["checksum"] = _mix(state["checksum"], kernel.now, value)
            mailboxes[me] = kernel.event(me)
            mailboxes[other].trigger(value + 1)
            if i % 64 == 0:  # keep some heap traffic interleaved
                yield Delay(0.001)

    t1 = kernel.spawn(player("ping", "pong"), name="ping")
    kernel.spawn(player("pong", "ping"), name="pong")
    mailboxes["ping"].trigger(0)

    def closer():
        yield WaitEvent(t1.done_event)
        if not mailboxes["pong"].triggered:
            mailboxes["pong"].trigger(-1)

    kernel.spawn(closer(), name="closer")
    kernel.run()
    return state["events"], kernel.now, state["checksum"]


def _make_proc(kernel):
    from repro.dyninst.image import Image
    from repro.sim.node import Cluster
    from repro.sim.process import SimProcess

    cluster = Cluster(num_nodes=1, cpus_per_node=1)
    node = cluster.nodes[0]
    return SimProcess(
        kernel, Image(), pid=cluster.allocate_pid(), node=node, cpu=node.cpus[0]
    )


def _call_scenario(make_kernel, calls: int, instrumented: bool):
    """The instrumented-call boundary: outer -> mid -> leaf nesting, with
    counter snippets and per-snippet perturbation when ``instrumented``."""
    kernel = make_kernel()
    proc = _make_proc(kernel)
    state = {"events": 0, "checksum": 0}

    def leaf(p, i):
        if i % 7 == 0:
            yield from p.compute(1e-6)
        else:
            yield from p.compute(0.0)
        return i

    def mid(p, i):
        value = yield from p.call("leaf", i)
        yield from p.syscall(0.0 if i % 5 else 1e-6)
        return value

    def outer(p, i):
        return (yield from p.call("mid", i))

    proc.image.add_function("leaf", leaf, module="app.c")
    proc.image.add_function("mid", mid, module="app.c")
    proc.image.add_function("outer", outer, module="app.c")

    if instrumented:
        from repro.dyninst.snippets import AddCounter, Const, CounterVar, Snippet

        counter = CounterVar("bench_count")
        for name in ("leaf", "mid"):
            fdef = proc.image.resolve(name)
            fdef.insert(Snippet([AddCounter(counter, Const(1))]), where="entry")
            fdef.insert(Snippet([AddCounter(counter, Const(1))]), where="return")
        proc.snippet_cost = 1e-7

    def body():
        for i in range(calls):
            value = yield from proc.call("outer", i)
            state["events"] += 3  # outer + mid + leaf frames
            state["checksum"] = _mix(state["checksum"], kernel.now, value)

    kernel.spawn(proc.run_main(body()), name="bench")
    kernel.run()
    state["checksum"] = _mix(state["checksum"], proc.cpu_time(), proc.snippets_executed)
    return state["events"], kernel.now, state["checksum"]


def calls_uninstrumented(make_kernel, calls: int = 4000):
    return _call_scenario(make_kernel, calls, instrumented=False)


def calls_instrumented(make_kernel, calls: int = 4000):
    return _call_scenario(make_kernel, calls, instrumented=True)


def _sampling_scenario(make_kernel, samples: int, sampling: bool):
    """A computing process sampled periodically into a folding histogram --
    the daemon/histogram hot path without the full tool stack."""
    from repro.core.histogram import FoldingHistogram

    kernel = make_kernel()
    proc = _make_proc(kernel)
    interval = 0.001
    hist = FoldingHistogram(num_bins=100, bin_width=0.005)
    state = {"events": 0, "checksum": 0, "last": 0.0}

    def body():
        for i in range(samples):
            yield from proc.compute(interval if i % 3 else interval / 2)

    task = kernel.spawn(proc.run_main(body()), name="worker")

    if sampling:
        def tick():
            value = proc.cpu_user_time()
            hist.add(kernel.now, value - state["last"])
            state["last"] = value
            state["events"] += 1
            state["checksum"] = _mix(state["checksum"], kernel.now, int(value * 1e9))
            if not task.finished:
                kernel.schedule(interval, tick)

        kernel.schedule(interval, tick)

    kernel.run()
    state["events"] += samples
    state["checksum"] = _mix(state["checksum"], hist.total(), hist.folds)
    state["checksum"] = _mix(state["checksum"], proc.cpu_time(), samples)
    return state["events"], kernel.now, state["checksum"]


def sampling_on(make_kernel, samples: int = 4000):
    return _sampling_scenario(make_kernel, samples, sampling=True)


def sampling_off(make_kernel, samples: int = 4000):
    return _sampling_scenario(make_kernel, samples, sampling=False)


def sampling_batched(make_kernel, ranks: int = 8, rounds: int = 60):
    """Full tool-stack sampling through the daemon's proc-major batched
    reads; the observables hash every per-process histogram (folds, start
    time and filled bins), so the fast-path vs reference equality pins the
    sampled bytes too."""
    from repro.core import Focus, Paradyn
    from repro.mpi import MpiProgram, MpiUniverse
    from repro.sim import Cluster

    class BenchProgram(MpiProgram):
        name = "bench_sampling"
        module = "bench.c"

        def main(self, mpi):
            yield from mpi.init()
            for r in range(rounds):
                yield from mpi.compute(((mpi.rank * 13 + r * 7) % 5 + 1) / 2000.0)
                peer = mpi.rank ^ 1
                if peer < mpi.size:
                    if mpi.rank < peer:
                        yield from mpi.send(peer, nbytes=64 + (r % 7) * 16, tag=1)
                        yield from mpi.recv(source=peer, tag=2)
                    else:
                        yield from mpi.recv(source=peer, tag=1)
                        yield from mpi.send(peer, nbytes=32, tag=2)
                if r % 8 == 0:
                    yield from mpi.barrier()
            yield from mpi.finalize()

    metrics = ("msgs_sent", "msg_bytes_sent", "msg_sync_wait")
    universe = MpiUniverse(
        kernel=make_kernel(), cluster=Cluster(num_nodes=2, cpus_per_node=4)
    )
    tool = Paradyn(universe, bin_width=0.01)
    for metric in metrics:
        tool.enable(metric, Focus.whole_program())
    universe.launch(BenchProgram(), ranks)
    universe.run()
    events = 0
    checksum = 0
    for metric in metrics:
        data = tool.data(metric, Focus.whole_program())
        for pid in sorted(data.per_process):
            hist = data.per_process[pid]
            checksum = _mix(checksum, round(hist.start_time, 9), pid * 1009 + hist.folds)
            for i, value in enumerate(hist.filled_bins()):
                value = round(value, 9)
                if value:
                    events += 1
                    checksum = _mix(checksum, float(value), i)
    return events, round(universe.kernel.now, 9), checksum


def kernel_row(workload, **size) -> dict:
    """Run one kernel workload on the fast path and on the reference
    kernel; assert their observables equal and return the row."""
    from repro.sim.kernel import Kernel
    from repro.sim.reference import ReferenceKernel

    runs = {}
    for side, factory in (("after", Kernel), ("before", ReferenceKernel)):
        t0 = time.perf_counter()
        events, vtime, checksum = workload(factory, **size)
        runs[side] = (events, round(vtime, 9), checksum), time.perf_counter() - t0
    (observed, wall), (reference, ref_wall) = runs["after"], runs["before"]
    if observed != reference:
        raise AssertionError(
            f"{workload.__name__}: fast-path kernel diverged from the "
            f"reference implementation: {observed} vs {reference}"
        )
    events, vtime, checksum = observed
    eps, ref_eps = _per_sec(events, wall), _per_sec(events, ref_wall)
    return {
        "events": events,
        "virtual_time": vtime,
        "checksum": checksum,
        "wall": round(wall, 6),
        "events_per_sec": eps,
        "reference_events_per_sec": ref_eps,
        "speedup": round(eps / ref_eps, 3) if ref_eps else None,
    }


# -- scale shapes --------------------------------------------------------------
# Each is an MpiProgram whose communication volume is O(ranks) per round,
# so ideal wall-clock scaling is linear in the rank count.


def _programs():
    from repro.mpi.world import MpiProgram

    class BarrierStorm(MpiProgram):
        """Back-to-back MPI_Barrier rounds with a tiny deterministic
        per-rank compute skew (so arrivals are staggered, not degenerate)."""

        name = "scale_barrier"
        module = "scale_barrier.c"

        def __init__(self, rounds: int = 8) -> None:
            self.rounds = rounds

        def main(self, mpi):
            yield from mpi.init()
            for r in range(self.rounds):
                skew = ((mpi.rank * 31 + r * 17) % 64) * 1e-7
                yield from mpi.compute(1e-6 + skew)
                yield from mpi.barrier()
            yield from mpi.finalize()

    class FenceStorm(MpiProgram):
        """Active-target RMA epochs: every rank puts one element to its
        right neighbour inside each fence epoch."""

        name = "scale_fence"
        module = "scale_fence.c"

        def __init__(self, epochs: int = 6) -> None:
            self.epochs = epochs

        def main(self, mpi):
            import numpy as np

            from repro.mpi.datatypes import INT

            yield from mpi.init()
            win = yield from mpi.win_create(4, datatype=INT)
            data = np.full(1, mpi.rank, dtype="i4")
            yield from mpi.win_fence(win)
            for e in range(self.epochs):
                skew = ((mpi.rank * 13 + e * 7) % 32) * 1e-7
                yield from mpi.compute(1e-6 + skew)
                target = (mpi.rank + 1) % mpi.size
                yield from mpi.put(win, target, data)
                yield from mpi.win_fence(win)
            yield from mpi.win_free(win)
            yield from mpi.finalize()

    class GhostExchange(MpiProgram):
        """sstwod-shaped ghost-cell exchange: each iteration every rank
        Sendrecvs with its left and right ring neighbours (the exchng2
        pattern), then a barrier stands in for the residual Allreduce."""

        name = "scale_sstwod"
        module = "scale_sstwod.c"

        def __init__(self, iterations: int = 4, row_bytes: int = 256) -> None:
            self.iterations = iterations
            self.row_bytes = row_bytes

        def main(self, mpi):
            yield from mpi.init()
            right = (mpi.rank + 1) % mpi.size
            left = (mpi.rank - 1) % mpi.size
            for i in range(self.iterations):
                skew = ((mpi.rank * 7 + i * 3) % 16) * 1e-7
                yield from mpi.compute(2e-6 + skew)
                yield from mpi.sendrecv(
                    right, left, send_nbytes=self.row_bytes,
                    recv_nbytes=self.row_bytes, sendtag=21,
                )
                yield from mpi.sendrecv(
                    left, right, send_nbytes=self.row_bytes,
                    recv_nbytes=self.row_bytes, sendtag=22,
                )
                yield from mpi.barrier()
            yield from mpi.finalize()

    class LinearBarrier(MpiProgram):
        """A user-level barrier built from explicit point-to-point: every
        rank reports to rank 0, which then releases everyone -- O(ranks)
        messages serialized through the root.  The flat half of the
        tree-vs-linear comparison."""

        name = "scale_barrier_linear"
        module = "scale_barrier_linear.c"

        def __init__(self, rounds: int = 3) -> None:
            self.rounds = rounds

        def main(self, mpi):
            yield from mpi.init()
            for r in range(self.rounds):
                skew = ((mpi.rank * 29 + r * 11) % 64) * 1e-7
                yield from mpi.compute(1e-6 + skew)
                if mpi.rank == 0:
                    for src in range(1, mpi.size):
                        yield from mpi.recv(source=src, tag=31)
                    for dst in range(1, mpi.size):
                        yield from mpi.send(dst, nbytes=4, tag=32)
                else:
                    yield from mpi.send(0, nbytes=4, tag=31)
                    yield from mpi.recv(source=0, tag=32)
            yield from mpi.finalize()

    class TreeBarrier(MpiProgram):
        """The same user-level barrier over a binary tree: gather up
        (children -> parent), release down -- O(log ranks) rounds of
        concurrent messages instead of a root-serialized scan."""

        name = "scale_barrier_tree"
        module = "scale_barrier_tree.c"

        def __init__(self, rounds: int = 3) -> None:
            self.rounds = rounds

        def main(self, mpi):
            yield from mpi.init()
            rank, size = mpi.rank, mpi.size
            parent = (rank - 1) // 2
            children = [c for c in (2 * rank + 1, 2 * rank + 2) if c < size]
            for r in range(self.rounds):
                skew = ((rank * 23 + r * 13) % 64) * 1e-7
                yield from mpi.compute(1e-6 + skew)
                for child in children:
                    yield from mpi.recv(source=child, tag=41)
                if rank > 0:
                    yield from mpi.send(parent, nbytes=4, tag=41)
                    yield from mpi.recv(source=parent, tag=42)
                for child in children:
                    yield from mpi.send(child, nbytes=4, tag=42)
            yield from mpi.finalize()

    return {
        "barrier": BarrierStorm,
        "barrier_linear": LinearBarrier,
        "barrier_tree": TreeBarrier,
        "fence": FenceStorm,
        "sstwod": GhostExchange,
    }


def _tool_program():
    from repro.mpi.world import MpiProgram

    class ToolBarrier(MpiProgram):
        """The tool shape's workload: a barrier loop where rank 0 computes
        ~6x longer than everyone else, so the Performance Consultant has an
        unambiguous sync bottleneck to find at any rank count."""

        name = "tool_barrier"
        module = "tool_barrier.c"
        default_nprocs = 64
        procs_per_node = 2

        def __init__(self, rounds: int = 6) -> None:
            self.rounds = rounds

        def main(self, mpi):
            yield from mpi.init()
            for r in range(self.rounds):
                if mpi.rank == 0:
                    work = 0.30
                else:
                    work = 0.05 + ((mpi.rank * 31 + r * 17) % 64) * 1e-4
                yield from mpi.compute(work)
                yield from mpi.barrier()
            yield from mpi.finalize()

    return ToolBarrier


def run_tool_cell(ranks: int) -> dict:
    """One tool-mode cell: the full Paradyn stack (daemons, snippets,
    Performance Consultant) over the skewed-barrier program.

    The digest hashes the Consultant's complete search history -- every
    experiment's description, verdict, and rounded value -- plus the
    outcome counts and the virtual end time: the deterministic record of
    what the tool *concluded*.  ``events`` counts instrumentation
    snippets executed across all ranks (the tool-side work driving the
    throughput gate; the kernel keeps no event counter of its own).
    """
    import hashlib

    from repro.analysis.runner import run_program

    t0 = time.perf_counter()
    result = run_program(
        _tool_program()(), impl=IMPL, nprocs=ranks, consultant=True, seed=SEED
    )
    wall = time.perf_counter() - t0
    pc = result.consultant
    if not pc.found("ExcessiveSyncWaitingTime"):
        raise AssertionError(
            f"tool@{ranks}: the Consultant missed the barrier bottleneck:\n"
            + pc.render_search_history()
        )
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
    snippets = sum(ep.proc.snippets_executed for ep in result.world.endpoints)
    digest = hashlib.sha256(
        json.dumps(observables, sort_keys=True).encode()
    ).hexdigest()
    return {
        "ranks": ranks,
        "wall": round(wall, 6),
        "virtual_time": observables["elapsed"],
        "digest": digest,
        "events": snippets,
        "events_per_sec": _per_sec(snippets, wall),
        "experiments": observables["summary"]["total"],
    }


def run_cell(shape: str, ranks: int) -> dict:
    """One (shape, ranks) cell: a sanitized run; returns the observables."""
    from repro.sanitizer.run import sanitize_program

    if shape == "tool":
        return run_tool_cell(ranks)
    program = _programs()[shape]()
    t0 = time.perf_counter()
    report = sanitize_program(program, impl=IMPL, nprocs=ranks, seed=SEED)
    wall = time.perf_counter() - t0
    if report.status != "clean":
        raise AssertionError(
            f"{shape}@{ranks}: expected a clean run, got {report.status}: "
            f"{[f.detail for f in report.findings][:3]}"
        )
    return {
        "ranks": ranks,
        "wall": round(wall, 6),
        "virtual_time": round(report.elapsed, 9),
        "digest": report.trace_digest,
        "events": report.events,
        "events_per_sec": _per_sec(report.events, wall),
    }


def scale_scenarios(rank_counts=DEFAULT_RANKS) -> list:
    """The ``scale/<shape>@<ranks>`` rows over one rank axis; the tool
    shape keeps its own shorter axis (or the smallest requested count)."""
    tool_ranks = [r for r in rank_counts if r in TOOL_RANKS] or [min(rank_counts)]
    axes = {shape: rank_counts for shape in SHAPES}
    axes["tool"] = tool_ranks
    return [
        (f"scale/{shape}@{ranks}", partial(run_cell, shape, ranks))
        for shape, axis in axes.items()
        for ranks in axis
    ]


# -- fleet packing -------------------------------------------------------------


def _sleep_job(spec):
    time.sleep(spec.program_params()["wall"])
    return {"schema": 1, "digest": spec.digest, "spec": spec.to_dict(),
            "status": "ok", "error": None, "result": {}}


def packing() -> dict:
    """LPT packing of known-length sleep jobs submitted shortest-first;
    ``normalized`` is the LPT lower bound over the measured makespan."""
    from repro.fleet.events import EventLog
    from repro.fleet.profiles import ProfileStore
    from repro.fleet.scheduler import FleetScheduler
    from repro.fleet.spec import RunSpec

    specs = [RunSpec.make(f"pack{i:02d}", params={"wall": wall})
             for i, wall in enumerate(PACKING_WALLS)]
    profiles = ProfileStore()
    for spec, wall in zip(specs, PACKING_WALLS):
        profiles.observe(spec, wall)
    pool = FleetScheduler(jobs=PACKING_WORKERS, retries=0, executor=_sleep_job,
                          profiles=profiles, events=EventLog())
    for spec in sorted(specs, key=lambda s: s.program_params()["wall"]):
        pool.submit(spec)
    t0 = time.monotonic()
    results = pool.run()
    makespan = time.monotonic() - t0
    if not all(a["status"] == "ok" for a in results.values()):
        raise AssertionError(f"packing: a sleep job failed: {results}")
    bound = max(max(PACKING_WALLS), sum(PACKING_WALLS) / pool.jobs)
    return {
        "workers": pool.jobs,
        "makespan": round(makespan, 3),
        "lower_bound": round(bound, 3),
        "normalized": bound / makespan,
        "floor": PACKING_FLOOR,
    }


# -- the registry --------------------------------------------------------------

SCENARIOS: list[tuple[str, Callable[..., dict]]] = [
    *(
        (f"kernel/{workload.__name__}", partial(kernel_row, workload))
        for workload in (
            timer_churn, timer_churn_traced, zero_delay_pingpong,
            calls_uninstrumented, calls_instrumented,
            sampling_on, sampling_off, sampling_batched,
        )
    ),
    *scale_scenarios(),
    ("fleet/packing", packing),
]


def calibrate() -> int:
    """The host-speed yardstick: the reference kernel's ``timer_churn``
    events/sec, the median of three runs (one run is ~0.1 s, short enough
    for a burst of host load to move it by a third; every row divides by
    this one number, so its tail would fail rows at random)."""
    import statistics

    from repro.sim.reference import ReferenceKernel

    rates = []
    for _ in range(3):
        t0 = time.perf_counter()
        events, _, _ = timer_churn(ReferenceKernel)
        rates.append(_per_sec(events, time.perf_counter() - t0))
    return statistics.median(rates)


def run(scenarios: list, sizes: dict | None = None) -> dict:
    """Calibrate once, run ``scenarios`` (rows of :data:`SCENARIOS`) and
    normalize each row by the calibration.  ``sizes`` maps a key to
    keyword arguments for its function."""
    from repro.observe.recorder import suspended

    # the measurements are only honest with no recorder listening: detach
    # any caller's (fleet render workers record always-on);
    # kernel/timer_churn_traced installs its own scoped recorder
    with suspended():
        calibration = calibrate()
        rows = {}
        for key, fn in scenarios:
            row = fn(**(sizes or {}).get(key, {}))
            if "normalized" not in row:
                row["normalized"] = (
                    round(row["events_per_sec"] / calibration, 4) if calibration else None
                )
            rows[key] = row
    return {"schema": SCHEMA, "calibration_events_per_sec": calibration,
            "impl": IMPL, "seed": SEED, "scenarios": rows}


def family(prefix: str) -> list:
    """The registry rows whose key starts with ``prefix``."""
    return [(key, fn) for key, fn in SCENARIOS if key.startswith(prefix)]


def check(summary: dict, baseline: dict) -> list[str]:
    """Regression messages (empty = pass).  A row fails below its
    baseline's ``floor``, or else more than the tolerance below its
    baseline's ``normalized``."""
    problems = []
    for key, base in baseline["scenarios"].items():
        row = summary["scenarios"].get(key)
        if row is None:
            problems.append(f"{key}: gated scenario was not run")
            continue
        if "floor" in base:
            floor, why = base["floor"], "its absolute floor"
        else:
            floor = base["normalized"] * (1.0 - REGRESSION_TOLERANCE)
            why = (f">{REGRESSION_TOLERANCE:.0%} below baseline "
                   f"{base['normalized']:.4f}")
        if row["normalized"] is None or row["normalized"] < floor:
            problems.append(
                f"{key}: normalized {row['normalized']} fell {why} (floor {floor:.4f})"
            )
    return problems


def baseline_of(summary: dict) -> dict:
    """The baseline a run would set: each row's floor, or its normalized."""
    return {
        "schema": SCHEMA,
        "scenarios": {
            key: {"floor": row["floor"]} if "floor" in row
            else {"normalized": row["normalized"]}
            for key, row in summary["scenarios"].items()
        },
    }


# -- reports -------------------------------------------------------------------


def render_kernel(summary: dict) -> str:
    lines = [
        "Kernel throughput microbenchmarks (before = seed ReferenceKernel, "
        "after = fast-path Kernel)",
        "",
        f"{'scenario':<22} {'events':>8} {'before ev/s':>12} {'after ev/s':>12} "
        f"{'speedup':>8} {'normalized':>11}",
    ]
    for key, row in summary["scenarios"].items():
        if key.startswith("kernel/"):
            lines.append(
                f"{key.partition('/')[2]:<22} {row['events']:>8} "
                f"{row['reference_events_per_sec']:>12} {row['events_per_sec']:>12} "
                f"{row['speedup'] or 0:>8.2f} {row['normalized'] or 0:>11.4f}"
            )
    lines.append("")
    lines.append(
        f"calibration (reference timer_churn): "
        f"{summary['calibration_events_per_sec']} events/sec; deterministic "
        "observables (events, virtual time, checksum) verified identical "
        "across both kernels"
    )
    return "\n".join(lines)


def render_scale(summary: dict) -> str:
    lines = [
        f"Rank-count scaling sweep ({summary['impl']}, seed {summary['seed']}; "
        "sanitizer attached, `tool` shape runs the full Consultant)",
        "",
        f"{'shape':<14} {'ranks':>6} {'events':>10} {'ev/s':>10} "
        f"{'normalized':>11}  digest",
    ]
    shapes: dict[str, list] = {}
    for key, row in summary["scenarios"].items():
        if key.startswith("scale/"):
            shapes.setdefault(key[len("scale/"):].partition("@")[0], []).append(row)
    for shape, cells in shapes.items():
        for cell in cells:
            lines.append(
                f"{shape:<14} {cell['ranks']:>6} {cell['events']:>10} "
                f"{cell['events_per_sec']:>10} {cell['normalized'] or 0:>11.4f}  "
                f"{cell['digest'][:12]}"
            )
        base, top = cells[0], cells[-1]
        wall_ratio = round(top["wall"] / base["wall"], 3) if base["wall"] > 0 else None
        lines.append(
            f"{'':<14} wall x{wall_ratio} over ranks "
            f"x{top['ranks'] / base['ranks']:g}"
        )
    lines.append("")
    lines.append(
        "digests and virtual times are deterministic observables; walls are "
        "measured on this host"
    )
    return "\n".join(lines)


# -- bench entry points (tier-1 smoke, fleet render, pytest benchmarks/) -------
# They only emit their reports: BENCH_kernel.json is written by main() alone.


def test_kernel_throughput(benchmark):
    summary = once(benchmark, lambda: run(family("kernel/")))
    emit("kernel_throughput", render_kernel(summary))


def test_scale_ranks(benchmark):
    summary = once(benchmark, lambda: run(family("scale/")))
    emit("scale_ranks", render_scale(summary))


# -- command line --------------------------------------------------------------


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=BENCH_OUT,
                        help="where to write the JSON summary")
    parser.add_argument("--check", type=pathlib.Path, default=None,
                        help="baseline JSON to gate against (CI perf-smoke)")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"refresh {BASELINE} from this run")
    parser.add_argument("--full", action="store_true",
                        help=f"sweep the full rank axis {FULL_RANKS}")
    parser.add_argument("--ranks", type=int, nargs="+", default=None,
                        help="override the rank axis (e.g. --ranks 16 64)")
    args = parser.parse_args(argv)

    scenarios = SCENARIOS
    if args.ranks or args.full:
        scale = scale_scenarios(args.ranks or FULL_RANKS)
        scenarios = [*family("kernel/"), *scale, *family("fleet/")]
    summary = run(scenarios)
    packed = summary["scenarios"]["fleet/packing"]
    print(render_kernel(summary), render_scale(summary), sep="\n\n")
    print(f"\nfleet packing: makespan {packed['makespan']}s vs LPT bound "
          f"{packed['lower_bound']}s on {packed['workers']} worker(s) "
          f"({packed['makespan'] / packed['lower_bound']:.0%})")
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"[written {args.out}]")

    if args.write_baseline:
        BASELINE.write_text(json.dumps(baseline_of(summary), indent=2) + "\n")
        print(f"[baseline refreshed at {BASELINE}]")

    if args.check is not None:
        problems = check(summary, json.loads(args.check.read_text()))
        if problems:
            print("PERF REGRESSION:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print("perf gates OK (every row above its floor)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
