"""The benchmark's own workload inputs.

The ``ranks_1024`` workload runs a skewed-barrier program under the full
tool and five communication shapes under the sanitizer, all at 1024 ranks
with ``refmpi``.  The programs are kept here, not imported from the bench
harness, so a change to the harness cannot change what the benchmark
measures.  Each shape's communication volume is O(ranks) per round.
"""

from __future__ import annotations

from repro.mpi.datatypes import INT
from repro.mpi.world import MpiProgram


class BarrierStorm(MpiProgram):
    """Back-to-back MPI_Barrier rounds with a small per-rank compute skew."""

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


class LinearBarrier(MpiProgram):
    """A user-level barrier from point-to-point: every rank reports to
    rank 0, which then releases everyone."""

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
    """The same user-level barrier over a binary gather/release tree."""

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


class FenceStorm(MpiProgram):
    """Active-target RMA: every rank puts one element to its right
    neighbour inside each fence epoch."""

    name = "scale_fence"
    module = "scale_fence.c"

    def __init__(self, epochs: int = 6) -> None:
        self.epochs = epochs

    def main(self, mpi):
        import numpy as np

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
    """sstwod-shaped ghost exchange: Sendrecv with both ring neighbours,
    then a barrier standing in for the residual Allreduce."""

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


class ToolBarrier(MpiProgram):
    """A barrier loop where rank 0 computes ~6x longer than the others, so
    the Performance Consultant has one sync bottleneck to find."""

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


#: sanitizer shapes of ``ranks_1024``, in run order
SHAPES = {
    "barrier": BarrierStorm,
    "barrier_linear": LinearBarrier,
    "barrier_tree": TreeBarrier,
    "fence": FenceStorm,
    "sstwod": GhostExchange,
}
