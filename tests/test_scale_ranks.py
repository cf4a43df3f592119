"""The rank-count scaling axis: golden digests and O(live) sampling.

The scale PR (batched kernel cohorts, copy-on-write/interned vector
clocks, O(live) daemon sampling) is a pure performance change: every
deterministic observable of a sanitized run -- the trace digest, the
final virtual time, the event count -- must be *byte-identical* to the
pre-change implementation.  The goldens below were recorded with the
eager dict-per-event vector clocks and the unbatched kernel; any digest
drift here means the refactor changed behaviour, not just speed.

Tier-1 runs the reduced sweep (16/64 ranks); the full-scale cells
(256/1024 ranks, the tentpole target) are ``slow``-marked and ride in
CI's full suite pass.  Also here: the regression test for the daemon
dropping exited processes from its sampling structures (satellite of
the same PR).
"""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))

import bench_scale_ranks as bench

from conftest import ScriptProgram, make_universe

# (shape, ranks) -> (trace digest, virtual time, event count), recorded
# before the sparse-clock/batched-kernel rewrite (the byte-identity oracle)
GOLDEN = {
    ("barrier", 16): ("3139ed01348d902626a7dd84b7a4ecfd8bccfa981012d5cc312d2597e1a68b25", 0.0031176, 567),
    ("barrier", 64): ("6d07aa335bb83368a393f3dc78e51fdd0f7918898430fd1e51df71b45d0a27b0", 0.0031224, 2295),
    ("barrier", 256): ("91daf4471958a2719ba56066c0fb041fc8b325ccc8a48779f3dead886d7e897c", 0.0031224, 9207),
    ("barrier", 1024): ("9da47c5eefefc0c3c3ce98b77e76faac928a9baaa55d77a88b8176c630277e18", 0.0031224, 36855),
    # user-level barriers built from explicit point-to-point: the flat
    # rank-0 funnel vs the binary gather/release tree.  The virtual times
    # pin the expected algorithmic gap (linear grows with ranks, tree
    # grows with log ranks)
    ("barrier_linear", 16): ("98b7156dbe41537e808482ccdde701ba6a40dd69eb478789ae08e8e491b8238c", 0.008470816, 602),
    ("barrier_linear", 64): ("65ff150b7bf06cbea48078618dc81080547cb5d1e1e9db96cef3ff23a304bab1", 0.025813424, 2522),
    ("barrier_linear", 256): ("41b7dca01e12ab4e7fb7b8766d2080ae7f89d181e575be4b66647047e8edc619", 0.095183859, 10202),
    ("barrier_linear", 1024): ("56a528025e26a7ba3bc05a27b3723d5b1fed7cd6243822d5249eb27faa8dc53e", 0.372665598, 40922),
    ("barrier_tree", 16): ("fb20d6698521c747a4cb201141561b2495cb10090c8c08a9ae37afe0d1cce187", 0.008106746, 629),
    ("barrier_tree", 64): ("57843c61fc8aec89553b816dec68db089362c8cc1787aec16813c0a43025554d", 0.011471581, 2648),
    ("barrier_tree", 256): ("9296f8b600e7fe2941965cd6b25a21c2e0f9c73f18987e7289555b2fc46bc650", 0.014838015, 10736),
    ("barrier_tree", 1024): ("b9139a3c284008eb52be09a65aae2ce111df82ad31be1cfd52e56da55f718cd8", 0.01820445, 43096),
    ("fence", 16): ("13ff9d2b1cc06469d8a2860c62eced377af90ec784681c5b1e36797e819be847", 0.003255887, 1334),
    ("fence", 64): ("a5b22055416e7906283a8b6f5aadfbcb7aed2f207e1cd8136326350bb906e71a", 0.003256687, 5366),
    ("fence", 256): ("f61828d823491cb8580b1d19b80f865e4173d6de8d60eede6e9e45405880610e", 0.003256687, 21494),
    ("fence", 1024): ("f3d33ea397c673880470062411cfbffa23538cd9c0ca0ad31b68317c5a9d2360", 0.003256687, 86006),
    ("sstwod", 16): ("3d037f46580a9e16e46039c873bc8dfc435e36ce79bfe60fa8ef565e758bff48", 0.004720409, 1179),
    ("sstwod", 64): ("cd8e91b61dd238ad374048534d41f6ce0fbecf23736afe3731a62323f2b791f3", 0.004720409, 4731),
    ("sstwod", 256): ("3c1103dd505973f302aeb09742a39341698c993543d0c809ed668a7b9b36c001", 0.004720409, 18939),
    ("sstwod", 1024): ("0f62e3add8f802e4daec3753c10cccb95aaa3937c0ad2016c808f461ac730d18", 0.004720409, 75771),
    # the tool shape's digest hashes the Consultant search history (every
    # experiment, verdict, rounded value) instead of a sanitizer trace;
    # events counts instrumentation snippets executed across all ranks
    ("tool", 16): ("b8e687cd6e68382cc944ec86a6612c735d25686b202a25e702254bb56fbd5c7a", 2.0, 323),
    ("tool", 64): ("7f3ff0686a66aa48907eec0d10aee10d10376b5b5053cb3655a35b4b8e3993f4", 2.0, 751),
    ("tool", 1024): ("68a23c10e818b5c0086d4096a4809003c4f9e70b23cb04ae632f1f68ced0d941", 2.0, 4217),
}

SHAPES = ("barrier", "barrier_linear", "barrier_tree", "fence", "sstwod")


def _check_cell(shape: str, ranks: int) -> None:
    cell = bench.run_cell(shape, ranks)
    digest, virtual_time, events = GOLDEN[(shape, ranks)]
    assert cell["digest"] == digest, (shape, ranks, cell["digest"])
    assert cell["virtual_time"] == virtual_time, (shape, ranks)
    assert cell["events"] == events, (shape, ranks)


@pytest.mark.parametrize("shape", SHAPES)
def test_golden_digests_reduced(shape):
    """Tier-1 oracle: 16- and 64-rank cells match the pre-change goldens."""
    _check_cell(shape, 16)
    _check_cell(shape, 64)


@pytest.mark.slow
@pytest.mark.parametrize("shape", SHAPES)
def test_golden_digests_full_scale(shape):
    """The tentpole cells: 256 and 1024 ranks, same byte-identity bar."""
    _check_cell(shape, 256)
    _check_cell(shape, 1024)


def test_golden_tool_digests_reduced():
    """Tier-1 oracle for the tool shape: the full Paradyn/Consultant run's
    search history is byte-stable at 16 and 64 ranks."""
    _check_cell("tool", 16)
    _check_cell("tool", 64)


@pytest.mark.slow
def test_golden_tool_digest_full_scale():
    """The Consultant at a thousand ranks: ~10s of wall, so slow-marked;
    the digest pins the whole instrument-sample-decide-refine loop."""
    _check_cell("tool", 1024)


def test_tree_barrier_beats_linear_at_scale():
    """The comparison the two shapes exist for: the tree barrier's virtual
    completion time grows ~log(ranks) while the rank-0 funnel grows
    linearly, so the gap widens with the rank count (asserted over the
    pinned goldens -- no extra runs)."""
    for ranks in (64, 256, 1024):
        linear_t = GOLDEN[("barrier_linear", ranks)][1]
        tree_t = GOLDEN[("barrier_tree", ranks)][1]
        assert tree_t < linear_t, ranks
    gap_64 = GOLDEN[("barrier_linear", 64)][1] / GOLDEN[("barrier_tree", 64)][1]
    gap_1024 = GOLDEN[("barrier_linear", 1024)][1] / GOLDEN[("barrier_tree", 1024)][1]
    assert gap_1024 > gap_64 > 1.0


def test_run_cell_deterministic_in_process():
    """Same cell twice in one process: identical observables (the bench's
    determinism contract, independent of the goldens)."""
    a = bench.run_cell("barrier", 16)
    b = bench.run_cell("barrier", 16)
    for key in ("digest", "virtual_time", "events"):
        assert a[key] == b[key]


# -- daemon drops exited processes from the sampling hot path ----------------


def test_daemon_drops_exited_procs_from_sampling():
    """Processes leave the daemon's live sampling structures right after
    the pass that reads their final deltas; the attach-forever tool state
    (``procs`` and the front end's path index) keeps them."""
    from repro.core import Paradyn

    # MPI_Finalize barriers a world, so staggered exits need two
    # single-rank worlds: one exits early, one keeps the run alive long
    # enough for several sample passes after that exit
    def short_script(mpi):
        yield from mpi.init()
        yield from mpi.compute(0.2)
        yield from mpi.finalize()

    def long_script(mpi):
        yield from mpi.init()
        yield from mpi.compute(1.0)
        yield from mpi.finalize()

    universe = make_universe()
    tool = Paradyn(universe)
    tool.enable("cpu")
    universe.launch(ScriptProgram(short_script, name="short"), 1)
    universe.launch(ScriptProgram(long_script, name="long"), 1)

    seen = {}

    def probe():
        # ranks may be spread over several node daemons; aggregate
        seen["live"] = [p for d in tool.daemons for p in d._live]
        seen["live_exited"] = [p.exited for p in seen["live"]]
        seen["procs"] = [p for d in tool.daemons for p in d.procs]

    # by t=0.7 rank 0 has exited and at least one sample pass has drained it
    universe.kernel.schedule(0.7, probe)
    universe.run()

    assert len(seen["procs"]) == 2  # attach state is forever
    live_mid = seen["live"]
    assert len(live_mid) == 1 and seen["live_exited"] == [False]
    assert live_mid[0].name == "long"  # the early exiter was drained
    # after the run every proc has exited and been drained everywhere
    for daemon in tool.daemons:
        assert daemon._live == [] and daemon._live_set == set()
        assert not daemon._sampling
        assert all(tool.frontend._owner[id(p)] is daemon for p in daemon.procs)
    assert sum(len(d.procs) for d in tool.daemons) == 2
    # the early-exiting rank still recorded its cpu time (final deltas are
    # read in the same pass that drains the proc)
    data = tool.data("cpu")
    early = min(seen["procs"], key=lambda p: p.pid)
    assert data.histogram_for(early.pid).total() == pytest.approx(0.2, rel=0.25)
