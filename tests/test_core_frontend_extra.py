"""Frontend data-path details: sampling, aggregation, update protocol."""

import pytest

from repro.core import Focus, Paradyn
from repro.core.frontend import MetricFocusData

from conftest import ScriptProgram, make_universe


class TestMetricFocusDataMath:
    def _data(self, bin_width=1.0, num_bins=10):
        return MetricFocusData(
            "m", Focus.whole_program(),
            num_bins=num_bins, bin_width=bin_width, start_time=0.0, normalized=True,
        )

    def test_value_over_partial_window(self):
        data = self._data()
        data.record(1, 0.5, 10.0)
        data.record(1, 1.5, 10.0)
        # [0.5, 1.5) covers half of each bin
        assert data.value_over(0.5, 1.5) == pytest.approx(10.0)
        assert data.value_over(0.0, 2.0) == pytest.approx(20.0)

    def test_mean_vs_max_normalized(self):
        data = self._data()
        data.record(1, 0.5, 1.0)   # busy process
        data.record(2, 0.5, 0.0)   # idle process
        assert data.mean_normalized(0.0, 1.0) == pytest.approx(0.5)
        assert data.max_normalized(0.0, 1.0) == pytest.approx(1.0)

    def test_aggregate_histogram_sums_processes(self):
        data = self._data()
        data.record(1, 0.5, 3.0)
        data.record(2, 0.5, 4.0)
        agg = data.aggregate_histogram()
        assert agg.total() == pytest.approx(7.0)

    def test_empty_data_is_zero(self):
        data = self._data()
        assert data.mean_normalized(0.0, 1.0) == 0.0
        assert data.max_normalized(0.0, 1.0) == 0.0
        assert data.total() == 0.0


class TestSamplingPipeline:
    def test_periodic_sampling_builds_time_series(self):
        """A steady sender produces an approximately flat rate histogram."""

        def script(mpi):
            yield from mpi.init()
            if mpi.rank == 0:
                for _ in range(100):
                    yield from mpi.send(1, tag=1)
                    yield from mpi.compute(0.02)
            else:
                for _ in range(100):
                    yield from mpi.recv(source=0, tag=1)
            yield from mpi.finalize()

        universe = make_universe()
        tool = Paradyn(universe)
        tool.enable("msgs_sent")
        universe.launch(ScriptProgram(script), 2)
        universe.run()
        hist = tool.data("msgs_sent").aggregate_histogram()
        rates = hist.rates()
        interior = rates[1:-1]
        assert len(interior) >= 5
        assert interior.min() > 0.5 * interior.max()  # roughly steady

    def test_histograms_fold_on_long_runs(self):
        def script(mpi):
            yield from mpi.init()
            for _ in range(40):
                yield from mpi.compute(0.1)
                if mpi.rank == 0:
                    yield from mpi.send(1, tag=1)
                else:
                    yield from mpi.recv(source=0, tag=1)
            yield from mpi.finalize()

        universe = make_universe()
        tool = Paradyn(universe, num_bins=8, bin_width=0.2)  # tiny capacity
        tool.enable("msgs_sent")
        universe.launch(ScriptProgram(script), 2)
        universe.run()
        data = tool.data("msgs_sent")
        hist = data.histogram_for(universe.worlds[0].endpoints[0].proc.pid)
        assert hist.folds >= 1
        assert hist.total() == 40  # folding loses no events

    def test_sampling_stops_after_processes_exit(self):
        def script(mpi):
            yield from mpi.init()
            yield from mpi.compute(0.5)
            yield from mpi.finalize()

        universe = make_universe()
        tool = Paradyn(universe)
        tool.enable("cpu")
        universe.launch(ScriptProgram(script), 2)
        universe.run()
        # the kernel drained: no sampler left re-scheduling itself
        assert universe.kernel.now < 1.5
        for daemon in tool.daemons:
            assert not daemon._sampling


class TestUpdateProtocol:
    def test_updates_log_records_lifecycle(self):
        from repro.mpi import INT

        def script(mpi):
            yield from mpi.init()
            win = yield from mpi.win_create(4, datatype=INT)
            yield from mpi.win_set_name(win, "W")
            yield from mpi.win_free(win)
            yield from mpi.finalize()

        universe = make_universe()
        tool = Paradyn(universe)
        universe.launch(ScriptProgram(script), 2)
        universe.run()
        kinds = [kind for kind, _ in tool.hierarchy.updates]
        assert "new" in kinds and "named" in kinds and "retired" in kinds
        named = [p for k, p in tool.hierarchy.updates if k == "named"]
        assert any("=W" in p for p in named)

    def test_retired_window_excluded_from_pc_candidates(self):
        from repro.core.consultant import PerformanceConsultant
        from repro.mpi import INT

        def script(mpi):
            yield from mpi.init()
            win1 = yield from mpi.win_create(4, datatype=INT)
            yield from mpi.win_free(win1)
            win2 = yield from mpi.win_create(4, datatype=INT)
            yield from mpi.win_fence(win2)
            yield from mpi.win_free(win2)
            yield from mpi.finalize()

        universe = make_universe()
        tool = Paradyn(universe)
        universe.launch(ScriptProgram(script), 2)
        universe.run()
        pc = tool.consultant
        refinements = pc._sync_refinements(
            Focus.whole_program().with_sync_object("/SyncObject/Window")
        )
        assert refinements == []  # both windows retired: no candidates


class TestFoldCoupledSampling:
    def test_sampler_interval_follows_folds(self):
        """Paradyn doubles the sampling interval when histograms fold."""

        def script(mpi):
            yield from mpi.init()
            for _ in range(50):
                yield from mpi.compute(0.1)
                if mpi.rank == 0:
                    yield from mpi.send(1, tag=1)
                else:
                    yield from mpi.recv(source=0, tag=1)
            yield from mpi.finalize()

        universe = make_universe()
        tool = Paradyn(universe, num_bins=8, bin_width=0.2)
        tool.enable("msgs_sent")
        universe.launch(ScriptProgram(script), 2)
        universe.run()
        daemon = tool.daemons[0]
        hist = next(iter(tool.data("msgs_sent").per_process.values()))
        assert hist.folds >= 1
        assert daemon._current_interval() == pytest.approx(
            daemon.sample_interval * 2**hist.folds
        )


class TestPartialRuns:
    def test_stopping_early_leaves_usable_data(self):
        def script(mpi):
            yield from mpi.init()
            for _ in range(1000):
                yield from mpi.compute(0.05)
                if mpi.rank == 0:
                    yield from mpi.send(1, tag=1)
                else:
                    yield from mpi.recv(source=0, tag=1)
            yield from mpi.finalize()

        universe = make_universe()
        tool = Paradyn(universe)
        tool.enable("msgs_sent")
        universe.launch(ScriptProgram(script), 2)
        universe.run(until=5.0)  # stop mid-run (an interactive session)
        assert universe.kernel.now == pytest.approx(5.0)
        partial = tool.data("msgs_sent").total()
        assert 50 <= partial <= 105  # ~one message per 0.05s, minus lag


def _linear_procs_matching(frontend, focus):
    """The pre-index focus matcher: one path build and prefix test per
    attached process, walked in daemon order then attach order.  Kept
    here as the oracle the path index must reproduce list for list."""
    component = focus.machine
    selected = []
    for daemon in frontend.daemons:
        for proc in daemon.procs:
            path = f"/Machine/{proc.node.name}/pid{proc.pid}"
            if path == component or path.startswith(component + "/") or component == "/Machine":
                selected.append(proc)
    return selected


def _idle(mpi):
    yield from mpi.init()
    yield from mpi.finalize()


class TestMachinePathIndex:
    def test_index_matches_linear_scan(self):
        universe = make_universe(num_nodes=12)
        # unpadded names, so "node1" is a string prefix of "node10"
        for node in universe.cluster.nodes:
            node.name = f"node{node.index}"
        tool = Paradyn(universe)
        frontend = tool.frontend
        # 22 ranks fill node0..node10; the later world wraps the
        # round-robin placement onto node11 and back onto node0
        universe.launch(ScriptProgram(_idle, name="first"), 22)
        data = tool.enable("cpu")
        universe.launch(ScriptProgram(_idle, name="late"), 4)
        late = universe.worlds[1].endpoints
        assert {ep.proc.node.name for ep in late} == {"node11", "node0"}

        procs = frontend.all_procs()
        assert len(procs) == 26
        node1_pid = next(p for p in procs if p.node.name == "node1").pid
        late_pid = late[-1].proc.pid
        paths = [
            "/Machine",
            "/Machine/node0",
            "/Machine/node1",
            "/Machine/node10",
            "/Machine/node11",
            f"/Machine/node1/pid{node1_pid}",
            f"/Machine/node0/pid{late_pid}",
            f"/Machine/node1/pid{node1_pid}/thread0",  # deeper than a pid
            "/Machine/node12",  # unknown node
            "/Machine/node1/pid100",  # a prefix of pid100N, not a pid
            "/Machine/",
            "/Machine/node",
        ]
        for path in paths:
            focus = Focus.whole_program().with_machine(path)
            expected = _linear_procs_matching(frontend, focus)
            assert [id(p) for p in frontend.procs_matching(focus)] == [
                id(p) for p in expected
            ], path

        node1 = frontend.procs_matching(Focus.whole_program().with_machine("/Machine/node1"))
        assert node1 and all(p.node.name == "node1" for p in node1)
        node0 = frontend.procs_matching(Focus.whole_program().with_machine("/Machine/node0"))
        assert node0[-1] is late[-1].proc  # attach order within the node
        # the whole-machine pair enabled before the late world covers it
        assert [id(inst.proc) for inst in data.instances] == [
            id(p) for p in procs if p.name == "first"
        ] + [id(ep.proc) for ep in late]


class TestEnableCallCounts:
    """Call counts, not timings: enabling a pair costs one focus lookup
    plus one instrument call per matching process."""

    RANKS = 64

    @pytest.fixture
    def counted(self, monkeypatch):
        from repro.core.daemon import Daemon
        from repro.core.frontend import Frontend

        calls = {"procs_matching": 0, "instrument_proc": 0}

        def count(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        count(Frontend, "procs_matching")
        count(Daemon, "instrument_proc")
        universe = make_universe(num_nodes=self.RANKS // 2)
        tool = Paradyn(universe)
        universe.launch(ScriptProgram(_idle), self.RANKS)
        return tool, calls

    def test_single_pid_focus(self, counted):
        tool, calls = counted
        proc = tool.frontend.all_procs()[37]
        focus = Focus.whole_program().with_machine(
            f"/Machine/{proc.node.name}/pid{proc.pid}"
        )
        data = tool.enable("msgs_sent", focus)
        assert calls == {"procs_matching": 1, "instrument_proc": 1}
        assert [inst.proc for inst in data.instances] == [proc]

    def test_whole_program_enable(self, counted):
        tool, calls = counted
        data = tool.enable("msgs_sent")
        assert calls == {"procs_matching": 1, "instrument_proc": self.RANKS}
        assert len(data.instances) == len(data.by_proc) == self.RANKS

    def test_reenabling_active_pair_is_a_no_op(self, counted):
        tool, calls = counted
        data = tool.enable("msgs_sent")
        calls.update(procs_matching=0, instrument_proc=0)
        assert tool.enable("msgs_sent") is data
        assert calls == {"procs_matching": 0, "instrument_proc": 0}
        assert len(data.instances) == self.RANKS

    def test_enable_disable_enable_instruments_each_proc_once(self, counted):
        tool, calls = counted
        first = tool.enable("msgs_sent")
        tool.disable("msgs_sent")
        assert first.instances == [] and first.by_proc == {}
        calls.update(procs_matching=0, instrument_proc=0)
        second = tool.enable("msgs_sent")
        assert second is not first
        assert calls == {"procs_matching": 1, "instrument_proc": self.RANKS}
        assert [id(inst.proc) for inst in second.instances] == [
            id(p) for p in tool.frontend.all_procs()
        ]
