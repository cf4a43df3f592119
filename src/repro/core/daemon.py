"""The tool daemon (paradynd): attaches, instruments, samples, detects.

One daemon runs per cluster node and is assigned the application processes
on that node (Section 4 of the paper).  Its jobs here:

* **attach**: walk a new process's image into the Code hierarchy, install
  the instrumentation-runtime builtins (``MPI_Type_size``,
  ``DYNINSTWindow_FindUniqueId``, ``DYNINSTCommId``), and insert the
  *detection* snippets -- ``MPI_Win_create``/``MPI_Win_free`` return-point
  hooks for dynamic window discovery and retirement (Section 4.2.1), and
  name-change hooks for MPI-2 object naming (Section 4.2.3);
* **instrument**: instantiate metric-focus pairs through the MDL compiler;
* **sample**: read every active counter/timer each sample interval and
  forward deltas to the front end's histograms.

The per-snippet perturbation cost models the intrusion dynamic
instrumentation adds to the mutatee.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..dyninst.mutator import Mutator
from ..dyninst.snippets import Arg, BuiltinCall, ExprStmt, ReturnValue, Snippet
from .frontend import Frontend, MetricFocusData, NativeInstance
from .mdl import MdlCompileError, instantiate_metric
from .resources import Focus

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Kernel
    from ..sim.process import SimProcess

__all__ = ["Daemon"]


class Daemon:
    """paradynd for one node."""

    def __init__(
        self,
        frontend: Frontend,
        kernel: "Kernel",
        node_name: str,
        *,
        mpi_implementation: str = "",
        sample_interval: Optional[float] = None,
        snippet_cost: float = 0.0,
    ) -> None:
        self.frontend = frontend
        self.kernel = kernel
        self.node_name = node_name
        #: the optional daemon attribute added in Section 4.1 so one tool
        #: session can drive either LAM or MPICH on non-shared filesystems.
        self.mpi_implementation = mpi_implementation
        self.sample_interval = sample_interval or frontend.bin_width
        self.snippet_cost = snippet_cost
        self.procs: list[Any] = []
        #: the subset of ``procs`` the sampler still walks.  ``procs`` and
        #: the front end's path index record every attach forever
        #: (tool-facing state); exited processes leave these live
        #: structures right after the sample pass that reads their final
        #: deltas, so steady-state sampling is O(live processes), not
        #: O(ever attached)
        self._live: list[Any] = []
        self._live_set: set[int] = set()
        #: procs whose exit hook fired since the last sample pass
        self._exited_pending: list[Any] = []
        self.mutators: dict[int, Mutator] = {}
        self._sampling = False
        #: proc-major batched reads on the sample path (one pass per process
        #: over its bound instances, plan cached between structural changes);
        #: clear to fall back to the pair-major scan
        self.batched_sampling = True
        self._sample_plan: Optional[list] = None
        frontend.add_daemon(self)

    # ------------------------------------------------------------------ attach

    def attach(self, proc: "SimProcess") -> None:
        """Attach to a process: resources, builtins, detection snippets."""
        if proc.node.name != self.node_name:
            raise ValueError(
                f"daemon on {self.node_name} asked to attach pid {proc.pid} "
                f"on {proc.node.name}"
            )
        self.procs.append(proc)
        self.frontend.index_process(self, proc)
        self._live.append(proc)
        self._live_set.add(id(proc))
        proc.snippet_cost = self.snippet_cost
        mutator = Mutator(proc)
        self.mutators[proc.pid] = mutator

        # retirement: exited processes gray out and leave the PC search;
        # the daemon stops sampling them after one final post-exit pass
        def on_exit(exited_proc, _daemon=self):
            node_path = f"/Machine/{exited_proc.node.name}/pid{exited_proc.pid}"
            hierarchy = _daemon.frontend.hierarchy
            if hierarchy.exists(node_path):
                hierarchy.retire(hierarchy.find(node_path))
            _daemon._exited_pending.append(exited_proc)

        proc.exit_hooks.append(on_exit)

        # Code hierarchy: modules and functions from the symbol table.
        for fn in proc.image.app_functions():
            self.frontend.hierarchy.add_function(fn.module.name, fn.name)
        # MPI entry points are interesting refinement targets too.
        for fn in proc.image.functions():
            if "mpi" in fn.tags:
                self.frontend.hierarchy.add_function(fn.module.name, fn.name)
        self.frontend.report_new_process(proc)

        # instrumentation-runtime builtins
        mutator.register_builtin("MPI_Type_size", lambda p, f, dtype: dtype.size)
        mutator.register_builtin("DYNINSTCommId", lambda p, f, comm: comm.cid)
        mutator.register_builtin(
            "DYNINSTWindow_FindUniqueId",
            lambda p, f, win: self.frontend.window_uid(win),
        )
        mutator.register_builtin(
            "DYNINSTReportNewWindow",
            lambda p, f, win: self.frontend.report_new_window(win),
        )
        mutator.register_builtin(
            "DYNINSTReportWindowFreed",
            lambda p, f, win: self.frontend.report_window_freed(win),
        )
        mutator.register_builtin(
            "DYNINSTReportName",
            lambda p, f, obj, name: self.frontend.report_name_change(obj, name),
        )
        mutator.register_builtin(
            "DYNINSTReportTag",
            lambda p, f, comm, tag: self.frontend.report_tag(comm, tag),
        )

        self._install_detection(mutator)
        self.invalidate_sample_plan()
        self._ensure_sampling()

    def _install_detection(self, mutator: Mutator) -> None:
        """Window discovery/retirement and naming hooks (Sections 4.2.1/4.2.3)."""
        handle = mutator.handle(label="detection")

        def hook(builtin: str, *args) -> Snippet:
            return Snippet([ExprStmt(BuiltinCall(builtin, args))], label=f"detect:{builtin}")

        mutator.insert_if_present(
            handle, "MPI_Win_create", "return",
            hook("DYNINSTReportNewWindow", ReturnValue()),
        )
        mutator.insert_if_present(
            handle, "MPI_Win_free", "entry",
            hook("DYNINSTReportWindowFreed", Arg(0)),
        )
        mutator.insert_if_present(
            handle, "MPI_Win_set_name", "return",
            hook("DYNINSTReportName", Arg(0), Arg(1)),
        )
        mutator.insert_if_present(
            handle, "MPI_Comm_set_name", "return",
            hook("DYNINSTReportName", Arg(0), Arg(1)),
        )
        # message-tag discovery: one resource per (communicator, tag) seen
        for fname in ("MPI_Send", "MPI_Isend"):
            mutator.insert_if_present(
                handle, fname, "entry", hook("DYNINSTReportTag", Arg(5), Arg(4))
            )
        mutator.insert_if_present(
            handle, "MPI_Sendrecv", "entry", hook("DYNINSTReportTag", Arg(10), Arg(4))
        )

    # --------------------------------------------------------------- instrument

    def instrument_proc(self, data: MetricFocusData, proc: "SimProcess") -> None:
        """Instantiate a metric-focus pair on one of this daemon's processes."""
        if id(proc) in data.by_proc:
            return  # already instrumented (re-attach path)
        if self.frontend.is_native(data.metric_name):
            sampler = self.frontend.native_sampler(data.metric_name)
            instance: Any = NativeInstance(
                metric_name=data.metric_name,
                focus=data.focus,
                proc=proc,
                sampler=sampler,
            )
            instance._last = sampler(proc)
        else:
            mutator = self.mutators[proc.pid]
            instance = instantiate_metric(
                self.frontend.library, data.metric_name, data.focus, mutator
            )
        data.instances.append(instance)
        data.by_proc[id(proc)] = instance
        self.invalidate_sample_plan()

    # ------------------------------------------------------------------- sample

    def invalidate_sample_plan(self) -> None:
        """Drop the cached proc-major read plan; the next sample pass
        rebuilds it.  Called on every structural change: attach, new
        instrumentation, pair disable, process retirement."""
        self._sample_plan = None

    def _build_sample_plan(self) -> list:
        """Group every live (pair, instance) binding by process, in the
        daemon's live-process order with pair order preserved within each
        process.  Rebuilt only when instrumentation or process membership
        changes, so steady-state sampling walks one flat list per process
        instead of re-filtering every pair's instance list each tick; a
        rebuild costs this daemon's live processes x active pairs."""
        active = [data for data in self.frontend.enabled.values() if data.active]
        plan = []
        for proc in self._live:
            key = id(proc)
            entries = [
                (data, data.by_proc[key]) for data in active if key in data.by_proc
            ]
            if entries:
                plan.append((proc, entries))
        return plan

    def _ensure_sampling(self) -> None:
        if not self._sampling:
            self._sampling = True
            self.kernel.schedule(self.sample_interval, self._sample_tick)

    def _current_interval(self) -> float:
        """Sampling interval, coupled to histogram folding as in Paradyn:
        when bins double (long runs), sampling slows down with them -- the
        constant-memory property extends to a constant data *rate*."""
        max_folds = 0
        for data in self.frontend.enabled.values():
            if data.active and data.max_folds > max_folds:
                max_folds = data.max_folds
        return self.sample_interval * (2 ** max_folds)

    def _sample_tick(self) -> None:
        now = self.kernel.now
        interval = self._current_interval()
        # a delta sampled at t covers (t - interval, t]; record it at the
        # midpoint so histogram bins line up with when the work happened
        self.sample_now(now, record_at=now - interval / 2.0)
        if self._live:
            self.kernel.schedule(self._current_interval(), self._sample_tick)
        else:
            self._sampling = False

    def sample_now(self, now: float, record_at: float = None) -> None:
        """Read all active instrumentation on this daemon's processes.

        The whole batch of metric reads happens in one pass with the loop
        invariants hoisted: constant-time membership via the identity set,
        one ``when`` computation per pair, no per-instance attribute
        re-lookup.  Sampling runs once per process per interval for every
        enabled pair, so this is the tool-overhead hot path the paper's
        cost model is about."""
        if record_at is None:
            record_at = now
        observe = self.frontend.cost_tracker.observe
        for proc in self._live:
            if not proc.exited:
                observe(proc, now)
        if self.batched_sampling:
            # proc-major: each process's bound instances read back to back
            # from the cached plan.  Reordering the reads is histogram-safe:
            # every (pair, pid) owns its own FoldingHistogram and gets
            # exactly one delta per pass, so the bytes match the pair-major
            # scan bin for bin.
            plan = self._sample_plan
            if plan is None:
                plan = self._sample_plan = self._build_sample_plan()
            whens: dict[int, float] = {}
            for proc, entries in plan:
                pid = proc.pid
                for data, instance in entries:
                    when = whens.get(id(data))
                    if when is None:
                        enabled_at = data.enabled_at
                        when = record_at if record_at > enabled_at else enabled_at
                        whens[id(data)] = when
                    delta = instance.sample_delta()
                    if delta:
                        data.record(pid, when, delta)
        else:
            proc_set = self._live_set
            for data in self.frontend.enabled.values():
                if not data.active:
                    continue
                instances = data.instances
                if not instances:
                    continue
                enabled_at = data.enabled_at
                when = record_at if record_at > enabled_at else enabled_at
                record = data.record
                for instance in instances:
                    proc = instance.proc
                    if id(proc) not in proc_set:
                        continue
                    delta = instance.sample_delta()
                    if delta:
                        record(proc.pid, when, delta)
        if self._exited_pending:
            # this pass read the final deltas of freshly-exited procs
            # (recorded at the same tick the always-scan used to record
            # them); from the next pass on they cost nothing
            for proc in self._exited_pending:
                if id(proc) in self._live_set:
                    self._live_set.discard(id(proc))
                    self._live.remove(proc)
            self._exited_pending.clear()
            self.invalidate_sample_plan()
