"""The tool front end: data management, resource updates, metric-focus pairs.

Paradyn consists of a front-end process that collects and visualizes data
and searches for bottlenecks, plus daemons on each node (Section 4 of the
paper).  This module is the front end: it owns the Resource Hierarchy, the
per-(metric, focus) histograms, the window-id uniquifier, and the update
protocol the paper added for MPI-2 object naming and retirement
(Section 4.2.3): daemons send update reports; the front end refreshes the
display name or grays the resource out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from .costmodel import DEFAULT_COST_LIMIT, CostTracker
from .histogram import FoldingHistogram
from .mdl import MdlLibrary, MetricInstance
from .metrics import NATIVE_METRICS, SYSTEM_TIME_METRIC
from .resources import Focus, Resource, ResourceHierarchy

if TYPE_CHECKING:  # pragma: no cover
    from .daemon import Daemon

__all__ = ["Frontend", "MetricFocusData", "NativeInstance"]


@dataclass
class NativeInstance:
    """A metric sampled straight from process clocks (cpu, exec_time)."""

    metric_name: str
    focus: Focus
    proc: Any
    sampler: Callable[[Any], float]
    _last: float = 0.0

    def sample_delta(self) -> float:
        value = self.sampler(self.proc)
        delta = value - self._last
        self._last = value
        return delta

    def delete(self) -> None:  # no instrumentation to remove
        pass


class MetricFocusData:
    """All data for one enabled metric-focus pair."""

    def __init__(
        self,
        metric_name: str,
        focus: Focus,
        *,
        num_bins: int,
        bin_width: float,
        start_time: float,
        normalized: bool,
    ) -> None:
        self.metric_name = metric_name
        self.focus = focus
        self.normalized = normalized
        self.enabled_at = start_time
        self.num_bins = num_bins
        self.bin_width = bin_width
        self.per_process: dict[int, FoldingHistogram] = {}
        self.instances: list[Any] = []  # MetricInstance | NativeInstance
        #: id(proc) -> that process's instance (at most one per process):
        #: the already-instrumented check and the daemons' sample-plan
        #: rebuilds look a process up here instead of scanning ``instances``
        self.by_proc: dict[int, Any] = {}
        self.active = True
        #: running max of ``folds`` over ``per_process`` -- folds only ever
        #: happen inside :meth:`record`, so tracking the max there keeps the
        #: daemon's fold-coupled interval check O(pairs), not O(pairs x ranks)
        self.max_folds = 0

    def histogram_for(self, pid: int) -> FoldingHistogram:
        hist = self.per_process.get(pid)
        if hist is None:
            hist = FoldingHistogram(
                num_bins=self.num_bins,
                bin_width=self.bin_width,
                start_time=self.enabled_at,
                name=f"{self.metric_name}@{self.focus.describe()}#pid{pid}",
            )
            self.per_process[pid] = hist
        return hist

    def record(self, pid: int, time: float, delta: float) -> None:
        hist = self.histogram_for(pid)
        hist.add(time, delta)
        if hist.folds > self.max_folds:
            self.max_folds = hist.folds

    # -- analysis ---------------------------------------------------------------

    @property
    def num_processes(self) -> int:
        return max(1, len(self.per_process))

    def total(self) -> float:
        return sum(h.total() for h in self.per_process.values())

    def aggregate_histogram(self) -> FoldingHistogram:
        """Sum the per-process histograms (aggregateOperator sum)."""
        agg = FoldingHistogram(
            num_bins=self.num_bins,
            bin_width=self.bin_width,
            start_time=self.enabled_at,
            name=f"{self.metric_name}@{self.focus.describe()}#agg",
        )
        for hist in self.per_process.values():
            width = hist.bin_width
            for i, value in enumerate(hist.filled_bins()):
                if value:
                    agg.add(hist.start_time + (i + 0.5) * width, float(value))
        return agg

    def value_over(self, t0: float, t1: float) -> float:
        """Accumulated value in [t0, t1) across processes (approximate to
        bin granularity, like Paradyn's own evaluations)."""
        total = 0.0
        for hist in self.per_process.values():
            width = hist.bin_width
            bins = hist.filled_bins()
            for i, value in enumerate(bins):
                b0 = hist.start_time + i * width
                b1 = b0 + width
                overlap = max(0.0, min(b1, t1) - max(b0, t0))
                if overlap > 0.0 and value:
                    total += float(value) * (overlap / width)
        return total

    def mean_normalized(self, t0: float, t1: float) -> float:
        """Value per process per second over [t0, t1) -- the quantity
        hypothesis thresholds compare against (a fraction of one CPU for
        normalized metrics)."""
        span = t1 - t0
        if span <= 0.0:
            return 0.0
        return self.value_over(t0, t1) / span / self.num_processes

    def _value_over_hist(self, hist: FoldingHistogram, t0: float, t1: float) -> float:
        width = hist.bin_width
        total = 0.0
        for i, value in enumerate(hist.filled_bins()):
            if not value:
                continue
            b0 = hist.start_time + i * width
            overlap = max(0.0, min(b0 + width, t1) - max(b0, t0))
            if overlap > 0.0:
                total += float(value) * (overlap / width)
        return total

    def max_normalized(self, t0: float, t1: float) -> float:
        """The *worst process's* per-second value over [t0, t1).

        The Performance Consultant tests hypotheses against this: a
        bottleneck on any process is worth refining, even when averaging
        over the whole job would dilute it (an overloaded server among
        idle clients, the paper's intensive-server scenario)."""
        span = t1 - t0
        if span <= 0.0 or not self.per_process:
            return 0.0
        return max(
            self._value_over_hist(hist, t0, t1) / span
            for hist in self.per_process.values()
        )


class Frontend:
    """Front-end state: hierarchy, enabled pairs, naming/retirement."""

    def __init__(
        self,
        library: Optional[MdlLibrary] = None,
        *,
        num_bins: int = 1000,
        bin_width: float = 0.2,
        extended_native: bool = False,
    ) -> None:
        from .metrics import build_library

        self.library = library or build_library()
        self.hierarchy = ResourceHierarchy()
        self.num_bins = num_bins
        self.bin_width = bin_width
        self.daemons: list["Daemon"] = []
        #: "/Machine/<node>" and "/Machine/<node>/pid<N>" -> processes in
        #: attach order, filled by Daemon.attach; with one daemon per node
        #: a lookup is already in (daemon, attach) order
        self._procs_by_path: dict[str, list[Any]] = {}
        self._owner: dict[int, "Daemon"] = {}  # id(proc) -> owning daemon
        self.enabled: dict[tuple[str, Focus], MetricFocusData] = {}
        self._seen_tags: set[tuple[int, int]] = set()
        self._window_uids: dict[int, str] = {}  # id(win) -> "N-M"
        self._native = dict(NATIVE_METRICS)
        if extended_native:
            self._native.update(SYSTEM_TIME_METRIC)
        #: Paradyn-style observed instrumentation cost (see core.costmodel)
        self.cost_tracker = CostTracker(DEFAULT_COST_LIMIT)

    # -- daemons ---------------------------------------------------------------

    def add_daemon(self, daemon: "Daemon") -> None:
        self.daemons.append(daemon)

    def all_procs(self) -> list[Any]:
        return [proc for daemon in self.daemons for proc in daemon.procs]

    def index_process(self, daemon: "Daemon", proc: Any) -> None:
        """Record a newly attached process under its /Machine paths."""
        node_path = f"/Machine/{proc.node.name}"
        self._procs_by_path.setdefault(node_path, []).append(proc)
        self._procs_by_path.setdefault(f"{node_path}/pid{proc.pid}", []).append(proc)
        self._owner[id(proc)] = daemon

    def procs_matching(self, focus: Focus) -> list[Any]:
        """Processes selected by the focus's /Machine component."""
        component = focus.machine
        if component == "/Machine":
            return self.all_procs()
        return list(self._procs_by_path.get(component, ()))

    # -- resource updates (daemon -> front end protocol) -----------------------------

    def report_new_process(self, proc: Any) -> Resource:
        return self.hierarchy.add_process(proc.node.name, proc.pid, obj=proc)

    def report_new_communicator(self, comm: Any) -> Resource:
        return self.hierarchy.add_communicator(comm)

    #: tag resources are capped per communicator (runaway programs could
    #: otherwise flood the hierarchy with one resource per message)
    MAX_TAGS_PER_COMM = 50

    def report_tag(self, comm: Any, tag: int) -> None:
        """A daemon saw a send with this (communicator, tag) pair."""
        if tag < 0:
            return
        key = (comm.cid, tag)
        if key in self._seen_tags:
            return
        self._seen_tags.add(key)
        path = f"/SyncObject/Message/comm_{comm.cid}"
        if not self.hierarchy.exists(path):
            self.report_new_communicator(comm)
        node = self.hierarchy.find(path)
        if len(node.children) < self.MAX_TAGS_PER_COMM:
            self.hierarchy.add_message_tag(node, tag)

    def report_new_window(self, win: Any) -> str:
        """Register a window; returns its unique N-M identifier.

        Every daemon reports the windows its own processes create, so the
        same (collectively created) window arrives once per rank; the
        front end de-duplicates by object identity."""
        existing = self._window_uids.get(id(win))
        if existing is not None:
            return existing
        node = self.hierarchy.add_window(win)
        self._window_uids[id(win)] = node.name
        return node.name

    def window_uid(self, win: Any) -> str:
        uid = self._window_uids.get(id(win))
        if uid is None:
            uid = self.report_new_window(win)
        return uid

    def report_window_freed(self, win: Any) -> None:
        node = self.hierarchy.window_resource_for(win)
        if node is not None:
            self.hierarchy.retire(node)
        self._window_uids.pop(id(win), None)

    def report_name_change(self, obj: Any, name: str) -> None:
        """A daemon saw MPI_{Comm,Win}_set_name: update the display."""
        node: Optional[Resource] = None
        if hasattr(obj, "win_id"):
            node = self.hierarchy.window_resource_for(obj)
            # LAM stores window names in the window's hidden communicator
            # (Figure 23): mirror the name onto that resource as well
            internal = getattr(obj, "internal_comm", None)
            if internal is not None:
                path = f"/SyncObject/Message/comm_{internal.cid}"
                if self.hierarchy.exists(path):
                    self.hierarchy.set_display_name(self.hierarchy.find(path), name)
        elif hasattr(obj, "cid"):
            path = f"/SyncObject/Message/comm_{obj.cid}"
            if self.hierarchy.exists(path):
                node = self.hierarchy.find(path)
        if node is not None:
            self.hierarchy.set_display_name(node, name)

    # -- metric-focus management -----------------------------------------------------

    def is_native(self, metric_name: str) -> bool:
        return metric_name in self._native

    def metric_is_normalized(self, metric_name: str) -> bool:
        if metric_name in self._native:
            return self._native[metric_name][0] == "normalized"
        return self.library.metric(metric_name).units_type == "normalized"

    def enable(self, metric_name: str, focus: Focus, *, now: float) -> MetricFocusData:
        """Enable a metric-focus pair: instrument every matching process."""
        key = (metric_name, focus)
        data = self.enabled.get(key)
        if data is not None and data.active:
            return data
        data = MetricFocusData(
            metric_name,
            focus,
            num_bins=self.num_bins,
            bin_width=self.bin_width,
            start_time=now,
            normalized=self.metric_is_normalized(metric_name),
        )
        self.enabled[key] = data
        for proc in self.procs_matching(focus):
            self._owner[id(proc)].instrument_proc(data, proc)
        return data

    def disable(self, metric_name: str, focus: Focus) -> None:
        data = self.enabled.get((metric_name, focus))
        if data is None:
            return
        for instance in data.instances:
            # final sample so accumulation since the last daemon tick is
            # not lost with the instrumentation
            delta = instance.sample_delta()
            if delta:
                data.record(instance.proc.pid, instance.proc.kernel.now, delta)
            instance.delete()
        data.instances.clear()
        data.by_proc.clear()
        data.active = False
        for daemon in self.daemons:
            daemon.invalidate_sample_plan()

    def attach_new_process(self, proc: Any) -> None:
        """Extend already-enabled whole-machine pairs onto a newly attached
        process (spawned children join ongoing measurements)."""
        daemon = self._owner[id(proc)]
        for data in self.enabled.values():
            if data.active and data.focus.machine == "/Machine":
                daemon.instrument_proc(data, proc)

    def native_sampler(self, metric_name: str) -> Callable[[Any], float]:
        return self._native[metric_name][1]
