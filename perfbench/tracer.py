"""Span recorder and entry-point wrappers for the traced run.

The traced run measures each layer from outside: it wraps the public entry
points of ``repro``'s layers (see :data:`PROBES`) and records a span for
every call.  A span is a row of five columns -- name, start, end, parent
span and operation id -- held in ``array`` buffers in memory and written
out once, when the run ends.

* A generator-returning entry point (``SimProcess.call``, the ``MpiApi``
  methods) gets one span for the call and one for each resumption of the
  generator it returns; timing only the call would time nothing but
  generator creation.  Its per-call duration is the sum of those spans.
* Cheap, very frequent entry points (``Kernel.schedule``,
  ``FoldingHistogram.add``) are counted, not timed.
* Self time is a span's duration minus the time its child spans cover,
  computed after the run from the parent column.

Fork-started fleet workers inherit the wrappers; an at-fork hook removes
them in the child, so worker internals stay untraced.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import weakref
from array import array
from pathlib import Path
from types import GeneratorType
from typing import Any, Callable, Iterator

__all__ = ["SpanRecorder", "Tracer", "PROBES", "layer_of"]

#: Layers whose spans are attributed, in report order.
LAYERS = ("sim", "mpi", "dyninst", "core", "sanitizer", "fleet")


def layer_of(span_name: str) -> str:
    """``"core.sample"`` -> ``"core"``; the benchmark's own spans -> ``bench``."""
    head = span_name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


class SpanRecorder:
    """Columnar, append-only span storage plus call counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("H")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.op_col = array("H")
        self.stack: list[int] = []
        #: per-name call counts (timed and count-only entry points alike)
        self.counts: dict[str, list[int]] = {}
        #: per-name inclusive duration of every call, for distributions
        self.call_durations: dict[str, array] = {}
        self.op = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def counter(self, name: str) -> list[int]:
        """A one-cell list the wrappers increment in place."""
        return self.counts.setdefault(name, [0])

    def durations(self, name: str) -> array:
        return self.call_durations.setdefault(name, array("d"))

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def opener(self) -> Callable[[int], int]:
        """``open(name_id) -> span index``, with every lookup hoisted."""
        name_append = self.name_col.append
        start_append = self.start_col.append
        end_append = self.end_col.append
        parent_append = self.parent_col.append
        op_append = self.op_col.append
        stack = self.stack
        push = stack.append
        clock = time.perf_counter
        rec = self

        def open_span(nid: int) -> int:
            idx = len(rec.start_col)
            name_append(nid)
            parent_append(stack[-1] if stack else -1)
            op_append(rec.op)
            end_append(0.0)
            push(idx)
            start_append(clock())
            return idx

        return open_span

    def closer(self) -> Callable[[int], float]:
        """``close(span index) -> duration``."""
        start_col = self.start_col
        end_col = self.end_col
        pop = self.stack.pop
        clock = time.perf_counter

        def close_span(idx: int) -> float:
            end = clock()
            end_col[idx] = end
            pop()
            return end - start_col[idx]

        return close_span

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        idx = self.opener()(self.name_id(name))
        try:
            yield
        finally:
            self.closer()(idx)

    def write(self, path: Path) -> None:
        """Write every span to ``path`` (``.npz``: one array per column)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_col, dtype=np.uint16),
            start=np.frombuffer(self.start_col, dtype=np.float64),
            end=np.frombuffer(self.end_col, dtype=np.float64),
            parent=np.frombuffer(self.parent_col, dtype=np.int32),
            op=np.frombuffer(self.op_col, dtype=np.uint16),
        )

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name: ``spans``, inclusive ``total_s`` and ``self_s``."""
        import numpy as np

        n = len(self.names)
        if not len(self.start_col):
            return {}
        name = np.frombuffer(self.name_col, dtype=np.uint16).astype(np.intp)
        start = np.frombuffer(self.start_col, dtype=np.float64)
        end = np.frombuffer(self.end_col, dtype=np.float64)
        parent = np.frombuffer(self.parent_col, dtype=np.int32).astype(np.intp)
        duration = end - start
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        self_time = duration - covered
        spans = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=duration, minlength=n)
        own = np.bincount(name, weights=self_time, minlength=n)
        return {
            self.names[i]: {
                "spans": int(spans[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
            }
            for i in range(n)
        }


# -- wrappers ------------------------------------------------------------------


def timed(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    """One span per call."""
    nid = rec.name_id(name)
    open_span, close_span = rec.opener(), rec.closer()
    calls = rec.counter(name)
    record = rec.durations(name).append

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[0] += 1
        idx = open_span(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            record(close_span(idx))

    return wrapper


def timed_generator(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    """One span for the call, then one per resumption of the returned
    generator; the call's duration is the sum of them all."""
    nid = rec.name_id(name)
    open_span, close_span = rec.opener(), rec.closer()
    calls = rec.counter(name)
    record = rec.durations(name).append

    def resumed(gen: Iterator, spent: float):
        value = None
        error: BaseException | None = None
        try:
            while True:
                idx = open_span(nid)
                try:
                    item = gen.send(value) if error is None else gen.throw(error)
                except StopIteration as stop:
                    spent += close_span(idx)
                    return stop.value
                except BaseException:
                    spent += close_span(idx)
                    raise
                spent += close_span(idx)
                error = None
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # thrown in by the driver
                    error, value = exc, None
        finally:
            record(spent)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[0] += 1
        idx = open_span(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            record(close_span(idx))
            raise
        spent = close_span(idx)
        if type(result) is not GeneratorType:  # e.g. compute(0) returns ()
            record(spent)
            return result
        return resumed(result, spent)

    return wrapper


def counted(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    """Count calls only: for entry points too frequent and too cheap to
    time without the timing dominating them."""
    calls = rec.counter(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    return wrapper


def _snippet_init(rec: SpanRecorder, name: str, init: Callable) -> Callable:
    """``Snippet`` compiles its statements into the ``_run`` closure, and
    ``SimProcess`` calls that closure directly, bypassing
    ``Snippet.execute``; so the closure of every snippet built while
    tracing is what gets timed."""
    nid = rec.name_id(name)
    open_span, close_span = rec.opener(), rec.closer()
    calls = rec.counter(name)
    record = rec.durations(name).append

    def timed_run(run: Callable) -> Callable:
        def run_snippet(proc, frame, at_entry):
            calls[0] += 1
            idx = open_span(nid)
            try:
                return run(proc, frame, at_entry)
            finally:
                record(close_span(idx))

        return run_snippet

    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._run = timed_run(self._run)

    return wrapper


# -- what is probed --------------------------------------------------------------


def _mpi_api_methods(cls: type) -> list[str]:
    return [
        attr
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and callable(value)
    ]


#: ``(module, owner, attribute, kind, span name)``.  ``owner`` is a class
#: name or ``None`` for a module-level function; ``attribute`` ``"*api"``
#: expands to every public ``MpiApi`` method.
PROBES: tuple[tuple[str, str | None, str, str, str], ...] = (
    ("repro.sim.kernel", "Kernel", "run", "timed", "sim.run"),
    ("repro.sim.kernel", "Kernel", "schedule", "counted", "sim.schedule"),
    ("repro.sim.process", "SimProcess", "call", "generator", "sim.call"),
    ("repro.mpi.runtime", "MpiApi", "*api", "generator", "mpi.api"),
    ("repro.mpi.world", "MpiUniverse", "launch", "timed", "mpi.launch"),
    ("repro.dyninst.snippets", "Snippet", "__init__", "snippet", "dyninst.snippet"),
    ("repro.dyninst.mutator", "Mutator", "insert", "timed", "dyninst.insert"),
    ("repro.dyninst.mutator", "Mutator", "delete", "timed", "dyninst.delete"),
    ("repro.core.frontend", "Frontend", "procs_matching", "timed", "core.procs_matching"),
    ("repro.core.frontend", "Frontend", "enable", "timed", "core.enable"),
    ("repro.core.daemon", "Daemon", "instrument_proc", "timed", "core.instrument_proc"),
    ("repro.core.daemon", "Daemon", "sample_now", "timed", "core.sample"),
    ("repro.core.histogram", "FoldingHistogram", "add", "counted", "core.histogram_add"),
    ("repro.core.metrics", None, "build_library", "timed", "core.mdl_compile"),
    ("repro.core.tool", None, "build_library", "timed", "core.mdl_compile"),
    ("repro.core", None, "build_library", "timed", "core.mdl_compile"),
    ("repro.sanitizer.run", None, "sanitize_program", "timed", "sanitizer.run"),
    ("repro.sanitizer.core", "Sanitizer", "_on_process", "timed", "sanitizer.hook"),
    ("repro.sanitizer.core", "Sanitizer", "_on_comm", "timed", "sanitizer.hook"),
    ("repro.sanitizer.core", "Sanitizer", "_on_window", "timed", "sanitizer.hook"),
    ("repro.sanitizer.core", "Sanitizer", "_on_rma_op", "timed", "sanitizer.hook"),
    ("repro.sanitizer.core", "Sanitizer", "_on_event", "timed", "sanitizer.hook"),
    ("repro.sanitizer.core", "Sanitizer", "_on_trace", "timed", "sanitizer.hook"),
    ("repro.sanitizer.core", "Sanitizer", "on_deadlock", "timed", "sanitizer.hook"),
    ("repro.sanitizer.core", "Sanitizer", "finalize_checks", "timed", "sanitizer.finalize"),
    ("repro.fleet.cache", "ResultCache", "get", "timed", "fleet.cache_get"),
    ("repro.fleet.cache", "ResultCache", "put", "timed", "fleet.cache_put"),
    ("repro.fleet.spec", "RunSpec", "digest", "cached_property", "fleet.digest"),
)

_WRAPPERS = {
    "timed": timed,
    "generator": timed_generator,
    "counted": counted,
    "snippet": _snippet_init,
}


class Tracer:
    """Installs the :data:`PROBES` wrappers into a :class:`SpanRecorder`
    and restores the originals on :meth:`uninstall`."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._saved: list[tuple[Any, str, Any]] = []
        ref = weakref.ref(self)

        def in_child() -> None:
            tracer = ref()
            if tracer is not None:
                tracer.uninstall()

        os.register_at_fork(after_in_child=in_child)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        import importlib

        for module_name, owner_name, attr, kind, span in PROBES:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            if kind == "cached_property":
                func = vars(owner)[attr].func
                prop = functools.cached_property(timed(self.rec, span, func))
                prop.__set_name__(owner, attr)
                self._patch(owner, attr, prop)
                continue
            attrs = _mpi_api_methods(owner) if attr == "*api" else [attr]
            for name in attrs:
                self._patch(owner, name, _WRAPPERS[kind](self.rec, span, vars(owner)[name]))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Originals back in place, e.g. while the benchmark checks results."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()
