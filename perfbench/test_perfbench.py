"""Checks of the benchmark's own machinery.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

The main check: tracing must not change what the program computes, so a
traced run's fingerprints equal an untraced run's, on small versions of
each workload's operations.
"""

from __future__ import annotations

import pytest

import run

run._require_source()

from metrics import _distribution  # noqa: E402
from programs import SHAPES, ToolBarrier  # noqa: E402
from tracer import PROBES, SpanRecorder, Tracer, timed, timed_generator  # noqa: E402
from workloads import Counters, _sanitize_step, _tool_step  # noqa: E402


def _small_steps():
    """A tool run, a 1024-rank-style tool cell and two sanitizer shapes,
    all at 16 ranks."""
    from repro.pperfmark.catalog import resolve_program

    steps = [
        _tool_step("small_messages/lam", resolve_program("small_messages", quick=True),
                   "lam", 0, ()),
        _tool_step("tool", ToolBarrier(rounds=3), "refmpi", 0,
                   (("ExcessiveSyncWaitingTime",),), nprocs=16),
    ]
    steps += [_sanitize_step(shape, SHAPES[shape](), 0) for shape in ("fence", "barrier_tree")]
    return steps


def _fingerprints(steps):
    out = {}
    for step in steps:
        for outcome in step.check(step.run(), Counters()):
            assert not outcome.problems, outcome.problems
            out[outcome.label] = outcome.fingerprint
    return out


def test_traced_run_matches_untraced(monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "RANKS", 16)
    untraced = _fingerprints(_small_steps())
    rec = SpanRecorder()
    with Tracer(rec):
        traced = _fingerprints(_small_steps())
    assert traced == untraced
    # every layer the steps reach was traced
    spans = rec.summarize()
    for name in ("sim.run", "sim.call", "mpi.api", "dyninst.snippet",
                 "dyninst.insert", "core.procs_matching", "core.instrument_proc",
                 "core.sample", "sanitizer.run", "sanitizer.hook"):
        assert spans[name]["spans"] > 0, name
    assert rec.count("sim.schedule") > 0


def test_uninstall_restores_every_probe():
    import importlib

    def snapshot():
        out = {}
        for module_name, owner_name, attr, _, _ in PROBES:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            for name, value in vars(owner).items():
                if attr in ("*api", name):
                    out[(module_name, owner_name, name)] = value
        return out

    before = snapshot()
    tracer = Tracer(SpanRecorder()).install()
    assert snapshot() != before
    with tracer.paused():
        assert snapshot() == before
    tracer.uninstall()
    assert snapshot() == before


def test_self_time_excludes_children():
    rec = SpanRecorder()
    clock = iter([0.0, 1.0, 3.0, 10.0])
    import tracer as tracer_mod

    real = tracer_mod.time.perf_counter
    tracer_mod.time.perf_counter = lambda: next(clock)
    try:
        outer = rec.opener()(rec.name_id("outer"))
        inner = rec.opener()(rec.name_id("inner"))
        rec.closer()(inner)
        rec.closer()(outer)
    finally:
        tracer_mod.time.perf_counter = real
    spans = rec.summarize()
    assert spans["inner"] == {"spans": 1, "total_s": 2.0, "self_s": 2.0}
    assert spans["outer"] == {"spans": 1, "total_s": 10.0, "self_s": 8.0}


def test_generator_wrapper_times_each_resumption():
    rec = SpanRecorder()

    def body(n):
        total = 0
        for i in range(n):
            total += yield i
        return total

    wrapped = timed_generator(rec, "gen", body)

    def driver():
        result = yield from wrapped(3)
        return result

    gen = driver()
    assert next(gen) == 0
    assert gen.send(10) == 1
    assert gen.send(20) == 2
    with pytest.raises(StopIteration) as stop:
        gen.send(30)
    assert stop.value.value == 60
    # one span for the call, one per resumption (four sends)
    assert rec.summarize()["gen"]["spans"] == 5
    assert rec.count("gen") == 1
    assert len(rec.call_durations["gen"]) == 1


def test_generator_wrapper_forwards_throw_and_close():
    rec = SpanRecorder()
    seen = []

    def body():
        try:
            yield 1
        except KeyError:
            seen.append("thrown")
            yield 2
        finally:
            seen.append("closed")

    gen = timed_generator(rec, "gen", body)()
    assert next(gen) == 1
    assert gen.throw(KeyError("x")) == 2
    gen.close()
    assert seen == ["thrown", "closed"]
    assert not rec.stack


def test_timed_wrapper_keeps_results_and_errors():
    rec = SpanRecorder()
    ok = timed(rec, "f", lambda x: x * 2)
    assert ok(21) == 42

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        timed(rec, "g", boom)()
    assert rec.count("f") == 1 and rec.count("g") == 1
    assert not rec.stack


def test_distribution_tail_has_ten_samples_beyond():
    rec = SpanRecorder()
    durations = rec.durations("x")
    for i in range(1000):
        durations.append(i * 1e-6)
    dist = _distribution(rec, "x")
    assert dist["samples"] == 1000
    assert dist["tail_pctl"] == 99.0  # 10 samples beyond p99, 1 beyond p99.9
    assert dist["p50_us"] == pytest.approx(499.5)
