"""Incremental, parallel render: determinism and invalidation.

These tests run the real harness (``benchmarks/common.py``, copied
verbatim) over a *synthetic* bench suite in a tmp dir (``REPRO_BENCH_DIR``),
so they can edit bench sources and consumed artifacts freely and assert:

* reports are byte-identical across serial render, parallel (scheduler)
  render, and cache-restored (incremental) render;
* an unchanged re-sweep skips every bench (``render.skipped == benches``);
* editing one bench module re-renders exactly that bench;
* editing ``common.py`` or a consumed warm artifact invalidates correctly;
* collection failures are counted, reported, and fail the sweep CLI.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import textwrap
from pathlib import Path

import pytest

from repro.fleet import (
    RunSpec,
    ResultCache,
    collect_render_plan,
    render_benchmarks,
    run_sweep,
    sweep_specs,
    to_bytes,
)
from repro.fleet.cli import add_fleet_parser, cmd_fleet

REAL_COMMON = Path(__file__).resolve().parents[1] / "benchmarks" / "common.py"

ALPHA = """\
import common


def test_alpha(benchmark):
    value = common.once(benchmark, lambda: "alpha-v1")
    common.emit("alpha", f"alpha report: {value}")
"""

# mirrors the pc_figure collect protocol: records the spec it consumes and
# raises CollectOnly; at render time the artifact comes from the warm cache
BETA = """\
import os

import common
from repro.fleet import CollectOnly, RunSpec, default_cache, run_cached

SPEC = RunSpec.make(
    "fake_prog", mode="tool", impl="lam",
    params={"n": int(os.environ.get("REPRO_TEST_BETA_N", "1"))},
)


def test_beta(benchmark):
    if common.FLEET_COLLECT is not None:
        common.FLEET_COLLECT.append(SPEC)
        raise CollectOnly("beta")
    artifact = run_cached(SPEC, default_cache())
    common.emit("beta", "beta consumed: " + artifact["result"]["value"])
"""


def fake_tool_artifact(spec: RunSpec, value: str) -> bytes:
    return to_bytes({
        "schema": 1,
        "digest": spec.digest,
        "spec": spec.to_dict(),
        "status": "ok",
        "error": None,
        "result": {"value": value},
    })


@pytest.fixture
def bench_env(tmp_path, monkeypatch):
    """A synthetic two-bench suite + private cache, fully env-isolated."""
    bench = tmp_path / "benches"
    bench.mkdir()
    shutil.copy(REAL_COMMON, bench / "common.py")
    (bench / "bench_alpha.py").write_text(ALPHA)
    (bench / "bench_beta.py").write_text(BETA)
    monkeypatch.setenv("REPRO_BENCH_DIR", str(bench))
    monkeypatch.setenv("REPRO_CODE_VERSION", "render-test")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_TEST_BETA_N", raising=False)
    saved = {
        name: sys.modules.pop(name, None)
        for name in ("common", "bench_alpha", "bench_beta")
    }
    yield bench
    for name in ("common", "bench_alpha", "bench_beta"):
        module = saved.get(name)
        if module is not None:
            sys.modules[name] = module
        else:
            sys.modules.pop(name, None)


def beta_spec() -> RunSpec:
    from repro.fleet.render import _import_from, bench_dir

    return _import_from(bench_dir(), "bench_beta").SPEC


def warm_beta_artifact(value: str = "V1") -> RunSpec:
    spec = beta_spec()
    cache = ResultCache()
    cache.put(spec.digest, fake_tool_artifact(spec, value))
    return spec


def read_reports(bench: Path) -> dict[str, bytes]:
    reports = bench / "reports"
    if not reports.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(reports.glob("*.txt"))}


def sweep(**kwargs) -> dict:
    kwargs.setdefault("suite", "bench")
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("retries", 0)
    return run_sweep(**kwargs)


# ---------------------------------------------------------------- collection


def test_plan_collects_render_keys_and_consumes(bench_env):
    plan = collect_render_plan()
    assert not plan.failures
    by_target = {entry.target: entry for entry in plan.benches}
    assert set(by_target) == {"bench_alpha::test_alpha", "bench_beta::test_beta"}
    alpha = by_target["bench_alpha::test_alpha"]
    beta = by_target["bench_beta::test_beta"]
    assert alpha.opaque and alpha.consumes == ()
    assert not beta.opaque
    assert beta.consumes == (beta_spec().digest,)
    assert [spec.digest for spec in plan.specs] == [beta_spec().digest]
    for entry in plan.benches:
        assert entry.spec.mode == "render"
    # collection must not have executed the opaque body (no report written)
    assert read_reports(bench_env) == {}


def test_sweep_specs_include_render_keys_for_gc(bench_env):
    specs = sweep_specs("bench")
    modes = {spec.mode for spec in specs}
    assert modes == {"tool", "render"}
    assert sum(1 for spec in specs if spec.mode == "render") == 2


def test_collect_failure_is_reported_not_swallowed(bench_env):
    (bench_env / "bench_broken.py").write_text(
        "def test_broken(benchmark):\n    raise RuntimeError('bad bench')\n"
    )
    plan = collect_render_plan()
    assert len(plan.failures) == 1
    target, error = plan.failures[0]
    assert target == "bench_broken::test_broken"
    assert "bad bench" in error
    # the broken bench is not planned; the healthy ones still are
    assert len(plan.benches) == 2
    warm_beta_artifact()
    summary = sweep()
    assert summary["collect"]["failed"] == 1
    assert summary["collect"]["failures"] == [list(plan.failures[0])]


def test_cli_sweep_exits_nonzero_on_collect_failure(bench_env, capsys):
    (bench_env / "bench_broken.py").write_text(
        "def test_broken(benchmark):\n    raise RuntimeError('bad bench')\n"
    )
    warm_beta_artifact()
    parser = argparse.ArgumentParser()
    add_fleet_parser(parser.add_subparsers(dest="command"))
    args = parser.parse_args(
        ["fleet", "sweep", "--suite", "bench", "--jobs", "2",
         "--retries", "0", "--bench-out", "-"]
    )
    assert cmd_fleet(args) == 1
    out = capsys.readouterr().out
    assert "COLLECT FAILED bench_broken::test_broken" in out


# -------------------------------------------------------------- determinism


def test_reports_byte_identical_serial_parallel_and_cached(bench_env):
    warm_beta_artifact()
    # serial in-process oracle
    ran, failures = render_benchmarks()
    assert (ran, failures) == (2, [])
    serial = read_reports(bench_env)
    assert set(serial) == {"alpha.txt", "beta.txt"}
    shutil.rmtree(bench_env / "reports")

    # cold parallel render through the scheduler: both benches execute once
    # (the one pool runs opaque alpha and dependency-admitted beta)
    cold = sweep()
    assert cold["render"]["benches"] == 2
    assert cold["render"]["skipped"] == 0
    assert cold["render"]["rendered"] == 2
    assert cold["render"]["failed"] == 0
    assert read_reports(bench_env) == serial
    shutil.rmtree(bench_env / "reports")

    # warm incremental render: everything restored from cache
    warm = sweep()
    assert warm["render"]["skipped"] == warm["render"]["benches"] == 2
    assert warm["render"]["rendered"] == 0
    assert warm["counts"]["completed"] == 0  # nothing executed anywhere
    assert read_reports(bench_env) == serial


def test_render_jobs_go_through_the_scheduler(bench_env):
    warm_beta_artifact()
    summary = sweep()
    kinds = {row["job"]: row["kind"] for row in summary["per_job"]}
    assert kinds == {
        "render:bench_alpha::test_alpha/bench": "opaque-render",
        "render:bench_beta::test_beta/bench": "render",
        "tool:fake_prog/lam": "experiment",
    }
    per_bench = summary["render"]["per_bench"]
    assert {row["bench"] for row in per_bench} == {
        "bench_alpha::test_alpha", "bench_beta::test_beta",
    }
    assert all("wall" in row for row in per_bench)


# ------------------------------------------------------------- invalidation


def test_editing_one_bench_rerenders_only_that_bench(bench_env):
    warm_beta_artifact()
    sweep()
    (bench_env / "bench_beta.py").write_text(BETA.replace("consumed", "obtained"))
    summary = sweep()
    assert summary["render"]["rendered"] == 1
    assert summary["render"]["skipped"] == 1
    per_bench = {row["bench"]: row for row in summary["render"]["per_bench"]}
    assert per_bench["bench_beta::test_beta"]["status"] == "completed"
    assert per_bench["bench_alpha::test_alpha"]["status"] == "cached"
    reports = read_reports(bench_env)
    assert b"beta obtained: V1" in reports["beta.txt"]
    assert b"alpha-v1" in reports["alpha.txt"]  # restored, not re-run


def test_editing_opaque_bench_rewarms_only_that_bench(bench_env):
    """An edited opaque body re-executes once in the shared pool (one
    per_job row, plus its render-summary row) and nothing else re-runs."""
    warm_beta_artifact()
    sweep()
    (bench_env / "bench_alpha.py").write_text(ALPHA.replace("alpha-v1", "alpha-v2"))
    summary = sweep()
    assert summary["render"]["rendered"] == 1
    assert summary["render"]["skipped"] == 1
    executed = [
        row["job"] for row in summary["per_job"] if row["status"] == "completed"
    ]
    assert executed == ["render:bench_alpha::test_alpha/bench"]
    assert b"alpha-v2" in read_reports(bench_env)["alpha.txt"]


def test_editing_common_invalidates_every_bench(bench_env):
    warm_beta_artifact()
    sweep()
    common_path = bench_env / "common.py"
    common_path.write_text(common_path.read_text() + "\n# edited\n")
    summary = sweep()
    assert summary["render"]["rendered"] == 2  # both render keys moved
    assert summary["render"]["skipped"] == 0
    assert summary["render"]["benches"] == 2
    rows = {row["job"]: row for row in summary["per_job"]}
    assert rows["render:bench_alpha::test_alpha/bench"]["kind"] == "opaque-render"
    assert rows["render:bench_alpha::test_alpha/bench"]["status"] == "completed"


def test_changed_consumed_artifact_invalidates_consumer_only(bench_env, monkeypatch):
    warm_beta_artifact("V1")
    first = sweep()
    assert first["render"]["failed"] == 0
    # the consumed spec changes (and with it its artifact): beta's render
    # key must move, alpha's must not
    monkeypatch.setenv("REPRO_TEST_BETA_N", "2")
    sys.modules.pop("bench_beta", None)  # re-evaluate SPEC under the new env
    warm_beta_artifact("V2")
    summary = sweep()
    assert summary["render"]["rendered"] == 1
    assert summary["render"]["skipped"] == 1
    assert b"beta consumed: V2" in read_reports(bench_env)["beta.txt"]


# -------------------------------------------------- dependency-pipelined pool


def cache_snapshot() -> dict[str, bytes]:
    cache = ResultCache()
    return {digest: cache.get(digest) for digest in cache.digests()}


def fresh_cache_sweep(bench, tmp_path, monkeypatch, tag, **kwargs) -> dict:
    """One cold sweep into its own private cache, reports wiped first."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"cache-{tag}"))
    if (bench / "reports").is_dir():
        shutil.rmtree(bench / "reports")
    warm_beta_artifact()
    return sweep(**kwargs)


def test_pipelined_schedule_matches_serial_oracle(
    bench_env, tmp_path, monkeypatch
):
    """The dependency-pipelined schedule must be a pure reordering: every
    cached artifact and every report byte-identical to a serial
    (``jobs=1``) sweep's."""
    snapshots = {}
    for tag, jobs in (("serial", 1), ("pipelined", 2)):
        summary = fresh_cache_sweep(
            bench_env, tmp_path, monkeypatch, tag, jobs=jobs
        )
        assert summary["render"]["failed"] == 0
        assert summary["counts"]["failed"] == 0
        snapshots[tag] = (read_reports(bench_env), cache_snapshot())
    assert snapshots["pipelined"] == snapshots["serial"]


def test_per_job_has_one_row_per_digest_summing_to_worker_wall(bench_env):
    """Each digest is one per_job row, so summed per-job wall is the pool's
    worker wall -- an opaque render is not counted twice."""
    warm_beta_artifact()
    summary = sweep(bench_out=None)
    rows = summary["per_job"]
    assert len({row["digest"] for row in rows}) == len(rows)
    assert len(rows) == summary["counts"]["specs"]
    assert sum(row["wall"] for row in rows) == pytest.approx(
        summary["counts"]["worker_wall"], abs=1e-4 * len(rows)
    )
    assert sum(row["kind"] == "opaque-render" for row in rows) == 1


def test_adversarial_admission_order_is_byte_deterministic(
    bench_env, tmp_path, monkeypatch
):
    """Seeded ready-queue shuffles reorder launches but may never change
    artifacts or reports (the pipelined schedule's determinism contract)."""
    baseline = None
    for seed in (None, 3, 17, 41):
        summary = fresh_cache_sweep(
            bench_env, tmp_path, monkeypatch, f"seed-{seed}",
            order_seed=seed,
        )
        assert summary["counts"]["failed"] == 0
        snapshot = (read_reports(bench_env), cache_snapshot())
        if baseline is None:
            baseline = snapshot
        else:
            assert snapshot == baseline


# -------------------------------------------------------------- containment


def test_render_failure_is_contained_and_reported(bench_env):
    (bench_env / "bench_alpha.py").write_text(
        "import common\n\n\n"
        "def test_alpha(benchmark):\n"
        "    common.once(benchmark, lambda: 1 // 0)\n"
    )
    warm_beta_artifact()
    summary = sweep()
    assert summary["render"]["failed"] == 1
    (failure,) = summary["render"]["failures"]
    assert failure[0] == "bench_alpha::test_alpha"
    assert "ZeroDivisionError" in failure[1]
    # the healthy bench still rendered
    assert "beta.txt" in read_reports(bench_env)
