"""repro.fleet.remote: store protocol, lease state machine, remote pool.

Three layers of test:

* **wire/store** -- endpoint parsing; local-dir vs HTTP backend byte
  equivalence; digest verification (transfer corruption, garbled bodies,
  embedded-digest drift) quarantining server-side; concurrent same-digest
  puts staying idempotent; the stranded-``*.tmp``-file sweep regression.
* **coordinator** -- the lease/heartbeat state machine driven with an
  injected fake clock: renewal, expiry -> steal, bounded worker loss ->
  ``worker-lost`` failure, reported-failure retry/backoff, ``after``
  admission, the code-version handshake, the deterministic chaos-kill
  schedule, and 400 replies to malformed ``/jobs`` and ``/result`` input.
* **end-to-end** -- real worker *processes* (fork) against an in-process
  coordinator + store: a two-worker sweep whose artifacts are
  byte-identical to the fork pool's, chaos SIGKILLing a live worker
  mid-lease with the job stolen and completed by the survivor, and
  ``run_sweep(workers=...)`` over a synthetic producer/consumer bench
  suite matching a serial local sweep object-for-object, with the
  consumer admitted only once its producer is terminal; and a
  two-coordinator pool holding consumers behind producers sharded to
  the other coordinator.

Workers in the chaos tests must be OS processes (the kill directive is a
self-SIGKILL); everything else keeps servers in daemon threads.
"""

from __future__ import annotations

import multiprocessing
import shutil
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.fleet import (
    EventLog,
    FleetScheduler,
    ResultCache,
    RunSpec,
    StoreIntegrityError,
    code_version,
    collect_render_plan,
    failure_artifact,
    run_cached,
    to_bytes,
)
from repro.fleet.remote import (
    ArtifactStoreServer,
    FleetCoordinator,
    FleetWorker,
    HTTPStore,
    RemotePool,
    parse_endpoint,
)
from repro.fleet.remote.wire import request_json

_CTX = multiprocessing.get_context("fork")


@pytest.fixture
def pinned_version(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "remote-test-1")
    code_version.cache_clear()
    yield "remote-test-1"
    code_version.cache_clear()


def _stub_ok(spec: RunSpec) -> dict:
    """Deterministic stub executor (module-level: fork/pickle safe)."""
    return {
        "schema": 1,
        "digest": spec.digest,
        "spec": spec.to_dict(),
        "status": "ok",
        "error": None,
        "result": {"label": spec.label, "seed": spec.seed},
    }


def _stub_raise(spec: RunSpec) -> dict:
    raise RuntimeError(f"boom for {spec.label}")


def make_specs(n: int) -> list[RunSpec]:
    return [RunSpec.make(f"job{i}", mode="tool", seed=i) for i in range(n)]


def ok_artifact(spec: RunSpec) -> dict:
    return _stub_ok(spec)


def job_rows(specs) -> list[dict]:
    return [
        {"digest": s.digest, "spec": s.to_dict(), "label": s.label}
        for s in specs
    ]


def _worker_entry(address: str, worker_id: str) -> None:
    FleetWorker(
        address, worker_id=worker_id, executor=_stub_ok,
        poll_interval=0.02, log=lambda m: None,
    ).run()


def start_worker_process(address: str, worker_id: str):
    # not daemonic: the worker forks a child per job (test teardown kills
    # any survivor explicitly)
    proc = _CTX.Process(target=_worker_entry, args=(address, worker_id))
    proc.start()
    return proc


# -------------------------------------------------------------------- wire


def test_parse_endpoint_forms():
    assert parse_endpoint("somehost:8750").address == "somehost:8750"
    assert parse_endpoint(":8750").address == "127.0.0.1:8750"
    assert parse_endpoint("http://h:8750/").address == "h:8750"


@pytest.mark.parametrize("bad", ["nohost", "h:", "h:not-a-port", "http://h/"])
def test_parse_endpoint_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_endpoint(bad)


# ---------------------------------------------------- store backend protocol


@pytest.fixture
def store_pair(tmp_path):
    """A running store server + client, plus a plain local cache."""
    server = ArtifactStoreServer(tmp_path / "served").start()
    try:
        yield server, HTTPStore(server.url), ResultCache(tmp_path / "local")
    finally:
        server.shutdown()


def test_http_and_local_backends_round_trip_byte_identical(
    store_pair, pinned_version
):
    server, http, local = store_pair
    spec = make_specs(1)[0]
    data = to_bytes(ok_artifact(spec))
    http.put(spec.digest, data)
    local.put(spec.digest, data)
    # client-visible bytes agree with each other and with the wire input
    assert http.get(spec.digest) == data
    assert local.get(spec.digest) == http.get(spec.digest)
    # and the served backing file is the same object the local backend wrote
    served_path = server.cache._object_path(spec.digest)
    local_path = local._object_path(spec.digest)
    assert served_path.read_bytes() == local_path.read_bytes()
    assert http.has(spec.digest)
    assert not http.has("ee" + "0" * 62)
    assert http.get("ee" + "0" * 62) is None
    info = http.describe()
    assert info["objects"] == 1 and info["hits"] == 2 and info["puts"] == 1


def test_store_health_endpoint(store_pair):
    _, http, _ = store_pair
    health = http.health()
    assert health["status"] == "ok"
    assert health["service"] == "repro-artifact-store"


def test_embedded_digest_mismatch_raises_and_quarantines(
    store_pair, pinned_version
):
    server, http, _ = store_pair
    spec_a, spec_b = make_specs(2)
    # a valid artifact stored under the WRONG key: transfer checksums all
    # pass (the bytes arrive intact), only the embedded digest betrays it
    http.put(spec_b.digest, to_bytes(ok_artifact(spec_a)))
    with pytest.raises(StoreIntegrityError) as err:
        http.get(spec_b.digest)
    assert spec_b.digest.startswith(err.value.digest[:12])
    # quarantined server-side: the next fetch is a plain miss, and the
    # corrupt object is preserved for forensics
    assert http.get(spec_b.digest) is None
    assert not server.cache.has(spec_b.digest)
    quarantined = list(server.cache.quarantine_dir.glob("*.json"))
    assert [p.stem for p in quarantined] == [spec_b.digest]


def test_garbled_body_raises_and_quarantines(store_pair, pinned_version):
    server, http, _ = store_pair
    spec = make_specs(1)[0]
    http.put(spec.digest, to_bytes(ok_artifact(spec)))
    # on-disk corruption on the server: body no longer parses as JSON
    server.cache._object_path(spec.digest).write_bytes(b"\x00garbage\xff")
    with pytest.raises(StoreIntegrityError):
        http.get(spec.digest)
    assert http.get(spec.digest) is None  # quarantined -> miss


def test_store_rejects_corrupt_upload(store_pair, pinned_version):
    from repro.fleet.remote.store import CHECKSUM_HEADER
    from repro.fleet.remote.wire import request

    server, http, _ = store_pair
    spec = make_specs(1)[0]
    data = to_bytes(ok_artifact(spec))
    # claim the true checksum but deliver truncated bytes: the server must
    # refuse rather than rename the damage into place
    from repro.fleet import content_sha256

    status, _, _ = request(
        server.address, "PUT", f"/artifacts/{spec.digest}", data[:-5],
        {CHECKSUM_HEADER: content_sha256(data)},
    )
    assert status == 400
    assert not server.cache.has(spec.digest)


def test_concurrent_put_same_digest_idempotent(store_pair, pinned_version):
    server, http, _ = store_pair
    spec = make_specs(1)[0]
    data = to_bytes(ok_artifact(spec))
    clients = [HTTPStore(server.url) for _ in range(8)]
    barrier = threading.Barrier(len(clients))
    errors = []

    def racer(client):
        barrier.wait()
        try:
            client.put(spec.digest, data)
        except Exception as exc:  # surfaced below: threads swallow raises
            errors.append(exc)

    threads = [threading.Thread(target=racer, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert not errors
    assert len(server.cache) == 1
    assert http.get(spec.digest) == data
    assert not list(server.cache.tmp_files())  # every temp file was renamed


def test_store_rejects_malformed_digest(store_pair):
    _, http, _ = store_pair
    from repro.fleet.remote.wire import request

    status, _, _ = request(http.url, "GET", "/artifacts/..evil")
    assert status == 400


def test_run_cached_treats_integrity_failure_as_miss(
    store_pair, pinned_version, monkeypatch
):
    server, http, _ = store_pair
    spec = RunSpec.make("chaos-probe", mode="chaos")
    artifact = ok_artifact(spec)
    http.put(spec.digest, to_bytes(artifact))
    server.cache._object_path(spec.digest).write_bytes(b"not json")
    # the corrupt hit quarantines, then run_cached re-executes; a chaos
    # spec raises, proving execution was reached (the miss path)
    with pytest.raises(RuntimeError, match="injected chaos"):
        run_cached(spec, http)


# ------------------------------------------------ stranded tmp-file sweep


def test_clean_sweeps_stranded_tmp_files(tmp_path, pinned_version):
    cache = ResultCache(tmp_path / "cache")
    spec = make_specs(1)[0]
    cache.put(spec.digest, to_bytes(ok_artifact(spec)))
    # a worker SIGKILLed between writing its temp file and the rename
    shard = cache._object_path(spec.digest).parent
    stranded = shard / f".{spec.digest}.json.tmp.9999"
    stranded.write_bytes(b"partial")
    assert [p.name for p in cache.tmp_files()] == [stranded.name]
    removed = cache.clean()
    assert removed == 2  # the artifact and the stranded temp file
    assert not stranded.exists()
    assert len(cache) == 0 and not list(cache.tmp_files())


def test_gc_sweeps_old_tmp_but_spares_inflight(tmp_path, pinned_version):
    import os

    cache = ResultCache(tmp_path / "cache")
    spec = make_specs(1)[0]
    cache.put(spec.digest, to_bytes(ok_artifact(spec)))
    shard = cache._object_path(spec.digest).parent
    old = shard / f".{spec.digest}.json.tmp.111"
    old.write_bytes(b"partial")
    two_hours_ago = time.time() - 7200
    os.utime(old, (two_hours_ago, two_hours_ago))
    fresh = shard / f".{spec.digest}.json.tmp.222"
    fresh.write_bytes(b"in flight")  # a put racing the gc right now
    removed = cache.gc(live={spec.digest})
    assert removed == 1
    assert not old.exists() and fresh.exists()
    assert cache.has(spec.digest)  # live artifact untouched
    assert cache.sweep_tmp() == 1  # max_age=0: clean-style full sweep


# ------------------------------------------------- coordinator state machine


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_coordinator(clock, **kwargs) -> FleetCoordinator:
    kwargs.setdefault("lease_timeout", 10.0)
    kwargs.setdefault("retries", 1)
    kwargs.setdefault("backoff", 0.0)
    return FleetCoordinator(clock=clock, **kwargs)


def events_of(coord: FleetCoordinator, name: str) -> list[dict]:
    return [e for e in coord._events if e["event"] == name]


def test_lease_result_completes(pinned_version):
    clock = FakeClock()
    coord = make_coordinator(clock)
    (spec,) = make_specs(1)
    assert coord.submit_jobs({"jobs": job_rows([spec])})["accepted"] == 1
    response = coord.lease("w1", code_version())
    job = response["job"]
    assert job["digest"] == spec.digest and job["attempt"] == 1
    assert coord.result(job["lease"], ok_artifact(spec), wall=0.5)["ok"]
    assert coord.health()["done"] == 1
    assert coord.events_since(0)["done"]
    completed = events_of(coord, "completed")
    assert len(completed) == 1 and completed[0]["worker"] == "w1"
    # resubmitting a terminal digest hands the record straight back
    again = coord.submit_jobs({"jobs": job_rows([spec])})
    assert again["accepted"] == 0
    assert again["done"][0]["artifact"]["status"] == "ok"


def test_heartbeat_renews_lease(pinned_version):
    clock = FakeClock()
    coord = make_coordinator(clock)
    (spec,) = make_specs(1)
    coord.submit_jobs({"jobs": job_rows([spec])})
    job = coord.lease("w1", code_version())["job"]
    clock.advance(8.0)
    assert coord.heartbeat(job["lease"], "w1")["ok"]
    clock.advance(8.0)  # 16s since lease, but only 8 since renewal
    assert coord.lease("w2", code_version())["job"] is None  # not stolen
    assert coord.steals == 0


def test_missed_heartbeats_steal_the_job(pinned_version):
    clock = FakeClock()
    coord = make_coordinator(clock)
    (spec,) = make_specs(1)
    coord.submit_jobs({"jobs": job_rows([spec])})
    first = coord.lease("w1", code_version())["job"]
    clock.advance(10.5)  # w1 goes silent past the lease timeout
    second = coord.lease("w2", code_version())["job"]
    assert second is not None and second["digest"] == spec.digest
    assert second["attempt"] == 2
    assert coord.steals == 1 and coord.worker_losses == 1
    assert events_of(coord, "stolen")[0]["worker"] == "w1"
    # the presumed-dead worker resurfacing with a late result is dropped
    assert not coord.result(first["lease"], ok_artifact(spec))["ok"]
    # the stolen attempt completes normally
    assert coord.result(second["lease"], ok_artifact(spec))["ok"]
    assert coord.status()["completed"] == 1


def test_worker_loss_is_bounded(pinned_version):
    clock = FakeClock()
    coord = make_coordinator(clock, max_steals=1)
    (spec,) = make_specs(1)
    coord.submit_jobs({"jobs": job_rows([spec])})
    assert coord.lease("w1", code_version())["job"] is not None
    clock.advance(10.5)  # first loss: steal
    assert coord.lease("w2", code_version())["job"] is not None
    clock.advance(10.5)  # second loss: past max_steals -> terminal failure
    assert coord.lease("w3", code_version())["job"] is None
    (failed,) = events_of(coord, "failed")
    assert failed["error"] == "worker-lost"
    assert failed["artifact"]["error"]["type"] == "worker-lost"
    assert coord.status()["failed"] == 1
    assert coord.events_since(0)["done"]  # terminal: the sweep can finish


def test_reported_failure_retries_with_backoff_then_fails(pinned_version):
    clock = FakeClock()
    coord = make_coordinator(clock, retries=1, backoff=2.0)
    (spec,) = make_specs(1)
    coord.submit_jobs({"jobs": job_rows([spec])})
    job = coord.lease("w1", code_version())["job"]
    bad = failure_artifact(spec, "RuntimeError", "boom")
    assert coord.result(job["lease"], bad)["ok"]
    assert events_of(coord, "retry")
    # requeued with backoff: not leasable until the delay elapses
    assert coord.lease("w1", code_version())["job"] is None
    clock.advance(2.1)
    retry = coord.lease("w1", code_version())["job"]
    assert retry is not None and retry["attempt"] == 2
    assert coord.result(retry["lease"], bad)["ok"]  # retries exhausted
    assert coord.status()["failed"] == 1


def test_code_version_handshake_refuses_mismatched_worker(pinned_version):
    coord = make_coordinator(FakeClock())
    coord.submit_jobs({"jobs": job_rows(make_specs(1))})
    response = coord.lease("w1", "some-other-tree")
    assert response["error"] == "code-version-mismatch"
    # the right version still gets the job
    assert coord.lease("w2", code_version())["job"] is not None


def test_chaos_kill_schedule_is_deterministic(pinned_version):
    def drill():
        clock = FakeClock()
        coord = make_coordinator(clock)
        specs = make_specs(3)
        coord.submit_jobs({
            "jobs": job_rows(specs), "chaos_kills": 2, "chaos_seed": 7,
        })
        coord.lease("w1", code_version())  # one worker alive: never killed
        first = coord.lease("w1", code_version())
        assert first["chaos"] is None
        killed = coord.lease("w2", code_version())  # two alive: eligible
        return coord, killed

    coord_a, killed_a = drill()
    coord_b, killed_b = drill()
    # armed kills fire on the same lease for the same seed, every time
    assert killed_a["chaos"] == "kill" == killed_b["chaos"]
    assert killed_a["job"]["digest"] == killed_b["job"]["digest"]
    assert coord_a.chaos_kills == 1
    # the victim no longer counts as alive, so the survivor is never killed
    follow_up = coord_a.lease("w1", code_version())
    assert follow_up.get("chaos") is None
    assert coord_a.health()["workers"] == 1


def test_drain_sends_idle_workers_home(pinned_version):
    coord = make_coordinator(FakeClock())
    (spec,) = make_specs(1)
    coord.submit_jobs({"jobs": job_rows([spec])})
    job = coord.lease("w1", code_version())["job"]
    coord.control("drain")
    # jobs outstanding: polling workers keep waiting
    assert coord.lease("w2", code_version())["shutdown"] is False
    coord.result(job["lease"], ok_artifact(spec))
    assert coord.lease("w2", code_version())["shutdown"] is True


def test_after_holds_consumer_until_producer_terminal(pinned_version):
    coord = make_coordinator(FakeClock())
    producer, consumer = make_specs(2)
    rows = job_rows([producer, consumer])
    rows[1]["after"] = [producer.digest, "ab" * 32]  # unknown: satisfied
    coord.submit_jobs({"jobs": rows})
    job = coord.lease("w1", code_version())["job"]
    assert job["digest"] == producer.digest
    assert coord.lease("w2", code_version())["job"] is None  # held back
    coord.result(job["lease"], ok_artifact(producer))
    assert [e["digest"] for e in events_of(coord, "admitted")] == [
        consumer.digest
    ]
    assert coord.lease("w2", code_version())["job"]["digest"] == consumer.digest


def _bad_batches():
    (spec,) = make_specs(1)
    (row,) = job_rows([spec])
    return {
        "missing-digest": {"jobs": [{"spec": spec.to_dict()}]},
        "bad-priority": {"jobs": [{**row, "priority": "x"}]},
        "bad-retries": {"jobs": [row], "retries": "abc"},
        "jobs-not-a-list": {"jobs": "notalist"},
        "after-not-a-list": {"jobs": [{**row, "after": spec.digest}]},
        "after-not-hex": {"jobs": [{**row, "after": ["not-a-digest"]}]},
        "after-empty-string": {"jobs": [{**row, "after": ""}]},
        "missing-spec": {"jobs": [{"digest": spec.digest}]},
        # a bad row after a good one: nothing in the batch is accepted
        "mixed-batch": {"jobs": [row, {**row, "digest": "ab" * 32,
                                       "priority": None}]},
    }


@pytest.mark.parametrize("case", sorted(_bad_batches()))
def test_malformed_job_batch_is_rejected_whole(pinned_version, case):
    coord = FleetCoordinator(lease_timeout=5.0).start()
    try:
        status, body = request_json(
            coord.address, "POST", "/jobs", _bad_batches()[case]
        )
        assert status == 400 and body["error"]
        assert coord.status()["jobs"] == 0
        status, health = request_json(coord.address, "GET", "/health")
        assert status == 200 and health["pending"] == 0
    finally:
        coord.shutdown()


def test_malformed_result_is_rejected_and_lease_survives(pinned_version):
    coord = FleetCoordinator(lease_timeout=5.0).start()
    try:
        (spec,) = make_specs(1)
        coord.submit_jobs({"jobs": job_rows([spec])})
        job = coord.lease("w1", code_version())["job"]
        for payload in ({"artifact": "not-an-object"},
                        {"artifact": {"status": "failed", "error": "boom"}},
                        {"artifact": ok_artifact(spec), "lease": ["x"]},
                        {"artifact": ok_artifact(spec), "wall": "fast"},
                        {"artifact": ok_artifact(spec), "trace": 7}):
            status, body = request_json(
                coord.address, "POST", "/result",
                {"lease": job["lease"], **payload},
            )
            assert status == 400 and body["error"]
        assert request_json(coord.address, "GET", "/health")[0] == 200
        assert coord.result(job["lease"], ok_artifact(spec))["ok"]
        assert coord.status()["completed"] == 1
    finally:
        coord.shutdown()


# ------------------------------------------------------------- end to end


def wait_for(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def test_worker_short_circuits_through_store(
    tmp_path, pinned_version, monkeypatch
):
    server = ArtifactStoreServer(tmp_path / "store").start()
    # the in-thread worker exports REPRO_CACHE_DIR for its forked children;
    # register the key so monkeypatch unwinds the mutation after the test
    monkeypatch.setenv("REPRO_CACHE_DIR", server.url)
    coord = FleetCoordinator(store_url=server.url, lease_timeout=5.0).start()
    try:
        (spec,) = make_specs(1)
        # the artifact is already in the shared store (another machine's run)
        HTTPStore(server.url).put(spec.digest, to_bytes(ok_artifact(spec)))
        coord.submit_jobs({"jobs": job_rows([spec])})
        # an executor that would raise proves the job body never ran
        worker = FleetWorker(
            coord.address, worker_id="w0", executor=_stub_raise,
            poll_interval=0.02, log=lambda m: None,
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        assert wait_for(lambda: coord.status()["completed"] == 1)
        coord.control("drain")
        thread.join(10)
        assert worker.store_hits == 1
        assert coord.status()["store_hits"] == 1
        assert coord.status()["workers"]["w0"]["store_hits"] == 1
    finally:
        coord.shutdown()
        server.shutdown()


def test_two_workers_byte_identical_to_fork_pool(tmp_path, pinned_version):
    specs = make_specs(6)

    # the oracle: the local fork pool into a local directory
    local_cache = ResultCache(tmp_path / "local")
    scheduler = FleetScheduler(
        jobs=2, retries=0, cache=local_cache, executor=_stub_ok
    )
    for spec in specs:
        scheduler.submit(spec)
    local_results = scheduler.run()

    server = ArtifactStoreServer(tmp_path / "remote").start()
    coord = FleetCoordinator(store_url=server.url, lease_timeout=5.0).start()
    workers = []
    try:
        pool = RemotePool(
            [coord.address], store=HTTPStore(server.url), retries=0,
            drain=True,
        )
        for spec in specs:
            pool.submit(spec)
        workers = [
            start_worker_process(coord.address, f"w{i}") for i in range(2)
        ]
        remote_results = pool.run()
        for proc in workers:
            proc.join(15)
        assert pool.summary()["completed"] == 6
        remote = pool.remote_summary()
        assert sum(r["jobs"] for r in remote["workers"].values()) == 6
        for spec in specs:
            # artifact bytes AND backing files identical local vs remote
            assert to_bytes(remote_results[spec.digest]) == to_bytes(
                local_results[spec.digest]
            )
            assert (
                server.cache._object_path(spec.digest).read_bytes()
                == local_cache._object_path(spec.digest).read_bytes()
            )
        # drain sent both workers home cleanly
        assert all(proc.exitcode == 0 for proc in workers)
    finally:
        for proc in workers:
            if proc.is_alive():
                proc.kill()
        coord.shutdown()
        server.shutdown()


def _slow_producer_stub(spec: RunSpec) -> dict:
    time.sleep({"slowprod": 1.0, "prod": 0.2}.get(spec.program, 0.0))
    return _stub_ok(spec)


def _slow_producer_worker_entry(address: str, worker_id: str) -> None:
    FleetWorker(
        address, worker_id=worker_id, executor=_slow_producer_stub,
        poll_interval=0.02, log=lambda m: None,
    ).run()


def test_consumers_wait_for_producers_on_other_coordinators(pinned_version):
    """Two coordinators, one worker each.  ``consumer`` reads a fast
    producer sharded beside it and a slow one sharded to the other
    coordinator; ``tail`` reads ``consumer``.  Each must start only after
    every producer it names has finished, wherever that producer ran."""
    fast, slow, consumer, tail = (
        RunSpec.make(name, mode="tool")
        for name in ("prod", "slowprod", "consumer", "tail")
    )
    coords = [FleetCoordinator(lease_timeout=5.0).start() for _ in range(2)]
    workers = []
    try:
        events = EventLog()
        pool = RemotePool([c.address for c in coords], retries=0,
                          events=events, drain=True, poll_interval=0.02)
        pool.submit(fast)
        pool.submit(slow)
        pool.submit(consumer, after=(fast.digest, slow.digest))
        pool.submit(tail, after=(consumer.digest,))
        workers = [
            _CTX.Process(target=_slow_producer_worker_entry,
                         args=(c.address, f"w{i}"))
            for i, c in enumerate(coords)
        ]
        for proc in workers:
            proc.start()
        results = pool.run()
        for proc in workers:
            proc.join(15)
        assert pool.summary()["completed"] == 4
        # the locality score put the slow producer on the other coordinator
        assert [c.status()["jobs"] for c in coords] == [3, 1]
        records = events.records
        at = {(r["event"], r.get("digest")): i for i, r in enumerate(records)}
        for producers, job in (((fast, slow), consumer), ((consumer,), tail)):
            started = at[("started", job.digest)]
            for producer in producers:
                done = at[("completed", producer.digest)]
                assert done < started
                assert records[done]["t"] <= records[started]["t"]
        for spec in (fast, slow, consumer, tail):
            assert to_bytes(results[spec.digest]) == to_bytes(_stub_ok(spec))
    finally:
        for proc in workers:
            if proc.is_alive():
                proc.kill()
        for coord in coords:
            coord.shutdown()


def test_chaos_kills_worker_job_stolen_and_completed(tmp_path, pinned_version):
    """The --chaos drill end-to-end: a real worker process is SIGKILLed
    mid-lease, the lease expires, the survivor steals the job, and the
    sweep still completes every job with no artifacts lost."""
    specs = make_specs(5)
    server = ArtifactStoreServer(tmp_path / "store").start()
    coord = FleetCoordinator(
        store_url=server.url, lease_timeout=1.5, retries=1
    ).start()
    workers = []
    try:
        pool = RemotePool(
            [coord.address], store=HTTPStore(server.url), retries=1,
            chaos_kills=2, chaos_seed=0, drain=True, worker_grace=30.0,
        )
        for spec in specs:
            pool.submit(spec)
        workers = [
            start_worker_process(coord.address, f"w{i}") for i in range(2)
        ]
        results = pool.run()
        assert pool.summary()["completed"] == 5
        assert pool.summary()["failed"] == 0
        for spec in specs:
            assert results[spec.digest]["status"] == "ok"
            assert server.cache.has(spec.digest)
        remote = pool.remote_summary()
        assert remote["chaos_kills"] == 1  # one armed kill fired
        assert remote["steals"] >= 1  # the victim's lease was stolen
        # exactly one worker was SIGKILLed, the other drained cleanly
        for proc in workers:
            proc.join(15)
        exit_codes = sorted(proc.exitcode for proc in workers)
        assert exit_codes[0] == -9 and exit_codes[1] == 0
        # the pool's event relay carried the drill into the local log
        names = [r["event"] for r in pool.events.records]
        assert "chaos-kill" in names and "stolen" in names
    finally:
        for proc in workers:
            if proc.is_alive():
                proc.kill()
        coord.shutdown()
        server.shutdown()


# -------------------------------------------------- run_sweep over --workers


REAL_COMMON = Path(__file__).resolve().parents[1] / "benchmarks" / "common.py"

ALPHA = """\
import common


def test_alpha(benchmark):
    value = common.once(benchmark, lambda: "alpha-v1")
    common.emit("alpha", f"alpha report: {value}")
"""

# a consumer bench: records the spec it reads and, at render time, loads
# that artifact from the shared store (the render test suite's beta)
BETA = """\
import common
from repro.fleet import CollectOnly, RunSpec, default_cache, run_cached

SPEC = RunSpec.make("fake_prog", mode="tool", impl="lam", params={"n": 1})


def test_beta(benchmark):
    if common.FLEET_COLLECT is not None:
        common.FLEET_COLLECT.append(SPEC)
        raise CollectOnly("beta")
    artifact = run_cached(SPEC, default_cache())
    common.emit("beta", "beta consumed: " + artifact["result"]["value"])
"""


def fake_producer_artifact(spec: RunSpec) -> dict:
    return {
        "schema": 1,
        "digest": spec.digest,
        "spec": spec.to_dict(),
        "status": "ok",
        "error": None,
        "result": {"value": "V1"},
    }


def _sweep_executor(spec: RunSpec) -> dict:
    """Workers run beta's producer as a slow stub (there is no such
    program) and everything else for real.  The delay leaves the other
    worker idle while the producer runs: only ``after`` admission keeps it
    from leasing beta's render early."""
    from repro.fleet import execute_spec

    if spec.program == "fake_prog":
        time.sleep(1.0)
        return fake_producer_artifact(spec)
    return execute_spec(spec)


@pytest.fixture
def remote_bench_env(tmp_path, monkeypatch):
    """A synthetic producer/consumer suite, env-isolated (same recipe as
    the render determinism tests)."""
    bench = tmp_path / "benches"
    bench.mkdir()
    shutil.copy(REAL_COMMON, bench / "common.py")
    (bench / "bench_alpha.py").write_text(ALPHA)
    (bench / "bench_beta.py").write_text(BETA)
    monkeypatch.setenv("REPRO_BENCH_DIR", str(bench))
    monkeypatch.setenv("REPRO_CODE_VERSION", "remote-sweep-test")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code_version.cache_clear()
    names = ("common", "bench_alpha", "bench_beta")
    saved = {name: sys.modules.pop(name, None) for name in names}
    yield bench
    code_version.cache_clear()
    for name, module in saved.items():
        if module is not None:
            sys.modules[name] = module
        else:
            sys.modules.pop(name, None)


def _sweep_worker_entry(address: str, worker_id: str) -> None:
    FleetWorker(address, worker_id=worker_id, executor=_sweep_executor,
                poll_interval=0.02, log=lambda m: None).run()


def test_run_sweep_remote_matches_local(tmp_path, remote_bench_env):
    from repro.fleet import run_sweep

    bench = remote_bench_env
    reports = bench / "reports"
    producer = RunSpec.make("fake_prog", mode="tool", impl="lam",
                            params={"n": 1})

    # the oracle: a serial local-fork sweep into a local cache directory
    # (the producer is not a real program: seed its artifact)
    local_cache = ResultCache(tmp_path / "cache-local")
    local_cache.put(producer.digest, to_bytes(fake_producer_artifact(producer)))
    local = run_sweep(suite="bench", jobs=1, retries=0, cache=local_cache,
                      bench_out=None)
    assert local["counts"]["failed"] == 0 and local["remote"] is None
    local_reports = {p.name: p.read_bytes() for p in reports.glob("*.txt")}
    assert set(local_reports) == {"alpha.txt", "beta.txt"}
    shutil.rmtree(reports)

    server = ArtifactStoreServer(tmp_path / "cache-remote").start()
    coord = FleetCoordinator(store_url=server.url, lease_timeout=5.0).start()
    workers = [
        _CTX.Process(target=_sweep_worker_entry,
                     args=(coord.address, f"sweep-w{i}"))
        for i in range(2)
    ]
    for proc in workers:
        proc.start()
    try:
        store = HTTPStore(server.url)
        events = EventLog()
        summary = run_sweep(
            suite="bench", retries=0, workers=[coord.address], cache=store,
            events=events, bench_out=tmp_path / "BENCH_remote.json",
        )
        for proc in workers:
            proc.join(20)
        assert summary["schema"] == 5
        assert summary["counts"]["failed"] == 0
        # the remote sweep executed what the oracle executed or had seeded
        assert summary["counts"]["completed"] == (
            local["counts"]["completed"] + local["counts"]["cached"]
        )
        remote = summary["remote"]
        assert sorted(remote["workers"]) == ["sweep-w0", "sweep-w1"]
        assert remote["store"]["puts"] >= 1

        # the consumer was admitted only once its producer was terminal
        beta = next(e.spec.digest for e in collect_render_plan().benches
                    if e.target == "bench_beta::test_beta")
        order = [(r["event"], r.get("digest")) for r in events.records]
        produced = order.index(("completed", producer.digest))
        started = order.index(("started", beta))
        assert produced < started
        assert events.records[produced]["t"] <= events.records[started]["t"]

        # every artifact byte-identical to the local sweep's, file for file
        local_digests = set(local_cache.digests())
        assert set(server.cache.digests()) == local_digests
        for digest in local_digests:
            assert (
                server.cache._object_path(digest).read_bytes()
                == local_cache._object_path(digest).read_bytes()
            )
        # and the rendered reports byte-identical too
        remote_reports = {
            p.name: p.read_bytes() for p in reports.glob("*.txt")
        }
        assert remote_reports == local_reports

        # a warm remote re-sweep resolves everything driver-side from the
        # shared store: all cache hits, no worker needed
        shutil.rmtree(reports)
        warm = run_sweep(
            suite="bench", retries=0, workers=[coord.address], cache=store,
            bench_out=None,
        )
        assert warm["counts"]["cached"] == warm["counts"]["specs"]
        assert warm["counts"]["completed"] == 0
        warm_reports = {p.name: p.read_bytes() for p in reports.glob("*.txt")}
        assert warm_reports == local_reports
    finally:
        for proc in workers:
            if proc.is_alive():
                proc.kill()
        coord.shutdown()
        server.shutdown()
