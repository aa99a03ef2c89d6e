"""Sweep-service tests: daemon lifecycle, HTTP API, and cache reuse.

The service's contract (ISSUE 8): a sweep submitted through the daemon
is bit-identical to the same matrix run through a one-shot
:class:`ParallelEngine`; an identical resubmission is served entirely
from the warm artifact cache (zero sim jobs, ``served_cached`` in the
ledger); a daemon restarted on the same cache directory resumes from
the artifact store; cancellation works queued and mid-sweep.
"""

import json
import threading

import pytest

from repro.common.errors import SweepCancelledError
from repro.experiments.artifacts import ArtifactCache, SimKey
from repro.experiments.faults import RetryPolicy
from repro.experiments.ledger import read_events
from repro.experiments.parallel import ParallelEngine, WorkerPool
from repro.experiments.queue import (BadRequestError, JobQueue,
                                     SweepRequest)
from repro.experiments.service import (ServiceError, SweepClient,
                                       SweepService)

SCALE = 0.03
SEED = 9

#: Same matrix as test_faults: one trace job plus two sim jobs.
MATRIX = {"workloads": ["Shell"], "configs": ["Base", "Blk_Dma"],
          "scales": [SCALE], "seed": SEED}

FAST = RetryPolicy(max_retries=2, backoff_base=0.01, backoff_cap=0.05)


def _service(cache_dir, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("retry_policy", FAST)
    kw.setdefault("heartbeat_interval", 0.0)
    return SweepService(str(cache_dir), **kw)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One daemon, HTTP-bound, shared by the read-mostly tests."""
    service = _service(tmp_path_factory.mktemp("svc-cache"))
    host, port = service.start_http()
    client = SweepClient(f"http://{host}:{port}")
    yield service, client
    service.stop()


# ----------------------------------------------------------------------
# Submit -> run -> results: bit-identical to a one-shot engine
# ----------------------------------------------------------------------
def test_daemon_sweep_bit_identical_to_one_shot(served, tmp_path):
    service, client = served
    job = client.submit(MATRIX)
    assert job["state"] in ("queued", "running")
    status = client.wait(job["job_id"])
    assert status["state"] == "done"
    assert status["counters"]["sim_jobs"] == 2
    daemon = client.results(job["job_id"], full=True)["metrics"]

    one_shot = ParallelEngine(scale=SCALE, seed=SEED,
                              cache=ArtifactCache(tmp_path / "oneshot"),
                              workers=2, retry_policy=FAST)
    results = one_shot.execute([(w, c, None) for w in MATRIX["workloads"]
                                for c in MATRIX["configs"]])
    for workload in MATRIX["workloads"]:
        for config in MATRIX["configs"]:
            key = SimKey.of(workload, config, one_shot.machine)
            cell = f"{workload}|{config}|{SCALE:g}"
            assert daemon[cell] == results[key].snapshot(), (
                f"daemon metrics diverged from one-shot engine for {cell}")


def test_identical_resubmission_served_from_warm_cache(served):
    service, client = served
    first = client.jobs()[0]
    job = client.submit(MATRIX)
    status = client.wait(job["job_id"])
    assert status["state"] == "done"
    # Entirely from the warm artifact cache: no jobs of any kind ran.
    assert status["counters"]["sim_jobs"] == 0
    assert status["counters"]["trace_jobs"] == 0
    assert status["counters"]["derive_jobs"] == 0
    assert status["counters"]["cached_cells"] == 2
    # ...and bit-identical to the first submission's results.
    assert client.results(job["job_id"], full=True)["metrics"] == \
        client.results(first["job_id"], full=True)["metrics"]
    # The per-job ledger confirms it: cells served from cache, zero
    # jobs scheduled, and only cache hits (no misses or stores).
    events = client.events(job["job_id"])["events"]
    names = [ev["event"] for ev in events]
    assert "served_cached" in names and "scheduled" not in names
    served_ev = next(ev for ev in events if ev["event"] == "served_cached")
    assert served_ev["cells"] == 2


def test_progress_stream_pages_with_since(served):
    service, client = served
    job_id = client.jobs()[0]["job_id"]
    page = client.events(job_id)
    names = [ev["event"] for ev in page["events"]]
    assert names[0] == "sweep_start" and names[-1] == "sweep_end"
    assert "heartbeat" in names and "finished" in names
    # since=N resumes mid-stream without replaying.
    rest = client.events(job_id, since=page["next"] - 1)
    assert [ev["event"] for ev in rest["events"]] == ["sweep_end"]
    assert rest["next"] == page["next"]


def test_worker_pool_persists_across_sweeps(served):
    service, client = served
    # A new matrix (cold cells) so sims really execute on the pool.
    job = client.submit({"workloads": ["Shell"], "configs": ["Blk_Pref"],
                         "scales": [SCALE], "seed": SEED})
    status = client.wait(job["job_id"])
    assert status["state"] == "done"
    assert status["counters"]["sim_jobs"] == 1
    # One executor built in the service's lifetime, reused since.
    assert service.pool.generation == 1
    assert client.healthz()["pool_generation"] == 1


def test_generate_block_expands_server_side(served):
    service, client = served
    job = client.submit({"generate": {"count": 2, "seed": 0, "cpus": [2]},
                         "configs": ["Base"], "scales": [0.02]})
    workloads = job["request"]["workloads"]
    assert len(workloads) == 2
    assert all(w.startswith("gen:") for w in workloads)
    status = client.wait(job["job_id"])
    assert status["state"] == "done"
    cells = client.results(job["job_id"])["cells"]
    assert len(cells) == 2
    assert all(summary["os_time"] > 0 for summary in cells.values())


# ----------------------------------------------------------------------
# HTTP validation and error mapping
# ----------------------------------------------------------------------
def test_http_rejects_malformed_submissions(served):
    service, client = served
    for payload, fragment in [
            ({"configs": ["Base"]}, "no workloads"),
            ({"workloads": ["Shell"]}, "configs"),
            ({"workloads": ["NoSuch"], "configs": ["Base"]},
             "unknown workload"),
            ({"workloads": ["Shell"], "configs": ["Warp"]},
             "unknown configs"),
            ({"workloads": ["Shell"], "configs": ["Base"], "scales": [9]},
             "scale"),
            ({"workloads": ["Shell"], "configs": ["Base"], "bogus": 1},
             "unknown fields"),
    ]:
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        assert fragment in str(excinfo.value)


def test_http_unknown_routes_and_jobs(served):
    service, client = served
    with pytest.raises(ServiceError) as excinfo:
        client.status("job-9999")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client.cancel("job-9999")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client._request("GET", "/nope")
    assert excinfo.value.status == 404


def test_cancel_terminal_job_is_a_no_op(served):
    service, client = served
    done = client.jobs()[0]
    assert client.cancel(done["job_id"])["state"] == "done"


def test_stored_summaries_equal_snapshot_derived(served):
    """``/results`` cells are computed once from the live metrics when
    the job finishes; they equal what a restore of the served snapshot
    gives, float for float, for a cold job and for a warm one."""
    from repro.sim.metrics import SystemMetrics
    service, client = served
    matrix = dict(MATRIX, configs=["Blk_Bypass", "BCoh_RelUp", "BCPref"],
                  seed=SEED + 1)
    for cached in (0, 3):  # cold, then warm
        job = client.submit(matrix)
        status = client.wait(job["job_id"])
        assert status["state"] == "done"
        assert status["counters"]["cached_cells"] == cached
        results = client.results(job["job_id"], full=True)
        assert sorted(results["cells"]) == sorted(results["metrics"])
        for cid, snapshot in results["metrics"].items():
            restored = SystemMetrics.from_snapshot(snapshot)
            assert results["cells"][cid] == {
                "os_time": restored.os_time().total,
                "os_read_misses": restored.os_read_misses(),
                "data_miss_rate": restored.data_miss_rate()}, cid


def test_status_carries_timings(served):
    service, client = served
    status = client.status(client.jobs()[0]["job_id"])
    assert status["state"] == "done"
    timings = status["timings"]
    assert timings["queued_s"] >= 0.0
    assert timings["run_s"] > 0.0
    # Terminal: the numbers are final, not a running clock.
    assert client.status(status["job_id"])["timings"] == timings


# ----------------------------------------------------------------------
# Server-side wait (GET /sweeps/<id>?wait=S)
# ----------------------------------------------------------------------
def _parked(tmp_path):
    """A service whose dispatcher never runs, so the test moves jobs
    through their states by hand."""
    service = _service(tmp_path / "cache", workers=1)
    service._dispatcher = threading.Thread(target=lambda: None)
    host, port = service.start_http()
    return service, SweepClient(f"http://{host}:{port}")


def _status_in_thread(client, path):
    """GET *path* on a thread; returns (thread, box) where box gets the
    status and the seconds the request took."""
    import time
    box = {}

    def run():
        start = time.monotonic()
        box["status"] = client._request("GET", path)
        box["seconds"] = time.monotonic() - start

    thread = threading.Thread(target=run)
    thread.start()
    return thread, box


def test_wait_wakes_when_the_job_finishes(tmp_path):
    service, client = _parked(tmp_path)
    try:
        job_id = client.submit(MATRIX)["job_id"]
        job = service.queue.next_job(timeout=1.0)  # now running
        assert job.job_id == job_id and job.state == "running"
        thread, box = _status_in_thread(client,
                                        f"/sweeps/{job_id}?wait=10")
        thread.join(timeout=0.3)
        assert thread.is_alive()  # blocked while the job runs
        service.queue.update(job, state="done")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert box["status"]["state"] == "done"
        assert box["seconds"] < 5.0  # long before the 10 s cap
        assert box["status"]["timings"]["run_s"] is not None
    finally:
        service.stop()


def test_wait_runs_out_with_a_non_terminal_status(tmp_path):
    service, client = _parked(tmp_path)
    try:
        job_id = client.submit(MATRIX)["job_id"]
        thread, box = _status_in_thread(client,
                                        f"/sweeps/{job_id}?wait=0.3")
        thread.join(timeout=5.0)
        assert box["status"]["state"] == "queued"
        assert box["seconds"] >= 0.3
        assert box["status"]["timings"]["run_s"] is None
        # wait=0 and no wait answer at once.
        assert client._request("GET", f"/sweeps/{job_id}?wait=0")[
            "state"] == "queued"
    finally:
        service.stop()


def test_wait_rejects_bad_values(served):
    service, client = served
    job_id = client.jobs()[0]["job_id"]
    for bad in ("abc", "-1", "", "nan", "inf"):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/sweeps/{job_id}?wait={bad}")
        assert excinfo.value.status == 400, bad
        assert "wait" in str(excinfo.value)


def test_stop_releases_blocked_waiters(tmp_path):
    service, client = _parked(tmp_path)
    job_id = client.submit(MATRIX)["job_id"]
    service.queue.next_job(timeout=1.0)  # running: cancel alone won't end it
    thread, box = _status_in_thread(client, f"/sweeps/{job_id}?wait=10")
    thread.join(timeout=0.3)
    assert thread.is_alive()
    service.stop()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert box["seconds"] < 5.0
    assert box["status"]["state"] == "running"


def test_queue_wait_wakes_on_state_change_and_close():
    queue = JobQueue()
    job = queue.submit(SweepRequest(workloads=("Shell",), configs=("Base",)))
    assert queue.wait(job, 0.05) == "queued"  # times out
    queue.next_job(timeout=0.1)
    timer = threading.Timer(0.1, queue.update, args=(job,),
                            kwargs={"state": "done"})
    timer.start()
    assert queue.wait(job, 10.0) == "done"
    other = queue.submit(SweepRequest(workloads=("Shell",),
                                      configs=("Base",)))
    queue.next_job(timeout=0.1)
    threading.Timer(0.1, queue.close).start()
    assert queue.wait(other, 10.0) == "running"  # released by close()


def test_queue_wait_stress_no_lost_wakeup():
    """More waiters than cores, a tiny switch interval, and jobs moved
    through their states from another thread: every waiter returns with
    its job terminal, none sleeps through its job's notify."""
    import sys
    request = SweepRequest(workloads=("Shell",), configs=("Base",))
    queue = JobQueue()
    jobs = [queue.submit(request) for _ in range(6)]
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        waiters = [threading.Thread(
            target=lambda job=job: seen.append(queue.wait(job, 10.0)))
            for job in jobs for _ in range(4)]
        for thread in waiters:
            thread.start()

        def drive():
            for job in jobs:
                assert queue.next_job(timeout=1.0) is job
                queue.update(job, sim_jobs=1)  # progress, no state change
                queue.update(job, state="done")

        driver = threading.Thread(target=drive)
        driver.start()
        driver.join(timeout=10.0)
        for thread in waiters:
            thread.join(timeout=10.0)
        assert not driver.is_alive()
        assert not any(thread.is_alive() for thread in waiters)
    finally:
        sys.setswitchinterval(interval)
    assert seen == ["done"] * len(waiters)
    assert all(job.timings()["run_s"] is not None for job in jobs)


def test_client_wait_falls_back_to_polling(tmp_path):
    """Against a server that ignores ``wait`` (answers at once), the
    client polls every *poll* seconds until the job is terminal."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
    paths = []

    class Ignores(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_GET(self):
            paths.append(self.path)
            state = "done" if len(paths) >= 3 else "running"
            body = json.dumps({"job_id": "job-0001", "state": state,
                               "counters": {}}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Ignores)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        client = SweepClient(f"http://{host}:{port}", timeout=5.0)
        status = client.wait("job-0001", timeout=30.0, poll=0.01)
        assert status["state"] == "done"
        assert len(paths) == 3
        # Each request asked for a server-side wait under the socket
        # timeout; the old server just did not honour it.
        for path in paths:
            assert path.startswith("/sweeps/job-0001?wait=")
            assert 0.0 < float(path.split("=")[1]) <= 2.5
    finally:
        server.shutdown()
        server.server_close()


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
def test_cancel_queued_job_via_http(tmp_path):
    service = _service(tmp_path / "cache", workers=1)
    # Park the dispatcher (idempotent start() sees a thread and skips)
    # so the submission verifiably stays queued.
    service._dispatcher = threading.Thread(target=lambda: None)
    host, port = service.start_http()
    client = SweepClient(f"http://{host}:{port}")
    try:
        job = client.submit(MATRIX)
        assert job["state"] == "queued"
        # Not terminal yet: results answer 409, not data.
        with pytest.raises(ServiceError) as excinfo:
            client.results(job["job_id"])
        assert excinfo.value.status == 409
        assert client.cancel(job["job_id"])["state"] == "cancelled"
        # Cancelled is terminal: results are reachable, just empty.
        assert client.results(job["job_id"])["cells"] == {}
    finally:
        service.stop()


class _TripAfter(threading.Event):
    """A cancel event that stays clear for the first *trips* polls,
    then reads as set — deterministic mid-sweep cancellation."""

    def __init__(self, trips):
        super().__init__()
        self.trips = trips

    def is_set(self):
        if self.trips > 0:
            self.trips -= 1
            return False
        return True


def test_cancel_mid_sweep_stops_engine(tmp_path):
    engine = ParallelEngine(scale=SCALE, seed=SEED,
                            cache=ArtifactCache(tmp_path / "cache"),
                            workers=1, retry_policy=FAST,
                            heartbeat_interval=None)
    # Checks: one at run() start, one per serial job -> the trace job
    # completes, then the first sim job's check trips.
    cancel = _TripAfter(trips=2)
    with pytest.raises(SweepCancelledError, match="1/3 jobs done"):
        engine.execute([("Shell", "Base", None), ("Shell", "Blk_Dma", None)],
                       cancel=cancel)
    events = read_events(engine.ledger_path)
    names = [ev["event"] for ev in events]
    assert "sweep_cancelled" in names
    cancelled = next(ev for ev in events if ev["event"] == "sweep_cancelled")
    assert cancelled["done"] == 1
    assert names[-1] == "sweep_end"
    assert events[-1]["ok"] is False and events[-1]["cancelled"] is True


def test_preset_cancel_runs_nothing(tmp_path):
    engine = ParallelEngine(scale=SCALE, seed=SEED,
                            cache=ArtifactCache(tmp_path / "cache"),
                            workers=1, retry_policy=FAST,
                            heartbeat_interval=None)
    cancel = threading.Event()
    cancel.set()
    with pytest.raises(SweepCancelledError, match="0/3 jobs done"):
        engine.execute([("Shell", "Base", None),
                        ("Shell", "Blk_Dma", None)], cancel=cancel)


# ----------------------------------------------------------------------
# Daemon restart: resume from the artifact store
# ----------------------------------------------------------------------
def test_restart_resumes_from_artifact_store(tmp_path):
    cache_dir = tmp_path / "persistent"
    first = _service(cache_dir)
    first.start()
    job = first.submit(MATRIX)
    _wait_job(first, job)
    assert job.state == "done"
    assert job.counters["sim_jobs"] == 2
    metrics = dict(job.results)
    first.stop()

    # A fresh daemon on the same cache directory: the resubmitted
    # matrix is answered from the store without one sim job.
    second = _service(cache_dir)
    second.start()
    job2 = second.submit(MATRIX)
    _wait_job(second, job2)
    assert job2.state == "done"
    assert job2.counters["sim_jobs"] == 0
    assert job2.counters["trace_jobs"] == 0
    assert job2.counters["cached_cells"] == 2
    assert job2.results == metrics
    second.stop()


def _wait_job(service, job, timeout=300.0):
    import time
    deadline = time.monotonic() + timeout
    while job.state in ("queued", "running"):
        assert time.monotonic() < deadline, f"{job.job_id} stuck"
        time.sleep(0.05)


# ----------------------------------------------------------------------
# Queue / request model (no HTTP, no engine)
# ----------------------------------------------------------------------
def test_request_validation_without_http():
    with pytest.raises(BadRequestError, match="JSON object"):
        SweepRequest.from_payload([1, 2])
    with pytest.raises(BadRequestError, match="seed"):
        SweepRequest.from_payload({"workloads": ["Shell"],
                                   "configs": ["Base"], "seed": "x"})
    with pytest.raises(BadRequestError, match="generate"):
        SweepRequest.from_payload({"configs": ["Base"],
                                   "generate": {"count": 0}})
    request = SweepRequest.from_payload(
        {"workloads": ["Shell"], "configs": ["Base", "Blk_Dma"],
         "scale": 0.1, "seed": 7})
    assert request.scales == (0.1,)
    assert request.total_cells() == 2
    assert request.num_cpus() == 4


def test_job_queue_fifo_and_queued_cancel():
    queue = JobQueue()
    request = SweepRequest(workloads=("Shell",), configs=("Base",))
    a = queue.submit(request)
    b = queue.submit(request)
    c = queue.submit(request)
    queue.cancel(b.job_id)  # cancelled while queued: never dispatched
    assert b.state == "cancelled"
    assert queue.next_job(timeout=0.1) is a and a.state == "running"
    assert queue.next_job(timeout=0.1) is c
    assert queue.next_job(timeout=0.05) is None  # empty: times out
    queue.close()
    assert queue.next_job(timeout=0.1) is None  # closed: returns at once
