"""Sweep-as-a-service: a persistent daemon around the parallel engine.

A one-shot :class:`~repro.experiments.parallel.ParallelEngine` pays the
pool spin-up, trace generation, and derivation cost on every invocation.
Experiments at production scale — many concurrent users submitting
sweeps against one warm cache, or the hundreds of workload x scheme
cells a hybrid update/invalidate comparison needs — amortize all three:

* :class:`SweepService` owns one
  :class:`~repro.experiments.parallel.WorkerPool` (processes stay warm
  across sweeps) and one :class:`~repro.experiments.artifacts.ArtifactCache`
  (traces, derivations, *and simulation results* persist across sweeps
  and across daemon restarts);
* submissions land in a :class:`~repro.experiments.queue.JobQueue` and
  a dispatcher thread runs them FIFO, one engine ``execute()`` per
  scale, so repeat cells are served straight from the store by
  :class:`~repro.experiments.artifacts.SimKey` — bit-identically, because the cached snapshot round-trips through
  :meth:`~repro.sim.metrics.SystemMetrics.from_snapshot`;
* a small stdlib HTTP/JSON API exposes submit/status/results/cancel
  plus a progress stream backed by the per-job PR 5 run ledger.

The retry/timeout/quarantine machinery is the engine's own
(:mod:`repro.experiments.faults`): the service passes a
:class:`RetryPolicy` down per job rather than reimplementing any of it.
Engine-raised :class:`~repro.common.errors.SweepCancelledError` maps to
job state ``cancelled``; :class:`~repro.common.errors.JobFailedError`
(retries exhausted) maps to ``failed`` — the daemon itself survives
both.

HTTP API (all JSON)::

    GET  /healthz                    liveness + queue/pool snapshot
    GET  /sweeps                     all jobs, oldest first
    POST /sweeps                     submit; body: {"workloads": [...],
                                     "configs": [...], "scales": [...],
                                     "seed": N} and/or {"generate":
                                     {"count": N, "seed": N, ...}}
                                     -> 202 {"job_id": ...}
    GET  /sweeps/<id>[?wait=S]       status snapshot; with ``wait``,
                                     first block until the job is
                                     terminal or S seconds (capped at
                                     10) pass
    GET  /sweeps/<id>/results        per-cell summary (409 until done);
                                     ?full=1 adds SystemMetrics snapshots
    GET  /sweeps/<id>/events?since=N ledger events from line N on
    POST /sweeps/<id>/cancel         cancel queued or running job

Run with ``repro serve``; drive with ``repro submit`` / ``repro
status`` / ``repro cancel`` or :class:`SweepClient`.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import (JobFailedError, ReproError,
                                 SweepCancelledError)
from repro.experiments.artifacts import ArtifactCache, SimKey
from repro.experiments.faults import RetryPolicy
from repro.experiments.ledger import read_events
from repro.experiments.parallel import ParallelEngine, WorkerPool
from repro.experiments.queue import (TERMINAL, BadRequestError, JobQueue,
                                     SweepJob, SweepRequest, cell_id)

#: How long the dispatcher blocks waiting for a submission before it
#: rechecks the shutdown flag.
_DISPATCH_POLL = 0.2

#: Longest a ``GET /sweeps/<id>?wait=S`` request blocks, in seconds.
#: Well below :class:`SweepClient`'s default socket timeout, so a
#: waiting request never looks like a dead server.
MAX_WAIT_S = 10.0


class SweepService:
    """The daemon: one warm pool + one artifact cache + a job queue.

    Pure threading object — usable (and tested) without the HTTP layer
    via :meth:`submit` / :meth:`queue`.  :meth:`start` launches the
    dispatcher thread; :meth:`serve` additionally binds the HTTP server
    and blocks.  Restarting a service on the same ``cache_dir`` resumes
    from the persisted artifact store: resubmitted matrices are served
    from cached simulation results without running a single sim job.
    """

    def __init__(self, cache_dir: str,
                 workers: Optional[int] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 heartbeat_interval: Optional[float] = 5.0,
                 verbose: bool = False) -> None:
        self.cache_dir = cache_dir
        self.cache = ArtifactCache(cache_dir)
        self.workers = workers if workers is not None else (os.cpu_count()
                                                           or 1)
        self.retry_policy = retry_policy
        self.heartbeat_interval = heartbeat_interval
        self.verbose = verbose
        self.pool = WorkerPool(self.workers)
        self.queue = JobQueue()
        self.ledger_dir = os.path.join(cache_dir, "service-ledgers")
        self._dispatcher: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._server: Optional[ThreadingHTTPServer] = None
        self._started_monotonic = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        if self._dispatcher is not None:
            return
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="sweep-dispatcher",
            daemon=True)
        self._dispatcher.start()

    def stop(self) -> None:
        """Stop accepting work, cancel the running job, drain, shut the
        pool down.  Safe to call more than once."""
        self._stopping.set()
        self.queue.close()
        for job in self.queue.jobs():
            if job.state not in TERMINAL:
                self.queue.cancel(job.job_id)
        if self._dispatcher is not None:
            if self._dispatcher.is_alive():
                self._dispatcher.join(timeout=30.0)
            self._dispatcher = None
        self.pool.shutdown(wait=False)
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None

    def submit(self, payload: Any) -> SweepJob:
        """Validate *payload* and enqueue it (the POST /sweeps body)."""
        return self.queue.submit(SweepRequest.from_payload(payload))

    def health(self) -> Dict[str, Any]:
        jobs = self.queue.jobs()
        return {"ok": True,
                "uptime": round(time.monotonic() - self._started_monotonic,
                                3),
                "jobs": len(jobs),
                "queued": sum(j.state == "queued" for j in jobs),
                "running": sum(j.state == "running" for j in jobs),
                "workers": self.workers,
                "pool_generation": self.pool.generation,
                "cache_dir": self.cache_dir}

    def _log(self, message: str) -> None:
        if self.verbose:
            print(message, file=sys.stderr, flush=True)

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stopping.is_set():
            job = self.queue.next_job(timeout=_DISPATCH_POLL)
            if job is None:
                if self._stopping.is_set():
                    return
                continue
            self._run_job(job)

    def _run_job(self, job: SweepJob) -> None:
        """Execute one job: one engine ``execute()`` call per scale,
        all sharing the warm pool, the artifact cache, and one per-job
        ledger (``<cache>/service-ledgers/<job_id>.jsonl``)."""
        request = job.request
        job.ledger_path = os.path.join(self.ledger_dir,
                                       f"{job.job_id}.jsonl")
        machine = request.machine()
        self._log(f"[service] {job.job_id}: {request.total_cells()} cells "
                  f"({len(request.workloads)} workloads x "
                  f"{len(request.configs)} configs x "
                  f"{len(request.scales)} scales)")
        results: Dict[str, Dict[str, Any]] = {}
        summaries: Dict[str, Dict[str, Any]] = {}
        cached_cells = sim_jobs = trace_jobs = derive_jobs = hits = 0
        try:
            for scale in request.scales:
                engine = ParallelEngine(
                    scale=scale, seed=request.seed, machine=machine,
                    cache=self.cache, workers=self.workers,
                    retry_policy=self.retry_policy,
                    ledger_path=job.ledger_path,
                    heartbeat_interval=self.heartbeat_interval,
                    pool=self.pool)
                metrics = engine.execute(request.cells(scale),
                                         verbose=self.verbose,
                                         cancel=job.cancel_event)
                for workload in request.workloads:
                    for config in request.configs:
                        cell = metrics[SimKey.of(workload, config, machine)]
                        cid = cell_id(workload, config, scale)
                        results[cid] = cell.snapshot()
                        summaries[cid] = _summarize(cell)
                cached_cells += engine.last_cached
                sim_jobs += engine.last_job_kinds.get("sim", 0)
                trace_jobs += engine.last_job_kinds.get("trace", 0)
                derive_jobs += engine.last_job_kinds.get("derive", 0)
                hits += sum(n for e, n in engine.last_stats.items()
                            if e.endswith(".hit"))
                self.queue.update(job, cached_cells=cached_cells,
                                  sim_jobs=sim_jobs,
                                  trace_jobs=trace_jobs,
                                  derive_jobs=derive_jobs,
                                  cache_hits=hits,
                                  scales_done=list(request.scales)
                                  .index(scale) + 1)
        except SweepCancelledError:
            self.queue.update(job, state="cancelled")
            self._log(f"[service] {job.job_id}: cancelled")
            return
        except (JobFailedError, ReproError) as err:
            self.queue.update(job, state="failed", error=str(err))
            self._log(f"[service] {job.job_id}: failed: {err}")
            return
        except Exception as err:  # daemon must survive anything
            self.queue.update(job, state="failed", error=repr(err))
            self._log(f"[service] {job.job_id}: failed: {err!r}")
            return
        job.results = results
        job.summaries = summaries
        self.queue.update(job, state="done", cached_cells=cached_cells,
                          sim_jobs=sim_jobs, trace_jobs=trace_jobs,
                          derive_jobs=derive_jobs, cache_hits=hits)
        self._log(f"[service] {job.job_id}: done "
                  f"({cached_cells} cells from cached sims, "
                  f"{sim_jobs} sim jobs run)")

    # ------------------------------------------------------------------
    # Results rendering
    # ------------------------------------------------------------------
    def results_payload(self, job: SweepJob,
                        full: bool = False) -> Dict[str, Any]:
        cells = {cid: job.summaries[cid] for cid in sorted(job.summaries)}
        payload = {"job_id": job.job_id, "state": job.state,
                   "counters": dict(job.counters), "cells": cells}
        if full:
            payload["metrics"] = {cid: job.results[cid]
                                  for cid in sorted(job.results)}
        return payload

    def events_payload(self, job: SweepJob, since: int) -> Dict[str, Any]:
        """Ledger events from line *since* on (the progress stream)."""
        events: List[Dict[str, Any]] = []
        if job.ledger_path and os.path.exists(job.ledger_path):
            events = read_events(job.ledger_path)
        return {"job_id": job.job_id, "state": job.state,
                "events": events[since:], "next": len(events)}

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    def start_http(self, host: str = "127.0.0.1",
                   port: int = 0) -> Tuple[str, int]:
        """Bind the HTTP server and serve it on a daemon thread.

        Returns the bound ``(host, port)`` — pass ``port=0`` to let the
        OS pick (tests do).  Also starts the dispatcher."""
        self.start()
        handler = _make_handler(self)
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        thread = threading.Thread(target=self._server.serve_forever,
                                  name="sweep-http", daemon=True)
        thread.start()
        bound = self._server.server_address
        return str(bound[0]), int(bound[1])

    def serve(self, host: str = "127.0.0.1", port: int = 8765) -> None:
        """Blocking entry point for ``repro serve``."""
        host, port = self.start_http(host, port)
        print(f"[service] listening on http://{host}:{port} "
              f"(cache: {self.cache_dir})", file=sys.stderr, flush=True)
        try:
            while not self._stopping.is_set():
                time.sleep(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()


def _summarize(metrics) -> Dict[str, Any]:
    """The per-cell headline numbers ``/results`` serves."""
    return {"os_time": metrics.os_time().total,
            "os_read_misses": metrics.os_read_misses(),
            "data_miss_rate": metrics.data_miss_rate()}


def _wait_seconds(query: Dict[str, str]) -> float:
    """The ``wait`` query parameter (0 when absent), capped at
    :data:`MAX_WAIT_S`.  Raises ``ValueError`` unless it is a finite
    number >= 0."""
    seconds = float(query.get("wait", "0"))
    if not 0.0 <= seconds < float("inf"):
        raise ValueError(query["wait"])
    return min(seconds, MAX_WAIT_S)


def _make_handler(service: SweepService):
    """A request-handler class closed over *service*."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        # ----------------------------------------------------------
        def log_message(self, format: str, *args: Any) -> None:
            if service.verbose:  # default HTTP chatter only with -v
                super().log_message(format, *args)

        def _send(self, code: int, payload: Dict[str, Any]) -> None:
            body = json.dumps(payload, sort_keys=True).encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _error(self, code: int, message: str) -> None:
            self._send(code, {"error": message})

        def _job(self, job_id: str) -> Optional[SweepJob]:
            job = service.queue.get(job_id)
            if job is None:
                self._error(404, f"unknown job {job_id!r}")
            return job

        def _route(self) -> Tuple[str, Dict[str, str]]:
            path, _, query_string = self.path.partition("?")
            query: Dict[str, str] = {}
            for pair in query_string.split("&"):
                if pair:
                    key, _, value = pair.partition("=")
                    query[key] = value
            return path.rstrip("/") or "/", query

        # ----------------------------------------------------------
        def do_GET(self) -> None:
            path, query = self._route()
            if path == "/healthz":
                return self._send(200, service.health())
            if path == "/sweeps":
                return self._send(200, {"jobs": [
                    job.status() for job in service.queue.jobs()]})
            parts = path.strip("/").split("/")
            if parts[0] != "sweeps" or len(parts) not in (2, 3):
                return self._error(404, f"no route {path!r}")
            job = self._job(parts[1])
            if job is None:
                return None
            if len(parts) == 2:
                try:
                    wait = _wait_seconds(query)
                except ValueError:
                    return self._error(
                        400, "'wait' must be a number of seconds >= 0")
                if wait:
                    service.queue.wait(job, wait)
                return self._send(200, job.status())
            if parts[2] == "results":
                if job.state not in TERMINAL:
                    return self._error(
                        409, f"job {job.job_id} is {job.state}; results "
                             f"are available once it reaches a terminal "
                             f"state")
                return self._send(200, service.results_payload(
                    job, full=query.get("full") in ("1", "true")))
            if parts[2] == "events":
                try:
                    since = int(query.get("since", "0"))
                except ValueError:
                    return self._error(400, "'since' must be an integer")
                return self._send(200,
                                  service.events_payload(job, since))
            return self._error(404, f"no route {path!r}")

        def do_POST(self) -> None:
            path, _query = self._route()
            if path == "/sweeps":
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                    payload = json.loads(self.rfile.read(length) or b"{}")
                except (ValueError, json.JSONDecodeError):
                    return self._error(400, "body must be valid JSON")
                try:
                    job = service.submit(payload)
                except BadRequestError as err:
                    return self._error(400, str(err))
                except ReproError as err:
                    return self._error(503, str(err))
                return self._send(202, job.status())
            parts = path.strip("/").split("/")
            if parts[0] == "sweeps" and len(parts) == 3 \
                    and parts[2] == "cancel":
                job = service.queue.cancel(parts[1])
                if job is None:
                    return self._error(404, f"unknown job {parts[1]!r}")
                return self._send(200, job.status())
            return self._error(404, f"no route {path!r}")

    return Handler


class ServiceError(ReproError):
    """The sweep service answered an HTTP error (``status``, ``error``)."""

    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status


class SweepClient:
    """Thin stdlib client for the service API (``repro submit`` etc.)."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        body = json.dumps(payload).encode() if payload is not None else None
        request = urllib.request.Request(
            self.base_url + path, data=body, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as err:
            try:
                detail = json.loads(err.read()).get("error", str(err))
            except Exception:
                detail = str(err)
            raise ServiceError(detail, status=err.code)
        except (urllib.error.URLError, socket.timeout, OSError) as err:
            raise ServiceError(f"cannot reach {self.base_url}: {err}")

    # ----------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._request("POST", "/sweeps", payload)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/sweeps/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/sweeps")["jobs"]

    def results(self, job_id: str, full: bool = False) -> Dict[str, Any]:
        suffix = "?full=1" if full else ""
        return self._request("GET", f"/sweeps/{job_id}/results{suffix}")

    def events(self, job_id: str, since: int = 0) -> Dict[str, Any]:
        return self._request("GET",
                             f"/sweeps/{job_id}/events?since={since}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/sweeps/{job_id}/cancel")

    def wait(self, job_id: str, timeout: float = 600.0,
             poll: float = 0.2) -> Dict[str, Any]:
        """Block until *job_id* reaches a terminal state; returns the
        final status.  Raises :class:`ServiceError` on timeout.

        Each status request asks the server to hold it until the job
        settles (``?wait=``, at most :data:`MAX_WAIT_S` and half the
        socket timeout), so completion is seen at once; *poll* is the
        pause before the next request when a status comes back
        non-terminal.  A server that ignores ``wait`` answers at once,
        which makes this plain polling every *poll* seconds.
        """
        deadline = time.monotonic() + timeout
        longest = min(MAX_WAIT_S, self.timeout / 2)
        while True:
            wait = min(longest, max(0.0, deadline - time.monotonic()))
            status = self._request("GET",
                                   f"/sweeps/{job_id}?wait={wait:.3f}")
            if status["state"] in TERMINAL:
                return status
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status['state']} after "
                    f"{timeout:.0f}s")
            time.sleep(poll)
