"""Sweep submissions and the service's thread-safe job queue.

The sweep service (:mod:`repro.experiments.service`) accepts sweep
requests — workload x scheme x scale matrices — from many clients and
runs them one at a time against a shared warm
:class:`~repro.experiments.parallel.WorkerPool` and artifact cache.
This module holds the data model of that pipeline:

* :class:`SweepRequest` — an immutable, validated submission.  Built
  from a JSON payload (:meth:`SweepRequest.from_payload`), which may
  name workloads directly (built-in profiles or self-describing
  ``gen:...`` names) or carry a ``generate`` block that the service
  expands through :func:`repro.synthetic.generator.sample`.
* :class:`SweepJob` — one queued request plus its mutable lifecycle
  state (``queued -> running -> done | failed | cancelled``), a cancel
  event the engine polls, the monotonic timestamps behind its
  ``timings``, and the result/summary payloads the HTTP API serves.
* :class:`JobQueue` — a condition-variable queue the HTTP handlers
  push into and the service's dispatcher thread pops from; handlers
  can also block on it until a job settles (:meth:`JobQueue.wait`).

Nothing here touches HTTP or processes; the queue is plain threading so
it is directly testable without sockets.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ProfileError, ReproError

#: Lifecycle states of a job.  Terminal states are DONE/FAILED/CANCELLED.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL = (DONE, FAILED, CANCELLED)


class BadRequestError(ReproError):
    """A sweep submission is malformed (HTTP 400)."""


def cell_id(workload: str, config: str, scale: float) -> str:
    """Stable string key of one (workload, config, scale) cell."""
    return f"{workload}|{config}|{scale:g}"


@dataclasses.dataclass(frozen=True)
class SweepRequest:
    """One validated sweep submission: the full cross product of
    ``workloads x configs x scales`` at a fixed trace seed."""

    workloads: Tuple[str, ...]
    configs: Tuple[str, ...]
    scales: Tuple[float, ...] = (0.1,)
    seed: int = 1996
    #: Cache set associativity of the simulated machine (1 = the
    #: paper's direct-mapped testbed).
    assoc: int = 1
    #: Bus width in bytes; ``None`` keeps the Base machine's 8.
    bus_width: Optional[int] = None

    @classmethod
    def from_payload(cls, payload: Any) -> "SweepRequest":
        """Build a request from a decoded JSON body, validating shape.

        Raises :class:`BadRequestError` (mapped to HTTP 400) on any
        malformed field.  A ``generate`` block is expanded here — at
        submission time, not run time — so the job's workload list is
        concrete and the status API can echo it back.
        """
        if not isinstance(payload, dict):
            raise BadRequestError("body must be a JSON object")
        known = {"workloads", "configs", "scales", "scale", "seed",
                 "generate", "assoc", "bus_width"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise BadRequestError(f"unknown fields {unknown}; "
                                  f"expected {sorted(known)}")
        workloads = list(_str_list(payload, "workloads"))
        workloads.extend(_expand_generate(payload.get("generate")))
        if not workloads:
            raise BadRequestError(
                "no workloads: give 'workloads' and/or a 'generate' block")
        configs = _str_list(payload, "configs")
        if not configs:
            raise BadRequestError("'configs' must name at least one scheme")
        scales = payload.get("scales", payload.get("scale", (0.1,)))
        if isinstance(scales, (int, float)):
            scales = (scales,)
        if not isinstance(scales, (list, tuple)) or not scales:
            raise BadRequestError("'scales' must be a number or a "
                                  "non-empty list of numbers")
        try:
            scales = tuple(float(s) for s in scales)
        except (TypeError, ValueError):
            raise BadRequestError("'scales' must contain numbers")
        if any(not 0.0 < s <= 4.0 for s in scales):
            raise BadRequestError("every scale must be in (0, 4]")
        seed = payload.get("seed", 1996)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise BadRequestError("'seed' must be an integer")
        assoc = payload.get("assoc", 1)
        if not isinstance(assoc, int) or isinstance(assoc, bool):
            raise BadRequestError("'assoc' must be an integer")
        bus_width = payload.get("bus_width")
        if bus_width is not None and (
                not isinstance(bus_width, int) or isinstance(bus_width, bool)):
            raise BadRequestError("'bus_width' must be an integer")
        request = cls(workloads=tuple(workloads), configs=tuple(configs),
                      scales=scales, seed=seed, assoc=assoc,
                      bus_width=bus_width)
        request.validate()
        return request

    def validate(self) -> None:
        """Resolve every workload and scheme name, or raise 400."""
        from repro.sim.config import all_configs, resolve_config
        from repro.synthetic.profiles import get_profile
        for name in self.workloads:
            try:
                get_profile(name)
            except (KeyError, ProfileError) as err:
                raise BadRequestError(f"unknown workload {name!r}: {err}")
        unknown = []
        for c in self.configs:
            try:
                resolve_config(c)
            except KeyError:
                unknown.append(c)
        if unknown:
            raise BadRequestError(f"unknown configs {unknown}; choose "
                                  f"from {list(all_configs())} or a "
                                  f"'Hyb_UpdN@N<k>' / 'Hyb_Deg@T<k>'")
        from repro.common.errors import ConfigError
        try:
            self.machine()
        except ConfigError as err:
            raise BadRequestError(f"bad machine: {err}")

    def num_cpus(self) -> int:
        """The widest CPU count any workload in the matrix needs."""
        from repro.synthetic.profiles import get_profile
        return max(get_profile(name).num_cpus for name in self.workloads)

    def machine(self):
        """The simulated machine the whole matrix runs on: sized to the
        widest workload, with the request's associativity/bus width."""
        from repro.common.params import machine_for
        return machine_for(self.num_cpus(), assoc=self.assoc,
                           bus_width_bytes=self.bus_width)

    def cells(self, scale: float) -> List[Tuple[str, str, None]]:
        """The engine cells of one scale (machine filled in by caller)."""
        return [(w, c, None) for w in self.workloads for c in self.configs]

    def total_cells(self) -> int:
        return len(self.workloads) * len(self.configs) * len(self.scales)

    def describe(self) -> Dict[str, Any]:
        described = {"workloads": list(self.workloads),
                     "configs": list(self.configs),
                     "scales": list(self.scales), "seed": self.seed,
                     "cells": self.total_cells()}
        if self.assoc != 1:
            described["assoc"] = self.assoc
        if self.bus_width is not None:
            described["bus_width"] = self.bus_width
        return described


def _str_list(payload: Dict[str, Any], field: str) -> Tuple[str, ...]:
    value = payload.get(field, ())
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, (list, tuple)) or \
            not all(isinstance(v, str) and v for v in value):
        raise BadRequestError(f"'{field}' must be a list of names")
    return tuple(value)


def _expand_generate(block: Any) -> List[str]:
    """Expand a ``generate`` block into concrete ``gen:...`` names."""
    if block is None:
        return []
    if not isinstance(block, dict):
        raise BadRequestError("'generate' must be an object")
    from repro.synthetic import generator
    known = {"count", "seed", "families", "cpus", "intensities", "patterns"}
    unknown = sorted(set(block) - known)
    if unknown:
        raise BadRequestError(f"unknown generate fields {unknown}; "
                              f"expected {sorted(known)}")
    count = block.get("count", 4)
    if not isinstance(count, int) or isinstance(count, bool) or \
            not 1 <= count <= 256:
        raise BadRequestError("'generate.count' must be an int in [1, 256]")
    kwargs: Dict[str, Any] = {"seed": block.get("seed", 0)}
    if not isinstance(kwargs["seed"], int) or isinstance(kwargs["seed"], bool):
        raise BadRequestError("'generate.seed' must be an integer")
    if block.get("families"):
        kwargs["families"] = tuple(block["families"])
    if block.get("cpus"):
        kwargs["num_cpus"] = tuple(int(c) for c in block["cpus"])
    if block.get("intensities"):
        kwargs["intensities"] = tuple(float(v) for v in block["intensities"])
    if block.get("patterns"):
        kwargs["patterns"] = tuple(block["patterns"])
    try:
        workloads = generator.sample(count, **kwargs)
    except (ProfileError, TypeError, ValueError) as err:
        raise BadRequestError(f"bad generate block: {err}")
    return [w.name for w in workloads]


class SweepJob:
    """One submission's lifecycle state, shared between the HTTP
    handlers (readers) and the dispatcher thread (writer).

    Mutable fields are guarded by the owning :class:`JobQueue` lock —
    always go through :meth:`JobQueue.update` / :meth:`status` rather
    than poking attributes from another thread.
    """

    def __init__(self, job_id: str, request: SweepRequest) -> None:
        self.job_id = job_id
        self.request = request
        self.state = QUEUED
        self.cancel_event = threading.Event()
        self.error: Optional[str] = None
        #: Per-job JSONL ledger (set by the service when the job starts).
        self.ledger_path: Optional[str] = None
        #: cell_id -> SystemMetrics snapshot dict, filled when DONE.
        self.results: Dict[str, Dict[str, Any]] = {}
        #: cell_id -> {os_time, os_read_misses, data_miss_rate}, computed
        #: once from the live metrics when the job finishes.
        self.summaries: Dict[str, Dict[str, Any]] = {}
        #: Aggregate counters: cells served from the warm metrics cache,
        #: sim/trace/derive jobs actually executed, cache hits.
        self.counters: Dict[str, int] = {}
        #: ``time.monotonic()`` at submit, dispatch and terminal state.
        self.submitted = time.monotonic()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None

    def timings(self) -> Dict[str, Optional[float]]:
        """Seconds spent queued and running, so far or in total;
        ``run_s`` is ``None`` for a job that never started."""
        now = time.monotonic()
        end = self.finished if self.finished is not None else now
        dispatched = self.started if self.started is not None else end
        return {"queued_s": round(dispatched - self.submitted, 6),
                "run_s": (None if self.started is None
                          else round(end - self.started, 6))}

    def status(self) -> Dict[str, Any]:
        """JSON-ready status snapshot (no full metrics)."""
        return {"job_id": self.job_id, "state": self.state,
                "request": self.request.describe(),
                "error": self.error,
                "ledger": self.ledger_path,
                "counters": dict(self.counters),
                "timings": self.timings()}


class JobQueue:
    """FIFO queue of :class:`SweepJob` with blocking hand-off.

    The HTTP layer calls :meth:`submit` / :meth:`cancel` / :meth:`get`
    and blocks in :meth:`wait`; the dispatcher thread blocks in
    :meth:`next_job`.  :meth:`close` wakes both, so the service can
    shut down promptly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        #: Notified on every state change (and on close); :meth:`wait`
        #: blocks on it.  Separate from ``_ready`` so a ``notify()`` on
        #: submit always reaches the dispatcher.
        self._settled = threading.Condition(self._lock)
        self._jobs: Dict[str, SweepJob] = {}
        self._fifo: List[str] = []
        self._ids = itertools.count(1)
        self._closed = False

    def submit(self, request: SweepRequest) -> SweepJob:
        with self._ready:
            if self._closed:
                raise ReproError("queue is closed")
            job = SweepJob(f"job-{next(self._ids):04d}", request)
            self._jobs[job.job_id] = job
            self._fifo.append(job.job_id)
            self._ready.notify()
            return job

    def next_job(self, timeout: Optional[float] = None,
                 ) -> Optional[SweepJob]:
        """Pop the oldest queued job, marking it RUNNING.

        Blocks up to *timeout* seconds; returns ``None`` on timeout or
        once the queue is closed.  Jobs cancelled while still queued are
        drained here (marked CANCELLED, never dispatched).
        """
        with self._ready:
            while True:
                while self._fifo:
                    job = self._jobs[self._fifo.pop(0)]
                    if job.cancel_event.is_set():
                        self._set_state(job, CANCELLED)
                        continue
                    self._set_state(job, RUNNING)
                    return job
                if self._closed:
                    return None
                if not self._ready.wait(timeout=timeout):
                    return None

    def get(self, job_id: str) -> Optional[SweepJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def _set_state(self, job: SweepJob, state: str) -> None:
        """Move *job* to *state* (lock held): stamp the dispatch or
        terminal time and wake every :meth:`wait` caller."""
        if state == job.state:
            return
        job.state = state
        if state == RUNNING:
            job.started = time.monotonic()
        elif state in TERMINAL:
            job.finished = time.monotonic()
        self._settled.notify_all()

    def wait(self, job: SweepJob, timeout: float) -> str:
        """Block until *job* is terminal, *timeout* seconds pass, or the
        queue closes; returns the job's state at that moment."""
        deadline = time.monotonic() + timeout
        with self._settled:
            while job.state not in TERMINAL and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._settled.wait(remaining)
            return job.state

    def update(self, job: SweepJob, state: Optional[str] = None,
               error: Optional[str] = None, **counters: int) -> None:
        """Atomically publish dispatcher-side progress on *job*."""
        with self._lock:
            if state is not None:
                self._set_state(job, state)
            if error is not None:
                job.error = error
            job.counters.update(counters)

    def cancel(self, job_id: str) -> Optional[SweepJob]:
        """Request cancellation; returns the job, or ``None`` if unknown.

        A queued job is cancelled immediately; a running job's engine
        raises :class:`~repro.common.errors.SweepCancelledError` at its
        next scheduling point.  Terminal jobs are left untouched.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state not in TERMINAL:
                job.cancel_event.set()
                if job.state == QUEUED:
                    self._set_state(job, CANCELLED)
            return job

    def jobs(self) -> List[SweepJob]:
        with self._lock:
            return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    def close(self) -> None:
        with self._ready:
            self._closed = True
            self._ready.notify_all()
            self._settled.notify_all()
