"""The multiprocessor system: wiring and the time-ordered scheduling loop.

A :class:`MultiprocessorSystem` builds the shared bus, the coherence
controller, one :class:`~repro.memsys.hierarchy.CpuMemorySystem` and
:class:`~repro.sim.processor.Processor` per CPU, and runs all trace streams
to completion.  Scheduling always advances the runnable processor with the
smallest local clock, which keeps bus reservations in approximately global
time order and preserves the mutual exclusion of the traced critical
sections.

:meth:`MultiprocessorSystem.run` keeps the runnable set in a binary heap of
``(time, cpu_id)`` entries, so each scheduling decision costs ``O(log P)``
instead of rebuilding and scanning a list of all processors per record.
The heap invariant is strict: **every RUNNING processor has exactly one
entry, pushed immediately after its clock last changed** — a processor is
out of the heap precisely while it is being stepped, waiting at a barrier,
or done, so there are no stale entries and no lazy deletion.  Ties break on
``cpu_id``, which reproduces the scan's first-minimum choice exactly.

:meth:`run_scan` preserves the original scan-based loop as an executable
reference; the equivalence tests run both over randomized traces and
require bit-identical metrics snapshots.
"""

from __future__ import annotations

import heapq
import os
from typing import Iterable, List, Optional

from repro.check import REPRO_CHECK_ENV
from repro.common.errors import DeadlockError, SimulationError
from repro.common.types import MODE_BY_VALUE, Mode
from repro.memsys.bus import Bus
from repro.memsys.coherence import CoherenceController
from repro.memsys.hierarchy import CpuMemorySystem
from repro.sim.config import SystemConfig
from repro.sim.metrics import SystemMetrics
from repro.sim.processor import ProcStatus, Processor, SPIN_QUANTUM
from repro.sim.sync import BarrierManager, LockTable
from repro.trace.stream import Trace

#: Consecutive failed lock retries after which we declare deadlock.
MAX_SPIN_RETRIES = 1_000_000

#: Environment variable forcing the scalar scheduler (debugging aid).
REPRO_NO_BATCH_ENV = "REPRO_NO_BATCH"

#: Records a :meth:`Processor.batch_scan` classifies per attempt.
DEFAULT_BATCH_CHUNK = 4096

#: Heap key bound meaning "no other runnable processor": any key sorts
#: below it, so an unopposed run is limited only by its first breaking
#: record (clock values are far below 2**62 in any feasible trace).
_NO_BOUND = (1 << 62, -1)


class MultiprocessorSystem:
    """One simulated machine running one trace under one configuration."""

    def __init__(self, trace: Trace, config: SystemConfig,
                 update_pages: Optional[Iterable[int]] = None,
                 hotspot_pcs: Optional[Iterable[int]] = None,
                 check: Optional[bool] = None,
                 batch: Optional[bool] = None,
                 batch_chunk: int = DEFAULT_BATCH_CHUNK) -> None:
        if trace.num_cpus > config.machine.num_cpus:
            raise SimulationError(
                f"trace has {trace.num_cpus} CPUs, machine only "
                f"{config.machine.num_cpus}")
        self.trace = trace
        self.config = config
        machine = config.machine
        self.bus = Bus(machine.bus)
        self.controller = CoherenceController(machine, self.bus)
        self.metrics = SystemMetrics(trace.num_cpus, machine.page_bytes)
        if hotspot_pcs:
            self.metrics.hotspot_pcs = set(hotspot_pcs)
        if config.adaptive is not None:
            # Adaptive schemes own the whole update/invalidate decision:
            # the pages (if any) feed the policy, never the controller's
            # page-set rule, so every broadcast goes through the policy.
            from repro.memsys.adaptive import build_policy
            self.controller.adaptive = build_policy(config, update_pages)
        elif config.pure_update:
            self.controller.update_everywhere = True
        elif config.selective_update and update_pages:
            self.controller.set_update_pages(update_pages)
        self.locks = LockTable()
        self.barriers = BarrierManager(machine.barrier_release_cycles)
        self.memories: List[CpuMemorySystem] = []
        self.processors: List[Processor] = []
        streams = trace.sealed_streams()
        for cpu in range(trace.num_cpus):
            mem = CpuMemorySystem(machine, self.bus, self.controller,
                                  self.metrics.trackers[cpu])
            self.memories.append(mem)
            self.processors.append(
                Processor(cpu, streams[cpu], trace.blockops, mem,
                          self.metrics, config, self.locks, self.barriers))
        #: cpu_id -> consecutive failed lock retries; a cpu only has an
        #: entry while it is actually spinning, so the common case (nobody
        #: contended recently) is an empty dict, cleared by a truth test.
        self._spin_retries: dict = {}
        #: Event tracer (:mod:`repro.obs`), None unless armed via
        #: :func:`repro.obs.tracer.attach_tracer`.  Like the checker, it
        #: wraps miss-path methods per instance, so the disabled case
        #: costs nothing on the hot path.
        self.tracer = None
        #: Conformance checker (repro.check), None unless requested via
        #: the ``check`` argument or the REPRO_CHECK environment variable.
        #: Attaching wraps the per-CPU access paths, so the disabled case
        #: costs nothing on the hot path.
        self.checker = None
        if check is None:
            check = os.environ.get(REPRO_CHECK_ENV, "") not in ("", "0")
        if check:
            from repro.check.invariants import attach_checker
            self.checker = attach_checker(self)
        #: Batched stepping request: None consults REPRO_NO_BATCH at run
        #: time, False forces scalar.  True *requests* batching but never
        #: overrides the safety gates in :meth:`_batch_allowed` — a run
        #: with the checker or tracer armed is always scalar.
        self._batch_requested = batch
        if batch_chunk < 1:
            raise SimulationError("batch_chunk must be >= 1")
        self._batch_chunk = batch_chunk
        #: Records retired through the batched path this run (0 whenever
        #: the auto-disable gates forced scalar execution).
        self.batched_records = 0

    def _batch_allowed(self) -> bool:
        """Decide whether this run may use the batched scheduler.

        Conservative by construction: anything that observes per-record
        behaviour — the conformance checker, the observability tracer, an
        instance-patched ``step`` (timeline recorder, tests) — forces the
        scalar path, as does ``REPRO_NO_BATCH=1`` or ``batch=False``.
        """
        if self._batch_requested is False:
            return False
        if self._batch_requested is None and os.environ.get(
                REPRO_NO_BATCH_ENV, "") not in ("", "0"):
            return False
        if self.checker is not None or self.tracer is not None:
            return False
        # The batched tiers index tags_np/states_np with direct-mapped
        # geometry; any set-associative cache forces the scalar loop.
        machine = self.config.machine
        if (machine.l1i.assoc != 1 or machine.l1d.assoc != 1
                or machine.l2.assoc != 1):
            return False
        # Instance-level step wrappers (repro.sim.timeline, tests) see
        # every record; batching would skip past them.  A substituted
        # pending-fill view (``_AlwaysPending`` in repro.check and the
        # fast-path tests) reroutes reads the same way.
        if any("step" in p.__dict__
               or p._pending_ready is not p.mem.pending.ready
               for p in self.processors):
            return False
        # Class-level protocol patches (repro.check.mutants) change what
        # a write drain does; the batched write path inlines the pristine
        # drain, so any patch forces the scalar loop.
        from repro.memsys import hierarchy
        if CpuMemorySystem._drain_word is not hierarchy._PRISTINE_DRAIN:
            return False
        return True

    def run(self) -> SystemMetrics:
        """Run every stream to completion; returns the filled metrics.

        Dispatches to the batched scheduler (:meth:`_run_batched`) unless
        an observer is attached or batching is disabled; the scalar heap
        loop below is the reference behaviour both must reproduce
        bit-identically.

        Heap scheduler — see the module docstring for the invariant.  The
        processor's ``step`` is looked up per call on purpose: the timeline
        recorder and several tests monkeypatch it on the instance.
        """
        if self._batch_allowed():
            return self._run_batched()
        procs = self.processors
        running = ProcStatus.RUNNING
        blocked = ProcStatus.BLOCKED_LOCK
        push = heapq.heappush
        pop = heapq.heappop
        spin_retries = self._spin_retries
        heap = [(p.time, p.cpu_id) for p in procs if p.status is running]
        heapq.heapify(heap)
        while heap:
            _, cpu = pop(heap)
            proc = procs[cpu]
            result = proc.step()
            status = result.status
            if status is blocked:
                self._spin(proc, result.lock_addr, result.mode)
                push(heap, (proc.time, cpu))
                continue
            if spin_retries:
                spin_retries.pop(cpu, None)
            if status is running:
                push(heap, (proc.time, cpu))
            if result.barrier_release is not None:
                release, waiters = result.barrier_release
                for wcpu in waiters:
                    wproc = procs[wcpu]
                    wproc.wake_from_barrier(release)
                    push(heap, (wproc.time, wcpu))
        if not all(p.status is ProcStatus.DONE for p in procs):
            waiting = [p.cpu_id for p in procs
                       if p.status is ProcStatus.WAITING_BARRIER]
            raise DeadlockError(
                f"no runnable processor; cpus {waiting} wait at barriers")
        return self._finalize()

    def _run_batched(self) -> SystemMetrics:
        """Heap scheduler with batched run execution between pops.

        Identical to the scalar loop of :meth:`run` except for one move:
        when the popped (globally earliest) processor's head record is in
        the privately-determined class, :meth:`Processor.batch_run`
        executes its whole run of such records in one call — bounded by
        the next key in the heap — instead of one ``step`` per pop.

        Equivalence argument: the scalar loop pops the smallest
        ``(time, cpu_id)`` key; while the popped processor's key stays
        below every other key it would simply be re-popped, one record
        per iteration.  ``batch_run`` executes exactly those records —
        it stops as soon as the processor's clock reaches the smallest
        other key — and replicates the scalar ``step``'s per-record
        effects bit for bit.  The global execution order is therefore
        *identical* to the scalar loop's, not merely equivalent under
        reordering.  Records outside the private class (bus fetches,
        synchronization, block brackets, prefetches, write-buffer
        stalls) always go through the untouched scalar ``step``.
        """
        procs = self.processors
        running = ProcStatus.RUNNING
        blocked = ProcStatus.BLOCKED_LOCK
        push = heapq.heappush
        pop = heapq.heappop
        spin_retries = self._spin_retries
        columns = self.trace.column_streams()
        for p in procs:
            p.batch_prepare(columns[p.cpu_id])
        chunk = self._batch_chunk
        batched = 0
        no_bound = _NO_BOUND
        heap = [(p.time, p.cpu_id) for p in procs if p.status is running]
        heapq.heapify(heap)
        while heap:
            _, cpu = pop(heap)
            proc = procs[cpu]
            bound_time, bound_cpu = heap[0] if heap else no_bound
            k = proc.batch_run(bound_time, bound_cpu, chunk)
            if k:
                batched += k
                if proc.status is running:
                    push(heap, (proc.time, cpu))
                continue
            result = proc.step()
            status = result.status
            if status is blocked:
                self._spin(proc, result.lock_addr, result.mode)
                push(heap, (proc.time, cpu))
                continue
            if spin_retries:
                spin_retries.pop(cpu, None)
            if status is running:
                push(heap, (proc.time, cpu))
            if result.barrier_release is not None:
                release, waiters = result.barrier_release
                for wcpu in waiters:
                    wproc = procs[wcpu]
                    wproc.wake_from_barrier(release)
                    push(heap, (wproc.time, wcpu))
        self.batched_records += batched
        for p in procs:
            p.batch_flush()
        if not all(p.status is ProcStatus.DONE for p in procs):
            waiting = [p.cpu_id for p in procs
                       if p.status is ProcStatus.WAITING_BARRIER]
            raise DeadlockError(
                f"no runnable processor; cpus {waiting} wait at barriers")
        return self._finalize()

    def run_scan(self) -> SystemMetrics:
        """Reference scheduler: rebuild-and-scan the runnable list per step.

        This is the original O(P)-per-record loop.  It exists so the
        equivalence tests can check that the heap scheduler produces
        bit-identical metrics; experiments should call :meth:`run`.
        """
        procs = self.processors
        while True:
            runnable = [p for p in procs if p.status == ProcStatus.RUNNING]
            if not runnable:
                if all(p.status == ProcStatus.DONE for p in procs):
                    break
                waiting = [p.cpu_id for p in procs
                           if p.status == ProcStatus.WAITING_BARRIER]
                raise DeadlockError(
                    f"no runnable processor; cpus {waiting} wait at barriers")
            proc = min(runnable, key=lambda p: p.time)
            result = proc.step()
            if result.status == ProcStatus.BLOCKED_LOCK:
                self._spin(proc, result.lock_addr, result.mode)
            elif self._spin_retries:
                self._spin_retries.pop(proc.cpu_id, None)
            if result.barrier_release is not None:
                release, waiters = result.barrier_release
                for cpu in waiters:
                    procs[cpu].wake_from_barrier(release)
        return self._finalize()

    def _finalize(self) -> SystemMetrics:
        """Close the books on a finished run.

        Every run path ends here, so :meth:`SystemMetrics.verify` checks
        the accounting identities of every live result: a run that
        breaks one raises :class:`~repro.common.errors.AccountingError`
        instead of returning metrics.
        """
        self.metrics.finalize([p.time for p in self.processors])
        self.metrics.capture_system_stats(self.bus, self.controller,
                                          self.locks, self.barriers)
        self.metrics.verify()
        return self.metrics

    def _spin(self, proc: Processor, lock_addr: int,
              mode: Optional[Mode] = None) -> None:
        """Advance a lock-spinning processor's clock past the holder's.

        *mode* is the blocking record's mode, carried on the
        :class:`StepResult` so retries do not re-read the stream; ``None``
        (direct callers) falls back to looking it up.
        """
        holder = self.locks.holder(lock_addr)
        if holder is None:
            return  # Released in the meantime; retry immediately.
        retries = self._spin_retries.get(proc.cpu_id, 0) + 1
        self._spin_retries[proc.cpu_id] = retries
        if retries > MAX_SPIN_RETRIES:
            raise DeadlockError(
                f"cpu {proc.cpu_id} spun too long on lock {lock_addr:#x} "
                f"held by cpu {holder}")
        self.locks.note_contention()
        holder_time = self.processors[holder].time
        target = max(proc.time + SPIN_QUANTUM, holder_time + 1)
        if mode is None:
            mode = MODE_BY_VALUE[proc.stream[proc.pos].mode]
        self.metrics.add_time(mode, sync=target - proc.time)
        proc.time = target

    def check_invariants(self) -> None:
        """Coherence/inclusion invariants (property tests call this)."""
        self.controller.check_invariants()


def simulate(trace: Trace, config: SystemConfig,
             update_pages: Optional[Iterable[int]] = None,
             hotspot_pcs: Optional[Iterable[int]] = None,
             check: Optional[bool] = None,
             tracer=None,
             batch: Optional[bool] = None,
             batch_chunk: int = DEFAULT_BATCH_CHUNK) -> SystemMetrics:
    """Convenience wrapper: build a system, run it, return the metrics.

    *tracer* is an optional :class:`repro.obs.tracer.Tracer` to arm the
    system with before running (the caller keeps the reference and reads
    its events/profile afterwards).  *batch* selects the batched
    scheduler (default: on, unless ``REPRO_NO_BATCH`` is set); attaching
    a checker or tracer always forces the scalar path regardless.
    """
    system = MultiprocessorSystem(trace, config, update_pages, hotspot_pcs,
                                  check=check, batch=batch,
                                  batch_chunk=batch_chunk)
    if tracer is not None:
        from repro.obs.tracer import attach_tracer
        attach_tracer(system, tracer)
    return system.run()
