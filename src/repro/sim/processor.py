"""The in-order trace-driven processor model.

Each processor consumes its CPU's trace stream record by record.  For every
record it charges instruction execution and instruction-fetch stall, then
performs the data access along the path selected by the system
configuration — cached, prefetched, bypassed, or DMA for block operations —
and reports times and misses to the metrics layer.

Synchronization records interact with the shared lock table and barrier
manager; a processor that cannot make progress returns a blocked status and
the system scheduler advances simulated time for it.

Hot-path layout
---------------

:meth:`Processor.step` is the single hottest function in the repository —
it runs once per trace record across every experiment cell.  It therefore:

* resolves a *clean L1D hit* (line resident, no pending prefetch fill, no
  scheme-specific block-op handling) inline against the bound L1 tag
  array, without entering the :class:`CpuMemorySystem` call chain — the
  overwhelming majority of references in the paper's workloads are such
  hits (Table 2 reports low miss rates on every machine).  On a
  set-associative L1 the same hit is one bound ``touch`` call: a
  resident-line map probe that also promotes the line's LRU stamp;
* routes writes through :meth:`CpuMemorySystem.write_cycles`, which skips
  the :class:`AccessResult` wrapper the write accounting never reads;
* converts record fields to enum members through precomputed lookup
  tables (``MODE_BY_VALUE``) instead of enum constructors, and
  accumulates time components directly into the plain int fields of the
  per-mode :class:`~repro.sim.metrics.TimeBreakdown`.

Every shortcut must keep :meth:`SystemMetrics.snapshot` bit-identical to
the straightforward path; ``tests/test_fastpath_equivalence.py`` and the
golden-value tests enforce this.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.common.types import (MODE_BY_VALUE, DataClass, MissKind, Mode, Op,
                                Scheme)
from repro.memsys.dma import run_dma
from repro.memsys.hierarchy import CpuMemorySystem
from repro.memsys.states import LineState
from repro.sim.config import SystemConfig
from repro.sim.metrics import SystemMetrics
from repro.sim.sync import BarrierManager, LockTable
from repro.trace.blockop import BlockOpDescriptor, BlockOpRegistry
from repro.trace.record import TraceRecord

#: Cycles a spinning processor waits between lock retries.
SPIN_QUANTUM = 16

_MODE_OF = MODE_BY_VALUE

# Opcode values as plain ints: IntEnum members compare to ints at C speed,
# without the enum __eq__ dispatch.
_READ = int(Op.READ)
_WRITE = int(Op.WRITE)
_PREFETCH = int(Op.PREFETCH)

#: Extra L1I lines an instruction fetch may span and still be batchable;
#: larger basic blocks fall back to the scalar ifetch walk.
_BATCH_MAX_SPAN = 3

#: Records the interpreter tier of :meth:`Processor.batch_run` executes
#: before attempting a vectorized scan: long enough that a scan's fixed
#: numpy cost is only paid on runs with a real chance of amortizing it.
_VEC_AFTER = 64

_OS_MODE = int(Mode.OS)
_KIND_BLOCK = MissKind.BLOCK_OP
_KIND_COH = MissKind.COHERENCE
_KIND_OTHER = MissKind.OTHER
_DCLASS_OF = {int(d): d for d in DataClass}
_ST_E = LineState.EXCLUSIVE
_ST_M = LineState.MODIFIED
_LOCK_ACQ = int(Op.LOCK_ACQ)
_LOCK_REL = int(Op.LOCK_REL)
_BARRIER = int(Op.BARRIER)
_BLOCK_START = int(Op.BLOCK_START)
_BLOCK_END = int(Op.BLOCK_END)


class ProcStatus(enum.Enum):
    RUNNING = "running"
    BLOCKED_LOCK = "blocked_lock"
    WAITING_BARRIER = "waiting_barrier"
    DONE = "done"


class StepResult:
    """Outcome of one :meth:`Processor.step` call."""

    __slots__ = ("status", "lock_addr", "barrier_release", "mode")

    def __init__(self, status: ProcStatus, lock_addr: int = 0,
                 barrier_release: Optional[Tuple[int, List[int]]] = None,
                 mode: Optional[Mode] = None) -> None:
        self.status = status
        self.lock_addr = lock_addr
        self.barrier_release = barrier_release
        #: Mode of the blocking record (set for BLOCKED_LOCK results so the
        #: scheduler can attribute spin time without re-reading the stream).
        self.mode = mode


#: Shared results for the two allocation-heavy outcomes.  ``step`` returns
#: these for plain running/done steps; callers only read the fields.
_RESULT_RUNNING = StepResult(ProcStatus.RUNNING)
_RESULT_DONE = StepResult(ProcStatus.DONE)


class Processor:
    """One simulated CPU."""

    def __init__(self, cpu_id: int, stream: Sequence[TraceRecord],
                 blockops: BlockOpRegistry, mem: CpuMemorySystem,
                 metrics: SystemMetrics, config: SystemConfig,
                 locks: LockTable, barriers: BarrierManager) -> None:
        self.cpu_id = cpu_id
        #: Immutable snapshot of the stream: tuple indexing skips the
        #: list's bounds/ob_item indirection in the per-record loop.
        self.stream: Tuple[TraceRecord, ...] = tuple(stream)
        self.blockops = blockops
        self.mem = mem
        self.metrics = metrics
        self.tracker = metrics.trackers[cpu_id]
        self.config = config
        self.locks = locks
        self.barriers = barriers
        self.pos = 0
        self.time = 0
        self.status = ProcStatus.RUNNING if stream else ProcStatus.DONE
        self._blk_desc: Optional[BlockOpDescriptor] = None
        self._blk_last_src_line = -1
        self._barrier_rec: Optional[TraceRecord] = None
        # --- hot-path bindings (all mutated in place by their owners) ---
        self._n = len(self.stream)
        self._l1_tags = mem.l1d.tags
        self._l1_line_bytes = mem.l1d.line_bytes
        self._l1_sets = mem.l1d.num_lines
        self._l1i_tags = mem.l1i.tags
        self._l1i_line_bytes = mem.l1i.line_bytes
        self._l1i_sets = mem.l1i.num_lines
        # Set-associative L1s cannot use the direct-indexed inline probes
        # in step() (the flat set-major tag array would alias), so they
        # bind a one-entry sentinel array holding -2: no line address is
        # negative, so that probe always misses.  step() then resolves
        # their hits through ``touch`` (``_l1_touch``/``_l1i_touch``,
        # None on direct-mapped caches): one resident-line map probe
        # that also promotes the line's LRU stamp, exactly as the
        # mem.read/ifetch chain would.
        self._l1_touch = self._l1i_touch = None
        if mem.l1d.assoc != 1:
            self._l1_tags = [-2]
            self._l1_sets = 1
            self._l1_touch = mem.l1d.touch
        if mem.l1i.assoc != 1:
            self._l1i_tags = [-2]
            self._l1i_sets = 1
            self._l1i_touch = mem.l1i.touch
        self._l1_hit = mem.machine.l1_hit_cycles
        self._pending_ready = mem.pending.ready
        self._time = metrics.time
        self._reads = metrics.reads
        self._writes = metrics.writes
        # Scheme flags deciding when a block-op record may use the plain
        # cached fast path.  PREF/BYPREF reads need the lookahead-prefetch
        # side effects; BYPASS writes need the destination line register.
        scheme = config.scheme
        self._blk_read_plain = scheme not in (Scheme.PREF, Scheme.BYPREF)
        self._blk_write_plain = scheme != Scheme.BYPASS

    # ------------------------------------------------------------------
    # Scheduling interface
    # ------------------------------------------------------------------
    def wake_from_barrier(self, release_time: int) -> None:
        """Resume after a barrier episode completes."""
        if self.status != ProcStatus.WAITING_BARRIER:
            raise SimulationError(f"cpu {self.cpu_id} woken while not waiting")
        rec = self._barrier_rec
        assert rec is not None
        mode = _MODE_OF[rec.mode]
        wait = max(0, release_time - self.time)
        self.metrics.add_time(mode, sync=wait)
        self.time = max(self.time, release_time)
        # Re-read the barrier word the releaser just wrote (the spin-exit
        # read): the invalidation protocol makes this a coherence miss.
        res = self.mem.read(rec.addr, self.time)
        self.metrics.record_read(self.cpu_id, rec, res, in_blockop=False)
        self.metrics.add_time(mode, exec_cycles=1, dread=res.stall,
                              pref=res.pref_stall)
        self.time = res.done
        self._barrier_rec = None
        self.status = ProcStatus.RUNNING

    # ------------------------------------------------------------------
    # Main step
    # ------------------------------------------------------------------
    def step(self) -> StepResult:
        """Process the next record; returns the resulting status."""
        if self.status is not ProcStatus.RUNNING:
            raise SimulationError(f"step on {self.status} cpu {self.cpu_id}")
        pos = self.pos
        if pos >= self._n:
            self.status = ProcStatus.DONE
            return _RESULT_DONE
        rec = self.stream[pos]
        op = rec.op

        # A held lock blocks *before* the record is consumed; the system
        # scheduler advances our clock (spinning) and retries.
        if op == _LOCK_ACQ:
            holder = self.locks.holder(rec.addr)
            if holder is not None and holder != self.cpu_id:
                return StepResult(ProcStatus.BLOCKED_LOCK, lock_addr=rec.addr,
                                  mode=_MODE_OF[rec.mode])

        self.pos = pos + 1
        mode = _MODE_OF[rec.mode]
        icount = rec.icount
        t = self.time

        # Instruction fetch and execution for this basic block.  The
        # whole-fetch-in-one-resident-L1I-line case (short basic blocks)
        # is resolved inline; anything else goes through the hierarchy.
        if icount:
            pc = rec.pc
            i_bytes = self._l1i_line_bytes
            iline = pc - pc % i_bytes
            if (pc + 4 * icount <= iline + i_bytes
                    and self._l1i_tags[(iline // i_bytes) % self._l1i_sets]
                    == iline):
                istall = 0
            elif (self._l1i_touch is not None
                    and pc + 4 * icount <= iline + i_bytes
                    and self._l1i_touch(iline)):
                istall = 0
            else:
                istall = self.mem.ifetch(pc, icount, t)
        else:
            istall = 0
        exec_cycles = icount
        t += icount + istall

        blk = self._blk_desc
        if op == _READ:
            addr = rec.addr
            line_bytes = self._l1_line_bytes
            line = addr - addr % line_bytes
            if ((blk is None or not rec.blockop or self._blk_read_plain)
                    and self._l1_tags[(line // line_bytes) % self._l1_sets]
                    == line
                    and line not in self._pending_ready):
                # Clean L1D hit: one read for this mode, zero stall.
                self._reads[mode] += 1
                exec_cycles += 1
                t += self._l1_hit
            elif (self._l1_touch is not None
                    and (blk is None or not rec.blockop
                         or self._blk_read_plain)
                    and line not in self._pending_ready
                    and self._l1_touch(line)):
                # The same clean hit in a set-associative L1D.  The
                # pending test comes first: touch() promotes the line.
                self._reads[mode] += 1
                exec_cycles += 1
                t += self._l1_hit
            else:
                t, extra_exec = self._do_read(rec, t)
                exec_cycles += extra_exec
        elif op == _WRITE:
            exec_cycles += 1
            if blk is None or not rec.blockop or self._blk_write_plain:
                done, stall = self.mem.write_cycles(rec.addr, t)
                self._writes[mode] += 1
                if rec.blockop:
                    self.metrics.blk_write_stall += stall
                if stall:
                    self._time[mode].dwrite += stall
                t = done
            else:
                t = self._do_write(rec, t)
        elif op == _PREFETCH:
            self.mem.prefetch_line(rec.addr, t)
            self.metrics.record_prefetch_issued()
        elif op == _LOCK_ACQ:
            t = self._do_lock_acquire(rec, t)
            exec_cycles += 2
        elif op == _LOCK_REL:
            t = self._do_lock_release(rec, t)
            exec_cycles += 1
        elif op == _BLOCK_START:
            t = self._do_block_start(rec, t)
        elif op == _BLOCK_END:
            t = self._do_block_end(rec, t)
        elif op == _BARRIER:
            return self._do_barrier(rec, t, exec_cycles, istall)
        else:  # pragma: no cover - enum is exhaustive
            raise SimulationError(f"unhandled op {op}")

        breakdown = self._time[mode]
        breakdown.exec_cycles += exec_cycles
        if istall:
            breakdown.imiss += istall
        # ``blk`` is the pre-step state: a BLOCK_START enters (and a
        # BLOCK_END leaves) block context during this very record, which
        # the opcode checks cover — matching the post-step condition the
        # accounting was defined with.
        if blk is not None or op == _BLOCK_START or op == _BLOCK_END:
            self.metrics.blk_instr_exec += exec_cycles + istall
        self.time = t
        if self.pos >= self._n:
            self.status = ProcStatus.DONE
            return _RESULT_DONE
        return _RESULT_RUNNING

    # ------------------------------------------------------------------
    # Batched stepping
    # ------------------------------------------------------------------
    #
    # The batched mode executes *runs* of records whose outcome is fully
    # determined by this CPU's private state — L1D read hits, reads that
    # miss the L1D but hit a valid L2 line, and writes whose L2 line is
    # already owned (EXCLUSIVE/MODIFIED), so the write-buffer drain never
    # leaves this CPU — without going through the per-record ``step``
    # call chain.  Two tiers share the work:
    #
    # * :meth:`batch_run`, a fused interpreter loop over columnar data
    #   (Python lists indexed by position), replicates ``step``'s exact
    #   effects for those records and stops at the first record it cannot
    #   prove private (bus fetch, sync op, block bracket, prefetch,
    #   pending-fill or full-write-buffer interaction);
    # * :meth:`batch_scan` / :meth:`batch_retire`, the vectorized tier,
    #   classifies long clean stretches with numpy tag compares and
    #   retires them in one accounting update per stretch.  ``batch_run``
    #   delegates to it once a run has proven long enough to amortize a
    #   scan's fixed cost.
    #
    # Both tiers are bounded by the next key in the scheduler's heap, so
    # the global record execution order is *identical* to the scalar heap
    # loop's pop order — the equivalence argument never needs to reason
    # about commuting records; see ``MultiprocessorSystem._run_batched``.

    def batch_prepare(self, cols) -> None:
        """Bind the per-record classification tables derived from *cols*.

        Called once per run by the batched scheduler.  Everything here is
        geometry- or trace-derived and immutable during the run, so the
        tables are cached on the column block itself, keyed by the cache
        geometry and scheme flags — repeated simulations of one trace
        (benchmark repeats, scalar/batched comparisons) reuse them.  The
        only dynamic inputs to the batched tiers are the cache-tag
        mirrors and the write buffer.
        """
        if getattr(self, "_bt_ready", False):
            return
        mem = self.mem
        l2 = mem.l2
        key = (self._l1_line_bytes, self._l1_sets, self._l1i_line_bytes,
               self._l1i_sets, l2.line_bytes, l2.num_lines, self._l1_hit,
               self._blk_read_plain, self._blk_write_plain)
        cache = cols._prep_cache
        if cache is None:
            cache = cols._prep_cache = {}
        prep = cache.get(key)
        if prep is None:
            prep = cache[key] = self._build_prep(cols)
        (self._bt_kr_out, self._bt_kw_out, self._bt_kr_in, self._bt_kw_in,
         self._bt_ok_out, self._bt_ok_in, self._bt_span, self._bt_probe,
         self._bt_didx, self._bt_dline, self._bt_l2idx, self._bt_l2line,
         self._bt_iidx, self._bt_iline, self._bt_dt, self._bt_dtcum,
         self._bt_ic1, self._bt_modes,
         self._fr_cls_out, self._fr_cls_in, self._fr_mode, self._fr_ic,
         self._fr_didx, self._fr_dline, self._fr_l2idx, self._fr_l2line,
         self._fr_iidx, self._fr_iline, self._fr_span,
         self._fr_blk, self._fr_pc, self._fr_dcl, self._fr_a16) = prep
        self._l1_tags_np = mem.l1d.tags_np
        self._l1i_tags_np = mem.l1i.tags_np
        self._l2_tags_np = l2.tags_np
        self._l2_states_np = l2.states_np
        self._wb_depth = mem.wb1.depth
        self._wb_drain = mem.machine.write_buffers.l1_drain_cycles
        tracker = self.tracker
        # Deferred metric accumulators for the interpreter tier.  Every
        # target is a write-only commutative integer sum during the run,
        # so :meth:`batch_run` accumulates here across calls and
        # :meth:`batch_flush` folds the totals in once at end of run —
        # the per-call flush would otherwise dominate short runs.
        self._fr_reads = [0, 0, 0]
        self._fr_writes = [0, 0, 0]
        self._fr_rmiss = [0, 0, 0]
        self._fr_exec = [0, 0, 0]
        self._fr_dread = [0, 0, 0]
        #: [blk_read_stall, blk_instr_exec, l1 fills, l1 evictions,
        #:  wb1 enqueues]
        self._fr_misc = [0, 0, 0, 0, 0]
        # Everything batch_run touches, bound once: one tuple unpack per
        # call instead of ~40 attribute loads (runs are often only a few
        # records long before the heap bound cuts them, so per-call
        # overhead is the tier's main cost).
        self._fr_ctx = (
            self._fr_mode, self._fr_ic, self._fr_didx, self._fr_dline,
            self._fr_l2idx, self._fr_l2line, self._fr_iidx, self._fr_iline,
            self._fr_span, self._fr_blk,
            self._l1_tags, self._l1_tags_np, self._l1i_tags, l2.tags,
            l2.states, l2.states_np, self._pending_ready,
            tracker.coh_pending, tracker.displaced, tracker.bypassed,
            mem.wb1, mem.wb1._entries, self._wb_depth, self._wb_drain,
            self._l1i_sets, self._l1i_line_bytes, self._l1_hit,
            mem.machine.l2_hit_cycles,
            self.config.scheme in (Scheme.BYPASS, Scheme.BYPREF),
            self._fr_reads, self._fr_writes, self._fr_rmiss, self._fr_exec,
            self._fr_dread, self._fr_misc)
        self._bt_ready = True

    def batch_flush(self) -> None:
        """Fold the interpreter tier's deferred sums into the metrics.

        Called by the batched scheduler once its loop ends (all targets
        are write-only until then, so deferral cannot be observed).
        Idempotent: the accumulators are zeroed as they are drained.
        """
        if not getattr(self, "_bt_ready", False):
            return
        metrics = self.metrics
        reads = self._reads
        writes = self._writes
        read_misses = metrics.read_misses
        time_of = self._time
        for v in (0, 1, 2):
            mode = _MODE_OF[v]
            c = self._fr_reads[v]
            if c:
                reads[mode] += c
                self._fr_reads[v] = 0
            c = self._fr_writes[v]
            if c:
                writes[mode] += c
                self._fr_writes[v] = 0
            c = self._fr_rmiss[v]
            if c:
                read_misses[mode] += c
                self._fr_rmiss[v] = 0
            br = time_of[mode]
            c = self._fr_exec[v]
            if c:
                br.exec_cycles += c
                self._fr_exec[v] = 0
            c = self._fr_dread[v]
            if c:
                br.dread += c
                self._fr_dread[v] = 0
        misc = self._fr_misc
        if misc[0]:
            metrics.blk_read_stall += misc[0]
        if misc[1]:
            metrics.blk_instr_exec += misc[1]
        l1d = self.mem.l1d
        if misc[2]:
            l1d.fills += misc[2]
        if misc[3]:
            l1d.evictions += misc[3]
        if misc[4]:
            self.mem.wb1.enqueues += misc[4]
        misc[0] = misc[1] = misc[2] = misc[3] = misc[4] = 0

    def _build_prep(self, cols):
        """Compute the static classification tables for :meth:`batch_prepare`."""
        ops = np.ascontiguousarray(cols.ops)
        addrs = np.ascontiguousarray(cols.addrs)
        pcs = np.ascontiguousarray(cols.pcs)
        ic = np.ascontiguousarray(cols.icounts)
        blockops = np.ascontiguousarray(cols.blockops)
        is_r = ops == _READ
        is_w = ops == _WRITE
        db = self._l1_line_bytes
        dline = addrs - addrs % db
        l2 = self.mem.l2
        l2b = l2.line_bytes
        l2line = addrs - addrs % l2b
        ib = self._l1i_line_bytes
        iline = pcs - pcs % ib
        probe = ic > 0
        # Lines the instruction fetch spans beyond the first.  A fetch is
        # vectorizable while *every* spanned line is L1I-resident (then
        # the scalar ifetch walk returns zero stall without mutating
        # anything); fetches spanning more than _BATCH_MAX_SPAN extra
        # lines break a vector run to bound the scan's per-line probes
        # (the interpreter tier walks any span).
        span = np.where(probe, (pcs + 4 * ic - 1 - iline) // ib, 0)
        ok_fetch = span <= _BATCH_MAX_SPAN
        # Kind masks, resolved per block-op context (constant over a run,
        # since BLOCK_START/END always break it).  Outside a block
        # operation only untagged records take the plain path; inside,
        # untagged records still do, and tagged word records do exactly
        # when the scheme has no special read/write handling for them
        # (the scalar step's _blk_read_plain/_blk_write_plain test).
        untagged = blockops == 0
        kr_out = is_r & untagged & ok_fetch
        kw_out = is_w & untagged & ok_fetch
        kr_in = is_r & ok_fetch if self._blk_read_plain else kr_out
        kw_in = is_w & ok_fetch if self._blk_write_plain else kw_out
        ok_out = kr_out | kw_out
        ok_in = kr_in | kw_in
        didx = (dline // db) % self._l1_sets
        l2idx = (l2line // l2b) % l2.num_lines
        iidx = (iline // ib) % self._l1i_sets
        # Per-record clock advance when retired on the vector tier:
        # reads cost icount + l1_hit, writes icount + 1 (the wb insert).
        dt = ic + np.where(is_r, self._l1_hit, 1)
        dtcum = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(dt)))
        ic1 = ic + 1
        modes = np.ascontiguousarray(cols.modes)
        # Interpreter-tier record classes: 0 = leave to the scalar step,
        # 1 = read, 2 = write.  Outside block context every R/W record is
        # plain (the scalar step ignores the block-op tag when no block
        # operation is active); inside, tagged records are plain exactly
        # per the scheme flags.  Stored as Python lists — the interpreter
        # indexes them at C speed without numpy scalar boxing.
        cls_out = np.where(is_r, 1, 0) + np.where(is_w, 2, 0)
        cls_in = (np.where(is_r & (untagged | self._blk_read_plain), 1, 0)
                  + np.where(is_w & (untagged | self._blk_write_plain), 2, 0))
        return (kr_out, kw_out, kr_in, kw_in, ok_out, ok_in,
                np.where(ok_in | ok_out, span, 0), probe,
                didx, dline, l2idx, l2line, iidx, iline, dt, dtcum, ic1,
                modes,
                cls_out.tolist(), cls_in.tolist(), modes.tolist(),
                ic.tolist(), didx.tolist(), dline.tolist(), l2idx.tolist(),
                l2line.tolist(), iidx.tolist(), iline.tolist(),
                span.tolist(), blockops, pcs,
                np.ascontiguousarray(cols.dclasses), addrs - addrs % 16)

    def batch_scan(self, cap: int):
        """Classify the eligible run at the stream head; phase 1.

        Returns ``(k, aux)``: the length of the clean prefix (possibly
        0) of the next ``cap`` records, plus the per-record completion
        clocks and write-buffer schedule needed to retire any prefix of
        it.  Never mutates state.
        """
        pos = self.pos
        # Block-op context is constant over a run (BLOCK_START/END always
        # break it), so one check here selects the right kind masks for
        # the whole scan — and tells batch_retire whether the retired
        # records accrue blk_instr_exec, like the scalar step's tail.
        in_blk = self._blk_desc is not None
        if not (self._bt_ok_in if in_blk else self._bt_ok_out)[pos]:
            return 0, None
        hi = pos + cap
        n = self._n
        if hi > n:
            hi = n
        sl = slice(pos, hi)
        kr = (self._bt_kr_in if in_blk else self._bt_kr_out)[sl]
        kw = (self._bt_kw_in if in_blk else self._bt_kw_out)[sl]
        l2i = self._bt_l2idx[sl]
        # Writes must hit an owned (E/M) L2 line so the drain is local;
        # EXCLUSIVE=2, MODIFIED=3 in the int8 state mirror.
        wok = kw & (self._l2_tags_np[l2i] == self._bt_l2line[sl]) \
                 & (self._l2_states_np[l2i] >= 2)
        if self._pending_ready:
            # A pending prefetch fill could cover any line; the scalar
            # read path consults it, so reads fall back while one exists.
            elig = wok
        else:
            elig = kr | wok
        elig &= self._l1_tags_np[self._bt_didx[sl]] == self._bt_dline[sl]
        probe = self._bt_probe[sl]
        itags = self._l1i_tags_np
        iidx = self._bt_iidx[sl]
        iline = self._bt_iline[sl]
        elig &= (itags[iidx] == iline) | ~probe
        # Fetches spanning extra L1I lines stay eligible only while every
        # spanned line is resident (the scalar ifetch walk is then a
        # zero-stall no-op).  ``_bt_span`` is zeroed for records that are
        # kind-ineligible anyway, bounding this loop at _BATCH_MAX_SPAN.
        span = self._bt_span[sl]
        lmax = int(span.max())
        if lmax:
            isets = self._l1i_sets
            ib = self._l1i_line_bytes
            for lvl in range(1, lmax + 1):
                need = span >= lvl
                elig &= ~need | (itags[(iidx + lvl) % isets]
                                 == iline + lvl * ib)
        bad = np.flatnonzero(~elig)
        k = int(bad[0]) if bad.size else hi - pos
        if k == 0:
            return 0, None
        dtc = self._bt_dtcum
        clock = dtc[pos + 1:pos + 1 + k] - dtc[pos] + self.time
        w_rel = np.flatnonzero(kw[:k])
        wq = ends = None
        if w_rel.size:
            # Vectorized WB1 schedule: end_i = max(enqueue_i, end_{i-1})
            # + drain, solved as (i+1)*drain + running-max.  A write that
            # would find the buffer full must go through the scalar path
            # (it stalls), so the run is truncated right before it.
            wb = self.mem.wb1
            drain = self._wb_drain
            lse = wb.last_service_end
            ar = np.arange(w_rel.size)
            wq = clock[w_rel] - 1
            runmax = np.maximum.accumulate(wq - drain * ar)
            ends = drain * (ar + 1) + np.maximum(runmax, lse)
            entries = wb._entries
            if entries:
                init = np.fromiter(entries, dtype=np.int64,
                                   count=len(entries))
                live0 = len(entries) - np.searchsorted(init, wq,
                                                       side="right")
            else:
                live0 = 0
            occ = live0 + (ar - np.searchsorted(ends, wq, side="right"))
            overfull = np.flatnonzero(occ > self._wb_depth - 1)
            if overfull.size:
                k = int(w_rel[overfull[0]])
                if k == 0:
                    return 0, None
                jw_max = int(overfull[0])
                w_rel = w_rel[:jw_max]
                wq = wq[:jw_max]
                ends = ends[:jw_max]
                clock = clock[:k]
        start = clock - self._bt_dt[pos:pos + k]
        return k, (clock, start, w_rel, wq, ends)

    def batch_retire(self, j: int, aux) -> int:
        """Retire the first *j* records of a scanned run; phase 3.

        Applies exactly the state changes the scalar path would have:
        per-mode read/write counts and exec cycles, the WB1 drain
        schedule (including E->M ownership commits on drained L2 lines),
        and the clock/stream position.  Returns *j*.
        """
        clock, _start, w_rel, wq, ends = aux
        pos = self.pos
        in_blk = self._blk_desc is not None
        kr = self._bt_kr_in if in_blk else self._bt_kr_out
        if j <= 32:
            # T*-truncated tails are usually a handful of records; a
            # Python accumulation beats three bincounts at that size.
            cnt = [0, 0, 0]
            ecs = [0, 0, 0]
            rcnt = [0, 0, 0]
            for v, e, r in zip(self._bt_modes[pos:pos + j].tolist(),
                               self._bt_ic1[pos:pos + j].tolist(),
                               kr[pos:pos + j].tolist()):
                cnt[v] += 1
                ecs[v] += e
                if r:
                    rcnt[v] += 1
            total_ecs = ecs[0] + ecs[1] + ecs[2]
        else:
            m = self._bt_modes[pos:pos + j]
            cnt = np.bincount(m, minlength=3)
            ecs = np.bincount(m, weights=self._bt_ic1[pos:pos + j],
                              minlength=3)
            rcnt = np.bincount(m[kr[pos:pos + j]], minlength=3)
            total_ecs = int(ecs.sum())
        if in_blk:
            # The scalar step adds exec_cycles to blk_instr_exec for
            # every record executed inside a block operation.
            self.metrics.blk_instr_exec += total_ecs
        reads = self._reads
        writes = self._writes
        time_of = self._time
        for v in (0, 1, 2):
            nmode = int(cnt[v])
            if not nmode:
                continue
            mode = _MODE_OF[v]
            nr = int(rcnt[v])
            nw = nmode - nr
            if nr:
                reads[mode] += nr
            if nw:
                writes[mode] += nw
            time_of[mode].exec_cycles += int(ecs[v])
        if w_rel is not None and w_rel.size:
            jw = int(np.searchsorted(w_rel, j, side="left"))
            if jw:
                wb = self.mem.wb1
                t_last = int(wq[jw - 1])
                entries = wb._entries
                while entries and entries[0] <= t_last:
                    entries.popleft()
                keep = ends[np.searchsorted(ends[:jw], t_last,
                                            side="right"):jw]
                entries.extend(keep.tolist())
                wb.last_service_end = int(ends[jw - 1])
                wb.enqueues += jw
                # Every drained write targeted an owned L2 line; commit
                # the EXCLUSIVE -> MODIFIED transitions the scalar drain
                # performs (MODIFIED lines are unchanged).
                l2 = self.mem.l2
                states = l2.states
                states_np = l2.states_np
                modified = LineState.MODIFIED
                for idx in np.unique(
                        self._bt_l2idx[pos + w_rel[:jw]]).tolist():
                    if states[idx] is not modified:
                        states[idx] = modified
                        states_np[idx] = 3
        self.pos = pos + j
        self.time = int(clock[j - 1])
        if self.pos >= self._n:
            self.status = ProcStatus.DONE
        return j

    def batch_run(self, bound_time: int, bound_cpu: int, chunk: int) -> int:
        """Execute the private run at the stream head; returns its length.

        The interpreter tier of the batched mode: replicate the scalar
        ``step``'s exact effects for consecutive records whose outcome
        depends only on this CPU's private state, reading the columnar
        tables instead of record objects and deferring metric-counter
        updates to :meth:`batch_flush`.  Handles L1D read hits, reads missing
        the L1D but hitting a valid L2 line, and writes to an owned
        (EXCLUSIVE/MODIFIED) L2 line with write-buffer room — including
        their write-allocate L1 fills and miss-taxonomy bookkeeping.

        A record is executed only while its pop key ``(time, cpu_id)``
        precedes ``(bound_time, bound_cpu)`` — the scheduler passes the
        next key in its heap, so the records executed here are exactly
        the consecutive pops the scalar loop would have given this CPU,
        in the same global order.  Returns 0 (and mutates nothing) when
        the head record needs the scalar path.

        After ``_VEC_AFTER`` consecutive records the loop hands the rest
        of the run to the vectorized scan/retire tier, then resumes.
        """
        pos = self.pos
        n = self._n
        if pos >= n:
            return 0
        in_blk = self._blk_desc is not None
        cls_l = self._fr_cls_in if in_blk else self._fr_cls_out
        if not cls_l[pos]:
            return 0
        (mode_l, ic_l, didx_l, dline_l, l2idx_l, l2line_l, iidx_l, iline_l,
         span_l, blk_a,
         dtags, dtags_np, itags, l2tags, l2states, l2states_np, pending,
         coh_pending, displaced, bypassed,
         wb, wb_q, wb_depth, drain, isets, ib, l1_hit, l2_hit, bypass_scheme,
         reads_c, writes_c, rmiss_c, exec_c, dread_c,
         misc) = self._fr_ctx
        t = self.time
        cpu_lt = self.cpu_id < bound_cpu
        # Pop-key bound as a single clock ceiling: with the smaller
        # cpu_id we win ties, so records may run while t <= bound_time;
        # otherwise only strictly before.
        limit = bound_time if cpu_lt else bound_time - 1
        miss_stall = l2_hit - l1_hit
        st_e = _ST_E
        st_m = _ST_M
        metrics = self.metrics
        # Tagged reads that miss the L1D take the bypass path (line
        # registers, no fill) under these schemes; the interpreter must
        # leave them to the scalar step.
        bypass_blk = in_blk and bypass_scheme
        lse = wb.last_service_end
        wb_pop = wb_q.popleft
        wb_append = wb_q.append
        count = 0
        last_vec = 0
        while pos < n:
            if t > limit:
                break
            cls = cls_l[pos]
            if not cls:
                break
            ic = ic_l[pos]
            if ic:
                ii = iidx_l[pos]
                il = iline_l[pos]
                if itags[ii] != il:
                    break
                span = span_l[pos]
                if span:
                    lvl = 1
                    while lvl <= span:
                        if itags[(ii + lvl) % isets] != il + lvl * ib:
                            break
                        lvl += 1
                    if lvl <= span:
                        break
            v = mode_l[pos]
            if cls == 1:
                di = didx_l[pos]
                dl = dline_l[pos]
                if dtags[di] == dl:
                    if dl in pending:
                        break  # in-flight prefetch fill: scalar accounting
                    reads_c[v] += 1
                    t += ic + l1_hit
                else:
                    # L1D miss.  Private exactly when the L2 holds the
                    # line in any valid state (the L2 read hit leaves
                    # MESI state untouched); a bus fetch breaks the run.
                    bo = blk_a[pos]
                    if bo and bypass_blk:
                        break
                    l2i = l2idx_l[pos]
                    if l2tags[l2i] != l2line_l[pos]:
                        break
                    # consume_miss_flags + _l1_fill, fused: membership
                    # first (the flags), then the unconditional discards
                    # both calls perform.
                    coh = dl in coh_pending
                    disp = dl in displaced
                    byp = dl in bypassed
                    coh_pending.discard(dl)
                    displaced.discard(dl)
                    bypassed.discard(dl)
                    old = dtags[di]
                    dtags[di] = dl
                    dtags_np[di] = dl
                    misc[2] += 1
                    if old != -1:
                        misc[3] += 1
                        if pending:
                            pending.pop(old, None)
                        if in_blk:
                            displaced.add(old)
                    reads_c[v] += 1
                    rmiss_c[v] += 1
                    dread_c[v] += miss_stall
                    if bo:
                        misc[0] += miss_stall
                    if disp:
                        if in_blk:
                            metrics.displacement_inside += 1
                        else:
                            metrics.displacement_outside += 1
                        metrics.blk_displ_stall += miss_stall
                    if byp:
                        if in_blk:
                            metrics.reuse_inside += 1
                        else:
                            metrics.reuse_outside += 1
                    if v == _OS_MODE:
                        dc = _DCLASS_OF[self._fr_dcl[pos]]
                        if bo:
                            metrics.os_miss_kind[_KIND_BLOCK] += 1
                        elif coh:
                            metrics.os_miss_kind[_KIND_COH] += 1
                            metrics.os_coh_dclass[dc] += 1
                            metrics.os_coh_addr[int(self._fr_a16[pos])] += 1
                        else:
                            metrics.os_miss_kind[_KIND_OTHER] += 1
                        pc = int(self._fr_pc[pos])
                        metrics.os_miss_pc[pc] += 1
                        metrics.os_miss_dclass[dc] += 1
                        if pc in metrics.hotspot_pcs:
                            metrics.os_hotspot_misses += 1
                    t += ic + l2_hit
            else:
                # Write.  Private exactly when the L2 line is owned (the
                # WB1 drain then stays on-chip) and the buffer has room
                # (a full buffer stalls, which the scalar path accounts).
                l2i = l2idx_l[pos]
                st = l2states[l2i]
                if l2tags[l2i] != l2line_l[pos] or (st is not st_m
                                                    and st is not st_e):
                    break
                tw = t + ic
                while wb_q and wb_q[0] <= tw:
                    wb_pop()
                if len(wb_q) >= wb_depth:
                    break
                di = didx_l[pos]
                dl = dline_l[pos]
                if dtags[di] != dl:
                    # Write-allocate fill; overlapped, so no time cost.
                    old = dtags[di]
                    dtags[di] = dl
                    dtags_np[di] = dl
                    misc[2] += 1
                    if old != -1:
                        misc[3] += 1
                        if pending:
                            pending.pop(old, None)
                        if in_blk:
                            displaced.add(old)
                    coh_pending.discard(dl)
                    displaced.discard(dl)
                    bypassed.discard(dl)
                start = tw if tw > lse else lse
                lse = start + drain
                wb_append(lse)
                misc[4] += 1
                if st is st_e:
                    l2states[l2i] = st_m
                    l2states_np[l2i] = 3
                writes_c[v] += 1
                t = tw + 1
            exec_c[v] += ic + 1
            if in_blk:
                misc[1] += ic + 1
            pos += 1
            count += 1
            if count - last_vec >= _VEC_AFTER and pos < n:
                # Long clean run: hand the continuation to the vectorized
                # tier.  Flush position, clock and write-buffer cursor so
                # the scan sees true state (the deferred metric sums need
                # no flush — the vector tier adds to the same write-only
                # targets); the retire bound mirrors the loop's.
                self.pos = pos
                self.time = t
                wb.last_service_end = lse
                while True:
                    k, aux = self.batch_scan(chunk)
                    if not k:
                        break
                    side = "right" if cpu_lt else "left"
                    j = int(np.searchsorted(aux[1], bound_time, side=side))
                    if j > k:
                        j = k
                    if not j:
                        break
                    self.batch_retire(j, aux)
                    count += j
                    if j < k or k < chunk:
                        break
                pos = self.pos
                t = self.time
                lse = wb.last_service_end
                last_vec = count
        self.pos = pos
        self.time = t
        wb.last_service_end = lse
        if pos >= n:
            self.status = ProcStatus.DONE
        return count

    # ------------------------------------------------------------------
    # Data accesses
    # ------------------------------------------------------------------
    def _scheme(self) -> Scheme:
        return self.config.scheme

    def _do_read(self, rec: TraceRecord, t: int) -> Tuple[int, int]:
        """Perform a data read; returns (completion, extra exec cycles)."""
        mem = self.mem
        extra_exec = 1
        in_blockop = self._blk_desc is not None
        scheme = self._scheme()
        if rec.blockop and in_blockop and scheme in (Scheme.PREF, Scheme.BYPREF):
            extra_exec += self._lookahead_prefetch(rec, t)
        if rec.blockop and in_blockop and scheme in (Scheme.BYPASS, Scheme.BYPREF):
            res = mem.read_bypass(rec.addr, t)
        else:
            res = mem.read(rec.addr, t)
        self.metrics.record_read(self.cpu_id, rec, res, in_blockop)
        self.metrics.add_time(_MODE_OF[rec.mode], dread=res.stall,
                              pref=res.pref_stall)
        return res.done, extra_exec

    def _do_write(self, rec: TraceRecord, t: int) -> int:
        mem = self.mem
        in_blockop = self._blk_desc is not None
        if rec.blockop and in_blockop and self._scheme() == Scheme.BYPASS:
            res = mem.write_bypass(rec.addr, t)
        else:
            res = mem.write(rec.addr, t)
        self.metrics.record_write(self.cpu_id, rec, res, in_blockop)
        self.metrics.add_time(_MODE_OF[rec.mode], dwrite=res.stall)
        return res.done

    def _lookahead_prefetch(self, rec: TraceRecord, t: int) -> int:
        """Software-pipelined source prefetch for Blk_Pref / Blk_ByPref.

        On each new source line, prefetch the line ``lead`` lines ahead.
        Returns the instruction overhead (one prefetch instruction).
        """
        desc = self._blk_desc
        assert desc is not None
        if not desc.is_copy or not desc.contains_src(rec.addr):
            return 0
        line_bytes = self.mem.machine.l1d.line_bytes
        line = rec.addr - (rec.addr % line_bytes)
        if line == self._blk_last_src_line:
            return 0
        self._blk_last_src_line = line
        target = line + self._pref_lead() * line_bytes
        if not desc.contains_src(target):
            return 0
        self._issue_block_prefetch(target, t)
        return 1

    def _pref_lead(self) -> int:
        """Software-pipelining depth for the active block-op scheme."""
        if self._scheme() == Scheme.BYPREF:
            return self.config.bypref_lead_lines
        return self.config.pref_lead_lines

    def _issue_block_prefetch(self, addr: int, t: int) -> None:
        if self._scheme() == Scheme.BYPREF:
            self.mem.prefetch_into_buffer(addr, t)
        else:
            self.mem.prefetch_line(addr, t)
        self.metrics.record_prefetch_issued()

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------
    def _do_block_start(self, rec: TraceRecord, t: int) -> int:
        desc = self.blockops.get(rec.blockop)
        self._measure_block_start(desc)
        scheme = self._scheme()
        if scheme == Scheme.DMA:
            return self._do_block_dma(rec, desc, t)
        self._blk_desc = desc
        self._blk_last_src_line = -1
        self.mem.in_blockop = True
        self.mem.bypass_l2_wide = scheme == Scheme.BYPREF
        self.tracker.in_blockop = True
        if scheme in (Scheme.PREF, Scheme.BYPREF) and desc.is_copy:
            # Prolog: prefetch the first `lead` source lines back-to-back.
            line_bytes = self.mem.machine.l1d.line_bytes
            for i in range(self._pref_lead()):
                addr = desc.src + i * line_bytes
                if not desc.contains_src(addr):
                    break
                self._issue_block_prefetch(addr, t)
                t += 1
                self.metrics.add_time(_MODE_OF[rec.mode], exec_cycles=1)
        return t

    def _do_block_dma(self, rec: TraceRecord, desc: BlockOpDescriptor,
                      t: int) -> int:
        """Run the operation on the DMA engine and skip its word records."""
        result = run_dma(self.mem, desc, t)
        stall = result.done - t
        self.metrics.record_dma(stall)
        # The paper assigns the whole DMA stall to D Read Miss.
        self.metrics.add_time(_MODE_OF[rec.mode], dread=stall)
        self.metrics.record_block_exec(stall)
        # Skip the word-level records; the engine replaced them.
        while self.pos < self._n:
            skipped = self.stream[self.pos]
            self.pos += 1
            if skipped.op == _BLOCK_END:
                break
        else:
            raise SimulationError(
                f"cpu {self.cpu_id}: block op {desc.op_id} missing BLOCK_END")
        return result.done

    def _do_block_end(self, rec: TraceRecord, t: int) -> int:
        stall = self.mem.end_block_op(t)
        if stall:
            self.metrics.add_time(_MODE_OF[rec.mode], dwrite=stall)
        self._blk_desc = None
        self._blk_last_src_line = -1
        self.mem.in_blockop = False
        self.tracker.in_blockop = False
        return t + stall

    def _measure_block_start(self, desc: BlockOpDescriptor) -> None:
        """Table 3 instrumentation: line residency right before the op."""
        mem = self.mem
        l1_bytes = mem.machine.l1d.line_bytes
        l2_bytes = mem.machine.l2.line_bytes
        src_cached = src_total = 0
        if desc.is_copy:
            addr = desc.src - (desc.src % l1_bytes)
            while addr < desc.src + desc.size:
                src_total += 1
                if mem.l1d.present(addr):
                    src_cached += 1
                addr += l1_bytes
        dst_owned = dst_shared = dst_total = 0
        addr = desc.dst - (desc.dst % l2_bytes)
        from repro.memsys.states import LineState
        while addr < desc.dst + desc.size:
            dst_total += 1
            state = mem.l2.state_of(addr)
            if state in (LineState.EXCLUSIVE, LineState.MODIFIED):
                dst_owned += 1
            elif state == LineState.SHARED:
                dst_shared += 1
            addr += l2_bytes
        self.metrics.record_block_start(self.cpu_id, desc, src_cached,
                                        src_total, dst_owned, dst_shared,
                                        dst_total)

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def _do_lock_acquire(self, rec: TraceRecord, t: int) -> int:
        mode = _MODE_OF[rec.mode]
        ok, grant = self.locks.try_acquire(rec.addr, self.cpu_id, t)
        if not ok:  # pragma: no cover - step() checked before consuming
            raise SimulationError("lock acquired while held")
        if grant > t:
            self.metrics.add_time(mode, sync=grant - t)
            t = grant
        # The RMW on the lock word: read (possibly a coherence miss on a
        # lock previously held elsewhere) then write (invalidates sharers).
        res = self.mem.read(rec.addr, t)
        self.metrics.record_read(self.cpu_id, rec, res,
                                 self._blk_desc is not None)
        self.metrics.add_time(mode, dread=res.stall, pref=res.pref_stall)
        wres = self.mem.write(rec.addr, res.done)
        self.metrics.record_write(self.cpu_id, rec, wres, False)
        self.metrics.add_time(mode, dwrite=wres.stall)
        return wres.done

    def _do_lock_release(self, rec: TraceRecord, t: int) -> int:
        mode = _MODE_OF[rec.mode]
        # Release consistency: all buffered writes drain first.
        drained = self.mem.drain_writes(t)
        if drained > t:
            self.metrics.add_time(mode, dwrite=drained - t)
            t = drained
        res = self.mem.write(rec.addr, t)
        self.metrics.record_write(self.cpu_id, rec, res, False)
        self.metrics.add_time(mode, dwrite=res.stall)
        self.locks.release(rec.addr, self.cpu_id, res.done)
        return res.done

    def _do_barrier(self, rec: TraceRecord, t: int, exec_cycles: int,
                    istall: int) -> StepResult:
        mode = _MODE_OF[rec.mode]
        drained = self.mem.drain_writes(t)
        if drained > t:
            self.metrics.add_time(mode, dwrite=drained - t)
            t = drained
        # Arrival: read-modify-write of the barrier word.
        res = self.mem.read(rec.addr, t)
        self.metrics.record_read(self.cpu_id, rec, res, False)
        self.metrics.add_time(mode, dread=res.stall, pref=res.pref_stall)
        wres = self.mem.write(rec.addr, res.done)
        self.metrics.record_write(self.cpu_id, rec, wres, False)
        self.metrics.add_time(mode, dwrite=wres.stall,
                              exec_cycles=exec_cycles + 2, imiss=istall)
        t = wres.done
        self.time = t
        outcome = self.barriers.arrive(rec.addr, rec.arg, self.cpu_id, t)
        if outcome is None:
            self._barrier_rec = rec
            self.status = ProcStatus.WAITING_BARRIER
            return StepResult(ProcStatus.WAITING_BARRIER)
        release, waiters = outcome
        self.metrics.add_time(mode, sync=max(0, release - t))
        self.time = max(t, release)
        if self.pos >= self._n:
            self.status = ProcStatus.DONE
            return StepResult(ProcStatus.DONE, barrier_release=outcome)
        return StepResult(ProcStatus.RUNNING, barrier_release=outcome)
