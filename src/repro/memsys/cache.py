"""Cache arrays: direct-mapped (the paper's testbed) and LRU set-associative.

The paper's machine is direct-mapped everywhere, so the original model is
just a tag (and, for the L2, a MESI state) per set.  The set-associative
variants generalize that to ``assoc`` ways per set with true-LRU
replacement, sharing the public surface (``tags``/``tags_np`` mirrors,
``present``/``touch``/``fill``/``invalidate``/``resident_lines``) so the
hierarchy, coherence controller and conformance checker work unchanged.
Timing lives in the hierarchy/coherence layers; this module only answers
presence questions and performs fills, evictions and invalidations.

Lookups cost one probe in every organization.  A direct-mapped cache
indexes its tag array by set.  A set-associative cache, and the
direct-mapped L2, also keep a *resident-line map*, ``frame_of``: the
line address held by each occupied frame, mapped to that frame's index.
Only the mutation methods below change tags, and each updates the map
with the tag, so ``frame_of == {tags[i]: i for every occupied frame i}``
always holds.  The coherence controller snoops through that map.  The
direct-mapped L1s carry no map, because the batched scheduler tier
writes their tag arrays directly.

:meth:`~DirectMappedCache.present` is a pure query; the conformance
checker probes it freely.  :meth:`~DirectMappedCache.touch` is the
probe-and-promote of a real access: it answers the same question and,
on a set-associative hit, makes the line most recently used.

Use :func:`make_cache`/:func:`make_coherent_cache` to pick the class from
``CacheParams.assoc``; 1-way parameters yield the direct-mapped classes so
the paper configuration keeps its exact fast-path behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.params import CacheParams
from repro.memsys.states import LineState


class DirectMappedCache:
    """Tag-only direct-mapped cache (used for L1I and L1D).

    ``line_bytes``, ``num_lines`` and ``tags`` are public on purpose: the
    simulator's L1-hit fast path binds them once and probes the tag array
    directly, skipping the :meth:`present` call per reference.  ``tags``
    is mutated in place only, so a bound reference never goes stale.

    ``tags_np`` mirrors ``tags`` as an int64 array for the batched
    stepping mode's vectorized compares.  The Python list stays the
    authoritative copy (scalar indexing of a list is faster than of an
    ndarray, and the per-record hot path must not regress); the mirror is
    updated in the same mutation methods, which only run on the miss and
    invalidation paths.
    """

    __slots__ = ("params", "line_bytes", "num_lines", "num_sets", "assoc",
                 "tags", "tags_np", "fills", "evictions")

    def __init__(self, params: CacheParams) -> None:
        if params.assoc != 1:
            raise ValueError(
                f"DirectMappedCache needs 1-way params, got {params.assoc}-way"
                " (use make_cache/make_coherent_cache)")
        self.params = params
        self.line_bytes = params.line_bytes
        self.num_lines = params.num_lines
        self.num_sets = params.num_lines
        self.assoc = 1
        #: Line-aligned address held by each set, or -1 when empty.
        self.tags: List[int] = [-1] * self.num_lines
        #: Vectorized mirror of :attr:`tags` (batched stepping mode).
        self.tags_np = np.full(self.num_lines, -1, dtype=np.int64)
        self.fills = 0
        self.evictions = 0

    def line_addr(self, addr: int) -> int:
        """Line-aligned address containing *addr*."""
        return addr - (addr % self.line_bytes)

    def set_index(self, addr: int) -> int:
        """Set index of *addr*."""
        return (addr // self.line_bytes) % self.num_lines

    def present(self, addr: int) -> bool:
        """True when the line containing *addr* is cached."""
        line = addr - addr % self.line_bytes
        return self.tags[(line // self.line_bytes) % self.num_lines] == line

    #: Probe the line containing *addr* for an access and return whether
    #: it is cached, recording the use for replacement.  Direct-mapped
    #: replacement has no recency state, so this is :meth:`present`; the
    #: set-associative classes also promote a hit to most recently used.
    touch = present

    def fill(self, addr: int) -> int:
        """Install the line containing *addr*.

        Returns the line address evicted to make room, or -1 when the set
        was empty or already held the line.
        """
        line = self.line_addr(addr)
        idx = (line // self.line_bytes) % self.num_lines
        old = self.tags[idx]
        if old == line:
            return -1
        self.tags[idx] = line
        self.tags_np[idx] = line
        self.fills += 1
        if old != -1:
            self.evictions += 1
            return old
        return -1

    def invalidate(self, addr: int) -> bool:
        """Drop the line containing *addr*; returns True if it was present."""
        line = self.line_addr(addr)
        idx = (line // self.line_bytes) % self.num_lines
        if self.tags[idx] == line:
            self.tags[idx] = -1
            self.tags_np[idx] = -1
            return True
        return False

    def invalidate_range(self, base: int, size: int) -> List[int]:
        """Drop every cached line overlapping ``[base, base+size)``.

        Returns the line addresses actually dropped.
        """
        dropped = []
        first = self.line_addr(base)
        for line in range(first, base + size, self.line_bytes):
            if self.invalidate(line):
                dropped.append(line)
        return dropped

    def resident_lines(self) -> List[int]:
        """All line addresses currently cached, in set order."""
        return [t for t in self.tags if t != -1]


class CoherentCache(DirectMappedCache):
    """Direct-mapped cache with a MESI state per set (the L2).

    ``states_np`` mirrors ``states`` (same contract as ``tags_np``): the
    enum list is authoritative, the int8 array exists for the batched
    stepping mode's vectorized owned-line checks.  ``frame_of`` is the
    resident-line map the coherence controller snoops through.  The
    batched tier writes ``states`` in place but never ``tags``, so every
    tag change goes through the methods below and the map stays exact.
    """

    __slots__ = ("states", "states_np", "frame_of")

    def __init__(self, params: CacheParams) -> None:
        super().__init__(params)
        self.states: List[LineState] = [LineState.INVALID] * self.num_lines
        self.states_np = np.zeros(self.num_lines, dtype=np.int8)
        #: Resident line address -> frame index (the set, here).
        self.frame_of: Dict[int, int] = {}

    def state_of(self, addr: int) -> LineState:
        """MESI state of the line containing *addr* (INVALID if absent)."""
        line = addr - addr % self.line_bytes
        idx = (line // self.line_bytes) % self.num_lines
        if self.tags[idx] == line:
            return self.states[idx]
        return LineState.INVALID

    #: :meth:`state_of` for an access: the set-associative L2 also
    #: promotes a valid line to most recently used.  A direct-mapped
    #: cache has no recency state to move.
    touch_state = state_of

    def set_state(self, addr: int, state: LineState) -> None:
        """Set the MESI state of a resident line."""
        line = self.line_addr(addr)
        idx = (line // self.line_bytes) % self.num_lines
        if self.tags[idx] != line:
            raise KeyError(f"line {line:#x} not resident")
        self.states[idx] = state
        self.states_np[idx] = state
        if state == LineState.INVALID:
            self.tags[idx] = -1
            self.tags_np[idx] = -1
            del self.frame_of[line]

    def fill(self, addr: int) -> int:
        evicted = super().fill(addr)
        if evicted != -1:
            del self.frame_of[evicted]
        line = self.line_addr(addr)
        self.frame_of[line] = (line // self.line_bytes) % self.num_lines
        return evicted

    def fill_state(self, addr: int, state: LineState) -> Tuple[int, Optional[LineState]]:
        """Install the line containing *addr* in *state*.

        Returns ``(evicted_line_addr, evicted_state)`` —
        ``(-1, None)`` when nothing was displaced.
        """
        line = self.line_addr(addr)
        idx = (line // self.line_bytes) % self.num_lines
        old_tag = self.tags[idx]
        old_state = self.states[idx]
        self.tags[idx] = line
        self.tags_np[idx] = line
        self.states[idx] = state
        self.states_np[idx] = state
        if old_tag == line or old_tag == -1:
            if old_tag == -1:
                self.frame_of[line] = idx
                self.fills += 1
            return -1, None
        del self.frame_of[old_tag]
        self.frame_of[line] = idx
        self.fills += 1
        self.evictions += 1
        return old_tag, old_state

    def invalidate(self, addr: int) -> bool:
        line = self.line_addr(addr)
        idx = (line // self.line_bytes) % self.num_lines
        if self.tags[idx] == line:
            self.tags[idx] = -1
            self.tags_np[idx] = -1
            self.states[idx] = LineState.INVALID
            self.states_np[idx] = 0
            del self.frame_of[line]
            return True
        return False


class SetAssociativeCache(DirectMappedCache):
    """Tag-only N-way set-associative cache with true-LRU replacement.

    The tag array is flat and set-major: way ``w`` of set ``s`` lives at
    index ``s * assoc + w``, so ``tags``/``tags_np`` keep the same
    "mutated in place, bound references never go stale" contract as the
    direct-mapped class and :meth:`resident_lines` needs no override.
    ``frame_of`` maps each resident line to its frame, so a lookup is
    one dict probe rather than a scan over the ways.  Recency is a
    per-frame stamp from a monotonic use counter; the LRU victim is the
    minimum-stamp way of the set (the first empty way, if any).
    :meth:`present` stays a pure query; recency moves only through
    :meth:`touch` and the fill methods.
    """

    __slots__ = ("_stamps", "_tick", "frame_of")

    def __init__(self, params: CacheParams) -> None:
        if params.assoc < 2:
            raise ValueError("SetAssociativeCache needs assoc >= 2 "
                             "(use make_cache for 1-way params)")
        # Skip the direct-mapped guard but reuse its attribute setup.
        self.params = params
        self.line_bytes = params.line_bytes
        self.num_lines = params.num_lines
        self.num_sets = params.num_sets
        self.assoc = params.assoc
        self.tags = [-1] * self.num_lines
        self.tags_np = np.full(self.num_lines, -1, dtype=np.int64)
        self.fills = 0
        self.evictions = 0
        #: Use stamp per line frame; larger == more recently used.
        self._stamps = [0] * self.num_lines
        self._tick = 0
        #: Resident line address -> flat frame index.
        self.frame_of: Dict[int, int] = {}

    def set_index(self, addr: int) -> int:
        """Set index of *addr*."""
        return (addr // self.line_bytes) % self.num_sets

    def _victim(self, base: int) -> int:
        """Frame to replace in the set starting at *base*: first empty
        way, else the LRU (minimum-stamp) way."""
        tags = self.tags
        stamps = self._stamps
        victim = base
        victim_stamp = stamps[base]
        for idx in range(base, base + self.assoc):
            if tags[idx] == -1:
                return idx
            if stamps[idx] < victim_stamp:
                victim = idx
                victim_stamp = stamps[idx]
        return victim

    def _install(self, line: int) -> Tuple[int, int]:
        """Place *line* in its set's victim frame, stamped most recently
        used; returns ``(frame, displaced line or -1)``.  The caller has
        already advanced the use counter."""
        idx = self._victim(((line // self.line_bytes) % self.num_sets)
                           * self.assoc)
        old = self.tags[idx]
        if old != -1:
            del self.frame_of[old]
            self.evictions += 1
        self.frame_of[line] = idx
        self.tags[idx] = line
        self.tags_np[idx] = line
        self._stamps[idx] = self._tick
        self.fills += 1
        return idx, old

    def _drop(self, line: int) -> int:
        """Clear *line*'s frame; returns it, or -1 when not resident."""
        idx = self.frame_of.pop(line, -1)
        if idx != -1:
            self.tags[idx] = -1
            self.tags_np[idx] = -1
            self._stamps[idx] = 0
        return idx

    def present(self, addr: int) -> bool:
        return addr - addr % self.line_bytes in self.frame_of

    def touch(self, addr: int) -> bool:
        idx = self.frame_of.get(addr - addr % self.line_bytes)
        if idx is None:
            return False
        self._tick += 1
        self._stamps[idx] = self._tick
        return True

    def fill(self, addr: int) -> int:
        line = self.line_addr(addr)
        self._tick += 1
        idx = self.frame_of.get(line)
        if idx is not None:
            self._stamps[idx] = self._tick
            return -1
        return self._install(line)[1]

    def invalidate(self, addr: int) -> bool:
        return self._drop(self.line_addr(addr)) != -1


class CoherentSetAssociativeCache(SetAssociativeCache):
    """Set-associative cache with a MESI state per frame (L2 variant).

    Same ``states``/``states_np`` mirror contract as
    :class:`CoherentCache`; the coherence controller only uses the
    address-based API (``state_of``/``set_state``/``fill_state``/
    ``resident_lines``) and the ``frame_of`` map, which this class keeps
    per way.
    """

    __slots__ = ("states", "states_np")

    def __init__(self, params: CacheParams) -> None:
        super().__init__(params)
        self.states: List[LineState] = [LineState.INVALID] * self.num_lines
        self.states_np = np.zeros(self.num_lines, dtype=np.int8)

    def state_of(self, addr: int) -> LineState:
        """MESI state of the line containing *addr* (INVALID if absent)."""
        idx = self.frame_of.get(addr - addr % self.line_bytes)
        if idx is None:
            return LineState.INVALID
        return self.states[idx]

    def touch_state(self, addr: int) -> LineState:
        """:meth:`state_of` for an access: a valid line also becomes the
        most recently used of its set."""
        idx = self.frame_of.get(addr - addr % self.line_bytes)
        if idx is None:
            return LineState.INVALID
        state = self.states[idx]
        if state != LineState.INVALID:
            self._tick += 1
            self._stamps[idx] = self._tick
        return state

    def write_owned(self, addr: int) -> bool:
        """Retire a write into an owned line: an EXCLUSIVE or MODIFIED
        line becomes MODIFIED and most recently used.  Returns False,
        changing nothing, for a line in any other state."""
        idx = self.frame_of.get(addr - addr % self.line_bytes)
        if idx is None:
            return False
        state = self.states[idx]
        if state is not LineState.MODIFIED and state is not LineState.EXCLUSIVE:
            return False
        self.states[idx] = LineState.MODIFIED
        self.states_np[idx] = 3
        self._tick += 1
        self._stamps[idx] = self._tick
        return True

    def set_state(self, addr: int, state: LineState) -> None:
        """Set the MESI state of a resident line."""
        line = self.line_addr(addr)
        idx = self.frame_of.get(line)
        if idx is None:
            raise KeyError(f"line {line:#x} not resident")
        self.states[idx] = state
        self.states_np[idx] = state
        if state == LineState.INVALID:
            self._drop(line)

    def fill_state(self, addr: int, state: LineState) -> Tuple[int, Optional[LineState]]:
        """Install the line containing *addr* in *state*.

        Returns ``(evicted_line_addr, evicted_state)`` —
        ``(-1, None)`` when nothing was displaced.
        """
        line = self.line_addr(addr)
        self._tick += 1
        idx = self.frame_of.get(line)
        if idx is not None:
            self.states[idx] = state
            self.states_np[idx] = state
            self._stamps[idx] = self._tick
            return -1, None
        idx, old = self._install(line)
        old_state = self.states[idx]
        self.states[idx] = state
        self.states_np[idx] = state
        if old == -1:
            return -1, None
        return old, old_state

    def invalidate(self, addr: int) -> bool:
        idx = self._drop(self.line_addr(addr))
        if idx == -1:
            return False
        self.states[idx] = LineState.INVALID
        self.states_np[idx] = 0
        return True


def make_cache(params: CacheParams) -> DirectMappedCache:
    """Tag-only cache of the organization *params* asks for."""
    if params.assoc == 1:
        return DirectMappedCache(params)
    return SetAssociativeCache(params)


def make_coherent_cache(
        params: CacheParams) -> "CoherentCache | CoherentSetAssociativeCache":
    """MESI-state-tracking cache of the organization *params* asks for.

    Note the return types share no coherent base class — callers rely on
    the duck-typed address API (``state_of``/``set_state``/``fill_state``),
    which both classes implement.
    """
    if params.assoc == 1:
        return CoherentCache(params)
    return CoherentSetAssociativeCache(params)
