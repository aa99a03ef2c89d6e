"""Shared machinery of the layered benchmark: inputs, statistics, output
checks, tracing spans and the result line.

Every workload module (``ladder``, ``wide``, ``sweep``) builds a
:class:`Report` and hands it back to ``run.py``, which prints it.  The
metric names and units come from ``BENCHMARK.json`` at the root of the
checkout, so the file the driver reads and the names the benchmark
prints cannot drift apart.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import os
import pstats
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Root of the checkout (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for caches, trace files and span dumps; inside the
#: checkout and listed in ``.gitignore``.
WORK = ROOT / ".bench_work"

#: Trace scale of every workload.  At 0.05 every paper workload sits at
#: its 4-round floor, so a cold ladder pass of all 36 cells takes a few
#: seconds.
SCALE = 0.05
#: The trace seed the generator's per-workload rates were calibrated on
#: (DESIGN.md section 2).  The paper reference values only describe
#: traces drawn with it, and equal work in every run keeps the host-time
#: metrics comparable across runs, so ladder_dm4, wide_setassoc and the
#: service's first cycle always replay it.
CALIBRATED_SEED = 1996
#: A second, fixed trace seed that played no part in the calibration:
#: the service's second cycle, pinned like the calibrated one.
HELD_OUT_SEED = 7

PAPER_WORKLOADS = ["TRFD_4", "TRFD+Make", "ARC2D+Fsck", "Shell"]
#: The eight standard schemes of Figure 3 plus one adaptive hybrid, in
#: the order the paper builds them up.
LADDER_SCHEMES = ["Base", "Blk_Pref", "Blk_Bypass", "Blk_ByPref", "Blk_Dma",
                  "BCoh_Reloc", "BCoh_RelUp", "BCPref", "Hyb_UpdN"]
#: Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (50, 75, 90, 95, 99)
#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def cell_median(by_cell: Dict[str, List[float]]) -> float:
    """The median cell's time: the median over cells of each cell's own
    median.  Cells differ in cost by up to tenfold, so a median of the
    pooled samples would sit on the edge between two cells' clusters."""
    return median([median(times) for times in by_cell.values()])


def tail_percentile(min_samples: int) -> int:
    """The highest candidate percentile with at least ``TAIL_BEYOND``
    samples beyond it when only *min_samples* samples exist.

    Workloads pass the sample count every run is guaranteed to reach, so
    the percentile is fixed by the workload's design and does not shift
    when a faster program fits more samples into the same run.
    """
    best = TAIL_PERCENTILES[0]
    for pct in TAIL_PERCENTILES:
        if min_samples * (100 - pct) / 100.0 >= TAIL_BEYOND:
            best = pct
    return best


def _rank(count: int, pct: int) -> int:
    return max(1, -(-pct * count // 100))


def tail(values: Sequence[float], min_samples: int) -> Tuple[float, dict]:
    """The nearest-rank tail value (an observed sample) and its record:
    percentile, sample count and samples beyond it."""
    pct = tail_percentile(min_samples)
    ordered = sorted(values)
    if not ordered:
        return 0.0, {"percentile": pct, "samples": 0, "beyond": 0}
    rank = _rank(len(ordered), pct)
    return float(ordered[rank - 1]), {"percentile": pct,
                                      "samples": len(ordered),
                                      "beyond": len(ordered) - rank}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size of this process (and, optionally, of its
    already-reaped child processes), in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def seeded_order(items: Sequence, seed: int, salt: str) -> list:
    """*items* in an order drawn from the workload seed."""
    out = list(items)
    random.Random(f"{seed}:{salt}").shuffle(out)
    return out


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def digest(snapshot: dict) -> str:
    """Content digest of one ``SystemMetrics.snapshot()``."""
    blob = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def load_pins() -> dict:
    """``{cell key: digest}`` from ``pins.json``."""
    if not PINS_PATH.exists():
        return {}
    with open(PINS_PATH) as fp:
        return json.load(fp)


def cell_key(seed: int, workload: str, scheme: str,
             machine: str = "dm4") -> str:
    """Identity of one simulated cell: trace seed, machine, workload,
    scheme (every workload runs at trace scale ``SCALE``)."""
    return f"{seed}|{machine}|{workload}|{scheme}"


def machine_label(machine) -> str:
    """``dm4`` for the paper's direct-mapped 4-CPU machine, ``sa<N>`` for
    the set-associative ones."""
    kind = "dm" if machine.l1d.assoc == 1 else "sa"
    return f"{kind}{machine.num_cpus}"


class Op:
    __slots__ = ("name", "ok")

    def __init__(self, name: str) -> None:
        self.name = name
        self.ok = True


class Ops:
    """Attempted operations and the reasons any of them failed.

    An operation fails when it raises or when a check on its output
    does not hold; each failure reason is kept for the detail line.
    """

    def __init__(self) -> None:
        self.ops: List[Op] = []
        self.failures: List[str] = []

    def start(self, name: str) -> Op:
        op = Op(name)
        self.ops.append(op)
        return op

    def fail(self, op: Op, reason: str) -> None:
        op.ok = False
        if len(self.failures) < 50:
            self.failures.append(f"{op.name}: {reason}")

    def check(self, op: Op, condition: bool, reason: str) -> None:
        if not condition:
            self.fail(op, reason)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)


class CellBook:
    """Digests of simulated cells, checked as results arrive.

    The first result of a cell becomes its reference; every later result
    of the same cell (a warm pass, a warm service job, a repeated
    operation) must equal it bit for bit.  A reference that has a pin in
    ``pins.json`` must equal the pin.
    """

    def __init__(self, ops: Ops, pins: Dict[str, str],
                 perturb: Optional[str] = None) -> None:
        self.ops = ops
        self.pins = pins
        self.perturb = perturb
        self.reference: Dict[str, str] = {}
        self.snapshots: Dict[str, dict] = {}

    def record(self, op: Op, key: str, snapshot: dict) -> None:
        if self.perturb == key:
            # Self-test hook: corrupt the first result of one cell.
            self.perturb = None
            snapshot = dict(snapshot, makespan=int(snapshot["makespan"]) + 1)
        value = digest(snapshot)
        ref = self.reference.get(key)
        if ref is None:
            self.reference[key] = value
            self.snapshots[key] = snapshot
            pin = self.pins.get(key)
            self.ops.check(op, pin is None or pin == value,
                           f"digest {value} != pinned {pin}")
        else:
            self.ops.check(op, ref == value,
                           f"digest {value} != first result {ref}")

    def check_differs(self, op: Op, before: str, after: str) -> None:
        """Cell *after* must simulate differently from *before*, its
        predecessor on the ladder, so a scheme silently replaced by the
        one below it shows."""
        a, b = self.reference.get(before), self.reference.get(after)
        if a is not None and b is not None:
            self.ops.check(op, a != b,
                           f"simulated identically to {before}")


# ----------------------------------------------------------------------
# Simulated counters and accuracy against the paper
# ----------------------------------------------------------------------
def memsys_counters(cells: Dict[str, object], schemes: Iterable[str],
                    layer: Dict[str, float]) -> None:
    """Per-scheme simulated counters, aggregated over the workload's
    cells: OS read misses summed, miss rate and bus utilization
    averaged."""
    for scheme in schemes:
        picked = [m for key, m in cells.items()
                  if key.rsplit("|", 1)[1] == scheme]
        if not picked:
            continue
        layer[f"memsys.{scheme}.os_read_misses"] = float(
            sum(m.os_read_misses() for m in picked))
        layer[f"memsys.{scheme}.data_miss_rate"] = statistics.fmean(
            m.data_miss_rate() for m in picked)
        layer[f"memsys.{scheme}.bus_utilization"] = statistics.fmean(
            m.bus_utilization() for m in picked)


def paper_accuracy(metrics: Dict[Tuple[str, str], object],
                   workloads: Sequence[str]) -> Tuple[float, float, dict]:
    """``fig3_mae``, ``fig5_mae`` and the reference values behind them.

    ``fig3_mae``: mean absolute error of OS time normalized to Base
    against Figure 3, over every non-Base scheme of Figure 3 present.
    ``fig5_mae``: mean absolute error of BCPref's remaining OS read
    misses (normalized to Base) against Figure 5.
    """
    from repro.analysis import targets
    fig3: List[float] = []
    fig5: List[float] = []
    refs: dict = {"figure3": {}, "figure5_bcpref": {}}
    for workload in workloads:
        if (workload, "Base") not in metrics:
            continue
        col = targets.WORKLOADS.index(workload)
        base = metrics[(workload, "Base")]
        base_time = max(1, base.os_time().total)
        base_misses = max(1, base.os_read_misses())
        for scheme, values in targets.FIGURE3.items():
            if scheme == "Base" or (workload, scheme) not in metrics:
                continue
            measured = metrics[(workload, scheme)].os_time().total / base_time
            fig3.append(abs(measured - values[col]))
            refs["figure3"].setdefault(scheme, {})[workload] = values[col]
        if (workload, "BCPref") in metrics:
            remaining = (metrics[(workload, "BCPref")].os_read_misses()
                         / base_misses)
            reference = targets.FIGURE5_BCPREF[col]
            fig5.append(abs(remaining - reference))
            refs["figure5_bcpref"][workload] = reference
    return (statistics.fmean(fig3) if fig3 else 0.0,
            statistics.fmean(fig5) if fig5 else 0.0, refs)


ACCURACY_CAVEAT = (
    "Not a held-out validation: the generator's per-workload rates were "
    "calibrated to the paper's Tables 1-5 on these same four workloads "
    "(DESIGN.md section 2), and the calibrated trace seed is the one "
    "measured here.")


# ----------------------------------------------------------------------
# Tracing: spans around the calls into each layer, cProfile around
# simulation
# ----------------------------------------------------------------------
class Spans:
    """Timed spans around calls into the program's layers.

    :meth:`wrap` replaces a module or class attribute with a timing
    wrapper for the life of the traced run; :meth:`restore` puts every
    original back.  Spans stay in memory and are written out once, at
    the end (:meth:`dump`).
    """

    def __init__(self) -> None:
        self.spans: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self._undo: List[Tuple[object, str, object]] = []

    def add(self, name: str, seconds: float, work: float = 0.0) -> None:
        self.spans[name].append((seconds, work))

    def replace(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, owner: object, attr: str, name: str,
             work: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            out = original(*args, **kwargs)
            self.add(name, time.perf_counter() - start,
                     work(out) if work is not None else 0.0)
            return out

        self.replace(owner, attr, timed)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def median_s(self, name: str) -> float:
        return median([s for s, _w in self.spans.get(name, [])])

    def rate(self, name: str) -> float:
        """Work per second over every span of *name*."""
        samples = self.spans.get(name, [])
        return ratio(sum(w for _s, w in samples), sum(s for s, _w in samples))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fp:
            json.dump({name: [[round(s, 6), w] for s, w in samples]
                       for name, samples in sorted(self.spans.items())},
                      fp, indent=0)


#: Modules whose self-time share of simulation the traced run reports.
SHARE_MODULES = ["sim.processor", "sim.system", "sim.metrics",
                 "memsys.hierarchy", "memsys.cache", "memsys.coherence",
                 "memsys.bus", "memsys.writebuffer", "memsys.adaptive",
                 "memsys.dma", "trace.columns"]


class SimProfiler:
    """cProfile switched on only while a simulation runs.

    Gives Python calls per simulated trace record and each module's
    share of the profiled self time.
    """

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self.records = 0
        self.active = True

    def run(self, fn: Callable, records: int):
        if not self.active:
            return fn()
        self.profile.enable()
        try:
            return fn()
        finally:
            self.profile.disable()
            self.records += records

    def fill(self, layer: Dict[str, float]) -> None:
        stats = pstats.Stats(self.profile)
        total_calls = sum(nc for (_cc, nc, _tt, _ct, _callers)
                          in stats.stats.values())
        layer["sim.calls_per_record"] = ratio(total_calls, self.records)
        self_time: Dict[str, float] = defaultdict(float)
        total = 0.0
        for (filename, _line, _func), (_cc, _nc, tt, _ct, _callers) \
                in stats.stats.items():
            total += tt
            marker = f"{os.sep}repro{os.sep}"
            if marker in filename and filename.endswith(".py"):
                module = filename.rsplit(marker, 1)[1][:-3]
                self_time[module.replace(os.sep, ".")] += tt
        for module in SHARE_MODULES:
            layer[f"{module}.self_share"] = ratio(self_time[module], total)


def instrument(spans: Spans, profiler: SimProfiler) -> Callable:
    """Span every layer entry point the workloads reach, for a traced
    run; returns the unwrapped ``simulate``.

    Simulations run under *profiler* while it is active; afterwards each
    one is a ``sim.<machine>.<scheme>`` span weighted by its records.
    """
    import repro.cli
    import repro.experiments.runner as runner_mod
    import repro.sim.system as system
    from repro.optim.hotspots import HotspotPrefetcher
    from repro.trace import npzio, textio

    for owner in (runner_mod, repro.cli):
        spans.wrap(owner, "generate", "synthetic.generate", len)
    spans.wrap(runner_mod, "privatize_and_relocate", "optim.privatize")
    spans.wrap(runner_mod, "select_update_core", "optim.update_select")
    spans.wrap(runner_mod, "find_hotspots", "optim.hotspots")
    spans.wrap(HotspotPrefetcher, "apply", "optim.prefetch_insert")
    spans.wrap(npzio, "save", "trace.npz_save")
    spans.wrap(npzio, "load", "trace.npz_load", len)
    spans.wrap(textio, "load", "trace.text_load", len)
    original = system.simulate

    def simulate(trace, config, *args, **kwargs):
        records = len(trace)
        profiled = profiler.active
        start = time.perf_counter()
        out = profiler.run(lambda: original(trace, config, *args, **kwargs),
                           records)
        if not profiled:
            spans.add(f"sim.{machine_label(config.machine)}.{config.name}",
                      time.perf_counter() - start, records)
        return out

    spans.replace(system, "simulate", simulate)
    spans.replace(runner_mod, "simulate", simulate)
    return original


def trace_overhead(simulate: Callable, trace, config,
                   repeats: int = 3) -> float:
    """Host time of one simulation under the traced run's profiler,
    as a multiple of the same simulation untraced."""
    bare: List[float] = []
    traced: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        simulate(trace, config)
        bare.append(time.perf_counter() - start)
        profiler = SimProfiler()
        start = time.perf_counter()
        profiler.run(lambda: simulate(trace, config), len(trace))
        traced.append(time.perf_counter() - start)
    return ratio(median(traced), median(bare))


def fill_layer_rates(spans: Spans, layer: Dict[str, float]) -> None:
    """Per-layer numbers every workload derives the same way from its
    spans; a layer without spans stays unset (reported as not
    exercised)."""
    times = {"synthetic.generate": "synthetic.generate_s",
             "optim.privatize": "optim.privatize_s",
             "optim.update_select": "optim.update_select_s",
             "optim.hotspots": "optim.hotspots_s",
             "optim.prefetch_insert": "optim.prefetch_insert_s",
             "trace.npz_save": "trace.npz_save_s",
             "trace.npz_load": "trace.npz_load_s",
             "trace.text_load": "trace.text_load_s"}
    rates = {"synthetic.generate": "synthetic.records_per_s",
             "trace.text_load": "trace.text_records_per_s"}
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
    for name, samples in spans.spans.items():
        if name in times:
            layer[times[name]] = spans.median_s(name)
        if name in rates:
            layer[rates[name]] = spans.rate(name)
        if not name.startswith("sim."):
            continue
        layer[f"{name}.records_per_s"] = spans.rate(name)
        machine = name.split(".")[1]
        for key in (machine, ""):
            totals[key][0] += sum(w for _s, w in samples)
            totals[key][1] += sum(s for s, _w in samples)
    for key, (records, seconds) in totals.items():
        prefix = f"sim.{key}." if key else "sim."
        layer[f"{prefix}records_per_s"] = ratio(records, seconds)


# ----------------------------------------------------------------------
# Set-up, working directory, result
# ----------------------------------------------------------------------
def import_program_s(modules: Sequence[str]) -> float:
    """Seconds a fresh interpreter takes to import *modules*: the start-up
    every user of the program pays before its first call."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import " + ", ".join(modules)],
                   env=env, check=True, cwd=str(ROOT))
    return time.perf_counter() - start


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Report:
    """What one run measured: operations, metrics and detail."""

    def __init__(self, ops: Ops, book: CellBook) -> None:
        self.ops = ops
        self.book = book
        self.end_to_end: Dict[str, float] = {}
        self.layer: Dict[str, float] = {}
        self.detail: dict = {}
