"""``wide_setassoc``: the machine axis.

Server-family traces on an 8-CPU 2-way machine (16-byte bus) and a
32-CPU 4-way machine (32-byte bus): set-associative LRU caches and up to
32 sharers stress ``memsys.cache`` and ``memsys.coherence``, and the
batched scheduler tier turns itself off on set-associative machines, so
a change that only touches the direct-mapped path should leave this
workload unchanged.

Set-up writes both traces the way ``repro generate`` writes them (npz for
8 CPUs, ``--text`` for 32).  Each operation loads its file and runs
library ``simulate()`` for Base or Blk_Dma -- the schemes that need no
derived inputs, since library ``simulate()`` ignores ``privatize`` and
``hotspot_prefetch``.  A cycle runs every 8-CPU cell ``SA8_REPEATS``
times and every 32-CPU cell once, which gives the two machines about
the same host time.  The workload seed only shuffles the operation order
of each cycle; the traces are always drawn with the calibrated seed.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import benchlib as bl

#: (label, CPUs, associativity, bus bytes, file format)
MACHINES = [("sa8", 8, 2, 16, "npz"), ("sa32", 32, 4, 32, "txt")]
SCHEMES = ["Base", "Blk_Dma"]
SA8_REPEATS = 9
MIN_CYCLES = 2
IMPORTS = ["repro.cli", "repro.sim.system"]


def workload_name(cpus: int) -> str:
    """The report's machine-axis workload (``repro.analysis.tables``)."""
    from repro.analysis.tables import machine_workload
    return machine_workload(cpus)


def _setup(work) -> Tuple[float, Dict[str, str]]:
    """Start the program and write both trace files with ``repro
    generate``."""
    from repro import cli
    start = time.perf_counter()
    bl.import_program_s(IMPORTS)
    paths = {}
    for label, cpus, _assoc, _bus, fmt in MACHINES:
        path = str(work / f"{label}.{fmt}")
        argv = ["generate", workload_name(cpus), "-o", path,
                "--scale", str(bl.SCALE), "--seed", str(bl.CALIBRATED_SEED)]
        if fmt == "txt":
            argv.append("--text")
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"repro generate failed: {argv}")
        paths[label] = path
    return time.perf_counter() - start, paths


def _load(path: str):
    from repro.trace import npzio, textio
    if path.endswith(".npz"):
        return npzio.load(path)
    with open(path) as fp:
        return textio.load(fp)


def run(args, spans: Optional[bl.Spans]) -> bl.Report:
    import repro.sim.system as system
    from repro.common.params import machine_for
    from repro.sim.config import standard_configs

    ops = bl.Ops()
    book = bl.CellBook(ops, args.pins, args.perturb)
    report = bl.Report(ops, book)
    profiler = bl.SimProfiler()
    simulate = bl.instrument(spans, profiler) if spans is not None else None
    setups = [_setup(args.work) for _ in range(3)]
    paths = setups[-1][1]
    configs = {label: standard_configs(machine_for(cpus, assoc=assoc,
                                                   bus_width_bytes=bus))
               for label, cpus, assoc, bus, _fmt in MACHINES}
    repeats = {"sa8": 1 if args.tiny else SA8_REPEATS, "sa32": 1}
    min_cycles = MIN_CYCLES
    cycle_ops = [(label, scheme) for label, *_rest in MACHINES
                 for _ in range(repeats[label]) for scheme in SCHEMES]

    op_s: List[float] = []
    by_cell: Dict[str, List[float]] = defaultdict(list)
    sim_s: List[float] = []
    records = 0
    cycles: List[Tuple[float, float]] = []
    metrics: Dict[str, object] = {}
    started = time.perf_counter()
    while len(cycles) < min_cycles or time.perf_counter() - started < args.seconds:
        profiler.active = not cycles  # calls per record over cycle one
        cycle_start = time.perf_counter()
        cycle_sim = 0.0
        for label, scheme in bl.seeded_order(cycle_ops, args.seed,
                                             f"cycle{len(cycles)}"):
            name = workload_name(int(label[2:]))
            op = ops.start(f"cycle{len(cycles)}:{label}:{scheme}")
            t0 = time.perf_counter()
            try:
                trace = _load(paths[label])
                t1 = time.perf_counter()
                result = system.simulate(trace, configs[label][scheme])
            except Exception as err:  # counted, never skipped
                ops.fail(op, f"raised {err!r}")
                continue
            t2 = time.perf_counter()
            op_s.append(t2 - t0)
            sim_s.append(t2 - t1)
            cycle_sim += t2 - t1
            records += len(trace)
            key = bl.cell_key(bl.CALIBRATED_SEED, name, scheme, label)
            by_cell[key].append(t2 - t0)
            metrics.setdefault(key, result)
            book.record(op, key, result.snapshot())
            if scheme == "Blk_Dma":
                book.check_differs(op, bl.cell_key(bl.CALIBRATED_SEED, name,
                                                   "Base", label), key)
            # Free this trace before the next one loads, so the peak RSS
            # does not depend on the operation order.
            trace = result = None
        cycles.append((time.perf_counter() - cycle_start, cycle_sim))
    measured_s = time.perf_counter() - started

    min_ops = min_cycles * len(cycle_ops)
    cell_tail, cell_tail_rec = bl.tail(op_s, min_ops)
    warm_tail, warm_tail_rec = bl.tail(sim_s, min_ops)
    fig3, fig5, refs = machine_axis_accuracy(metrics)
    e2e = report.end_to_end
    e2e["setup_s"] = bl.median([s for s, _p in setups])
    e2e["records_per_s"] = bl.ratio(records, sum(op_s))
    e2e["cell_p50_s"] = bl.cell_median(by_cell)
    e2e["cell_tail_s"] = cell_tail
    e2e["cold_s"] = bl.median([c for c, _s in cycles])
    e2e["warm_s"] = bl.median([s for _c, s in cycles])
    e2e["warm_tail_s"] = warm_tail
    e2e["peak_rss_mb"] = bl.peak_rss_mb()
    e2e["fig3_mae"] = fig3
    e2e["fig5_mae"] = fig5

    layer = report.layer
    bl.memsys_counters(metrics, SCHEMES, layer)
    if spans is not None:
        bl.fill_layer_rates(spans, layer)
        profiler.fill(layer)
        layer["bench.trace_overhead"] = bl.trace_overhead(
            simulate, _load(paths["sa8"]), configs["sa8"]["Base"])

    report.detail = {
        "cycles": len(cycles), "ops_per_cycle": len(cycle_ops),
        "measured_s": round(measured_s, 3),
        "cold_s": "median cycle: every operation loads its file",
        "warm_s": "median cycle's simulate time: traces already in memory",
        "cell_tail_s": cell_tail_rec, "warm_tail_s": warm_tail_rec,
        "trace_seed": bl.CALIBRATED_SEED, "scale": bl.SCALE,
        "workloads": {label: workload_name(cpus)
                      for label, cpus, *_rest in MACHINES},
        "accuracy": {"references": refs, "caveat": (
            "The paper measured neither these machines nor the server "
            "family: these errors track simulated behaviour on the machine "
            "axis against the nearest published bars; they validate "
            "nothing.")},
    }
    return report


def machine_axis_accuracy(metrics: Dict[str, object]) -> Tuple[float, float, dict]:
    """The paper-reference errors this workload can state.

    The paper measured neither these machines nor the server family, and
    BCPref is not run here, so both numbers compare Blk_Dma (normalized
    to the same machine's Base) with the paper's mean over its four
    workloads: OS time against Figure 3 (``fig3_mae``) and remaining OS
    read misses against Figure 2, the nearest published bar
    (``fig5_mae``).  They move only when simulated behaviour on the
    set-associative machines moves.
    """
    from repro.analysis import targets
    time_ref = statistics.fmean(targets.FIGURE3["Blk_Dma"])
    miss_ref = statistics.fmean(targets.FIGURE2["Blk_Dma"])
    time_err: List[float] = []
    miss_err: List[float] = []
    for label, cpus, *_rest in MACHINES:
        name = workload_name(cpus)
        base = metrics.get(bl.cell_key(bl.CALIBRATED_SEED, name, "Base", label))
        dma = metrics.get(bl.cell_key(bl.CALIBRATED_SEED, name, "Blk_Dma",
                                      label))
        if base is None or dma is None:
            continue
        time_err.append(abs(dma.os_time().total
                            / max(1, base.os_time().total) - time_ref))
        miss_err.append(abs(dma.os_read_misses()
                            / max(1, base.os_read_misses()) - miss_ref))
    refs = {"fig3_mae": {"figure3_blk_dma_mean": time_ref},
            "fig5_mae": {"figure2_blk_dma_mean": miss_ref,
                         "note": "BCPref is not run on this workload"}}
    return (statistics.fmean(time_err) if time_err else 0.0,
            statistics.fmean(miss_err) if miss_err else 0.0, refs)
