"""``ladder_dm4``: the paper's evaluation on the paper's machine.

The four paper workloads x the eight ``standard_configs()`` schemes plus
``Hyb_UpdN``, through ``ExperimentRunner`` with an on-disk
``ArtifactCache``, on the direct-mapped 4-CPU machine of section 2.4 --
the path where the batched scheduler tier and the inline fast paths
live.  Passes alternate cold (empty cache directory, fresh runner) and
warm (cache filled by the cold pass, fresh runner), so every pair both
writes and reads the artifact cache.  Within a pass each workload walks
the ladder in the paper's order -- Base, the block-op schemes,
privatization, update-page selection, BCoh_RelUp, hot-spot search,
prefetch insertion, BCPref -- so every derivation call is its own timed
step.  Each pass ends with the Figure 3, Table 2 and Table 5 builders
and their rendering.

The workload seed only shuffles the workload order of each pass: the
traces are always the calibrated ones (see ``benchlib.CALIBRATED_SEED``).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import benchlib as bl

#: Ladder order of one workload: derivation steps sit right before the
#: first cell that needs them.
STEPS = ["trace", "Base", "Blk_Pref", "Blk_Bypass", "Blk_ByPref", "Blk_Dma",
         "privatize", "BCoh_Reloc", "update_select", "BCoh_RelUp",
         "hotspots", "prefetch", "BCPref", "Hyb_UpdN"]
#: Derivation step -> ExperimentRunner method.
DERIVE = {"trace": "trace", "privatize": "privatized_trace",
          "update_select": "update_selection", "hotspots": "hotspots",
          "prefetch": "prefetched_trace"}
#: Ladder predecessor of a cell when it is not the previous scheme:
#: the hybrid is stacked on BCoh_Reloc.
PREDECESSOR = {"Hyb_UpdN": "BCoh_Reloc"}
#: Every run makes at least this many passes (cold, warm, cold, warm).
MIN_PASSES = 4
IMPORTS = ["repro.experiments.runner", "repro.analysis"]


def steps_for(schemes: Sequence[str]) -> List[str]:
    """The ladder steps *schemes* need, in ladder order."""
    from repro.sim.config import resolve_config
    configs = [resolve_config(s) for s in schemes]
    need = {"trace": True,
            "privatize": any(c.privatize for c in configs),
            "update_select": any(c.selective_update for c in configs),
            "hotspots": any(c.hotspot_prefetch for c in configs),
            "prefetch": any(c.hotspot_prefetch for c in configs)}
    return [s for s in STEPS if need.get(s, s in schemes)]


def predecessors(schemes: Sequence[str]) -> Dict[str, str]:
    out = {}
    for before, after in zip(schemes, schemes[1:]):
        out[after] = PREDECESSOR.get(after, before)
        if out[after] not in schemes:
            out[after] = before
    return out


def cell_records(runner, workload: str, scheme: str) -> int:
    """Records of the trace *scheme* simulates (already in memory)."""
    from repro.sim.config import resolve_config
    config = resolve_config(scheme)
    if config.hotspot_prefetch:
        return len(runner.prefetched_trace(workload))
    if config.privatize:
        return len(runner.privatized_trace(workload))
    return len(runner.trace(workload))


class Pass:
    """Timings and results of one pass over the ladder."""

    def __init__(self, cold: bool) -> None:
        self.cold = cold
        self.seconds = 0.0
        #: (cell key, seconds, records) of every simulated cell.
        self.cells: List[Tuple[str, float, int]] = []
        self.derive: Dict[str, List[float]] = defaultdict(list)
        self.analysis_s = 0.0
        self.metrics: Dict[Tuple[str, str], object] = {}
        self.cache_stats: Counter = Counter()


def run_pass(runner, workloads: Sequence[str], schemes: Sequence[str],
             ops: bl.Ops, book: bl.CellBook, label: str, seed: int,
             analysis: bool) -> Pass:
    """Walk the ladder for every workload on *runner*, checking each
    cell's snapshot as it lands."""
    from repro.analysis import figure3, render, table2, table5
    result = Pass(cold=label.startswith("cold"))
    before = predecessors(list(schemes))
    start = time.perf_counter()
    for workload in workloads:
        for step in steps_for(schemes):
            op = ops.start(f"{label}:{workload}:{step}")
            t0 = time.perf_counter()
            try:
                if step in DERIVE:
                    getattr(runner, DERIVE[step])(workload)
                else:
                    metrics = runner.run(workload, step)
            except Exception as err:  # counted, never skipped
                ops.fail(op, f"raised {err!r}")
                continue
            seconds = time.perf_counter() - t0
            if step in DERIVE:
                result.derive[step].append(seconds)
                continue
            key = bl.cell_key(seed, workload, step)
            result.cells.append((key, seconds,
                                 cell_records(runner, workload, step)))
            result.metrics[(workload, step)] = metrics
            book.record(op, key, metrics.snapshot())
            if step in before:
                book.check_differs(
                    op, bl.cell_key(seed, workload, before[step]), key)
    if analysis:
        op = ops.start(f"{label}:analysis")
        t0 = time.perf_counter()
        try:
            for builder in (figure3, table2, table5):
                render(builder(runner))
        except Exception as err:
            ops.fail(op, f"raised {err!r}")
        result.analysis_s = time.perf_counter() - t0
    result.seconds = time.perf_counter() - start
    if runner.cache is not None:
        result.cache_stats = Counter(runner.cache.stats)
    return result


def _setup(cache_dir) -> float:
    """Start the program and give it an empty artifact cache."""
    start = time.perf_counter()
    bl.import_program_s(IMPORTS)
    bl.fresh_dir(cache_dir)
    return time.perf_counter() - start


def run(args, spans: Optional[bl.Spans]) -> bl.Report:
    from repro.experiments.artifacts import ArtifactCache
    from repro.experiments.runner import ExperimentRunner

    ops = bl.Ops()
    book = bl.CellBook(ops, args.pins, args.perturb)
    report = bl.Report(ops, book)
    workloads = bl.PAPER_WORKLOADS
    min_passes = 2 if args.tiny else MIN_PASSES
    cache_dir = args.work / "cache"

    profiler = bl.SimProfiler()
    simulate = bl.instrument(spans, profiler) if spans is not None else None
    setups = [_setup(cache_dir) for _ in range(3)]

    passes: List[Pass] = []
    started = time.perf_counter()
    while (len(passes) < min_passes or len(passes) % 2
           or time.perf_counter() - started < args.seconds):
        is_cold = len(passes) % 2 == 0
        if is_cold:
            bl.fresh_dir(cache_dir)
        # The profiler covers the first cold pass only, so calls per record
        # always describe the same work; later passes give the sim rates.
        profiler.active = not passes
        runner = ExperimentRunner(scale=bl.SCALE, seed=bl.CALIBRATED_SEED,
                                  cache=ArtifactCache(str(cache_dir)))
        order = bl.seeded_order(workloads, args.seed, f"pass{len(passes)}")
        label = f"{'cold' if is_cold else 'warm'}{len(passes) // 2}"
        passes.append(run_pass(runner, order, bl.LADDER_SCHEMES, ops, book,
                               label, bl.CALIBRATED_SEED, analysis=True))
        if len(passes) > 1:
            passes[-1].metrics = {}  # equal to the first pass's (checked)
    measured_s = time.perf_counter() - started

    cells_per_pass = len(workloads) * len(bl.LADDER_SCHEMES)
    cold = [p for p in passes if p.cold]
    warm = [p for p in passes if not p.cold]
    cells = [s for p in passes for _k, s, _r in p.cells]
    warm_cells = [s for p in warm for _k, s, _r in p.cells]
    by_cell: Dict[str, List[float]] = defaultdict(list)
    for p in passes:
        for key, seconds, _r in p.cells:
            by_cell[key].append(seconds)
    cell_tail, cell_tail_rec = bl.tail(cells, min_passes * cells_per_pass)
    warm_tail, warm_tail_rec = bl.tail(
        warm_cells, min_passes // 2 * cells_per_pass)
    first = passes[0].metrics
    fig3, fig5, refs = bl.paper_accuracy(first, workloads)
    e2e = report.end_to_end
    e2e["setup_s"] = bl.median(setups)
    e2e["records_per_s"] = bl.ratio(
        sum(r for p in passes for _k, _s, r in p.cells), sum(cells))
    e2e["cell_p50_s"] = bl.cell_median(by_cell)
    e2e["cell_tail_s"] = cell_tail
    e2e["cold_s"] = bl.median([p.seconds for p in cold])
    e2e["warm_s"] = bl.median([p.seconds for p in warm])
    e2e["warm_tail_s"] = warm_tail
    e2e["peak_rss_mb"] = bl.peak_rss_mb()
    e2e["fig3_mae"] = fig3
    e2e["fig5_mae"] = fig5

    layer = report.layer
    layer["analysis.build_s"] = bl.median([p.analysis_s for p in passes])
    hits = sum(n for p in warm for e, n in p.cache_stats.items()
               if e.endswith(".hit"))
    misses = sum(n for p in warm for e, n in p.cache_stats.items()
                 if e.endswith(".miss"))
    layer["experiments.artifact_hit_ratio"] = bl.ratio(hits, hits + misses)
    bl.memsys_counters({bl.cell_key(bl.CALIBRATED_SEED, w, s): m
                        for (w, s), m in first.items()},
                       bl.LADDER_SCHEMES, layer)
    if spans is not None:
        bl.fill_layer_rates(spans, layer)
        profiler.fill(layer)
        from repro.sim.config import standard_configs
        layer["bench.trace_overhead"] = bl.trace_overhead(
            simulate, runner.trace(workloads[0]),
            standard_configs()["Base"])

    report.detail = {
        "passes": {"cold": len(cold), "warm": len(warm),
                   "measured_s": round(measured_s, 3)},
        "cells_per_pass": cells_per_pass,
        "cell_tail_s": cell_tail_rec,
        "warm_tail_s": warm_tail_rec,
        "trace_seed": bl.CALIBRATED_SEED,
        "scale": bl.SCALE,
        "workload_order": [bl.seeded_order(workloads, args.seed, f"pass{k}")
                           for k in range(len(passes))],
        "accuracy": {"references": refs, "caveat": bl.ACCURACY_CAVEAT},
        "derive_s": {step: round(bl.median(
            [s for p in cold for s in p.derive.get(step, [])]), 6)
            for step in DERIVE},
    }
    return report
