"""``sweep_service``: the sweep service under one closed-loop client.

An in-process ``SweepService`` (``workers=2``: the warm worker pool, the
job queue, the artifact store with ``reuse_sims``) behind its HTTP API,
driven by one client that waits for each result before it submits the
next job -- the way sweep submitters behave.  Each cycle submits a cold
matrix (the four paper workloads x Base/Blk_Dma/BCoh_RelUp/BCPref at a
trace seed the service has not seen) and then resubmits it
``WARM_REPEATS`` times; a warm job must run zero simulation jobs and
return the cold job's results bit for bit.

Cycle seeds: the first cycle uses the calibrated seed (shared with
``ladder_dm4``, so its cells are pinned and replayed in-process), the
second the held-out seed, every later one a seed drawn from the
workload seed.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import benchlib as bl
import ladder

SCHEMES = ["Base", "Blk_Dma", "BCoh_RelUp", "BCPref"]
WARM_REPEATS = 15
MIN_CYCLES = 5
#: Status poll interval of the client.  Warm jobs finish in tens of
#: milliseconds, so ``SweepClient.wait``'s 0.2 s default would quantise
#: their latency.
POLL_S = 0.002
WORKERS = 2
IMPORTS = ["repro.experiments.service"]


def cycle_seed(seed: int, cycle: int) -> int:
    if cycle == 0:
        return bl.CALIBRATED_SEED
    if cycle == 1:
        return bl.HELD_OUT_SEED
    # Far from both fixed seeds, so no drawn cycle repeats one.
    return random.Random(f"{seed}:cycle{cycle}").randrange(10**6, 2 * 10**6)


def _setup(cache_dir):
    """Start the program, then the service on an empty cache, and wait
    for its first ``/healthz`` answer."""
    from repro.experiments.service import SweepClient, SweepService
    start = time.perf_counter()
    bl.import_program_s(IMPORTS)
    service = SweepService(str(bl.fresh_dir(cache_dir)), workers=WORKERS,
                           heartbeat_interval=None)
    host, port = service.start_http()
    client = SweepClient(f"http://{host}:{port}")
    client.healthz()
    return time.perf_counter() - start, service, client


def _stop(service) -> None:
    service.pool.shutdown(wait=True)  # reap the workers before returning
    service.stop()


class Job:
    """One submitted sweep: latency, final status, full results."""

    def __init__(self, client, body: dict) -> None:
        start = time.perf_counter()
        self.job_id = client.submit(body)["job_id"]
        self.status = client.wait(self.job_id, poll=POLL_S)
        self.results = client.results(self.job_id, full=True)
        self.seconds = time.perf_counter() - start


def run(args, spans: Optional[bl.Spans]) -> bl.Report:
    from repro.experiments.artifacts import ArtifactCache
    from repro.experiments.queue import cell_id
    from repro.experiments.runner import ExperimentRunner

    ops = bl.Ops()
    book = bl.CellBook(ops, args.pins, args.perturb)
    report = bl.Report(ops, book)
    workloads = bl.PAPER_WORKLOADS
    cache_dir = args.work / "service"
    setups = []
    for _ in range(3):
        if setups:
            _stop(setups[-1][1])
        setups.append(_setup(cache_dir))
    service, client = setups[-1][1], setups[-1][2]
    warm_repeats = 2 if args.tiny else WARM_REPEATS
    min_cycles = 2 if args.tiny else MIN_CYCLES

    cold: List[Tuple[int, Job]] = []
    warm: List[Job] = []
    warm_sim_jobs = 0
    healthz_s: List[float] = []
    events: List[dict] = []
    seeds: List[int] = []
    started = time.perf_counter()
    try:
        while (len(seeds) < min_cycles
               or time.perf_counter() - started < args.seconds):
            seed = cycle_seed(args.seed, len(seeds))
            seeds.append(seed)
            body = {"workloads": workloads, "configs": SCHEMES,
                    "scales": [bl.SCALE], "seed": seed}
            for repeat in range(warm_repeats + 1):
                op = ops.start(f"cycle{len(seeds) - 1}:"
                               f"{'cold' if repeat == 0 else 'warm'}{repeat}")
                try:
                    job = Job(client, body)
                except Exception as err:  # counted, never skipped
                    ops.fail(op, f"raised {err!r}")
                    continue
                _check_job(ops, book, op, job, seed, workloads, cell_id)
                job.results = None  # checked; keep only the timing
                if repeat == 0:
                    cold.append((seed, job))
                    events.extend(client.events(job.job_id)["events"])
                else:
                    warm.append(job)
                    sims = job.status["counters"].get("sim_jobs", 0)
                    warm_sim_jobs += sims
                    ops.check(op, sims == 0, f"warm job ran {sims} sim jobs")
                if spans is not None:
                    t0 = time.perf_counter()
                    client.healthz()
                    healthz_s.append(time.perf_counter() - t0)
        measured_s = time.perf_counter() - started
    finally:
        _stop(service)
    peak_rss = bl.peak_rss_mb(include_children=True)

    records = [_cycle_records(cache_dir, seed, workloads)
               for seed, _job in cold]
    # Replay the calibrated cycle in-process: the service must return
    # exactly what the ladder computes for the cells the two share.  The
    # workers are gone by now, so a traced run spans only this replay of
    # the work they did: once under the profiler (calls per record,
    # module shares), once without it (layer rates).
    profiler = bl.SimProfiler()
    simulate = bl.instrument(spans, profiler) if spans is not None else None
    for replay in range(2 if spans is not None else 1):
        profiler.active = replay == 0
        runner = ExperimentRunner(
            scale=bl.SCALE, seed=bl.CALIBRATED_SEED,
            cache=ArtifactCache(str(bl.fresh_dir(args.work / "replay"))))
        ladder.run_pass(runner, workloads, SCHEMES, ops, book,
                        f"replay{replay}", bl.CALIBRATED_SEED, analysis=False)
    profiler.active = False

    sim_jobs = [e for e in events
                if e.get("event") == "finished" and e.get("kind") == "sim"]
    sim_job_s = [e["duration"] for e in sim_jobs]
    by_cell: Dict[str, List[float]] = defaultdict(list)
    for e in sim_jobs:
        by_cell[f"{e['workload']}|{e['config']}"].append(e["duration"])
    cell_tail, cell_tail_rec = bl.tail(sim_job_s, min_cycles * len(workloads)
                                       * 2)
    warm_tail, warm_tail_rec = bl.tail([j.seconds for j in warm],
                                       min_cycles * warm_repeats)
    calibrated = _metrics_at(book, bl.CALIBRATED_SEED, workloads)
    fig3, fig5, refs = bl.paper_accuracy(calibrated, workloads)

    e2e = report.end_to_end
    e2e["setup_s"] = bl.median([s for s, *_rest in setups])
    e2e["records_per_s"] = bl.ratio(sum(records),
                                    sum(j.seconds for _s, j in cold))
    e2e["cell_p50_s"] = bl.cell_median(by_cell)
    e2e["cell_tail_s"] = cell_tail
    e2e["cold_s"] = bl.median([j.seconds for _s, j in cold])
    e2e["warm_s"] = bl.median([j.seconds for j in warm])
    e2e["warm_tail_s"] = warm_tail
    e2e["peak_rss_mb"] = peak_rss
    e2e["fig3_mae"] = fig3
    e2e["fig5_mae"] = fig5

    layer = report.layer
    finished = [e for e in events if e.get("event") == "finished"]
    for kind in ("trace", "derive", "sim"):
        layer[f"experiments.{kind}_job_s"] = bl.median(
            [e["duration"] for e in finished if e.get("kind") == kind])
    layer["experiments.retries"] = float(
        sum(e.get("event") == "retried" for e in events))
    hits = sum(e["cache"]["hits"] for e in finished)
    misses = sum(e["cache"]["misses"] for e in finished)
    layer["experiments.cache_hit_ratio"] = bl.ratio(hits, hits + misses)
    layer["experiments.warm_sim_jobs"] = float(warm_sim_jobs)
    bl.memsys_counters({bl.cell_key(bl.CALIBRATED_SEED, w, s): m
                        for (w, s), m in calibrated.items()}, SCHEMES, layer)
    if spans is not None:
        layer["experiments.healthz_s"] = bl.median(healthz_s)
        bl.fill_layer_rates(spans, layer)
        profiler.fill(layer)
        from repro.sim.config import standard_configs
        layer["bench.trace_overhead"] = bl.trace_overhead(
            simulate, runner.trace(workloads[0]), standard_configs()["Base"])

    held_out = _metrics_at(book, bl.HELD_OUT_SEED, workloads)
    report.detail = {
        "cycles": len(cold), "warm_jobs": len(warm),
        "measured_s": round(measured_s, 3), "poll_s": POLL_S,
        "workers": WORKERS, "clients": 1, "loop": "closed",
        "cycle_seeds": seeds,
        "cell_p50_s": "median over cells of each cell's median sim-job "
                      "duration, from the /events ledger",
        "cell_tail_s": cell_tail_rec, "warm_tail_s": warm_tail_rec,
        "accuracy": {
            "references": refs, "caveat": bl.ACCURACY_CAVEAT,
            "held_out_seed": bl.HELD_OUT_SEED,
            "held_out_fig3_fig5_mae": list(
                bl.paper_accuracy(held_out, workloads)[:2]),
        },
    }
    return report


def _check_job(ops: bl.Ops, book: bl.CellBook, op: bl.Op, job: Job,
               seed: int, workloads, cell_id) -> None:
    ops.check(op, job.status["state"] == "done",
              f"job {job.job_id} ended {job.status['state']}: "
              f"{job.status.get('error')}")
    full = job.results.get("metrics", {})
    before = ladder.predecessors(SCHEMES)
    for workload in workloads:
        for scheme in SCHEMES:
            snapshot = full.get(cell_id(workload, scheme, bl.SCALE))
            if snapshot is None:
                ops.fail(op, f"no result for {workload}/{scheme}")
                continue
            key = bl.cell_key(seed, workload, scheme)
            book.record(op, key, snapshot)
            if scheme in before:
                book.check_differs(
                    op, bl.cell_key(seed, workload, before[scheme]), key)


def _metrics_at(book: bl.CellBook, seed: int, workloads) -> dict:
    """The first results of one cycle, as ``SystemMetrics``; empty when
    any cell is missing (its failure is already counted)."""
    from repro.sim.metrics import SystemMetrics
    keys = {(w, s): bl.cell_key(seed, w, s)
            for w in workloads for s in SCHEMES}
    if any(key not in book.snapshots for key in keys.values()):
        return {}
    return {cell: SystemMetrics.from_snapshot(book.snapshots[key])
            for cell, key in keys.items()}


def _cycle_records(cache_dir, seed: int, workloads) -> int:
    """Trace records the cold job of one cycle simulated, read back from
    the traces the service's workers stored."""
    from repro.experiments.artifacts import ArtifactCache
    from repro.experiments.runner import ExperimentRunner
    runner = ExperimentRunner(scale=bl.SCALE, seed=seed,
                              cache=ArtifactCache(str(cache_dir)))
    return sum(ladder.cell_records(runner, w, s)
               for w in workloads for s in SCHEMES)
