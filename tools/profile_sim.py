#!/usr/bin/env python
"""Profile one simulator cell under cProfile.

Runs a single (workload, config, scale) simulation and prints the top
functions by cumulative or total time — the quickest way to see where the
per-record hot path spends its cycles after a change.  ``--cpus``,
``--assoc`` and ``--bus-width`` pick the machine through ``machine_for``
(default: direct-mapped, sized to the trace), so the set-associative
path can be profiled the same way as the paper's machine.

Examples::

    PYTHONPATH=src python tools/profile_sim.py
    PYTHONPATH=src python tools/profile_sim.py --workload ARC2D+Fsck \\
        --config Blk_Pref --scale 0.5 --sort tottime --limit 25
    PYTHONPATH=src python tools/profile_sim.py --scan   # reference scheduler
    PYTHONPATH=src python tools/profile_sim.py \\
        --workload gen:server:c32:i060:steady:0:0 --scale 0.05 \\
        --cpus 32 --assoc 4 --bus-width 32 --sort tottime

See docs/performance.md for how to read the output.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="Shell",
                        help="workload or profile name (default: Shell)")
    parser.add_argument("--config", default="Base",
                        help="config name from standard_configs (default: Base)")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="trace scale factor (default: 0.5)")
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--cpus", type=int, default=None,
                        help="processors in the machine (default: the "
                             "trace's CPU count)")
    parser.add_argument("--assoc", type=int, default=1,
                        help="set associativity of every cache (default 1)")
    parser.add_argument("--bus-width", type=int, default=None,
                        help="bus width in bytes (default: the Base bus)")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"],
                        help="pstats sort key (default: cumulative)")
    parser.add_argument("--limit", type=int, default=20,
                        help="rows to print (default: 20)")
    parser.add_argument("--scan", action="store_true",
                        help="profile the reference scan scheduler "
                             "(run_scan) instead of the heap scheduler")
    args = parser.parse_args(argv)

    from repro.common.params import machine_for
    from repro.sim.config import standard_configs
    from repro.sim.system import MultiprocessorSystem
    from repro.synthetic.profiles import generate

    trace = generate(args.workload, seed=args.seed, scale=args.scale)
    cpus = args.cpus or trace.num_cpus
    machine = machine_for(cpus, assoc=args.assoc,
                          bus_width_bytes=args.bus_width)
    configs = standard_configs(machine)
    if args.config not in configs:
        parser.error(f"unknown config {args.config!r}; "
                     f"choose from {sorted(configs)}")
    system = MultiprocessorSystem(trace, configs[args.config])
    runner = system.run_scan if args.scan else system.run

    print(f"profiling {args.workload}/{args.config} scale={args.scale} "
          f"on {cpus} CPUs, {args.assoc}-way "
          f"({len(trace)} records, "
          f"{'scan' if args.scan else 'heap'} scheduler)", file=sys.stderr)
    profiler = cProfile.Profile()
    profiler.enable()
    runner()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
