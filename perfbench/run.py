"""Layered benchmark of the reproduction: one command per workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ladder_dm4 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics (spans around the calls into each layer, cProfile around
simulation).  Every simulated result is checked; the last line of
standard output is the result object, the line before it a ``detail``
object (tail percentiles and sample counts, poll interval, paper
references, failure reasons).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
import tempfile

import benchlib as bl

WORKLOADS = ("ladder_dm4", "wide_setassoc", "sweep_service")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="fewest passes/cycles that still reach every "
                             "layer (the self-test's size)")
    parser.add_argument("--perturb", default=None, metavar="CELL",
                        help="corrupt the first result of this cell key "
                             "(self-test of the output checks)")
    parser.add_argument("--write-pins", action="store_true",
                        help="add this run's cell digests to pins.json "
                             "instead of checking against it")
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(bl.ROOT / "BENCHMARK.json") as fp:
        return json.load(fp)


def stop_children() -> None:
    """Wait for (and, past a grace period, terminate) every child
    process this run started."""
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
            child.join(timeout=5)


def write_pins(book: bl.CellBook) -> None:
    pins = bl.load_pins()
    for key, value in book.reference.items():
        if pins.setdefault(key, value) != value:
            raise SystemExit(f"pin conflict for {key}: {pins[key]} vs {value}")
    with open(bl.PINS_PATH, "w") as fp:
        json.dump(dict(sorted(pins.items())), fp, indent=1)
        fp.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (bl.SRC / "repro" / "__init__.py").exists():
        print(f"program sources not found under {bl.SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, str(bl.SRC))
    args.work = bl.fresh_dir(bl.WORK / f"{args.workload}-{os.getpid()}")
    tmp = bl.fresh_dir(args.work / "tmp")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)

    import ladder
    import sweep
    import wide
    module = {"ladder_dm4": ladder, "wide_setassoc": wide,
              "sweep_service": sweep}[args.workload]
    # --write-pins records fresh references and checks none.
    args.pins = {} if args.write_pins else bl.load_pins()
    spans = bl.Spans() if args.trace else None
    try:
        report = module.run(args, spans)
    finally:
        if spans is not None:
            spans.restore()
        stop_children()
        shutil.rmtree(args.work, ignore_errors=True)
    if spans is not None:
        spans.dump(bl.WORK / f"spans-{args.workload}-seed{args.seed}.json")
    if args.write_pins:
        write_pins(report.book)

    ops = report.ops
    report.layer["error_rate"] = bl.ratio(ops.failed, ops.attempted)
    group = "per_layer" if args.trace else "end_to_end"
    values = report.layer if args.trace else report.end_to_end
    metrics = {}
    missing = []
    for entry in spec[group]:
        name = entry["name"]
        if name not in values:
            missing.append(name)
        metrics[name] = {"value": float(values.get(name, 0.0)),
                         "unit": entry["unit"]}
    if missing and not args.trace:
        print(f"end-to-end metrics not measured: {missing}", file=sys.stderr)
        return 3
    detail = dict(report.detail, workload=args.workload, seed=args.seed,
                  attempted=ops.attempted, failed=ops.failed,
                  failures=ops.failures)
    if args.trace:
        # Layers this workload does not reach in this process read 0.
        detail["not_exercised"] = missing
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": ops.failed == 0,
                      "attempted": ops.attempted,
                      "failed": ops.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
