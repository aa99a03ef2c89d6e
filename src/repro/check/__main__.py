"""Conformance fuzz driver: ``python -m repro.check``.

Modes::

    python -m repro.check --rounds 200 --seed 0
        Fuzz: every round generates one adversarial trace and runs it
        under every registered scheme with the oracle + invariant checker
        armed; even-seeded (race-free) rounds additionally diff each
        scheme's final architectural memory against Base.  A failure is
        shrunk to a minimal trace, saved, and reported with the exact
        replay command.  Exit 1 on any failure.

    python -m repro.check --rounds 60 --cpus 8 --assoc 2
        The same fuzz on a wider, set-associative machine: the machine
        always has the case's CPU count, and ``--assoc`` sets the
        associativity of all three caches.

    python -m repro.check --mutants --seed 0
        Detection power: every registered protocol mutant must be caught
        by the checker within a bounded number of rounds under the
        configurations that can expose it.  The first catching case is
        shrunk, saved, and re-verified by replay.  Exit 1 if any mutant
        survives.

    python -m repro.check --profiles --samples 20 --seed 0 --scale 0.04
        Generated-workload conformance: sample seeded random workloads
        from the profile sweep generator (repro.synthetic.generator) and
        run each full synthetic-kernel trace under every registered scheme
        with the oracle + invariant checker armed.  Failing traces are
        saved for ``--replay``.  Exit 1 on any failure.

    python -m repro.check --replay failure.txt
        Re-run a saved failing trace exactly as recorded (configuration,
        Firefly update pages, and active mutant come from the trace
        metadata).  Exit 1 if the failure reproduces — which, for a
        saved failure, it should.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.check import fuzz
from repro.check.mutants import MUTANTS

#: Rounds allowed for a mutant to be caught before we declare it missed.
MUTANT_MAX_ROUNDS = 40


def _report_failure(failure: "fuzz.FuzzFailure", out_dir: str,
                    stem: str) -> str:
    print(f"FAIL [{failure.error.kind}] config={failure.config_name}"
          + (f" mutant={failure.mutant_name}" if failure.mutant_name else "")
          + f": {failure.error}")
    print(f"shrinking (starting at {len(failure.case)} events) ...")
    shrunk = fuzz.shrink_failure(failure)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{stem}.txt")
    fuzz.save_failure(failure, shrunk, path)
    print(f"minimal case: {len(shrunk)} events -> {path}")
    print(f"replay with:  python -m repro.check --replay {path}")
    return path


def cmd_fuzz(args: argparse.Namespace) -> int:
    configs = ([c.strip() for c in args.configs.split(",") if c.strip()]
               or None)
    progress = None
    if not args.quiet:
        def progress(done: int) -> None:
            if done % 20 == 0 or done == args.rounds:
                print(f"  {done}/{args.rounds} rounds clean")
    print(f"fuzzing {args.rounds} rounds, seed {args.seed}, "
          f"{args.cpus} cpus, {args.assoc}-way caches, configs: "
          f"{','.join(configs or fuzz.fuzz_configs())}")
    failure = fuzz.run_fuzz(args.rounds, args.seed, configs,
                            num_cpus=args.cpus, length=args.length,
                            progress=progress, assoc=args.assoc)
    if failure is None:
        print(f"OK: {args.rounds} rounds, no conformance violation")
        return 0
    _report_failure(failure, args.out_dir,
                    f"fuzz-{failure.error.kind}-seed{failure.case.seed}")
    return 1


def cmd_mutants(args: argparse.Namespace) -> int:
    missed: List[str] = []
    for name, (_, config_names) in MUTANTS.items():
        caught: Optional[fuzz.FuzzFailure] = None
        rounds = 0
        for i in range(MUTANT_MAX_ROUNDS):
            rounds = i + 1
            case = fuzz.generate_case(args.seed + i, num_cpus=args.cpus,
                                      length=args.length,
                                      race_free=i % 2 == 0,
                                      assoc=args.assoc)
            for config_name in config_names:
                result = fuzz.run_case(case, config_name, mutant_name=name)
                if result.error is not None:
                    caught = fuzz.FuzzFailure(case, config_name, name,
                                              result.error)
                    break
            if caught is not None:
                break
        if caught is None:
            print(f"MISSED: mutant {name!r} survived {rounds} rounds "
                  f"under {config_names}")
            missed.append(name)
            continue
        print(f"caught {name!r} in round {rounds} "
              f"[{caught.error.kind}] under {caught.config_name}")
        path = _report_failure(caught, args.out_dir, f"mutant-{name}")
        replayed = fuzz.replay(path)
        if replayed.error is None:
            print(f"REPLAY MISMATCH: {path} does not reproduce {name!r}")
            missed.append(name)
    if missed:
        print(f"{len(missed)}/{len(MUTANTS)} mutants undetected: {missed}")
        return 1
    print(f"OK: all {len(MUTANTS)} mutants detected and replayable")
    return 0


def cmd_profiles(args: argparse.Namespace) -> int:
    configs = ([c.strip() for c in args.configs.split(",") if c.strip()]
               or None)
    families = ([f.strip() for f in args.families.split(",") if f.strip()]
                or None)
    progress = None
    if not args.quiet:
        def progress(done: int, name: str) -> None:
            print(f"  {done}/{args.samples} clean (last: {name})")
    print(f"profile fuzz: {args.samples} generated workloads, "
          f"seed {args.seed}, scale {args.scale}, configs: "
          f"{','.join(configs or fuzz.fuzz_configs())}")
    failure = fuzz.run_profile_fuzz(args.samples, seed=args.seed,
                                    configs=configs, scale=args.scale,
                                    families=families, progress=progress)
    if failure is None:
        print(f"OK: {args.samples} generated workloads conformant "
              "under every scheme")
        return 0
    print(f"FAIL [{failure.error.kind}] workload={failure.workload_name} "
          f"config={failure.config_name}: {failure.error}")
    os.makedirs(args.out_dir, exist_ok=True)
    stem = failure.workload_name.replace(":", "_")
    path = os.path.join(args.out_dir,
                        f"profile-{stem}-{failure.config_name}.txt")
    fuzz.save_profile_failure(failure, path)
    print(f"failing trace -> {path}")
    print(f"replay with:  python -m repro.check --replay {path}")
    return 1


def cmd_replay(args: argparse.Namespace) -> int:
    result = fuzz.replay(args.replay)
    if result.error is None:
        print(f"clean: {args.replay} ran without violation "
              f"({result.accesses} accesses checked)")
        return 0
    print(f"reproduced [{result.error.kind}]: {result.error}")
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="coherence conformance fuzzer "
                    "(reference oracle + MESI/Firefly invariants)")
    parser.add_argument("--rounds", type=int, default=50,
                        help="fuzz rounds (default 50)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cpus", type=int, default=4,
                        help="processors per generated case; the machine "
                             "is sized to match (default 4)")
    parser.add_argument("--assoc", type=int, default=1,
                        help="set associativity of every cache in the "
                             "fuzzed machine (default 1, direct-mapped)")
    parser.add_argument("--length", type=int, default=24,
                        help="events per CPU per generated case")
    parser.add_argument("--configs", default="",
                        help="comma-separated scheme names (default: all)")
    parser.add_argument("--mutants", action="store_true",
                        help="check that every protocol mutant is caught")
    parser.add_argument("--profiles", action="store_true",
                        help="fuzz generated synthetic workloads from the "
                             "profile sweep generator instead of "
                             "adversarial micro-traces")
    parser.add_argument("--samples", type=int, default=20,
                        help="generated workloads for --profiles "
                             "(default 20)")
    parser.add_argument("--scale", type=float, default=0.04,
                        help="workload scale for --profiles (default 0.04)")
    parser.add_argument("--families", default="",
                        help="comma-separated profile families for "
                             "--profiles (default: all sweepable)")
    parser.add_argument("--replay", default="",
                        help="re-run a saved failing trace")
    parser.add_argument("--out-dir", default="check-failures",
                        help="directory for shrunk failing traces")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)
    if args.replay:
        return cmd_replay(args)
    if args.mutants:
        return cmd_mutants(args)
    if args.profiles:
        return cmd_profiles(args)
    return cmd_fuzz(args)


if __name__ == "__main__":
    raise SystemExit(main())
