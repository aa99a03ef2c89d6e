"""Conformance harness tests (repro.check): oracle, invariants, fuzzer.

The deliberate-bug (mutant) detection tests live in
``test_conformance_mutants.py``; this file covers the harness itself —
transparency of the checker, the oracle passing on correct runs, the
cross-scheme differential, and the fuzz/shrink/replay machinery.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.check import REPRO_CHECK_ENV
from repro.check import fuzz
from repro.common.errors import ConformanceError
from repro.common.params import BASE_MACHINE, MAX_CPUS
from repro.sim.config import standard_configs
from repro.sim.system import MultiprocessorSystem, simulate
from repro.trace import record as rec
from repro.trace.stream import TraceBuilder

CONFIGS = standard_configs()


def small_trace(seed=7, num_cpus=4):
    case = fuzz.generate_case(seed, num_cpus=num_cpus, length=10,
                              race_free=True)
    return fuzz.build_trace(case)


# ----------------------------------------------------------------------
# Arming and transparency
# ----------------------------------------------------------------------
def test_checker_off_by_default(monkeypatch):
    monkeypatch.delenv(REPRO_CHECK_ENV, raising=False)
    system = MultiprocessorSystem(small_trace(), CONFIGS["Base"])
    assert system.checker is None


def test_checker_enabled_by_env_var(monkeypatch):
    monkeypatch.setenv(REPRO_CHECK_ENV, "1")
    system = MultiprocessorSystem(small_trace(), CONFIGS["Base"])
    assert system.checker is not None
    monkeypatch.setenv(REPRO_CHECK_ENV, "0")
    assert MultiprocessorSystem(small_trace(), CONFIGS["Base"]).checker is None


def test_explicit_check_overrides_env(monkeypatch):
    monkeypatch.setenv(REPRO_CHECK_ENV, "1")
    system = MultiprocessorSystem(small_trace(), CONFIGS["Base"], check=False)
    assert system.checker is None


@pytest.mark.parametrize("config_name",
                         ["Base", "Blk_Bypass", "Blk_Dma", "BCoh_RelUp"])
def test_checker_is_metric_transparent(config_name):
    """Arming the checker must not change a single metric."""
    trace = small_trace(seed=3)
    plain = simulate(trace, CONFIGS[config_name],
                     update_pages=[fuzz.UPDATE_PAGE], check=False)
    checked = simulate(trace, CONFIGS[config_name],
                       update_pages=[fuzz.UPDATE_PAGE], check=True)
    assert plain.snapshot() == checked.snapshot()


def test_checker_actually_checks():
    result = fuzz.run_case(fuzz.generate_case(1, length=8), "Base")
    assert result.ok
    assert result.accesses > 100


# ----------------------------------------------------------------------
# Oracle on correct runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_oracle_passes_all_schemes(config_name):
    case = fuzz.generate_case(11, length=12, race_free=True)
    assert fuzz.run_case(case, config_name).ok


@pytest.mark.parametrize("seed", [2, 5, 9])
def test_oracle_passes_racy_traces(seed):
    case = fuzz.generate_case(seed, length=12, race_free=False)
    for name in ("Base", "Blk_Bypass", "Blk_Dma"):
        assert fuzz.run_case(case, name).ok


# ----------------------------------------------------------------------
# Differential: every scheme ends with Base's architectural memory
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 4, 8])
def test_schemes_agree_on_final_memory(seed):
    case = fuzz.generate_case(seed, length=14, race_free=True)
    base = fuzz.run_case(case, "Base")
    assert base.ok
    assert base.memory  # a vacuous diff would prove nothing
    for name in CONFIGS:
        result = fuzz.run_case(case, name)
        assert result.ok
        assert result.memory == base.memory, name


# ----------------------------------------------------------------------
# Protocol edge cases under the checker
# ----------------------------------------------------------------------
def test_dma_partially_covering_dirty_line_checked():
    """A DMA zero over part of a dirty line must keep the uncovered
    dirty words architecturally visible (dma_update_dst write-back)."""
    line = 0x300000  # 32-byte L2 line
    b = TraceBuilder(2)
    b.emit(1, rec.write(line + 28))          # dirty word outside the zero
    b.emit(1, rec.barrier(0x610000, 2))
    b.emit(0, rec.barrier(0x610000, 2))
    b.emit_block_zero(0, line, 16)           # covers words 0..3 only
    b.emit(0, rec.read(line + 28))           # must still see cpu1's write
    metrics = simulate(b.build(), CONFIGS["Blk_Dma"], check=True)
    assert metrics.makespan > 0


def test_bypass_write_to_update_page_checked():
    """A bypassed block write landing on a Firefly page invalidates the
    sharers at flush time; that is legal (it is not an update) and the
    committed values must still be exact."""
    page = fuzz.UPDATE_PAGE
    config = dataclasses.replace(CONFIGS["Blk_Bypass"],
                                 selective_update=True)
    b = TraceBuilder(2)
    b.emit(1, rec.read(page + 4))            # cpu1 shares the page line
    b.emit(1, rec.barrier(0x610000, 2))
    b.emit(0, rec.barrier(0x610000, 2))
    b.emit_block_zero(0, page, 32)
    b.emit(0, rec.read(page + 4))
    b.emit(1, rec.read(page + 4))            # refetches the zeroed line
    system = MultiprocessorSystem(b.build(), config, update_pages=[page],
                                  check=True)
    system.run()
    assert system.checker.architectural_memory()[page + 4] == "zero"


def test_racing_bypass_registers_commit_in_flush_order():
    """Two CPUs' store-line registers racing on one destination line must
    serialize in flush order — the regression behind SHARED_DST_BASE."""
    for seed in range(6):
        case = fuzz.generate_case(seed * 2 + 1, length=14, race_free=False)
        assert fuzz.run_case(case, "Blk_Bypass").ok, seed


# ----------------------------------------------------------------------
# Fuzz loop, shrinker, persistence
# ----------------------------------------------------------------------
def test_fuzz_rounds_clean():
    for seed in (0, 1):
        assert fuzz.fuzz_round(seed, num_cpus=2, length=8) is None


def _per_cpu_lines(case, line_bytes):
    """Per CPU, the L2 lines of its private words and block operations:
    everything but the shared words, the update page's shared half, and
    the lock and barrier words, which race-free rounds share on
    purpose."""
    def shared(addr):
        return (addr < fuzz.PRIVATE_BASE
                or fuzz.UPDATE_PAGE <= addr < fuzz.UPDATE_PAGE + 2048
                or fuzz.LOCK_BASE <= addr <= fuzz.BARRIER_ADDR)

    def ranges(ev):
        if ev[0] in ("read", "write"):
            yield ev[1], fuzz.WORD
        elif ev[0] == "copy":
            yield ev[1], ev[3]
            yield ev[2], ev[3]
        elif ev[0] == "zero":
            yield ev[1], ev[2]
        elif ev[0] == "lock":
            for inner in ev[3]:
                yield from ranges(inner)

    per_cpu = []
    for events in case.events:
        lines = set()
        for ev in events:
            for base, size in ranges(ev):
                if not shared(base):
                    first = base - base % line_bytes
                    lines.update(range(first, base + size, line_bytes))
        per_cpu.append(lines)
    return per_cpu


def test_per_cpu_regions_disjoint_at_max_cpus():
    """Race-free rounds stay race-free on the widest machine: no line of
    one CPU's private words or block operations is touched by another
    CPU (the block-op slices used to collide from CPU 4 on)."""
    line_bytes = BASE_MACHINE.l2.line_bytes
    for seed in (0, 2, 4):
        case = fuzz.generate_case(seed, num_cpus=MAX_CPUS, race_free=True)
        per_cpu = _per_cpu_lines(case, line_bytes)
        seen = {}
        for cpu, lines in enumerate(per_cpu):
            for line in lines:
                assert seen.setdefault(line, cpu) == cpu, (
                    f"seed {seed}: line {line:#x} used by cpus "
                    f"{seen[line]} and {cpu}")


@pytest.mark.parametrize("assoc", [1, 2])
def test_fuzz_rounds_clean_on_8_cpus(assoc):
    """The machine is sized from the case, so wide cases run (they
    used to fail with 'trace has 8 CPUs, machine only 4')."""
    assert fuzz.run_fuzz(2, seed=0, num_cpus=8, length=12,
                         assoc=assoc) is None


def test_case_associativity_travels_with_saved_failure(tmp_path):
    case = fuzz.generate_case(3, num_cpus=8, length=6, assoc=2)
    assert case.replaced(case.events).assoc == 2
    failure = fuzz.FuzzFailure(case, "Blk_Dma", "",
                               ConformanceError("probe", kind="probe"))
    path = tmp_path / "wide.txt"
    fuzz.save_failure(failure, case, str(path))
    from repro.trace import textio
    with open(path) as fp:
        assert textio.load(fp).metadata[fuzz.META_ASSOC] == 2
    assert fuzz.replay(str(path)).ok


@pytest.mark.slow
@pytest.mark.fuzz
def test_fuzz_smoke_all_schemes():
    assert fuzz.run_fuzz(6, seed=100) is None


def test_generate_case_is_deterministic():
    a = fuzz.generate_case(42)
    b = fuzz.generate_case(42)
    assert a.events == b.events
    assert fuzz.generate_case(43).events != a.events


def test_generated_traces_validate():
    for seed in range(4):
        trace = fuzz.build_trace(fuzz.generate_case(seed))
        trace.validate()


def test_shrinker_reaches_one_minimality():
    """At the shrinker's fixpoint no single removal still fails."""
    from repro.check.mutants import mutant

    def still_fails(case):
        with mutant("stale_cache_supply"):
            result = fuzz.run_case(case, "Base")
        return (result.error is not None
                and result.error.kind == "stale-read")

    case = fuzz.generate_case(0, length=20, race_free=True)
    assert still_fails(case)
    shrunk = fuzz.shrink_case(case, still_fails)
    assert len(shrunk) < len(case)
    assert still_fails(shrunk)
    for cand in fuzz._candidates(shrunk):
        reduced = fuzz._apply(shrunk, cand)
        if reduced is not None:
            assert not still_fails(reduced), cand


def test_save_and_replay_roundtrip(tmp_path):
    from repro.check.mutants import mutant
    case = fuzz.generate_case(0, length=20, race_free=True)
    with mutant("stale_cache_supply"):
        result = fuzz.run_case(case, "Base")
    assert result.error is not None
    failure = fuzz.FuzzFailure(case, "Base", "stale_cache_supply",
                               result.error)
    path = tmp_path / "failure.txt"
    fuzz.save_failure(failure, case, str(path))
    replayed = fuzz.replay(str(path))
    assert replayed.error is not None
    assert replayed.error.kind == result.error.kind


def test_replay_clean_without_mutant_metadata(tmp_path):
    trace = small_trace(seed=5)
    trace.metadata[fuzz.META_CONFIG] = "Blk_Dma"
    trace.metadata[fuzz.META_UPDATE_PAGES] = [fuzz.UPDATE_PAGE]
    path = tmp_path / "clean.txt"
    from repro.trace import textio
    with open(path, "w") as fp:
        textio.dump(trace, fp)
    assert fuzz.replay(str(path)).ok


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def test_cli_simulate_check_flag(tmp_path, capsys):
    from repro import cli
    from repro.trace import textio
    path = tmp_path / "t.txt"
    with open(path, "w") as fp:
        textio.dump(small_trace(seed=6), fp)
    assert cli.main(["simulate", str(path), "--config", "Base",
                     "--check"]) == 0
    assert "conformance: ok" in capsys.readouterr().out


def test_check_cli_module(tmp_path, capsys):
    from repro.check.__main__ import main
    assert main(["--rounds", "1", "--seed", "0", "--cpus", "2",
                 "--length", "6", "--configs", "Base,Blk_Dma",
                 "--out-dir", str(tmp_path)]) == 0
    assert "no conformance violation" in capsys.readouterr().out


def test_cli_reports_violation(tmp_path, capsys):
    from repro import cli
    from repro.check.mutants import mutant
    from repro.trace import textio
    case = fuzz.generate_case(0, length=20, race_free=True)
    path = tmp_path / "t.txt"
    with open(path, "w") as fp:
        textio.dump(fuzz.build_trace(case), fp)
    with mutant("stale_cache_supply"):
        code = cli.main(["simulate", str(path), "--config", "Base",
                         "--check"])
    assert code == 1
    assert "conformance violation" in capsys.readouterr().err


def test_conformance_error_carries_kind():
    err = ConformanceError("stale-read: boom", kind="stale-read",
                           details={"cpu": 1})
    assert err.kind == "stale-read"
    assert err.details == {"cpu": 1}
