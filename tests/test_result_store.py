"""Stored simulation results: ``ExperimentRunner.run`` serves and persists
every cell through the artifact cache, and every restore is verified.

A warm runner must be interchangeable with a cold one: snapshot-equal
results, the same hot-spot and update-core rankings when a derivation is
recomputed from restored profiles, and zero simulations.  A stored
result that breaks an accounting identity is quarantined and
re-simulated instead of served.
"""

import json
import os
import shutil

import pytest

import repro.experiments.runner as runner_mod
from repro.common.errors import AccountingError
from repro.common.params import BASE_MACHINE, machine_for
from repro.common.types import Mode
from repro.experiments.artifacts import ArtifactCache, SimKey
from repro.experiments.ledger import read_events
from repro.experiments.runner import NUM_HOTSPOTS, ExperimentRunner
from repro.sim.config import standard_configs
from repro.sim.metrics import SystemMetrics
from repro.synthetic.workloads import WORKLOAD_ORDER

SCALE = 0.05
SEED = 1996
#: The paper ladder: every standard scheme plus the stacked hybrid.
LADDER = list(standard_configs()) + ["Hyb_UpdN"]
CELLS = [(w, c, None) for w in WORKLOAD_ORDER for c in LADDER]


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A cold runner over the ladder, and the cache it filled."""
    root = tmp_path_factory.mktemp("result-store")
    runner = ExperimentRunner(scale=SCALE, seed=SEED,
                              cache=ArtifactCache(root))
    snaps = {(w, c): runner.run(w, c).snapshot()
             for (w, c, _m) in CELLS}
    return root, runner, snaps


@pytest.fixture
def sim_calls(monkeypatch):
    """Counts the runner's calls into the simulator."""
    calls = []
    real = runner_mod.simulate

    def counting(trace, config, **kwargs):
        calls.append(config.name)
        return real(trace, config, **kwargs)

    monkeypatch.setattr(runner_mod, "simulate", counting)
    return calls


def _copy_cache(root, tmp_path):
    dest = tmp_path / "cache"
    shutil.copytree(root, dest)
    return ArtifactCache(dest)


def _warm(cache):
    return ExperimentRunner(scale=SCALE, seed=SEED, cache=cache)


# ----------------------------------------------------------------------
# Warm runs serve stored results
# ----------------------------------------------------------------------
def test_warm_serial_runner_simulates_nothing(cold, sim_calls):
    root, _runner, snaps = cold
    warm = _warm(ArtifactCache(root))
    results = warm.run_cells(CELLS)
    assert sim_calls == []
    assert {(k.workload, k.config): m.snapshot()
            for k, m in results.items()} == snaps
    assert warm.cache.stats["metrics.hit"] == len(CELLS)
    assert warm.cache.stores() == 0


def test_warm_parallel_runner_plans_no_jobs(cold, tmp_path):
    root, _runner, snaps = cold
    ledger = tmp_path / "warm.jsonl"
    warm = ExperimentRunner(scale=SCALE, seed=SEED,
                            cache=ArtifactCache(root), workers=2,
                            ledger_path=str(ledger))
    results = warm.run_cells(CELLS)
    assert {(k.workload, k.config): m.snapshot()
            for k, m in results.items()} == snaps
    events = read_events(str(ledger))
    assert not [e for e in events if e["event"] == "scheduled"]
    (served,) = [e for e in events if e["event"] == "served_cached"]
    assert served["cells"] == len(CELLS)


def test_restored_profiles_rank_like_live_ones(cold, tmp_path, sim_calls):
    """Derivations recomputed from restored Base/BCoh_RelUp profiles
    pick the same update core and hot spots as from live ones, so the
    cells built on them are unchanged."""
    root, runner, snaps = cold
    cache = _copy_cache(root, tmp_path)
    for w in WORKLOAD_ORDER:
        lead = standard_configs()["BCPref"].hotspot_lead_records
        for path in (
                cache._path(runner._key("update", w), "json"),
                cache._path(runner._key("hotspots", w,
                                        count=NUM_HOTSPOTS), "json"),
                cache._path(runner._key("prefetched", w, count=NUM_HOTSPOTS,
                                        lead=lead), "npz"),
                cache._path(runner._result_key(
                    SimKey.of(w, "BCPref", BASE_MACHINE)), "json")):
            os.unlink(path)
    warm = _warm(cache)
    for w in WORKLOAD_ORDER:
        assert warm.update_selection(w) == runner.update_selection(w), w
        assert warm.hotspots(w) == runner.hotspots(w), w
        for config in ("BCoh_RelUp", "BCPref"):
            assert warm.run(w, config).snapshot() == snaps[(w, config)]
    # Only the BCPref cells re-simulated; the profiles came from disk.
    assert sim_calls == ["BCPref"] * len(WORKLOAD_ORDER)


def test_stored_payload_keeps_counter_insertion_order(cold):
    root, runner, _snaps = cold
    live = runner.run("TRFD+Make", "Base")
    key = runner._result_key(SimKey.of("TRFD+Make", "Base", BASE_MACHINE))
    with open(runner.cache._path(key, "json")) as fp:
        payload = json.load(fp)["payload"]
    assert list(payload["os_miss_pc"]) == [str(pc) for pc in live.os_miss_pc]
    assert list(payload["os_miss_pc"]) != sorted(payload["os_miss_pc"])
    restored = SystemMetrics.from_snapshot(payload)
    assert list(restored.os_miss_pc.items()) == list(live.os_miss_pc.items())
    assert restored.snapshot() == live.snapshot()


# ----------------------------------------------------------------------
# Verified restores
# ----------------------------------------------------------------------
def test_bumped_bus_traffic_is_quarantined_and_resimulated(cold, tmp_path,
                                                           sim_calls):
    root, runner, snaps = cold
    cache = _copy_cache(root, tmp_path)
    key = runner._result_key(SimKey.of("Shell", "Base", BASE_MACHINE))
    payload = cache.load_json(key, "metrics")
    kind = next(iter(payload["bus_traffic"]))
    payload["bus_traffic"][kind] += 1
    os.unlink(cache._path(key, "json"))
    cache.store_json(key, payload, "metrics")  # well-shaped, fresh sidecar

    warm = _warm(ArtifactCache(cache.root))
    assert warm.run("Shell", "Base").snapshot() == snaps[("Shell", "Base")]
    assert sim_calls == ["Base"]
    assert warm.cache.stats["metrics.quarantine"] == 1
    assert os.path.exists(cache._path(key, "json") + ".quarantined")
    # The re-simulated result replaced the bad entry.
    assert _warm(ArtifactCache(cache.root)).stored_result(
        SimKey.of("Shell", "Base", BASE_MACHINE)).snapshot() == \
        snaps[("Shell", "Base")]


def test_result_breaking_an_identity_is_not_stored(tmp_path, monkeypatch):
    """A live result that fails verify() is returned with a warning but
    never stored, so no warm run is served (or quarantines) it."""
    real = runner_mod.simulate

    def skewed(trace, config, **kwargs):
        metrics = real(trace, config, **kwargs)
        metrics.bus_busy_cycles += 1
        return metrics

    monkeypatch.setattr(runner_mod, "simulate", skewed)
    runner = ExperimentRunner(scale=SCALE, seed=SEED,
                              cache=ArtifactCache(tmp_path))
    with pytest.warns(RuntimeWarning, match="bus_traffic"):
        runner.run("Shell", "Base")
    assert runner.stored_result(
        SimKey.of("Shell", "Base", BASE_MACHINE)) is None
    assert runner.cache.stats["metrics.quarantine"] == 0


def _break(snap, identity):
    """Return *snap* with *identity* broken by a one-count edit."""
    if identity == "os_hotspot_misses":
        snap[identity] = snap["read_misses"][str(Mode.OS)] + 1
    elif identity == "bus_busy_cycles":
        snap["makespan"] = snap["bus_busy_cycles"] - 1
    elif identity == "read_misses[USER]":
        user = str(Mode.USER)
        snap["read_misses"][user] = snap["reads"][user] + 1
    else:  # a summed counter: bump its first entry
        counts = snap[identity]
        counts[next(iter(counts))] += 1
    return snap


@pytest.mark.parametrize("identity", [
    "bus_traffic", "os_miss_kind", "os_miss_dclass", "os_hotspot_misses",
    "bus_busy_cycles", "read_misses[USER]"])
def test_verify_rejects_each_broken_identity(cold, identity):
    _root, runner, _snaps = cold
    snap = runner.run("TRFD_4", "BCPref").snapshot()
    SystemMetrics.from_snapshot(snap).verify()  # intact: passes
    broken = SystemMetrics.from_snapshot(_break(snap, identity))
    with pytest.raises(AccountingError) as excinfo:
        broken.verify()
    assert excinfo.value.identity == identity


def test_live_results_satisfy_identities(cold):
    _root, runner, _snaps = cold
    for (w, c, _m) in CELLS:
        runner.run(w, c).verify()
    SystemMetrics(4).verify()  # an empty run is trivially consistent


@pytest.mark.parametrize("scheduler", ["run", "run_scan"])
def test_live_run_verifies_its_metrics(scheduler):
    """Every live run checks the identities after finalize: metrics
    skewed before the run ends raise instead of being returned."""
    from repro.sim.system import MultiprocessorSystem
    from repro.synthetic.workloads import generate
    trace = generate("Shell", seed=SEED, scale=SCALE)
    config = standard_configs()["Base"]
    getattr(MultiprocessorSystem(trace, config), scheduler)().verify()
    skewed = MultiprocessorSystem(trace, config)
    skewed.metrics.os_hotspot_misses = 10 ** 9
    with pytest.raises(AccountingError) as excinfo:
        getattr(skewed, scheduler)()
    assert excinfo.value.identity == "os_hotspot_misses"


@pytest.mark.parametrize("cpus,assoc,bus", [(8, 2, 16), (32, 4, 32)])
def test_wide_machines_satisfy_identities(cpus, assoc, bus):
    runner = ExperimentRunner(scale=0.02, seed=SEED,
                              machine=machine_for(cpus, assoc=assoc,
                                                  bus_width_bytes=bus))
    workload = f"gen:server:c{cpus}:i060:steady:0:0"
    for config in ("Base", "Blk_Dma"):
        runner.run(workload, config).verify()


# ----------------------------------------------------------------------
# Cycle conservation: holds except on the prefetching block-op schemes
# ----------------------------------------------------------------------
CONSERVING = [c for c in LADDER if c not in ("Blk_Pref", "Blk_ByPref")]


def test_cycle_conservation_holds(cold):
    _root, runner, _snaps = cold
    for w in WORKLOAD_ORDER:
        for c in CONSERVING:
            m = runner.run(w, c)
            assert sum(m.cpu_end_times) == m.total_cpu_cycles, (w, c)


@pytest.mark.xfail(strict=True, reason=(
    "open defect: Blk_Pref and Blk_ByPref attribute more cycles than "
    "their CPUs run (TRFD_4/Blk_Pref at scale 0.05: end times sum to "
    "766,221, attributed cycles 767,957); not in SystemMetrics.verify()"))
@pytest.mark.parametrize("config", ["Blk_Pref", "Blk_ByPref"])
def test_cycle_conservation_prefetching_block_schemes(cold, config):
    _root, runner, _snaps = cold
    for w in WORKLOAD_ORDER:
        m = runner.run(w, config)
        assert sum(m.cpu_end_times) == m.total_cpu_cycles, w
