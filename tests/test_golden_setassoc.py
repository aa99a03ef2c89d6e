"""Golden digests for the set-associative machines.

The paper's machine is direct-mapped, and its goldens
(``test_golden_targets.py``, ``test_golden_profiles.py``,
``test_golden_hybrids.py``) never reach the set-associative code: the
resident-line maps, LRU stamps and victim choice in
``repro.memsys.cache``, the inline set-associative L1 hits in
``Processor.step``, and the map-based snoop in the coherence controller.
These pins cover that code with the full ``SystemMetrics.snapshot()`` of
a small cell set, every cell run through ``ExperimentRunner`` so the
derived schemes profile and derive on the same machine:

* 4 CPUs, 2-way, ``Shell``: Base, Blk_Pref, Blk_Bypass, BCoh_RelUp,
  BCPref and the Hyb_UpdN hybrid;
* 8 CPUs, 2-way, 16-byte bus, the 8-CPU server workload: Base,
  Blk_Bypass, BCoh_RelUp;
* 16 CPUs, 4-way, 32-byte bus, the 16-CPU server workload: Base and
  the Hyb_Deg@T4 hybrid.

Any change in a digest is a behaviour change.  If a change is *supposed*
to alter them, rerun the recording snippet and update GOLDEN in the same
commit, explaining why::

    PYTHONPATH=src python - <<'EOF'
    import tests.test_golden_setassoc as g
    for machine, workload, scale, configs in g.CELLS:
        for config in configs:
            m = g._runner(machine, scale).run(workload, config)
            print(machine, config, g.digest(m.snapshot()))
    EOF
"""

import hashlib
import json
from functools import lru_cache

import pytest

from repro.common import types
from repro.common.params import machine_for
from repro.experiments.runner import ExperimentRunner

SEED = 1996

#: ((cpus, assoc, bus bytes), workload, scale, configs)
CELLS = [
    ((4, 2, None), "Shell", 0.05,
     ["Base", "Blk_Pref", "Blk_Bypass", "BCoh_RelUp", "BCPref", "Hyb_UpdN"]),
    ((8, 2, 16), "gen:server:c8:i060:steady:0:0", 0.05,
     ["Base", "Blk_Bypass", "BCoh_RelUp"]),
    ((16, 4, 32), "gen:server:c16:i060:steady:0:0", 0.03,
     ["Base", "Hyb_Deg@T4"]),
]

#: ``digest(snapshot)`` per (machine, config), recorded at SEED.
GOLDEN = {
    ((4, 2, None), "Base"): "c580fb4dc59a9246b5ec3f42",
    ((4, 2, None), "Blk_Pref"): "cadd3e84bc84f03cde46538f",
    ((4, 2, None), "Blk_Bypass"): "e202bd54d17f4291d226dd94",
    ((4, 2, None), "BCoh_RelUp"): "1651630faf82e1f1883b9fe5",
    ((4, 2, None), "BCPref"): "c4e3088fa56571c90648ff80",
    ((4, 2, None), "Hyb_UpdN"): "049e95adc0fb44aac4e64632",
    ((8, 2, 16), "Base"): "adbb7b9daa704e70cdb010c4",
    ((8, 2, 16), "Blk_Bypass"): "31839c73238f1c12cf3fe842",
    ((8, 2, 16), "BCoh_RelUp"): "a46e7fe76b58f091e7251801",
    ((16, 4, 32), "Base"): "3bf2c87042a75effc49018f5",
    ((16, 4, 32), "Hyb_Deg@T4"): "febf2efb0830fe5d7acdfc44",
}


def _canonical_key(key: str) -> str:
    """An enum-keyed counter's key as its value.

    ``snapshot()`` keys counters by ``str(member)``, which is the
    member's value from Python 3.11 on but ``Class.NAME`` before it.
    """
    cls, _, name = key.partition(".")
    enum_cls = getattr(types, cls, None) if name else None
    return str(int(enum_cls[name])) if enum_cls is not None else key


def _canonical(obj):
    if isinstance(obj, dict):
        return {_canonical_key(str(k)): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_canonical(v) for v in obj]
    return obj


def digest(snapshot: dict) -> str:
    """Content digest of one ``SystemMetrics.snapshot()``."""
    blob = json.dumps(_canonical(snapshot), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


@lru_cache(maxsize=None)
def _runner(machine, scale):
    """One runner per machine, so its cells share trace and derivations."""
    cpus, assoc, bus = machine
    return ExperimentRunner(
        scale=scale, seed=SEED,
        machine=machine_for(cpus, assoc=assoc, bus_width_bytes=bus))


@pytest.mark.parametrize("machine,workload,scale,config", [
    (machine, workload, scale, config)
    for machine, workload, scale, configs in CELLS for config in configs])
def test_setassoc_snapshot_pinned(machine, workload, scale, config):
    metrics = _runner(machine, scale).run(workload, config)
    assert digest(metrics.snapshot()) == GOLDEN[(machine, config)], (
        f"{machine}/{workload}/{config}: snapshot drifted "
        f"(makespan {metrics.makespan})")


def test_canonical_key_is_python_version_independent():
    assert _canonical_key("Mode.OS") == str(int(types.Mode.OS))
    assert _canonical_key(str(types.Mode.OS)) == str(int(types.Mode.OS))
    assert _canonical_key("read_mem") == "read_mem"
