"""Throughput benchmarks of the library itself.

Unlike the table/figure benches (which regenerate paper artifacts), these
measure the engineering-side costs a user plans around: trace generation
rate, simulation rate, trace transformation, and (de)serialization.
They use multiple benchmark rounds, so their timings are meaningful for
regression tracking.
"""

import pytest

from repro.experiments.artifacts import ArtifactCache
from repro.experiments.runner import ExperimentRunner
from repro.optim.privatize import privatize_and_relocate
from repro.sim.config import standard_configs
from repro.sim.system import simulate
from repro.synthetic.workloads import generate
from repro.trace import npzio, textio

SCALE = 0.1


@pytest.fixture(scope="module")
def shell_trace():
    return generate("Shell", seed=1996, scale=SCALE)


def test_throughput_generation(benchmark):
    trace = benchmark.pedantic(generate, args=("Shell",),
                               kwargs={"seed": 1996, "scale": SCALE},
                               rounds=3, iterations=1)
    assert len(trace) > 1000
    benchmark.extra_info["records"] = len(trace)


def test_throughput_simulation_base(benchmark, shell_trace):
    config = standard_configs()["Base"]
    metrics = benchmark.pedantic(simulate, args=(shell_trace, config),
                                 rounds=3, iterations=1)
    assert metrics.makespan > 0
    benchmark.extra_info["records"] = len(shell_trace)


def test_throughput_simulation_dma(benchmark, shell_trace):
    config = standard_configs()["Blk_Dma"]
    metrics = benchmark.pedantic(simulate, args=(shell_trace, config),
                                 rounds=3, iterations=1)
    assert metrics.dma_ops > 0


def test_throughput_privatize_transform(benchmark, shell_trace):
    out = benchmark.pedantic(privatize_and_relocate, args=(shell_trace, 4),
                             rounds=3, iterations=1)
    assert len(out) >= len(shell_trace)


def test_throughput_npz_roundtrip(benchmark, shell_trace, tmp_path):
    path = str(tmp_path / "t.npz")

    def roundtrip():
        npzio.save(shell_trace, path)
        return npzio.load(path)

    restored = benchmark.pedantic(roundtrip, rounds=3, iterations=1)
    assert len(restored) == len(shell_trace)


def test_throughput_text_serialize(benchmark, shell_trace):
    text = benchmark.pedantic(textio.dumps, args=(shell_trace,),
                              rounds=3, iterations=1)
    assert text.startswith("reprotrace v1")


def test_throughput_warm_artifact_cache(benchmark, tmp_path_factory):
    """Warm-cache rerun of a fully derived cell.

    The cold pass (outside the timer) populates the on-disk artifact
    cache with the trace, all four derived artifacts and the cell's
    simulation result; the measured warm passes must serve the result
    from disk — zero recomputes, no simulation.
    """
    cache_dir = tmp_path_factory.mktemp("bench-artifact-cache")
    cold = ExperimentRunner(scale=SCALE, seed=1996,
                            cache=ArtifactCache(cache_dir))
    cold.run("Shell", "BCPref")

    def warm_run():
        cache = ArtifactCache(cache_dir)
        runner = ExperimentRunner(scale=SCALE, seed=1996, cache=cache)
        return cache, runner.run("Shell", "BCPref")

    cache, metrics = benchmark.pedantic(warm_run, rounds=3, iterations=1)
    assert metrics.prefetches_issued > 0
    # Generation, derivation and simulation were all skipped.
    assert cache.stats["metrics.hit"] == 1
    recomputed = {event: count for event, count in cache.stats.items()
                  if event.endswith((".miss", ".store", ".corrupt")) and count}
    assert not recomputed, recomputed
    benchmark.extra_info["cache_hits"] = cache.hits()
