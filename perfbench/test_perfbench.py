"""Self-test of the benchmark: ``python -m pytest perfbench -q``.

At the ``--tiny`` size (fewest passes/cycles that still reach every
layer) each workload must print every metric ``BENCHMARK.json`` names,
with its unit, and check its outputs; a perturbed snapshot must count as
a failed operation; a directory without the program must fail cleanly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib as bl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0", "--seed", "5",
         *args], cwd=cwd, capture_output=True, text=True, timeout=300)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(workload, trace):
    result = result_line(run_bench("--workload", workload, "--tiny",
                                   "--trace", str(trace)))
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in group]
    for entry in group:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)
        if not trace:
            assert metric["value"] > 0, entry["name"]
    if trace:
        assert result["metrics"]["error_rate"]["value"] == 0.0
        assert result["metrics"]["bench.trace_overhead"]["value"] > 1.0


def test_perturbed_snapshot_counts_as_failure():
    key = bl.cell_key(bl.CALIBRATED_SEED, "Shell", "Blk_Dma")
    result = result_line(run_bench("--workload", "ladder_dm4", "--tiny",
                                   "--perturb", key))
    assert result["correct"] is False
    # The corrupted first result misses its pin, and the warm pass's
    # honest result then disagrees with the corrupted reference.
    assert result["failed"] >= 2


def test_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_percentile_leaves_ten_samples_beyond():
    assert bl.tail_percentile(20) == 50
    assert bl.tail_percentile(40) == 75
    assert bl.tail_percentile(144) == 90
    assert bl.tail_percentile(1000) == 99
    value, record = bl.tail([float(i) for i in range(1, 101)], 100)
    assert (value, record["percentile"], record["beyond"]) == (90.0, 90, 10)


def test_cell_book_flags_mismatches():
    ops = bl.Ops()
    book = bl.CellBook(ops, {"k": bl.digest({"a": 1})})
    book.record(ops.start("first"), "k", {"a": 1})
    book.record(ops.start("repeat"), "k", {"a": 2})
    book.record(ops.start("other"), "j", {"a": 1})
    book.check_differs(ops.start("step"), "k", "j")
    assert [op.ok for op in ops.ops] == [True, False, True, False]
