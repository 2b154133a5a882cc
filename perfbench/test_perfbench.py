"""The benchmark's own tests: every workload at a tiny size, in both modes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(tmp_path: Path, workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
           "--out", str(tmp_path / "out")]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return result


def assert_named_with_units(metrics: dict, spec: list[dict]):
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(tmp_path, workload):
    result = last_json(bench(tmp_path, workload, 0))
    assert_named_with_units(result["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload != "oracle_toy":  # a tiny particle count cannot meet the TV threshold
        assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_spans_nest(tmp_path, workload):
    result = last_json(bench(tmp_path, workload, 1))
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert_named_with_units(result["metrics"], SPEC["per_layer"])

    records = [json.loads(line) for line in (tmp_path / "out" / "spans.jsonl").open()]
    spans = [r for r in records if "id" in r]
    counted = [r for r in records if "counted" in r]
    assert spans
    for s in spans:
        assert s["end"] >= s["start"]
        assert s["end"] - s["start"] - s["covered"] >= -1e-9
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert parent["item"] == s["item"]
    assert all(c["self"] >= -1e-9 and c["busy"] >= c["self"] - 1e-9 for c in counted)

    # layer self times plus the unattributed remainder add up to the traced wall time
    parts = sum(v for k, v in metrics.items() if k.startswith("selftime."))
    assert parts == pytest.approx(metrics["trace.wall_s"], rel=1e-6, abs=1e-6)
    assert all(v >= -1e-9 for k, v in metrics.items() if k.startswith("selftime."))


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(tmp_path, WORKLOADS[0], 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
