import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

# a stand-in for perfbench/run.py: every metric reads BASE + seed / 100, the
# run with seed FAIL exits 3 and the run with seed HANG sleeps for a minute
FAKE_RUN = """
import argparse, json, sys, time
from pathlib import Path

BASE, FAIL, HANG = {base}, {fail}, {hang}
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace", "--out"):
    parser.add_argument(flag)
args = parser.parse_args()
Path(__file__).with_name("ran").touch()
if int(args.seed) == FAIL:
    print("traceback line", file=sys.stderr)
    sys.exit(3)
if int(args.seed) == HANG:
    print("started", file=sys.stderr, flush=True)
    time.sleep(60)
value = BASE + int(args.seed) / 100
names = ("wall_s", "item_s.p50", "item_s.p90", "setup_s", "peak_rss_mb")
out = Path(args.out)
out.mkdir(parents=True)
(out / "result.json").write_text(json.dumps({{
    "item_seeds": [1, 2], "item_s": [value, value], "failed_frac": 0.0,
    "quality": {{}}, "machine": {{"cpu": "fake"}},
}}))
print(json.dumps({{"correct": True, "attempted": 2, "failed": 0,
                  "metrics": {{k: {{"value": value, "unit": "s"}} for k in names}}}}))
"""


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_tree(root: Path, base: float, fail: int | None, hang: int | None = None,
              run_seconds: float = 1) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": run_seconds}))
    (root / "perfbench" / "run.py").write_text(FAKE_RUN.format(base=base, fail=fail, hang=hang))
    return root


def test_failed_run_is_recorded_and_the_pairs_go_on(tmp_path, bench_pairs):
    parent = fake_tree(tmp_path / "parent", 2.0, None)
    change = fake_tree(tmp_path / "change", 1.0, 11)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([
        "--parent", str(parent), "--change", str(change), "--pairs", "4",
        "--workload", "w:10", "--claim", "w:setup_s", "--out", str(out),
    ]) == 0
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert entry["failed_runs"]["parent"] == []
    (failed,) = entry["failed_runs"]["change"]
    assert failed["pair"] == 1 and failed["exit_code"] == 3
    assert failed["stderr_tail"] == ["traceback line"]
    assert entry["correct"] == {"parent": True, "change": False}
    assert entry["failed_frac"]["change"] == 1.0
    setup = entry["metrics"]["setup_s"]
    assert setup["change_wins"] == 3 and len(setup["change"]["runs"]) == 3
    assert entry["item_ratios"]["per_pair"][1] == [] and entry["item_ratios"]["n"] == 6
    claim = json.loads(out.read_text())["claim"]
    assert claim["change_wins"] == 3 and not claim["met"]


def test_claim_on_a_workload_not_run_fails_before_any_run(tmp_path, bench_pairs, capsys):
    parent = fake_tree(tmp_path / "parent", 2.0, None)
    change = fake_tree(tmp_path / "change", 1.0, None)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([
            "--parent", str(parent), "--change", str(change), "--workload", "w:10",
            "--claim", "other:setup_s", "--out", str(tmp_path / "bench.json"),
        ])
    assert exc.value.code == 2
    assert "no --workload runs other" in capsys.readouterr().err
    assert not (parent / "perfbench" / "ran").exists()
    assert not (change / "perfbench" / "ran").exists()


def test_hung_run_times_out_and_the_pairs_go_on(tmp_path, bench_pairs):
    # run_seconds 0.2 gives each run 2 s before it is stopped
    parent = fake_tree(tmp_path / "parent", 2.0, None, hang=10, run_seconds=0.2)
    change = fake_tree(tmp_path / "change", 1.0, None, run_seconds=0.2)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([
        "--parent", str(parent), "--change", str(change), "--pairs", "3",
        "--workload", "w:10", "--out", str(out),
    ]) == 0
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert entry["failed_runs"]["change"] == []
    (failed,) = entry["failed_runs"]["parent"]
    assert failed["pair"] == 0 and failed["exit_code"] is None
    assert failed["stderr_tail"] == ["started", "timed out after 2 s"]
    assert entry["correct"] == {"parent": False, "change": True}
    assert len(entry["metrics"]["wall_s"]["parent"]["runs"]) == 2
