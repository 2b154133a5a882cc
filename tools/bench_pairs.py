"""Paired benchmark runs of two source trees, written as a BENCH_<n>.json file.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10 \
        --workload oracle_toy:15301 --workload desk_mc:15201 \
        --workload scenario1_cli:15101 --claim oracle_toy:wall_s --aa desk_mc:15401 \
        --note "what the change does" --attach inprocess=probe.json --out BENCH_15.json

Each tree is the root of a checkout (a copy of the committed files). For
each workload `NAME:SEED`, pair i runs `perfbench/run.py --workload NAME
--seed SEED+i --seconds S --trace 0` once in each tree, one run at a time:
even pairs run the parent first, odd pairs the change first. The run length S
is the `run_seconds` of the parent tree's BENCHMARK.json, so both trees run
as long as the benchmark runs them, and a run still going after 10 S (a
hung run) is stopped and reported as failed. Every
end-to-end metric gets both sides' runs, median, quartiles, IQR, the number
of pairs the change won and the relative change of the median; the quality
numbers and failed fraction come from each run's `result.json`. A run that
exits non-zero or times out does not stop the other runs: it is reported under
`failed_runs` with its exit code (null for a timeout) and the tail of its
standard error, counts against `correct`, and wins no pair.

The same item seeds run on both trees, so each workload also gets the paired
per-item ratios: for every item of every pair, the change's item time over
the parent's at the same item seed (`item_s` in `result.json`), with their
median and quartiles. A run-level metric compares medians against the
parent's spread between runs; the per-item ratios compare the same inputs
item by item, though a pair's two runs are still two processes, whose speeds
can differ. `--aa NAME:SEED` runs the same pairs with the parent tree
against a second copy of the parent tree (the "change" side of an `aa`
entry is that copy): identical code, so its ratios show the noise floor of
the per-item measure. These are reported next to the benchmark's run-level
rule, not in its place.

`--claim NAME:METRIC` adds the benchmark's gain rule for that metric: the
change wins at least 9 of 10 pairs, and the medians differ by more than the
parent's IQR; its workload must be one of the `--workload` entries, and this is
checked before the first run. `--traced NAME:SEED` adds one `--trace 1` run per tree with its
per-layer metrics. `--attach KEY=FILE` stores a JSON file (for example the
output of tools/backward_probe.py) under KEY.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("wall_s", "item_s.p50", "item_s.p90", "setup_s", "peak_rss_mb")  # all lower-is-better
SIDES = ("parent", "change")
STDERR_TAIL = 20  # lines of a failed run's standard error kept in the report


def run_once(tree: Path, workload: str, seed: int, seconds: float, workdir: Path,
             trace: int = 0) -> dict:
    """One perfbench run in `tree`; its metrics and what its result.json says.

    A run that exits non-zero or outlasts 10 times `seconds` is
    returned as failed, with its exit code (None when it timed out) and the
    tail of its standard error, no metrics and `correct` false.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(workdir)]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=10 * seconds)
    except subprocess.TimeoutExpired as exc:
        # the partial output of a timed-out run is bytes, even in text mode
        stderr = (exc.stderr or b"").decode(errors="replace").splitlines()
        return failed(None, stderr + [f"timed out after {exc.timeout:g} s"])
    if proc.returncode != 0:
        return failed(proc.returncode, proc.stderr.splitlines())
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((workdir / "result.json").read_text())
    return {
        "metrics": {k: m["value"] for k, m in summary["metrics"].items()},
        "item_seeds": result["item_seeds"],
        "item_s": result["item_s"],
        "correct": summary["correct"],
        "failed_frac": result["failed_frac"],
        "quality": result["quality"],
        "machine": result["machine"],
    }


def failed(exit_code: int | None, stderr: list[str]) -> dict:
    """A failed run's entry: no metrics, `correct` false, the tail of its standard error."""
    return {"metrics": {}, "item_seeds": [], "item_s": [], "correct": False,
            "failed_frac": 1.0, "quality": {}, "machine": None,
            "exit_code": exit_code, "stderr_tail": stderr[-STDERR_TAIL:]}


def spread(runs: list[float]) -> dict:
    """Median, quartiles and IQR of the runs; all None with fewer than two runs."""
    if len(runs) < 2:
        return {"median": None, "q1": None, "q3": None, "iqr": None, "runs": runs}
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": runs}


def item_ratios(runs: dict[str, list[dict]]) -> dict:
    """Change over parent item time per item seed, pooled over the pairs, with their spread.

    A pair with a failed run has no ratios.
    """
    per_pair = []
    for parent, change in zip(runs["parent"], runs["change"]):
        if "exit_code" in parent or "exit_code" in change:
            per_pair.append([])
            continue
        if parent["item_seeds"] != change["item_seeds"]:
            raise ValueError("the two runs of a pair timed different item seeds")
        per_pair.append([c / p for p, c in zip(parent["item_s"], change["item_s"])])
    pooled = [r for ratios in per_pair for r in ratios]
    return {"what": "change item_s / parent item_s at the same item seed", "n": len(pooled),
            **{k: v for k, v in spread(pooled).items() if k != "runs"}, "per_pair": per_pair}


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Per metric, each side's spread over its completed runs; a failed run wins no pair."""
    metrics = {}
    for name in METRICS:
        sides = {s: [r["metrics"][name] for r in runs[s] if name in r["metrics"]] for s in SIDES}
        entry = {s: spread(sides[s]) for s in SIDES}
        entry["change_wins"] = sum(
            name in p["metrics"] and name in c["metrics"] and c["metrics"][name] < p["metrics"][name]
            for p, c in zip(runs["parent"], runs["change"])
        )
        medians = [entry[s]["median"] for s in SIDES]
        entry["median_change_frac"] = (
            None if None in medians else medians[1] / medians[0] - 1.0
        )
        metrics[name] = entry
    quality = {}
    for s in SIDES:
        names = sorted({q for r in runs[s] for q in r["quality"]})
        quality[s] = {}
        for q in names:
            values = [r["quality"][q] for r in runs[s] if q in r["quality"]]
            quality[s][q] = {"median": statistics.median(values), "max": max(values),
                             "runs": values}
    return {
        "metrics": metrics,
        "item_ratios": item_ratios(runs),
        "failed_frac": {s: max(r["failed_frac"] for r in runs[s]) for s in SIDES},
        "correct": {s: all(r["correct"] for r in runs[s]) for s in SIDES},
        "failed_runs": {s: [{"pair": i, "exit_code": r["exit_code"], "stderr_tail": r["stderr_tail"]}
                            for i, r in enumerate(runs[s]) if "exit_code" in r] for s in SIDES},
        "quality": quality,
    }


def claim(workloads: dict, workload: str, metric: str) -> dict:
    entry = workloads[workload]["metrics"][metric]
    pairs = workloads[workload]["pairs"]
    parent, change = entry["parent"], entry["change"]
    diff = None
    if parent["median"] is not None and change["median"] is not None:
        diff = parent["median"] - change["median"]
    return {
        "workload": workload,
        "metric": metric,
        "better": "lower",
        "rule": "the change wins >= 9/10 pairs and the medians differ by more than the "
                "parent's IQR",
        "change_wins": entry["change_wins"],
        "pairs": pairs,
        "median_change_frac": entry["median_change_frac"],
        "median_diff": diff,
        "parent_iqr": parent["iqr"],
        "met": diff is not None and entry["change_wins"] >= 0.9 * pairs and diff > parent["iqr"],
    }


def paired(trees: dict[str, Path], spec: str, pairs: int, seconds: float,
           scratch: Path) -> dict:
    """`pairs` alternating runs of workload `NAME:SEED` in the two trees, summarized."""
    name, first_seed = spec.rsplit(":", 1)
    seeds = [int(first_seed) + i for i in range(pairs)]
    runs, order = {s: [] for s in SIDES}, []
    for i, seed in enumerate(seeds):
        sides = SIDES if i % 2 == 0 else SIDES[::-1]
        order.append(sides[0])
        for side in sides:
            workdir = scratch / f"{name}-{seed}-{side}"
            run = run_once(trees[side], name, seed, seconds, workdir)
            runs[side].append(run)
            status = (f"wall_s {run['metrics']['wall_s']:.3f}" if "exit_code" not in run
                      else "timed out" if run["exit_code"] is None
                      else f"failed with exit code {run['exit_code']}")
            print(f"{name} seed {seed} {side}: {status}", file=sys.stderr)
    machine = next((r["machine"] for r in runs["parent"] + runs["change"] if r["machine"]), None)
    return {"seeds": seeds, "first": order, "pairs": pairs, "machine": machine, **summarize(runs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", action="append", required=True, metavar="NAME:SEED")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", metavar="NAME:METRIC")
    parser.add_argument("--traced", action="append", default=[], metavar="NAME:SEED")
    parser.add_argument("--aa", action="append", default=[], metavar="NAME:SEED",
                        help="also pair the parent tree with a copy of itself")
    parser.add_argument("--note", default="", help="what the change does")
    parser.add_argument("--attach", action="append", default=[], metavar="KEY=FILE")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs per side")
    if args.claim:
        name, _, metric = args.claim.partition(":")
        if name not in {spec.rsplit(":", 1)[0] for spec in args.workload}:
            parser.error(f"--claim {args.claim}: no --workload runs {name}")
        if metric not in METRICS:
            parser.error(f"--claim {args.claim}: the metric must be one of {', '.join(METRICS)}")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = json.loads((trees["parent"] / "BENCHMARK.json").read_text())["run_seconds"]

    report = {
        "change": args.note,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{seconds:g} --trace 0",
        "order": "alternating: even pairs run the parent first, odd pairs the change first",
        "trees": "parent commit and change, each a separate copy of the committed files",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        for spec in args.workload:
            entry = paired(trees, spec, args.pairs, seconds, scratch)
            machine = entry.pop("machine")
            report["machine"] = report.get("machine") or machine
            report["workloads"][spec.rsplit(":", 1)[0]] = entry
        if args.aa:
            copy = scratch / "parent-copy"
            shutil.copytree(trees["parent"], copy, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
            aa_trees = {"parent": trees["parent"], "change": copy}
            report["aa"] = {"what": "the parent tree against a second copy of it: identical code"}
            for spec in args.aa:
                entry = paired(aa_trees, spec, args.pairs, seconds, scratch / "aa")
                del entry["machine"]
                report["aa"][spec.rsplit(":", 1)[0]] = entry
        for spec in args.traced:
            name, seed = spec.rsplit(":", 1)
            report.setdefault("traced", {})[name] = {
                "command": f"python3 perfbench/run.py --workload {name} --seed {seed} "
                           f"--seconds {seconds:g} --trace 1",
                **{side: run_once(trees[side], name, int(seed), seconds,
                                  scratch / f"{name}-{seed}-{side}-traced", trace=1)
                   for side in SIDES},
            }
    if args.claim:
        report["claim"] = claim(report["workloads"], *args.claim.split(":", 1))
    for spec in args.attach:
        key, path = spec.split("=", 1)
        report[key] = json.loads(Path(path).read_text())
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
