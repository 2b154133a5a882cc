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
as long as the benchmark runs them. Every
end-to-end metric gets both sides' runs, median, quartiles, IQR, the number
of pairs the change won and the relative change of the median; the quality
numbers and failed fraction come from each run's `result.json`.

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
parent's IQR. `--traced NAME:SEED` adds one `--trace 1` run per tree with its
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


def run_once(tree: Path, workload: str, seed: int, seconds: float, workdir: Path,
             trace: int = 0) -> dict:
    """One perfbench run in `tree`; its metrics and what its result.json says."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(workdir)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
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


def spread(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": runs}


def item_ratios(runs: dict[str, list[dict]]) -> dict:
    """Change over parent item time per item seed, pooled over the pairs, with their spread."""
    per_pair = []
    for parent, change in zip(runs["parent"], runs["change"]):
        if parent["item_seeds"] != change["item_seeds"]:
            raise ValueError("the two runs of a pair timed different item seeds")
        per_pair.append([c / p for p, c in zip(parent["item_s"], change["item_s"])])
    pooled = [r for ratios in per_pair for r in ratios]
    return {"what": "change item_s / parent item_s at the same item seed", "n": len(pooled),
            **{k: v for k, v in spread(pooled).items() if k != "runs"}, "per_pair": per_pair}


def summarize(runs: dict[str, list[dict]]) -> dict:
    metrics = {}
    for name in METRICS:
        sides = {s: [r["metrics"][name] for r in runs[s]] for s in SIDES}
        entry = {s: spread(sides[s]) for s in SIDES}
        entry["change_wins"] = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        entry["median_change_frac"] = entry["change"]["median"] / entry["parent"]["median"] - 1.0
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
        "quality": quality,
    }


def claim(workloads: dict, workload: str, metric: str) -> dict:
    entry = workloads[workload]["metrics"][metric]
    pairs = workloads[workload]["pairs"]
    diff = entry["parent"]["median"] - entry["change"]["median"]
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
        "parent_iqr": entry["parent"]["iqr"],
        "met": entry["change_wins"] >= 0.9 * pairs and diff > entry["parent"]["iqr"],
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
            runs[side].append(run_once(trees[side], name, seed, seconds, workdir))
            print(f"{name} seed {seed} {side}: wall_s "
                  f"{runs[side][-1]['metrics']['wall_s']:.3f}", file=sys.stderr)
    return {"seeds": seeds, "first": order, "pairs": pairs, "machine": runs["parent"][0]["machine"],
            **summarize(runs)}


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
            report.setdefault("machine", entry.pop("machine"))
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
