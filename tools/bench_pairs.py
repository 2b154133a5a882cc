"""Paired benchmark runs of two source trees, written as a BENCH_<n>.json file.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10 \
        --workload oracle_toy:15301 --workload desk_mc:15201 \
        --workload scenario1_cli:15101 --claim oracle_toy:wall_s \
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

`--claim NAME:METRIC` adds the benchmark's gain rule for that metric: the
change wins at least 9 of 10 pairs, and the medians differ by more than the
parent's IQR. `--traced NAME:SEED` adds one `--trace 1` run per tree with its
per-layer metrics. `--attach KEY=FILE` stores a JSON file (for example the
output of tools/backward_probe.py) under KEY.
"""

import argparse
import json
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
        "correct": summary["correct"],
        "failed_frac": result["failed_frac"],
        "quality": result["quality"],
        "machine": result["machine"],
    }


def spread(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": runs}


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", action="append", required=True, metavar="NAME:SEED")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", metavar="NAME:METRIC")
    parser.add_argument("--traced", action="append", default=[], metavar="NAME:SEED")
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
        for spec in args.workload:
            name, first_seed = spec.rsplit(":", 1)
            seeds = [int(first_seed) + i for i in range(args.pairs)]
            runs, order = {s: [] for s in SIDES}, []
            for i, seed in enumerate(seeds):
                sides = SIDES if i % 2 == 0 else SIDES[::-1]
                order.append(sides[0])
                for side in sides:
                    workdir = Path(scratch) / f"{name}-{seed}-{side}"
                    runs[side].append(run_once(trees[side], name, seed, seconds, workdir))
                    print(f"{name} seed {seed} {side}: wall_s "
                          f"{runs[side][-1]['metrics']['wall_s']:.3f}", file=sys.stderr)
            report.setdefault("machine", runs["parent"][0]["machine"])
            report["workloads"][name] = {
                "seeds": seeds, "first": order, "pairs": args.pairs, **summarize(runs),
            }
        for spec in args.traced:
            name, seed = spec.rsplit(":", 1)
            report.setdefault("traced", {})[name] = {
                "command": f"python3 perfbench/run.py --workload {name} --seed {seed} "
                           f"--seconds {seconds:g} --trace 1",
                **{side: run_once(trees[side], name, int(seed), seconds,
                                  Path(scratch) / f"{name}-{seed}-{side}-traced", trace=1)
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
