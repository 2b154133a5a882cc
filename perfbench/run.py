"""trajsmooth benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload desk_mc --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from `src/`. A run
prepares its items (set-up), then runs a fixed number of items back to back,
about `--seconds` worth at the baseline speed. The last item repeats the
first with the same seed and must write byte-identical artifacts.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs every item twice,
untraced and then traced, and prints the per-layer metrics; spans go to
`perfbench/out/<run>/spans.jsonl`. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# one process, serial items, single-threaded BLAS/OpenMP
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "item_s.p50": "s",
    "item_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
QUALITY_UNITS = {"filter_gospa": "gospa", "smoothed_gospa": "gospa", "tv_oracle": "prob", "item_tv": "prob"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every item; used by the benchmark's own tests")
    parser.add_argument("--out", default=None,
                        help="work directory, emptied first (default perfbench/out/<run>)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {k: os.environ.get(k) for k in (*PINNED_ENV, "TRAJSMOOTH_WORKERS")},
    }


def measure_setup(argv: list[str], workdir: Path) -> float:
    """Median wall time of fresh processes that import trajsmooth and prepare the inputs."""
    times = []
    for r in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "run.py"), *argv, "--setup-only",
               "--out", str(workdir / f"setup{r}")]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        shutil.rmtree(workdir / f"setup{r}")
    return statistics.median(times)


def run_item(workload, item, outdir: Path):
    from workloads import Outcome

    outdir.mkdir(parents=True)
    start = time.perf_counter()
    try:
        outcome = workload.run(item, outdir)
    except Exception:  # an item that raises is counted as failed; the loop goes on
        traceback.print_exc()
        outcome = Outcome("raised", {}, lambda: {})
    return outcome, time.perf_counter() - start


def layer_probe(tracer, seed: int, workdir: Path) -> None:
    """Traced tiny pipeline plus tiny oracle toy, so that every layer runs at least once.

    A layer the workload never calls would otherwise report a time of exactly
    0 on every run. The probe adds a small cost of about the same size to
    every traced run; its spans carry item id -1.
    """
    from workloads import OracleToy, Scenario1CLI

    workdir.mkdir()
    for cls in (Scenario1CLI, OracleToy):
        probe = cls(ROOT, cls.sizes["tiny"])
        (item,) = probe.prepare([seed], workdir)
        with tracer.installed(), tracer.item(-1):
            run_item(probe, item, workdir / cls.name)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "trajsmooth" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no trajsmooth sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    os.environ.pop("TRAJSMOOTH_WORKERS", None)
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS, item_seeds

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    size = cls.sizes[args.size]
    workload = cls(ROOT, size)
    count = max(2, round(args.seconds / size["nominal_s"]))
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    workdir = Path(args.out) if args.out else HERE / "out" / run_name
    if args.setup_only:
        workdir.mkdir(parents=True)
        workload.prepare(item_seeds(args.workload, args.seed, count), workdir)
        return 0

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_argv = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--size", args.size]
    setup_s = measure_setup(setup_argv, workdir)
    items = workload.prepare(item_seeds(args.workload, args.seed, count), workdir)

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    # artifacts must repeat exactly: a traced item must write what its
    # untraced twin wrote, and the last item, which re-runs the first, must
    # write what the first wrote. Only the first item's artifacts are kept.
    def differ(a, b) -> bool:
        return a.problem is None and b.problem is None and a.artifacts() != b.artifacts()

    plain, plain_s, traced, traced_s = [], [], [], []
    for item in items:
        outcome, seconds = run_item(workload, item, workdir / f"item{item.index}")
        plain.append(outcome)
        plain_s.append(seconds)
        if args.trace:
            with tracer.installed(), tracer.item(item.index):
                twin, seconds = run_item(workload, item, workdir / f"item{item.index}-traced")
            if differ(outcome, twin):
                twin.problem = "traced item wrote different artifacts"
            twin.artifacts = None
            traced.append(twin)
            traced_s.append(seconds)
        if item is items[-1] and differ(plain[0], outcome):
            outcome.problem = "repeated item wrote different artifacts"
        if item is not items[0]:
            outcome.artifacts = None

    executed = plain + traced
    distinct = [o for o in plain[:-1] if o.problem is None]
    quality, run_problem = workload.summarize(distinct) if distinct else ({}, "no item passed")
    if run_problem:  # a run-level check covers, and so fails, every item
        for outcome in executed:
            outcome.problem = outcome.problem or run_problem
    for outcome in executed:
        if outcome.problem:
            print(f"failed item: {outcome.problem}", file=sys.stderr)
    failed = sum(o.problem is not None for o in executed)

    if args.trace:
        layer_probe(tracer, args.seed, workdir / "probe")
        values = tracer.layer_metrics()
        values["cli.bytes_written"] = sum(o.bytes_written for o in traced)
        values["trace.overhead_s"] = sum(traced_s) - sum(plain_s)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        tracer.write(workdir / "spans.jsonl")
    else:
        values = {
            "wall_s": sum(plain_s),
            "item_s.p50": statistics.median(plain_s),
            "item_s.p90": statistics.quantiles(plain_s, n=10, method="inclusive")[8],
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "items": len(items),
        "item_seeds": [it.seed for it in items],
        "item_s": plain_s,
        "item_quality": [o.quality for o in plain],
        "failed_frac": failed / len(executed),
        "quality": quality,
        "machine": machine_info(),
        "metrics": metrics,
    }
    (workdir / "result.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"# {args.workload} seed={args.seed} items={len(items)} "
          f"(item_s samples={len(plain_s)}) machine={json.dumps(report['machine'])}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, value in quality.items():
        print(f"{name} {value:.6g} {QUALITY_UNITS[name]}")
    print(f"failed_frac {report['failed_frac']:.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": len(executed),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
