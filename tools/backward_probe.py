"""In-process timings of `backward_simulate` on one source tree, printed as one JSON object.

    python3 tools/backward_probe.py --tree . --toy-seeds 8 --desk-k 40 160 640

`--tree` is the root of a checkout; trajsmooth is imported from its `src/`.
Run it once per tree to compare two trees on the same machine. Two probes:

- toy: the criterion-04 toy (perfbench's `criterion04_toy`) at 1e4
  sampled-head particles, m_best 64, no gate, one run per seed. Per run:
  the whole call plus one pass over every particle's trajectories
  (`total_s`, what a caller pays to read every particle), the time inside
  each backward section the tree has: kernels (`_kernels`), tables
  (`_component_tables`, the per-component draw tables), draws
  (`_sample_set`), assembly (`_next_sets`) and materialisation
  (`ParticleSet._particles`, which builds the objects on read), the number
  of calls of each section (`tables_calls` counts the table builds), and
  `retained_mb`, the traced bytes (tracemalloc) that the returned particles
  hold after `gc.collect()`, from a second, untimed call. A tree without a
  section reports none for it.
- desk: configs/desk_scale.json with zero initial velocities and deaths at
  K, filtered at M=20, then 200 dirac particles at M=20; backward
  milliseconds per step at each K, over the K steps k = K .. 1.

BLAS and OpenMP are pinned to one thread, as perfbench pins them.
"""

import argparse
import gc
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

SECTIONS = {
    "kernels": "_kernels",
    "tables": "_component_tables",
    "draws": "_sample_set",
    "assembly": "_next_sets",
    "materialise": "ParticleSet._particles",
}


def timed(owner, name, totals, calls, section):
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[section] += 1
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            totals[section] += time.perf_counter() - start

    setattr(owner, name, wrapper)


def toy_probe(backward, toy, seeds):
    totals = dict.fromkeys(SECTIONS, 0.0)
    calls = dict.fromkeys(SECTIONS, 0)
    present = []
    for section, path in SECTIONS.items():
        owner, _, name = path.rpartition(".")
        target = getattr(backward, owner, None) if owner else backward
        if hasattr(target, name):
            timed(target, name, totals, calls, section)
            present.append(section)
    log, birth, motion = toy
    runs = []
    for seed in seeds:
        for section in totals:
            totals[section], calls[section] = 0.0, 0
        params = backward.SmootherParams(
            num_particles=10_000, m_best=64, gate_prob=1.0, w_hyp_min=0.0, seed=seed
        )
        start = time.perf_counter()
        for p in backward.backward_simulate(log, birth, motion, params):
            p.trajectories
        run = {"seed": seed, "total_s": time.perf_counter() - start}
        for s in present:
            run.update({f"{s}_s": totals[s], f"{s}_calls": calls[s]})
        run["retained_mb"] = retained_mb(backward.backward_simulate, log, birth, motion, params)
        runs.append(run)
    return runs


def retained_mb(call, *args):
    """Traced megabytes that the result of `call(*args)` holds after `gc.collect()`."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call(*args)  # noqa: F841 (held while the traced bytes are read)
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - before) / 1e6
    finally:
        tracemalloc.stop()


def desk_probe(root, k_values):
    from trajsmooth.backward import SmootherParams, backward_simulate
    from trajsmooth.forward import FilterParams, run_forward
    from trajsmooth.simulate import load_scenario_config, simulate_scenario

    out = []
    for k_max in k_values:
        cfg = json.loads((root / "configs" / "desk_scale.json").read_text())
        cfg["K"] = k_max
        cfg["schedule"]["deaths"] = [k_max] * 3
        for mean in cfg["schedule"]["init_means"]:
            mean[1] = mean[3] = 0.0
        scenario = simulate_scenario(load_scenario_config(cfg))
        log = run_forward(scenario, FilterParams(m_best=20))
        params = SmootherParams(num_particles=200, m_best=20, dirac_mode=True, seed=1)
        start = time.perf_counter()
        backward_simulate(log, scenario.birth, scenario.motion, params)
        elapsed = time.perf_counter() - start
        out.append({"K": k_max, "backward_ms_per_step": 1e3 * elapsed / k_max})
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", required=True, help="root of the checkout to import")
    parser.add_argument("--toy-seeds", type=int, default=8, help="toy runs, seeds 100, 101, ...")
    parser.add_argument("--desk-k", type=int, nargs="*", default=[40, 160, 640])
    args = parser.parse_args(argv)
    root = Path(args.tree).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.workloads import criterion04_toy
    from trajsmooth import backward

    report = {"tree": str(root)}
    if args.toy_seeds:
        toy = criterion04_toy()
        report["toy"] = toy_probe(backward, toy, range(100, 100 + args.toy_seeds))
    if args.desk_k:
        report["desk"] = desk_probe(root, args.desk_k)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
