"""sha256 of the pipeline artifacts that a change must leave byte-identical.

    python3 tools/artifact_checks.py TREE > checks.json

TREE is the root of a checkout. Its `src`, `configs` and `perfbench` are
the ones used, so run one process per tree, and compare the two outputs
(or attach them with `tools/bench_pairs.py --attach checks=checks.json`).
The JSON object printed holds:

- `s1_<seed>_pt.json`, `s1_<seed>_bp.json`, `s1_<seed>_rep.json`:
  configs/scenario1.json at seeds 3, 61 and 1234 through the CLI's
  simulate, filter, smooth (10 particles, sampled heads) and evaluate (the
  filter log and the best particle): the particles, the best particle and
  the GOSPA report;
- `s1_<seed>_dirac_pt.json`: the same pipeline's `smooth --dirac-mode`
  particles (10 particles), which read no normal;
- `s1_<seed>_posteriors`: the same pipeline's filter log as
  `forward.filterlog_from_arrays` reads it back: k_max, then per step the
  shape and bytes of each posterior array. It does not depend on the
  archive's layout, so it compares the filter's numbers across trees whose
  logs hold other arrays;
- `k1_pt.json`, `k1_dirac_pt.json`: configs/scenario1.json cut to one
  step (K = 1, every object born and dead at 1) through the CLI's simulate,
  filter and smooth (50 particles), with sampled heads and with
  `--dirac-mode`: the particles of a run whose only backward step is the
  draw at K;
- `desk_report`: `mc` on configs/desk_mc.json with 2 runs and T = 50
  (dirac mode): its report.json;
- `toy_particles`, `toy_oracle`: perfbench's criterion-04 toy through
  `backward_simulate` (1e4 sampled-head particles, M = 64, no gate,
  w_hyp_min 0, seed 9350) and `exact_smooth` (prune 1e-10), as compact
  sorted-key JSON without the CLI's final newline.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

S1_SEEDS = (3, 61, 1234)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def posteriors_sha(filterlog: Path, dim: int) -> str:
    """sha256 of the posteriors of the filter log at `filterlog`, as read back."""
    from trajsmooth.forward import filterlog_from_arrays

    h = hashlib.sha256(str(dim).encode())
    with np.load(filterlog, allow_pickle=False) as arrays:
        log = filterlog_from_arrays(arrays, dim)
        h.update(f"k_max {log.k_max}".encode())
        for p in log.posteriors:
            for a in (p.r, p.means, p.covs, p.ppp.weights, p.ppp.means, p.ppp.covs):
                h.update(f"{a.dtype} {a.shape}".encode())
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def run_cli(commands: list[list[str]], what: str) -> None:
    from trajsmooth.cli import main

    for argv in commands:
        if main(argv) != 0:
            raise RuntimeError(f"{argv[0]} failed on {what}")


def scenario1_checks(tree: Path, seed: int, workdir: Path) -> dict[str, str]:
    """sha256 of the `s1_<seed>_*` artifacts of one scenario1 CLI pipeline (module docstring)."""
    cfg = json.loads((tree / "configs" / "scenario1.json").read_text())
    cfg["seed"] = seed
    config, sc, fl = workdir / "cfg.json", workdir / "sc.json", workdir / "filterlog"
    pt, bp, rep = workdir / "pt.json", workdir / "bp.json", workdir / "rep.json"
    dirac_pt = workdir / "dirac_pt.json"
    config.write_text(json.dumps(cfg))
    run_cli([
        ["simulate", "--config", str(config), "--out", str(sc)],
        ["filter", "--scenario", str(sc), "--out", str(fl)],
        ["smooth", "--scenario", str(sc), "--filterlog", str(fl), "--out", str(pt),
         "--best-out", str(bp), "--particles", "10"],
        ["smooth", "--scenario", str(sc), "--filterlog", str(fl), "--out", str(dirac_pt),
         "--particles", "10", "--dirac-mode"],
        ["evaluate", "--scenario", str(sc), "--filterlog", str(fl), "--best", str(bp),
         "--out", str(rep)],
    ], f"scenario1 seed {seed}")
    checks = {f"s1_{seed}_{p.name}": _sha(p.read_bytes()) for p in (pt, bp, rep, dirac_pt)}
    dim = len(json.loads(sc.read_text())["models"]["motion"]["F"])
    checks[f"s1_{seed}_posteriors"] = posteriors_sha(fl, dim)
    return checks


def one_step_checks(tree: Path, workdir: Path) -> dict[str, str]:
    """sha256 of the `k1_*` particles: scenario1 over one step (module docstring)."""
    cfg = json.loads((tree / "configs" / "scenario1.json").read_text())
    cfg["K"] = 1
    n = len(cfg["schedule"]["births"])
    cfg["schedule"]["births"] = cfg["schedule"]["deaths"] = [1] * n
    config, sc, fl = workdir / "cfg.json", workdir / "sc.json", workdir / "filterlog"
    pt, dirac_pt = workdir / "k1_pt.json", workdir / "k1_dirac_pt.json"
    config.write_text(json.dumps(cfg))
    smooth = ["smooth", "--scenario", str(sc), "--filterlog", str(fl), "--particles", "50"]
    run_cli([
        ["simulate", "--config", str(config), "--out", str(sc)],
        ["filter", "--scenario", str(sc), "--out", str(fl)],
        [*smooth, "--out", str(pt)],
        [*smooth, "--out", str(dirac_pt), "--dirac-mode"],
    ], "scenario1 with K = 1")
    return {p.name: _sha(p.read_bytes()) for p in (pt, dirac_pt)}


def desk_checks(tree: Path, workdir: Path) -> dict[str, str]:
    cfg = json.loads((tree / "configs" / "desk_mc.json").read_text())
    cfg["scenario"] = str(tree / "configs" / cfg["scenario"])
    cfg["mc_runs"] = 2
    cfg["smoother"]["T"] = 50
    config = workdir / "desk_mc.json"
    config.write_text(json.dumps(cfg))
    run_cli([["mc", "--config", str(config), "--out", str(workdir / "mc")]], "desk_mc")
    return {"desk_report": _sha((workdir / "mc" / "report.json").read_bytes())}


def toy_checks() -> dict[str, str]:
    from perfbench.workloads import criterion04_toy
    from trajsmooth import backward, oracle
    from trajsmooth.cli import _dumps

    log, birth, motion = criterion04_toy()
    params = backward.SmootherParams(num_particles=10_000, m_best=64, gate_prob=1.0,
                                     w_hyp_min=0.0, dirac_mode=False, seed=9350)
    particles = backward.backward_simulate(log, birth, motion, params)
    post = oracle.exact_smooth(log, birth, motion, prune=1e-10)
    return {
        "toy_particles": _sha(_dumps(backward.particles_to_jsonable(particles)).encode()),
        "toy_oracle": _sha(_dumps(oracle.posterior_to_jsonable(post)).encode()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="root of the checkout to run")
    tree = parser.parse_args(argv).tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree)]
    checks = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in S1_SEEDS:
            workdir = Path(tmp) / f"s1_{seed}"
            workdir.mkdir()
            checks.update(scenario1_checks(tree, seed, workdir))
        workdir = Path(tmp) / "k1"
        workdir.mkdir()
        checks.update(one_step_checks(tree, workdir))
        checks.update(desk_checks(tree, Path(tmp)))
    checks.update(toy_checks())
    print(json.dumps(checks, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
