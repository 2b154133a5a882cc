"""Batch driver: simulate | filter | smooth | oracle | evaluate | mc.

All artifacts are JSON (plus per-step CSV metric series); outputs are
deterministic under a fixed seed, so repeated runs are byte-identical.
Wall-clock timings go to a separate timings file to keep the data
artifacts reproducible. Exit codes: 0 ok, 2 config error, 3 numerical
error, 4 size cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .backward import (
    SmootherParams,
    backward_simulate,
    best_particle,
    particles_from_jsonable,
    particles_to_jsonable,
)
from .errors import ConfigError, ContractError, SingularMatrixError, SizeCapError
from .forward import (
    FilterParams,
    filterlog_from_jsonable,
    filterlog_to_jsonable,
    run_forward,
)
from .metrics import gospa_over_time, particle_stats
from .oracle import exact_smooth, posterior_to_jsonable
from .simulate import (
    Scenario,
    ScenarioConfig,
    load_scenario_config,
    scenario_from_jsonable,
    scenario_to_jsonable,
    simulate_scenario,
)
from .trajectory import states_at_time


def _write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")


def _read_json(path: Path):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _decode(path: Path, decode):
    """`decode` applied to the JSON in `path`; a wrong structure is a ConfigError."""
    data = _read_json(path)
    try:
        return decode(data)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"{path} does not have the expected structure: {exc!r}") from exc


def _derived_seed(seed: int, run_index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{run_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _position_mask(scenario: Scenario):
    """Indices of state components the measurement matrix picks out one-to-one."""
    mask = []
    for row in scenario.measurement.H:
        hits = np.flatnonzero(row != 0.0)
        if len(hits) != 1 or row[hits[0]] != 1.0:
            return None
        mask.append(int(hits[0]))
    return mask


def _filter_params(args) -> FilterParams:
    return FilterParams(
        m_best=args.filter_m_best,
        gate_prob=args.gate_prob,
        prune_r=args.prune_r,
        prune_w=args.prune_w,
    )


def _smoother_params(args, seed) -> SmootherParams:
    return SmootherParams(
        num_particles=args.particles,
        m_best=args.smoother_m_best,
        gate_prob=args.gate_prob,
        gate_gamma=args.gate_gamma,
        w_hyp_min=args.w_hyp_min,
        dirac_mode=args.dirac_mode,
        seed=seed,
    )


def cmd_simulate(args) -> int:
    config = _decode(args.config, load_scenario_config)
    scenario = simulate_scenario(config)
    _write_json(Path(args.out), scenario_to_jsonable(scenario))
    return 0


def cmd_filter(args) -> int:
    scenario = _decode(args.scenario, scenario_from_jsonable)
    log = run_forward(scenario, _filter_params(args))
    _write_json(Path(args.out), filterlog_to_jsonable(log))
    return 0


def cmd_smooth(args) -> int:
    scenario = _decode(args.scenario, scenario_from_jsonable)
    log = _decode(args.filterlog, filterlog_from_jsonable)
    seed = args.seed if args.seed is not None else scenario.seed
    particles = backward_simulate(
        log, scenario.birth, scenario.motion, _smoother_params(args, seed)
    )
    _write_json(Path(args.out), particles_to_jsonable(particles))
    if args.best_out:
        best = best_particle(particles)
        _write_json(
            Path(args.best_out),
            {
                "c": best.log_weight_acc,
                "trajectories": [
                    {"t": tr.t, "states": tr.states.tolist()} for tr in best.trajectories
                ],
            },
        )
    if args.diagnostics:
        # expected cardinality of dead-but-never-detected objects per step
        dead = [
            (1.0 - scenario.motion.ps) * sum(w for w, _ in post.ppp)
            for post in log.posteriors
        ]
        _write_json(Path(args.diagnostics), {"ppp_dead_expected_cardinality": dead})
    return 0


def cmd_oracle(args) -> int:
    scenario = _decode(args.scenario, scenario_from_jsonable)
    log = _decode(args.filterlog, filterlog_from_jsonable)
    post = exact_smooth(log, scenario.birth, scenario.motion, prune=args.prune)
    _write_json(Path(args.out), posterior_to_jsonable(post))
    return 0


def cmd_evaluate(args) -> int:
    scenario = _decode(args.scenario, scenario_from_jsonable)
    pos_idx = args.pos_idx if args.pos_idx else _position_mask(scenario)
    sources = {}
    if args.filterlog:
        sources["filter"] = _decode(args.filterlog, filterlog_from_jsonable).estimates
    if args.best:
        best = _decode(args.best, lambda d: particles_from_jsonable({"particles": [d]})[0])
        sources["smoothed"] = [
            states_at_time(best.trajectories, k) for k in range(1, scenario.k_max + 1)
        ]
    if not sources:
        raise ConfigError("evaluate needs --filterlog and/or --best")
    report = {"c": args.c, "p": args.p, "sources": {}}
    rows = []
    for name, estimates in sources.items():
        results, summary = gospa_over_time(estimates, scenario.truth, args.c, args.p, pos_idx)
        report["sources"][name] = summary
        for k, res in enumerate(results, start=1):
            rows.append((k, name, res.total, res.localisation, res.missed, res.false_det))
    _write_json(Path(args.out), report)
    if args.csv:
        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "source", "total", "localisation", "missed", "false"])
            writer.writerows(rows)
    return 0


class _RunConfig(NamedTuple):
    """A parsed mc run config; each run replaces the seeds with its derived seed."""

    runs: int
    seed: int
    scenario: ScenarioConfig
    filter: FilterParams
    smoother: SmootherParams
    c: float
    p: float
    pos_idx: list | None


def _load_run_config(path) -> _RunConfig:
    """Parse and check the whole mc run config before any run starts."""
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: run config must be a JSON object")
    for key in ("scenario", "mc_runs", "seed"):
        if key not in cfg:
            raise ConfigError(f"missing field {key} in run config")
    scenario_cfg = cfg["scenario"]
    if isinstance(scenario_cfg, str):
        base = Path(path).parent / scenario_cfg
        scenario_cfg = _read_json(base if base.exists() else scenario_cfg)
    try:
        seed = int(cfg["seed"])
        fp = cfg.get("filter", {})
        sp = cfg.get("smoother", {})
        mp = cfg.get("metric", {})
        gate_gamma = sp.get("gate_gamma")
        run = _RunConfig(
            runs=int(cfg["mc_runs"]),
            seed=seed,
            scenario=load_scenario_config({**scenario_cfg, "seed": seed}),
            filter=FilterParams(
                m_best=int(fp.get("M_forward", 20)),
                gate_prob=float(fp.get("gate_prob", 0.9999)),
                prune_r=float(fp.get("prune_r", 1e-4)),
                prune_w=float(fp.get("prune_w", 1e-4)),
            ),
            smoother=SmootherParams(
                num_particles=int(sp.get("T", 200)),
                m_best=int(sp.get("M", 20)),
                gate_prob=float(sp.get("gate_prob", 0.9999)),
                gate_gamma=None if gate_gamma is None else float(gate_gamma),
                w_hyp_min=float(sp.get("w_hyp_min", 1e-4)),
                dirac_mode=bool(sp.get("dirac_mode", False)),
            ),
            c=float(mp.get("c", 20.0)),
            p=float(mp.get("p", 1.0)),
            pos_idx=mp.get("pos_idx"),
        )
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad value in run config: {exc}") from exc
    if run.runs < 1:
        raise ConfigError("mc_runs must be >= 1")
    return run


def _mc_single(payload) -> dict:
    run, run_index, seed = payload
    scenario = simulate_scenario(replace(run.scenario, seed=seed))
    log = run_forward(scenario, run.filter)
    particles = backward_simulate(
        log, scenario.birth, scenario.motion, replace(run.smoother, seed=seed)
    )
    best = best_particle(particles)
    pos_idx = run.pos_idx or _position_mask(scenario)
    _, filt = gospa_over_time(log.estimates, scenario.truth, run.c, run.p, pos_idx)
    smoothed_estimates = [
        states_at_time(best.trajectories, k) for k in range(1, scenario.k_max + 1)
    ]
    _, smoo = gospa_over_time(smoothed_estimates, scenario.truth, run.c, run.p, pos_idx)
    stats = particle_stats(particles, scenario.k_max)
    return {
        "run": run_index,
        "seed": seed,
        "filter": filt,
        "smoothed": smoo,
        "card_dist_sum": float(stats.card_dist.sum()),
    }


def cmd_mc(args) -> int:
    run = _load_run_config(args.config)
    runs = run.runs
    payloads = [(run, i, _derived_seed(run.seed, i)) for i in range(runs)]
    value = os.environ.get("TRAJSMOOTH_WORKERS", "1")
    try:
        workers = int(value)
    except ValueError:
        raise ConfigError(f"TRAJSMOOTH_WORKERS must be an integer, got {value!r}") from None
    start = time.time()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, runs)) as pool:
            results = list(pool.map(_mc_single, payloads))
    else:
        results = [_mc_single(p) for p in payloads]
    elapsed = time.time() - start
    results.sort(key=lambda r: r["run"])
    filt = np.array([r["filter"]["gospa_total"] for r in results])
    smoo = np.array([r["smoothed"]["gospa_total"] for r in results])
    diff = filt - smoo
    se = float(diff.std(ddof=1) / np.sqrt(runs)) if runs > 1 else 0.0
    report = {
        "mc_runs": runs,
        "seed": run.seed,
        "derived_seeds": [r["seed"] for r in results],
        "per_run": results,
        "aggregate": {
            "filter_mean_gospa": float(filt.mean()),
            "smoothed_mean_gospa": float(smoo.mean()),
            "mean_diff": float(diff.mean()),
            "se_diff": se,
        },
    }
    out = Path(args.out)
    _write_json(out / "report.json", report)
    _write_json(out / "timings.json", {"wall_seconds": elapsed, "workers": workers})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trajsmooth")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a scenario from a config")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    filt = sub.add_parser("filter", help="run the forward filter on a scenario file")
    filt.add_argument("--scenario", required=True)
    filt.add_argument("--out", required=True)
    filt.add_argument("--filter-m-best", type=int, default=100)
    filt.add_argument("--gate-prob", type=float, default=0.9999)
    filt.add_argument("--prune-r", type=float, default=1e-4)
    filt.add_argument("--prune-w", type=float, default=1e-4)
    filt.set_defaults(func=cmd_filter)

    smo = sub.add_parser("smooth", help="backward-simulate trajectory particles")
    smo.add_argument("--scenario", required=True)
    smo.add_argument("--filterlog", required=True)
    smo.add_argument("--out", required=True)
    smo.add_argument("--best-out", default=None)
    smo.add_argument("--diagnostics", default=None)
    smo.add_argument("--particles", type=int, default=1000)
    smo.add_argument("--smoother-m-best", type=int, default=100)
    smo.add_argument("--gate-prob", type=float, default=0.9999)
    smo.add_argument("--gate-gamma", type=float, default=None)
    smo.add_argument("--w-hyp-min", type=float, default=1e-4)
    smo.add_argument("--dirac-mode", action="store_true")
    smo.add_argument("--seed", type=int, default=None)
    smo.set_defaults(func=cmd_smooth)

    orc = sub.add_parser("oracle", help="exact enumeration smoother (desk scale)")
    orc.add_argument("--scenario", required=True)
    orc.add_argument("--filterlog", required=True)
    orc.add_argument("--out", required=True)
    orc.add_argument("--prune", type=float, default=1e-6)
    orc.set_defaults(func=cmd_oracle)

    ev = sub.add_parser("evaluate", help="GOSPA report for filter/smoothed estimates")
    ev.add_argument("--scenario", required=True)
    ev.add_argument("--filterlog", default=None)
    ev.add_argument("--best", default=None, help="best-particle file from smooth")
    ev.add_argument("--out", required=True)
    ev.add_argument("--csv", default=None)
    ev.add_argument("--c", type=float, default=20.0)
    ev.add_argument("--p", type=float, default=1.0)
    ev.add_argument("--pos-idx", type=int, nargs="*", default=None)
    ev.set_defaults(func=cmd_evaluate)

    mc = sub.add_parser("mc", help="Monte Carlo pipeline: simulate/filter/smooth/evaluate")
    mc.add_argument("--config", required=True)
    mc.add_argument("--out", required=True)
    mc.set_defaults(func=cmd_mc)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ContractError, SingularMatrixError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
