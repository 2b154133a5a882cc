"""Batch driver: simulate | filter | smooth | oracle | evaluate | mc.

All artifacts are JSON (plus per-step CSV metric series), except the filter
log: one uncompressed .npz archive of the posteriors' stacked arrays
(`forward._LOG`). `smooth`, `oracle` and `evaluate` read it through one
reader, `_read_log`, which checks it whole array by whole array and against
the scenario's state dimension and horizon; `evaluate` and `mc` take the
filter's estimates from the posteriors (`extract_estimates`). Outputs
are deterministic under a fixed seed, so repeated runs are byte-identical.
Wall-clock timings go to a separate timings file to keep the data
artifacts reproducible. Exit codes: 0 ok, 2 config error, 3 numerical
error, 4 size cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import io
import json
import os
import sys
import time
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
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
from .errors import (
    ConfigError,
    ContractError,
    SettingError,
    SingularMatrixError,
    SizeCapError,
    check_int,
)
from .forward import (
    FilterLog,
    FilterParams,
    extract_estimates,
    filterlog_from_arrays,
    filterlog_to_arrays,
    run_forward,
)
from .metrics import check_gospa_settings, gospa_over_time, particle_stats
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


def _write(path: Path, write) -> None:
    """Call `write` on a binary temporary file beside `path`, then move that file to `path`.

    The file appears whole or not at all; an OSError is a ConfigError naming the path.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp.is_file():
            tmp.unlink()


def _dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _write_json(path: Path, data) -> None:
    _write(path, lambda fh: fh.write(f"{_dumps(data)}\n".encode()))


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
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"{path} does not have the expected structure: {exc!r}") from exc


def _read_log(path: Path, scenario: Scenario) -> FilterLog:
    """The checked filter log (.npz) at `path`, for `scenario`; its arrays load when read.

    No array is unpickled, and arrays outside `forward._LOG` are never read. A
    bad log, or one of another state dimension or horizon than the
    scenario's, is a ConfigError naming the file and, when one is at fault,
    the array.
    """
    try:
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh, allow_pickle=False) as arrays:
            log = filterlog_from_arrays(arrays, scenario.motion.dim)
        if log.k_max != scenario.k_max:
            raise ConfigError(f"k_max {log.k_max} does not match the scenario's horizon "
                              f"k_max {scenario.k_max}")
        return log
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except zipfile.BadZipFile as exc:
        raise ConfigError(f"{path} is not a filter log (.npz archive): {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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


# Every filter, smoother and metric setting, once: (field, CLI flag, `mc` config key).
# Its type, default and range live with the owner: the FilterParams and SmootherParams
# dataclasses, and gospa_over_time's signature with check_gospa_settings. The flags of
# `filter`, `smooth` and `evaluate` and the sections of an `mc` config are read from here.
_SCHEMA = {
    "filter": (FilterParams, (
        ("m_best", "--filter-m-best", "M_forward"),
        ("gate_prob", "--gate-prob", "gate_prob"),
        ("prune_r", "--prune-r", "prune_r"),
        ("prune_w", "--prune-w", "prune_w"),
    )),
    "smoother": (SmootherParams, (
        ("num_particles", "--particles", "T"),
        ("m_best", "--smoother-m-best", "M"),
        ("gate_prob", "--gate-prob", "gate_prob"),
        ("w_hyp_min", "--w-hyp-min", "w_hyp_min"),
        ("dirac_mode", "--dirac-mode", "dirac_mode"),
    )),
    "metric": (gospa_over_time, (
        ("c", "--c", "c"),
        ("p", "--p", "p"),
        ("pos_idx", "--pos-idx", "pos_idx"),
    )),
}


def _defaults(section: str) -> dict:
    owner, rows = _SCHEMA[section]
    params = inspect.signature(owner).parameters
    return {name: params[name].default for name, _, _ in rows}


def _add_flags(parser: argparse.ArgumentParser, section: str) -> None:
    defaults = _defaults(section)
    for name, flag, _ in _SCHEMA[section][1]:
        default = defaults[name]
        if isinstance(default, bool):
            kwargs = {"action": "store_true"}
        elif default is None:  # pos_idx: a list of state indices
            kwargs = {"type": int, "nargs": "*"}
        else:
            kwargs = {"type": type(default)}
        parser.add_argument(flag, dest=name, default=default, help=name, **kwargs)


def _from_args(args, section: str) -> dict:
    return {name: getattr(args, name) for name, _, _ in _SCHEMA[section][1]}


def _from_config(cfg: dict, section: str, path) -> dict:
    """One section of an `mc` config; an absent key takes the owner's default."""
    given = cfg.get(section, {})
    names = {key: name for name, _, key in _SCHEMA[section][1]}
    for key in given:
        if key not in names:
            raise ConfigError(f"{path}: unknown key {section}.{key}")
    return {**_defaults(section), **{names[key]: value for key, value in given.items()}}


def cmd_simulate(args) -> int:
    config = _decode(args.config, load_scenario_config)
    scenario = simulate_scenario(config)
    _write_json(Path(args.out), scenario_to_jsonable(scenario))
    return 0


def cmd_filter(args) -> int:
    params = FilterParams(**_from_args(args, "filter"))
    scenario = _decode(args.scenario, scenario_from_jsonable)
    if scenario.birth.uniform_density > 0.0:
        # the forward filter predicts a pure Gaussian-mixture birth only
        raise ConfigError("models.birth.uniform_density must be 0 to run the filter")
    log = filterlog_to_arrays(run_forward(scenario, params), scenario.motion.dim)
    # a handle, not the path: given a path, np.savez appends ".npz" to a name without it
    _write(Path(args.out), partial(np.savez, **log))
    return 0


def cmd_smooth(args) -> int:
    scenario = _decode(args.scenario, scenario_from_jsonable)
    seed = args.seed if args.seed is not None else scenario.seed
    params = SmootherParams(**_from_args(args, "smoother"), seed=seed)
    log = _read_log(args.filterlog, scenario)
    particles = backward_simulate(log, scenario.birth, scenario.motion, params)
    _write_json(Path(args.out), particles_to_jsonable(particles))
    if args.best_out:
        best = particles_to_jsonable([best_particle(particles)])["particles"][0]
        _write_json(Path(args.best_out), best)
    if args.diagnostics:
        # expected cardinality of dead-but-never-detected objects per step
        dead = [
            (1.0 - scenario.motion.ps) * sum(post.ppp.weights.tolist())
            for post in log.posteriors
        ]
        _write_json(Path(args.diagnostics), {"ppp_dead_expected_cardinality": dead})
    return 0


def cmd_oracle(args) -> int:
    scenario = _decode(args.scenario, scenario_from_jsonable)
    log = _read_log(args.filterlog, scenario)
    post = exact_smooth(log, scenario.birth, scenario.motion, prune=args.prune)
    _write_json(Path(args.out), posterior_to_jsonable(post))
    return 0


def cmd_evaluate(args) -> int:
    scenario = _decode(args.scenario, scenario_from_jsonable)
    dim = scenario.motion.dim
    metric = _from_args(args, "metric")
    check_gospa_settings(**metric, dim=dim)
    metric["pos_idx"] = metric["pos_idx"] or _position_mask(scenario)
    sources = {}
    if args.filterlog:
        log = _read_log(args.filterlog, scenario)
        sources["filter"] = [extract_estimates(post) for post in log.posteriors]
    if args.best:
        best = _decode(args.best, lambda d: particles_from_jsonable({"particles": [d]}, dim)[0])
        sources["smoothed"] = [
            states_at_time(best.trajectories, k) for k in range(1, scenario.k_max + 1)
        ]
    if not sources:
        raise ConfigError("evaluate needs --filterlog and/or --best")
    report = {"c": metric["c"], "p": metric["p"], "sources": {}}
    rows = []
    for name, estimates in sources.items():
        results, summary = gospa_over_time(estimates, scenario.truth, **metric)
        report["sources"][name] = summary
        for k, res in enumerate(results, start=1):
            rows.append((k, name, res.total, res.localisation, res.missed, res.false_det))
    _write_json(Path(args.out), report)
    if args.csv:
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["k", "source", "total", "localisation", "missed", "false"])
        writer.writerows(rows)
        _write(Path(args.csv), lambda fh: fh.write(text.getvalue().encode()))
    return 0


class _RunConfig(NamedTuple):
    """A parsed mc run config; each run replaces the seeds with its derived seed."""

    runs: int
    seed: int
    scenario: ScenarioConfig
    filter: FilterParams
    smoother: SmootherParams
    metric: dict  # keyword arguments of gospa_over_time


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
        check_int("mc_runs", cfg["mc_runs"], 1)
        check_int("seed", cfg["seed"], 0)
        seed = cfg["seed"]
        scenario = load_scenario_config({**scenario_cfg, "seed": seed})
        if scenario.birth.uniform_density > 0.0:
            raise ConfigError("scenario.birth.uniform_density must be 0 to run the filter")
        metric = _from_config(cfg, "metric", path)
        check_gospa_settings(**metric, dim=scenario.motion.dim)
        run = _RunConfig(
            runs=cfg["mc_runs"],
            seed=seed,
            scenario=scenario,
            filter=FilterParams(**_from_config(cfg, "filter", path)),
            smoother=SmootherParams(**_from_config(cfg, "smoother", path)),
            metric=metric,
        )
    except (AttributeError, SettingError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad value in run config: {exc}") from exc
    return run


def _mc_single(payload) -> dict:
    run, run_index, seed = payload
    scenario = simulate_scenario(replace(run.scenario, seed=seed))
    log = run_forward(scenario, run.filter)
    particles = backward_simulate(
        log, scenario.birth, scenario.motion, replace(run.smoother, seed=seed)
    )
    best = best_particle(particles)
    metric = {**run.metric, "pos_idx": run.metric["pos_idx"] or _position_mask(scenario)}
    estimates = [extract_estimates(post) for post in log.posteriors]
    _, filt = gospa_over_time(estimates, scenario.truth, **metric)
    smoothed_estimates = [
        states_at_time(best.trajectories, k) for k in range(1, scenario.k_max + 1)
    ]
    _, smoo = gospa_over_time(smoothed_estimates, scenario.truth, **metric)
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
        workers = 0
    if workers < 1:
        raise ConfigError(f"TRAJSMOOTH_WORKERS must be an integer >= 1, got {value!r}")
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
    add = partial(sub.add_parser, formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    sim = add("simulate", help="draw a scenario from a config")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    filt = add("filter", help="run the forward filter on a scenario file")
    filt.add_argument("--scenario", required=True)
    filt.add_argument("--out", required=True)
    _add_flags(filt, "filter")
    filt.set_defaults(func=cmd_filter)

    smo = add("smooth", help="backward-simulate trajectory particles")
    smo.add_argument("--scenario", required=True)
    smo.add_argument("--filterlog", required=True)
    smo.add_argument("--out", required=True)
    smo.add_argument("--best-out", default=None)
    smo.add_argument("--diagnostics", default=None)
    _add_flags(smo, "smoother")
    smo.add_argument("--seed", type=int, default=None)
    smo.set_defaults(func=cmd_smooth)

    orc = add("oracle", help="exact enumeration smoother (desk scale)")
    orc.add_argument("--scenario", required=True)
    orc.add_argument("--filterlog", required=True)
    orc.add_argument("--out", required=True)
    prune = inspect.signature(exact_smooth).parameters["prune"].default
    orc.add_argument("--prune", type=float, default=prune)
    orc.set_defaults(func=cmd_oracle)

    ev = add("evaluate", help="GOSPA report for filter/smoothed estimates")
    ev.add_argument("--scenario", required=True)
    ev.add_argument("--filterlog", default=None)
    ev.add_argument("--best", default=None, help="best-particle file from smooth")
    ev.add_argument("--out", required=True)
    ev.add_argument("--csv", default=None)
    _add_flags(ev, "metric")
    ev.set_defaults(func=cmd_evaluate)

    mc = add("mc", help="Monte Carlo pipeline: simulate/filter/smooth/evaluate")
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
