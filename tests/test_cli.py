import contextlib
import hashlib
import importlib.util
import inspect
import io
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from helpers import filterlog_to_jsonable

import trajsmooth
from trajsmooth import cli
from trajsmooth.backward import SmootherParams
from trajsmooth.cli import _SCHEMA, _load_run_config, build_parser, main
from trajsmooth.forward import (
    FilterParams,
    PMBDensity,
    extract_estimates,
    filterlog_from_arrays,
    filterlog_to_arrays,
    predict_pmb,
    run_forward,
)
from trajsmooth.gaussians import make_cv_model
from trajsmooth.metrics import gospa_over_time
from trajsmooth.models import make_position_measurement
from trajsmooth.oracle import exact_smooth
from trajsmooth.simulate import scenario_from_jsonable

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_config(k_max=6, seed=11):
    return {
        "K": k_max,
        "motion": {"model": "cv", "Ts": 1.0, "sigma_q": 0.1, "pS": 0.98},
        "measurement": {"model": "position", "sigma_r": 1.0, "pD": 0.8},
        "clutter": {"rate": 2.0, "region": [[-40.0, 40.0], [-40.0, 40.0]]},
        "birth": {
            "weights": [0.05],
            "means": [[0.0, 0.0, 0.0, 0.0]],
            "covs": [np.diag([400.0, 1.0, 400.0, 1.0]).tolist()],
        },
        "schedule": {
            "births": [1, 1],
            "deaths": [k_max, k_max],
            "init_means": [[-20.0, 1.0, 0.0, 0.5], [20.0, -1.0, 5.0, -0.5]],
            "init_cov": np.diag([4.0, 0.04, 4.0, 0.04]).tolist(),
        },
        "seed": seed,
    }


def set_at(data, path, value):
    """Set the entry of nested JSON `data` at the key/index sequence `path`."""
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


def read_log(filterlog) -> dict:
    """The arrays of the filter log at `filterlog`."""
    with np.load(filterlog, allow_pickle=False) as arrays:
        return dict(arrays)


def write_log(filterlog, arrays: dict) -> None:
    # a handle, so that np.savez does not add ".npz" to the name
    with open(filterlog, "wb") as fh:
        np.savez(fh, **arrays)


def log_rows(arrays: dict, key: str, step: int) -> np.ndarray:
    """The rows of one step of the log array `key`, as a view."""
    offsets = arrays[f"{key.rsplit('.', 1)[0]}.offsets"]
    return arrays[key][offsets[step]:offsets[step + 1]]


def set_in_log(filterlog, path, value) -> None:
    """Set an entry of the filter log at `path`: "steps", k, the parts of an array's
    name, the row within step k, then indices within the row."""
    _, step, *rest = path
    names = [part for part in rest if isinstance(part, str)]
    row, *within = rest[len(names):]
    arrays = read_log(filterlog)
    log_rows(arrays, ".".join(names), step)[(row, *within)] = value
    write_log(filterlog, arrays)


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "scenario_config.json"
    cfg.write_text(json.dumps(small_config()))
    return tmp_path, cfg


def run_pipeline(tmp_path, cfg, seed=5):
    scenario = tmp_path / "scenario.json"
    filterlog = tmp_path / "filterlog.json"
    particles = tmp_path / "particles.json"
    best = tmp_path / "best.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(scenario)]) == 0
    assert main(["filter", "--scenario", str(scenario), "--out", str(filterlog)]) == 0
    assert (
        main(
            [
                "smooth",
                "--scenario", str(scenario),
                "--filterlog", str(filterlog),
                "--out", str(particles),
                "--best-out", str(best),
                "--particles", "20",
                "--smoother-m-best", "10",
                "--seed", str(seed),
            ]
        )
        == 0
    )
    return scenario, filterlog, particles, best


def test_simulate_staggered_schedule(tmp_path):
    out = tmp_path / "sc.json"
    assert main(["simulate", "--config", str(CONFIGS / "scenario1.json"), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["truth"]["trajectories"]) == 6
    assert data["k_max"] == 81


def test_simulate_deterministic_bytes(workdir):
    tmp_path, cfg = workdir
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["simulate", "--config", str(cfg), "--out", str(a)])
    main(["simulate", "--config", str(cfg), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_k_zero_exit_code(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(small_config(k_max=0)))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("K",), 12.7, "K"),
        (("K",), "12", "K"),
        (("K",), True, "K"),
        (("seed",), 2.5, "seed"),
        (("schedule", "births", 0), 1.9, "schedule.births[0]"),
        (("schedule", "deaths", 1), 5.5, "schedule.deaths[1]"),
        (("motion", "dims"), 2.0, "motion.dims"),
        (("motion", "pS"), 1.5, "motion.pS"),
        (("measurement", "pD"), 2.0, "measurement.pD"),
        (("clutter", "rate"), -1.0, "clutter.rate"),
        (("birth", "weights", 0), float("nan"), "birth.weights[0]"),
        (("birth", "weights", 0), float("inf"), "birth.weights[0]"),
        (("birth", "weights", 0), -0.1, "birth.weights[0]"),
    ],
)
def test_simulate_bad_scenario_setting_exits_2(tmp_path, capsys, path, value, field):
    cfg = small_config()
    set_at(cfg, path, value)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x.json")]) == 2
    assert f"{field} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("motion", "Ts"), 0.0, "motion.Ts"),
        (("motion", "Ts"), float("inf"), "motion.Ts"),
        (("motion", "sigma_q"), -0.1, "motion.sigma_q"),
        (("motion", "sigma_q"), float("nan"), "motion.sigma_q"),
        (("measurement", "sigma_r"), float("nan"), "measurement.sigma_r"),
        (("measurement", "sigma_r"), -1.0, "measurement.sigma_r"),
        (("measurement", "sigma_r"), "1.0", "measurement.sigma_r"),
        (("birth", "uniform_density"), -0.5, "birth.uniform_density"),
        (("birth", "uniform_density"), float("nan"), "birth.uniform_density"),
        (("schedule", "init_cov", 0, 0), float("nan"), "schedule.init_cov"),
        (("schedule", "init_cov", 1, 1), float("inf"), "schedule.init_cov"),
    ],
)
def test_simulate_bad_model_real_exits_2(tmp_path, capsys, path, value, field):
    cfg = small_config()
    cfg["birth"]["uniform_density"] = 0.0
    set_at(cfg, path, value)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x.json")]) == 2
    assert f"{field} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("k_max",), 2.5, "k_max"),
        (("seed",), -1, "seed"),
        (("models", "motion", "ps"), 1.5, "models.motion.ps"),
        (("models", "measurement", "pd"), 2.0, "models.measurement.pd"),
        (("models", "clutter", "rate"), -1.0, "models.clutter.rate"),
        (("models", "birth", "uniform_density"), -0.5, "models.birth.uniform_density"),
        # the filter predicts a Gaussian-mixture birth only
        (("models", "birth", "uniform_density"), 0.01, "models.birth.uniform_density"),
    ],
)
def test_filter_bad_scenario_artifact_exits_2(workdir, capsys, path, value, field):
    tmp_path, cfg = workdir
    scenario = tmp_path / "scenario.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(scenario)]) == 0
    data = json.loads(scenario.read_text())
    set_at(data, path, value)
    scenario.write_text(json.dumps(data))
    assert main(["filter", "--scenario", str(scenario), "--out", str(tmp_path / "fl.json")]) == 2
    assert f"{field} must be" in capsys.readouterr().err


def matrix_config():
    """small_config with its motion and measurement models written out as matrices."""
    cfg = small_config()
    motion, measurement = make_cv_model(1.0, 0.1, 0.98), make_position_measurement(2, 1.0, 0.8)
    cfg["motion"] = {"F": motion.F.tolist(), "Q": motion.Q.tolist(), "pS": 0.98}
    cfg["measurement"] = {"H": measurement.H.tolist(), "R": measurement.R.tolist(), "pD": 0.8}
    return cfg


@pytest.mark.parametrize(
    "command, path",
    [
        ("simulate", ("motion", "F", 0, 1)),
        ("simulate", ("motion", "Q", 1, 1)),
        ("simulate", ("measurement", "H", 0, 0)),
        ("simulate", ("measurement", "R", 1, 1)),
        ("simulate", ("clutter", "region", 0, 1)),
        ("filter", ("models", "motion", "F", 0, 1)),
        ("filter", ("models", "motion", "Q", 1, 1)),
        ("filter", ("models", "measurement", "H", 0, 0)),
        ("filter", ("models", "measurement", "R", 0, 0)),
        ("filter", ("models", "clutter", "region", 0, 1)),
    ],
)
def test_nan_model_matrix_exits_2(tmp_path, capsys, command, path):
    cfg, scenario = tmp_path / "cfg.json", tmp_path / "scenario.json"
    cfg.write_text(json.dumps(matrix_config()))
    simulate = ["simulate", "--config", str(cfg), "--out", str(scenario)]
    if command == "filter":
        assert main(simulate) == 0
    edited = cfg if command == "simulate" else scenario
    data = json.loads(edited.read_text())
    set_at(data, path, float("nan"))
    edited.write_text(json.dumps(data))
    argv = simulate if command == "simulate" else [
        "filter", "--scenario", str(scenario), "--out", str(tmp_path / "fl.json")
    ]
    assert main(argv) == 2
    field = ".".join(key for key in path if isinstance(key, str))
    assert f"{field} must be finite" in capsys.readouterr().err


NAN = float("nan")


@pytest.mark.parametrize(
    "command, path, value, field",
    [
        # a non-finite Gaussian density or measurement
        ("simulate", ("birth", "means", 0, 2), NAN, "birth.means[0]"),
        ("simulate", ("schedule", "init_means", 1, 0), NAN, "schedule.init_means[1]"),
        ("filter", ("models", "birth", "means", 0, 0), NAN, "models.birth.means[0]"),
        ("filter", ("models", "birth", "covs", 0, 0, 0), NAN, "models.birth.covs[0]"),
        ("filter", ("measurements", 0), [[NAN, 0.0]], "measurements[0][0]"),
        ("smooth", ("steps", 5, "posterior", "means", 0, 0), NAN, "steps[5].posterior.means[0]"),
        ("smooth", ("steps", 5, "posterior", "covs", 0, 1, 1), NAN, "steps[5].posterior.covs[0]"),
        ("smooth", ("steps", 2, "posterior", "ppp", "means", 0, 0), NAN,
         "steps[2].posterior.ppp.means[0]"),
        # an array of the wrong shape
        ("simulate", ("schedule", "init_cov"), [1.0, 2.0], "schedule.init_cov"),
        ("simulate", ("motion", "F"), np.eye(4)[:, :3].tolist(), "motion.F"),
        ("simulate", ("motion", "Q"), np.eye(2).tolist(), "motion.Q"),
        ("simulate", ("measurement", "R"), np.eye(3).tolist(), "measurement.R"),
        ("simulate", ("birth", "covs", 0), np.eye(2).tolist(), "birth.covs[0]"),
        ("filter", ("models", "motion", "Q"), np.eye(3).tolist(), "models.motion.Q"),
        ("filter", ("models", "measurement", "R"), [[1.0]], "models.measurement.R"),
        ("filter", ("models", "birth", "covs", 0), np.eye(2).tolist(), "models.birth.covs[0]"),
    ],
)
def test_bad_input_array_exits_2(tmp_path, capsys, command, path, value, field):
    cfg, scenario, filterlog = (tmp_path / name for name in ("cfg.json", "sc.json", "fl.json"))
    cfg.write_text(json.dumps(matrix_config()))
    argv = {
        "simulate": ["simulate", "--config", str(cfg), "--out", str(scenario)],
        "filter": ["filter", "--scenario", str(scenario), "--out", str(filterlog)],
        "smooth": ["smooth", "--scenario", str(scenario), "--filterlog", str(filterlog),
                   "--out", str(tmp_path / "pt.json"), "--particles", "5"],
    }
    commands = list(argv)[:list(argv).index(command)]
    for earlier in commands:
        assert main(argv[earlier]) == 0
    if command == "smooth":
        set_in_log(filterlog, path, value)
    else:
        edited = {"simulate": cfg, "filter": scenario}[command]
        data = json.loads(edited.read_text())
        set_at(data, path, value)
        edited.write_text(json.dumps(data))
    assert main(argv[command]) == 2
    assert f"{field} must " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("simulate", ("clutter", "region"), [[-10.0, -10.0], [0.0, 10.0]]),
        ("simulate", ("clutter", "region"), [[-40.0, 40.0], [5.0, 5.0]]),
        ("filter", ("models", "clutter", "region"), [[40.0, -40.0], [-40.0, 40.0]]),
    ],
)
def test_empty_clutter_region_exits_2(tmp_path, capsys, command, path, value):
    cfg, scenario = tmp_path / "cfg.json", tmp_path / "sc.json"
    cfg.write_text(json.dumps(small_config()))
    simulate = ["simulate", "--config", str(cfg), "--out", str(scenario)]
    if command == "filter":
        assert main(simulate) == 0
    edited = cfg if command == "simulate" else scenario
    data = json.loads(edited.read_text())
    set_at(data, path, value)
    edited.write_text(json.dumps(data))
    argv = simulate if command == "simulate" else [
        "filter", "--scenario", str(scenario), "--out", str(tmp_path / "fl.json")
    ]
    assert main(argv) == 2
    field = ".".join(path)
    assert f"{field} must have low < high on every axis" in capsys.readouterr().err


@pytest.mark.parametrize(
    "role, path, value, message",
    [
        ("scenario", ("truth", "trajectories", 0, "states", 2, 0), NAN,
         "truth.trajectories[0].states must be finite"),
        ("scenario", ("truth", "trajectories", 1, "states"), [[0.0, 1.0, 2.0]],
         "truth.trajectories[1].states must have shape (n, 4)"),
        ("best", ("trajectories", 0, "states", 0, 2), NAN,
         "particles[0].trajectories[0].states must be finite"),
        ("best", ("trajectories", 0, "states"), [[0.0, 1.0]],
         "particles[0].trajectories[0].states must have shape (n, 4)"),
    ],
)
def test_evaluate_bad_state_exits_2(workdir, capsys, role, path, value, message):
    tmp_path, cfg = workdir
    scenario, filterlog, _, best = run_pipeline(tmp_path, cfg)
    edited = {"scenario": scenario, "best": best}[role]
    data = json.loads(edited.read_text())
    set_at(data, path, value)
    edited.write_text(json.dumps(data))
    argv = ["evaluate", "--scenario", str(scenario), "--filterlog", str(filterlog),
            "--best", str(best), "--out", str(tmp_path / "report.json")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


UNPICKLED = []


def _unpickle():
    UNPICKLED.append("unpickled")


class Trap:
    """An object whose unpickling is recorded in UNPICKLED."""

    def __reduce__(self):
        return _unpickle, ()


def edit_arrays(change):
    def edit(filterlog):
        arrays = read_log(filterlog)
        change(arrays)
        write_log(filterlog, arrays)
    return edit


def _fall(arrays):
    offsets = arrays["posterior.offsets"]
    offsets[1] = offsets[2] + 1


def _old_json_log(filterlog):
    log = filterlog_from_arrays(read_log(filterlog), 4)
    filterlog.write_text(json.dumps(filterlog_to_jsonable(log)))


def _truncated(filterlog):
    blob = filterlog.read_bytes()
    filterlog.write_bytes(blob[:len(blob) // 2])


def _bare_npy(filterlog):
    means = read_log(filterlog)["posterior.means"]
    with open(filterlog, "wb") as fh:
        np.save(fh, means)


NOT_A_LOG = " is not a filter log (.npz archive): File is not a zip file\n"

# id: (edit of the filter log file, what the message says after the file's name)
BAD_LOGS = {
    "k_max_above_steps": (edit_arrays(lambda a: a.update(k_max=np.int64(9))),
                          ": posterior.offsets must be int64 of shape (10,) for k_max 9, "
                          "got int64 of shape (7,)"),
    "k_max_fraction": (edit_arrays(lambda a: a.update(k_max=np.float64(5.7))),
                       ": k_max must be an int64 integer >= 1, got array(5.7)"),
    "k_max_zero": (edit_arrays(lambda a: a.update(k_max=np.int64(0))),
                   ": k_max must be an int64 integer >= 1, got array(0)"),
    "existence_above_one": (
        edit_arrays(lambda a: log_rows(a, "posterior.r", 5).__setitem__(0, 1.5)),
        ": steps[5].posterior.r[0] must be a number in [0, 1], got 1.5",
    ),
    "negative_weight": (
        edit_arrays(lambda a: log_rows(a, "posterior.ppp.weights", 2).__setitem__(0, -0.5)),
        ": steps[2].posterior.ppp.weights[0] must be a number >= 0, got -0.5",
    ),
    "offsets_fall": (edit_arrays(_fall), ": posterior.offsets must start at 0 and never fall"),
    "offsets_end_short": (
        edit_arrays(lambda a: a["posterior.offsets"].__setitem__(-1, len(a["posterior.r"]) - 1)),
        ": posterior.offsets must end at the ",
    ),
    "offsets_int32": (
        edit_arrays(lambda a: a.update({"posterior.offsets": a["posterior.offsets"].astype(np.int32)})),
        ": posterior.offsets must be int64 of shape (7,) for k_max 6, got int32 of shape (7,)",
    ),
    "means_float32": (
        edit_arrays(lambda a: a.update({"posterior.means": a["posterior.means"].astype(np.float32)})),
        ": posterior.means must be float64 of shape (n, 4), got float32 of shape",
    ),
    "missing_array": (edit_arrays(lambda a: a.pop("posterior.ppp.means")),
                      ": posterior.ppp.means is missing"),
    "object_array": (
        edit_arrays(lambda a: a.update({"posterior.r": np.array([Trap()], dtype=object)})),
        ": posterior.r cannot be read: Object arrays cannot be loaded when allow_pickle=False",
    ),
    "old_json_log": (_old_json_log, NOT_A_LOG),
    "truncated_archive": (_truncated, NOT_A_LOG),
    "bare_npy": (_bare_npy, NOT_A_LOG),
}


@pytest.mark.parametrize("edit, message", list(BAD_LOGS.values()), ids=list(BAD_LOGS))
def test_smooth_bad_filter_log_exits_2(workdir, capsys, edit, message):
    tmp_path, cfg = workdir
    scenario, filterlog = tmp_path / "scenario.json", tmp_path / "filterlog.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(scenario)]) == 0
    assert main(["filter", "--scenario", str(scenario), "--out", str(filterlog)]) == 0
    edit(filterlog)
    out = tmp_path / "pt.json"
    argv = ["smooth", "--scenario", str(scenario), "--filterlog", str(filterlog),
            "--out", str(out), "--particles", "5"]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"config error: {filterlog}{message}" in capsys.readouterr().err
    assert not out.exists()
    assert UNPICKLED == []


def line_config(k_max):
    """small_config on a line: one position and one velocity, so the state has 2 dimensions."""
    cfg = small_config(k_max=k_max)
    cfg["motion"]["dims"] = 1
    cfg["clutter"] = {"rate": 0.5, "region": [[-40.0, 40.0]]}
    cfg["birth"] = {"weights": [0.05], "means": [[0.0, 0.0]],
                    "covs": [np.diag([400.0, 1.0]).tolist()]}
    cfg["schedule"] = {"births": [1], "deaths": [k_max], "init_means": [[-20.0, 1.0]],
                       "init_cov": np.diag([4.0, 0.04]).tolist()}
    return cfg


@pytest.mark.parametrize("command", ["smooth", "oracle", "evaluate"])
def test_filter_log_of_another_state_dim_exits_2(tmp_path, capsys, command):
    # a filter log of a 2-d state model read against a 4-d scenario
    plane, line = tmp_path / "plane.json", tmp_path / "line.json"
    plane.write_text(json.dumps(small_config(k_max=3)))
    line.write_text(json.dumps(line_config(k_max=3)))
    scenario, line_scenario = tmp_path / "sc.json", tmp_path / "line_sc.json"
    filterlog = tmp_path / "fl.json"
    assert main(["simulate", "--config", str(plane), "--out", str(scenario)]) == 0
    assert main(["simulate", "--config", str(line), "--out", str(line_scenario)]) == 0
    assert main(["filter", "--scenario", str(line_scenario), "--out", str(filterlog)]) == 0
    out = tmp_path / "out.json"
    capsys.readouterr()
    argv = [command, "--scenario", str(scenario), "--filterlog", str(filterlog), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    # the reader's message, with the file's path put in front once
    rows = len(read_log(filterlog)["posterior.means"])
    assert err == (f"config error: {filterlog}: posterior.means must be float64 of shape (n, 4), "
                   f"got float64 of shape ({rows}, 2)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["smooth", "oracle", "evaluate"])
@pytest.mark.parametrize("log_k_max", [2, 4])
def test_filter_log_of_another_horizon_exits_2(tmp_path, capsys, command, log_k_max):
    # a filter log of a scenario cut shorter or run longer than the 3-step scenario read with it
    scenario, other, filterlog = tmp_path / "sc.json", tmp_path / "other.json", tmp_path / "fl"
    for k_max, path in ((3, scenario), (log_k_max, other)):
        cfg_data = small_config(k_max=k_max)
        cfg_data["clutter"]["rate"] = 0.5
        cfg = tmp_path / f"cfg{k_max}.json"
        cfg.write_text(json.dumps(cfg_data))
        assert main(["simulate", "--config", str(cfg), "--out", str(path)]) == 0
    # hard pruning keeps the log at oracle scale
    flags = ["--prune-r", "0.01", "--prune-w", "0.01"]
    assert main(["filter", "--scenario", str(other), "--out", str(filterlog), *flags]) == 0
    out = tmp_path / "out.json"
    capsys.readouterr()
    argv = [command, "--scenario", str(scenario), "--filterlog", str(filterlog), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: {filterlog}: k_max {log_k_max} does not match the scenario's horizon "
        "k_max 3\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "role, path, value",
    [
        ("scenario", ("truth", "trajectories", 0, "t"), 1.9),
        ("scenario", ("truth", "trajectories", 1, "t"), 0),
        ("best", ("trajectories", 0, "t"), 2.5),
    ],
)
def test_evaluate_bad_birth_time_exits_2(workdir, capsys, role, path, value):
    tmp_path, cfg = workdir
    scenario, filterlog, _, best = run_pipeline(tmp_path, cfg)
    edited = {"scenario": scenario, "best": best}[role]
    data = json.loads(edited.read_text())
    set_at(data, path, value)
    edited.write_text(json.dumps(data))
    argv = ["evaluate", "--scenario", str(scenario), "--filterlog", str(filterlog),
            "--best", str(best), "--out", str(tmp_path / "report.json")]
    assert main(argv) == 2
    assert f"t must be an integer >= 1, got {value!r}" in capsys.readouterr().err


def test_full_pipeline_and_reproducibility(workdir):
    tmp_path, cfg = workdir
    scenario, filterlog, particles, best = run_pipeline(tmp_path, cfg)
    data = json.loads(particles.read_text())
    assert len(data["particles"]) == 20
    best_data = json.loads(best.read_text())
    assert "c" in best_data and "trajectories" in best_data

    again = tmp_path / "again"
    again.mkdir()
    cfg2 = again / "scenario_config.json"
    cfg2.write_text(json.dumps(small_config()))
    s2, f2, p2, b2 = run_pipeline(again, cfg2)
    assert scenario.read_bytes() == s2.read_bytes()
    assert filterlog.read_bytes() == f2.read_bytes()
    assert particles.read_bytes() == p2.read_bytes()
    assert best.read_bytes() == b2.read_bytes()


def test_filter_empty_measurements(tmp_path):
    cfg_data = small_config()
    cfg_data["measurement"]["pD"] = 0.0
    cfg_data["clutter"]["rate"] = 0.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))
    scenario = tmp_path / "sc.json"
    filterlog = tmp_path / "fl.json"
    main(["simulate", "--config", str(cfg), "--out", str(scenario)])
    assert main(["filter", "--scenario", str(scenario), "--out", str(filterlog)]) == 0
    arrays = read_log(filterlog)
    assert arrays["posterior.r"].shape == (0,) and not arrays["posterior.offsets"].any()


def test_singular_birth_covariance_exit_code(tmp_path):
    # zero velocity variance: the jitter policy applies, or the run exits 3
    cfg_data = small_config()
    cfg_data["birth"]["covs"] = [np.diag([400.0, 0.0, 400.0, 0.0]).tolist()]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))
    scenario, filterlog = tmp_path / "sc.json", tmp_path / "fl.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(scenario)]) == 0
    assert main(["filter", "--scenario", str(scenario), "--out", str(filterlog)]) == 0
    argv = ["smooth", "--scenario", str(scenario), "--filterlog", str(filterlog),
            "--out", str(tmp_path / "pt.json"), "--particles", "5"]
    assert main(argv) in (0, 3)


@pytest.mark.parametrize("command", ["simulate", "filter", "mc"])
def test_missing_input_file_is_config_error(tmp_path, capsys, command):
    missing = tmp_path / "missing.json"
    flag = "--scenario" if command == "filter" else "--config"
    assert main([command, flag, str(missing), "--out", str(tmp_path / "out")]) == 2
    assert str(missing) in capsys.readouterr().err


def test_malformed_input_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k_max": ')
    assert main(["filter", "--scenario", str(bad), "--out", str(tmp_path / "fl.json")]) == 2
    assert str(bad) in capsys.readouterr().err


def test_filter_exact_measurements_and_point_init_ppp(tmp_path):
    # Q = 0, R = 0 and a zero-covariance initial PPP: every innovation covariance is zero
    cfg_data = small_config()
    cfg_data["motion"]["sigma_q"] = 0.0
    cfg_data["measurement"]["sigma_r"] = 0.0
    cfg_data["init_ppp"] = {
        "weights": [0.5], "means": [[0.0] * 4], "covs": [np.zeros((4, 4)).tolist()]
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))
    scenario = tmp_path / "sc.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(scenario)]) == 0
    assert main(["filter", "--scenario", str(scenario), "--out", str(tmp_path / "fl.json")]) == 0


def test_smooth_zero_bernoulli_covariances(tmp_path):
    # Q = 0 and point-mass filtering densities: every predicted covariance is zero
    cfg_data = small_config()
    cfg_data["motion"]["sigma_q"] = 0.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))
    scenario, filterlog = tmp_path / "sc.json", tmp_path / "fl.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(scenario)]) == 0
    assert main(["filter", "--scenario", str(scenario), "--out", str(filterlog)]) == 0
    arrays = read_log(filterlog)
    arrays["posterior.covs"][:] = 0.0
    write_log(filterlog, arrays)
    argv = ["smooth", "--scenario", str(scenario), "--filterlog", str(filterlog),
            "--out", str(tmp_path / "pt.json"), "--particles", "5"]
    assert main(argv) == 0


@pytest.mark.parametrize("role", ["scenario", "filterlog", "best"])
def test_wrong_structure_is_config_error(workdir, capsys, role):
    tmp_path, cfg = workdir
    scenario, filterlog, _, best = run_pipeline(tmp_path, cfg)
    files = {"scenario": scenario, "filterlog": filterlog, "best": best}
    files[role].write_text("{}")
    argv = ["evaluate", "--scenario", str(scenario), "--filterlog", str(filterlog),
            "--best", str(best), "--out", str(tmp_path / "report.json")]
    assert main(argv) == 2
    assert str(files[role]) in capsys.readouterr().err


def test_filterlog_mixture_without_covs_is_config_error(workdir, capsys):
    tmp_path, cfg = workdir
    scenario, filterlog, _, _ = run_pipeline(tmp_path, cfg)
    arrays = read_log(filterlog)
    del arrays["posterior.ppp.covs"]
    write_log(filterlog, arrays)
    # every reader of the log reads it whole, through one reader
    inputs = ["--scenario", str(scenario), "--filterlog", str(filterlog)]
    for argv in (["evaluate", *inputs], ["smooth", *inputs, "--particles", "5"], ["oracle", *inputs]):
        out = tmp_path / f"{argv[0]}.json"
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {filterlog}: posterior.ppp.covs is missing\n"
        )
        assert not out.exists()


def test_filter_empty_object_scenario_is_config_error(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["filter", "--scenario", str(empty), "--out", str(tmp_path / "fl.json")]) == 2
    assert str(empty) in capsys.readouterr().err


def mc_config(tmp_path, section="smoother", **values):
    run_cfg = {
        "scenario": small_config(k_max=4),
        "smoother": {"T": 5, "M": 5},
        "mc_runs": 2,
        "seed": 21,
    }
    (run_cfg if section is None else run_cfg.setdefault(section, {})).update(values)
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps(run_cfg))
    return cfg


def test_mc_non_integer_workers_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TRAJSMOOTH_WORKERS", "two")
    cfg = mc_config(tmp_path)
    assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "TRAJSMOOTH_WORKERS" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-2", "0", "1e3"])
def test_mc_workers_below_one_or_not_integer_is_config_error(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("TRAJSMOOTH_WORKERS", value)
    cfg = mc_config(tmp_path)
    assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "TRAJSMOOTH_WORKERS" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_mc_non_numeric_value_is_config_error(tmp_path, capsys):
    cfg = mc_config(tmp_path, T="many")
    assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert str(cfg) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key, value, field",
    [
        ("smoother", "T", 0, "num_particles"),
        ("smoother", "T", 2.7, "num_particles"),
        ("filter", "M_forward", 0, "m_best"),
        ("filter", "prune_r", 1.5, "prune_r"),
        ("smoother", "dirac_mode", "false", "dirac_mode"),
        ("smoother", "gate_gamma", 1.0, "gate_gamma"),
        ("metric", "pos_idx", [7], "pos_idx"),
        (None, "mc_runs", 2.7, "mc_runs"),
        (None, "seed", 2.5, "seed"),
        # the filter predicts a Gaussian-mixture birth only
        ("scenario", "birth", {**small_config()["birth"], "uniform_density": 0.01},
         "scenario.birth.uniform_density must be 0"),
    ],
)
def test_mc_bad_setting_exits_2_before_any_run(
    tmp_path, capsys, monkeypatch, section, key, value, field
):
    cfg = mc_config(tmp_path, section, **{key: value})
    runs = []
    monkeypatch.setattr("trajsmooth.cli._mc_single", runs.append)
    assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert runs == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flags, field",
    [
        ("filter", ["--filter-m-best", "0"], "m_best"),
        ("filter", ["--prune-r", "1.5"], "prune_r"),
        ("filter", ["--gate-prob", "1.5"], "gate_prob"),
        ("smooth", ["--particles", "0"], "num_particles"),
        ("smooth", ["--gate-prob", "1.5"], "gate_prob"),
        ("smooth", ["--w-hyp-min", "2"], "w_hyp_min"),
        ("smooth", ["--seed", "-1"], "seed"),
        ("evaluate", ["--pos-idx", "9"], "pos_idx"),
        ("oracle", ["--prune", "-1"], "prune"),
        ("oracle", ["--prune", "2"], "prune"),
        # 1 - 1e-17 rounds to 1: the gate would be 0
        ("filter", ["--gate-prob", "1e-17"], "gate_prob"),
        ("smooth", ["--gate-prob", "1e-17"], "gate_prob"),
    ],
)
def test_cli_bad_setting_exits_2_before_any_work(tmp_path, capsys, command, flags, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config(k_max=4)))
    scenario, filterlog = tmp_path / "sc.json", tmp_path / "fl.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(scenario)]) == 0
    assert main(["filter", "--scenario", str(scenario), "--out", str(filterlog)]) == 0
    inputs = ["--scenario", str(scenario)] + (
        [] if command == "filter" else ["--filterlog", str(filterlog)]
    )
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main([command, *inputs, "--out", str(out), *flags]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_smooth_and_oracle_take_uniform_birth(tmp_path):
    # only the forward filter refuses a uniform birth intensity
    cfg_data = small_config(k_max=3)
    cfg_data["clutter"]["rate"] = 0.5
    cfg, scenario, filterlog = tmp_path / "cfg.json", tmp_path / "sc.json", tmp_path / "fl.json"
    cfg.write_text(json.dumps(cfg_data))
    assert main(["simulate", "--config", str(cfg), "--out", str(scenario)]) == 0
    assert main(["filter", "--scenario", str(scenario), "--out", str(filterlog),
                 "--prune-r", "0.01", "--prune-w", "0.01"]) == 0
    data = json.loads(scenario.read_text())
    set_at(data, ("models", "birth", "uniform_density"), 0.01)
    scenario.write_text(json.dumps(data))
    inputs = ["--scenario", str(scenario), "--filterlog", str(filterlog)]
    assert main(["smooth", *inputs, "--out", str(tmp_path / "pt.json"), "--particles", "5"]) == 0
    assert main(["oracle", *inputs, "--out", str(tmp_path / "oracle.json"), "--prune", "1e-4"]) == 0


def test_parameter_schema_one_default_per_field(tmp_path):
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps({"scenario": small_config(k_max=4), "mc_runs": 1, "seed": 1}))
    run = _load_run_config(cfg)
    owners = {
        "filter": (FilterParams(), run.filter, ["filter"]),
        "smoother": (SmootherParams(), run.smoother, ["smooth", "--filterlog", "fl"]),
    }
    metric = inspect.signature(gospa_over_time).parameters
    parser = build_parser()
    for section, (_, rows) in _SCHEMA.items():
        names, flags, keys = (list(column) for column in zip(*rows))
        assert len(set(names)) == len(set(flags)) == len(set(keys)) == len(rows)
        if section == "metric":
            assert set(names) == set(metric) - {"estimates_per_step", "truth"}
            defaults = {name: metric[name].default for name in names}
            from_mc, argv = run.metric, ["evaluate"]
        else:
            default_params, mc_params, argv = owners[section]
            assert set(names) == {f.name for f in fields(default_params)} - {"seed"}
            defaults = {name: getattr(default_params, name) for name in names}
            from_mc = {name: getattr(mc_params, name) for name in names}
        args = parser.parse_args([*argv, "--scenario", "sc", "--out", "out"])
        assert {name: getattr(args, name) for name in names} == defaults
        assert from_mc == defaults
    # the oracle's one setting lives outside the table, with the same owner rule
    args = parser.parse_args(
        ["oracle", "--scenario", "sc", "--filterlog", "fl", "--out", "out"]
    )
    assert args.prune == inspect.signature(exact_smooth).parameters["prune"].default


def test_scenario2_runs_end_to_end(tmp_path):
    scenario = tmp_path / "sc2.json"
    filterlog = tmp_path / "fl2.json"
    assert main(["simulate", "--config", str(CONFIGS / "scenario2.json"), "--out", str(scenario)]) == 0
    assert main(["filter", "--scenario", str(scenario), "--out", str(filterlog)]) == 0
    arrays = read_log(filterlog)
    # the log is the posteriors and nothing else
    assert sorted(arrays) == sorted([
        "k_max",
        "posterior.r", "posterior.means", "posterior.covs", "posterior.offsets",
        "posterior.ppp.weights", "posterior.ppp.means", "posterior.ppp.covs",
        "posterior.ppp.offsets",
    ])
    assert arrays["k_max"] == 20 and all(
        len(arrays[f"{family}.offsets"]) == 21 for family in ("posterior", "posterior.ppp")
    )


def test_evaluate_truth_vs_truth_zero(workdir):
    tmp_path, cfg = workdir
    scenario, filterlog, particles, best = run_pipeline(tmp_path, cfg)
    truth = json.loads(scenario.read_text())["truth"]["trajectories"]
    perfect = tmp_path / "perfect.json"
    perfect.write_text(json.dumps({"c": 0.0, "trajectories": truth}))
    report = tmp_path / "report.json"
    csv_path = tmp_path / "metrics.csv"
    assert (
        main(
            [
                "evaluate",
                "--scenario", str(scenario),
                "--best", str(perfect),
                "--out", str(report),
                "--csv", str(csv_path),
            ]
        )
        == 0
    )
    data = json.loads(report.read_text())
    assert data["sources"]["smoothed"]["gospa_total"] == 0.0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,source,total,localisation,missed,false"
    assert len(lines) == 1 + 6


def test_evaluate_aggregates_match_recomputed_means(workdir):
    tmp_path, cfg = workdir
    scenario, filterlog, particles, best = run_pipeline(tmp_path, cfg)
    report = tmp_path / "report.json"
    csv_path = tmp_path / "metrics.csv"
    main(
        [
            "evaluate",
            "--scenario", str(scenario),
            "--filterlog", str(filterlog),
            "--best", str(best),
            "--out", str(report),
            "--csv", str(csv_path),
        ]
    )
    data = json.loads(report.read_text())
    rows = [line.split(",") for line in csv_path.read_text().strip().splitlines()[1:]]
    for source in ("filter", "smoothed"):
        total = sum(float(r[2]) for r in rows if r[1] == source)
        assert data["sources"][source]["gospa_total"] == pytest.approx(total)


def test_oracle_command(tmp_path):
    cfg_data = small_config(k_max=3)
    cfg_data["clutter"]["rate"] = 0.5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))
    scenario = tmp_path / "sc.json"
    filterlog = tmp_path / "fl.json"
    oracle_out = tmp_path / "oracle.json"
    main(["simulate", "--config", str(cfg), "--out", str(scenario)])
    # hard pruning keeps the track count at oracle scale
    main(
        [
            "filter",
            "--scenario", str(scenario),
            "--out", str(filterlog),
            "--prune-r", "0.01",
            "--prune-w", "0.01",
        ]
    )
    assert (
        main(
            [
                "oracle",
                "--scenario", str(scenario),
                "--filterlog", str(filterlog),
                "--out", str(oracle_out),
                "--prune", "1e-4",
            ]
        )
        == 0
    )
    data = json.loads(oracle_out.read_text())
    weights = [h["weight"] for h in data["hypotheses"]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-6)


def test_mc_single_run_equals_pipeline(tmp_path):
    run_cfg = {
        "scenario": small_config(),
        "filter": {"M_forward": 10},
        "smoother": {"T": 10, "M": 10},
        "metric": {"c": 20.0, "p": 1.0, "pos_idx": [0, 2]},
        "mc_runs": 2,
        "seed": 3,
    }
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps(run_cfg))
    out = tmp_path / "out"
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mc_runs"] == 2
    assert len(set(report["derived_seeds"])) == 2
    per_run = report["per_run"]
    mean = sum(r["filter"]["gospa_total"] for r in per_run) / 2
    assert report["aggregate"]["filter_mean_gospa"] == pytest.approx(mean)
    assert (out / "timings.json").exists()


def test_mc_reproducible_report(tmp_path):
    run_cfg = {
        "scenario": small_config(),
        "smoother": {"T": 5, "M": 5},
        "mc_runs": 1,
        "seed": 9,
    }
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps(run_cfg))
    a, b = tmp_path / "a", tmp_path / "b"
    main(["mc", "--config", str(cfg), "--out", str(a)])
    main(["mc", "--config", str(cfg), "--out", str(b)])
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_console_entry_point():
    # the child imports the same package as this process, installed or not
    src = str(Path(trajsmooth.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "trajsmooth.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "mc" in proc.stdout


def test_import_leaves_scipy_unloaded():
    src = str(Path(trajsmooth.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, trajsmooth, trajsmooth.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_smooth_diagnostics_dead_ppp(workdir):
    tmp_path, cfg = workdir
    scenario = tmp_path / "sc.json"
    filterlog = tmp_path / "fl.json"
    particles = tmp_path / "pt.json"
    diag = tmp_path / "diag.json"
    main(["simulate", "--config", str(cfg), "--out", str(scenario)])
    main(["filter", "--scenario", str(scenario), "--out", str(filterlog)])
    assert (
        main(
            [
                "smooth",
                "--scenario", str(scenario),
                "--filterlog", str(filterlog),
                "--out", str(particles),
                "--particles", "5",
                "--seed", "1",
                "--diagnostics", str(diag),
            ]
        )
        == 0
    )
    data = json.loads(diag.read_text())
    values = data["ppp_dead_expected_cardinality"]
    assert len(values) == 6
    expected = 0.02 * sum(log_rows(read_log(filterlog), "posterior.ppp.weights", 0))
    assert values[0] == pytest.approx(expected)


def test_mc_worker_pool_matches_serial(tmp_path, monkeypatch):
    run_cfg = {
        "scenario": small_config(k_max=4),
        "smoother": {"T": 5, "M": 5},
        "mc_runs": 3,
        "seed": 21,
    }
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps(run_cfg))
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    monkeypatch.setenv("TRAJSMOOTH_WORKERS", "1")
    main(["mc", "--config", str(cfg), "--out", str(serial)])
    monkeypatch.setenv("TRAJSMOOTH_WORKERS", "2")
    main(["mc", "--config", str(cfg), "--out", str(pooled)])
    assert (serial / "report.json").read_bytes() == (pooled / "report.json").read_bytes()


def scenario1_cut(tmp_path):
    """configs/scenario1.json cut to 30 steps, as a config file."""
    cfg = json.loads((CONFIGS / "scenario1.json").read_text())
    cfg["K"] = 30
    cfg["schedule"]["deaths"] = [min(d, 30) for d in cfg["schedule"]["deaths"]]
    path = tmp_path / "scenario1_cut.json"
    path.write_text(json.dumps(cfg))
    return path


# sha256 of `smooth --diagnostics` on scenario1 cut to 30 steps and filtered
# without PPP pruning, recorded before the filter log's densities were stored as
# arrays; ndarray.sum over the weights changes one step's value in the last bit
PINNED_DIAGNOSTICS = "da788682c83e33f9c957a3eb138b22af0eeedd64bc5a511a9d4952dfaaba1b37"


def test_smooth_diagnostics_pinned_bytes(tmp_path):
    scenario, filterlog, diag = (tmp_path / n for n in ("sc.json", "fl.json", "diag.json"))
    assert main(["simulate", "--config", str(scenario1_cut(tmp_path)), "--out", str(scenario)]) == 0
    flags = ["--prune-w", "0"]
    assert main(["filter", "--scenario", str(scenario), "--out", str(filterlog), *flags]) == 0
    argv = ["smooth", "--scenario", str(scenario), "--filterlog", str(filterlog),
            "--out", str(tmp_path / "pt.json"), "--particles", "1", "--diagnostics", str(diag)]
    assert main(argv) == 0
    assert hashlib.sha256(diag.read_bytes()).hexdigest() == PINNED_DIAGNOSTICS
    # Python's left-to-right sum over the weights, which ndarray.sum (pairwise) is not
    ps = json.loads(scenario.read_text())["models"]["motion"]["ps"]
    arrays = read_log(filterlog)
    expected = [
        (1.0 - ps) * sum(log_rows(arrays, "posterior.ppp.weights", k).tolist())
        for k in range(arrays["k_max"])
    ]
    assert json.loads(diag.read_text())["ppp_dead_expected_cardinality"] == expected


def _pipeline_argv(tmp_path):
    """Every command's argv on a small scenario, with the earlier stages' files written."""
    cfg, scenario, filterlog = (tmp_path / n for n in ("cfg.json", "sc.json", "fl.json"))
    best = tmp_path / "best.json"
    cfg_data = small_config(k_max=3)
    cfg_data["clutter"]["rate"] = 0.5
    cfg.write_text(json.dumps(cfg_data))
    assert main(["simulate", "--config", str(cfg), "--out", str(scenario)]) == 0
    flags = ["--prune-r", "0.01", "--prune-w", "0.01"]
    assert main(["filter", "--scenario", str(scenario), "--out", str(filterlog), *flags]) == 0
    read = ["--scenario", str(scenario), "--filterlog", str(filterlog)]
    smooth = ["smooth", *read, "--particles", "5", "--smoother-m-best", "5"]
    assert main([*smooth, "--out", str(tmp_path / "pt.json"), "--best-out", str(best)]) == 0
    return {
        "simulate": ["simulate", "--config", str(cfg)],
        "filter": ["filter", "--scenario", str(scenario), *flags],
        "smooth": [*smooth, "--out", str(tmp_path / "pt2.json")],
        "oracle": ["oracle", *read, "--prune", "1e-4"],
        "evaluate": ["evaluate", *read, "--best", str(best), "--out", str(tmp_path / "r.json")],
        "mc": ["mc", "--config", str(mc_config(tmp_path))],
    }


@pytest.mark.parametrize("kind", ["under_a_file", "a_directory"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("simulate", "--out"),
        ("filter", "--out"),
        ("smooth", "--best-out"),
        ("oracle", "--out"),
        ("evaluate", "--csv"),
        ("mc", "--out"),
    ],
)
def test_unwritable_output_exits_2(tmp_path, capsys, command, flag, kind):
    argv = _pipeline_argv(tmp_path)[command]
    blocker = tmp_path / "blocker"
    if kind == "under_a_file":
        blocker.write_text("a file, not a directory")
        target = blocker / "out"
    else:
        target = blocker
        # mc writes report.json into its --out directory
        (blocker / "report.json" if command == "mc" else blocker).mkdir(parents=True)
    capsys.readouterr()
    assert main([*argv, flag, str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write ") and "Traceback" not in err
    assert not [p for p in tmp_path.rglob("*.tmp")]


@pytest.mark.parametrize("error, code", [(RuntimeError, None), (OSError, 2)])
def test_filter_log_failing_partway_leaves_no_file(tmp_path, monkeypatch, error, code):
    argv = _pipeline_argv(tmp_path)["filter"]
    out = tmp_path / "new.json"

    def failing(fh, **arrays):
        fh.write(b"PK\x03\x04 part of an archive")
        raise error("writer failed")

    monkeypatch.setattr(np, "savez", failing)
    if code is None:
        with pytest.raises(error, match="writer failed"):
            main([*argv, "--out", str(out)])
    else:
        assert main([*argv, "--out", str(out)]) == code
    assert not out.exists()
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]
    # an existing file keeps its bytes
    out.write_text("earlier log")
    with pytest.raises(error) if code is None else contextlib.nullcontext():
        main([*argv, "--out", str(out)])
    assert out.read_text() == "earlier log"


@pytest.mark.parametrize("name", ["filterlog.json", "filterlog", "filterlog.npz"])
def test_filter_log_lands_at_the_given_path(tmp_path, name):
    # np.savez given a path adds ".npz" to a name without it; the log lands at the name given
    argv = _pipeline_argv(tmp_path)["filter"]
    first, second = tmp_path / "a" / name, tmp_path / "b" / name
    assert main([*argv, "--out", str(first)]) == 0
    assert main([*argv, "--out", str(second)]) == 0
    assert [p.name for p in first.parent.iterdir()] == [name]
    assert first.read_bytes()[:4] == b"PK\x03\x04"
    assert first.read_bytes() == second.read_bytes()


def test_filter_log_streamed_bytes_equal_whole_dump(tmp_path):
    # the archive `filter` streams to its file is the one np.savez makes of the whole log in memory
    argv = _pipeline_argv(tmp_path)["filter"]
    out = tmp_path / "streamed.json"
    assert main([*argv, "--out", str(out)]) == 0
    scenario = scenario_from_jsonable(json.loads(Path(argv[2]).read_text()))
    log = run_forward(scenario, FilterParams(prune_r=0.01, prune_w=0.01))
    whole = io.BytesIO()
    np.savez(whole, **filterlog_to_arrays(log, scenario.motion.dim))
    assert out.read_bytes() == whole.getvalue()


def older_layout(arrays: dict, scenario) -> dict:
    """`arrays` of a filter log and the two families that logs held before they held the
    posteriors only, the predicted intensities and the estimates, in the order written."""
    dim = scenario.motion.dim
    posteriors = filterlog_from_arrays(arrays, dim).posteriors
    priors = [PMBDensity(scenario.init_ppp), *posteriors[:-1]]
    predicted = [predict_pmb(p, scenario.motion, scenario.birth).ppp for p in priors]
    estimates = [np.reshape(extract_estimates(p), (-1, dim)) for p in posteriors]
    return {
        **arrays,
        "predicted_ppp.weights": np.concatenate([q.weights for q in predicted]),
        "predicted_ppp.means": np.concatenate([q.means for q in predicted]),
        "predicted_ppp.covs": np.concatenate([q.covs for q in predicted]),
        "predicted_ppp.offsets": np.cumsum([0, *map(len, predicted)], dtype=np.int64),
        "estimates": np.concatenate(estimates),
        "estimates.offsets": np.cumsum([0, *map(len, estimates)], dtype=np.int64),
    }


def test_older_log_layout_gives_the_same_outputs(tmp_path, monkeypatch):
    # smooth, oracle and evaluate read a log that also holds the predicted intensities
    # and the estimates as they read the posteriors alone, and never load those arrays
    argv = _pipeline_argv(tmp_path)
    filterlog = tmp_path / "fl.json"
    scenario = scenario_from_jsonable(json.loads((tmp_path / "sc.json").read_text()))
    outputs = {}
    for layout in ("posteriors", "older"):
        if layout == "older":
            write_log(filterlog, older_layout(read_log(filterlog), scenario))
            assert len(read_log(filterlog)) == 15
        loaded = []
        getitem = np.lib.npyio.NpzFile.__getitem__
        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__",
                            lambda self, key: loaded.append(key) or getitem(self, key))
        for command in ("smooth", "oracle", "evaluate"):
            out = tmp_path / f"{layout}-{command}.json"
            assert main([*argv[command], "--out", str(out)]) == 0
            outputs[layout, command] = out.read_bytes()
        monkeypatch.undo()
        assert loaded and not {key for key in loaded if key.startswith(("predicted", "estimates"))}
    for command in ("smooth", "oracle", "evaluate"):
        assert outputs["older", command] == outputs["posteriors", command]


def test_filter_log_memory_stays_below_twice_the_file(tmp_path):
    # stacking, writing, reading and checking the whole 81-step scenario1 log
    path = tmp_path / "sc.json"
    assert main(["simulate", "--config", str(CONFIGS / "scenario1.json"), "--out", str(path)]) == 0
    scenario = scenario_from_jsonable(json.loads(path.read_text()))
    log = run_forward(scenario)
    out = tmp_path / "fl.json"
    peaks = []
    for step in (
        lambda: cli._write(out, partial(np.savez, **filterlog_to_arrays(log, 4))),
        lambda: cli._read_log(out, scenario),
    ):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    size = out.stat().st_size
    assert size > 500_000
    assert max(peaks) < 2 * size, (peaks, size)


# sha256 of the particles, best particle and report of scenario1 at seed 3 through
# simulate, filter, smooth (10 sampled-head particles) and evaluate, as BENCH_20.json
# recorded them before the filter log became an .npz archive; and of the log's
# posteriors as read back, recorded while the log still held the predicted
# intensities and the estimates
PINNED_SCENARIO1_SEED3 = {
    "s1_3_pt.json": "afd287619e426742cd67c16ffcf6e13bb47b27d7e1fbaece0185982645121419",
    "s1_3_bp.json": "39fb066f233079f15b940e4967c23738d0149c8a154fe42ba94ff017e01c01e9",
    "s1_3_rep.json": "43831732b913aee988082fb9834b93ff7c7c0b7052e2f63642e1b769d3ff1a46",
    "s1_3_posteriors": "9adc21c79d53d7c9b5da0c62cbc4df93517dcfd99fd5dd7a278e776174a4bd6b",
}


def test_scenario1_pipeline_pinned_bytes(tmp_path):
    root = CONFIGS.parent
    spec = importlib.util.spec_from_file_location("artifact_checks", root / "tools" / "artifact_checks.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.scenario1_checks(root, 3, tmp_path) == PINNED_SCENARIO1_SEED3
