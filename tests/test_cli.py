import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trajsmooth
from trajsmooth.cli import main

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
    data = json.loads(filterlog.read_text())
    assert all(step["posterior"]["bernoullis"] == [] for step in data["steps"])


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
    data = json.loads(filterlog.read_text())
    for step in data["steps"]:
        for b in step["posterior"]["bernoullis"]:
            b["cov"] = np.zeros((4, 4)).tolist()
    filterlog.write_text(json.dumps(data))
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


def test_filter_empty_object_scenario_is_config_error(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["filter", "--scenario", str(empty), "--out", str(tmp_path / "fl.json")]) == 2
    assert str(empty) in capsys.readouterr().err


def mc_config(tmp_path, **smoother):
    run_cfg = {
        "scenario": small_config(k_max=4),
        "smoother": {"T": 5, "M": 5, **smoother},
        "mc_runs": 2,
        "seed": 21,
    }
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps(run_cfg))
    return cfg


def test_mc_non_integer_workers_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TRAJSMOOTH_WORKERS", "two")
    cfg = mc_config(tmp_path)
    assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "TRAJSMOOTH_WORKERS" in capsys.readouterr().err


def test_mc_non_numeric_value_is_config_error(tmp_path, capsys):
    cfg = mc_config(tmp_path, T="many")
    assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert str(cfg) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scenario2_runs_end_to_end(tmp_path):
    scenario = tmp_path / "sc2.json"
    filterlog = tmp_path / "fl2.json"
    assert main(["simulate", "--config", str(CONFIGS / "scenario2.json"), "--out", str(scenario)]) == 0
    assert main(["filter", "--scenario", str(scenario), "--out", str(filterlog)]) == 0
    data = json.loads(filterlog.read_text())
    assert len(data["steps"]) == 20


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
    fl = json.loads(filterlog.read_text())
    expected = 0.02 * sum(fl["steps"][0]["posterior"]["ppp"]["weights"])
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
