"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Tolerances and budgets are fixed here, not tuned
at runtime.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import crossing_example, empirical_tv, g, make_log, tv_toy

from trajsmooth.assignment import murty
from trajsmooth.backward import (
    SmootherParams,
    backward_simulate,
    build_backward_kernel,
)
from trajsmooth.cli import main
from trajsmooth.errors import InfeasibleAssignmentError
from trajsmooth.forward import BernoulliComponent, PMBDensity
from trajsmooth.gaussians import (
    GaussianDensity,
    GaussianMixture,
    LinearMotionModel,
    smooth_head,
)
from trajsmooth.metrics import gospa, particle_stats
from trajsmooth.models import BirthModel
from trajsmooth.oracle import exact_smooth
from trajsmooth.simulate import GroundTruth, Scenario
from trajsmooth.trajectory import Trajectory

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(num: int, ok: bool, detail: str):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def test_criterion_01_assignment_exactness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    for _ in range(200):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, 9))
        cost = rng.uniform(0.0, 10.0, size=(m, n))
        cost[rng.random((m, n)) < 0.2] = np.inf
        # independent ranking oracle: full enumeration over column tuples
        ranked = []
        for cols in itertools.permutations(range(n), m):
            total = 0.0
            feasible = True
            for i, j in enumerate(cols):
                v = float(cost[i, j])
                if not np.isfinite(v):
                    feasible = False
                    break
                total += v
            if feasible:
                ranked.append((total, cols))
        ranked.sort()
        if not ranked:
            with pytest.raises(InfeasibleAssignmentError):
                murty(cost, 30)
            continue
        got = murty(cost, 30)
        assert [a.cost for a in got] == [t for t, _ in ranked[:30]]
        checked += 1
    elapsed = time.perf_counter() - start
    report(1, elapsed < 5.0, f"200 matrices exact vs brute force ({checked} feasible), {elapsed:.2f}s < 5s")


def test_criterion_02_smoothing_algebra():
    rng = np.random.default_rng(202)
    max_dev = 0.0
    min_eig = np.inf
    trace_ok = True
    for _ in range(1000):
        nx = int(rng.integers(1, 5))
        a = rng.standard_normal((nx, nx))
        p_mat = a @ a.T + nx * np.eye(nx)
        b = rng.standard_normal((nx, nx))
        q_mat = 0.5 * (b @ b.T) + 0.1 * np.eye(nx)
        f_mat = rng.standard_normal((nx, nx))
        x = rng.standard_normal(nx)
        y1 = rng.standard_normal(nx)
        out = smooth_head(
            GaussianDensity(x, p_mat), LinearMotionModel(f_mat, q_mat, ps=1.0), y1
        )
        # independent one-step RTS update against a zero-covariance successor
        p_pred = f_mat @ p_mat @ f_mat.T + q_mat
        gain = p_mat @ f_mat.T @ np.linalg.inv(p_pred)
        x_ref = x + gain @ (y1 - f_mat @ x)
        p_ref = p_mat + gain @ (np.zeros((nx, nx)) - p_pred) @ gain.T
        max_dev = max(
            max_dev,
            float(np.abs(out.mean - x_ref).max()),
            float(np.abs(out.cov - p_ref).max()),
        )
        min_eig = min(min_eig, float(np.linalg.eigvalsh(out.cov).min()))
        trace_ok = trace_ok and np.trace(out.cov) <= np.trace(p_mat) + 1e-10
    ok = max_dev < 1e-10 and min_eig > -1e-9 and trace_ok
    report(2, ok, f"max dev {max_dev:.2e} < 1e-10, min eig {min_eig:.2e} > -1e-9, traces nonincreasing")


def test_criterion_03_kernel_normalization():
    rng = np.random.default_rng(303)
    motion = LinearMotionModel([[1.0]], [[0.5]], ps=0.9)
    birth = BirthModel(GaussianMixture(((0.1, g(0.0, 30.0)),)))
    worst_split = 0.0
    worst_norm = 0.0
    exist_ok = True
    for _ in range(100):
        bern = tuple(
            BernoulliComponent(rng.uniform(0.05, 1.0), g(rng.uniform(-4, 4), 0.2))
            for _ in range(rng.integers(0, 4))
        )
        ppp = GaussianMixture(
            tuple((rng.uniform(0.05, 0.5), g(rng.uniform(-4, 4), 0.5)) for _ in range(2))
        )
        pmb = PMBDensity(ppp, bern)
        k = 3
        trajs = [
            Trajectory(k + 1 + int(rng.integers(0, 2)), rng.uniform(-4, 4, (2, 1)))
            for _ in range(rng.integers(1, 4))
        ]
        kernel = build_backward_kernel(pmb, birth, motion, trajs, gate=1e9, k=k)
        for hyp in (*kernel.ended, *kernel.continued.values(), *kernel.first_detected):
            exist_ok = exist_ok and 0.0 <= hyp.existence <= 1.0
            fd = hyp.density
            if hasattr(fd, "w_keep"):
                worst_split = max(worst_split, abs(fd.w_keep + fd.w_extend - 1.0))
        hyps = murty(kernel.cost, 50)
        log_w = np.array([-h.cost for h in hyps])
        probs = np.exp(log_w - log_w.max())
        probs /= probs.sum()
        worst_norm = max(worst_norm, abs(probs.sum() - 1.0))
    ok = worst_split <= 1e-12 and worst_norm <= 1e-9 and exist_ok
    report(3, ok, f"keep+extend split off by {worst_split:.1e} <= 1e-12, norm off by {worst_norm:.1e} <= 1e-9, existences in [0,1]")


def test_criterion_04_sampler_oracle_equivalence():
    start = time.perf_counter()
    log, birth, motion = tv_toy()  # sigma = 1e-4 heads, pS = 0.9, single birth comp
    post = exact_smooth(log, birth, motion, prune=1e-10)
    params = SmootherParams(
        num_particles=100_000, m_best=64, gate_prob=1.0, w_hyp_min=0.0, seed=404
    )
    particles = backward_simulate(log, birth, motion, params)
    tv = empirical_tv(particles, post, resolution=0.1)
    elapsed = time.perf_counter() - start
    ok = tv < 0.02 and elapsed < 60.0
    report(4, ok, f"TV {tv:.4f} < 0.02 at T=1e5, {elapsed:.1f}s < 60s")


def test_criterion_05_seven_hypotheses_structure():
    mk = lambda xs: PMBDensity(
        GaussianMixture(),
        tuple(BernoulliComponent(1.0, g([x, 0.1], np.zeros((2, 2)))) for x in xs),
    )
    log = make_log([mk([-0.4, 0.3]), mk([-0.3, 0.2])])
    birth = BirthModel(GaussianMixture(), uniform_density=0.05)
    F = np.array([[1.0, 1.0], [0.0, 1.0]])
    Q = (1.0 / 900.0) * np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
    motion = LinearMotionModel(F, Q, ps=0.95)
    post = exact_smooth(log, birth, motion, prune=0.0)
    count = len(post.hypotheses)
    report(5, count == 7, f"one backward step over two Dirac pairs: {count} hypotheses == 7")


def test_criterion_06_crossing_example_map_ordering():
    log, birth, motion, _ = crossing_example()
    post = exact_smooth(log, birth, motion, prune=1e-9)
    top = post.hypotheses[0]
    unbroken = len(top.trajectories) == 2 and all(
        tr.t == 1 and tr.length == 8 for tr in top.trajectories
    )
    w = post.weights
    ordered = len(w) >= 3 and w[0] > w[1] > w[2]
    report(
        6,
        unbroken and ordered,
        f"MAP has two unbroken 1:8 trajectories ({unbroken}); weights {w[0]:.3f} > {w[1]:.3e} > {w[2]:.3e}",
    )


def test_criterion_07_smoothing_improves_filtering(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "mc"
    code = main(["mc", "--config", str(CONFIGS / "desk_mc.json"), "--out", str(out)])
    assert code == 0
    reportj = json.loads((out / "report.json").read_text())
    agg = reportj["aggregate"]
    elapsed = time.perf_counter() - start
    margin_ok = agg["mean_diff"] > 2.0 * agg["se_diff"]
    ok = margin_ok and elapsed < 900.0
    report(
        7,
        ok,
        f"filter {agg['filter_mean_gospa']:.1f} vs smoothed {agg['smoothed_mean_gospa']:.1f}, "
        f"diff {agg['mean_diff']:.1f} > 2*SE {2 * agg['se_diff']:.1f}, {elapsed:.0f}s < 900s",
    )


def test_criterion_08_gospa_units_and_axioms():
    unit = gospa([np.zeros(2)], [], c=20.0, p=1.0)
    unit_ok = unit.total == pytest.approx(10.0) and unit.missed == pytest.approx(10.0)
    rng = np.random.default_rng(808)
    axioms_ok = True
    for _ in range(1000):
        sets = [
            [rng.uniform(-30, 30, 2) for _ in range(rng.integers(0, 4))]
            for _ in range(3)
        ]
        dxy = gospa(sets[0], sets[1], 20.0, 1.0).total
        dyx = gospa(sets[1], sets[0], 20.0, 1.0).total
        dyz = gospa(sets[1], sets[2], 20.0, 1.0).total
        dxz = gospa(sets[0], sets[2], 20.0, 1.0).total
        axioms_ok = axioms_ok and abs(dxy - dyx) <= 1e-9 and dxz <= dxy + dyz + 1e-9
        same = gospa(sets[0], list(sets[0]), 20.0, 1.0).total
        axioms_ok = axioms_ok and abs(same) <= 1e-9
    report(8, unit_ok and axioms_ok, "d({x},0)=10 at c=20,p=1; symmetry/identity/triangle on 1e3 triples")


def test_criterion_09_statistics_sanity():
    # noiseless single object, pd=1, no clutter: track must be born at step 1
    k_max = 6
    motion = LinearMotionModel([[1.0]], [[0.01]], ps=0.98)
    birth = BirthModel(GaussianMixture(((0.05, g(5.0, 1.0)),)))
    truth = GroundTruth((Trajectory(1, np.full((k_max, 1), 5.0)),), k_max)
    from trajsmooth.forward import run_forward
    from trajsmooth.models import ClutterModel, MeasurementModel

    scenario = Scenario(
        truth=truth,
        measurements=[[np.array([5.0])] for _ in range(k_max)],
        motion=motion,
        measurement=MeasurementModel([[1.0]], [[0.01]], pd=1.0),
        clutter=ClutterModel(0.0, [[-10.0, 10.0]]),
        birth=birth,
        init_ppp=birth.intensity,
        seed=0,
    )
    log = run_forward(scenario)
    particles = backward_simulate(
        log, birth, motion, SmootherParams(num_particles=500, m_best=10, seed=909)
    )
    stats = particle_stats(particles, k_max)
    sums_ok = abs(stats.card_dist.sum() - 1.0) <= 1e-12
    for dist in stats.birth_dist + stats.death_dist:
        sums_ok = sums_ok and abs(dist.sum() - 1.0) <= 1e-12
    p_birth1 = stats.birth_dist[0][1] if len(stats.birth_dist[0]) > 1 else 0.0
    # the toy structure-check run must also produce exactly normalized stats
    log2, birth2, motion2 = tv_toy()
    particles2 = backward_simulate(
        log2, birth2, motion2, SmootherParams(num_particles=2000, m_best=32, seed=910)
    )
    stats2 = particle_stats(particles2, 3)
    for dist in [stats2.card_dist, *stats2.birth_dist, *stats2.death_dist]:
        sums_ok = sums_ok and abs(dist.sum() - 1.0) <= 1e-12
    ok = sums_ok and p_birth1 > 0.95
    report(9, ok, f"distributions sum to 1 +- 1e-12; Pr(1 birth at step 1) = {p_birth1:.3f} > 0.95")


def test_criterion_10_reproducibility(tmp_path):
    cfg = {
        "K": 5,
        "motion": {"model": "cv", "Ts": 1.0, "sigma_q": 0.1, "pS": 0.98},
        "measurement": {"model": "position", "sigma_r": 1.0, "pD": 0.9},
        "clutter": {"rate": 1.0, "region": [[-40.0, 40.0], [-40.0, 40.0]]},
        "birth": {
            "weights": [0.05],
            "means": [[0.0, 0.0, 0.0, 0.0]],
            "covs": [np.diag([400.0, 1.0, 400.0, 1.0]).tolist()],
        },
        "schedule": {
            "births": [1],
            "deaths": [5],
            "init_means": [[-10.0, 1.0, 0.0, 0.5]],
            "init_cov": np.diag([4.0, 0.04, 4.0, 0.04]).tolist(),
        },
        "seed": 1001,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    mc_cfg = tmp_path / "mc.json"
    mc_cfg.write_text(
        json.dumps({"scenario": cfg, "smoother": {"T": 10, "M": 10}, "mc_runs": 2, "seed": 4})
    )

    def run(base: Path) -> dict[str, bytes]:
        base.mkdir()
        sc, fl = base / "sc.json", base / "fl.json"
        pt, bp = base / "pt.json", base / "bp.json"
        rep, csvf = base / "rep.json", base / "m.csv"
        orc = base / "orc.json"
        mc_out = base / "mc"
        main(["simulate", "--config", str(cfg_path), "--out", str(sc)])
        main(["filter", "--scenario", str(sc), "--out", str(fl), "--prune-r", "0.01", "--prune-w", "0.01"])
        main(["smooth", "--scenario", str(sc), "--filterlog", str(fl), "--out", str(pt),
              "--best-out", str(bp), "--particles", "15", "--seed", "6"])
        main(["oracle", "--scenario", str(sc), "--filterlog", str(fl), "--out", str(orc), "--prune", "1e-3"])
        main(["evaluate", "--scenario", str(sc), "--filterlog", str(fl), "--best", str(bp),
              "--out", str(rep), "--csv", str(csvf)])
        main(["mc", "--config", str(mc_cfg), "--out", str(mc_out)])
        return {
            p.name: p.read_bytes()
            for p in [sc, fl, pt, bp, orc, rep, csvf, mc_out / "report.json"]
        }

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    mismatched = [name for name in first if first[name] != second[name]]
    report(10, not mismatched, f"all pipeline stages byte-identical (mismatches: {mismatched})")
