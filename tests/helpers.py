"""Shared toy problems for oracle/backward-simulation tests and acceptance runs."""

import hashlib
import json
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from trajsmooth.forward import BernoulliComponent, FilterLog, FilterParams, PMBDensity, run_forward
from trajsmooth.gaussians import GaussianDensity, GaussianMixture, LinearMotionModel
from trajsmooth.models import BirthModel
from trajsmooth.oracle import structure_signature
from trajsmooth.simulate import _mixture_to_jsonable, load_scenario_config, simulate_scenario


def g(mean, var):
    mean = np.atleast_1d(np.asarray(mean, float))
    if np.isscalar(var) or np.ndim(var) == 0:
        cov = float(var) * np.eye(mean.size)
    else:
        cov = np.asarray(var, float)
    return GaussianDensity(mean, cov)


def desk_like_problem():
    """configs/desk_scale.json cut to 12 steps, filtered at M=20."""
    configs = Path(__file__).resolve().parent.parent / "configs"
    cfg = json.loads((configs / "desk_scale.json").read_text())
    cfg["K"] = 12
    cfg["schedule"]["deaths"] = [12, 12, 12]
    scenario = simulate_scenario(load_scenario_config(cfg))
    return run_forward(scenario, FilterParams(m_best=20)), scenario.birth, scenario.motion


def pmb_to_jsonable(pmb):
    """The JSON form of a PMB density that the pinned filter hashes were recorded from."""
    return {
        "ppp": _mixture_to_jsonable(pmb.ppp),
        "bernoullis": [
            {"r": r, "mean": mean, "cov": cov}
            for r, mean, cov in zip(pmb.r.tolist(), pmb.means.tolist(), pmb.covs.tolist())
        ],
    }


def filterlog_to_jsonable(log):
    """The JSON form of a filter log that the pinned filter hashes were recorded from."""
    return {
        "k_max": log.k_max,
        "steps": [
            {
                "posterior": pmb_to_jsonable(post),
                "predicted_ppp": _mixture_to_jsonable(pred),
                "estimates": [e.tolist() for e in est],
            }
            for post, pred, est in zip(log.posteriors, log.predicted_ppps, log.estimates)
        ],
    }


def json_sha(data) -> str:
    """sha256 of the compact sorted-key JSON of `data`."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def make_log(posteriors):
    log = FilterLog(k_max=len(posteriors))
    for p in posteriors:
        log.posteriors.append(p)
        log.predicted_ppps.append(p.ppp)
        log.estimates.append([])
    return log


def tv_toy(sigma2=1e-8):
    """K=3 scalar toy with near-Dirac posteriors exercising every hypothesis family.

    Component means are multiples of 0.1, so quantizing states at resolution
    0.1 identifies the discrete structure exactly.
    """
    motion = LinearMotionModel([[1.0]], [[0.25]], ps=0.9)
    birth = BirthModel(GaussianMixture(((0.1, g(0.0, 25.0)),)))
    f1 = PMBDensity(
        GaussianMixture(((0.2, g(2.2, sigma2)),)),
        (BernoulliComponent(0.6, g(0.5, sigma2)),),
    )
    f2 = PMBDensity(
        GaussianMixture(((0.3, g(2.8, sigma2)),)),
        (BernoulliComponent(0.9, g(0.2, sigma2)), BernoulliComponent(0.5, g(2.5, sigma2))),
    )
    f3 = PMBDensity(
        GaussianMixture(),
        (BernoulliComponent(0.8, g(0.0, sigma2)), BernoulliComponent(0.7, g(3.0, sigma2))),
    )
    return make_log([f1, f2, f3]), birth, motion


def gating_problem(uniform_density):
    """K=6 scalar log whose first-detection columns take every gating path at gate_prob 0.99.

    Three undetected components sit at 0, 2 and 4, so a head near 1 is gated
    into only some of them. Without a uniform birth level, the track near 9 is
    gated out of the birth and every undetected component (the ungated
    fallback), and the track near 60 is too far for any term to stay above
    the underflow floor.
    """
    motion = LinearMotionModel([[1.0]], [[0.25]], ps=0.9)
    birth = BirthModel(GaussianMixture(((0.1, g(0.0, 1.0)),)), uniform_density=uniform_density)
    posteriors = []
    for k in range(6):
        shift = 0.1 * k
        ppp = GaussianMixture(
            tuple((w, g(c + shift, 0.05)) for w, c in ((0.2, 0.0), (0.3, 2.0), (0.1, 4.0)))
        )
        tracks = tuple(
            BernoulliComponent(r, g(c + shift, var))
            for r, c, var in ((0.8, 1.0, 0.1), (0.6, 3.0, 0.1), (0.7, 9.0, 0.05), (0.9, 60.0, 0.01))
        )
        posteriors.append(PMBDensity(ppp, tracks))
    return make_log(posteriors), birth, motion


def crossing_example(seed=12345):
    """Two objects crossing on a line, K=8, Dirac filtering densities.

    Positions/velocities are a seeded constant-velocity draw (the published
    figure gives only the qualitative geometry), so continuations are
    dynamically plausible and the unbroken linking dominates.
    """
    k_max = 8
    F = np.array([[1.0, 1.0], [0.0, 1.0]])
    Q = (1.0 / 900.0) * np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
    motion = LinearMotionModel(F, Q, ps=0.95)
    birth = BirthModel(GaussianMixture(), uniform_density=0.05)
    rng = np.random.default_rng(seed)
    root_q = np.linalg.cholesky(Q)
    xs = [np.array([-0.7, 0.2]), np.array([0.7, -0.2])]
    dirac_states = []
    for _ in range(k_max):
        dirac_states.append([x.copy() for x in xs])
        xs = [F @ x + root_q @ rng.standard_normal(2) for x in xs]
    posteriors = [
        PMBDensity(
            GaussianMixture(),
            tuple(BernoulliComponent(1.0, g(x, np.zeros((2, 2)))) for x in states),
        )
        for states in dirac_states
    ]
    return make_log(posteriors), birth, motion, dirac_states


def empirical_tv(particles, post, resolution=0.1):
    """Total-variation distance between sampled and exact structure distributions."""
    counts = Counter(structure_signature(p.trajectories, resolution) for p in particles)
    oracle_mass = defaultdict(float)
    for hyp in post.hypotheses:
        oracle_mass[structure_signature(hyp.trajectories, resolution)] += np.exp(
            hyp.log_weight
        )
    total = len(particles)
    support = set(counts) | set(oracle_mass)
    return 0.5 * sum(
        abs(counts.get(s, 0) / total - oracle_mass.get(s, 0.0)) for s in support
    )
