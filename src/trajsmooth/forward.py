"""Track-oriented PMB forward filter.

Each time step runs predict -> update -> prune. The update enumerates global
association hypotheses with Murty's algorithm, computes marginal association
probabilities across them, and collapses every track back to a single
Bernoulli by moment matching (track-oriented marginalization). The per-step
posteriors feed backward simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp
from scipy.stats import chi2

from .assignment import murty
from .errors import ContractError
from .gaussians import (
    GaussianDensity,
    GaussianMixture,
    LinearMotionModel,
    _linear_terms,
    moment_match,
    predict_gaussian,
    symmetrize,
)
from .models import BirthModel, ClutterModel, MeasurementModel
from .simulate import Scenario


@dataclass(frozen=True)
class BernoulliComponent:
    """Object that exists with probability r and then has the given state density."""

    r: float
    density: GaussianDensity

    def __post_init__(self):
        if not -1e-12 <= self.r <= 1.0 + 1e-12:
            raise ContractError(f"existence probability {self.r} outside [0, 1]")
        object.__setattr__(self, "r", float(min(max(self.r, 0.0), 1.0)))


@dataclass(frozen=True)
class PMBDensity:
    """Poisson intensity for undetected objects plus Bernoulli components."""

    ppp: GaussianMixture = GaussianMixture()
    bernoullis: tuple[BernoulliComponent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "bernoullis", tuple(self.bernoullis))


@dataclass
class FilterLog:
    """Per-step filter output aligned with the measurement sequence (index k-1)."""

    k_max: int
    posteriors: list[PMBDensity] = field(default_factory=list)
    predicted_ppps: list[GaussianMixture] = field(default_factory=list)
    estimates: list[list[np.ndarray]] = field(default_factory=list)


@dataclass(frozen=True)
class FilterParams:
    m_best: int = 100
    gate_prob: float = 0.9999
    prune_r: float = 1e-4
    prune_w: float = 1e-4
    estimate_threshold: float = 0.5


def predict_pmb(pmb: PMBDensity, m: LinearMotionModel, b: BirthModel) -> PMBDensity:
    """Survival-thinned prediction of every component, then birth appended to the PPP."""
    if b.uniform_density > 0.0:
        raise ContractError("forward filtering requires a pure Gaussian-mixture birth")
    bernoullis = tuple(
        BernoulliComponent(comp.r * m.ps, predict_gaussian(comp.density, m))
        for comp in pmb.bernoullis
    )
    ppp = tuple((w * m.ps, predict_gaussian(g, m)) for w, g in pmb.ppp)
    return PMBDensity(GaussianMixture(ppp + b.intensity.components), bernoullis)


def prune_pmb(pmb: PMBDensity, r_min: float, w_min: float) -> PMBDensity:
    """Drop Bernoullis with r < r_min and PPP components with weight < w_min."""
    if not (0.0 <= r_min < 1.0 and 0.0 <= w_min < 1.0):
        raise ContractError("prune thresholds must lie in [0, 1)")
    return PMBDensity(
        GaussianMixture(tuple((w, g) for w, g in pmb.ppp if w >= w_min)),
        tuple(c for c in pmb.bernoullis if c.r >= r_min),
    )


def _joseph_cov(g: GaussianDensity, gain: np.ndarray, mm: MeasurementModel) -> np.ndarray:
    """Updated covariance in Joseph form; it does not depend on the measurement."""
    ikh = np.eye(g.dim) - gain @ mm.H
    return symmetrize(ikh @ g.cov @ ikh.T + gain @ mm.R @ gain.T)


def update_pmb(
    pmb: PMBDensity,
    scan: list[np.ndarray],
    mm: MeasurementModel,
    cm: ClutterModel,
    gate: float,
    m_best: int,
) -> PMBDensity:
    """Point-object PMB measurement update with track-oriented marginalization."""
    if gate <= 0.0 or m_best < 1:
        raise ContractError("gate must be positive and m_best >= 1")
    n = len(pmb.bernoullis)
    mz = len(scan)
    log_pd = math.log(mm.pd) if mm.pd > 0.0 else -math.inf

    # local hypotheses for existing tracks
    log_w_miss = np.empty(n)
    r_miss = np.empty(n)
    det: list[dict[int, tuple[float, GaussianDensity]]] = [dict() for _ in range(n)]
    log_tiny = math.log(np.finfo(float).tiny)
    detectable = [i for i, c in enumerate(pmb.bernoullis) if c.r > 0.0 and mm.pd > 0.0 and scan]
    z_pred, s_inv, log_norm, gains = _linear_terms(
        [pmb.bernoullis[i].density for i in detectable], mm.H, mm.R
    )
    for i, comp in enumerate(pmb.bernoullis):
        w_miss = 1.0 - comp.r + comp.r * (1.0 - mm.pd)
        # floored so the cost-matrix ratio stays finite when r=1 and pd=1
        log_w_miss[i] = math.log(w_miss) if w_miss > 0.0 else log_tiny
        r_miss[i] = comp.r * (1.0 - mm.pd) / w_miss if w_miss > 0.0 else 0.0
    for a, i in enumerate(detectable):
        g = pmb.bernoullis[i].density
        cov_upd = _joseph_cov(g, gains[a], mm)
        log_r_pd = math.log(pmb.bernoullis[i].r) + log_pd
        for j, z in enumerate(scan):
            d = z - z_pred[a]
            maha = float(d @ s_inv[a] @ d)
            if maha <= gate:
                det[i][j] = (
                    log_r_pd + log_norm[a] - 0.5 * maha,
                    GaussianDensity(g.mean + gains[a] @ d, cov_upd),
                )

    # new-track hypotheses, one per measurement (PPP components gated individually)
    ppp = [(w, g) for w, g in pmb.ppp if w > 0.0]
    ppp_z, ppp_s_inv, ppp_log_norm, ppp_gains = _linear_terms([g for _, g in ppp], mm.H, mm.R)
    ppp_covs = [_joseph_cov(g, gain, mm) for (_, g), gain in zip(ppp, ppp_gains)]
    log_w_new = np.empty(mz)
    r_new = np.empty(mz)
    new_density: list[GaussianDensity | None] = [None] * mz
    for j, z in enumerate(scan):
        liks, comps = [], []
        for c, (w, g) in enumerate(ppp):
            d = z - ppp_z[c]
            maha = float(d @ ppp_s_inv[c] @ d)
            if maha <= gate:
                liks.append(math.log(w) + ppp_log_norm[c] - 0.5 * maha)
                comps.append(GaussianDensity(g.mean + ppp_gains[c] @ d, ppp_covs[c]))
        if liks:
            liks = np.asarray(liks)
            log_obj = log_pd + logsumexp(liks)
            new_density[j] = moment_match(np.exp(liks - liks.max()), comps)
        else:
            log_obj = -math.inf
        log_w_new[j] = np.logaddexp(cm.log_density, log_obj)
        r_new[j] = math.exp(log_obj - log_w_new[j]) if np.isfinite(log_w_new[j]) else 0.0

    # global hypotheses via ranked assignment on the (measurement x track+new) costs
    cost = np.full((mz, n + mz), np.inf)
    for i in range(n):
        for j, (log_w, _) in det[i].items():
            cost[j, i] = -(log_w - log_w_miss[i])
    for j in range(mz):
        cost[j, n + j] = -log_w_new[j]
    hyps = murty(cost, m_best)
    log_w_hyps = np.array([-h.cost for h in hyps])
    betas = np.exp(log_w_hyps - logsumexp(log_w_hyps))

    # marginal association probabilities
    p_det = np.zeros((n, mz))
    p_new = np.zeros(mz)
    for beta, hyp in zip(betas, hyps):
        for j, col in enumerate(hyp.row_to_col):
            if col < n:
                p_det[col, j] += beta
            else:
                p_new[j] += beta

    # collapse each track to a single Bernoulli by moment matching
    bernoullis = []
    for i, comp in enumerate(pmb.bernoullis):
        p_miss = max(0.0, 1.0 - p_det[i].sum())
        probs = [p_miss]
        rs = [r_miss[i]]
        densities = [comp.density]
        for j, (_, updated) in det[i].items():
            probs.append(p_det[i, j])
            rs.append(1.0)
            densities.append(updated)
        r_bar = float(np.dot(probs, rs))
        if r_bar > 0.0:
            density = moment_match(np.asarray(probs) * np.asarray(rs), densities)
        else:
            density = comp.density
        bernoullis.append(BernoulliComponent(min(r_bar, 1.0), density))
    for j in range(mz):
        r = p_new[j] * r_new[j]
        if r > 0.0 and new_density[j] is not None:
            bernoullis.append(BernoulliComponent(min(r, 1.0), new_density[j]))

    thinned = GaussianMixture(tuple((w * (1.0 - mm.pd), g) for w, g in pmb.ppp))
    return PMBDensity(thinned, tuple(bernoullis))


def run_forward(scenario: Scenario, params: FilterParams = FilterParams()) -> FilterLog:
    """Predict/update/prune over the full scan sequence, logging every posterior."""
    gate = float(chi2.ppf(params.gate_prob, df=scenario.measurement.dim_z))
    log = FilterLog(k_max=scenario.k_max)
    pmb = PMBDensity(scenario.init_ppp, ())
    for k in range(1, scenario.k_max + 1):
        pmb = predict_pmb(pmb, scenario.motion, scenario.birth)
        log.predicted_ppps.append(pmb.ppp)
        pmb = update_pmb(
            pmb,
            scenario.measurements[k - 1],
            scenario.measurement,
            scenario.clutter,
            gate,
            params.m_best,
        )
        pmb = prune_pmb(pmb, params.prune_r, params.prune_w)
        log.posteriors.append(pmb)
        log.estimates.append(
            [c.density.mean for c in pmb.bernoullis if c.r >= params.estimate_threshold]
        )
    return log


def pmb_to_jsonable(pmb: PMBDensity) -> dict:
    return {
        "ppp": {
            "weights": [w for w, _ in pmb.ppp],
            "means": [g.mean.tolist() for _, g in pmb.ppp],
            "covs": [g.cov.tolist() for _, g in pmb.ppp],
        },
        "bernoullis": [
            {"r": c.r, "mean": c.density.mean.tolist(), "cov": c.density.cov.tolist()}
            for c in pmb.bernoullis
        ],
    }


def pmb_from_jsonable(data: dict) -> PMBDensity:
    ppp = GaussianMixture(
        tuple(
            (float(w), GaussianDensity(np.asarray(m, float), np.asarray(c, float)))
            for w, m, c in zip(
                data["ppp"]["weights"], data["ppp"]["means"], data["ppp"]["covs"]
            )
        )
    )
    bernoullis = tuple(
        BernoulliComponent(
            float(b["r"]),
            GaussianDensity(np.asarray(b["mean"], float), np.asarray(b["cov"], float)),
        )
        for b in data["bernoullis"]
    )
    return PMBDensity(ppp, bernoullis)


def filterlog_to_jsonable(log: FilterLog) -> dict:
    return {
        "k_max": log.k_max,
        "steps": [
            {
                "posterior": pmb_to_jsonable(post),
                "predicted_ppp": {
                    "weights": [w for w, _ in pred],
                    "means": [g.mean.tolist() for _, g in pred],
                    "covs": [g.cov.tolist() for _, g in pred],
                },
                "estimates": [e.tolist() for e in est],
            }
            for post, pred, est in zip(log.posteriors, log.predicted_ppps, log.estimates)
        ],
    }


def filterlog_from_jsonable(data: dict) -> FilterLog:
    log = FilterLog(k_max=int(data["k_max"]))
    for step in data["steps"]:
        log.posteriors.append(pmb_from_jsonable(step["posterior"]))
        pp = step["predicted_ppp"]
        log.predicted_ppps.append(
            GaussianMixture(
                tuple(
                    (float(w), GaussianDensity(np.asarray(m, float), np.asarray(c, float)))
                    for w, m, c in zip(pp["weights"], pp["means"], pp["covs"])
                )
            )
        )
        log.estimates.append([np.asarray(e, float) for e in step["estimates"]])
    return log
