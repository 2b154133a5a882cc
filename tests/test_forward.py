import hashlib
import json
import math

import numpy as np
import pytest
from helpers import desk_like_problem
from scipy.stats import chi2

from trajsmooth.errors import ContractError
from trajsmooth.forward import (
    BernoulliComponent,
    FilterParams,
    PMBDensity,
    filterlog_from_jsonable,
    filterlog_to_jsonable,
    predict_pmb,
    prune_pmb,
    run_forward,
    update_pmb,
)
from trajsmooth.gaussians import (
    GaussianDensity,
    GaussianMixture,
    LinearMotionModel,
    log_gaussian_pdf,
)
from trajsmooth.models import BirthModel, ClutterModel, MeasurementModel
from trajsmooth.simulate import GroundTruth, Scenario
from trajsmooth.trajectory import Trajectory


def g1(mean, var):
    return GaussianDensity([mean], [[var]])


def scalar_models(pd=0.5, rate=1.0, r_meas=0.04):
    mm = MeasurementModel([[1.0]], [[r_meas]], pd)
    cm = ClutterModel(rate, [[-10.0, 10.0]])
    return mm, cm


def test_predict_bernoulli_survival():
    pmb = PMBDensity(GaussianMixture(), (BernoulliComponent(0.6, g1(0.0, 1.0)),))
    m = LinearMotionModel([[1.0]], [[0.1]], ps=0.5)
    out = predict_pmb(pmb, m, BirthModel(GaussianMixture()))
    assert out.bernoullis[0].r == pytest.approx(0.3)


def test_predict_birth_only():
    birth = BirthModel(GaussianMixture(((0.05, g1(0.0, 1.0)),)))
    m = LinearMotionModel([[1.0]], [[0.1]], ps=0.9)
    out = predict_pmb(PMBDensity(), m, birth)
    assert [w for w, _ in out.ppp] == [0.05]
    assert len(out.bernoullis) == 0


def test_predict_ppp_weights():
    birth = BirthModel(GaussianMixture(((0.05, g1(0.0, 1.0)),)))
    pmb = PMBDensity(GaussianMixture(((1.0, g1(2.0, 1.0)),)))
    m = LinearMotionModel([[1.0]], [[0.1]], ps=0.98)
    out = predict_pmb(pmb, m, birth)
    np.testing.assert_allclose([w for w, _ in out.ppp], [0.98, 0.05])


def test_predict_rejects_uniform_birth():
    birth = BirthModel(GaussianMixture(), uniform_density=0.1)
    m = LinearMotionModel([[1.0]], [[0.1]], ps=1.0)
    with pytest.raises(ContractError):
        predict_pmb(PMBDensity(), m, birth)


def test_update_missed_detection_formula():
    mm, cm = scalar_models(pd=0.5, rate=1.0)
    pmb = PMBDensity(GaussianMixture(), (BernoulliComponent(0.5, g1(0.0, 1.0)),))
    out = update_pmb(pmb, [], mm, cm, gate=9.0, m_best=10)
    assert out.bernoullis[0].r == pytest.approx(1.0 / 3.0)
    np.testing.assert_allclose(out.bernoullis[0].density.mean, [0.0])


def test_update_empty_scan_thins_ppp():
    mm, cm = scalar_models(pd=0.4)
    pmb = PMBDensity(
        GaussianMixture(((0.5, g1(0.0, 1.0)), (0.2, g1(3.0, 1.0)))),
        (BernoulliComponent(0.8, g1(1.0, 1.0)),),
    )
    out = update_pmb(pmb, [], mm, cm, gate=9.0, m_best=10)
    np.testing.assert_allclose([w for w, _ in out.ppp], [0.3, 0.12])
    assert len(out.bernoullis) == 1


def test_update_marginals_match_hand_enumeration():
    # one track, one in-gate measurement: two global hypotheses
    pd_val, rate = 0.7, 2.0
    mm, cm = scalar_models(pd=pd_val, rate=rate)
    r0, prior = 0.6, g1(0.0, 1.0)
    lam_w, lam_g = 0.3, g1(0.5, 2.0)
    pmb = PMBDensity(GaussianMixture(((lam_w, lam_g),)), (BernoulliComponent(r0, prior),))
    z = np.array([0.4])
    out = update_pmb(pmb, [z], mm, cm, gate=25.0, m_best=10)

    s_track = prior.cov[0, 0] + mm.R[0, 0]
    w_det = r0 * pd_val * math.exp(log_gaussian_pdf(z, GaussianDensity([0.0], [[s_track]])))
    w_miss = 1.0 - r0 + r0 * (1.0 - pd_val)
    lam_eval = lam_w * math.exp(
        log_gaussian_pdf(z, GaussianDensity(lam_g.mean, [[lam_g.cov[0, 0] + mm.R[0, 0]]]))
    )
    w_new = rate / 20.0 + pd_val * lam_eval
    # hypothesis A: z -> track, new-track column unused; B: track missed, z -> new
    wa, wb = w_det, w_miss * w_new
    p_det = wa / (wa + wb)
    r_track = p_det * 1.0 + (1.0 - p_det) * (r0 * (1.0 - pd_val) / w_miss)
    assert out.bernoullis[0].r == pytest.approx(r_track, rel=1e-9)
    r_new_expected = (1.0 - p_det) * (pd_val * lam_eval / w_new)
    assert out.bernoullis[1].r == pytest.approx(r_new_expected, rel=1e-9)


def test_update_merged_density_moment_match():
    # merged track density is the moment-matched mixture of its local hypotheses
    pd_val = 0.7
    mm, cm = scalar_models(pd=pd_val, rate=2.0)
    r0, prior = 0.6, g1(0.0, 1.0)
    pmb = PMBDensity(GaussianMixture(), (BernoulliComponent(r0, prior),))
    z = np.array([0.4])
    out = update_pmb(pmb, [z], mm, cm, gate=25.0, m_best=10)
    s = prior.cov[0, 0] + mm.R[0, 0]
    w_det = r0 * pd_val * math.exp(log_gaussian_pdf(z, GaussianDensity([0.0], [[s]])))
    w_miss = 1.0 - r0 + r0 * (1.0 - pd_val)
    w_new = 2.0 / 20.0
    p_det = w_det / (w_det + w_miss * w_new)
    r_miss = r0 * (1.0 - pd_val) / w_miss
    gain = prior.cov[0, 0] / s
    mean_det = gain * z[0]
    cov_det = (1.0 - gain) ** 2 * prior.cov[0, 0] + gain**2 * mm.R[0, 0]
    gam_det = p_det / (p_det + (1.0 - p_det) * r_miss)
    gam_miss = 1.0 - gam_det
    mean = gam_det * mean_det + gam_miss * 0.0
    cov = gam_det * (cov_det + (mean_det - mean) ** 2) + gam_miss * (1.0 + mean**2)
    np.testing.assert_allclose(out.bernoullis[0].density.mean, [mean], rtol=1e-9)
    np.testing.assert_allclose(out.bernoullis[0].density.cov, [[cov]], rtol=1e-9)


def test_update_invariants_random():
    rng = np.random.default_rng(0)
    mm, cm = scalar_models(pd=0.8, rate=3.0)
    for _ in range(30):
        bern = tuple(
            BernoulliComponent(rng.uniform(0.05, 1.0), g1(rng.uniform(-5, 5), 1.0))
            for _ in range(rng.integers(0, 4))
        )
        ppp = GaussianMixture(
            tuple((rng.uniform(0.01, 1.0), g1(rng.uniform(-5, 5), 4.0)) for _ in range(2))
        )
        scan = [rng.uniform(-6, 6, size=1) for _ in range(rng.integers(0, 5))]
        out = update_pmb(PMBDensity(ppp, bern), scan, mm, cm, gate=16.0, m_best=20)
        for c in out.bernoullis:
            assert -1e-12 <= c.r <= 1.0 + 1e-12
        assert sum(w for w, _ in out.ppp) <= sum(w for w, _ in ppp) + 1e-12


def test_prune_thresholds():
    pmb = PMBDensity(
        GaussianMixture(((0.5, g1(0.0, 1.0)), (1e-6, g1(1.0, 1.0)))),
        (BernoulliComponent(5e-5, g1(0.0, 1.0)), BernoulliComponent(0.9, g1(1.0, 1.0))),
    )
    out = prune_pmb(pmb, 1e-4, 1e-4)
    assert len(out.bernoullis) == 1 and out.bernoullis[0].r == 0.9
    assert [w for w, _ in out.ppp] == [0.5]
    noop = prune_pmb(pmb, 0.0, 0.0)
    assert len(noop.bernoullis) == 2 and len(noop.ppp) == 2
    with pytest.raises(ContractError):
        prune_pmb(pmb, 1.0, 0.0)


def test_prune_never_increases_mass():
    pmb = PMBDensity(
        GaussianMixture(((0.5, g1(0.0, 1.0)),)), (BernoulliComponent(0.3, g1(0.0, 1.0)),)
    )
    out = prune_pmb(pmb, 0.5, 0.6)
    assert sum(w for w, _ in out.ppp) <= 0.5
    assert len(out.bernoullis) == 0


def make_static_scenario(k_max, zs):
    """Stationary 1-D object at x=5; birth far away so it never gates after init."""
    motion = LinearMotionModel([[1.0]], [[0.01]], ps=1.0)
    mm = MeasurementModel([[1.0]], [[0.04]], pd=1.0)
    cm = ClutterModel(0.0, [[-10.0, 10.0]])
    birth = BirthModel(GaussianMixture(((0.05, g1(0.0, 0.0001)),)))
    init_ppp = GaussianMixture(((0.1, g1(5.0, 0.25)),))
    trajectories = (Trajectory(1, np.full((k_max, 1), 5.0)),) if k_max else ()
    truth = GroundTruth(trajectories, k_max)
    return Scenario(
        truth=truth,
        measurements=[[z] for z in zs],
        motion=motion,
        measurement=mm,
        clutter=cm,
        birth=birth,
        init_ppp=init_ppp,
        seed=0,
    )


def test_run_forward_empty_horizon():
    sc = make_static_scenario(0, [])
    log = run_forward(sc)
    assert log.k_max == 0 and log.posteriors == []


def test_run_forward_matches_kalman_oracle():
    rng = np.random.default_rng(9)
    k_max = 15
    zs = [np.array([5.0 + 0.2 * rng.standard_normal()]) for _ in range(k_max)]
    sc = make_static_scenario(k_max, zs)
    log = run_forward(sc, FilterParams(m_best=10))

    # independent scalar Kalman filter started from the predicted init component
    q, rv = 0.01, 0.04
    mean, var = 5.0, 0.25 + q
    for k in range(k_max):
        gain = var / (var + rv)
        mean = mean + gain * (zs[k][0] - mean)
        var = (1.0 - gain) * var
        post = log.posteriors[k]
        assert len(post.bernoullis) == 1
        assert post.bernoullis[0].r > 0.99
        np.testing.assert_allclose(post.bernoullis[0].density.mean, [mean], atol=1e-8)
        np.testing.assert_allclose(post.bernoullis[0].density.cov, [[var]], atol=1e-8)
        mean, var = mean, var + q  # predict for next step


def test_run_forward_logs_aligned():
    rng = np.random.default_rng(2)
    k_max = 8
    zs = [np.array([5.0 + 0.2 * rng.standard_normal()]) for _ in range(k_max)]
    sc = make_static_scenario(k_max, zs)
    log = run_forward(sc)
    assert len(log.posteriors) == len(log.predicted_ppps) == len(log.estimates) == k_max
    roundtrip = filterlog_from_jsonable(filterlog_to_jsonable(log))
    assert roundtrip.k_max == log.k_max
    for a, b in zip(roundtrip.posteriors, log.posteriors):
        assert len(a.bernoullis) == len(b.bernoullis)
        for ca, cb in zip(a.bernoullis, b.bernoullis):
            assert ca.r == cb.r
            np.testing.assert_array_equal(ca.density.mean, cb.density.mean)


def test_gating_blocks_far_measurement():
    mm, cm = scalar_models(pd=0.9, rate=1.0)
    pmb = PMBDensity(GaussianMixture(), (BernoulliComponent(0.9, g1(0.0, 0.01)),))
    far = np.array([8.0])
    gate = float(chi2.ppf(0.9999, df=1))
    out = update_pmb(pmb, [far], mm, cm, gate=gate, m_best=10)
    # track must be updated as missed; far measurement handled by clutter column
    r_expected = 0.9 * 0.1 / (0.1 + 0.9 * 0.1)
    assert out.bernoullis[0].r == pytest.approx(r_expected)
    np.testing.assert_allclose(out.bernoullis[0].density.mean, [0.0])


def test_update_marginals_match_exhaustive_enumeration():
    # two tracks, two measurements: enumerate every global hypothesis by hand
    import itertools

    pd_val, rate, volume_inv = 0.6, 3.0, 1.0 / 20.0
    mm, cm = scalar_models(pd=pd_val, rate=rate)
    tracks = [(0.7, g1(0.0, 1.0)), (0.5, g1(1.5, 1.0))]
    lam = [(0.4, g1(0.5, 3.0))]
    pmb = PMBDensity(
        GaussianMixture(tuple(lam)),
        tuple(BernoulliComponent(r, dens) for r, dens in tracks),
    )
    zs = [np.array([0.3]), np.array([1.2])]
    out = update_pmb(pmb, zs, mm, cm, gate=100.0, m_best=50)

    def norm_pdf(z, mean, var):
        return math.exp(log_gaussian_pdf(np.atleast_1d(z), GaussianDensity([mean], [[var]])))

    w_miss = [1.0 - r + r * (1.0 - pd_val) for r, _ in tracks]
    w_det = [
        [r * pd_val * norm_pdf(z[0], dens.mean[0], dens.cov[0, 0] + mm.R[0, 0]) for z in zs]
        for r, dens in tracks
    ]
    w_new = [
        rate * volume_inv
        + pd_val * sum(w * norm_pdf(z[0], dens.mean[0], dens.cov[0, 0] + mm.R[0, 0]) for w, dens in lam)
        for z in zs
    ]
    # global hypothesis: per measurement, a track index or None (new/clutter)
    hyps = []
    for assoc in itertools.product([None, 0, 1], repeat=2):
        picked = [a for a in assoc if a is not None]
        if len(picked) != len(set(picked)):
            continue
        weight = 1.0
        for i in range(2):
            weight *= w_det[i][assoc.index(i)] if i in assoc else w_miss[i]
        for j, a in enumerate(assoc):
            if a is None:
                weight *= w_new[j]
        hyps.append((assoc, weight))
    total = sum(w for _, w in hyps)
    p_det = [[sum(w for a, w in hyps if a[j] == i) / total for j in range(2)] for i in range(2)]
    p_new = [sum(w for a, w in hyps if a[j] is None) / total for j in range(2)]

    r_miss = [r * (1.0 - pd_val) / wm for (r, _), wm in zip(tracks, w_miss)]
    for i in range(2):
        p_missed = 1.0 - sum(p_det[i])
        r_expected = p_missed * r_miss[i] + sum(p_det[i])
        assert out.bernoullis[i].r == pytest.approx(r_expected, rel=1e-9)
    r_new = [
        pd_val * sum(w * norm_pdf(z[0], dens.mean[0], dens.cov[0, 0] + mm.R[0, 0]) for w, dens in lam) / wn
        for z, wn in zip(zs, w_new)
    ]
    for j in range(2):
        assert out.bernoullis[2 + j].r == pytest.approx(p_new[j] * r_new[j], rel=1e-9)


# sha256 of the compact sorted-key filter-log JSON, recorded before the
# measurement update moved onto the batched inversion helpers
PINNED_FILTERLOG = "47095bf72dbb1ba5bd303c8628497cf698bb00de94f311d4d905615e9269b006"


def test_run_forward_pinned_bytes():
    log, _, _ = desk_like_problem()
    blob = json.dumps(filterlog_to_jsonable(log), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_FILTERLOG
