import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from helpers import desk_like_problem, filterlog_to_jsonable, json_sha, pmb_to_jsonable
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtri, logsumexp
from scipy.stats import chi2, norm

from trajsmooth import assignment
from trajsmooth.errors import ContractError, SettingError
from trajsmooth.forward import (
    BernoulliComponent,
    _lse_rows,
    FilterLog,
    FilterParams,
    PMBDensity,
    filterlog_from_arrays,
    filterlog_to_arrays,
    predict_pmb,
    prune_pmb,
    run_forward,
    update_pmb,
)
from trajsmooth.gaussians import (
    GaussianDensity,
    GaussianMixture,
    LinearMotionModel,
)
from trajsmooth.models import BirthModel, ClutterModel, MeasurementModel
from trajsmooth.simulate import GroundTruth, Scenario, load_scenario_config, simulate_scenario
from trajsmooth.trajectory import Trajectory

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    assert out.ppp.weights.tolist() == [0.05]
    assert len(out.bernoullis) == 0


def test_predict_ppp_weights():
    birth = BirthModel(GaussianMixture(((0.05, g1(0.0, 1.0)),)))
    pmb = PMBDensity(GaussianMixture(((1.0, g1(2.0, 1.0)),)))
    m = LinearMotionModel([[1.0]], [[0.1]], ps=0.98)
    out = predict_pmb(pmb, m, birth)
    np.testing.assert_allclose(out.ppp.weights, [0.98, 0.05])


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
    np.testing.assert_allclose(out.ppp.weights, [0.3, 0.12])
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
    w_det = r0 * pd_val * norm.pdf(z[0], 0.0, math.sqrt(s_track))
    w_miss = 1.0 - r0 + r0 * (1.0 - pd_val)
    lam_eval = lam_w * norm.pdf(z[0], lam_g.mean[0], math.sqrt(lam_g.cov[0, 0] + mm.R[0, 0]))
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
    w_det = r0 * pd_val * norm.pdf(z[0], 0.0, math.sqrt(s))
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
        assert sum(out.ppp.weights.tolist()) <= sum(ppp.weights.tolist()) + 1e-12


def test_prune_thresholds():
    pmb = PMBDensity(
        GaussianMixture(((0.5, g1(0.0, 1.0)), (1e-6, g1(1.0, 1.0)))),
        (BernoulliComponent(5e-5, g1(0.0, 1.0)), BernoulliComponent(0.9, g1(1.0, 1.0))),
    )
    out = prune_pmb(pmb, 1e-4, 1e-4)
    assert len(out.bernoullis) == 1 and out.bernoullis[0].r == 0.9
    assert out.ppp.weights.tolist() == [0.5]
    noop = prune_pmb(pmb, 0.0, 0.0)
    assert len(noop.bernoullis) == 2 and len(noop.ppp) == 2
    with pytest.raises(ContractError):
        prune_pmb(pmb, 1.0, 0.0)


def test_prune_never_increases_mass():
    pmb = PMBDensity(
        GaussianMixture(((0.5, g1(0.0, 1.0)),)), (BernoulliComponent(0.3, g1(0.0, 1.0)),)
    )
    out = prune_pmb(pmb, 0.5, 0.6)
    assert sum(out.ppp.weights.tolist()) <= 0.5
    assert len(out.bernoullis) == 0



def test_lse_rows_equals_scipy_logsumexp_bitwise():
    rng = np.random.default_rng(3)
    for c in range(1, 14):
        x = rng.normal(0.0, 30.0, (50, c))
        x[::7, 0] = x[::7].max(axis=1)  # exact ties with the row maximum
        lse, top = _lse_rows(x)
        np.testing.assert_array_equal(lse, [logsumexp(row) for row in x])
        np.testing.assert_array_equal(top[:, 0], x.max(axis=1))

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
    assert len(log.posteriors) == k_max
    # nothing fills the fields that only perfbench's toy log still appends to
    assert log.predicted_ppps == [] and log.estimates == []
    roundtrip = filterlog_from_arrays(filterlog_to_arrays(log, sc.motion.dim), sc.motion.dim)
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
        return norm.pdf(z, mean, math.sqrt(var))

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


# sha256 of the compact sorted-key filter-log JSON (per step, the posterior and
# the estimates extracted from it), re-recorded when the log stopped carrying the
# predicted intensities; the filter before that change gives the same value
PINNED_FILTERLOG = "535043448e32eac5d0558fb79b57e6a3bc5e49d9ddbe4aeb90f4dc3ae41f0838"


def test_run_forward_pinned_bytes():
    log, _, _ = desk_like_problem()
    assert json_sha(filterlog_to_jsonable(log)) == PINNED_FILTERLOG


def _sha(pmb_or_log) -> str:
    if isinstance(pmb_or_log, FilterLog):
        return json_sha(filterlog_to_jsonable(pmb_or_log))
    return json_sha(pmb_to_jsonable(pmb_or_log))


def scenario1_cut_log():
    """configs/scenario1.json cut to 30 steps, filtered at M=100 (many PPP components, ~35 z)."""
    cfg = json.loads((CONFIGS / "scenario1.json").read_text())
    cfg["K"] = 30
    cfg["schedule"]["deaths"] = [min(d, 30) for d in cfg["schedule"]["deaths"]]
    return run_forward(simulate_scenario(load_scenario_config(cfg)), FilterParams(m_best=100))


def _random_pmb(rng, n, n_ppp, dim, r_zero=False):
    def density():
        a = rng.normal(size=(dim, dim))
        return GaussianDensity(rng.normal(0.0, 3.0, dim), a @ a.T + 0.5 * np.eye(dim))

    rs = rng.uniform(0.05, 1.0, n)
    if r_zero:
        rs[1] = 0.0
    return PMBDensity(
        GaussianMixture(tuple((rng.uniform(0.01, 0.5), density()) for _ in range(n_ppp))),
        tuple(BernoulliComponent(r, density()) for r in rs),
    )


def edge_updates():
    """update_pmb on edge shapes, keyed by case name."""
    rng = np.random.default_rng(8)
    mm = MeasurementModel(np.eye(2, 4), 0.5 * np.eye(2), 0.8)
    cm = ClutterModel(4.0, [[-10.0, 10.0], [-10.0, 10.0]])
    scan = [rng.normal(0.0, 3.0, 2) for _ in range(7)]
    base = _random_pmb(rng, 5, 3, 4)
    gate = float(chdtri(2, 1e-4))
    mm_1d = MeasurementModel([[1.0, 0.0]], [[0.3]], 0.9)
    cm_1d = ClutterModel(2.0, [[-10.0, 10.0]])
    pmb_1d = _random_pmb(rng, 6, 10, 2)
    scan_1d = [rng.normal(0.0, 3.0, 1) for _ in range(9)]
    return {
        "empty_scan": update_pmb(base, [], mm, cm, gate, 20),
        "empty_ppp": update_pmb(PMBDensity((), base.bernoullis), scan, mm, cm, gate, 20),
        "pd_zero": update_pmb(base, scan, MeasurementModel(mm.H, mm.R, 0.0), cm, gate, 20),
        "r_zero_track": update_pmb(_random_pmb(rng, 4, 2, 4, r_zero=True), scan, mm, cm, gate, 20),
        "one_d_measurement": update_pmb(pmb_1d, scan_1d, mm_1d, cm_1d, float(chdtri(1, 1e-4)), 50),
    }


# sha256 of the compact sorted-key JSON; the filter log's was re-recorded with
# PINNED_FILTERLOG, the edge updates' (single posteriors) were recorded before the
# measurement update was batched over tracks x measurements
PINNED_SCENARIO1_K30 = "53ace9b981edd3ca68229ff66f1fe573ebfd47c73a64a1386d915565b8fde584"
PINNED_EDGE_UPDATES = {
    "empty_scan": "2075d608bd59899b52a621fb8c1906bde7015a29463e2359ed1f6150f2c1714d",
    "empty_ppp": "89015cf63fbf2d60062372a01e0564f93d60dd62e193a155878d4b9fd57fe800",
    "pd_zero": "1ad6ee5b41a60dd0b43160fd06c208fdc373d032fc93cc3ddbc86ad37434bb6b",
    "r_zero_track": "1cd928729c2a6c207bf02aebe9e1040575aa0088303d195e34bbeb73cd028600",
    "one_d_measurement": "7bb66979085e14c6efe1708fd895b55f150768162efb7adaaefa8abdaec02a48",
}


def test_scenario1_filterlog_pinned_bytes():
    assert _sha(scenario1_cut_log()) == PINNED_SCENARIO1_K30


def test_update_edge_shapes_pinned_bytes():
    assert {name: _sha(out) for name, out in edge_updates().items()} == PINNED_EDGE_UPDATES


def test_workload_shaped_updates_never_fall_back_to_murty(monkeypatch):
    # scenario1's large components are ranked by the row-by-row merge alone;
    # the 12-step desk cut's M=20 components are all enumerated
    merges = []

    def counted(*args):
        merges.append(args)
        return merge(*args)

    def refuse(*args):
        raise AssertionError("ranked assignment fell back to _murty_queue")

    merge = assignment._merge_ranked
    monkeypatch.setattr(assignment, "_merge_ranked", counted)
    monkeypatch.setattr(assignment, "_murty_queue", refuse)
    assert _sha(scenario1_cut_log()) == PINNED_SCENARIO1_K30
    assert merges
    log, _, _ = desk_like_problem()
    assert _sha(log) == PINNED_FILTERLOG


@pytest.mark.parametrize("m_best", [2.5, "3", True, 0])
def test_update_rejects_non_integer_m_best(m_best):
    pmb = PMBDensity(bernoullis=(BernoulliComponent(0.9, GaussianDensity(np.zeros(2), np.eye(2))),))
    mm = MeasurementModel([[1.0, 0.0]], [[0.5]], 0.9)
    cm = ClutterModel(2.0, [[-10.0, 10.0]])
    with pytest.raises(SettingError, match="m_best"):
        update_pmb(pmb, [np.array([0.1])], mm, cm, 9.0, m_best)


_point = st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
_gaussian = st.tuples(_point, st.floats(0.2, 3.0), st.floats(0.2, 3.0))


@settings(max_examples=150, deadline=None)
@given(
    tracks=st.lists(st.tuples(st.floats(0.05, 1.0), _gaussian), max_size=3),
    ppp=st.lists(st.tuples(st.floats(0.01, 1.0), _gaussian), max_size=3),
    grid=st.lists(
        st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=1, max_size=4, unique=True
    ),
    pd=st.floats(0.3, 1.0),
    data=st.data(),
)
def test_update_posterior_independent_of_scan_order(tracks, ppp, grid, pd, data):
    def density(g):
        mean, var_x, var_y = g
        return GaussianDensity(mean, np.diag([var_x, var_y]))

    pmb = PMBDensity(
        GaussianMixture(tuple((w, density(g)) for w, g in ppp)),
        tuple(BernoulliComponent(r, density(g)) for r, g in tracks),
    )
    mm = MeasurementModel(np.eye(2), 0.25 * np.eye(2), pd)
    cm = ClutterModel(2.0, [[-10.0, 10.0], [-10.0, 10.0]])
    scan = [0.5 * np.array(p, dtype=float) for p in grid]
    order = data.draw(st.permutations(range(len(scan))))
    # at least every injective measurement-to-track map, so no M-best truncation binds
    n, mz = len(tracks), len(scan)
    m_best = sum(math.comb(mz, k) * math.perm(n, k) for k in range(min(n, mz) + 1))
    a = update_pmb(pmb, scan, mm, cm, 16.0, m_best)
    b = update_pmb(pmb, [scan[k] for k in order], mm, cm, 16.0, m_best)

    def same(ca, cb):
        np.testing.assert_allclose(ca.r, cb.r, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(ca.density.mean, cb.density.mean, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(ca.density.cov, cb.density.cov, rtol=1e-9, atol=1e-12)

    def by_mean(bernoullis):
        return sorted(bernoullis, key=lambda c: tuple(c.density.mean))

    # track Bernoullis keep their order; new tracks follow the scan, so compare them as a multiset
    assert len(a.bernoullis) == len(b.bernoullis)
    for ca, cb in zip(a.bernoullis[:n], b.bernoullis[:n]):
        same(ca, cb)
    for ca, cb in zip(by_mean(a.bernoullis[n:]), by_mean(b.bernoullis[n:])):
        same(ca, cb)


def _log_bytes(log, dim) -> bytes:
    """The .npz archive `filter` writes for `log`."""
    out = io.BytesIO()
    np.savez(out, **filterlog_to_arrays(log, dim))
    return out.getvalue()


def _log_from_bytes(blob, dim):
    with np.load(io.BytesIO(blob), allow_pickle=False) as arrays:
        return filterlog_from_arrays(arrays, dim)


def test_filter_log_decode_then_encode_gives_the_same_bytes():
    log = scenario1_cut_log()
    # a step with no Bernoullis and an empty PPP
    log.k_max += 1
    log.posteriors.append(PMBDensity())
    blob = _log_bytes(log, 4)
    back = _log_from_bytes(blob, 4)
    assert _log_bytes(back, 4) == blob
    # the arrays round-trip exactly, so the pinned JSON form does too
    assert _sha(back) == _sha(log)
    for a, b in zip(back.posteriors[:-1], log.posteriors):
        for x, y in ((a.r, b.r), (a.means, b.means), (a.covs, b.covs),
                     (a.ppp.weights, b.ppp.weights), (a.ppp.means, b.ppp.means)):
            _same_array(x, y)
    empty = back.posteriors[-1]
    assert empty.r.shape == (0,) and empty.means.shape == (0, 4) and empty.covs.shape == (0, 4, 4)
    assert empty.ppp.weights.shape == (0,)
    assert empty.ppp.means.shape == (0, 4) and empty.ppp.covs.shape == (0, 4, 4)


def _same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a, b)


def test_object_constructors_equal_the_array_form():
    rng = np.random.default_rng(19)
    d = 3
    r, w = rng.uniform(0.0, 1.0, 4), rng.uniform(0.0, 2.0, 2)
    means, p_means = rng.normal(size=(4, d)), rng.normal(size=(2, d))
    covs = np.array([a @ a.T for a in rng.normal(size=(4, d, d))])
    p_covs = np.array([a @ a.T for a in rng.normal(size=(2, d, d))])
    ppp = GaussianMixture(tuple((x, GaussianDensity(m, c)) for x, m, c in zip(w, p_means, p_covs)))
    built = PMBDensity(
        ppp, tuple(BernoulliComponent(x, GaussianDensity(m, c)) for x, m, c in zip(r, means, covs))
    )
    arrays = PMBDensity.of(GaussianMixture.of(w, p_means, p_covs), r, means, covs)
    for a, b in [(built.r, arrays.r), (built.means, arrays.means), (built.covs, arrays.covs),
                 (built.ppp.weights, arrays.ppp.weights), (built.ppp.means, arrays.ppp.means),
                 (built.ppp.covs, arrays.ppp.covs)]:
        _same_array(a, b)
    # the Bernoullis read back equal what they were built from
    for c, x, m, cov in zip(arrays.bernoullis, r.tolist(), means, covs):
        assert c.r == x
        _same_array(c.density.mean, m)
        _same_array(c.density.cov, cov)
    # built from no components, the stacks are empty at any dimension
    none = PMBDensity()
    assert none.r.shape == (0,) and len(none.ppp) == 0 and none.bernoullis == ()
    with pytest.raises(ContractError):
        GaussianMixture(((0.5, GaussianDensity([0.0], [[1.0]])),
                         (0.5, GaussianDensity([0.0, 0.0], np.eye(2)))))


def test_forward_decoder_and_kernel_cache_build_no_component_objects(monkeypatch):
    from trajsmooth.backward import _KernelCache

    cfg = json.loads((CONFIGS / "scenario1.json").read_text())
    cfg["K"] = 12
    cfg["schedule"]["deaths"] = [min(d, 12) for d in cfg["schedule"]["deaths"]]
    cfg["schedule"]["births"] = [min(b, 12) for b in cfg["schedule"]["births"]]
    scenario = simulate_scenario(load_scenario_config(cfg))
    built = []
    for cls in (GaussianDensity, BernoulliComponent):
        post_init = cls.__post_init__

        def counted(self, post_init=post_init):
            built.append(type(self).__name__)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    log = run_forward(scenario)
    back = _log_from_bytes(_log_bytes(log, scenario.motion.dim), scenario.motion.dim)
    for pmb in back.posteriors:
        _KernelCache(pmb, scenario.birth, scenario.motion)
    assert sum(len(p.r) for p in log.posteriors) > 0
    assert built == []
    # the counter sees the object forms when they are read
    assert len(log.posteriors[-1].bernoullis) == len(built) // 2 > 0
