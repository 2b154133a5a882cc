import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from trajsmooth.backward import (
    BackwardKernel,
    ContinuedSmoothed,
    EndedAtK,
    FirstDetected,
    LocalHypothesis,
    Particle,
    SmootherParams,
    Unaltered,
    backward_simulate,
    best_particle,
    build_backward_kernel,
    particles_from_jsonable,
    particles_to_jsonable,
    sample_bernoulli,
    sample_global,
    split_y,
)
from trajsmooth.errors import ContractError
from trajsmooth.forward import (
    BernoulliComponent,
    FilterLog,
    FilterParams,
    PMBDensity,
    run_forward,
)
from trajsmooth.gaussians import (
    GaussianDensity,
    GaussianMixture,
    LinearMotionModel,
    log_gaussian_pdf,
    smooth_head,
)
from trajsmooth.models import BirthModel
from trajsmooth.simulate import load_scenario_config, simulate_scenario
from trajsmooth.trajectory import Trajectory


def g1(mean, var):
    return GaussianDensity([mean], [[var]])


def traj(t, *xs):
    return Trajectory(t, np.array([[x] for x in xs]))


MOTION = LinearMotionModel([[1.0]], [[1.0]], ps=0.9)
BIRTH = BirthModel(GaussianMixture(((0.1, g1(0.0, 25.0)),)))


def test_split_y_basic():
    k = 4
    y = [traj(k + 1, 1.0, 2.0, 3.0), traj(k + 4, 5.0, 6.0)]
    present, absent = split_y(y, k)
    assert len(present) == 1 and present[0].t == k + 1
    assert len(absent) == 1 and absent[0].t == k + 4


def test_split_y_empty():
    assert split_y([], 3) == ([], [])


def test_split_y_all_present():
    y = [traj(5, 1.0), traj(5, 2.0)]
    present, absent = split_y(y, 4)
    assert len(present) == 2 and absent == []


def test_split_y_contract():
    with pytest.raises(ContractError):
        split_y([traj(3, 1.0)], 3)


def test_ended_weight_ps_one():
    m = LinearMotionModel([[1.0]], [[1.0]], ps=1.0)
    pmb = PMBDensity(GaussianMixture(), (BernoulliComponent(0.4, g1(0.0, 1.0)),))
    kernel = build_backward_kernel(pmb, BIRTH, m, [], gate=1e9, k=1)
    ended = kernel.bernoullis[0][0]
    assert math.exp(ended.log_weight) == pytest.approx(0.6)
    assert ended.existence == 0.0


def test_ended_weight_ps_095():
    m = LinearMotionModel([[1.0]], [[1.0]], ps=0.95)
    pmb = PMBDensity(GaussianMixture(), (BernoulliComponent(0.4, g1(0.0, 1.0)),))
    kernel = build_backward_kernel(pmb, BIRTH, m, [], gate=1e9, k=1)
    ended = kernel.bernoullis[0][0]
    assert math.exp(ended.log_weight) == pytest.approx(0.62)
    assert ended.existence == pytest.approx(0.4 * 0.05 / 0.62)


def test_continued_weight_value():
    # r=0.5, pS=0.9, x=0, P=1, F=1, Q=1, y1=0: w = 0.45 * N(0; 0, 2) = 0.45 / sqrt(4 pi)
    pmb = PMBDensity(GaussianMixture(), (BernoulliComponent(0.5, g1(0.0, 1.0)),))
    kernel = build_backward_kernel(pmb, BIRTH, MOTION, [traj(2, 0.0, 1.0)], gate=1e9, k=1)
    hyp = kernel._continued[(0, 0)]
    assert math.exp(hyp.log_weight) == pytest.approx(0.45 / math.sqrt(4 * math.pi), rel=1e-12)
    assert math.exp(hyp.log_weight) == pytest.approx(0.1269427, abs=1e-7)
    assert hyp.existence == 1.0


def test_gated_pair_infinite_cost():
    pmb = PMBDensity(GaussianMixture(), (BernoulliComponent(0.5, g1(0.0, 0.01)),))
    far = traj(2, 50.0, 50.0)
    kernel = build_backward_kernel(pmb, BIRTH, MOTION, [far], gate=9.0, k=1)
    assert kernel.cost[0, 0] == np.inf
    assert (0, 0) not in kernel._continued
    assert np.isfinite(kernel.cost[0, 1])  # own first-detection column stays open


def test_cost_entries_are_weight_ratios():
    rng = np.random.default_rng(4)
    pmb = PMBDensity(
        GaussianMixture(((0.4, g1(0.5, 2.0)),)),
        tuple(BernoulliComponent(rng.uniform(0.2, 0.9), g1(rng.uniform(-2, 2), 1.0)) for _ in range(3)),
    )
    present = [traj(3, rng.uniform(-2, 2), 0.0), traj(3, rng.uniform(-2, 2), 1.0)]
    kernel = build_backward_kernel(pmb, BIRTH, MOTION, present, gate=1e9, k=2)
    for (i, j), hyp in kernel._continued.items():
        ended = kernel.bernoullis[i][0]
        assert kernel.cost[j, i] == pytest.approx(-(hyp.log_weight - ended.log_weight))
    for j in range(kernel.m):
        fd = kernel.bernoullis[kernel.n_tracks + j][1]
        assert kernel.cost[j, kernel.n_tracks + j] == pytest.approx(-fd.log_weight)


def test_smoothed_head_matches_smooth_head_op():
    pmb = PMBDensity(GaussianMixture(), (BernoulliComponent(0.8, g1(1.0, 2.0)),))
    y = traj(5, -0.5, 0.2)
    kernel = build_backward_kernel(pmb, BIRTH, MOTION, [y], gate=1e9, k=4)
    hyp = kernel._continued[(0, 0)]
    ref = smooth_head(g1(1.0, 2.0), MOTION, y.states[0])
    np.testing.assert_allclose(hyp.density.g.mean, ref.mean, atol=1e-12)
    np.testing.assert_allclose(hyp.density.g.cov, ref.cov, atol=1e-12)


def test_first_detection_weight_and_split():
    ppp = GaussianMixture(((0.3, g1(2.0, 1.0)),))
    pmb = PMBDensity(ppp, ())
    y = traj(2, 2.5)
    kernel = build_backward_kernel(pmb, BIRTH, MOTION, [y], gate=1e9, k=1)
    fd = kernel.bernoullis[0][1].density
    assert isinstance(fd, FirstDetected)
    w_birth = 0.1 * math.exp(log_gaussian_pdf(np.array([2.5]), g1(0.0, 25.0)))
    w_ext = 0.9 * 0.3 * math.exp(log_gaussian_pdf(np.array([2.5]), g1(2.0, 2.0)))
    total = w_birth + w_ext
    assert math.exp(kernel.bernoullis[0][1].log_weight) == pytest.approx(total, rel=1e-9)
    assert fd.w_keep == pytest.approx(w_birth / total, rel=1e-9)
    assert fd.w_keep + fd.w_extend == pytest.approx(1.0, abs=1e-12)
    never = kernel.bernoullis[0][0]
    assert never.log_weight == 0.0 and never.existence == 0.0


def test_first_detection_underflow_floors_with_warning():
    pmb = PMBDensity(GaussianMixture(), ())
    empty_birth = BirthModel(GaussianMixture())
    with pytest.warns(RuntimeWarning):
        kernel = build_backward_kernel(pmb, empty_birth, MOTION, [traj(2, 0.0)], gate=1e9, k=1)
    assert np.isfinite(kernel.cost[0, 0])


def test_ppp_dead_scaled():
    ppp = GaussianMixture(((0.5, g1(0.0, 1.0)),))
    kernel = build_backward_kernel(PMBDensity(ppp, ()), BIRTH, MOTION, [], gate=1e9, k=1)
    assert kernel.ppp_dead.total_weight == pytest.approx(0.5 * (1.0 - MOTION.ps))


def make_cost_kernel(cost):
    cost = np.asarray(cost, dtype=float)
    return BackwardKernel(
        k=1,
        n_tracks=cost.shape[1] - cost.shape[0],
        m=cost.shape[0],
        present=(),
        absent=(),
        bernoullis=[],
        ppp_dead=GaussianMixture(),
        cost=cost,
    )


def test_sample_global_single_hypothesis():
    # one trajectory, no tracks: only the diagonal assignment exists
    pmb = PMBDensity(GaussianMixture(((0.2, g1(0.0, 1.0)),)), ())
    kernel = build_backward_kernel(pmb, BIRTH, MOTION, [traj(2, 0.1)], gate=1e9, k=1)
    rng = np.random.default_rng(0)
    assignment, log_w = sample_global(kernel, 5, rng)
    assert assignment.row_to_col == (0,)
    assert log_w == pytest.approx(-kernel.cost[0, 0])


def test_sample_global_empirical_frequencies():
    kernel = make_cost_kernel([[-math.log(0.9), -math.log(0.1)]])
    rng = np.random.default_rng(123)
    hits = sum(
        sample_global(kernel, 2, rng)[0].row_to_col[0] == 0 for _ in range(10_000)
    )
    assert abs(hits / 10_000 - 0.9) < 3.0 * math.sqrt(0.09 / 10_000)


def test_sample_global_m1_is_argmin():
    kernel = make_cost_kernel([[0.5, 2.0]])
    rng = np.random.default_rng(7)
    for _ in range(50):
        assignment, _ = sample_global(kernel, 1, rng)
        assert assignment.row_to_col == (0,)


def test_sample_global_prunes_small_hypotheses():
    kernel = make_cost_kernel([[-math.log(0.999), -math.log(0.001)]])
    rng = np.random.default_rng(5)
    for _ in range(2000):
        assignment, _ = sample_global(kernel, 2, rng, w_hyp_min=0.01)
        assert assignment.row_to_col == (0,)


def test_sample_bernoulli_ended_certain():
    rng = np.random.default_rng(1)
    h = LocalHypothesis(None, 0.0, 1.0, EndedAtK(g1(3.0, 0.5)))
    tr = sample_bernoulli(h, 4, False, rng)
    assert tr.t == 4 and tr.length == 1


def test_sample_bernoulli_ended_nonexistent():
    rng = np.random.default_rng(1)
    h = LocalHypothesis(None, 0.0, 0.0, EndedAtK(g1(3.0, 0.5)))
    assert all(sample_bernoulli(h, 4, False, rng) is None for _ in range(100))


def test_sample_bernoulli_first_detected_keep():
    rng = np.random.default_rng(2)
    tail = traj(5, 1.0, 2.0)
    h = LocalHypothesis(0, 0.0, 1.0, FirstDetected(1.0, 0.0, GaussianMixture(), tail))
    out = sample_bernoulli(h, 4, False, rng)
    assert out == tail and out.t == 5


def test_sample_bernoulli_first_detected_extend_prepends():
    rng = np.random.default_rng(3)
    tail = traj(5, 1.0, 2.0)
    heads = GaussianMixture(((1.0, g1(0.25, 1e-4)),))
    h = LocalHypothesis(0, 0.0, 1.0, FirstDetected(0.0, 1.0, heads, tail))
    out = sample_bernoulli(h, 4, True, rng)
    assert out.t == 4 and out.length == 3
    np.testing.assert_array_equal(out.states[1:], tail.states)
    np.testing.assert_allclose(out.states[0], [0.25])


def test_sample_bernoulli_continued_dirac_uses_mean():
    rng = np.random.default_rng(4)
    tail = traj(7, 0.0)
    smoothed = g1(1.25, 0.3)
    h = LocalHypothesis(0, 0.0, 1.0, ContinuedSmoothed(smoothed, tail))
    out = sample_bernoulli(h, 6, True, rng)
    np.testing.assert_allclose(out.states[0], [1.25])
    np.testing.assert_array_equal(out.states[1:], tail.states)


def test_sample_bernoulli_unaltered():
    rng = np.random.default_rng(5)
    tail = traj(9, 4.0)
    h = LocalHypothesis(1, 0.0, 1.0, Unaltered(tail))
    assert sample_bernoulli(h, 6, False, rng) == tail


def make_log(posteriors):
    log = FilterLog(k_max=len(posteriors))
    for p in posteriors:
        log.posteriors.append(p)
        log.predicted_ppps.append(p.ppp)
        log.estimates.append([])
    return log


def test_backward_simulate_k1():
    pmb = PMBDensity(
        GaussianMixture(), (BernoulliComponent(1.0, g1(2.0, 0.1)), BernoulliComponent(0.0, g1(0.0, 0.1)))
    )
    particles = backward_simulate(
        make_log([pmb]), BIRTH, MOTION, SmootherParams(num_particles=20, seed=1)
    )
    assert len(particles) == 20
    for p in particles:
        assert len(p.trajectories) == 1
        assert p.trajectories[0].t == 1 and p.trajectories[0].length == 1
        assert p.log_weight_acc == 0.0


def test_backward_simulate_empty():
    pmb = PMBDensity(GaussianMixture(), (BernoulliComponent(0.0, g1(0.0, 1.0)),))
    particles = backward_simulate(
        make_log([pmb, pmb, pmb]), BIRTH, MOTION, SmootherParams(num_particles=5, seed=2)
    )
    for p in particles:
        assert p.trajectories == ()
        assert p.log_weight_acc == 0.0


def test_backward_simulate_full_tracks_when_ps_one():
    # pS=1 and no birth/undetected support before K: every trajectory spans 1:K
    m = LinearMotionModel([[1.0]], [[0.5]], ps=1.0)
    birth = BirthModel(GaussianMixture())
    posts = [
        PMBDensity(GaussianMixture(), (BernoulliComponent(1.0, g1(float(k), 0.01)),))
        for k in range(1, 5)
    ]
    import warnings as w

    with w.catch_warnings():
        w.simplefilter("ignore", RuntimeWarning)
        particles = backward_simulate(
            make_log(posts), birth, m, SmootherParams(num_particles=30, seed=3)
        )
    for p in particles:
        assert len(p.trajectories) == 1
        assert p.trajectories[0].t == 1
        assert p.trajectories[0].length == 4


def test_backward_simulate_reproducible():
    pmb = PMBDensity(
        GaussianMixture(((0.2, g1(0.0, 4.0)),)),
        (BernoulliComponent(0.7, g1(0.0, 0.5)), BernoulliComponent(0.6, g1(3.0, 0.5))),
    )
    log = make_log([pmb, pmb, pmb])
    params = SmootherParams(num_particles=10, seed=42)
    a = backward_simulate(log, BIRTH, MOTION, params)
    b = backward_simulate(log, BIRTH, MOTION, params)
    for pa, pb in zip(a, b):
        assert pa.log_weight_acc == pb.log_weight_acc
        assert pa.trajectories == pb.trajectories


def test_backward_simulate_trajectories_within_horizon():
    pmb = PMBDensity(
        GaussianMixture(((0.2, g1(0.0, 4.0)),)),
        (BernoulliComponent(0.7, g1(0.0, 0.5)), BernoulliComponent(0.6, g1(3.0, 0.5))),
    )
    log = make_log([pmb] * 4)
    particles = backward_simulate(log, BIRTH, MOTION, SmootherParams(num_particles=50, seed=9))
    for p in particles:
        for tr in p.trajectories:
            assert 1 <= tr.t and tr.last_time <= 4


def desk_like_problem():
    """configs/desk_scale.json cut to 12 steps, filtered at M=20."""
    configs = Path(__file__).resolve().parent.parent / "configs"
    cfg = json.loads((configs / "desk_scale.json").read_text())
    cfg["K"] = 12
    cfg["schedule"]["deaths"] = [12, 12, 12]
    scenario = simulate_scenario(load_scenario_config(cfg))
    return run_forward(scenario, FilterParams(m_best=20)), scenario.birth, scenario.motion


# sha256 of the compact sorted-key particle JSON, recorded with the
# particle-by-particle loop that preceded the grouped one
PINNED_PARTICLES = {
    True: "85e23dce026e2cab2f77d95fb1bd7ccb57e2e582c62d5ac1add52b6b00f73fa5",
    False: "a7bb2dbcee9f2406c6e7977e280fed2b219f4b7c8e48dbac5c573bdab2f81323",
}


@pytest.mark.parametrize("dirac_mode", [True, False])
def test_backward_simulate_pinned_bytes(dirac_mode):
    log, birth, motion = desk_like_problem()
    params = SmootherParams(num_particles=40, m_best=20, dirac_mode=dirac_mode, seed=7)
    particles = backward_simulate(log, birth, motion, params)
    blob = json.dumps(particles_to_jsonable(particles), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_PARTICLES[dirac_mode]


@pytest.mark.parametrize("dirac_mode", [True, False])
def test_backward_simulate_particles_independent_of_count(dirac_mode):
    # particle i's stream is keyed by i alone, so grouping never couples particles
    log, birth, motion = desk_like_problem()
    runs = [
        backward_simulate(
            log, birth, motion,
            SmootherParams(num_particles=n, m_best=20, dirac_mode=dirac_mode, seed=3),
        )
        for n in (40, 10)
    ]
    assert particles_to_jsonable(runs[0][:10]) == particles_to_jsonable(runs[1])


def test_best_particle():
    p1 = Particle((), -1.0)
    p2 = Particle((), -5.0)
    assert best_particle([p1, p2]) is p1
    assert best_particle([p2]) is p2
    p3 = Particle((), -1.0)
    assert best_particle([p1, p3]) is p1  # tie keeps lowest index
    with pytest.raises(ContractError):
        best_particle([])


def test_particles_json_roundtrip():
    p = Particle((traj(2, 1.0, 2.0),), -3.5)
    back = particles_from_jsonable(particles_to_jsonable([p]))
    assert back[0].log_weight_acc == -3.5
    assert back[0].trajectories == p.trajectories


def test_murty_hypotheses_prefix_monotone_in_m():
    # enumerations at finite M are cost-prefixes of the exhaustive enumeration
    from trajsmooth.assignment import murty

    pmb = PMBDensity(
        GaussianMixture(((0.2, g1(1.5, 1.0)),)),
        (BernoulliComponent(0.7, g1(0.0, 0.5)), BernoulliComponent(0.6, g1(2.0, 0.5))),
    )
    present = [traj(3, 0.4), traj(3, 1.8)]
    kernel = build_backward_kernel(pmb, BIRTH, MOTION, present, gate=1e9, k=2)
    everything = murty(kernel.cost, 10_000)
    for m_best in (1, 2, 3, len(everything)):
        prefix = murty(kernel.cost, m_best)
        assert [a.row_to_col for a in prefix] == [a.row_to_col for a in everything[:m_best]]


def test_gate_gamma_overrides_gate_prob():
    pmb = PMBDensity(
        GaussianMixture(((0.2, g1(0.0, 4.0)),)),
        (BernoulliComponent(0.7, g1(0.0, 0.5)), BernoulliComponent(0.6, g1(3.0, 0.5))),
    )
    log = make_log([pmb, pmb, pmb])
    a = backward_simulate(
        log, BIRTH, MOTION, SmootherParams(num_particles=10, gate_prob=1.0, seed=5)
    )
    b = backward_simulate(
        log,
        BIRTH,
        MOTION,
        SmootherParams(num_particles=10, gate_prob=0.1, gate_gamma=np.inf, seed=5),
    )
    for pa, pb in zip(a, b):
        assert pa.trajectories == pb.trajectories
        assert pa.log_weight_acc == pb.log_weight_acc


def test_backward_step_preserves_conditioning_set():
    # restriction of the sampled set to k+1:K must reproduce the previous set
    from trajsmooth.backward import build_backward_kernel as build

    def restrict(tr, k):
        if tr.t >= k + 1:
            return tr
        if tr.last_time <= k:
            return None
        return Trajectory(k + 1, tr.states[k + 1 - tr.t:])

    rng = np.random.default_rng(31)
    pmb = PMBDensity(
        GaussianMixture(((0.3, g1(1.0, 2.0)),)),
        (BernoulliComponent(0.8, g1(0.0, 0.5)), BernoulliComponent(0.6, g1(2.0, 0.5))),
    )
    k_max = 5
    current = [traj(k_max, 0.1), traj(k_max, 2.2)]
    for k in range(k_max - 1, 0, -1):
        kernel = build(pmb, BIRTH, MOTION, current, gate=1e9, k=k)
        assignment, _ = sample_global(kernel, 20, rng)
        col_to_row = {c: r for r, c in enumerate(assignment.row_to_col)}
        new_set = list(kernel.absent)
        for i in range(kernel.n_tracks):
            hyp = (
                kernel._continued[(i, col_to_row[i])]
                if i in col_to_row
                else kernel.bernoullis[i][0]
            )
            sampled = sample_bernoulli(hyp, k, False, rng)
            if sampled is not None:
                new_set.append(sampled)
        for j in range(kernel.m):
            if assignment.row_to_col[j] == kernel.n_tracks + j:
                sampled = sample_bernoulli(kernel.bernoullis[kernel.n_tracks + j][1], k, False, rng)
                if sampled is not None:
                    new_set.append(sampled)
        restricted = [r for r in (restrict(tr, k) for tr in new_set) if r is not None]
        assert sorted(restricted, key=lambda t: (t.t, t.states[0, 0])) == sorted(
            current, key=lambda t: (t.t, t.states[0, 0])
        )
        current = new_set
