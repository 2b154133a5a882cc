import gc
import hashlib
import itertools
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import desk_like_problem, g, gating_problem, make_log, tv_toy
from scipy.special import logsumexp
from scipy.stats import kstest, norm

from trajsmooth import assignment, backward
from trajsmooth.assignment import _components, murty
from trajsmooth.backward import (
    BackwardKernel,
    ContinuedSmoothed,
    EndedAtK,
    FirstDetected,
    LocalHypothesis,
    Particle,
    ParticleSet,
    SmootherParams,
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
    FilterParams,
    PMBDensity,
    _lse_rows,
    run_forward,
)
from trajsmooth.gaussians import (
    GaussianDensity,
    GaussianMixture,
    LinearMotionModel,
    _gated,
    _psd_root,
    _sampling_root,
    _sampling_roots,
    symmetrize,
)
from trajsmooth.models import BirthModel
from trajsmooth.simulate import load_scenario_config, simulate_scenario
from trajsmooth.trajectory import Trajectory

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
    ended = kernel.ended[0]
    assert math.exp(ended.log_weight) == pytest.approx(0.6)
    assert ended.existence == 0.0


def test_ended_weight_ps_095():
    m = LinearMotionModel([[1.0]], [[1.0]], ps=0.95)
    pmb = PMBDensity(GaussianMixture(), (BernoulliComponent(0.4, g1(0.0, 1.0)),))
    kernel = build_backward_kernel(pmb, BIRTH, m, [], gate=1e9, k=1)
    ended = kernel.ended[0]
    assert math.exp(ended.log_weight) == pytest.approx(0.62)
    assert ended.existence == pytest.approx(0.4 * 0.05 / 0.62)


def test_continued_weight_value():
    # r=0.5, pS=0.9, x=0, P=1, F=1, Q=1, y1=0: w = 0.45 * N(0; 0, 2) = 0.45 / sqrt(4 pi)
    pmb = PMBDensity(GaussianMixture(), (BernoulliComponent(0.5, g1(0.0, 1.0)),))
    kernel = build_backward_kernel(pmb, BIRTH, MOTION, [traj(2, 0.0, 1.0)], gate=1e9, k=1)
    hyp = kernel.continued(0, 0)
    assert math.exp(hyp.log_weight) == pytest.approx(0.45 / math.sqrt(4 * math.pi), rel=1e-12)
    assert math.exp(hyp.log_weight) == pytest.approx(0.1269427, abs=1e-7)
    assert hyp.existence == 1.0
    # smoothed head: mean x + G (y1 - F x) = 0, variance P - G F P = 0.5 with G = 0.5;
    # a 1-d sampling root is the standard deviation
    np.testing.assert_allclose(hyp.density.mean, [0.0], atol=1e-15)
    assert hyp.density.root == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_gated_pair_infinite_cost():
    pmb = PMBDensity(GaussianMixture(), (BernoulliComponent(0.5, g1(0.0, 0.01)),))
    far = traj(2, 50.0, 50.0)
    kernel = build_backward_kernel(pmb, BIRTH, MOTION, [far], gate=9.0, k=1)
    assert kernel.cost[0, 0] == np.inf  # the only record of a gated-out continuation
    assert np.isfinite(kernel.cost[0, 1])  # own first-detection column stays open


def test_cost_entries_are_weight_ratios():
    rng = np.random.default_rng(4)
    pmb = PMBDensity(
        GaussianMixture(((0.4, g1(0.5, 2.0)),)),
        tuple(BernoulliComponent(rng.uniform(0.2, 0.9), g1(rng.uniform(-2, 2), 1.0)) for _ in range(3)),
    )
    present = [traj(3, rng.uniform(-2, 2), 0.0), traj(3, rng.uniform(-2, 2), 1.0)]
    kernel = build_backward_kernel(pmb, BIRTH, MOTION, present, gate=1e9, k=2)
    pairs = list(zip(*np.nonzero(np.isfinite(kernel.cost[:, :kernel.n_tracks]))))
    assert len(pairs) == 6  # the gate at 1e9 keeps every pair
    for j, i in pairs:
        hyp = kernel.continued(i, j)
        ended = kernel.ended[i]
        assert kernel.cost[j, i] == pytest.approx(-(hyp.log_weight - ended.log_weight))
    for j in range(kernel.m):
        fd = kernel.first_detected[j]
        assert kernel.cost[j, kernel.n_tracks + j] == pytest.approx(-fd.log_weight)


def test_first_detection_weight_and_split():
    ppp = GaussianMixture(((0.3, g1(2.0, 1.0)),))
    pmb = PMBDensity(ppp, ())
    y = traj(2, 2.5)
    kernel = build_backward_kernel(pmb, BIRTH, MOTION, [y], gate=1e9, k=1)
    fd = kernel.first_detected[0].density
    assert isinstance(fd, FirstDetected)
    w_birth = 0.1 * norm.pdf(2.5, 0.0, 5.0)
    w_ext = 0.9 * 0.3 * norm.pdf(2.5, 2.0, math.sqrt(2.0))
    total = w_birth + w_ext
    assert math.exp(kernel.first_detected[0].log_weight) == pytest.approx(total, rel=1e-9)
    assert fd.w_keep == pytest.approx(w_birth / total, rel=1e-9)
    assert fd.w_keep + fd.w_extend == pytest.approx(1.0, abs=1e-12)


def test_first_detection_underflow_floors_with_warning():
    pmb = PMBDensity(GaussianMixture(), ())
    empty_birth = BirthModel(GaussianMixture())
    # no birth and no undetected intensity: there is no term to underflow
    with pytest.warns(RuntimeWarning, match="no first-detection term for trajectory 0; floored"):
        kernel = build_backward_kernel(pmb, empty_birth, MOTION, [traj(2, 0.0)], gate=1e9, k=1)
    assert np.isfinite(kernel.cost[0, 0])


def make_cost_kernel(cost):
    cost = np.asarray(cost, dtype=float)
    m = cost.shape[0]
    return BackwardKernel(
        k=1, cost=cost, step=None, present=(), diffs=np.empty((0, m, 1)),
        log_w=np.empty((0, m)), first=None, start=0, absent=(),
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


def head(mean, var):
    """Mean and sampling root of a scalar Gaussian, as a hypothesis stores them."""
    g = g1(mean, var)
    return g.mean, _sampling_root(g.cov)


def test_sample_bernoulli_ended_certain():
    rng = np.random.default_rng(1)
    h = LocalHypothesis(0.0, 1.0, EndedAtK(*head(3.0, 0.5)))
    tr = sample_bernoulli(h, 4, False, rng)
    assert tr.t == 4 and tr.length == 1


def test_sample_bernoulli_ended_nonexistent():
    rng = np.random.default_rng(1)
    h = LocalHypothesis(0.0, 0.0, EndedAtK(*head(3.0, 0.5)))
    assert all(sample_bernoulli(h, 4, False, rng) is None for _ in range(100))


def test_sample_bernoulli_first_detected_keep():
    rng = np.random.default_rng(2)
    tail = traj(5, 1.0, 2.0)
    h = LocalHypothesis(0.0, 1.0, FirstDetected(1.0, 0.0, [], [], np.empty((0, 1)), [], tail))
    out = sample_bernoulli(h, 4, False, rng)
    assert out == tail and out.t == 5


def test_sample_bernoulli_first_detected_extend_prepends():
    rng = np.random.default_rng(3)
    tail = traj(5, 1.0, 2.0)
    mean, root = head(0.25, 1e-4)
    fd = FirstDetected(0.0, 1.0, [0.0], [0], mean[None, :], [root], tail)
    h = LocalHypothesis(0.0, 1.0, fd)
    out = sample_bernoulli(h, 4, True, rng)
    assert out.t == 4 and out.length == 3
    np.testing.assert_array_equal(out.states[1:], tail.states)
    np.testing.assert_allclose(out.states[0], [0.25])


def test_sample_bernoulli_continued_dirac_uses_mean():
    rng = np.random.default_rng(4)
    tail = traj(7, 0.0)
    h = LocalHypothesis(0.0, 1.0, ContinuedSmoothed(*head(1.25, 0.3), tail))
    out = sample_bernoulli(h, 6, True, rng)
    np.testing.assert_allclose(out.states[0], [1.25])
    np.testing.assert_array_equal(out.states[1:], tail.states)


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


# sha256 of the compact sorted-key particle JSON. Re-recorded when the kernel
# took the forward filter's gating (two stacked matmuls) and log-sum-exp
# (`forward._lse_rows`), and every table was renormalised per kept count: every
# particle's trajectory set and the best particle stayed bit-identical, and
# only the last bits of some log-weights `c` moved. The sampled-head pins here,
# of the toy and of the gating toy were re-recorded again when the normals
# became Box-Muller draws from word pairs; the dirac-mode pins did not move.
# Both pins here and the gating toy's were re-recorded when each connected
# component of a kernel was ranked and drawn on its own; the toy's did not move.
# Every pin here, the toy's and the gating toy's were re-recorded when the filter
# and kernel weights became plain numpy arithmetic (a shifted log-sum-exp, ufunc
# logs, ln w_hat as one left-to-right bincount): every particle kept its
# trajectories' birth times and lengths; states moved by at most 2.3e-12 and
# log-weights by at most 1.3e-13 relative. They were re-recorded again, with the
# toy's, when one Cholesky factor gave the inverses' log-normalisers in place of an
# LU log-determinant: no birth time or length moved; states moved by at most
# 2.9e-12 and log-weights by at most 1.5e-13 relative.
PINNED_PARTICLES = {
    True: "50bb065cbd72708f0a7a85296e9ff49b42fb4ce417029df4d4a8981e87993c2d",
    False: "91f6ee5f2b310e7a21472cfa8e9fd11f4c1f5f2f836e904815d3ccd49312701f",
}


@pytest.fixture
def no_kernel_records_or_prepends(monkeypatch):
    # the sampler works on node tables: it builds no kernel record and prepends no head
    def fail(*args, **kwargs):
        raise AssertionError("the sampler built a kernel record or prepended a head")

    monkeypatch.setattr(Trajectory, "prepend", fail)
    monkeypatch.setattr(backward, "BackwardKernel", fail)


@pytest.mark.parametrize("dirac_mode", [True, False])
def test_backward_simulate_pinned_bytes(no_kernel_records_or_prepends, dirac_mode):
    log, birth, motion = desk_like_problem()
    params = SmootherParams(num_particles=40, m_best=20, dirac_mode=dirac_mode, seed=7)
    particles = backward_simulate(log, birth, motion, params)
    blob = json.dumps(particles_to_jsonable(particles), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_PARTICLES[dirac_mode]


def test_dirac_simulation_computes_no_sampling_root(monkeypatch):
    # dirac heads are smoothed means, so no draw reads a root and none is computed
    def fail(covs):
        raise AssertionError("a dirac step computed a sampling root")

    monkeypatch.setattr(backward, "_sampling_root", fail)
    monkeypatch.setattr(backward, "_sampling_roots", fail)
    log, birth, motion = desk_like_problem()
    params = SmootherParams(num_particles=40, m_best=20, dirac_mode=True, seed=7)
    particles = backward_simulate(log, birth, motion, params)
    blob = json.dumps(particles_to_jsonable(particles), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_PARTICLES[True]


def assert_same_root(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "covs, roots",
    [
        ([[[2.0]], [[0.0]]], [[[math.sqrt(2.0)]], [[0.0]]]),
        (
            [np.diag([2.0, 0.5]), np.zeros((2, 2)), [[1.0, 1.0], [1.0, 1.0]]],
            [np.diag([math.sqrt(2.0), math.sqrt(0.5)]), np.zeros((2, 2)), None],
        ),
    ],
    ids=["1d", "2d"],
)
def test_sampling_roots_on_read_equal_sampling_root(covs, roots):
    # the stacked factorisation gives every member's `_sampling_root` bit for bit,
    # the (d, d) matrix a draw reads; a point mass's is zero
    covs = np.array(covs, float)
    d = covs.shape[1]
    stacked = _sampling_roots(covs)
    assert_same_root(stacked, np.array([_sampling_root(c) for c in covs]))
    for root, expected in zip(stacked, roots):
        if expected is not None:
            np.testing.assert_array_equal(root, expected)
    if d == 2:  # the singular member takes the eigen fallback
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(covs[2])
        assert_same_root(stacked[2], _psd_root(covs[2]))
    # a draw's members, repeated or not, read the same matrices
    idx = np.array([len(covs) - 1, 0, len(covs) - 1, 1])
    assert_same_root(backward._roots_of(covs, idx), stacked[idx])
    # and so do the records, which compute their roots when read
    pmb = PMBDensity(
        GaussianMixture(((0.2, GaussianDensity(np.zeros(d), np.eye(d))),)),
        tuple(BernoulliComponent(0.7, GaussianDensity(np.ones(d), c)) for c in covs),
    )
    motion = LinearMotionModel(np.eye(d), 0.5 * np.eye(d), ps=0.9)
    birth = BirthModel(GaussianMixture(((0.1, GaussianDensity(np.zeros(d), np.eye(d))),)))
    present = [Trajectory(2, np.ones((1, d)))]
    kernel = build_backward_kernel(pmb, birth, motion, present, math.inf, k=1)
    assert_same_root(np.array([h.density.root for h in kernel.ended]), stacked)


def test_kernel_records_carry_sampling_roots():
    pmb = PMBDensity(
        GaussianMixture(((0.3, g1(1.0, 2.0)), (0.2, g1(-1.0, 0.5)))),
        (BernoulliComponent(0.8, g1(0.0, 0.5)), BernoulliComponent(0.6, g1(2.0, 0.0))),
    )
    kernel = build_backward_kernel(pmb, BIRTH, MOTION, [traj(3, 0.4), traj(3, 1.8)], 1e9, k=2)
    step = kernel.step
    for i, ended in enumerate(kernel.ended):
        assert_same_root(ended.density.root, _sampling_root(pmb.bernoullis[i].density.cov))
    for i in range(kernel.n_tracks):
        for j in range(kernel.m):
            root = kernel.continued(i, j).density.root
            assert_same_root(root, _sampling_root(step.tracks.covs[step.active_pos[i]]))
    assert len(step.ppp.covs) == 2
    for fd in kernel.first_detected:
        for c in range(2):
            assert_same_root(fd.density.roots[c], _sampling_root(step.ppp.covs[c]))


# criterion 04's toy: 1-2 row kernels with every hypothesis family, a distinct
# conditioning set per particle; re-recorded with PINNED_PARTICLES
PINNED_TOY = "20f8fe1e1aebf507a6cf5c7e4f60fe86ca06854ea31eb3d9b2a4fed0ef510d3b"


def test_backward_simulate_pinned_bytes_toy(no_kernel_records_or_prepends):
    log, birth, motion = tv_toy()
    params = SmootherParams(num_particles=3000, m_best=64, gate_prob=1.0, w_hyp_min=0.0, seed=5)
    particles = backward_simulate(log, birth, motion, params)
    blob = json.dumps(particles_to_jsonable(particles), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_TOY


# the gating toy's first-detection paths: a uniform birth level, heads gated
# into some undetected components, the ungated fallback and the underflow
# floor (without the uniform level), with w_hyp_min > 0; re-recorded with
# PINNED_PARTICLES
PINNED_GATING = {
    (0.0, True): "ee3aded0f5943058c8de82e165c5a99d0785e8bcfbbad3a112b276f7b3b5fe19",
    (0.0, False): "68e572ddbc9f01dd1fc12faf39419182a7e2de5ec41ba4d630832f5a7a4132c4",
    (0.02, True): "d883ce1e27416fc82fa461c3e20e0a4a7e5eb5a462c6b21057bf8813a15c26a8",
    (0.02, False): "3a4a6912e17023724ca55dd58cc9fcea6ff9953872791904dac21d8a8047ad8a",
}


@pytest.mark.parametrize("uniform_density, dirac_mode", list(PINNED_GATING))
def test_backward_simulate_pinned_bytes_gating(uniform_density, dirac_mode):
    log, birth, motion = gating_problem(uniform_density)
    params = SmootherParams(
        num_particles=60, m_best=16, gate_prob=0.99, w_hyp_min=1e-3, dirac_mode=dirac_mode, seed=21
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        particles = backward_simulate(log, birth, motion, params)
    # the track near 60 floors its first-detection weight only without the uniform level
    assert any("underflow" in str(w.message) for w in caught) == (uniform_density == 0.0)
    blob = json.dumps(particles_to_jsonable(particles), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_GATING[uniform_density, dirac_mode]


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


# a one-step log: two 2-D tracks far apart, so a head's track is its side of x = 50
ONE_STEP_R = np.array([0.3, 0.8])
ONE_STEP_MEANS = np.array([[0.0, 0.0], [100.0, -50.0]])
ONE_STEP_COVS = np.array([[[2.0, 0.6], [0.6, 1.0]], [[0.5, -0.3], [-0.3, 3.0]]])


def one_step_problem():
    motion = LinearMotionModel(np.eye(2), 0.1 * np.eye(2), ps=0.9)
    birth = BirthModel(GaussianMixture(((0.1, g([0.0, 0.0], 4.0)),)))
    ppp = GaussianMixture(((0.2, g([10.0, 10.0], 1.0)),))
    tracks = tuple(
        BernoulliComponent(float(r), g(mean, cov))
        for r, mean, cov in zip(ONE_STEP_R, ONE_STEP_MEANS, ONE_STEP_COVS)
    )
    return make_log([PMBDensity(ppp, tracks)]), birth, motion


def one_step_heads(particles):
    """Each particle's kept heads with their particle, track and row in `states`."""
    owner, _ = np.nonzero(particles.rows >= 0)
    at = particles.start[particles.rows[particles.rows >= 0]]
    heads = particles.states[at]
    return owner, (heads[:, 0] > 50.0).astype(int), at, heads


def test_backward_simulate_one_step_draws_the_posterior_at_k():
    # with K = 1 only the draw at K runs: every track ends there and is kept
    # with its filtered existence, its head drawn from its filtering Gaussian.
    # Bounds from seeds 0-199 at N = 4e4 (400 values per statistic): the largest
    # |z| of a track's frequency was 3.1, of n d^T P^-1 d for its head mean
    # (chi-square, 2 dof) 22.2, and of sqrt(n) max|L^-1 S L^-T - I| for its
    # head covariance 4.3
    log, birth, motion = one_step_problem()
    n = 40_000
    sampled = backward_simulate(log, birth, motion, SmootherParams(num_particles=n, seed=3))
    assert (sampled.birth == 1).all() and (sampled.length == 1).all()
    owner, track, _, heads = one_step_heads(sampled)
    for i in (0, 1):
        x = heads[track == i]
        r, mean, cov = ONE_STEP_R[i], ONE_STEP_MEANS[i], ONE_STEP_COVS[i]
        assert abs(len(x) / n - r) < 5.0 * math.sqrt(r * (1.0 - r) / n)
        d = x.mean(axis=0) - mean
        assert len(x) * d @ np.linalg.solve(cov, d) < 40.0
        whiten = np.linalg.inv(np.linalg.cholesky(cov))
        spread = np.abs(whiten @ np.cov(x.T) @ whiten.T - np.eye(2)).max()
        assert math.sqrt(len(x)) * spread < 7.0

    # dirac mode reads the same existence uniforms and keeps each track's mean,
    # one node shared by every particle that keeps it
    dirac = backward_simulate(
        log, birth, motion, SmootherParams(num_particles=n, dirac_mode=True, seed=3)
    )
    d_owner, d_track, d_at, d_heads = one_step_heads(dirac)
    assert d_owner.tolist() == owner.tolist() and d_track.tolist() == track.tolist()
    assert d_heads.tobytes() == ONE_STEP_MEANS[d_track].tobytes()
    assert [len(set(d_at[d_track == i].tolist())) for i in (0, 1)] == [1, 1]

    for dirac_mode in (False, True):
        small, large = (
            backward_simulate(
                log, birth, motion,
                SmootherParams(num_particles=size, dirac_mode=dirac_mode, seed=3),
            )
            for size in (500, 1000)
        )
        assert particles_to_jsonable(large[:500]) == particles_to_jsonable(small)


@pytest.mark.parametrize("dirac_mode", [True, False])
@pytest.mark.parametrize("problem", ["desk", "toy"])
def test_backward_simulate_particles_independent_of_batch(monkeypatch, problem, dirac_mode):
    # every number is a function of its counter, so the batches change nothing: a bound
    # of one cost cell gives one set per batch, and 20 cells put the toy's sets of
    # different sizes into one batch
    if problem == "desk":
        log, birth, motion = desk_like_problem()
        params = SmootherParams(num_particles=40, m_best=20, dirac_mode=dirac_mode, seed=7)
    else:
        log, birth, motion = tv_toy()
        params = SmootherParams(
            num_particles=300, m_best=64, gate_prob=1.0, w_hyp_min=0.0, dirac_mode=dirac_mode,
            seed=5,
        )
    default = particles_to_jsonable(backward_simulate(log, birth, motion, params))
    for bound in (1, 20):
        monkeypatch.setattr(backward, "_BATCH", bound)
        assert particles_to_jsonable(backward_simulate(log, birth, motion, params)) == default


def test_batches_bound_cost_cells(monkeypatch):
    # sets of 0-3 present trajectories against 2 tracks count 1, 4, 9 and 16 cells; a
    # batch takes sets while they fit, and a set larger than the bound goes alone
    monkeypatch.setattr(backward, "_BATCH", 13)
    assert backward._batches(np.array([0, 1, 2, 3, 0]), 2) == [(0, 2), (2, 3), (3, 4), (4, 5)]
    assert backward._batches(np.array([1, 1, 1]), 2) == [(0, 3)]
    assert backward._batches(np.array([], dtype=int), 2) == []


def content_key(trajectories):
    """A conditioning set's content: the ordered (birth time, state bytes) of its trajectories."""
    return tuple((tr.t, tr.states.tobytes()) for tr in trajectories)


@pytest.mark.parametrize(
    "problem, dirac_mode", [("desk", True), ("gating", True), ("gating", False)]
)
def test_node_id_groups_equal_content_groups(monkeypatch, problem, dirac_mode):
    # equal trajectories must have equal node ids: the sets of a step are then
    # as many by id rows as by content, and a step builds one kernel per
    # distinct content of the trajectories present at k+1, as grouping by
    # content would
    if problem == "desk":
        log, birth, motion = desk_like_problem()
        params = SmootherParams(num_particles=40, m_best=20, dirac_mode=dirac_mode, seed=7)
    else:
        log, birth, motion = gating_problem(0.02)
        params = SmootherParams(
            num_particles=60, m_best=16, gate_prob=0.99, w_hyp_min=1e-3, dirac_mode=dirac_mode,
            seed=21,
        )
    built, steps = [], []
    kernels, next_sets = backward._kernels, backward._next_sets

    def counted_kernels(cache, heads, sizes, gate):
        built.append(len(sizes))
        return kernels(cache, heads, sizes, gate)

    def counted_sets(nodes, sets, drawn, k, share):
        contents = [p.trajectories for p in nodes.particles(sets, np.zeros(len(sets)))]
        present = {content_key(tr for tr in trs if tr.t == k + 1) for trs in contents}
        by_id = len({row.tobytes() for row in sets})
        steps.append((by_id, len({content_key(trs) for trs in contents}), sum(built), len(present)))
        built.clear()
        return next_sets(nodes, sets, drawn, k, share)

    monkeypatch.setattr(backward, "_kernels", counted_kernels)
    monkeypatch.setattr(backward, "_next_sets", counted_sets)
    backward_simulate(log, birth, motion, params)
    assert len(steps) == log.k_max
    for by_id, by_content, n_kernels, n_present in steps:
        assert by_id == by_content and n_kernels == n_present, steps
    if dirac_mode:  # dirac particles share sets, so the check is not vacuous
        assert sum(by_id for by_id, *_ in steps) < params.num_particles * len(steps)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3).flatmap(
    lambda width: st.lists(st.lists(st.integers(-1, 3), min_size=width, max_size=width),
                           max_size=30).map(lambda rows: np.array(rows, int).reshape(len(rows), width))
))
def test_unique_rows_numbers_rows_by_first_appearance(rows):
    seen = {}
    for row in map(tuple, rows.tolist()):
        seen.setdefault(row, len(seen))
    first, of = backward._unique_rows(rows)
    assert of.tolist() == [seen[tuple(row)] for row in rows.tolist()]
    assert [tuple(row) for row in rows[first].tolist()] == list(seen)


def philox_key(seed):
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def philox_block(key, counter):
    """The four words of Philox4x64-10 at the counter (c0, c1, c2, c3), from numpy's generator.

    numpy increments its 256-bit counter before each block, so it starts one below.
    """
    n = sum(c << (64 * i) for i, c in enumerate(counter)) - 1
    start = np.array([(n >> (64 * i)) % 2**64 for i in range(4)], dtype=np.uint64)
    return np.random.Philox(key=key, counter=start).random_raw(4)


@pytest.mark.parametrize("seed", [0, 1, 7, 404, 2**40 + 3])
def test_philox_equals_numpy_philox(seed):
    # `_words` against one numpy block per (particle, slot) counter: particle 0, whose run
    # starts at counter word 0 = 2**64 - 1 and carries into the step, a batch above 0, a
    # slot of two blocks, repeated particles and slots, particles far apart, and no
    # particles with a scalar slot or an empty slot array
    key = philox_key(seed)
    for step, role, particles, slots, n_words in (
        (3, backward._HYP, [0, 1, 2], 0, 1),
        (1, backward._EXT, [0, 5, 0], [2, 2, 7], 4),
        (5, backward._EXIST, [7, 9, 8], 0, 6),
        (2, backward._HEAD, [4, 4, 2, 4], [1, 3, 1, 1], 9),
        (9, backward._FIRST, [900, 3, 52_000, 3], [0, 2, 0, 2], 2),
        (4, backward._HYP, np.empty(0, dtype=int), 0, 3),
        (4, backward._HEAD, np.empty(0, dtype=int), np.empty(0, dtype=int), 5),
    ):
        got = backward._words(key, step, role, particles, slots, n_words)
        expected = [
            np.concatenate([
                philox_block(key, (p, step, role + 256 * b, s)) for b in range(-(-n_words // 4))
            ])[:n_words]
            for p, s in zip(particles, np.broadcast_to(slots, len(particles)).tolist())
        ]
        assert got.dtype == np.uint64 and got.shape == (len(particles), n_words)
        np.testing.assert_array_equal(
            got, np.array(expected, dtype=np.uint64).reshape(len(particles), n_words)
        )


@pytest.mark.parametrize("seed", [0, 3, 404])
def test_uniforms_equal_generator_random(seed):
    # numpy's stream from its initial counter is particles 1, 2, ... at step 0, role 0, slot 0
    words = backward._words(philox_key(seed), 0, 0, np.arange(1, 251), n_words=4)
    expected = np.random.Generator(np.random.Philox(seed)).random(1000)
    assert backward._uniforms(words.ravel()).tobytes() == expected.tobytes()


def test_normals_are_finite_and_standard():
    words = backward._words(philox_key(11), 3, backward._EXT, np.arange(25_000), n_words=4)
    z = backward._normals(words).ravel()
    n = z.size
    assert n == 100_000 and np.isfinite(z).all()
    assert abs(z.mean()) < 5.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 5.0 * math.sqrt(2.0 / n)
    # u stays inside (0, 1]: the smallest gives the largest radius, u = 1 radius 0
    top = 2**64 - 1
    extremes = backward._normals(np.array([0, 0, 0, top, top, 0, top, top], dtype=np.uint64))
    assert np.isfinite(extremes).all()
    assert extremes[0] == pytest.approx(math.sqrt(106.0 * math.log(2.0))) and extremes[1] == 0.0
    assert (extremes[4:] == 0.0).all()


@pytest.mark.parametrize("pairs", [1, 2])
def test_normals_of_slices_equal_normals_of_whole(pairs):
    # a row's normals do not depend on the rows around it, bit for bit, over odd
    # lengths: the particle-count and batch independence rest on this
    rng = np.random.default_rng(29)
    words = rng.integers(0, 2**64, size=(1001, 2 * pairs), dtype=np.uint64)
    whole = backward._normals(words)
    for n in (1, 3, 7, 65, 1001):
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, 4), replace=False))
        parts = [backward._normals(part) for part in np.split(words[:n], cuts)]
        assert np.concatenate(parts).tobytes() == whole[:n].tobytes()
        # and one row at a time
        assert np.concatenate([backward._normals(row) for row in words[:n]]).tobytes() == (
            whole[:n].ravel().tobytes()
        )


def test_normals_match_libm_box_muller():
    # numpy's SIMD log, cos and sin against the C library's, within a few ulps
    words = backward._words(philox_key(13), 4, backward._HEAD, np.arange(10_000), n_words=4)
    expected = []
    for a, b in words.reshape(-1, 2).tolist():
        r = math.sqrt(-2.0 * math.log(((a >> 11) + 1) * 2.0**-53))
        theta = 2.0 * math.pi * ((b >> 11) * 2.0**-53)
        expected += [r * math.cos(theta), r * math.sin(theta)]
    expected = np.array(expected)
    z = backward._normals(words).ravel()
    assert (np.abs(z - expected) <= 4.0 * np.spacing(np.maximum(np.abs(expected), 1.0))).all()


def test_normals_pass_kolmogorov_smirnov():
    words = backward._words(philox_key(17), 5, backward._HEAD, np.arange(250_000), n_words=4)
    z = backward._normals(words).ravel()
    assert z.size == 1_000_000
    assert kstest(z, norm.cdf).pvalue > 0.01


def test_draw_index_clamps_a_table_ending_below_one():
    # normalised cumulative tables can end a few ulps below 1
    cum = np.array([0.25, 0.5, 0.9999999999999991])
    assert backward._draw_index(cum, 1.0 - 2.0**-53) == 2
    u = np.array([0.0, 0.25, 0.3, 0.9999999999999991, 1.0 - 2.0**-53])
    assert backward._draw_index(cum, u).tolist() == [0, 0, 1, 2, 2]


_ONE_BELOW = 1.0 - 2.0**-53  # the largest uniform


@st.composite
def padded_tables(draw):
    """Cumulative tables of 1-8 outcomes padded with +inf, with one uniform per table.

    Some tables end a few ulps below 1, some uniforms sit on a table entry,
    and some are the largest uniform.
    """
    tables, uniforms = [], []
    for _ in range(draw(st.integers(1, 6))):
        weights = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=8)))
        cum = np.cumsum(weights / weights.sum())
        cum[-1] = draw(st.sampled_from([cum[-1], 1.0, 1.0 - 2.0**-52, 1.0 - 4 * 2.0**-53]))
        tables.append(np.maximum.accumulate(cum))
        uniforms.append(draw(st.one_of(
            st.floats(0.0, _ONE_BELOW), st.just(_ONE_BELOW), st.just(0.0), st.sampled_from(cum),
        )))
    width = max(len(c) for c in tables)
    padded = np.array([np.concatenate((c, np.full(width - len(c), np.inf))) for c in tables])
    return tables, padded, np.array(uniforms)


@settings(max_examples=300, deadline=None)
@given(padded_tables())
def test_stacked_draw_equals_draw_index_per_table(case):
    tables, padded, u = case
    kept = np.array([len(c) for c in tables])
    expected = [int(backward._draw_index(c, x)) for c, x in zip(tables, u)]
    assert backward._draw_rows(padded, kept, u).tolist() == expected
    # every table, one-outcome ones included, also at the largest uniform
    top = np.full(len(tables), _ONE_BELOW)
    assert backward._draw_rows(padded, kept, top).tolist() == [len(c) - 1 for c in tables]


def per_component_distribution(cost, rows, m_best, w_hyp_min):
    """One component's table as the per-component form computes it: a 1-d sum over the kept."""
    hyps = murty(cost[rows], m_best)
    log_w = np.array([-h.cost for h in hyps])
    shifted = np.exp(log_w - log_w.max())
    probs = shifted / shifted.sum()
    keep = probs >= w_hyp_min
    keep[0] = True
    pr = probs[keep]
    return [h.row_to_col for h in hyps[:keep.sum()]], log_w[keep], np.cumsum(pr / pr.sum())


def table_entries(tables):
    """Per head keying a table entry: (its table, its index in it)."""
    return {h: (t, i) for t in tables for i, h in enumerate(t.head.tolist())}


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4), st.integers(0, 12), st.integers(1, 30),
    st.sampled_from([0.0, 1e-4, 0.01, 0.05, 0.3]), st.integers(0, 2**32 - 1),
)
def test_stacked_tables_equal_per_table_form(m, n_tracks, m_best, w_hyp_min, seed):
    # backward-kernel-shaped stacks that mix +inf patterns, with ragged kept counts after
    # w_hyp_min; up to 12 tracks make rows of 8 or more entries, where numpy's sum pairs terms
    rng = np.random.default_rng(seed)
    g = int(rng.integers(1, 12))
    cost = np.full((g, m, n_tracks + m), np.inf)
    cost[:, :, :n_tracks] = rng.normal(0.0, rng.choice([0.3, 3.0]), (g, m, n_tracks))
    cost[rng.random(cost.shape) < 0.3] = np.inf  # gated-out pairs: several patterns per stack
    # every first-detection column stays open
    cost[:, np.arange(m), n_tracks + np.arange(m)] = rng.normal(0.0, 2.0, (g, m))
    heads = np.arange(g * m).reshape(g, m)
    stacked = table_entries(backward._component_tables(cost, heads, m_best, w_hyp_min))
    for i in range(g):
        # a matrix's tables do not depend on the other matrices of the stack,
        # whose alone rows may widen the table its own alone rows are in
        alone = table_entries(backward._component_tables(cost[i:i + 1], heads[i:i + 1], m_best,
                                                         w_hyp_min))
        assert sorted(alone) == sorted(h for h in stacked if h // m == i)
        components = []
        for h, (one, e) in alone.items():
            t, at = stacked[h]
            n = int(one.kept[e])
            assert t.kept[at] == n and t.rows[at].tobytes() == one.rows[e].tobytes()
            for a, b in ((t.cols, one.cols), (t.log_w, one.log_w), (t.cum, one.cum)):
                assert a[at, :n].tobytes() == b[e, :n].tobytes()
            assert np.all(t.cum[at, n:] == np.inf) and np.all(t.log_w[at, n:] == np.inf)
            # each component's table is murty on its rows, cut by w_hyp_min and renormalised
            rows = t.rows[at]
            components.append(rows.tolist())
            cols, log_w, cum = per_component_distribution(cost[i], rows, m_best, w_hyp_min)
            assert n == len(cum)
            assert list(map(tuple, t.cols[at, :n].tolist())) == cols
            assert t.log_w[at, :n].tobytes() == log_w.tobytes()
            # a table's sums run in order over its whole row, zeros past the kept
            # count, so they may round apart from numpy's sums over the kept alone
            tol = 2 * m_best * np.finfo(float).eps
            np.testing.assert_allclose(t.cum[at, :n], cum, rtol=tol, atol=0)
        expected = _components(np.isfinite(cost[i]))
        assert sorted(components) == sorted(rows.tolist() for rows in expected)


# TV of 1e5 factorised draws against the product distribution, seeds 0-9: 0.0060-0.0097
# (a global top-7 table, at every seed: 0.662)
FACTORISED_TV = 0.02


def test_factorised_draws_match_the_product_distribution():
    # three components, rows 0-1 on track 0, rows 2-3 on tracks 1-2 and row 4
    # alone: 3 x 7 x 2 = 42 global hypotheses, of which a global top-7 keeps
    # a third of the mass; M = 7 lists every component whole
    n_tracks, m, n = 4, 5, 100_000
    cost = np.full((m, n_tracks + m), np.inf)
    cost[0:2, 0] = [0.2, 0.5]
    cost[2:4, 1:3] = [[0.1, 0.9], [0.6, 0.3]]
    cost[4, 3] = 0.4
    cost[np.arange(m), n_tracks + np.arange(m)] = [0.7, 0.3, 0.8, 0.5, 0.6]
    exact = {}
    for cols in itertools.product(*(np.flatnonzero(np.isfinite(row)).tolist() for row in cost)):
        if len(set(cols)) == m:
            exact[cols] = math.exp(-sum(cost[i, c] for i, c in enumerate(cols)))
    total = sum(exact.values())
    assert len(exact) == 42
    assert sum(sorted(exact.values())[-7:]) / total < 0.4
    tables = backward._component_tables(cost[None], np.arange(m)[None], 7, 0.0)
    assert sorted(len(t.rows[0]) for t in tables) == [1, 2, 2]
    # n particles drawing from the one matrix, each with its m rows as entries
    rows, log_w = backward._draw_tables(
        tables, np.full(n, m), np.tile(np.arange(m), n),
        np.random.default_rng(0).random((n, m)).ravel(),
    )
    rows = rows.reshape(n, m)
    drawn, counts = np.unique(rows, axis=0, return_counts=True)
    freq = dict(zip(map(tuple, drawn.tolist()), (counts / n).tolist()))
    assert set(freq) <= set(exact)
    tv = 0.5 * sum(abs(freq.get(k, 0.0) - w / total) for k, w in exact.items())
    assert tv < FACTORISED_TV, tv
    # a draw's log-weight is the sum of its components' -cost
    np.testing.assert_allclose(log_w, -cost[np.arange(m), rows].sum(axis=1), rtol=1e-15)


def many_component_costs(rng, n_tracks=10):
    """An 11-row kernel-shaped cost matrix: rows 4 and 5 share track 4, every other row is alone."""
    m = 11
    cost = np.full((m, n_tracks + m), np.inf)
    alone = [0, 1, 2, 3, 6, 7, 8, 9, 10]
    cost[alone, [0, 1, 2, 3, 5, 6, 7, 8, 9]] = rng.normal(0.0, 3.0, len(alone))
    cost[[4, 5], 4] = rng.normal(0.0, 3.0, 2)
    cost[np.arange(m), n_tracks + np.arange(m)] = rng.normal(0.0, 3.0, m)
    return cost


def test_draw_tables_log_weight_is_the_left_to_right_sum_of_ten_components():
    # 9 alone rows and one 2-row component: 10 terms per particle, past the 8 at
    # which numpy's sum pairs terms
    rng = np.random.default_rng(38)
    cost = many_component_costs(rng)
    m, n = len(cost), 40
    tables = backward._component_tables(cost[None], np.arange(m)[None], 5, 0.0)
    assert sorted(len(t.rows[0]) for t in tables) == [1, 2]
    u = rng.random((n, m))
    cols, log_w = backward._draw_tables(tables, np.full(n, m), np.tile(np.arange(m), n), u.ravel())
    cols = cols.reshape(n, m)
    for q in range(n):
        # the drawn components' log-weights in order of first row, read off their tables
        terms = []
        for first in (0, 1, 2, 3, 4, 6, 7, 8, 9, 10):
            t = next(t for t in tables if first in t.head.tolist())
            e = t.head.tolist().index(first)
            drawn = cols[q, first:first + t.rows.shape[1]]
            rank = next(r for r in range(int(t.kept[e])) if (t.cols[e, r] == drawn).all())
            terms.append(t.log_w[e, rank])
        assert log_w[q].tobytes() == np.float64(sum(terms)).tobytes()
        # sample_global draws the same set with the same uniforms
        kernel = SimpleNamespace(m=m, cost=cost)
        uniforms = SimpleNamespace(random=lambda size, q=q: u[q])
        assignment, one = sample_global(kernel, 5, uniforms)
        assert assignment.row_to_col == tuple(cols[q].tolist())
        assert np.float64(one).tobytes() == log_w[q].tobytes()
    # drawn in a stack beside another set of 11 rows and one of 3 rows, particles
    # interleaved, each particle of the set keeps its draw and its ln w_hat bit for bit
    other = many_component_costs(rng)
    small = np.full((3, 13), np.inf)
    small[:, :10] = rng.normal(0.0, 3.0, (3, 10))
    small[np.arange(3), 10 + np.arange(3)] = 0.5
    stacked = (backward._component_tables(np.stack([cost, other]), np.arange(2 * m).reshape(2, m),
                                          5, 0.0)
               + backward._component_tables(small[None], 2 * m + np.arange(3)[None], 5, 0.0))
    counts = np.tile([m, 3, m], n)
    heads = np.concatenate([np.arange(m), 2 * m + np.arange(3), m + np.arange(m)])
    mixed_u = np.concatenate([u, rng.random((n, 3 + m))], axis=1)
    mixed_cols, mixed = backward._draw_tables(stacked, counts, np.tile(heads, n), mixed_u.ravel())
    assert mixed[0::3].tobytes() == log_w.tobytes()
    assert mixed_cols.reshape(n, -1)[:, :m].tobytes() == cols.tobytes()


def test_extension_draw_stays_on_gated_components():
    # column 0 may draw components 1 and 2 (0.6 / 0.4), column 1 components 0 and 1 (0.4 / 0.6)
    terms = np.log(np.array([[0.5, 0.2], [0.3, 0.3], [0.2, 0.5]]))
    ok = np.array([[False, True], [True, True], [True, False]])
    for u, expected in ((0.0, [1, 0]), (0.39, [1, 0]), (0.41, [1, 1]), (0.61, [2, 1]),
                        (1.0 - 2.0**-53, [2, 1])):
        got = backward._extension_draw(terms, ok, np.array([u, u]))
        assert got.tolist() == expected


def test_best_particle():
    p1 = Particle((), -1.0)
    p2 = Particle((), -5.0)
    assert best_particle([p1, p2]) is p1
    assert best_particle([p2]) is p2
    p3 = Particle((), -1.0)
    assert best_particle([p1, p3]) is p1  # tie keeps lowest index
    with pytest.raises(ContractError):
        best_particle([])


def test_best_particle_of_a_set_keeps_the_first_maximum():
    tied = [Particle((traj(1, x),), w) for x, w in ((0.0, -2.0), (1.0, -1.0), (2.0, -1.0))]
    assert best_particle(ParticleSet.of(tied)) == tied[1]
    assert best_particle(ParticleSet.of(tied[::-1])) == tied[2]
    with pytest.raises(ContractError):
        best_particle(ParticleSet.of([]))
    log, birth, motion = tv_toy()
    params = SmootherParams(num_particles=300, m_best=64, gate_prob=1.0, w_hyp_min=0.0, seed=5)
    particles = backward_simulate(log, birth, motion, params)
    eager = list(particles)
    first = max(range(len(eager)), key=lambda i: (eager[i].log_weight_acc, -i))
    assert best_particle(particles) == eager[first]


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
    key = np.random.SeedSequence(31).generate_state(2, np.uint64)
    pmb = PMBDensity(
        GaussianMixture(((0.3, g1(1.0, 2.0)),)),
        (BernoulliComponent(0.8, g1(0.0, 0.5)), BernoulliComponent(0.6, g1(2.0, 0.5))),
    )
    k_max = 5
    nodes = backward._Nodes(1)
    row = nodes.add(k_max, np.array([[0.1], [2.2]]), np.full(2, -1), False)[None]
    current = nodes.particles(row, np.zeros(1))[0].trajectories
    for k in range(k_max - 1, 0, -1):
        kernel = build(pmb, BIRTH, MOTION, current, gate=1e9, k=k)
        assignment, log_w = sample_global(kernel, 20, rng)
        # the kernel as a batch of one set, and one table listing only the drawn
        # assignment, as one component keyed by the set's first head
        block = backward._Block(np.arange(kernel.m)[None], kernel.cost[None])
        batch = backward._Batch(kernel.diffs, kernel.log_w, kernel.first, [block])
        table = backward._Table(
            np.array([0]), np.arange(kernel.m)[None],
            np.array(assignment.row_to_col).reshape(1, 1, -1), np.array([[log_w]]),
            np.array([[1.0]]), np.array([1]),
        )
        present = row[0][nodes.birth[row[0]] == k + 1]
        drawn, _ = backward._sample_set(
            kernel.step, batch, [table] if kernel.m else [], present, np.array([kernel.m]),
            np.array([0]), np.array([0]), k, False, key,
        )
        row = backward._next_sets(nodes, row, [drawn], k, False)
        new_set = nodes.particles(row, np.zeros(1))[0].trajectories
        restricted = [r for r in (restrict(tr, k) for tr in new_set) if r is not None]
        assert sorted(restricted, key=lambda t: (t.t, t.states[0, 0])) == sorted(
            current, key=lambda t: (t.t, t.states[0, 0])
        )
        current = new_set


_TERM = st.one_of(
    st.just(-math.inf),
    st.floats(min_value=-800.0, max_value=50.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(
    lambda n: st.lists(st.lists(_TERM, min_size=n, max_size=n), min_size=1, max_size=6)
))
def test_lse_rows_bit_equal_per_row_and_to_scipy(rows):
    # the first-detection weights reduce each head's terms as one row of a stack:
    # a row's log-sum-exp must not depend on the other rows of its batch
    n = len(rows[0])
    x = np.array(rows + [[-math.inf] * n]).reshape(len(rows) + 1, n)  # an all -inf row
    lse, _ = _lse_rows(x)
    alone = [_lse_rows(x[[h]])[0][0] for h in range(len(x))]
    assert lse.tobytes() == np.array(alone).tobytes()
    # the transposed (terms x heads) layout the kernel builds reduces the same
    assert _lse_rows(np.ascontiguousarray(x.T).T)[0].tobytes() == lse.tobytes()
    # the plain shifted form, not scipy's log1p arithmetic: equal to 1e-12 relative,
    # or 1e-15 absolute where the result is near 0 (log of a sum >= 1 is exact to ulps of 1)
    np.testing.assert_allclose(lse, [logsumexp(row) for row in x], rtol=1e-12, atol=1e-15)
    assert lse[-1] == -math.inf


def test_lse_rows_of_zero_terms_and_long_rows():
    assert _lse_rows(np.empty((3, 0)))[0].tolist() == [-math.inf] * 3
    # numpy sums 8 or more terms pairwise: a row alone must still match its row
    # in the stack, also when the stack is the transposed layout the kernel builds
    rng = np.random.default_rng(14)
    for n in (7, 8, 9, 16, 40, 129):
        x = rng.normal(0.0, 20.0, (500, n))
        x[rng.random(x.shape) < 0.2] = -math.inf
        lse, _ = _lse_rows(x)
        assert _lse_rows(np.asfortranarray(x))[0].tobytes() == lse.tobytes()
        for h in range(0, len(x), 10):
            assert lse[h].tobytes() == _lse_rows(x[[h]])[0].tobytes()
        # scipy's value to 1e-12 relative or 1e-15 absolute, as above
        np.testing.assert_allclose(lse, logsumexp(x, axis=1), rtol=1e-12, atol=1e-15)


def test_gated_equals_per_component_loop_bitwise():
    # per-component and per-point calls are the reference: the stacked gating
    # must give every (component, point) pair the numbers it gives that pair
    # alone, whatever else shares the batch; the kernels are pinned by sha256
    rng = np.random.default_rng(10)
    for _ in range(100):
        n_comps, n_heads, d = rng.integers(1, 6), rng.integers(1, 300), rng.choice([1, 2, 4])
        heads = rng.normal(0.0, 3.0, (n_heads, d))
        means = rng.normal(0.0, 3.0, (n_comps, d))
        a = rng.normal(size=(n_comps, d, d))
        invs = np.linalg.inv(a @ a.transpose(0, 2, 1) + d * np.eye(d))
        log_const = rng.normal(size=n_comps)
        diffs, log_terms, ok = _gated(heads, log_const, means, invs, 4.0)
        for c in range(n_comps):
            one = _gated(heads, log_const[[c]], means[[c]], invs[[c]], 4.0)
            for got, stacked in zip(one, (diffs, log_terms, ok)):
                assert got[0].tobytes() == stacked[c].tobytes()
        for h in rng.choice(n_heads, min(n_heads, 5), replace=False):
            one = _gated(heads[[h]], log_const, means, invs, 4.0)
            for got, stacked in zip(one, (diffs, log_terms, ok)):
                assert got[:, 0].tobytes() == stacked[:, h].tobytes()


def test_smoothed_covs_equal_per_density_loop_bitwise():
    # the per-density loop the stacked smoothed covariance replaced is the reference
    rng = np.random.default_rng(12)
    for _ in range(100):
        n, d = rng.integers(1, 200), rng.choice([1, 2, 4, 6])
        f = rng.normal(size=(d, d))
        q = rng.normal(size=(d, d))
        motion = LinearMotionModel(f, q @ q.T + np.eye(d), ps=0.9)
        a = rng.normal(size=(n, d, d))
        covs = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(d)
        terms = backward._smoothing_terms(np.zeros(n), rng.normal(size=(n, d)), covs, motion)
        expected = [symmetrize(c - gain @ motion.F @ c) for c, gain in zip(covs, terms.gains)]
        assert terms.covs.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("enabled", [True, False])
def test_backward_simulate_restores_collector_state(enabled):
    log, birth, motion = tv_toy()
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        backward_simulate(log, birth, motion, SmootherParams(num_particles=20, seed=1))
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_backward_simulate_restores_collector_state_on_error(monkeypatch, enabled):
    def fail(*args, **kwargs):
        raise RuntimeError("kernel build failed")

    monkeypatch.setattr(backward, "_kernels", fail)
    log, birth, motion = tv_toy()
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="kernel build failed"):
            backward_simulate(log, birth, motion, SmootherParams(num_particles=20, seed=1))
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_backward_simulate_leaves_no_reference_cycles():
    # the collector is paused during a run, so a cycle made there would outlive it
    log, birth, motion = tv_toy()
    params = SmootherParams(num_particles=200, m_best=64, gate_prob=1.0, w_hyp_min=0.0, seed=5)
    gc.collect()
    particles = backward_simulate(log, birth, motion, params)
    assert gc.collect() == 0
    assert len(particles) == 200


@pytest.mark.parametrize("enabled", [True, False])
def test_particle_set_reads_restore_collector_state(monkeypatch, enabled):
    # a set builds each read pass's objects with the collector paused, and the
    # caller sees its own state again between the particles of an iteration
    log, birth, motion = tv_toy()
    particles = backward_simulate(log, birth, motion, SmootherParams(num_particles=20, seed=1))
    build, paused = backward._trajectory, []

    def recorded(t, states):
        paused.append(not gc.isenabled())
        return build(t, states)

    monkeypatch.setattr(backward, "_trajectory", recorded)
    monkeypatch.setattr(backward, "_READ", 7)  # three read passes
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for _ in particles:
            assert gc.isenabled() == enabled
        assert len(list(particles)) == 20 and gc.isenabled() == enabled
        particles[3]
        assert gc.isenabled() == enabled
        with pytest.raises(IndexError):
            particles[20]
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert paused and all(paused)


# `_ranked_block` calls of the backward pass of the run below when its cost stacks
# were cut into one block per +inf pattern
PATTERN_BLOCK_RANKINGS = 9


def test_one_table_build_per_kernel_pass_and_set_size(monkeypatch):
    # scenario1 at seed 61, filtered at M=100, then 10 sampled particles: a
    # pass ranks each size's cost stack once, whatever its +inf patterns
    cfg = json.loads((CONFIGS / "scenario1.json").read_text())
    scenario = simulate_scenario(load_scenario_config({**cfg, "seed": 61}))
    log = run_forward(scenario, FilterParams())
    calls = dict.fromkeys(("sizes", "_component_tables", "_ranked_block"), 0)

    def counted(owner, name, key, count=lambda *args: 1):
        inner = getattr(owner, name)

        def wrapper(*args):
            calls[key] += count(*args)
            return inner(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(backward, "_kernels", "sizes", lambda cache, heads, sizes, gate: len(set(sizes)))
    counted(backward, "_component_tables", "_component_tables")
    counted(assignment, "_ranked_block", "_ranked_block")
    params = SmootherParams(num_particles=10, seed=61)
    backward_simulate(log, scenario.birth, scenario.motion, params)
    assert calls["_component_tables"] == calls["sizes"] > 0
    assert 0 < calls["_ranked_block"] <= PATTERN_BLOCK_RANKINGS


def eager_particles(nodes, sets, accs):
    """The particles of node-id rows as objects, each trajectory walked node by node."""
    def walk(node):
        states, at = [], node
        while at >= 0:
            states.append(nodes.heads[at])
            at = nodes.tail[at]
        return Trajectory(int(nodes.birth[node]), np.array(states))

    return [
        Particle(tuple(walk(node) for node in row if node >= 0), acc)
        for row, acc in zip(sets.tolist(), accs.tolist())
    ]


@pytest.mark.parametrize("dirac_mode", [True, False])
@pytest.mark.parametrize("problem", ["toy", "gating"])
def test_particle_set_equals_the_eager_particle_list(monkeypatch, problem, dirac_mode):
    # the set gathers each distinct node's states once; read back, its particles
    # must be the objects a node-by-node walk of the final node table builds
    if problem == "toy":
        log, birth, motion = tv_toy()
        params = SmootherParams(
            num_particles=300, m_best=64, gate_prob=1.0, w_hyp_min=0.0, dirac_mode=dirac_mode,
            seed=5,
        )
    else:
        log, birth, motion = gating_problem(0.02)
        params = SmootherParams(
            num_particles=60, m_best=16, gate_prob=0.99, w_hyp_min=1e-3, dirac_mode=dirac_mode,
            seed=21,
        )
    eager = []
    gather = backward._Nodes.particles

    def recorded(nodes, sets, accs):
        eager.extend(eager_particles(nodes, sets, accs))
        return gather(nodes, sets, accs)

    monkeypatch.setattr(backward._Nodes, "particles", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        particles = backward_simulate(log, birth, motion, params)
    assert isinstance(particles, ParticleSet) and len(particles) == params.num_particles
    assert list(particles) == eager
    assert [particles[i] for i in range(len(particles))] == eager
    monkeypatch.setattr(backward, "_READ", 7)  # iteration builds the particles in passes
    assert list(particles) == eager
    assert particles_to_jsonable(particles) == particles_to_jsonable(eager)
    assert all(type(p.log_weight_acc) is float for p in particles)
    assert all(type(tr.t) is int for p in particles for tr in p.trajectories)
    assert sum(len(p.trajectories) for p in eager) > params.num_particles


def test_particle_set_is_a_read_only_sequence_built_on_read():
    log, birth, motion = tv_toy()
    params = SmootherParams(num_particles=50, m_best=64, gate_prob=1.0, w_hyp_min=0.0, seed=3)
    particles = backward_simulate(log, birth, motion, params)
    eager = list(particles)
    assert len(particles) == len(eager) == 50
    assert particles[0] == eager[0] and particles[-1] == eager[-1]
    assert particles[-50] == eager[0] and particles[np.int64(7)] == eager[7]
    for i in (50, -51):
        with pytest.raises(IndexError):
            particles[i]
    with pytest.raises(TypeError):
        particles[1.0]
    # a slice is a set over the same trajectory arrays
    for cut in (slice(10), slice(3, 9), slice(None, None, -2), slice(60, 70)):
        part = particles[cut]
        assert isinstance(part, ParticleSet) and part.states is particles.states
        assert list(part) == eager[cut]
    # every read builds new objects, whose states are read-only views of the set's
    assert particles[4] is not particles[4]
    states = particles[4].trajectories[0].states
    assert states.base is particles.states and not states.flags.writeable
    with pytest.raises(ValueError):
        states[0, 0] = 1.0
    # a particle list becomes a set with equal particles, and a set is its own set
    assert list(ParticleSet.of(eager)) == eager
    assert ParticleSet.of(particles) is particles
    assert list(ParticleSet.of([])) == [] and len(ParticleSet.of([Particle((), 0.5)])) == 1
    assert list(ParticleSet.of([Particle((), 0.5)])) == [Particle((), 0.5)]


# traced megabytes a 1e4-particle criterion-04 toy result holds, measured at seed 5:
# 1.11 MB as a ParticleSet, 5.05 MB as a list of Particle and Trajectory objects
RETAINED_MB = 1.6


def test_particle_set_retains_arrays_not_objects():
    log, birth, motion = tv_toy()
    params = SmootherParams(num_particles=10_000, m_best=64, gate_prob=1.0, w_hyp_min=0.0, seed=5)
    backward_simulate(log, birth, motion, params)  # first-call allocations stay out of the count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        particles = backward_simulate(log, birth, motion, params)
        gc.collect()
        retained = (tracemalloc.get_traced_memory()[0] - before) / 1e6
    finally:
        tracemalloc.stop()
    assert len(particles) == 10_000
    assert retained < RETAINED_MB, retained


def test_backward_probe_tool_runs():
    # tools/backward_probe.py times and counts the calls of backward internals it
    # finds by name, and drops a section it cannot find; every section must still
    # be there, and each run reports the traced memory its particles hold
    root = Path(__file__).resolve().parents[1]
    tool = root / "tools" / "backward_probe.py"
    argv = [sys.executable, str(tool), "--tree", str(root), "--toy-seeds", "1", "--desk-k", "5"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    (run,) = report["toy"]
    sections = ("kernels", "tables", "draws", "assembly", "materialise")
    timings = (f"{s}_{unit}" for s in sections for unit in ("s", "calls"))
    assert set(run) == {"seed", "total_s", "retained_mb", *timings}
    assert all(run[f"{s}_s"] > 0.0 and run[f"{s}_calls"] > 0 for s in sections)
    assert run["tables_s"] > 0.0  # the per-component table builder is found by its name
    assert 0.0 < run["retained_mb"] < RETAINED_MB
    assert [row["K"] for row in report["desk"]] == [5]
