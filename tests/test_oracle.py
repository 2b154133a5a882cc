import math

import numpy as np
import pytest
from helpers import crossing_example, empirical_tv, g, make_log, tv_toy
from scipy.special import logsumexp

from trajsmooth import oracle
from trajsmooth.backward import SmootherParams, backward_simulate
from trajsmooth.errors import SizeCapError
from trajsmooth.forward import BernoulliComponent, PMBDensity
from trajsmooth.gaussians import GaussianMixture, LinearMotionModel
from trajsmooth.models import BirthModel
from trajsmooth.trajectory import Trajectory
from trajsmooth.oracle import (
    exact_smooth,
    posterior_to_jsonable,
    structure_probability,
    structure_signature,
)


def test_logsumexp_bit_equal_to_scipy():
    rng = np.random.default_rng(8)
    rows = [np.array([]), np.array([-np.inf, -np.inf]), np.array([3.0, 3.0, 3.0])]
    for size in rng.integers(1, 40, size=2_000):
        row = rng.normal(size=size) * rng.choice([1.0, 30.0, 700.0])
        row[rng.random(size) < 0.2] = -np.inf
        rows.append(row)
    # the filter's plain shifted form, not scipy's log1p arithmetic: equal to 1e-12
    # relative, or 1e-15 absolute where the result is near 0
    for row in rows:
        np.testing.assert_allclose(oracle._logsumexp(row.tolist()), logsumexp(row),
                                   rtol=1e-12, atol=1e-15)


def test_k1_single_certain_bernoulli():
    log = make_log([PMBDensity(GaussianMixture(), (BernoulliComponent(1.0, g(2.0, 0.01)),))])
    birth = BirthModel(GaussianMixture(((0.1, g(0.0, 25.0)),)))
    motion = LinearMotionModel([[1.0]], [[0.25]], ps=0.9)
    post = exact_smooth(log, birth, motion)
    assert len(post.hypotheses) == 1
    hyp = post.hypotheses[0]
    assert hyp.log_weight == pytest.approx(0.0)
    assert len(hyp.trajectories) == 1
    assert hyp.trajectories[0].t == 1 and hyp.trajectories[0].length == 1


def dirac_pair_log():
    """Two Dirac components per step over two steps (generic positions)."""
    mk = lambda xs: PMBDensity(
        GaussianMixture(),
        tuple(BernoulliComponent(1.0, g([x, 0.1], np.zeros((2, 2)))) for x in xs),
    )
    return make_log([mk([-0.4, 0.3]), mk([-0.3, 0.2])])


def test_appendix_structure_seven_components():
    log = dirac_pair_log()
    birth = BirthModel(GaussianMixture(), uniform_density=0.05)
    F = np.array([[1.0, 1.0], [0.0, 1.0]])
    Q = (1.0 / 900.0) * np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
    motion = LinearMotionModel(F, Q, ps=0.95)
    post = exact_smooth(log, birth, motion, prune=0.0)
    assert len(post.hypotheses) == 7


def test_weights_normalize():
    log, birth, motion = tv_toy()
    post = exact_smooth(log, birth, motion, prune=1e-10)
    assert post.weights.sum() == pytest.approx(1.0, abs=1e-9)
    # sorted by descending weight
    w = post.weights
    assert all(w[i] >= w[i + 1] for i in range(len(w) - 1))


def test_one_step_count_matches_combinatorial_counter():
    # K=2: counts from an independent closed-form enumeration of the options
    n2, n1, n_ppp = 2, 2, 1
    f2 = PMBDensity(
        GaussianMixture(),
        (BernoulliComponent(0.7, g(0.0, 0.01)), BernoulliComponent(0.6, g(5.0, 0.01))),
    )
    f1 = PMBDensity(
        GaussianMixture(((0.2, g(2.0, 0.01)),)),
        (BernoulliComponent(0.5, g(0.0, 0.01)), BernoulliComponent(0.4, g(5.0, 0.01))),
    )
    birth = BirthModel(GaussianMixture(((0.1, g(0.0, 100.0)),)))
    motion = LinearMotionModel([[1.0]], [[0.5]], ps=0.9)
    post = exact_smooth(make_log([f1, f2]), birth, motion, prune=0.0)

    def count_pattern(n_present):
        total = 0
        for t in range(min(n_present, n1) + 1):
            total += (
                math.comb(n_present, t)
                * math.comb(n1, t)
                * math.factorial(t)
                * (1 + n_ppp) ** (n_present - t)
                * 2 ** (n1 - t)
            )
        return total

    expected = sum(
        count_pattern(bin(s).count("1")) for s in range(2**n2)
    )
    assert len(post.hypotheses) == expected


def test_structure_probability_total_and_missing():
    log, birth, motion = tv_toy()
    post = exact_smooth(log, birth, motion, prune=1e-10)
    sigs = {structure_signature(h.trajectories, 0.1) for h in post.hypotheses}
    total = sum(structure_probability(post, s, 0.1) for s in sigs)
    assert total == pytest.approx(1.0, abs=1e-9)
    missing = ((99, ((1,),)),)
    assert structure_probability(post, missing, 0.1) == 0.0


def rint_signature(trajectories, resolution):
    """`structure_signature` by the numpy formula: rint, then a cast to int64."""
    return tuple(sorted(
        (tr.t, tuple(map(tuple, np.rint(tr.states / resolution).astype(np.int64).tolist())))
        for tr in trajectories
    ))


@pytest.mark.parametrize("resolution", [0.5, 0.25, 0.1])
def test_structure_signature_matches_numpy_rint(resolution):
    # ties (k + 0.5) resolution, exact at binary resolutions, round half to even; negatives
    # and -0.0; 1-, 2- and 4-d states; and the empty set
    rng = np.random.default_rng(17)
    ties = (np.arange(-6, 6) + 0.5) * resolution
    sets = [
        [Trajectory(1, ties[:, None]), Trajectory(2, np.array([[-0.0], [0.0], [-1e-300]]))],
        [Trajectory(3, ties.reshape(6, 2)), Trajectory(1, rng.normal(0.0, 5.0, (4, 2)))],
        [Trajectory(2, ties.reshape(3, 4)), Trajectory(1, rng.normal(0.0, 50.0, (5, 4)))],
        [],
    ]
    for trajectories in sets:
        assert structure_signature(trajectories, resolution) == rint_signature(
            trajectories, resolution
        )
    assert structure_signature([], resolution) == ()


def test_structure_signature_matches_numpy_rint_on_sampled_particles():
    log, birth, motion = tv_toy()
    params = SmootherParams(num_particles=500, m_best=64, gate_prob=1.0, w_hyp_min=0.0, seed=9)
    for p in backward_simulate(log, birth, motion, params):
        assert structure_signature(p.trajectories, 0.1) == rint_signature(p.trajectories, 0.1)


def test_size_cap():
    posts = [
        PMBDensity(
            GaussianMixture(),
            tuple(BernoulliComponent(0.5, g(float(i), 0.01)) for i in range(9)),
        )
        for _ in range(8)
    ]
    birth = BirthModel(GaussianMixture(((0.1, g(0.0, 100.0)),)))
    motion = LinearMotionModel([[1.0]], [[0.5]], ps=0.9)
    with pytest.raises(SizeCapError):
        exact_smooth(make_log(posts), birth, motion)


def test_size_cap_bounds_the_initial_existence_patterns():
    # 13 hypotheses per step pass the up-front check, but the 12 uncertain
    # Bernoullis at K have 2^12 = 4096 existence patterns
    log = make_log([
        PMBDensity(
            GaussianMixture(),
            tuple(BernoulliComponent(0.5, g(float(i), 0.01)) for i in range(12)),
        )
    ])
    birth = BirthModel(GaussianMixture(((0.1, g(0.0, 100.0)),)))
    motion = LinearMotionModel([[1.0]], [[0.5]], ps=0.9)
    with pytest.raises(SizeCapError, match="cap 1000 at step 1"):
        exact_smooth(log, birth, motion, cap=1000)
    assert len(exact_smooth(log, birth, motion, cap=4096).hypotheses) == 4096


def test_size_cap_stops_a_single_expansion_while_enumerating(monkeypatch):
    # one certain trajectory at K=2 against 6 uncertain tracks at k=1 has 256
    # expansions, all of one hypothesis; the cap must stop them after 51
    posts = [
        PMBDensity(
            GaussianMixture(),
            tuple(BernoulliComponent(0.5, g(0.1 * i, 0.01)) for i in range(6)),
        ),
        PMBDensity(GaussianMixture(), (BernoulliComponent(1.0, g(0.0, 0.01)),)),
    ]
    birth = BirthModel(GaussianMixture(((0.1, g(0.0, 100.0)),)))
    motion = LinearMotionModel([[1.0]], [[0.5]], ps=0.9)
    expand, drawn = oracle._expand_one, []

    def counted(*args):
        for item in expand(*args):
            drawn.append(item)
            yield item

    monkeypatch.setattr(oracle, "_expand_one", counted)
    assert len(exact_smooth(make_log(posts), birth, motion, prune=0.0).hypotheses) == 256
    drawn.clear()
    with pytest.raises(SizeCapError, match="cap 50 at step 1"):
        exact_smooth(make_log(posts), birth, motion, cap=50)
    assert len(drawn) == 51


def test_sampler_matches_oracle_structure_distribution():
    # reduced version of the acceptance check: TV < 0.08 at T=5e3
    log, birth, motion = tv_toy()
    post = exact_smooth(log, birth, motion, prune=1e-10)
    params = SmootherParams(
        num_particles=5_000, m_best=64, gate_prob=1.0, w_hyp_min=0.0, seed=77
    )
    particles = backward_simulate(log, birth, motion, params)
    assert empirical_tv(particles, post, resolution=0.1) < 0.08


def test_crossing_example_map_is_unbroken():
    log, birth, motion, dirac_states = crossing_example()
    post = exact_smooth(log, birth, motion, prune=1e-9)
    top = post.hypotheses[0]
    assert len(top.trajectories) == 2
    for tr in top.trajectories:
        assert tr.t == 1 and tr.length == 8
    # the two unbroken trajectories pass exactly through the Dirac points
    got = sorted(tuple(np.round(tr.states[:, 0], 9)) for tr in top.trajectories)
    want = sorted(
        tuple(np.round(np.array([s[i][0] for s in dirac_states]), 9)) for i in range(2)
    )
    assert got == want
    w = post.weights
    assert w[0] > w[1] > w[2]


def test_posterior_serialization():
    log, birth, motion = tv_toy()
    post = exact_smooth(log, birth, motion, prune=1e-6)
    blob = posterior_to_jsonable(post, resolution=0.1)
    assert blob["hypotheses"]
    first = blob["hypotheses"][0]
    assert set(first) == {"weight", "trajectories", "signature"}
    assert first["weight"] == pytest.approx(float(post.weights[0]))


def test_tv_decreases_with_particle_count():
    log, birth, motion = tv_toy()
    post = exact_smooth(log, birth, motion, prune=1e-10)
    tvs = []
    for t in (500, 5000):
        params = SmootherParams(
            num_particles=t, m_best=64, gate_prob=1.0, w_hyp_min=0.0, seed=55
        )
        particles = backward_simulate(log, birth, motion, params)
        tvs.append(empirical_tv(particles, post, resolution=0.1))
    assert tvs[1] < tvs[0]
