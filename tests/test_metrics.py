import numpy as np
import pytest

from trajsmooth.backward import Particle
from trajsmooth.errors import ContractError
from trajsmooth.forward import ESTIMATE_THRESHOLD, BernoulliComponent, PMBDensity, extract_estimates
from trajsmooth.gaussians import GaussianDensity, GaussianMixture
from trajsmooth.metrics import (
    gospa,
    gospa_over_time,
    particle_stats,
)
from trajsmooth.simulate import GroundTruth
from trajsmooth.trajectory import Trajectory

P2 = lambda x, y: np.array([x, y])


def test_gospa_identity():
    res = gospa([P2(0, 0)], [P2(0, 0)], c=20.0, p=1.0)
    assert res.total == 0.0 and res.localisation == 0.0


def test_gospa_missed_only():
    res = gospa([P2(0, 0)], [], c=20.0, p=1.0)
    assert res.total == pytest.approx(10.0)
    assert res.missed == pytest.approx(10.0)
    assert res.false_det == 0.0 and res.localisation == 0.0


def test_gospa_matched_pair():
    res = gospa([np.array([0.0])], [np.array([3.0])], c=20.0, p=1.0)
    assert res.total == pytest.approx(3.0)
    assert res.localisation == pytest.approx(3.0)
    assert res.missed == 0.0 and res.false_det == 0.0


def test_gospa_cut_far_pair():
    res = gospa([np.array([0.0])], [np.array([50.0])], c=20.0, p=1.0)
    assert res.total == pytest.approx(20.0)
    assert res.missed == pytest.approx(10.0) and res.false_det == pytest.approx(10.0)


def test_gospa_decomposition_sums_p1():
    rng = np.random.default_rng(0)
    for _ in range(50):
        xs = [rng.uniform(-30, 30, 2) for _ in range(rng.integers(0, 5))]
        ys = [rng.uniform(-30, 30, 2) for _ in range(rng.integers(0, 5))]
        res = gospa(xs, ys, c=20.0, p=1.0)
        assert res.total == pytest.approx(res.localisation + res.missed + res.false_det)


def test_gospa_symmetry_swaps_missed_false():
    rng = np.random.default_rng(1)
    xs = [rng.uniform(-30, 30, 2) for _ in range(3)]
    ys = [rng.uniform(-30, 30, 2) for _ in range(5)]
    a = gospa(xs, ys, c=20.0, p=1.0)
    b = gospa(ys, xs, c=20.0, p=1.0)
    assert a.total == pytest.approx(b.total)
    assert a.missed == pytest.approx(b.false_det)
    assert a.false_det == pytest.approx(b.missed)
    assert a.localisation == pytest.approx(b.localisation)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_gospa_metric_axioms(p):
    rng = np.random.default_rng(2)
    for _ in range(200):
        sets = [
            [rng.uniform(-30, 30, 2) for _ in range(rng.integers(0, 4))]
            for _ in range(3)
        ]
        dxy = gospa(sets[0], sets[1], 20.0, p).total
        dyz = gospa(sets[1], sets[2], 20.0, p).total
        dxz = gospa(sets[0], sets[2], 20.0, p).total
        assert dxz <= dxy + dyz + 1e-9
        assert dxy >= 0.0
    same = [rng.uniform(-30, 30, 2) for _ in range(3)]
    assert gospa(same, list(same), 20.0, p).total == pytest.approx(0.0)


def test_gospa_order_invariant():
    rng = np.random.default_rng(3)
    xs = [rng.uniform(-30, 30, 2) for _ in range(4)]
    ys = [rng.uniform(-30, 30, 2) for _ in range(4)]
    base = gospa(xs, ys, 20.0, 1.0).total
    assert gospa(xs[::-1], ys[::-1], 20.0, 1.0).total == pytest.approx(base)


def test_gospa_position_mask():
    # 4-D (pos, vel, pos, vel) states; velocities must not affect the metric
    x = np.array([0.0, 99.0, 0.0, -99.0])
    y = np.array([3.0, 0.0, 4.0, 0.0])
    res = gospa([x], [y], c=20.0, p=1.0, pos_idx=[0, 2])
    assert res.total == pytest.approx(5.0)


def test_gospa_bad_params():
    with pytest.raises(ContractError):
        gospa([], [], c=0.0, p=1.0)
    with pytest.raises(ContractError):
        gospa([], [], c=1.0, p=0.5)


def g1(mean, var=1.0):
    return GaussianDensity([mean], [[var]])


def test_extract_estimates_threshold():
    # a Bernoulli is an estimate from existence ESTIMATE_THRESHOLD (0.5) up
    assert ESTIMATE_THRESHOLD == 0.5
    pmb = PMBDensity(
        GaussianMixture(),
        tuple(BernoulliComponent(r, g1(x)) for r, x in ((0.6, 1.0), (0.4, 2.0), (0.5, 3.0))),
    )
    est = extract_estimates(pmb)
    assert len(est) == 2
    np.testing.assert_array_equal(est, [[1.0], [3.0]])
    assert extract_estimates(PMBDensity()) == []


def make_traj(t, length):
    return Trajectory(t, np.zeros((length, 1)))


def test_particle_stats_single():
    stats = particle_stats([Particle((make_traj(1, 2),), 0.0)], k_max=2)
    np.testing.assert_allclose(stats.card_dist, [0.0, 1.0])
    np.testing.assert_allclose(stats.birth_dist[0], [0.0, 1.0])  # 1 birth at k=1
    np.testing.assert_allclose(stats.birth_dist[1], [1.0])  # 0 births at k=2
    np.testing.assert_allclose(stats.death_dist[1], [0.0, 1.0])  # 1 death at k=2


def test_particle_stats_all_empty():
    stats = particle_stats([Particle((), 0.0)] * 3, k_max=2)
    np.testing.assert_allclose(stats.card_dist, [1.0])


def test_particle_stats_mixed_cardinality():
    particles = [
        Particle((make_traj(1, 1),), 0.0),
        Particle((make_traj(1, 1), make_traj(2, 1)), 0.0),
    ]
    stats = particle_stats(particles, k_max=2)
    np.testing.assert_allclose(stats.card_dist, [0.0, 0.5, 0.5])
    for dist in [stats.card_dist, *stats.birth_dist, *stats.death_dist]:
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)


def per_step_stats(particles, k_max):
    """The per-step loop particle_stats replaced: K passes over every particle."""
    t = len(particles)
    births, deaths = [], []
    for k in range(1, k_max + 1):
        b = [sum(tr.t == k for tr in p.trajectories) for p in particles]
        d = [sum(tr.last_time == k for tr in p.trajectories) for p in particles]
        births.append(np.bincount(b, minlength=max(b) + 1) / t)
        deaths.append(np.bincount(d, minlength=max(d) + 1) / t)
    return births, deaths


def test_particle_stats_equals_per_step_loop_bitwise():
    # births and deaths after k_max are ignored, as the loop ignores them
    rng = np.random.default_rng(8)
    for _ in range(200):
        k_max = int(rng.integers(1, 9))
        particles = [
            Particle(tuple(
                make_traj(int(rng.integers(1, k_max + 3)), int(rng.integers(1, k_max + 2)))
                for _ in range(rng.integers(0, 7))
            ), 0.0)
            for _ in range(rng.integers(1, 15))
        ]
        stats = particle_stats(particles, k_max)
        births, deaths = per_step_stats(particles, k_max)
        for got, expected in zip(stats.birth_dist + stats.death_dist, births + deaths):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        assert len(stats.birth_dist) == len(stats.death_dist) == k_max


def test_gospa_over_time_perfect_and_empty():
    states = np.array([[0.0, 0.0], [1.0, 0.0]])
    truth = GroundTruth((Trajectory(1, states), Trajectory(1, states + 5.0)), 2)
    perfect = [
        [truth.trajectories[0].state_at(k), truth.trajectories[1].state_at(k)]
        for k in (1, 2)
    ]
    results, summary = gospa_over_time(perfect, truth, c=20.0, p=1.0)
    assert summary["gospa_total"] == 0.0
    empty = [[] for _ in range(2)]
    _, s_empty = gospa_over_time(empty, truth, c=20.0, p=1.0)
    assert s_empty["gospa_total"] == pytest.approx(2 * 2 * 10.0)
    assert s_empty["missed"] == pytest.approx(40.0)


def test_gospa_over_time_empty_horizon_10_steps():
    truth = GroundTruth(
        (Trajectory(1, np.zeros((10, 2))), Trajectory(1, np.ones((10, 2)))), 10
    )
    _, summary = gospa_over_time([[] for _ in range(10)], truth, c=20.0, p=1.0)
    assert summary["gospa_total"] == pytest.approx(200.0)


def test_gospa_over_time_compositional():
    rng = np.random.default_rng(5)
    truth = GroundTruth(
        (Trajectory(1, rng.uniform(-20, 20, (4, 2))),), 4
    )
    ests = [[rng.uniform(-20, 20, 2)] for _ in range(4)]
    results, summary = gospa_over_time(ests, truth, c=20.0, p=1.0)
    manual = sum(
        gospa([truth.trajectories[0].state_at(k)], ests[k - 1], 20.0, 1.0).total
        for k in range(1, 5)
    )
    assert summary["gospa_total"] == pytest.approx(manual)


def test_gospa_over_time_horizon_mismatch():
    truth = GroundTruth((Trajectory(1, np.zeros((2, 1))),), 2)
    with pytest.raises(ContractError):
        gospa_over_time([[]], truth)

