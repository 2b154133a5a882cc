import math

import numpy as np
import pytest

from trajsmooth.errors import ContractError, SingularMatrixError
from trajsmooth.gaussians import (
    GaussianDensity,
    _jittered,
    GaussianMixture,
    LinearMotionModel,
    log_gaussian_pdf,
    make_cv_model,
    predict_gaussian,
    sample_gaussian,
    smd,
    smooth_head,
    symmetrize,
)


def rts_one_step(x, P, F, Q, xs_next, Ps_next):
    """Independent one-step RTS backward update (explicit inverse)."""
    P_pred = F @ P @ F.T + Q
    G = P @ F.T @ np.linalg.inv(P_pred)
    x_s = x + G @ (xs_next - F @ x)
    P_s = P + G @ (Ps_next - P_pred) @ G.T
    return x_s, P_s


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def test_predict_1d_arithmetic():
    g = GaussianDensity([1.0], [[1.0]])
    m = LinearMotionModel([[2.0]], [[0.5]], ps=1.0)
    out = predict_gaussian(g, m)
    np.testing.assert_allclose(out.mean, [2.0])
    np.testing.assert_allclose(out.cov, [[4.5]])


def test_predict_identity_noop():
    g = GaussianDensity([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
    m = LinearMotionModel(np.eye(2), np.zeros((2, 2)), ps=0.9)
    out = predict_gaussian(g, m)
    np.testing.assert_allclose(out.mean, g.mean)
    np.testing.assert_allclose(out.cov, g.cov)


def test_predict_cv_against_matrix_arithmetic():
    m = make_cv_model(ts=1.0, sigma_q=0.1, ps=0.98, dims=2)
    mean = np.array([0.0, 1.0, 0.0, 1.0])
    cov = np.diag([1.0, 0.5, 2.0, 0.25])
    out = predict_gaussian(GaussianDensity(mean, cov), m)
    np.testing.assert_allclose(out.mean, [1.0, 1.0, 1.0, 1.0])
    # hand-built CV matrices, independent of make_cv_model
    blk_f = np.array([[1.0, 1.0], [0.0, 1.0]])
    blk_q = 0.01 * np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
    F = np.zeros((4, 4))
    Q = np.zeros((4, 4))
    F[:2, :2] = blk_f
    F[2:, 2:] = blk_f
    Q[:2, :2] = blk_q
    Q[2:, 2:] = blk_q
    np.testing.assert_allclose(out.cov, F @ cov @ F.T + Q, atol=1e-14)


def test_predict_dimension_mismatch():
    with pytest.raises(ContractError):
        predict_gaussian(
            GaussianDensity([0.0], [[1.0]]),
            LinearMotionModel(np.eye(2), np.eye(2), ps=1.0),
        )


def test_smooth_head_1d():
    prior = GaussianDensity([0.0], [[1.0]])
    m = LinearMotionModel([[1.0]], [[1.0]], ps=1.0)
    out = smooth_head(prior, m, np.array([2.0]))
    np.testing.assert_allclose(out.mean, [1.0])
    np.testing.assert_allclose(out.cov, [[0.5]])


def test_smooth_head_deterministic_transition():
    prior = GaussianDensity([1.0, 2.0], np.diag([3.0, 4.0]))
    m = LinearMotionModel(np.eye(2), np.zeros((2, 2)), ps=1.0)
    y1 = np.array([5.0, -1.0])
    out = smooth_head(prior, m, y1)
    np.testing.assert_allclose(out.mean, y1)
    np.testing.assert_allclose(out.cov, 0.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_smooth_head_matches_rts(seed):
    rng = np.random.default_rng(seed)
    n = 2
    P = random_spd(rng, n)
    F = rng.standard_normal((n, n))
    Q = random_spd(rng, n, scale=0.5)
    x = rng.standard_normal(n)
    y1 = rng.standard_normal(n)
    out = smooth_head(GaussianDensity(x, P), LinearMotionModel(F, Q, ps=1.0), y1)
    x_s, P_s = rts_one_step(x, P, F, Q, y1, np.zeros((n, n)))
    np.testing.assert_allclose(out.mean, x_s, atol=1e-10)
    np.testing.assert_allclose(out.cov, P_s, atol=1e-10)


def test_smooth_head_trace_nonincreasing_and_psd():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        P = random_spd(rng, n)
        F = rng.standard_normal((n, n))
        Q = random_spd(rng, n, scale=0.1)
        prior = GaussianDensity(rng.standard_normal(n), P)
        out = smooth_head(prior, LinearMotionModel(F, Q, ps=1.0), rng.standard_normal(n))
        assert np.trace(out.cov) <= np.trace(P) + 1e-10
        assert np.max(np.abs(out.cov - out.cov.T)) < 1e-12
        assert np.linalg.eigvalsh(out.cov).min() > -1e-9


def test_smooth_head_q_to_zero_monotone():
    prior = GaussianDensity([0.0], [[1.0]])
    y1 = np.array([2.0])
    gaps = []
    for q in (1.0, 1e-2, 1e-6):
        m = LinearMotionModel([[1.0]], [[q]], ps=1.0)
        out = smooth_head(prior, m, y1)
        gaps.append(abs(out.mean[0] - y1[0]))
    assert gaps[0] > gaps[1] > gaps[2]


def test_smd_zero_residual():
    prior = GaussianDensity([1.5, -0.5], np.diag([2.0, 3.0]))
    m = LinearMotionModel(2.0 * np.eye(2), np.eye(2), ps=1.0)
    assert smd(m.F @ prior.mean, prior, m) == pytest.approx(0.0)


def test_smd_1d():
    prior = GaussianDensity([0.0], [[1.0]])
    m = LinearMotionModel([[1.0]], [[1.0]], ps=1.0)
    assert smd(np.array([2.0]), prior, m) == pytest.approx(2.0)


@pytest.mark.parametrize("seed", range(5))
def test_smd_matches_explicit_inverse(seed):
    rng = np.random.default_rng(100 + seed)
    n = 3
    P = random_spd(rng, n)
    F = rng.standard_normal((n, n))
    Q = random_spd(rng, n)
    x = rng.standard_normal(n)
    y1 = rng.standard_normal(n)
    resid = y1 - F @ x
    expected = resid @ np.linalg.inv(F @ P @ F.T + Q) @ resid
    got = smd(y1, GaussianDensity(x, P), LinearMotionModel(F, Q, ps=1.0))
    assert got == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_smd_rotation_invariant(seed):
    rng = np.random.default_rng(200 + seed)
    n = 3
    P = random_spd(rng, n)
    F = rng.standard_normal((n, n))
    Q = random_spd(rng, n)
    x = rng.standard_normal(n)
    y1 = rng.standard_normal(n)
    base = smd(y1, GaussianDensity(x, P), LinearMotionModel(F, Q, ps=1.0))
    # random orthogonal rotation applied jointly
    R, _ = np.linalg.qr(rng.standard_normal((n, n)))
    rot = smd(
        R @ y1,
        GaussianDensity(R @ x, R @ P @ R.T),
        LinearMotionModel(R @ F @ R.T, R @ Q @ R.T, ps=1.0),
    )
    assert rot == pytest.approx(base, abs=1e-9, rel=1e-9)


def test_log_pdf_standard_normal():
    g = GaussianDensity([0.0], [[1.0]])
    assert log_gaussian_pdf(np.array([0.0]), g) == pytest.approx(-0.5 * math.log(2 * math.pi))


def test_log_pdf_variance_two():
    g = GaussianDensity([0.0], [[2.0]])
    assert log_gaussian_pdf(np.array([0.0]), g) == pytest.approx(-0.5 * math.log(4 * math.pi))


def test_log_pdf_matches_naive_formula():
    rng = np.random.default_rng(3)
    cov = random_spd(rng, 2)
    mean = rng.standard_normal(2)
    y = rng.standard_normal(2)
    resid = y - mean
    naive = math.log(
        math.exp(-0.5 * resid @ np.linalg.inv(cov) @ resid)
        / math.sqrt((2 * math.pi) ** 2 * np.linalg.det(cov))
    )
    assert log_gaussian_pdf(y, GaussianDensity(mean, cov)) == pytest.approx(naive, rel=1e-9)


def test_singular_covariance_rejected():
    g = GaussianDensity([0.0, 0.0], np.diag([1e20, 1e-20]))
    with pytest.raises(SingularMatrixError):
        log_gaussian_pdf(np.zeros(2), g)


def test_jitter_rescues_zero_predicted_cov():
    # P = 0, Q = 0: predicted covariance is exactly zero; jitter makes it usable
    prior = GaussianDensity([1.0], [[0.0]])
    m = LinearMotionModel([[1.0]], [[0.0]], ps=1.0)
    out = smooth_head(prior, m, np.array([1.0]))
    assert out.mean == pytest.approx([1.0])


def test_jittered_stack_touches_only_bad_members():
    rng = np.random.default_rng(8)
    good = [random_spd(rng, 3) for _ in range(2)]
    stack = np.stack([good[0], np.zeros((3, 3)), good[1]])
    out = _jittered(stack)
    assert out[0].tobytes() == good[0].tobytes()
    assert out[2].tobytes() == good[1].tobytes()
    np.testing.assert_array_equal(out[1], 1e-9 * np.eye(3))
    assert _jittered(np.stack(good)).tobytes() == np.stack(good).tobytes()


def test_jittered_stack_rejects_member_jitter_cannot_fix():
    stack = np.stack([np.eye(2), np.diag([1e20, 1e-20])])
    with pytest.raises(SingularMatrixError):
        _jittered(stack)


def test_mixture_validation_and_helpers():
    g = GaussianDensity([0.0], [[1.0]])
    mix = GaussianMixture(((0.4, g), (0.1, g)))
    assert len(mix) == 2
    assert mix.total_weight == pytest.approx(0.5)
    assert mix.scaled(2.0).total_weight == pytest.approx(1.0)
    with pytest.raises(ContractError):
        GaussianMixture(((-0.1, g),))
    assert GaussianMixture().total_weight == 0.0


def test_motion_model_validation():
    with pytest.raises(ContractError):
        LinearMotionModel(np.eye(2), np.eye(3), ps=1.0)
    with pytest.raises(ContractError):
        LinearMotionModel(np.eye(2), np.eye(2), ps=1.5)


def test_sample_gaussian_zero_cov_returns_mean():
    rng = np.random.default_rng(0)
    g = GaussianDensity([3.0, -1.0], np.zeros((2, 2)))
    np.testing.assert_array_equal(sample_gaussian(g, rng), g.mean)


def test_sample_gaussian_moments():
    rng = np.random.default_rng(1)
    g = GaussianDensity([1.0, -2.0], np.array([[2.0, 0.5], [0.5, 1.0]]))
    draws = np.array([sample_gaussian(g, rng) for _ in range(20000)])
    np.testing.assert_allclose(draws.mean(axis=0), g.mean, atol=0.05)
    np.testing.assert_allclose(np.cov(draws.T), g.cov, atol=0.1)


def test_symmetrize():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    s = symmetrize(a)
    np.testing.assert_allclose(s, s.T)
