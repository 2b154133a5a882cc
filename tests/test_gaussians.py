import math

import numpy as np
import pytest
from scipy.special import chdtri
from scipy.stats import multivariate_normal

from trajsmooth.backward import SmootherParams, build_backward_kernel
from trajsmooth.errors import ContractError, SettingError, SingularMatrixError
from trajsmooth.forward import BernoulliComponent, FilterParams, PMBDensity
from trajsmooth.gaussians import (
    GaussianDensity,
    _collapse,
    _inv_log_norm,
    _jittered,
    _linear_terms,
    _of_dim,
    _predict,
    _stack,
    GaussianMixture,
    LinearMotionModel,
    gate_quantile,
    make_cv_model,
    sample_gaussian,
    symmetrize,
)
from trajsmooth.models import BirthModel
from trajsmooth.trajectory import Trajectory


def rts_one_step(x, P, F, Q, xs_next, Ps_next):
    """Independent one-step RTS backward update (explicit inverse)."""
    P_pred = F @ P @ F.T + Q
    G = P @ F.T @ np.linalg.inv(P_pred)
    x_s = x + G @ (xs_next - F @ x)
    P_s = P + G @ (Ps_next - P_pred) @ G.T
    return x_s, P_s


def continued_kernel(x, P, F, Q, y1, r=1.0):
    """Backward kernel of one track N(x, P) (existence r, pS = 1) against one successor y1."""
    pmb = PMBDensity(GaussianMixture(), (BernoulliComponent(r, GaussianDensity(x, P)),))
    birth = BirthModel(GaussianMixture(), uniform_density=1.0)
    present = [Trajectory(2, np.atleast_2d(np.asarray(y1, dtype=float)))]
    return build_backward_kernel(pmb, birth, LinearMotionModel(F, Q, ps=1.0), present, np.inf, 1)


def smoothed_head(x, P, F, Q, y1):
    """The kernel's smoothed mean and covariance of N(x, P) given the successor state y1."""
    kernel = continued_kernel(x, P, F, Q, y1)
    return kernel.smoothed_head(0, 0)[0], kernel.step.tracks.covs[0]


def smd(x, P, F, Q, y1):
    """Squared Mahalanobis distance of y1 from N(F x, F P F^T + Q), read off the kernel.

    The continued log-weight is its log-constant minus half the distance.
    """
    kernel = continued_kernel(x, P, F, Q, y1)
    return -2.0 * (kernel.log_w[0, 0] - kernel.step.tracks.log_const[0])


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def predicted(g, m):
    """`_predict` of one density, read at the model's dimension as `predict_pmb` reads its stacks."""
    means, covs = _predict(*_of_dim(m.dim, GaussianMixture(((1.0, g),))), m)
    return GaussianDensity(means[0], covs[0])


def test_predict_1d_arithmetic():
    g = GaussianDensity([1.0], [[1.0]])
    m = LinearMotionModel([[2.0]], [[0.5]], ps=1.0)
    out = predicted(g, m)
    np.testing.assert_allclose(out.mean, [2.0])
    np.testing.assert_allclose(out.cov, [[4.5]])


def test_predict_identity_noop():
    g = GaussianDensity([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
    m = LinearMotionModel(np.eye(2), np.zeros((2, 2)), ps=0.9)
    out = predicted(g, m)
    np.testing.assert_allclose(out.mean, g.mean)
    np.testing.assert_allclose(out.cov, g.cov)


def test_predict_cv_against_matrix_arithmetic():
    m = make_cv_model(ts=1.0, sigma_q=0.1, ps=0.98, dims=2)
    mean = np.array([0.0, 1.0, 0.0, 1.0])
    cov = np.diag([1.0, 0.5, 2.0, 0.25])
    out = predicted(GaussianDensity(mean, cov), m)
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
        predicted(
            GaussianDensity([0.0], [[1.0]]),
            LinearMotionModel(np.eye(2), np.eye(2), ps=1.0),
        )


def test_smooth_head_1d():
    mean, cov = smoothed_head([0.0], [[1.0]], [[1.0]], [[1.0]], [2.0])
    np.testing.assert_allclose(mean, [1.0])
    np.testing.assert_allclose(cov, [[0.5]])


def test_smooth_head_deterministic_transition():
    y1 = np.array([5.0, -1.0])
    mean, cov = smoothed_head([1.0, 2.0], np.diag([3.0, 4.0]), np.eye(2), np.zeros((2, 2)), y1)
    np.testing.assert_allclose(mean, y1)
    np.testing.assert_allclose(cov, 0.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_smooth_head_matches_rts(seed):
    rng = np.random.default_rng(seed)
    n = 2
    P = random_spd(rng, n)
    F = rng.standard_normal((n, n))
    Q = random_spd(rng, n, scale=0.5)
    x = rng.standard_normal(n)
    y1 = rng.standard_normal(n)
    mean, cov = smoothed_head(x, P, F, Q, y1)
    x_s, P_s = rts_one_step(x, P, F, Q, y1, np.zeros((n, n)))
    np.testing.assert_allclose(mean, x_s, atol=1e-10)
    np.testing.assert_allclose(cov, P_s, atol=1e-10)


def test_smooth_head_trace_nonincreasing_and_psd():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        P = random_spd(rng, n)
        F = rng.standard_normal((n, n))
        Q = random_spd(rng, n, scale=0.1)
        _, cov = smoothed_head(rng.standard_normal(n), P, F, Q, rng.standard_normal(n))
        assert np.trace(cov) <= np.trace(P) + 1e-10
        assert np.max(np.abs(cov - cov.T)) < 1e-12
        assert np.linalg.eigvalsh(cov).min() > -1e-9


def test_smooth_head_q_to_zero_monotone():
    gaps = []
    for q in (1.0, 1e-2, 1e-6):
        mean, _ = smoothed_head([0.0], [[1.0]], [[1.0]], [[q]], [2.0])
        gaps.append(abs(mean[0] - 2.0))
    assert gaps[0] > gaps[1] > gaps[2]


def test_smd_zero_residual():
    F = 2.0 * np.eye(2)
    x = np.array([1.5, -0.5])
    assert smd(x, np.diag([2.0, 3.0]), F, np.eye(2), F @ x) == pytest.approx(0.0)


def test_smd_1d():
    assert smd([0.0], [[1.0]], [[1.0]], [[1.0]], [2.0]) == pytest.approx(2.0)


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
    assert smd(x, P, F, Q, y1) == pytest.approx(expected, rel=1e-9)
    # the whole continued log-weight, ln r + ln pS + ln N(y1; F x, F P F^T + Q)
    kernel = continued_kernel(x, P, F, Q, y1, r=0.7)
    ref = math.log(0.7) + multivariate_normal.logpdf(y1, F @ x, F @ P @ F.T + Q)
    assert kernel.log_w[0, 0] == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_smd_rotation_invariant(seed):
    rng = np.random.default_rng(200 + seed)
    n = 3
    P = random_spd(rng, n)
    F = rng.standard_normal((n, n))
    Q = random_spd(rng, n)
    x = rng.standard_normal(n)
    y1 = rng.standard_normal(n)
    base = smd(x, P, F, Q, y1)
    # random orthogonal rotation applied jointly
    R, _ = np.linalg.qr(rng.standard_normal((n, n)))
    rot = smd(R @ x, R @ P @ R.T, R @ F @ R.T, R @ Q @ R.T, R @ y1)
    assert rot == pytest.approx(base, abs=1e-9, rel=1e-9)


def test_log_pdf_standard_normal():
    _, log_norm = _inv_log_norm(np.ones((1, 1, 1)))
    assert log_norm[0] == pytest.approx(-0.5 * math.log(2 * math.pi))


def test_log_pdf_variance_two():
    _, log_norm = _inv_log_norm(np.full((1, 1, 1), 2.0))
    assert log_norm[0] == pytest.approx(-0.5 * math.log(4 * math.pi))


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
    inv, log_norm = _inv_log_norm(cov[None])
    assert log_norm[0] - 0.5 * resid @ inv[0] @ resid == pytest.approx(naive, rel=1e-9)


def test_jitter_rescues_zero_predicted_cov():
    # P = 0, Q = 0: predicted covariance is exactly zero; jitter makes it usable
    mean, _ = smoothed_head([1.0], [[0.0]], [[1.0]], [[0.0]], [1.0])
    assert mean == pytest.approx([1.0])


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
    assert mix.weights.tolist() == [0.4, 0.1]
    with pytest.raises(ContractError):
        GaussianMixture(((-0.1, g),))
    assert len(GaussianMixture()) == 0


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


# Per-item loops as the batched helpers replaced them; the stacks must
# reproduce them bit for bit, because the filter output is pinned by sha256.
def _moment_match_loop(weights, densities):
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    mean = sum(wi * g.mean for wi, g in zip(w, densities))
    cov = np.zeros((mean.size, mean.size))
    for wi, g in zip(w, densities):
        d = g.mean - mean
        cov += wi * (g.cov + np.outer(d, d))
    return mean, symmetrize(cov)


def test_collapse_equals_per_mixture_loop_bitwise():
    rng = np.random.default_rng(4)
    # 1..12 components: numpy's sum changes its summation order at 8 terms
    mixtures = [
        (rng.uniform(0.0, 1.0, c) * 10.0 ** rng.uniform(-5, 0, c),
         [GaussianDensity(rng.normal(0, 3, 3), random_spd(rng, 3)) for _ in range(c)])
        for c in rng.integers(1, 13, size=40)
    ]
    w = np.concatenate([wk for wk, _ in mixtures])
    means, covs = _stack([g for _, dens in mixtures for g in dens], 3)
    out_means, out_covs = _collapse(w, means, covs, [len(wk) for wk, _ in mixtures])
    for k, (wk, dens) in enumerate(mixtures):
        ref_mean, ref_cov = _moment_match_loop(wk, dens)
        np.testing.assert_array_equal(out_means[k], ref_mean)
        np.testing.assert_array_equal(out_covs[k], ref_cov)


@pytest.mark.parametrize("d, p", [(1, 1), (2, 1), (4, 2), (6, 3)])
def test_stacked_terms_equal_per_density_loop_bitwise(d, p):
    rng = np.random.default_rng(d)
    dens = [GaussianDensity(rng.normal(0, 3, d), random_spd(rng, d)) for _ in range(7)]
    m = LinearMotionModel(rng.normal(size=(d, d)), random_spd(rng, d, 0.1), 0.9)
    a, n = rng.normal(size=(p, d)), random_spd(rng, p)
    means, covs = _stack(dens, d)
    pred_means, pred_covs = _predict(means, covs, m)
    a_means, s_inv, _, gains = _linear_terms(means, covs, a, n)
    for k, g in enumerate(dens):
        np.testing.assert_array_equal(pred_means[k], m.F @ g.mean)
        np.testing.assert_array_equal(pred_covs[k], symmetrize(m.F @ g.cov @ m.F.T + m.Q))
        np.testing.assert_array_equal(a_means[k], a @ g.mean)
        np.testing.assert_array_equal(gains[k], g.cov @ a.T @ s_inv[k])
    with pytest.raises(ContractError):
        _stack(dens + [GaussianDensity(np.zeros(d + 1), np.eye(d + 1))], d)


# gate masses 0.5, 0.9, 0.99, ..., 1 - 1e-12
DECADE_GATE_PROBS = [0.5] + [1.0 - 10.0**-e for e in range(1, 13)]


@pytest.mark.parametrize("dim", range(1, 7))
def test_gate_quantile_within_4_ulps_of_chdtri(dim):
    for gate_prob in DECADE_GATE_PROBS:
        ref = float(chdtri(dim, 1.0 - gate_prob))
        assert abs(gate_quantile(dim, gate_prob) - ref) <= 4 * math.ulp(ref), gate_prob
    assert gate_quantile(dim, 1.0) == math.inf


@pytest.mark.parametrize("dim", range(1, 7))
def test_gate_quantile_within_4_ulps_of_the_exact_quantile(dim):
    # between the decades chdtri itself can be ~150 ulps off (dims 1 and 3 near
    # gate_prob 0.75), so the dense grid is checked against 120-bit arithmetic
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 120
    for gate_prob in 1.0 - np.logspace(-12, math.log10(0.5), 40):
        tail = mpmath.mpf(1.0 - gate_prob)
        start = float(chdtri(dim, 1.0 - gate_prob))
        exact = float(mpmath.findroot(
            lambda x: mpmath.gammainc(dim / 2, x / 2, mpmath.inf, regularized=True) - tail, start))
        assert abs(gate_quantile(dim, gate_prob) - exact) <= 4 * math.ulp(exact), gate_prob


@pytest.mark.parametrize("params", [FilterParams, SmootherParams])
def test_gate_prob_whose_gate_is_zero_is_a_setting_error(params):
    # 1 - 1e-17 rounds to 1: the quantile, the gate, is 0
    with pytest.raises(SettingError, match="gate_prob"):
        params(gate_prob=1e-17)
    with pytest.raises(SettingError, match="gate_prob"):
        gate_quantile(2, 1e-17)
    # the smallest mass whose complement does not round to 1 gives a positive gate
    assert params(gate_prob=2.0**-53).gate_prob == 2.0**-53
    assert 0.0 < gate_quantile(2, 2.0**-53) < 1e-10
