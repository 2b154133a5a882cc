"""Linear-Gaussian primitives: densities, prediction, gating, moment matching, sampling.

All covariance-producing operations symmetrize their output as (A + A^T)/2 to
bound floating-point drift. One Cholesky factorisation per covariance,
`_cholesky`, serves the inversion policy, the log-normalisers and the sampling
roots. The policy, in `_inv_log_norm`, covers every covariance the package
inverts: a matrix without a factor (not positive definite), or whose condition
estimate from the factor's pivots exceeds 1e12, gets a single 1e-9 jitter on
the diagonal and is rejected if that does not help. The filter update and the
backward kernel invert stacks through `_inv_log_norm`/`_linear_terms`, the one
path for innovation terms, gains and the one-step smoothing update, and weigh
points against those terms through `_gated`, the one Mahalanobis log-term and
gate; `gate_quantile` turns a gate mass into that gate, the chi-square
quantile. Prediction (`_predict`) and moment matching (`_collapse`, segment
sums over mixtures stored back to back) also work on stacks: a
`GaussianMixture` is stored as its weight, mean and covariance arrays, which
`_of_dim` reads at a model's dimension, so each operation has one arithmetic
path. Sampling splits into `_sampling_roots`, the (d, d) factors of a stack's
members (their `_cholesky` factors beyond 1-d), which the backward sampler
takes of the distinct members its draws read, `_sampling_root`, that factor of
one covariance, and `_draw`, which turns given standard normals into samples
of a stack; `_psd_root` is the eigen-based root of a PSD matrix that is not
positive definite.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, SettingError, SingularMatrixError

_COND_MAX = 1e12
_JITTER = 1e-9
_LOG_2PI = math.log(2.0 * math.pi)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T)/2 of a matrix or of each matrix of a stack (..., d, d)."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


@dataclass(frozen=True, slots=True)
class GaussianDensity:
    """Multivariate normal with mean (n,) and symmetric PSD covariance (n, n)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ContractError(
                f"mean/cov shapes inconsistent: {mean.shape} vs {cov.shape}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


class GaussianMixture:
    """Weighted Gaussian components as arrays: weights (c,), means (c, d), covs (c, d, d).

    No component is the zero intensity; built from no pairs, its means are
    (0, 0). `GaussianMixture(((w, GaussianDensity), ...))` stacks its pairs
    once; `of` wraps given arrays.
    """

    __slots__ = ("weights", "means", "covs")

    def __init__(self, components=()):
        comps = tuple((float(w), g) for w, g in components)
        for w, _ in comps:
            if w < 0.0:
                raise ContractError(f"mixture weight {w} is negative")
        self.weights = np.array([w for w, _ in comps])
        self.means, self.covs = _stack([g for _, g in comps], comps[0][1].dim if comps else 0)

    @classmethod
    def of(cls, weights: np.ndarray, means: np.ndarray, covs: np.ndarray) -> GaussianMixture:
        mix = cls.__new__(cls)
        mix.weights, mix.means, mix.covs = weights, means, covs
        return mix

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class LinearMotionModel:
    """Transition x_{k+1} ~ N(F x_k, Q) with constant survival probability."""

    F: np.ndarray
    Q: np.ndarray
    ps: float

    def __post_init__(self):
        F = np.atleast_2d(np.asarray(self.F, dtype=float))
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        if F.shape[0] != F.shape[1] or Q.shape != F.shape:
            raise ContractError(f"F/Q shapes inconsistent: {F.shape} vs {Q.shape}")
        if not 0.0 <= self.ps <= 1.0:
            raise ContractError(f"survival probability {self.ps} outside [0, 1]")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "ps", float(self.ps))

    @property
    def dim(self) -> int:
        return self.F.shape[0]


def make_cv_model(ts: float, sigma_q: float, ps: float, dims: int = 2) -> LinearMotionModel:
    """Nearly-constant-velocity model over `dims` spatial dimensions.

    State layout is (pos_1, vel_1, ..., pos_d, vel_d).
    """
    block_f = np.array([[1.0, ts], [0.0, 1.0]])
    block_q = np.array([[ts**3 / 3.0, ts**2 / 2.0], [ts**2 / 2.0, ts]])
    F = np.kron(np.eye(dims), block_f)
    Q = sigma_q**2 * np.kron(np.eye(dims), block_q)
    return LinearMotionModel(F, Q, ps)


def _cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack (n, d, d) and the mask of members that have one.

    One stacked factorisation; only when that raises, one per member, and a
    member that is not positive definite gets a zero factor.
    """
    try:
        return np.linalg.cholesky(a), np.ones(len(a), bool)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.zeros_like(a), np.zeros(1, bool)
    low, ok = zip(*(_cholesky(member[None]) for member in a))
    return np.concatenate(low), np.concatenate(ok)


def _inv_log_norm(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses and log-normalisers -0.5 d ln 2pi - sum ln L_ii of a stack (n, d, d).

    L is a member's `_cholesky` factor. A member is bad when it has none, or
    when its condition estimate (max L_ii / min L_ii)^2 exceeds 1e12: each
    pivot L_ii^2 lies between the extreme eigenvalues, so the estimate is a
    lower bound on the 2-norm condition number. Each bad member gets a single
    1e-9 jitter on the diagonal and is factored again; good members are used
    unchanged. Raises SingularMatrixError when the stack has a non-finite
    entry, or when a member is still bad after the jitter.
    """
    if not np.isfinite(s).all():
        raise SingularMatrixError("matrix has a non-finite entry")
    for jitter in (0.0, _JITTER):
        if jitter:
            s = np.where(bad[:, None, None], s + jitter * np.eye(s.shape[-1]), s)
        low, ok = _cholesky(s)
        diag = np.diagonal(low, axis1=-2, axis2=-1)
        bad = ~ok | (diag.max(-1) > _COND_MAX**0.5 * diag.min(-1))
        if not bad.any():
            return np.linalg.inv(s), -0.5 * s.shape[-1] * _LOG_2PI - np.log(diag).sum(-1)
    raise SingularMatrixError("matrix numerically singular or indefinite, even after jitter")


def _stack(densities, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Means (k, dim) and covariances (k, dim, dim) of k densities of dimension `dim`."""
    for g in densities:
        if g.dim != dim:
            raise ContractError(f"state dim {g.dim} does not match model dim {dim}")
    means = np.array([g.mean for g in densities]).reshape(len(densities), dim)
    return means, np.array([g.cov for g in densities]).reshape(len(densities), dim, dim)


def _of_dim(dim: int, *stacks) -> tuple[np.ndarray, np.ndarray]:
    """New means (k, dim) and covariances (k, dim, dim) of stored stacks laid end to end.

    Each stack (a mixture, or a PMB density's Bernoullis) has `means` and
    `covs`; an empty one fits any dim.
    """
    for s in stacks:
        if len(s.means) and s.means.shape[1] != dim:
            raise ContractError(f"state dim {s.means.shape[1]} does not match model dim {dim}")
    means = np.concatenate([s.means.reshape(-1, dim) for s in stacks])
    return means, np.concatenate([s.covs.reshape(-1, dim, dim) for s in stacks])


def _linear_terms(means: np.ndarray, covs: np.ndarray, a: np.ndarray, n: np.ndarray):
    """Stacked A x, S^{-1}, log-normaliser of N(., A x, S) and gain P A^T S^{-1}.

    One entry per density N(x, P) of the stacks `means` (k, d) and `covs`
    (k, d, d), with S = A P A^T + N. Each stacked product runs the same BLAS
    call per member as the product of one density, so every entry equals the
    single-density result bit for bit.
    """
    s_inv, log_norm = _inv_log_norm(symmetrize(a @ covs @ a.T + n))
    return (a @ means[..., None])[..., 0], s_inv, log_norm, covs @ a.T @ s_inv


def _gated(points: np.ndarray, log_const: np.ndarray, means: np.ndarray, invs: np.ndarray,
           gate: float):
    """(components, points) differences, log-terms and gate mask of Gaussian terms.

    Component c has log-term log_const[c] - 0.5 (x - means[c])^T invs[c] (x - means[c])
    at each point x of `points` (n, d), gated by that Mahalanobis distance
    being at most `gate`. The distances are two stacked matmuls, which make
    the same calls per (component, point) pair as a loop over the pairs.
    """
    d = points[None] - means[:, None]
    maha = np.matmul(np.matmul(d[..., None, :], invs[:, None]), d[..., :, None])[..., 0, 0]
    return d, log_const[:, None] - 0.5 * maha, maha <= gate


def _gate_tail(gate_prob: float) -> float:
    """1 - gate_prob, the chi-square mass outside the gate; SettingError where the gate is 0."""
    tail = 1.0 - gate_prob
    if tail == 1.0:
        raise SettingError(f"gate_prob {gate_prob!r} gives a gate of 0: 1 - gate_prob rounds to 1")
    return tail


def _chi2_sf(dim: int, x: float) -> float:
    """P(X > x) for X chi-square with `dim` (a positive integer) degrees of freedom.

    The closed form for integer dimensions, h = x / 2: exp(-h) times the sum of
    h^i / i! over i < dim / 2 for even `dim`; erfc(sqrt h) plus exp(-h) times the
    sum of h^(i - 1/2) / Gamma(i + 1/2) over 1 <= i <= (dim - 1) / 2 for odd `dim`.
    """
    h = 0.5 * x
    if dim % 2:
        total, term, a = math.erfc(math.sqrt(h)), 2.0 * math.sqrt(h / math.pi), 1.5
    else:
        total, term, a = 0.0, 1.0, 1.0
    s = 0.0
    for _ in range(dim // 2):
        s += term
        term *= h / a
        a += 1.0
    return total + math.exp(-h) * s


def gate_quantile(dim: int, gate_prob: float) -> float:
    """The gate on a squared Mahalanobis distance in `dim` dimensions that holds mass `gate_prob`.

    The chi-square quantile: +inf at gate_prob 1 (no gate), else the positive
    double whose `_chi2_sf` lies nearest 1 - gate_prob, found by bisecting over
    the doubles (a nonnegative double orders as its bit pattern).
    """
    tail = _gate_tail(gate_prob)
    if tail == 0.0:
        return math.inf
    hi = 1.0
    while _chi2_sf(dim, hi) > tail:
        hi *= 2.0
    a, b = 1, _bits(hi)  # _chi2_sf(dim, 5e-324) rounds to 1 > tail
    while b - a > 1:
        mid = (a + b) // 2
        if _chi2_sf(dim, _double(mid)) > tail:
            a = mid
        else:
            b = mid
    lo, hi = _double(a), _double(b)
    return lo if _chi2_sf(dim, lo) - tail < tail - _chi2_sf(dim, hi) else hi


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _predict(means: np.ndarray, covs: np.ndarray, m: LinearMotionModel):
    """Stacked one-step prediction: N(x, P) -> N(F x, F P F^T + Q) per member."""
    return (m.F @ means[..., None])[..., 0], symmetrize(m.F @ covs @ m.F.T + m.Q)


def _collapse(w: np.ndarray, means: np.ndarray, covs: np.ndarray, counts):
    """Moment-matched means and covariances of mixtures stored back to back.

    Mixture k owns the next counts[k] >= 1 rows of `w` (positive total),
    `means` and `covs`: its weights over their sum, then the weighted sums of
    the means and of the spread terms P + (m - mean)(m - mean)^T, each one
    `np.add.reduceat` over the back-to-back rows.
    """
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(starts)), counts)
    wk = w / np.add.reduceat(w, starts)[owner]
    mean = np.add.reduceat(wk[:, None] * means, starts)
    d = means - mean[owner]
    spread = wk[:, None, None] * (covs + d[:, :, None] * d[:, None, :])
    return mean, symmetrize(np.add.reduceat(spread, starts))


def sample_gaussian(g: GaussianDensity, rng: np.random.Generator) -> np.ndarray:
    """Draw one sample; tolerates PSD (including exactly singular) covariances."""
    return _draw(g.mean[None], _sampling_root(g.cov)[None], rng.standard_normal((1, g.dim)))[0]


def _sampling_root(cov: np.ndarray) -> np.ndarray:
    """The (d, d) factor `_draw` samples a covariance with: `_sampling_roots` of one member."""
    return _sampling_roots(cov[None])[0]


def _sampling_roots(covs: np.ndarray) -> np.ndarray:
    """The `_draw` factor of each member of a stack (n, d, d).

    In 1-d the standard deviations (zero for a point mass); otherwise the
    `_cholesky` factors, zero for a member without one that is a point mass
    and the eigen-based `_psd_root` for any other member without one.
    """
    if covs.shape[-1] == 1:
        return np.where(covs > 0.0, np.sqrt(np.maximum(covs, 0.0)), 0.0)
    roots, ok = _cholesky(covs)
    for i in np.flatnonzero(~ok & covs.any((1, 2))):
        roots[i] = _psd_root(covs[i])
    return roots


def _psd_root(cov: np.ndarray) -> np.ndarray:
    """A root R with R R^T = cov of a PSD matrix, from its eigendecomposition."""
    vals, vecs = np.linalg.eigh(symmetrize(cov))
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _draw(means: np.ndarray, roots: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Samples means[i] + roots[i] @ z[i] of N(means[i], roots[i] roots[i]^T), one per row.

    `z` (n, d) holds standard normals and `roots` (n, d, d) `_sampling_root`
    roots. The stacked matmul runs one product per row, so a row's sample does
    not depend on the other rows of the stack.
    """
    return means + np.matmul(roots, z[..., None])[..., 0]
