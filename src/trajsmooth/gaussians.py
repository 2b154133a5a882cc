"""Linear-Gaussian primitives: densities, prediction, one-step backward smoothing.

All covariance-producing operations symmetrize their output as (A + A^T)/2 to
bound floating-point drift. Solves against predicted covariances go through a
Cholesky factorization; a matrix whose condition estimate exceeds 1e12 gets a
single 1e-9 jitter on the diagonal and is rejected if that does not help.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ContractError, SingularMatrixError

_COND_MAX = 1e12
_JITTER = 1e-9


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


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


def _gaussian_nocheck(mean: np.ndarray, cov: np.ndarray) -> GaussianDensity:
    """Intra-package fast constructor; arguments must be validated float arrays."""
    g = object.__new__(GaussianDensity)
    object.__setattr__(g, "mean", mean)
    object.__setattr__(g, "cov", cov)
    return g


def _mixture_nocheck(components: tuple) -> "GaussianMixture":
    """Intra-package fast constructor; weights must already be nonnegative."""
    mix = object.__new__(GaussianMixture)
    object.__setattr__(mix, "components", components)
    return mix


@dataclass(frozen=True)
class GaussianMixture:
    """Weighted Gaussian components; empty tuple represents the zero intensity."""

    components: tuple[tuple[float, GaussianDensity], ...] = ()

    def __post_init__(self):
        comps = tuple((float(w), g) for w, g in self.components)
        for w, _ in comps:
            if w < 0.0:
                raise ContractError(f"mixture weight {w} is negative")
        object.__setattr__(self, "components", comps)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    @property
    def total_weight(self) -> float:
        return sum(w for w, _ in self.components)

    def scaled(self, factor: float) -> "GaussianMixture":
        return GaussianMixture(tuple((w * factor, g) for w, g in self.components))


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


def _jittered(a: np.ndarray) -> np.ndarray:
    """`a` itself when well conditioned, else `a` plus the diagonal jitter.

    Raises SingularMatrixError when the jitter does not bring the condition
    estimate under the limit either.
    """
    cond = np.linalg.cond(a)
    if np.isfinite(cond) and cond <= _COND_MAX:
        return a
    a = a + _JITTER * np.eye(a.shape[0])
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > _COND_MAX:
        raise SingularMatrixError(
            f"matrix numerically singular (condition estimate {cond:.3e})"
        )
    return a


def _spd_cho(a: np.ndarray):
    """Cholesky factor of a symmetric matrix, applying the jitter policy."""
    a = _jittered(symmetrize(np.asarray(a, dtype=float)))
    try:
        return cho_factor(a, lower=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - cond check is primary
        raise SingularMatrixError(str(exc)) from exc


def predict_gaussian(g: GaussianDensity, m: LinearMotionModel) -> GaussianDensity:
    """One-step prediction: N(x, P) -> N(F x, F P F^T + Q)."""
    if g.dim != m.dim:
        raise ContractError(f"state dim {g.dim} does not match model dim {m.dim}")
    mean = m.F @ g.mean
    cov = symmetrize(m.F @ g.cov @ m.F.T + m.Q)
    return GaussianDensity(mean, cov)


def smooth_head(prior: GaussianDensity, m: LinearMotionModel, y1: np.ndarray) -> GaussianDensity:
    """Condition N(x, P) on a known successor state y1 under x' ~ N(F x, Q).

    Gain G = P F^T (F P F^T + Q)^{-1}; returns N(x + G (y1 - F x), P - G F P).
    This equals a one-step RTS backward update against a degenerate (zero
    covariance) smoothed successor.
    """
    y1 = np.asarray(y1, dtype=float)
    if y1.shape != (prior.dim,) or prior.dim != m.dim:
        raise ContractError("smooth_head dimension mismatch")
    p_pred = symmetrize(m.F @ prior.cov @ m.F.T + m.Q)
    cho = _spd_cho(p_pred)
    # G = P F^T P_pred^{-1}, computed as solve(P_pred, F P)^T
    gain = cho_solve(cho, m.F @ prior.cov).T
    mean = prior.mean + gain @ (y1 - m.F @ prior.mean)
    cov = symmetrize(prior.cov - gain @ m.F @ prior.cov)
    return GaussianDensity(mean, cov)


def smd(y1: np.ndarray, prior: GaussianDensity, m: LinearMotionModel) -> float:
    """Squared Mahalanobis distance of y1 from the predicted density N(F x, F P F^T + Q)."""
    y1 = np.asarray(y1, dtype=float)
    if y1.shape != (prior.dim,) or prior.dim != m.dim:
        raise ContractError("smd dimension mismatch")
    p_pred = m.F @ prior.cov @ m.F.T + m.Q
    resid = y1 - m.F @ prior.mean
    cho = _spd_cho(p_pred)
    return float(resid @ cho_solve(cho, resid))


def log_gaussian_pdf(y: np.ndarray, g: GaussianDensity) -> float:
    """Natural log of N(y; mean, cov); cov must be positive definite."""
    y = np.asarray(y, dtype=float)
    if y.shape != (g.dim,):
        raise ContractError(f"point shape {y.shape} does not match density dim {g.dim}")
    cho = _spd_cho(g.cov)
    resid = y - g.mean
    maha = float(resid @ cho_solve(cho, resid))
    logdet = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
    return -0.5 * (g.dim * math.log(2.0 * math.pi) + logdet + maha)


def moment_match(weights, densities) -> GaussianDensity:
    """Single Gaussian matching the first two moments of a weighted mixture."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or w.sum() <= 0.0:
        raise ContractError("moment_match needs positive total weight")
    w = w / w.sum()
    mean = sum(wi * g.mean for wi, g in zip(w, densities))
    cov = np.zeros((mean.size, mean.size))
    for wi, g in zip(w, densities):
        d = g.mean - mean
        cov += wi * (g.cov + np.outer(d, d))
    return GaussianDensity(mean, symmetrize(cov))


def sample_gaussian(g: GaussianDensity, rng: np.random.Generator) -> np.ndarray:
    """Draw one sample; tolerates PSD (including exactly singular) covariances."""
    if g.dim == 1:
        var = g.cov[0, 0]
        if var <= 0.0:
            return g.mean.copy()
        return np.array([g.mean[0] + math.sqrt(var) * rng.standard_normal()])
    if not np.any(g.cov):
        return g.mean.copy()
    try:
        root = np.linalg.cholesky(g.cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(symmetrize(g.cov))
        root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    return g.mean + root @ rng.standard_normal(g.dim)
