"""Track-oriented PMB forward filter.

Each time step runs predict -> update -> prune, and the per-step posteriors
feed backward simulation. A `PMBDensity` is stored as the arrays every step
computes with (existences, means, covariances and its PPP mixture's), and
predict, update and prune read and write them directly, one pass per step
rather than one per track, component or (track, measurement) pair:

- predict: every Bernoulli and undetected-intensity (PPP) density is pushed
  through the motion model as one stack;
- gate: the innovations of the detectable tracks x measurements, and of the
  PPP components x measurements, are formed and gated in one pass each; the
  gated pairs are kept as index arrays;
- weigh: the updated means of the gated pairs and the Joseph covariances are
  one stacked product each, the new-track likelihoods stay arrays and are
  summed per measurement with a row-wise log-sum-exp;
- rank: `murty` ranks the best global association hypotheses of the
  (measurement x track+new) cost matrix, and the marginal association
  probabilities are accumulated across them;
- collapse: every track and every new-track hypothesis is moment matched back
  to a single Bernoulli (track-oriented marginalization) in one batched pass.

Every batched expression is the per-item arithmetic in the same order, so the
filter output is byte-identical to a loop over items (see the note above
`_thinned`).

The filter log is the sequence of posteriors, which is all the smoother needs
besides the dynamic model; the estimates are a function of each posterior
(`extract_estimates`). The log leaves the process as the posteriors' arrays
stacked over the steps (`filterlog_to_arrays`, laid out in `_LOG`), and
comes back as views of them, checked whole array by whole array
(`filterlog_from_arrays`).
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .assignment import murty
from .errors import ConfigError, ContractError, check_int, check_real
from .gaussians import (
    GaussianDensity,
    GaussianMixture,
    LinearMotionModel,
    _collapse,
    _gate_tail,
    _gated,
    _groups,
    _linear_terms,
    _of_dim,
    _predict,
    _stack,
    gate_quantile,
    symmetrize,
)
from .models import BirthModel, ClutterModel, MeasurementModel
from .simulate import Scenario

# a Bernoulli with existence probability at least this is reported as an estimate
ESTIMATE_THRESHOLD = 0.5


@dataclass(frozen=True)
class BernoulliComponent:
    """Object that exists with probability r and then has the given state density."""

    r: float
    density: GaussianDensity

    def __post_init__(self):
        if not -1e-12 <= self.r <= 1.0 + 1e-12:
            raise ContractError(f"existence probability {self.r} outside [0, 1]")
        object.__setattr__(self, "r", float(min(max(self.r, 0.0), 1.0)))


class PMBDensity:
    """Poisson intensity for undetected objects plus Bernoulli components, as arrays.

    Bernoulli i exists with probability r[i] and then has the density
    N(means[i], covs[i]); built from no components, means are (0, 0).
    `PMBDensity(ppp, (BernoulliComponent, ...))` stacks its components once,
    and `bernoullis` builds them on read; `of` wraps given arrays.
    """

    __slots__ = ("ppp", "r", "means", "covs")

    def __init__(self, ppp=GaussianMixture(), bernoullis=()):
        bs = tuple(bernoullis)
        self.ppp = ppp if isinstance(ppp, GaussianMixture) else GaussianMixture(ppp)
        self.r = np.array([c.r for c in bs])
        self.means, self.covs = _stack([c.density for c in bs], bs[0].density.dim if bs else 0)

    @classmethod
    def of(cls, ppp: GaussianMixture, r: np.ndarray, means: np.ndarray, covs: np.ndarray):
        pmb = cls.__new__(cls)
        pmb.ppp, pmb.r, pmb.means, pmb.covs = ppp, r, means, covs
        return pmb

    @property
    def bernoullis(self) -> tuple[BernoulliComponent, ...]:
        return tuple(
            BernoulliComponent(r, GaussianDensity(mean, cov))
            for r, mean, cov in zip(self.r.tolist(), self.means, self.covs)
        )


@dataclass
class FilterLog:
    """Per-step posteriors aligned with the measurement sequence (index k-1)."""

    k_max: int
    posteriors: list[PMBDensity] = field(default_factory=list)
    # Nothing fills or reads these two; they remain only because perfbench's
    # criterion04_toy appends to them, and go with the next benchmark change.
    predicted_ppps: list[GaussianMixture] = field(default_factory=list)
    estimates: list[list[np.ndarray]] = field(default_factory=list)


@dataclass(frozen=True)
class FilterParams:
    """Forward-filter settings; the CLI flags and `mc` keys take their defaults from here."""

    m_best: int = 100  # global hypotheses kept per update (Murty)
    gate_prob: float = 0.9999  # gate mass of the innovation chi-square; 1.0 = no gate
    prune_r: float = 1e-4  # Bernoullis with smaller existence probability are dropped
    prune_w: float = 1e-4  # undetected-intensity components with smaller weight are dropped

    def __post_init__(self):
        check_int("m_best", self.m_best, 1)
        _gate_tail(check_real("gate_prob", self.gate_prob, "(0, 1]"))
        check_real("prune_r", self.prune_r, "[0, 1)")
        check_real("prune_w", self.prune_w, "[0, 1)")


def predict_pmb(pmb: PMBDensity, m: LinearMotionModel, b: BirthModel) -> PMBDensity:
    """Survival-thinned prediction of every component, then birth appended to the PPP."""
    if b.uniform_density > 0.0:
        raise ContractError("forward filtering requires a pure Gaussian-mixture birth")
    n = len(pmb.r)
    means, covs = _predict(*_of_dim(m.dim, pmb, pmb.ppp), m)
    birth_means, birth_covs = _of_dim(m.dim, b.intensity)
    ppp = GaussianMixture.of(
        np.concatenate([pmb.ppp.weights * m.ps, b.intensity.weights]),
        np.concatenate([means[n:], birth_means]),
        np.concatenate([covs[n:], birth_covs]),
    )
    return PMBDensity.of(ppp, pmb.r * m.ps, means[:n], covs[:n])


def prune_pmb(pmb: PMBDensity, r_min: float, w_min: float) -> PMBDensity:
    """Drop Bernoullis with r < r_min and PPP components with weight < w_min."""
    if not (0.0 <= r_min < 1.0 and 0.0 <= w_min < 1.0):
        raise ContractError("prune thresholds must lie in [0, 1)")
    w, r = pmb.ppp.weights >= w_min, pmb.r >= r_min
    ppp = GaussianMixture.of(pmb.ppp.weights[w], pmb.ppp.means[w], pmb.ppp.covs[w])
    return PMBDensity.of(ppp, pmb.r[r], pmb.means[r], pmb.covs[r])


# the floor of a log-weight whose weight is 0, so cost ratios against it stay finite
_LOG_TINY = math.log(np.finfo(float).tiny)

# The batched forms below reproduce the per-item arithmetic bit for bit. Checked
# on random stacks against a loop over items (numpy 2.4, OpenBLAS, x86-64); the
# sha256 pins in tests/test_forward.py guard the result. The package imports
# numpy and the standard library only; the tests check its ports of scipy
# functions bit for bit against scipy.
# - Equal: `d S^-1 d` as two stacked matmuls (`gaussians._gated`; the
#   row-vector form makes the same gemv-then-dot calls as one pair, and a
#   stacked gemm `matmul(D, S_inv)` also matched); updated means
#   `m + matmul(gain, d[..., None])[..., 0]`; stacked `F P F^T + Q`,
#   `A P A^T + N`, gains and the Joseph form; means `(F @ m[..., None])[..., 0]`;
#   row sums and `np.vecdot` over rows of equal length (`gaussians._groups`);
#   scipy's `logsumexp` rebuilt row-wise in numpy (`_lse_rows`, which the
#   oracle uses too); `np.exp`, `np.log`,
#   `np.logaddexp` on an array against the same ufunc per element.
# - Not equal: a three-operand tensor contraction, or broadcast-then-`.sum(-1)`,
#   for either product or a dot; `m @ F.T` for the means; `math.log`,
#   `math.exp` and `math.log1p` against their numpy ufuncs (last-ulp
#   differences), so the scalar `math` calls of the per-item code stay one per
#   track, component or measurement, and `backward._normals` takes the logs of
#   its tail members with `math.log`, as C `ndtri` does.


def _thinned(r: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """ln(1 - r + r (1 - p)) and r (1 - p) / (1 - r + r (1 - p)) of Bernoullis r thinned by p.

    The probability that a Bernoulli with existence r yields nothing when its
    object is kept with probability p (detection pD, survival pS), and the
    existence given that. The log is floored at `_LOG_TINY` when r = p = 1,
    where the existence is 0.
    """
    w = 1.0 - r + r * (1.0 - p)
    log_w = np.array([math.log(x) if x > 0.0 else _LOG_TINY for x in w.tolist()])
    return log_w, np.divide(r * (1.0 - p), w, out=np.zeros(len(r)), where=w > 0.0)


def _joseph(covs: np.ndarray, gains: np.ndarray, mm: MeasurementModel) -> np.ndarray:
    """Updated covariances in Joseph form; they do not depend on the measurement."""
    ikh = np.eye(covs.shape[-1]) - gains @ mm.H
    gains_t = np.swapaxes(gains, -1, -2)
    return symmetrize(ikh @ covs @ np.swapaxes(ikh, -1, -2) + gains @ mm.R @ gains_t)


def _lse_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log-sum-exp of each row of `x` (g, c) and the row maxima (g, 1).

    The arithmetic of `scipy.special.logsumexp` on one row: the maxima are
    taken out of the sum and counted, log1p(sum / count) + log(count) + max,
    and a non-finite result falls back to log(sum(exp)). A row of no terms,
    or of -inf terms only, gives -inf. The rows are reduced as C-contiguous
    rows, so a row's result does not depend on the other rows.
    """
    x = np.ascontiguousarray(x)
    top = x.max(axis=1, keepdims=True, initial=-np.inf)
    at_top = x == top
    count = at_top.sum(axis=1, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(at_top, -np.inf, x) - top).sum(axis=1, keepdims=True)
        out = np.log1p(np.where(s == 0, s, s / count)) + np.log(count) + top
        out = np.where(np.isfinite(out), out, np.log(np.exp(x).sum(axis=1, keepdims=True)))
    return out[:, 0], top


def update_pmb(
    pmb: PMBDensity,
    scan: list[np.ndarray],
    mm: MeasurementModel,
    cm: ClutterModel,
    gate: float,
    m_best: int,
) -> PMBDensity:
    """Point-object PMB measurement update with track-oriented marginalization."""
    check_int("m_best", m_best, 1)
    if gate <= 0.0:
        raise ContractError("gate must be positive")
    n, mz, pd = len(pmb.r), len(scan), mm.pd
    log_pd = math.log(pd) if pd > 0.0 else -math.inf
    z = np.array(scan, dtype=float).reshape(mz, mm.dim_z)

    # existing tracks: missed-detection terms, then one gating pass over
    # detectable tracks x measurements; gated pair p is (track i[p], measurement j[p])
    r = pmb.r
    means, covs = _of_dim(mm.dim_x, pmb)
    log_w_miss, r_miss = _thinned(r, pd)
    det = np.flatnonzero(r > 0.0) if pd > 0.0 and mz else np.empty(0, dtype=int)
    z_pred, s_inv, log_norm, gains = _linear_terms(means[det], covs[det], mm.H, mm.R)
    log_r_pd = np.array([math.log(x) for x in r[det].tolist()]) + log_pd
    d, terms, gated = _gated(z, log_r_pd + log_norm, z_pred, s_inv, gate)
    a, j = np.nonzero(gated)
    i = det[a]
    log_w_det = terms[a, j]
    det_means = means[i] + np.matmul(gains[a], d[a, j][..., None])[..., 0]
    det_covs = _joseph(covs[det], gains, mm)[a]

    # new-track hypotheses, one per measurement, from the gated PPP components;
    # gated pair q is (measurement pj[q], component pc[q]), per measurement in component order
    pos = pmb.ppp.weights > 0.0
    p_means, p_covs = (a[pos] for a in _of_dim(mm.dim_x, pmb.ppp))
    p_z, p_s_inv, p_log_norm, p_gains = _linear_terms(p_means, p_covs, mm.H, mm.R)
    log_w = np.array([math.log(w) for w in pmb.ppp.weights[pos].tolist()])
    p_d, p_terms, p_gated = _gated(z, log_w + p_log_norm, p_z, p_s_inv, gate)
    pj, pc = np.nonzero(p_gated.T)
    liks = p_terms[pc, pj]
    n_comp = np.bincount(pj, minlength=mz)
    log_obj = np.full(mz, -math.inf)
    log_mix = np.empty(len(liks))  # ln of the new-track mixture weights, max 0 per measurement
    for js, rows in _groups(n_comp):
        lse, top = _lse_rows(liks[rows])
        log_obj[js] = log_pd + lse
        log_mix[rows] = liks[rows] - top
    log_w_new = np.logaddexp(cm.log_density, log_obj)
    r_new = np.array([
        math.exp(lo - lw) if math.isfinite(lw) else 0.0
        for lo, lw in zip(log_obj.tolist(), log_w_new.tolist())
    ])

    # global hypotheses via ranked assignment on the (measurement x track+new) costs
    cost = np.full((mz, n + mz), np.inf)
    cost[j, i] = -(log_w_det - log_w_miss[i])
    cost[np.arange(mz), n + np.arange(mz)] = -log_w_new
    hyps = murty(cost, m_best)
    log_w_hyps = np.array([-h.cost for h in hyps])
    betas = np.exp(log_w_hyps - _lse_rows(log_w_hyps[None])[0][0])

    # marginal association probabilities, summed over hypotheses in rank order
    cols = np.array([h.row_to_col for h in hyps], dtype=int).reshape(-1)
    meas = np.tile(np.arange(mz), len(hyps))
    beta = np.repeat(betas, mz)
    to_track = cols < n
    p_det = np.zeros((n, mz))
    p_new = np.zeros(mz)
    np.add.at(p_det, (cols[to_track], meas[to_track]), beta[to_track])
    np.add.at(p_new, meas[~to_track], beta[~to_track])

    # track mixtures back to back: [missed, gated pairs in measurement order] per track
    counts = 1 + np.bincount(i, minlength=n)
    first = np.cumsum(counts) - counts
    pair = np.ones(counts.sum(), dtype=bool)
    pair[first] = False
    probs, rs = np.empty(len(pair)), np.ones(len(pair))
    p_missed = 1.0 - p_det.sum(axis=1)
    probs[first] = np.where(p_missed > 0.0, p_missed, 0.0)
    probs[pair] = p_det[i, j]
    rs[first] = r_miss
    r_bar = np.empty(n)
    for ts, rows in _groups(counts):
        r_bar[ts] = np.vecdot(probs[rows], rs[rows])
    mix_means, mix_covs = np.empty((len(pair), mm.dim_x)), np.empty((len(pair),) + covs.shape[1:])
    mix_means[first], mix_covs[first] = means, covs
    mix_means[pair], mix_covs[pair] = det_means, det_covs

    # collapse every track with r_bar > 0 and every kept new track in one batched pass
    merged = r_bar > 0.0
    r_born = p_new * r_new
    born = r_born > 0.0  # implies a gated PPP component: r_new is 0 without one
    keep_t, keep_n = np.repeat(merged, counts), np.repeat(born, n_comp)
    new_means = p_means[pc] + np.matmul(p_gains[pc], p_d[pc, pj][..., None])[..., 0]
    out_means, out_covs = _collapse(
        np.concatenate([(probs * rs)[keep_t], np.exp(log_mix)[keep_n]]),
        np.concatenate([mix_means[keep_t], new_means[keep_n]]),
        np.concatenate([mix_covs[keep_t], _joseph(p_covs, p_gains, mm)[pc][keep_n]]),
        np.concatenate([counts[merged], n_comp[born]]),
    )
    # a track with r_bar 0 keeps its density
    n_merged = int(merged.sum())
    means[merged], covs[merged] = out_means[:n_merged], out_covs[:n_merged]
    thinned = GaussianMixture.of(pmb.ppp.weights * (1.0 - pd), pmb.ppp.means, pmb.ppp.covs)
    return PMBDensity.of(
        thinned,
        np.minimum(np.concatenate([r_bar, r_born[born]]), 1.0),
        np.concatenate([means, out_means[n_merged:]]),
        np.concatenate([covs, out_covs[n_merged:]]),
    )


def run_forward(scenario: Scenario, params: FilterParams = FilterParams()) -> FilterLog:
    """Predict/update/prune over the full scan sequence, logging every posterior."""
    gate = gate_quantile(scenario.measurement.dim_z, params.gate_prob)
    log = FilterLog(k_max=scenario.k_max)
    pmb = PMBDensity(scenario.init_ppp)
    for k in range(1, scenario.k_max + 1):
        pmb = predict_pmb(pmb, scenario.motion, scenario.birth)
        pmb = update_pmb(
            pmb,
            scenario.measurements[k - 1],
            scenario.measurement,
            scenario.clutter,
            gate,
            params.m_best,
        )
        pmb = prune_pmb(pmb, params.prune_r, params.prune_w)
        log.posteriors.append(pmb)
    return log


def extract_estimates(pmb: PMBDensity) -> list[np.ndarray]:
    """Means of Bernoulli components with existence probability >= ESTIMATE_THRESHOLD."""
    return list(pmb.means[pmb.r >= ESTIMATE_THRESHOLD])


# The filter log's arrays, stacked over the steps, by family: each array with the
# number of state-dimension axes of its rows. A family's int64 `<family>.offsets`
# (K + 1 entries, rising from 0 to the row count) cuts its arrays: step k is rows
# offsets[k]:offsets[k + 1]. `k_max` is an int64 scalar. The reader loads these
# arrays only, so an archive that holds others (the predicted intensities and
# estimates that earlier logs carried) reads the same.
_LOG = {
    "posterior": {"posterior.r": 0, "posterior.means": 1, "posterior.covs": 2},
    "posterior.ppp": {"posterior.ppp.weights": 0, "posterior.ppp.means": 1, "posterior.ppp.covs": 2},
}


def filterlog_to_arrays(log: FilterLog, dim: int) -> dict[str, np.ndarray]:
    """The arrays of `_LOG` of a log whose states have dimension `dim`."""
    steps = {
        "posterior": [(p.r, p.means, p.covs) for p in log.posteriors],
        "posterior.ppp": [(p.ppp.weights, p.ppp.means, p.ppp.covs) for p in log.posteriors],
    }
    arrays = {"k_max": np.int64(log.k_max)}
    for family, rows in steps.items():
        for (key, axes), stack in zip(_LOG[family].items(), zip(*rows)):
            arrays[key] = np.concatenate([np.reshape(a, (-1, *[dim] * axes)) for a in stack])
        arrays[f"{family}.offsets"] = np.cumsum([0, *(len(a) for a, *_ in rows)], dtype=np.int64)
    return arrays


def _read(arrays, key: str) -> np.ndarray:
    try:
        return arrays[key]
    except KeyError:
        raise ConfigError(f"{key} is missing") from None
    except (ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
        # an object array is refused here, without unpickling it
        raise ConfigError(f"{key} cannot be read: {exc}") from exc


def _check_rows(key: str, a: np.ndarray, offsets: np.ndarray, ok: np.ndarray, must: str):
    """ConfigError naming the step and row of the first row of `a` that is not `ok`."""
    if not ok.all():
        i = int(np.argmin(ok))
        k = int(np.searchsorted(offsets, i, side="right")) - 1
        got = f", got {a[i]}" if a.ndim == 1 else ""
        raise ConfigError(f"steps[{k}].{key}[{i - offsets[k]}] must {must}{got}")


def _steps(arrays, family: str, dim: int) -> list[tuple[np.ndarray, ...]]:
    """Per step, views of the checked arrays of one family of the log, in `_LOG` order."""
    k_max = _read(arrays, "k_max")
    if k_max.dtype != np.int64 or k_max.shape != () or k_max < 1:
        raise ConfigError(f"k_max must be an int64 integer >= 1, got {k_max!r}")
    key = f"{family}.offsets"
    offsets = _read(arrays, key)
    if offsets.dtype != np.int64 or offsets.shape != (k_max + 1,):
        raise ConfigError(f"{key} must be int64 of shape ({k_max + 1},) for k_max {k_max}, "
                          f"got {offsets.dtype} of shape {offsets.shape}")
    if offsets[0] != 0 or (np.diff(offsets) < 0).any():
        raise ConfigError(f"{key} must start at 0 and never fall")
    stacked = [_read(arrays, name) for name in _LOG[family]]
    for (name, axes), a in zip(_LOG[family].items(), stacked):
        if a.dtype != np.float64 or a.ndim != 1 + axes or a.shape[1:] != (dim,) * axes:
            want = ", ".join(["n", *[str(dim)] * axes]) + "," * (axes == 0)
            raise ConfigError(
                f"{name} must be float64 of shape ({want}), got {a.dtype} of shape {a.shape}"
            )
        if offsets[-1] != len(a):
            raise ConfigError(f"{key} must end at the {len(a)} rows of {name}, got {offsets[-1]}")
        _check_rows(name, a, offsets, np.isfinite(a).all(axis=tuple(range(1, a.ndim))), "be finite")
        if name == "posterior.r":
            _check_rows(name, a, offsets, (a >= 0.0) & (a <= 1.0), "be a number in [0, 1]")
        elif axes == 0:
            _check_rows(name, a, offsets, a >= 0.0, "be a number >= 0")
    bounds = offsets.tolist()
    return [tuple(a[lo:hi] for a in stacked) for lo, hi in zip(bounds, bounds[1:])]


def filterlog_from_arrays(arrays, dim: int) -> FilterLog:
    """The log of `filterlog_to_arrays`, whose densities are views of its arrays.

    A log of another state dimension than `dim` (the scenario's), or with an
    array not as written, is a ConfigError naming the array.
    """
    posteriors = _steps(arrays, "posterior", dim)
    ppps = [GaussianMixture.of(*q) for q in _steps(arrays, "posterior.ppp", dim)]
    return FilterLog(len(ppps), [PMBDensity.of(ppp, *p) for p, ppp in zip(posteriors, ppps)])
