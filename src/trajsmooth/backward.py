"""Backward kernel over sets of trajectories and backward simulation.

Given the forward filter's per-step posteriors, each backward step conditions
on the already-sampled trajectory set over k+1:K. Local hypothesis families:

  - a forward track ended at k (emits a length-1 trajectory if it existed),
  - a forward track continued into a conditioning trajectory (its head at k is
    the one-step smoothed Gaussian),
  - a trajectory present at k+1 was first detected there: either truly born at
    k+1, or extended one step backward from the undetected-object intensity,
  - a trajectory not present at k+1 passes through unaltered.

Global hypotheses are ranked assignments of the cost matrix C = -log [W1 W2];
one is drawn per step and its unnormalized log-weight accumulates into the
particle score. A kernel holds only what the sampler reads, as arrays: the
cost matrix, the head differences its continued pairs are smoothed from, and
its rows of the batch's first-detection arrays (`_FirstDetections`). What
does not depend on the conditioning set (the ended-track existences and
heads, the smoothing terms of every track and undetected component, and the
sampling roots of their covariances) lives in the step's `_KernelCache`,
shared by all kernels of the step. The step computes only what its draws
read: a sampling root the first time a draw or a record reads it (dirac mode
reads none), and an ended track's length-1 trajectory the first time a dirac
particle keeps it. The hypothesis records (`LocalHypothesis` and its
densities) are built only on read, for tests and `sample_bernoulli`;
building and sampling a kernel creates none.

Backward simulation runs step-outer, particle-inner. At each step the
particles are grouped by conditioning set, keyed by the ordered tuple of
(birth time, state bytes): identical ordered sets give identical kernels,
while a reordered set permutes the cost-matrix rows (and with them the
ranking's tie-breaks) and the order of the sampled set. The kernels of many
groups are built in one batched pass: their heads are stacked, gated against
every active track, birth and undetected component at once, and each group's
cost matrix is sliced out. The first-detection weights of all heads come from
(terms x heads) arrays with -inf for gated-out terms. Cost matrices that
share a +inf pattern are ranked as one stack, and each group's cumulative
hypothesis probabilities are computed once. Every particle then draws from
its own seeded stream in the same order as a particle simulated alone, so
grouping and batching change no output; in dirac mode a particle's ended-track
uniforms are one block draw, which leaves its stream where the scalar draws
would. Batched arithmetic is kept bitwise equal to the per-set form: stacked
products use `einsum`, one (size, d) @ (d, d) matmul per set, or a stacked
matmul that runs one product per member, and each column log-sum-exp
(`_lse_columns`) applies `math.exp`/`math.log` elementwise and sums its rows
in order, which is bit-equal to the scalar `math` form.
"""

from __future__ import annotations

import bisect
import gc
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import chdtri

# _ranked stays importable from here: perfbench's tracer patches it in this module
from .assignment import Assignment, _ranked, _ranked_stack  # noqa: F401
from .errors import ContractError, SettingError, check_int, check_real
from .forward import FilterLog, PMBDensity
from .gaussians import (
    LinearMotionModel,
    _draw,
    _inv_log_norm,
    _linear_terms,
    _sampling_root,
    _stack,
    sample_gaussian,
    symmetrize,
)
from .models import BirthModel
from .trajectory import Trajectory, trajectory_from_jsonable, trajectory_to_jsonable

_LOG_TINY = math.log(np.finfo(float).tiny)
# conditioning sets per batched kernel build: bounds the memory of one pass
_BATCH = 1024


@dataclass(frozen=True, slots=True)
class EndedAtK:
    """Track dies at k; head drawn from the filtering Gaussian."""

    mean: np.ndarray
    root: object  # gaussians._sampling_root of the filtering covariance


@dataclass(frozen=True, slots=True)
class ContinuedSmoothed:
    """Track alive at k and k+1; smoothed head prepended to the fixed tail."""

    mean: np.ndarray
    root: object  # of the smoothed covariance
    tail: Trajectory


@dataclass(frozen=True, slots=True)
class FirstDetected:
    """Trajectory first present at k+1: keep as born there, or extend backward.

    The extension heads are the undetected-intensity components `comps` that
    passed the gate, with log-weights `log_terms`; `means` and `roots` cover
    every component of the step.
    """

    w_keep: float
    w_extend: float
    log_terms: list[float]
    comps: list[int]
    means: np.ndarray  # (components, d): smoothed means given this trajectory's head
    roots: _Roots  # sampling root of each component's smoothed covariance, on first read
    tail: Trajectory


@dataclass(frozen=True, slots=True)
class LocalHypothesis:
    log_weight: float
    existence: float
    density: EndedAtK | ContinuedSmoothed | FirstDetected


class _FirstDetections(NamedTuple):
    """First-detection terms of a batch's stacked heads; column h is head h."""

    log_w: np.ndarray  # (heads,) log-weight of the first-detection column, floored
    w_keep: list[float]  # (heads,) probability of keeping the trajectory as born at k+1
    ext_terms: np.ndarray  # (components, heads) log-weight of each backward extension
    ext_ok: np.ndarray  # (components, heads) extensions the head may draw (gated, or all)
    ext_means: np.ndarray  # (components, heads, d) smoothed extension means


@dataclass(slots=True)
class BackwardKernel:
    """What the sampler reads to draw the trajectory set over k:K from that over k+1:K.

    Row j of `cost` is trajectory j present at k+1; column i < n_tracks pairs
    it with forward track i, column n_tracks + j is its first detection, whose
    terms are head `start + j` of `first`.
    """

    k: int
    cost: np.ndarray  # m x (n_tracks + m)
    step: _KernelCache | None  # the step's shared terms; None for a bare cost matrix
    present: tuple[Trajectory, ...]  # the m trajectories present at k+1
    diffs: np.ndarray  # (active tracks, m, d): head at k+1 minus each track's prediction
    log_w: np.ndarray  # (active tracks, m): continued log-weights
    first: _FirstDetections | None  # of the batch this kernel was built in
    start: int  # column of present trajectory 0 in `first`
    absent: tuple[Trajectory, ...]  # born after k+1; passed through

    @property
    def m(self) -> int:
        """Conditioning trajectories present at k+1."""
        return self.cost.shape[0]

    @property
    def n_tracks(self) -> int:
        """Forward Bernoulli count n_{k|k}."""
        return self.cost.shape[1] - self.cost.shape[0]

    @property
    def ended(self) -> tuple[LocalHypothesis, ...]:
        """Per track; the same for every kernel of the step."""
        s = self.step
        return tuple(
            LocalHypothesis(float(s.log_w_end[i]), e, EndedAtK(s.end_means[i], s.end_roots[i]))
            for i, e in enumerate(s.exist_end)
        )

    def smoothed_head(self, i: int, j: int) -> tuple[np.ndarray, object]:
        """Mean and sampling root of track i's head at k given present trajectory j."""
        a = self.step.active_pos[i]
        t = self.step.tracks
        return t.means[a] + t.gains[a] @ self.diffs[a, j], t.roots[a]

    def continued(self, i: int, j: int) -> LocalHypothesis:
        """Track i continued into present trajectory j; (j, i) must be finite in `cost`."""
        log_w = float(self.log_w[self.step.active_pos[i], j])
        head = ContinuedSmoothed(*self.smoothed_head(i, j), self.present[j])
        return LocalHypothesis(log_w, 1.0, head)

    @property
    def first_detected(self) -> list[LocalHypothesis]:
        """Per present trajectory."""
        f = self.first
        out = []
        for j, tail in enumerate(self.present):
            h = self.start + j
            comps = np.flatnonzero(f.ext_ok[:, h])
            w_keep = f.w_keep[h]
            fd = FirstDetected(
                w_keep, 1.0 - w_keep, f.ext_terms[comps, h].tolist(), comps.tolist(),
                f.ext_means[:, h], self.step.ppp.roots, tail,
            )
            out.append(LocalHypothesis(float(f.log_w[h]), 1.0, fd))
        return out


@dataclass(frozen=True)
class Particle:
    """One sampled set of trajectories over 1:K with its accumulated log-weight."""

    trajectories: tuple[Trajectory, ...]
    log_weight_acc: float


@dataclass(frozen=True)
class SmootherParams:
    """Backward-simulation settings; the CLI flags and `mc` keys take their defaults from here."""

    num_particles: int = 1000  # T, the number of sampled trajectory sets
    m_best: int = 100  # M, ranked global hypotheses per kernel
    gate_prob: float = 0.9999  # gate mass of the state chi-square; 1.0 = no gate
    w_hyp_min: float = 1e-4  # global hypotheses with smaller probability are dropped
    dirac_mode: bool = False  # heads are smoothed means instead of draws
    seed: int = 0

    def __post_init__(self):
        check_int("num_particles", self.num_particles, 1)
        check_int("m_best", self.m_best, 1)
        check_real("gate_prob", self.gate_prob, "(0, 1]")
        check_real("w_hyp_min", self.w_hyp_min, "[0, 1)")
        if not isinstance(self.dirac_mode, bool):
            raise SettingError(f"dirac_mode must be true or false, got {self.dirac_mode!r}")
        check_int("seed", self.seed, 0)


def split_y(trajectories, k: int) -> tuple[list[Trajectory], list[Trajectory]]:
    """Partition a trajectory set over k+1:K into present-at-k+1 and later-born."""
    present, absent = [], []
    for tr in trajectories:
        if tr.t <= k:
            raise ContractError(f"trajectory born at {tr.t} is not within {k + 1}:K")
        (present if tr.t == k + 1 else absent).append(tr)
    return present, absent


# np.exp and np.log are not bit-equal to math.exp and math.log (checked on a
# 2-core x86-64 box: np.exp differed on 92,409 of 2M random inputs, np.log on
# about 0.1-0.2%), so the column form maps the math functions elementwise.
_EXP = np.frompyfunc(math.exp, 1, 1)
_LOG = np.frompyfunc(math.log, 1, 1)


def _lse_columns(rows: np.ndarray) -> np.ndarray:
    """log-sum-exp of each column of a (terms, columns) array; -inf marks an absent term.

    Bit-equal to the scalar form top + math.log(sum(math.exp(v - top) for v in
    terms)) over the column's present terms in row order: an absent term adds
    exp(-inf) = 0.0, which leaves the running sum unchanged, and the rows are
    added one at a time, left to right, as `sum` does (a numpy reduction may
    sum pairwise). A column with no finite term gives -inf.
    """
    top = rows.max(axis=0, initial=-math.inf)
    out = np.full(rows.shape[1], -math.inf)
    live = top > -math.inf
    if live.any():
        total = np.zeros(int(live.sum()))
        for row in _EXP(rows[:, live] - top[live]).astype(float):
            total += row
        out[live] = top[live] + _LOG(total).astype(float)
    return out


class _Roots:
    """Sampling roots of a covariance stack, each computed on first read and then kept.

    `roots[i]` is `_sampling_root(covs[i])`: a 1-d float, None for a point
    mass, else a matrix root. Dirac mode reads none of them.
    """

    __slots__ = ("covs", "_got")

    def __init__(self, covs):
        self.covs = covs
        self._got: dict[int, object] = {}

    def __getitem__(self, i):
        got = self._got
        if i not in got:
            got[i] = _sampling_root(self.covs[i])
        return got[i]


class _Smoothing(NamedTuple):
    """Stacked one-step terms of weighted densities (ln w, N(x, P)) under x' ~ N(F x, Q).

    Conditioning a density on a successor state y is the one-step RTS update
    against a fixed state: mean x + G (y - F x) and covariance P - G F P,
    with weight ln w + ln N(y; F x, P_pred).
    """

    log_const: np.ndarray  # ln w plus the log-normaliser of N(., F x, P_pred)
    mean_pred: np.ndarray  # F x
    inv_pred: np.ndarray  # P_pred^{-1}
    means: np.ndarray  # x
    gains: np.ndarray  # G = P F^T P_pred^{-1}
    covs: np.ndarray  # smoothed covariances P - G F P
    roots: _Roots  # sampling roots of `covs`, on first read


def _smoothing_terms(weighted, m: LinearMotionModel) -> _Smoothing:
    means, covs = _stack([g for _, g in weighted], m.dim)
    mean_pred, inv_pred, log_norm, gains = _linear_terms(means, covs, m.F, m.Q)
    log_const = np.array([lw + ln for (lw, _), ln in zip(weighted, log_norm)])
    # one (d, d) product per member, as the loop over members computes it
    smoothed = symmetrize(covs - gains @ m.F @ covs)
    return _Smoothing(log_const, mean_pred, inv_pred, means, gains, smoothed, _Roots(smoothed))


class _KernelCache:
    """Conditioning-set-independent quantities of one step, shared across particles.

    Sampling roots (`end_roots`, `tracks.roots`, `ppp.roots`) are computed on
    first read, and an ended track's length-1 trajectory (`ended_trajectory`)
    when a particle first keeps it, so a step builds only what its draws read.
    """

    def __init__(self, pmb: PMBDensity, birth: BirthModel, m: LinearMotionModel):
        ps = m.ps
        self.dim = m.dim
        # per track, ended at k: its log-weight, existence and filtering head
        self.log_w_end = np.empty(len(pmb.bernoullis))
        self.exist_end: list[float] = []
        for i, comp in enumerate(pmb.bernoullis):
            w_end = 1.0 - comp.r + comp.r * (1.0 - ps)
            # floored so W1 ratios stay finite when r=1 and pS=1 (track cannot end)
            self.log_w_end[i] = math.log(w_end) if w_end > 0.0 else _LOG_TINY
            self.exist_end.append(comp.r * (1.0 - ps) / w_end if w_end > 0.0 else 0.0)
        self.end_means = [comp.density.mean for comp in pmb.bernoullis]
        self.end_roots = _Roots([comp.density.cov for comp in pmb.bernoullis])
        self._ended: dict[int, Trajectory] = {}

        # tracks that can continue into a conditioning trajectory
        active = [(i, c) for i, c in enumerate(pmb.bernoullis) if c.r > 0.0 and ps > 0.0]
        self.active_idx = np.array([i for i, _ in active], dtype=int)
        self.active_pos = {i: a for a, (i, _) in enumerate(active)}
        self.tracks = _smoothing_terms(
            [(math.log(c.r) + math.log(ps), c.density) for _, c in active], m
        )
        # undetected intensity extended one step backward
        self.ppp = _smoothing_terms(
            [(math.log(ps) + math.log(w), g) for w, g in pmb.ppp if w > 0.0 and ps > 0.0], m
        )

        # birth components: (ln w plus log-normaliser, means, inverse covariances)
        births = [(w, g) for w, g in birth.intensity if w > 0.0]
        means, covs = _stack([g for _, g in births], m.dim)
        inv, log_norm = _inv_log_norm(covs)
        self.birth_comps = (np.array([math.log(w) for w, _ in births]) + log_norm, means, inv)
        self.log_uniform = (
            math.log(birth.uniform_density) if birth.uniform_density > 0.0 else -math.inf
        )

    def ended_trajectory(self, i: int, k: int) -> Trajectory:
        """Dirac mode: track i's length-1 trajectory at k, built once per step."""
        tr = self._ended.get(i)
        if tr is None:
            tr = self._ended[i] = _trajectory_at(k, self.end_means[i])
        return tr


def build_backward_kernel(
    pmb: PMBDensity,
    birth: BirthModel,
    m: LinearMotionModel,
    trajectories,
    gate: float,
    k: int = 0,
) -> BackwardKernel:
    """Kernel of the trajectory set over k:K conditioned on the set over k+1:K.

    This is the batched build of `_kernels` with one set.
    """
    return _kernels(_KernelCache(pmb, birth, m), [trajectories], gate, k)[0]


def _kernels(cache: _KernelCache, sets, gate: float, k: int) -> list[BackwardKernel]:
    """Kernels of many conditioning sets from one pass over their stacked heads.

    Every present head of every set is gated against every active track and
    every birth and undetected component at once (`_gated`). Sets with the
    same number of present trajectories then get their cost matrices and
    smoothed extension means as one stack each.
    """
    splits = [split_y(trajectories, k) for trajectories in sets]
    present = [tr for p, _ in splits for tr in p]
    heads = np.array([tr.states[0] for tr in present]).reshape(-1, cache.dim)
    n_tracks = len(cache.exist_end)
    starts = np.cumsum([0] + [len(p) for p, _ in splits])
    by_size: dict[int, list[int]] = {}
    for s, (p, _) in enumerate(splits):
        by_size.setdefault(len(p), []).append(s)
    # (sets, size) head indices per number of present trajectories
    blocks = [(members, starts[members][:, None] + np.arange(size))
              for size, members in by_size.items()]

    t = cache.tracks
    diffs, log_w, gated = _gated(heads, t.log_const, t.mean_pred, t.inv_pred, gate)
    continued = np.where(gated, -(log_w - cache.log_w_end[cache.active_idx, None]), np.inf)

    # a (size, d) @ (d, d) product per set and component, as one broadcast matmul
    # per block: stacking the sets into one taller product would round differently
    ppp = cache.ppp
    ext_diffs, ext_lp, ext_ok = _gated(heads, ppp.log_const, ppp.mean_pred, ppp.inv_pred, gate)
    ext_means = np.empty(ext_diffs.shape)
    gains_t = ppp.gains.transpose(0, 2, 1)[:, None]
    for _, idx in blocks:
        block = ppp.means[:, None, None, :] + ext_diffs[:, idx] @ gains_t
        ext_means[:, idx.ravel()] = block.reshape(len(ppp.means), idx.size, cache.dim)
    _, birth_lp, birth_ok = _gated(heads, *cache.birth_comps, gate)
    local = [j for p, _ in splits for j in range(len(p))]
    first = _first_detected_all(birth_lp, birth_ok, ext_lp, ext_ok, ext_means, local, cache)
    first_cost = -first.log_w

    kernels: list[BackwardKernel] = [None] * len(sets)
    for members, idx in blocks:
        size = idx.shape[1]
        rows = np.arange(size)
        cost = np.full((len(members), size, n_tracks + size), np.inf)
        cost[:, :, cache.active_idx] = continued[:, idx].transpose(1, 2, 0)
        cost[:, rows, n_tracks + rows] = first_cost[idx]
        for g, s in enumerate(members):
            p, absent = splits[s]
            start = int(starts[s])
            kernels[s] = BackwardKernel(
                k, cost[g], cache, tuple(p), diffs[:, start:start + size],
                log_w[:, start:start + size], first, start, tuple(absent),
            )
    return kernels


def _first_detected_all(birth_lp, birth_ok, ext_lp, ext_ok, ext_means, local, cache):
    """First-detection terms of every stacked head, as `_FirstDetections` arrays.

    Birth-at-k+1 versus one-step backward extension through the undetected
    intensity. The (components, heads) log-terms and gate masks of the birth
    and undetected components come from `_gated`; when no term of a head
    survives its gate, all are used ungated so the column stays feasible.
    The log-weights are column log-sum-exps over (terms x heads) arrays in
    which a gated-out term is -inf: the uniform birth level, then each birth
    component, then each extension. `local` is each head's index within its
    own conditioning set and `ext_means` its smoothed mean under every
    undetected component.
    """
    n_heads = len(local)
    has_uniform = cache.log_uniform > -math.inf
    fallback = ~(has_uniform | birth_ok.any(axis=0) | ext_ok.any(axis=0))
    birth_ok |= fallback
    ext_ok |= fallback

    uniform = np.full((int(has_uniform), n_heads), cache.log_uniform)
    birth_rows = np.concatenate((uniform, np.where(birth_ok, birth_lp, -math.inf)))
    ext_rows = np.where(ext_ok, ext_lp, -math.inf)
    log_w = _lse_columns(np.concatenate((birth_rows, ext_rows)))
    for h in np.flatnonzero(log_w < _LOG_TINY).tolist():
        warnings.warn(
            f"first-detection weight underflow for trajectory {local[h]}; floored",
            RuntimeWarning,
        )
    log_w = np.maximum(log_w, _LOG_TINY)

    log_birth = _lse_columns(birth_rows)
    w_keep = np.zeros(n_heads)
    born = log_birth > -math.inf
    w_keep[born] = _EXP(log_birth[born] - log_w[born]).astype(float)
    # keep for certain when there is no extension to draw
    w_keep = np.where(ext_ok.any(axis=0), np.minimum(w_keep, 1.0), 1.0)
    return _FirstDetections(log_w, w_keep.tolist(), ext_lp, ext_ok, ext_means)


def _gated(heads, log_const, means, invs, gate: float):
    """(components, heads) differences, log-terms and gate masks of Gaussian terms.

    Component c has log-terms log_const[c] - 0.5 (h - means[c])^T invs[c] (h - means[c])
    for each head h, gated by that Mahalanobis distance being at most `gate`.
    """
    diffs = heads[None, :, :] - means[:, None, :]
    mahas = np.einsum("amj,ajk,amk->am", diffs, invs, diffs)
    return diffs, log_const[:, None] - 0.5 * mahas, mahas <= gate


def _global_distributions(
    kernels: list[BackwardKernel], m_best: int, w_hyp_min: float
) -> list[tuple[np.ndarray, list[float], list[float]]]:
    """Per kernel: ranked top-M row_to_col rows, their ln w_hat and cumulative draw probabilities.

    Kernels whose cost matrices share a shape and +inf pattern are ranked as
    one stack. Hypotheses whose probability falls below `w_hyp_min` are
    dropped and the rest renormalized.
    """
    patterns: dict[tuple, list[int]] = {}
    for g, kernel in enumerate(kernels):
        patterns.setdefault((kernel.cost.shape, np.isfinite(kernel.cost).tobytes()), []).append(g)
    tables = [None] * len(kernels)
    for (shape, _), members in patterns.items():
        costs = np.array([kernels[g].cost for g in members]).reshape(len(members), *shape)
        rows, totals = _ranked_stack(costs, m_best)  # kernel matrices are valid by construction
        log_w = -totals
        shifted = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        probs = shifted / shifted.sum(axis=1, keepdims=True)
        if w_hyp_min > 0.0:
            keep = probs >= w_hyp_min
            keep[np.arange(len(members)), probs.argmax(axis=1)] = True  # the best always survives
            for g, r, lw, pr, kp in zip(members, rows, log_w, probs, keep):
                pr = pr[kp]
                tables[g] = (r[kp], lw[kp].tolist(), np.cumsum(pr / pr.sum()).tolist())
        else:
            cum = np.cumsum(probs, axis=1)
            for g, r, lw, c in zip(members, rows, log_w.tolist(), cum.tolist()):
                tables[g] = (r, lw, c)
    return tables


def sample_global(
    kernel: BackwardKernel,
    m_best: int,
    rng: np.random.Generator,
    w_hyp_min: float = 0.0,
) -> tuple[Assignment, float]:
    """Draw one global hypothesis from the ranked top-M; returns it with ln w_hat."""
    rows, log_w, cum = _global_distributions([kernel], m_best, w_hyp_min)[0]
    idx = _draw_index(cum, rng)
    return Assignment(tuple(rows[idx].tolist()), -log_w[idx]), log_w[idx]


def _draw_index(cum: list[float], rng: np.random.Generator) -> int:
    """Categorical draw from cumulative probabilities; one outcome consumes no uniform."""
    if len(cum) == 1:
        return 0
    return bisect.bisect_left(cum, rng.random())


def sample_bernoulli(
    h: LocalHypothesis,
    k: int,
    dirac_mode: bool,
    rng: np.random.Generator,
) -> Trajectory | None:
    """Draw the trajectory (or nothing) described by one local hypothesis.

    `_sample_set` draws from a kernel's arrays through the same helpers
    (`_draw`, `_trajectory_at`, `_extend`), consuming the stream in the same order.
    """
    d = h.density
    if isinstance(d, EndedAtK):
        if rng.random() < h.existence:
            return _trajectory_at(k, _head(d.mean, d.root, dirac_mode, rng))
        return None
    if isinstance(d, ContinuedSmoothed):
        return d.tail.prepend(_head(d.mean, d.root, dirac_mode, rng))
    # FirstDetected: keep the trajectory as born at k+1, or extend it backward
    if rng.random() < d.w_keep:
        return d.tail
    return _extend(d.tail, np.asarray(d.log_terms), d.comps, d.means, d.roots, dirac_mode, rng)


def _head(mean: np.ndarray, root, dirac_mode: bool, rng) -> np.ndarray:
    """The state at k: the mean itself in dirac mode, else one draw of N(mean, root root^T)."""
    return mean if dirac_mode else _draw(mean, root, rng)


def _trajectory_at(k: int, head: np.ndarray) -> Trajectory:
    """The length-1 trajectory at k with state `head`, a float (d,) array."""
    tr = object.__new__(Trajectory)
    object.__setattr__(tr, "t", k)
    object.__setattr__(tr, "states", head[None, :])
    return tr


def _extend(tail: Trajectory, log_terms: np.ndarray, comps, means, roots, dirac_mode, rng):
    """`tail` extended one step backward through comps[c], c drawn in proportion to exp(log_terms).

    A single component is certain and, as in `_draw_index`, consumes no uniform.
    In dirac mode the head is the mean and `roots` is not read.
    """
    c = comps[0]
    if len(comps) > 1:
        head_w = np.exp(log_terms - log_terms.max())
        weights = head_w / head_w.sum()
        c = comps[_draw_index(np.cumsum(weights / weights.sum()).tolist(), rng)]
    return tail.prepend(means[c] if dirac_mode else _draw(means[c], roots[c], rng))


def backward_simulate(
    log: FilterLog,
    birth: BirthModel,
    m: LinearMotionModel,
    params: SmootherParams,
) -> list[Particle]:
    """Algorithm: initialize at K from f_{K|K}, then sample the kernel down to k=1.

    All particles advance together, one step at a time. At step k they are
    grouped by their conditioning set, keyed by the ordered tuple of
    (birth time, state bytes) of its trajectories. The kernels of the groups
    come from batched passes over their stacked heads (`_kernels`, up to
    `_BATCH` sets per pass), and their ranked-hypothesis tables with
    cumulative probabilities from one pass per cost-matrix pattern
    (`_global_distributions`); each member then draws from its group's table
    with its own stream. The key is ordered,
    not a set, because trajectory order fixes the cost-matrix rows (hence
    ranking tie-breaks) and the order of the sampled set. Particle i owns the
    i-th stream spawned from `params.seed` and consumes it in the same order
    whatever the grouping, so each particle depends only on the seed and its
    index: the first n particles of a larger run equal an n-particle run. In
    dirac mode the continued tracks' trajectories under a hypothesis are built
    once per group and drawn hypothesis (`_dirac_plan`) and shared by the
    members, and a kept ended track's trajectory once per step.

    The cyclic garbage collector is paused for the run, which creates no
    reference cycles, and left as the caller had it.
    """
    if log.k_max < 1:
        raise ContractError("backward simulation needs at least one filtered step")
    gate = float(chdtri(m.dim, 1.0 - params.gate_prob))  # chi-square quantile
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _simulate(log, birth, m, params, gate)
    finally:
        if collecting:
            gc.enable()


def _simulate(log, birth, m, params: SmootherParams, gate: float) -> list[Particle]:
    streams = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence(params.seed).spawn(params.num_particles)
    ]
    k_max = int(log.k_max)
    sets = [
        _initial_set(log.posteriors[k_max - 1], k_max, params.dirac_mode, rng)
        for rng in streams
    ]
    accs = [0.0] * len(streams)
    for k in range(k_max - 1, 0, -1):
        cache = _KernelCache(log.posteriors[k - 1], birth, m)
        groups: dict[tuple, list[int]] = {}
        for p, trajectories in enumerate(sets):
            key = tuple((tr.t, tr.states.tobytes()) for tr in trajectories)
            groups.setdefault(key, []).append(p)
        members_of = list(groups.values())
        for lo in range(0, len(members_of), _BATCH):
            batch = members_of[lo:lo + _BATCH]
            kernels = _kernels(cache, [sets[members[0]] for members in batch], gate, k)
            tables = _global_distributions(kernels, params.m_best, params.w_hyp_min)
            for members, kernel, (rows, log_w, cum) in zip(batch, kernels, tables):
                plans: dict[int, tuple] = {}  # dirac: drawn hypothesis -> its _dirac_plan
                for p in members:
                    rng = streams[p]
                    idx = _draw_index(cum, rng)
                    accs[p] += log_w[idx]
                    row_to_col = rows[idx].tolist()
                    if params.dirac_mode and idx not in plans:
                        plans[idx] = _dirac_plan(kernel, row_to_col, k)
                    sets[p] = _sample_set(
                        kernel, row_to_col, k, params.dirac_mode, rng, plans.get(idx)
                    )
    return [Particle(tuple(s), acc) for s, acc in zip(sets, accs)]


def _initial_set(pmb: PMBDensity, k_max: int, dirac_mode: bool, rng) -> list[Trajectory]:
    """Draw the length-1 trajectory set at K from the filtering posterior."""
    trajectories = []
    for comp in pmb.bernoullis:
        if rng.random() < comp.r:
            head = comp.density.mean if dirac_mode else sample_gaussian(comp.density, rng)
            trajectories.append(_trajectory_at(k_max, head))
    return trajectories


def _dirac_plan(kernel: BackwardKernel, row_to_col, k: int):
    """Dirac mode: the continued tracks' trajectories under one hypothesis, and the ended tracks.

    A continued track's trajectory is certain; its head is the smoothed mean,
    all heads of the plan computed as one stacked product. Returns the
    continued (track, trajectory) pairs in track order, the ended tracks as
    an index array in track order, and their existences.
    """
    step = kernel.step
    pairs = sorted((c, j) for j, c in enumerate(row_to_col) if c < kernel.n_tracks)
    tracks, rows = [i for i, _ in pairs], [j for _, j in pairs]
    a = [step.active_pos[i] for i in tracks]
    t = step.tracks
    heads = t.means[a] + np.matmul(t.gains[a], kernel.diffs[a, rows][..., None])[..., 0]
    continued = [(i, kernel.present[j].prepend(h)) for i, j, h in zip(tracks, rows, heads)]
    ended = np.ones(kernel.n_tracks, dtype=bool)
    ended[tracks] = False
    ended = np.flatnonzero(ended)
    return continued, ended, np.array(step.exist_end)[ended]


def _sample_set(
    kernel: BackwardKernel,
    row_to_col,
    k: int,
    dirac_mode: bool,
    rng,
    plan: tuple | None = None,
) -> list[Trajectory]:
    """Draw the trajectory set over k:K given one global hypothesis of the kernel.

    Tracks draw in track order, then first detections in row order. In dirac
    mode only an ended track's existence is random: the continued tracks come
    from `plan` (`_dirac_plan` of this kernel and hypothesis, built here when
    not given), the ended tracks' existence uniforms are one `rng.random(n)`
    block, which leaves the stream where n scalar draws would, and a kept
    ended track's trajectory is the step's shared one (`ended_trajectory`),
    merged into the continued ones by track index.
    """
    new_set: list[Trajectory] = list(kernel.absent)
    step = kernel.step
    if dirac_mode:
        continued, ended, existence = plan or _dirac_plan(kernel, row_to_col, k)
        kept = ended[rng.random(len(ended)) < existence].tolist() if len(ended) else []
        if kept:
            continued = sorted(
                continued + [(i, step.ended_trajectory(i, k)) for i in kept],
                key=lambda pair: pair[0],
            )
        new_set += [tr for _, tr in continued]
    else:
        col_to_row = {c: r for r, c in enumerate(row_to_col)}
        for i, existence in enumerate(step.exist_end):
            j = col_to_row.get(i)
            if j is None:
                if rng.random() < existence:
                    head = _draw(step.end_means[i], step.end_roots[i], rng)
                    new_set.append(_trajectory_at(k, head))
            else:
                mean, root = kernel.smoothed_head(i, j)
                new_set.append(kernel.present[j].prepend(_draw(mean, root, rng)))
    first = kernel.first
    n_tracks = kernel.n_tracks
    for j, c in enumerate(row_to_col):
        if c != n_tracks + j:
            continue
        h = kernel.start + j
        tail = kernel.present[j]
        if rng.random() < first.w_keep[h]:
            new_set.append(tail)
        else:
            comps = first.ext_ok[:, h].nonzero()[0]
            new_set.append(_extend(
                tail, first.ext_terms[comps, h], comps, first.ext_means[:, h],
                step.ppp.roots, dirac_mode, rng,
            ))
    return new_set


def best_particle(particles: list[Particle]) -> Particle:
    """Particle with the highest accumulated log-weight; ties keep the lowest index."""
    if not particles:
        raise ContractError("best_particle requires a nonempty particle list")
    best = particles[0]
    for p in particles[1:]:
        if p.log_weight_acc > best.log_weight_acc:
            best = p
    return best


def particles_to_jsonable(particles: list[Particle]) -> dict:
    return {
        "particles": [
            {
                "c": p.log_weight_acc,
                "trajectories": [trajectory_to_jsonable(tr) for tr in p.trajectories],
            }
            for p in particles
        ]
    }


def particles_from_jsonable(data: dict) -> list[Particle]:
    return [
        Particle(
            tuple(trajectory_from_jsonable(tr) for tr in p["trajectories"]), float(p["c"])
        )
        for p in data["particles"]
    ]
