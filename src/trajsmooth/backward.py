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
one first-detection hypothesis per present trajectory. What does not depend
on the conditioning set (ended tracks, the smoothing terms of every track and
undetected component, and the sampling roots of their covariances) lives in
the step's `_KernelCache`, shared by all kernels of the step.

Backward simulation runs step-outer, particle-inner. At each step the
particles are grouped by conditioning set, keyed by the ordered tuple of
(birth time, state bytes): identical ordered sets give identical kernels,
while a reordered set permutes the cost-matrix rows (and with them the
ranking's tie-breaks) and the order of the sampled set. The kernels of many
groups are built in one batched pass: their heads are stacked, gated against
every active track, birth and undetected component at once, and each group's
cost matrix is sliced out. Cost matrices that share a +inf pattern are ranked
as one stack, and each group's cumulative hypothesis probabilities are
computed once. Every particle then draws from its own seeded stream in the
same order as a particle simulated alone, so grouping and batching change no
output. Batched arithmetic is kept bitwise equal to the per-set form: stacked
products use `einsum` or one (size, d) @ (d, d) matmul per set, and
log-sum-exps stay in `math`.
"""

from __future__ import annotations

import bisect
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
    roots: list  # sampling root of each component's smoothed covariance
    tail: Trajectory


@dataclass(frozen=True, slots=True)
class LocalHypothesis:
    log_weight: float
    existence: float
    density: EndedAtK | ContinuedSmoothed | FirstDetected


@dataclass(slots=True)
class BackwardKernel:
    """What the sampler reads to draw the trajectory set over k:K from that over k+1:K.

    Row j of `cost` is trajectory j present at k+1; column i < n_tracks pairs
    it with forward track i, column n_tracks + j is its first detection.
    """

    k: int
    cost: np.ndarray  # m x (n_tracks + m)
    step: _KernelCache | None  # the step's shared terms; None for a bare cost matrix
    present: tuple[Trajectory, ...]  # the m trajectories present at k+1
    diffs: np.ndarray  # (active tracks, m, d): head at k+1 minus each track's prediction
    log_w: np.ndarray  # (active tracks, m): continued log-weights
    first_detected: list[LocalHypothesis]  # per present trajectory
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
        """Per track; shared by every kernel of the step."""
        return self.step.ended

    def continued(self, i: int, j: int) -> LocalHypothesis:
        """Track i continued into present trajectory j; (j, i) must be finite in `cost`."""
        a = self.step.active_pos[i]
        t = self.step.tracks
        mean = t.means[a] + t.gains[a] @ self.diffs[a, j]
        return LocalHypothesis(
            float(self.log_w[a, j]), 1.0, ContinuedSmoothed(mean, t.roots[a], self.present[j])
        )


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


def _lse(values) -> float:
    """log-sum-exp of a small list of floats."""
    top = max(values)
    if top == -math.inf:
        return -math.inf
    return float(top + math.log(sum(math.exp(v - top) for v in values)))


class _Smoothing(NamedTuple):
    """Stacked one-step terms of weighted densities (ln w, N(x, P)) under x' ~ N(F x, Q)."""

    log_const: np.ndarray  # ln w plus the log-normaliser of N(., F x, P_pred)
    mean_pred: np.ndarray  # F x
    inv_pred: np.ndarray  # P_pred^{-1}
    means: np.ndarray  # x
    gains: np.ndarray  # G = P F^T P_pred^{-1}
    roots: list  # sampling roots of the smoothed covariances P - G F P


def _smoothing_terms(weighted, m: LinearMotionModel) -> _Smoothing:
    densities = [g for _, g in weighted]
    means, covs = _stack(densities, m.dim)
    mean_pred, inv_pred, log_norm, gains = _linear_terms(means, covs, m.F, m.Q)
    log_const = np.array([lw + ln for (lw, _), ln in zip(weighted, log_norm)])
    roots = [
        _sampling_root(symmetrize(g.cov - gain @ m.F @ g.cov))
        for g, gain in zip(densities, gains)
    ]
    return _Smoothing(log_const, mean_pred, inv_pred, means, gains, roots)


class _KernelCache:
    """Conditioning-set-independent quantities of one step, shared across particles."""

    def __init__(self, pmb: PMBDensity, birth: BirthModel, m: LinearMotionModel):
        ps = m.ps
        self.dim = m.dim
        ended = []
        self.log_w_end = np.empty(len(pmb.bernoullis))
        for i, comp in enumerate(pmb.bernoullis):
            w_end = 1.0 - comp.r + comp.r * (1.0 - ps)
            # floored so W1 ratios stay finite when r=1 and pS=1 (track cannot end)
            log_w_end = math.log(w_end) if w_end > 0.0 else _LOG_TINY
            exist_end = comp.r * (1.0 - ps) / w_end if w_end > 0.0 else 0.0
            self.log_w_end[i] = log_w_end
            head = EndedAtK(comp.density.mean, _sampling_root(comp.density.cov))
            ended.append(LocalHypothesis(log_w_end, exist_end, head))
        self.ended = tuple(ended)

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

        births = [(w, g) for w, g in birth.intensity if w > 0.0]
        covs = np.array([g.cov for _, g in births]).reshape(-1, m.dim, m.dim)
        inv, log_norm = _inv_log_norm(covs)
        self.birth_comps = [
            (math.log(w) + ln, i, g.mean) for (w, g), i, ln in zip(births, inv, log_norm)
        ]
        self.log_uniform = (
            math.log(birth.uniform_density) if birth.uniform_density > 0.0 else -math.inf
        )


def build_backward_kernel(
    pmb: PMBDensity,
    birth: BirthModel,
    m: LinearMotionModel,
    trajectories,
    gate: float,
    k: int = 0,
    cache: _KernelCache | None = None,
) -> BackwardKernel:
    """Kernel of the trajectory set over k:K conditioned on the set over k+1:K.

    `cache` carries the conditioning-set-independent quantities; callers that
    evaluate many conditioning sets against the same posterior build it once
    per step. This is the batched build of `_kernels` with one set.
    """
    if cache is None:
        cache = _KernelCache(pmb, birth, m)
    return _kernels(cache, [trajectories], gate, k)[0]


def _kernels(cache: _KernelCache, sets, gate: float, k: int) -> list[BackwardKernel]:
    """Kernels of many conditioning sets from one pass over their stacked heads.

    Every present head of every set is gated against every active track and
    every birth and undetected component at once. Sets with the same number of
    present trajectories then get their cost matrices and smoothed extension
    means as one stack each.
    """
    splits = [split_y(trajectories, k) for trajectories in sets]
    present = [tr for p, _ in splits for tr in p]
    heads = np.array([tr.states[0] for tr in present]).reshape(-1, cache.dim)
    n_tracks = len(cache.ended)
    starts = np.cumsum([0] + [len(p) for p, _ in splits])
    by_size: dict[int, list[int]] = {}
    for s, (p, _) in enumerate(splits):
        by_size.setdefault(len(p), []).append(s)
    # (sets, size) head indices per number of present trajectories
    blocks = [(members, starts[members][:, None] + np.arange(size))
              for size, members in by_size.items()]

    t = cache.tracks
    diffs = heads[None, :, :] - t.mean_pred[:, None, :]
    mahas = np.einsum("amj,ajk,amk->am", diffs, t.inv_pred, diffs)
    log_w = t.log_const[:, None] - 0.5 * mahas
    continued = np.where(
        mahas <= gate, -(log_w - cache.log_w_end[cache.active_idx, None]), np.inf
    )

    # a (size, d) @ (d, d) product per set and component, as one broadcast matmul
    # per block: stacking the sets into one taller product would round differently
    ppp = cache.ppp
    ext_means = [None] * len(present)
    for _, idx in blocks:
        d = heads[idx][None] - ppp.mean_pred[:, None, None, :]
        block = ppp.means[:, None, None, :] + d @ ppp.gains.transpose(0, 2, 1)[:, None]
        for g, heads_of_set in enumerate(idx.tolist()):
            for j, h in enumerate(heads_of_set):
                ext_means[h] = block[:, g, j]
    local = [j for p, _ in splits for j in range(len(p))]
    first = _first_detected_all(present, local, heads, ext_means, cache, gate)
    first_cost = np.array([-fd.log_weight for fd in first])

    kernels: list[BackwardKernel] = [None] * len(sets)
    for members, idx in blocks:
        size = idx.shape[1]
        rows = np.arange(size)
        cost = np.full((len(members), size, n_tracks + size), np.inf)
        cost[:, :, cache.active_idx] = continued[:, idx].transpose(1, 2, 0)
        cost[:, rows, n_tracks + rows] = first_cost[idx]
        for g, s in enumerate(members):
            p, absent = splits[s]
            start, stop = starts[s], starts[s] + size
            kernels[s] = BackwardKernel(
                k, cost[g], cache, tuple(p), diffs[:, start:stop], log_w[:, start:stop],
                first[start:stop], tuple(absent),
            )
    return kernels


def _first_detected_all(present, local, heads, ext_means, cache: _KernelCache, gate: float):
    """First-detection hypotheses for every present trajectory at once.

    Birth-at-k+1 versus one-step backward extension through the undetected
    intensity; birth/intensity components are gated individually, falling back
    to ungated evaluation when nothing survives so the column stays feasible.
    `local` is each trajectory's index within its own conditioning set and
    `ext_means` its smoothed mean under every undetected component.
    """
    n_heads = len(heads)
    birth_lp, birth_ok = [], []
    for log_norm, inv, mean in cache.birth_comps:
        d = heads - mean
        maha = np.einsum("ij,jk,ik->i", d, inv, d)
        birth_lp.append(log_norm - 0.5 * maha)
        birth_ok.append(maha <= gate)
    ext_lp, ext_ok = [], []
    p = cache.ppp
    for log_const, mean_pred, inv_pred in zip(p.log_const, p.mean_pred, p.inv_pred):
        d = heads - mean_pred
        maha = np.einsum("ij,jk,ik->i", d, inv_pred, d)
        ext_lp.append(log_const - 0.5 * maha)
        ext_ok.append(maha <= gate)
    # one list over the heads per component
    birth_lp, birth_ok, ext_lp, ext_ok = (
        np.array(a).reshape(len(a), n_heads).tolist() for a in (birth_lp, birth_ok, ext_lp, ext_ok)
    )
    uniform = [] if cache.log_uniform == -math.inf else [cache.log_uniform]
    every = list(range(len(ext_lp)))

    out = []
    for h, tr in enumerate(present):
        b_ok = [ok[h] for ok in birth_ok]
        e_ok = [ok[h] for ok in ext_ok]
        if not (uniform or any(b_ok) or any(e_ok)):  # ungated fallback
            b_ok, e_ok = [True] * len(b_ok), [True] * len(e_ok)
        birth_terms = uniform + [lp[h] for lp, ok in zip(birth_lp, b_ok) if ok]
        comps = every if all(e_ok) else [c for c, ok in enumerate(e_ok) if ok]
        ext_terms = [ext_lp[c][h] for c in comps]
        log_w = _lse(birth_terms + ext_terms) if (birth_terms or ext_terms) else -math.inf
        if log_w < _LOG_TINY:
            warnings.warn(
                f"first-detection weight underflow for trajectory {local[h]}; floored",
                RuntimeWarning,
            )
            log_w = _LOG_TINY
        log_birth = _lse(birth_terms) if birth_terms else -math.inf
        w_keep = math.exp(log_birth - log_w) if log_birth > -math.inf else 0.0
        w_keep = min(w_keep, 1.0) if ext_terms else 1.0
        fd = FirstDetected(w_keep, 1.0 - w_keep, ext_terms, comps, ext_means[h], p.roots, tr)
        out.append(LocalHypothesis(float(log_w), 1.0, fd))
    return out


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
    """Draw the trajectory (or nothing) described by one local hypothesis."""
    d = h.density
    if isinstance(d, EndedAtK):
        if rng.random() < h.existence:
            head = d.mean if dirac_mode else _draw(d.mean, d.root, rng)
            return Trajectory(k, head[None, :])
        return None
    if isinstance(d, ContinuedSmoothed):
        head = d.mean if dirac_mode else _draw(d.mean, d.root, rng)
        return d.tail.prepend(head)
    # FirstDetected: keep the trajectory as born at k+1, or extend it backward
    if rng.random() < d.w_keep:
        return d.tail
    ext = np.asarray(d.log_terms)
    head_w = np.exp(ext - ext.max())
    weights = head_w / head_w.sum()
    c = d.comps[_draw_index(np.cumsum(weights / weights.sum()).tolist(), rng)]
    head = d.means[c] if dirac_mode else _draw(d.means[c], d.roots[c], rng)
    return d.tail.prepend(head)


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
    dirac mode a continued trajectory uses no randomness, so it is built once
    per group, drawn hypothesis and track, and shared by the members.
    """
    if log.k_max < 1:
        raise ContractError("backward simulation needs at least one filtered step")
    gate = float(chdtri(m.dim, 1.0 - params.gate_prob))  # chi-square quantile
    streams = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence(params.seed).spawn(params.num_particles)
    ]
    k_max = log.k_max
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
                shared: dict[int, dict] = {}  # dirac: drawn hypothesis -> continued trajectories
                for p in members:
                    rng = streams[p]
                    idx = _draw_index(cum, rng)
                    accs[p] += log_w[idx]
                    sets[p] = _sample_set(
                        kernel, rows[idx].tolist(), k, params.dirac_mode, rng,
                        shared.setdefault(idx, {}) if params.dirac_mode else None,
                    )
    return [Particle(tuple(s), acc) for s, acc in zip(sets, accs)]


def _initial_set(pmb: PMBDensity, k_max: int, dirac_mode: bool, rng) -> list[Trajectory]:
    """Draw the length-1 trajectory set at K from the filtering posterior."""
    trajectories = []
    for comp in pmb.bernoullis:
        if rng.random() < comp.r:
            head = comp.density.mean if dirac_mode else sample_gaussian(comp.density, rng)
            trajectories.append(Trajectory(k_max, head[None, :]))
    return trajectories


def _sample_set(
    kernel: BackwardKernel,
    row_to_col,
    k: int,
    dirac_mode: bool,
    rng,
    shared: dict[int, Trajectory] | None = None,
) -> list[Trajectory]:
    """Draw the trajectory set over k:K given one global hypothesis of the kernel.

    `shared` (dirac mode only) maps a track to the continued trajectory
    already built for this kernel and hypothesis, and is filled as they are built.
    """
    col_to_row = {c: r for r, c in enumerate(row_to_col)}
    new_set: list[Trajectory] = list(kernel.absent)
    for i, ended in enumerate(kernel.ended):
        j = col_to_row.get(i)
        if j is None:
            sampled = sample_bernoulli(ended, k, dirac_mode, rng)
        elif shared is not None and i in shared:
            sampled = shared[i]
        else:
            sampled = sample_bernoulli(kernel.continued(i, j), k, dirac_mode, rng)
            if shared is not None:
                shared[i] = sampled
        if sampled is not None:
            new_set.append(sampled)
    n_tracks = kernel.n_tracks
    for j, fd in enumerate(kernel.first_detected):
        if row_to_col[j] == n_tracks + j:
            sampled = sample_bernoulli(fd, k, dirac_mode, rng)
            if sampled is not None:
                new_set.append(sampled)
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
