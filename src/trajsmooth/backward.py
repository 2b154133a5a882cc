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
particle score. A kernel holds only what the sampler reads.

Backward simulation runs step-outer, particle-inner. At each step the
particles are grouped by conditioning set, so the kernel and its ranked
hypotheses are built once per distinct set rather than once per particle; in
dirac mode most particles share a set. The grouping key is the ordered tuple
of (birth time, state bytes): identical ordered sets give identical kernels,
while a reordered set permutes the cost-matrix rows (and with them the
ranking's tie-breaks) and the order of the sampled set. Every particle still
draws from its own seeded stream in the same order as a particle simulated
alone, so grouping changes no output.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from .assignment import Assignment, _ranked
from .errors import ContractError
from .forward import FilterLog, PMBDensity
from .gaussians import (
    GaussianDensity,
    GaussianMixture,
    LinearMotionModel,
    _gaussian_nocheck,
    _inv_log_norm,
    _linear_terms,
    _mixture_nocheck,
    sample_gaussian,
    symmetrize,
)
from .models import BirthModel
from .trajectory import Trajectory

_LOG_TINY = math.log(np.finfo(float).tiny)


@dataclass(frozen=True)
class EndedAtK:
    """Track dies at k; head density is the filtering Gaussian."""

    g: GaussianDensity


@dataclass(frozen=True)
class ContinuedSmoothed:
    """Track alive at k and k+1; smoothed head prepended to the fixed tail."""

    g: GaussianDensity
    tail: Trajectory


@dataclass(frozen=True)
class FirstDetected:
    """Trajectory first present at k+1: keep as born there, or extend backward."""

    w_keep: float
    w_extend: float
    heads: GaussianMixture  # smoothed undetected-intensity components, weights normalized
    tail: Trajectory


@dataclass(frozen=True, slots=True)
class LocalHypothesis:
    assoc: int | None  # conditioning-trajectory index, None for ended
    log_weight: float
    existence: float
    density: EndedAtK | ContinuedSmoothed | FirstDetected


@dataclass
class BackwardKernel:
    """What the sampler reads to draw the trajectory set over k:K from that over k+1:K.

    Row j of `cost` is trajectory j present at k+1; column i < n_tracks pairs
    it with forward track i, column n_tracks + j is its first detection.
    """

    k: int
    cost: np.ndarray  # m x (n_tracks + m)
    ended: tuple[LocalHypothesis, ...]  # per track; shared by every kernel of the step
    continued: dict[tuple[int, int], LocalHypothesis]  # gated (track i, trajectory j)
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


@dataclass(frozen=True)
class Particle:
    """One sampled set of trajectories over 1:K with its accumulated log-weight."""

    trajectories: tuple[Trajectory, ...]
    log_weight_acc: float


@dataclass(frozen=True)
class SmootherParams:
    num_particles: int = 1000
    m_best: int = 100
    gate_prob: float = 0.9999
    gate_gamma: float | None = None  # explicit squared-distance gate, overrides gate_prob
    w_hyp_min: float = 1e-4
    dirac_mode: bool = False
    seed: int = 0


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


def _smoothing_terms(weighted, m: LinearMotionModel):
    """Stacked one-step terms of weighted densities (ln w, N(x, P)) under x' ~ N(F x, Q).

    Returns ln w plus the log-normaliser of N(., F x, P_pred), F x, P_pred^{-1},
    x, the smoothing gain G = P F^T P_pred^{-1} and the smoothed covariance
    P - G F P, one entry per density.
    """
    densities = [g for _, g in weighted]
    mean_pred, inv_pred, log_norm, gains = _linear_terms(densities, m.F, m.Q)
    log_const = np.array([lw + ln for (lw, _), ln in zip(weighted, log_norm)])
    cov_smooth = [symmetrize(g.cov - gain @ m.F @ g.cov) for g, gain in zip(densities, gains)]
    return log_const, mean_pred, inv_pred, [g.mean for g in densities], gains, cov_smooth


class _KernelCache:
    """Conditioning-set-independent quantities of one step, shared across particles."""

    def __init__(self, pmb: PMBDensity, birth: BirthModel, m: LinearMotionModel):
        ps = m.ps
        ended = []
        self.log_w_end = np.empty(len(pmb.bernoullis))
        for i, comp in enumerate(pmb.bernoullis):
            w_end = 1.0 - comp.r + comp.r * (1.0 - ps)
            # floored so W1 ratios stay finite when r=1 and pS=1 (track cannot end)
            log_w_end = math.log(w_end) if w_end > 0.0 else _LOG_TINY
            exist_end = comp.r * (1.0 - ps) / w_end if w_end > 0.0 else 0.0
            self.log_w_end[i] = log_w_end
            ended.append(LocalHypothesis(None, log_w_end, exist_end, EndedAtK(comp.density)))
        self.ended = tuple(ended)

        # tracks that can continue into a conditioning trajectory
        active = [(i, c) for i, c in enumerate(pmb.bernoullis) if c.r > 0.0 and ps > 0.0]
        self.active_idx = np.array([i for i, _ in active], dtype=int)
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
    evaluate many conditioning sets against the same posterior (backward
    simulation) build it once per step.
    """
    if cache is None:
        cache = _KernelCache(pmb, birth, m)
    present, absent = split_y(trajectories, k)
    n_tracks = len(cache.ended)
    n_present = len(present)
    heads = np.array([tr.states[0] for tr in present]) if n_present else None

    continued: dict[tuple[int, int], LocalHypothesis] = {}
    cost = np.full((n_present, n_tracks + n_present), np.inf)

    if n_present and cache.active_idx.size:
        log_const, mean_pred, inv_pred, means, gains, cov_smooth = cache.tracks
        diffs = heads[None, :, :] - mean_pred[:, None, :]
        mahas = np.einsum("amj,ajk,amk->am", diffs, inv_pred, diffs)
        rows, cols = np.nonzero(mahas <= gate)
        act = cache.active_idx
        for a, j in zip(rows.tolist(), cols.tolist()):
            i = int(act[a])
            log_w = float(log_const[a] - 0.5 * mahas[a, j])
            smoothed = _gaussian_nocheck(means[a] + gains[a] @ diffs[a, j], cov_smooth[a])
            continued[(i, j)] = LocalHypothesis(
                j, log_w, 1.0, ContinuedSmoothed(smoothed, present[j])
            )
            cost[j, i] = -(log_w - cache.log_w_end[i])

    first_detected = _first_detected_all(present, heads, cache, gate) if n_present else []
    for j, fd in enumerate(first_detected):
        cost[j, n_tracks + j] = -fd.log_weight

    return BackwardKernel(
        k=k,
        cost=cost,
        ended=cache.ended,
        continued=continued,
        first_detected=first_detected,
        absent=tuple(absent),
    )


def _first_detected_all(present, heads, cache: _KernelCache, gate: float):
    """First-detection hypotheses for every present trajectory at once.

    Birth-at-k+1 versus one-step backward extension through the undetected
    intensity; birth/intensity components are gated individually, falling back
    to ungated evaluation when nothing survives so the column stays feasible.
    """
    birth_rows = []  # (log_pdf array over j, maha array over j)
    for log_norm, inv, mean in cache.birth_comps:
        d = heads - mean
        maha = np.einsum("ij,jk,ik->i", d, inv, d)
        birth_rows.append((log_norm - 0.5 * maha, maha))
    ext_rows = []  # (log_pdf, maha, smoothed means, shared smoothed cov)
    for log_const, mean_pred, inv_pred, mean, gain, cov_smooth in zip(*cache.ppp):
        d = heads - mean_pred
        maha = np.einsum("ij,jk,ik->i", d, inv_pred, d)
        ext_rows.append((log_const - 0.5 * maha, maha, mean + d @ gain.T, cov_smooth))

    out = []
    for j, tr in enumerate(present):

        def gather(apply_gate: bool):
            b = [] if cache.log_uniform == -math.inf else [cache.log_uniform]
            b += [lp[j] for lp, mh in birth_rows if not apply_gate or mh[j] <= gate]
            e_terms, e_heads = [], []
            for lp, mh, means, cov in ext_rows:
                if apply_gate and mh[j] > gate:
                    continue
                e_terms.append(lp[j])
                e_heads.append(_gaussian_nocheck(means[j], cov))
            return b, e_terms, e_heads

        birth_terms, ext_terms, ext_heads = gather(apply_gate=True)
        if not birth_terms and not ext_terms:
            birth_terms, ext_terms, ext_heads = gather(apply_gate=False)

        log_w = (
            _lse(birth_terms + ext_terms)
            if (birth_terms or ext_terms)
            else -math.inf
        )
        if log_w < _LOG_TINY:
            warnings.warn(
                f"first-detection weight underflow for trajectory {j}; floored",
                RuntimeWarning,
            )
            log_w = _LOG_TINY
        log_birth = _lse(birth_terms) if birth_terms else -math.inf
        w_keep = math.exp(log_birth - log_w) if log_birth > -math.inf else 0.0
        w_keep = min(w_keep, 1.0)
        if ext_terms:
            ext = np.asarray(ext_terms)
            head_w = np.exp(ext - ext.max())
            mixture = _mixture_nocheck(tuple(zip(head_w / head_w.sum(), ext_heads)))
        else:
            mixture = GaussianMixture()
            w_keep = 1.0
        out.append(
            LocalHypothesis(
                j, float(log_w), 1.0, FirstDetected(w_keep, 1.0 - w_keep, mixture, tr)
            )
        )
    return out


def _global_distribution(
    kernel: BackwardKernel, m_best: int, w_hyp_min: float
) -> tuple[list[Assignment], np.ndarray, np.ndarray]:
    """Ranked top-M global hypotheses with their ln w_hat and draw probabilities.

    Hypotheses whose probability falls below `w_hyp_min` are dropped and the
    rest renormalized.
    """
    hyps = _ranked(kernel.cost, m_best)  # kernel matrices are valid by construction
    log_w = np.array([-h.cost for h in hyps])
    shifted = np.exp(log_w - log_w.max())
    probs = shifted / shifted.sum()
    if w_hyp_min > 0.0:
        keep = probs >= w_hyp_min
        keep[int(np.argmax(probs))] = True  # the best hypothesis always survives
        hyps = [h for h, k_ in zip(hyps, keep) if k_]
        log_w = log_w[keep]
        probs = probs[keep] / probs[keep].sum()
    return hyps, log_w, probs


def sample_global(
    kernel: BackwardKernel,
    m_best: int,
    rng: np.random.Generator,
    w_hyp_min: float = 0.0,
) -> tuple[Assignment, float]:
    """Draw one global hypothesis from the ranked top-M; returns it with ln w_hat."""
    hyps, log_w, probs = _global_distribution(kernel, m_best, w_hyp_min)
    idx = _draw_categorical(probs, rng)
    return hyps[idx], float(log_w[idx])


def _draw_categorical(probs: np.ndarray, rng: np.random.Generator) -> int:
    if len(probs) == 1:
        return 0
    return int(np.searchsorted(np.cumsum(probs), rng.random()))


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
            head = d.g.mean if dirac_mode else sample_gaussian(d.g, rng)
            return Trajectory(k, head[None, :])
        return None
    if isinstance(d, ContinuedSmoothed):
        head = d.g.mean if dirac_mode else sample_gaussian(d.g, rng)
        return d.tail.prepend(head)
    # FirstDetected: keep the trajectory as born at k+1, or extend it backward
    if rng.random() < d.w_keep:
        return d.tail
    weights = np.array([w for w, _ in d.heads])
    comp = _draw_categorical(weights / weights.sum(), rng)
    g = d.heads.components[comp][1]
    head = g.mean if dirac_mode else sample_gaussian(g, rng)
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
    (birth time, state bytes) of its trajectories; each group gets one kernel
    and one ranked-hypothesis table, and each member then draws from it with
    its own stream. The key is ordered, not a set, because trajectory order
    fixes the cost-matrix rows (hence ranking tie-breaks) and the order of the
    sampled set. Particle i owns the i-th stream spawned from `params.seed`
    and consumes it in the same order whatever the grouping, so each particle
    depends only on the seed and its index: the first n particles of a larger
    run equal an n-particle run.
    """
    if log.k_max < 1:
        raise ContractError("backward simulation needs at least one filtered step")
    if params.num_particles < 1 or params.m_best < 1:
        raise ContractError("num_particles and m_best must be >= 1")
    n_x = m.dim
    gate = (
        float(params.gate_gamma)
        if params.gate_gamma is not None
        else float(chi2.ppf(params.gate_prob, df=n_x))
    )
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
        pmb = log.posteriors[k - 1]
        cache = _KernelCache(pmb, birth, m)
        groups: dict[tuple, list[int]] = {}
        for p, trajectories in enumerate(sets):
            key = tuple((tr.t, tr.states.tobytes()) for tr in trajectories)
            groups.setdefault(key, []).append(p)
        for members in groups.values():
            kernel = build_backward_kernel(
                pmb, birth, m, sets[members[0]], gate, k=k, cache=cache
            )
            hyps, log_w, probs = _global_distribution(
                kernel, params.m_best, params.w_hyp_min
            )
            for p in members:
                rng = streams[p]
                idx = _draw_categorical(probs, rng)
                accs[p] += float(log_w[idx])
                sets[p] = _sample_set(kernel, hyps[idx], k, params.dirac_mode, rng)
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
    kernel: BackwardKernel, assignment: Assignment, k: int, dirac_mode: bool, rng
) -> list[Trajectory]:
    """Draw the trajectory set over k:K given one global hypothesis of the kernel."""
    col_to_row = {c: r for r, c in enumerate(assignment.row_to_col)}
    new_set: list[Trajectory] = list(kernel.absent)
    for i, ended in enumerate(kernel.ended):
        hyp = kernel.continued[(i, col_to_row[i])] if i in col_to_row else ended
        sampled = sample_bernoulli(hyp, k, dirac_mode, rng)
        if sampled is not None:
            new_set.append(sampled)
    n_tracks = kernel.n_tracks
    for j, fd in enumerate(kernel.first_detected):
        if assignment.row_to_col[j] == n_tracks + j:
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
                "trajectories": [
                    {"t": tr.t, "states": tr.states.tolist()} for tr in p.trajectories
                ],
            }
            for p in particles
        ]
    }


def particles_from_jsonable(data: dict) -> list[Particle]:
    return [
        Particle(
            tuple(
                Trajectory(tr["t"], np.asarray(tr["states"], float))
                for tr in p["trajectories"]
            ),
            float(p["c"]),
        )
        for p in data["particles"]
    ]
