"""Exact backward smoother over sets of trajectories by exhaustive enumeration.

Feasible only at desk scale: starting from the last filtering posterior
expanded over Bernoulli existence patterns, each backward step enumerates
every association of the step's forward tracks to the surviving trajectories
together with every death / first-detection / backward-extension option, and
multiplies the corresponding transition weights. Hypotheses carry per-state
Gaussian marginals, so weights are marginal-likelihood evaluations; with
(near-)Dirac filtering densities these collapse to transition-density
evaluations at the stored points.

This module is the correctness oracle for backward simulation and therefore
shares no association or sampling code with it; it shares only arithmetic
(the filter's row log-sum-exp, `forward._lse_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeCapError, check_real
from .forward import FilterLog, _lse_rows
from .gaussians import LinearMotionModel
from .models import BirthModel

_DEFAULT_CAP = 1_000_000


@dataclass(frozen=True)
class OracleTrajectory:
    """Trajectory hypothesis: per-state marginal means/covs plus origin labels.

    Labels (one per state, head first) record the discrete origin of each
    state: ('init', i) drawn from track i at the last step, ('end', i) track i
    died here, ('cont', i) smoothed continuation of track i, ('ext', c)
    backward extension through undetected-intensity component c.
    """

    t: int
    means: tuple
    covs: tuple
    labels: tuple

    @property
    def states(self) -> np.ndarray:
        return np.vstack(self.means)

    @property
    def length(self) -> int:
        return len(self.means)

    @property
    def last_time(self) -> int:
        return self.t + self.length - 1


@dataclass(frozen=True)
class TrajectorySetHypothesis:
    log_weight: float
    trajectories: tuple[OracleTrajectory, ...]


@dataclass(frozen=True)
class ExactPosterior:
    hypotheses: tuple[TrajectorySetHypothesis, ...]  # sorted by descending weight
    prune_threshold: float

    @property
    def weights(self) -> np.ndarray:
        return np.exp(np.array([h.log_weight for h in self.hypotheses]))


def structure_signature(trajectories, resolution: float = 0.5):
    """Discrete abstraction of a trajectory set: birth time plus quantized states.

    For well-separated component geometry this is in bijection with the
    (birth, death, association path) structure, and it is computable for both
    oracle hypotheses and sampled particles.
    """
    items = []
    for tr in trajectories:
        quant = np.rint(np.asarray(tr.states, dtype=float) / resolution).astype(np.int64)
        items.append((tr.t, tuple(map(tuple, quant.tolist()))))
    return tuple(sorted(items))


def structure_probability(post: ExactPosterior, structure, resolution: float = 0.5) -> float:
    """Total normalized weight of hypotheses matching the given signature."""
    total = 0.0
    for hyp in post.hypotheses:
        if structure_signature(hyp.trajectories, resolution) == structure:
            total += math.exp(hyp.log_weight)
    return total


def _log_mvn(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Gaussian log-pdf via slogdet/solve; deliberately distinct from gaussians.py."""
    d = x - mean
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        return -math.inf
    maha = float(d @ np.linalg.solve(cov, d))
    return -0.5 * (x.size * math.log(2.0 * math.pi) + logdet + maha)


class _TrackStep:
    """Per-track quantities reused across pairings within one backward step."""

    def __init__(self, r, mean, cov, m: LinearMotionModel):
        self.r = r
        self.mean = mean
        self.cov = cov
        self.mean_pred = m.F @ mean
        self.cov_pred = m.F @ cov @ m.F.T + m.Q
        self.gain = np.linalg.solve(self.cov_pred.T, (cov @ m.F.T).T).T


def exact_smooth(
    log: FilterLog,
    birth: BirthModel,
    m: LinearMotionModel,
    prune: float = 1e-6,
    cap: int = _DEFAULT_CAP,
) -> ExactPosterior:
    """Enumerate the full smoothing mixture over trajectory-set structures.

    Raises SizeCapError when the product of (tracks + 1) over the steps
    exceeds `cap`, or as soon as a step's enumeration holds more than `cap`
    hypotheses.
    """
    check_real("prune", prune, "[0, 1)")
    sizes = [len(p.r) + 1 for p in log.posteriors]
    if np.prod(sizes, dtype=float) > cap:
        raise SizeCapError(
            f"instance enumerates more than {cap} hypotheses; use a smaller problem"
        )
    k_max = log.k_max
    hyps = _init_hypotheses(log.posteriors[k_max - 1], k_max, cap)
    for k in range(k_max - 1, 0, -1):
        hyps = _backward_step(hyps, log.posteriors[k - 1], birth, m, k, cap)
        hyps = _normalize_and_prune(hyps, prune)
    hyps.sort(key=lambda h: -h.log_weight)
    return ExactPosterior(tuple(hyps), prune)


def _init_hypotheses(pmb, k_max: int, cap: int) -> list[TrajectorySetHypothesis]:
    """Every existence pattern of the Bernoullis at K, track 0's choice outermost."""
    options = []
    for i, (r, mean, cov) in enumerate(zip(pmb.r.tolist(), pmb.means, pmb.covs)):
        branch = []
        if r > 0.0:
            tr = OracleTrajectory(k_max, (mean,), (cov,), (("init", i),))
            branch.append((math.log(r), (tr,)))
        if r < 1.0:
            branch.append((math.log1p(-r), ()))
        options.append(branch)
    return [
        TrajectorySetHypothesis(log_w, trajs)
        for log_w, trajs in _capped(_product(0.0, (), options), cap, k_max)
    ]


def _capped(items, cap: int, k: int, held: int = 0) -> list:
    """`items` as a list, counted while they are enumerated on top of `held` kept hypotheses.

    Raises SizeCapError as soon as the count exceeds `cap`, so an enumeration
    past the cap is never built whole.
    """
    out = []
    for item in items:
        out.append(item)
        if held + len(out) > cap:
            raise SizeCapError(f"hypothesis count exceeded cap {cap} at step {k}")
    return out


def _backward_step(hyps, pmb, birth, m, k, cap) -> list[TrajectorySetHypothesis]:
    tracks = [_TrackStep(*c, m) for c in zip(pmb.r.tolist(), pmb.means, pmb.covs)]
    ppp = [
        (w, _TrackStep(1.0, mean, cov, m))
        for w, mean, cov in zip(pmb.ppp.weights.tolist(), pmb.ppp.means, pmb.ppp.covs)
        if w > 0.0
    ]
    out: list[TrajectorySetHypothesis] = []
    for hyp in hyps:
        present = [tr for tr in hyp.trajectories if tr.t == k + 1]
        absent = tuple(tr for tr in hyp.trajectories if tr.t > k + 1)
        expansions = _capped(_expand_one(present, tracks, ppp, birth, m, k), cap, k, len(out))
        # normalize within this hypothesis: the division by the predicted
        # multi-object density evaluated at the conditioning trajectory set
        z = _logsumexp([lf for lf, _ in expansions])
        out.extend(
            TrajectorySetHypothesis(hyp.log_weight + log_factor - z, absent + trajs)
            for log_factor, trajs in expansions
        )
    return out


def _expand_one(present, tracks, ppp, birth, m, k):
    """Yield (log weight factor, trajectory tuple) for every discrete option."""
    n = len(tracks)
    log_cont = np.full((len(present), n), -math.inf)
    if m.ps > 0.0:
        for j, tr in enumerate(present):
            for i, track in enumerate(tracks):
                if track.r <= 0.0:
                    continue
                log_cont[j, i] = (
                    math.log(track.r)
                    + math.log(m.ps)
                    + _log_mvn(tr.means[0], track.mean_pred, track.cov_pred + tr.covs[0])
                )

    def assignments(j, used):
        if j == len(present):
            yield ()
            return
        for rest in assignments(j + 1, used):
            yield ((j, None),) + rest  # own first-detection column
        for i in range(n):
            if i in used or log_cont[j, i] == -math.inf:
                continue
            used.add(i)
            for rest in assignments(j + 1, used):
                yield ((j, i),) + rest
            used.discard(i)

    for assign in assignments(0, set()):
        assigned = {i for _, i in assign if i is not None}
        base = 0.0
        base_trajs = []
        for j, i in assign:
            if i is not None:
                base += log_cont[j, i]
                base_trajs.append(_smooth_extend(present[j], tracks[i], ("cont", i)))
        # unassigned tracks branch over died-here versus never-present
        options: list[list[tuple[float, tuple]]] = []
        for i, track in enumerate(tracks):
            if i in assigned:
                continue
            branch = []
            if track.r * (1.0 - m.ps) > 0.0:
                tr = OracleTrajectory(k, (track.mean,), (track.cov,), (("end", i),))
                branch.append((math.log(track.r) + math.log1p(-m.ps), (tr,)))
            if track.r < 1.0:
                branch.append((math.log1p(-track.r), ()))
            options.append(branch)
        # diagonal trajectories branch over keep versus per-component extension
        for j, i in assign:
            if i is None:
                options.append(_first_detection_branches(present[j], ppp, birth, m, k))
        yield from _product(base, tuple(base_trajs), options)


def _product(base_log, base_trajs, options):
    if not options:
        yield base_log, base_trajs
        return
    head, *rest = options
    for log_w, trajs in head:
        yield from _product(base_log + log_w, base_trajs + trajs, rest)


def _smooth_extend(tr: OracleTrajectory, track: _TrackStep, label) -> OracleTrajectory:
    """Prepend the smoothed head marginal for a continuation/extension."""
    head_mean, head_cov = tr.means[0], tr.covs[0]
    mean = track.mean + track.gain @ (head_mean - track.mean_pred)
    cov = track.cov + track.gain @ (head_cov - track.cov_pred) @ track.gain.T
    cov = 0.5 * (cov + cov.T)
    return OracleTrajectory(
        tr.t - 1, (mean,) + tr.means, (cov,) + tr.covs, (label,) + tr.labels
    )


def _first_detection_branches(tr: OracleTrajectory, ppp, birth, m, k):
    head_mean, head_cov = tr.means[0], tr.covs[0]
    branch = []
    keep = birth.uniform_density
    b = birth.intensity
    for w, mean, cov in zip(b.weights.tolist(), b.means, b.covs):
        if w > 0.0:
            keep += w * math.exp(_log_mvn(head_mean, mean, cov + head_cov))
    if keep > 0.0:
        branch.append((math.log(keep), (tr,)))
    if m.ps > 0.0:
        for c, (w, comp) in enumerate(ppp):
            log_w = (
                math.log(m.ps)
                + math.log(w)
                + _log_mvn(head_mean, comp.mean_pred, comp.cov_pred + head_cov)
            )
            if log_w > -math.inf:
                branch.append((log_w, (_smooth_extend(tr, comp, ("ext", c)),)))
    return branch


def _logsumexp(log_ws) -> np.float64:
    """log(sum(exp(log_ws))) of one sequence, by the filter's row log-sum-exp."""
    return _lse_rows(np.asarray(log_ws, dtype=float)[None])[0][0]


def _normalize_and_prune(hyps, prune: float) -> list[TrajectorySetHypothesis]:
    log_ws = np.array([h.log_weight for h in hyps])
    norm = _logsumexp(log_ws)
    threshold = math.log(prune) if prune > 0.0 else -math.inf
    kept = [(lw - norm, h) for lw, h in zip(log_ws, hyps) if lw - norm >= threshold]
    norm2 = _logsumexp([lw for lw, _ in kept])
    return [TrajectorySetHypothesis(lw - norm2, h.trajectories) for lw, h in kept]


def posterior_to_jsonable(post: ExactPosterior, resolution: float = 0.5) -> dict:
    return {
        "prune_threshold": post.prune_threshold,
        "hypotheses": [
            {
                "weight": math.exp(h.log_weight),
                "trajectories": [
                    {
                        "t": tr.t,
                        "states": tr.states.tolist(),
                        "labels": [list(lab) for lab in tr.labels],
                    }
                    for tr in h.trajectories
                ],
                "signature": [
                    [t, [list(q) for q in quant]]
                    for t, quant in structure_signature(h.trajectories, resolution)
                ],
            }
            for h in post.hypotheses
        ],
    }
