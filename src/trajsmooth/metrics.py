"""GOSPA metric (alpha=2) with decomposition, and particle statistics."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .assignment import solve_lap
from .backward import Particle, ParticleSet
from .errors import ContractError, SettingError, check_real
from .simulate import GroundTruth
from .trajectory import states_at_time


@dataclass(frozen=True)
class GospaResult:
    """Decomposed metric value; components are p-th powers, total is the metric.

    For p=1 the total equals localisation + missed + false_det exactly.
    """

    total: float
    localisation: float
    missed: float
    false_det: float
    c: float
    p: float
    alpha: float = 2.0


@dataclass(frozen=True)
class ParticleStats:
    """Uniform-weight particle statistics over a trajectory-set posterior."""

    card_dist: np.ndarray  # probability of |X| = n
    birth_dist: list  # per step k (1-based list index k-1), probability of n births
    death_dist: list  # per step k, probability of n deaths


def _base_dist(a: np.ndarray, b: np.ndarray, pos_idx) -> float:
    if pos_idx is not None:
        a = a[pos_idx]
        b = b[pos_idx]
    return float(np.linalg.norm(a - b))


def check_gospa_settings(c: float, p: float, pos_idx=None, dim: int | None = None) -> None:
    """SettingError unless c > 0, p >= 1 and pos_idx is None or a list of indices < dim."""
    check_real("c", c, "(0, inf)")
    check_real("p", p, "[1, inf)")
    if pos_idx is not None and not (
        isinstance(pos_idx, list) and all(type(i) is int and 0 <= i < dim for i in pos_idx)
    ):
        raise SettingError(
            f"pos_idx must be a list of state indices in [0, {dim}), got {pos_idx!r}"
        )


def gospa(truth_states, estimated_states, c: float, p: float, pos_idx=None) -> GospaResult:
    """GOSPA (alpha=2) between two finite state sets.

    Unmatched truth elements count c^p/2 toward `missed`, unmatched estimates
    c^p/2 toward `false_det`; pairs further apart than c are cut. `pos_idx`
    selects the components the base Euclidean distance sees.
    """
    check_gospa_settings(c, p)
    xs = [np.asarray(x, float) for x in truth_states]
    ys = [np.asarray(y, float) for y in estimated_states]
    cp = c**p
    n_x, n_y = len(xs), len(ys)
    matched = 0
    loc = 0.0
    if n_x and n_y:
        cost = np.empty((n_x, n_y))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                cost[i, j] = min(_base_dist(x, y, pos_idx) ** p, cp)
        assignment = solve_lap(cost if n_x <= n_y else cost.T)
        pairs = (
            enumerate(assignment.row_to_col)
            if n_x <= n_y
            else ((j, i) for i, j in enumerate(assignment.row_to_col))
        )
        for i, j in pairs:
            if cost[i, j] < cp:
                loc += cost[i, j]
                matched += 1
    missed = 0.5 * cp * (n_x - matched)
    false_det = 0.5 * cp * (n_y - matched)
    return GospaResult(
        total=float((loc + missed + false_det) ** (1.0 / p)),
        localisation=float(loc),
        missed=float(missed),
        false_det=float(false_det),
        c=float(c),
        p=float(p),
    )


def gospa_over_time(
    estimates_per_step,
    truth: GroundTruth,
    c: float = 20.0,
    p: float = 1.0,
    pos_idx=None,
) -> tuple[list[GospaResult], dict]:
    """Per-step GOSPA against the truth states, plus sums and averages.

    The summary reports localisation both raw and normalized per step by the
    estimated cardinality (conventions differ between benchmark reports, so
    both are emitted).
    """
    if len(estimates_per_step) != truth.k_max:
        raise ContractError(
            f"estimate horizon {len(estimates_per_step)} != truth horizon {truth.k_max}"
        )
    results = []
    loc_norm = 0.0
    for k, est in enumerate(estimates_per_step, start=1):
        res = gospa(states_at_time(truth.trajectories, k), est, c, p, pos_idx)
        results.append(res)
        loc_norm += res.localisation / max(1, len(est))
    k_max = max(1, truth.k_max)
    summary = {
        "gospa_total": sum(r.total for r in results),
        "localisation": sum(r.localisation for r in results),
        "localisation_normalized": loc_norm,
        "missed": sum(r.missed for r in results),
        "false": sum(r.false_det for r in results),
        "gospa_mean_per_step": sum(r.total for r in results) / k_max,
    }
    return results, summary


def particle_stats(particles: Sequence[Particle], k_max: int) -> ParticleStats:
    """Cardinality, birth-time and death-time distributions under uniform weights.

    The births and deaths at each step are counted per particle in one pass
    over the set's trajectory arrays (`ParticleSet.of`), as (k_max,
    particles) integer arrays.
    """
    if not particles:
        raise ContractError("particle_stats requires a nonempty particle list")
    s = ParticleSet.of(particles)
    t = len(s)
    owner, at = np.nonzero(s.rows >= 0)
    cards = np.bincount(owner, minlength=t)
    card_dist = np.bincount(cards) / t
    nodes = s.rows[owner, at]
    births = _counts(s.birth[nodes], owner, k_max, t)
    deaths = _counts(s.birth[nodes] + s.length[nodes] - 1, owner, k_max, t)
    birth_dist = [np.bincount(row, minlength=row.max() + 1) / t for row in births]
    death_dist = [np.bincount(row, minlength=row.max() + 1) / t for row in deaths]
    return ParticleStats(card_dist, birth_dist, death_dist)


def _counts(times, owner: np.ndarray, k_max: int, t: int) -> np.ndarray:
    """(k_max, t) counts: entry (k, p) is how many times k + 1 particle p owns.

    `times` holds one time per trajectory and `owner` its particle; times
    outside 1..k_max are not counted.
    """
    inside = (times >= 1) & (times <= k_max)
    cells = (times[inside] - 1) * t + owner[inside]
    return np.bincount(cells, minlength=k_max * t).reshape(k_max, t)
