"""Backward kernel over sets of trajectories and backward simulation.

Given the forward filter's per-step posteriors, each backward step conditions
on the already-sampled trajectory set over k+1:K. Local hypothesis families:

  - a forward track ended at k (emits a length-1 trajectory if it existed),
  - a forward track continued into a conditioning trajectory (its head at k is
    the one-step smoothed Gaussian),
  - a trajectory present at k+1 was first detected there: either truly born at
    k+1, or extended one step backward from the undetected-object intensity,
  - a trajectory not present at k+1 passes through unaltered.

A global hypothesis is an assignment of the cost matrix C = -log [W1 W2].
Its weight is a product over the matrix's connected components (rows joined
by a shared finite column), so each step draws every component's assignment
on its own from that component's ranked top-M, and the drawn components'
unnormalized log-weights accumulate into the particle score. A kernel holds
only what the sampler reads, as arrays: the cost matrix, the head
differences its continued pairs are smoothed from, and its rows of the
batch's first-detection arrays (`_FirstDetections`). What does not depend on
the conditioning set (the ended-track existences and heads, the smoothing
terms of every track and undetected component, and the covariances the
heads are drawn with) lives in the step's `_KernelCache`, shared by all
kernels of the step and computed from the filter log's arrays. The step
computes only what its draws read: the sampling roots of the distinct
covariances a batch draws from, in one stacked factorisation (dirac mode
draws none). The hypothesis records
(`BackwardKernel`, `LocalHypothesis` and its densities) are built only by
`build_backward_kernel` and on read, for tests and `sample_bernoulli`; the
sampler creates none.

Backward simulation runs step-outer, over arrays of particles. A trajectory
is a row of a node table (`_Nodes`): its birth time, its head state and the
row of its tail, as a persistent list (Okasaki, "Purely Functional Data
Structures", 1998). Prepending a head appends a row and copies no state. A
particle's set is a row of node ids in set order. The result is a
`ParticleSet` of arrays, each distinct node's states gathered once into one
stacked array; `Particle` and `Trajectory` objects are built when it is
read, and it keeps none. A kernel depends only on the trajectories present
at k+1, in their order (a reordered set permutes the cost-matrix rows, with
them the ranking's tie-breaks, and the order of the sampled set), so at each
step the particles are grouped by the ids of their present trajectories. In
dirac mode the nodes born at a step are shared by tail and head bytes, so
equal trajectories have equal ids and equal sets are grouped together; with
sampled heads two draws almost never agree. The kernels of many groups are
built in one batched pass: their heads are stacked, gated against every
active track, birth and undetected component at once, and the cost matrices
of the groups with the same number of present trajectories are cut out as
one (groups, m, n) stack. The first-detection weights of all heads come from
(terms x heads) arrays with -inf for gated-out terms. Each stack is ranked
as one, whatever its matrices' +inf patterns (`assignment._ranked_components`).
A draw table entry holds a component's row_to_col rows, log-weights and
cumulative probabilities, +inf past its kept count, and is keyed by the
batch head of the component's first row.

The kernel weighs heads with the forward filter's arithmetic: the gated
Mahalanobis log-terms (`gaussians._gated`), the row log-sum-exp
(`forward._lse_rows`) and the "Bernoulli yields nothing" split
(`forward._thinned`), all plain numpy: the log-sum-exp is
top + log(sum(exp(x - top))) and the logs are numpy's `log` on whole arrays.
Batched arithmetic keeps one invariant: a particle's numbers do not depend
on the batch's composition. Every stacked product runs one product per
member (a stacked matmul, or one (size, d) @ (d, d) matmul per set of a
size), every reduction runs over one C-contiguous row per head or table,
and a particle's ln w_hat adds its drawn components' log-weights left to
right in order of first row (one weighted `np.bincount`), so a head's,
table's or particle's result is the same whatever other sets share its
batch.

Every random number is a pure function of its counter: a word of the
counter-based generator Philox4x64-10 (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011), drawn from `np.random.Philox` under
the key `SeedSequence(seed).generate_state(2, uint64)`, which it derives from
the same seed. The counter is (particle, step, role + 256 * block, slot),
with step k for the step that draws the set over k:K, K included. A
counter gives four 64-bit words; a slot of more than four words reads
blocks 0, 1, ... in order. The roles and their slots:

  - `_HYP`, slot 0: word j is the uniform that draws the assignment of the
    component whose first row is present trajectory j;
  - `_EXIST`, slot 0: word i is track i's existence uniform (an ended track
    at k; at K every track ends);
  - `_HEAD`, slot i: the first ceil(d / 2) word pairs give the normals of
    track i's head (an ended or continued track at k);
  - `_FIRST`, slot j: words 0 and 1 are the keep and extension-choice
    uniforms of present trajectory j, read when its first-detection column
    is drawn;
  - `_EXT`, slot j: the first ceil(d / 2) word pairs give the normals of that
    trajectory's extension head.

A uniform is (w >> 11) 2^-53, as `Generator.random` forms it. A head's
normals come from word pairs by Box-Muller (Box and Muller, Ann. Math.
Statist. 1958): pair i, words 2i and 2i+1 of the slot, gives
u = ((w[2i] >> 11) + 1) 2^-53 in (0, 1] and v = (w[2i+1] >> 11) 2^-53 in
[0, 1), and with r = sqrt(-2 ln u) and theta = 2 pi v, normals 2i and 2i+1
are r cos theta and r sin theta; the head keeps the first d. A normal
depends on its pair alone, and numpy's `log`, `cos` and `sin` give an
element the same bits wherever it sits in an array. A particle's numbers
therefore depend on neither the number of particles, nor the grouping, nor
the batches. A step cuts its conditioning sets into batches of at most
`_BATCH` cost cells, m (n_tracks + m) + 1 for a set of m present
trajectories, and at least one set (`_batches`). A batch draws its uniforms
(each particle's hypothesis and existence blocks and one first-detection
block per present trajectory) and, without dirac mode, the normals of
exactly the heads it draws, one generator run per role, distinct slot and
block, its particles grouped by slot with one sort (`_words`); the draws
are array operations over the batch, and a hypothesis is the count of a
table's cumulative probabilities below its uniform.
"""

from __future__ import annotations

import bisect
import gc
import math
import operator
import warnings
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

# _ranked and sample_gaussian stay importable from here: perfbench's tracer patches them
# in this module
from .assignment import Assignment, _ranked, _ranked_components, _unique_rows  # noqa: F401
from .errors import ContractError, SettingError, check_int, check_real
from .forward import _LOG_TINY, FilterLog, PMBDensity, _lse_rows, _thinned
from .gaussians import (
    LinearMotionModel,
    _draw,
    _gate_tail,
    _gated,
    _inv_log_norm,
    _linear_terms,
    _of_dim,
    _sampling_root,
    _sampling_roots,
    gate_quantile,
    sample_gaussian,  # noqa: F401
    symmetrize,
)
from .models import BirthModel
from .trajectory import Trajectory, trajectory_from_jsonable, trajectory_to_jsonable

# cost cells per batched kernel build, m (n_tracks + m) + 1 per set of m present
# trajectories (`_batches`): bounds the memory of one pass
_BATCH = 2**15
# particles built per pass while a ParticleSet is iterated: bounds the objects alive at once
_READ = 1024


@dataclass(frozen=True, slots=True)
class EndedAtK:
    """Track dies at k; head drawn from the filtering Gaussian."""

    mean: np.ndarray
    root: np.ndarray  # gaussians._sampling_root of the filtering covariance


@dataclass(frozen=True, slots=True)
class ContinuedSmoothed:
    """Track alive at k and k+1; smoothed head prepended to the fixed tail."""

    mean: np.ndarray
    root: np.ndarray  # of the smoothed covariance
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
    roots: np.ndarray  # (components, d, d) sampling root of each smoothed covariance
    tail: Trajectory


@dataclass(frozen=True, slots=True)
class LocalHypothesis:
    log_weight: float
    existence: float
    density: EndedAtK | ContinuedSmoothed | FirstDetected


class _FirstDetections(NamedTuple):
    """First-detection terms of a batch's stacked heads; column h is head h."""

    log_w: np.ndarray  # (heads,) log-weight of the first-detection column, floored
    w_keep: np.ndarray  # (heads,) probability of keeping the trajectory as born at k+1
    ext_terms: np.ndarray  # (components, heads) log-weight of each backward extension
    ext_ok: np.ndarray  # (components, heads) extensions the head may draw (gated, or all)
    ext_means: np.ndarray  # (components, heads, d) smoothed extension means


@dataclass(slots=True)
class BackwardKernel:
    """What the sampler reads to draw the trajectory set over k:K from that over k+1:K.

    Row j of `cost` is trajectory j present at k+1; column i < n_tracks pairs
    it with forward track i, column n_tracks + j is its first detection. The
    head arrays `diffs`, `log_w` and `first` cover every head of the batch the
    kernel was built in; trajectory j is head `start + j`.
    """

    k: int
    cost: np.ndarray  # m x (n_tracks + m)
    step: _KernelCache | None  # the step's shared terms; None for a bare cost matrix
    present: tuple[Trajectory, ...]  # the m trajectories present at k+1
    diffs: np.ndarray  # (active tracks, heads, d): head at k+1 minus each track's prediction
    log_w: np.ndarray  # (active tracks, heads): continued log-weights
    first: _FirstDetections | None  # (heads,) first-detection terms
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
        roots = _sampling_roots(s.end_covs)
        return tuple(
            LocalHypothesis(float(lw), float(e), EndedAtK(s.end_means[i], roots[i]))
            for i, (lw, e) in enumerate(zip(s.log_w_end, s.exist_end))
        )

    def smoothed_head(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean and sampling root of track i's head at k given present trajectory j."""
        a = self.step.active_pos[i]
        t = self.step.tracks
        return t.means[a] + t.gains[a] @ self.diffs[a, self.start + j], _sampling_root(t.covs[a])

    def continued(self, i: int, j: int) -> LocalHypothesis:
        """Track i continued into present trajectory j; (j, i) must be finite in `cost`."""
        log_w = float(self.log_w[self.step.active_pos[i], self.start + j])
        head = ContinuedSmoothed(*self.smoothed_head(i, j), self.present[j])
        return LocalHypothesis(log_w, 1.0, head)

    @property
    def first_detected(self) -> list[LocalHypothesis]:
        """Per present trajectory."""
        f = self.first
        roots = _sampling_roots(self.step.ppp.covs)
        out = []
        for j, tail in enumerate(self.present):
            h = self.start + j
            comps = np.flatnonzero(f.ext_ok[:, h])
            w_keep = float(f.w_keep[h])
            fd = FirstDetected(
                w_keep, 1.0 - w_keep, f.ext_terms[comps, h].tolist(), comps.tolist(),
                f.ext_means[:, h], roots, tail,
            )
            out.append(LocalHypothesis(float(f.log_w[h]), 1.0, fd))
        return out


@dataclass(frozen=True, slots=True)
class Particle:
    """One sampled set of trajectories over 1:K with its accumulated log-weight."""

    trajectories: tuple[Trajectory, ...]
    log_weight_acc: float


class ParticleSet(Sequence):
    """A read-only sequence of `Particle`s stored as arrays; objects are built on read.

    Trajectory i of the set was born at `birth[i]` and its states are rows
    `start[i]:start[i] + length[i]` of the stacked (read-only) `states`.
    Particle p owns the trajectories `rows[p][rows[p] >= 0]`, in set order,
    and has the accumulated log-weight `log_w[p]`. Indexing or iterating
    builds fresh `Particle` and `Trajectory` objects and the set keeps none;
    their states are views of `states`. A slice is a set over the same
    trajectory arrays.
    """

    __slots__ = ("birth", "start", "length", "states", "rows", "log_w")

    def __init__(self, birth, start, length, states, rows, log_w):
        states.flags.writeable = False
        self.birth, self.start, self.length, self.states = birth, start, length, states
        self.rows, self.log_w = rows, log_w

    @classmethod
    def of(cls, particles) -> ParticleSet:
        """`particles` as a set: a set itself, else one stacked row per trajectory."""
        if isinstance(particles, ParticleSet):
            return particles
        trs = [tr for p in particles for tr in p.trajectories]
        cards = [len(p.trajectories) for p in particles]
        length = np.array([tr.length for tr in trs], dtype=int)
        states = np.concatenate([tr.states for tr in trs]) if trs else np.empty((0, 0))
        number = np.arange(len(trs))
        return cls(
            np.array([tr.t for tr in trs], dtype=int), np.cumsum(length) - length, length, states,
            _rows(np.repeat(np.arange(len(cards)), cards), number, number, len(cards)),
            np.array([p.log_weight_acc for p in particles], dtype=float),
        )

    def __len__(self) -> int:
        return len(self.log_w)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ParticleSet(
                self.birth, self.start, self.length, self.states, self.rows[i], self.log_w[i]
            )
        at = [operator.index(i)]  # numpy raises the IndexError of an index out of range
        return self._particles(self.rows[at], self.log_w[at])[0]

    def __iter__(self):
        for lo in range(0, len(self), _READ):
            yield from self._particles(self.rows[lo:lo + _READ], self.log_w[lo:lo + _READ])

    def _particles(self, rows: np.ndarray, log_w: np.ndarray) -> list[Particle]:
        """The particles of node-id rows `rows` with log-weights `log_w`, as new objects."""
        owned = rows >= 0
        nodes = rows[owned]
        start = self.start[nodes]
        stop = start + self.length[nodes]
        ends = np.cumsum(owned.sum(axis=1)).tolist()
        with _collector_paused():
            spans = zip(self.birth[nodes].tolist(), start.tolist(), stop.tolist())
            built = [_trajectory(t, self.states[a:b]) for t, a, b in spans]
            return [
                _particle(tuple(built[lo:hi]), acc)
                for lo, hi, acc in zip([0] + ends, ends, log_w.tolist())
            ]


@dataclass(frozen=True)
class SmootherParams:
    """Backward-simulation settings; the CLI flags and `mc` keys take their defaults from here."""

    num_particles: int = 1000  # T, the number of sampled trajectory sets
    m_best: int = 100  # M, ranked assignments per connected component of a kernel
    gate_prob: float = 0.9999  # gate mass of the state chi-square; 1.0 = no gate
    w_hyp_min: float = 1e-4  # a component's assignments below this probability in it are dropped
    dirac_mode: bool = False  # heads are smoothed means instead of draws
    seed: int = 0

    def __post_init__(self):
        check_int("num_particles", self.num_particles, 1)
        check_int("m_best", self.m_best, 1)
        _gate_tail(check_real("gate_prob", self.gate_prob, "(0, 1]"))
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


def _smoothing_terms(log_w: np.ndarray, means: np.ndarray, covs: np.ndarray,
                     m: LinearMotionModel) -> _Smoothing:
    mean_pred, inv_pred, log_norm, gains = _linear_terms(means, covs, m.F, m.Q)
    # one (d, d) product per member, as the loop over members computes it
    smoothed = symmetrize(covs - gains @ m.F @ covs)
    return _Smoothing(log_w + log_norm, mean_pred, inv_pred, means, gains, smoothed)


def _log_kept(w: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The members with w > 0 and scale > 0, and their weights ln w + ln scale."""
    log_scale = math.log(scale) if scale > 0.0 else -math.inf
    kept = np.flatnonzero((w > 0.0) & (scale > 0.0))
    return kept, np.log(w[kept]) + log_scale


class _KernelCache:
    """Conditioning-set-independent quantities of one step, shared across particles.

    It holds no sampling root: a draw factors the covariances it reads
    (`end_covs`, `tracks.covs`, `ppp.covs`), so a dirac step factors none.
    """

    def __init__(self, pmb: PMBDensity, birth: BirthModel, m: LinearMotionModel):
        ps = m.ps
        self.dim = m.dim
        # per track, ended at k: its log-weight, existence and filtering head
        self.log_w_end, self.exist_end = _thinned(pmb.r, ps)
        self.end_means, self.end_covs = _of_dim(m.dim, pmb)

        # tracks that can continue into a conditioning trajectory, and each
        # track's place among them (-1: none)
        self.active_idx, log_w = _log_kept(pmb.r, ps)
        self.active_pos = np.full(len(pmb.r), -1)
        self.active_pos[self.active_idx] = np.arange(len(self.active_idx))
        a = self.active_idx
        self.tracks = _smoothing_terms(log_w, self.end_means[a], self.end_covs[a], m)
        # undetected intensity extended one step backward
        kept, log_w = _log_kept(pmb.ppp.weights, ps)
        means, covs = _of_dim(m.dim, pmb.ppp)
        self.ppp = _smoothing_terms(log_w, means[kept], covs[kept], m)

        # birth components: (ln w plus log-normaliser, means, inverse covariances)
        kept, log_w = _log_kept(birth.intensity.weights, 1.0)
        means, covs = _of_dim(m.dim, birth.intensity)
        inv, log_norm = _inv_log_norm(covs[kept])
        self.birth_comps = (log_w + log_norm, means[kept], inv)
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
) -> BackwardKernel:
    """Kernel of the trajectory set over k:K conditioned on the set over k+1:K.

    This is the batched build of `_kernels` with one set, as a record.
    """
    present, absent = split_y(trajectories, k)
    cache = _KernelCache(pmb, birth, m)
    heads = np.array([tr.states[0] for tr in present]).reshape(-1, m.dim)
    batch = _kernels(cache, heads, np.array([len(present)]), gate)
    (block,) = batch.blocks
    return BackwardKernel(
        k, block.cost[0], cache, tuple(present), batch.diffs, batch.log_w, batch.first, 0,
        tuple(absent),
    )


class _Block(NamedTuple):
    """The conditioning sets of a batch with `size` present trajectories."""

    heads: np.ndarray  # (G, size) their present trajectories' columns in the batch's head arrays
    cost: np.ndarray  # (G, size, n_tracks + size) their cost matrices


class _Batch(NamedTuple):
    """The kernels of a batch of conditioning sets: head arrays and cost stacks per size."""

    diffs: np.ndarray  # (active tracks, heads, d): head at k+1 minus each track's prediction
    log_w: np.ndarray  # (active tracks, heads): continued log-weights
    first: _FirstDetections
    blocks: list[_Block]


def _kernels(cache: _KernelCache, heads: np.ndarray, sizes: np.ndarray, gate: float) -> _Batch:
    """Kernels of many conditioning sets from one pass over their stacked heads.

    `heads` stacks the heads at k+1 of every set's present trajectories, set
    after set in set order; set s has `sizes[s]` of them. Every head is gated
    against every active track and every birth and undetected component at
    once (`_gated`). Sets with the same number of present trajectories then
    get their cost matrices and smoothed extension means as one block each.
    """
    n_tracks = len(cache.exist_end)
    starts = np.cumsum(sizes) - sizes
    # (sets, size) head indices per number of present trajectories
    blocks = [starts[sizes == size, None] + np.arange(size) for size in np.unique(sizes).tolist()]

    t = cache.tracks
    diffs, log_w, gated = _gated(heads, t.log_const, t.mean_pred, t.inv_pred, gate)
    continued = np.where(gated, -(log_w - cache.log_w_end[cache.active_idx, None]), np.inf)

    # a (size, d) @ (d, d) product per set and component, as one broadcast matmul
    # per block: stacking the sets into one taller product would round differently,
    # and so does a set of one (a matrix-vector product) against a larger set
    ppp = cache.ppp
    ext_diffs, ext_lp, ext_ok = _gated(heads, ppp.log_const, ppp.mean_pred, ppp.inv_pred, gate)
    ext_means = np.empty(ext_diffs.shape)
    gains_t = ppp.gains.transpose(0, 2, 1)[:, None]
    for idx in blocks:
        block = ppp.means[:, None, None, :] + ext_diffs[:, idx] @ gains_t
        ext_means[:, idx.ravel()] = block.reshape(len(ppp.means), idx.size, cache.dim)
    _, birth_lp, birth_ok = _gated(heads, *cache.birth_comps, gate)
    local = np.arange(len(heads)) - np.repeat(starts, sizes)
    first = _first_detected_all(birth_lp, birth_ok, ext_lp, ext_ok, ext_means, local, cache)
    first_cost = -first.log_w

    stacks = []
    for idx in blocks:
        size = idx.shape[1]
        rows = np.arange(size)
        cost = np.full((len(idx), size, n_tracks + size), np.inf)
        cost[:, :, cache.active_idx] = continued[:, idx].transpose(1, 2, 0)
        cost[:, rows, n_tracks + rows] = first_cost[idx]
        stacks.append(_Block(idx, cost))
    return _Batch(diffs, log_w, first, stacks)


def _first_detected_all(birth_lp, birth_ok, ext_lp, ext_ok, ext_means, local, cache):
    """First-detection terms of every stacked head, as `_FirstDetections` arrays.

    Birth-at-k+1 versus one-step backward extension through the undetected
    intensity. The (components, heads) log-terms and gate masks of the birth
    and undetected components come from `_gated`; when no term of a head
    survives its gate, all are used ungated so the column stays feasible.
    The log-weights are log-sum-exps (`_lse_rows`) over each head's terms, a
    gated-out term being -inf: the uniform birth level, then each birth
    component, then each extension. A log-weight below `_LOG_TINY` is floored
    there with a warning: an underflow, or, on a model with no uniform level,
    birth component or undetected component, no term at all. `local` is each
    head's index within its own conditioning set and `ext_means` its
    smoothed mean under every undetected component.
    """
    has_uniform = cache.log_uniform > -math.inf
    fallback = ~(has_uniform | birth_ok.any(axis=0) | ext_ok.any(axis=0))
    birth_ok |= fallback
    ext_ok |= fallback

    uniform = np.full((int(has_uniform), len(local)), cache.log_uniform)
    birth_rows = np.concatenate((uniform, np.where(birth_ok, birth_lp, -math.inf)))
    ext_rows = np.where(ext_ok, ext_lp, -math.inf)
    terms = np.concatenate((birth_rows, ext_rows))
    log_w, _ = _lse_rows(terms.T)
    what = "first-detection weight underflow" if len(terms) else "no first-detection term"
    for h in np.flatnonzero(log_w < _LOG_TINY).tolist():
        warnings.warn(f"{what} for trajectory {local[h]}; floored", RuntimeWarning)
    log_w = np.maximum(log_w, _LOG_TINY)

    log_birth, _ = _lse_rows(birth_rows.T)
    # keep for certain when there is no extension to draw
    w_keep = np.where(ext_ok.any(axis=0), np.minimum(np.exp(log_birth - log_w), 1.0), 1.0)
    return _FirstDetections(log_w, w_keep, ext_lp, ext_ok, ext_means)


class _Table(NamedTuple):
    """Draw tables of I component entries of r rows each, keyed by the batch head of a first row."""

    head: np.ndarray  # (I,) batch head of each entry's first row, ascending
    rows: np.ndarray  # (I, r) each entry's rows in its cost matrix
    cols: np.ndarray  # (I, L, r) row_to_col of each ranked assignment of an entry
    log_w: np.ndarray  # (I, L) its ln w_hat; +inf past the entry's kept count
    cum: np.ndarray  # (I, L) cumulative draw probabilities; +inf past the kept count
    kept: np.ndarray  # (I,) assignments kept after w_hyp_min


def _component_tables(cost, heads, m_best: int, w_hyp_min: float) -> list[_Table]:
    """Draw tables of the components of a (G, m, n) cost stack whose rows are batch heads `heads`.

    The components are ranked by `assignment._ranked_components`. Within a
    component, assignments whose probability falls below `w_hyp_min` are
    dropped and the rest renormalised. A list is ranked by cost, so its
    probabilities never rise with rank and the kept ones are a prefix of it
    (the best, at rank 0, always survives). Its sums run in order along the
    entry (cumulative sums), to which +inf padding adds exact zeros, so a
    matrix's tables do not depend on the other matrices of the stack.
    """
    tables = []
    # kernel matrices are valid by construction
    for mats, rows, cols, totals in _ranked_components(cost, m_best):
        log_w = -totals
        shifted = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        probs = shifted / np.cumsum(shifted, axis=1)[:, -1:]
        keep = (probs >= w_hyp_min) & np.isfinite(log_w)
        keep[:, 0] = True  # the best always survives
        pr = np.where(keep, probs, 0.0)
        cum = np.where(keep, np.cumsum(pr / np.cumsum(pr, axis=1)[:, -1:], axis=1), np.inf)
        kept_w = np.where(keep, log_w, np.inf)
        tables.append(_Table(heads[mats, rows[:, 0]], rows, cols, kept_w, cum, keep.sum(axis=1)))
    return tables


def _draw_tables(tables: list[_Table], counts, head, u) -> tuple[np.ndarray, np.ndarray]:
    """One draw of every component of each particle's set; returns the columns and ln w_hat.

    Particle q owns the next `counts[q]` entries, one per present trajectory
    in row order; entry e is at batch head `head[e]`. The component whose
    first row is entry e draws with uniform u[e] from the table entry keyed
    by that head, and gives the columns of its rows' entries. ln w_hat, per
    particle, is the sum of its drawn components' log-weights from left to
    right in order of first row (one weighted `np.bincount`), so it does not
    depend on the other particles of the batch.
    """
    col = np.empty(len(head), dtype=int)
    # per entry, the drawn log-weight of the component it is the first row of, else 0
    drawn = np.zeros(len(head))
    for t in tables:
        i = np.minimum(np.searchsorted(t.head, head), len(t.head) - 1)
        e = np.flatnonzero(t.head[i] == head)
        i = i[e]
        hyps = _draw_rows(t.cum[i], t.kept[i], u[e])
        col[e[:, None] + t.rows[i] - t.rows[i, :1]] = t.cols[i, hyps]
        drawn[e] = t.log_w[i, hyps]
    q = np.repeat(np.arange(len(counts)), counts)
    return col, np.bincount(q, weights=drawn, minlength=len(counts))


def sample_global(
    kernel: BackwardKernel, m_best: int, rng: np.random.Generator, w_hyp_min: float = 0.0
) -> tuple[Assignment, float]:
    """Draw one global hypothesis, each component from its top-M; returns it with ln w_hat."""
    rows = np.arange(kernel.m)
    tables = _component_tables(kernel.cost[None], rows[None], m_best, w_hyp_min)
    cols, (log_w,) = _draw_tables(tables, np.array([kernel.m]), rows, rng.random(kernel.m))
    return Assignment(tuple(cols.tolist()), -float(log_w)), float(log_w)


def _draw_index(cum: np.ndarray, u):
    """Categorical draws: per uniform in `u`, the first index whose entry of `cum` reaches it.

    A normalised table can end a few ulps below 1, so a uniform above its
    last entry takes the last outcome.
    """
    return np.minimum(np.searchsorted(cum, u), len(cum) - 1)


def _draw_rows(cum: np.ndarray, kept: np.ndarray, u: np.ndarray) -> np.ndarray:
    """`_draw_index` of each row of a padded (n, M) table stack, one uniform per row.

    Counting a row's entries below its uniform is `searchsorted` on a
    non-decreasing row, and the +inf padding is never below it.
    """
    return np.minimum((cum < u[:, None]).sum(axis=1), kept - 1)


def sample_bernoulli(
    h: LocalHypothesis,
    k: int,
    dirac_mode: bool,
    rng: np.random.Generator,
) -> Trajectory | None:
    """Draw the trajectory (or nothing) described by one local hypothesis.

    The same arithmetic as the batched sampler, with the numbers from `rng`.
    """
    d = h.density
    if isinstance(d, EndedAtK):
        if rng.random() < h.existence:
            return _trajectory(k, _head(d.mean, d.root, dirac_mode, rng)[None, :])
        return None
    if isinstance(d, ContinuedSmoothed):
        return d.tail.prepend(_head(d.mean, d.root, dirac_mode, rng))
    # FirstDetected: keep the trajectory as born at k+1, or extend it backward
    if rng.random() < d.w_keep:
        return d.tail
    terms = np.asarray(d.log_terms)[:, None]
    c = d.comps[int(_extension_draw(terms, np.ones(terms.shape, dtype=bool), rng.random())[0])]
    return d.tail.prepend(_head(d.means[c], d.roots[c], dirac_mode, rng))


def _head(mean: np.ndarray, root, dirac_mode: bool, rng) -> np.ndarray:
    """The state at k: the mean itself in dirac mode, else one draw of N(mean, root root^T)."""
    if dirac_mode:
        return mean
    return _draw(mean[None], root[None], rng.standard_normal((1, mean.size)))[0]


# the records' slot descriptors: setting a slot through one skips the frozen
# dataclass's __setattr__, and building through `object.__new__` its __init__
_set_t, _set_states = Trajectory.t.__set__, Trajectory.states.__set__
_set_trajectories, _set_acc = Particle.trajectories.__set__, Particle.log_weight_acc.__set__


def _trajectory(t: int, states: np.ndarray) -> Trajectory:
    """The trajectory born at t with `states`, a float (length, d) array, unchecked."""
    tr = object.__new__(Trajectory)
    _set_t(tr, t)
    _set_states(tr, states)
    return tr


def _particle(trajectories: tuple[Trajectory, ...], log_weight_acc: float) -> Particle:
    """The particle with these trajectories and accumulated log-weight, unchecked."""
    p = object.__new__(Particle)
    _set_trajectories(p, trajectories)
    _set_acc(p, log_weight_acc)
    return p


# counter roles (module docstring)
_HYP, _EXIST, _HEAD, _FIRST, _EXT = range(5)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) from 64-bit words, as `Generator.random` forms them."""
    return (words >> np.uint64(11)) * 2.0**-53


def _normals(words: np.ndarray) -> np.ndarray:
    """Standard normals from 64-bit words by Box-Muller on word pairs along the last axis.

    Words 2i and 2i+1 give normals 2i and 2i+1 (module docstring); the last
    axis must have even length.
    """
    u = ((words[..., 0::2] >> np.uint64(11)) + 1) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u))
    theta = 2.0 * np.pi * _uniforms(words[..., 1::2])
    return np.stack((r * np.cos(theta), r * np.sin(theta)), axis=-1).reshape(words.shape)


def _words(key: np.ndarray, step: int, role: int, particles, slots=0, n_words: int = 1):
    """(len(particles), n_words): the first words of each (particle, slot) pair's slot.

    `slots` is one slot for every particle or one per particle. numpy's
    Philox increments its counter before each block, so per distinct slot and
    block one run started just below the lowest particle gives four words per
    particle up to the highest. A scalar slot is one run over all the
    particles; an array is grouped by slot with one stable sort, and the
    words are put back in the particles' order at the end. For particle 0 the
    start (2**64 - 1, step - 1, ...) carries into (0, step, ...), so `step`
    must then be at least 1: the steps draw at K .. 1.
    """
    particles = np.asarray(particles)
    blocks = -(-n_words // 4)
    out = np.empty((len(particles), 4 * blocks), dtype=np.uint64)
    if not len(particles):
        return out[:, :n_words]
    order = None
    if np.ndim(slots) == 0:
        runs = [(int(slots), 0, len(particles))]
    else:
        order = np.argsort(slots, kind="stable")
        ordered, particles = np.asarray(slots)[order], particles[order]
        cuts = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), len(order)]
        runs = [(int(ordered[a]), a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    # one generator, restarted per slot and block with its fresh state's empty buffer
    gen = np.random.Philox(key=key)
    state = gen.state
    for slot, a, b in runs:
        p = particles[a:b]
        lo, hi = int(p.min()), int(p.max())
        for blk in range(blocks):
            # a uint64 array: numpy casts a list holding 2**64 - 1 through float
            state["state"]["counter"] = np.array(
                [(lo - 1) % 2**64, step - (lo == 0), role + 256 * blk, slot], dtype=np.uint64
            )
            gen.state = state
            raw = gen.random_raw(4 * (hi - lo + 1)).reshape(-1, 4)
            out[a:b, 4 * blk:4 * blk + 4] = raw.take(p - lo, axis=0)
    if order is not None:
        back = np.empty_like(order)
        back[order] = np.arange(len(order))
        out = out.take(back, axis=0)
    return out[:, :n_words]


class _Nodes:
    """The trajectories of a run as a growing table of persistent nodes (Okasaki 1998).

    Node i is the trajectory born at `birth[i]` whose state there is
    `heads[i]` and whose states after it are node `tail[i]`'s (-1: none).
    Prepending a head to a trajectory appends one row and copies no state, so
    a step's cost does not grow with the trajectories' lengths. The arrays
    are buffers of which the first `size` rows are nodes.
    """

    __slots__ = ("birth", "tail", "heads", "size")

    def __init__(self, dim: int):
        self.birth = np.empty(0, dtype=int)
        self.tail = np.empty(0, dtype=int)
        self.heads = np.empty((0, dim))
        self.size = 0

    def add(self, birth: int, heads: np.ndarray, tails: np.ndarray, share: bool) -> np.ndarray:
        """Append the nodes born at `birth` with these heads and tails; returns their ids.

        With `share`, entries with the same tail and the same head bytes get
        one node. Nodes born at one time are all added by one call, so two
        trajectories with the same states then have the same id.
        """
        ids = np.arange(self.size, self.size + len(tails))
        if share:
            heads = np.ascontiguousarray(heads)
            first, ids = _unique_rows(np.column_stack((tails, heads.view(np.int64))))
            heads, tails, ids = heads[first], tails[first], ids + self.size
        lo, hi = self.size, self.size + len(tails)
        if hi > len(self.tail):
            cap = max(2 * len(self.tail), hi)
            self.birth, self.tail, self.heads = (
                np.concatenate((a[:lo], np.empty((cap - lo, *a.shape[1:]), a.dtype)))
                for a in (self.birth, self.tail, self.heads)
            )
        self.birth[lo:hi] = birth
        self.tail[lo:hi] = tails
        self.heads[lo:hi] = heads
        self.size = hi
        return ids

    def particles(self, sets: np.ndarray, log_w: np.ndarray) -> ParticleSet:
        """The particles with node-id rows `sets` (-1 padded) and log-weights `log_w`, as arrays.

        Every distinct node's states are gathered by one walk up the tail
        pointers, one level per step of its length, into one array.
        """
        owned = sets >= 0
        nodes, where = np.unique(sets[owned], return_inverse=True)
        rows = np.full(sets.shape, -1)
        rows[owned] = where
        length = np.zeros(len(nodes), dtype=int)
        levels, live, at = [], np.arange(len(nodes)), nodes
        while at.size:
            levels.append((live, at))
            length[live] += 1
            at = self.tail[at]
            live, at = live[at >= 0], at[at >= 0]
        start = np.cumsum(length) - length
        states = np.empty((int(length.sum()), self.heads.shape[1]))
        for depth, (live, at) in enumerate(levels):
            states[start[live] + depth] = self.heads[at]
        return ParticleSet(self.birth[nodes], start, length, states, rows, log_w)


def _rows(owner: np.ndarray, slot: np.ndarray, node: np.ndarray, n: int) -> np.ndarray:
    """(n, width) node-id rows padded with -1: row p holds the nodes owned by p in slot order.

    An owner holds a slot at most once, so one sort by (owner, slot) orders them.
    """
    lo = slot.min(initial=0)
    order = np.argsort(owner * (slot.max(initial=0) - lo + 1) + (slot - lo))
    owner, node = owner[order], node[order]
    counts = np.bincount(owner, minlength=n)
    rows = np.full((n, counts.max(initial=0)), -1)
    rows[owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]] = node
    return rows


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, then leave it as the caller had it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def backward_simulate(
    log: FilterLog,
    birth: BirthModel,
    m: LinearMotionModel,
    params: SmootherParams,
) -> ParticleSet:
    """Algorithm: sample the kernel from k=K down to k=1, starting from empty sets.

    The step at K conditions on nothing after K: every track ends there with
    its filtered existence (survival 0 in its `_KernelCache`), so the set over
    K:K is a draw from f_{K|K}. All particles advance together, one step at a
    time. A trajectory is a node of a table (`_Nodes`): birth time, head state
    and the node of its tail. A particle's set is a row of node ids in set
    order, and prepending a head appends a node. At step k the particles are
    grouped by the ids of their trajectories present at k+1, in set order:
    the kernel depends on nothing else, and the trajectories born later pass
    through. The order matters because it fixes the cost-matrix rows (hence
    ranking tie-breaks) and the order of the sampled set. In dirac mode the
    nodes drawn at a step are shared by tail and head bytes, so equal
    trajectories have one id. The kernels of the groups come from batched
    passes over their stacked heads (`_kernels`, groups of up to `_BATCH`
    cost cells per pass, `_batches`), as one cost stack per number of present
    trajectories, and each stack's per-component draw tables with cumulative
    probabilities (`_component_tables`).

    Every random number is a Philox word at a counter fixed by the particle,
    the step and the number's role (module docstring), so each particle
    depends only on the seed and its index: the first n particles of a larger
    run equal an n-particle run, whatever the grouping and batching. A
    batch's particles draw as arrays (`_sample_set`): the hypotheses by one
    comparison per table, the existences and first-detection choices by
    comparisons, and the Gaussian heads by one stacked `_draw`. The new sets
    are one sort of every particle's absent trajectories, tracks and first
    detections (`_next_sets`). The result is a `ParticleSet`: each distinct
    node's states gathered once into one stacked array, the particles' rows
    of trajectory indices and their log-weights. `Particle` and `Trajectory`
    objects are built only when it is read.

    The cyclic garbage collector is paused for the run, which creates no
    reference cycles, and left as the caller had it (`_collector_paused`).
    """
    if log.k_max < 1:
        raise ContractError("backward simulation needs at least one filtered step")
    gate = gate_quantile(m.dim, params.gate_prob)
    with _collector_paused():
        return _simulate(log, birth, m, params, gate)


def _simulate(log, birth, m, params: SmootherParams, gate: float) -> ParticleSet:
    key = np.random.SeedSequence(params.seed).generate_state(2, np.uint64)
    k_max = int(log.k_max)
    nodes = _Nodes(m.dim)
    sets = np.empty((params.num_particles, 0), dtype=int)
    accs = np.zeros(params.num_particles)
    for k in range(k_max, 0, -1):
        # nothing follows K: every track ends there, with its filtered existence
        motion = m if k < k_max else replace(m, ps=0.0)
        cache = _KernelCache(log.posteriors[k - 1], birth, motion)
        owner, at = np.nonzero((sets >= 0) & (nodes.birth[sets] == k + 1))
        present_rows = _rows(owner, at, sets[owner, at], len(sets))
        first, group = _unique_rows(present_rows)
        drawn = []
        for lo, hi in _batches((present_rows[first] >= 0).sum(axis=1), len(cache.exist_end)):
            rows = present_rows[first[lo:hi]]
            present, sizes = rows[rows >= 0], (rows >= 0).sum(axis=1)
            batch = _kernels(cache, nodes.heads[present], sizes, gate)
            tables = [
                t for b in batch.blocks
                for t in _component_tables(b.cost, b.heads, params.m_best, params.w_hyp_min)
            ]
            particles = np.flatnonzero((group >= lo) & (group < hi))
            members, log_w = _sample_set(
                cache, batch, tables, present, sizes, group[particles] - lo, particles, k,
                params.dirac_mode, key,
            )
            accs[particles] += log_w
            drawn.append(members)
        sets = _next_sets(nodes, sets, drawn, k, params.dirac_mode)
    return nodes.particles(sets, accs)


def _batches(sizes: np.ndarray, n_tracks: int) -> list[tuple[int, int]]:
    """The (lo, hi) ranges that cut a step's conditioning sets into batches of `_BATCH` cost cells.

    Set s has `sizes[s]` present trajectories. A set of m counts
    m (n_tracks + m) + 1 cells: its cost matrix and one for the set itself,
    so a set of none counts too. A batch takes the next sets while their
    cells sum to at most `_BATCH`, and at least one set.
    """
    ends = np.cumsum(sizes * (n_tracks + sizes) + 1).tolist()
    out, lo = [], 0
    while lo < len(ends):
        hi = max(bisect.bisect_right(ends, (ends[lo - 1] if lo else 0) + _BATCH), lo + 1)
        out.append((lo, hi))
        lo = hi
    return out


def _roots_of(covs: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The sampling roots of covs[idx], one stacked factorisation of the distinct members."""
    distinct, of = np.unique(idx, return_inverse=True)
    return _sampling_roots(covs[distinct])[of]


def _extension_draw(terms: np.ndarray, ok: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per column of (components, n) log-terms, the component drawn among the `ok` rows.

    Component c is drawn with probability exp(terms[c]) over the sum of the
    column's `ok` terms: the first row whose running weight, accumulated in
    row order, reaches u times the total. The draw is clamped to the column's
    `ok` rows, and does not depend on the other columns.
    """
    if not ok.size:
        return np.zeros(ok.shape[1], dtype=int)
    top = np.where(ok, terms, -math.inf).max(axis=0)
    running = np.cumsum(np.where(ok, np.exp(terms - top), 0.0), axis=0)
    idx = (running < u * running[-1]).sum(axis=0)
    return np.clip(idx, ok.argmax(axis=0), len(ok) - 1 - ok[::-1].argmax(axis=0))


class _Drawn(NamedTuple):
    """A batch's drawn set members other than the absent trajectories.

    Slot i holds track i (continued or ended) and slot n_tracks + j present
    trajectory j's first detection; a set is in slot order.
    """

    owner: np.ndarray  # (E,) particle of each member
    slot: np.ndarray  # (E,)
    node: np.ndarray  # (E,) a first detection kept as born at k+1; -1 for a new node
    tail: np.ndarray  # (new,) tail of each new node in member order; -1 for an ended track
    heads: np.ndarray  # (new, d) head of each new node


def _sample_set(
    step: _KernelCache, batch: _Batch, tables, present, sizes, group, particles, k: int,
    dirac_mode: bool, key,
) -> tuple[_Drawn, np.ndarray]:
    """Draw the members of the sets over k:K of a batch's particles; returns them and ln w_hat.

    `batch` holds the kernels of the batch's conditioning sets (`_kernels`)
    and `tables` the component tables of its blocks (`_component_tables`).
    `present` holds the node ids of the sets' present trajectories, in the
    order of the batch's heads; set s has `sizes[s]` of them, and particle
    `particles[q]` has set `group[q]`; ln w_hat comes in the order of `particles`.

    Every draw is an array operation over the batch. `_words` gives every
    particle's hypothesis uniforms (one per component, at its first row), its
    existence uniforms and a first-detection block per present trajectory
    (read when its column is drawn); the components' assignments are drawn
    over the batch's (particle, row) entries (`_draw_tables`). Without dirac
    mode `_words` gives the normals of exactly the heads drawn, and those
    heads are one stacked `_draw` with the sampling roots of the distinct
    covariances they read (`_roots_of`). In dirac mode a head is its mean.
    """
    first, n_tracks = batch.first, len(step.exist_end)
    # one entry per particle q and present trajectory j, with its batch head
    counts = sizes[group]
    q = np.repeat(np.arange(len(particles)), counts)
    j = np.arange(len(q)) - (np.cumsum(counts) - counts)[q]
    head = (np.cumsum(sizes) - sizes)[group][q] + j
    u = _uniforms(_words(key, k, _HYP, particles, n_words=sizes.max(initial=0)))
    exist_w = _words(key, k, _EXIST, particles, n_words=n_tracks)
    first_w = _words(key, k, _FIRST, particles[q], j, 2)
    col, log_w = _draw_tables(tables, counts, head, u[q, j])

    cont = col < n_tracks
    qc, tc, hc = q[cont], col[cont], head[cont]
    is_ended = np.ones((len(particles), n_tracks), dtype=bool)
    is_ended[qc, tc] = False
    qe, te = np.nonzero(is_ended & (_uniforms(exist_w) < step.exist_end))
    fd = col == n_tracks + j
    qf, jf, hf = q[fd], j[fd], head[fd]
    extend = _uniforms(first_w[fd, 0]) >= first.w_keep[hf]
    qx, jx, hx = qf[extend], jf[extend], hf[extend]
    comps = _extension_draw(
        first.ext_terms[:, hx], first.ext_ok[:, hx], _uniforms(first_w[fd, 1][extend])
    )

    t = step.tracks
    a = step.active_pos[tc]
    # continued heads' means: a stacked matmul runs one product per entry
    heads = [
        t.means[a] + np.matmul(t.gains[a], batch.diffs[a, hc][..., None])[..., 0],
        step.end_means[te],
        first.ext_means[comps, hx],
    ]
    if not dirac_mode:
        d = step.dim
        n_words = d + d % 2  # whole pairs
        # a particle's track is continued or ended, never both: one run per track slot
        words = (
            _words(key, k, _HEAD, particles[np.concatenate((qc, qe))], np.concatenate((tc, te)),
                   n_words),
            _words(key, k, _EXT, particles[qx], jx, n_words),
        )
        roots = (
            _roots_of(t.covs, a), _roots_of(step.end_covs, te), _roots_of(step.ppp.covs, comps)
        )
        z = _normals(np.concatenate(words))[:, :d]
        heads = [_draw(np.concatenate(heads), np.concatenate(roots), z)]

    kept = ~extend
    new = np.concatenate((qc, qe, qx))
    owner = particles[np.concatenate((new, qf[kept]))]
    slot = np.concatenate((tc, te, n_tracks + jx, n_tracks + jf[kept]))
    node = np.concatenate((np.full(len(new), -1), present[hf[kept]]))
    tail = np.concatenate((present[hc], np.full(len(te), -1), present[hx]))
    return _Drawn(owner, slot, node, tail, np.concatenate(heads)), log_w


def _next_sets(nodes: _Nodes, sets: np.ndarray, drawn: list[_Drawn], k: int, share: bool):
    """Node-id rows of the sets over k:K: each particle's absent trajectories, then its draws.

    The nodes born at k are added in one call, shared by tail and head bytes
    when `share` (dirac mode). A new set holds the trajectories absent at k+1
    in their order, then the tracks in track order, then the first
    detections in row order, as one sort (`_rows`).
    """
    owner, slot, node, tail, heads = (np.concatenate(parts) for parts in zip(*drawn))
    new = node < 0
    node[new] = nodes.add(k, heads, tail, share)
    absent = (sets >= 0) & (nodes.birth[sets] > k + 1)
    owner_a, at = np.nonzero(absent)
    return _rows(
        np.concatenate((owner_a, owner)), np.concatenate((at - sets.shape[1], slot)),
        np.concatenate((sets[absent], node)), len(sets),
    )


def best_particle(particles: Sequence[Particle]) -> Particle:
    """Particle with the highest accumulated log-weight; ties keep the lowest index."""
    if not particles:
        raise ContractError("best_particle requires a nonempty particle list")
    return particles[int(np.argmax(ParticleSet.of(particles).log_w))]


def particle_to_jsonable(p: Particle) -> dict:
    return {
        "c": p.log_weight_acc,
        "trajectories": [trajectory_to_jsonable(tr) for tr in p.trajectories],
    }


def particles_to_jsonable(particles: Sequence[Particle]) -> dict:
    return {"particles": [particle_to_jsonable(p) for p in particles]}


def particles_from_jsonable(data: dict, dim: int | None = None) -> list[Particle]:
    """Decode particles; every trajectory's states are checked as (n, dim) finite arrays."""
    return [
        Particle(
            tuple(
                trajectory_from_jsonable(tr, f"particles[{n}].trajectories[{i}]", dim)
                for i, tr in enumerate(p["trajectories"])
            ),
            float(p["c"]),
        )
        for n, p in enumerate(data["particles"])
    ]
