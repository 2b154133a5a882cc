"""Optimal and ranked (M-best) 2-D assignment over rectangular cost matrices.

Cost matrices are m x n with m <= n; +inf marks a forbidden pairing and is
never selected. Column indices are exclusive: a feasible assignment maps every
row to a distinct column. `murty` returns the min(M, #feasible) cheapest
assignments in nondecreasing cost order, breaking exact cost ties by
lexicographic row_to_col.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ContractError, InfeasibleAssignmentError

# switch to exhaustive enumeration when the product of per-row candidate
# counts is small; both paths produce identical ranked output
_ENUM_CAP = 512


@dataclass(frozen=True)
class Assignment:
    row_to_col: tuple[int, ...]
    cost: float


def _entry_cost(cost: np.ndarray, cols) -> float:
    # sequential accumulation so brute-force oracles can match bit-exactly
    total = 0.0
    for i, j in enumerate(cols):
        total += float(cost[i, j])
    return total


def _validate(cost: np.ndarray) -> np.ndarray:
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ContractError(f"cost matrix must be 2-D, got shape {cost.shape}")
    m, n = cost.shape
    if m > n:
        raise ContractError(f"cost matrix must have m <= n, got {m}x{n}")
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ContractError("cost matrix entries must be finite or +inf")
    return cost


def solve_lap(cost: np.ndarray) -> Assignment:
    """Minimum-cost assignment of every row to a distinct column.

    Raises InfeasibleAssignmentError when no complete assignment avoids the
    +inf entries.
    """
    cost = _validate(cost)
    m = cost.shape[0]
    if m == 0:
        return Assignment((), 0.0)
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError as exc:
        raise InfeasibleAssignmentError(str(exc)) from exc
    row_to_col = tuple(int(c) for c in cols[np.argsort(rows)])
    return Assignment(row_to_col, _entry_cost(cost, row_to_col))


def murty(cost: np.ndarray, m_best: int) -> list[Assignment]:
    """The min(m_best, #feasible) cheapest assignments, cheapest first."""
    cost = _validate(cost)
    if m_best < 1:
        raise ContractError(f"m_best must be >= 1, got {m_best}")
    return _ranked(cost, m_best)


def _ranked(cost: np.ndarray, m_best: int) -> list[Assignment]:
    """murty body for already-validated matrices (internal hot path)."""
    cols, totals = _ranked_stack(cost[None], m_best)
    return [Assignment(tuple(c), t) for c, t in zip(cols[0].tolist(), totals[0].tolist())]


def _ranked_stack(costs: np.ndarray, m_best: int) -> tuple[np.ndarray, np.ndarray]:
    """Ranked assignments of each matrix in a (G, m, n) stack sharing one +inf pattern.

    Returns row_to_col as a (G, M, m) array and costs as (G, M), M =
    min(m_best, #feasible), cheapest first with exact ties broken by
    lexicographic row_to_col. Small problems are enumerated once for the
    shared pattern and scored for the whole stack; larger ones run Murty per
    matrix.
    """
    g, m, n = costs.shape
    finite = np.isfinite(costs[0])
    candidate_counts = finite.sum(axis=1)
    if m and candidate_counts.min() == 0:
        raise InfeasibleAssignmentError("a row has no finite-cost column")
    if np.prod(candidate_counts, dtype=float) <= _ENUM_CAP:
        cols = _feasible_tuples(finite)
        if not len(cols):
            raise InfeasibleAssignmentError("no feasible assignment")
        # row-sequential accumulation, bitwise equal to _entry_cost
        total = np.zeros((g, len(cols)))
        for r in range(m):
            total = total + costs[:, r, cols[:, r]]
        # cols is in lexicographic order, so a stable sort by total breaks ties by row_to_col
        order = np.argsort(total, axis=1, kind="stable")[:, :m_best]
        return cols[order], np.take_along_axis(total, order, axis=1)
    ranked = []
    for cost in costs:
        out = _murty_queue(cost, m_best)
        out.sort(key=lambda a: (a.cost, a.row_to_col))
        ranked.append(out[:m_best])
    # one pattern has one feasible count, so every matrix ranks the same number
    return (
        np.array([[a.row_to_col for a in r] for r in ranked], dtype=np.intp).reshape(g, -1, m),
        np.array([[a.cost for a in r] for r in ranked]).reshape(g, -1),
    )


def _feasible_tuples(finite: np.ndarray) -> np.ndarray:
    """Every row-to-distinct-column tuple avoiding +inf, as a (count, m) array.

    `finite` is the m x n mask of allowed entries; tuples come in
    lexicographic order.
    """
    m = finite.shape[0]
    finite_cols = [np.flatnonzero(row).tolist() for row in finite]
    out = [c for c in itertools.product(*finite_cols) if len(set(c)) == m]
    return np.array(out, dtype=np.intp).reshape(len(out), m)


def _murty_queue(cost: np.ndarray, m_best: int) -> list[Assignment]:
    m = cost.shape[0]
    first = solve_lap(cost)
    counter = 0
    heap = [(first.cost, first.row_to_col, counter, cost, first)]
    out: list[Assignment] = []
    while heap and len(out) < m_best:
        _, _, _, problem, solution = heapq.heappop(heap)
        out.append(solution)
        # partition the remaining solution space of this node
        node = problem.copy()
        for r in range(m):
            c = solution.row_to_col[r]
            if np.isfinite(node[r]).sum() > 1:  # else forbidding (r, c) is trivially infeasible
                child = node.copy()
                child[r, c] = np.inf
                try:
                    sub = solve_lap(child)
                except InfeasibleAssignmentError:
                    sub = None
                if sub is not None:
                    counter += 1
                    heapq.heappush(heap, (sub.cost, sub.row_to_col, counter, child, sub))
            # enforce (r, c) for the remaining children of this node
            keep = node[r, c]
            node[r, :] = np.inf
            node[:, c] = np.inf
            node[r, c] = keep
    return out
