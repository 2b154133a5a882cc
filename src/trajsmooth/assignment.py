"""Optimal and ranked (M-best) 2-D assignment over rectangular cost matrices.

Cost matrices are m x n with m <= n; +inf marks a forbidden pairing and is
never selected. Column indices are exclusive: a feasible assignment maps every
row to a distinct column. An assignment's cost is the row-sequential float
sum of its entries, so an independent oracle can match it bit for bit.
`murty` returns the min(M, #feasible) cheapest assignments in nondecreasing
cost order, breaking exact cost ties by lexicographic row_to_col.

Ranking picks its route from the +inf pattern, and every route gives the same
output. A pattern whose product of per-row candidate counts is at most
`_ENUM_CAP` is enumerated. A larger one is split into connected components
(rows joined when they share a finite column), whose sorted lists are folded
together one component at a time. A component is ranked by one of three routes:

- enumeration, when its own candidate product is at most `_ENUM_CAP`;
- else a pruned row-by-row merge (`_merge_ranked`): the K cheapest prefixes
  of distinct columns are extended one row at a time, and the list is exact
  once the M-th cost lies below the least total any dropped prefix could
  reach, K doubling from M until it does;
- else, past `_MERGE_CAP * M` kept prefixes, Murty's method (Operations
  Research 1968), whose work grows with the assignments tied near the M-th
  cost rather than with the prefixes that such ties keep the merge from
  ruling out.

No list, fold, merge or Murty queue stops while a candidate could tie or
undercut the M-th cost within the rounding of the partial sums; only the final
sort by (cost, row_to_col) cuts. Every route returns (row_to_col, costs)
arrays; only `solve_lap` and `murty` build `Assignment` objects.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InfeasibleAssignmentError, check_int

# enumerate a pattern or component whose product of per-row candidate counts
# is at most this; enumeration, the merge and Murty produce identical ranked output
_ENUM_CAP = 512
# the row-by-row merge keeps at most this many prefixes per requested
# assignment before a component falls back to Murty's method
_MERGE_CAP = 16


@dataclass(frozen=True)
class Assignment:
    row_to_col: tuple[int, ...]
    cost: float


def _entry_cost(rows: list[list[float]], cols) -> float:
    # sequential accumulation so brute-force oracles can match bit-exactly
    total = 0.0
    for row, c in zip(rows, cols):
        total += row[c]
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
    return _lap(_validate(cost))


def _lap(cost: np.ndarray) -> Assignment:
    """solve_lap body for already-validated matrices (Murty's children).

    The shortest augmenting path method (D. F. Crouse, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 2016) in the form
    `scipy.optimize.linear_sum_assignment` runs, so both pick the same optimum
    among equal-cost ones: rows are added one at a time, the columns left to
    scan start in descending order and a scanned one is swapped out for the
    last, and a cost tie goes to an unassigned column.
    """
    m, n = cost.shape
    rows = cost.tolist()
    u, v = [0.0] * m, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * m, [-1] * n
    for cur in range(m):
        # the shortest alternating path from row `cur` to an unassigned column
        shortest = [math.inf] * n
        remaining = list(range(n - 1, -1, -1))
        seen_rows, seen_cols = [], []
        i, sink, min_val = cur, -1, 0.0
        while sink < 0:
            seen_rows.append(i)
            row, ui = rows[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                else:
                    r = shortest[j]
                if r < lowest or (r == lowest and row4col[j] < 0):
                    lowest, index = r, it
            min_val = lowest
            if min_val == math.inf:
                raise InfeasibleAssignmentError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update, then augment along the path
        u[cur] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return Assignment(tuple(col4row), _entry_cost(rows, col4row))


def murty(cost: np.ndarray, m_best: int) -> list[Assignment]:
    """The min(m_best, #feasible) cheapest assignments, cheapest first."""
    cost = _validate(cost)
    return _ranked(cost, check_int("m_best", m_best, 1))


def _ranked(cost: np.ndarray, m_best: int) -> list[Assignment]:
    """murty body for already-validated matrices (internal hot path)."""
    cols, totals = _ranked_stack(cost[None], m_best)
    return [Assignment(tuple(c), t) for c, t in zip(cols[0].tolist(), totals[0].tolist())]


def _ranked_stack(costs: np.ndarray, m_best: int) -> tuple[np.ndarray, np.ndarray]:
    """Ranked assignments of each matrix in a (G, m, n) stack sharing one +inf pattern.

    Returns row_to_col as a (G, M, m) array and costs as (G, M), M =
    min(m_best, #feasible), cheapest first with exact ties broken by
    lexicographic row_to_col. A small pattern is enumerated once and scored
    for the whole stack. A larger one is split into its connected components,
    rows joined when they share a finite column. Each component is ranked on
    its columns in ascending order, so its local lexicographic order is the
    global one restricted to its rows: by enumeration when small, else per
    matrix by the row-by-row merge or, past its cap, Murty. The per-component
    lists of each matrix are folded together one at a time (`_combined`); the
    global top-M of a sum over independent blocks lies in the product of each
    block's top-M. Lists, folds, merges and Murty are cut only past
    the M-th cost plus a bound on the rounding of the partial sums, and the
    combined candidates are re-scored row-sequentially and sorted by
    (cost, row_to_col) before the final cut at M, so a tie is never lost to
    rounding or to the order of a search.
    """
    g, m, n = costs.shape
    finite = np.isfinite(costs[0])
    candidate_counts = finite.sum(axis=1)
    if m and candidate_counts.min() == 0:
        raise InfeasibleAssignmentError("a row has no finite-cost column")
    if np.prod(candidate_counts, dtype=float) <= _ENUM_CAP:
        cols = _feasible_tuples(finite)
        total = _scores(costs, cols)
        # cols is in lexicographic order, so a stable sort by total breaks ties by row_to_col
        order = np.argsort(total, axis=1, kind="stable")[:, :m_best]
        return cols[order], np.take_along_axis(total, order, axis=1)
    # sums of the same m entries in two orders differ by at most about
    # m * eps * scale; a cut is safe at twice that, and twice again covers
    # the rounding of LAP's own optimum
    scale = np.where(finite, np.abs(costs), 0.0).max(axis=2).sum(axis=1)
    slack = (4 * m * np.finfo(float).eps) * scale
    # a row alone in its component with one finite entry is fixed to it
    fixed_cols = finite.argmax(axis=1)
    components = [
        rows for rows in _components(finite) if len(rows) > 1 or candidate_counts[rows[0]] > 1
    ]
    blocks = [_ranked_block(costs, finite, rows, m_best, slack) for rows in components]
    ranked_cols, ranked_costs = [], []
    for i in range(g):
        lists = [block[i] for block in blocks]
        picks = _combined([c for _, c in lists], m_best, slack[i])
        row_to_col = np.tile(fixed_cols, (len(picks), 1))
        for rows, (tuples, _), p in zip(components, lists, picks.T):
            row_to_col[:, rows] = tuples[p]
        total = _scores(costs[i:i + 1], row_to_col)[0]
        order = np.lexsort((*row_to_col.T[::-1], total))[:m_best]
        ranked_cols.append(row_to_col[order])
        ranked_costs.append(total[order])
    # one pattern has one feasible count, so every matrix ranks the same number
    return np.stack(ranked_cols), np.stack(ranked_costs)


def _scores(costs: np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """(G, count) totals of each row_to_col tuple under each matrix of the stack.

    Row-sequential accumulation, bitwise equal to `_entry_cost`.
    """
    total = np.zeros((costs.shape[0], len(tuples)))
    for r in range(tuples.shape[1]):
        total = total + costs[:, r, tuples[:, r]]
    return total


def _components(finite: np.ndarray) -> list[np.ndarray]:
    """Row sets, ascending, of the components of the graph joining rows that share a finite column."""
    parent = list(range(finite.shape[0]))

    def root(r: int) -> int:
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    first_row: dict[int, int] = {}
    for r, c in zip(*(idx.tolist() for idx in np.nonzero(finite))):
        if c in first_row:
            parent[root(r)] = root(first_row[c])
        else:
            first_row[c] = r
    groups: dict[int, list[int]] = {}
    for r in range(len(parent)):
        groups.setdefault(root(r), []).append(r)
    return [np.array(rows, dtype=np.intp) for rows in groups.values()]


def _ranked_block(
    costs: np.ndarray, finite: np.ndarray, rows: np.ndarray, m_best: int, slack: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per matrix: one component's assignments and their costs, cheapest first.

    Assignments are (L, len(rows)) arrays of global columns. Each list runs to
    the M-th cost plus that matrix's slack.
    """
    cols = np.flatnonzero(finite[rows].any(axis=0))
    local = finite[np.ix_(rows, cols)]
    if np.prod(local.sum(axis=1), dtype=float) <= _ENUM_CAP:
        tuples = _feasible_tuples(local)
        total = _scores(costs[:, rows][:, :, cols], tuples)
        order = np.argsort(total, axis=1, kind="stable")
        tuples = cols[tuples]
        out = []
        for ranked, idx, s in zip(np.take_along_axis(total, order, axis=1), order, slack):
            keep = np.searchsorted(ranked, ranked[min(m_best, len(ranked)) - 1] + s, side="right")
            out.append((tuples[idx[:keep]], ranked[:keep]))
        return out
    if len(rows) > len(cols):
        raise InfeasibleAssignmentError("no feasible assignment")
    ranked = [
        _merge_ranked(cost, m_best, s) or _murty_queue(cost, m_best, s)
        for cost, s in zip(costs[:, rows][:, :, cols], slack)
    ]
    return [(cols[tuples], total) for tuples, total in ranked]


def _merge_ranked(
    cost: np.ndarray, m_best: int, slack: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Ranked assignments of one validated matrix by a pruned row-by-row merge.

    Returns row_to_col (L, m) and costs (L,) of every assignment costing at
    most the M-th cost plus `slack`, sorted by (cost, row_to_col): the arrays
    `_murty_queue` returns. Returns None when more than `_MERGE_CAP * m_best`
    prefixes would have to be kept.

    Stage r extends each kept prefix by every finite column of row r that it
    does not use yet, so the sums are row-sequential and bit-equal to
    `_entry_cost`; only the K cheapest prefixes are kept. `floor` is the least
    total a dropped prefix could still reach: its sum plus the minima of the
    rows after it, less `slack` for the rounding of both. The kept list is
    exact when nothing was dropped or when the M-th cost plus `slack` lies
    below `floor`; otherwise K doubles, from M.
    """
    m, n = cost.shape
    finite = np.isfinite(cost)
    row_cols = [np.flatnonzero(row) for row in finite]
    row_vals = [cost[r, c] for r, c in enumerate(row_cols)]
    rest = np.zeros(m + 1)  # rest[r]: sum of the minima of rows r..m-1
    for r in range(m - 1, -1, -1):
        rest[r] = rest[r + 1] + row_vals[r].min()
    k = m_best
    while k <= _MERGE_CAP * m_best:
        sums = np.zeros(1)
        tuples = np.zeros((1, 0), dtype=np.intp)
        used = np.zeros((1, n), dtype=bool)
        floor = math.inf
        for r, (cols, vals) in enumerate(zip(row_cols, row_vals)):
            parent, j = np.nonzero(~used[:, cols])
            total = sums[parent] + vals[j]
            if len(total) > k:
                part = np.argpartition(total, k)
                floor = min(floor, total[part[k:]].min() + rest[r + 1] - slack)
                parent, j, total = parent[part[:k]], j[part[:k]], total[part[:k]]
            tuples = np.column_stack((tuples[parent], cols[j]))
            used = used[parent]
            used[np.arange(len(parent)), cols[j]] = True
            sums = total
        order = np.lexsort((*tuples.T[::-1], sums))
        sums, tuples = sums[order], tuples[order]
        if floor == math.inf and not len(sums):
            raise InfeasibleAssignmentError("no feasible assignment")
        if floor == math.inf or (len(sums) >= m_best and sums[m_best - 1] + slack < floor):
            keep = np.searchsorted(sums, sums[min(m_best, len(sums)) - 1] + slack, side="right")
            return tuples[:keep], sums[:keep]
        k *= 2
    return None


def _combined(lists: list[np.ndarray], m_best: int, slack: float) -> np.ndarray:
    """Every index tuple into ascending cost arrays summing to at most the M-th smallest + slack.

    Returns an unordered (L, len(lists)) array. The arrays are folded in one at
    a time, keeping a partial tuple while its sum is at most the M-th smallest
    partial sum plus `slack`. Those M partial tuples, each completed by the
    first entry of every later array, bound the M-th smallest full sum, so no
    completion of a dropped one comes within `slack` of it.
    """
    picks = np.zeros((1, 0), dtype=np.intp)
    totals = np.zeros(1)
    for costs in lists:
        sums = (totals[:, None] + costs).ravel()
        kth = min(m_best, len(sums)) - 1
        keep = np.flatnonzero(sums <= np.partition(sums, kth)[kth] + slack)
        parent, j = np.divmod(keep, len(costs))
        picks = np.column_stack((picks[parent], j))
        totals = sums[keep]
    return picks


def _feasible_tuples(finite: np.ndarray) -> np.ndarray:
    """Every row-to-distinct-column tuple avoiding +inf, as a (count, m) array.

    `finite` is the m x n mask of allowed entries; tuples come in
    lexicographic order. Raises InfeasibleAssignmentError when there is none.
    """
    m = finite.shape[0]
    finite_cols = [np.flatnonzero(row).tolist() for row in finite]
    out = [c for c in itertools.product(*finite_cols) if len(set(c)) == m]
    if not out:
        raise InfeasibleAssignmentError("no feasible assignment")
    return np.array(out, dtype=np.intp).reshape(len(out), m)


def _murty_queue(cost: np.ndarray, m_best: int, slack: float) -> tuple[np.ndarray, np.ndarray]:
    """Murty's ranked assignments of one validated matrix, as `_merge_ranked` returns them.

    LAP returns one optimum of a node, not the lexicographically first, so a
    solution tying the M-th can sit in a node not yet expanded. Nodes are
    therefore expanded until the cheapest left costs more than the M-th cost
    found plus `slack`; the caller cuts at M.
    """
    below = np.tri(cost.shape[0], k=-1, dtype=bool)
    first = _lap(cost)
    heap = [(first.cost, first.row_to_col, cost)]  # (cost, row_to_col) is unique per node
    out: list[tuple[float, tuple[int, ...]]] = []
    bound = math.inf
    while heap and heap[0][0] <= bound:
        total, row_to_col, problem = heapq.heappop(heap)
        out.append((total, row_to_col))
        if len(out) == m_best:
            bound = max(t for t, _ in out) + slack
        # partition the remaining solution space of this node; row r may use
        # its finite columns except those enforced for the rows before it
        finite = np.isfinite(problem)
        left = finite.sum(axis=1) - (finite[:, list(row_to_col)] & below).sum(axis=1)
        node = problem.copy()
        for r, c in enumerate(row_to_col):
            if left[r] > 1:  # else forbidding (r, c) is trivially infeasible
                child = node.copy()
                child[r, c] = np.inf
                try:
                    sub = _lap(child)
                except InfeasibleAssignmentError:
                    pass
                else:
                    heapq.heappush(heap, (sub.cost, sub.row_to_col, child))
            # enforce (r, c) for the remaining children of this node
            keep = node[r, c]
            node[r, :] = np.inf
            node[:, c] = np.inf
            node[r, c] = keep
    out.sort()
    return np.array([c for _, c in out], dtype=np.intp), np.array([t for t, _ in out])
