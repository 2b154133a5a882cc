"""Optimal and ranked (M-best) 2-D assignment over rectangular cost matrices.

Cost matrices are m x n with m <= n; +inf marks a forbidden pairing and is
never selected. Column indices are exclusive: a feasible assignment maps every
row to a distinct column. An assignment's cost is the row-sequential float
sum of its entries, so an independent oracle can match it bit for bit.
`murty` returns the min(M, #feasible) cheapest assignments in nondecreasing
cost order, breaking exact cost ties by lexicographic row_to_col.

A matrix splits into connected components (rows joined when they share a
finite column). The components' assignments combine freely and an
assignment's cost is the sum of its components' costs, so the filter and the
smoother rank each component on its own (`_ranked_components`) and never
need a ranked list of the whole matrix; M applies per component. A row alone
in its component lists its finite entries, sorted, for a whole stack at once.
A larger component (once per pattern of the joined rows) and `murty`'s matrix
are ranked as one block (`_ranked_block`) by one of three equivalent routes:

- enumeration, when its product of per-row candidate counts is at most
  `_ENUM_CAP`;
- else a pruned row-by-row merge (`_merge_ranked`): the K cheapest prefixes
  of distinct columns are extended one row at a time, and the list is exact
  once the M-th cost lies below the least total any dropped prefix could
  reach, K doubling from M until it does;
- else, past `_MERGE_CAP * M` kept prefixes, Murty's method (Operations
  Research 1968), whose work grows with the assignments tied near the M-th
  cost rather than with the prefixes that such ties keep the merge from
  ruling out.

No list, merge or Murty queue stops while a candidate could tie or undercut
the M-th cost within the rounding of the partial sums; only the final sort by
(cost, row_to_col) cuts. Every route returns (row_to_col, costs) arrays; only
`solve_lap` and `murty` build `Assignment` objects.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InfeasibleAssignmentError, check_int

# enumerate a block whose product of per-row candidate counts is at most this;
# enumeration, the merge and Murty produce identical ranked output
_ENUM_CAP = 512
# the row-by-row merge keeps at most this many prefixes per requested
# assignment before a block falls back to Murty's method
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
    """murty body for already-validated matrices: the whole matrix ranked as one block."""
    (cols,), (totals,) = _ranked_block(cost[None], np.isfinite(cost), np.arange(len(cost)), m_best)
    return [Assignment(tuple(c), t) for c, t in zip(cols.tolist(), totals.tolist())]


def _ranked_components(costs: np.ndarray, m_best: int) -> list[tuple[np.ndarray, ...]]:
    """Each connected component's ranked assignments, per matrix of a (G, m, n) stack.

    The matrices may differ in +inf pattern. A list holds a component's
    min(m_best, #feasible) cheapest assignments, sorted by (cost, row_to_col).
    Returns lists of I entries of r rows as (mats, rows, cols, costs): each
    entry's matrix (I,) and ascending rows (I, r), its row_to_cols (I, L, r)
    in global columns and their costs (I, L), +inf past its list. First come
    all rows alone in their component (r = 1), by matrix and row: their
    finite entries, stably sorted, so ties keep column order. Then, per
    pattern of the joined rows, each larger component in order of first
    row, ranked once for the pattern's matrices by `_ranked_block`.
    """
    _, m, n = costs.shape
    finite = np.isfinite(costs)
    counts = finite.sum(axis=2)
    if counts.size and counts.min() == 0:
        raise InfeasibleAssignmentError("a row has no finite-cost column")
    # a row is alone when none of its finite columns is finite in another row
    alone = ~(finite & (finite.sum(axis=1) > 1)[:, None]).any(axis=2)
    mats, rows = np.nonzero(alone)
    out = []
    if len(mats):
        # +inf sorts after every finite entry, so the first `count` columns are the list
        vals = costs[mats, rows]
        order = np.argsort(vals, axis=1, kind="stable")[:, :min(m_best, counts[mats, rows].max())]
        out.append((mats, rows[:, None], order[..., None], np.take_along_axis(vals, order, axis=1)))
    joined = finite & ~alone[:, :, None]
    first, pattern = _unique_rows(np.packbits(joined.reshape(len(costs), m * n), axis=1))
    for p, f in enumerate(first.tolist()):
        members = np.flatnonzero(pattern == p)
        for comp in _components(joined[f]):
            if len(comp) > 1:
                cols, totals = _ranked_block(costs[members], joined[f], comp, m_best)
                rows = np.broadcast_to(comp, (len(members), len(comp)))
                out.append((members, rows, cols, totals))
    return out


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 2-d array in order of first appearance.

    Returns the index of each distinct row's first appearance and, per row,
    the number of its distinct row in that order.
    """
    n = len(rows)
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(n)
    ranked = rows[order]
    new = np.ones(n, dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = order[new]  # a stable sort keeps equal rows in index order
    by_first = np.argsort(first)
    number = np.empty(len(first), dtype=int)
    number[by_first] = np.arange(len(first))
    of = np.empty(n, dtype=int)
    of[order] = number[np.cumsum(new) - 1]
    return first[by_first], of


def _slack(costs: np.ndarray) -> np.ndarray:
    """(G,) bound on the rounding of a sum of a row_to_col's entries, per matrix of a stack.

    Sums of the same m entries in two orders differ by at most about
    m * eps * scale; a cut is safe at twice that, and twice again covers the
    rounding of LAP's own optimum.
    """
    finite = np.isfinite(costs)
    scale = np.where(finite, np.abs(costs), 0.0).max(axis=2).sum(axis=1)
    return (4 * costs.shape[1] * np.finfo(float).eps) * scale


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
    costs: np.ndarray, finite: np.ndarray, rows: np.ndarray, m_best: int
) -> tuple[np.ndarray, np.ndarray]:
    """A block of rows' min(m_best, #feasible) cheapest assignments per matrix of a stack.

    Returns row_to_col (G, L, len(rows)) in global columns and the costs
    (G, L), sorted by (cost, row_to_col). The block is ranked on its own
    columns, in ascending order, so its lexicographic order is the whole
    matrix's restricted to its rows. An enumerated block is scored for the
    whole stack at once; a larger one is ranked per matrix, within the
    rounding slack of its own entries.
    """
    cols = np.flatnonzero(finite[rows].any(axis=0))
    local = finite[np.ix_(rows, cols)]
    block = costs[:, rows][:, :, cols]
    if np.prod(local.sum(axis=1), dtype=float) <= _ENUM_CAP:
        tuples = _feasible_tuples(local)
        total = _scores(block, tuples)
        # tuples come in lexicographic order, so a stable sort by total breaks ties by row_to_col
        order = np.argsort(total, axis=1, kind="stable")[:, :m_best]
        return cols[tuples[order]], np.take_along_axis(total, order, axis=1)
    if len(rows) > len(cols):
        raise InfeasibleAssignmentError("no feasible assignment")
    ranked = [
        _merge_ranked(cost, m_best, s) or _murty_queue(cost, m_best, s)
        for cost, s in zip(block, _slack(block))
    ]
    return (
        np.stack([cols[t[:m_best]] for t, _ in ranked]),
        np.stack([c[:m_best] for _, c in ranked]),
    )


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
