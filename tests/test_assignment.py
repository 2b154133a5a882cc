import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from trajsmooth import assignment
from trajsmooth.assignment import (
    _ENUM_CAP,
    Assignment,
    _components,
    _merge_ranked,
    _murty_queue,
    _ranked_components,
    murty,
    solve_lap,
)
from trajsmooth.errors import ContractError, InfeasibleAssignmentError, SettingError


def brute_force_ranked(cost):
    """All feasible assignments sorted by (cost, row_to_col); independent oracle."""
    m, n = cost.shape
    out = []
    for cols in itertools.permutations(range(n), m):
        total = 0.0
        ok = True
        for i, j in enumerate(cols):
            v = float(cost[i, j])
            if not np.isfinite(v):
                ok = False
                break
            total += v
        if ok:
            out.append(Assignment(tuple(cols), total))
    out.sort(key=lambda a: (a.cost, a.row_to_col))
    return out


def random_matrix(rng, m, n, forbid_frac=0.2):
    cost = rng.uniform(0.0, 10.0, size=(m, n))
    mask = rng.random((m, n)) < forbid_frac
    cost[mask] = np.inf
    return cost


def test_solve_lap_obvious_optimum():
    a = solve_lap(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert a.row_to_col == (0, 1)
    assert a.cost == pytest.approx(2.0)


def test_solve_lap_1x1():
    a = solve_lap(np.array([[5.0]]))
    assert a.row_to_col == (0,)
    assert a.cost == 5.0


def test_solve_lap_empty():
    assert solve_lap(np.zeros((0, 3))) == Assignment((), 0.0)


@pytest.mark.parametrize("seed", range(20))
def test_solve_lap_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    cost = random_matrix(rng, 6, 9)
    ranked = brute_force_ranked(cost)
    if not ranked:
        with pytest.raises(InfeasibleAssignmentError):
            solve_lap(cost)
        return
    assert solve_lap(cost).cost == ranked[0].cost


def lap_parity_matrices(rng, kind, count):
    """Random matrices of one kind, m <= n <= 9: the shapes and ties GOSPA and Murty feed `_lap`."""
    for _ in range(count):
        m = int(rng.integers(1, 8))
        shape = (m, int(rng.integers(m, 10)))
        if kind == "random":
            yield rng.random(shape)
        elif kind == "ties":
            yield rng.integers(0, 3, shape).astype(float)
        elif kind == "capped":  # GOSPA cuts every distance at c^p
            yield np.minimum(rng.random(shape) * 4.0, 1.0)
        else:
            cost = rng.integers(0, 4, shape).astype(float)
            cost[rng.random(shape) < 0.4] = np.inf
            yield cost


@pytest.mark.parametrize("kind", ["random", "ties", "capped", "inf"])
def test_solve_lap_picks_scipys_assignment(kind):
    rng = np.random.default_rng(len(kind))
    infeasible = 0
    for cost in lap_parity_matrices(rng, kind, 2_500):
        try:
            _, cols = linear_sum_assignment(cost)
        except ValueError:
            infeasible += 1
            with pytest.raises(InfeasibleAssignmentError):
                solve_lap(cost)
            continue
        got = solve_lap(cost)
        assert got.row_to_col == tuple(cols.tolist())
        assert got.cost == sum(cost[i, j] for i, j in enumerate(got.row_to_col))
    assert (infeasible > 0) == (kind == "inf")


def test_solve_lap_infeasible_row():
    cost = np.array([[np.inf, np.inf], [1.0, 2.0]])
    with pytest.raises(InfeasibleAssignmentError):
        solve_lap(cost)


def test_solve_lap_rejects_bad_shapes():
    with pytest.raises(ContractError):
        solve_lap(np.zeros((3, 2)))
    with pytest.raises(ContractError):
        solve_lap(np.array([[np.nan, 1.0]]))
    with pytest.raises(ContractError):
        solve_lap(np.array([[-np.inf, 1.0]]))


def test_murty_two_by_two():
    out = murty(np.array([[1.0, 2.0], [2.0, 1.0]]), 5)
    assert [a.cost for a in out] == [2.0, 4.0]
    assert out[0].row_to_col == (0, 1)
    assert out[1].row_to_col == (1, 0)


def test_murty_m1_equals_lap():
    rng = np.random.default_rng(42)
    cost = random_matrix(rng, 4, 6)
    assert murty(cost, 1)[0].cost == solve_lap(cost).cost


@pytest.mark.parametrize("seed", range(20))
def test_murty_matches_brute_force(seed):
    rng = np.random.default_rng(1000 + seed)
    cost = random_matrix(rng, 4, 7)
    ranked = brute_force_ranked(cost)
    if not ranked:
        with pytest.raises(InfeasibleAssignmentError):
            murty(cost, 20)
        return
    out = murty(cost, 20)
    expect = ranked[:20]
    assert [a.cost for a in out] == [a.cost for a in expect]
    assert [a.row_to_col for a in out] == [a.row_to_col for a in expect]


@pytest.mark.parametrize("seed", range(8))
def test_murty_queue_path_matches_brute_force(seed):
    # dense matrix large enough to bypass the enumeration fast path
    rng = np.random.default_rng(2000 + seed)
    cost = rng.uniform(0.0, 10.0, size=(5, 8))
    out = murty(cost, 25)
    expect = brute_force_ranked(cost)[:25]
    assert [a.row_to_col for a in out] == [a.row_to_col for a in expect]
    np.testing.assert_allclose([a.cost for a in out], [a.cost for a in expect], rtol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_murty_invariants(seed):
    rng = np.random.default_rng(3000 + seed)
    cost = random_matrix(rng, 4, 6)
    try:
        out = murty(cost, 15)
    except InfeasibleAssignmentError:
        return
    costs = [a.cost for a in out]
    assert costs == sorted(costs)
    assert len({a.row_to_col for a in out}) == len(out)
    for a in out:
        assert len(set(a.row_to_col)) == len(a.row_to_col)
        assert np.isfinite(a.cost)
        for i, j in enumerate(a.row_to_col):
            assert np.isfinite(cost[i, j])


@pytest.mark.parametrize("seed", range(6))
def test_murty_row_shift_invariance(seed):
    rng = np.random.default_rng(4000 + seed)
    cost = random_matrix(rng, 4, 6, forbid_frac=0.1)
    try:
        base = murty(cost, 10)
    except InfeasibleAssignmentError:
        return
    shift = 3.25  # exactly representable so costs shift without rounding
    shifted = cost.copy()
    row = 2
    finite = np.isfinite(shifted[row])
    shifted[row, finite] += shift
    out = murty(shifted, 10)
    assert [a.row_to_col for a in out] == [a.row_to_col for a in base]
    np.testing.assert_allclose(
        [a.cost for a in out], [a.cost + shift for a in base], rtol=1e-12
    )


def test_murty_diagonal_shape_contract():
    # rows may take a Bernoulli column or their own diagonal column only
    n_bern, m = 2, 3
    w1 = np.full((m, n_bern), 1.0)
    diag = np.full((m, m), np.inf)
    np.fill_diagonal(diag, 2.0)
    cost = np.hstack([w1, diag])
    for a in murty(cost, 50):
        for j, col in enumerate(a.row_to_col):
            assert col < n_bern or col == n_bern + j


def test_murty_empty_and_bad_m():
    assert murty(np.zeros((0, 2)), 3) == [Assignment((), 0.0)]
    with pytest.raises(ContractError):
        murty(np.array([[1.0]]), 0)


@pytest.mark.parametrize("m_best", [2.5, "3", True, 0])
def test_murty_rejects_non_integer_m_best(m_best):
    with pytest.raises(SettingError, match="m_best"):
        murty(np.array([[1.0, 2.0]]), m_best)


@st.composite
def masked_matrices(draw):
    """An m x n +inf mask and several small-integer value sets under it, so ties are common."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m, 6))
    mask = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=m, max_size=m))
    values = draw(st.lists(
        st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=m, max_size=m),
        min_size=1, max_size=3,
    ))
    return [np.where(mask, np.inf, np.array(v, dtype=float)) for v in values]


@settings(max_examples=300, deadline=None)
@given(masked_matrices(), st.integers(1, 40))
def test_ranked_order_matches_brute_force_with_ties(costs, m_best):
    # the same mask with different values hits the per-pattern enumeration again;
    # row_to_col order, not only the costs, fixes which hypothesis a draw picks
    for cost in costs:
        expected = brute_force_ranked(cost)
        if not expected:
            with pytest.raises(InfeasibleAssignmentError):
                murty(cost, m_best)
            continue
        got = murty(cost, m_best)
        assert [(a.row_to_col, a.cost) for a in got] == [
            (a.row_to_col, a.cost) for a in expected[:m_best]
        ]


@pytest.mark.parametrize("seed, m_best", [(0, 1), (4, 3), (5, 7), (21, 15), (7, 30), (23, 1)])
def test_murty_path_breaks_ties_by_row_to_col(seed, m_best):
    # one dense component too large to enumerate: LAP returns some optimum of
    # a node, and a lexicographically smaller tie may still sit unexpanded
    rng = np.random.default_rng(5000 + seed)
    cost = rng.integers(0, 4, size=(5, 7)).astype(float)
    cost[rng.random((5, 7)) < 0.1] = np.inf
    finite = np.isfinite(cost)
    assert np.prod(finite.sum(axis=1)) > _ENUM_CAP and len(_components(finite)) == 1
    expected = brute_force_ranked(cost)[:m_best]
    assert [(a.row_to_col, a.cost) for a in murty(cost, m_best)] == [
        (a.row_to_col, a.cost) for a in expected
    ]


def _block_layouts():
    """(rows, columns) per block of each 2-3 block layout the strategy below can reach.

    Rows are 1-4 per block and at most 6 in all; a block of r rows has r to r + 2
    columns, one fewer each when they sum above 8. Only layouts with more than
    _ENUM_CAP candidates when every entry is finite are kept: no other can pass
    the precondition of the clustered-ranking test.
    """
    layouts = set()
    for n_blocks in (2, 3):
        for rows in itertools.product(range(1, 5), repeat=n_blocks):
            for extra in itertools.product(range(3), repeat=n_blocks):
                cols = [r + e for r, e in zip(rows, extra)]
                if sum(cols) > 8:
                    cols = [max(1, c - 1) for c in cols]
                if sum(rows) <= 6 and math.prod(c**r for r, c in zip(rows, cols)) > _ENUM_CAP:
                    layouts.add((rows, tuple(cols)))
    return sorted(layouts)


@st.composite
def block_matrices(draw):
    """2-3 independent blocks of small-integer costs, rows and columns shuffled.

    Too many candidates to enumerate whole, so ranking goes through the
    per-component lists and their merge.
    """
    rows, cols = draw(st.sampled_from(_block_layouts()))
    cost = np.full((sum(rows), max(sum(cols), sum(rows))), np.inf)
    r0 = c0 = 0
    for r, c in zip(rows, cols):
        values = draw(st.lists(st.integers(-1, 3), min_size=r * c, max_size=r * c))
        block = np.array(values, dtype=float).reshape(r, c)
        block[block < 0] = np.inf
        cost[r0:r0 + r, c0:c0 + c] = block
        r0, c0 = r0 + r, c0 + c
    row_order = draw(st.permutations(range(cost.shape[0])))
    col_order = draw(st.permutations(range(cost.shape[1])))
    cost = cost[list(row_order)][:, list(col_order)]
    return cost


@settings(max_examples=100, deadline=None)
@given(block_matrices().filter(lambda c: np.prod(np.isfinite(c).sum(axis=1)) > _ENUM_CAP),
       st.integers(1, 40))
def test_clustered_ranking_matches_brute_force(cost, m_best):
    # shuffled blocks interleave components in row_to_col, so the merge must
    # keep every tie until the final sort
    finite = np.isfinite(cost)
    assert np.prod(finite.sum(axis=1)) > _ENUM_CAP and len(_components(finite)) >= 2
    expected = brute_force_ranked(cost)
    if not expected:
        with pytest.raises(InfeasibleAssignmentError):
            murty(cost, m_best)
        return
    assert [(a.row_to_col, a.cost) for a in murty(cost, m_best)] == [
        (a.row_to_col, a.cost) for a in expected[:m_best]
    ]


@pytest.mark.parametrize("integer", [False, True])
def test_ranked_components_equal_murty_per_component(integer):
    # a stack whose matrices differ in +inf pattern: the first two share one
    # with a component too large to enumerate, an enumerated one, a single row
    # and a fixed row, so every route runs; the others gate out entries at
    # random, which splits their components and leaves rows alone
    rng = np.random.default_rng(6000 + integer)
    pattern = np.full((9, 12), False)
    pattern[:5, :6] = True
    pattern[5:7, 6:9] = True
    pattern[7, 9:11] = True
    pattern[8, 11] = True
    pattern = pattern[rng.permutation(9)][:, rng.permutation(12)]
    patterns = np.repeat(pattern[None], 8, axis=0)
    for p in patterns[2:]:
        # a random feasible assignment stays, and each other entry with probability 0.4
        kept = solve_lap(np.where(p, rng.random(p.shape), np.inf)).row_to_col
        p &= rng.random(p.shape) < 0.4
        p[np.arange(len(p)), kept] = True
    shape = patterns.shape
    values = rng.integers(0, 4, size=shape) if integer else rng.normal(0.0, 5.0, shape)
    costs = np.where(patterns, values.astype(float), np.inf)
    lists = _ranked_components(costs, 30)
    # the rows alone in their component come first, together
    assert lists[0][1].shape[1] == 1 and all(rows.shape[1] > 1 for _, rows, _, _ in lists[1:])
    assert len(lists[0][0]) > 2 * len(costs)  # gating left rows alone that are not in matrix 0
    listed_rows = [[] for _ in costs]
    for mats, rows, cols, totals in lists:
        for g, comp, c, t in zip(mats.tolist(), rows, cols, totals):
            listed_rows[g].append(comp.tolist())
            expected = [(a.row_to_col, a.cost) for a in murty(costs[g][comp], 30)]
            listed = np.isfinite(t)
            assert list(zip(map(tuple, c[listed].tolist()), t[listed].tolist())) == expected
            assert np.all(t[len(expected):] == np.inf)
            if len(comp) == 1:
                # an alone row's list is its finite entries, stably sorted
                row = costs[g, comp[0]]
                finite = np.flatnonzero(np.isfinite(row))
                ranked = finite[np.argsort(row[finite], kind="stable")][:30]
                assert c[listed, 0].tolist() == ranked.tolist()
    for found, p in zip(listed_rows, patterns):
        assert sorted(found) == sorted(rows.tolist() for rows in _components(p))


def _slack(cost):
    """The rounding slack `assignment._slack` gives a matrix."""
    scale = np.where(np.isfinite(cost), np.abs(cost), 0.0).max(axis=1).sum()
    return 4 * cost.shape[0] * np.finfo(float).eps * scale


@st.composite
def forward_shaped(draw):
    """Measurement rows, each with its own private new-track column after the
    shared track columns, and float costs of either sign."""
    m = draw(st.integers(2, 7))
    tracks = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cost = np.full((m, tracks + m), np.inf)
    shared = rng.random((m, tracks)) < draw(st.floats(0.3, 1.0))
    cost[:, :tracks][shared] = rng.normal(0.0, 3.0, shared.sum())
    cost[np.arange(m), tracks + np.arange(m)] = rng.normal(2.0, 3.0, m)
    return cost


@st.composite
def small_integer(draw):
    """Small-integer costs with many exact ties under a +inf mask; every row keeps a finite entry."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(m, 7))
    values = draw(st.lists(st.integers(-1, 4), min_size=m * n, max_size=m * n))
    cost = np.array(values, dtype=float).reshape(m, n)
    cost[cost < 0] = np.inf
    for r in np.flatnonzero(~np.isfinite(cost).any(axis=1)):
        cost[r, r] = 1.0
    return cost


@settings(max_examples=150, deadline=None)
@given(st.one_of(forward_shaped(), small_integer()), st.integers(1, 120))
def test_merge_equals_murty_queue(cost, m_best):
    slack = _slack(cost)
    try:
        expected = _murty_queue(cost, m_best, slack)
    except InfeasibleAssignmentError:
        # the merge proves infeasibility when it drops nothing, else it gives up
        try:
            assert _merge_ranked(cost, m_best, slack) is None
        except InfeasibleAssignmentError:
            pass
        return
    got = _merge_ranked(cost, m_best, slack)
    assume(got is not None)
    for got_array, expected_array in zip(got, expected):
        assert got_array.dtype == expected_array.dtype
        np.testing.assert_array_equal(got_array, expected_array)


@pytest.mark.parametrize("m_best", [1, 3, 10])
def test_all_equal_component_takes_murty_fallback(monkeypatch, m_best):
    # every one of the 2520 assignments ties, so no prefix can be ruled out
    # before the merge keeps them all; Murty ranks the component instead
    cost = np.ones((5, 7))
    calls = []

    def counted(*args):
        calls.append(args)
        return _murty_queue(*args)

    monkeypatch.setattr(assignment, "_murty_queue", counted)
    assert _merge_ranked(cost, m_best, _slack(cost)) is None
    assert [(a.row_to_col, a.cost) for a in murty(cost, m_best)] == [
        (a.row_to_col, a.cost) for a in brute_force_ranked(cost)[:m_best]
    ]
    assert len(calls) == 1
