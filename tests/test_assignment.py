import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajsmooth.assignment import Assignment, murty, solve_lap
from trajsmooth.errors import ContractError, InfeasibleAssignmentError


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
