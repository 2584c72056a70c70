"""Differential tests of linalg's integer elimination kernel against the
Fraction eliminations it replaced (tests/oracles.py)."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropic.linalg import dot, integer_row, nullspace_basis, rank, solve_affine

from oracles import nullspace_basis_reference, rank_reference

F = Fraction
SMALL = st.fractions(min_value=-6, max_value=6, max_denominator=6)
ENTRIES = st.one_of(st.just(F(0)), SMALL)
NONZERO = SMALL.filter(bool)


@st.composite
def matrices(draw):
    """Rows up to 6 x 6.  Each row may be replaced by a zero row or by a
    scaled copy of an earlier row (rank deficits), or have its sign set so
    its first nonzero entry is negative (negative pivots)."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    rows = [draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(nrows):
        kind = draw(st.sampled_from(["keep", "zero", "copy", "negative"]))
        if kind == "zero":
            rows[i] = [v * 0 for v in rows[i]]
        elif kind == "copy" and i:
            src = rows[draw(st.integers(0, i - 1))]
            factor = draw(NONZERO)
            rows[i] = [factor * v for v in src]
        elif kind == "negative":
            lead = next((v for v in rows[i] if v), 0)
            if lead > 0:
                rows[i] = [-v for v in rows[i]]
    return rows


@settings(max_examples=400, deadline=None)
@given(matrices())
@example([])
@example([[F(0), F(0)]])
@example([[F(1), F(2), F(3)]])
@example([[F(1)], [F(-2)], [F(0)]])
@example([[F(-2), F(1)], [F(4), F(3)]])
def test_rank_matches_reference(rows):
    assert rank(rows) == rank_reference(rows)


@settings(max_examples=400, deadline=None)
@given(matrices(), st.integers(0, 6))
@example([], 3)
@example([[F(0), F(0), F(0)]], 3)
@example([[F(1, 2), F(-3), F(2, 5)]], 3)
@example([[F(-2), F(1)], [F(4), F(3)], [F(2), F(4)]], 2)
def test_nullspace_basis_matches_reference(rows, dim):
    if rows:
        dim = len(rows[0])
    assert nullspace_basis(rows, dim) == nullspace_basis_reference(rows, dim)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.integers(0, 5))
@example([], 2)
@example([[F(0), F(0), F(1)]], 0)
@example([[F(1), F(0), F(2)], [F(2), F(0), F(5)]], 0)
@example([[F(1, 2), F(1), F(3)], [F(0), F(2), F(-1)]], 0)
@example([[F(1), F(-1), F(0)], [F(-2), F(2), F(0)]], 0)
def test_solve_affine_matches_reference(rows, dim):
    # The rows are [A | b], their last column b; without columns, A x = b
    # is the empty system in Q^dim.
    if rows and rows[0]:
        dim = len(rows[0]) - 1
        eqs = [(r[:-1], r[-1]) for r in rows]
    else:
        eqs = []
    a = [c for c, _ in eqs]
    sol = solve_affine(eqs, dim)
    assert sol.rank == rank_reference(a)
    assert sol.consistent == (rank_reference([[*c, r] for c, r in eqs]) == sol.rank)
    if sol.consistent and sol.rank == dim:
        assert len(sol.point) == dim and all(dot(c, sol.point) == r for c, r in eqs)
    else:
        assert sol.point is None
    if sol.rank == dim - 1:
        assert [sol.direction] == nullspace_basis_reference(a, dim)
    else:
        assert sol.direction is None


def test_integer_row_scales_by_the_lcm_without_gcd_reduction():
    assert integer_row([F(1, 2), F(2, 3), F(-1, 6), 4]) == ([3, 4, -1, 24], 6)
    assert integer_row([2, 4]) == ([2, 4], 1)
    assert integer_row([]) == ([], 1)
    with pytest.raises(TypeError):
        integer_row([1, "1"])

