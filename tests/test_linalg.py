"""Differential tests of linalg's integer elimination kernel against the
Fraction eliminations it replaced (tests/oracles.py)."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropic import linalg
from tropic.linalg import (
    InternalError,
    dot,
    extend_reduction,
    integer_row,
    kernel_line,
    nullspace_basis,
    primitive,
    rank,
    solve_affine,
)

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
    if sol.consistent:
        # The solution with free coordinates 0: a column of A is free when
        # it adds no rank to the columns before it.
        free = [j for j in range(dim) if rank_reference([c[: j + 1] for c in a]) == rank_reference([c[:j] for c in a])]
        assert len(sol.point) == dim and all(sol.point[j] == 0 for j in free)
        assert all(dot(c, sol.point) == r for c, r in eqs)
    else:
        assert sol.point is None
    # Each kernel vector is a nonzero multiple of the reference's, inconsistent
    # systems included: the kernel is A's alone.
    ref = nullspace_basis_reference(a, dim)
    assert len(sol.kernel) == len(ref)
    for v, w in zip(sol.kernel, ref):
        k = next(j for j, x in enumerate(w) if x)
        scale = Fraction(v[k]) / w[k]
        assert scale != 0 and all(x == scale * y for x, y in zip(v, w)), (v, w)


def test_integer_row_scales_by_the_lcm_without_gcd_reduction():
    assert integer_row([F(1, 2), F(2, 3), F(-1, 6), 4]) == ([3, 4, -1, 24], 6)
    assert integer_row([2, 4]) == ([2, 4], 1)
    assert integer_row([]) == ([], 1)
    with pytest.raises(TypeError):
        integer_row([1, "1"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=6))
def test_integer_row_of_ints_is_the_general_path(values):
    # Values that are all int take the fast path: a copy with scale 1,
    # the result the general path gives the same values as Fractions.
    ints, scale = integer_row(values)
    assert (ints, scale) == integer_row([F(v) for v in values]) == (values, 1)
    assert ints is not values


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
def test_integer_row_refuses_a_bool_or_float_among_ints(bad):
    with pytest.raises(TypeError):
        integer_row([1, bad, 2])
    with pytest.raises(TypeError):
        integer_row([bad])


@settings(max_examples=300, deadline=None)
@given(matrices())
@example([[F(0), F(0)]])
@example([[F(2), F(-4), F(6)], [F(1), F(1), F(0)]])
def test_kernel_line_is_the_primitive_null_space_line(rows):
    # When the null space is a line, kernel_line is its one primitive
    # integer vector with a positive leading entry, a multiple of the
    # reference basis vector; otherwise it is None.
    dim = len(rows[0]) if rows else 2
    ints = [[int(v * integer_row(r)[1]) for v in r] for r in rows]
    basis = nullspace_basis_reference(rows, dim)
    v = kernel_line(ints, dim)
    if len(basis) != 1:
        assert v is None
        return
    (b,) = basis
    assert all(isinstance(x, int) for x in v) and primitive(v) == v
    assert next(x for x in v if x) > 0
    k = next(i for i, x in enumerate(b) if x)
    assert all(x * b[k] == y * v[k] for x, y in zip(v, b))


def test_primitive_names_a_line_by_one_vector():
    assert primitive([4, -6, 0]) == (2, -3, 0) == primitive([-2, 3, 0])
    assert primitive([0, -3]) == (0, 1)
    assert primitive([0, 0]) == (0, 0)
    assert primitive([]) == ()


def _gauss_jordan_step(ref, r, s):
    """The Fraction Gauss-Jordan step that pivot makes on rows / den: row r
    divided by its entry in column s, then subtracted from every other row
    to clear column s."""
    ref[r] = [x / ref[r][s] for x in ref[r]]
    for i, row in enumerate(ref):
        if i != r and row[s]:
            ref[i] = [a - row[s] * b for a, b in zip(row, ref[r])]


def test_pivot_sequences_match_fraction_gauss_jordan():
    # Integer matrices with entries up to 2^40, so that the Bareiss entries
    # are multi-digit ints as in the drop LPs.  Each step pivots on a
    # nonzero entry of a random row and column, as the simplex does, a row
    # pivoted before included; after it rows / den is the Fraction
    # reference, and pivot returns the new den.
    rng = random.Random(2104)
    signs = set()
    for _ in range(150):
        nrows, ncols = rng.randint(2, 6), rng.randint(2, 8)
        big = 2 ** rng.choice([3, 20, 40])
        rows = [[rng.choice([0, rng.randint(-big, big)]) for _ in range(ncols)] for _ in range(nrows)]
        ref = [[F(x) for x in row] for row in rows]
        den = 1
        for _ in range(8):
            choices = [(r, s) for r in range(nrows) for s in range(ncols) if rows[r][s]]
            if not choices:
                break
            r, s = rng.choice(choices)
            signs.add(rows[r][s] > 0)
            den = linalg.pivot(rows, rows[r], s, den)
            assert den == rows[r][s]
            _gauss_jordan_step(ref, r, s)
            assert [[F(x, den) for x in row] for row in rows] == ref
    assert signs == {True, False}


@pytest.mark.parametrize("den", [3, -3], ids=["den>0", "den<0"])
@pytest.mark.parametrize("rows", [
    [[1, 0, 0], [1, 1, 2]],
    [[1, 0, 0], [0, 1, 2]],
], ids=["update", "rescale"])
def test_pivot_refuses_an_inexact_division(rows, den):
    # The second row becomes [0, 1, 2], by the update (f = 1) or by the
    # rescale (f = 0, piv != den), and den does not divide it, although it
    # divides its sum 3: each floor remainder is counted, not their total.
    with pytest.raises(InternalError, match="lost exactness"):
        linalg.pivot(rows, rows[0], 0, den)


def _draw_rows(rng, nrows, ncols):
    """Integer rows in which a row may be zero, a scaled copy of an earlier
    row, or a random row with entries up to 9 and up to 2^40, zeros
    common."""
    rows = []
    for _ in range(nrows):
        kind = rng.choice(["random", "random", "random", "zero", "copy"])
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "copy" and rows:
            rows.append([rng.choice([-3, -1, 2]) * x for x in rng.choice(rows)])
        else:
            big = rng.choice([9, 9, 2**40])
            rows.append([rng.choice([0, rng.randint(-big, big)]) for _ in range(ncols)])
    return rows


def test_extend_reduction_matches_one_reduction_of_the_stack():
    # Seeded draws: up to 9 rows in up to 6 columns, cut into blocks, each
    # extending the reduction of the blocks before it.  After each block,
    # the rank is the Fraction oracle's, the pivot columns are those that
    # add rank to the columns before them, and mat / den, rows in pivot
    # column order, is _reduce's reduced row echelon form of the stack,
    # which the row space determines.  Neither the extended reduction nor
    # the block is changed.  The floors show zero and repeated rows, blocks
    # that complete rank dim and pivots of both signs.
    rng = random.Random(2104)
    zero = repeated = completes = 0
    signs = set()
    for _ in range(400):
        ncols = rng.randint(1, 6)
        rows = _draw_rows(rng, rng.randint(1, 9), ncols)
        zero += sum(not any(r) for r in rows)
        nonzero = [primitive(r) for r in rows if any(r)]
        repeated += len(nonzero) - len(set(nonzero))
        cuts = sorted(rng.sample(range(1, len(rows)), rng.randint(0, len(rows) - 1)))
        red = ([], [], 1)
        for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
            block = [r[:] for r in rows[lo:hi]]
            before = ([r[:] for r in red[0]], red[1][:], red[2])
            mat, pivots, den = extend_reduction(red, block)
            assert red == before and block == rows[lo:hi]
            stack = [[F(x) for x in r] for r in rows[:hi]]
            assert len(pivots) == rank_reference(stack)
            assert sorted(pivots) == [
                c for c in range(ncols) if rank_reference([r[: c + 1] for r in stack]) > rank_reference([r[:c] for r in stack])
            ]
            ref_mat, ref_pivots, ref_den = linalg._reduce([r[:] for r in rows[:hi]])
            assert ref_pivots == sorted(pivots)
            order = sorted(range(len(pivots)), key=pivots.__getitem__)
            assert [[F(x, den) for x in mat[i]] for i in order] == [[F(x, ref_den) for x in r] for r in ref_mat]
            for row, pc in zip(mat, pivots):
                assert all(row[c] == (den if c == pc else 0) for c in pivots)
            if len(pivots) > len(red[1]):
                signs.add(den > 0)
                completes += len(pivots) == ncols
            red = (mat, pivots, den)
    assert zero >= 500 and repeated >= 150 and completes >= 120, (zero, repeated, completes)
    assert signs == {True, False}
