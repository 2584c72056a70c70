"""Exact linear algebra over the rationals, on one integer elimination kernel.

Every elimination in tropic (linprog's simplex tableau, rank,
nullspace_basis, kernel_line, solve_affine and extend_reduction) runs on
integer rows from integer_row: int or Fraction values times the lcm of
their denominators, not gcd-reduced.  extend_reduction stacks more
integer rows below a reduction already made, as network.flats_transverse
does for each tuple of flats; _reduce, behind rank, nullspace_basis,
kernel_line and solve_affine, is its case from no rows.  Both end in
_eliminate, the one column loop.  pivot is one fraction-free
Gauss-Jordan step of Bareiss (1968): each other row becomes
(row * piv - row[s] * prow) / den, den the previous pivot, in one pass
of floor divisions per row.  One equation of row sums checks that every
division was exact: Python's floor remainders all have the sign of den or
are 0, so they sum to 0 only when each of them is 0.  The last pivot is
the shared denominator of the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


class InternalError(RuntimeError):
    """An internal invariant failed; a bug in tropic, not in its input."""


def integer_row(values: Sequence) -> tuple[list[int], int]:
    """(ints, scale) with ints = values * scale, scale the lcm of the
    denominators of the int or Fraction values; not gcd-reduced.  Values
    that are all exactly int (a bool is not) are copied with scale 1."""
    for v in values:
        if type(v) is not int:
            break
    else:
        return list(values), 1
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise TypeError(f"exact arithmetic requires int or Fraction, got {type(v).__name__}")
    dens = [v.denominator for v in values]
    scale = lcm(*dens)
    return [v.numerator * (scale // d) for v, d in zip(values, dens)], scale


def pivot(rows: list[list[int]], prow: list[int], s: int, den: int) -> int:
    """One Bareiss Gauss-Jordan step on column s, in place on every row of
    rows except prow; den is the previous pivot (1 before the first).
    Returns the new shared denominator prow[s], which must be nonzero.

    Each row with f = row[s] nonzero becomes q = (row * piv - f * prow) // den
    in one pass, and a row with f = 0 becomes row * piv // den, or stays as
    it is when piv == den.  Every division is checked exact, as a whole row
    at once, by den * sum(q) == piv * sum(row) - f * sum(prow): the two
    sides differ by the sum of the row's floor remainders, which all have
    the sign of den or are 0, so the sum is 0 only when every remainder is.
    That holds for a negative den too.  den == 1 divides nothing."""
    piv = prow[s]
    psum = sum(prow)
    for row in rows:
        if row is prow:
            continue
        f = row[s]
        if den == 1:
            if f:
                row[:] = [a * piv - f * b for a, b in zip(row, prow)]
            elif piv != 1:
                row[:] = [a * piv for a in row]
            continue
        if f:
            q = [(a * piv - f * b) // den for a, b in zip(row, prow)]
        elif piv != den:
            q = [a * piv // den for a in row]
        else:
            continue
        if den * sum(q) != piv * sum(row) - f * psum:
            raise InternalError("integer pivot lost exactness")
        row[:] = q
    return piv


def extend_reduction(
    red: tuple[list[list[int]], list[int], int], rows: Sequence[Sequence[int]]
) -> tuple[list[list[int]], list[int], int]:
    """The reduction (mat, pivots, den) of the rows that red reduces with
    the integer rows rows stacked below them; red and rows are left as they
    are.  Row i of mat has den in column pivots[i] and 0 in the other pivot
    columns: mat / den is the stack's reduced row echelon form, its rows in
    the order their pivots were found, and the stack's rank is len(pivots).

    A new row r first becomes den * r - sum(r[pc] * mat[i]) over red's
    pivot columns pc = pivots[i]: den times r with red's rows cleared out
    of it, which is the row red's Bareiss steps would have made of it, 0 in
    every pivot column.  Rows that are then 0 are dropped, and _eliminate's
    column loop goes on from red's pivots; a new pivot updates red's rows
    too."""
    old, pivots, den = red
    mat = [row[:] for row in old]
    for r in rows:
        q = list(r) if den == 1 else [den * a for a in r]
        for row, pc in zip(old, pivots):
            f = r[pc]
            if f:
                q = [a - f * b for a, b in zip(q, row)]
        if any(q):
            mat.append(q)
    return _eliminate(mat, list(pivots), den)


def _eliminate(mat: list[list[int]], pivots: list[int], den: int) -> tuple[list[list[int]], list[int], int]:
    """The one column loop of every reduction, in place: the first
    len(pivots) rows of mat are reduced, with den in their pivot columns,
    and the other rows are 0 in those columns.  Each later column with a
    nonzero entry in a row not yet pivoted gets the first such row as its
    pivot row; the rows left over are then 0 and are cut off."""
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        if r == len(mat):
            break
        i = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if i is None:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        den = pivot(mat, mat[r], c, den)
        pivots.append(c)
    del mat[len(pivots) :]
    return mat, pivots, den


def _reduce(rows: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """extend_reduction of the integer rows from no rows, where a row's
    transform is the row itself: the nonzero rows go to _eliminate as they
    are, and are reduced in place.  Its pivots are in column order, so row
    i of mat / den is row i of the reduced row echelon form."""
    return _eliminate([r for r in rows if any(r)], [], 1)


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix given as rows of int or Fraction values."""
    return len(_reduce([integer_row(r)[0] for r in rows])[1])


def _kernel(mat: list[list[int]], pivots: list[int], den: int, dim: int) -> list[list[int]]:
    """Integer basis of the null space of the first dim columns of a
    _reduce result: one vector per free column fc below dim, with den at fc
    and -mat[i][fc] at pivot column pivots[i], den times the vector of the
    reduced rows mat / den with a 1 at fc."""
    basis = []
    for fc in (c for c in range(dim) if c not in pivots):
        v = [0] * dim
        v[fc] = den
        for i, pc in enumerate(pivots):
            if pc < dim:
                v[pc] = -mat[i][fc]
        basis.append(v)
    return basis


def nullspace_basis(rows: Sequence[Sequence[Fraction]], dim: int) -> list[tuple[Fraction, ...]]:
    """Basis of {v : row . v = 0 for all rows}, as vectors in Q^dim: one per
    free column of the reduced row echelon form, with a 1 there."""
    mat, pivots, den = _reduce([integer_row(r)[0] for r in rows])
    return [tuple(Fraction(x, den) for x in v) for v in _kernel(mat, pivots, den, dim)]


@dataclass(frozen=True)
class AffineSolution:
    """What one reduction of [A | b] says about {x in Q^dim : A x = b}: when
    consistent, the solutions are exactly point + span(kernel).  A point is
    the kernel size 0 (rank dim), a line the kernel size 1 (rank dim - 1)."""

    rank: int                                   # rank of A
    consistent: bool                            # rank [A | b] == rank A
    point: tuple[Fraction, ...] | None          # the solution with free coordinates 0, when consistent
    kernel: list[list[int]]                     # integer basis of the null space of A (_kernel)


def solve_affine(rows: Sequence[tuple[Sequence, object]], dim: int) -> AffineSolution:
    """The equations coeffs . x = rhs, given as (coeffs, rhs) pairs in
    Q^dim, in reduced form by one reduction of [A | b]: their rank, their
    consistency, and x = point + span(kernel).  The columns are eliminated
    left to right, so the pivots below dim are A's, and a pivot in the last
    column is a row 0 = nonzero.  point is mat[i][dim] / den at pivot
    column pivots[i] and 0 at every free column."""
    mat, pivots, den = _reduce([integer_row([*c, r])[0] for c, r in rows])
    consistent = not pivots or pivots[-1] < dim
    rank = len(pivots) if consistent else len(pivots) - 1
    at = {pc: row[dim] for row, pc in zip(mat, pivots)}
    point = tuple(Fraction(at.get(c, 0), den) for c in range(dim)) if consistent else None
    return AffineSolution(rank, consistent, point, _kernel(mat, pivots, den, dim))


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """The integer vector v divided by the gcd of its entries and signed so
    that its first nonzero entry is positive: one name for every nonzero
    multiple of v.  The zero vector is returned as it is."""
    g = gcd(*v)
    if next((x for x in v if x), 0) < 0:
        g = -g
    return tuple(x // g for x in v) if g else tuple(v)


def kernel_line(rows: Sequence[Sequence[int]], dim: int) -> tuple[int, ...] | None:
    """The primitive integer vector spanning {v in Q^dim : row . v = 0 for
    all rows} when that null space is a line, else None."""
    basis = _kernel(*_reduce([integer_row(r)[0] for r in rows]), dim)
    return primitive(basis[0]) if len(basis) == 1 else None


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))
